//! Finite-difference stencil matrices on regular grids.
//!
//! These supply the "group A" style PDE matrices of the paper's suite:
//! symmetric positive-definite Poisson operators (`ecology2`, `apache2`,
//! `parabolic_fem`, … analogues) and nonsymmetric convection–diffusion
//! operators with symmetric patterns (`wang3` analogue).

use javelin_sparse::{CooMatrix, CsrMatrix};

/// 2D 5-point Laplacian on an `nx × ny` grid (Dirichlet boundary).
///
/// SPD; row density ≤ 5 (the paper's `ecology2` has RD exactly 5).
pub fn laplace_2d(nx: usize, ny: usize) -> CsrMatrix<f64> {
    let n = nx * ny;
    let idx = |i: usize, j: usize| i * ny + j;
    let mut coo = CooMatrix::with_capacity(n, n, 5 * n);
    for i in 0..nx {
        for j in 0..ny {
            let r = idx(i, j);
            coo.push_unchecked(r, r, 4.0);
            if i > 0 {
                coo.push_unchecked(r, idx(i - 1, j), -1.0);
            }
            if i + 1 < nx {
                coo.push_unchecked(r, idx(i + 1, j), -1.0);
            }
            if j > 0 {
                coo.push_unchecked(r, idx(i, j - 1), -1.0);
            }
            if j + 1 < ny {
                coo.push_unchecked(r, idx(i, j + 1), -1.0);
            }
        }
    }
    coo.to_csr()
}

/// 3D 7-point Laplacian on an `nx × ny × nz` grid (Dirichlet boundary).
pub fn laplace_3d(nx: usize, ny: usize, nz: usize) -> CsrMatrix<f64> {
    let n = nx * ny * nz;
    let idx = |i: usize, j: usize, k: usize| (i * ny + j) * nz + k;
    let mut coo = CooMatrix::with_capacity(n, n, 7 * n);
    for i in 0..nx {
        for j in 0..ny {
            for k in 0..nz {
                let r = idx(i, j, k);
                coo.push_unchecked(r, r, 6.0);
                if i > 0 {
                    coo.push_unchecked(r, idx(i - 1, j, k), -1.0);
                }
                if i + 1 < nx {
                    coo.push_unchecked(r, idx(i + 1, j, k), -1.0);
                }
                if j > 0 {
                    coo.push_unchecked(r, idx(i, j - 1, k), -1.0);
                }
                if j + 1 < ny {
                    coo.push_unchecked(r, idx(i, j + 1, k), -1.0);
                }
                if k > 0 {
                    coo.push_unchecked(r, idx(i, j, k - 1), -1.0);
                }
                if k + 1 < nz {
                    coo.push_unchecked(r, idx(i, j, k + 1), -1.0);
                }
            }
        }
    }
    coo.to_csr()
}

/// 2D convection–diffusion with first-order upwinding:
/// `-Δu + w·∇u`. Symmetric pattern, nonsymmetric values.
pub fn convection_diffusion_2d(nx: usize, ny: usize, wx: f64, wy: f64) -> CsrMatrix<f64> {
    let n = nx * ny;
    let idx = |i: usize, j: usize| i * ny + j;
    let h = 1.0 / (nx.max(ny) as f64 + 1.0);
    let mut coo = CooMatrix::with_capacity(n, n, 5 * n);
    // Upwind: convection adds |w|h to the diagonal and -|w|h upstream,
    // preserving an M-matrix (no pivoting hazards).
    let (cxm, cxp) = if wx >= 0.0 {
        (wx * h, 0.0)
    } else {
        (0.0, -wx * h)
    };
    let (cym, cyp) = if wy >= 0.0 {
        (wy * h, 0.0)
    } else {
        (0.0, -wy * h)
    };
    for i in 0..nx {
        for j in 0..ny {
            let r = idx(i, j);
            coo.push_unchecked(r, r, 4.0 + cxm + cxp + cym + cyp);
            if i > 0 {
                coo.push_unchecked(r, idx(i - 1, j), -1.0 - cxm);
            }
            if i + 1 < nx {
                coo.push_unchecked(r, idx(i + 1, j), -1.0 - cxp);
            }
            if j > 0 {
                coo.push_unchecked(r, idx(i, j - 1), -1.0 - cym);
            }
            if j + 1 < ny {
                coo.push_unchecked(r, idx(i, j + 1), -1.0 - cyp);
            }
        }
    }
    coo.to_csr()
}

/// 3D convection–diffusion (7-point, upwinded); the `wang3` analogue:
/// semiconductor-device-like, symmetric pattern, nonsymmetric values.
pub fn convection_diffusion_3d(
    nx: usize,
    ny: usize,
    nz: usize,
    w: (f64, f64, f64),
) -> CsrMatrix<f64> {
    let n = nx * ny * nz;
    let idx = |i: usize, j: usize, k: usize| (i * ny + j) * nz + k;
    let h = 1.0 / (nx.max(ny).max(nz) as f64 + 1.0);
    let up = |wc: f64| {
        if wc >= 0.0 {
            (wc * h, 0.0)
        } else {
            (0.0, -wc * h)
        }
    };
    let (cxm, cxp) = up(w.0);
    let (cym, cyp) = up(w.1);
    let (czm, czp) = up(w.2);
    let mut coo = CooMatrix::with_capacity(n, n, 7 * n);
    for i in 0..nx {
        for j in 0..ny {
            for k in 0..nz {
                let r = idx(i, j, k);
                coo.push_unchecked(r, r, 6.0 + cxm + cxp + cym + cyp + czm + czp);
                if i > 0 {
                    coo.push_unchecked(r, idx(i - 1, j, k), -1.0 - cxm);
                }
                if i + 1 < nx {
                    coo.push_unchecked(r, idx(i + 1, j, k), -1.0 - cxp);
                }
                if j > 0 {
                    coo.push_unchecked(r, idx(i, j - 1, k), -1.0 - cym);
                }
                if j + 1 < ny {
                    coo.push_unchecked(r, idx(i, j + 1, k), -1.0 - cyp);
                }
                if k > 0 {
                    coo.push_unchecked(r, idx(i, j, k - 1), -1.0 - czm);
                }
                if k + 1 < nz {
                    coo.push_unchecked(r, idx(i, j, k + 1), -1.0 - czp);
                }
            }
        }
    }
    coo.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laplace_2d_structure() {
        let a = laplace_2d(4, 5);
        assert_eq!(a.nrows(), 20);
        assert!(a.is_pattern_symmetric());
        assert!(a.is_symmetric(0.0));
        // Interior row has 5 entries.
        assert_eq!(a.row_nnz(5 + 2), 5);
        // Corner has 3.
        assert_eq!(a.row_nnz(0), 3);
        assert!(a.row_density() <= 5.0);
        assert!(a.diag_positions().is_ok());
    }

    #[test]
    fn laplace_3d_structure() {
        let a = laplace_3d(3, 4, 5);
        assert_eq!(a.nrows(), 60);
        assert!(a.is_symmetric(0.0));
        assert_eq!(a.row_nnz((4 + 2) * 5 + 2), 7);
    }

    #[test]
    fn convection_diffusion_nonsymmetric_values_symmetric_pattern() {
        let a = convection_diffusion_2d(6, 6, 40.0, -25.0);
        assert!(a.is_pattern_symmetric());
        assert!(!a.is_symmetric(1e-12));
        // Row sums of an upwinded M-matrix interior row are ~0 (diagonal
        // dominance with equality); boundary rows strictly dominant.
        for r in 0..a.nrows() {
            let mut diag = 0.0;
            let mut off = 0.0;
            for (k, &c) in a.row_cols(r).iter().enumerate() {
                if c == r {
                    diag = a.row_vals(r)[k];
                } else {
                    off += a.row_vals(r)[k].abs();
                }
            }
            assert!(diag >= off - 1e-12, "row {r} not dominant");
        }
    }

    #[test]
    fn convection_diffusion_3d_shape() {
        let a = convection_diffusion_3d(4, 4, 4, (10.0, 5.0, -3.0));
        assert_eq!(a.nrows(), 64);
        assert!(a.is_pattern_symmetric());
        assert!(!a.is_symmetric(1e-12));
    }
}
