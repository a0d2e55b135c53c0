//! Finite-element-flavoured mesh matrices.
//!
//! Analogues for the paper's FEM matrices: `thermal2`/`tmt_sym`
//! (unstructured 2D diffusion, RD ≈ 7), `offshore` (3D, RD ≈ 16),
//! `af_shell3` (thin shell, RD ≈ 35, hundreds of narrow levels), and
//! `fem_filter` (strip-like structure whose level sets stay tiny —
//! median 3 rows — which is exactly the case Javelin's lower stage and
//! point-to-point scheduling are designed around).

use crate::util;
use javelin_sparse::{CooMatrix, CsrMatrix};
use rand::Rng;

/// P1 triangular-mesh stiffness matrix on a structured triangulation of
/// an `nx × ny` vertex grid (each quad split into two triangles).
///
/// Vertices couple to up to 6 neighbours plus themselves (RD ≈ 7,
/// matching `thermal2`/`tmt_sym`). Values form a graph Laplacian with a
/// `mass` term on the diagonal, hence SPD.
pub(crate) fn triangle_mesh_2d(nx: usize, ny: usize, mass: f64) -> CsrMatrix<f64> {
    let n = nx * ny;
    let idx = |i: usize, j: usize| i * ny + j;
    let mut coo = CooMatrix::with_capacity(n, n, 7 * n);
    let mut degree = vec![0usize; n];
    let push_edge = |coo: &mut CooMatrix<f64>, a: usize, b: usize| {
        coo.push_unchecked(a, b, -1.0);
        coo.push_unchecked(b, a, -1.0);
    };
    for i in 0..nx {
        for j in 0..ny {
            let r = idx(i, j);
            // Right and down grid edges.
            if j + 1 < ny {
                push_edge(&mut coo, r, idx(i, j + 1));
                degree[r] += 1;
                degree[idx(i, j + 1)] += 1;
            }
            if i + 1 < nx {
                push_edge(&mut coo, r, idx(i + 1, j));
                degree[r] += 1;
                degree[idx(i + 1, j)] += 1;
            }
            // Diagonal edge of the triangulation.
            if i + 1 < nx && j + 1 < ny {
                push_edge(&mut coo, r, idx(i + 1, j + 1));
                degree[r] += 1;
                degree[idx(i + 1, j + 1)] += 1;
            }
        }
    }
    for (r, &d) in degree.iter().enumerate() {
        coo.push_unchecked(r, r, d as f64 + mass);
    }
    coo.to_csr()
}

/// Tetrahedral-mesh-like 3D operator: a 3D grid graph augmented with the
/// three face diagonals per cell, giving RD ≈ 10 like `3D_28984_Tetra`.
/// Setting `asymmetry > 0` randomly drops that fraction of one-sided
/// off-diagonal entries, breaking pattern symmetry the way real tet
/// meshes assembled with nonsymmetric stabilization terms do.
pub(crate) fn tet_mesh_3d(
    nx: usize,
    ny: usize,
    nz: usize,
    asymmetry: f64,
    seed: u64,
) -> CsrMatrix<f64> {
    let n = nx * ny * nz;
    let idx = |i: usize, j: usize, k: usize| (i * ny + j) * nz + k;
    let mut coo = CooMatrix::with_capacity(n, n, 11 * n);
    let mut degree = vec![0usize; n];
    {
        let mut push_edge = |coo: &mut CooMatrix<f64>, a: usize, b: usize| {
            coo.push_unchecked(a, b, -1.0);
            coo.push_unchecked(b, a, -1.0);
            degree[a] += 1;
            degree[b] += 1;
        };
        for i in 0..nx {
            for j in 0..ny {
                for k in 0..nz {
                    let r = idx(i, j, k);
                    if i + 1 < nx {
                        push_edge(&mut coo, r, idx(i + 1, j, k));
                    }
                    if j + 1 < ny {
                        push_edge(&mut coo, r, idx(i, j + 1, k));
                    }
                    if k + 1 < nz {
                        push_edge(&mut coo, r, idx(i, j, k + 1));
                    }
                    // Face diagonals (one per face orientation).
                    if i + 1 < nx && j + 1 < ny {
                        push_edge(&mut coo, r, idx(i + 1, j + 1, k));
                    }
                    if j + 1 < ny && k + 1 < nz {
                        push_edge(&mut coo, r, idx(i, j + 1, k + 1));
                    }
                    if i + 1 < nx && k + 1 < nz {
                        push_edge(&mut coo, r, idx(i + 1, j, k + 1));
                    }
                }
            }
        }
    }
    for (r, &d) in degree.iter().enumerate() {
        coo.push_unchecked(r, r, d as f64 + 1.0);
    }
    let a = coo.to_csr();
    if asymmetry > 0.0 {
        util::drop_random_offdiag(&a, asymmetry, seed)
    } else {
        a
    }
}

/// Shell-strip matrix: a long, thin `nx × ny` grid of nodes with `dofs`
/// unknowns per node, all DOFs of neighbouring nodes (9-point stencil)
/// fully coupled.
///
/// With `dofs = 4` the row density is ≈ 36, and — crucially — the strip
/// geometry leaves hundreds of *narrow* level sets, mimicking
/// `af_shell3` (RD 34.8, 630 levels, median level size 5) and
/// `fem_filter` (554 levels, median 3). These are the matrices the
/// paper's two-stage design struggles with and discusses at length.
pub fn shell_strip(nx: usize, ny: usize, dofs: usize, seed: u64) -> CsrMatrix<f64> {
    let nodes = nx * ny;
    let n = nodes * dofs;
    let node = |i: usize, j: usize| i * ny + j;
    let mut coo = CooMatrix::with_capacity(n, n, n * 9 * dofs);
    let mut r = util::rng(seed);
    // Collect node adjacency (9-point on the strip), then expand blocks.
    for i in 0..nx {
        for j in 0..ny {
            let a = node(i, j);
            for di in -1i64..=1 {
                for dj in -1i64..=1 {
                    let (ni, nj) = (i as i64 + di, j as i64 + dj);
                    if ni < 0 || nj < 0 || ni as usize >= nx || nj as usize >= ny {
                        continue;
                    }
                    let b = node(ni as usize, nj as usize);
                    if b < a {
                        continue; // handle each undirected pair once
                    }
                    for da in 0..dofs {
                        for db in 0..dofs {
                            let (ra, cb) = (a * dofs + da, b * dofs + db);
                            if ra == cb {
                                continue;
                            }
                            let v = -(0.2 + 0.8 * r.gen::<f64>());
                            coo.push_unchecked(ra, cb, v);
                            coo.push_unchecked(cb, ra, v);
                        }
                    }
                }
            }
        }
    }
    let base = coo.to_csr();
    // Diagonal = dominance margin + row sum of |offdiag|.
    let n_total = base.nrows();
    let mut coo2 = CooMatrix::with_capacity(n_total, n_total, base.nnz() + n_total);
    for (rr, cc, v) in base.iter() {
        coo2.push_unchecked(rr, cc, v);
    }
    for rr in 0..n_total {
        let off: f64 = base.row_vals(rr).iter().map(|v| v.abs()).sum();
        coo2.push_unchecked(rr, rr, off + 1.0);
    }
    coo2.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_mesh_is_spd_shaped() {
        let a = triangle_mesh_2d(8, 8, 1.0);
        assert!(a.is_pattern_symmetric());
        assert!(a.is_symmetric(0.0));
        // Interior vertex: 6 neighbours + diagonal = 7.
        let interior = 3 * 8 + 3;
        assert_eq!(a.row_nnz(interior), 7);
        assert!(a.row_density() > 5.0 && a.row_density() <= 7.0);
    }

    #[test]
    fn triangle_mesh_diagonally_dominant() {
        let a = triangle_mesh_2d(6, 6, 0.5);
        for r in 0..a.nrows() {
            let off: f64 = a
                .row_cols(r)
                .iter()
                .zip(a.row_vals(r))
                .filter(|(c, _)| **c != r)
                .map(|(_, v)| v.abs())
                .sum();
            assert!(a.get(r, r).unwrap() >= off);
        }
    }

    #[test]
    fn tet_mesh_density_and_asymmetry() {
        let sym = tet_mesh_3d(6, 6, 6, 0.0, 1);
        assert!(sym.is_pattern_symmetric());
        assert!(sym.row_density() > 8.0, "rd = {}", sym.row_density());
        let asym = tet_mesh_3d(6, 6, 6, 0.15, 1);
        assert!(!asym.is_pattern_symmetric());
        assert!(asym.nnz() < sym.nnz());
        assert!(asym.diag_positions().is_ok());
    }

    #[test]
    fn shell_strip_density_scales_with_dofs() {
        let a = shell_strip(40, 3, 4, 9);
        assert_eq!(a.nrows(), 40 * 3 * 4);
        assert!(a.is_pattern_symmetric());
        // 9-pt stencil × 4 dofs ≈ up to 36 per row.
        assert!(a.row_density() > 20.0, "rd = {}", a.row_density());
        assert!(a.diag_positions().is_ok());
    }

    #[test]
    fn shell_strip_deterministic() {
        let a = shell_strip(10, 3, 2, 5);
        let b = shell_strip(10, 3, 2, 5);
        assert!(a.approx_eq(&b, 0.0));
    }
}
