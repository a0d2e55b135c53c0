//! Flexible GMRES (FGMRES, Saad 1993).
//!
//! GMRES with a preconditioner that may *change between iterations* —
//! the standard pairing for preconditioners that are themselves
//! iterative or nondeterministic. Javelin's factors are deterministic,
//! but FGMRES matters for the framework's intended uses: τ/MILU factors
//! refreshed mid-solve, or polynomial/SSOR preconditioning with varying
//! sweep counts. The cost over GMRES is storing the preconditioned
//! basis `Z` alongside `V`.
//!
//! FGMRES is the `flexible` mode of the one lockstep Arnoldi core in
//! [`crate::batch_gmres`]: [`fgmres_with`] is that core at
//! `FixedLanes<1>`, [`crate::Method::Fgmres`] panels run it at any width.

use crate::{SolverOptions, SolverResult, SolverWorkspace};
use javelin_core::precond::Preconditioner;
use javelin_sparse::{CsrMatrix, Scalar};

/// Flexible restarted GMRES: like [`crate::gmres()`], but applies the
/// (possibly varying) preconditioner through the stored `Z` basis, so
/// each iteration may use a different `M⁻¹`.
///
/// Allocates a fresh [`SolverWorkspace`]; repeated callers should hold
/// one and use [`fgmres_with`].
///
/// # Panics
/// On dimension mismatches.
pub fn fgmres<T: Scalar, P: Preconditioner<T>>(
    a: &CsrMatrix<T>,
    b: &[T],
    x: &mut [T],
    m: &P,
    opts: &SolverOptions,
) -> SolverResult {
    fgmres_with(a, b, x, m, opts, &mut SolverWorkspace::new())
}

/// [`fgmres`] with caller-owned working memory (both Arnoldi bases,
/// Hessenberg/Givens state, preconditioner scratch): allocation-free
/// once the workspace has seen this `(n, restart)` size, and from the
/// first solve after [`SolverWorkspace::reserve`].
///
/// # Panics
/// On dimension mismatches.
pub fn fgmres_with<T: Scalar, P: Preconditioner<T>>(
    a: &CsrMatrix<T>,
    b: &[T],
    x: &mut [T],
    m: &P,
    opts: &SolverOptions,
    ws: &mut SolverWorkspace<T>,
) -> SolverResult {
    crate::batch_gmres::gmres_scalar(true, a, b, x, m, opts, ws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmres;
    use javelin_core::precond::{IdentityPrecond, SsorPrecond};
    use javelin_core::{factorize, IluOptions};
    use javelin_sparse::CooMatrix;
    use parking_lot::Mutex;

    fn convection(nx: usize, ny: usize) -> CsrMatrix<f64> {
        let n = nx * ny;
        let idx = |i: usize, j: usize| i * ny + j;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..nx {
            for j in 0..ny {
                let r = idx(i, j);
                coo.push(r, r, 4.6).unwrap();
                if i > 0 {
                    coo.push(r, idx(i - 1, j), -1.4).unwrap();
                }
                if i + 1 < nx {
                    coo.push(r, idx(i + 1, j), -1.0).unwrap();
                }
                if j > 0 {
                    coo.push(r, idx(i, j - 1), -1.2).unwrap();
                }
                if j + 1 < ny {
                    coo.push(r, idx(i, j + 1), -1.0).unwrap();
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn fgmres_matches_gmres_with_fixed_preconditioner() {
        let a = convection(10, 10);
        let n = a.nrows();
        let f = factorize(&a, &IluOptions::default()).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i % 9) as f64 - 4.0).collect();
        let opts = SolverOptions {
            tol: 1e-10,
            ..Default::default()
        };
        let mut xg = vec![0.0; n];
        let rg = gmres(&a, &b, &mut xg, &f, &opts);
        let mut xf = vec![0.0; n];
        let rf = fgmres(&a, &b, &mut xf, &f, &opts);
        assert!(rg.converged && rf.converged);
        // With a fixed preconditioner FGMRES spans the same space.
        assert_eq!(rg.iterations, rf.iterations);
        for (g, w) in xf.iter().zip(xg.iter()) {
            assert!((g - w).abs() < 1e-8, "{g} vs {w}");
        }
    }

    #[test]
    fn fgmres_tolerates_a_varying_preconditioner() {
        // A preconditioner that alternates between SSOR(1.0) and
        // SSOR(1.5) per application — invalid for plain GMRES's final
        // M^{-1}(V y) step, fine for FGMRES.
        struct Alternating {
            a: SsorPrecond<f64>,
            b: SsorPrecond<f64>,
            flip: Mutex<bool>,
        }
        impl Preconditioner<f64> for Alternating {
            fn apply(&self, r: &[f64], z: &mut [f64]) {
                let mut flip = self.flip.lock();
                if *flip {
                    self.a.apply(r, z);
                } else {
                    self.b.apply(r, z);
                }
                *flip = !*flip;
            }
        }
        let a = convection(12, 12);
        let n = a.nrows();
        let pre = Alternating {
            a: SsorPrecond::new(&a, 1.0).unwrap(),
            b: SsorPrecond::new(&a, 1.5).unwrap(),
            flip: Mutex::new(false),
        };
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let mut x = vec![0.0; n];
        let res = fgmres(&a, &b, &mut x, &pre, &SolverOptions::default());
        assert!(res.converged, "relres {}", res.relative_residual);
        // True residual.
        let ax = a.spmv(&x);
        let err: f64 = b
            .iter()
            .zip(&ax)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(err / bn < 1e-5, "true relres {}", err / bn);
    }

    #[test]
    fn fgmres_unpreconditioned_equals_gmres() {
        let a = convection(8, 8);
        let b = vec![1.0; 64];
        let opts = SolverOptions::default();
        let mut xg = vec![0.0; 64];
        let rg = gmres(&a, &b, &mut xg, &IdentityPrecond, &opts);
        let mut xf = vec![0.0; 64];
        let rf = fgmres(&a, &b, &mut xf, &IdentityPrecond, &opts);
        assert_eq!(rg.iterations, rf.iterations);
        assert!(rg.converged && rf.converged);
    }

    #[test]
    fn zero_rhs_trivial() {
        let a = convection(4, 4);
        let b = vec![0.0; 16];
        let mut x = vec![2.0; 16];
        let res = fgmres(&a, &b, &mut x, &IdentityPrecond, &SolverOptions::default());
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }
}
