//! Restarted GMRES with right preconditioning.
//!
//! GMRES is the iterative method the paper pairs with ILU for general
//! (nonsymmetric) systems: `stri` is "the primary call needed for
//! methods like GMRES that use ILU" (§VI). Right preconditioning keeps
//! the *true* residual observable: we solve `A·M⁻¹·u = b`, `x = M⁻¹·u`,
//! so the least-squares residual equals the unpreconditioned one.
//!
//! The Arnoldi process lives in one place: the width-generic lockstep
//! core in [`crate::batch_gmres`]. [`gmres_with`] is its
//! `FixedLanes<1>` instantiation — a plain vector viewed as a width-1
//! panel — so restart boundaries, happy breakdown, the non-finite
//! guards and the iteration-cap exits are the same code for the
//! scalar, panel and flexible ([`crate::fgmres_with`]) solvers.

use crate::{SolverOptions, SolverResult, SolverWorkspace};
use javelin_core::precond::Preconditioner;
use javelin_sparse::{CsrMatrix, Scalar};

/// Right-preconditioned restarted GMRES(m).
///
/// Iterations counted in [`SolverResult::iterations`] are *inner*
/// Arnoldi steps (one matvec + one preconditioner application each),
/// matching how iteration counts are reported in the paper's Table II.
///
/// Allocates a fresh [`SolverWorkspace`]; repeated callers should hold
/// one and use [`gmres_with`].
///
/// # Panics
/// On dimension mismatches.
pub fn gmres<T: Scalar, P: Preconditioner<T>>(
    a: &CsrMatrix<T>,
    b: &[T],
    x: &mut [T],
    m: &P,
    opts: &SolverOptions,
) -> SolverResult {
    gmres_with(a, b, x, m, opts, &mut SolverWorkspace::new())
}

/// [`gmres`] with caller-owned working memory (Arnoldi basis,
/// Hessenberg/Givens state, preconditioner scratch): allocation-free
/// once the workspace has seen this `(n, restart)` size, and from the
/// first solve after [`SolverWorkspace::reserve`].
///
/// This is the `FixedLanes<1>` instantiation of the lockstep Arnoldi
/// core ([`crate::gmres_batch_with`] at width 1) — bit-identical
/// iterates, iteration counts, histories and statuses.
///
/// # Panics
/// On dimension mismatches.
pub fn gmres_with<T: Scalar, P: Preconditioner<T>>(
    a: &CsrMatrix<T>,
    b: &[T],
    x: &mut [T],
    m: &P,
    opts: &SolverOptions,
    ws: &mut SolverWorkspace<T>,
) -> SolverResult {
    crate::batch_gmres::gmres_scalar(false, a, b, x, m, opts, ws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolverStatus;
    use javelin_core::precond::IdentityPrecond;
    use javelin_core::{factorize, IluOptions};
    use javelin_sparse::CooMatrix;

    fn convection(nx: usize, ny: usize) -> CsrMatrix<f64> {
        let n = nx * ny;
        let idx = |i: usize, j: usize| i * ny + j;
        let mut coo = CooMatrix::new(n, n);
        let (w1, w2) = (0.4, 0.2);
        for i in 0..nx {
            for j in 0..ny {
                let r = idx(i, j);
                coo.push(r, r, 4.0 + w1 + w2).unwrap();
                if i > 0 {
                    coo.push(r, idx(i - 1, j), -1.0 - w1).unwrap();
                }
                if i + 1 < nx {
                    coo.push(r, idx(i + 1, j), -1.0).unwrap();
                }
                if j > 0 {
                    coo.push(r, idx(i, j - 1), -1.0 - w2).unwrap();
                }
                if j + 1 < ny {
                    coo.push(r, idx(i, j + 1), -1.0).unwrap();
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn gmres_converges_on_nonsymmetric_system() {
        let a = convection(12, 12);
        let n = a.nrows();
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 13 % 17) as f64) * 0.1 - 0.5).collect();
        let b = a.spmv(&x_true);
        let mut x = vec![0.0; n];
        let res = gmres(&a, &b, &mut x, &IdentityPrecond, &SolverOptions::default());
        assert!(res.converged, "relres = {}", res.relative_residual);
        let ax = a.spmv(&x);
        let err: f64 = b
            .iter()
            .zip(ax.iter())
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(err / bn < 1e-5, "true residual {}", err / bn);
    }

    #[test]
    fn ilu_preconditioning_cuts_gmres_iterations() {
        let a = convection(16, 16);
        let n = a.nrows();
        let b = vec![1.0; n];
        let plain = {
            let mut x = vec![0.0; n];
            gmres(&a, &b, &mut x, &IdentityPrecond, &SolverOptions::default())
        };
        let f = factorize(&a, &IluOptions::default()).unwrap();
        let pre = {
            let mut x = vec![0.0; n];
            gmres(&a, &b, &mut x, &f, &SolverOptions::default())
        };
        assert!(plain.converged && pre.converged);
        assert!(
            pre.iterations * 2 < plain.iterations,
            "ILU should at least halve iterations: {} vs {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn restart_length_one_still_converges() {
        // GMRES(1) on a well-conditioned diagonally dominant system.
        let a = convection(6, 6);
        let b = vec![1.0; 36];
        let mut x = vec![0.0; 36];
        let opts = SolverOptions {
            restart: 1,
            max_iters: 10000,
            ..Default::default()
        };
        let res = gmres(&a, &b, &mut x, &IdentityPrecond, &opts);
        assert!(res.converged, "relres = {}", res.relative_residual);
    }

    #[test]
    fn exact_preconditioner_converges_in_one_iteration() {
        // ILU with full fill = exact LU: GMRES needs a single step.
        let a = convection(7, 7);
        let n = a.nrows();
        let f = factorize(&a, &IluOptions::default().with_fill(n)).unwrap();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let mut x = vec![0.0; n];
        let res = gmres(&a, &b, &mut x, &f, &SolverOptions::default());
        assert!(res.converged);
        assert!(res.iterations <= 2, "took {} iterations", res.iterations);
    }

    #[test]
    fn zero_rhs() {
        let a = convection(4, 4);
        let b = vec![0.0; 16];
        let mut x = vec![3.0; 16];
        let res = gmres(&a, &b, &mut x, &IdentityPrecond, &SolverOptions::default());
        assert!(res.converged);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn max_iters_cap() {
        let a = convection(14, 14);
        let b = vec![1.0; a.nrows()];
        let mut x = vec![0.0; a.nrows()];
        let opts = SolverOptions {
            max_iters: 5,
            tol: 1e-14,
            ..Default::default()
        };
        let res = gmres(&a, &b, &mut x, &IdentityPrecond, &opts);
        assert!(!res.converged);
        assert_eq!(res.iterations, 5);
    }

    // ---- Golden pin -------------------------------------------------
    // Recorded from the hand-written scalar `gmres_with` / `fgmres_with`
    // at the commit before they became `FixedLanes<1>` instantiations of
    // the lockstep core. The panel-vs-scalar bitwise grids now compare
    // one implementation with itself, so the historical bits are pinned
    // here: (iterations, status, relative_residual bits, history
    // length, FNV-1a over the bits of x).
    type Golden = (usize, SolverStatus, u64, usize, u64);

    fn fnv1a(x: &[f64]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for byte in x.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Integer-arithmetic right-hand side (no libm, so the pins do not
    /// depend on the platform's `sin`).
    fn rhs(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 13 % 29) as f64 - 14.0) * 0.21)
            .collect()
    }

    fn run<P: Preconditioner<f64>>(
        flexible: bool,
        a: &CsrMatrix<f64>,
        b: &[f64],
        x0: f64,
        m: &P,
        opts: SolverOptions,
    ) -> Golden {
        let mut x = vec![x0; a.nrows()];
        let solver = if flexible {
            crate::fgmres_with
        } else {
            gmres_with
        };
        let res = solver(a, b, &mut x, m, &opts, &mut SolverWorkspace::new());
        (
            res.iterations,
            res.status,
            res.relative_residual.to_bits(),
            res.history.len(),
            fnv1a(&x),
        )
    }

    fn golden_run(fixture: usize, flexible: bool) -> Golden {
        use javelin_synth::grid::convection_diffusion_2d as cd;
        let ilu = |a: &CsrMatrix<f64>, fill: usize| {
            factorize(a, &IluOptions::ilu0(1).with_fill(fill)).unwrap()
        };
        let hist = SolverOptions {
            record_history: true,
            ..Default::default()
        };
        match fixture {
            // ILU(0), default restart 50, history on.
            0 => {
                let a = cd(13, 11, 0.4, 0.2);
                run(flexible, &a, &rhs(a.nrows()), 0.0, &ilu(&a, 0), hist)
            }
            // Unpreconditioned, several full cycles of 7, warm start.
            1 => {
                let a = cd(12, 12, 0.6, 0.3);
                let opts = SolverOptions { restart: 7, ..hist };
                run(flexible, &a, &rhs(a.nrows()), 0.5, &IdentityPrecond, opts)
            }
            // GMRES(1): a restart boundary after every step.
            2 => {
                let a = cd(6, 6, 0.3, 0.3);
                let opts = SolverOptions {
                    restart: 1,
                    max_iters: 10_000,
                    ..Default::default()
                };
                run(flexible, &a, &rhs(a.nrows()), 0.0, &IdentityPrecond, opts)
            }
            // ILU(0) with a short restart and a tight tolerance.
            3 => {
                let a = cd(14, 9, 0.2, 0.5);
                let opts = SolverOptions {
                    restart: 3,
                    tol: 1e-12,
                    ..hist
                };
                run(flexible, &a, &rhs(a.nrows()), 0.0, &ilu(&a, 0), opts)
            }
            // Iteration cap lands mid-cycle: 5 = 3 + 2.
            4 => {
                let a = cd(14, 14, 0.6, 0.2);
                let opts = SolverOptions {
                    max_iters: 5,
                    tol: 1e-14,
                    restart: 3,
                    record_history: true,
                };
                run(flexible, &a, &rhs(a.nrows()), 0.0, &IdentityPrecond, opts)
            }
            // Full fill = exact LU: the Krylov space closes at once.
            5 => {
                let a = cd(7, 7, 0.4, 0.2);
                run(
                    flexible,
                    &a,
                    &rhs(a.nrows()),
                    0.0,
                    &ilu(&a, a.nrows()),
                    hist,
                )
            }
            // Zero right-hand side: x is overwritten with zeros.
            6 => {
                let a = cd(4, 4, 0.3, 0.3);
                run(flexible, &a, &[0.0; 16], 3.0, &IdentityPrecond, hist)
            }
            // NaN right-hand side: frozen at the initial guess.
            7 => {
                let a = cd(5, 4, 0.3, 0.3);
                let mut b = rhs(a.nrows());
                b[7] = f64::NAN;
                run(flexible, &a, &b, 0.25, &IdentityPrecond, hist)
            }
            // True happy breakdown (h_{j+1,j} == 0 exactly, reachable
            // only with tol = 0): b = β·e₄ on a diagonal operator
            // (β = 0.9, d = 7 leaves a one-ulp true residual, so the second
            // cycle breaks down again and the cap ends the solve finite).
            8 => {
                let mut coo = CooMatrix::new(6, 6);
                for i in 0..6 {
                    coo.push(i, i, 3.0 + i as f64).unwrap();
                }
                let a = coo.to_csr();
                let mut b = [0.0; 6];
                b[4] = 0.9;
                let opts = SolverOptions {
                    tol: 0.0,
                    max_iters: 2,
                    ..hist
                };
                run(flexible, &a, &b, 0.0, &IdentityPrecond, opts)
            }
            _ => unreachable!(),
        }
    }

    /// `[fixture] = (gmres_with, fgmres_with)`, see `golden_run`.
    const GOLDEN: [(Golden, Golden); 9] = [
        // 0: ILU(0), restart 50
        (
            (
                12,
                SolverStatus::Converged,
                0x3ea09285c76dc091,
                13,
                0x7d7cc91c226ece0f,
            ),
            (
                12,
                SolverStatus::Converged,
                0x3ea09285c76dc091,
                13,
                0x3c5340b49c9231a5,
            ),
        ),
        // 1: identity, restart 7, warm start
        (
            (
                67,
                SolverStatus::Converged,
                0x3eacdb077625d416,
                68,
                0x8b2d8a29fdd0f006,
            ),
            (
                67,
                SolverStatus::Converged,
                0x3eacdb077626ad5b,
                68,
                0xff494c3088ab8b20,
            ),
        ),
        // 2: identity, restart 1
        (
            (
                98,
                SolverStatus::Converged,
                0x3eb029998500ed04,
                0,
                0xbf9d2e707545d16a,
            ),
            (
                98,
                SolverStatus::Converged,
                0x3eb029998500ed04,
                0,
                0xbf9d2e707545d16a,
            ),
        ),
        // 3: ILU(0), restart 3, tol 1e-12
        (
            (
                37,
                SolverStatus::Converged,
                0x3d6bbc8f84d82fd0,
                38,
                0xd189f11116df8d54,
            ),
            (
                37,
                SolverStatus::Converged,
                0x3d6bbca1ff1fa5df,
                38,
                0x9bfe3ba1d04d189d,
            ),
        ),
        // 4: cap mid-cycle
        (
            (
                5,
                SolverStatus::MaxIters,
                0x3fadc7cda575e773,
                6,
                0x6b8bc295fb417bbd,
            ),
            (
                5,
                SolverStatus::MaxIters,
                0x3fadc7cda575e773,
                6,
                0x7071a48463bbf684,
            ),
        ),
        // 5: full-fill ILU
        (
            (
                1,
                SolverStatus::Converged,
                0x3cb3158802b7ddf5,
                2,
                0xa6d8857a39d31bf9,
            ),
            (
                1,
                SolverStatus::Converged,
                0x3cb3158802b7ddf5,
                2,
                0xce0a43b483cecb8d,
            ),
        ),
        // 6: zero rhs
        (
            (
                0,
                SolverStatus::Converged,
                0x0000000000000000,
                0,
                0x8421ae126c7ced25,
            ),
            (
                0,
                SolverStatus::Converged,
                0x0000000000000000,
                0,
                0x8421ae126c7ced25,
            ),
        ),
        // 7: NaN rhs
        (
            (
                0,
                SolverStatus::NumericalBreakdown,
                0x7ff8000000000000,
                0,
                0xe1ca3f76156a6965,
            ),
            (
                0,
                SolverStatus::NumericalBreakdown,
                0x7ff8000000000000,
                0,
                0xe1ca3f76156a6965,
            ),
        ),
        // 8: happy breakdown twice
        (
            (
                2,
                SolverStatus::MaxIters,
                0x0000000000000000,
                3,
                0xf1eefede8beb5e5c,
            ),
            (
                2,
                SolverStatus::MaxIters,
                0x0000000000000000,
                3,
                0xf1eefede8beb5e5c,
            ),
        ),
    ];

    #[test]
    fn width_one_instantiations_reproduce_the_historical_scalar_bits() {
        for (fixture, (plain, flexible)) in GOLDEN.iter().enumerate() {
            assert_eq!(
                golden_run(fixture, false),
                *plain,
                "gmres fixture {fixture}"
            );
            assert_eq!(
                golden_run(fixture, true),
                *flexible,
                "fgmres fixture {fixture}"
            );
        }
    }
}
