//! Property-based tests for the lockstep Krylov drivers: the defining
//! contract — column `c` of any panel solve is **bit-identical** to
//! the width-1 solve of that column — must hold across random
//! nonsymmetric matrices, both trisolve engines, thread counts and
//! panel widths, for BiCGSTAB, GMRES, FGMRES and PCG alike.

#![cfg(test)]

use crate::{krylov_panel_with, krylov_with, Method, SolverOptions, SolverResult, SolverWorkspace};
use javelin_core::{factorize, IluOptions, SolveEngine};
use javelin_sparse::{CsrMatrix, Panel, PanelMut};
use javelin_synth::grid::{convection_diffusion_2d, laplace_2d};
use javelin_synth::util::revalue;
use proptest::prelude::*;

const ENGINES: [SolveEngine; 2] = [SolveEngine::Serial, SolveEngine::PointToPointLower];
/// Panel widths: 1, the preconditioner kernels' fixed lane widths 4
/// and 8, and the widths between and beyond them.
const WIDTHS: [usize; 7] = [1, 2, 3, 4, 5, 7, 8];
/// Stopping rules `(tol, max_iters)`: the default target, and `tol = 0`,
/// which no residual meets, at a cap of 7.
const STOPS: [(f64, usize); 2] = [(1e-6, 5000), (0.0, 7)];
/// Every driver, named by its `Batch*` synonym where it has one
/// (`Fgmres` is the flexible mode of the GMRES driver).
const METHODS: [Method; 4] = [
    Method::BatchBicgstab,
    Method::BatchGmres,
    Method::Fgmres,
    Method::BatchPcg,
];

/// Deterministic panel with visibly different columns.
fn panel(n: usize, k: usize, seed: u64) -> Vec<f64> {
    javelin_synth::util::rhs_panel(n, k, seed)
}

/// The width-1 solve of one column, under the method's canonical name.
fn scalar_reference(
    method: Method,
    a: &CsrMatrix<f64>,
    b: &[f64],
    x: &mut [f64],
    m: &javelin_core::EnginePinned<'_, f64>,
    opts: &SolverOptions,
) -> SolverResult {
    let canonical = match method {
        Method::BatchBicgstab => Method::Bicgstab,
        Method::BatchGmres => Method::Gmres,
        Method::BatchPcg => Method::Pcg,
        other => other,
    };
    krylov_with(canonical, a, b, x, m, opts, &mut SolverWorkspace::new())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The acceptance contract of the batch drivers: bitwise column
    /// identity — outcome included — across engines × threads ×
    /// widths. From `k = 3` on, one column has a zero right-hand side
    /// and the next a NaN, and the `tol = 0` axis runs every column
    /// into the iteration cap, so the frame's start, retire and cap
    /// paths meet every width.
    #[test]
    fn batch_columns_bitwise_equal_scalar_runs(
        nthreads in 1usize..4,
        engine_idx in 0usize..ENGINES.len(),
        k_idx in 0usize..WIDTHS.len(),
        seed in 1u64..500,
        method_idx in 0usize..4,
        stop_idx in 0usize..STOPS.len(),
    ) {
        let engine = ENGINES[engine_idx];
        let k = WIDTHS[k_idx];
        let method = METHODS[method_idx];
        // PCG needs SPD; the nonsymmetric drivers get a convection
        // operator with seeded value drift (pattern-stable revalue).
        let base = if method == Method::BatchPcg {
            laplace_2d(9, 8)
        } else {
            convection_diffusion_2d(9, 8, 0.4, 0.2)
        };
        let a = if method == Method::BatchPcg {
            base
        } else {
            revalue(&base, seed as f64 * 0.01, 0.05)
        };
        let n = a.nrows();
        let f = factorize(&a, &IluOptions::ilu0(nthreads)).unwrap();
        let m = f.with_engine(engine);
        let (tol, max_iters) = STOPS[stop_idx];
        let opts = SolverOptions { restart: 11, tol, max_iters, ..Default::default() };
        let mut b = panel(n, k, seed);
        if k >= 3 {
            let zero = seed as usize % k;
            b[zero * n..(zero + 1) * n].fill(0.0);
            let poisoned = (zero + 1) % k;
            b[poisoned * n + seed as usize % n] = f64::NAN;
        }
        let mut xb = vec![0.0; n * k];
        let results = krylov_panel_with(
            method,
            &a,
            Panel::new(&b, n, k),
            PanelMut::new(&mut xb, n, k),
            &m,
            &opts,
            &mut SolverWorkspace::new(),
        );
        for c in 0..k {
            let mut x = vec![0.0; n];
            let r = scalar_reference(method, &a, &b[c * n..(c + 1) * n], &mut x, &m, &opts);
            prop_assert_eq!(results[c].converged, r.converged, "{} col {}", method, c);
            prop_assert_eq!(results[c].status, r.status, "{} col {}", method, c);
            prop_assert_eq!(results[c].iterations, r.iterations, "{} col {}", method, c);
            prop_assert_eq!(
                results[c].relative_residual.to_bits(),
                r.relative_residual.to_bits(),
                "{} col {}", method, c
            );
            prop_assert_eq!(results[c].history.len(), r.history.len(), "{} col {}", method, c);
            let bb: Vec<u64> = xb[c * n..(c + 1) * n].iter().map(|v| v.to_bits()).collect();
            let sb: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(bb, sb, "{} col {}", method, c);
        }
    }

    /// Every `Batch*` synonym runs its canonical method's driver: a
    /// width-1 solve is bit-identical under both names.
    #[test]
    fn width_one_dispatch_matches_scalar(
        nthreads in 1usize..3,
        seed in 1u64..200,
        method_idx in 0usize..4,
    ) {
        let method = METHODS[method_idx];
        let a = if method == Method::BatchPcg {
            laplace_2d(8, 8)
        } else {
            convection_diffusion_2d(8, 8, 0.3, 0.5)
        };
        let n = a.nrows();
        let f = factorize(&a, &IluOptions::ilu0(nthreads)).unwrap();
        let m = f.with_engine(f.default_engine());
        let opts = SolverOptions { restart: 13, ..Default::default() };
        let b = panel(n, 1, seed);
        let mut xb = vec![0.0; n];
        let rb = krylov_with(method, &a, &b, &mut xb, &m, &opts, &mut SolverWorkspace::new());
        let mut xs = vec![0.0; n];
        let rs = scalar_reference(method, &a, &b, &mut xs, &m, &opts);
        prop_assert_eq!(rb.iterations, rs.iterations);
        prop_assert_eq!(rb.converged, rs.converged);
        let bb: Vec<u64> = xb.iter().map(|v| v.to_bits()).collect();
        let sb: Vec<u64> = xs.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(bb, sb);
    }
}
