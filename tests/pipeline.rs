//! End-to-end pipeline tests across crates: suite generation →
//! preordering → factorization → solves, on every matrix of the
//! reproduced test suite (tiny scale).

use javelin::core::options::SolveEngine;
use javelin::core::{factorize, IluOptions};
use javelin::solver::{krylov_with, Method, SolverOptions, SolverWorkspace};
use javelin::synth::suite::paper_suite;
use javelin_bench::harness::preorder_dm_nd;

/// The ILU(0) defining identity holds on every suite matrix:
/// `(L·U)_ij == (P·A·Pᵀ)_ij` on the pattern, to roundoff.
#[test]
fn ilu0_product_identity_across_suite() {
    for meta in paper_suite() {
        let a = preorder_dm_nd(&meta.build_tiny());
        let f =
            factorize(&a, &IluOptions::default()).unwrap_or_else(|e| panic!("{}: {e}", meta.name));
        let scale: f64 = a.vals().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let err = f.product_error_on_pattern(&a);
        assert!(
            err <= 1e-10 * scale.max(1.0),
            "{}: product error {err:.3e} (scale {scale:.3e})",
            meta.name
        );
    }
}

/// The threaded solve engine carries the bits of serial substitution on
/// every suite matrix, with multiple thread counts.
#[test]
fn solve_engines_agree_across_suite() {
    for meta in paper_suite() {
        let a = preorder_dm_nd(&meta.build_tiny());
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i % 19) as f64) * 0.25 - 2.0).collect();
        for nthreads in [2usize, 4] {
            let mut opts = IluOptions::ilu0(nthreads);
            opts.split.min_rows_per_level = 12;
            opts.split.location_frac = 0.1;
            let f = factorize(&a, &opts).unwrap_or_else(|e| panic!("{}: {e}", meta.name));
            let mut x_ref = vec![0.0; n];
            f.solve_with(SolveEngine::Serial, &b, &mut x_ref)
                .expect("serial solve");
            let mut x = vec![0.0; n];
            f.solve_with(SolveEngine::PointToPointLower, &b, &mut x)
                .expect("parallel solve");
            for (k, (g, w)) in x.iter().zip(x_ref.iter()).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{} nthreads {nthreads} row {k}: {g} vs {w}",
                    meta.name
                );
            }
        }
    }
}

/// One preconditioner application stays bounded (no blowup) on every
/// suite matrix, and drives GMRES to convergence quickly — the
/// preconditioner-quality smoke test. (A single `M⁻¹b` need not shrink
/// the 2-norm residual for weakly dominant convection operators, so the
/// meaningful criterion is the Krylov behaviour.)
#[test]
fn preconditioner_quality_across_suite() {
    for meta in paper_suite() {
        let a = preorder_dm_nd(&meta.build_tiny());
        let n = a.nrows();
        let f = factorize(&a, &IluOptions::default()).expect("factors");
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        f.solve_into(&b, &mut x).expect("solve");
        let ax = a.spmv(&x);
        let r: f64 = b
            .iter()
            .zip(&ax)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        let bn = (n as f64).sqrt();
        assert!(
            r.is_finite() && r < 5.0 * bn,
            "{}: ||b - A M^-1 b|| = {r:.3} blown up vs ||b|| = {bn:.3}",
            meta.name
        );
        let res = krylov_with(
            Method::Gmres,
            &a,
            &b,
            &mut x,
            &f,
            &SolverOptions::default(),
            &mut SolverWorkspace::new(),
        );
        assert!(
            res.converged && res.iterations <= 200,
            "{}: GMRES {} iters, relres {:.2e}",
            meta.name,
            res.iterations,
            res.relative_residual
        );
    }
}

/// Factor statistics are internally consistent on every suite matrix.
#[test]
fn stats_consistency_across_suite() {
    for meta in paper_suite() {
        let a = preorder_dm_nd(&meta.build_tiny());
        let mut opts = IluOptions::ilu0(3);
        opts.split.min_rows_per_level = 12;
        let f = factorize(&a, &opts).expect("factors");
        let s = f.stats();
        assert_eq!(s.n, a.nrows(), "{}", meta.name);
        assert_eq!(s.nnz_a, a.nnz());
        assert_eq!(s.nnz_lu, f.lu().nnz());
        assert!(s.n_upper_levels <= s.n_levels);
        assert!(s.n_lower_rows < s.n);
        assert!(s.n_waits <= s.n_raw_deps);
        assert_eq!(f.symbolic().plan().n_upper + s.n_lower_rows, s.n);
    }
}
