//! End-to-end pipeline tests across crates: suite generation →
//! preordering → factorization → solves, on every matrix of the
//! reproduced test suite (tiny scale).

use javelin::baseline::product_error_on_pattern;
use javelin::core::options::SolveEngine;
use javelin::core::{factorize, ApplyScratch, IluOptions, Preconditioner};
use javelin::solver::{krylov_with, Method, SolverOptions, SolverWorkspace};
use javelin::sparse::{Panel, PanelMut};
use javelin::synth::circuit::transient_circuit;
use javelin::synth::grid::laplace_2d;
use javelin::synth::suite::paper_suite;
use javelin::synth::util::{bordered, rhs_panel};
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
        let pa = a.permute_sym(f.symbolic().perm()).unwrap();
        let err = product_error_on_pattern(f.lu(), f.diag_positions(), &pa);
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
            let f = factorize(&a, &opts).unwrap_or_else(|e| panic!("{}: {e}", meta.name));
            let mut x_ref = vec![0.0; n];
            f.with_engine(SolveEngine::Serial).apply(&b, &mut x_ref);
            let mut x = vec![0.0; n];
            f.with_engine(SolveEngine::PointToPointLower)
                .apply(&b, &mut x);
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

/// The threaded apply reads `B` and writes `X` through the permutation
/// inside its region, each thread at the rows it retires. It must carry
/// Serial's bits at every width and thread count, on a nonsymmetric
/// circuit pattern whose backward blocks are not contiguous row ranges
/// and on a bordered grid with a lower stage, into strided solution
/// panels whose gap entries it never touches.
#[test]
fn folded_threaded_apply_is_bitwise_serial_on_strided_panels() {
    let cases = [
        ("circuit", transient_circuit(3_000, 40, false, 7)),
        ("bordered", bordered(&laplace_2d(16, 16), 6)),
    ];
    let sentinel = f64::NAN.to_bits() ^ 0x5a5a;
    for (name, a) in &cases {
        let n = a.nrows();
        for nthreads in [2, 3] {
            let f = factorize(a, &IluOptions::ilu0(nthreads)).expect("factor");
            let plan = f.symbolic().plan();
            if *name == "circuit" {
                let scattered = (0..nthreads).any(|t| {
                    plan.bwd.thread_blocks(t).any(|(tasks, _)| {
                        let rows = &plan.bwd_row_of_task[tasks];
                        rows.windows(2).any(|w| w[1] != w[0] + 1)
                    })
                });
                assert!(scattered, "circuit: every backward block is a row range");
            } else {
                assert!(f.stats().n_lower_rows > 0, "bordered: empty lower stage");
            }
            for k in [1, 2, 3, 5, 8] {
                let b = rhs_panel(n, k, 5);
                let mut want = vec![0.0; n * k];
                f.with_engine(SolveEngine::Serial).apply_panel_with(
                    &mut ApplyScratch::new(),
                    Panel::new(&b, n, k),
                    PanelMut::new(&mut want, n, k),
                );
                let stride = n + 3;
                let mut got = vec![f64::from_bits(sentinel); stride * k];
                f.with_engine(SolveEngine::PointToPointLower)
                    .apply_panel_with(
                        &mut ApplyScratch::new(),
                        Panel::new(&b, n, k),
                        PanelMut::with_stride(&mut got, n, k, stride),
                    );
                for (i, v) in got.iter().enumerate() {
                    let (c, r) = (i / stride, i % stride);
                    let want_bits = if r < n {
                        want[c * n + r].to_bits()
                    } else {
                        sentinel
                    };
                    assert_eq!(
                        v.to_bits(),
                        want_bits,
                        "{name} nthreads {nthreads} k {k}: column {c} row {r}"
                    );
                }
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
        f.apply(&b, &mut x);
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
