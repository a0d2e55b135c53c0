//! Cross-crate solver tests: Krylov methods with ILU preconditioning on
//! the reproduced suite, including the Table-II orderings machinery.

use javelin::core::precond::IdentityPrecond;
use javelin::core::{factorize, IluOptions, Preconditioner};
use javelin::order::{compute_order, Ordering};
use javelin::solver::{krylov_with, Method, SolverOptions, SolverResult, SolverWorkspace};
use javelin::sparse::CsrMatrix;
use javelin::synth::suite::{group_a, paper_suite, SuiteGroup};
use javelin_bench::harness::preorder_dm_nd;

/// One right-hand side through `method` in a fresh workspace.
fn solve(
    method: Method,
    a: &CsrMatrix<f64>,
    b: &[f64],
    x: &mut [f64],
    m: &impl Preconditioner<f64>,
    opts: &SolverOptions,
) -> SolverResult {
    krylov_with(method, a, b, x, m, opts, &mut SolverWorkspace::new())
}

#[test]
fn group_a_pcg_converges_under_all_orderings() {
    for meta in group_a() {
        let a = meta.build_tiny();
        for ord in [
            Ordering::Amd,
            Ordering::Rcm,
            Ordering::Nd,
            Ordering::Natural,
        ] {
            let p = compute_order(&a, ord);
            let ax = a.permute_sym(&p).expect("perm");
            let f = factorize(&ax, &IluOptions::default()).expect("ILU");
            let n = ax.nrows();
            let b = vec![1.0; n];
            let mut x = vec![0.0; n];
            let res = solve(Method::Pcg, &ax, &b, &mut x, &f, &SolverOptions::default());
            assert!(
                res.converged,
                "{} under {ord}: relres {:.2e} after {} iters",
                meta.name, res.relative_residual, res.iterations
            );
        }
    }
}

#[test]
fn gmres_with_ilu_converges_on_nonsymmetric_suite() {
    for meta in paper_suite() {
        if meta.group != SuiteGroup::B {
            continue;
        }
        let a = preorder_dm_nd(&meta.build_tiny());
        let f = factorize(&a, &IluOptions::default()).expect("ILU");
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let mut x = vec![0.0; n];
        let res = solve(Method::Gmres, &a, &b, &mut x, &f, &SolverOptions::default());
        assert!(
            res.converged,
            "{}: GMRES relres {:.2e} after {}",
            meta.name, res.relative_residual, res.iterations
        );
        // Verify with the true residual.
        let ax = a.spmv(&x);
        let err: f64 = b
            .iter()
            .zip(&ax)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(
            err / bn < 1e-5,
            "{}: true relres {:.2e}",
            meta.name,
            err / bn
        );
    }
}

#[test]
fn bicgstab_matches_gmres_solutions() {
    let meta = &paper_suite()[5]; // trans4-like
    let a = preorder_dm_nd(&meta.build_tiny());
    let f = factorize(&a, &IluOptions::default()).expect("ILU");
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
    let opts = SolverOptions {
        tol: 1e-10,
        ..Default::default()
    };
    let mut xg = vec![0.0; n];
    let rg = solve(Method::Gmres, &a, &b, &mut xg, &f, &opts);
    let mut xb = vec![0.0; n];
    let rb = solve(Method::Bicgstab, &a, &b, &mut xb, &f, &opts);
    assert!(rg.converged && rb.converged);
    for (g, w) in xg.iter().zip(xb.iter()) {
        assert!((g - w).abs() < 1e-6 * w.abs().max(1.0), "{g} vs {w}");
    }
}

#[test]
fn preconditioning_never_hurts_iteration_counts_much() {
    // ILU(0)-preconditioned iteration counts must beat identity across
    // the suite (that is the entire point of the library).
    for meta in paper_suite().into_iter().take(6) {
        let a = preorder_dm_nd(&meta.build_tiny());
        let f = factorize(&a, &IluOptions::default()).expect("ILU");
        let n = a.nrows();
        // Non-constant rhs: several generators produce A·1 = 1 exactly
        // (unit row sums), which lets plain GMRES converge in one step.
        let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 29 % 7) as f64) * 0.5).collect();
        let opts = SolverOptions::default();
        let mut x0 = vec![0.0; n];
        let plain = solve(Method::Gmres, &a, &b, &mut x0, &IdentityPrecond, &opts);
        let mut x1 = vec![0.0; n];
        let pre = solve(Method::Gmres, &a, &b, &mut x1, &f, &opts);
        assert!(pre.converged, "{}", meta.name);
        assert!(
            pre.iterations <= plain.iterations,
            "{}: {} (ILU) vs {} (plain)",
            meta.name,
            pre.iterations,
            plain.iterations
        );
    }
}

#[test]
fn session_batched_nonsymmetric_krylov_is_columnwise_scalar_identical() {
    // The PR-4 acceptance surface end to end: a nonsymmetric suite
    // matrix solved through `Session::krylov_panel` with every
    // nonsymmetric method must reproduce, bit for bit, the width-1
    // solve of each column with the same pinned-engine
    // preconditioner.
    use javelin::prelude::*;

    let meta = &paper_suite()[5]; // trans4-like (group B)
    let a = preorder_dm_nd(&meta.build_tiny());
    let n = a.nrows();
    let k = 4usize;
    let b: Vec<f64> = (0..n * k)
        .map(|i| ((i * 13 % 29) as f64 - 14.0) * 0.21)
        .collect();
    let mut session = Session::builder()
        .ilu_options(IluOptions::ilu0(2))
        .panel_width(k)
        .build(&a)
        .unwrap();
    let engine = session.engine();
    let opts = *session.solver_options();
    for method in [Method::BatchBicgstab, Method::BatchGmres, Method::Fgmres] {
        let mut xp = vec![0.0; n * k];
        let results = session
            .krylov_panel(method, Panel::new(&b, n, k), PanelMut::new(&mut xp, n, k))
            .unwrap();
        assert!(
            results.iter().all(|r| r.converged),
            "{method} on {}",
            meta.name
        );
        let f = factorize(&a, &IluOptions::ilu0(2)).unwrap();
        let m = f.with_engine(engine);
        for c in 0..k {
            let mut x = vec![0.0; n];
            let bc = &b[c * n..(c + 1) * n];
            let r = solve(method, &a, bc, &mut x, &m, &opts);
            assert_eq!(results[c].iterations, r.iterations, "{method} col {c}");
            assert_eq!(
                xp[c * n..(c + 1) * n]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{method} col {c}"
            );
        }
    }
}

#[test]
fn milu_and_tau_variants_still_converge() {
    let meta = &group_a()[4]; // ecology2-like
    let a = preorder_dm_nd(&meta.build_tiny());
    let n = a.nrows();
    let b = vec![1.0; n];
    for opts in [
        IluOptions::default().with_fill(1),
        IluOptions::default().with_fill(1).with_drop_tol(1e-3),
        IluOptions::default()
            .with_fill(1)
            .with_drop_tol(1e-3)
            .with_milu(1.0),
    ] {
        let f = factorize(&a, &opts).expect("ILU variant");
        let mut x = vec![0.0; n];
        let res = solve(Method::Pcg, &a, &b, &mut x, &f, &SolverOptions::default());
        assert!(
            res.converged,
            "variant k={} tau={}",
            opts.fill_level, opts.drop_tol
        );
    }
}
