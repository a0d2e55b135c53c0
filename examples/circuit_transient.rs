//! Circuit-simulation scenario — the motivating workload from the
//! paper's introduction: "there is a growing need for iterative methods
//! in other areas that have very irregular matrices, such as certain
//! stages of circuit simulation".
//!
//! A transient-analysis-style system (irregular pattern, a dense
//! strongly-coupled core, nonsymmetric values) is preordered with the
//! paper's DM + ND pipeline and driven through a time loop the way a
//! transient stepper would: the conductance stamps drift every step
//! (same pattern, new values), so the loop calls [`Session::refactor`]
//! — the numeric-only path that reuses the symbolic analysis,
//! schedules, worker team and scratch — and the example prints the
//! measured symbolic-amortization speedup against redoing the full
//! analyze+factor pipeline each step.
//!
//! ```text
//! cargo run --release --example circuit_transient
//! ```

use javelin::core::precond::IdentityPrecond;
use javelin::order::{dm::dm_row_permutation, nested_dissection_order};
use javelin::prelude::*;
use javelin::solver::krylov_with;
use javelin::synth::circuit::transient_circuit;
use javelin::synth::util::revalue;
use std::time::{Duration, Instant};

fn main() {
    // An 8000-node transient-analysis system with a 60-node
    // strongly-coupled core.
    let raw = transient_circuit(8000, 60, true, 0x5eed);
    println!(
        "circuit matrix: n = {}, nnz = {}, rd = {:.2}, symmetric pattern = {}",
        raw.nrows(),
        raw.nnz(),
        raw.row_density(),
        raw.is_pattern_symmetric()
    );

    // Paper preordering pipeline: zero-free diagonal, then ND.
    let rowp = dm_row_permutation(&raw).expect("square");
    let a = raw
        .permute(&rowp, &Perm::identity(raw.ncols()))
        .expect("row perm");
    let nd = nested_dissection_order(&a, 64);
    let a = a.permute_sym(&nd).expect("nd perm");

    // One Session owns the analysis, factors, team and workspaces for
    // the whole transient run.
    let opts = SolverOptions {
        tol: 1e-8,
        ..Default::default()
    };
    // Working memory of the unpreconditioned comparison solves.
    let mut plain_ws = SolverWorkspace::new();
    let t0 = Instant::now();
    let mut session = Session::builder()
        .solver_options(opts)
        .build(&a)
        .expect("ILU(0) session");
    let t_first = t0.elapsed();
    println!(
        "ILU(0) analyze+factor in {:.2?} ({} levels, {} lower-stage rows)",
        t_first,
        session.stats().n_levels,
        session.stats().n_lower_rows
    );

    // Time stepping: every step the stamps drift on a fixed pattern, so
    // only the numeric phase reruns; solves then reuse the factors.
    let n = a.nrows();
    let mut total_pre = 0usize;
    let mut total_plain = 0usize;
    let mut t_refactor = Duration::ZERO;
    let mut t_full = Duration::ZERO;
    let steps = 5;
    for step in 0..steps {
        // Same pattern, step-dependent values: the conductance drift
        // of a transient stamp.
        let a_t = revalue(&a, 0.3 + step as f64, 0.02);
        // Numeric-only refactorization (the production path) …
        let tr = Instant::now();
        session.refactor(&a_t).expect("pattern-stable refactor");
        t_refactor += tr.elapsed();
        // … versus redoing the whole pipeline (for the printed ratio).
        let tf = Instant::now();
        let fresh = factorize(&a_t, &IluOptions::default()).expect("full pipeline");
        t_full += tf.elapsed();
        assert!(
            session
                .factors()
                .lu()
                .vals()
                .iter()
                .zip(fresh.lu().vals())
                .all(|(r, f)| r.to_bits() == f.to_bits()),
            "refactor must be bit-identical to a fresh factorization"
        );
        let b: Vec<f64> = (0..n)
            .map(|i| ((i + step * 37) % 23) as f64 * 0.1 - 1.0)
            .collect();
        let mut x = vec![0.0; n];
        let pre = session.krylov(Method::Gmres, &b, &mut x).expect("krylov");
        let mut x2 = vec![0.0; n];
        let plain = krylov_with(
            Method::Gmres,
            &a_t,
            &b,
            &mut x2,
            &IdentityPrecond,
            &opts,
            &mut plain_ws,
        );
        assert!(pre.converged, "step {step} failed to converge");
        total_pre += pre.iterations;
        total_plain += plain.iterations;
        println!(
            "step {step}: GMRES {} iters with ILU(0) vs {} without | refactor {:.2?}",
            pre.iterations,
            plain.iterations,
            session.stats().t_numeric
        );
    }
    println!(
        "total Krylov iterations over {steps} steps: {total_pre} (ILU) vs {total_plain} (none)"
    );
    let speedup = t_full.as_secs_f64() / t_refactor.as_secs_f64().max(1e-12);
    println!(
        "symbolic amortization: {steps} refactors took {t_refactor:.2?} vs {t_full:.2?} for \
         full analyze+factor — {speedup:.1}x faster per step"
    );
    assert!(total_pre < total_plain);
}
