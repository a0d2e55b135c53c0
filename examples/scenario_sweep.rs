//! Scenario sweep — the batched-refactorization consumer: a transient
//! circuit (DM + ND preordered, as in the paper) stepped through `k`
//! process corners at a time. `Session::sweep` refactors all `k` value
//! sets in one schedule walk and retires the `k` systems in one
//! lockstep panel Krylov solve; the classical baseline loops
//! `Session::refactor` + `Session::krylov` over the corners. Every step
//! asserts the two agree bitwise and prints scenarios/s for both.
//!
//! ```text
//! cargo run --release --example scenario_sweep            # full run
//! cargo run --release --example scenario_sweep -- --smoke # CI-sized
//! ```

use javelin::order::{dm::dm_row_permutation, nested_dissection_order};
use javelin::prelude::*;
use javelin::synth::{circuit::transient_circuit, util::revalue};
use std::time::Instant;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n, core_size, k, steps) = if smoke {
        (600, 24, 4, 2)
    } else {
        (2000, 40, 8, 5)
    };
    let (nthreads, method) = (2, Method::BatchGmres);

    let raw = transient_circuit(n, core_size, true, 0x5eed);
    let rowp = dm_row_permutation(&raw).expect("DM row permutation");
    let a = raw
        .permute(&rowp, &Perm::identity(raw.ncols()))
        .expect("row permutation fits");
    let a = a
        .permute_sym(&nested_dissection_order(&a, 64))
        .expect("ND ordering fits");
    println!(
        "scenario sweep: n = {n}, nnz = {}, k = {k} corners/step, {method} @ {nthreads} threads",
        a.nnz()
    );

    let session = || {
        Session::builder()
            .ilu_options(IluOptions::ilu0(nthreads))
            .panel_width(k)
            .solver_options(SolverOptions {
                tol: 1e-8,
                ..SolverOptions::default()
            })
            .build(&a)
            .expect("session")
    };
    let (mut batched, mut looped) = (session(), session());
    // Step `s`: the base stamps drifted by the step and perturbed per
    // corner — one pattern, `k` value sets — and one excitation each.
    let corners = |s: usize| -> Vec<CsrMatrix<f64>> {
        (0..k)
            .map(|c| revalue(&a, 0.3 + s as f64 + c as f64 * 0.77, 0.05))
            .collect()
    };
    let rhs = |s: usize| -> Vec<f64> {
        (0..n * k)
            .map(|i| ((i % n * 7 + i / n * 13 + s * 37) % 29) as f64 * 0.1 - 1.0)
            .collect()
    };
    let (mut xb, mut xl) = (vec![0.0; n * k], vec![0.0; n * k]);
    // The first sweep at width k allocates the batch handle; every
    // later one is numeric-only. Seed it outside the clock.
    let seed = corners(0);
    batched
        .sweep(
            method,
            &seed.iter().collect::<Vec<_>>(),
            Panel::new(&rhs(0), n, k),
            PanelMut::new(&mut xb, n, k),
        )
        .expect("warm-up sweep");

    let (mut t_batched, mut t_looped) = (0.0, 0.0);
    for step in 0..steps {
        let corners = corners(step);
        let mats: Vec<&CsrMatrix<f64>> = corners.iter().collect();
        let b = rhs(step);
        xb.fill(0.0);
        xl.fill(0.0);

        let t0 = Instant::now();
        let results = batched
            .sweep(
                method,
                &mats,
                Panel::new(&b, n, k),
                PanelMut::new(&mut xb, n, k),
            )
            .expect("batched sweep");
        let dt_batched = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        for (c, xc) in xl.chunks_exact_mut(n).enumerate() {
            looped.refactor(mats[c]).expect("looped refactor");
            let res = looped
                .krylov(method, &b[c * n..(c + 1) * n], xc)
                .expect("looped solve");
            assert_eq!(res.iterations, results[c].iterations, "corner {c}");
        }
        let dt_looped = t1.elapsed().as_secs_f64();

        assert!(results.iter().all(|r| r.converged), "step {step}");
        assert!(
            xb.iter().zip(&xl).all(|(p, q)| p.to_bits() == q.to_bits()),
            "step {step}: batched and looped paths must agree bitwise"
        );
        println!(
            "step {step}: {:.0} scen/s batched vs {:.0} scen/s looped ({:.2}x) | iters {:?}",
            k as f64 / dt_batched,
            k as f64 / dt_looped,
            dt_looped / dt_batched,
            results.iter().map(|r| r.iterations).collect::<Vec<_>>(),
        );
        t_batched += dt_batched;
        t_looped += dt_looped;
    }
    println!(
        "total over {steps} steps: {t_batched:.3} s batched vs {t_looped:.3} s looped ({:.2}x); \
         batch cached = {}",
        t_looped / t_batched,
        batched.scenario_batch().is_some()
    );
}
