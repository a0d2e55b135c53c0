//! Golden regression test for the circuit-transient scenario sweep:
//! a fixed-seed assembly driven three steps through `Session::sweep`,
//! checked against committed per-scenario iteration-count fixtures
//! (exact), residual bounds, and — bitwise — the looped
//! `Session::refactor` + `Session::krylov` of every corner.
//!
//! The entire pipeline underneath is deterministic — fixed generator
//! seed, deterministic factorization engines (bit-identical at every
//! thread count), lockstep panel Krylov with the bitwise column
//! contract — so iteration counts are stable and any drift here means
//! a numeric behavior change somewhere in the stack, not noise.

use javelin::order::{dm::dm_row_permutation, nested_dissection_order};
use javelin::prelude::*;
use javelin::synth::{circuit::transient_circuit, util::revalue};

/// Committed fixture: per-step, per-scenario GMRES iteration counts of
/// the batched path (k = 4 corners, tol = 1e-8). Regenerate by running
/// this test with `GOLDEN_PRINT=1` and pasting the printed table.
const GOLDEN_ITERS: [[usize; 4]; 3] = [[7, 8, 8, 8], [8, 8, 8, 8], [7, 7, 8, 8]];

#[test]
fn transient_sweep_matches_committed_fixtures() {
    let (n, k, method) = (600, 4, Method::BatchGmres);
    // The paper's preordering: DM row permutation, then ND.
    let raw = transient_circuit(n, 24, true, 0x5eed);
    let rowp = dm_row_permutation(&raw).unwrap();
    let a = raw.permute(&rowp, &Perm::identity(n)).unwrap();
    let a = a.permute_sym(&nested_dissection_order(&a, 64)).unwrap();
    let session = || {
        Session::builder()
            .ilu_options(IluOptions::ilu0(2))
            .panel_width(k)
            .solver_options(SolverOptions {
                tol: 1e-8,
                ..SolverOptions::default()
            })
            .build(&a)
            .unwrap()
    };
    let (mut batched, mut looped) = (session(), session());
    let mut observed = Vec::new();
    for (step, golden) in GOLDEN_ITERS.iter().enumerate() {
        let corners: Vec<CsrMatrix<f64>> = (0..k)
            .map(|c| revalue(&a, 0.3 + step as f64 + c as f64 * 0.77, 0.05))
            .collect();
        let mats: Vec<&CsrMatrix<f64>> = corners.iter().collect();
        let b: Vec<f64> = (0..n * k)
            .map(|i| ((i % n * 7 + i / n * 13 + step * 37) % 29) as f64 * 0.1 - 1.0)
            .collect();
        let mut xb = vec![0.0; n * k];
        let results = batched
            .sweep(
                method,
                &mats,
                Panel::new(&b, n, k),
                PanelMut::new(&mut xb, n, k),
            )
            .unwrap();
        assert!(batched.scenario_batch().unwrap().all_ok());
        for (c, r) in results.iter().enumerate() {
            assert!(r.converged, "step {step} scenario {c} did not converge");
            // Residuals are float-valued, so they get a bound rather
            // than an exact fixture: converged means ≤ tol, and the
            // reported value must be a sane positive float.
            assert!(
                r.relative_residual <= 1e-8 && r.relative_residual >= 0.0,
                "step {step} scenario {c}: residual {}",
                r.relative_residual
            );
            let mut xl = vec![0.0; n];
            looped.refactor(mats[c]).unwrap();
            let scalar = looped
                .krylov(method, &b[c * n..(c + 1) * n], &mut xl)
                .unwrap();
            assert_eq!(scalar.iterations, r.iterations, "step {step} scenario {c}");
            assert!(
                xb[c * n..(c + 1) * n]
                    .iter()
                    .zip(&xl)
                    .all(|(p, q)| p.to_bits() == q.to_bits()),
                "step {step} scenario {c}: paths diverged bitwise"
            );
        }
        let iters: Vec<usize> = results.iter().map(|r| r.iterations).collect();
        if std::env::var("GOLDEN_PRINT").is_err() {
            assert_eq!(
                &iters[..],
                &golden[..],
                "step {step}: iteration counts drifted from the committed fixture"
            );
        }
        observed.push(iters);
    }
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("GOLDEN_ITERS = {observed:?}");
    }
}
