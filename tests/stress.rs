//! Stress tests: heavy oversubscription and repeated parallel runs.
//!
//! This host may have a single core; these tests deliberately run with
//! more threads than cores to exercise the yielding backoff paths of
//! the progress counters and barriers under the worst
//! scheduling conditions (a spinning thread holding the core its
//! dependency needs).

use javelin::core::options::SolveEngine;
use javelin::core::{factorize, IluOptions};
use javelin::synth::grid::laplace_2d;
use javelin::synth::suite::suite_matrix;

#[test]
fn eight_threads_on_any_core_count_terminate_and_agree() {
    let a = laplace_2d(24, 24);
    let serial = factorize(&a, &IluOptions::default()).expect("serial");
    let want: Vec<u64> = serial.lu().vals().iter().map(|v| v.to_bits()).collect();
    let mut opts = IluOptions::ilu0(8);
    opts.split.min_rows_per_level = 8;
    opts.split.location_frac = 0.1;
    let f = factorize(&a, &opts).expect("oversubscribed");
    let got: Vec<u64> = f.lu().vals().iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want);
}

#[test]
fn repeated_parallel_solves_are_stable() {
    let a = suite_matrix("transient").expect("suite").build_tiny();
    let mut opts = IluOptions::ilu0(6);
    opts.split.min_rows_per_level = 10;
    let f = factorize(&a, &opts).expect("factors");
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| (i % 13) as f64 - 6.0).collect();
    let mut reference = vec![0.0; n];
    f.solve_with(SolveEngine::Serial, &b, &mut reference)
        .expect("serial");
    // Hammer the point-to-point engines repeatedly: results must be
    // identical on every run (no lost updates, no stale reads).
    for round in 0..10 {
        for engine in [SolveEngine::PointToPoint, SolveEngine::PointToPointLower] {
            let mut x = vec![0.0; n];
            f.solve_with(engine, &b, &mut x).expect("parallel");
            for (g, w) in x.iter().zip(reference.iter()) {
                assert!(
                    (g - w).abs() <= 1e-10 * w.abs().max(1.0),
                    "round {round} engine {engine}: {g} vs {w}"
                );
            }
        }
    }
}

#[test]
fn lower_stage_under_oversubscription() {
    let a = suite_matrix("TSOPF_RS_b300_c2")
        .expect("suite")
        .build_tiny();
    let mut threaded = IluOptions::ilu0(6);
    threaded.split.min_rows_per_level = 16;
    threaded.split.location_frac = 0.0;
    let mut serial = threaded.clone();
    serial.nthreads = 1;
    let f1 = factorize(&a, &serial).expect("serial");
    let f2 = factorize(&a, &threaded).expect("six threads");
    let b1: Vec<u64> = f1.lu().vals().iter().map(|v| v.to_bits()).collect();
    let b2: Vec<u64> = f2.lu().vals().iter().map(|v| v.to_bits()).collect();
    assert_eq!(b1, b2);
    assert!(f2.stats().n_lower_rows > 0, "lower stage must be exercised");
}
