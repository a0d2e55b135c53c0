//! Determinism guarantees: every engine and thread count produces
//! bit-identical factors — the property that makes Javelin's parallel
//! ILU as debuggable as the serial one (contrast with the
//! nondeterministic fine-grained ILU the paper cites as related work).

use javelin::core::{factorize, IluOptions};
use javelin::synth::suite::paper_suite;
use javelin_bench::harness::preorder_dm_nd;

fn factor_bits(a: &javelin::sparse::CsrMatrix<f64>, opts: &IluOptions) -> Vec<u64> {
    let f = factorize(a, opts).expect("factors");
    f.lu().vals().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn all_engines_bitwise_equal_across_suite() {
    for meta in paper_suite() {
        let a = preorder_dm_nd(&meta.build_tiny());
        let serial = factor_bits(&a, &IluOptions::default());
        for nthreads in [2usize, 3] {
            let mut opts = IluOptions::ilu0(nthreads);
            opts.split.min_rows_per_level = 12;
            opts.split.location_frac = 0.1;
            // The split changes the permutation, so compare against a
            // serial run under the same split options.
            let mut serial_opts = opts.clone();
            serial_opts.nthreads = 1;
            let want = factor_bits(&a, &serial_opts);
            let got = factor_bits(&a, &opts);
            assert_eq!(got, want, "{}: nthreads={nthreads}", meta.name);
        }
        // And the default-split parallel run equals the default serial.
        let got = factor_bits(&a, &IluOptions::ilu0(4));
        assert_eq!(got, serial, "{}: default options", meta.name);
    }
}

#[test]
fn repeated_runs_are_identical() {
    let meta = &paper_suite()[6]; // scircuit-like: irregular
    let a = preorder_dm_nd(&meta.build_tiny());
    let opts = IluOptions::ilu0(4);
    let first = factor_bits(&a, &opts);
    for _ in 0..3 {
        assert_eq!(factor_bits(&a, &opts), first);
    }
}

#[test]
fn three_thread_lower_stage_is_bitwise_identical() {
    // Even-Rows + the serial corner on three threads vs the serial
    // sweep under the same split.
    for meta in paper_suite().into_iter().take(8) {
        let a = preorder_dm_nd(&meta.build_tiny());
        let mut threaded = IluOptions::ilu0(3);
        threaded.split.min_rows_per_level = 12;
        threaded.split.location_frac = 0.1;
        let mut serial = threaded.clone();
        serial.nthreads = 1;
        let want = factor_bits(&a, &serial);
        let got = factor_bits(&a, &threaded);
        assert_eq!(got, want, "{}", meta.name);
    }
}

#[test]
fn pinned_team_is_bitwise_identical_and_solves_match() {
    // Core pinning + first-touch placement are locality knobs only:
    // factors AND solve vectors must be bit-identical to the unpinned
    // run, whatever mask the kernel actually granted.
    for meta in paper_suite().into_iter().take(4) {
        let a = preorder_dm_nd(&meta.build_tiny());
        let opts = IluOptions::ilu0(3);
        let mut pinned = opts.clone();
        pinned.pin_threads = true;
        let want = factorize(&a, &opts).expect("factors");
        let got = factorize(&a, &pinned).expect("factors");
        let wb: Vec<u64> = want.lu().vals().iter().map(|v| v.to_bits()).collect();
        let gb: Vec<u64> = got.lu().vals().iter().map(|v| v.to_bits()).collect();
        assert_eq!(gb, wb, "{}: pinned factor bits", meta.name);
        let rhs: Vec<f64> = (0..a.nrows()).map(|i| (i as f64).sin() + 1.5).collect();
        let mut xw = vec![0.0; a.nrows()];
        let mut xg = vec![0.0; a.nrows()];
        want.solve_into(&rhs, &mut xw).expect("solve");
        got.solve_into(&rhs, &mut xg).expect("solve");
        let xwb: Vec<u64> = xw.iter().map(|v| v.to_bits()).collect();
        let xgb: Vec<u64> = xg.iter().map(|v| v.to_bits()).collect();
        assert_eq!(xgb, xwb, "{}: pinned solve bits", meta.name);
    }
}

#[test]
fn drop_tolerance_is_deterministic_in_parallel() {
    let meta = &paper_suite()[1]; // tsopf-like: dense rows
    let a = preorder_dm_nd(&meta.build_tiny());
    let mut serial = IluOptions::default()
        .with_fill(1)
        .with_drop_tol(1e-2)
        .with_milu(0.5);
    serial.split.min_rows_per_level = 12;
    let want = factor_bits(&a, &serial);
    let mut par = serial.clone();
    par.nthreads = 3;
    let got = factor_bits(&a, &par);
    assert_eq!(got, want, "τ/MILU dropping must not depend on threads");
}
