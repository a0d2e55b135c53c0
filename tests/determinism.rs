//! Determinism guarantees: every engine and thread count produces
//! bit-identical factors — the property that makes Javelin's parallel
//! ILU as debuggable as the serial one (contrast with the
//! nondeterministic fine-grained ILU the paper cites as related work).

use javelin::core::{factorize, IluOptions, Preconditioner};
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
        want.apply(&rhs, &mut xw);
        got.apply(&rhs, &mut xg);
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

/// FNV-1a over factor bits (the form of the solver's golden pins).
fn fnv1a(bits: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in bits.iter().flat_map(|b| b.to_le_bytes()) {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Scenario `c`'s copy of `a`: every value scaled by an integer-derived
/// factor in `[0.95, 1.05]` (no libm, so the pins do not depend on the
/// platform's `sin`).
fn perturbed(a: &javelin::sparse::CsrMatrix<f64>, c: usize) -> javelin::sparse::CsrMatrix<f64> {
    let mut m = a.clone();
    for (e, v) in m.vals_mut().iter_mut().enumerate() {
        *v *= 1.0 + 0.05 * (((e * 7 + c * 13) % 17) as f64 - 8.0) / 8.0;
    }
    m
}

/// Factor bits pinned as FNV-1a hashes recorded from an earlier commit:
/// every other factor test compares the kernel with itself, so a rewrite
/// that moved bits the same way on every path would pass them all.
#[test]
fn factor_bits_match_committed_pins() {
    use javelin::core::SymbolicIlu;
    use javelin::synth::circuit::transient_circuit;
    use javelin::synth::grid::laplace_2d;

    // Per generator: the k = 1 factor at fill 0, at fill 1 and at fill 1
    // with τ = 1e-3 + MILU ω = 0.5; then lanes 0..8 of a fill-1 batch of
    // `perturbed` copies (a k = 3 batch carries the first three).
    #[rustfmt::skip]
    let pins: [(&str, _, [u64; 3], [u64; 8]); 2] = [
        (
            "laplace_2d",
            laplace_2d(20, 20),
            [0xaf571d3347806de9, 0x6492b6fc1e72748d, 0x6492b6fc1e72748d],
            [
                0xd4de0fcec6c2cdc9, 0xfa39f0d21a2a857d, 0xb697d79d54050a20, 0x3cb7da5d23591ef4,
                0xd4348e449a00c96b, 0x58ff0a8650665051, 0x7cf3b44bf6344489, 0xcca75b1a7dcabcf5,
            ],
        ),
        (
            "transient_circuit",
            transient_circuit(1500, 40, false, 11),
            [0x2f448bbf177269ea, 0xbb979958079b4711, 0x46deb28d0736a748],
            [
                0x8d39ca0f4eec2bc6, 0x87515fdff7578946, 0xd9e06145e40ac40f, 0x33dadcabbf62f407,
                0xb0d651e9ccffbfd1, 0xee48fad742acb6ab, 0x08bbbb3d098b870c, 0x3b77c162e9596701,
            ],
        ),
    ];
    for (name, a, scalar_pins, lane_pins) in &pins {
        for nthreads in [1usize, 2] {
            let fill1 = IluOptions::ilu0(nthreads).with_fill(1);
            let tau_milu = fill1.clone().with_drop_tol(1e-3).with_milu(0.5);
            let opts = [IluOptions::ilu0(nthreads), fill1.clone(), tau_milu];
            for (case, (opts, pin)) in opts.iter().zip(scalar_pins).enumerate() {
                let got = fnv1a(&factor_bits(a, opts));
                assert_eq!(got, *pin, "{name} case {case} t{nthreads}: bits moved");
            }
            let sym = SymbolicIlu::analyze(a, &fill1).unwrap();
            for k in [3usize, 8] {
                let mats: Vec<_> = (0..k).map(|c| perturbed(a, c)).collect();
                let refs: Vec<_> = mats.iter().collect();
                let batch = sym.factor_batch(&refs).expect("batch");
                assert!(batch.all_ok(), "{name} k {k} t{nthreads}");
                for (c, pin) in lane_pins.iter().enumerate().take(k) {
                    let lane = batch.to_factors(c);
                    let bits: Vec<u64> = lane.lu().vals().iter().map(|v| v.to_bits()).collect();
                    let got = fnv1a(&bits);
                    assert_eq!(got, *pin, "{name} k {k} lane {c} t{nthreads}: bits moved");
                }
            }
        }
    }
    // The τ case drops entries on the circuit, so its pin covers the
    // dropping path.
    let circuit = &pins[1].1;
    let opts = IluOptions::default()
        .with_fill(1)
        .with_drop_tol(1e-3)
        .with_milu(0.5);
    assert!(factorize(circuit, &opts).unwrap().stats().dropped_entries > 0);
}
