//! Stress tests: heavy oversubscription and repeated parallel runs.
//!
//! This host may have a single core; these tests deliberately run with
//! more threads than cores to exercise the yielding backoff paths of
//! the progress counters and barriers under the worst
//! scheduling conditions (a spinning thread holding the core its
//! dependency needs).

use javelin::core::options::SolveEngine;
use javelin::core::{factorize, IluOptions, SymbolicIlu};
use javelin::sparse::{CooMatrix, CsrMatrix, Panel, PanelMut};
use javelin::synth::grid::laplace_2d;
use javelin::synth::suite::suite_matrix;
use javelin::synth::util::{bordered, revalue, rhs_panel};

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
    // Hammer the point-to-point engine repeatedly: every run must carry
    // the serial bits (no lost updates, no stale reads).
    for round in 0..10 {
        let mut x = vec![0.0; n];
        f.solve_with(SolveEngine::PointToPointLower, &b, &mut x)
            .expect("parallel");
        for (g, w) in x.iter().zip(reference.iter()) {
            assert_eq!(g.to_bits(), w.to_bits(), "round {round}: {g} vs {w}");
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

/// A chain of width-1 levels through wide ones: hub `h` couples to the
/// `w` spokes of segments `h − 1` and `h`, so the levels alternate
/// {one hub}, {`w` spokes}. The thread that takes a hub also takes the
/// first block of the next level, right after it in execution order:
/// its two blocks touch and merge, while the other threads' blocks of
/// spokes feed the next hub through real handoffs.
fn hub_chain(hubs: usize, w: usize) -> CsrMatrix<f64> {
    let n = hubs * (w + 1);
    let hub = |h: usize| h * (w + 1);
    let mut coo = CooMatrix::new(n, n);
    for h in 0..hubs {
        coo.push(hub(h), hub(h), 4.0 * w as f64).unwrap();
        for s in hub(h) + 1..hub(h + 1) {
            coo.push(s, s, 3.0 + (s % 5) as f64).unwrap();
            for other in [Some(hub(h)), (h + 1 < hubs).then(|| hub(h + 1))]
                .into_iter()
                .flatten()
            {
                coo.push(s, other, -0.5 - (s % 3) as f64 * 0.1).unwrap();
                coo.push(other, s, -0.25).unwrap();
            }
        }
    }
    coo.to_csr()
}

/// Bits of everything the point-to-point walks produce on one analysis:
/// factor, refactor, a `k = 4` batch refactor (every lane) and the
/// `PointToPointLower` apply at widths 1 and 4.
fn p2p_outcome(sym: &SymbolicIlu<f64>, a: &CsrMatrix<f64>, a2: &CsrMatrix<f64>) -> Vec<Vec<u64>> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let mut out = Vec::new();
    let mut f = sym.factor(a).expect("factor");
    out.push(bits(f.lu().vals()));
    f.refactor(a2).expect("refactor");
    out.push(bits(f.lu().vals()));
    let mut batch = sym.factor_batch(&[a, a, a, a]).expect("batch");
    batch
        .refactor_batch(&[a2, a, a2, a])
        .expect("refactor_batch");
    assert!(batch.all_ok());
    out.extend((0..4).map(|c| bits(batch.to_factors(c).lu().vals())));
    let n = a.nrows();
    for k in [1, 4] {
        let b = rhs_panel(n, k, 11);
        let mut x = vec![0.0; n * k];
        f.solve_panel_with(
            SolveEngine::PointToPointLower,
            Panel::new(&b, n, k),
            PanelMut::new(&mut x, n, k),
        )
        .expect("p2p apply");
        out.push(bits(&x));
    }
    out
}

#[test]
fn per_block_publication_is_bitwise_serial_under_repetition() {
    // Every point-to-point walk publishes progress once per contiguous
    // block (and before blocking). Hammer it on the three shapes that
    // stress that protocol differently — merged blocks on width-1
    // levels, wide levels, and a heavy lower stage behind a bordered
    // grid — at 2–4 threads, unpinned then pinned, 100 times each: every
    // result must carry the bits of the one-thread analysis.
    let cases = [
        (
            "hub chain",
            hub_chain(24, 7),
            IluOptions::level_scheduling_only(1),
        ),
        ("grid", laplace_2d(20, 20), IluOptions::ilu0(1)),
        (
            "bordered",
            bordered(&laplace_2d(14, 14), 6),
            IluOptions::ilu0(1),
        ),
    ];
    for pinned in [false, true] {
        for (name, a, serial) in &cases {
            let a2 = revalue(a, 0.7, 0.05);
            let reference = p2p_outcome(&SymbolicIlu::analyze(a, serial).expect("analyze"), a, &a2);
            for nthreads in [2, 3, 4] {
                let mut opts = serial.clone();
                opts.nthreads = nthreads;
                opts.pin_threads = pinned;
                let sym = SymbolicIlu::analyze(a, &opts).expect("analyze");
                if *name == "bordered" {
                    assert!(sym.stats().n_lower_rows > 0, "bordered: empty lower stage");
                }
                for rep in 0..100 {
                    assert!(
                        p2p_outcome(&sym, a, &a2) == reference,
                        "{name}: nthreads {nthreads} pinned {pinned} rep {rep}"
                    );
                }
            }
        }
    }
}
