//! Exact per-apply work of the threaded engine, pinned at 0 % tolerance.
//!
//! `SymbolicIlu::work` is a pure function of the analysis's plans, so
//! its counts are exact: any change to the schedules, the block cut, the
//! wait pruning or the region's structure moves a pin here. A recording
//! walk over the same schedules must see exactly the wait checks and
//! publications `work` states.

use javelin::core::{IluOptions, SymbolicIlu, Work};
use javelin::sparse::CsrMatrix;
use javelin::sync::{Exec, ProgressCounters};
use javelin::synth::circuit::transient_circuit;
use javelin::synth::grid::convection_diffusion_3d;
use std::sync::atomic::{AtomicUsize, Ordering};

fn grid() -> CsrMatrix<f64> {
    convection_diffusion_3d(14, 14, 14, (30.0, 20.0, 10.0))
}

fn circuit() -> CsrMatrix<f64> {
    transient_circuit(2_000, 30, false, 3)
}

fn analyze(a: &CsrMatrix<f64>, nthreads: usize) -> SymbolicIlu<f64> {
    SymbolicIlu::analyze(a, &IluOptions::ilu0(nthreads)).expect("analyze")
}

/// Walks both schedules of `sym` on a team of its size, recording every
/// wait-list entry checked and every progress publication: at the
/// start of its `i`-th block a walker must have published exactly `i`
/// times, and its final count is its last publication.
fn recorded(sym: &SymbolicIlu<f64>) -> (usize, usize) {
    let (plan, nthreads) = (sym.plan(), sym.nthreads());
    let team = Exec::team(nthreads);
    let (checks, publications) = (AtomicUsize::new(0), AtomicUsize::new(0));
    for schedule in [&plan.fwd, &plan.bwd] {
        let progress = ProgressCounters::new(nthreads);
        team.run(|tid| {
            let blocks = schedule.thread_blocks(tid).inspect(|(_, waits)| {
                checks.fetch_add(waits.len(), Ordering::Relaxed);
            });
            let mut started = 0;
            progress.walk(tid, blocks, |_| {
                assert_eq!(progress.load(tid), started, "tid {tid}: publications");
                started += 1;
            });
            assert_eq!(progress.load(tid), started, "tid {tid}: last publication");
            publications.fetch_add(started, Ordering::Relaxed);
        });
    }
    (checks.into_inner(), publications.into_inner())
}

#[test]
fn work_pins_and_recorded_walks() {
    // (matrix, nthreads, one apply's work at k = 1 and k = 8). Both
    // matrices keep trailing rows, so every apply passes four barriers.
    let cases: [(&str, fn() -> CsrMatrix<f64>, usize, Work); 4] = [
        ("grid", grid, 2, work(28_152, 131, 137, 4)),
        ("grid", grid, 3, work(32_376, 259, 205, 4)),
        ("circuit", circuit, 2, work(20_600, 79, 107, 4)),
        ("circuit", circuit, 3, work(24_232, 206, 157, 4)),
    ];
    for (name, matrix, nthreads, want) in cases {
        let sym = analyze(&matrix(), nthreads);
        for k in [1, 8] {
            assert_eq!(sym.work(k), want, "{name} nthreads {nthreads} k {k}");
        }
        assert_eq!(
            sym.work(0),
            Work::default(),
            "{name}: a width-0 apply is no work"
        );
        assert_eq!(
            recorded(&sym),
            (want.wait_checks, want.publications),
            "{name} nthreads {nthreads}: recorded walk"
        );
    }
}

/// One apply's [`Work`]: no caller-side vector pass and one region.
fn work(schedule_bytes: usize, wait_checks: usize, publications: usize, barriers: usize) -> Work {
    Work {
        caller_vector_passes: 0,
        schedule_bytes,
        wait_checks,
        publications,
        barriers,
        regions: 1,
    }
}
