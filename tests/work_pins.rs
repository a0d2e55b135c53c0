//! Exact per-apply and per-refactor work of the threaded engines, pinned
//! at 0 % tolerance.
//!
//! `SymbolicIlu::work` is a pure function of the analysis's plans, so
//! its counts are exact: any change to the schedules, the block cut, the
//! wait pruning or the region's structure moves a pin here. A recording
//! walk over the same schedules must see exactly the wait checks and
//! publications `work` states. `SymbolicIlu::refactor_work` states one
//! refactor sweep's work the same way, checked against a recording walk
//! of the forward schedule the upper stage walks.
//!
//! The counted spans (`SymbolicIlu::refactor_span`,
//! `SymbolicIlu::apply_span`) — the critical path of each walk at any
//! thread count with synchronization free, the bounds the paper's
//! scaling figures print — are pinned the same way, at one thread equal
//! to the serial work.
//!
//! The Krylov drivers' op table (`Method::ops`) is pinned the same way:
//! a counting operator and a counting preconditioner wrap real solves on
//! a fixed 14³ grid, and the spmvs, applies, reductions and update
//! passes they see must equal the table's for every method and both
//! exits. The operator counts through its hooks (`spmv_col`, `dot`,
//! `map`, `zip`, `zip3`), the only way the drivers reach a vector, so
//! the table is every pass a threaded solve runs on its team.

use javelin::core::{
    factorize, ApplyScratch, IluOptions, Preconditioner, SolveEngine, SymbolicIlu, Work,
};
use javelin::level::P2PSchedule;
use javelin::solver::{
    krylov_with, ConvergedAt, KrylovOps, Method, PanelMatrices, SolverOptions, SolverResult,
    SolverWorkspace,
};
use javelin::sparse::{vecops, CsrMatrix, Panel, PanelMut};
use javelin::sync::{ProgressCounters, WorkerTeam};
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

/// Walks `schedules` of `sym` on a team of its size, recording every
/// wait-list entry checked and every progress publication: at the
/// start of its `i`-th block a walker must have published exactly `i`
/// times, and its final count is its last publication.
fn recorded(sym: &SymbolicIlu<f64>, schedules: &[&P2PSchedule]) -> (usize, usize) {
    let nthreads = sym.nthreads();
    let team = WorkerTeam::new(nthreads);
    let (checks, publications) = (AtomicUsize::new(0), AtomicUsize::new(0));
    for schedule in schedules {
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
            recorded(&sym, &[&sym.plan().fwd, &sym.plan().bwd]),
            (want.wait_checks, want.publications),
            "{name} nthreads {nthreads}: recorded walk"
        );
    }
}

/// The exact bytes of the analysis's index arrays
/// (`SymbolicIlu::heap_bytes`): the two `u32` patterns, `a_src`, the
/// update list, the permutation and the solve plan with its schedules.
/// The matrices are `analyze`'s pin matrices in core.
#[test]
fn analysis_heap_bytes_pins() {
    let (grid, pin_circuit) = (grid(), transient_circuit(1_500, 40, false, 11));
    // (matrix, fill, nthreads, heap bytes).
    let cases: [(&str, &CsrMatrix<f64>, usize, usize, usize); 4] = [
        ("grid", &grid, 0, 1, 449_412),
        ("grid", &grid, 0, 2, 454_764),
        ("circuit", &pin_circuit, 1, 1, 889_260),
        ("circuit", &pin_circuit, 1, 2, 899_748),
    ];
    for (name, a, fill, nthreads, want) in cases {
        let opts = IluOptions::ilu0(nthreads).with_fill(fill);
        let sym = SymbolicIlu::analyze(a, &opts).expect("analyze");
        assert_eq!(
            sym.heap_bytes(),
            want,
            "{name} fill {fill} nthreads {nthreads}"
        );
    }
}

/// The counted spans of one refactor sweep and one apply
/// (`SymbolicIlu::refactor_span`, `SymbolicIlu::apply_span`) at 1, 2, 3
/// and 8 threads, on `analyze`'s pin matrices. At one thread each is
/// the serial work: the updates plus the LU entries for the refactor,
/// the LU entries for the apply. No span grows with the thread count
/// here, and none beats the thread count.
#[test]
fn span_pins() {
    let (grid, pin_circuit) = (grid(), transient_circuit(1_500, 40, false, 11));
    // (matrix, fill, refactor spans, apply spans) at t = 1, 2, 3, 8.
    let cases: [(&str, &CsrMatrix<f64>, usize, [usize; 4], [usize; 4]); 2] = [
        (
            "grid",
            &grid,
            0,
            [25_676, 13_142, 9_089, 3_714],
            [18_032, 9_217, 6_365, 2_616],
        ),
        (
            "circuit",
            &pin_circuit,
            1,
            [87_638, 60_010, 48_685, 33_680],
            [24_252, 13_977, 10_406, 5_923],
        ),
    ];
    for (name, a, fill, refactor, apply) in cases {
        let opts = IluOptions::ilu0(1).with_fill(fill);
        let sym = SymbolicIlu::analyze(a, &opts).expect("analyze");
        let got = |span: &dyn Fn(usize) -> usize| [1, 2, 3, 8].map(span);
        let (got_refactor, got_apply) =
            (got(&|t| sym.refactor_span(t)), got(&|t| sym.apply_span(t)));
        assert_eq!(got_refactor, refactor, "{name}: refactor spans");
        assert_eq!(got_apply, apply, "{name}: apply spans");
        assert_eq!(refactor[0], sym.stats().n_updates + sym.nnz(), "{name}");
        assert_eq!(apply[0], sym.nnz(), "{name}");
        for (spans, what) in [(refactor, "refactor"), (apply, "apply")] {
            for (span, t) in spans.into_iter().zip([1, 2, 3, 8]) {
                assert!(
                    span <= spans[0] && span * t >= spans[0],
                    "{name} {what} t {t}"
                );
            }
        }
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

#[test]
fn refactor_work_pins() {
    // (matrix, nthreads, one refactor sweep's work at k = 1 and k = 8):
    // no nnz-length pass on the caller at any thread count; at t ≥ 2
    // the load region, the upper stage's walk of the forward schedule
    // and the Even-Rows stage, and at t = 1 no region at all.
    let cases: [(&str, fn() -> CsrMatrix<f64>, usize, Work); 6] = [
        ("grid", grid, 1, Work::default()),
        ("grid", grid, 2, refactor_work(3_216, 65, 68)),
        ("grid", grid, 3, refactor_work(5_328, 129, 102)),
        ("circuit", circuit, 1, Work::default()),
        ("circuit", circuit, 2, refactor_work(2_992, 51, 68)),
        ("circuit", circuit, 3, refactor_work(5_440, 140, 100)),
    ];
    for (name, matrix, nthreads, want) in cases {
        let sym = analyze(&matrix(), nthreads);
        for k in [1, 8] {
            assert_eq!(
                sym.refactor_work(k),
                want,
                "{name} nthreads {nthreads} k {k}"
            );
        }
        if nthreads > 1 {
            assert_eq!(
                recorded(&sym, &[&sym.plan().fwd]),
                (want.wait_checks, want.publications),
                "{name} nthreads {nthreads}: recorded forward walk"
            );
        }
    }
}

/// One refactor sweep's [`Work`] on a team: no caller-side pass, no
/// barrier, three regions.
fn refactor_work(schedule_bytes: usize, wait_checks: usize, publications: usize) -> Work {
    Work {
        caller_vector_passes: 0,
        schedule_bytes,
        wait_checks,
        publications,
        barriers: 0,
        regions: 3,
    }
}

/// Counts the drivers' matvecs, reductions and update passes through
/// the operator's hooks.
struct CountingMatrix<'a> {
    a: &'a CsrMatrix<f64>,
    spmvs: AtomicUsize,
    reductions: AtomicUsize,
    updates: AtomicUsize,
}

impl PanelMatrices<f64> for CountingMatrix<'_> {
    fn nrows(&self) -> usize {
        self.a.nrows()
    }
    fn col_matrix(&self, _c: usize) -> &CsrMatrix<f64> {
        self.a
    }
    fn spmv_col(&self, c: usize, x: &[f64], y: &mut [f64]) {
        self.spmvs.fetch_add(1, Ordering::Relaxed);
        self.col_matrix(c).spmv_into(x, y);
    }
    fn dot(&self, x: &[f64], y: &[f64], _sums: &mut [f64]) -> f64 {
        self.reductions.fetch_add(1, Ordering::Relaxed);
        vecops::dot(x, y)
    }
    fn map<F: Fn(f64) -> f64 + Sync>(&self, y: &mut [f64], f: F) {
        self.updates.fetch_add(1, Ordering::Relaxed);
        vecops::map(y, f);
    }
    fn zip<F: Fn(f64, f64) -> f64 + Sync>(&self, y: &mut [f64], x: &[f64], f: F) {
        self.updates.fetch_add(1, Ordering::Relaxed);
        vecops::zip(y, x, f);
    }
    fn zip3<F>(&self, y: &mut [f64], u: &[f64], v: &[f64], f: F)
    where
        F: Fn(f64, f64, f64) -> f64 + Sync,
    {
        self.updates.fetch_add(1, Ordering::Relaxed);
        vecops::zip3(y, u, v, f);
    }
}

/// Counts preconditioner applies, one per column.
struct CountingPrecond<'a, P> {
    inner: &'a P,
    applies: AtomicUsize,
}

impl<P: Preconditioner<f64>> Preconditioner<f64> for CountingPrecond<'_, P> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.applies.fetch_add(1, Ordering::Relaxed);
        self.inner.apply(r, z);
    }
    fn apply_with(&self, scratch: &mut ApplyScratch<f64>, r: &[f64], z: &mut [f64]) {
        self.applies.fetch_add(1, Ordering::Relaxed);
        self.inner.apply_with(scratch, r, z);
    }
    fn apply_column_with(&self, s: &mut ApplyScratch<f64>, col: usize, r: &[f64], z: &mut [f64]) {
        self.applies.fetch_add(1, Ordering::Relaxed);
        self.inner.apply_column_with(s, col, r, z);
    }
    fn apply_panel_with(&self, s: &mut ApplyScratch<f64>, r: Panel<'_, f64>, z: PanelMut<'_, f64>) {
        self.applies.fetch_add(r.ncols(), Ordering::Relaxed);
        self.inner.apply_panel_with(s, r, z);
    }
}

/// One counted solve of `method` from `x`: its result and the spmvs,
/// applies, reductions and update passes the drivers issued.
fn counted_solve(
    method: Method,
    a: &CsrMatrix<f64>,
    m: &impl Preconditioner<f64>,
    opts: &SolverOptions,
    x: &mut [f64],
) -> (SolverResult, KrylovOps) {
    let counted_a = CountingMatrix {
        a,
        spmvs: AtomicUsize::new(0),
        reductions: AtomicUsize::new(0),
        updates: AtomicUsize::new(0),
    };
    let counted_m = CountingPrecond {
        inner: m,
        applies: AtomicUsize::new(0),
    };
    let b: Vec<f64> = (0..a.nrows())
        .map(|i| 1.0 + (i % 7) as f64 * 0.25)
        .collect();
    let mut ws = SolverWorkspace::new();
    let res = krylov_with(method, &counted_a, &b, x, &counted_m, opts, &mut ws);
    let counted = ops(
        counted_a.spmvs.into_inner(),
        counted_m.applies.into_inner(),
        counted_a.reductions.into_inner(),
        counted_a.updates.into_inner(),
    );
    (res, counted)
}

#[test]
fn krylov_op_table_matches_counted_solves() {
    use ConvergedAt::{Closing, Early};
    // (method, tol, restart, iterations, exit, the table's ops). The
    // 14³ Laplacian is SPD, so PCG runs too. BiCGSTAB at 1e-6 meets
    // the tolerance at its half-step; GMRES at restart 4 runs several
    // cycles, and at 1e-2 converges on a cycle's last step.
    let a = javelin::synth::grid::laplace_3d(14, 14, 14);
    let f = factorize(&a, &IluOptions::ilu0(1)).expect("factor");
    let m = f.with_engine(SolveEngine::Serial);
    let cases = [
        (Method::Pcg, 1e-6, 50, 16, Closing, ops(17, 16, 50, 49)),
        (Method::Bicgstab, 1e-6, 50, 11, Early, ops(22, 21, 65, 57)),
        (Method::Bicgstab, 1e-4, 50, 7, Closing, ops(15, 14, 44, 39)),
        (Method::Gmres, 1e-6, 50, 15, Closing, ops(16, 16, 137, 168)),
        (Method::Gmres, 1e-6, 4, 25, Closing, ops(32, 32, 94, 157)),
        (Method::Fgmres, 1e-6, 4, 25, Closing, ops(32, 25, 94, 143)),
        (Method::Fgmres, 1e-2, 4, 8, Closing, ops(10, 8, 31, 46)),
    ];
    for (method, tol, restart, iterations, exit, want) in cases {
        let opts = SolverOptions {
            tol,
            restart,
            ..SolverOptions::default()
        };
        let mut x = vec![0.0; a.nrows()];
        let (res, counted) = counted_solve(method, &a, &m, &opts, &mut x);
        let case = format!("{method} tol {tol:e} restart {restart}");
        assert!(res.converged, "{case}");
        assert_eq!(res.iterations, iterations, "{case}");
        let table = method.ops(iterations, restart, exit);
        assert_eq!(table, Some(want), "{case}: table");
        assert_eq!(counted, want, "{case}: counted");
        // Warm-started from its own solution, GMRES meets the tolerance
        // at its first true residual; BiCGSTAB at its first half-step.
        if matches!(method, Method::Gmres | Method::Bicgstab) {
            let (res, counted) = counted_solve(method, &a, &m, &opts, &mut x);
            let (it, exit) = match method {
                Method::Gmres => (0, Early),
                _ => (1, Early),
            };
            assert_eq!(res.iterations, it, "{case}: warm start");
            let table = method.ops(it, restart, exit).expect("a converged path");
            assert_eq!(counted, table, "{case}: warm start");
        }
    }
}

fn ops(spmvs: usize, applies: usize, reductions: usize, updates: usize) -> KrylovOps {
    KrylovOps {
        spmvs,
        applies,
        reductions,
        updates,
    }
}
