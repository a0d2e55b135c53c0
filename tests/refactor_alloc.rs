//! Steady-state `refactor` performs **zero heap allocations**, and a
//! **first** GMRES panel solve through a reserved workspace
//! ([`SolverWorkspace::reserve`] + [`SolverWorkspace::reserve_gmres_basis`])
//! performs zero heap allocations too, as do the first width-1
//! GMRES / FGMRES solves after `reserve` alone — the acceptance
//! contracts of the two-phase API and the workspace reserve path —
//! and the apply pipeline and the spmv plan allocate nothing across
//! panel widths (phases 8 and 9). A counting global
//! allocator wraps the system allocator; this file holds exactly one
//! test so no concurrent test can pollute the counters (worker-team
//! threads are counted too, which is the point: the planned numeric
//! path must not allocate on any thread).

use javelin::core::{
    ApplyScratch, FactorStats, IluOptions, Preconditioner, SolveEngine, SpmvPlan, SymbolicIlu,
    ZeroPivotPolicy,
};
use javelin::solver::{
    krylov_panel_into, krylov_with, Method, SolverOptions, SolverResult, SolverWorkspace,
};
use javelin::sparse::{CooMatrix, CsrMatrix, Panel, PanelMut, SparseError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn snapshot() -> (usize, usize) {
    (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst))
}

/// Irregular matrix with a structural diagonal, two-stage-splittable.
/// `(allocations, bytes)` performed while `f` runs.
fn counted(f: impl FnOnce()) -> (usize, usize) {
    let (allocs, bytes) = snapshot();
    f();
    let (allocs_after, bytes_after) = snapshot();
    (allocs_after - allocs, bytes_after - bytes)
}

fn irregular(n: usize) -> CsrMatrix<f64> {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 8.0 + i as f64 * 0.01).unwrap();
        if i >= 1 {
            coo.push(i, i - 1, -1.0).unwrap();
        }
        if i >= 7 {
            coo.push(i, i - 7, -0.5).unwrap();
        }
        if i + 3 < n {
            coo.push(i, i + 3, -0.25).unwrap();
        }
    }
    coo.to_csr()
}

/// Same pattern, new values.
fn revalue(a: &CsrMatrix<f64>, seed: f64) -> CsrMatrix<f64> {
    javelin::synth::util::revalue(a, seed, 0.03)
}

#[test]
fn steady_state_refactor_allocates_zero_bytes() {
    // Threaded, with dropping enabled so the τ-threshold recomputation
    // path is exercised too; the persistent team is the default.
    let a = irregular(400);
    let mut opts = IluOptions::ilu0(3).with_fill(1).with_drop_tol(1e-4);
    opts.split.min_rows_per_level = 8;
    opts.split.location_frac = 0.0;
    let sym = SymbolicIlu::analyze(&a, &opts).expect("analysis");
    let mut factors = sym.factor(&a).expect("numeric phase");

    // Warm-up: the first refactor may lazily initialize process-global
    // state (parking-lot tables, thread parking) — after it, the path
    // must be exactly reusing preallocated buffers.
    let warm = revalue(&a, 0.37);
    factors.refactor(&warm).expect("warm-up refactor");
    factors
        .refactor(&revalue(&a, 0.71))
        .expect("second warm-up");

    for round in 0..5 {
        let a_t = revalue(&a, 1.1 + round as f64);
        // NOTE: `revalue` above allocates, so build the matrix first …
        let (allocs_mid, bytes_mid) = snapshot();
        // … and measure the refactor call alone.
        factors.refactor(&a_t).expect("steady-state refactor");
        let (allocs_after, bytes_after) = snapshot();
        assert_eq!(
            allocs_after - allocs_mid,
            0,
            "round {round}: steady-state refactor performed heap allocations"
        );
        assert_eq!(
            bytes_after - bytes_mid,
            0,
            "round {round}: steady-state refactor allocated bytes"
        );
        drop(a_t);
    }

    // And the refactored factors are still correct: bit-identical to a
    // fresh numeric factorization of the same values.
    let last = revalue(&a, 5.1);
    factors.refactor(&last).unwrap();
    let fresh = sym.factor(&last).unwrap();
    let rb: Vec<u64> = factors.lu().vals().iter().map(|v| v.to_bits()).collect();
    let fb: Vec<u64> = fresh.lu().vals().iter().map(|v| v.to_bits()).collect();
    assert_eq!(rb, fb);

    // ---- Phase 2: a FIRST GMRES panel solve through a reserved ----
    // workspace allocates zero bytes. `reserve` covers the PCG/BiCGSTAB panels
    // and the preconditioner scratch; `reserve_gmres_basis` opts into
    // the stacked Arnoldi basis — the one buffer `reserve` leaves lazy.
    let n = last.nrows();
    let k = 3usize;
    let opts_s = SolverOptions {
        restart: 20,
        ..Default::default()
    };
    let mut ws = SolverWorkspace::new();
    ws.reserve(n, opts_s.restart, k);
    ws.reserve_gmres_basis(n, opts_s.restart, k);
    factors.reserve_panel_width(k);
    let b: Vec<f64> = (0..n * k)
        .map(|i| ((i * 13 % 29) as f64) * 0.2 - 2.5)
        .collect();
    let mut x = vec![0.0; n * k];
    let mut results = vec![SolverResult::default(); k];
    let (allocs_mid, bytes_mid) = snapshot();
    krylov_panel_into(
        Method::BatchGmres,
        &last,
        Panel::new(&b, n, k),
        PanelMut::new(&mut x, n, k),
        &factors,
        &opts_s,
        &mut ws,
        &mut results,
    );
    let (allocs_after, bytes_after) = snapshot();
    assert_eq!(
        allocs_after - allocs_mid,
        0,
        "first reserved GMRES panel solve performed heap allocations"
    );
    assert_eq!(
        bytes_after - bytes_mid,
        0,
        "first reserved GMRES panel solve allocated bytes"
    );
    assert!(
        results.iter().all(|r| r.converged),
        "reserved GMRES panel must still converge: {results:?}"
    );

    // ---- Phase 2b: width-1 GMRES and FGMRES run the same driver, ----
    // and `reserve` alone (no `reserve_gmres_basis`) covers them: the
    // FIRST width-1 GMRES and the FIRST width-1 FGMRES solve through a
    // reserved workspace allocate
    // zero bytes. A `Method::Fgmres` panel widens the stacked `Z`
    // basis on first use and is allocation-free from its second solve.
    let mut ws1 = SolverWorkspace::new();
    ws1.reserve(n, opts_s.restart, 1);
    let mut x1 = vec![0.0; n];
    for method in [Method::Gmres, Method::Fgmres] {
        x1.fill(0.0);
        let mut converged = false;
        let cost = counted(|| {
            let b1 = &b[..n];
            converged =
                krylov_with(method, &last, b1, &mut x1, &factors, &opts_s, &mut ws1).converged;
        });
        assert_eq!(
            cost,
            (0, 0),
            "first reserved width-1 {method} solve allocated"
        );
        assert!(converged, "reserved width-1 {method} must still converge");
    }
    let mut fgmres_panel = |x: &mut [f64], results: &mut [SolverResult]| {
        x.fill(0.0);
        krylov_panel_into(
            Method::Fgmres,
            &last,
            Panel::new(&b, n, k),
            PanelMut::new(x, n, k),
            &factors,
            &opts_s,
            &mut ws,
            results,
        );
    };
    fgmres_panel(&mut x, &mut results);
    let cost = counted(|| fgmres_panel(&mut x, &mut results));
    assert_eq!(cost, (0, 0), "second FGMRES panel solve allocated");
    assert!(
        results.iter().all(|r| r.converged),
        "FGMRES panel must converge: {results:?}"
    );

    // ---- Phase 3: shift-and-retry recovery reuses the planned ----
    // numeric path, so a steady-state refactor of a singular-but-
    // shiftable matrix (first attempt breaks down, second succeeds
    // with a diagonal boost) still allocates zero bytes.
    //
    // Row 0's only structural entry is a zero diagonal, and no other
    // row or column touches index 0 — so whatever ordering the
    // symbolic phase picks, no update ever lands on that pivot and
    // the first numeric attempt must collapse exactly there.
    let n3 = 200usize;
    let mut coo = CooMatrix::new(n3, n3);
    coo.push(0, 0, 0.0).unwrap();
    for i in 1..n3 {
        coo.push(i, i, 8.0 + i as f64 * 0.01).unwrap();
        if i >= 2 {
            coo.push(i, i - 1, -1.0).unwrap();
        }
        if i >= 8 {
            coo.push(i, i - 7, -0.5).unwrap();
        }
        if i + 3 < n3 {
            coo.push(i, i + 3, -0.25).unwrap();
        }
    }
    let a_sing = coo.to_csr();

    // Under the strict policy the same matrix is a hard error …
    let opts_err = IluOptions::ilu0(3).with_zero_pivot(ZeroPivotPolicy::Error);
    let sym_err = SymbolicIlu::analyze(&a_sing, &opts_err).expect("analysis (Error policy)");
    assert!(
        matches!(sym_err.factor(&a_sing), Err(SparseError::ZeroPivot { .. })),
        "Error policy must reject the singular matrix"
    );

    // … and under ShiftRetry it factors on the second attempt.
    let opts_sr = IluOptions::ilu0(3).with_zero_pivot(ZeroPivotPolicy::shift_retry());
    let sym_sr = SymbolicIlu::analyze(&a_sing, &opts_sr).expect("analysis (ShiftRetry)");
    let mut f_sr = sym_sr.factor(&a_sing).expect("shift-retry factor");
    assert_eq!(
        f_sr.stats().shift_attempts,
        2,
        "one breakdown + one shifted success"
    );
    assert!(
        f_sr.stats().diag_shift > 0.0,
        "final shift must be recorded"
    );

    // Warm up, then measure: the whole retry loop (reload values,
    // re-run the planned sweep with an escalated shift) must be
    // allocation-free.
    f_sr.refactor(&a_sing).expect("warm-up shifted refactor");
    f_sr.refactor(&a_sing).expect("second warm-up");
    let (allocs_mid, bytes_mid) = snapshot();
    f_sr.refactor(&a_sing)
        .expect("steady-state shifted refactor");
    let (allocs_after, bytes_after) = snapshot();
    assert_eq!(
        allocs_after - allocs_mid,
        0,
        "shift-retry refactor performed heap allocations"
    );
    assert_eq!(
        bytes_after - bytes_mid,
        0,
        "shift-retry refactor allocated bytes"
    );
    assert_eq!(f_sr.stats().shift_attempts, 2, "refactor retried once too");
    assert!(f_sr.stats().diag_shift > 0.0);
    assert!(
        f_sr.lu().vals().iter().all(|v| v.is_finite()),
        "shifted factors must be finite"
    );

    // ---- Phase 4: steady-state coalesced service dispatch is ----
    // allocation-free. A warmed `Engine::process` batch of eight
    // pattern-, value- and method-identical requests (a full width-8
    // fused panel: fingerprint memo hit, cache hit, no refactor, one
    // lockstep solve, scatter) must not touch the heap — request/reply
    // buffers are recycled across rounds exactly as a streaming client
    // would.
    let a4 = std::sync::Arc::new(irregular(300));
    let n4 = a4.nrows();
    let k4 = 8usize;
    let mut engine = javelin::service::Engine::new(javelin::service::EngineConfig::default());
    let mut requests: Vec<javelin::service::SolveRequest<f64>> = (0..k4)
        .map(|c| javelin::service::SolveRequest {
            a: std::sync::Arc::clone(&a4),
            b: (0..n4)
                .map(|i| ((i * 7 + c) % 23) as f64 * 0.1 - 1.0)
                .collect(),
            x: vec![0.0; n4],
            method: javelin::solver::Method::BatchGmres,
        })
        .collect();
    let mut replies: Vec<
        Result<javelin::service::SolveReply<f64>, javelin::service::ServiceError>,
    > = Vec::with_capacity(k4);
    // Two warm-up batches grow every engine-side buffer to its
    // steady-state footprint; requests are rebuilt from the replies'
    // recycled buffers between rounds (Arc::clone + Vec reuse only).
    for _warm in 0..2 {
        engine.process(&mut requests, &mut replies);
        for reply in replies.drain(..) {
            let reply = reply.expect("warm-up dispatch");
            assert!(reply.result.converged);
            requests.push(javelin::service::SolveRequest {
                a: std::sync::Arc::clone(&a4),
                b: reply.b,
                x: reply.x,
                method: javelin::solver::Method::BatchGmres,
            });
        }
    }
    let (allocs_mid, bytes_mid) = snapshot();
    engine.process(&mut requests, &mut replies);
    for reply in replies.drain(..) {
        let reply = reply.expect("steady-state dispatch");
        assert!(reply.result.converged);
        assert_eq!(reply.panel_width, k4);
        assert!(reply.symbolic_reused);
        requests.push(javelin::service::SolveRequest {
            a: std::sync::Arc::clone(&a4),
            b: reply.b,
            x: reply.x,
            method: javelin::solver::Method::BatchGmres,
        });
    }
    let (allocs_after, bytes_after) = snapshot();
    assert_eq!(
        allocs_after - allocs_mid,
        0,
        "steady-state coalesced service dispatch performed heap allocations"
    );
    assert_eq!(
        bytes_after - bytes_mid,
        0,
        "steady-state coalesced service dispatch allocated bytes"
    );
    let cs = engine.cache_stats();
    assert_eq!(cs.misses, 1, "one symbolic analysis across all rounds");
    assert_eq!(cs.refactors, 0, "identical values: no numeric refactor");

    // ---- Phase 5: steady-state `refactor_batch` is zero-alloc and ----
    // zero-spawn on the persistent team. The batch walks the schedule
    // once for k = 4 interleaved value sets; after the warm-up (which
    // grows nothing either — every buffer was sized by `factor_batch`),
    // each step must reuse the interleaved value buffer, the analysis's
    // update list and the planned team regions verbatim.
    let a5 = irregular(300);
    let mut opts5 = IluOptions::ilu0(3).with_drop_tol(1e-4);
    opts5.split.min_rows_per_level = 8;
    opts5.split.location_frac = 0.0;
    let sym5 = SymbolicIlu::analyze(&a5, &opts5).expect("analysis (batch)");
    let k5 = 4usize;
    let corners: Vec<CsrMatrix<f64>> = (0..k5)
        .map(|c| revalue(&a5, 0.3 + c as f64 * 0.77))
        .collect();
    let mats: Vec<&CsrMatrix<f64>> = corners.iter().collect();
    let mut batch = sym5.factor_batch(&mats).expect("batch factor");
    assert!(batch.all_ok());
    // Warm-up rounds (parking-lot/thread-parking lazy init, as above).
    batch.refactor_batch(&mats).expect("warm-up refactor_batch");
    batch.refactor_batch(&mats).expect("second warm-up");
    for round in 0..5 {
        let corners_t: Vec<CsrMatrix<f64>> = (0..k5)
            .map(|c| revalue(&a5, 2.2 + round as f64 + c as f64 * 0.77))
            .collect();
        let mats_t: Vec<&CsrMatrix<f64>> = corners_t.iter().collect();
        // The corner assembly above allocates; measure the batched
        // refactor call alone.
        let (allocs_mid, bytes_mid) = snapshot();
        batch
            .refactor_batch(&mats_t)
            .expect("steady-state refactor_batch");
        let (allocs_after, bytes_after) = snapshot();
        assert_eq!(
            allocs_after - allocs_mid,
            0,
            "round {round}: steady-state refactor_batch performed heap allocations"
        );
        assert_eq!(
            bytes_after - bytes_mid,
            0,
            "round {round}: steady-state refactor_batch allocated bytes"
        );
        assert!(batch.all_ok(), "round {round}");
    }
    // And the batched columns are still exactly the scalar refactors.
    let mut scalar = sym5.factor(&a5).expect("scalar reference");
    let last_corners: Vec<CsrMatrix<f64>> = (0..k5)
        .map(|c| revalue(&a5, 9.9 + c as f64 * 0.77))
        .collect();
    let last_mats: Vec<&CsrMatrix<f64>> = last_corners.iter().collect();
    batch.refactor_batch(&last_mats).unwrap();
    for (c, m) in last_mats.iter().enumerate() {
        scalar.refactor(m).unwrap();
        let bb: Vec<u64> = batch
            .to_factors(c)
            .lu()
            .vals()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let sb: Vec<u64> = scalar.lu().vals().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bb, sb, "batched column {c} vs scalar refactor");
    }
    // The batch is stored once: building it at k = 8 allocates the
    // numeric work buffer and the committed buffer applies read
    // (8 B × nnz_lu × k each), the τ thresholds and per-lane
    // bookkeeping — no per-scenario CSR (which cost a third value copy
    // plus k row-pointer and column-index arrays).
    let k8 = 8usize;
    let mats8: Vec<&CsrMatrix<f64>> = (0..k8).map(|c| mats[c % k5]).collect();
    let (n5, nnz_lu) = (a5.nrows(), sym5.nnz());
    let (_, bytes8) = counted(|| drop(sym5.factor_batch(&mats8).expect("k = 8 batch")));
    let per_lane = 3 * size_of::<AtomicUsize>()
        + size_of::<usize>()
        + size_of::<f64>()
        + size_of::<FactorStats>()
        + size_of::<Result<(), SparseError>>();
    assert_eq!(
        bytes8,
        16 * nnz_lu * k8 + 8 * n5 * k8 + per_lane * k8,
        "factor_batch(k = 8) bytes: two interleaved value buffers + τ + bookkeeping"
    );
    assert!(
        bytes8 < 20 * nnz_lu * k8,
        "a third copy of the values is back"
    );
    // The scalar factor is that storage at k = 1: `factor` allocates
    // exactly what `factor_batch(&[a])` does — phase 5's formula at
    // k = 1, with no private copy of the LU pattern and no work buffer
    // borrowed from the analysis.
    let cost_scalar = counted(|| drop(sym5.factor(&a5).expect("scalar factor")));
    let cost_one = counted(|| drop(sym5.factor_batch(&[&a5]).expect("k = 1 batch")));
    assert_eq!(cost_scalar, cost_one, "factor vs factor_batch(&[a])");
    assert_eq!(
        cost_one.1,
        16 * nnz_lu + 8 * n5 + per_lane,
        "factor_batch(k = 1) bytes: two value buffers + τ + bookkeeping"
    );

    // ---- Phase 6: exclusive-slice kernels on a PINNED team. ----
    // `pin_threads` changes placement only (core binding + first-touch
    // zero-fill at analyze time); steady-state refactors and repeated
    // solves through the row-view (`LuVals::view_mut`) eliminate/retire
    // paths must stay allocation-free on the pinned team too.
    let a6 = irregular(300);
    let mut opts6 = IluOptions::ilu0(3);
    opts6.pin_threads = true;
    opts6.split.min_rows_per_level = 8;
    opts6.split.location_frac = 0.0;
    let sym6 = SymbolicIlu::analyze(&a6, &opts6).expect("analysis (pinned)");
    let mut f6 = sym6.factor(&a6).expect("pinned factor");
    let n6 = a6.nrows();
    let engine6 = f6.default_engine();
    let b6: Vec<f64> = (0..n6).map(|i| (i as f64 * 0.17).cos() + 2.0).collect();
    let mut x6 = vec![0.0; n6];
    let mut perm6: Vec<f64> = Vec::new();
    f6.refactor(&revalue(&a6, 0.4)).expect("warm-up refactor");
    f6.solve_with_buffer(engine6, &mut perm6, &b6, &mut x6)
        .expect("warm-up solve");
    f6.refactor(&revalue(&a6, 0.9)).expect("second warm-up");
    f6.solve_with_buffer(engine6, &mut perm6, &b6, &mut x6)
        .expect("second warm-up solve");
    let a6_t = revalue(&a6, 3.3);
    let (allocs_mid, bytes_mid) = snapshot();
    f6.refactor(&a6_t).expect("steady-state pinned refactor");
    f6.solve_with_buffer(engine6, &mut perm6, &b6, &mut x6)
        .expect("steady-state pinned solve");
    let (allocs_after, bytes_after) = snapshot();
    assert_eq!(
        allocs_after - allocs_mid,
        0,
        "pinned refactor+solve performed heap allocations"
    );
    assert_eq!(
        bytes_after - bytes_mid,
        0,
        "pinned refactor+solve allocated bytes"
    );

    // ---- Phase 7: the two-stage sweep with a real lower stage. ----
    // A grid with heavy border rows on a 2-thread team, τ on: the point-to-point upper stage, Even-Rows and the serial
    // corner run on the team without touching the heap, and every
    // numeric entry point carries the bits of the 1-thread factor.
    let a7 = javelin::synth::util::bordered(&javelin::synth::grid::laplace_2d(14, 14), 6);
    let opts7 = IluOptions::ilu0(2).with_drop_tol(1e-4);
    let mut opts7_serial = opts7.clone();
    opts7_serial.nthreads = 1;
    let sym7 = SymbolicIlu::analyze(&a7, &opts7).expect("analysis (2 threads)");
    let sym7_serial = SymbolicIlu::analyze(&a7, &opts7_serial).expect("analysis (serial)");
    assert!(
        sym7.stats().n_lower_rows >= 6,
        "border rows must be demoted"
    );
    let mut f7 = sym7.factor(&a7).expect("2-thread factor");
    let mut f7_serial = sym7_serial.factor(&a7).expect("serial factor");
    f7.refactor(&revalue(&a7, 0.37)).expect("warm-up refactor");
    f7.refactor_with_shift(&revalue(&a7, 0.71), 1e-4)
        .expect("warm-up shifted refactor");
    let a7_t = revalue(&a7, 1.9);
    let cost = counted(|| f7.refactor(&a7_t).expect("steady-state refactor"));
    assert_eq!(cost, (0, 0), "2-thread lower-stage refactor allocated");
    f7_serial.refactor(&a7_t).unwrap();
    let bits = |f: &javelin::core::IluFactors<f64>| -> Vec<u64> {
        f.lu().vals().iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(bits(&f7), bits(&f7_serial), "2-thread vs serial refactor");
    let cost = counted(|| {
        f7.refactor_with_shift(&a7_t, 1e-4)
            .expect("steady-state shifted refactor")
    });
    assert_eq!(
        cost,
        (0, 0),
        "2-thread lower-stage shifted refactor allocated"
    );
    f7_serial.refactor_with_shift(&a7_t, 1e-4).unwrap();
    assert_eq!(bits(&f7), bits(&f7_serial), "shifted 2-thread vs serial");
    let k7 = 4usize;
    let corners7 = |seed: f64| -> Vec<CsrMatrix<f64>> {
        (0..k7)
            .map(|c| revalue(&a7, seed + c as f64 * 0.77))
            .collect()
    };
    let warm7 = corners7(0.3);
    let warm7: Vec<&CsrMatrix<f64>> = warm7.iter().collect();
    let mut batch7 = sym7.factor_batch(&warm7).expect("batch factor");
    batch7
        .refactor_batch(&warm7)
        .expect("warm-up refactor_batch");
    let step7 = corners7(2.2);
    let step7: Vec<&CsrMatrix<f64>> = step7.iter().collect();
    let cost = counted(|| {
        batch7
            .refactor_batch(&step7)
            .expect("steady-state refactor_batch")
    });
    assert_eq!(
        cost,
        (0, 0),
        "2-thread lower-stage refactor_batch allocated"
    );
    assert!(batch7.all_ok());
    for (c, m) in step7.iter().enumerate() {
        f7_serial.refactor(m).unwrap();
        assert_eq!(
            bits(&batch7.to_factors(c)),
            bits(&f7_serial),
            "batch column {c}"
        );
    }

    // ---- Phase 8: the apply pipeline across widths. One ----
    // `ApplyScratch`, one warm-up at the widest panel, then widths
    // 8 → 1 → 5 → 8 (fixed lanes, the scalar path, `DynLanes`): the
    // Serial engine's caller buffer and the threaded engines' internal
    // scratch are both grow-only, so narrowing and re-widening touch
    // the heap on no thread.
    let n8 = a6.nrows();
    let r8 = javelin::synth::util::rhs_panel(n8, 8, 3);
    let mut z8 = vec![0.0; n8 * 8];
    for engine in [SolveEngine::Serial, SolveEngine::PointToPointLower] {
        let m = f6.with_engine(engine);
        let mut scratch = ApplyScratch::new();
        let mut apply = |k: usize| {
            let (r, z) = (&r8[..n8 * k], &mut z8[..n8 * k]);
            m.apply_panel_with(&mut scratch, Panel::new(r, n8, k), PanelMut::new(z, n8, k));
        };
        apply(8);
        let cost = counted(|| [8, 1, 5, 8].into_iter().for_each(&mut apply));
        assert_eq!(cost, (0, 0), "{engine}: applies at widths 8, 1, 5, 8");
    }
    // And `panel_width(8)` keeps its promise on the Serial engine: the
    // first panel apply allocates nothing, the first panel Krylov solve
    // only the result vector it returns.
    let mut session = javelin::Session::builder()
        .engine(SolveEngine::Serial)
        .panel_width(8)
        .build(&a6)
        .expect("session");
    let cost = counted(|| {
        session
            .solve_panel(Panel::new(&r8, n8, 8), PanelMut::new(&mut z8, n8, 8))
            .expect("first solve_panel")
    });
    assert_eq!(cost, (0, 0), "first Serial solve_panel at the built width");
    z8.fill(0.0);
    let mut results = Vec::new();
    let cost = counted(|| {
        results = session
            .krylov_panel(
                Method::BatchBicgstab,
                Panel::new(&r8, n8, 8),
                PanelMut::new(&mut z8, n8, 8),
            )
            .expect("first krylov_panel");
    });
    let returned = 8 * std::mem::size_of::<SolverResult>();
    assert_eq!(cost, (1, returned), "first Serial krylov_panel at width 8");
    assert!(results.iter().all(|r| r.converged), "{results:?}");

    // ---- Phase 9: the spmv plan across widths. Its row blocks ----
    // are built in `new`, and no execute has a buffer to grow: after
    // one scalar execute wakes the fresh team (each worker's first
    // region sets up its thread-locals), widths 8 → 1 → 3 → 8 touch
    // the heap on no thread.
    let mut plan = SpmvPlan::new(&a6, 2, 64);
    plan.execute(&a6, &r8[..n8], &mut z8[..n8]);
    let mut spmv = |k: usize| {
        let (x, y) = (&r8[..n8 * k], &mut z8[..n8 * k]);
        plan.execute_panel(&a6, Panel::new(x, n8, k), PanelMut::new(y, n8, k));
    };
    let cost = counted(|| [8, 1, 3, 8].into_iter().for_each(&mut spmv));
    assert_eq!(cost, (0, 0), "spmv plan: executes at widths 8, 1, 3, 8");
}
