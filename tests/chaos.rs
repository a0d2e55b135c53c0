//! Chaos suite: drives the graceful-degradation layer through injected
//! faults — zero/NaN pivots in the numeric kernel, NaN payloads in the
//! Matrix Market reader, and panics inside parallel trisolve regions —
//! and asserts that every failure is *contained*: a structured error or
//! a caught panic, a repairable worker team, and bit-identical results
//! afterwards.
//!
//! Runs only with the `fault-injection` feature:
//!
//! ```text
//! cargo test --features fault-injection --test chaos
//! ```
//!
//! The failpoint registry is process-global and one-shot, so every
//! scenario serializes on [`CHAOS`] and clears the registry on both
//! sides.
#![cfg(feature = "fault-injection")]

use javelin::core::options::SolveEngine;
use javelin::core::{
    factorize, ApplyScratch, IluOptions, Preconditioner, SymbolicIlu, ZeroPivotPolicy,
};
use javelin::sparse::fault::{self, FaultAction};
use javelin::sparse::io::read_matrix_market_from;
use javelin::sparse::{CooMatrix, CsrMatrix, Panel, PanelMut, SparseError};
use javelin::sync::WorkerTeam;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};

/// Serializes scenarios around the process-global failpoint registry.
static CHAOS: Mutex<()> = Mutex::new(());

fn scenario() -> MutexGuard<'static, ()> {
    // A previous test's caught panic may have poisoned the mutex; the
    // guard data is `()`, so the poison carries no meaning.
    let guard = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    guard
}

/// Diagonally dominant convection-like fixture: healthy under every
/// policy, so any breakdown observed below is the injected one.
fn healthy(n: usize) -> CsrMatrix<f64> {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 6.0 + (i % 3) as f64).unwrap();
        if i > 0 {
            coo.push(i, i - 1, -1.25).unwrap();
        }
        if i + 4 < n {
            coo.push(i, i + 4, -0.75).unwrap();
        }
        if i >= 9 {
            coo.push(i, i - 9, -0.5).unwrap();
        }
    }
    coo.to_csr()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn injected_zero_pivot_errors_strictly_and_shift_retry_recovers() {
    let _g = scenario();
    let a = healthy(64);

    // Strict policy: the injected zero pivot is a structured error.
    fault::arm("numeric.pivot", FaultAction::Zero, 10);
    let strict = IluOptions::ilu0(2).with_zero_pivot(ZeroPivotPolicy::Error);
    assert!(
        matches!(factorize(&a, &strict), Err(SparseError::ZeroPivot { .. })),
        "injected zero pivot must surface under the strict policy"
    );
    assert!(!fault::is_armed("numeric.pivot"), "failpoint is one-shot");

    // ShiftRetry: attempt 1 eats the injected fault, attempt 2 runs on
    // the (healthy) matrix with a diagonal boost and succeeds.
    fault::arm("numeric.pivot", FaultAction::Zero, 10);
    let retry = IluOptions::ilu0(2).with_zero_pivot(ZeroPivotPolicy::shift_retry());
    let f = factorize(&a, &retry).expect("shift-retry must absorb the fault");
    assert_eq!(f.stats().shift_attempts, 2);
    assert!(f.stats().diag_shift > 0.0);
    let n = a.nrows();
    let b = vec![1.0; n];
    let mut x = vec![0.0; n];
    f.apply(&b, &mut x);
    assert!(x.iter().all(|v| v.is_finite()));
    fault::clear();
}

#[test]
fn injected_nan_pivot_is_a_breakdown_not_a_poison() {
    let _g = scenario();
    let a = healthy(48);

    // NaN compares false against any threshold — the kernel must catch
    // it through the explicit finiteness check.
    fault::arm("numeric.pivot", FaultAction::Nan, 5);
    let strict = IluOptions::ilu0(2).with_zero_pivot(ZeroPivotPolicy::Error);
    assert!(
        matches!(factorize(&a, &strict), Err(SparseError::ZeroPivot { .. })),
        "NaN pivot must be detected, not propagated"
    );

    // Replace: the NaN pivot is substituted and the factors stay finite.
    fault::arm("numeric.pivot", FaultAction::Nan, 5);
    let f = factorize(&a, &IluOptions::ilu0(2)).expect("Replace must absorb a NaN pivot");
    assert!(f.lu().vals().iter().all(|v| v.is_finite()));
    fault::clear();
}

#[test]
fn injected_nan_value_in_matrix_market_is_rejected_at_the_boundary() {
    let _g = scenario();
    let text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 4.0\n2 2 3.0\n";
    fault::arm("io.value", FaultAction::Nan, 1);
    let e = read_matrix_market_from::<f64, _>(text.as_bytes()).unwrap_err();
    assert_eq!(e, SparseError::NonFinite { row: 1, col: 1 });
    fault::clear();
}

#[test]
fn panicked_region_poisons_the_team_and_repair_restores_bit_identity() {
    let _g = scenario();
    let a = healthy(120);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();

    let team = Arc::new(WorkerTeam::new(2));
    let opts = IluOptions::ilu0(2).with_shared_team(Arc::clone(&team));
    let sym = SymbolicIlu::analyze(&a, &opts).unwrap();
    let f = sym.factor(&a).unwrap();

    // Healthy reference through the parallel engine.
    let mut x_ref = vec![0.0; n];
    f.with_engine(SolveEngine::PointToPointLower)
        .apply(&b, &mut x_ref);

    // Inject a panic into the next parallel trisolve region.
    let gen_before = team.generation();
    fault::arm("trisolve.region", FaultAction::Panic, 0);
    let mut x_bad = vec![0.0; n];
    let caught = catch_unwind(AssertUnwindSafe(|| {
        let (bp, xp) = (Panel::from_col(&b), PanelMut::from_col(&mut x_bad));
        let engine = SolveEngine::PointToPointLower;
        let _ = f.solve_panel_with_buffer(engine, &mut ApplyScratch::new(), bp, xp);
    }));
    assert!(caught.is_err(), "the injected panic must propagate");
    assert!(team.is_poisoned(), "an unwound region must poison the team");
    assert!(team.generation() > gen_before, "generation must advance");

    // Explicit repair clears the poison …
    assert!(team.repair());
    assert!(!team.is_poisoned());

    // … and the SAME team then factors and solves bit-identically to a
    // brand-new team.
    let mut f_same = f;
    f_same.refactor(&a).expect("refactor on the repaired team");
    let mut x_same = vec![0.0; n];
    f_same
        .with_engine(SolveEngine::PointToPointLower)
        .apply(&b, &mut x_same);

    let fresh_opts = IluOptions::ilu0(2).with_shared_team(Arc::new(WorkerTeam::new(2)));
    let f_fresh = factorize(&a, &fresh_opts).unwrap();
    let mut x_fresh = vec![0.0; n];
    f_fresh
        .with_engine(SolveEngine::PointToPointLower)
        .apply(&b, &mut x_fresh);

    assert_eq!(
        bits(f_same.lu().vals()),
        bits(f_fresh.lu().vals()),
        "post-repair factors must match a fresh team bit-for-bit"
    );
    assert_eq!(bits(&x_same), bits(&x_ref), "post-repair solve vs healthy");
    assert_eq!(
        bits(&x_same),
        bits(&x_fresh),
        "post-repair solve vs fresh team"
    );
    fault::clear();
}

/// The numeric twin of `region_panics_are_contained_for_every_engine`:
/// the first `factor` runs its upper stage as a region on the shared
/// team, so a panic inside the row kernel must unwind out of `factor`,
/// poison the team, and leave the analysis handle fully reusable.
#[test]
fn numeric_panic_in_the_first_factor_is_contained_and_the_team_recovers() {
    let _g = scenario();
    let a = healthy(120);

    let team = Arc::new(WorkerTeam::new(2));
    let opts = IluOptions::ilu0(2).with_shared_team(Arc::clone(&team));
    let sym = SymbolicIlu::analyze(&a, &opts).unwrap();

    // The fourth row finalized — well inside the point-to-point stage.
    fault::arm("numeric.pivot", FaultAction::Panic, 3);
    let caught = catch_unwind(AssertUnwindSafe(|| {
        let _ = sym.factor(&a);
    }));
    assert!(caught.is_err(), "the injected panic must propagate");
    assert!(!fault::is_armed("numeric.pivot"), "failpoint is one-shot");
    assert!(
        team.is_poisoned(),
        "factor must have unwound out of a region on the shared team"
    );

    // `run` auto-repairs at its next entry — no explicit repair — and
    // the same handle on the same team then factors and refactors
    // bit-identically to a brand-new team.
    let mut f_same = sym.factor(&a).expect("factor on the auto-repaired team");
    assert!(!team.is_poisoned());
    let fresh_opts = IluOptions::ilu0(2).with_shared_team(Arc::new(WorkerTeam::new(2)));
    let f_fresh = factorize(&a, &fresh_opts).unwrap();
    assert_eq!(
        bits(f_same.lu().vals()),
        bits(f_fresh.lu().vals()),
        "post-panic factor must match a fresh team bit-for-bit"
    );
    f_same.refactor(&a).expect("refactor on the repaired team");
    assert_eq!(
        bits(f_same.lu().vals()),
        bits(f_fresh.lu().vals()),
        "post-panic refactor must match a fresh team bit-for-bit"
    );
    fault::clear();
}

/// The `refactor` twin of the test above, past the upper stage: on a
/// 2-thread analysis with a lower stage, a refactorization runs the
/// point-to-point upper stage and Even-Rows as regions on the shared
/// team and then the corner serially on the caller, so a panic at a
/// corner row's pivot must unwind out of `refactor` with the team
/// already joined (not poisoned) and leave factors and plans fully
/// reusable.
#[test]
fn numeric_panic_in_a_refactors_corner_is_contained_and_factors_stay_reusable() {
    let _g = scenario();
    let a = javelin::synth::util::bordered(&javelin::synth::grid::laplace_2d(10, 10), 6);
    let opts = |team: Arc<WorkerTeam>| IluOptions::ilu0(2).with_shared_team(team);
    let team = Arc::new(WorkerTeam::new(2));
    let sym = SymbolicIlu::analyze(&a, &opts(Arc::clone(&team))).unwrap();
    let n_upper = a.nrows() - sym.stats().n_lower_rows;
    assert!(sym.stats().n_lower_rows >= 6, "border rows must be demoted");
    let mut f = sym.factor(&a).unwrap();
    let f_fresh = factorize(&a, &opts(Arc::new(WorkerTeam::new(2)))).unwrap();

    // The upper stage finalizes exactly `n_upper` rows and Even-Rows
    // none, so pivot hit `n_upper + 1` is a row of the corner.
    let site = "numeric.pivot";
    fault::arm(site, FaultAction::Panic, n_upper + 1);
    let caught = catch_unwind(AssertUnwindSafe(|| {
        let _ = f.refactor(&a);
    }));
    assert!(caught.is_err(), "the injected panic must propagate");
    assert!(!fault::is_armed(site), "failpoint is one-shot");
    assert!(
        !team.is_poisoned(),
        "the corner runs after the team's regions have joined"
    );

    // The same factors on the same team then refactor bit-identically
    // to a brand-new team.
    f.refactor(&a).expect("refactor after the contained panic");
    assert_eq!(
        bits(f.lu().vals()),
        bits(f_fresh.lu().vals()),
        "post-panic refactor must match a fresh team bit-for-bit"
    );
    fault::clear();
}

#[test]
fn service_contains_pivot_breakdown_to_one_tenant_and_keeps_serving() {
    use javelin::service::{EngineConfig, ServiceConfig, ServiceError, SolveRequest, SolveService};
    use javelin::solver::Method;

    let _g = scenario();

    // Strict pivot policy so the injected fault surfaces as a
    // structured solve error rather than being absorbed.
    let mut engine = EngineConfig::default();
    engine.ilu = IluOptions::ilu0(2).with_zero_pivot(ZeroPivotPolicy::Error);
    let service = SolveService::start(ServiceConfig {
        engine,
        ..Default::default()
    });
    let client = service.client();

    let a_good = Arc::new(healthy(64));
    let n = a_good.nrows();
    let solve_good = |tag: u64| {
        client.solve(SolveRequest {
            a: Arc::clone(&a_good),
            b: (0..n)
                .map(|i| 1.0 + ((i as u64 + tag) % 5) as f64)
                .collect(),
            x: vec![0.0; n],
            method: Method::BatchGmres,
        })
    };

    // Tenant A is healthy and gets cached.
    let reply = solve_good(0).expect("healthy tenant");
    assert!(reply.result.converged);

    // Tenant B shows up with a NEW pattern while the pivot failpoint is
    // armed: its first-seen factorization breaks down mid-request. The
    // error must come back typed, to B alone.
    let a_bad = Arc::new(healthy(96));
    fault::arm("numeric.pivot", FaultAction::Zero, 10);
    let err = client
        .solve(SolveRequest {
            a: Arc::clone(&a_bad),
            b: vec![1.0; a_bad.nrows()],
            x: vec![0.0; a_bad.nrows()],
            method: Method::BatchGmres,
        })
        .unwrap_err();
    assert!(
        matches!(err, ServiceError::Solve(SparseError::ZeroPivot { .. })),
        "injected breakdown must surface as a structured solve error, got {err}"
    );

    // The dispatcher survived: tenant A's cached pattern still serves
    // (zero new symbolic work), and B's pattern — fault now spent —
    // factors cleanly on retry.
    let reply = solve_good(1).expect("service must keep serving tenant A");
    assert!(reply.result.converged);
    assert!(reply.symbolic_reused, "A's pattern must still be cached");
    let reply = client
        .solve(SolveRequest {
            a: Arc::clone(&a_bad),
            b: vec![1.0; a_bad.nrows()],
            x: vec![0.0; a_bad.nrows()],
            method: Method::BatchGmres,
        })
        .expect("B recovers once the fault is spent");
    assert!(reply.result.converged);

    let snap = service.snapshot();
    assert_eq!(snap.requests, 4);
    assert_eq!(
        service
            .stats()
            .completed
            .load(std::sync::atomic::Ordering::SeqCst),
        4,
        "every request got a definite reply"
    );
    service.shutdown();
    fault::clear();
}

#[test]
fn injected_batch_pivot_fault_is_contained_to_one_scenario_column() {
    use javelin::synth::util::revalue;

    let _g = scenario();
    let a = healthy(64);
    let k = 4usize;
    let corners: Vec<CsrMatrix<f64>> = (0..k)
        .map(|c| revalue(&a, 0.3 + c as f64 * 0.77, 0.05))
        .collect();
    let mats: Vec<&CsrMatrix<f64>> = corners.iter().collect();

    // The serial batch engine finalizes row-major, lane-minor, firing
    // the `numeric.pivot` failpoint once per (row, lane) — so a skip of
    // `row·k + lane` lands the fault in exactly one scenario column.
    let (target_row, target_lane) = (10usize, 2usize);
    let skip = target_row * k + target_lane;

    // Uninjected reference batch.
    let strict = IluOptions::ilu0(1).with_zero_pivot(ZeroPivotPolicy::Error);
    let sym = SymbolicIlu::analyze(&a, &strict).unwrap();
    let clean = sym.factor_batch(&mats).unwrap();
    assert!(clean.all_ok());

    // Strict policy: scenario `target_lane` gets a typed per-scenario
    // ZeroPivot at the injected row; every other column's factors are
    // bit-identical to the uninjected run.
    fault::arm("numeric.pivot", FaultAction::Zero, skip);
    let injected = sym.factor_batch(&mats).unwrap();
    assert!(!injected.all_ok());
    assert!(
        matches!(
            injected.statuses()[target_lane],
            Err(SparseError::ZeroPivot { row }) if row == target_row
        ),
        "expected a typed ZeroPivot at row {target_row} in scenario {target_lane}, got {:?}",
        injected.statuses()[target_lane]
    );
    for c in (0..k).filter(|&c| c != target_lane) {
        assert!(injected.statuses()[c].is_ok(), "scenario {c} must survive");
        assert_eq!(
            bits(injected.to_factors(c).lu().vals()),
            bits(clean.to_factors(c).lu().vals()),
            "scenario {c} must be bit-identical to the uninjected batch"
        );
    }

    // ShiftRetry: the injected scenario absorbs the fault through a
    // shifted numeric re-run (the fault is one-shot, the re-sweep is
    // clean) while its neighbours — re-swept by the same retry loop —
    // reproduce their uninjected bits exactly.
    let retry = IluOptions::ilu0(1).with_zero_pivot(ZeroPivotPolicy::shift_retry());
    let sym_r = SymbolicIlu::analyze(&a, &retry).unwrap();
    let clean_r = sym_r.factor_batch(&mats).unwrap();
    assert!(clean_r.all_ok());
    fault::arm("numeric.pivot", FaultAction::Zero, skip);
    let healed = sym_r.factor_batch(&mats).unwrap();
    assert!(
        healed.all_ok(),
        "shift-retry must absorb the injected fault"
    );
    assert_eq!(
        healed.stats(target_lane).shift_attempts,
        2,
        "the injected scenario must record its shifted retry"
    );
    assert!(healed.stats(target_lane).diag_shift > 0.0);
    for c in (0..k).filter(|&c| c != target_lane) {
        assert_eq!(
            healed.stats(c).shift_attempts,
            1,
            "scenario {c} must not be shifted"
        );
        assert_eq!(
            bits(healed.to_factors(c).lu().vals()),
            bits(clean_r.to_factors(c).lu().vals()),
            "scenario {c} must be bit-identical despite its neighbour's retry"
        );
    }
    fault::clear();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sweep: an injected pivot fault at an arbitrary row is either a
    /// structured error (strict) or fully absorbed (ShiftRetry), for
    /// any thread count.
    #[test]
    fn pivot_faults_never_escape(
        nthreads in 1usize..4,
        skip in 0usize..40,
        nan in proptest::bool::ANY,
    ) {
        let _g = scenario();
        let a = healthy(40);
        let action = if nan { FaultAction::Nan } else { FaultAction::Zero };

        fault::arm("numeric.pivot", action, skip);
        let strict = IluOptions::ilu0(nthreads).with_zero_pivot(ZeroPivotPolicy::Error);
        prop_assert!(matches!(
            factorize(&a, &strict),
            Err(SparseError::ZeroPivot { .. })
        ));

        fault::arm("numeric.pivot", action, skip);
        let retry = IluOptions::ilu0(nthreads).with_zero_pivot(ZeroPivotPolicy::shift_retry());
        let f = factorize(&a, &retry).expect("shift-retry recovery");
        prop_assert_eq!(f.stats().shift_attempts, 2);
        prop_assert!(f.lu().vals().iter().all(|v| v.is_finite()));
        fault::clear();
    }

    /// Sweep: a panic in the threaded engine's region is contained, the
    /// team repairs, and the next solve on the same factors matches the
    /// healthy run bit-for-bit — with and without a lower stage.
    #[test]
    fn region_panics_are_contained_and_auto_repaired(
        nthreads in 2usize..4,
        with_lower in proptest::bool::ANY,
    ) {
        let _g = scenario();
        let engine = SolveEngine::PointToPointLower;
        let a = healthy(80);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| 0.5 + (i % 7) as f64).collect();

        let team = Arc::new(WorkerTeam::new(nthreads));
        let mut opts = IluOptions::level_scheduling_only(nthreads);
        if with_lower {
            opts = IluOptions::ilu0(nthreads);
            opts.split.min_rows_per_level = 8;
        }
        let f = factorize(&a, &opts.with_shared_team(Arc::clone(&team))).unwrap();
        prop_assert_eq!(f.stats().n_lower_rows > 0, with_lower);
        let mut x_ref = vec![0.0; n];
        f.with_engine(engine).apply(&b, &mut x_ref);

        fault::arm("trisolve.region", FaultAction::Panic, 0);
        let mut x_bad = vec![0.0; n];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let (bp, xp) = (Panel::from_col(&b), PanelMut::from_col(&mut x_bad));
            let _ = f.solve_panel_with_buffer(engine, &mut ApplyScratch::new(), bp, xp);
        }));
        prop_assert!(caught.is_err());
        prop_assert!(team.is_poisoned());

        // `run` auto-repairs at its next entry — no explicit repair.
        let mut x_again = vec![0.0; n];
        f.with_engine(engine).apply(&b, &mut x_again);
        prop_assert!(!team.is_poisoned());
        prop_assert_eq!(bits(&x_again), bits(&x_ref));
        fault::clear();
    }
}
