//! Per-layer measurements of a traced run: each layer is timed from
//! outside, through its public functions, on the workload's own matrix
//! and thread count. Bytes-moved figures are *computed* from array
//! sizes (they ignore cache misses) and are set against a triad
//! measured in the same run.

use crate::harness::{bits_equal, timed, Check, Outcome};
use crate::host;
use crate::json::Json;
use crate::metrics::Values;
use crate::stats::median;
use crate::trace::{per_request, self_times_ns, Span, Tracer, PRECOND_APPLY, PRECOND_APPLY_PANEL};
use javelin::core::trisolve::serial;
use javelin::core::{ApplyScratch, IluFactors, IluOptions, Preconditioner, SolveEngine, SpmvPlan};
use javelin::level::{split_levels, LevelSets, P2PSchedule};
use javelin::machine::{sim_trisolve_time, MachineModel};
use javelin::prelude::*;
use javelin::service::wire;
use javelin::solver::krylov_with;
use javelin::sparse::pattern::{level_pattern_of, SparsityPattern};
use javelin::sparse::{pattern_fingerprint, value_fingerprint, vecops};
use javelin::sync::{ProgressCounters, SpinBarrier, TeamAffinity, WorkerTeam};
use javelin::synth::util::{perturb_values, rhs_panel};
use std::hint::black_box;
use std::io::Cursor;
use std::time::Instant;

/// Span names the drivers use (the Chrome trace shows the same ones).
pub const SPAN_SETUP: &str = "session.setup";
pub const SPAN_ANALYZE: &str = "core.analyze";
pub const SPAN_FACTOR: &str = "core.factor";
pub const SPAN_STEP: &str = "session.step";
pub const SPAN_REFACTOR: &str = "core.refactor";
pub const SPAN_KRYLOV: &str = "solver.krylov";

/// What the layer measurements need to know about the workload.
pub struct LayerCtx<'a> {
    pub a: &'a CsrMatrix<f64>,
    pub b: &'a [f64],
    pub opts: &'a IluOptions,
    pub method: Method,
    pub seed: u64,
    /// Samples per median (5 in a full run).
    pub samples: usize,
    pub smoke: bool,
}

/// Upper limit on each array of the out-of-cache triad. Four times the
/// last-level cache this box reports (260 MiB, the host's whole L3)
/// would be 1 GiB per array, and faulting 3 GiB in costs a traced run
/// 17 s of its time allowance; 128 MiB per array is 64 × the private L2
/// and the three together still exceed the reported LLC. The size used
/// is stated in every traced result (`triad_array_bytes`).
const TRIAD_CAP_BYTES: u64 = 128 << 20;
const TRIAD_CAP_BYTES_SMOKE: u64 = 16 << 20;

/// Samples of `run` on `state`, each after an untimed `prep` of it;
/// one warm-up first.
fn time_prepared<S: ?Sized>(
    samples: usize,
    state: &mut S,
    mut prep: impl FnMut(&mut S),
    mut run: impl FnMut(&mut S),
) -> Vec<f64> {
    prep(state);
    run(state);
    (0..samples)
        .map(|_| {
            prep(state);
            let t0 = Instant::now();
            run(state);
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// Samples of `run`, after one warm-up call.
fn time_each(samples: usize, mut run: impl FnMut()) -> Vec<f64> {
    time_prepared(samples, &mut (), |()| (), |()| run())
}

/// Seconds per call when one call is too short for the clock: `inner`
/// calls per sample.
fn time_repeated(samples: usize, inner: usize, mut run: impl FnMut()) -> Vec<f64> {
    let total = time_each(samples, || {
        for _ in 0..inner {
            run();
        }
    });
    total.into_iter().map(|t| t / inner as f64).collect()
}

/// Traced analyze + factor, `samples` times: the `core.*` setup metrics
/// and the exact `level.*` counts. Returns the last factors.
pub fn setup(
    ctx: &LayerCtx<'_>,
    tracer: &Tracer,
    values: &mut Values,
    check: &mut Check,
) -> Option<IluFactors<f64>> {
    let mut analyze = Vec::new();
    let mut factor = Vec::new();
    let mut unattributed = Vec::new();
    let mut kept = None;
    for _ in 0..ctx.samples {
        // Free the previous factors first, as a fresh build would find
        // the heap.
        drop(kept.take());
        let span = tracer.begin(SPAN_SETUP);
        let (t_analyze, sym) =
            timed(|| tracer.span(SPAN_ANALYZE, || SymbolicIlu::analyze(ctx.a, ctx.opts)));
        let built = sym.and_then(|sym| {
            let stats = sym.stats();
            unattributed
                .push(t_analyze - stats.t_symbolic.as_secs_f64() - stats.t_analysis.as_secs_f64());
            let (t_factor, f) = timed(|| tracer.span(SPAN_FACTOR, || sym.factor(ctx.a)));
            factor.push(t_factor);
            f
        });
        tracer.end(span);
        analyze.push(t_analyze);
        check.record(built.is_ok(), || {
            format!("analyze/factor: {:?}", built.as_ref().err())
        });
        kept = built.ok();
    }
    let factors = kept?;
    values.put_samples("core.analyze_s", &analyze);
    values.put_samples("core.factor_s", &factor);
    values.put_samples("core.analyze_unattributed_s", &unattributed);
    let s = factors.stats();
    values.put("level.n_levels", s.n_levels as f64);
    values.put("level.n_upper_levels", s.n_upper_levels as f64);
    values.put("level.n_lower_rows", s.n_lower_rows as f64);
    values.put("level.n_waits", s.n_waits as f64);
    values.put("level.n_raw_deps", s.n_raw_deps as f64);
    values.put("level.wait_sparsification", s.wait_sparsification());
    values.put("core.nnz_lu", s.nnz_lu as f64);
    values.put("core.fill_ratio", s.fill_ratio());
    values.put("core.shift_attempts", s.shift_attempts as f64);
    Some(factors)
}

/// `session.build_unattributed_s`: what a whole build (or, for the
/// service, a batch on a never-seen pattern) costs beyond the analyze
/// and factor calls measured by [`setup`].
pub fn put_build_unattributed(values: &mut Values, build_s: f64) {
    let attributed: f64 = ["core.analyze_s", "core.factor_s"]
        .iter()
        .map(|m| values.get(m).map_or(0.0, |v| v.value))
        .sum();
    values.put("session.build_unattributed_s", build_s - attributed);
}

/// `core.precond_*` and `solver.self_*` from the spans of the traced
/// solves: medians over requests of the per-request totals.
pub fn solver_span_metrics(spans: &[Span], values: &mut Values) {
    let self_ns = self_times_ns(spans);
    let mut krylov_self = Vec::new();
    let mut krylov_frac = Vec::new();
    for (s, &own) in spans.iter().zip(&self_ns) {
        if s.name == SPAN_KRYLOV && s.dur_ns() > 0 {
            krylov_self.push(own as f64 * 1e-9);
            krylov_frac.push(own as f64 / s.dur_ns() as f64);
        }
    }
    let mut busy = Vec::new();
    let mut calls = Vec::new();
    let scalar = per_request(spans, PRECOND_APPLY);
    let panel = per_request(spans, PRECOND_APPLY_PANEL);
    let mut requests: Vec<u32> = scalar.iter().chain(&panel).map(|e| e.0).collect();
    requests.sort_unstable();
    requests.dedup();
    for r in requests {
        let both = scalar.iter().chain(&panel).filter(|e| e.0 == r);
        busy.push(both.clone().map(|e| e.1).sum());
        calls.push(both.map(|e| e.2 as f64).sum());
    }
    values.put_samples("core.precond_busy_s", &busy);
    values.put_samples("core.precond_calls", &calls);
    values.put_samples("solver.self_s", &krylov_self);
    values.put_samples("solver.self_frac", &krylov_frac);
}

/// `(region dispatch, barrier, p2p handoff)` in microseconds on a team
/// of `nthreads`, pinned the way the workload's own team is.
fn sync_micro(nthreads: usize, pinned: bool, samples: usize) -> [Vec<f64>; 3] {
    // Enough repetitions that a sample lasts far longer than the
    // clock's resolution even where one operation takes nanoseconds.
    const INNER: usize = 20_000;
    let affinity = if pinned {
        TeamAffinity::Compact
    } else {
        TeamAffinity::None
    };
    let team = WorkerTeam::with_affinity(nthreads, affinity);
    let us = |v: Vec<f64>| v.into_iter().map(|t| t * 1e6).collect::<Vec<_>>();
    let dispatch = time_repeated(samples, INNER, || team.run(|_tid| ()));
    let barrier = SpinBarrier::new(nthreads);
    let barriers = time_each(samples, || {
        team.run(|_tid| {
            for _ in 0..INNER {
                barrier.wait();
            }
        })
    });
    // Ping-pong between tids 0 and 1: two handoffs per round trip. A
    // one-thread team has nobody to hand to; it measures the
    // uncontended bump + satisfied wait the serial path pays.
    let counters = ProgressCounters::new(nthreads);
    let handoffs_per_round = if nthreads >= 2 { 2 } else { 1 };
    let handoff = time_prepared(
        samples,
        &mut (),
        |()| counters.reset(),
        |()| {
            team.run(|tid| match (tid, nthreads >= 2) {
                (0, true) => {
                    for i in 1..=INNER {
                        counters.bump(0);
                        counters.wait_for(1, i);
                    }
                }
                (1, true) => {
                    for i in 1..=INNER {
                        counters.wait_for(0, i);
                        counters.bump(1);
                    }
                }
                (0, false) => {
                    for i in 1..=INNER {
                        counters.bump(0);
                        counters.wait_for(0, i);
                    }
                }
                _ => (),
            })
        },
    );
    [
        us(dispatch),
        us(barriers.into_iter().map(|t| t / INNER as f64).collect()),
        us(handoff
            .into_iter()
            .map(|t| t / (INNER * handoffs_per_round) as f64)
            .collect()),
    ]
}

/// Level sets + two-stage split + point-to-point schedule on the LU
/// pattern — the pattern-only part of `analyze` that `level` owns.
fn level_build(factors: &IluFactors<f64>, opts: &IluOptions, samples: usize) -> Vec<f64> {
    let lu = factors.lu();
    let pattern = SparsityPattern::of(lu);
    let n = lu.nrows();
    let row_nnz: Vec<usize> = (0..n).map(|r| lu.row_nnz(r)).collect();
    time_each(samples, || {
        let levels = LevelSets::compute_lower(&level_pattern_of(&pattern, opts.level_pattern));
        let plan = split_levels(&levels, &row_nnz, &opts.split);
        let old_to_new = plan.perm.old_to_new();
        let new_to_old = plan.perm.new_to_old();
        let schedule = P2PSchedule::build(
            plan.n_upper,
            opts.nthreads.max(1),
            &plan.upper_level_ptr,
            |task, out| {
                out.extend(
                    lu.row_cols(new_to_old[task])
                        .iter()
                        .map(|&c| old_to_new[c])
                        .filter(|&c| c < task),
                );
            },
        );
        black_box(schedule.n_waits());
    })
}

/// Framed bytes of one request with fresh values, as the TCP front-end
/// exchanges them: set-matrix + solve going in, matrix-ok + reply
/// coming back. Returns `(encode samples, decode samples, bytes)`.
fn wire_round_trip(ctx: &LayerCtx<'_>, x: &[f64], samples: usize) -> (Vec<f64>, Vec<f64>, usize) {
    let a = ctx.a;
    let result = SolverResult::default();
    let mut body = Vec::new();
    let mut framed: Vec<u8> = Vec::new();
    let encode = time_each(samples, || {
        framed.clear();
        wire::encode_set_matrix(&mut body, a.nrows(), a.rowptr(), a.colidx(), a.vals());
        wire::write_frame(&mut framed, wire::Tag::SetMatrix, &body).expect("write to memory");
        wire::encode_solve(&mut body, ctx.method, ctx.b);
        wire::write_frame(&mut framed, wire::Tag::Solve, &body).expect("write to memory");
        wire::write_frame(&mut framed, wire::Tag::MatrixOk, &[]).expect("write to memory");
        wire::encode_reply_ok(&mut body, &result, x);
        wire::write_frame(&mut framed, wire::Tag::ReplyOk, &body).expect("write to memory");
    });
    let (mut rowptr, mut colidx, mut vals, mut rhs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let decode = time_each(samples, || {
        let mut cursor = Cursor::new(framed.as_slice());
        let mut frames = 0;
        while let Ok(tag) = wire::read_frame(&mut cursor, &mut body) {
            frames += 1;
            let mut r = wire::BodyReader::new(&body);
            let parsed = match tag {
                wire::Tag::SetMatrix => (|| {
                    let n = r.u64()? as usize;
                    let nnz = r.u64()? as usize;
                    r.usizes(n + 1, &mut rowptr)?;
                    r.usizes(nnz, &mut colidx)?;
                    r.f64s(nnz, &mut vals)
                })(),
                wire::Tag::Solve => (|| {
                    r.u8()?;
                    let len = r.u64()? as usize;
                    r.f64s(len, &mut rhs)
                })(),
                wire::Tag::ReplyOk => (|| {
                    r.u8()?;
                    r.u8()?;
                    r.u64()?;
                    r.f64()?;
                    let len = r.u64()? as usize;
                    r.f64s(len, &mut rhs)
                })(),
                _ => Ok(()),
            };
            parsed.expect("frames written above decode");
        }
        assert_eq!(frames, 4, "every frame written above is read back");
    });
    (encode, decode, framed.len())
}

/// The scalar and the batch spelling of the workload's Krylov family.
fn method_family(method: Method) -> (Method, Method) {
    match method {
        Method::Gmres | Method::BatchGmres | Method::Fgmres => (Method::Gmres, Method::BatchGmres),
        Method::Pcg | Method::BatchPcg => (Method::Pcg, Method::BatchPcg),
        Method::Bicgstab | Method::BatchBicgstab => (Method::Bicgstab, Method::BatchBicgstab),
    }
}

/// `(spmv calls, dot-like reductions, axpy-like updates)` of one solve
/// of `iterations` iterations — the operation counts the Krylov
/// drivers perform per iteration, used for the *computed* estimates.
fn krylov_op_counts(method: Method, iterations: usize, restart: usize) -> (f64, f64, f64) {
    let it = iterations as f64;
    match method_family(method).0 {
        Method::Gmres => {
            // Arnoldi step j orthogonalizes against j + 1 vectors.
            let restart = restart.max(1);
            let (cycles, tail) = (iterations / restart, iterations % restart);
            let tri = |m: usize| (m * (m + 1) / 2 + m) as f64;
            let ortho = cycles as f64 * tri(restart) + tri(tail);
            (it + (cycles + 1) as f64, ortho + it, ortho + it)
        }
        Method::Pcg => (it + 1.0, 2.0 * it + 1.0, 3.0 * it),
        _ => (2.0 * it + 1.0, 6.0 * it + 1.0, 6.0 * it),
    }
}

/// Everything that is not derived from the drivers' own spans.
pub fn measure(
    ctx: &LayerCtx<'_>,
    factors: &mut IluFactors<f64>,
    engine: SolveEngine,
    iterations: usize,
    out: &mut Outcome,
) {
    let (values, check) = (&mut out.values, &mut out.check);
    let a = ctx.a;
    let n = a.nrows();
    let samples = ctx.samples;
    // Kernels that take milliseconds can afford more samples.
    let many = 4 * samples;
    let nthreads = ctx.opts.nthreads.max(1);
    let s = factors.stats().clone();

    // host: facts and the two triads.
    let (l2, llc) = host::cache_sizes();
    values.put("host.nproc", host::nproc() as f64);
    values.put("host.l2_bytes", l2 as f64);
    values.put("host.llc_bytes", llc as f64);
    let cap = if ctx.smoke {
        TRIAD_CAP_BYTES_SMOKE
    } else {
        TRIAD_CAP_BYTES
    };
    let big = host::triad(host::triad_len(llc, host::mem_available_bytes(), cap), 2);
    values.put("host.triad_gbs", big.gbs);
    values.put("host.triad_ws_gbs", host::triad(n, 20).gbs);
    out.facts.push((
        "triad_array_bytes".into(),
        Json::Num(big.array_bytes as f64),
    ));

    // sparse: vector kernels at the workload's n, and the fingerprints
    // the service takes of every new matrix handle.
    let x: Vec<f64> = rhs_panel(n, 1, ctx.seed ^ 0x51);
    let mut y = ctx.b.to_vec();
    let dot = time_repeated(many, 8, || {
        black_box(vecops::dot(black_box(&x), black_box(&y)));
    });
    let axpy = time_repeated(many, 8, || {
        vecops::axpy(1e-9, black_box(&x), black_box(&mut y))
    });
    values.put_samples("sparse.dot_s", &dot);
    values.put_samples("sparse.axpy_s", &axpy);
    values.put("sparse.axpy_gbs", (24 * n) as f64 / median(&axpy) / 1e9);
    let fingerprint = time_each(many, || {
        black_box(pattern_fingerprint(black_box(a)));
        black_box(value_fingerprint(black_box(a.vals())));
    });
    values.put_samples("sparse.fingerprint_s", &fingerprint);

    // sync
    let [dispatch, barrier, handoff] = sync_micro(nthreads, ctx.opts.pin_threads, samples);
    values.put_samples("sync.region_dispatch_us", &dispatch);
    values.put_samples("sync.barrier_us", &barrier);
    values.put_samples("sync.p2p_handoff_us", &handoff);

    // level
    values.put_samples(
        "level.build_s",
        &level_build(factors, ctx.opts, samples.min(3)),
    );

    // core: numeric refactorization, scalar and batched.
    let mut ok = true;
    let refactor = time_each(samples, || ok &= factors.refactor(a).is_ok());
    check.record(ok, || "IluFactors::refactor failed".into());
    values.put_samples("core.refactor_s", &refactor);
    values.put(
        "core.refactor_gbs",
        (16 * s.nnz_lu + 8 * s.nnz_a) as f64 / median(&refactor) / 1e9,
    );
    {
        let corners: Vec<_> = (0..8)
            .map(|c| perturb_values(a, 0.05, ctx.seed.wrapping_add(900 + c)))
            .collect();
        let mats: Vec<&CsrMatrix<f64>> = corners.iter().collect();
        match factors.symbolic().factor_batch(&mats) {
            Ok(mut batch) => {
                let mut ok = true;
                let t = time_each(samples.min(3), || {
                    ok &= batch.refactor_batch(&mats).is_ok() && batch.all_ok();
                });
                check.record(ok, || "FactorsBatch::refactor_batch failed".into());
                values.put_samples("core.refactor_batch_k8_s", &t);
            }
            Err(e) => {
                check.record(false, || format!("factor_batch: {e}"));
                values.put("core.refactor_batch_k8_s", f64::NAN);
            }
        }
    }

    // core: one preconditioner application, the serial sweeps, spmv.
    let r = ctx.b;
    let mut z = vec![0.0; n];
    let mut scratch = ApplyScratch::new();
    let pinned = factors.with_engine(engine);
    let apply = time_each(many, || pinned.apply_with(&mut scratch, r, &mut z));
    let serial_engine = factors.with_engine(SolveEngine::Serial);
    let apply_serial = time_each(many, || serial_engine.apply_with(&mut scratch, r, &mut z));
    let (lu, diag) = (factors.lu(), factors.diag_positions());
    let forward = time_prepared(
        many,
        z.as_mut_slice(),
        |z| z.copy_from_slice(r),
        |z| serial::forward_inplace(lu, diag, z),
    );
    let backward = time_prepared(
        many,
        z.as_mut_slice(),
        |z| z.copy_from_slice(r),
        |z| serial::backward_inplace(lu, diag, z),
    );
    let spmv = time_each(many, || a.spmv_into(black_box(&x), &mut z));
    values.put_samples("core.apply_s", &apply);
    values.put_samples("core.apply_serial_s", &apply_serial);
    values.put_samples("core.trisolve_forward_s", &forward);
    values.put_samples("core.trisolve_backward_s", &backward);
    values.put_samples("core.spmv_s", &spmv);
    let apply_gbs = (16 * s.nnz_lu + 24 * n) as f64 / median(&apply) / 1e9;
    let spmv_gbs = (16 * s.nnz_a + 16 * n) as f64 / median(&spmv) / 1e9;
    values.put("core.apply_gbs", apply_gbs);
    values.put("core.apply_frac_of_triad", apply_gbs / big.gbs);
    values.put("core.spmv_gbs", spmv_gbs);
    values.put("core.spmv_frac_of_triad", spmv_gbs / big.gbs);

    // core: the k = 8 panel kernels.
    let rp = rhs_panel(n, 8, ctx.seed ^ 0x8);
    let mut zp = vec![0.0; n * 8];
    let apply_panel = time_each(samples, || {
        pinned.apply_panel_with(
            &mut scratch,
            Panel::new(&rp, n, 8),
            PanelMut::new(&mut zp, n, 8),
        )
    });
    let mut plan = SpmvPlan::new(a, nthreads, ctx.opts.tile_size);
    let spmv_panel = time_each(samples, || {
        plan.execute_panel(a, Panel::new(&rp, n, 8), PanelMut::new(&mut zp, n, 8))
    });
    values.put_samples("core.apply_panel_k8_s", &apply_panel);
    values.put("core.apply_panel_k8_per_col_s", median(&apply_panel) / 8.0);
    values.put_samples("core.spmv_panel_k8_s", &spmv_panel);

    // solver: the batch driver at k = 1 against the scalar driver it is
    // meant to be, and the computed spmv / vector-kernel shares.
    let (scalar, batch) = method_family(ctx.method);
    let solver_opts = SolverOptions::default();
    let mut ws = SolverWorkspace::new();
    let mut solve = |method: Method, x: &mut [f64]| {
        time_prepared(
            2,
            x,
            |x| x.fill(0.0),
            |x| {
                black_box(krylov_with(
                    method,
                    a,
                    ctx.b,
                    x,
                    &pinned,
                    &solver_opts,
                    &mut ws,
                ));
            },
        )
    };
    let (mut xs, mut xb) = (vec![0.0; n], vec![0.0; n]);
    let t_scalar = solve(scalar, &mut xs);
    let t_batch = solve(batch, &mut xb);
    check.record(bits_equal(&xs, &xb), || {
        format!("{batch} at k = 1 is not bit-identical to {scalar}")
    });
    values.put(
        "solver.k1_panel_overhead",
        median(&t_batch) / median(&t_scalar),
    );
    let (n_spmv, n_dot, n_axpy) = krylov_op_counts(ctx.method, iterations, solver_opts.restart);
    values.put("solver.spmv_est_s", n_spmv * median(&spmv));
    values.put(
        "solver.vecops_est_s",
        n_dot * median(&dot) + n_axpy * median(&axpy),
    );

    // service: what shipping this problem over the wire costs.
    let (encode, decode, bytes) = wire_round_trip(ctx, &xs, samples);
    values.put_samples("service.wire_encode_s", &encode);
    values.put_samples("service.wire_decode_s", &decode);
    values.put("service.wire_bytes_per_req", bytes as f64);
}

/// Simulator against measurement for one preconditioner application at
/// two threads: the model is calibrated so its serial sweep matches the
/// measured one, then asked for the threaded engine's time.
pub fn machine_metrics(factors: &IluFactors<f64>, engine: SolveEngine, values: &mut Values) {
    let (Some(serial), Some(threaded)) = (
        values.get("core.apply_serial_s").map(|v| v.value),
        values.get("core.apply_s").map(|v| v.value),
    ) else {
        return;
    };
    let base = MachineModel::generic(2);
    let sim_serial = sim_trisolve_time(factors, &base, 1, SolveEngine::Serial);
    let model = base.calibrated_to(sim_serial, serial);
    let sim = sim_trisolve_time(factors, &model, 1, SolveEngine::Serial)
        / sim_trisolve_time(factors, &model, 2, engine);
    let measured = serial / threaded;
    values.put("machine.sim_apply_speedup_2t", sim);
    values.put("machine.measured_apply_speedup_2t", measured);
    values.put("machine.sim_rel_err", (sim - measured).abs() / measured);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_counts_follow_the_drivers() {
        // BiCGSTAB: two products per iteration plus the initial residual.
        assert_eq!(krylov_op_counts(Method::Bicgstab, 10, 50).0, 21.0);
        // GMRES inside one restart cycle: step j touches j + 1 vectors.
        let (spmv, dots, _) = krylov_op_counts(Method::BatchGmres, 3, 50);
        assert_eq!(spmv, 4.0);
        assert_eq!(dots, (2 + 3 + 4 + 3) as f64);
        // Two full cycles of length 2 and no tail.
        assert_eq!(krylov_op_counts(Method::Gmres, 4, 2).0, 4.0 + 3.0);
    }
}
