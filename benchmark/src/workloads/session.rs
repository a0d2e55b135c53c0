//! The three `Session` workloads: `pde3d-serial`, `pde3d-team2` and
//! `circuit-stepper`. One driver, three specifications; the untraced
//! run goes through `javelin::Session` only, the traced run repeats the
//! same steps through `SymbolicIlu` / `IluFactors` / `krylov_with` with
//! spans around every call.

use crate::harness::{
    bits_equal, rel_residual, timed, Budget, Check, Config, Outcome, RESIDUAL_LIMIT,
};
use crate::host;
use crate::layers::{self, LayerCtx};
use crate::metrics::{CIRCUIT_STEPPER, PDE3D_SERIAL, PDE3D_TEAM2};
use crate::stats::median;
use crate::trace::{TimedPrecond, Tracer};
use javelin::core::{IluOptions, SolveEngine};
use javelin::prelude::*;
use javelin::solver::krylov_with;
use javelin::synth::circuit::transient_circuit;
use javelin::synth::grid::convection_diffusion_3d;
use javelin::synth::util::{perturb_values, rhs_panel};

/// Scenario count of the `circuit-stepper` sweep leg.
const SWEEP_K: usize = 8;
/// Fresh builds timed for `setup_s`, after one discarded build.
const BUILDS: usize = 5;
/// Fewest samples behind any reported median.
const MIN_SAMPLES: usize = 5;
/// Steps of a traced run that get an untraced twin.
const TWIN_STEPS: usize = 4;

struct Spec {
    fill: usize,
    nthreads: usize,
    /// Every step carries newly perturbed values (a time stepper);
    /// otherwise every step repeats one system, so iteration counts
    /// must repeat exactly.
    values_change: bool,
    /// Share of the timed section spent on `Session::sweep` calls.
    sweep_share: f64,
}

fn spec(workload: &str) -> Spec {
    match workload {
        PDE3D_SERIAL => Spec {
            fill: 0,
            nthreads: 1,
            values_change: false,
            sweep_share: 0.0,
        },
        PDE3D_TEAM2 => Spec {
            fill: 0,
            nthreads: 2,
            values_change: false,
            sweep_share: 0.0,
        },
        CIRCUIT_STEPPER => Spec {
            fill: 1,
            nthreads: 1,
            values_change: true,
            sweep_share: 0.45,
        },
        other => unreachable!("{other} is not a Session workload"),
    }
}

/// The workload's matrix. Generated from the seed: the PDE grid is
/// fixed and its coefficients are perturbed; the circuit's graph itself
/// is drawn from the seed.
fn matrix(cfg: &Config) -> CsrMatrix<f64> {
    if cfg.workload == CIRCUIT_STEPPER {
        let (n, core) = if cfg.smoke {
            (4_000, 40)
        } else {
            (100_000, 150)
        };
        transient_circuit(n, core, false, cfg.seed)
    } else {
        let m = if cfg.smoke { 14 } else { 56 };
        let grid = convection_diffusion_3d(m, m, m, (30.0, 20.0, 10.0));
        perturb_values(&grid, 0.01, cfg.seed)
    }
}

fn options(spec: &Spec) -> IluOptions {
    let mut opts = IluOptions::ilu0(spec.nthreads).with_fill(spec.fill);
    // A threaded team is pinned, as the paper's runs are: left to the
    // scheduler, the two spinning participants of a point-to-point
    // solve drift onto one core and the timings stop repeating.
    opts.pin_threads = spec.nthreads > 1;
    opts
}

fn builder(spec: &Spec, opts: &IluOptions) -> SessionBuilder {
    let builder = Session::builder().ilu_options(opts.clone());
    if spec.nthreads > 1 {
        // The engine `default_engine` picks for a threaded team with
        // cores to run on. It is named because the pinned caller sees
        // one core, which `default_engine` reads as oversubscription
        // and answers with the serial engine.
        builder.engine(SolveEngine::PointToPointLower)
    } else {
        builder
    }
}

/// Values of step `i`: a fresh perturbation for the stepper, the base
/// system otherwise. Generated outside every clock.
fn step_values(spec: &Spec, a: &CsrMatrix<f64>, seed: u64, i: usize) -> Option<CsrMatrix<f64>> {
    spec.values_change
        .then(|| perturb_values(a, 0.05, seed.wrapping_mul(1_000_003).wrapping_add(i as u64)))
}

/// Records the checks every timed solve gets: it converged, and the
/// residual recomputed outside the solver is within the limit.
fn check_solve(
    check: &mut Check,
    what: &str,
    res: &SolverResult,
    a: &CsrMatrix<f64>,
    x: &[f64],
    b: &[f64],
) -> f64 {
    let rel = rel_residual(a, x, b);
    check.record(res.converged && rel <= RESIDUAL_LIMIT, || {
        format!(
            "{what}: converged = {}, iterations = {}, recomputed residual = {rel:e}",
            res.converged, res.iterations
        )
    });
    rel
}

pub fn run(cfg: &Config) -> Outcome {
    let spec = spec(&cfg.workload);
    let a = matrix(cfg);
    let n = a.nrows();
    let b = rhs_panel(n, 1, cfg.seed ^ 0xb);
    let opts = options(&spec);
    let mut out = Outcome::for_matrix(&a, spec.nthreads, spec.fill);
    if spec.nthreads == 1 {
        out.pin_driver_thread();
    }
    if cfg.trace {
        traced(cfg, &spec, &a, &b, &opts, &mut out);
    } else {
        untraced(cfg, &spec, &a, &b, &opts, &mut out);
    }
    out
}

fn untraced(
    cfg: &Config,
    spec: &Spec,
    a: &CsrMatrix<f64>,
    b: &[f64],
    opts: &IluOptions,
    out: &mut Outcome,
) {
    let n = a.nrows();
    let builder = builder(spec, opts);

    // Set-up: one discarded build (page faults, lazy initialization),
    // then `BUILDS` timed fresh builds, each with the previous session
    // already freed. They are taken at even intervals through the step
    // loop rather than in one burst, so that a slow phase of the
    // machine cannot swallow every sample.
    let mut builds = Vec::new();
    let mut build = |keep: bool, check: &mut Check, previous: Option<Session<f64>>| {
        drop(previous);
        let (t, built) = timed(|| builder.build(a));
        check.record(built.is_ok(), || {
            format!("Session::build: {:?}", built.as_ref().err())
        });
        if keep {
            builds.push(t);
        }
        built.ok()
    };
    let Some(mut session) = build(false, &mut out.check, None) else {
        return;
    };

    // Steps: refactor + solve, until the budget is used.
    let method = Method::Bicgstab;
    let budget = Budget::new(cfg.seconds * (1.0 - spec.sweep_share));
    let (mut refactors, mut solves, mut steps) = (Vec::new(), Vec::new(), Vec::new());
    let mut iterations = Vec::new();
    let mut first_x = Vec::new();
    let mut x = vec![0.0; n];
    let mut built = 0;
    while budget.more(steps.len(), MIN_SAMPLES) || built < BUILDS {
        if built < BUILDS && budget.used() >= built as f64 / BUILDS as f64 {
            let Some(fresh) = build(true, &mut out.check, Some(session)) else {
                return;
            };
            session = fresh;
            built += 1;
        }
        let i = steps.len();
        let fresh = step_values(spec, a, cfg.seed, i);
        let values = fresh.as_ref().unwrap_or(a);
        x.fill(0.0);
        let (t_refactor, refactored) = timed(|| session.refactor(values));
        let (t_solve, solved) = timed(|| session.krylov(method, b, &mut x));
        out.check.record(refactored.is_ok(), || {
            format!("step {i} refactor: {refactored:?}")
        });
        match solved {
            Ok(res) => {
                check_solve(
                    &mut out.check,
                    &format!("step {i} solve"),
                    &res,
                    values,
                    &x,
                    b,
                );
                iterations.push(res.iterations);
            }
            Err(e) => out.check.record(false, || format!("step {i} solve: {e}")),
        }
        if i == 0 {
            first_x = x.clone();
        }
        refactors.push(t_refactor);
        solves.push(t_solve);
        steps.push(t_refactor + t_solve);
    }
    out.values.put_samples("setup_s", &builds);
    out.values.put_samples("refactor_s", &refactors);
    out.values.put_samples("solve_s", &solves);
    out.values.put_samples("step_s", &steps);
    out.values.put(
        "requests_per_s",
        steps.len() as f64 / steps.iter().sum::<f64>(),
    );
    out.values
        .put("request_latency_p50_ms", 1e3 * median(&steps));
    out.fact("timed_steps", steps.len() as f64);
    out.fact(
        "solver_iterations",
        iterations.first().copied().unwrap_or(0) as f64,
    );

    // Identical inputs must give identical work: every repetition of
    // one system takes the same iterations, and replaying step 0 at the
    // end reproduces its solution bit for bit.
    if !spec.values_change {
        let same = iterations.windows(2).all(|w| w[0] == w[1]);
        out.check.record(same, || {
            format!("iteration counts differ across repetitions: {iterations:?}")
        });
    }
    {
        let fresh = step_values(spec, a, cfg.seed, 0);
        let values = fresh.as_ref().unwrap_or(a);
        x.fill(0.0);
        let replay = session
            .refactor(values)
            .and_then(|()| session.krylov(method, b, &mut x));
        let same = matches!(&replay, Ok(r) if Some(&r.iterations) == iterations.first())
            && bits_equal(&x, &first_x);
        out.check.record(same, || {
            "replaying step 0 did not reproduce its solution".into()
        });
    }

    if spec.sweep_share > 0.0 {
        sweep_leg(cfg, spec, a, &mut session, out);
    }
    out.values.put("peak_rss_mib", host::peak_rss_mib());
}

/// `SWEEP_K` perturbed corners through `Session::sweep`: one warm-up
/// call (it allocates the batch handle), then timed calls.
fn sweep_leg(
    cfg: &Config,
    spec: &Spec,
    a: &CsrMatrix<f64>,
    session: &mut Session<f64>,
    out: &mut Outcome,
) {
    let n = a.nrows();
    let corners: Vec<_> = (0..SWEEP_K)
        .map(|c| perturb_values(a, 0.05, cfg.seed.wrapping_mul(7_919).wrapping_add(c as u64)))
        .collect();
    let mats: Vec<&CsrMatrix<f64>> = corners.iter().collect();
    let bp = rhs_panel(n, SWEEP_K, cfg.seed ^ 0x5);
    let mut xp = vec![0.0; n * SWEEP_K];
    let budget = Budget::new(cfg.seconds * spec.sweep_share);
    let mut sweeps = Vec::new();
    let mut first_iterations: Option<Vec<usize>> = None;
    let mut warm = false;
    while !warm || budget.more(sweeps.len(), MIN_SAMPLES) {
        xp.fill(0.0);
        let (t, swept) = timed(|| {
            session.sweep(
                Method::BatchBicgstab,
                &mats,
                Panel::new(&bp, n, SWEEP_K),
                PanelMut::new(&mut xp, n, SWEEP_K),
            )
        });
        match swept {
            Ok(results) => {
                for (c, res) in results.iter().enumerate() {
                    let (xc, bc) = (&xp[c * n..(c + 1) * n], &bp[c * n..(c + 1) * n]);
                    check_solve(
                        &mut out.check,
                        &format!("sweep scenario {c}"),
                        res,
                        mats[c],
                        xc,
                        bc,
                    );
                }
                let its: Vec<usize> = results.iter().map(|r| r.iterations).collect();
                let same = first_iterations.get_or_insert_with(|| its.clone()) == &its;
                out.check
                    .record(same, || format!("sweep iteration counts changed: {its:?}"));
            }
            Err(e) => out.check.record(false, || format!("sweep: {e}")),
        }
        if warm {
            sweeps.push(t);
        }
        warm = true;
    }
    if cfg.trace {
        out.values.put_samples("session.sweep_s", &sweeps);
    } else {
        out.values
            .put("sweep_scenarios_per_s", SWEEP_K as f64 / median(&sweeps));
    }
    out.fact("timed_sweeps", sweeps.len() as f64);
}

fn traced(
    cfg: &Config,
    spec: &Spec,
    a: &CsrMatrix<f64>,
    b: &[f64],
    opts: &IluOptions,
    out: &mut Outcome,
) {
    let n = a.nrows();
    let samples = if cfg.smoke { 3 } else { MIN_SAMPLES };
    let tracer = Tracer::new(true, 1 << 16);
    let builder = builder(spec, opts);

    // The façade's own set-up: the cold first build, then warm ones.
    let (cold, first) = timed(|| builder.build(a));
    out.check.record(first.is_ok(), || {
        format!("Session::build: {:?}", first.as_ref().err())
    });
    out.values.put("session.setup_cold_s", cold);
    let mut session = first.ok();
    let mut builds = Vec::new();
    for _ in 0..samples {
        drop(session.take());
        let (t, built) = timed(|| builder.build(a));
        out.check.record(built.is_ok(), || {
            format!("Session::build: {:?}", built.as_ref().err())
        });
        builds.push(t);
        session = built.ok();
    }
    let Some(mut session) = session else { return };

    // The same set-up through the two-phase API, under spans.
    let ctx = LayerCtx {
        a,
        b,
        opts,
        method: Method::Bicgstab,
        seed: cfg.seed,
        samples,
        smoke: cfg.smoke,
    };
    let Some(mut factors) = layers::setup(&ctx, &tracer, &mut out.values, &mut out.check) else {
        return;
    };
    let analyze_factor = ["core.analyze_s", "core.factor_s"]
        .iter()
        .map(|m| out.values.get(m).map_or(0.0, |v| v.value))
        .sum::<f64>();
    out.values.put(
        "session.build_unattributed_s",
        median(&builds) - analyze_factor,
    );

    // Steps through the layers, under spans. The first few have an
    // untraced twin — the same calls on the same objects with a
    // recorder that is switched off, alternately before and after — so
    // the cost of tracing is a difference of like with like. Step 0 is
    // also run through the façade, which must do the same work.
    let engine = session.engine();
    let solver_opts = SolverOptions::default();
    let mut ws = SolverWorkspace::new();
    let off = Tracer::new(false, 0);
    let mut layered_step = |tracer: &Tracer, values: &CsrMatrix<f64>, x: &mut [f64]| {
        x.fill(0.0);
        timed(|| {
            tracer.span(layers::SPAN_STEP, || {
                let refactored = tracer.span(layers::SPAN_REFACTOR, || factors.refactor(values));
                refactored.map(|()| {
                    tracer.span(layers::SPAN_KRYLOV, || {
                        let pinned = factors.with_engine(engine);
                        let m = TimedPrecond {
                            inner: &pinned,
                            tracer,
                        };
                        krylov_with(ctx.method, values, b, x, &m, &solver_opts, &mut ws)
                    })
                })
            })
        })
    };
    let budget = Budget::new(cfg.seconds / 2.0);
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let mut iterations = Vec::new();
    let mut residuals = Vec::new();
    let (mut x, mut xt) = (vec![0.0; n], vec![0.0; n]);
    while budget.more(spanned.len(), samples) {
        let i = spanned.len();
        let fresh = step_values(spec, a, cfg.seed, i);
        let values = fresh.as_ref().unwrap_or(a);
        let twin = i < TWIN_STEPS;
        if twin && i % 2 == 0 {
            plain.push(layered_step(&off, values, &mut x).0);
        }
        tracer.set_request(i as u32);
        let (t_spanned, res) = layered_step(&tracer, values, &mut xt);
        spanned.push(t_spanned);
        if twin && i % 2 == 1 {
            plain.push(layered_step(&off, values, &mut x).0);
        }
        match &res {
            Ok(res) => {
                let what = format!("traced step {i}");
                residuals.push(check_solve(&mut out.check, &what, res, values, &xt, b));
                iterations.push(res.iterations as f64);
            }
            Err(e) => out.check.record(false, || format!("traced step {i}: {e}")),
        }
        if i == 0 {
            x.fill(0.0);
            let reference = session
                .refactor(values)
                .and_then(|()| session.krylov(ctx.method, b, &mut x));
            let same = matches!((&reference, &res), (Ok(p), Ok(t)) if p.iterations == t.iterations)
                && bits_equal(&x, &xt);
            out.check.record(same, || {
                format!("the traced path and the façade disagree ({reference:?})")
            });
        }
    }
    out.fact("timed_steps", spanned.len() as f64);
    out.values.put_samples("solver.iterations", &iterations);
    out.values.put_samples("solver.rel_residual", &residuals);
    out.values.put(
        "trace.overhead_frac",
        (median(&spanned[..plain.len()]) - median(&plain)) / median(&plain),
    );

    let its = median(&iterations).round() as usize;
    layers::measure(&ctx, &mut factors, engine, its, out);
    if cfg.workload == PDE3D_TEAM2 {
        layers::machine_metrics(&factors, engine, &mut out.values);
    }
    if spec.sweep_share > 0.0 {
        sweep_leg(cfg, spec, a, &mut session, out);
    }

    let (spans, dropped) = tracer.snapshot();
    layers::solver_span_metrics(&spans, &mut out.values);
    out.spans = spans;
    out.spans_dropped = dropped;
}
