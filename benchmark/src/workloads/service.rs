//! `service-panel`: one thread drives `Engine::process` in a closed
//! loop, one batch in flight. Batches arrive in rounds; a round holds
//! every (pool pattern, width) pair once, in seeded order, plus one
//! batch on a never-seen pattern, so every run sees the same mix of
//! work whatever its length.
//!
//! The threaded queue and the TCP front-end are not driven: a
//! dispatcher plus blocking clients would need more threads than this
//! box has cores. Wire cost is a layer metric instead.

use crate::harness::{
    bits_equal, rel_residual, timed, Budget, Check, Config, Outcome, SplitMix, RESIDUAL_LIMIT,
};
use crate::host;
use crate::layers::{self, LayerCtx};
use crate::stats::{median, percentile};
use crate::trace::{TimedPrecond, Tracer};
use javelin::core::{IluFactors, IluOptions};
use javelin::prelude::*;
use javelin::service::{Engine, EngineConfig, ServiceError, SolveReply, SolveRequest};
use javelin::solver::{krylov_panel_with, krylov_with};
use javelin::synth::circuit::transient_circuit;
use javelin::synth::util::{drop_random_offdiag, perturb_values, rhs_panel};
use std::sync::Arc;

/// Requests per batch. 1, 4 and 8 run the fixed-lane kernels, 2 and 3
/// the dynamic-width fallback, 13 splits into 8 + 4 + 1.
pub const WIDTHS: [usize; 8] = [1, 1, 2, 3, 4, 8, 8, 13];
/// Pool patterns; index 1 is the *primary* one the layer metrics and
/// the `Session` comparison leg use.
const POOL: usize = 3;
const PRIMARY: usize = 1;
const METHOD: Method = Method::BatchGmres;
const MIN_SAMPLES: usize = 5;
/// Width-1 hits on the primary pattern per round are two, so three
/// rounds are the fewest that put five samples behind `step_s`.
const MIN_ROUNDS: usize = 3;
/// The `Session` comparison leg takes a step after every this many
/// batches (15 steps over three rounds).
const SESSION_LEG_EVERY: usize = 5;
const SPAN_PROCESS: &str = "service.process";

/// Factorization options of the engine, and of everything it is
/// compared with.
fn ilu() -> IluOptions {
    IluOptions::ilu0(1)
}
const SPAN_REPLAY: &str = "service.replay";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPlan {
    pub pattern: usize,
    pub width: usize,
    /// The batch carries a pattern the cache has never seen.
    pub miss: bool,
}

/// A width-1 batch on a never-seen pattern of the primary size.
const MISS: BatchPlan = BatchPlan {
    pattern: PRIMARY,
    width: 1,
    miss: true,
};

/// The batches of one round: every (pattern, width) pair exactly once
/// in seeded order, and the round's cache miss — a never-seen pattern of
/// the primary size, like the set-up batches, so that it is one more
/// sample of the same cost. It follows the first width-1 batch on the
/// primary pattern: what a miss costs depends on the batch before it
/// (after a width-8 batch it was seen to take 0.10 s instead of
/// 0.045 s), and a median over mixed predecessors does not repeat.
pub fn round_plan(rng: &mut SplitMix) -> Vec<BatchPlan> {
    let mut plan: Vec<BatchPlan> = (0..POOL)
        .flat_map(|pattern| {
            WIDTHS.iter().map(move |&width| BatchPlan {
                pattern,
                width,
                miss: false,
            })
        })
        .collect();
    rng.shuffle(&mut plan);
    let after = plan
        .iter()
        .position(|b| b.pattern == PRIMARY && b.width == 1)
        .expect("every pair is in the round");
    plan.insert(after + 1, MISS);
    plan
}

/// Panel widths the engine cuts a coalescing group of `width` requests
/// into: eights, then a four, then the remainder as one panel.
pub fn panel_chunks(width: usize) -> Vec<usize> {
    let mut chunks = Vec::new();
    let mut rem = width;
    while rem > 0 {
        let w = if rem >= 8 {
            8
        } else if rem >= 4 {
            4
        } else {
            rem
        };
        chunks.push(w);
        rem -= w;
    }
    chunks
}

fn sizes(cfg: &Config) -> ([usize; POOL], usize) {
    if cfg.smoke {
        ([1_500, 2_000, 2_500], 30)
    } else {
        ([30_000, 40_000, 50_000], 80)
    }
}

struct Driver {
    engine: Engine<f64>,
    pool: Vec<CsrMatrix<f64>>,
    rng: SplitMix,
    requests: Vec<SolveRequest<f64>>,
    replies: Vec<Result<SolveReply<f64>, ServiceError>>,
    served: usize,
}

/// One processed batch, kept until its checks are done.
struct Served {
    plan: BatchPlan,
    /// Position of the batch in this driver's stream.
    ordinal: usize,
    a: Arc<CsrMatrix<f64>>,
    seconds: f64,
}

impl Driver {
    fn new(cfg: &Config) -> Self {
        let (ns, core) = sizes(cfg);
        let pool = ns
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                transient_circuit(
                    n,
                    core,
                    false,
                    cfg.seed.wrapping_mul(31).wrapping_add(i as u64),
                )
            })
            .collect();
        Driver {
            engine: Engine::new(EngineConfig {
                ilu: ilu(),
                ..EngineConfig::default()
            }),
            pool,
            rng: SplitMix(cfg.seed ^ 0x5e41_11ce),
            requests: Vec::new(),
            replies: Vec::new(),
            served: 0,
        }
    }

    /// Builds the batch outside the clock, times `Engine::process`
    /// alone (under a span when tracing), and leaves the replies in
    /// `self.replies`.
    fn serve(&mut self, plan: BatchPlan, tracer: &Tracer) -> Served {
        let base = &self.pool[plan.pattern];
        let seed = self.rng.next_u64();
        let a = Arc::new(if plan.miss {
            drop_random_offdiag(base, 0.02, seed)
        } else {
            perturb_values(base, 0.05, seed)
        });
        let n = a.nrows();
        let b = rhs_panel(n, plan.width, seed ^ 0xb);
        self.requests.clear();
        self.requests
            .extend(b.chunks_exact(n).map(|col| SolveRequest {
                a: Arc::clone(&a),
                b: col.to_vec(),
                x: Vec::new(),
                method: METHOD,
            }));
        let (engine, requests, replies) = (&mut self.engine, &mut self.requests, &mut self.replies);
        let (seconds, ()) =
            timed(|| tracer.span(SPAN_PROCESS, || engine.process(requests, replies)));
        self.served += 1;
        Served {
            plan,
            ordinal: self.served,
            a,
            seconds,
        }
    }

    /// Checks every reply of the batch just served: no typed error,
    /// converged, recomputed residual within the limit, and the
    /// expected cache outcome. Returns `(iterations, residual)` per
    /// reply.
    fn check_replies(
        &self,
        served: &Served,
        expect_reused: bool,
        check: &mut Check,
    ) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        check.record(self.replies.len() == served.plan.width, || {
            format!(
                "{} replies for {} requests",
                self.replies.len(),
                served.plan.width
            )
        });
        for (c, reply) in self.replies.iter().enumerate() {
            match reply {
                Ok(r) => {
                    let rel = rel_residual(&served.a, &r.x, &r.b);
                    let ok = r.result.converged
                        && rel <= RESIDUAL_LIMIT
                        && r.symbolic_reused == expect_reused;
                    check.record(ok, || {
                        format!(
                            "{:?} reply {c}: converged = {}, residual = {rel:e}, symbolic_reused = {}",
                            served.plan, r.result.converged, r.symbolic_reused
                        )
                    });
                    out.push((r.result.iterations, rel));
                }
                Err(e) => check.record(false, || format!("{:?} reply {c}: {e}", served.plan)),
            }
        }
        out
    }

    /// One discarded and `count` timed batches on never-seen patterns
    /// of the primary size: the service's set-up cost.
    fn setup_misses(
        &mut self,
        count: usize,
        tracer: &Tracer,
        check: &mut Check,
    ) -> (f64, Vec<f64>) {
        let mut times = Vec::new();
        for _ in 0..=count {
            let served = self.serve(MISS, tracer);
            self.check_replies(&served, false, check);
            times.push(served.seconds);
        }
        (times.remove(0), times)
    }

    /// Brings every pool pattern into the cache (its first batch is
    /// the analysis) and every staging buffer and lane width to size,
    /// untimed.
    fn warm_up(&mut self, tracer: &Tracer, check: &mut Check) {
        for pattern in 0..POOL {
            for (i, width) in [13, 3, 2].into_iter().enumerate() {
                let plan = BatchPlan {
                    pattern,
                    width,
                    miss: false,
                };
                let served = self.serve(plan, tracer);
                self.check_replies(&served, i > 0, check);
            }
        }
    }
}

/// Reference factors of every pool pattern, outside the engine: the
/// scalar solves replies are bit-compared against, and the standalone
/// refactor + panel solve a traced batch is replayed through.
struct Reference {
    factors: Vec<IluFactors<f64>>,
    ws: SolverWorkspace<f64>,
    opts: SolverOptions,
}

impl Reference {
    fn new(pool: &[CsrMatrix<f64>], check: &mut Check) -> Option<Self> {
        let factors: Result<Vec<_>, _> = pool
            .iter()
            .map(|a| SymbolicIlu::analyze(a, &ilu()).and_then(|sym| sym.factor(a)))
            .collect();
        check.record(factors.is_ok(), || {
            format!("reference factors: {:?}", factors.as_ref().err())
        });
        Some(Reference {
            factors: factors.ok()?,
            ws: SolverWorkspace::new(),
            opts: SolverOptions::default(),
        })
    }

    /// Column 0 of the batch against a scalar `krylov_with` of the same
    /// request on independently refactored factors.
    fn bit_compare(&mut self, served: &Served, reply: &SolveReply<f64>, check: &mut Check) {
        let f = &mut self.factors[served.plan.pattern];
        let mut x = vec![0.0; served.a.nrows()];
        let same = f.refactor(&served.a).is_ok() && {
            let m = f.with_engine(f.default_engine());
            let res = krylov_with(
                Method::Gmres,
                &served.a,
                &reply.b,
                &mut x,
                &m,
                &self.opts,
                &mut self.ws,
            );
            res.iterations == reply.result.iterations && bits_equal(&x, &reply.x)
        };
        check.record(same, || {
            format!(
                "width {}: a panel column is not bit-identical to the scalar solve",
                served.plan.width
            )
        });
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let driver = Driver::new(cfg);
    let primary = driver.pool[PRIMARY].clone();
    let mut out = Outcome::for_matrix(&primary, 1, 0);
    out.pin_driver_thread();
    let Some(reference) = Reference::new(&driver.pool, &mut out.check) else {
        return out;
    };
    if cfg.trace {
        traced(cfg, driver, reference, &primary, &mut out);
    } else {
        untraced(cfg, driver, reference, &primary, &mut out);
    }
    out
}

fn untraced(
    cfg: &Config,
    mut driver: Driver,
    mut reference: Reference,
    primary: &CsrMatrix<f64>,
    out: &mut Outcome,
) {
    let off = Tracer::new(false, 0);
    let (_, mut misses) = driver.setup_misses(MIN_SAMPLES, &off, &mut out.check);
    driver.warm_up(&off, &mut out.check);
    let Some(mut leg) = SessionLeg::new(cfg, primary, &mut out.check) else {
        return;
    };

    // Timed rounds. Each round's batch on a never-seen pattern is one
    // more `setup_s` sample, and every few batches the `Session` leg
    // takes a step.
    let budget = Budget::new(cfg.seconds);
    let mut rounds = 0;
    let mut latencies = Vec::new();
    let mut primary_steps = Vec::new();
    let (mut requests, mut busy) = (0usize, 0.0);
    let mut compared = [false; 14];
    while budget.more(rounds, MIN_ROUNDS) {
        for plan in round_plan(&mut driver.rng) {
            let served = driver.serve(plan, &off);
            driver.check_replies(&served, !plan.miss, &mut out.check);
            latencies.extend(std::iter::repeat_n(served.seconds * 1e3, plan.width));
            requests += plan.width;
            busy += served.seconds;
            if plan.miss {
                misses.push(served.seconds);
            } else if plan.width == 1 && plan.pattern == PRIMARY {
                primary_steps.push(served.seconds);
            }
            if served.ordinal.is_multiple_of(SESSION_LEG_EVERY) {
                leg.step(&mut out.check);
            }
            // One column per width class against the scalar solve.
            if !plan.miss && !std::mem::replace(&mut compared[plan.width], true) {
                if let Some(Ok(reply)) = driver.replies.first() {
                    reference.bit_compare(&served, reply, &mut out.check);
                }
            }
        }
        rounds += 1;
    }
    out.values.put_samples("setup_s", &misses);
    out.values.put_samples("refactor_s", &leg.refactors);
    out.values.put_samples("solve_s", &leg.solves);
    out.values.put_samples("step_s", &primary_steps);
    out.values.put("requests_per_s", requests as f64 / busy);
    out.values
        .put("request_latency_p50_ms", percentile(&latencies, 50.0));
    out.values
        .put("request_latency_p95_ms", percentile(&latencies, 95.0));
    out.values.put("peak_rss_mib", host::peak_rss_mib());
    out.fact("timed_rounds", rounds as f64);
    out.fact("timed_requests", requests as f64);
}

/// What a cache hit costs without the service around it: the same
/// refactor and one-column solve through `Session`, on the primary
/// pattern. `step_s − refactor_s − solve_s` is the service's own share.
/// The steps are taken between batches, all through the timed section,
/// so a slow phase of the machine cannot swallow every sample.
struct SessionLeg<'a> {
    session: Session<f64>,
    primary: &'a CsrMatrix<f64>,
    b: Vec<f64>,
    x: Vec<f64>,
    seed: u64,
    refactors: Vec<f64>,
    solves: Vec<f64>,
}

impl<'a> SessionLeg<'a> {
    /// Builds the session and takes one discarded step.
    fn new(cfg: &Config, primary: &'a CsrMatrix<f64>, check: &mut Check) -> Option<Self> {
        let built = Session::builder().ilu_options(ilu()).build(primary);
        check.record(built.is_ok(), || {
            format!("Session::build: {:?}", built.as_ref().err())
        });
        let n = primary.nrows();
        let mut leg = SessionLeg {
            session: built.ok()?,
            primary,
            b: rhs_panel(n, 1, cfg.seed ^ 0x5e55),
            x: vec![0.0; n],
            seed: cfg.seed.wrapping_mul(613),
            refactors: Vec::new(),
            solves: Vec::new(),
        };
        leg.step(check);
        leg.refactors.clear();
        leg.solves.clear();
        Some(leg)
    }

    fn step(&mut self, check: &mut Check) {
        self.seed = self.seed.wrapping_add(1);
        let values = perturb_values(self.primary, 0.05, self.seed);
        self.x.fill(0.0);
        let (t_refactor, refactored) = timed(|| self.session.refactor(&values));
        let (t_solve, solved) = timed(|| self.session.krylov(METHOD, &self.b, &mut self.x));
        let ok = refactored.is_ok()
            && matches!(&solved, Ok(r) if r.converged)
            && rel_residual(&values, &self.x, &self.b) <= RESIDUAL_LIMIT;
        check.record(ok, || format!("session leg: {refactored:?} {solved:?}"));
        self.refactors.push(t_refactor);
        self.solves.push(t_solve);
    }
}

fn traced(
    cfg: &Config,
    mut driver: Driver,
    mut reference: Reference,
    primary: &CsrMatrix<f64>,
    out: &mut Outcome,
) {
    let samples = if cfg.smoke { 3 } else { MIN_SAMPLES };
    let tracer = Tracer::new(true, 1 << 16);
    let (cold, misses) = driver.setup_misses(samples, &tracer, &mut out.check);
    out.values.put("session.setup_cold_s", cold);
    out.values.put_samples("service.miss_batch_s", &misses);

    let ilu = ilu();
    let b = rhs_panel(primary.nrows(), 1, cfg.seed ^ 0x5e55);
    let ctx = LayerCtx {
        a: primary,
        b: &b,
        opts: &ilu,
        method: METHOD,
        seed: cfg.seed,
        samples,
        smoke: cfg.smoke,
    };
    let Some(mut factors) = layers::setup(&ctx, &tracer, &mut out.values, &mut out.check) else {
        return;
    };
    layers::put_build_unattributed(&mut out.values, median(&misses));
    driver.warm_up(&tracer, &mut out.check);

    // Rounds. Every cache-hit batch is replayed outside the engine —
    // the same refactor and the same panel solves, under spans — so the
    // engine's own share of a batch is a difference of measured times,
    // and every reply is bit-compared against the replay.
    let budget = Budget::new(cfg.seconds / 2.0);
    let cache0 = driver.engine.cache_stats();
    let stats0 = driver.engine.stats();
    let mut first_round = None;
    let mut rounds = 0;
    let (mut hit_overhead, mut iterations, mut residuals) = (Vec::new(), Vec::new(), Vec::new());
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let mut widths = Vec::new();
    while budget.more(rounds, 1) {
        for plan in round_plan(&mut driver.rng) {
            tracer.set_request(driver.served as u32);
            let served = driver.serve(plan, &tracer);
            for (its, rel) in driver.check_replies(&served, !plan.miss, &mut out.check) {
                iterations.push(its as f64);
                residuals.push(rel);
            }
            widths.extend(
                driver
                    .replies
                    .iter()
                    .flatten()
                    .map(|r| r.panel_width as f64),
            );
            if plan.miss {
                continue;
            }
            let replay = replay(
                &mut reference,
                &served,
                &driver.replies,
                &tracer,
                &mut out.check,
            );
            hit_overhead.push(served.seconds - replay.refactor - replay.plain);
            plain.push(replay.plain);
            spanned.push(replay.spanned);
        }
        rounds += 1;
        first_round.get_or_insert_with(|| driver.engine.cache_stats());
    }
    let cache1 = first_round.expect("at least one round ran");
    let (cache, stats) = (driver.engine.cache_stats(), driver.engine.stats());
    let lookups = (cache.hits - cache0.hits) + (cache.misses - cache0.misses);
    let served_requests = (stats.requests - stats0.requests) as f64;
    out.values.put(
        "service.cache_hit_ratio",
        (cache.hits - cache0.hits) as f64 / lookups as f64,
    );
    // Exact counts over the first round, which every run completes.
    out.values.put(
        "service.cache_misses",
        (cache1.misses - cache0.misses) as f64,
    );
    out.values.put(
        "service.refactors",
        (cache1.refactors - cache0.refactors) as f64,
    );
    out.values.put(
        "service.coalesced_col_frac",
        (stats.coalesced_columns - stats0.coalesced_columns) as f64 / served_requests,
    );
    out.values.put(
        "service.mean_panel_width",
        widths.iter().sum::<f64>() / widths.len() as f64,
    );
    out.values
        .put_samples("service.hit_overhead_s", &hit_overhead);
    out.values
        .put("service.retries", (stats.retries - stats0.retries) as f64);
    out.values.put(
        "service.rejected",
        (stats.rejected - stats0.rejected) as f64,
    );
    out.values.put_samples("solver.iterations", &iterations);
    out.values.put_samples("solver.rel_residual", &residuals);
    out.values.put(
        "trace.overhead_frac",
        (spanned.iter().sum::<f64>() - plain.iter().sum::<f64>()) / plain.iter().sum::<f64>(),
    );
    out.fact("timed_rounds", rounds as f64);
    out.fact("timed_requests", served_requests);

    let engine = factors.default_engine();
    let its = median(&iterations).round() as usize;
    layers::measure(&ctx, &mut factors, engine, its, out);

    let (spans, dropped) = tracer.snapshot();
    layers::solver_span_metrics(&spans, &mut out.values);
    out.spans = spans;
    out.spans_dropped = dropped;
}

/// Seconds of a batch's standalone replay: the refactor, and the panel
/// solves without spans and under them.
struct Replay {
    refactor: f64,
    plain: f64,
    spanned: f64,
}

/// Replays a cache-hit batch on the reference factors: one refactor,
/// then the panels the engine cut the batch into, each solved twice —
/// without spans and with — and compared bit for bit with the replies.
fn replay(
    reference: &mut Reference,
    served: &Served,
    replies: &[Result<SolveReply<f64>, ServiceError>],
    tracer: &Tracer,
    check: &mut Check,
) -> Replay {
    let a = &*served.a;
    let n = a.nrows();
    let span = tracer.begin(SPAN_REPLAY);
    let f = &mut reference.factors[served.plan.pattern];
    let (t_refactor, refactored) = timed(|| tracer.span(layers::SPAN_REFACTOR, || f.refactor(a)));
    check.record(refactored.is_ok(), || {
        format!("replay refactor: {refactored:?}")
    });
    let pinned = f.with_engine(f.default_engine());
    let traced_precond = TimedPrecond {
        inner: &pinned,
        tracer,
    };
    let (mut t_plain, mut t_spanned) = (0.0, 0.0);
    let mut first = 0;
    for w in panel_chunks(served.plan.width) {
        let chunk: Vec<&SolveReply<f64>> = replies[first..first + w].iter().flatten().collect();
        first += w;
        if chunk.len() != w {
            continue; // a failed reply is already on the ledger
        }
        let b: Vec<f64> = chunk.iter().flat_map(|r| r.b.iter().copied()).collect();
        let mut x = vec![0.0; n * w];
        let mut solve = |spanned: bool, x: &mut [f64]| {
            x.fill(0.0);
            let (b, x) = (Panel::new(&b, n, w), PanelMut::new(x, n, w));
            let (opts, ws) = (&reference.opts, &mut reference.ws);
            timed(|| {
                if spanned {
                    tracer.span(layers::SPAN_KRYLOV, || {
                        krylov_panel_with(METHOD, a, b, x, &traced_precond, opts, ws)
                    })
                } else {
                    krylov_panel_with(METHOD, a, b, x, &pinned, opts, ws)
                }
            })
        };
        // One untimed solve first, so neither timed variant pays for
        // cold caches; the order of the two still alternates.
        drop(solve(false, &mut x));
        let spanned_first = served.ordinal.is_multiple_of(2);
        let (t_first, first_results) = solve(spanned_first, &mut x);
        let (t_second, results) = solve(!spanned_first, &mut x);
        drop(first_results);
        let (t_s, t_p) = if spanned_first {
            (t_first, t_second)
        } else {
            (t_second, t_first)
        };
        t_spanned += t_s;
        t_plain += t_p;
        let same = chunk
            .iter()
            .zip(&results)
            .enumerate()
            .all(|(c, (reply, res))| {
                reply.panel_width == w
                    && reply.result.iterations == res.iterations
                    && bits_equal(&reply.x, &x[c * n..(c + 1) * n])
            });
        check.record(same, || {
            format!(
                "{:?}: replies differ from the standalone panel solve",
                served.plan
            )
        });
    }
    tracer.end(span);
    Replay {
        refactor: t_refactor,
        plain: t_plain,
        spanned: t_spanned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_round_holds_every_pair_once_and_one_miss() {
        let mut rng = SplitMix(11);
        let plan = round_plan(&mut rng);
        assert_eq!(plan.len(), POOL * WIDTHS.len() + 1);
        assert_eq!(plan.iter().filter(|b| b.miss).count(), 1);
        let miss = plan.iter().position(|b| b.miss).unwrap();
        assert_eq!(plan[miss], MISS);
        assert_eq!((plan[miss - 1].pattern, plan[miss - 1].width), (PRIMARY, 1));
        for pattern in 0..POOL {
            let mut widths: Vec<usize> = plan
                .iter()
                .filter(|b| !b.miss && b.pattern == pattern)
                .map(|b| b.width)
                .collect();
            widths.sort_unstable();
            assert_eq!(widths, WIDTHS);
        }
        let requests: usize = plan.iter().map(|b| b.width).sum();
        assert_eq!(requests, POOL * 40 + 1);
        // Seeded: the same stream gives the same order, another seed
        // another order.
        assert_eq!(round_plan(&mut SplitMix(11)), plan);
        assert_ne!(round_plan(&mut SplitMix(12)), plan);
    }

    #[test]
    fn widths_split_into_the_engines_panels() {
        assert_eq!(panel_chunks(1), [1]);
        assert_eq!(panel_chunks(3), [3]);
        assert_eq!(panel_chunks(4), [4]);
        assert_eq!(panel_chunks(7), [4, 3]);
        assert_eq!(panel_chunks(8), [8]);
        assert_eq!(panel_chunks(13), [8, 4, 1]);
        assert_eq!(panel_chunks(21), [8, 8, 4, 1]);
        for w in WIDTHS {
            assert_eq!(panel_chunks(w).iter().sum::<usize>(), w);
        }
    }
}
