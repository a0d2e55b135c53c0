//! Discrete-event simulation of Javelin's schedules on a machine model.
//!
//! The simulator replays the library's *actual* data structures: the
//! pruned point-to-point schedules (rebuilt for any thread count from
//! the factor's pattern), the full-matrix level sets of the factor
//! pattern and the Even-Rows chunking. Per-row costs use the true
//! elimination work (`nnz(row) + Σ_{c ∈ L(row)} |U(c)|` — the exact
//! inner-loop trip count of the up-looking kernel), so critical paths,
//! imbalance, and synchronization counts are the real ones; only the
//! nanosecond coefficients come from the model.
//!
//! The triangular solve is modelled under the paper's Fig. 12 labels,
//! [`TrisolveModel`]. Two of them are the library's engines — serial
//! substitution and LS+Lower ([`SolveEngine::PointToPointLower`]). The
//! other two, CSR-LS (barriered level sets) and LS (point-to-point
//! with the trailing rows solved by one thread), are modelled only:
//! they lost to LS+Lower, so the library has no engine for them.

use crate::model::MachineModel;
use javelin_core::factors::IluFactors;
use javelin_core::options::SolveEngine;
use javelin_level::{LevelSets, P2PSchedule};
use javelin_sparse::pattern::{lower_pattern, upper_pattern};
use javelin_sparse::Scalar;

/// The triangular-solve variants of the paper's Fig. 12, as the
/// simulator models them (see the module docs: `CsrLs` and `Ls` are
/// modelled only). A [`SolveEngine`] converts to its label, so
/// [`sim_trisolve_time`] takes either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrisolveModel {
    /// Serial forward + backward substitution.
    Serial,
    /// CSR-LS: full-matrix level sets of the factor pattern, one
    /// contiguous block of every level per thread, a barrier between
    /// levels.
    CsrLs,
    /// LS: point-to-point over the upper stage; the trailing rows run
    /// serially on one thread.
    Ls,
    /// LS+Lower: point-to-point over the upper stage, then Even-Rows
    /// over the trailing rows' sub-corner entries and the corner solve.
    LsLower,
}

impl From<SolveEngine> for TrisolveModel {
    fn from(engine: SolveEngine) -> Self {
        match engine {
            SolveEngine::Serial => TrisolveModel::Serial,
            SolveEngine::PointToPointLower => TrisolveModel::LsLower,
        }
    }
}

/// Simulated phase timings (seconds).
#[derive(Debug, Clone, Default)]
pub struct SimBreakdown {
    /// Total simulated wall time.
    pub total_s: f64,
    /// Upper-stage (point-to-point) portion.
    pub upper_s: f64,
    /// Lower-stage (Even-Rows + serial corner) portion.
    pub lower_s: f64,
    /// Waits that actually blocked.
    pub blocked_waits: usize,
}

const NS: f64 = 1e-9;

/// Core event loop: processes the schedule's blocks in execution order
/// of their first task (every wait targets a block that ends before the
/// waiting block starts), tracking per-thread clocks. A block checks its
/// waits once, runs its tasks, and becomes visible to waiters when it
/// ends — the way the runtime publishes it
/// (`javelin_sync::ProgressCounters::walk`).
fn sim_p2p_schedule(
    schedule: &P2PSchedule,
    machine: &MachineModel,
    nthreads: usize,
    cost_ns: impl Fn(usize) -> f64,
) -> (f64, usize) {
    let speed = machine.thread_speed(nthreads);
    let blocks: Vec<Vec<_>> = (0..nthreads)
        .map(|t| schedule.thread_blocks(t).collect())
        .collect();
    let mut order: Vec<(usize, usize, usize)> = blocks
        .iter()
        .enumerate()
        .flat_map(|(t, list)| {
            list.iter()
                .enumerate()
                .map(move |(b, (r, _))| (r.start, t, b))
        })
        .collect();
    order.sort_unstable();
    let mut visible: Vec<Vec<f64>> = blocks
        .iter()
        .map(|l| vec![f64::INFINITY; l.len()])
        .collect();
    let mut clock = vec![0.0f64; nthreads];
    let mut blocked = 0usize;
    for (_, t, b) in order {
        let (tasks, waits) = &blocks[t][b];
        let mut start = clock[t];
        for &(wt, req) in *waits {
            let mut check = machine.p2p_check_ns;
            if machine.socket_of(wt) != machine.socket_of(t) {
                check += machine.numa_penalty_ns;
            }
            start += check * NS;
            let dep_visible = visible[wt][req - 1];
            debug_assert!(dep_visible.is_finite(), "block {wt}/{req} never published");
            if dep_visible > start {
                blocked += 1;
                start = dep_visible + machine.p2p_block_ns * NS;
            }
        }
        let work: f64 = tasks.clone().map(&cost_ns).sum();
        clock[t] = start + work / speed * NS;
        visible[t][b] = clock[t];
    }
    let makespan = clock.iter().cloned().fold(0.0, f64::max);
    (makespan, blocked)
}

/// Per-row elimination work of the up-looking kernel: the exact trip
/// count of its loops on the factor pattern.
fn factor_touches<T: Scalar>(f: &IluFactors<T>) -> Vec<f64> {
    let lu = f.lu();
    let dp = f.diag_positions();
    let n = lu.nrows();
    let mut touches = vec![0.0f64; n];
    for r in 0..n {
        let mut w = (lu.rowptr()[r + 1] - lu.rowptr()[r]) as f64;
        for k in lu.rowptr()[r]..dp[r] {
            let c = lu.colidx()[k];
            w += (lu.rowptr()[c + 1] - dp[c]) as f64;
        }
        touches[r] = w;
    }
    touches
}

/// Split of a trailing row's work at the corner boundary:
/// `(pre_corner, corner)` trip counts.
fn trailing_split<T: Scalar>(f: &IluFactors<T>, r: usize) -> (f64, f64) {
    let lu = f.lu();
    let dp = f.diag_positions();
    let n_upper = f.symbolic().plan().n_upper;
    let row_nnz = (lu.rowptr()[r + 1] - lu.rowptr()[r]) as f64;
    let mut pre = 0.0;
    let mut corner = 0.0;
    for k in lu.rowptr()[r]..dp[r] {
        let c = lu.colidx()[k];
        let scan = (lu.rowptr()[c + 1] - dp[c]) as f64;
        if c < n_upper {
            pre += scan;
        } else {
            corner += scan;
        }
    }
    let pre_nnz =
        (lu.colidx()[lu.rowptr()[r]..lu.rowptr()[r + 1]].partition_point(|&c| c < n_upper)) as f64;
    (pre + pre_nnz, corner + (row_nnz - pre_nnz))
}

/// Simulated wall time of the Javelin ILU numeric factorization at
/// `nthreads` threads.
pub fn sim_factor_time<T: Scalar>(
    f: &IluFactors<T>,
    machine: &MachineModel,
    nthreads: usize,
) -> SimBreakdown {
    let nthreads = nthreads.clamp(1, machine.max_threads());
    let lu = f.lu();
    let n = lu.nrows();
    let plan = f.symbolic().plan();
    let n_upper = plan.n_upper;
    let touches = factor_touches(f);
    let cost = |r: usize| machine.row_factor_base_ns + machine.row_factor_per_nnz_ns * touches[r];
    let speed = machine.thread_speed(nthreads);

    // Upper stage.
    let (upper_s, blocked) = if nthreads == 1 {
        ((0..n_upper).map(&cost).sum::<f64>() * NS, 0)
    } else {
        let schedule = P2PSchedule::build(n_upper, nthreads, &plan.upper_level_ptr, |r, out| {
            for k in lu.rowptr()[r]..f.diag_positions()[r] {
                out.push(lu.colidx()[k]);
            }
        });
        sim_p2p_schedule(&schedule, machine, nthreads, cost)
    };

    // Lower stage.
    let mut lower_s = 0.0;
    if n_upper < n {
        let splits: Vec<(f64, f64)> = (n_upper..n).map(|r| trailing_split(f, r)).collect();
        let corner_serial: f64 = splits
            .iter()
            .map(|&(_, c)| machine.row_factor_base_ns + machine.row_factor_per_nnz_ns * c)
            .sum::<f64>()
            * NS;
        let pre_costs: Vec<f64> = splits
            .iter()
            .map(|&(p, _)| machine.row_factor_base_ns + machine.row_factor_per_nnz_ns * p)
            .collect();
        lower_s = if nthreads == 1 {
            pre_costs.iter().sum::<f64>() * NS + corner_serial
        } else {
            // Contiguous chunks of trailing rows.
            let chunk = splits.len().div_ceil(nthreads);
            let mut worst = 0.0f64;
            for c in pre_costs.chunks(chunk.max(1)) {
                worst = worst.max(c.iter().sum());
            }
            worst / speed * NS + corner_serial
        };
    }
    SimBreakdown {
        total_s: upper_s + lower_s,
        upper_s,
        lower_s,
        blocked_waits: blocked,
    }
}

/// Simulated wall time of one preconditioner application (forward +
/// backward triangular solve) at `nthreads` threads under `model` (a
/// [`TrisolveModel`] label, or the [`SolveEngine`] it stands for).
pub fn sim_trisolve_time<T: Scalar>(
    f: &IluFactors<T>,
    machine: &MachineModel,
    nthreads: usize,
    model: impl Into<TrisolveModel>,
) -> f64 {
    let model = model.into();
    let nthreads = nthreads.clamp(1, machine.max_threads());
    let lu = f.lu();
    let dp = f.diag_positions();
    let n = lu.nrows();
    let plan = f.symbolic().plan();
    let n_upper = plan.n_upper;
    let speed = machine.thread_speed(nthreads);
    let fwd_cost = |r: usize| machine.row_solve_cost(dp[r] - lu.rowptr()[r]);
    let bwd_cost = |r: usize| machine.row_solve_cost(lu.rowptr()[r + 1] - dp[r]);

    match model {
        TrisolveModel::Serial => {
            ((0..n).map(fwd_cost).sum::<f64>() + (0..n).map(bwd_cost).sum::<f64>()) * NS
        }
        TrisolveModel::CsrLs => {
            let fwd_levels = LevelSets::compute_lower(&lower_pattern(lu));
            let bwd_levels = LevelSets::compute_upper(&upper_pattern(lu));
            let mut t = 0.0;
            for (levels, cost) in [
                (&fwd_levels, &fwd_cost as &dyn Fn(usize) -> f64),
                (&bwd_levels, &bwd_cost as &dyn Fn(usize) -> f64),
            ] {
                for l in 0..levels.n_levels() {
                    let rows = levels.level(l);
                    // One contiguous block of the level per thread, as
                    // the engine splits it.
                    let chunk = rows.len().div_ceil(nthreads).max(1);
                    let worst = rows
                        .chunks(chunk)
                        .map(|b| b.iter().map(|&r| cost(r)).sum::<f64>())
                        .fold(0.0, f64::max);
                    t += worst / speed * NS + machine.barrier_ns * NS;
                }
            }
            t
        }
        TrisolveModel::Ls | TrisolveModel::LsLower => {
            if nthreads == 1 {
                return sim_trisolve_time(f, machine, 1, TrisolveModel::Serial);
            }
            // Forward: p2p over the upper stage.
            let fwd_sched =
                P2PSchedule::build(n_upper, nthreads, &plan.upper_level_ptr, |r, out| {
                    for k in lu.rowptr()[r]..dp[r] {
                        let c = lu.colidx()[k];
                        if c < n_upper {
                            out.push(c);
                        }
                    }
                });
            let (mut fwd_s, _) = sim_p2p_schedule(&fwd_sched, machine, nthreads, fwd_cost);
            // Trailing forward part.
            if n_upper < n {
                fwd_s += machine.barrier_ns * NS;
                let sub_corner = |r: usize| {
                    let (k_lo, k_hi) = plan.block_rows[r - n_upper];
                    (k_hi - k_lo) as f64
                };
                let corner_cost: f64 = (n_upper..n)
                    .map(|r| {
                        let (k_lo, k_hi) = plan.block_rows[r - n_upper];
                        let corner_l = (dp[r] - k_lo) - (k_hi - k_lo);
                        machine.row_solve_cost(corner_l)
                    })
                    .sum();
                if model == TrisolveModel::LsLower {
                    // Even-Rows over the trailing rows — thread `tid`
                    // takes `javelin_sync::col_range(n_lower, nthreads,
                    // tid)`, so the worst chunk's sub-corner entries set
                    // the pace — a barrier, then the serial corner and
                    // its barrier (matches engines.rs).
                    let n_lower = n - n_upper;
                    let (base, extra) = (n_lower / nthreads, n_lower % nthreads);
                    let mut lo = n_upper;
                    let mut worst: f64 = 0.0;
                    for tid in 0..nthreads {
                        let hi = lo + base + usize::from(tid < extra);
                        worst = worst.max((lo..hi).map(sub_corner).sum());
                        lo = hi;
                    }
                    let gather = machine.row_solve_per_nnz_ns * worst / speed;
                    fwd_s += (gather + corner_cost) * NS + 2.0 * machine.barrier_ns * NS;
                } else {
                    // Thread 0 does the whole trailing part serially,
                    // then the team re-joins.
                    let block_entries: f64 = (n_upper..n).map(sub_corner).sum();
                    let serial_block = machine.row_solve_per_nnz_ns * block_entries;
                    fwd_s += (serial_block + corner_cost) * NS + machine.barrier_ns * NS;
                }
            }
            // Backward: corner first (serial), then p2p.
            let corner_bwd: f64 = (n_upper..n).map(bwd_cost).sum::<f64>() * NS;
            let bwd_sched =
                P2PSchedule::build(n_upper, nthreads, &plan.bwd_level_ptr, |task, out| {
                    let r = plan.bwd_row_of_task[task];
                    for k in (dp[r] + 1)..lu.rowptr()[r + 1] {
                        let c = lu.colidx()[k];
                        if c < n_upper {
                            // Map row -> backward execution index.
                            let dep_task = plan
                                .bwd_row_of_task
                                .iter()
                                .position(|&x| x == c)
                                .expect("row present");
                            out.push(dep_task);
                        }
                    }
                });
            let (bwd_s, _) = sim_p2p_schedule(&bwd_sched, machine, nthreads, |task| {
                bwd_cost(plan.bwd_row_of_task[task])
            });
            fwd_s + corner_bwd + bwd_s
        }
    }
}

/// Simulated wall time of the heavyweight (WSMP-class) comparator
/// factorization.
///
/// The comparator executes the *same* elimination sweeps as Javelin
/// (verified by the value-equality tests in `javelin-baseline`), so its
/// work is Javelin's serial work (`javelin_serial_s`, from
/// [`sim_factor_time`] at one thread) **plus** the supernodal overheads:
/// per-row gather/scatter setup and per-entry data movement charged at
/// 8× the streaming rate (indirect, cache-hostile copies), with
/// panel-level synchronization and scaling that saturates at ~8 workers
/// — the paper's observation. WSMP's additional symbolic/allocation
/// overheads are not modeled (see `javelin-baseline`'s `heavy` module
/// docs for what the comparator reproduces), so the absolute gap is
/// understated relative to the paper's multiple magnitudes; the shape
/// (always slower, stops scaling) is preserved.
pub fn sim_heavy_factor_time(
    javelin_serial_s: f64,
    n_rows: usize,
    moved_entries: usize,
    n_panels: usize,
    machine: &MachineModel,
    nthreads: usize,
) -> f64 {
    let nthreads = nthreads.clamp(1, machine.max_threads()) as f64;
    let move_ns = 8.0 * machine.row_factor_per_nnz_ns;
    let serial = 0.25; // non-parallelizable fraction (symbolic, assembly)
    let work = javelin_serial_s
        + (n_rows as f64 * 2.0 * machine.row_factor_base_ns + moved_entries as f64 * move_ns) * NS;
    let effective_p = nthreads.min(8.0);
    let sync = n_panels as f64 * machine.barrier_ns * (nthreads - 1.0).max(0.0).sqrt() * NS;
    work * serial + work * (1.0 - serial) / effective_p + sync
}

#[cfg(test)]
mod tests {
    use super::*;
    use javelin_core::{factorize, IluOptions};
    use javelin_sparse::{CooMatrix, CsrMatrix};

    fn grid(nx: usize, ny: usize) -> CsrMatrix<f64> {
        let n = nx * ny;
        let idx = |i: usize, j: usize| i * ny + j;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..nx {
            for j in 0..ny {
                let r = idx(i, j);
                coo.push(r, r, 4.0).unwrap();
                if i + 1 < nx {
                    coo.push(r, idx(i + 1, j), -1.0).unwrap();
                    coo.push(idx(i + 1, j), r, -1.0).unwrap();
                }
                if j + 1 < ny {
                    coo.push(r, idx(i, j + 1), -1.0).unwrap();
                    coo.push(idx(i, j + 1), r, -1.0).unwrap();
                }
            }
        }
        coo.to_csr()
    }

    fn chain(n: usize) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
            if i > 0 {
                coo.push(i, i - 1, -1.0).unwrap();
                coo.push(i - 1, i, -1.0).unwrap();
            }
        }
        coo.to_csr()
    }

    #[test]
    fn factor_speedup_grows_then_saturates() {
        let a = grid(40, 40);
        let f = factorize(&a, &IluOptions::default()).unwrap();
        let m = MachineModel::haswell14();
        let t1 = sim_factor_time(&f, &m, 1).total_s;
        let t4 = sim_factor_time(&f, &m, 4).total_s;
        let t14 = sim_factor_time(&f, &m, 14).total_s;
        assert!(t4 < t1, "4 threads should beat 1: {t4} vs {t1}");
        assert!(t14 < t4, "14 threads should beat 4");
        let s14 = t1 / t14;
        assert!(
            s14 > 3.0 && s14 < 14.0,
            "speedup {s14} out of plausible range"
        );
    }

    #[test]
    fn chain_matrix_cannot_scale() {
        // A pure dependency chain has level width 1: no speedup, only
        // sync overhead.
        let a = chain(400);
        let f = factorize(&a, &IluOptions::level_scheduling_only(1)).unwrap();
        let m = MachineModel::haswell14();
        let t1 = sim_factor_time(&f, &m, 1).total_s;
        let t8 = sim_factor_time(&f, &m, 8).total_s;
        assert!(t8 >= t1 * 0.95, "chain must not speed up: {t1} -> {t8}");
    }

    #[test]
    fn p2p_beats_barrier_for_trisolve() {
        let a = grid(30, 30);
        let f = factorize(&a, &IluOptions::default()).unwrap();
        let m = MachineModel::haswell14();
        let barrier = sim_trisolve_time(&f, &m, 14, TrisolveModel::CsrLs);
        let p2p = sim_trisolve_time(&f, &m, 14, TrisolveModel::Ls);
        assert!(
            p2p < barrier,
            "p2p {p2p} should beat barriered level sets {barrier}"
        );
    }

    #[test]
    fn numa_hurts_cross_socket_scaling() {
        let a = grid(40, 40);
        let f = factorize(&a, &IluOptions::default()).unwrap();
        let h14 = MachineModel::haswell14();
        let h28 = MachineModel::haswell28();
        let s14 = sim_factor_time(&f, &h14, 1).total_s / sim_factor_time(&f, &h14, 14).total_s;
        let s28 = sim_factor_time(&f, &h28, 1).total_s / sim_factor_time(&f, &h28, 28).total_s;
        // 28 cores may still be faster, but nowhere near 2x the 14-core
        // speedup — the paper's Fig. 10 observation.
        assert!(s28 < 1.8 * s14, "s14={s14:.2} s28={s28:.2}");
    }

    #[test]
    fn smt_gains_are_minor() {
        let a = grid(40, 40);
        let f = factorize(&a, &IluOptions::default()).unwrap();
        let knl = MachineModel::knl136();
        let t68 = sim_factor_time(&f, &knl, 68).total_s;
        let t136 = sim_factor_time(&f, &knl, 136).total_s;
        // Fig. 11b: "minor performance can be gained ... performance
        // does not generally degrade" — allow ±40%.
        assert!(t136 < t68 * 1.4, "t68={t68} t136={t136}");
    }

    #[test]
    fn heavy_is_slower_and_stops_scaling() {
        let m = MachineModel::haswell14();
        let t1 = sim_heavy_factor_time(1e-3, 3000, 100_000, 100, &m, 1);
        let t8 = sim_heavy_factor_time(1e-3, 3000, 100_000, 100, &m, 8);
        let t14 = sim_heavy_factor_time(1e-3, 3000, 100_000, 100, &m, 14);
        assert!(t8 < t1);
        // Past 8 workers: no further gain (sync grows).
        assert!(t14 >= t8 * 0.95);
    }

    #[test]
    fn trisolve_engines_ranked_sensibly() {
        // A power-network matrix (TSOPF-like): dense trailing rows with
        // a substantial sub-corner block — where the paper's LS+Lower
        // pays off for stri.
        let a = javelin_synth::circuit::power_grid(1800, 70, 2, 7);
        let mut opts = IluOptions::ilu0(1);
        opts.split.min_rows_per_level = 24;
        opts.split.location_frac = 0.1;
        opts.split.max_lower_frac = 0.3;
        let f = factorize(&a, &opts).unwrap();
        assert!(f.stats().n_lower_rows > 100, "want a real trailing block");
        let m = MachineModel::knl68();
        let serial = sim_trisolve_time(&f, &m, 1, SolveEngine::Serial);
        let barrier = sim_trisolve_time(&f, &m, 68, TrisolveModel::CsrLs);
        let ls = sim_trisolve_time(&f, &m, 68, TrisolveModel::Ls);
        let lower = sim_trisolve_time(&f, &m, 68, SolveEngine::PointToPointLower);
        assert!(
            lower < ls,
            "LS+Lower {lower} should beat LS {ls} on a big trailing block"
        );
        assert!(
            lower < serial,
            "LS+Lower {lower} should beat serial {serial}"
        );
        assert!(
            barrier > ls,
            "per-level barriers {barrier} should lose to LS {ls}"
        );
    }

    #[test]
    fn lower_stage_never_hurts_much_on_thin_blocks() {
        // Strip matrices park a self-coupled tail in the corner: the
        // Even-Rows stage has little to chew on (the paper's fem_filter
        // case). LS+Lower must stay within a barrier or two of LS.
        let a = javelin_synth::fem::shell_strip(60, 3, 4, 7);
        let mut opts = IluOptions::ilu0(1);
        opts.split.min_rows_per_level = 48;
        opts.split.location_frac = 0.1;
        opts.split.max_lower_frac = 0.3;
        let f = factorize(&a, &opts).unwrap();
        let m = MachineModel::knl68();
        let ls = sim_trisolve_time(&f, &m, 68, TrisolveModel::Ls);
        let lower = sim_trisolve_time(&f, &m, 68, SolveEngine::PointToPointLower);
        assert!(
            lower <= ls + 2.0 * m.barrier_ns * 1e-9,
            "lower {lower} vs ls {ls}"
        );
    }

    #[test]
    fn ls_beats_serial_on_wide_levels() {
        let a = grid(36, 36);
        let f = factorize(&a, &IluOptions::default()).unwrap();
        let m = MachineModel::knl68();
        let serial = sim_trisolve_time(&f, &m, 1, SolveEngine::Serial);
        let ls = sim_trisolve_time(&f, &m, 68, TrisolveModel::Ls);
        assert!(
            ls < serial,
            "LS {ls} must beat serial {serial} on a wide grid"
        );
    }

    #[test]
    fn thread_count_clamped_to_machine() {
        let a = grid(10, 10);
        let f = factorize(&a, &IluOptions::default()).unwrap();
        let m = MachineModel::generic(4);
        let t4 = sim_factor_time(&f, &m, 4).total_s;
        let t99 = sim_factor_time(&f, &m, 99).total_s;
        assert_eq!(t4, t99);
    }
}
