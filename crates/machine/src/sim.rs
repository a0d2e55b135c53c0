//! Discrete-event simulation of the threaded apply on a machine model —
//! the reference benchmark's `machine.*` metrics compare it with a
//! measured two-thread apply.
//!
//! The simulator replays the analysis's own point-to-point schedules
//! (rebuilt for any thread count by `SymbolicIlu::p2p_schedules`) and
//! the Even-Rows chunking of the trailing rows, charging each row a
//! fixed cost plus a cost per entry it streams, each wait a check and,
//! when it blocks, a hand-off, and each barrier a fixed cost. The
//! machine-independent part of that walk — its critical path with
//! synchronization free — is `SymbolicIlu::apply_span`.

use crate::model::MachineModel;
use javelin_core::factors::IluFactors;
use javelin_core::level::P2PSchedule;
use javelin_core::options::SolveEngine;
use javelin_sparse::Scalar;

const NS: f64 = 1e-9;

/// Core event loop: processes the schedule's blocks in execution order
/// of their first task (every wait targets a block that ends before the
/// waiting block starts), tracking per-thread clocks. A block checks its
/// waits once, runs its tasks, and becomes visible to waiters when it
/// ends — the way the runtime publishes it
/// (`javelin_core::sync::ProgressCounters::walk`).
fn sim_p2p_schedule(
    schedule: &P2PSchedule,
    machine: &MachineModel,
    nthreads: usize,
    cost_ns: impl Fn(usize) -> f64,
) -> f64 {
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
    for (_, t, b) in order {
        let (tasks, waits) = &blocks[t][b];
        let mut start = clock[t];
        for &(wt, req) in *waits {
            start += machine.p2p_check_ns * NS;
            let dep_visible = visible[wt][req - 1];
            debug_assert!(dep_visible.is_finite(), "block {wt}/{req} never published");
            if dep_visible > start {
                start = dep_visible + machine.p2p_block_ns * NS;
            }
        }
        let work: f64 = tasks.clone().map(&cost_ns).sum();
        clock[t] = start + work * NS;
        visible[t][b] = clock[t];
    }
    clock.iter().cloned().fold(0.0, f64::max)
}

/// Simulated wall time of one preconditioner application (forward +
/// backward triangular solve) through `engine` at `nthreads` threads.
pub fn sim_trisolve_time<T: Scalar>(
    f: &IluFactors<T>,
    machine: &MachineModel,
    nthreads: usize,
    engine: SolveEngine,
) -> f64 {
    let nthreads = nthreads.clamp(1, machine.n_cores);
    let lu = f.lu();
    let dp = f.diag_positions();
    let n = lu.nrows();
    let plan = f.symbolic().plan();
    let n_upper = plan.n_upper;
    let fwd_cost = |r: usize| machine.row_solve_cost(dp[r] - lu.rowptr()[r]);
    let bwd_cost = |r: usize| machine.row_solve_cost(lu.rowptr()[r + 1] - dp[r]);
    if engine == SolveEngine::Serial || nthreads == 1 {
        return ((0..n).map(fwd_cost).sum::<f64>() + (0..n).map(bwd_cost).sum::<f64>()) * NS;
    }
    // Forward: p2p over the upper stage.
    let (fwd_sched, bwd_sched) = f.symbolic().p2p_schedules(nthreads);
    let mut fwd_s = sim_p2p_schedule(&fwd_sched, machine, nthreads, fwd_cost);
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
        // Even-Rows over the trailing rows — thread `tid` takes
        // `javelin_core::sync::col_range(n_lower, nthreads, tid)`, so
        // the worst chunk's sub-corner entries set the pace — a
        // barrier, then the serial corner and its barrier (matches the
        // engine).
        let n_lower = n - n_upper;
        let (base, extra) = (n_lower / nthreads, n_lower % nthreads);
        let mut lo = n_upper;
        let mut worst: f64 = 0.0;
        for tid in 0..nthreads {
            let hi = lo + base + usize::from(tid < extra);
            worst = worst.max((lo..hi).map(sub_corner).sum());
            lo = hi;
        }
        let gather = machine.row_solve_per_nnz_ns * worst;
        fwd_s += (gather + corner_cost) * NS + 2.0 * machine.barrier_ns * NS;
    }
    // Backward: corner first (serial), then p2p.
    let corner_bwd: f64 = (n_upper..n).map(bwd_cost).sum::<f64>() * NS;
    let bwd_s = sim_p2p_schedule(&bwd_sched, machine, nthreads, |task| {
        bwd_cost(plan.bwd_row_of_task[task])
    });
    fwd_s + corner_bwd + bwd_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use javelin_core::{factorize, IluOptions};

    /// `sim_trisolve_time` of the reference benchmark's calibrated
    /// two-core model on the 14³ convection–diffusion grid, both
    /// engines at 1 and 2 threads, bit for bit.
    #[test]
    fn trisolve_times_match_committed_pins() {
        let a = javelin_synth::grid::convection_diffusion_3d(14, 14, 14, (30.0, 20.0, 10.0));
        let f = factorize(&a, &IluOptions::ilu0(2)).unwrap();
        let base = MachineModel::generic(2);
        let sim_serial = sim_trisolve_time(&f, &base, 1, SolveEngine::Serial);
        let m = base.calibrated_to(sim_serial, 2.5e-3);
        let got: Vec<u64> = [SolveEngine::Serial, SolveEngine::PointToPointLower]
            .into_iter()
            .flat_map(|e| [1, 2].map(|t| sim_trisolve_time(&f, &m, t, e).to_bits()))
            .collect();
        let want: [u64; 4] = [
            0x3f64_7ae1_47ae_13f2,
            0x3f64_7ae1_47ae_13f2,
            0x3f64_7ae1_47ae_13f2,
            0x3f55_0253_0c62_eb38,
        ];
        assert_eq!(got, want);
    }

    /// At one thread the threaded engine's model degenerates to the
    /// serial sweep.
    #[test]
    fn one_thread_lower_equals_serial() {
        let m = MachineModel::generic(2);
        for meta in javelin_synth::suite::paper_suite().into_iter().take(4) {
            let a = meta.build_at(javelin_synth::suite::Scale::Tiny);
            let f = factorize(&a, &IluOptions::level_scheduling_only(1)).unwrap();
            let serial = sim_trisolve_time(&f, &m, 1, SolveEngine::Serial);
            let lower = sim_trisolve_time(&f, &m, 1, SolveEngine::PointToPointLower);
            assert_eq!(serial.to_bits(), lower.to_bits(), "{}", meta.name);
        }
    }

    /// With free checks and hand-offs and a unit cost per row, the
    /// event loop's clock is the schedule's weighted makespan.
    #[test]
    fn free_sync_event_loop_is_the_core_makespan() {
        let m = MachineModel {
            p2p_check_ns: 0.0,
            p2p_block_ns: 0.0,
            ..MachineModel::generic(8)
        };
        let grid = javelin_synth::grid::convection_diffusion_3d(14, 14, 14, (30.0, 20.0, 10.0));
        let circuit = javelin_synth::circuit::transient_circuit(1500, 40, false, 11);
        for a in [&grid, &circuit] {
            let f = factorize(a, &IluOptions::ilu0(1)).unwrap();
            for t in [1, 2, 3, 8] {
                let (fwd, bwd) = f.symbolic().p2p_schedules(t);
                for s in [&fwd, &bwd] {
                    let simulated = sim_p2p_schedule(s, &m, t, |_| 1.0) / NS;
                    assert_eq!(simulated.round() as usize, s.makespan(|_| 1), "t {t}");
                }
            }
        }
    }
}
