//! Cross-crate simulation sanity: the machine models replaying real
//! schedules must produce physically sensible scaling for every suite
//! matrix (speedup bounded by thread count, monotone-ish behaviour,
//! engine ordering).

use javelin::core::options::SolveEngine;
use javelin::level::LevelSets;
use javelin::machine::{sim_factor_time, sim_trisolve_time, MachineModel, TrisolveModel};
use javelin::sparse::pattern::{lower_pattern, upper_pattern};
use javelin::synth::suite::paper_suite;
use javelin_bench::harness::{factor_variants, prepare};
use javelin_synth::suite::Scale;

#[test]
fn factor_speedups_bounded_by_threads() {
    let h = MachineModel::haswell14();
    for meta in paper_suite() {
        let prep = prepare(meta, Scale::Tiny);
        let f = factor_variants(&prep.matrix);
        let t1 = sim_factor_time(&f.ls, &h, 1).total_s;
        for p in [2usize, 7, 14] {
            let tp = sim_factor_time(&f.ls, &h, p).total_s;
            let speedup = t1 / tp;
            assert!(
                speedup <= p as f64 * 1.01,
                "{}: superlinear speedup {speedup:.2} at p={p}",
                prep.meta.name
            );
            assert!(speedup > 0.2, "{}: collapse at p={p}", prep.meta.name);
        }
    }
}

#[test]
fn serial_sim_equals_sum_of_costs() {
    // At one thread the simulated time must be engine-independent for
    // the p2p models (they degenerate to the serial sweep).
    let h = MachineModel::haswell14();
    for meta in paper_suite().into_iter().take(4) {
        let prep = prepare(meta, Scale::Tiny);
        let f = factor_variants(&prep.matrix);
        let serial = sim_trisolve_time(&f.ls, &h, 1, SolveEngine::Serial);
        for model in [TrisolveModel::Ls, SolveEngine::PointToPointLower.into()] {
            let p2p1 = sim_trisolve_time(&f.ls, &h, 1, model);
            assert!(
                (serial - p2p1).abs() < 1e-12,
                "{} {model:?}",
                prep.meta.name
            );
        }
    }
}

#[test]
fn knl_slower_serially_but_scales_further() {
    let h = MachineModel::haswell14();
    let k = MachineModel::knl68();
    let mut knl_wins = 0;
    let mut total = 0;
    for meta in paper_suite() {
        let prep = prepare(meta, Scale::Tiny);
        let f = factor_variants(&prep.matrix);
        let h1 = sim_factor_time(&f.ls, &h, 1).total_s;
        let k1 = sim_factor_time(&f.ls, &k, 1).total_s;
        assert!(
            k1 > h1,
            "{}: KNL core should be slower serially",
            prep.meta.name
        );
        let h_speed = h1 / sim_factor_time(&f.ls, &h, 14).total_s;
        let k_speed = k1 / sim_factor_time(&f.ls, &k, 68).total_s;
        total += 1;
        if k_speed > h_speed {
            knl_wins += 1;
        }
    }
    // With 68 slow cores vs 14 fast ones, KNL reaches higher *speedups*
    // on most matrices (paper Fig. 10 vs Fig. 11).
    assert!(knl_wins * 2 > total, "KNL won only {knl_wins}/{total}");
}

#[test]
fn barrier_engine_pays_per_level() {
    let h = MachineModel::haswell14();
    for meta in paper_suite().into_iter().take(6) {
        let prep = prepare(meta, Scale::Tiny);
        let f = factor_variants(&prep.matrix);
        let barrier = sim_trisolve_time(&f.ls, &h, 14, TrisolveModel::CsrLs);
        // The model barriers once per forward (lower-pattern) level and
        // once per backward (upper-pattern) level of the factor pattern
        // — these differ from the scheduling pattern's count on
        // nonsymmetric matrices.
        let lu = f.ls.lu();
        let fwd = LevelSets::compute_lower(&lower_pattern(lu));
        let bwd = LevelSets::compute_upper(&upper_pattern(lu));
        let n_barriers = (fwd.n_levels() + bwd.n_levels()) as f64;
        assert!(
            barrier >= n_barriers * h.barrier_ns * 1e-9,
            "{}: barrier {barrier:.3e} vs {} barrier points",
            prep.meta.name,
            n_barriers
        );
    }
}
