//! Scaling study on the machine models — how a user predicts Javelin's
//! behaviour on a many-core target before buying time on it.
//!
//! Prints simulated speedup curves (factorization and triangular solve)
//! for one wide-level PDE matrix and one narrow-level strip matrix, on
//! the paper's Haswell and KNL models. The curves reproduce the shapes
//! of Figs. 10–12: near-linear scaling while levels stay wide, NUMA
//! sag across sockets, and the strip matrix exposing the limits of pure
//! level scheduling.
//!
//! ```text
//! cargo run --release --example scaling_study
//! ```

use javelin::machine::{sim_factor_time, sim_trisolve_time, MachineModel, TrisolveModel};
use javelin::prelude::*;
use javelin::synth::suite::{suite_matrix, Scale};
use javelin_bench::harness::preorder_dm_nd;

fn main() {
    let cases = [
        ("ecology2-like (wide levels)", "ecology2-like"),
        ("femfilter-like (narrow levels)", "fem_filter"),
    ];
    let machines = [MachineModel::haswell28(), MachineModel::knl68()];
    for (label, name) in cases {
        let a = preorder_dm_nd(
            &suite_matrix(name)
                .expect("suite matrix")
                .build_at(Scale::Standard),
        );
        // The Session façade owns the analysis, factors and team; the
        // simulator reads the real schedules straight out of it.
        let session = Session::builder().build(&a).expect("ILU");
        println!(
            "\n=== {label}: n = {}, levels = {} ===",
            a.nrows(),
            session.stats().n_levels
        );
        let f = session.factors();
        for m in &machines {
            println!("--- {} ---", m.name);
            println!(
                "{:>8} {:>12} {:>12} {:>12}",
                "threads", "ILU speedup", "stri LS", "stri LS+Low"
            );
            let base_f = sim_factor_time(f, m, 1).total_s;
            let base_s = sim_trisolve_time(f, m, 1, TrisolveModel::Serial);
            let sweep: Vec<usize> = [1usize, 2, 4, 8, 14, 28, 68]
                .into_iter()
                .filter(|&p| p <= m.max_threads())
                .collect();
            for p in sweep {
                let sf = base_f / sim_factor_time(f, m, p).total_s;
                let sls = base_s / sim_trisolve_time(f, m, p, TrisolveModel::Ls);
                let slo = base_s / sim_trisolve_time(f, m, p, TrisolveModel::LsLower);
                println!("{p:>8} {sf:>12.2} {sls:>12.2} {slo:>12.2}");
            }
        }
    }
    println!(
        "\n(Simulated from the real schedules; see the javelin-machine crate\n\
         docs for the machine-model substitution rationale.)"
    );
}
