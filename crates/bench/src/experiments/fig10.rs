//! Fig. 10 — Javelin ILU(0) speedup on Intel Haswell, 14 and 28 cores.
//!
//! Bars: `LS` (level scheduling with point-to-point synchronization
//! only) and `LS+Lower` (the better of LS and the Even-Rows two-stage
//! split), speedup relative to the serial factorization. Scaling curves
//! come from the machine-model simulator replaying the real schedules
//! (`javelin_machine`); the NUMA penalty of the two-socket model
//! reproduces the paper's cross-socket falloff.

use crate::harness::{factor_variants, geo_mean, prepare, Table};
use javelin_machine::{sim_factor_time, MachineModel};
use javelin_synth::suite::{paper_suite, Scale};

/// Regenerates Fig. 10 as a table of speedups.
pub fn run(scale: Scale) -> String {
    let h14 = MachineModel::haswell14();
    let h28 = MachineModel::haswell28();
    let mut t = Table::new(&["Matrix", "LS@14", "LS+Low@14", "LS@28", "LS+Low@28"]);
    let mut g = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for meta in paper_suite() {
        let prep = prepare(meta, scale);
        let f = factor_variants(&prep.matrix);
        let base14 = sim_factor_time(&f.ls, &h14, 1).total_s;
        let base28 = sim_factor_time(&f.ls, &h28, 1).total_s;
        let ls14 = base14 / sim_factor_time(&f.ls, &h14, 14).total_s;
        let low14 = base14
            / sim_factor_time(&f.er, &h14, 14)
                .total_s
                .min(sim_factor_time(&f.ls, &h14, 14).total_s);
        let ls28 = base28 / sim_factor_time(&f.ls, &h28, 28).total_s;
        let low28 = base28
            / sim_factor_time(&f.er, &h28, 28)
                .total_s
                .min(sim_factor_time(&f.ls, &h28, 28).total_s);
        for (k, v) in [ls14, low14, ls28, low28].into_iter().enumerate() {
            g[k].push(v);
        }
        t.row(vec![
            prep.meta.name.to_string(),
            format!("{ls14:.2}"),
            format!("{low14:.2}"),
            format!("{ls28:.2}"),
            format!("{low28:.2}"),
        ]);
    }
    t.row(vec![
        "geomean".to_string(),
        format!("{:.2}", geo_mean(&g[0])),
        format!("{:.2}", geo_mean(&g[1])),
        format!("{:.2}", geo_mean(&g[2])),
        format!("{:.2}", geo_mean(&g[3])),
    ]);
    format!(
        "Fig. 10 — ILU(0) factorization speedup on Haswell (simulated from\n\
         real schedules; speedup = time(1 thread) / time(p threads))\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedups_plausible_and_present() {
        let r = run(Scale::Tiny);
        assert!(r.contains("geomean"));
        for line in r.lines().filter(|l| l.contains("-like")) {
            let vals: Vec<f64> = line
                .split_whitespace()
                .skip(1)
                .map(|c| c.parse().unwrap())
                .collect();
            for v in &vals {
                assert!(*v > 0.1 && *v <= 28.0, "implausible speedup {v}: {line}");
            }
        }
    }
}
