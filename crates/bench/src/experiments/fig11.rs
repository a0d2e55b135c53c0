//! Fig. 11 — Javelin ILU(0) speedup on Intel KNL: 68 cores with one
//! thread each, and 68 cores × 2 hardware threads (136).
//!
//! The KNL model's slower cores and pricier synchronization reproduce
//! the paper's observations: ≈30× for level-rich matrices and only
//! minor gains — but no collapse — from oversubscribing with SMT.

use crate::harness::{factor_variants, geo_mean, prepare, Table};
use javelin_machine::{sim_factor_time, MachineModel};
use javelin_synth::suite::{paper_suite, Scale};

/// Regenerates Fig. 11 as a table of speedups.
pub fn run(scale: Scale) -> String {
    let knl = MachineModel::knl68();
    let knl_smt = MachineModel::knl136();
    let mut t = Table::new(&["Matrix", "LS@68", "LS+Low@68", "LS@136", "LS+Low@136"]);
    let mut g = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for meta in paper_suite() {
        let prep = prepare(meta, scale);
        let f = factor_variants(&prep.matrix);
        let base = sim_factor_time(&f.ls, &knl, 1).total_s;
        let ls68 = base / sim_factor_time(&f.ls, &knl, 68).total_s;
        let low68 = base
            / sim_factor_time(&f.er, &knl, 68)
                .total_s
                .min(sim_factor_time(&f.ls, &knl, 68).total_s);
        let ls136 = base / sim_factor_time(&f.ls, &knl_smt, 136).total_s;
        let low136 = base
            / sim_factor_time(&f.er, &knl_smt, 136)
                .total_s
                .min(sim_factor_time(&f.ls, &knl_smt, 136).total_s);
        for (k, v) in [ls68, low68, ls136, low136].into_iter().enumerate() {
            g[k].push(v);
        }
        t.row(vec![
            prep.meta.name.to_string(),
            format!("{ls68:.2}"),
            format!("{low68:.2}"),
            format!("{ls136:.2}"),
            format!("{low136:.2}"),
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
        "Fig. 11 — ILU(0) factorization speedup on KNL (simulated from real\n\
         schedules; 68 cores x 1 thread, and x 2 threads = 136)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smt_does_not_collapse() {
        let r = run(Scale::Tiny);
        for line in r.lines().filter(|l| l.contains("-like")) {
            let vals: Vec<f64> = line
                .split_whitespace()
                .skip(1)
                .map(|c| c.parse().unwrap())
                .collect();
            let (ls68, ls136) = (vals[0], vals[2]);
            // Fig. 11b: "performance does not generally degrade".
            assert!(ls136 > 0.5 * ls68, "SMT collapse: {line}");
            assert!(vals.iter().all(|v| *v > 0.1 && *v <= 136.0));
        }
    }
}
