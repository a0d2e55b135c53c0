//! Fig. 9 — slowdown of the WSMP-class heavyweight baseline relative to
//! Javelin, `slowdown(mat, p) = time(heavy, mat, p) / time(javelin, mat, p)`.
//!
//! The heavy comparator is factored for real (measuring its actual
//! gather/scatter traffic); scaling beyond one worker uses the
//! simulator's saturating model
//! (`javelin_machine::sim::sim_heavy_factor_time`). Breakdowns under the
//! strict pivot rule are printed as 'x', reproducing the failed columns
//! of the paper. A measured serial wall-clock ratio accompanies the
//! simulated columns.

use crate::harness::{prepare, time_best_of, Table};
use javelin_baseline::{HeavyIlu, HeavyOptions};
use javelin_core::{factorize, IluOptions};
use javelin_machine::{sim_factor_time, sim_heavy_factor_time, MachineModel};
use javelin_synth::suite::{paper_suite, Scale};

/// Regenerates Fig. 9 as a table.
pub fn run(scale: Scale) -> String {
    let h14 = MachineModel::haswell14();
    let knl = MachineModel::knl68();
    let heavy_opts = HeavyOptions::default();
    let mut t = Table::new(&[
        "Matrix", "meas@1", "hsw p=1", "p=2", "p=4", "p=8", "knl p=1", "p=2", "p=4", "p=8",
    ]);
    for meta in paper_suite() {
        let prep = prepare(meta, scale);
        let a = &prep.matrix;
        let mut cells = vec![prep.meta.name.to_string()];
        let jav = factorize(a, &IluOptions::level_scheduling_only(1)).expect("javelin factors");
        match HeavyIlu::factor(a, &heavy_opts) {
            Ok(heavy) => {
                // Measured serial ratio (real wall clock on this host):
                // heavy end-to-end vs Javelin's numeric phase.
                let (t_heavy, _) = time_best_of(3, || {
                    HeavyIlu::factor(a, &heavy_opts).expect("already factored once")
                });
                let t_jav = (0..3)
                    .map(|_| {
                        factorize(a, &IluOptions::level_scheduling_only(1))
                            .expect("factors")
                            .stats()
                            .t_numeric
                    })
                    .min()
                    .expect("three runs");
                let measured = t_heavy.as_secs_f64() / t_jav.as_secs_f64().max(1e-9);
                cells.push(format!("{measured:.1}"));
                let n_panels = a.nrows().div_ceil(heavy_opts.panel_size);
                for machine in [&h14, &knl] {
                    let serial_work = sim_factor_time(&jav, machine, 1).total_s;
                    for p in [1usize, 2, 4, 8] {
                        let th = sim_heavy_factor_time(
                            serial_work,
                            a.nrows(),
                            heavy.moved_entries,
                            n_panels,
                            machine,
                            p,
                        );
                        let tj = sim_factor_time(&jav, machine, p).total_s;
                        cells.push(format!("{:.1}", th / tj));
                    }
                }
            }
            Err(_) => {
                cells.push("x".into());
                for _ in 0..8 {
                    cells.push("x".into());
                }
            }
        }
        t.row(cells);
    }
    format!(
        "Fig. 9 — slowdown of the WSMP-class baseline vs Javelin ILU(0)\n\
         ('meas@1' = measured serial wall-clock ratio on this host;\n\
          p > 1 columns simulated; 'x' = baseline breakdown)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn javelin_wins_everywhere_it_factors() {
        let r = run(Scale::Tiny);
        let mut rows = 0;
        for line in r.lines().filter(|l| l.contains("-like")) {
            rows += 1;
            if line.contains(" x ") {
                continue; // breakdown column
            }
            // Simulated slowdowns (heavy/javelin) must exceed 1.
            let vals: Vec<f64> = line
                .split_whitespace()
                .skip(2) // name + measured column
                .filter_map(|c| c.parse().ok())
                .collect();
            assert!(!vals.is_empty());
            for v in vals {
                assert!(v > 1.0, "heavy should be slower: {line}");
            }
        }
        assert_eq!(rows, 18);
    }
}
