//! Fig. 9 — slowdown of the WSMP-class heavyweight baseline relative to
//! Javelin, `slowdown(mat) = time(heavy, mat) / time(javelin, mat)`.
//!
//! Both are factored for real on this host, serially: the heavy
//! comparator end to end against Javelin's numeric phase. Breakdowns
//! under the strict pivot rule are printed as 'x', reproducing the
//! failed columns of the paper. The paper's multi-thread columns need
//! its machines; Figs. 10–13 give Javelin's counted bounds at their
//! thread counts.

use crate::harness::{prepare, time_best_of, Table};
use javelin_baseline::{HeavyIlu, HeavyOptions};
use javelin_core::{factorize, IluOptions};
use javelin_synth::suite::{paper_suite, Scale};

/// Regenerates Fig. 9 as a table.
pub fn run(scale: Scale) -> String {
    let heavy_opts = HeavyOptions::default();
    let mut t = Table::new(&["Matrix", "meas@1"]);
    for meta in paper_suite() {
        let prep = prepare(meta, scale);
        let a = &prep.matrix;
        let cell = match HeavyIlu::factor(a, &heavy_opts) {
            Ok(_) => {
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
                format!(
                    "{:.1}",
                    t_heavy.as_secs_f64() / t_jav.as_secs_f64().max(1e-9)
                )
            }
            Err(_) => "x".into(),
        };
        t.row(vec![prep.meta.name.to_string(), cell]);
    }
    format!(
        "Fig. 9 — slowdown of the WSMP-class baseline vs Javelin ILU(0)\n\
         ('meas@1' = measured serial wall-clock ratio on this host, best of 3;\n\
          'x' = baseline breakdown)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_matrix_has_a_ratio_or_a_breakdown() {
        let r = run(Scale::Tiny);
        let mut rows = 0;
        for line in r.lines().filter(|l| l.contains("-like")) {
            rows += 1;
            let cell = line.split_whitespace().nth(1).expect("ratio column");
            assert!(cell == "x" || cell.parse::<f64>().unwrap() > 0.0, "{line}");
        }
        assert_eq!(rows, 18);
    }
}
