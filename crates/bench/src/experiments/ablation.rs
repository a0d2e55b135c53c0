//! Ablation study — the pipeline's design choices, quantified on
//! three representative matrices:
//!
//! 1. **Level pattern**: `lower(A+Aᵀ)` (default) vs `lower(A)` (more
//!    levels for nonsymmetric patterns) — paper §VII "Levels and lower
//!    size";
//! 2. **Split sensitivity**: factorization time across A ∈ {16,24,32}.
//!
//! All timings are simulated on the Haswell-14 model from the real
//! schedules.

use crate::harness::{prepare, Table};
use javelin_core::{factorize, IluOptions};
use javelin_machine::{sim_factor_time, MachineModel};
use javelin_sparse::pattern::LevelPattern;
use javelin_synth::suite::{paper_suite, Scale};

const CASES: [&str; 3] = ["tsopf-like", "ecology2-like", "trans4-like"];

/// Regenerates the ablation report.
pub fn run(scale: Scale) -> String {
    let h14 = MachineModel::haswell14();
    let mut out = String::new();

    // 1. Level pattern.
    let mut t = Table::new(&[
        "Matrix",
        "lvls sym",
        "lvls lower(A)",
        "spd sym@14",
        "spd lowA@14",
    ]);
    for meta in paper_suite()
        .into_iter()
        .filter(|m| CASES.contains(&m.name))
    {
        let prep = prepare(meta, scale);
        let mut cells = vec![prep.meta.name.to_string()];
        let mut lvls = Vec::new();
        let mut spd = Vec::new();
        for pat in [LevelPattern::LowerSymmetrized, LevelPattern::LowerA] {
            let mut opts = IluOptions::level_scheduling_only(1);
            opts.level_pattern = pat;
            let f = factorize(&prep.matrix, &opts).expect("factors");
            lvls.push(f.stats().n_levels.to_string());
            let base = sim_factor_time(&f, &h14, 1).total_s;
            spd.push(format!(
                "{:.2}",
                base / sim_factor_time(&f, &h14, 14).total_s
            ));
        }
        cells.extend(lvls);
        cells.extend(spd);
        t.row(cells);
    }
    out.push_str("Ablation 1 — level pattern: lower(A+A^T) vs lower(A)\n\n");
    out.push_str(&t.render());

    // 2. Split sensitivity.
    let mut t = Table::new(&["Matrix", "A=16", "A=24", "A=32", "no split"]);
    for meta in paper_suite()
        .into_iter()
        .filter(|m| CASES.contains(&m.name))
    {
        let prep = prepare(meta, scale);
        let mut cells = vec![prep.meta.name.to_string()];
        for a_param in [Some(16usize), Some(24), Some(32), None] {
            let opts = match a_param {
                Some(a) => {
                    let mut o = IluOptions::ilu0(1);
                    o.split = javelin_core::level::SplitOptions::with_min_rows(a);
                    o
                }
                None => IluOptions::level_scheduling_only(1),
            };
            let f = factorize(&prep.matrix, &opts).expect("factors");
            let t14 = sim_factor_time(&f, &h14, 14).total_s;
            cells.push(format!("{:.1}us", t14 * 1e6));
        }
        t.row(cells);
    }
    out.push_str("\nAblation 2 — split sensitivity A (simulated ER factor time @14 threads)\n\n");
    out.push_str(&t.render());
    format!("Ablation study (design choices)\n\n{out}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_report_runs_and_covers_all_sections() {
        let r = run(Scale::Tiny);
        assert!(r.contains("Ablation 1"));
        assert!(r.contains("Ablation 2"));
        assert!(!r.contains("Ablation 3"));
        for c in CASES {
            assert!(r.contains(c), "missing {c}");
        }
    }
}
