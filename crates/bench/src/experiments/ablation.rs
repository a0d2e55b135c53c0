//! Ablation study — the pipeline's design choices, quantified on
//! three representative matrices:
//!
//! 1. **Level pattern**: `lower(A+Aᵀ)` (default) vs `lower(A)` (more
//!    levels for nonsymmetric patterns) — paper §VII "Levels and lower
//!    size";
//! 2. **Split sensitivity**: across A ∈ {16,24,32} and no split.
//!
//! The `@14` columns are counted bounds `span(1) / span(14)` of one
//! refactor sweep (`SymbolicIlu::refactor_span`), synchronization free;
//! the `meas` columns are measured refactor times on this host at 1 and
//! 2 threads.

use crate::harness::{bound, host_note, measured_refactor, micros, prepare, Table};
use javelin_core::level::SplitOptions;
use javelin_core::{IluOptions, SymbolicIlu};
use javelin_sparse::pattern::LevelPattern;
use javelin_synth::suite::{paper_suite, Scale};

const CASES: [&str; 3] = ["tsopf-like", "ecology2-like", "trans4-like"];

/// Regenerates the ablation report.
pub fn run(scale: Scale) -> String {
    let mut out = String::new();

    // 1. Level pattern.
    let mut t = Table::new(&[
        "Matrix",
        "lvls sym",
        "lvls lower(A)",
        "sym@14",
        "lowA@14",
        "meas sym t1 us",
        "meas sym t2 us",
    ]);
    let mut t2 = Table::new(&[
        "Matrix",
        "A=16@14",
        "A=24@14",
        "A=32@14",
        "no split@14",
        "meas A=16 t1 us",
        "meas A=16 t2 us",
    ]);
    for meta in paper_suite()
        .into_iter()
        .filter(|m| CASES.contains(&m.name))
    {
        let prep = prepare(meta, scale);
        let a = &prep.matrix;
        let mut cells = vec![prep.meta.name.to_string()];
        let mut bounds = Vec::new();
        for pat in [LevelPattern::LowerSymmetrized, LevelPattern::LowerA] {
            let mut opts = IluOptions::level_scheduling_only(1);
            opts.level_pattern = pat;
            let sym = SymbolicIlu::analyze(a, &opts).expect("analysis");
            cells.push(sym.stats().n_levels.to_string());
            bounds.push(format!("{:.2}", bound(|t| sym.refactor_span(t), 14)));
        }
        cells.extend(bounds);
        cells.extend(measured_refactor(a, &IluOptions::level_scheduling_only(1)).map(micros));
        t.row(cells);

        // 2. Split sensitivity; A = 0 is no split.
        let split = |min_rows_per_level| IluOptions {
            split: SplitOptions { min_rows_per_level },
            ..IluOptions::ilu0(1)
        };
        let mut cells = vec![prep.meta.name.to_string()];
        for a_param in [16, 24, 32, 0] {
            let sym = SymbolicIlu::analyze(a, &split(a_param)).expect("analysis");
            cells.push(format!("{:.2}", bound(|t| sym.refactor_span(t), 14)));
        }
        cells.extend(measured_refactor(a, &split(16)).map(micros));
        t2.row(cells);
    }
    out.push_str("Ablation 1 — level pattern: lower(A+A^T) vs lower(A)\n\n");
    out.push_str(&t.render());
    out.push_str("\nAblation 2 — split sensitivity A\n\n");
    out.push_str(&t2.render());
    format!(
        "Ablation study (design choices; @14 columns counted: span(1) / span(14)\n\
         of one refactor sweep, synchronization free; meas columns measured on\n\
         this host: one refactor at 1 and 2 threads, best of 3)\n\n{out}{}",
        host_note()
    )
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
        // The counted columns: 2..4 of section 1, 0..4 of section 2.
        let (first, second) = r.split_once("Ablation 2").expect("two sections");
        for (section, counted) in [(first, 2..4), (second, 0..4)] {
            for line in section.lines().filter(|l| l.contains("-like")) {
                let cells: Vec<f64> = line
                    .split_whitespace()
                    .skip(1)
                    .map(|c| c.parse().unwrap())
                    .collect();
                for b in &cells[counted.clone()] {
                    assert!((1.0..=14.005).contains(b), "bound {b}: {line}");
                }
                assert!(cells[4..].iter().all(|&us| us > 0.0), "{line}");
            }
        }
    }
}
