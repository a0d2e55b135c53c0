//! Table III — level-set statistics of the `lower(A+Aᵀ)` pattern and
//! the split sensitivity study.
//!
//! `Lvl`/`M`/`Max`/`Med` describe the level structure after DM+ND
//! preordering; `R-16`, `R-24`, `R-32` count the rows the two-stage
//! split moves to the end of the matrix for the sensitivity parameter
//! A ∈ {16, 24, 32} (minimum rows per level).

use crate::harness::{prepare, Table};
use javelin_core::level::{split_levels, LevelSets, SplitOptions};
use javelin_sparse::pattern::lower_symmetrized_pattern;
use javelin_synth::suite::{paper_suite, Scale};

/// Regenerates Table III.
pub fn run(scale: Scale) -> String {
    let mut t = Table::new(&["Matrix", "Lvl", "M", "Max", "Med", "R-16", "R-24", "R-32"]);
    for meta in paper_suite() {
        let prep = prepare(meta, scale);
        let a = &prep.matrix;
        let levels = LevelSets::compute_lower(&lower_symmetrized_pattern(a));
        let s = levels.stats();
        let row_nnz: Vec<usize> = (0..a.nrows()).map(|r| a.row_nnz(r)).collect();
        let r_of = |min_rows: usize| {
            split_levels(&levels, &row_nnz, &SplitOptions::with_min_rows(min_rows)).n_lower()
        };
        t.row(vec![
            prep.meta.name.to_string(),
            s.n_levels.to_string(),
            s.min.to_string(),
            s.max.to_string(),
            s.median.to_string(),
            r_of(16).to_string(),
            r_of(24).to_string(),
            r_of(32).to_string(),
        ]);
    }
    format!(
        "Table III — level sets of lower(A+A^T) after DM+ND, and rows moved\n\
         to the lower stage for split sensitivity A in {{16, 24, 32}}\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensitivity_is_monotone() {
        let r = run(Scale::Tiny);
        for line in r.lines().filter(|l| l.contains("-like")) {
            let cells: Vec<usize> = line
                .split_whitespace()
                .skip(1)
                .map(|c| c.parse().unwrap())
                .collect();
            let (r16, r24, r32) = (cells[4], cells[5], cells[6]);
            assert!(r16 <= r24 && r24 <= r32, "non-monotone R-A: {line}");
            // Level structure sanity.
            let (lvl, min, max, med) = (cells[0], cells[1], cells[2], cells[3]);
            assert!(lvl >= 1 && min <= med && med <= max, "bad stats: {line}");
        }
    }
}
