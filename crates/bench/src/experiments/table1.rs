//! Table I — test-suite statistics.
//!
//! Columns as in the paper: matrix dimension `N`, nonzeros `NNZ`, row
//! density `RD`, pattern symmetry `SP` (checked on the matrix in its
//! natural order, as the paper does), and `Lvl`, the number of level
//! sets found by the level scheduling on `lower(A+Aᵀ)` after the DM+ND
//! preordering. The paper's published values for the original
//! SuiteSparse matrices are printed alongside the synthetic analogues'.

use crate::harness::{prepare, Table};
use javelin_core::level::LevelSets;
use javelin_sparse::pattern::lower_symmetrized_pattern;
use javelin_synth::suite::{paper_suite, Scale};

/// Regenerates Table I.
pub fn run(scale: Scale) -> String {
    let mut t = Table::new(&[
        "Matrix",
        "Grp",
        "N",
        "Nnz",
        "RD",
        "SP",
        "Lvl",
        "| paper N",
        "Nnz",
        "RD",
        "SP",
        "Lvl",
    ]);
    for meta in paper_suite() {
        // SP is a property of the natural-order matrix.
        let natural = meta.build_at(scale);
        let sp = natural.is_pattern_symmetric();
        let prep = prepare(meta, scale);
        let a = &prep.matrix;
        let levels = LevelSets::compute_lower(&lower_symmetrized_pattern(a));
        let m = &prep.meta;
        t.row(vec![
            m.name.to_string(),
            m.group.to_string(),
            a.nrows().to_string(),
            a.nnz().to_string(),
            format!("{:.2}", a.row_density()),
            if sp { "yes" } else { "no" }.to_string(),
            levels.n_levels().to_string(),
            format!("| {}", m.paper.n),
            m.paper.nnz.to_string(),
            format!("{:.2}", m.paper.rd),
            if m.paper.sp { "yes" } else { "no" }.to_string(),
            m.paper.lvl.to_string(),
        ]);
    }
    format!(
        "Table I — test suite (synthetic analogues vs paper originals)\n\
         preordering: maximum transversal (DM) + nested dissection\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_contains_all_matrices() {
        let r = run(Scale::Tiny);
        assert!(r.contains("wang3-like"));
        assert!(r.contains("g3circuit-like"));
        assert_eq!(r.lines().filter(|l| l.contains("-like")).count(), 18);
    }

    #[test]
    fn symmetry_flags_match_paper() {
        let r = run(Scale::Tiny);
        for line in r.lines().filter(|l| l.contains("-like")) {
            // Our SP column and the paper's must agree (the generators
            // are matched on pattern symmetry).
            let cells: Vec<&str> = line.split_whitespace().collect();
            let ours = cells[5];
            let papers = cells[cells.len() - 2];
            assert_eq!(ours, papers, "line: {line}");
        }
    }
}
