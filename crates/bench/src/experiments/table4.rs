//! Table IV — level-set statistics of the `lower(A)` pattern for the
//! nonsymmetric-pattern matrices.
//!
//! The paper examines whether scheduling on `lower(A)` (more/larger
//! levels for nonsymmetric patterns, but ER-only in the lower stage)
//! is worth losing Segmented-Rows; Table IV shows the level shapes that
//! drive the conclusion — the medians grow, but rarely enough to matter.

use crate::harness::{prepare, Table};
use javelin_core::level::LevelSets;
use javelin_sparse::pattern::{lower_pattern, lower_symmetrized_pattern};
use javelin_synth::suite::{paper_suite, Scale};

/// Regenerates Table IV (with the symmetrized medians for contrast).
pub fn run(scale: Scale) -> String {
    let nonsym = ["tsopf-like", "tetra3d-like", "ibm-like", "trans4-like"];
    let mut t = Table::new(&["Matrix", "Min", "Max", "Median", "| Med lower(A+A^T)"]);
    for meta in paper_suite() {
        if !nonsym.contains(&meta.name) {
            continue;
        }
        let prep = prepare(meta, scale);
        let a = &prep.matrix;
        let s = LevelSets::compute_lower(&lower_pattern(a)).stats();
        let ssym = LevelSets::compute_lower(&lower_symmetrized_pattern(a)).stats();
        t.row(vec![
            prep.meta.name.to_string(),
            s.min.to_string(),
            s.max.to_string(),
            s.median.to_string(),
            format!("| {}", ssym.median),
        ]);
    }
    format!(
        "Table IV — level sets of lower(A) for nonsymmetric-pattern matrices\n\
         (larger medians than lower(A+A^T), as the paper observes)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_the_four_nonsymmetric_matrices() {
        let r = run(Scale::Tiny);
        for name in ["tsopf-like", "tetra3d-like", "ibm-like", "trans4-like"] {
            assert!(r.contains(name), "missing {name}");
        }
        assert_eq!(r.lines().filter(|l| l.contains("-like")).count(), 4);
    }

    #[test]
    fn lower_a_median_not_smaller_than_symmetrized() {
        // lower(A) is a sub-pattern of lower(A+A^T): fewer constraints,
        // so levels can only merge or widen.
        let r = run(Scale::Tiny);
        for line in r.lines().filter(|l| l.contains("-like")) {
            let nums: Vec<usize> = line
                .split_whitespace()
                .filter_map(|c| c.parse().ok())
                .collect();
            let (med_a, med_sym) = (nums[2], nums[3]);
            assert!(med_a + 1 >= med_sym, "medians inverted: {line}");
        }
    }
}
