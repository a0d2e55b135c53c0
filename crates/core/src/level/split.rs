//! The two-stage split (paper §III-A, Figs. 2–3).
//!
//! Javelin factors wide levels with point-to-point level scheduling (the
//! *upper stage*) and hands a trailing suffix of narrow levels to a
//! second method, Even-Rows (the *lower stage*). The paper names three
//! criteria for the cut. One is a knob, one a constant, one is gone:
//!
//! 1. **minimum rows per level** — the knob, [`SplitOptions`]' only
//!    field: the Table-III sensitivity parameter `A ∈ {16, 24, 32}`.
//!    Trailing levels narrower than `A` are demoted;
//! 2. **relative location** — a constant: only levels in the trailing
//!    three quarters of the ordering are eligible, so a narrow level
//!    wedged *between* wide ones (Fig. 3) stays in the upper stage,
//!    where point-to-point synchronization absorbs it without a
//!    barrier;
//! 3. **row density** — deleted. It demoted levels whose mean nnz/row
//!    exceeded 8× the matrix average, and changed no split in 515
//!    analyses: the 18 suite matrices at both scales after DM + ND
//!    (A ∈ {16, 24, 32}, both level patterns, fill 0 and 1; 456
//!    analyses), the six group-A matrices in RCM and natural order, and
//!    the reference benchmark's grid and circuits.
//!
//! A second constant caps the lower stage at a fifth of the rows. The
//! two constants do change splits in those analyses (their docs say
//! where), so they stay; no study varies them, so neither is an option.

use crate::level::levels::LevelSets;
use javelin_sparse::Perm;

/// Levels before `ceil(LOCATION_FRAC · n_levels)` are never demoted
/// (the paper's relative-location criterion). It changed 22 of the 456
/// suite splits (asic680-, g3circuit- and scircuit-like, mostly at
/// fill 1), whose narrow levels reach back into the first quarter of
/// the ordering.
const LOCATION_FRAC: f64 = 0.25;

/// The lower stage takes at most `MAX_LOWER_FRAC · n` rows. It changed
/// 6 of the 456 suite splits, all at A = 16: tsopf-like at both
/// scales; tetra3d-, femfilter-, offshore- and tmtsym-like at tiny
/// scale.
const MAX_LOWER_FRAC: f64 = 0.2;

/// The two-stage split's one option.
#[derive(Debug, Clone, Copy)]
pub struct SplitOptions {
    /// Trailing levels with fewer rows than this are demoted to the
    /// lower stage — the paper's sensitivity parameter `A` (Table III
    /// uses 16/24/32). `0` demotes nothing: pure level scheduling.
    pub min_rows_per_level: usize,
}

impl Default for SplitOptions {
    fn default() -> Self {
        SplitOptions {
            min_rows_per_level: 16,
        }
    }
}

impl SplitOptions {
    /// The paper's pure level-scheduling configuration (no lower stage).
    pub fn level_scheduling_only() -> Self {
        SplitOptions {
            min_rows_per_level: 0,
        }
    }
}

/// The two-stage partition: a full symmetric permutation placing
/// upper-stage rows (grouped by level) first and demoted rows last, plus
/// the level boundaries of both stages in the *new* index space.
#[derive(Debug, Clone)]
pub struct StagePlan {
    /// Permutation into two-stage level order (new-to-old).
    pub perm: Perm,
    /// Level boundaries of the upper stage over new row indices:
    /// `upper_level_ptr[l]..upper_level_ptr[l+1]` is level `l`;
    /// the last entry equals [`StagePlan::n_upper`].
    pub upper_level_ptr: Vec<usize>,
    /// Number of upper-stage rows (= index where the lower stage begins).
    pub n_upper: usize,
}

impl StagePlan {
    /// Total number of rows.
    pub fn n(&self) -> usize {
        self.perm.len()
    }

    /// Number of lower-stage rows — the paper's `R-A` statistic.
    pub fn n_lower(&self) -> usize {
        self.n() - self.n_upper
    }

    /// Number of upper-stage levels.
    pub fn n_upper_levels(&self) -> usize {
        self.upper_level_ptr.len() - 1
    }

    /// Whether the upper levels and the trailing rows' Even-Rows chunks
    /// cover every row exactly once: each level range lies in
    /// `0..n_upper`, `chunk(tid)` for `tid < nthreads` is the chunk of
    /// trailing offsets `0..n_lower()` thread `tid` takes, and together
    /// they hit each of the `n()` rows once.
    pub(crate) fn covers_rows_once(
        &self,
        nthreads: usize,
        chunk: impl Fn(usize) -> std::ops::Range<usize>,
    ) -> bool {
        let mut hits = vec![0u8; self.n()];
        let mut hit = |rows: std::ops::Range<usize>| {
            for r in rows {
                hits[r] = hits[r].saturating_add(1);
            }
        };
        for w in self.upper_level_ptr.windows(2) {
            if w[0] > w[1] || w[1] > self.n_upper {
                return false;
            }
            hit(w[0]..w[1]);
        }
        for tid in 0..nthreads {
            let c = chunk(tid);
            if c.start > c.end || c.end > self.n_lower() {
                return false;
            }
            hit(self.n_upper + c.start..self.n_upper + c.end);
        }
        hits.iter().all(|&h| h == 1)
    }
}

/// Computes the two-stage split: walking back from the last level, it
/// demotes each level narrower than `opts.min_rows_per_level` and stops
/// at the first wider one, at the first quarter of the levels, or where
/// the lower stage would pass a fifth of the rows.
///
/// `row_nnz` is accepted and ignored: it fed the deleted row-density
/// criterion. The parameter goes with the reference benchmark's call,
/// its last user (ROADMAP item 12).
pub fn split_levels(levels: &LevelSets, _row_nnz: &[usize], opts: &SplitOptions) -> StagePlan {
    let n = levels.n_rows();
    let nl = levels.n_levels();

    // Decide the first demoted level: scan the trailing suffix.
    let eligible_from = ((nl as f64) * LOCATION_FRAC).ceil() as usize;
    let max_lower_rows = ((n as f64) * MAX_LOWER_FRAC) as usize;
    let mut first_lower_level = nl;
    let mut lower_rows = 0usize;
    while first_lower_level > eligible_from {
        let size = levels.level_size(first_lower_level - 1);
        if size >= opts.min_rows_per_level || lower_rows + size > max_lower_rows {
            break;
        }
        lower_rows += size;
        first_lower_level -= 1;
    }

    // Build the permutation: upper levels in order, then demoted levels
    // (still in level order — a valid topological order for the corner).
    let mut new_to_old = Vec::with_capacity(n);
    let mut upper_level_ptr = Vec::with_capacity(first_lower_level + 1);
    upper_level_ptr.push(0);
    for l in 0..first_lower_level {
        new_to_old.extend_from_slice(levels.level(l));
        upper_level_ptr.push(new_to_old.len());
    }
    let n_upper = new_to_old.len();
    for l in first_lower_level..nl {
        new_to_old.extend_from_slice(levels.level(l));
    }
    StagePlan {
        perm: Perm::from_new_to_old(new_to_old).expect("levels partition the rows"),
        upper_level_ptr,
        n_upper,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use javelin_sparse::pattern::lower_pattern;
    use javelin_sparse::CooMatrix;

    /// Level sizes by construction: a "staircase" dependency pattern.
    /// `widths[l]` rows in level l; each row of level l>0 depends on one
    /// row of level l-1.
    fn staircase(widths: &[usize]) -> LevelSets {
        let n: usize = widths.iter().sum();
        let mut coo = CooMatrix::new(n, n);
        let mut level_start = vec![0usize];
        for w in widths {
            level_start.push(level_start.last().unwrap() + w);
        }
        for i in 0..n {
            coo.push(i, i, 1.0).unwrap();
        }
        for l in 1..widths.len() {
            for k in 0..widths[l] {
                let row = level_start[l] + k;
                let dep = level_start[l - 1]; // first row of previous level
                coo.push(row, dep, 1.0).unwrap();
            }
        }
        LevelSets::compute_lower(&lower_pattern(&coo.to_csr()))
    }

    fn split_at(lv: &LevelSets, a: usize) -> StagePlan {
        split_levels(
            lv,
            &[],
            &SplitOptions {
                min_rows_per_level: a,
            },
        )
    }

    #[test]
    fn no_split_when_disabled() {
        let lv = staircase(&[50, 50, 2, 2]);
        let plan = split_levels(&lv, &[], &SplitOptions::level_scheduling_only());
        assert_eq!(plan.n_lower(), 0);
        assert_eq!(plan.n_upper_levels(), 4);
    }

    #[test]
    fn trailing_narrow_levels_are_demoted() {
        let plan = split_at(&staircase(&[50, 50, 3, 2]), 16);
        assert_eq!(plan.n_lower(), 5);
        assert_eq!(plan.n_upper_levels(), 2);
    }

    #[test]
    fn coverage_check_rejects_a_dropped_or_doubled_trailing_row() {
        let plan = split_at(&staircase(&[50, 50, 3, 2]), 16);
        assert_eq!(plan.n_lower(), 5);
        let even = |tid: usize| crate::sync::col_range(5, 2, tid);
        assert!(plan.covers_rows_once(2, even));
        // Thread 1 stops one row short: the last trailing row is lost.
        assert!(!plan.covers_rows_once(2, |tid| {
            let c = even(tid);
            c.start..c.end - tid
        }));
        // Both threads take thread 0's chunk: rows doubled and lost.
        assert!(!plan.covers_rows_once(2, |_| even(0)));
        // A chunk past the trailing rows.
        assert!(!plan.covers_rows_once(2, |tid| even(tid).start..6));
    }

    #[test]
    fn middle_narrow_level_stays_upper() {
        // Fig. 3 of the paper: narrow level between two wide ones.
        let plan = split_at(&staircase(&[40, 2, 40, 2]), 16);
        // Only the final level is demoted; the middle [2] survives in the
        // upper stage.
        assert_eq!(plan.n_lower(), 2);
        assert_eq!(plan.n_upper_levels(), 3);
    }

    #[test]
    fn sensitivity_parameter_moves_more_rows() {
        // 665 rows (cap 133); levels 2.. are eligible.
        let lv = staircase(&[300, 300, 30, 20, 10, 5]);
        let r16 = split_at(&lv, 16).n_lower();
        let r24 = split_at(&lv, 24).n_lower();
        let r32 = split_at(&lv, 32).n_lower();
        assert_eq!(r16, 15); // levels of 10 and 5
        assert_eq!(r24, 35); // + level of 20
        assert_eq!(r32, 65); // + level of 30
    }

    #[test]
    fn location_guard_protects_early_levels() {
        // 8 levels: levels 0 and 1 are the first quarter. Level 1 is
        // narrow and its 2 rows fit the cap (114 rows, cap 22), yet it
        // stays: only levels 2..8 are demoted.
        let plan = split_at(&staircase(&[100, 2, 2, 2, 2, 2, 2, 2]), 16);
        assert_eq!(plan.n_upper_levels(), 2);
        assert_eq!(plan.n_lower(), 12);
    }

    #[test]
    fn max_lower_frac_caps_demotion() {
        // 170 rows: at most 34 demoted. Levels 2..8 are eligible and
        // narrow, but a fourth level of 10 would make 40.
        let plan = split_at(&staircase(&[100, 10, 10, 10, 10, 10, 10, 10]), 16);
        assert_eq!(plan.n_lower(), 30);
        assert_eq!(plan.n_upper_levels(), 5);
    }

    #[test]
    fn permutation_places_lower_rows_last_in_level_order() {
        let plan = split_at(&staircase(&[30, 20, 3, 2]), 16);
        assert_eq!(plan.n_lower(), 5);
        let p = plan.perm.new_to_old();
        // Upper rows keep their level order (here: natural order).
        assert!(p[..plan.n_upper].windows(2).all(|w| w[0] < w[1]));
        // Demoted rows are the last five original rows, still ordered.
        assert_eq!(&p[plan.n_upper..], &[50, 51, 52, 53, 54]);
    }

    #[test]
    fn single_level_never_splits() {
        let plan = split_at(&staircase(&[8]), 32);
        assert_eq!(plan.n_lower(), 0);
        assert_eq!(plan.n_upper_levels(), 1);
    }
}
