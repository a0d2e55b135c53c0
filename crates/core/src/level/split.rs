//! The two-stage split (paper §III-A, Figs. 2–3).
//!
//! Javelin factors wide levels with point-to-point level scheduling (the
//! *upper stage*) and hands a trailing suffix of narrow or dense levels
//! to a second method, Even-Rows (the *lower stage*). Three user
//! options steer the split, exactly as in the paper:
//!
//! 1. **minimum rows per level** — the Table-III sensitivity parameter
//!    `A ∈ {16, 24, 32}`;
//! 2. **row density** — levels whose mean nnz/row exceeds a multiple of
//!    the matrix average are demoted (dense rows serialize the p2p
//!    pipeline);
//! 3. **relative location** — only levels in the trailing portion of the
//!    ordering are eligible: a narrow level wedged *between* wide ones
//!    (Fig. 3) stays in the upper stage, where point-to-point
//!    synchronization absorbs it without a barrier.

use crate::level::levels::LevelSets;
use javelin_sparse::Perm;

/// Options controlling the two-stage split.
#[derive(Debug, Clone, Copy)]
pub struct SplitOptions {
    /// Enable the lower stage at all. Disabled = pure level scheduling
    /// (the paper's "LS" configuration).
    pub enabled: bool,
    /// Levels with fewer rows than this are candidates for demotion —
    /// the paper's sensitivity parameter `A` (Table III uses 16/24/32).
    pub min_rows_per_level: usize,
    /// Levels whose mean row density exceeds `density_mult ×` the matrix
    /// average are candidates for demotion.
    pub density_mult: f64,
    /// Only levels whose index is ≥ `location_frac · n_levels` are
    /// eligible (the "relative location" option); `0.0` makes every
    /// trailing-suffix level eligible.
    pub location_frac: f64,
    /// Hard cap on the fraction of rows the lower stage may absorb.
    pub max_lower_frac: f64,
}

impl Default for SplitOptions {
    fn default() -> Self {
        SplitOptions {
            enabled: true,
            min_rows_per_level: 16,
            density_mult: 8.0,
            location_frac: 0.25,
            max_lower_frac: 0.2,
        }
    }
}

impl SplitOptions {
    /// The paper's pure level-scheduling configuration (no lower stage).
    pub fn level_scheduling_only() -> Self {
        SplitOptions {
            enabled: false,
            ..Default::default()
        }
    }

    /// Convenience: split with sensitivity parameter `a` (the Table-III
    /// `R-16` / `R-24` / `R-32` study).
    pub fn with_min_rows(a: usize) -> Self {
        SplitOptions {
            min_rows_per_level: a,
            ..Default::default()
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

/// Computes the two-stage split.
///
/// * `levels` — level sets of the chosen triangular pattern;
/// * `row_nnz` — per-row stored-entry counts of the full matrix (drives
///   the density heuristic);
/// * `opts` — split options.
pub fn split_levels(levels: &LevelSets, row_nnz: &[usize], opts: &SplitOptions) -> StagePlan {
    let n = levels.n_rows();
    assert_eq!(row_nnz.len(), n, "row_nnz length mismatch");
    let nl = levels.n_levels();
    let avg_rd = if n == 0 {
        0.0
    } else {
        row_nnz.iter().sum::<usize>() as f64 / n as f64
    };

    // Decide the first demoted level: scan the trailing suffix.
    let mut first_lower_level = nl;
    if opts.enabled && nl > 1 {
        let eligible_from = ((nl as f64) * opts.location_frac).ceil() as usize;
        let max_lower_rows = ((n as f64) * opts.max_lower_frac) as usize;
        let mut lower_rows = 0usize;
        for l in (0..nl).rev() {
            if l < eligible_from.max(1) {
                break;
            }
            let size = levels.level_size(l);
            let mean_rd =
                levels.level(l).iter().map(|&r| row_nnz[r]).sum::<usize>() as f64 / size as f64;
            let narrow = size < opts.min_rows_per_level;
            let dense = avg_rd > 0.0 && mean_rd > opts.density_mult * avg_rd;
            if !(narrow || dense) {
                break;
            }
            if lower_rows + size > max_lower_rows {
                break;
            }
            lower_rows += size;
            first_lower_level = l;
        }
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
    fn staircase(widths: &[usize]) -> (LevelSets, Vec<usize>) {
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
        let a = coo.to_csr();
        let lv = LevelSets::compute_lower(&lower_pattern(&a));
        let nnz: Vec<usize> = (0..n).map(|r| a.row_nnz(r)).collect();
        (lv, nnz)
    }

    #[test]
    fn no_split_when_disabled() {
        let (lv, nnz) = staircase(&[50, 50, 2, 2]);
        let plan = split_levels(&lv, &nnz, &SplitOptions::level_scheduling_only());
        assert_eq!(plan.n_lower(), 0);
        assert_eq!(plan.n_upper_levels(), 4);
    }

    #[test]
    fn trailing_narrow_levels_are_demoted() {
        let (lv, nnz) = staircase(&[50, 50, 3, 2]);
        let plan = split_levels(&lv, &nnz, &SplitOptions::with_min_rows(16));
        assert_eq!(plan.n_lower(), 5);
        assert_eq!(plan.n_upper_levels(), 2);
    }

    #[test]
    fn coverage_check_rejects_a_dropped_or_doubled_trailing_row() {
        let (lv, nnz) = staircase(&[50, 50, 3, 2]);
        let plan = split_levels(&lv, &nnz, &SplitOptions::with_min_rows(16));
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
        let (lv, nnz) = staircase(&[40, 2, 40, 2]);
        let plan = split_levels(&lv, &nnz, &SplitOptions::with_min_rows(16));
        // Only the final level is demoted; the middle [2] survives in the
        // upper stage.
        assert_eq!(plan.n_lower(), 2);
        assert_eq!(plan.n_upper_levels(), 3);
    }

    #[test]
    fn sensitivity_parameter_moves_more_rows() {
        let (lv, nnz) = staircase(&[100, 30, 20, 10, 5]);
        let with_a = |a: usize| SplitOptions {
            min_rows_per_level: a,
            location_frac: 0.0,
            max_lower_frac: 0.5,
            ..Default::default()
        };
        let r16 = split_levels(&lv, &nnz, &with_a(16)).n_lower();
        let r24 = split_levels(&lv, &nnz, &with_a(24)).n_lower();
        let r32 = split_levels(&lv, &nnz, &with_a(32)).n_lower();
        assert!(r16 <= r24 && r24 <= r32, "{r16} {r24} {r32}");
        assert_eq!(r16, 15); // levels of 10 and 5
        assert_eq!(r24, 35); // + level of 20
        assert_eq!(r32, 65); // + level of 30
    }

    #[test]
    fn location_guard_protects_early_levels() {
        // All levels narrow; location_frac keeps the leading portion.
        let (lv, nnz) = staircase(&[4, 4, 4, 4, 4, 4, 4, 4]);
        let opts = SplitOptions {
            min_rows_per_level: 16,
            location_frac: 0.5,
            max_lower_frac: 1.0,
            ..Default::default()
        };
        let plan = split_levels(&lv, &nnz, &opts);
        // Levels 4..8 (second half) demoted, 0..4 kept.
        assert_eq!(plan.n_upper_levels(), 4);
        assert_eq!(plan.n_lower(), 16);
    }

    #[test]
    fn max_lower_frac_caps_demotion() {
        let (lv, nnz) = staircase(&[100, 10, 10, 10, 10]);
        let opts = SplitOptions {
            min_rows_per_level: 16,
            location_frac: 0.0,
            max_lower_frac: 0.15, // at most 21 rows
            ..Default::default()
        };
        let plan = split_levels(&lv, &nnz, &opts);
        assert!(plan.n_lower() <= 21);
        assert_eq!(plan.n_lower(), 20);
    }

    #[test]
    fn dense_trailing_level_is_demoted() {
        // Wide-but-dense trailing level: demoted by the density rule.
        let n = 120;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0).unwrap();
        }
        // Level 0: rows 0..100 (sparse). Level 1: rows 100..120, each
        // depending on row 0 and carrying ~30 extra entries.
        for r in 100..n {
            coo.push(r, 0, 1.0).unwrap();
            for c in 1..30 {
                coo.push(r, c, 1.0).unwrap();
            }
        }
        let a = coo.to_csr();
        let lv = LevelSets::compute_lower(&lower_pattern(&a));
        assert_eq!(lv.n_levels(), 2);
        let nnz: Vec<usize> = (0..n).map(|r| a.row_nnz(r)).collect();
        let opts = SplitOptions {
            min_rows_per_level: 4, // size rule alone would keep it
            density_mult: 3.0,
            location_frac: 0.0,
            max_lower_frac: 0.5,
            ..Default::default()
        };
        let plan = split_levels(&lv, &nnz, &opts);
        assert_eq!(plan.n_lower(), 20);
    }

    #[test]
    fn permutation_places_lower_rows_last_in_level_order() {
        let (lv, nnz) = staircase(&[30, 20, 3, 2]);
        let plan = split_levels(&lv, &nnz, &SplitOptions::with_min_rows(16));
        assert_eq!(plan.n_lower(), 5);
        let p = plan.perm.new_to_old();
        // Upper rows keep their level order (here: natural order).
        assert!(p[..plan.n_upper].windows(2).all(|w| w[0] < w[1]));
        // Demoted rows are the last five original rows, still ordered.
        assert_eq!(&p[plan.n_upper..], &[50, 51, 52, 53, 54]);
    }

    #[test]
    fn single_level_never_splits() {
        let (lv, nnz) = staircase(&[8]);
        let plan = split_levels(&lv, &nnz, &SplitOptions::with_min_rows(32));
        assert_eq!(plan.n_lower(), 0);
        assert_eq!(plan.n_upper_levels(), 1);
    }
}
