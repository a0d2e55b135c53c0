//! Level-set computation on triangular patterns.

use crate::pattern::CsrPattern;
use javelin_sparse::pattern::{LevelPattern, SparsityPattern};
use javelin_sparse::Perm;

/// The level structure of a triangular dependency pattern.
///
/// Level `0` rows have no dependencies; a row in level `ℓ` depends on at
/// least one row in level `ℓ-1` and none deeper. Rows are stored grouped
/// by level, ascending within each level, so
/// [`LevelSets::permutation`] is stable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelSets {
    level_ptr: Vec<usize>,
    rows: Vec<usize>,
    level_of: Vec<usize>,
}

/// Summary statistics of a level structure — the paper's Table III/IV
/// columns (`Lvl`, `M`, `Max`, `Med`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelStats {
    /// Number of levels.
    pub n_levels: usize,
    /// Minimum rows in a level.
    pub min: usize,
    /// Maximum rows in a level.
    pub max: usize,
    /// Median rows in a level (middle element of the sorted sizes).
    pub median: usize,
}

impl LevelSets {
    /// Levels of a strictly-lower triangular dependency pattern: row `i`
    /// depends on every `j` in its pattern row (all `j < i`).
    ///
    /// O(nnz + n).
    pub fn compute_lower(pattern: &SparsityPattern) -> Self {
        let n = pattern.nrows();
        let mut level_of = vec![0usize; n];
        let mut n_levels = 0usize;
        for i in 0..n {
            let mut lev = 0usize;
            for &j in pattern.row_cols(i) {
                debug_assert!(j < i, "lower pattern must be strictly lower");
                lev = lev.max(level_of[j] + 1);
            }
            level_of[i] = lev;
            n_levels = n_levels.max(lev + 1);
        }
        Self::from_level_of(level_of, n_levels)
    }

    /// The forward levels of a factor pattern `s` (with its diagonal
    /// positions) under `which`: the levels
    /// [`LevelSets::compute_lower`] gives on
    /// `level_pattern_of(s, which)`, in one pass over `s` that builds
    /// no triangle. Row `i` depends on the columns of its lower part
    /// and, under [`LevelPattern::LowerSymmetrized`], on every earlier
    /// row whose upper part names it: each finished row raises the
    /// pending level of the later rows its upper part names.
    ///
    /// O(nnz + n).
    pub(crate) fn compute_forward(s: &CsrPattern, which: LevelPattern) -> Self {
        let n = s.nrows();
        let symmetrized = which == LevelPattern::LowerSymmetrized;
        // Row i's level once i is reached; a later row's pending level.
        let mut level_of = vec![0usize; n];
        let mut n_levels = 0usize;
        for i in 0..n {
            let (row, diag) = (s.row(i), s.diag_pos[i] as usize);
            let lev = s.colidx[row.start..diag]
                .iter()
                .fold(level_of[i], |lev, &j| lev.max(level_of[j as usize] + 1));
            level_of[i] = lev;
            n_levels = n_levels.max(lev + 1);
            if symmetrized {
                for &j in &s.colidx[diag + 1..row.end] {
                    let pending = &mut level_of[j as usize];
                    *pending = (*pending).max(lev + 1);
                }
            }
        }
        Self::from_level_of(level_of, n_levels)
    }

    /// The backward levels of the first `n_upper` rows of a factor
    /// pattern `lu` (with its diagonal positions): row `r` depends on
    /// the columns of its upper part below `n_upper`, read straight from
    /// `lu`. Level `0` rows depend on no row, as for
    /// [`LevelSets::compute_lower`] with the rows taken in reverse.
    pub(crate) fn compute_backward(lu: &CsrPattern, n_upper: usize) -> Self {
        let mut level_of = vec![0usize; n_upper];
        let mut n_levels = 0usize;
        for r in (0..n_upper).rev() {
            let upper = &lu.colidx[lu.diag_pos[r] as usize + 1..lu.row(r).end];
            // Columns ascend, so the ones below `n_upper` are a prefix.
            let lev = upper
                .iter()
                .map(|&c| c as usize)
                .take_while(|&c| c < n_upper)
                .fold(0, |lev, c| lev.max(level_of[c] + 1));
            level_of[r] = lev;
            n_levels = n_levels.max(lev + 1);
        }
        Self::from_level_of(level_of, n_levels)
    }

    fn from_level_of(level_of: Vec<usize>, n_levels: usize) -> Self {
        let n = level_of.len();
        let mut level_ptr = vec![0usize; n_levels + 1];
        for &l in &level_of {
            level_ptr[l + 1] += 1;
        }
        for l in 0..n_levels {
            level_ptr[l + 1] += level_ptr[l];
        }
        let mut rows = vec![0usize; n];
        let mut next = level_ptr.clone();
        for (i, &l) in level_of.iter().enumerate() {
            rows[next[l]] = i;
            next[l] += 1;
        }
        LevelSets {
            level_ptr,
            rows,
            level_of,
        }
    }

    /// Number of levels — the paper's `Lvl` statistic.
    pub fn n_levels(&self) -> usize {
        self.level_ptr.len() - 1
    }

    /// Number of rows covered.
    pub(crate) fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Rows of level `l`, ascending.
    pub fn level(&self, l: usize) -> &[usize] {
        &self.rows[self.level_ptr[l]..self.level_ptr[l + 1]]
    }

    /// Number of rows in level `l`.
    pub(crate) fn level_size(&self, l: usize) -> usize {
        self.level_ptr[l + 1] - self.level_ptr[l]
    }

    /// The level of each row.
    pub fn level_of(&self) -> &[usize] {
        &self.level_of
    }

    /// Boundaries of the level groups within the level-ordered row list.
    #[cfg(test)]
    pub(crate) fn level_ptr(&self) -> &[usize] {
        &self.level_ptr
    }

    /// The level boundaries and the rows in level order, moved out.
    pub(crate) fn into_parts(self) -> (Vec<usize>, Vec<usize>) {
        (self.level_ptr, self.rows)
    }

    /// All rows in level order (the concatenation of the levels).
    #[cfg(test)]
    pub(crate) fn rows_in_level_order(&self) -> &[usize] {
        &self.rows
    }

    /// The level-set permutation: rows sorted by `(level, row)`.
    /// Applying it with `permute_sym` produces the structure of the
    /// paper's Fig. 2.
    pub fn permutation(&self) -> Perm {
        Perm::from_new_to_old(self.rows.clone()).expect("level sets partition the rows")
    }

    /// Summary statistics (Table III / IV columns).
    pub fn stats(&self) -> LevelStats {
        let mut sizes: Vec<usize> = (0..self.n_levels()).map(|l| self.level_size(l)).collect();
        if sizes.is_empty() {
            return LevelStats {
                n_levels: 0,
                min: 0,
                max: 0,
                median: 0,
            };
        }
        sizes.sort_unstable();
        LevelStats {
            n_levels: sizes.len(),
            min: sizes[0],
            max: *sizes.last().expect("nonempty"),
            median: sizes[sizes.len() / 2],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use javelin_sparse::pattern::{lower_pattern, lower_symmetrized_pattern};
    use javelin_sparse::CooMatrix;

    /// Bidiagonal: row i depends on i-1 → n levels of 1 row each.
    fn chain(n: usize) -> SparsityPattern {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0).unwrap();
            if i > 0 {
                coo.push(i, i - 1, 1.0).unwrap();
            }
        }
        lower_pattern(&coo.to_csr())
    }

    /// Diagonal only → a single level of n rows.
    fn diagonal(n: usize) -> SparsityPattern {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0).unwrap();
        }
        lower_pattern(&coo.to_csr())
    }

    #[test]
    fn chain_gives_n_levels() {
        let l = LevelSets::compute_lower(&chain(7));
        assert_eq!(l.n_levels(), 7);
        for i in 0..7 {
            assert_eq!(l.level(i), &[i]);
            assert_eq!(l.level_of()[i], i);
        }
        let s = l.stats();
        assert_eq!((s.min, s.max, s.median), (1, 1, 1));
    }

    #[test]
    fn diagonal_gives_one_level() {
        let l = LevelSets::compute_lower(&diagonal(9));
        assert_eq!(l.n_levels(), 1);
        assert_eq!(l.level(0).len(), 9);
    }

    #[test]
    fn binary_tree_depth_levels() {
        // Row i depends on its parent (i-1)/2 (heap layout).
        let n = 15;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0).unwrap();
            if i > 0 {
                coo.push(i, (i - 1) / 2, 1.0).unwrap();
            }
        }
        let l = LevelSets::compute_lower(&lower_pattern(&coo.to_csr()));
        assert_eq!(l.n_levels(), 4); // 1 + 2 + 4 + 8
        assert_eq!(l.level_size(0), 1);
        assert_eq!(l.level_size(3), 8);
        let s = l.stats();
        // Sizes sorted: [1, 2, 4, 8]; middle element (index 2) is 4.
        assert_eq!(s.median, 4);
    }

    #[test]
    fn levels_are_topological() {
        // Random-ish lower pattern: every dependency must cross to a
        // strictly smaller level.
        let n = 40;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0).unwrap();
            if i >= 3 {
                coo.push(i, i / 3, 1.0).unwrap();
                coo.push(i, i - 3, 1.0).unwrap();
            }
        }
        let p = lower_pattern(&coo.to_csr());
        let l = LevelSets::compute_lower(&p);
        for i in 0..n {
            for &j in p.row_cols(i) {
                assert!(l.level_of()[j] < l.level_of()[i]);
            }
        }
        // And each row has a *tight* parent unless level 0.
        for i in 0..n {
            let li = l.level_of()[i];
            if li > 0 {
                assert!(p.row_cols(i).iter().any(|&j| l.level_of()[j] == li - 1));
            }
        }
    }

    #[test]
    fn backward_levels_of_an_upper_chain() {
        // Upper bidiagonal: row i depends on i+1. With n_upper = 4 the
        // last two rows are trailing: row 3's dependency on row 4 is
        // left out.
        let lu = CsrPattern {
            rowptr: vec![0, 2, 4, 6, 8, 10, 11],
            colidx: vec![0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5],
            diag_pos: vec![0, 2, 4, 6, 8, 10],
        };
        let l = LevelSets::compute_backward(&lu, 6);
        assert_eq!(l.n_levels(), 6);
        // Last row is level 0; first row deepest.
        assert_eq!(l.level_of(), &[5, 4, 3, 2, 1, 0]);
        let l = LevelSets::compute_backward(&lu, 4);
        assert_eq!(l.level_of(), &[3, 2, 1, 0]);
    }

    #[test]
    fn permutation_orders_by_level_then_row() {
        let n = 15;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0).unwrap();
            if i > 0 {
                coo.push(i, (i - 1) / 2, 1.0).unwrap();
            }
        }
        let l = LevelSets::compute_lower(&lower_pattern(&coo.to_csr()));
        let p = l.permutation();
        // Levels in a heap layout are already contiguous ascending, so
        // the permutation is the identity.
        assert!(p.is_identity());
    }

    #[test]
    fn grid_wavefront_levels() {
        // 2D 5-pt grid in natural order: level(i,j) = i + j — the classic
        // wavefront; nx + ny - 1 levels.
        let (nx, ny) = (5, 4);
        let n = nx * ny;
        let idx = |i: usize, j: usize| i * ny + j;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..nx {
            for j in 0..ny {
                let r = idx(i, j);
                coo.push(r, r, 4.0).unwrap();
                if i > 0 {
                    coo.push(r, idx(i - 1, j), -1.0).unwrap();
                    coo.push(idx(i - 1, j), r, -1.0).unwrap();
                }
                if j > 0 {
                    coo.push(r, idx(i, j - 1), -1.0).unwrap();
                    coo.push(idx(i, j - 1), r, -1.0).unwrap();
                }
            }
        }
        let a = coo.to_csr();
        let l = LevelSets::compute_lower(&lower_symmetrized_pattern(&a));
        assert_eq!(l.n_levels(), nx + ny - 1);
        for i in 0..nx {
            for j in 0..ny {
                assert_eq!(l.level_of()[idx(i, j)], i + j);
            }
        }
    }

    #[test]
    fn empty_pattern() {
        let l = LevelSets::compute_lower(&diagonal(0));
        assert_eq!(l.n_levels(), 0);
        assert_eq!(l.stats().n_levels, 0);
    }
}
