//! Symbolic ILU(k): computing the fill pattern.
//!
//! `iluk_pattern_serial` runs Saad's level-of-fill recurrence
//! (*Iterative Methods for Sparse Linear Systems*, §10.3.3)
//! `lev(i,j) = min over c < min(i,j) of lev(i,c) + lev(c,j) + 1`
//! (levels of original entries are 0; entries with `lev ≤ k` are kept)
//! row by row, at `u32` indices:
//!
//! * each finished row is stored as packed `u32` `[column, level]` pairs,
//!   and its diagonal position is recorded as the row is written, so a
//!   later row reads row `c`'s upper part straight after `c`'s
//!   diagonal;
//! * the row being built is an unsorted list of its columns beside a
//!   dense `lev[]` mark per column, sorted once when it is written out;
//! * its lower columns are eliminated in ascending order: `A`'s own
//!   lower columns (already sorted, level 0) merged with a min-heap of
//!   the lower fill columns whose level is below `k` (a column of level
//!   `k` creates no fill, so it never enters the heap; at `k = 1` the
//!   heap stays empty).
//!
//! `ILU(0)` short-circuits to the input pattern. The result is the
//! analysis's own [`CsrPattern`] (columns and diagonal positions, no
//! levels), so nothing downstream widens it.
//!
//! Its test oracle is the Hysom–Pothen formulation (the paper's
//! reference \[6\]): a fill entry `(i,j)` of level `ℓ` corresponds to a
//! shortest *fill path* `i ⇝ j` of length `ℓ+1` in the digraph of `A`
//! whose interior vertices are all smaller than `min(i,j)`, found by an
//! independent bounded search per row. Both must return identical
//! patterns (property-tested), as must a dense run of the recurrence.

use crate::numeric::kernel::index_u32;
use crate::pattern::CsrPattern;
use javelin_sparse::{CsrMatrix, Scalar, SparseError};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// `lev[c]` of a column the row being built does not hold.
const ABSENT: u32 = u32::MAX;

/// Computes the ILU(k) fill pattern of `a` (which must have a full
/// structural diagonal), with each row's diagonal position. The
/// returned pattern always contains every entry of `a` plus fill
/// entries of level ≤ `k`. No fill path has more than `n - 2` interior
/// vertices, so `k` is clamped to `n - 1`: any larger `k` gives the
/// same pattern, and every level fits a `u32`.
///
/// # Errors
/// [`SparseError::NotSquare`] / [`SparseError::MissingDiagonal`], and
/// [`SparseError::InvalidStructure`] when `a`'s or the result's entry
/// count exceeds the `u32` index range.
pub(crate) fn iluk_pattern_serial<T: Scalar>(
    a: &CsrMatrix<T>,
    k: usize,
) -> Result<CsrPattern, SparseError> {
    if !a.is_square() {
        return Err(SparseError::NotSquare {
            nrows: a.nrows(),
            ncols: a.ncols(),
        });
    }
    let n = a.nrows();
    // Every column, and `n` itself, is below `nnz_a`: each row stores
    // its diagonal.
    index_u32(a.nnz(), "nnz_a")?;
    let k = k.min(n.saturating_sub(1)) as u32;
    if k == 0 {
        let mut p = CsrPattern::of_matrix(a)?;
        // Sized up front: a collected `Result` carries no length hint.
        p.diag_pos = Vec::with_capacity(n);
        for i in 0..n {
            p.diag_pos.push((a.rowptr()[i] + diag_in_row(a, i)?) as u32);
        }
        return Ok(p);
    }
    let mut rowptr = vec![0u32; n + 1];
    let mut diag_pos: Vec<u32> = Vec::with_capacity(n);
    // Finished rows: entry `e` is the pair `ent[2e..2e + 2]` =
    // `[column, level]`, ascending by column within a row.
    let mut ent: Vec<u32> = Vec::with_capacity(4 * a.nnz());
    // The row being built: its columns in insertion order, and the
    // level of each (`ABSENT` outside the row).
    let mut row: Vec<u32> = Vec::new();
    let mut lev = vec![ABSENT; n];
    // Lower fill columns of the row whose level is below `k`.
    let mut pending: BinaryHeap<Reverse<u32>> = BinaryHeap::new();

    for i in 0..n {
        let cols = a.row_cols(i);
        let a_lower = &cols[..diag_in_row(a, i)?];
        for &c in cols {
            lev[c] = 0;
            row.push(c as u32);
        }
        // Up-looking sweep: eliminate the lower columns in ascending
        // order. A column's level is final when it is taken, since only
        // smaller columns lower it.
        let mut next_a = 0;
        loop {
            let c = match (a_lower.get(next_a), pending.peek()) {
                (Some(&ca), Some(&Reverse(cf))) if (cf as usize) < ca => {
                    pending.pop();
                    cf as usize
                }
                (Some(&ca), _) => {
                    next_a += 1;
                    ca
                }
                (None, Some(&Reverse(cf))) => {
                    pending.pop();
                    cf as usize
                }
                (None, None) => break,
            };
            let lc = lev[c];
            // Merge row c's upper part: lev(c,j) + lc + 1 ≤ k keeps j.
            let upper = 2 * (diag_pos[c] as usize + 1)..2 * rowptr[c + 1] as usize;
            for pair in ent[upper].chunks_exact(2) {
                let (j, lcj) = (pair[0], pair[1]);
                if lcj >= k - lc {
                    continue;
                }
                let l = lc + lcj + 1;
                let old = lev[j as usize];
                if l < old {
                    if old == ABSENT {
                        row.push(j);
                    }
                    lev[j as usize] = l;
                    // A lower column that can now eliminate: new, or
                    // lowered from level k.
                    if (j as usize) < i && l < k && old >= k {
                        pending.push(Reverse(j));
                    }
                }
            }
        }
        // Write the row out, ascending, and clear the workspace.
        row.sort_unstable();
        let mut diag = 0;
        for &c in &row {
            if c as usize == i {
                diag = ent.len() / 2;
            }
            ent.extend([c, lev[c as usize]]);
            lev[c as usize] = ABSENT;
        }
        row.clear();
        rowptr[i + 1] = index_u32(ent.len() / 2, "nnz_lu")?;
        // Below the row's end, which fits.
        diag_pos.push(diag as u32);
    }
    // Keep the columns in place: entry e's moves from slot 2e to e. The
    // pattern lives only until the analysis has permuted it, so the
    // spare capacity is not given back.
    let nnz = ent.len() / 2;
    for e in 0..nnz {
        ent[e] = ent[2 * e];
    }
    ent.truncate(nnz);
    Ok(CsrPattern {
        rowptr,
        colidx: ent,
        diag_pos,
    })
}

/// Position of row `i`'s diagonal among the row's columns.
fn diag_in_row<T: Scalar>(a: &CsrMatrix<T>, i: usize) -> Result<usize, SparseError> {
    let cols = a.row_cols(i);
    let d = cols.partition_point(|&c| c < i);
    if cols.get(d) == Some(&i) {
        Ok(d)
    } else {
        Err(SparseError::MissingDiagonal { row: i })
    }
}

/// The fill-path oracle of [`iluk_pattern_serial`] (see module docs).
#[cfg(test)]
mod fill_path {
    use super::*;
    use javelin_sparse::pattern::SparsityPattern;

    /// The oracle's input check: a square matrix with a full diagonal.
    fn validate<T: Scalar>(a: &CsrMatrix<T>) -> Result<(), SparseError> {
        if !a.is_square() {
            return Err(SparseError::NotSquare {
                nrows: a.nrows(),
                ncols: a.ncols(),
            });
        }
        a.diag_positions().map(|_| ())
    }

    /// ILU(k) pattern via per-row fill-path searches (Hysom–Pothen).
    pub fn iluk_pattern_fill_path<T: Scalar>(
        a: &CsrMatrix<T>,
        k: usize,
    ) -> Result<SparsityPattern, SparseError> {
        validate(a)?;
        if k == 0 {
            return Ok(SparsityPattern::of(a));
        }
        let n = a.nrows();
        let mut ws = RowSearch::new(n, k);
        let mut rowptr = vec![0usize; n + 1];
        let mut colidx = Vec::new();
        for i in 0..n {
            colidx.extend(ws.row_pattern(a, i));
            rowptr[i + 1] = colidx.len();
        }
        Ok(SparsityPattern::from_raw(n, n, rowptr, colidx))
    }

    /// Per-row fill-path search workspace.
    ///
    /// Encoding: `m_enc` is "one plus the largest interior vertex" of the
    /// best path so far (0 = no interiors). A path ending at `w` is a fill
    /// path for `(i, w)` iff `m_enc ≤ min(i, w)`.
    struct RowSearch {
        k: usize,
        /// Best-known level per column for the current row; MAX = absent.
        lev: Vec<usize>,
        touched: Vec<usize>,
        /// Best-known `m_enc` per (depth, vertex); MAX = unvisited.
        m_best: Vec<usize>,
        m_touched: Vec<usize>,
        frontier: Vec<(usize, usize)>,
        next_frontier: Vec<(usize, usize)>,
    }

    impl RowSearch {
        fn new(n: usize, k: usize) -> Self {
            RowSearch {
                k,
                lev: vec![usize::MAX; n],
                touched: Vec::new(),
                m_best: vec![usize::MAX; n * k.max(1)],
                m_touched: Vec::new(),
                frontier: Vec::new(),
                next_frontier: Vec::new(),
            }
        }

        fn row_pattern<T: Scalar>(&mut self, a: &CsrMatrix<T>, i: usize) -> Vec<usize> {
            let k = self.k;
            // Depth 1: the original entries (level 0); interiors: none.
            for &c in a.row_cols(i) {
                self.set_lev(c, 0);
                if c < i {
                    self.frontier.push((c, 0));
                }
            }
            // Depths 2..=k+1: expand through interior vertices (< i).
            for len in 2..=(k + 1) {
                self.next_frontier.clear();
                // Drain the frontier without holding a borrow across the
                // mutation of `self` state.
                let frontier = std::mem::take(&mut self.frontier);
                for &(v, m_enc) in &frontier {
                    let m_new = m_enc.max(v + 1);
                    for &w in a.row_cols(v) {
                        if w == i {
                            continue;
                        }
                        let fill_lev = len - 1;
                        if m_new <= i.min(w) && self.lev_of(w) > fill_lev {
                            self.set_lev(w, fill_lev);
                        }
                        if w < i && len < k + 1 {
                            let slot = (len - 1) * a.nrows() + w;
                            if self.m_best[slot] > m_new {
                                if self.m_best[slot] == usize::MAX {
                                    self.m_touched.push(slot);
                                }
                                self.m_best[slot] = m_new;
                                self.next_frontier.push((w, m_new));
                            }
                        }
                    }
                }
                self.frontier = frontier; // reuse allocation
                self.frontier.clear();
                std::mem::swap(&mut self.frontier, &mut self.next_frontier);
                if self.frontier.is_empty() {
                    break;
                }
            }
            // Collect, sort, reset.
            let mut cols: Vec<usize> = self
                .touched
                .iter()
                .copied()
                .filter(|&c| self.lev[c] <= k)
                .collect();
            cols.sort_unstable();
            for &c in &self.touched {
                self.lev[c] = usize::MAX;
            }
            self.touched.clear();
            for &s in &self.m_touched {
                self.m_best[s] = usize::MAX;
            }
            self.m_touched.clear();
            self.frontier.clear();
            self.next_frontier.clear();
            cols
        }

        #[inline]
        fn lev_of(&self, c: usize) -> usize {
            self.lev[c]
        }

        #[inline]
        fn set_lev(&mut self, c: usize, l: usize) {
            if self.lev[c] == usize::MAX {
                self.touched.push(c);
            }
            self.lev[c] = self.lev[c].min(l);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fill_path::iluk_pattern_fill_path;
    use super::*;
    use javelin_sparse::pattern::SparsityPattern;
    use javelin_sparse::CooMatrix;

    /// The fill widened to `usize`, for the `usize` oracles, once its
    /// diagonal positions are checked.
    pub(super) fn serial(a: &CsrMatrix<f64>, k: usize) -> Result<SparsityPattern, SparseError> {
        let p = iluk_pattern_serial(a, k)?;
        assert_eq!(p.diag_pos.len(), p.nrows());
        for (i, &d) in p.diag_pos.iter().enumerate() {
            assert!(
                p.row(i).contains(&(d as usize)),
                "row {i}: diag_pos outside"
            );
            assert_eq!(p.colidx[d as usize] as usize, i, "row {i}: diag_pos");
        }
        Ok(p.to_sparsity())
    }

    fn tridiag(n: usize) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, -1.0).unwrap();
                coo.push(i + 1, i, -1.0).unwrap();
            }
        }
        coo.to_csr()
    }

    fn arrow(n: usize) -> CsrMatrix<f64> {
        // Dense first row/col + diagonal: eliminating row 0 fills
        // everything at level 1.
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0).unwrap();
            if i > 0 {
                coo.push(0, i, -1.0).unwrap();
                coo.push(i, 0, -1.0).unwrap();
            }
        }
        coo.to_csr()
    }

    /// Periodic tridiagonal: its wrap-around fill reaches level `n - 3`.
    fn ring(n: usize) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0).unwrap();
            coo.push(i, (i + 1) % n, -1.0).unwrap();
            coo.push((i + 1) % n, i, -1.0).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn ilu0_is_input_pattern() {
        let a = tridiag(10);
        let p = serial(&a, 0).unwrap();
        assert_eq!(p.rowptr(), a.rowptr());
        assert_eq!(p.colidx(), a.colidx());
        let pp = iluk_pattern_fill_path(&a, 0).unwrap();
        assert_eq!(pp, p);
    }

    #[test]
    fn tridiag_has_no_fill_at_any_level() {
        // A tridiagonal matrix factors into bidiagonal L·U exactly: the
        // ILU(k) pattern equals the input pattern for every k.
        let a = tridiag(12);
        for k in 0..4usize {
            let p = serial(&a, k).unwrap();
            assert_eq!(p.rowptr(), a.rowptr(), "k={k}");
            assert_eq!(p.colidx(), a.colidx(), "k={k}");
        }
    }

    #[test]
    fn ring_fill_is_exactly_known() {
        // Periodic tridiagonal (ring): eliminating the wrap-around
        // corner entries creates fill (n-1, j) and (j, n-1) at level
        // exactly j (fill path through 0..j-1), and nothing else.
        let n = 10;
        let a = ring(n);
        for k in 0..4usize {
            let p = serial(&a, k).unwrap();
            // Expected fill: (n-1, j) and (j, n-1) for 1 <= j <= k.
            assert_eq!(p.nnz(), a.nnz() + 2 * k, "k={k}");
            for j in 1..=k {
                assert!(
                    p.row_cols(n - 1).binary_search(&j).is_ok(),
                    "(n-1,{j}) k={k}"
                );
                assert!(
                    p.row_cols(j).binary_search(&(n - 1)).is_ok(),
                    "({j},n-1) k={k}"
                );
            }
        }
    }

    /// `k` beyond `n - 1` is clamped there: `usize::MAX` is the full
    /// symbolic LU, with no overflow in the `u32` levels.
    #[test]
    fn unbounded_fill_is_fill_n_minus_one() {
        for a in [ring(10), arrow(9), tridiag(7), ring(2), tridiag(1)] {
            let n = a.nrows();
            let full = serial(&a, usize::MAX).unwrap();
            assert_eq!(full, serial(&a, n - 1).unwrap(), "n={n}");
            assert_eq!(full, serial(&a, 4 * n).unwrap(), "n={n}");
            assert_eq!(full, iluk_pattern_fill_path(&a, n - 1).unwrap(), "n={n}");
        }
        // The full ring keeps its deepest fill, (9, 7) and (7, 9) at
        // level 7.
        let p = serial(&ring(10), usize::MAX).unwrap();
        assert_eq!(p.nnz(), ring(10).nnz() + 2 * 7);
    }

    #[test]
    fn arrow_fills_completely_at_level_one() {
        let n = 8;
        let a = arrow(n);
        let p = serial(&a, 1).unwrap();
        // Every (i,j) with i,j >= 1 filled via path i -> 0 -> j.
        assert_eq!(p.nnz(), n * n);
    }

    #[test]
    fn arrow_reversed_has_no_fill() {
        // Hub numbered LAST: no fill at any level (interiors must be
        // smaller than both endpoints; the hub is bigger than all).
        let n = 8;
        let mut coo = CooMatrix::new(n, n);
        let hub = n - 1;
        for i in 0..n {
            coo.push(i, i, 4.0).unwrap();
            if i != hub {
                coo.push(hub, i, -1.0).unwrap();
                coo.push(i, hub, -1.0).unwrap();
            }
        }
        let a = coo.to_csr();
        for k in 1..4 {
            let p = serial(&a, k).unwrap();
            assert_eq!(p.nnz(), a.nnz(), "k={k}");
        }
    }

    #[test]
    fn fill_path_oracle_matches_serial_on_structured_cases() {
        for k in 0..4usize {
            for a in [tridiag(15), arrow(9)] {
                let s = serial(&a, k).unwrap();
                assert_eq!(iluk_pattern_fill_path(&a, k).unwrap(), s, "k={k}");
            }
        }
    }

    #[test]
    fn pattern_is_superset_of_input_and_monotone_in_k() {
        let a = arrow(10);
        let mut prev_nnz = 0;
        for k in 0..3 {
            let p = serial(&a, k).unwrap();
            assert!(p.nnz() >= a.nnz());
            assert!(p.nnz() >= prev_nnz, "fill must grow with k");
            prev_nnz = p.nnz();
            for r in 0..a.nrows() {
                for &c in a.row_cols(r) {
                    assert!(p.row_cols(r).binary_search(&c).is_ok());
                }
            }
        }
    }

    #[test]
    fn missing_diagonal_rejected() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        let a = coo.to_csr();
        for k in [0, 1] {
            assert!(matches!(
                iluk_pattern_serial(&a, k),
                Err(SparseError::MissingDiagonal { row: 1 })
            ));
        }
        assert!(iluk_pattern_fill_path(&a, 1).is_err());
    }

    #[test]
    fn rectangular_rejected() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        let a = coo.to_csr();
        assert!(iluk_pattern_serial(&a, 1).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::fill_path::iluk_pattern_fill_path;
    use super::tests::serial;
    use super::*;
    use crate::test_matrices::generated_matrix;
    use javelin_sparse::CooMatrix;
    use proptest::prelude::*;

    fn arb_diag_matrix(n_max: usize) -> impl Strategy<Value = CsrMatrix<f64>> {
        (3..n_max).prop_flat_map(|n| {
            proptest::collection::vec((0..n, 0..n), 0..n * 4).prop_map(move |pairs| {
                let mut coo = CooMatrix::new(n, n);
                for i in 0..n {
                    coo.push(i, i, 4.0).unwrap();
                }
                for (r, c) in pairs {
                    coo.push(r, c, -1.0).unwrap();
                }
                coo.to_csr()
            })
        })
    }

    /// Runs the level recurrence on a full matrix and compares every
    /// entry's presence with the fill.
    fn check_dense_reference(a: &CsrMatrix<f64>, k: usize) {
        let n = a.nrows();
        let mut lev = vec![vec![usize::MAX; n]; n];
        for (r, c, _) in a.iter() {
            lev[r][c] = 0;
        }
        for i in 0..n {
            for c in 0..i {
                if lev[i][c] == usize::MAX {
                    continue;
                }
                for j in (c + 1)..n {
                    if lev[c][j] == usize::MAX {
                        continue;
                    }
                    let nl = lev[i][c] + lev[c][j] + 1;
                    if nl < lev[i][j] {
                        lev[i][j] = nl;
                    }
                }
            }
            // Drop entries above level k before later rows use row i.
            for j in 0..n {
                if lev[i][j] != usize::MAX && lev[i][j] > k {
                    lev[i][j] = usize::MAX;
                }
            }
        }
        let p = serial(a, k).unwrap();
        for i in 0..n {
            for j in 0..n {
                let expect = lev[i][j] != usize::MAX;
                let got = p.row_cols(i).binary_search(&j).is_ok();
                prop_assert_eq!(got, expect, "entry ({},{}) k={}", i, j, k);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn fill_path_oracle_equals_serial(a in arb_diag_matrix(20), k in 0usize..4) {
            let s = serial(&a, k).unwrap();
            let p = iluk_pattern_fill_path(&a, k).unwrap();
            prop_assert_eq!(s, p);
        }

        #[test]
        fn serial_matches_dense_reference(a in arb_diag_matrix(14), k in 0usize..3) {
            check_dense_reference(&a, k);
        }

        /// Both oracles on the generators' circuit, grid and bordered
        /// patterns.
        #[test]
        fn both_oracles_equal_serial_on_generated_patterns(
            m in generated_matrix(),
            k in 0usize..4,
        ) {
            let (what, a) = &m;
            let s = serial(a, k).unwrap();
            prop_assert_eq!(&s, &iluk_pattern_fill_path(a, k).unwrap(), "{}", what);
            check_dense_reference(a, k);
        }
    }
}
