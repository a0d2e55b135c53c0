//! Symbolic ILU(k): computing the fill pattern.
//!
//! [`iluk_pattern_serial`] is the classic row-merge recurrence
//! `lev(i,j) = min over c < min(i,j) of lev(i,c) + lev(c,j) + 1`
//! (levels of original entries are 0; entries with `lev ≤ k` are kept),
//! processed row by row with a sorted linked-list workspace; `ILU(0)`
//! short-circuits to the input pattern.
//!
//! Its test oracle is the Hysom–Pothen formulation (the paper's
//! reference \[6\]): a fill entry `(i,j)` of level `ℓ` corresponds to a
//! shortest *fill path* `i ⇝ j` of length `ℓ+1` in the digraph of `A`
//! whose interior vertices are all smaller than `min(i,j)`, found by an
//! independent bounded search per row. Both must return identical
//! patterns (property-tested).

use javelin_sparse::pattern::SparsityPattern;
use javelin_sparse::{CsrMatrix, Scalar, SparseError};

/// Computes the ILU(k) fill pattern of `a` (which must have a full
/// structural diagonal). The returned pattern always contains every
/// entry of `a` plus fill entries of level ≤ `k`.
///
/// # Errors
/// [`SparseError::NotSquare`] / [`SparseError::MissingDiagonal`].
pub fn iluk_pattern_serial<T: Scalar>(
    a: &CsrMatrix<T>,
    k: usize,
) -> Result<SparsityPattern, SparseError> {
    validate(a)?;
    if k == 0 {
        return Ok(SparsityPattern::of(a));
    }
    let n = a.nrows();
    // Stored pattern and levels of all finished rows.
    let mut rowptr = vec![0usize; n + 1];
    let mut colidx: Vec<usize> = Vec::with_capacity(a.nnz() * 2);
    let mut levels: Vec<usize> = Vec::with_capacity(a.nnz() * 2);

    // Workspace: sorted singly-linked list over columns of the current
    // row. `lev[c] == usize::MAX` means "absent".
    const NIL: usize = usize::MAX;
    let mut lev = vec![usize::MAX; n];
    let mut next = vec![NIL; n];

    for i in 0..n {
        // Load row i of A with level 0.
        let cols = a.row_cols(i);
        let mut head = NIL;
        {
            let mut prev = NIL;
            for &c in cols {
                lev[c] = 0;
                if prev == NIL {
                    head = c;
                } else {
                    next[prev] = c;
                }
                prev = c;
            }
            if prev != NIL {
                next[prev] = NIL;
            }
        }
        // Up-looking symbolic sweep.
        let mut c = head;
        while c != NIL && c < i {
            let lic = lev[c];
            if lic < k {
                // Merge the U-part of row c: columns j > c with
                // lev(c,j) from the stored structure.
                let (cs, ce) = (rowptr[c], rowptr[c + 1]);
                // Find the diagonal position of row c by binary search.
                let local = colidx[cs..ce].binary_search(&c).expect("diag present");
                let mut scan = c; // insertion hint: list position of c
                for idx in (cs + local + 1)..ce {
                    let j = colidx[idx];
                    let newlev = lic + levels[idx] + 1;
                    if newlev > k {
                        continue;
                    }
                    if lev[j] != usize::MAX {
                        if newlev < lev[j] {
                            lev[j] = newlev;
                        }
                    } else {
                        // Insert j into the sorted list, scanning from
                        // the hint (j > c ≥ scan).
                        while next[scan] != NIL && next[scan] < j {
                            scan = next[scan];
                        }
                        next[j] = next[scan];
                        next[scan] = j;
                        lev[j] = newlev;
                    }
                }
            }
            c = next[c];
        }
        // Emit row i (ascending by construction) and clear the
        // workspace.
        let mut cur = head;
        while cur != NIL {
            colidx.push(cur);
            levels.push(lev[cur]);
            let nx = next[cur];
            lev[cur] = usize::MAX;
            next[cur] = NIL;
            cur = nx;
        }
        rowptr[i + 1] = colidx.len();
    }
    Ok(SparsityPattern::from_raw(n, n, rowptr, colidx))
}

fn validate<T: Scalar>(a: &CsrMatrix<T>) -> Result<(), SparseError> {
    if !a.is_square() {
        return Err(SparseError::NotSquare {
            nrows: a.nrows(),
            ncols: a.ncols(),
        });
    }
    a.diag_positions().map(|_| ())
}

/// The fill-path oracle of [`iluk_pattern_serial`] (see module docs).
#[cfg(test)]
mod fill_path {
    use super::*;

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
    use javelin_sparse::CooMatrix;

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

    #[test]
    fn ilu0_is_input_pattern() {
        let a = tridiag(10);
        let p = iluk_pattern_serial(&a, 0).unwrap();
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
            let p = iluk_pattern_serial(&a, k).unwrap();
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
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0).unwrap();
            coo.push(i, (i + 1) % n, -1.0).unwrap();
            coo.push((i + 1) % n, i, -1.0).unwrap();
        }
        let a = coo.to_csr();
        for k in 0..4usize {
            let p = iluk_pattern_serial(&a, k).unwrap();
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

    #[test]
    fn arrow_fills_completely_at_level_one() {
        let n = 8;
        let a = arrow(n);
        let p = iluk_pattern_serial(&a, 1).unwrap();
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
            let p = iluk_pattern_serial(&a, k).unwrap();
            assert_eq!(p.nnz(), a.nnz(), "k={k}");
        }
    }

    #[test]
    fn fill_path_oracle_matches_serial_on_structured_cases() {
        for k in 0..4usize {
            for a in [tridiag(15), arrow(9)] {
                let s = iluk_pattern_serial(&a, k).unwrap();
                assert_eq!(iluk_pattern_fill_path(&a, k).unwrap(), s, "k={k}");
            }
        }
    }

    #[test]
    fn pattern_is_superset_of_input_and_monotone_in_k() {
        let a = arrow(10);
        let mut prev_nnz = 0;
        for k in 0..3 {
            let p = iluk_pattern_serial(&a, k).unwrap();
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
        assert!(matches!(
            iluk_pattern_serial(&a, 1),
            Err(SparseError::MissingDiagonal { row: 1 })
        ));
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
    use super::*;
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn fill_path_oracle_equals_serial(a in arb_diag_matrix(20), k in 0usize..4) {
            let s = iluk_pattern_serial(&a, k).unwrap();
            let p = iluk_pattern_fill_path(&a, k).unwrap();
            prop_assert_eq!(s, p);
        }

        #[test]
        fn serial_matches_dense_reference(a in arb_diag_matrix(14), k in 0usize..3) {
            // Dense reference: run the level recurrence on a full matrix.
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
            let p = iluk_pattern_serial(&a, k).unwrap();
            for i in 0..n {
                for j in 0..n {
                    let expect = lev[i][j] != usize::MAX;
                    let got = p.row_cols(i).binary_search(&j).is_ok();
                    prop_assert_eq!(got, expect, "entry ({},{}) k={}", i, j, k);
                }
            }
        }
    }
}
