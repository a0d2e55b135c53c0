//! Compressed Sparse Row — the format every Javelin algorithm runs on.
//!
//! The paper's thesis is that scalable incomplete factorization and
//! triangular solves do **not** require exotic storage: a conventional
//! CSR plus a level permutation and a few index arrays suffice. This
//! module therefore keeps `CsrMatrix` immutable after construction;
//! factorizations build *new* CSR structures (first-touch friendly) and
//! never mutate the input.

use crate::error::SparseError;
use crate::perm::Perm;
use crate::scalar::Scalar;

/// An immutable sparse matrix in CSR format.
///
/// Invariants (enforced by [`CsrMatrix::try_from_parts`], assumed
/// elsewhere):
/// * `rowptr.len() == nrows + 1`, `rowptr[0] == 0`, monotone
///   non-decreasing, `rowptr[nrows] == colidx.len() == vals.len()`;
/// * within each row, column indices are strictly increasing and
///   `< ncols`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<T> {
    nrows: usize,
    ncols: usize,
    rowptr: Vec<usize>,
    colidx: Vec<usize>,
    vals: Vec<T>,
}

impl<T: Scalar> CsrMatrix<T> {
    /// Builds a CSR matrix after validating all structural invariants.
    ///
    /// # Errors
    /// [`SparseError::InvalidStructure`] when any invariant fails.
    pub fn try_from_parts(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        colidx: Vec<usize>,
        vals: Vec<T>,
    ) -> Result<Self, SparseError> {
        if rowptr.len() != nrows + 1 {
            return Err(SparseError::InvalidStructure(format!(
                "rowptr length {} != nrows + 1 = {}",
                rowptr.len(),
                nrows + 1
            )));
        }
        if rowptr[0] != 0 {
            return Err(SparseError::InvalidStructure("rowptr[0] != 0".into()));
        }
        if colidx.len() != vals.len() {
            return Err(SparseError::InvalidStructure(format!(
                "colidx length {} != vals length {}",
                colidx.len(),
                vals.len()
            )));
        }
        if rowptr[nrows] != colidx.len() {
            return Err(SparseError::InvalidStructure(format!(
                "rowptr[nrows] = {} != nnz = {}",
                rowptr[nrows],
                colidx.len()
            )));
        }
        for r in 0..nrows {
            if rowptr[r] > rowptr[r + 1] {
                return Err(SparseError::InvalidStructure(format!(
                    "rowptr not monotone at row {r}"
                )));
            }
            let row = &colidx[rowptr[r]..rowptr[r + 1]];
            for (k, &c) in row.iter().enumerate() {
                if c >= ncols {
                    return Err(SparseError::InvalidStructure(format!(
                        "column {c} out of bounds in row {r} (ncols = {ncols})"
                    )));
                }
                if k > 0 && row[k - 1] >= c {
                    return Err(SparseError::InvalidStructure(format!(
                        "columns not strictly increasing in row {r}: {} then {c}",
                        row[k - 1]
                    )));
                }
            }
        }
        Ok(CsrMatrix {
            nrows,
            ncols,
            rowptr,
            colidx,
            vals,
        })
    }

    /// Builds a CSR matrix **without** validation. Callers must uphold
    /// the structural invariants; debug builds verify them.
    pub fn from_raw_unchecked(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        colidx: Vec<usize>,
        vals: Vec<T>,
    ) -> Self {
        #[cfg(debug_assertions)]
        {
            Self::try_from_parts(nrows, ncols, rowptr, colidx, vals)
                .expect("from_raw_unchecked: invalid structure")
        }
        #[cfg(not(debug_assertions))]
        CsrMatrix {
            nrows,
            ncols,
            rowptr,
            colidx,
            vals,
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            rowptr: (0..=n).collect(),
            colidx: (0..n).collect(),
            vals: vec![T::ONE; n],
        }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of explicitly stored entries.
    #[inline(always)]
    pub fn nnz(&self) -> usize {
        self.colidx.len()
    }

    /// `true` for a square matrix.
    #[inline(always)]
    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// Average number of stored entries per row — the paper's "RD"
    /// (row-density) statistic from Table I.
    pub fn row_density(&self) -> f64 {
        if self.nrows == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.nrows as f64
        }
    }

    /// The row-pointer array (`nrows + 1` entries).
    #[inline(always)]
    pub fn rowptr(&self) -> &[usize] {
        &self.rowptr
    }

    /// The column-index array.
    #[inline(always)]
    pub fn colidx(&self) -> &[usize] {
        &self.colidx
    }

    /// The value array.
    #[inline(always)]
    pub fn vals(&self) -> &[T] {
        &self.vals
    }

    /// Mutable access to values (pattern stays frozen). Used by in-place
    /// numeric phases that keep the symbolic structure.
    #[inline(always)]
    pub fn vals_mut(&mut self) -> &mut [T] {
        &mut self.vals
    }

    /// Half-open range of entry indices belonging to `row`.
    #[inline(always)]
    pub fn row_range(&self, row: usize) -> std::ops::Range<usize> {
        self.rowptr[row]..self.rowptr[row + 1]
    }

    /// Column indices of `row`.
    #[inline(always)]
    pub fn row_cols(&self, row: usize) -> &[usize] {
        &self.colidx[self.row_range(row)]
    }

    /// Values of `row`.
    #[inline(always)]
    pub fn row_vals(&self, row: usize) -> &[T] {
        &self.vals[self.row_range(row)]
    }

    /// Number of entries in `row`.
    #[inline(always)]
    pub fn row_nnz(&self, row: usize) -> usize {
        self.rowptr[row + 1] - self.rowptr[row]
    }

    /// Looks up entry `(row, col)` by binary search; `None` when the
    /// position is not stored.
    pub fn get(&self, row: usize, col: usize) -> Option<T> {
        let cols = self.row_cols(row);
        cols.binary_search(&col)
            .ok()
            .map(|k| self.vals[self.rowptr[row] + k])
    }

    /// Iterates `(row, col, value)` over all stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            self.row_cols(r)
                .iter()
                .zip(self.row_vals(r).iter())
                .map(move |(&c, &v)| (r, c, v))
        })
    }

    /// Consumes the matrix, returning `(nrows, ncols, rowptr, colidx, vals)`.
    pub fn into_parts(self) -> (usize, usize, Vec<usize>, Vec<usize>, Vec<T>) {
        (self.nrows, self.ncols, self.rowptr, self.colidx, self.vals)
    }

    /// Transposed copy (CSR of `Aᵀ`), O(nnz + n).
    pub(crate) fn transpose(&self) -> CsrMatrix<T> {
        let mut rowptr = vec![0usize; self.ncols + 1];
        for &c in &self.colidx {
            rowptr[c + 1] += 1;
        }
        for i in 0..self.ncols {
            rowptr[i + 1] += rowptr[i];
        }
        let mut colidx = vec![0usize; self.nnz()];
        let mut vals = vec![T::ZERO; self.nnz()];
        let mut next = rowptr.clone();
        for r in 0..self.nrows {
            for k in self.row_range(r) {
                let c = self.colidx[k];
                let dst = next[c];
                colidx[dst] = r;
                vals[dst] = self.vals[k];
                next[c] += 1;
            }
        }
        // Row-major traversal emits ascending row indices per column, so
        // the transposed rows are already sorted.
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            rowptr,
            colidx,
            vals,
        }
    }

    /// `true` when the sparsity pattern is structurally symmetric — the
    /// paper's "SP" column in Table I. Values are ignored.
    pub fn is_pattern_symmetric(&self) -> bool {
        if !self.is_square() {
            return false;
        }
        let t = self.transpose();
        self.rowptr == t.rowptr && self.colidx == t.colidx
    }

    /// `true` when `A == Aᵀ` numerically (within `tol` absolute).
    pub fn is_symmetric(&self, tol: T) -> bool {
        if !self.is_square() {
            return false;
        }
        let t = self.transpose();
        if self.rowptr != t.rowptr || self.colidx != t.colidx {
            return false;
        }
        self.vals
            .iter()
            .zip(t.vals.iter())
            .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// Extracts the diagonal as a dense vector (`ZERO` where absent).
    pub fn diag(&self) -> Vec<T> {
        let n = self.nrows.min(self.ncols);
        let mut d = vec![T::ZERO; n];
        for (r, item) in d.iter_mut().enumerate() {
            if let Some(v) = self.get(r, r) {
                *item = v;
            }
        }
        d
    }

    /// Index of the diagonal entry within each row's slice, or an error
    /// naming the first row whose structural diagonal is missing.
    ///
    /// Incomplete factorization requires every diagonal position to be
    /// present in the pattern.
    pub fn diag_positions(&self) -> Result<Vec<usize>, SparseError> {
        if !self.is_square() {
            return Err(SparseError::NotSquare {
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        let mut pos = vec![0usize; self.nrows];
        for r in 0..self.nrows {
            match self.row_cols(r).binary_search(&r) {
                Ok(k) => pos[r] = self.rowptr[r] + k,
                Err(_) => return Err(SparseError::MissingDiagonal { row: r }),
            }
        }
        Ok(pos)
    }

    /// Symmetric permutation `B = P·A·Pᵀ`, i.e. `B[i,j] = A[p(i), p(j)]`
    /// where `p = perm.new_to_old`.
    ///
    /// # Errors
    /// [`SparseError::DimensionMismatch`] when the permutation length
    /// differs from the matrix dimension (square required).
    pub fn permute_sym(&self, perm: &Perm) -> Result<CsrMatrix<T>, SparseError> {
        if !self.is_square() {
            return Err(SparseError::NotSquare {
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        if perm.len() != self.nrows {
            return Err(SparseError::DimensionMismatch(format!(
                "permutation length {} != matrix dimension {}",
                perm.len(),
                self.nrows
            )));
        }
        self.permute(perm, perm)
    }

    /// General two-sided permutation `B = P·A·Qᵀ`:
    /// `B[i,j] = A[rowp(i), colp(j)]`.
    pub fn permute(&self, rowp: &Perm, colp: &Perm) -> Result<CsrMatrix<T>, SparseError> {
        if rowp.len() != self.nrows || colp.len() != self.ncols {
            return Err(SparseError::DimensionMismatch(format!(
                "perm lengths ({}, {}) != matrix shape ({}, {})",
                rowp.len(),
                colp.len(),
                self.nrows,
                self.ncols
            )));
        }
        let col_inv = colp.old_to_new();
        let mut rowptr = vec![0usize; self.nrows + 1];
        for newr in 0..self.nrows {
            rowptr[newr + 1] = rowptr[newr] + self.row_nnz(rowp.new_to_old()[newr]);
        }
        let nnz = self.nnz();
        let mut colidx = vec![0usize; nnz];
        let mut vals = vec![T::ZERO; nnz];
        let mut pairs: Vec<(usize, T)> = Vec::new();
        for newr in 0..self.nrows {
            let oldr = rowp.new_to_old()[newr];
            pairs.clear();
            pairs.extend(
                self.row_cols(oldr)
                    .iter()
                    .zip(self.row_vals(oldr).iter())
                    .map(|(&c, &v)| (col_inv[c], v)),
            );
            pairs.sort_unstable_by_key(|&(c, _)| c);
            let base = rowptr[newr];
            for (k, &(c, v)) in pairs.iter().enumerate() {
                colidx[base + k] = c;
                vals[base + k] = v;
            }
        }
        Ok(CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            rowptr,
            colidx,
            vals,
        })
    }

    /// Keeps entries for which `keep(row, col)` holds.
    pub fn filter(&self, keep: impl Fn(usize, usize) -> bool) -> CsrMatrix<T> {
        let mut rowptr = vec![0usize; self.nrows + 1];
        let mut colidx = Vec::new();
        let mut vals = Vec::new();
        for r in 0..self.nrows {
            for k in self.row_range(r) {
                let c = self.colidx[k];
                if keep(r, c) {
                    colidx.push(c);
                    vals.push(self.vals[k]);
                }
            }
            rowptr[r + 1] = colidx.len();
        }
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            rowptr,
            colidx,
            vals,
        }
    }

    /// Applies `f` to every stored value, keeping the pattern.
    pub fn map_values(&self, f: impl Fn(T) -> T) -> CsrMatrix<T> {
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            rowptr: self.rowptr.clone(),
            colidx: self.colidx.clone(),
            vals: self.vals.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Serial sparse matrix–vector product `y = A·x`.
    ///
    /// # Panics
    /// When `x.len() != ncols` or `y.len() != nrows`.
    pub fn spmv_into(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.ncols, "spmv: x length mismatch");
        assert_eq!(y.len(), self.nrows, "spmv: y length mismatch");
        for r in 0..self.nrows {
            let mut acc = T::ZERO;
            for k in self.row_range(r) {
                acc += self.vals[k] * x[self.colidx[k]];
            }
            y[r] = acc;
        }
    }

    /// Convenience allocating spmv.
    pub fn spmv(&self, x: &[T]) -> Vec<T> {
        let mut y = vec![T::ZERO; self.nrows];
        self.spmv_into(x, &mut y);
        y
    }

    /// `true` when `self` and `other` share a pattern and all values agree
    /// within absolute tolerance `tol`.
    pub fn approx_eq(&self, other: &CsrMatrix<T>, tol: T) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.rowptr == other.rowptr
            && self.colidx == other.colidx
            && self
                .vals
                .iter()
                .zip(other.vals.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn small() -> CsrMatrix<f64> {
        // [ 4 -1  0 ]
        // [-1  4 -1 ]
        // [ 0 -1  4 ]
        let mut coo = CooMatrix::new(3, 3);
        for (r, c, v) in [
            (0, 0, 4.0),
            (0, 1, -1.0),
            (1, 0, -1.0),
            (1, 1, 4.0),
            (1, 2, -1.0),
            (2, 1, -1.0),
            (2, 2, 4.0),
        ] {
            coo.push(r, c, v).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn validation_catches_bad_structures() {
        // rowptr too short
        assert!(CsrMatrix::<f64>::try_from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // rowptr[0] != 0
        assert!(CsrMatrix::<f64>::try_from_parts(1, 1, vec![1, 1], vec![], vec![]).is_err());
        // non-monotone rowptr
        assert!(
            CsrMatrix::<f64>::try_from_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0])
                .is_err()
        );
        // column out of bounds
        assert!(CsrMatrix::<f64>::try_from_parts(1, 1, vec![0, 1], vec![3], vec![1.0]).is_err());
        // duplicate column
        assert!(
            CsrMatrix::<f64>::try_from_parts(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).is_err()
        );
        // unsorted columns
        assert!(
            CsrMatrix::<f64>::try_from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).is_err()
        );
        // vals length mismatch
        assert!(CsrMatrix::<f64>::try_from_parts(1, 2, vec![0, 1], vec![0], vec![]).is_err());
    }

    #[test]
    fn identity_is_identity() {
        let i = CsrMatrix::<f64>::identity(4);
        assert_eq!(i.nnz(), 4);
        for r in 0..4 {
            assert_eq!(i.get(r, r), Some(1.0));
        }
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.spmv(&x), x);
    }

    #[test]
    fn accessors() {
        let a = small();
        assert_eq!(a.nrows(), 3);
        assert_eq!(a.ncols(), 3);
        assert_eq!(a.nnz(), 7);
        assert!(a.is_square());
        assert!((a.row_density() - 7.0 / 3.0).abs() < 1e-12);
        assert_eq!(a.row_cols(1), &[0, 1, 2]);
        assert_eq!(a.row_vals(1), &[-1.0, 4.0, -1.0]);
        assert_eq!(a.row_nnz(0), 2);
        assert_eq!(a.get(0, 2), None);
        assert_eq!(a.get(2, 2), Some(4.0));
    }

    #[test]
    fn transpose_involution() {
        let a = small();
        let att = a.transpose().transpose();
        assert_eq!(a, att);
    }

    #[test]
    fn transpose_rectangular() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 2, 5.0).unwrap();
        coo.push(1, 0, 7.0).unwrap();
        let a = coo.to_csr();
        let t = a.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.get(2, 0), Some(5.0));
        assert_eq!(t.get(0, 1), Some(7.0));
    }

    #[test]
    fn pattern_symmetry() {
        assert!(small().is_pattern_symmetric());
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0).unwrap();
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        assert!(!coo.to_csr().is_pattern_symmetric());
    }

    #[test]
    fn numeric_symmetry() {
        assert!(small().is_symmetric(0.0));
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 0, 1.0 + 1e-3).unwrap();
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        let a = coo.to_csr();
        assert!(!a.is_symmetric(1e-6));
        assert!(a.is_symmetric(1e-2));
    }

    #[test]
    fn diag_extraction() {
        let a = small();
        assert_eq!(a.diag(), vec![4.0, 4.0, 4.0]);
        let pos = a.diag_positions().unwrap();
        for r in 0..3 {
            assert_eq!(a.colidx()[pos[r]], r);
        }
    }

    #[test]
    fn diag_positions_missing() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        let a = coo.to_csr();
        assert_eq!(
            a.diag_positions(),
            Err(SparseError::MissingDiagonal { row: 1 })
        );
    }

    #[test]
    fn symmetric_permutation_reverses() {
        let a = small();
        let p = Perm::from_new_to_old(vec![2, 1, 0]).unwrap();
        let b = a.permute_sym(&p).unwrap();
        // Reversal of a symmetric tridiagonal keeps it tridiagonal.
        assert_eq!(b.get(0, 0), Some(4.0));
        assert_eq!(b.get(0, 1), Some(-1.0));
        assert_eq!(b.get(0, 2), None);
        // Round-trip through the inverse restores A.
        let back = b.permute_sym(&p.inverse()).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn spmv_matches_dense() {
        let a = small();
        let x = vec![1.0, 2.0, 3.0];
        let y = a.spmv(&x);
        assert_eq!(y, vec![4.0 - 2.0, -1.0 + 8.0 - 3.0, -2.0 + 12.0]);
    }

    #[test]
    fn map_and_filter() {
        let a = small();
        let b = a.map_values(|v| v * 2.0);
        assert_eq!(b.get(0, 0), Some(8.0));
        let d = a.filter(|r, c| r == c);
        assert_eq!(d.nnz(), 3);
    }

    #[test]
    fn into_parts_roundtrip() {
        let a = small();
        let (m, n, rp, ci, vs) = a.clone().into_parts();
        let b = CsrMatrix::try_from_parts(m, n, rp, ci, vs).unwrap();
        assert_eq!(a, b);
    }
}
