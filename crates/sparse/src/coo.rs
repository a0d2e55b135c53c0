//! Coordinate-format (triplet) builder.
//!
//! `CooMatrix` is the mutable staging area: generators and file readers
//! push `(row, col, value)` triplets in any order (duplicates allowed —
//! they are summed, the Matrix Market convention) and convert once into
//! the immutable [`CsrMatrix`] on which everything else
//! operates.

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;

/// A sparse matrix in coordinate (triplet) format.
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix<T> {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<T>,
}

impl<T: Scalar> CooMatrix<T> {
    /// Creates an empty `nrows × ncols` triplet matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Creates an empty triplet matrix with room for `cap` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored triplets (before duplicate summation).
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Appends one triplet. Duplicates are permitted and will be summed
    /// during [`CooMatrix::to_csr`].
    ///
    /// # Errors
    /// Returns [`SparseError::IndexOutOfBounds`] when the coordinates do
    /// not fit the declared shape.
    pub fn push(&mut self, row: usize, col: usize, val: T) -> Result<(), SparseError> {
        if row >= self.nrows || col >= self.ncols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(val);
        Ok(())
    }

    /// Appends one triplet without bounds checking in release builds
    /// (debug builds assert). Useful in generators that construct indices
    /// by arithmetic that is provably in bounds.
    pub fn push_unchecked(&mut self, row: usize, col: usize, val: T) {
        debug_assert!(row < self.nrows && col < self.ncols);
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(val);
    }

    /// Iterates stored triplets in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        self.rows
            .iter()
            .zip(self.cols.iter())
            .zip(self.vals.iter())
            .map(|((&r, &c), &v)| (r, c, v))
    }

    /// Converts to CSR, sorting entries and **summing duplicates**.
    ///
    /// The conversion is the classic two-pass counting sort on rows
    /// followed by a per-row sort on columns; O(nnz + n + Σ rowlen·log).
    pub fn to_csr(&self) -> CsrMatrix<T> {
        let nnz = self.vals.len();
        let mut rowptr = vec![0usize; self.nrows + 1];
        for &r in &self.rows {
            rowptr[r + 1] += 1;
        }
        for i in 0..self.nrows {
            rowptr[i + 1] += rowptr[i];
        }
        let mut colidx = vec![0usize; nnz];
        let mut vals = vec![T::ZERO; nnz];
        let mut next = rowptr.clone();
        for k in 0..nnz {
            let r = self.rows[k];
            let dst = next[r];
            colidx[dst] = self.cols[k];
            vals[dst] = self.vals[k];
            next[r] += 1;
        }
        // Sort each row by column and fold duplicates.
        let mut out_colidx = Vec::with_capacity(nnz);
        let mut out_vals = Vec::with_capacity(nnz);
        let mut out_rowptr = vec![0usize; self.nrows + 1];
        let mut scratch: Vec<(usize, T)> = Vec::new();
        for r in 0..self.nrows {
            let (s, e) = (rowptr[r], rowptr[r + 1]);
            scratch.clear();
            scratch.extend(colidx[s..e].iter().copied().zip(vals[s..e].iter().copied()));
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let (c, mut v) = scratch[i];
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == c {
                    v += scratch[j].1;
                    j += 1;
                }
                out_colidx.push(c);
                out_vals.push(v);
                i = j;
            }
            out_rowptr[r + 1] = out_colidx.len();
        }
        CsrMatrix::from_raw_unchecked(self.nrows, self.ncols, out_rowptr, out_colidx, out_vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matrix_converts() {
        let coo = CooMatrix::<f64>::new(3, 4);
        let csr = coo.to_csr();
        assert_eq!(csr.nrows(), 3);
        assert_eq!(csr.ncols(), 4);
        assert_eq!(csr.nnz(), 0);
    }

    #[test]
    fn push_rejects_out_of_bounds() {
        let mut coo = CooMatrix::<f64>::new(2, 2);
        assert!(coo.push(2, 0, 1.0).is_err());
        assert!(coo.push(0, 2, 1.0).is_err());
        assert!(coo.push(1, 1, 1.0).is_ok());
    }

    #[test]
    fn duplicates_are_summed() {
        let mut coo = CooMatrix::<f64>::new(2, 2);
        coo.push(0, 1, 2.0).unwrap();
        coo.push(0, 1, 3.0).unwrap();
        coo.push(1, 0, -1.0).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.get(0, 1), Some(5.0));
        assert_eq!(csr.get(1, 0), Some(-1.0));
        assert_eq!(csr.get(0, 0), None);
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let mut coo = CooMatrix::<f64>::new(1, 5);
        for &c in &[4usize, 0, 3, 1, 2] {
            coo.push(0, c, c as f64).unwrap();
        }
        let csr = coo.to_csr();
        assert_eq!(csr.row_cols(0), &[0, 1, 2, 3, 4]);
        assert_eq!(csr.row_vals(0), &[0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn f32_works_too() {
        let mut coo = CooMatrix::<f32>::new(2, 2);
        coo.push(0, 0, 1.5).unwrap();
        coo.push(1, 1, 2.5).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.get(0, 0), Some(1.5f32));
        assert_eq!(csr.get(1, 1), Some(2.5f32));
    }
}
