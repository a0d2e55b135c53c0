//! [`CsrPattern`] — the one stored form of a sparsity pattern in this
//! crate: CSR row pointers and column indices at 4 bytes each, plus the
//! diagonal positions of a factor's rows.
//!
//! `SymbolicIlu::analyze` rejects any pattern whose entry count exceeds
//! `u32::MAX`, so every row pointer, column index and diagonal position
//! it keeps fits in a `u32`; a `usize` would spend half of its bytes on
//! zeros. The analysis keeps two of these: its copy of `A`'s pattern,
//! which checks refactor inputs and which its spmv plans stream (shared
//! by `Arc`), and the permuted LU pattern, which every numeric walk and
//! every apply streams. A stored entry then costs 12 bytes (an `f64`
//! value and a `u32` column) instead of 16. A third, the unpermuted
//! ILU(k) fill, lives only until `analyze` has read its levels and
//! permuted it.

use crate::numeric::kernel::index_u32;
use javelin_sparse::{CsrMatrix, Scalar, SparseError};
use std::mem::size_of_val;
use std::ops::Range;

/// A CSR pattern at `u32` indices (see module docs). `diag_pos` is the
/// entry of each row's diagonal for a factor pattern and empty for a
/// copy of a matrix's pattern.
pub(crate) struct CsrPattern {
    /// Row `r`'s entries are `rowptr[r]..rowptr[r + 1]`.
    pub(crate) rowptr: Vec<u32>,
    /// Column of each entry, ascending within a row.
    pub(crate) colidx: Vec<u32>,
    /// Entry of row `r`'s diagonal (factor patterns only).
    pub(crate) diag_pos: Vec<u32>,
}

impl CsrPattern {
    /// A `u32` copy of `a`'s pattern (no diagonal positions), built
    /// straight from `a`'s arrays.
    ///
    /// # Errors
    /// [`SparseError::InvalidStructure`] when `a`'s entry count or
    /// column count exceeds the `u32` index range.
    pub(crate) fn of_matrix<T: Scalar>(a: &CsrMatrix<T>) -> Result<Self, SparseError> {
        // Every row pointer is at most `nnz`, every column below `ncols`.
        index_u32(a.nnz(), "nnz")?;
        index_u32(a.ncols(), "ncols")?;
        Ok(CsrPattern {
            rowptr: a.rowptr().iter().map(|&p| p as u32).collect(),
            colidx: a.colidx().iter().map(|&c| c as u32).collect(),
            diag_pos: Vec::new(),
        })
    }

    /// Row count.
    #[inline(always)]
    pub(crate) fn nrows(&self) -> usize {
        self.rowptr.len() - 1
    }

    /// Stored entries.
    #[inline(always)]
    pub(crate) fn nnz(&self) -> usize {
        self.colidx.len()
    }

    /// Entry range of row `r`.
    #[inline(always)]
    pub(crate) fn row(&self, r: usize) -> Range<usize> {
        self.rowptr[r] as usize..self.rowptr[r + 1] as usize
    }

    /// Whether `rowptr[ptrs]` and `colidx[cols]` of the pattern equal
    /// the same ranges of `a`'s `usize` arrays, which must reach that
    /// far. Branch-free over the ranges, so it streams like a slice
    /// compare.
    pub(crate) fn same_ranges<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        ptrs: Range<usize>,
        cols: Range<usize>,
    ) -> bool {
        fn same(mine: &[u32], theirs: &[usize]) -> bool {
            mine.len() == theirs.len()
                && mine
                    .iter()
                    .zip(theirs)
                    .fold(0, |diff, (&m, &t)| diff | (m as usize ^ t))
                    == 0
        }
        same(&self.rowptr[ptrs.clone()], &a.rowptr()[ptrs])
            && same(&self.colidx[cols.clone()], &a.colidx()[cols])
    }

    /// Whether `a` has exactly this pattern.
    pub(crate) fn matches<T: Scalar>(&self, a: &CsrMatrix<T>) -> bool {
        a.nrows() == self.nrows()
            && a.nnz() == self.nnz()
            && self.same_ranges(a, 0..self.rowptr.len(), 0..self.nnz())
    }

    /// Bytes of the three arrays: `len × 4` each.
    pub(crate) fn heap_bytes(&self) -> usize {
        size_of_val(&self.rowptr[..])
            + size_of_val(&self.colidx[..])
            + size_of_val(&self.diag_pos[..])
    }
}

#[cfg(test)]
impl CsrPattern {
    /// A `usize` copy, for comparing with the `usize` references.
    pub(crate) fn to_sparsity(&self) -> javelin_sparse::pattern::SparsityPattern {
        let wide = |v: &[u32]| v.iter().map(|&i| i as usize).collect();
        let n = self.nrows();
        javelin_sparse::pattern::SparsityPattern::from_raw(
            n,
            n,
            wide(&self.rowptr),
            wide(&self.colidx),
        )
    }
}

impl std::fmt::Debug for CsrPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsrPattern")
            .field("nrows", &self.nrows())
            .field("nnz", &self.nnz())
            .finish()
    }
}
