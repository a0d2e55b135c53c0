//! Dense right-hand-side panels: column-major `n × k` blocks.
//!
//! Serving-scale workloads retire many simultaneous solves through one
//! preconditioner; the execution layers (`SpmvPlan::execute_panel`, the
//! panel trisolve engines, the Krylov drivers) take any panel width `k`
//! so one schedule traversal serves a whole block of vectors.
//! [`Panel`] and [`PanelMut`] are the borrowed views those layers
//! consume: column-major, each column a contiguous length-`nrows`
//! slice, consecutive columns `col_stride` apart.
//!
//! ## Layout invariants
//!
//! * **Column-major**: entry `(r, c)` lives at `data[c · col_stride + r]`.
//! * `col_stride ≥ nrows` — columns never overlap; the gap
//!   (`col_stride − nrows` entries) is never read or written, so a
//!   panel can view every `j`-th column of a wider block.
//! * `data` must cover the last column:
//!   `len ≥ (ncols − 1) · col_stride + nrows` (no constraint when
//!   `ncols == 0`).
//! * `ncols == 1` with `col_stride == nrows` makes any plain vector a
//!   panel ([`Panel::from_col`] / [`PanelMut::from_col`]) — the `k = 1`
//!   fast path everywhere.
//!
//! Constructors check the invariants and panic on violation: panels are
//! built by solver plumbing over buffers it sized itself, so a mismatch
//! is a programming error, not a data error.

use crate::scalar::Scalar;

#[inline]
fn check_layout(len: usize, nrows: usize, ncols: usize, col_stride: usize) {
    assert!(
        col_stride >= nrows,
        "panel: col_stride {col_stride} < nrows {nrows}"
    );
    if ncols > 0 {
        let need = (ncols - 1) * col_stride + nrows;
        assert!(
            len >= need,
            "panel: buffer of {len} entries cannot hold {ncols} columns \
             of {nrows} rows at stride {col_stride} (need {need})"
        );
    }
}

/// Shared view of a column-major `nrows × ncols` dense panel.
#[derive(Debug, Clone, Copy)]
pub struct Panel<'a, T> {
    data: &'a [T],
    nrows: usize,
    ncols: usize,
    col_stride: usize,
}

impl<'a, T: Scalar> Panel<'a, T> {
    /// Contiguous panel: `ncols` columns of `nrows` entries, stride
    /// equal to `nrows`.
    ///
    /// # Panics
    /// When `data` is shorter than `nrows · ncols`.
    pub fn new(data: &'a [T], nrows: usize, ncols: usize) -> Self {
        Self::with_stride(data, nrows, ncols, nrows)
    }

    /// Panel with an explicit column stride (see module docs for the
    /// layout invariants).
    ///
    /// # Panics
    /// When the invariants do not hold.
    pub fn with_stride(data: &'a [T], nrows: usize, ncols: usize, col_stride: usize) -> Self {
        check_layout(data.len(), nrows, ncols, col_stride);
        Panel {
            data,
            nrows,
            ncols,
            col_stride,
        }
    }

    /// A single vector as a width-1 panel.
    pub fn from_col(col: &'a [T]) -> Self {
        Panel {
            nrows: col.len(),
            ncols: 1,
            col_stride: col.len(),
            data: col,
        }
    }

    /// Rows per column.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns (the panel width `k`).
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Distance between consecutive columns in the backing buffer.
    pub fn col_stride(&self) -> usize {
        self.col_stride
    }

    /// Column `c` as a contiguous slice.
    ///
    /// # Panics
    /// When `c >= ncols`.
    #[inline]
    pub fn col(&self, c: usize) -> &'a [T] {
        assert!(c < self.ncols, "panel: column {c} of {}", self.ncols);
        let lo = c * self.col_stride;
        &self.data[lo..lo + self.nrows]
    }

    /// Entry `(r, c)`.
    ///
    /// # Panics
    /// On out-of-range indices.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> T {
        assert!(r < self.nrows, "panel: row {r} of {}", self.nrows);
        self.col(c)[r]
    }
}

/// Exclusive view of a column-major `nrows × ncols` dense panel.
#[derive(Debug)]
pub struct PanelMut<'a, T> {
    data: &'a mut [T],
    nrows: usize,
    ncols: usize,
    col_stride: usize,
}

impl<'a, T: Scalar> PanelMut<'a, T> {
    /// Contiguous mutable panel (stride equal to `nrows`).
    ///
    /// # Panics
    /// When `data` is shorter than `nrows · ncols`.
    pub fn new(data: &'a mut [T], nrows: usize, ncols: usize) -> Self {
        Self::with_stride(data, nrows, ncols, nrows)
    }

    /// Mutable panel with an explicit column stride.
    ///
    /// # Panics
    /// When the layout invariants (module docs) do not hold.
    pub fn with_stride(data: &'a mut [T], nrows: usize, ncols: usize, col_stride: usize) -> Self {
        check_layout(data.len(), nrows, ncols, col_stride);
        PanelMut {
            data,
            nrows,
            ncols,
            col_stride,
        }
    }

    /// A single vector as a width-1 mutable panel.
    pub fn from_col(col: &'a mut [T]) -> Self {
        PanelMut {
            nrows: col.len(),
            ncols: 1,
            col_stride: col.len(),
            data: col,
        }
    }

    /// Rows per column.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns (the panel width `k`).
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Distance between consecutive columns in the backing buffer.
    pub fn col_stride(&self) -> usize {
        self.col_stride
    }

    /// Column `c` as a contiguous shared slice.
    ///
    /// # Panics
    /// When `c >= ncols`.
    #[inline]
    pub fn col(&self, c: usize) -> &[T] {
        assert!(c < self.ncols, "panel: column {c} of {}", self.ncols);
        let lo = c * self.col_stride;
        &self.data[lo..lo + self.nrows]
    }

    /// The whole backing buffer, gap entries included: entry `(r, c)`
    /// at `c · col_stride + r`. For kernels that address the panel
    /// themselves, such as the threaded apply, whose threads write
    /// rows of every column at once.
    pub fn data_mut(&mut self) -> &mut [T] {
        self.data
    }

    /// Column `c` as a contiguous mutable slice.
    ///
    /// # Panics
    /// When `c >= ncols`.
    #[inline]
    pub fn col_mut(&mut self, c: usize) -> &mut [T] {
        assert!(c < self.ncols, "panel: column {c} of {}", self.ncols);
        let lo = c * self.col_stride;
        &mut self.data[lo..lo + self.nrows]
    }

    /// Entry `(r, c)`.
    ///
    /// # Panics
    /// On out-of-range indices.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> T {
        assert!(r < self.nrows, "panel: row {r} of {}", self.nrows);
        self.col(c)[r]
    }

    /// Writes entry `(r, c)`.
    ///
    /// # Panics
    /// On out-of-range indices.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: T) {
        assert!(r < self.nrows, "panel: row {r} of {}", self.nrows);
        self.col_mut(c)[r] = v;
    }

    /// Reborrows as a shared [`Panel`].
    #[cfg(test)]
    pub(crate) fn as_panel(&self) -> Panel<'_, T> {
        Panel {
            data: self.data,
            nrows: self.nrows,
            ncols: self.ncols,
            col_stride: self.col_stride,
        }
    }
}

/// Owned, grow-only, column-major panel storage: the staging buffer
/// between *owned columns* (independent right-hand sides arriving from
/// separate clients) and the contiguous [`Panel`] views the batch
/// drivers consume.
///
/// The backing buffer only ever grows ([`PanelBuf::ensure`]), so after
/// warm-up at a given `(nrows, ncols)` the gather → solve → scatter
/// cycle performs zero heap allocations — the contract the solve
/// service's steady-state dispatch is tested against. The *shape* may
/// shrink freely (a narrower coalesced batch reuses the wide buffer).
#[derive(Debug, Clone, Default)]
pub struct PanelBuf<T> {
    data: Vec<T>,
    nrows: usize,
    ncols: usize,
}

impl<T: Scalar> PanelBuf<T> {
    /// Empty buffer (shape `0 × 0`, no storage).
    pub fn new() -> Self {
        PanelBuf {
            data: Vec::new(),
            nrows: 0,
            ncols: 0,
        }
    }

    /// Sets the current shape to `nrows × ncols`, growing the backing
    /// storage if (and only if) the new shape needs more entries.
    /// Entries are not cleared — callers overwrite via gather or
    /// [`PanelBuf::panel_mut`].
    pub fn ensure(&mut self, nrows: usize, ncols: usize) {
        let need = nrows * ncols;
        if self.data.len() < need {
            self.data.resize(need, T::ZERO);
        }
        self.nrows = nrows;
        self.ncols = ncols;
    }

    /// Rows per column of the current shape.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Columns of the current shape.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Gathers owned columns into the staging storage: sets the shape
    /// to `nrows × cols.len()` and copies each slice in as one column.
    ///
    /// # Panics
    /// When any column's length differs from `nrows`.
    pub fn gather<'s>(&mut self, nrows: usize, cols: impl ExactSizeIterator<Item = &'s [T]>)
    where
        T: 's,
    {
        self.ensure(nrows, cols.len());
        for (c, col) in cols.enumerate() {
            assert_eq!(col.len(), nrows, "panel gather: column {c} length");
            self.data[c * nrows..(c + 1) * nrows].copy_from_slice(col);
        }
    }

    /// Column `c` of the current shape as a contiguous slice.
    ///
    /// # Panics
    /// When `c >= ncols`.
    pub fn col(&self, c: usize) -> &[T] {
        assert!(c < self.ncols, "panel buf: column {c} of {}", self.ncols);
        &self.data[c * self.nrows..(c + 1) * self.nrows]
    }

    /// Copies column `c` out into a caller-owned slice (the scatter
    /// half of the gather/scatter cycle).
    ///
    /// # Panics
    /// When `c >= ncols` or `out.len() != nrows`.
    pub fn scatter_col(&self, c: usize, out: &mut [T]) {
        assert_eq!(out.len(), self.nrows, "panel buf: scatter length");
        out.copy_from_slice(self.col(c));
    }

    /// Borrowed [`Panel`] view of the current shape.
    pub fn panel(&self) -> Panel<'_, T> {
        Panel::new(
            &self.data[..self.nrows * self.ncols],
            self.nrows,
            self.ncols,
        )
    }

    /// Borrowed [`PanelMut`] view of the current shape.
    pub fn panel_mut(&mut self) -> PanelMut<'_, T> {
        PanelMut::new(
            &mut self.data[..self.nrows * self.ncols],
            self.nrows,
            self.ncols,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_columns_round_trip() {
        let data: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let p = Panel::new(&data, 4, 3);
        assert_eq!(p.nrows(), 4);
        assert_eq!(p.ncols(), 3);
        assert_eq!(p.col_stride(), 4);
        assert_eq!(p.col(0), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(p.col(2), &[8.0, 9.0, 10.0, 11.0]);
        assert_eq!(p.get(1, 2), 9.0);
    }

    #[test]
    fn strided_panel_skips_gap_entries() {
        // 2 rows per column inside stride-3 storage; the third entry of
        // each stride block is padding.
        let data = vec![1.0, 2.0, -1.0, 3.0, 4.0, -1.0];
        let p = Panel::with_stride(&data, 2, 2, 3);
        assert_eq!(p.col(0), &[1.0, 2.0]);
        assert_eq!(p.col(1), &[3.0, 4.0]);
    }

    #[test]
    fn mutable_panel_writes_and_reborrows() {
        let mut data = vec![0.0f64; 6];
        {
            let mut p = PanelMut::new(&mut data, 3, 2);
            p.set(2, 1, 7.0);
            p.col_mut(0)[1] = 5.0;
            assert_eq!(p.get(2, 1), 7.0);
            let shared = p.as_panel();
            assert_eq!(shared.col(0), &[0.0, 5.0, 0.0]);
            assert_eq!(shared.col(1), &[0.0, 0.0, 7.0]);
        }
        assert_eq!(data, vec![0.0, 5.0, 0.0, 0.0, 0.0, 7.0]);
    }

    #[test]
    fn single_vector_is_a_width_one_panel() {
        let mut v = vec![1.0, 2.0, 3.0];
        let p = Panel::from_col(&v);
        assert_eq!((p.nrows(), p.ncols(), p.col_stride()), (3, 1, 3));
        assert_eq!(p.col(0), &[1.0, 2.0, 3.0]);
        let mut m = PanelMut::from_col(&mut v);
        m.set(0, 0, 9.0);
        assert_eq!(v[0], 9.0);
    }

    #[test]
    fn zero_width_panel_is_fine() {
        let data: [f64; 0] = [];
        let p = Panel::new(&data, 5, 0);
        assert_eq!(p.ncols(), 0);
    }

    #[test]
    #[should_panic(expected = "panel: buffer")]
    fn short_buffer_rejected() {
        let data = vec![0.0f64; 5];
        let _ = Panel::new(&data, 3, 2);
    }

    #[test]
    #[should_panic(expected = "col_stride")]
    fn stride_below_nrows_rejected() {
        let data = vec![0.0f64; 10];
        let _ = Panel::with_stride(&data, 4, 2, 3);
    }

    #[test]
    #[should_panic(expected = "column 2")]
    fn column_out_of_range_rejected() {
        let data = vec![0.0f64; 4];
        let p = Panel::new(&data, 2, 2);
        let _ = p.col(2);
    }

    #[test]
    fn panel_buf_gathers_scatters_and_reshapes_without_regrowth() {
        let mut buf = PanelBuf::<f64>::new();
        let c0 = [1.0, 2.0, 3.0];
        let c1 = [4.0, 5.0, 6.0];
        buf.gather(3, [c0.as_slice(), c1.as_slice()].into_iter());
        assert_eq!((buf.nrows(), buf.ncols()), (3, 2));
        assert_eq!(buf.panel().col(1), &c1);
        let mut out = [0.0; 3];
        buf.scatter_col(0, &mut out);
        assert_eq!(out, c0);
        // Shrinking the shape reuses storage; the wide gather's data is
        // simply overwritten on the next use.
        buf.ensure(2, 1);
        buf.panel_mut().col_mut(0).copy_from_slice(&[9.0, 8.0]);
        assert_eq!(buf.col(0), &[9.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "column 0 length")]
    fn panel_buf_rejects_ragged_columns() {
        let mut buf = PanelBuf::<f64>::new();
        buf.gather(3, [[1.0, 2.0].as_slice()].into_iter());
    }
}
