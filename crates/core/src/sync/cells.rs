//! [`RegionCells`]: a buffer the threads of one region share as plain
//! cells — the threaded apply's solve buffers and solution panel, and
//! the spmv plan's output panel.

#![allow(unsafe_code)] // RegionCells' Sync; protocol in docs/ARCHITECTURE.md §7.

use std::cell::Cell;

/// A buffer the region's threads share as plain cells, taken once per
/// region from an exclusive borrow.
#[derive(Clone, Copy)]
pub(crate) struct RegionCells<'a, T>(pub(crate) &'a [Cell<T>]);

// Safety: the cells are accessed under the row-ownership protocol
// (docs/ARCHITECTURE.md §7): a slot is written only by the thread that
// owns its row (and, in the column-split stages, its column) at that
// stage, and every read of another thread's slot is ordered after the
// write by a progress-counter release/acquire pair, a barrier or the
// region join. The spmv plan's threads write disjoint row ranges.
// Concurrent accesses therefore touch disjoint slots.
unsafe impl<T: Send> Sync for RegionCells<'_, T> {}

impl<'a, T> RegionCells<'a, T> {
    pub(crate) fn new(buf: &'a mut [T]) -> Self {
        RegionCells(Cell::from_mut(buf).as_slice_of_cells())
    }
}
