//! [`RegionCells`]: a buffer the threads of one region share as plain
//! cells — the numeric factorization's value buffer and τ thresholds
//! (load region and walks), the threaded apply's solve buffer and
//! solution panel, the spmv plan's output panel, and the Krylov vector
//! passes' output vector and block sums. It is the crate's one way to
//! share a buffer across threads.

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
// region join. A factor row is owned by one numeric walk at a time:
// from its block's wait (point-to-point upper stage), its region's
// fork (Even-Rows chunk) or the last region's join (serial corner)
// until that stage is done with it; a finalized row is never written
// again, and a dependent row reads it only after the block-end release
// or the region join. Before the walks, the load region's threads each
// own a disjoint `col_range` share of the LU entries and of the rows'
// τ thresholds from the region's fork to its join, and the walks read
// the loaded values only after that join. The spmv plan's threads
// write disjoint row ranges. A vector pass's thread owns whole
// reduction blocks, `col_range(n_blocks, nthreads, tid)`, from the
// region's fork to its join: it writes only its blocks' entries and
// block-sum slots, reads no other thread's, and the caller reads the
// slots after the join. Concurrent accesses therefore touch disjoint
// slots.
unsafe impl<T: Send> Sync for RegionCells<'_, T> {}

impl<'a, T> RegionCells<'a, T> {
    pub(crate) fn new(buf: &'a mut [T]) -> Self {
        RegionCells(Cell::from_mut(buf).as_slice_of_cells())
    }
}
