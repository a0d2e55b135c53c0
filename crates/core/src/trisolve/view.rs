//! [`FactorView`] — the one place that knows how a factor is stored.
//!
//! Every sweep kernel (the Serial substitution, the threaded engines'
//! row retires, the Even-Rows trailing rows, the corner rows) reads the
//! combined LU factor through this view: a pattern's `rowptr` /
//! `colidx` / `diag_pos` plus a [`LaneValues`] addressing that says
//! which stored value right-hand-side lane `c` multiplies entry `e` by.
//!
//! The index width is the view's type parameter `I`, one body with two
//! instantiations, the way the lane layer handles width: the
//! analysis's apply streams its `u32` pattern
//! (`crate::pattern::CsrPattern`, 4 bytes per index), and the public
//! `serial::{forward_inplace, backward_inplace}` read a standalone
//! combined-LU [`javelin_sparse::CsrMatrix`] at `usize`. The
//! arithmetic does not see the width, so both carry the same bits. A
//! change of index width, stream order or value layout is a change in
//! this file.

use javelin_sparse::{Scalar, SpIndex};
use std::ops::Range;

/// One factor entry as a kernel's lane loop sees it.
pub(crate) trait EntryLanes<T>: Copy {
    /// The entry's value for lane `c` of the chunk it was fetched for.
    fn lane(self, c: usize) -> T;
}

impl<T: Scalar> EntryLanes<T> for T {
    #[inline(always)]
    fn lane(self, _c: usize) -> T {
        self
    }
}

impl<T: Scalar> EntryLanes<T> for &[T] {
    #[inline(always)]
    fn lane(self, c: usize) -> T {
        self[c]
    }
}

/// How right-hand-side lane `c` finds its value of factor entry `e`.
pub(crate) trait LaneValues: Copy + Sync {
    /// The factor's scalar type.
    type Value: Scalar;
    /// What [`LaneValues::entry`] hands the lane loop: the loaded value
    /// where the lanes share it, the entry's lane slice where they do
    /// not — so the shared instantiation keeps its one load per entry.
    type Entry: EntryLanes<Self::Value>;

    /// Entry `e`'s values for lanes `c0..c0 + cw`.
    fn entry(self, e: usize, c0: usize, cw: usize) -> Self::Entry;
}

/// `vals[e]` — one factor under every lane: a width-1
/// [`crate::FactorsBatch`] ([`crate::IluFactors`]) at any panel width.
#[derive(Clone, Copy)]
pub(crate) struct Shared<'a, T>(pub &'a [T]);

impl<T: Scalar> LaneValues for Shared<'_, T> {
    type Value = T;
    type Entry = T;

    #[inline(always)]
    fn entry(self, e: usize, _c0: usize, _cw: usize) -> T {
        self.0[e]
    }
}

/// `vals[e·k + c]` — lane `c` against scenario `c` of a lane-interleaved
/// [`crate::FactorsBatch`] buffer. A single right-hand side against
/// scenario `c₀` (`vals[e·k + c₀]`) is this addressing at width 1 over
/// `&vals[c₀..]`.
#[derive(Clone, Copy)]
pub(crate) struct PerLane<'a, T> {
    pub vals: &'a [T],
    /// The buffer's scenario count (its lane stride), at least the
    /// width of any panel applied through it.
    pub k: usize,
}

impl<'a, T: Scalar> LaneValues for PerLane<'a, T> {
    type Value = T;
    type Entry = &'a [T];

    #[inline(always)]
    fn entry(self, e: usize, c0: usize, cw: usize) -> &'a [T] {
        let base = e * self.k + c0;
        &self.vals[base..base + cw]
    }
}

/// The combined LU factor (unit L diagonal implicit, permuted ordering)
/// as the sweep kernels read it, its pattern stored at index width `I`.
#[derive(Clone, Copy)]
pub(crate) struct FactorView<'a, I, V> {
    rowptr: &'a [I],
    colidx: &'a [I],
    diag_pos: &'a [I],
    vals: V,
}

impl<'a, I: SpIndex, V: LaneValues> FactorView<'a, I, V> {
    pub(crate) fn new(rowptr: &'a [I], colidx: &'a [I], diag_pos: &'a [I], vals: V) -> Self {
        FactorView {
            rowptr,
            colidx,
            diag_pos,
            vals,
        }
    }

    /// Factor dimension.
    #[inline(always)]
    pub(crate) fn n(&self) -> usize {
        self.diag_pos.len()
    }

    /// Entries of row `r`'s strictly-lower (L) part.
    #[inline(always)]
    pub(crate) fn lower(&self, r: usize) -> Range<usize> {
        self.rowptr[r].ix()..self.diag_pos[r].ix()
    }

    /// Entries of row `r`'s strictly-upper (U) part.
    #[inline(always)]
    pub(crate) fn upper(&self, r: usize) -> Range<usize> {
        self.diag_pos[r].ix() + 1..self.rowptr[r + 1].ix()
    }

    /// Column of entry `e`.
    #[inline(always)]
    pub(crate) fn col(&self, e: usize) -> usize {
        self.colidx[e].ix()
    }

    /// Entry `e`'s values for lanes `c0..c0 + cw`.
    #[inline(always)]
    pub(crate) fn entry(&self, e: usize, c0: usize, cw: usize) -> V::Entry {
        self.vals.entry(e, c0, cw)
    }

    /// Row `r`'s pivot `U[r, r]` for lanes `c0..c0 + cw`.
    #[inline(always)]
    pub(crate) fn pivot(&self, r: usize, c0: usize, cw: usize) -> V::Entry {
        self.vals.entry(self.diag_pos[r].ix(), c0, cw)
    }
}
