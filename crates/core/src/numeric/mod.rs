//! Numeric up-looking incomplete factorization (paper Fig. 1, §III).
//!
//! There is **one** numeric engine, generic over a
//! [`Lanes`](javelin_sparse::lanes::Lanes) width `k`: the pattern
//! machinery (schedule walk, point-to-point waits, counter resets, team
//! regions, the update-list stream) runs once per row and the per-entry
//! arithmetic loops over `k` value-sets. Scalar factorization is the
//! `FixedLanes<1>` instantiation; a batch of `k` pattern-identical
//! scenario matrices is the same code at width `k`.
//!
//! No walk searches the pattern: every elimination update — which
//! entry of a finished row updates which entry of the current row — is
//! resolved by `SymbolicIlu::analyze` into one `u32` update list
//! (`NumericCtx::upd`; see [`kernel`]), which the serial,
//! point-to-point and Even-Rows walks all stream. A walk therefore
//! needs no per-thread workspace.
//!
//! Layout: lane `c` of LU entry `e` lives at `e·k + c` (the
//! `Lanes::idx` convention), per-lane τ thresholds at `r·k + c`.
//!
//! Determinism: all engines execute the *same* per-row kernel in the
//! *same* within-row operation order, and lane arithmetic touches only
//! lane-`c` positions and lane-`c` counters. So the serial,
//! point-to-point and Even-Rows paths produce **bit-identical**
//! factors, and lane `c` of any width is
//! bit-identical to a width-1 run on matrix `c` alone — properties the
//! test suite enforces. Engine choice affects only who executes which
//! row when.

pub(crate) mod kernel;
pub(crate) mod parallel;

pub(crate) use kernel::LuVals;

use crate::options::ZeroPivotPolicy;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Shared state of one numeric sweep: the lane-interleaved values plus
/// **per-lane** counters, so one scenario's breakdown or drop
/// statistics never bleed into its neighbours.
pub(crate) struct NumericCtx<'a, T: javelin_sparse::Scalar> {
    /// Combined-LU pattern row pointers (permuted).
    pub rowptr: &'a [usize],
    /// Combined-LU pattern column indices (permuted).
    pub colidx: &'a [usize],
    /// Diagonal entry position of each row.
    pub diag_pos: &'a [usize],
    /// Update-list range of each LU entry (`nnz + 1` offsets).
    pub upd_ptr: &'a [u32],
    /// The update list: per elimination update, the `[dst, src]`
    /// entries of `a[r, j] -= l[r, c]·u[c, j]`.
    pub upd: &'a [[u32; 2]],
    /// Lane-interleaved values (initialized from `A`, overwritten in
    /// place): lane `c` of entry `e` at `e·k + c`.
    pub vals: &'a LuVals<T>,
    /// Lane-interleaved per-row τ drop thresholds (`r·k + c`); an empty
    /// slice disables dropping for every lane.
    pub drop_thresh: &'a [T],
    /// MILU compensation factor ω.
    pub milu_omega: T,
    /// Pivot breakdown threshold.
    pub pivot_threshold: T,
    /// Breakdown policy.
    pub zero_pivot: ZeroPivotPolicy,
    /// Per-lane replaced-pivot counters.
    pub replaced: &'a [AtomicUsize],
    /// Per-lane dropped-entry counters.
    pub dropped: &'a [AtomicUsize],
    /// Per-lane breakdown flags: `usize::MAX` = ok, else the smallest
    /// failing row + 1 of that lane.
    pub failed_row: &'a [AtomicUsize],
}

impl<'a, T: javelin_sparse::Scalar> NumericCtx<'a, T> {
    /// Entry range of a row.
    #[inline(always)]
    pub(crate) fn row_range(&self, r: usize) -> std::ops::Range<usize> {
        self.rowptr[r]..self.rowptr[r + 1]
    }

    /// The `[dst, src]` update pairs of L entry `e`, in U-row column
    /// order (empty for diagonal and U entries).
    #[inline(always)]
    pub(crate) fn updates_of(&self, e: usize) -> &'a [[u32; 2]] {
        &self.upd[self.upd_ptr[e] as usize..self.upd_ptr[e + 1] as usize]
    }

    /// Matrix dimension.
    #[inline(always)]
    pub(crate) fn n(&self) -> usize {
        self.rowptr.len() - 1
    }

    /// Records a pivot breakdown of `lane` at `row`.
    #[inline]
    pub(crate) fn record_failure(&self, lane: usize, row: usize) {
        // Keep the smallest failing row for a deterministic error.
        self.failed_row[lane].fetch_min(row + 1, Ordering::AcqRel);
    }
}

/// Test fixture owning everything a [`NumericCtx`] borrows: `k`
/// value-sets over one pattern, interleaved, with fresh per-lane
/// counters.
#[cfg(test)]
pub(crate) struct CtxFixture {
    pub rowptr: Vec<usize>,
    pub colidx: Vec<usize>,
    pub diag_pos: Vec<usize>,
    pub upd_ptr: Vec<u32>,
    pub upd: Vec<[u32; 2]>,
    pub vals: LuVals<f64>,
    pub drop_thresh: Vec<f64>,
    pub milu_omega: f64,
    pub zero_pivot: ZeroPivotPolicy,
    pub replaced: Vec<AtomicUsize>,
    pub dropped: Vec<AtomicUsize>,
    pub failed_row: Vec<AtomicUsize>,
}

#[cfg(test)]
impl CtxFixture {
    /// Fixture over the CSR pattern `(rowptr, colidx)` with one lane per
    /// value-set in `scenarios`.
    pub(crate) fn new(rowptr: Vec<usize>, colidx: Vec<usize>, scenarios: &[Vec<f64>]) -> Self {
        let k = scenarios.len();
        let diag_pos: Vec<usize> = (0..rowptr.len() - 1)
            .map(|r| rowptr[r] + colidx[rowptr[r]..rowptr[r + 1]].binary_search(&r).unwrap())
            .collect();
        let (upd_ptr, upd) = kernel::update_list(&rowptr, &colidx, &diag_pos).unwrap();
        let vals = LuVals::zeroed(colidx.len() * k);
        for (c, s) in scenarios.iter().enumerate() {
            for (e, &v) in s.iter().enumerate() {
                vals.set(e * k + c, v);
            }
        }
        let counters = |init| (0..k).map(|_| AtomicUsize::new(init)).collect();
        CtxFixture {
            rowptr,
            colidx,
            diag_pos,
            upd_ptr,
            upd,
            vals,
            drop_thresh: Vec::new(),
            milu_omega: 0.0,
            zero_pivot: ZeroPivotPolicy::Error,
            replaced: counters(0),
            dropped: counters(0),
            failed_row: counters(usize::MAX),
        }
    }

    /// Dense `n×n` pattern, one lane per flattened row-major value-set.
    pub(crate) fn dense(n: usize, scenarios: &[Vec<f64>]) -> Self {
        let rowptr = (0..=n).map(|i| i * n).collect();
        let colidx = (0..n).flat_map(|_| 0..n).collect();
        Self::new(rowptr, colidx, scenarios)
    }

    pub(crate) fn ctx(&self) -> NumericCtx<'_, f64> {
        NumericCtx {
            rowptr: &self.rowptr,
            colidx: &self.colidx,
            diag_pos: &self.diag_pos,
            upd_ptr: &self.upd_ptr,
            upd: &self.upd,
            vals: &self.vals,
            drop_thresh: &self.drop_thresh,
            milu_omega: self.milu_omega,
            pivot_threshold: 1e-14,
            zero_pivot: self.zero_pivot,
            replaced: &self.replaced,
            dropped: &self.dropped,
            failed_row: &self.failed_row,
        }
    }

    /// Lane `c`'s values, de-interleaved.
    pub(crate) fn lane(&self, c: usize) -> Vec<f64> {
        let k = self.replaced.len();
        (0..self.colidx.len())
            .map(|e| self.vals.get(e * k + c))
            .collect()
    }

    /// Lane `c`'s values as bit patterns.
    pub(crate) fn lane_bits(&self, c: usize) -> Vec<u64> {
        self.lane(c).iter().map(|v| v.to_bits()).collect()
    }
}
