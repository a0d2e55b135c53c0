//! The up-looking row kernel, the update list it streams, and the
//! value buffer it works in.
//!
//! ## The update list
//!
//! The pattern intersection the kernel needs — for L entry `(r, c)`,
//! which entries `u(c, j)` of the finished row `c` update which entries
//! `(r, j)` of row `r` — depends on the pattern only. `update_list`
//! resolves it once, at `SymbolicIlu::analyze`, into one `u32` pair per
//! update (the refactorization codes' precomputed elimination, as in
//! KLU's refactor and NICSLU). [`eliminate_columns`] then divides by
//! the pivot and streams the entry's pairs: no per-row column map, no
//! probe of a column that row `r` does not store.
//!
//! ## `LuVals` and the row-ownership protocol
//!
//! `LuVals` stores factor values in plain (`UnsafeCell`) memory that
//! several threads access concurrently — on **disjoint entries**. The
//! engines' synchronization protocols guarantee race freedom (see
//! `docs/ARCHITECTURE.md` §7 "Memory model"):
//!
//! * every entry belongs to exactly one row, and a row's values (all
//!   `k` interleaved lanes of them) are written only by the worker that
//!   currently *owns* the row;
//! * ownership is handed off through a release store of the owner's
//!   progress count (`factor_upper_p2p_planned`: one store per
//!   contiguous block of rows, so a row is released when its block
//!   ends) or
//!   a team-region join (between the stages: after the upper stage,
//!   after `factor_lower_er_planned`, before `factor_rows_serial` on
//!   the corner) after the row's last write, and acquired through the
//!   matching acquire-wait before any dependent read. A row stays
//!   untouched by its owner once finished, so a late release still
//!   covers exactly its final values.
//!
//! Under that protocol [`eliminate_columns`] and [`finalize_row`] check
//! out a whole row as an exclusive `&mut [T]` via
//! [`LuVals::view_mut`] and read finalized
//! rows as `&[T]` via [`LuVals::view`] — contiguous loads/stores the
//! compiler can vectorize, instead of per-element atomic round-trips
//! that block coalescing.
//!
//! The safe `get`/`set` accessors remain for cold paths (value load,
//! diagonal shift, the masked commit); they are
//! plain reads/writes bound by the same protocol. The straight-copy
//! commit reads through `values`, which needs `&mut` — no protocol
//! at all.

#![allow(unsafe_code)] // LuVals views; soundness argument in the module docs above.

use crate::numeric::NumericCtx;
use crate::options::ZeroPivotPolicy;
use javelin_sparse::lanes::{lane_fnma, Lanes};
use javelin_sparse::{Scalar, SparseError};
use std::cell::UnsafeCell;
use std::ops::Range;
use std::sync::atomic::Ordering;

/// One factor value in engine-shared plain memory.
///
/// `#[repr(transparent)]` guarantees a `[ValCell<T>]` has exactly the
/// layout of `[T]`, which is what lets [`LuVals::view`] /
/// [`LuVals::view_mut`] hand out real value slices.
#[repr(transparent)]
struct ValCell<T>(UnsafeCell<T>);

// Safety: cross-thread access to a cell is externally synchronized by
// the engines' row-ownership protocol (module docs): concurrent
// accesses always target disjoint entries, and same-entry accesses are
// ordered by a release/acquire edge.
unsafe impl<T: Send + Sync> Sync for ValCell<T> {}

/// Concurrently accessible factor values (see the module docs for the
/// ownership protocol that makes the shared-reference API race-free).
pub struct LuVals<T> {
    cells: Vec<ValCell<T>>,
}

impl<T> std::fmt::Debug for LuVals<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LuVals")
            .field("len", &self.cells.len())
            .finish()
    }
}

impl<T: Scalar> LuVals<T> {
    /// `n` zero-valued entries — the shape used by reusable plan/
    /// workspace buffers, which are loaded per call instead of built
    /// from a value slice.
    pub fn zeroed(n: usize) -> Self {
        LuVals {
            cells: (0..n).map(|_| ValCell(UnsafeCell::new(T::ZERO))).collect(),
        }
    }

    /// Like [`LuVals::zeroed`], but the zero-fill (the pages'
    /// first touch) is performed by the participants of `exec`, each
    /// initializing a contiguous chunk — so on first-touch NUMA systems
    /// a buffer's pages land near the workers that will stream it.
    pub fn zeroed_on(n: usize, exec: &javelin_sync::Exec) -> Self {
        let nthreads = exec.nthreads();
        if nthreads <= 1 || n == 0 {
            return Self::zeroed(n);
        }
        let mut cells: Vec<ValCell<T>> = Vec::with_capacity(n);
        let base = cells.as_mut_ptr();
        let chunk = n.div_ceil(nthreads);
        // Wrap the raw pointer so the region closure can share it (the
        // method keeps the 2021-edition closure capturing the whole
        // Sync wrapper, not the non-Sync pointer field).
        struct Ptr<T>(*mut ValCell<T>);
        unsafe impl<T> Sync for Ptr<T> {}
        impl<T> Ptr<T> {
            fn get(&self) -> *mut ValCell<T> {
                self.0
            }
        }
        let ptr = Ptr(base);
        exec.run(|tid| {
            let lo = (tid * chunk).min(n);
            let hi = ((tid + 1) * chunk).min(n);
            for i in lo..hi {
                // Safety: chunks are disjoint per tid and lie within the
                // reserved capacity; every index is written exactly once.
                unsafe { ptr.get().add(i).write(ValCell(UnsafeCell::new(T::ZERO))) };
            }
        });
        // Safety: all `n` elements were initialized in the region above,
        // and the region join happens-before this call.
        unsafe { cells.set_len(n) };
        LuVals { cells }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Every entry in order. Exclusive access rules out a concurrent
    /// writer, so these are plain reads the compiler can stream (the
    /// factor storage's commit copies through this).
    pub(crate) fn values(&mut self) -> impl Iterator<Item = T> + '_ {
        self.cells.iter_mut().map(|c| *c.0.get_mut())
    }

    /// Reads entry `i`. A plain load; the caller must not race a
    /// concurrent write of the same entry (the ownership protocol
    /// guarantees this everywhere the engines call it).
    #[inline(always)]
    pub fn get(&self, i: usize) -> T {
        // Safety: in-bounds (indexing the Vec checks), and same-entry
        // write/read pairs are ordered per the module docs.
        unsafe { *self.cells[i].0.get() }
    }

    /// Writes entry `i`. A plain store; same contract as [`LuVals::get`].
    #[inline(always)]
    pub fn set(&self, i: usize, v: T) {
        // Safety: see `get`.
        unsafe { *self.cells[i].0.get() = v }
    }

    /// A shared view of `range`.
    ///
    /// # Safety
    /// No entry in `range` may be written by any thread for the
    /// lifetime of the returned slice (the entries must be finalized or
    /// otherwise quiescent under the row-ownership protocol).
    #[inline(always)]
    pub unsafe fn view(&self, range: Range<usize>) -> &[T] {
        debug_assert!(range.end <= self.cells.len());
        std::slice::from_raw_parts(
            self.cells.as_ptr().cast::<T>().add(range.start),
            range.len(),
        )
    }

    /// An exclusive view of `range`.
    ///
    /// # Safety
    /// The caller must exclusively own every entry in `range` for the
    /// lifetime of the returned slice: no other thread may read *or*
    /// write them (the row-ownership window between a row's ready- and
    /// retire-signal).
    #[inline(always)]
    #[allow(clippy::mut_from_ref)] // checked-out row ownership; see Safety
    pub unsafe fn view_mut(&self, range: Range<usize>) -> &mut [T] {
        debug_assert!(range.end <= self.cells.len());
        std::slice::from_raw_parts_mut(
            self.cells.as_ptr().cast::<T>().cast_mut().add(range.start),
            range.len(),
        )
    }
}

/// Converts a pattern index or count to the `u32` the analysis stores
/// it as.
///
/// # Errors
/// [`SparseError::InvalidStructure`] when `i` exceeds `u32::MAX`.
pub(crate) fn index_u32(i: usize, what: &str) -> Result<u32, SparseError> {
    u32::try_from(i).map_err(|_| {
        SparseError::InvalidStructure(format!("{what} = {i} exceeds the u32 index range"))
    })
}

/// The update list of an LU pattern: every elimination update the
/// up-looking kernel performs, resolved once from the pattern.
///
/// For LU entry `e = (r, c)` with `c < r`, `list[ptr[e]..ptr[e + 1]]`
/// holds one `[dst, src]` pair per column `j > c` stored in both rows
/// `r` and `c`, in U-row column order: `dst` is the entry `(r, j)`,
/// `src` the entry `u(c, j)`. Every other entry's range is empty, so
/// the list is ordered by L entry in row order.
///
/// One branch-free pass: a column → entry map of row `r` with a `NONE`
/// sentinel, every candidate written and the cursor advanced by
/// whether it hit; the map is reset after the row.
///
/// # Errors
/// [`SparseError::InvalidStructure`] when the entry count or the update
/// count does not fit in `u32`.
pub(crate) fn update_list(
    rowptr: &[usize],
    colidx: &[usize],
    diag_pos: &[usize],
) -> Result<(Vec<u32>, Vec<[u32; 2]>), SparseError> {
    const NONE: u32 = u32::MAX;
    let n = rowptr.len() - 1;
    // Every entry index is then below `NONE`.
    index_u32(colidx.len(), "nnz_lu")?;
    let mut pos = vec![NONE; n];
    let mut ptr = Vec::with_capacity(colidx.len() + 1);
    ptr.push(0u32);
    let mut list: Vec<[u32; 2]> = Vec::new();
    let mut len = 0usize;
    for r in 0..n {
        let (lo, dp, hi) = (rowptr[r], diag_pos[r], rowptr[r + 1]);
        for (e, &c) in (index_u32(lo, "entry")?..).zip(&colidx[lo..hi]) {
            pos[c] = e;
        }
        let candidates: usize = colidx[lo..dp]
            .iter()
            .map(|&c| rowptr[c + 1] - diag_pos[c] - 1)
            .sum();
        list.resize(len + candidates, [0; 2]);
        for &c in &colidx[lo..dp] {
            let u_lo = index_u32(diag_pos[c] + 1, "entry")?;
            let u_hi = index_u32(rowptr[c + 1], "entry")?;
            for src in u_lo..u_hi {
                let dst = pos[colidx[src as usize]];
                list[len] = [dst, src];
                len += usize::from(dst != NONE);
            }
            ptr.push(index_u32(len, "n_updates")?);
        }
        // The diagonal and U entries eliminate nothing.
        ptr.resize(ptr.len() + hi - dp, index_u32(len, "n_updates")?);
        for &c in &colidx[lo..hi] {
            pos[c] = NONE;
        }
    }
    list.truncate(len);
    list.shrink_to_fit();
    Ok((ptr, list))
}

/// Processes the L-columns of row `r` with `col_lo <= c < min(col_hi, r)`
/// — the up-looking elimination steps of the paper's Fig. 1, restricted
/// to a column window so the two-stage engines can split a row's work —
/// with the per-entry arithmetic looped over the `k` lanes. Per L entry
/// it divides by the pivot and streams that entry's pairs of the
/// analysis's update list (module docs): no pattern search, no miss.
/// The list walk serves every lane; at `FixedLanes<1>` the lane loops
/// fold away and this *is* the scalar kernel.
///
/// Requires every row `c` in the window to be finalized. The caller
/// must own row `r` exclusively (all engines call this only inside the
/// row's ownership window).
#[inline]
pub fn eliminate_columns<T: Scalar, L: Lanes>(
    lanes: L,
    ctx: &NumericCtx<'_, T>,
    r: usize,
    col_lo: usize,
    col_hi: usize,
) {
    let k = lanes.width();
    let hi = col_hi.min(r);
    let dropping = !ctx.drop_thresh.is_empty();
    let erange = ctx.row_range(r);
    let base = erange.start;
    // Safety: row `r` is exclusively owned by this worker between its
    // ready- and retire-signal (function contract above), so its `k`
    // interleaved lanes are private.
    let vr = unsafe { ctx.vals.view_mut(base * k..erange.end * k) };
    for e in erange {
        let c = ctx.colidx[e];
        if c >= hi {
            break;
        }
        if c < col_lo {
            continue;
        }
        let dp = ctx.diag_pos[c];
        // Safety: row `c < r` is finalized (function contract), hence
        // quiescent for the remainder of the factorization; its lanes
        // (diagonal included) are read-only from here on.
        let uc = unsafe { ctx.vals.view(dp * k..ctx.rowptr[c + 1] * k) };
        // a[r, j] -= l * u[c, j] for every j > c stored in both rows:
        // `dst` is (r, j), `src` is u(c, j).
        let upd = ctx.updates_of(e);
        let le = (e - base) * k;
        if dropping {
            // τ-dropping is per-lane control flow (each lane decides
            // independently whether to zero the entry and skip its
            // sweep), so walk lane-major.
            for lane in 0..k {
                let l = vr[le + lane] / uc[lane];
                if l.abs() < ctx.drop_thresh[lanes.idx(r, lane)] {
                    // Treat as zero immediately: skip the update sweep.
                    // The position stays in the (shared) pattern so
                    // schedules remain valid.
                    vr[le + lane] = T::ZERO;
                    ctx.dropped[lane].fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                vr[le + lane] = l;
                for &[dst, src] in upd {
                    let (p, u) = (dst as usize - base, src as usize - dp);
                    vr[p * k + lane] -= l * uc[u * k + lane];
                }
            }
        } else {
            // Fused path: no lane can drop, so compute every lane's
            // multiplier first, then retire the update sweep one entry
            // at a time through the k-lane `lane_fnma` micro-op.
            // Entry-major vs lane-major is bit-identical: each
            // (entry, lane) location is updated exactly once per
            // eliminated column, in the same per-location order, with
            // the same multiply-then-subtract expression.
            //
            // Columns are sorted within a row, so every `dst` lies
            // strictly past entry `e`; splitting at the end of `e`'s
            // lane block lets the stored multipliers serve as
            // `lane_fnma`'s per-lane coefficients.
            let (head, tail) = vr.split_at_mut(le + k);
            let lrow = &mut head[le..];
            for lane in 0..k {
                lrow[lane] /= uc[lane];
            }
            for &[dst, src] in upd {
                let (p, u) = (dst as usize - e - 1, src as usize - dp);
                lane_fnma(lanes, lrow, &uc[u * k..][..k], &mut tail[p * k..][..k]);
            }
        }
    }
}

/// Finalizes row `r`, per lane: applies the τ drop rule to the strict U
/// part, MILU compensation, and the pivot breakdown policy. Must be
/// called exactly once per row, after its last elimination step and
/// before any dependent row reads it. A collapsing pivot marks (or,
/// under [`ZeroPivotPolicy::Replace`], repairs) **only its own lane**;
/// neighbours finalize untouched. The `numeric.pivot` failpoint fires
/// once per lane, so chaos tests can poison a single scenario column.
#[inline]
pub fn finalize_row<T: Scalar, L: Lanes>(lanes: L, ctx: &NumericCtx<'_, T>, r: usize) {
    let k = lanes.width();
    let dp = ctx.diag_pos[r];
    let dropping = !ctx.drop_thresh.is_empty();
    // Safety: finalize runs exactly once per row, inside row `r`'s
    // exclusive ownership window, before any dependent row reads it.
    let vr = unsafe { ctx.vals.view_mut(dp * k..ctx.rowptr[r + 1] * k) };
    for lane in 0..k {
        let mut dropped_sum = T::ZERO;
        if dropping {
            let thresh = ctx.drop_thresh[lanes.idx(r, lane)];
            for v in vr.iter_mut().skip(k + lane).step_by(k) {
                if *v != T::ZERO && v.abs() < thresh {
                    dropped_sum += *v;
                    *v = T::ZERO;
                    ctx.dropped[lane].fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let mut d = vr[lane];
        if ctx.milu_omega != T::ZERO {
            d += ctx.milu_omega * dropped_sum;
        }
        match javelin_sparse::fault::fire("numeric.pivot") {
            Some(javelin_sparse::fault::FaultAction::Zero) => d = T::ZERO,
            Some(javelin_sparse::fault::FaultAction::Nan) => d = T::from_f64(f64::NAN),
            Some(javelin_sparse::fault::FaultAction::Panic) => {
                panic!("fault injected at numeric.pivot")
            }
            None => {}
        }
        // A non-finite pivot is a breakdown too: NaN/Inf compares false
        // against the threshold but would poison every dependent row.
        if d.abs() < ctx.pivot_threshold || !d.is_finite() {
            match ctx.zero_pivot {
                // ShiftRetry attempts run with Error semantics per
                // sweep; the driver above the engines applies the
                // per-lane shifts.
                ZeroPivotPolicy::Error | ZeroPivotPolicy::ShiftRetry { .. } => {
                    ctx.record_failure(lane, r)
                }
                ZeroPivotPolicy::Replace { replacement } => {
                    let rep = T::from_f64(replacement);
                    d = if d < T::ZERO { -rep } else { rep };
                    ctx.replaced[lane].fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        vr[lane] = d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric::CtxFixture;
    use javelin_sparse::lanes::{DynLanes, FixedLanes};

    #[test]
    fn luvals_roundtrip_f64() {
        let v = LuVals::<f64>::zeroed(3);
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
        v.set(1, -2.25);
        assert_eq!(v.get(1), -2.25);
        v.set(1, 7.0);
        assert_eq!(
            (0..3).map(|i| v.get(i)).collect::<Vec<_>>(),
            [0.0, 7.0, 0.0]
        );
    }

    #[test]
    fn luvals_roundtrip_f32() {
        let v = LuVals::<f32>::zeroed(2);
        v.set(0, -1.25);
        assert_eq!([v.get(0), v.get(1)], [-1.25f32, 0.0]);
    }

    #[test]
    fn index_conversion_accepts_u32_max_and_rejects_past_it() {
        let max = u32::MAX as usize;
        assert_eq!(index_u32(max, "nnz_lu").unwrap(), u32::MAX);
        assert!(matches!(
            index_u32(max + 1, "nnz_lu"),
            Err(SparseError::InvalidStructure(_))
        ));
    }

    #[test]
    fn update_list_pairs_each_l_entry_with_its_shared_u_columns() {
        // Rows: 0 = {0, 2}, 1 = {1, 2}, 2 = {0, 1, 2}. L entry (2, 0)
        // is updated through u(0, 2) into (2, 2); L entry (2, 1)
        // through u(1, 2) into (2, 2). No other entry eliminates.
        let (rowptr, colidx) = (vec![0, 2, 4, 7], vec![0, 2, 1, 2, 0, 1, 2]);
        let diag_pos = vec![0, 2, 6];
        let (ptr, list) = update_list(&rowptr, &colidx, &diag_pos).unwrap();
        assert_eq!(ptr, [0, 0, 0, 0, 0, 1, 2, 2]);
        assert_eq!(list, [[6, 1], [6, 3]]);
    }

    const ONE: FixedLanes<1> = FixedLanes::<1>;

    /// 2x2 dense: A = [[4, 2], [1, 3]]; LU: l21 = 1/4, u22 = 3 - 2/4.
    #[test]
    fn eliminates_a_2x2_row() {
        let fx = CtxFixture::dense(2, &[vec![4.0, 2.0, 1.0, 3.0]]);
        let ctx = fx.ctx();
        finalize_row(ONE, &ctx, 0);
        eliminate_columns(ONE, &ctx, 1, 0, 2);
        finalize_row(ONE, &ctx, 1);
        assert_eq!(fx.lane(0), vec![4.0, 2.0, 0.25, 2.5]);
        assert_eq!(fx.failed_row[0].load(Ordering::Relaxed), usize::MAX);
    }

    #[test]
    fn window_split_equals_full_sweep() {
        // Row 2 of a dense 3x3 processed as [0,1) then [1,2) must equal
        // one [0,2) sweep.
        let a = vec![4.0, 1.0, 2.0, 1.0, 5.0, 1.0, 2.0, 1.0, 6.0];
        let run = |windows: &[(usize, usize)]| -> Vec<f64> {
            let fx = CtxFixture::dense(3, std::slice::from_ref(&a));
            let ctx = fx.ctx();
            for r in 0..3 {
                if r < 2 {
                    eliminate_columns(ONE, &ctx, r, 0, 3);
                } else {
                    for &(lo, hi) in windows {
                        eliminate_columns(ONE, &ctx, r, lo, hi);
                    }
                }
                finalize_row(ONE, &ctx, r);
            }
            fx.lane(0)
        };
        let full = run(&[(0, 3)]);
        let split = run(&[(0, 1), (1, 3)]);
        assert_eq!(full, split);
    }

    #[test]
    fn pivot_replacement_policy() {
        // Diagonal becomes exactly zero: 1x1 matrix with value 0.
        let mut fx = CtxFixture::dense(1, &[vec![0.0]]);
        fx.zero_pivot = ZeroPivotPolicy::Replace { replacement: 1e-6 };
        finalize_row(ONE, &fx.ctx(), 0);
        assert_eq!(fx.replaced[0].load(Ordering::Relaxed), 1);
        assert_eq!(fx.vals.get(0), 1e-6);
    }

    #[test]
    fn pivot_error_policy_records_row() {
        let fx = CtxFixture::dense(1, &[vec![0.0]]);
        finalize_row(ONE, &fx.ctx(), 0);
        assert_eq!(fx.failed_row[0].load(Ordering::Relaxed), 1); // row 0 + 1
    }

    #[test]
    fn dropping_zeroes_small_u_entries_and_milu_compensates() {
        // Row 0: diag 2.0 with tiny U neighbour 1e-9.
        let mut fx = CtxFixture::new(vec![0, 2, 3], vec![0, 1, 1], &[vec![2.0, 1e-9, 1.0]]);
        fx.drop_thresh = vec![1e-6, 1e-6];
        fx.milu_omega = 1.0;
        finalize_row(ONE, &fx.ctx(), 0);
        assert_eq!(fx.dropped[0].load(Ordering::Relaxed), 1);
        assert_eq!(fx.vals.get(1), 0.0);
        // MILU: diag absorbed the dropped value.
        assert_eq!(fx.vals.get(0), 2.0 + 1e-9);
    }

    /// Dense 4x4 nonsymmetric value-set, perturbed per `scale`.
    fn dense4(scale: f64) -> Vec<f64> {
        let a = [
            [10.0, 1.0, 2.0, 0.5],
            [1.5, 9.0, 0.5, 1.0],
            [2.0, 0.5, 8.0, 1.5],
            [0.5, 1.0, 1.5, 7.0],
        ];
        a.iter()
            .flatten()
            .enumerate()
            .map(|(i, v)| v * scale + i as f64 * 0.01 * (scale - 1.0))
            .collect()
    }

    /// Full serial sweep of `scenarios` at width `lanes`.
    fn sweep<L: Lanes>(lanes: L, scenarios: &[Vec<f64>]) -> CtxFixture {
        assert_eq!(scenarios.len(), lanes.width());
        let fx = CtxFixture::dense(4, scenarios);
        for r in 0..4 {
            eliminate_columns(lanes, &fx.ctx(), r, 0, 4);
            finalize_row(lanes, &fx.ctx(), r);
        }
        fx
    }

    #[test]
    fn every_lane_matches_the_width_one_kernel_bitwise() {
        let scenarios: Vec<Vec<f64>> = [1.0, 1.25, 0.8, 2.0].map(dense4).to_vec();
        let fixed = sweep(FixedLanes::<4>, &scenarios);
        let dynamic = sweep(DynLanes(4), &scenarios);
        for (c, s) in scenarios.iter().enumerate() {
            let scalar = sweep(ONE, std::slice::from_ref(s));
            assert_eq!(scalar.failed_row[0].load(Ordering::Relaxed), usize::MAX);
            assert_eq!(fixed.lane_bits(c), scalar.lane_bits(0), "fixed lane {c}");
            assert_eq!(dynamic.lane_bits(c), scalar.lane_bits(0), "dyn lane {c}");
        }
    }

    #[test]
    fn one_singular_lane_fails_without_perturbing_neighbours() {
        // Lane 1's row 2 is zeroed so its pivot collapses there; the
        // other lanes' factors and flags must be exactly those of a
        // clean run.
        let clean: Vec<Vec<f64>> = [1.0, 1.25, 0.8].map(dense4).to_vec();
        let reference = sweep(DynLanes(3), &clean);
        let mut poisoned = clean.clone();
        poisoned[1][8..12].fill(0.0);
        let got = sweep(DynLanes(3), &poisoned);
        let failed: Vec<usize> = got
            .failed_row
            .iter()
            .map(|f| f.load(Ordering::Relaxed))
            .collect();
        assert_eq!(failed, [usize::MAX, 3, usize::MAX]); // lane 1: row 2 + 1
        for c in [0usize, 2] {
            assert_eq!(got.lane_bits(c), reference.lane_bits(c), "lane {c}");
        }
    }
}
