//! The up-looking row kernel, the update list it streams, and the
//! value buffer it works in.
//!
//! ## The update list
//!
//! The pattern intersection the kernel needs — for L entry `(r, c)`,
//! which entries `u(c, j)` of the finished row `c` update which entries
//! `(r, j)` of row `r` — depends on the pattern only. `update_list`
//! resolves it once, at `SymbolicIlu::analyze`, into one pair of
//! in-row offsets per update (the refactorization codes' precomputed
//! elimination, as in KLU's refactor and NICSLU): the slot of `(r, j)`
//! in row `r` and the slot of `u(c, j)` in row `c`'s diagonal and U
//! part. The offsets are `u16` when every LU row has at most 65 536
//! entries — 4 B per update — and `u32` otherwise ([`UpdateList`]).
//! `eliminate_columns` then divides by the pivot and streams the
//! entry's pairs: no per-row column map, no probe of a column that row
//! `r` does not store, no index arithmetic. Debug builds check the list
//! against `probe_enumeration`, the search it replaces.
//!
//! ## The value buffer and the row-ownership protocol
//!
//! The engines share the lane-interleaved factor values as
//! [`RegionCells`](crate::sync::RegionCells) — the one shared-buffer
//! type of the crate, also behind the threaded apply and the spmv plan
//! — and several threads access them concurrently, on **disjoint
//! rows**. The engines' synchronization protocols order every
//! cross-thread access (see `docs/ARCHITECTURE.md` §7 "Memory model"):
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
//! `eliminate_columns` and `finalize_row` take row `r`'s cells and the
//! pivot row's U cells as per-row subslices, so an update pair that
//! strays outside either row panics at the row bound instead of
//! touching another row. The fused lane update loads every lane it
//! reads before it stores any — the shape of the solves' `row_sums` —
//! so the compiler can vectorize the cell loads and stores like plain
//! slice code.

use crate::numeric::NumericCtx;
use crate::options::ZeroPivotPolicy;
use crate::pattern::CsrPattern;
use javelin_sparse::lanes::{for_each_chunk, Lanes, LANE_CHUNK};
use javelin_sparse::{Scalar, SpIndex, SparseError};
use std::sync::atomic::Ordering;

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

/// The width of an update list's in-row offsets.
pub(crate) trait UpdateIndex: SpIndex {
    /// The longest row whose every in-row offset fits this width.
    const MAX_ROW_LEN: usize;

    /// `i` at this width; the caller has checked that it fits.
    fn narrow(i: u32) -> Self;
}

impl UpdateIndex for u16 {
    const MAX_ROW_LEN: usize = 1 << 16;

    #[inline(always)]
    fn narrow(i: u32) -> Self {
        i as u16
    }
}

impl UpdateIndex for u32 {
    const MAX_ROW_LEN: usize = u32::MAX as usize;

    #[inline(always)]
    fn narrow(i: u32) -> Self {
        i
    }
}

/// An analysis's update list ([`update_list`]), at the narrowest offset
/// width its LU pattern's longest row allows.
pub(crate) enum UpdateList {
    /// Every LU row has at most 65 536 entries.
    U16(Vec<[u16; 2]>),
    /// Some LU row is longer.
    U32(Vec<[u32; 2]>),
}

impl UpdateList {
    /// The update ranges and the update list of the LU pattern `lu`,
    /// the width picked from its longest row.
    ///
    /// # Errors
    /// As [`update_list`].
    pub(crate) fn of(lu: &CsrPattern) -> Result<(Vec<u32>, Self), SparseError> {
        let (rowptr, colidx, diag_pos) = (&lu.rowptr, &lu.colidx, &lu.diag_pos);
        let longest = rowptr.windows(2).map(|w| w[1] - w[0]).max();
        if longest.unwrap_or(0) as usize <= u16::MAX_ROW_LEN {
            let (ptr, list) = update_list(rowptr, colidx, diag_pos)?;
            Ok((ptr, UpdateList::U16(list)))
        } else {
            let (ptr, list) = update_list(rowptr, colidx, diag_pos)?;
            Ok((ptr, UpdateList::U32(list)))
        }
    }

    /// The number of updates.
    pub(crate) fn len(&self) -> usize {
        match self {
            UpdateList::U16(list) => list.len(),
            UpdateList::U32(list) => list.len(),
        }
    }

    /// The bytes of the list, `len × size_of` of its pairs.
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            UpdateList::U16(list) => std::mem::size_of_val(&list[..]),
            UpdateList::U32(list) => std::mem::size_of_val(&list[..]),
        }
    }

    /// The pairs widened to `u32`, in list order, for comparison with
    /// [`probe_enumeration`]; allocation-free.
    #[cfg(any(debug_assertions, test))]
    pub(crate) fn pairs(&self) -> impl Iterator<Item = [u32; 2]> + '_ {
        let (narrow, wide): (&[[u16; 2]], &[[u32; 2]]) = match self {
            UpdateList::U16(list) => (list, &[]),
            UpdateList::U32(list) => (&[], list),
        };
        let narrow = narrow.iter().map(|p| p.map(u32::from));
        narrow.chain(wide.iter().copied())
    }
}

/// Least entry count of one block [`update_list`] writes its candidates
/// into.
const UPDATE_BLOCK: usize = 8192;

/// The update list of an LU pattern: every elimination update the
/// up-looking kernel performs, resolved once from the pattern.
///
/// For LU entry `e = (r, c)` with `c < r`, `list[ptr[e]..ptr[e + 1]]`
/// holds one `[dst, src]` pair per column `j > c` stored in both rows
/// `r` and `c`, in U-row column order: `dst` is the offset of the entry
/// `(r, j)` in row `r` (from `rowptr[r]`), `src` the offset of `u(c, j)`
/// in row `c`'s diagonal and U part (from `diag_pos[c]`). Every other
/// entry's range is empty, so the list is ordered by L entry in row
/// order.
///
/// One branch-free pass: a column → offset map of row `r` with a `NONE`
/// sentinel, every candidate written and the cursor advanced by
/// whether it hit; the map is reset after the row. The candidates go
/// into blocks of at least [`UPDATE_BLOCK`] entries, and the hits are
/// copied once into a list of exactly their count, so the transient
/// bytes stay near twice the list's.
///
/// # Errors
/// [`SparseError::InvalidStructure`] when the entry count or the update
/// count does not fit in `u32`.
///
/// # Panics
/// When a row has more than `I::MAX_ROW_LEN` entries, so that its
/// offsets would not fit `I`.
pub(crate) fn update_list<I: UpdateIndex>(
    rowptr: &[u32],
    colidx: &[u32],
    diag_pos: &[u32],
) -> Result<(Vec<u32>, Vec<[I; 2]>), SparseError> {
    const NONE: u32 = u32::MAX;
    let n = rowptr.len() - 1;
    // Every in-row offset is then below `NONE`.
    index_u32(colidx.len(), "nnz_lu")?;
    let mut pos = vec![NONE; n];
    let mut ptr = Vec::with_capacity(colidx.len() + 1);
    ptr.push(0u32);
    // Each row's candidates are written into the current block, which
    // they never straddle; the hits are then copied once into a list of
    // exactly their count.
    let mut blocks: Vec<(Vec<[I; 2]>, usize)> = Vec::new();
    let (mut block, mut used, mut len) = (Vec::new(), 0usize, 0usize);
    for r in 0..n {
        let (lo, dp, hi) = (rowptr[r], diag_pos[r], rowptr[r + 1]);
        assert!(
            (hi - lo) as usize <= I::MAX_ROW_LEN,
            "row {r} has {} entries, too many for the update list's offset width",
            hi - lo
        );
        let (lower, row) = (lo as usize..dp as usize, lo as usize..hi as usize);
        for (off, &c) in (0..).zip(&colidx[row.clone()]) {
            pos[c as usize] = off;
        }
        let candidates: usize = colidx[lower.clone()]
            .iter()
            .map(|&c| (rowptr[c as usize + 1] - diag_pos[c as usize] - 1) as usize)
            .sum();
        if used + candidates > block.len() {
            let fresh = vec![[I::narrow(0); 2]; candidates.max(UPDATE_BLOCK)];
            blocks.push((std::mem::replace(&mut block, fresh), used));
            used = 0;
        }
        for &c in &colidx[lower] {
            let (dc, hc) = (diag_pos[c as usize], rowptr[c as usize + 1]);
            for src in dc + 1..hc {
                let dst = pos[colidx[src as usize] as usize];
                block[used] = [I::narrow(dst), I::narrow(src - dc)];
                let hit = usize::from(dst != NONE);
                (used, len) = (used + hit, len + hit);
            }
            ptr.push(index_u32(len, "n_updates")?);
        }
        // The diagonal and U entries eliminate nothing.
        ptr.resize(ptr.len() + (hi - dp) as usize, index_u32(len, "n_updates")?);
        for &c in &colidx[row] {
            pos[c as usize] = NONE;
        }
    }
    blocks.push((block, used));
    let mut list = Vec::with_capacity(len);
    for (block, used) in &blocks {
        list.extend_from_slice(&block[..*used]);
    }
    Ok((ptr, list))
}

/// The update list re-derived the way the probe walk found it: for
/// every L entry `(r, c)` of the pattern `(rowptr, colidx, diag_pos)`,
/// every `u(c, j)` with `j > c`, looked up in row `r` by binary search,
/// as the in-row offsets [`update_list`] stores — the independent check
/// `SymbolicIlu::analyze` asserts the list against in debug builds,
/// since the kernel's row bounds rest on every `dst` lying in row `r`
/// and every `src` in row `c`'s diagonal and U part.
#[cfg(any(debug_assertions, test))]
pub(crate) fn probe_enumeration<I: SpIndex>(
    rowptr: &[I],
    colidx: &[I],
    diag_pos: &[I],
) -> (Vec<u32>, Vec<[u32; 2]>) {
    let entry = |i: usize| u32::try_from(i).expect("entry index fits u32");
    let (mut ptr, mut list) = (vec![0u32], Vec::new());
    for r in 0..rowptr.len() - 1 {
        let row = &colidx[rowptr[r].ix()..rowptr[r + 1].ix()];
        for &c in row {
            let c = c.ix();
            if c < r {
                let dc = diag_pos[c].ix();
                for uk in dc + 1..rowptr[c + 1].ix() {
                    if let Ok(p) = row.binary_search(&colidx[uk]) {
                        list.push([entry(p), entry(uk - dc)]);
                    }
                }
            }
            ptr.push(entry(list.len()));
        }
    }
    (ptr, list)
}

/// Processes the L-columns of row `r` with `col_lo <= c < min(col_hi, r)`
/// — the up-looking elimination steps of the paper's Fig. 1, restricted
/// to a column window so the two-stage engines can split a row's work —
/// with the per-entry arithmetic looped over the `k` lanes. Per L entry
/// it divides by the pivot and streams that entry's offset pairs of the
/// analysis's update list (module docs), at its width `I`: no pattern
/// search, no miss.
/// The list walk serves every lane; at `FixedLanes<1>` the lane loops
/// fold away and this *is* the scalar kernel.
///
/// Requires every row `c` in the window to be finalized. The caller
/// must own row `r` exclusively (all engines call this only inside the
/// row's ownership window).
///
/// # Panics
/// When an update pair's `dst` lies outside row `r` or its `src`
/// outside the diagonal and U part of row `c`.
#[inline]
pub(crate) fn eliminate_columns<T: Scalar, L: Lanes, I: SpIndex>(
    lanes: L,
    ctx: &NumericCtx<'_, T, I>,
    r: usize,
    col_lo: usize,
    col_hi: usize,
) {
    let k = lanes.width();
    let hi = col_hi.min(r);
    let dropping = !ctx.drop_thresh.is_empty();
    let erange = ctx.row_range(r);
    let base = erange.start;
    // Row `r`'s `k` interleaved lanes: private to this worker between
    // the row's ready- and retire-signal (function contract above).
    let vr = &ctx.vals.0[base * k..erange.end * k];
    for e in erange {
        let c = ctx.colidx[e] as usize;
        if c >= hi {
            break;
        }
        if c < col_lo {
            continue;
        }
        let dp = ctx.diag_pos[c] as usize;
        // Row `c`'s diagonal and U lanes: `c < r` is finalized
        // (function contract), hence read-only for the remainder of the
        // factorization.
        let uc = &ctx.vals.0[dp * k..ctx.rowptr[c + 1] as usize * k];
        // a[r, j] -= l * u[c, j] for every j > c stored in both rows:
        // `dst` is (r, j)'s slot in `vr`, `src` u(c, j)'s in `uc`.
        let upd = ctx.updates_of(e);
        let le = (e - base) * k;
        if dropping {
            // τ-dropping is per-lane control flow (each lane decides
            // independently whether to zero the entry and skip its
            // sweep), so walk lane-major.
            for lane in 0..k {
                let l = vr[le + lane].get() / uc[lane].get();
                if l.abs() < ctx.drop_thresh[lanes.idx(r, lane)] {
                    // Treat as zero immediately: skip the update sweep.
                    // The position stays in the (shared) pattern so
                    // schedules remain valid.
                    vr[le + lane].set(T::ZERO);
                    ctx.dropped[lane].fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                vr[le + lane].set(l);
                for &[dst, src] in upd {
                    let (p, u) = (dst.ix(), src.ix());
                    let y = &vr[p * k + lane];
                    y.set(y.get() - l * uc[u * k + lane].get());
                }
            }
        } else {
            // Fused path: no lane can drop, so compute a lane chunk's
            // multipliers first, then retire the update sweep one entry
            // at a time for the whole chunk. Entry-major vs lane-major
            // is bit-identical: each (entry, lane) location is updated
            // exactly once per eliminated column, in the same
            // per-location order, with the same multiply-then-subtract
            // expression. Each update loads the chunk's lanes of `y`
            // and `x` before it stores any: the two rows never overlap,
            // and the split lets the compiler vectorize the lane loops.
            for_each_chunk(0..k, |c0, cw| {
                let mut l = [T::ZERO; LANE_CHUNK];
                let (lrow, piv) = (&vr[le + c0..][..cw], &uc[c0..][..cw]);
                for c in 0..cw {
                    l[c] = lrow[c].get() / piv[c].get();
                    lrow[c].set(l[c]);
                }
                for &[dst, src] in upd {
                    let (p, u) = (dst.ix(), src.ix());
                    let y = &vr[p * k + c0..][..cw];
                    let x = &uc[u * k + c0..][..cw];
                    let mut out = [T::ZERO; LANE_CHUNK];
                    for c in 0..cw {
                        out[c] = y[c].get() - l[c] * x[c].get();
                    }
                    for c in 0..cw {
                        y[c].set(out[c]);
                    }
                }
            });
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
pub(crate) fn finalize_row<T: Scalar, L: Lanes, I: SpIndex>(
    lanes: L,
    ctx: &NumericCtx<'_, T, I>,
    r: usize,
) {
    let k = lanes.width();
    let dp = ctx.diag_pos[r] as usize;
    let dropping = !ctx.drop_thresh.is_empty();
    // Row `r`'s diagonal and U lanes: finalize runs exactly once per
    // row, inside its ownership window, before any dependent row reads
    // it.
    let vr = &ctx.vals.0[dp * k..ctx.rowptr[r + 1] as usize * k];
    for lane in 0..k {
        let mut dropped_sum = T::ZERO;
        if dropping {
            let thresh = ctx.drop_thresh[lanes.idx(r, lane)];
            for v in vr.iter().skip(k + lane).step_by(k) {
                let x = v.get();
                if x != T::ZERO && x.abs() < thresh {
                    dropped_sum += x;
                    v.set(T::ZERO);
                    ctx.dropped[lane].fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let mut d = vr[lane].get();
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
        vr[lane].set(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric::CtxFixture;
    use javelin_sparse::lanes::{DynLanes, FixedLanes};

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
        // through u(1, 2) into (2, 2). No other entry eliminates. (2, 2)
        // is slot 2 of row 2; u(0, 2) and u(1, 2) are slot 1 of their
        // rows' diagonal and U parts.
        let (rowptr, colidx) = (vec![0, 2, 4, 7], vec![0, 2, 1, 2, 0, 1, 2]);
        let diag_pos = vec![0, 2, 6];
        let (ptr, list) = update_list::<u16>(&rowptr, &colidx, &diag_pos).unwrap();
        assert_eq!(ptr, [0, 0, 0, 0, 0, 1, 2, 2]);
        assert_eq!(list, [[2, 1], [2, 1]]);
        let (ptr, list) = update_list::<u32>(&rowptr, &colidx, &diag_pos).unwrap();
        assert_eq!(ptr, [0, 0, 0, 0, 0, 1, 2, 2]);
        assert_eq!(list, [[2, 1], [2, 1]]);
    }

    /// An arrow pattern of `n` rows: the diagonal, plus a dense last row
    /// and column.
    fn arrow(n: u32) -> CsrPattern {
        let mut rowptr = vec![0u32];
        let mut colidx = Vec::new();
        for r in 0..n - 1 {
            colidx.extend([r, n - 1]);
            rowptr.push(colidx.len() as u32);
        }
        colidx.extend(0..n);
        rowptr.push(colidx.len() as u32);
        let mut diag_pos: Vec<u32> = (0..n - 1).map(|r| 2 * r).collect();
        diag_pos.push(colidx.len() as u32 - 1);
        CsrPattern {
            rowptr,
            colidx,
            diag_pos,
        }
    }

    /// A 65 536-entry row keeps the `u16` list, one entry more takes
    /// the `u32` list, and building that pattern at `u16` panics
    /// before an offset wraps.
    #[test]
    fn offset_width_follows_the_longest_row() {
        let fits = arrow(1 << 16);
        let (_, list) = UpdateList::of(&fits).unwrap();
        assert!(matches!(list, UpdateList::U16(_)));
        assert_eq!(list.len(), (1 << 16) - 1);
        assert_eq!(list.heap_bytes(), 4 * list.len());

        let long = arrow((1 << 16) + 1);
        let (ptr, list) = UpdateList::of(&long).unwrap();
        assert!(matches!(list, UpdateList::U32(_)));
        assert_eq!(list.heap_bytes(), 8 * list.len());
        let (rowptr, colidx, diag_pos) = (&long.rowptr, &long.colidx, &long.diag_pos);
        let (probe_ptr, probe) = probe_enumeration(rowptr, colidx, diag_pos);
        assert_eq!(ptr, probe_ptr);
        assert!(
            list.pairs().eq(probe),
            "u32 list differs from the probe enumeration"
        );
        let narrow = std::panic::catch_unwind(|| update_list::<u16>(rowptr, colidx, diag_pos));
        assert!(narrow.is_err(), "a 65 537-entry row built at u16");
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
        assert_eq!(fx.vals[0].get(), 1e-6);
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
        assert_eq!(fx.vals[1].get(), 0.0);
        // MILU: diag absorbed the dropped value.
        assert_eq!(fx.vals[0].get(), 2.0 + 1e-9);
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

    /// Full serial sweep of `scenarios` at width `lanes`, over the
    /// update list at offset width `I`.
    fn sweep_at<I: UpdateIndex, L: Lanes>(lanes: L, scenarios: &[Vec<f64>]) -> CtxFixture<I> {
        assert_eq!(scenarios.len(), lanes.width());
        let fx = CtxFixture::<I>::dense_at(4, scenarios);
        for r in 0..4 {
            eliminate_columns(lanes, &fx.ctx(), r, 0, 4);
            finalize_row(lanes, &fx.ctx(), r);
        }
        fx
    }

    /// [`sweep_at`] over the `u16` list.
    fn sweep<L: Lanes>(lanes: L, scenarios: &[Vec<f64>]) -> CtxFixture {
        sweep_at(lanes, scenarios)
    }

    /// Every lane of a width-4 sweep carries the bits of the width-1
    /// sweep of its values, over a `u16` and a `u32` list alike.
    #[test]
    fn every_lane_matches_the_width_one_kernel_bitwise() {
        let scenarios: Vec<Vec<f64>> = [1.0, 1.25, 0.8, 2.0].map(dense4).to_vec();
        let fixed = sweep(FixedLanes::<4>, &scenarios);
        let dynamic = sweep(DynLanes(4), &scenarios);
        let wide = sweep_at::<u32, _>(DynLanes(4), &scenarios);
        for (c, s) in scenarios.iter().enumerate() {
            let scalar = sweep(ONE, std::slice::from_ref(s));
            let scalar_wide = sweep_at::<u32, _>(ONE, std::slice::from_ref(s));
            assert_eq!(scalar.failed_row[0].load(Ordering::Relaxed), usize::MAX);
            assert_eq!(fixed.lane_bits(c), scalar.lane_bits(0), "fixed lane {c}");
            assert_eq!(dynamic.lane_bits(c), scalar.lane_bits(0), "dyn lane {c}");
            assert_eq!(wide.lane_bits(c), scalar.lane_bits(0), "u32 lane {c}");
            assert_eq!(
                scalar_wide.lane_bits(0),
                scalar.lane_bits(0),
                "u32 scalar {c}"
            );
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

    /// Poisoned values in one lane (NaN, ±∞, signed zero, a subnormal;
    /// `-0·∞ → NaN` included) must propagate through the fused lane
    /// update exactly as through the width-1 kernel — at a dynamic
    /// width, the fixed width 8 and a two-chunk dynamic width — and
    /// never reach the other lanes.
    #[test]
    fn poisoned_lane_matches_the_width_one_kernel_bitwise() {
        for k in [3usize, 8, 9] {
            let mut scenarios: Vec<Vec<f64>> =
                (0..k).map(|c| dense4(1.0 + 0.125 * c as f64)).collect();
            let bad = k / 2;
            // u(0, 1) = ∞ and a(1, 0) = -0, so l(1, 0)·u(0, 1) is NaN.
            let poison = [
                (1, f64::INFINITY),
                (4, -0.0),
                (6, f64::NEG_INFINITY),
                (9, 1.0e-310),
                (11, f64::NAN),
            ];
            for (e, v) in poison {
                scenarios[bad][e] = v;
            }
            let got = javelin_sparse::with_lanes!(k, lanes => sweep(lanes, &scenarios));
            assert!(got.lane(bad).iter().any(|v| v.is_nan()), "k={k}: no NaN");
            for (c, s) in scenarios.iter().enumerate() {
                let scalar = sweep(ONE, std::slice::from_ref(s));
                assert_eq!(got.lane_bits(c), scalar.lane_bits(0), "k={k} lane {c}");
                assert_eq!(
                    got.failed_row[c].load(Ordering::Relaxed),
                    scalar.failed_row[0].load(Ordering::Relaxed),
                    "k={k} lane {c} breakdown flag"
                );
            }
        }
    }

    /// An update pair whose `dst` leaves row `r`, or whose `src` leaves
    /// the pivot row's diagonal and U part, panics at the row bound
    /// before it touches another row, at either offset width.
    fn assert_stray_pairs_panic_at_the_row_bound<I: UpdateIndex>() {
        let a = vec![4.0, 1.0, 2.0, 1.0, 5.0, 1.0, 2.0, 1.0, 6.0];
        // L entry (1, 0) is entry 3; its first pair updates (1, 1) (slot
        // 1 of row 1) from u(0, 1) (slot 1 of row 0's diagonal and U
        // part). Aim its `dst` at row 2's (2, 2), slot 5 from row 1's
        // start, then its `src` at row 1's (1, 1), slot 4 from row 0's
        // diagonal.
        for stray in [[5, 1], [1, 4]] {
            let mut fx = CtxFixture::<I>::dense_at(3, std::slice::from_ref(&a));
            let first = fx.upd_ptr[3] as usize;
            assert_eq!(fx.upd[first].map(|i| i.ix()), [1, 1]);
            fx.upd[first] = stray.map(I::narrow);
            let before = fx.lane_bits(0);
            let ctx = fx.ctx();
            finalize_row(ONE, &ctx, 0);
            let run = std::panic::AssertUnwindSafe(|| eliminate_columns(ONE, &ctx, 1, 0, 3));
            assert!(std::panic::catch_unwind(run).is_err(), "{stray:?}");
            let after = fx.lane_bits(0);
            assert_eq!(after[..3], before[..3], "{stray:?}: row 0 touched");
            assert_eq!(after[6..], before[6..], "{stray:?}: row 2 touched");
        }
    }

    #[test]
    fn stray_update_pairs_panic_at_the_row_bound() {
        assert_stray_pairs_panic_at_the_row_bound::<u16>();
        assert_stray_pairs_panic_at_the_row_bound::<u32>();
    }
}
