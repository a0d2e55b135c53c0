//! Parallel triangular-solve engines (paper Fig. 12), generic over the
//! RHS panel width.
//!
//! * `CSR-LS` (`solve_barrier_fused`): the traditional level-set
//!   solve with a spin barrier between levels — the baseline the paper
//!   measures against;
//! * `LS` (`solve_p2p_fused` without tiles): point-to-point level
//!   scheduling with pruned waits — same schedule machinery as the
//!   factorization, trailing rows solved serially per column (exact
//!   when the factors have no lower stage);
//! * `LS + Lower` (`solve_p2p_fused` with `tiles`): the
//!   trailing-block rows are evaluated as a tiled segmented gather (the
//!   spmv-like update of the paper's Segmented-Rows layout) before the small
//!   corner solve.
//!
//! Solution storage is the shared-memory [`LuVals`]: threads check out
//! exclusive column-window slices of the rows they own and shared
//! slices of already-retired rows (`numeric/kernel.rs` documents the
//! ownership protocol); ordering comes from the progress counters /
//! barriers. In the column-split trailing stages different threads own
//! different column windows of the *same* row, so every view here is
//! clipped to the thread's window — never the whole row.
//!
//! ## Panels and lanes
//!
//! Every engine retires a whole **panel** of `k` right-hand sides per
//! schedule walk: a row's retirement updates all `k` columns before the
//! row's progress is published (or its level barrier is crossed),
//! so the wait/barrier protocol runs **once per panel, not once per
//! column** — the schedule traversal the paper's level machinery pays
//! is amortized across the whole block of vectors. The in-place solve
//! buffer `xbuf` stores the panel *row-interleaved* through the lane
//! layer ([`javelin_sparse::lanes`]): entry `(r, c)` lives at
//! [`Lanes::idx`]`(r, c) = r·k + c`, keeping the `k` columns of a row
//! contiguous for the per-entry inner loops (callers see the
//! column-major `Panel`/`PanelMut` layout; the apply pipeline's
//! `gather_permuted` / `scatter_permuted` permute and transpose in one
//! pass each around the region, at every width; only the Serial
//! engine folds the permutation into its sweeps, and only for narrow
//! panels).
//!
//! Every engine entry point is **width-generic over [`Lanes`]**: the
//! scalar protocol is literally the `FixedLanes<1>` instantiation of
//! the panel protocol, `FixedLanes<4>`/`FixedLanes<8>` monomorphize the
//! per-lane inner loops with compile-time trip counts (the
//! vectorizer-friendly form), and [`javelin_sparse::DynLanes`] runs the same
//! code at any other width. Column arithmetic is fully independent —
//! column `c` of a panel solve is bit-identical to a single-RHS solve
//! of that column through **any** lane instantiation, and `k = 1` is
//! bit-identical to the historical single-vector path.
//!
//! The trailing-block combination and the corner solve, serial on
//! thread 0 in the single-RHS path, are **column-split** across the
//! team for panels (`javelin_sync::col_range`): columns are independent
//! there, so each thread owns a contiguous column range and narrow
//! panels leave trailing threads idle instead of racing.
//!
//! All engines are **allocation-free per call**: every buffer they
//! touch (progress counters, barrier, tiled-gather partials, the
//! combination buffer) lives in a [`SolveScratch`] built once per
//! factorization and resized grow-only when a wider panel first
//! arrives ([`SolveScratch::ensure_width`]). The parallel region runs
//! on the persistent team behind the plan's [`Exec`]. The scratch is
//! reset at engine entry, so one scratch serves any number of solves
//! at any widths (caller guarantees solves on one scratch are not
//! concurrent; `IluFactors` does so with a mutex).
//!
//! Both entry points are *fused*: forward and backward substitution
//! run in one parallel region, so a full preconditioner apply costs a
//! single team wake-up.

#![allow(unsafe_code)] // LuVals views; protocol documented in numeric/kernel.rs.

use super::view::{EntryLanes, FactorView, LaneValues};
use crate::factors::SolvePlan;
use crate::numeric::LuVals;
use javelin_level::LevelSets;
use javelin_sparse::lanes::{for_each_chunk, Lanes, LANE_CHUNK};
use javelin_sparse::Scalar;
use javelin_sync::{col_range, Exec, ProgressCounters, SpinBarrier};
use std::ops::Range;

/// Reusable per-factorization scratch for the parallel solve engines:
/// every buffer a solve needs, built once from the [`SolvePlan`].
///
/// * forward/backward progress counters and the barrier, reset per
///   engine entry;
/// * the tiled trailing-block gather layout: per-tile first segment and
///   a disjoint slot range in one flat partial buffer (replacing both
///   the per-call `Vec<Mutex<Vec<…>>>` and the per-tile
///   `partition_point` searches);
/// * the trailing-block combination buffer `z`;
/// * `xbuf`, the in-place solution panel the engines operate on,
///   filled and emptied around each region by the apply pipeline
///   (`SolveScratch::xbuf_mut`).
///
/// The value buffers carry a **panel width**: `xbuf` holds `n × width`
/// entries (row-interleaved), `partials` and `z` gain the same column
/// dimension. [`SolveScratch::ensure_width`] resizes them grow-only —
/// the first `k = 8` solve allocates once, every later solve at width
/// `≤ 8` (including `k = 1`) reuses the high-water-mark buffers.
#[derive(Debug)]
pub struct SolveScratch<T> {
    nthreads: usize,
    tile: usize,
    /// Factor dimension (rows per panel column).
    n: usize,
    /// Trailing (lower-stage) row count.
    n_lower: usize,
    /// Current panel width `k`; governs the interleaved indexing.
    width: usize,
    /// High-water-mark width the buffers are sized for.
    width_cap: usize,
    progress: ProgressCounters,
    /// Separate counters for the backward schedule so the fused
    /// forward+backward region never resets counters mid-flight.
    bwd_progress: ProgressCounters,
    barrier: SpinBarrier,
    /// Number of trailing-block gather tiles (0 when no lower stage).
    n_tiles: usize,
    /// Per tile: first trailing-block segment it overlaps.
    tile_first_seg: Vec<usize>,
    /// Per tile: slot range `slot_ptr[t]..slot_ptr[t + 1]` in `partials`
    /// (per column; the flat buffer holds `width` values per slot).
    slot_ptr: Vec<usize>,
    /// Flat tiled-gather partials, disjointly owned via `slot_ptr`;
    /// slot `s`, column `c` lives at `s·width + c`.
    partials: LuVals<T>,
    /// Per-trailing-row combination buffer (`n_lower × width`).
    z: LuVals<T>,
    /// The in-place solve panel (`n × width`, row-interleaved).
    xbuf: LuVals<T>,
}

impl<T: Scalar> SolveScratch<T> {
    /// Builds scratch for solving factors of dimension `n` under `plan`
    /// with `nthreads` workers and `tile_size`-entry gather tiles. The
    /// initial panel width is 1; wider solves grow the buffers on first
    /// use via [`SolveScratch::ensure_width`]. When `exec` is given, the
    /// value buffers (`partials`, `z`, `xbuf`) are zero-filled *inside a
    /// parallel region* on `exec`'s own threads — first-touch page
    /// placement for pinned teams (see [`LuVals::zeroed_on`]). Width
    /// regrowth reallocates without first-touch; size panels up front
    /// when placement matters.
    pub fn new_on(
        plan: &SolvePlan,
        n: usize,
        nthreads: usize,
        tile_size: usize,
        exec: Option<&Exec>,
    ) -> Self {
        let zeroed = |len: usize| match exec {
            Some(exec) => LuVals::zeroed_on(len, exec),
            None => LuVals::zeroed(len),
        };
        let tile = tile_size.max(1);
        let n_block_entries = *plan.block_seg_ptr.last().unwrap_or(&0);
        let n_tiles = if n_block_entries > 0 {
            n_block_entries.div_ceil(tile)
        } else {
            0
        };
        let mut tile_first_seg = Vec::with_capacity(n_tiles);
        let mut slot_ptr = Vec::with_capacity(n_tiles + 1);
        slot_ptr.push(0usize);
        for t in 0..n_tiles {
            let lo = t * tile;
            let hi = ((t + 1) * tile).min(n_block_entries);
            let first = plan
                .block_seg_ptr
                .partition_point(|&p| p <= lo)
                .saturating_sub(1);
            let last = plan
                .block_seg_ptr
                .partition_point(|&p| p < hi)
                .saturating_sub(1);
            tile_first_seg.push(first);
            slot_ptr.push(slot_ptr[t] + (last - first + 1));
        }
        let n_slots = *slot_ptr.last().expect("nonempty");
        SolveScratch {
            nthreads,
            tile,
            n,
            n_lower: n - plan.n_upper,
            width: 1,
            width_cap: 1,
            progress: ProgressCounters::new(nthreads),
            bwd_progress: ProgressCounters::new(nthreads),
            barrier: SpinBarrier::new(nthreads),
            n_tiles,
            tile_first_seg,
            slot_ptr,
            partials: zeroed(n_slots),
            z: zeroed(n - plan.n_upper),
            xbuf: zeroed(n),
        }
    }

    /// Threads the scratch was sized for.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Gather tile size in entries.
    pub fn tile_size(&self) -> usize {
        self.tile
    }

    /// Sets the panel width for subsequent engine calls, growing the
    /// value buffers if `width` exceeds every width seen so far
    /// (grow-only: narrowing back is free and keeps the wider buffers
    /// for the next wide solve).
    pub fn ensure_width(&mut self, width: usize) {
        let width = width.max(1);
        if width > self.width_cap {
            let n_slots = *self.slot_ptr.last().expect("nonempty");
            self.partials = LuVals::zeroed(n_slots * width);
            self.z = LuVals::zeroed(self.n_lower * width);
            self.xbuf = LuVals::zeroed(self.n * width);
            self.width_cap = width;
        }
        self.width = width;
    }

    /// The in-place solve panel at width `lanes.width()` (grown first
    /// when wider than any seen): the apply pipeline gathers the
    /// right-hand sides into it before an engine's region and scatters
    /// the solutions out of it afterwards.
    pub(crate) fn xbuf_mut<L: Lanes>(&mut self, lanes: L) -> &mut [T] {
        self.ensure_width(lanes.width());
        // Safety: `&mut self` — no region is running on this scratch —
        // and `ensure_width` sized `xbuf` for `n × width`.
        unsafe { self.xbuf.view_mut(0..self.n * self.width) }
    }
}

/// Retires the strictly-lower part of row `r` for panel lanes `cols`:
/// `x[r, c] ← x[r, c] − Σ_{j<r} L[r, j] · x[j, c]`. Lane chunks of
/// [`LANE_CHUNK`] keep the accumulators on the stack (one constant-trip
/// block at a fixed width ≤ 8); per lane the entry order (and therefore
/// the bits) matches the single-RHS kernel — which *is* this function
/// at `FixedLanes<1>`.
#[inline(always)]
fn retire_row_lower<T: Scalar, L: Lanes, V: LaneValues<Value = T>>(
    lanes: L,
    f: FactorView<'_, V>,
    x: &LuVals<T>,
    cols: Range<usize>,
    r: usize,
) {
    // The chunk body must be inlined into the sweep: left to the
    // heuristic it was outlined at k = 1 (a call per row with a spilled
    // capture block) and the p2p apply measured 5–10 % slower.
    for_each_chunk(
        cols,
        #[inline(always)]
        |c0, cw| {
            let mut sums = [T::ZERO; LANE_CHUNK];
            for e in f.lower(r) {
                let v = f.entry(e, c0, cw);
                let xb = lanes.idx(f.col(e), c0);
                // Safety: row f.col(e) retired before this row was released
                // (schedule order), and the view stays inside this thread's
                // column window.
                let xs = unsafe { x.view(xb..xb + cw) };
                for (c, (s, &xv)) in sums[..cw].iter_mut().zip(xs).enumerate() {
                    *s += v.lane(c) * xv;
                }
            }
            let xb = lanes.idx(r, c0);
            // Safety: this thread owns row `r`'s `cols` window until its
            // retire-signal (progress publication / barrier / region join).
            let xr = unsafe { x.view_mut(xb..xb + cw) };
            for (xv, s) in xr.iter_mut().zip(&sums[..cw]) {
                *xv -= *s;
            }
        },
    );
}

/// Retires the upper part of row `r` for panel lanes `cols`:
/// `x[r, c] ← (x[r, c] − Σ_{j>r} U[r, j] · x[j, c]) / U[r, r]`.
#[inline(always)]
fn retire_row_upper<T: Scalar, L: Lanes, V: LaneValues<Value = T>>(
    lanes: L,
    f: FactorView<'_, V>,
    x: &LuVals<T>,
    cols: Range<usize>,
    r: usize,
) {
    // Forced inline: see `retire_row_lower`.
    for_each_chunk(
        cols,
        #[inline(always)]
        |c0, cw| {
            let d = f.pivot(r, c0, cw);
            let mut sums = [T::ZERO; LANE_CHUNK];
            for e in f.upper(r) {
                let v = f.entry(e, c0, cw);
                let xb = lanes.idx(f.col(e), c0);
                // Safety: row f.col(e) retired first (backward schedule
                // order); the view stays inside this thread's column window.
                let xs = unsafe { x.view(xb..xb + cw) };
                for (c, (s, &xv)) in sums[..cw].iter_mut().zip(xs).enumerate() {
                    *s += v.lane(c) * xv;
                }
            }
            let xb = lanes.idx(r, c0);
            // Safety: exclusive `cols` window of row `r` (as in the lower
            // retire).
            let xr = unsafe { x.view_mut(xb..xb + cw) };
            for (c, (xv, s)) in xr.iter_mut().zip(&sums[..cw]).enumerate() {
                *xv = (*xv - *s) / d.lane(c);
            }
        },
    );
}

/// One thread's share of the barriered forward level sweep: one
/// contiguous block of every level.
#[inline]
fn forward_barrier_phase<T: Scalar, L: Lanes, V: LaneValues<Value = T>>(
    lanes: L,
    f: FactorView<'_, V>,
    levels: &LevelSets,
    scratch: &SolveScratch<T>,
    nthreads: usize,
    tid: usize,
    x: &LuVals<T>,
) {
    let k = lanes.width();
    for l in 0..levels.n_levels() {
        let rows = levels.level(l);
        let chunk = rows.len().div_ceil(nthreads).max(1);
        for &r in rows.chunks(chunk).nth(tid).unwrap_or_default() {
            retire_row_lower(lanes, f, x, 0..k, r);
        }
        scratch.barrier.wait();
    }
}

/// One thread's share of the barriered backward level sweep.
#[inline]
fn backward_barrier_phase<T: Scalar, L: Lanes, V: LaneValues<Value = T>>(
    lanes: L,
    f: FactorView<'_, V>,
    levels: &LevelSets,
    scratch: &SolveScratch<T>,
    nthreads: usize,
    tid: usize,
    x: &LuVals<T>,
) {
    let k = lanes.width();
    for l in 0..levels.n_levels() {
        let rows = levels.level(l);
        let chunk = rows.len().div_ceil(nthreads).max(1);
        for &r in rows.chunks(chunk).nth(tid).unwrap_or_default() {
            retire_row_upper(lanes, f, x, 0..k, r);
        }
        scratch.barrier.wait();
    }
}

/// Chaos hook: fires the `trisolve.region` failpoint from inside a
/// parallel region (only `Panic` is meaningful here — the site produces
/// no value). Compiles to nothing without the `fault-injection`
/// feature.
#[inline]
fn region_failpoint(tid: usize) {
    if javelin_sparse::fault::fire("trisolve.region").is_some() {
        panic!("fault injected at trisolve.region (tid {tid})");
    }
}

/// Fused CSR-LS solve: forward then backward level sweeps in a single
/// parallel region (the per-level barriers already order the
/// transition).
/// One barrier protocol per panel: a level costs the same wait count
/// whether it retires 1 or `k` columns — and one kernel body serves
/// every width through `lanes`.
pub(crate) fn solve_barrier_fused<T: Scalar, L: Lanes, V: LaneValues<Value = T>>(
    lanes: L,
    f: FactorView<'_, V>,
    fwd_levels: &LevelSets,
    bwd_levels: &LevelSets,
    scratch: &SolveScratch<T>,
    exec: &Exec,
) {
    let nthreads = exec.nthreads();
    debug_assert_eq!(nthreads, scratch.nthreads);
    debug_assert_eq!(lanes.width(), scratch.width, "lanes vs scratch width");
    scratch.barrier.reset();
    let x = &scratch.xbuf;
    exec.run(|tid| {
        region_failpoint(tid);
        forward_barrier_phase(lanes, f, fwd_levels, scratch, nthreads, tid, x);
        // The barrier after the last forward level orders every forward
        // write before the first backward read.
        backward_barrier_phase(lanes, f, bwd_levels, scratch, nthreads, tid, x);
    });
}

/// One thread's share of the point-to-point forward solve: upper stage
/// through the pruned-wait schedule, then (under `use_tiles`) the tiled
/// trailing-block gather, then the column-split combination + trailing
/// rows. Ends with every thread past the trailing stage; the caller
/// decides what synchronization follows.
#[inline]
#[allow(clippy::too_many_arguments)]
fn forward_p2p_phase<T: Scalar, L: Lanes, V: LaneValues<Value = T>>(
    lanes: L,
    f: FactorView<'_, V>,
    plan: &SolvePlan,
    scratch: &SolveScratch<T>,
    nthreads: usize,
    use_tiles: bool,
    tid: usize,
    x: &LuVals<T>,
) {
    let k = lanes.width();
    let n = f.n();
    let n_upper = plan.n_upper;
    // Upper stage: point-to-point, one contiguous block of rows per
    // level, progress published once per block and panel — after all k
    // columns of the block's rows retire.
    scratch.progress.walk(
        tid,
        plan.fwd.thread_tasks(tid),
        |row| plan.fwd.waits(row),
        |row| retire_row_lower(lanes, f, x, 0..k, row),
    );
    if n_upper == n {
        return;
    }
    let n_block_entries = *plan.block_seg_ptr.last().unwrap_or(&0);
    let n_tiles = scratch.n_tiles;
    let tile = scratch.tile;
    scratch.barrier.wait();
    if use_tiles {
        // Tiled segmented gather over the trailing block: each tile
        // writes per-segment partial sums into its disjoint slot range
        // (tile boundaries and first segments precomputed in the
        // scratch — no searches, no allocation). Lane chunks re-walk
        // the tile so accumulators stay on the stack.
        let mut t = tid;
        while t < n_tiles {
            let lo = t * tile;
            let hi = ((t + 1) * tile).min(n_block_entries);
            let base = scratch.slot_ptr[t];
            let first_seg = scratch.tile_first_seg[t];
            // Safety: tile `t` is processed by exactly one thread, and
            // `slot_ptr` partitions the slots disjointly across tiles.
            let pt = unsafe {
                scratch
                    .partials
                    .view_mut(base * k..scratch.slot_ptr[t + 1] * k)
            };
            // Zero the tile's slots first: segments inside the span
            // that this walk skips (empty segments) must not leak
            // values from a previous solve.
            pt.fill(T::ZERO);
            for_each_chunk(0..k, |c0, cw| {
                let mut seg = first_seg;
                let mut cursor = lo;
                while cursor < hi {
                    while plan.block_seg_ptr[seg + 1] <= cursor {
                        seg += 1;
                    }
                    let seg_hi = plan.block_seg_ptr[seg + 1].min(hi);
                    let (k_lo, _) = plan.block_rows[seg];
                    let seg_base = plan.block_seg_ptr[seg];
                    let mut accs = [T::ZERO; LANE_CHUNK];
                    for v in cursor..seg_hi {
                        let e = k_lo + (v - seg_base);
                        let val = f.entry(e, c0, cw);
                        let xb = lanes.idx(f.col(e), c0);
                        // Safety: the gathered columns are upper-stage
                        // rows, all retired before the barrier above.
                        let xs = unsafe { x.view(xb..xb + cw) };
                        for (c, (acc, &xv)) in accs[..cw].iter_mut().zip(xs).enumerate() {
                            *acc += val.lane(c) * xv;
                        }
                    }
                    let slot = seg - first_seg;
                    for (c, acc) in accs[..cw].iter().enumerate() {
                        pt[slot * k + c0 + c] = *acc;
                    }
                    cursor = seg_hi;
                }
            });
            t += nthreads;
        }
        scratch.barrier.wait();
    }
    // Trailing stage, column-split: panel columns are independent from
    // here on, so each thread owns a contiguous column range (narrow
    // panels leave trailing tids an empty range — `col_range` never
    // hands out degenerate work). At k = 1 this degenerates to tid 0
    // performing exactly the single-RHS serial combination.
    let cols = col_range(k, nthreads, tid);
    if cols.is_empty() {
        return;
    }
    let n_lower = n - n_upper;
    if use_tiles {
        // Combine tile partials in tile order (deterministic per
        // column), then finish each trailing row with its corner part.
        // Every z/partials/x view below is clipped to this thread's
        // `cols` window — other threads work the other columns.
        for off in 0..n_lower {
            // Safety: column-split — the `cols` window of z is ours.
            let zr = unsafe {
                scratch
                    .z
                    .view_mut(lanes.idx(off, cols.start)..lanes.idx(off, cols.end))
            };
            zr.fill(T::ZERO);
        }
        for t in 0..n_tiles {
            let first_seg = scratch.tile_first_seg[t];
            for (i, s) in (scratch.slot_ptr[t]..scratch.slot_ptr[t + 1]).enumerate() {
                let seg = first_seg + i;
                // Safety: z `cols` window owned as above; the partials
                // are quiescent after the gather barrier.
                let zr = unsafe {
                    scratch
                        .z
                        .view_mut(lanes.idx(seg, cols.start)..lanes.idx(seg, cols.end))
                };
                let ps = unsafe {
                    scratch
                        .partials
                        .view(lanes.idx(s, cols.start)..lanes.idx(s, cols.end))
                };
                for (zv, &pv) in zr.iter_mut().zip(ps) {
                    *zv += pv;
                }
            }
        }
        for off in 0..n_lower {
            let r = n_upper + off;
            let (_, k_hi) = plan.block_rows[off];
            for_each_chunk(cols.clone(), |c0, cw| {
                let mut sums = [T::ZERO; LANE_CHUNK];
                // Safety: z `cols` window owned by this thread (reads
                // back the combination written above).
                let zs = unsafe { scratch.z.view(lanes.idx(off, c0)..lanes.idx(off, c0) + cw) };
                sums[..cw].copy_from_slice(zs);
                for e in k_hi..f.lower(r).end {
                    let v = f.entry(e, c0, cw);
                    let xb = lanes.idx(f.col(e), c0);
                    // Safety: corner columns are upper-stage rows,
                    // retired before the gather barrier.
                    let xs = unsafe { x.view(xb..xb + cw) };
                    for (c, (s, &xv)) in sums[..cw].iter_mut().zip(xs).enumerate() {
                        *s += v.lane(c) * xv;
                    }
                }
                let xb = lanes.idx(r, c0);
                // Safety: trailing row `r`'s `cols` window is ours.
                let xr = unsafe { x.view_mut(xb..xb + cw) };
                for (xv, s) in xr.iter_mut().zip(&sums[..cw]) {
                    *xv -= *s;
                }
            });
        }
    } else {
        for r in n_upper..n {
            retire_row_lower(lanes, f, x, cols.clone(), r);
        }
    }
}

/// Backward solve of the trailing corner restricted to panel columns
/// `cols` (self-contained: trailing rows only reference corner columns
/// in their U parts, and panel columns are mutually independent).
#[inline]
fn corner_backward_cols<T: Scalar, L: Lanes, V: LaneValues<Value = T>>(
    lanes: L,
    f: FactorView<'_, V>,
    n_upper: usize,
    x: &LuVals<T>,
    cols: Range<usize>,
) {
    if cols.is_empty() {
        return;
    }
    for r in (n_upper..f.n()).rev() {
        retire_row_upper(lanes, f, x, cols.clone(), r);
    }
}

/// One thread's share of the backward point-to-point upper stage.
#[inline]
fn backward_p2p_phase<T: Scalar, L: Lanes, V: LaneValues<Value = T>>(
    lanes: L,
    f: FactorView<'_, V>,
    plan: &SolvePlan,
    scratch: &SolveScratch<T>,
    tid: usize,
    x: &LuVals<T>,
) {
    let k = lanes.width();
    scratch.bwd_progress.walk(
        tid,
        plan.bwd.thread_tasks(tid),
        |task| plan.bwd.waits(task),
        |task| retire_row_upper(lanes, f, x, 0..k, plan.bwd_row_of_task[task]),
    );
}

/// Fused point-to-point solve: forward substitution, corner, and
/// backward substitution in **one** parallel region — the Krylov
/// hot-loop entry point. One team wake-up per preconditioner apply,
/// zero allocations, no `partition_point` searches; the whole panel
/// rides a single schedule walk through one width-generic kernel body
/// (`FixedLanes<1>` *is* the scalar protocol). Under `tiles` the
/// trailing-block gather runs tiled across all threads ("LS+Lower").
pub(crate) fn solve_p2p_fused<T: Scalar, L: Lanes, V: LaneValues<Value = T>>(
    lanes: L,
    f: FactorView<'_, V>,
    plan: &SolvePlan,
    scratch: &SolveScratch<T>,
    exec: &Exec,
    tiles: bool,
) {
    let x = &scratch.xbuf;
    let n = f.n();
    let n_upper = plan.n_upper;
    let nthreads = exec.nthreads();
    debug_assert_eq!(nthreads, scratch.nthreads);
    debug_assert_eq!(lanes.width(), scratch.width, "lanes vs scratch width");
    scratch.progress.reset();
    scratch.bwd_progress.reset();
    scratch.barrier.reset();
    let use_tiles = tiles && scratch.n_tiles > 0;
    let k = lanes.width();
    exec.run(|tid| {
        region_failpoint(tid);
        forward_p2p_phase(lanes, f, plan, scratch, nthreads, use_tiles, tid, x);
        if n_upper < n {
            // The trailing forward rows finish above (column-split);
            // the corner backward solve is column-split the same way.
            // The barrier pair publishes the forward solution to
            // everyone and the corner to the backward stage.
            scratch.barrier.wait();
            corner_backward_cols(lanes, f, n_upper, x, col_range(k, nthreads, tid));
            scratch.barrier.wait();
        } else {
            // Order every forward write before any backward read: the
            // forward and backward schedules may place the same row on
            // different threads.
            scratch.barrier.wait();
        }
        backward_p2p_phase(lanes, f, plan, scratch, tid, x);
    });
}

#[cfg(test)]
mod tests {
    //! Engine equivalence is exercised end-to-end in `factors.rs` tests
    //! (every engine × thread count × panel width against serial
    //! substitution); the unit tests here cover the pieces with no
    //! factor pipeline.
    use super::*;

    #[test]
    fn lane_chunk_handles_all_issue_widths() {
        // Chunking must cover every width the proptests exercise in at
        // most two passes (allocation-free stack accumulators), and the
        // monomorphized widths in exactly one.
        for k in [1usize, 2, 3, 4, 5, 8, 9, 16] {
            let chunks = k.div_ceil(LANE_CHUNK);
            assert!(chunks <= 2, "width {k} needs {chunks} chunks");
        }
        for k in [1usize, 4, 8] {
            assert_eq!(k.div_ceil(LANE_CHUNK), 1, "fixed width {k} chunks once");
        }
    }
}
