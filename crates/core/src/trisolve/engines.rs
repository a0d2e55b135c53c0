//! The threaded triangular-solve engine (paper Fig. 12's `LS + Lower`),
//! generic over the RHS panel width: `solve_p2p_fused` walks the upper
//! stage under point-to-point level scheduling with pruned waits — the
//! factorization's schedule machinery — then runs the trailing rows
//! Even-Rows, on the factorization's lower-stage row partition, before
//! the small corner solve. Every row accumulates in the serial
//! substitution's entry order, so the engine is **bitwise serial** at
//! every width and thread count. The paper's other two threaded
//! variants, barriered level sets (CSR-LS) and point-to-point with the
//! trailing rows left to one thread (LS), lose to it and are modelled
//! only, by the `javelin-machine` simulator.
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
//! The engine retires a whole **panel** of `k` right-hand sides per
//! schedule walk: a row's retirement updates all `k` columns before the
//! row's progress is published, so the wait protocol runs **once per
//! panel, not once per column** — the schedule traversal the paper's
//! level machinery pays is amortized across the whole block of vectors.
//! The in-place solve buffer `xbuf` stores the panel *row-interleaved*
//! through the lane layer ([`javelin_sparse::lanes`]): entry `(r, c)` lives at
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
//! The trailing rows' corner part and the corner solve, serial on
//! thread 0 in the single-RHS path, are **column-split** across the
//! team for panels (`javelin_sync::col_range`): columns are independent
//! there, so each thread owns a contiguous column range and narrow
//! panels leave trailing threads idle instead of racing.
//!
//! The engine is **allocation-free per call**: every buffer it touches
//! (progress counters, barrier, the trailing rows' sub-corner sums)
//! lives in a [`SolveScratch`] built once per analysis and
//! resized grow-only when a wider panel first arrives
//! ([`SolveScratch::xbuf_mut`]). The parallel region runs on the
//! persistent team behind the plan's [`Exec`]. The scratch is reset at
//! engine entry, so one scratch serves any number of solves at any
//! widths (caller guarantees solves on one scratch are not concurrent;
//! the apply pipeline holds the analysis's mutex).
//!
//! The solve is *fused*: forward and backward substitution run in one
//! parallel region, so a full preconditioner apply costs a single team
//! wake-up.

#![allow(unsafe_code)] // LuVals views; protocol documented in numeric/kernel.rs.

use super::view::{EntryLanes, FactorView, LaneValues};
use crate::factors::SolvePlan;
use crate::numeric::LuVals;
use javelin_sparse::lanes::{for_each_chunk, Lanes, LANE_CHUNK};
use javelin_sparse::Scalar;
use javelin_sync::{col_range, Exec, ProgressCounters, SpinBarrier};
use std::ops::Range;

/// Reusable per-analysis scratch of the threaded solve engine: every
/// buffer a solve needs, built once from the [`SolvePlan`].
///
/// * forward/backward progress counters and the barrier, reset per
///   engine entry;
/// * `z`, the trailing rows' sub-corner sums, written by the Even-Rows
///   stage and read by the column-split finish;
/// * `xbuf`, the in-place solution panel the engine operates on,
///   filled and emptied around each region by the apply pipeline
///   (`SolveScratch::xbuf_mut`).
///
/// The value buffers carry a **panel width**: `xbuf` holds `n × width`
/// entries (row-interleaved), `z` gains the same column dimension.
/// [`SolveScratch::xbuf_mut`] resizes them grow-only — the first
/// `k = 8` solve allocates once, every later solve at width `≤ 8`
/// (including `k = 1`) reuses the high-water-mark buffers.
#[derive(Debug)]
pub(crate) struct SolveScratch<T> {
    nthreads: usize,
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
    /// Per-trailing-row sub-corner sums (`n_lower × width`).
    z: LuVals<T>,
    /// The in-place solve panel (`n × width`, row-interleaved).
    xbuf: LuVals<T>,
}

impl<T: Scalar> SolveScratch<T> {
    /// Builds scratch for solving factors of dimension `n` under `plan`
    /// with `nthreads` workers. The initial panel width is 1; wider
    /// solves grow the buffers on first use via
    /// [`SolveScratch::xbuf_mut`]. When `exec` is given, the value
    /// buffers (`z`, `xbuf`) are zero-filled *inside a parallel region*
    /// on `exec`'s own threads — first-touch page placement for pinned
    /// teams (see [`LuVals::zeroed_on`]). Width regrowth reallocates
    /// without first-touch; size panels up front when placement matters.
    pub(crate) fn new_on(plan: &SolvePlan, n: usize, nthreads: usize, exec: Option<&Exec>) -> Self {
        let zeroed = |len: usize| match exec {
            Some(exec) => LuVals::zeroed_on(len, exec),
            None => LuVals::zeroed(len),
        };
        SolveScratch {
            nthreads,
            n,
            n_lower: n - plan.n_upper,
            width: 1,
            width_cap: 1,
            progress: ProgressCounters::new(nthreads),
            bwd_progress: ProgressCounters::new(nthreads),
            barrier: SpinBarrier::new(nthreads),
            z: zeroed(n - plan.n_upper),
            xbuf: zeroed(n),
        }
    }

    /// Sets the panel width for subsequent engine calls, growing the
    /// value buffers if `width` exceeds every width seen so far
    /// (grow-only: narrowing back is free and keeps the wider buffers
    /// for the next wide solve).
    fn ensure_width(&mut self, width: usize) {
        let width = width.max(1);
        if width > self.width_cap {
            self.z = LuVals::zeroed(self.n_lower * width);
            self.xbuf = LuVals::zeroed(self.n * width);
            self.width_cap = width;
        }
        self.width = width;
    }

    /// The in-place solve panel at width `lanes.width()` (grown first
    /// when wider than any seen): the apply pipeline gathers the
    /// right-hand sides into it before the engine's region and scatters
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

/// One thread's share of the point-to-point forward solve: upper stage
/// through the pruned-wait schedule, then Even-Rows sub-corner sums of
/// the thread's chunk of trailing rows, then the column-split finish of
/// every trailing row through the corner. Ends with every thread past
/// the trailing stage; the caller decides what synchronization follows.
#[inline]
fn forward_p2p_phase<T: Scalar, L: Lanes, V: LaneValues<Value = T>>(
    lanes: L,
    f: FactorView<'_, V>,
    plan: &SolvePlan,
    scratch: &SolveScratch<T>,
    nthreads: usize,
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
    scratch.barrier.wait();
    // Even-Rows over the trailing rows: thread `tid` sums the
    // sub-corner prefix of each row in its `col_range` chunk from zero,
    // in entry order, into its own rows of `z` — `retire_row_lower`'s
    // accumulation order, so the split below is bitwise serial. Lane
    // chunks keep the accumulators on the stack.
    for off in col_range(n - n_upper, nthreads, tid) {
        let (k_lo, k_hi) = plan.block_rows[off];
        for_each_chunk(0..k, |c0, cw| {
            let mut sums = [T::ZERO; LANE_CHUNK];
            for e in k_lo..k_hi {
                let v = f.entry(e, c0, cw);
                let xb = lanes.idx(f.col(e), c0);
                // Safety: the gathered columns are upper-stage rows, all
                // retired before the barrier above.
                let xs = unsafe { x.view(xb..xb + cw) };
                for (c, (s, &xv)) in sums[..cw].iter_mut().zip(xs).enumerate() {
                    *s += v.lane(c) * xv;
                }
            }
            // Safety: z row `off` lies in this thread's `col_range`
            // chunk; other threads read it only after the barrier below.
            let zr = unsafe {
                scratch
                    .z
                    .view_mut(lanes.idx(off, c0)..lanes.idx(off, c0) + cw)
            };
            zr.copy_from_slice(&sums[..cw]);
        });
    }
    scratch.barrier.wait();
    // Trailing stage, column-split: panel columns are independent from
    // here on, so each thread owns a contiguous column range (narrow
    // panels leave trailing tids an empty range — `col_range` never
    // hands out degenerate work). At k = 1 this degenerates to tid 0
    // performing exactly the single-RHS serial combination.
    let cols = col_range(k, nthreads, tid);
    if cols.is_empty() {
        return;
    }
    // Finish each trailing row from its sub-corner sum with its corner
    // part. Every x view below is clipped to this thread's `cols`
    // window — other threads work the other columns.
    for (off, &(_, k_hi)) in plan.block_rows.iter().enumerate() {
        let r = n_upper + off;
        for_each_chunk(cols.clone(), |c0, cw| {
            let mut sums = [T::ZERO; LANE_CHUNK];
            // Safety: z is quiescent after the Even-Rows barrier.
            let zs = unsafe { scratch.z.view(lanes.idx(off, c0)..lanes.idx(off, c0) + cw) };
            sums[..cw].copy_from_slice(zs);
            for e in k_hi..f.lower(r).end {
                let v = f.entry(e, c0, cw);
                let xb = lanes.idx(f.col(e), c0);
                // Safety: corner columns are earlier trailing rows,
                // whose `cols` window this thread finished above.
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
/// (`FixedLanes<1>` *is* the scalar protocol). The trailing rows' sub-
/// corner sums run Even-Rows across all threads ("LS+Lower").
pub(crate) fn solve_p2p_fused<T: Scalar, L: Lanes, V: LaneValues<Value = T>>(
    lanes: L,
    f: FactorView<'_, V>,
    plan: &SolvePlan,
    scratch: &SolveScratch<T>,
    exec: &Exec,
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
    let k = lanes.width();
    exec.run(|tid| {
        region_failpoint(tid);
        forward_p2p_phase(lanes, f, plan, scratch, nthreads, tid, x);
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
    //! (the threaded engine × thread count × panel width against serial
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
