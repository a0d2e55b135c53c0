//! The threaded triangular-solve engine (paper Fig. 12's `LS + Lower`),
//! generic over the RHS panel width: `solve_p2p_fused` walks the upper
//! stage under point-to-point level scheduling with pruned waits — the
//! factorization's schedule machinery — then runs the trailing rows
//! Even-Rows, on the factorization's lower-stage row partition, before
//! the small corner solve. Every row accumulates through Serial's own
//! inner loop (`serial::row_sums`) in the serial substitution's entry
//! order, so the engine is **bitwise serial** at every width and thread
//! count. The paper's other two threaded variants, barriered level sets
//! (CSR-LS) and point-to-point with the trailing rows left to one thread
//! (LS), lose to it and are modelled only, by the `javelin-machine`
//! simulator.
//!
//! ## The region streams its own rows
//!
//! Each thread walks its schedule **blocks** (`P2PSchedule`: its share
//! of a level, one contiguous range of execution indices): it checks
//! the block's waits once, retires the block's rows, and publishes once
//! (`ProgressCounters::walk`). The permutation is folded into the walks:
//! a forward retire of row `r` starts from the caller's right-hand side
//! at original row `new_to_old[r]`, and a backward retire also stores
//! the finished row into the caller's solution there. So the caller runs
//! no pass over the vectors around the region; each thread reads and
//! writes the caller's panels only at the rows it retires.
//!
//! ## Panels, lanes and the shared buffers
//!
//! The engine retires a whole **panel** of `k` right-hand sides per
//! schedule walk: a block's retirement updates all `k` columns of its
//! rows before the block is published, so the wait protocol runs **once
//! per panel, not once per column**. It solves in the caller's
//! [`ApplyScratch`] buffer, as the Serial engine does, which stores the
//! panel *row-interleaved* through the lane layer
//! ([`javelin_sparse::lanes`]): entry `(r, c)` lives at
//! [`Lanes::idx`]`(r, c) = r·k + c`, keeping the `k` columns of a row
//! contiguous for the per-entry inner loops. The caller's panels stay
//! column-major. `FixedLanes<1>` *is* the scalar protocol, `FixedLanes<4>`
//! / `FixedLanes<8>` monomorphize the per-lane loops, and
//! [`javelin_sparse::DynLanes`] runs the same code at any other width;
//! column `c` of a panel solve is bit-identical to a single-RHS solve of
//! that column.
//!
//! The region's threads share that buffer and the caller's solution
//! panel as [`Cell`](std::cell::Cell) slices, taken once per region
//! (`RegionCells`): plain loads and stores, ordered by the progress
//! counters and barriers under the row-ownership protocol of
//! `docs/ARCHITECTURE.md` §7. A trailing row's own slots hold its
//! sub-corner sums between the Even-Rows stage and the column-split
//! finish: nothing reads them in between. In the column-split trailing
//! stages different threads own different columns of the *same* row,
//! so every access there stays inside the thread's column range.
//!
//! The engine is **allocation-free per call**: the counters and the
//! barrier are the analysis's, built once, and the buffer is the
//! caller's, grown before the region when a wider panel first arrives.
//! The parallel region runs on the persistent team behind the
//! analysis's [`Exec`](crate::sync::Exec), forward and backward
//! substitution in one region, so a full preconditioner apply costs a
//! single team wake-up.

use super::serial::{row_sums, row_sums_from};
use super::view::{EntryLanes, FactorView, LaneValues};
use crate::factors::SolvePlan;
use crate::precond::ApplyScratch;
use crate::symbolic_ilu::{SymCore, SyncState};
use crate::sync::{col_range, RegionCells};
use javelin_sparse::lanes::{for_each_chunk, Lanes, LANE_CHUNK};
use javelin_sparse::{Panel, PanelMut, Scalar, SpIndex};
use std::ops::Range;
#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicU64, Ordering};

/// The caller's column-major solution panel, written through the
/// permutation by whichever thread retires a row.
struct Solution<'a, T> {
    cells: RegionCells<'a, T>,
    col_stride: usize,
    #[cfg(debug_assertions)]
    n: usize,
    #[cfg(debug_assertions)]
    written: &'a [AtomicU64],
    #[cfg(debug_assertions)]
    epoch: u64,
}

impl<T: Scalar> Solution<'_, T> {
    /// Stores lane `c` of original row `o`.
    #[inline(always)]
    fn put(&self, c: usize, o: usize, v: T) {
        // A swap is one read-modify-write of the stamp, so of two writes
        // of one entry in one apply the later sees the earlier's epoch,
        // whatever the ordering; the region join orders the final check.
        #[cfg(debug_assertions)]
        {
            let before = self.written[c * self.n + o].swap(self.epoch, Ordering::Relaxed);
            assert_ne!(before, self.epoch, "solution ({o}, {c}) written twice");
        }
        self.cells.0[c * self.col_stride + o].set(v);
    }
}

/// Everything one thread's share of the region reads.
struct Region<'a, T, L, I, V> {
    lanes: L,
    f: FactorView<'a, I, V>,
    plan: &'a SolvePlan,
    new_to_old: &'a [usize],
    nthreads: usize,
    b: Panel<'a, T>,
    x: Solution<'a, T>,
    /// The caller's solve buffer (`n × k`, row-interleaved).
    buf: RegionCells<'a, T>,
    /// The analysis's counters and barrier, locked for the apply.
    sync: &'a SyncState,
}

impl<'a, T: Scalar, L: Lanes, I: SpIndex, V: LaneValues<Value = T>> Region<'a, T, L, I, V> {
    /// The right-hand-side columns of lanes `c0..c0 + cw`, taken once
    /// per block, not per row; slots past `cw` repeat the last column
    /// and are never read.
    #[inline(always)]
    fn rhs_cols(&self, c0: usize, cw: usize) -> [&'a [T]; LANE_CHUNK] {
        std::array::from_fn(|c| self.b.col(c0 + c.min(cw - 1)))
    }

    /// Forward retire of row `r`, lanes `c0..c0 + cw` (right-hand sides
    /// `rhs`): `buf[r, c] ← rhs[c][new_to_old[r]] − sums[c]`, where
    /// `sums` is the dot product over `entries` continued from `init`.
    #[inline(always)]
    fn retire_lower(
        &self,
        r: usize,
        entries: Range<usize>,
        init: [T; LANE_CHUNK],
        rhs: &[&[T]; LANE_CHUNK],
        c0: usize,
        cw: usize,
    ) {
        let xs = self.buf.0;
        let sums = row_sums_from(init, self.lanes, &self.f, entries, xs, c0, cw);
        let (o, xb) = (self.new_to_old[r], self.lanes.idx(r, c0));
        for (c, s) in sums[..cw].iter().enumerate() {
            xs[xb + c].set(rhs[c][o] - *s);
        }
    }

    /// Backward retire of row `r`, lanes `c0..c0 + cw`:
    /// `v ← (buf[r, c] − Σ_{j>r} U[r, j] · buf[j, c]) / U[r, r]`, stored
    /// to the solve buffer and to the caller's solution.
    #[inline(always)]
    fn retire_upper(&self, r: usize, c0: usize, cw: usize) {
        let xs = self.buf.0;
        let d = self.f.pivot(r, c0, cw);
        let sums = row_sums(self.lanes, &self.f, self.f.upper(r), xs, c0, cw);
        let (o, xb) = (self.new_to_old[r], self.lanes.idx(r, c0));
        for (c, s) in sums[..cw].iter().enumerate() {
            let v = (xs[xb + c].get() - *s) / d.lane(c);
            xs[xb + c].set(v);
            self.x.put(c0 + c, o, v);
        }
    }

    /// One thread's share of the forward solve: the upper stage through
    /// its schedule blocks, then Even-Rows sub-corner sums of the
    /// thread's chunk of trailing rows, then the column-split finish of
    /// every trailing row through the corner.
    #[inline(always)]
    fn forward(&self, tid: usize) {
        let (k, n_upper, n) = (self.lanes.width(), self.plan.n_upper, self.f.n());
        // The chunk bodies must be inlined into the sweep: left to the
        // heuristic they were outlined at k = 1 (a call per row with a
        // spilled capture block), 5–10 % slower.
        self.sync
            .fwd
            .walk(tid, self.plan.fwd.thread_blocks(tid), |rows| {
                for_each_chunk(
                    0..k,
                    #[inline(always)]
                    |c0, cw| {
                        let rhs = self.rhs_cols(c0, cw);
                        for r in rows.clone() {
                            let zero = [T::ZERO; LANE_CHUNK];
                            self.retire_lower(r, self.f.lower(r), zero, &rhs, c0, cw);
                        }
                    },
                );
            });
        if n_upper == n {
            return;
        }
        self.sync.barrier.wait();
        // Even-Rows over the trailing rows: thread `tid` sums the
        // sub-corner prefix of each row in its `col_range` chunk from
        // zero, in entry order, into that row's own slots — the forward
        // retire's accumulation order, so the split below is bitwise
        // serial. The prefix reads only upper-stage rows, and no thread
        // reads a trailing row's slots before the finish below.
        let xs = self.buf.0;
        for off in col_range(n - n_upper, self.nthreads, tid) {
            let (k_lo, k_hi) = self.plan.block_rows[off];
            for_each_chunk(0..k, |c0, cw| {
                let sums = row_sums(self.lanes, &self.f, k_lo..k_hi, xs, c0, cw);
                let xb = self.lanes.idx(n_upper + off, c0);
                for (c, s) in sums[..cw].iter().enumerate() {
                    xs[xb + c].set(*s);
                }
            });
        }
        self.sync.barrier.wait();
        // Trailing stage, column-split: panel columns are independent
        // from here on, so each thread owns a contiguous column range
        // (narrow panels leave trailing tids an empty range). At k = 1
        // this is tid 0 finishing each row from the sub-corner sum in
        // its slots with its corner part, as the serial substitution
        // does; the corner part reads only earlier trailing rows, which
        // this thread has already finished in its columns.
        let cols = col_range(k, self.nthreads, tid);
        for (off, &(_, k_hi)) in self.plan.block_rows.iter().enumerate() {
            let r = n_upper + off;
            for_each_chunk(cols.clone(), |c0, cw| {
                let xb = self.lanes.idx(r, c0);
                let init = std::array::from_fn(|c| if c < cw { xs[xb + c].get() } else { T::ZERO });
                let rhs = self.rhs_cols(c0, cw);
                self.retire_lower(r, k_hi..self.f.lower(r).end, init, &rhs, c0, cw);
            });
        }
    }

    /// Backward solve of the trailing corner for this thread's columns
    /// (self-contained: trailing rows only reference corner columns in
    /// their U parts, and panel columns are mutually independent).
    #[inline(always)]
    fn corner_backward(&self, tid: usize) {
        let cols = col_range(self.lanes.width(), self.nthreads, tid);
        if cols.is_empty() {
            return;
        }
        for r in (self.plan.n_upper..self.f.n()).rev() {
            for_each_chunk(cols.clone(), |c0, cw| self.retire_upper(r, c0, cw));
        }
    }

    /// One thread's share of the backward upper stage.
    #[inline(always)]
    fn backward(&self, tid: usize) {
        let k = self.lanes.width();
        let row_of_task = &self.plan.bwd_row_of_task;
        self.sync
            .bwd
            .walk(tid, self.plan.bwd.thread_blocks(tid), |tasks| {
                for_each_chunk(
                    0..k,
                    #[inline(always)]
                    |c0, cw| {
                        for task in tasks.clone() {
                            self.retire_upper(row_of_task[task], c0, cw);
                        }
                    },
                );
            });
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

/// Fused point-to-point solve of `A·X ≈ B` through analysis `core`:
/// forward substitution from `b` (read through the permutation), the
/// trailing rows, the corner and backward substitution into `x`
/// (written through it) in **one** parallel region — the Krylov
/// hot-loop entry point. One team wake-up per preconditioner apply,
/// zero allocations, no caller-side pass over the vectors; the whole
/// panel rides a single schedule walk. The trailing rows' sub-corner
/// sums run Even-Rows across all threads ("LS+Lower"). The region
/// solves in `scratch`'s buffer, which the caller has grown to `n·k`,
/// and holds the analysis's sync lock for the whole apply. Shapes are
/// the caller's to check.
pub(crate) fn solve_p2p_fused<T: Scalar, L: Lanes, I: SpIndex, V: LaneValues<Value = T>>(
    core: &SymCore,
    lanes: L,
    f: FactorView<'_, I, V>,
    scratch: &mut ApplyScratch<T>,
    b: Panel<'_, T>,
    mut x: PanelMut<'_, T>,
) {
    let (n, k, nthreads) = (f.n(), lanes.width(), core.exec.nthreads());
    let plan = &core.plan;
    let sync = core.sync.lock();
    debug_assert_eq!(nthreads, sync.fwd.len());
    sync.fwd.reset();
    sync.bwd.reset();
    sync.barrier.reset();
    #[cfg(debug_assertions)]
    {
        scratch.epoch += 1;
    }
    let col_stride = x.col_stride();
    let region = Region {
        lanes,
        f,
        plan,
        new_to_old: core.perm.new_to_old(),
        nthreads,
        b,
        x: Solution {
            cells: RegionCells::new(x.data_mut()),
            col_stride,
            #[cfg(debug_assertions)]
            n,
            #[cfg(debug_assertions)]
            written: &scratch.written,
            #[cfg(debug_assertions)]
            epoch: scratch.epoch,
        },
        buf: RegionCells::new(&mut scratch.buf[..n * k]),
        sync: &sync,
    };
    core.exec.run(|tid| {
        region_failpoint(tid);
        region.forward(tid);
        // Order every forward write before any backward read: the
        // forward and backward schedules may place the same row on
        // different threads. With trailing rows, the corner backward
        // solve runs column-split between a barrier pair.
        region.sync.barrier.wait();
        if plan.n_upper < n {
            region.corner_backward(tid);
            region.sync.barrier.wait();
        }
        region.backward(tid);
    });
    #[cfg(debug_assertions)]
    {
        let epoch = scratch.epoch;
        let missed = scratch.written[..n * k]
            .iter()
            .position(|w| w.load(Ordering::Relaxed) != epoch);
        assert!(missed.is_none(), "solution entry {missed:?} never written");
    }
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
