//! The lower-stage factorization methods (paper §III-B).
//!
//! Both methods exploit the same structural fact: a row demoted to the
//! lower stage depends only on (finished) upper-stage rows until its
//! columns cross into the corner, so all trailing rows' sub-corner work
//! is mutually independent.
//!
//! * **Even-Rows** ([`factor_lower_er_planned`], Figs. 7–8): threads
//!   take contiguous chunks of whole trailing rows and run `FACTOR_L`
//!   against the finished upper stage; good when there are clearly more
//!   demoted rows than threads.
//! * **Segmented-Rows** (`SrPlan` / `factor_lower_sr`, Figs. 5–6):
//!   each trailing row's sub-corner entries are segmented into
//!   per-level *blocks* (contiguous column ranges, independent within a
//!   block thanks to the `lower(A+Aᵀ)` level order), blocks are
//!   optionally split into *tiles* whose updates accumulate into
//!   private delta slots, and the whole thing runs as a DAG on the
//!   lightweight task graph — DIVIDE_COLUMNS / UPDATE_BLOCK in the
//!   paper's terms. Chosen when the demoted rows are few but heavy.
//!
//! Both are followed by `FACTOR_LU` on the corner: serial
//! ([`factor_rows_serial`](crate::numeric::parallel::factor_rows_serial)
//! over the trailing rows — "for most matrices, serial seems to be good
//! enough", §III-B) or point-to-point parallel (`CornerPlan` /
//! `factor_corner_parallel`).
//!
//! Everything pattern-dependent — the SR node list and task graph, the
//! corner's levels and pruned waits, and the update list every walk
//! streams (which also names each tile delta slot's `U` entry and
//! target) — is decided once, by `SymbolicIlu::analyze`; the functions
//! here only execute a plan. They are lane-generic, run as regions on
//! the analysis's team and allocate nothing, so every numeric entry
//! point (first factorization, refactorization, batch) takes the same
//! walks.
//!
//! Every path preserves the serial within-row operation order, so
//! results are bit-identical to the serial sweep.

// SR tiles take `LuVals` views over their exclusively-owned entry and
// delta-slot subranges; the ownership protocol is documented in
// `kernel.rs`.
#![allow(unsafe_code)]

use crate::numeric::kernel::{eliminate_columns, finalize_row, LuVals};
use crate::numeric::NumericCtx;
use javelin_level::P2PSchedule;
use javelin_sparse::fault::{self, FaultAction};
use javelin_sparse::lanes::Lanes;
use javelin_sparse::Scalar;
use javelin_sync::{Exec, ProgressCounters, TaskGraph};
use std::ops::Range;
use std::sync::atomic::Ordering;

/// Even-Rows: the `FACTOR_L` sweep of trailing rows `n_upper..n`
/// against the finished upper stage, as one region on `exec` — all
/// lanes retired per row under one chunking and one update-list stream.
pub fn factor_lower_er_planned<T: Scalar, L: Lanes>(
    lanes: L,
    ctx: &NumericCtx<'_, T>,
    n_upper: usize,
    exec: &Exec,
) {
    let n_lower = ctx.n() - n_upper;
    let nthreads = exec.nthreads();
    let chunk = n_lower.div_ceil(nthreads.max(1)).max(1);
    exec.run(|tid| {
        let start = (tid * chunk).min(n_lower);
        let end = ((tid + 1) * chunk).min(n_lower);
        for r in n_upper + start..n_upper + end {
            // FACTOR_L: everything left of the corner.
            eliminate_columns(lanes, ctx, r, 0, n_upper);
        }
    });
}

/// One Segmented-Rows work item.
#[derive(Debug)]
enum SrNode {
    /// Small segment: divide + update directly (columns
    /// `col_lo..col_hi` of `row`, all inside one level block).
    Seg {
        row: usize,
        col_lo: usize,
        col_hi: usize,
    },
    /// Tile of a large segment: divides its `entries` of `row` and
    /// writes one update delta per pair of the entries' update-list
    /// range, into consecutive delta slots from `slot_lo`.
    Tile {
        row: usize,
        entries: Range<usize>,
        slot_lo: usize,
    },
    /// Applies the delta slots of a segment's tiles (its `entries`'
    /// update-list range, slots from `slot_lo`), in order.
    Apply {
        entries: Range<usize>,
        slot_lo: usize,
    },
}

/// The Segmented-Rows plan of one analysis: the work items and their
/// task DAG, resolved from the pattern once. A tile's delta slots are
/// its entries' range of the analysis's update list, so the list alone
/// says which finished `U` entry each slot multiplies and which entry
/// of the tile's row it updates.
///
/// Requires the factorization to have been scheduled on the
/// `lower(A+Aᵀ)` pattern (columns within one level block are then
/// mutually independent — the observation of §III-B).
#[derive(Debug)]
pub(crate) struct SrPlan {
    nodes: Vec<SrNode>,
    graph: TaskGraph,
    n_slots: usize,
}

impl SrPlan {
    /// Plans the `FACTOR_L` sweep of rows `n_upper..n` of the permuted
    /// LU pattern with update-list offsets `upd_ptr`: per-(row,
    /// level-block) segments, those longer than `tile_size` entries cut
    /// into tiles.
    pub(crate) fn build(
        rowptr: &[usize],
        colidx: &[usize],
        upd_ptr: &[u32],
        n_upper: usize,
        upper_level_ptr: &[usize],
        tile_size: usize,
    ) -> Self {
        let n = rowptr.len() - 1;
        let tile_size = tile_size.max(4);
        let mut nodes: Vec<SrNode> = Vec::new();
        let mut deps: Vec<(usize, usize)> = Vec::new();
        let mut n_slots = 0usize;
        let n_pairs =
            |entries: Range<usize>| (upd_ptr[entries.end] - upd_ptr[entries.start]) as usize;
        // Enumerate nodes row by row, chaining each row's blocks.
        for r in n_upper..n {
            let (rs, re) = (rowptr[r], rowptr[r + 1]);
            // Sub-corner entries: columns < n_upper form a sorted prefix.
            let sub_end = rs + colidx[rs..re].partition_point(|&c| c < n_upper);
            let mut k = rs;
            let mut prev_last: Option<usize> = None; // last node of previous block
            let mut lvl = 0usize;
            while k < sub_end {
                // Find this block: the maximal run of columns within one
                // upper level.
                while upper_level_ptr[lvl + 1] <= colidx[k] {
                    lvl += 1;
                }
                let block_col_end = upper_level_ptr[lvl + 1];
                let seg_end = rs + colidx[rs..re].partition_point(|&c| c < block_col_end);
                debug_assert!(seg_end > k);
                let first_node = nodes.len();
                if seg_end - k <= tile_size {
                    nodes.push(SrNode::Seg {
                        row: r,
                        col_lo: colidx[k],
                        col_hi: colidx[seg_end - 1] + 1,
                    });
                } else {
                    // DIVIDE_COLUMNS over tiles, then one UPDATE apply.
                    let slot_lo = n_slots;
                    for t in (k..seg_end).step_by(tile_size) {
                        let entries = t..(t + tile_size).min(seg_end);
                        nodes.push(SrNode::Tile {
                            row: r,
                            entries: entries.clone(),
                            slot_lo: n_slots,
                        });
                        n_slots += n_pairs(entries);
                    }
                    let apply = nodes.len();
                    deps.extend((first_node..apply).map(|tile| (tile, apply)));
                    nodes.push(SrNode::Apply {
                        entries: k..seg_end,
                        slot_lo,
                    });
                }
                let last_node = nodes.len() - 1;
                if let Some(p) = prev_last {
                    // Chain: previous block of this row must fully finish
                    // first (its updates feed this block's values). An
                    // `Apply` is already chained through its tiles.
                    let heads = first_node..=last_node;
                    deps.extend(
                        heads
                            .filter(|&node| !matches!(nodes[node], SrNode::Apply { .. }))
                            .map(|node| (p, node)),
                    );
                }
                prev_last = Some(last_node);
                k = seg_end;
            }
        }
        SrPlan {
            graph: TaskGraph::new(nodes.len(), &deps),
            nodes,
            n_slots,
        }
    }

    /// Delta slots the plan's tiles write: [`factor_lower_sr`] needs a
    /// `deltas` buffer of this many entries per lane.
    pub(crate) fn n_delta_slots(&self) -> usize {
        self.n_slots
    }
}

/// Segmented-Rows: the `FACTOR_L` sweep of the trailing rows, executing
/// `plan` on the task graph as one region on `exec`, every lane retired
/// per task. `deltas` is the caller's lane-interleaved delta storage
/// (`plan.n_delta_slots() · k` entries); its contents on entry are
/// irrelevant — every slot is rewritten before it is read.
pub(crate) fn factor_lower_sr<T: Scalar, L: Lanes>(
    lanes: L,
    ctx: &NumericCtx<'_, T>,
    plan: &SrPlan,
    deltas: &LuVals<T>,
    exec: &Exec,
) {
    let k = lanes.width();
    assert_eq!(deltas.len(), plan.n_delta_slots() * k, "SR delta storage");
    let dropping = !ctx.drop_thresh.is_empty();
    plan.graph.execute(exec, |_, node| {
        if let Some(FaultAction::Panic) = fault::fire("numeric.sr_task") {
            panic!("fault injected at numeric.sr_task");
        }
        match &plan.nodes[node] {
            SrNode::Seg {
                row,
                col_lo,
                col_hi,
            } => eliminate_columns(lanes, ctx, *row, *col_lo, *col_hi),
            SrNode::Tile {
                row,
                entries,
                slot_lo,
            } => {
                // DIVIDE_COLUMNS + delta collection: slot `slot_lo + i`
                // holds the delta of the tile's `i`-th update pair.
                let span = ctx.update_span(entries.clone());
                let slots = *slot_lo..slot_lo + span.len();
                // Safety: concurrent tiles of one block own disjoint
                // entry subranges and disjoint delta slots, same-row
                // blocks are chained through the task graph, and the
                // block's `Apply` runs after all of its tiles — both
                // ranges are exclusively this tile's until its graph
                // successors run.
                let vt = unsafe { ctx.vals.view_mut(entries.start * k..entries.end * k) };
                let dt = unsafe { deltas.view_mut(slots.start * k..slots.end * k) };
                for (i, e) in entries.clone().enumerate() {
                    let lrow = &mut vt[i * k..][..k];
                    let c = ctx.colidx[e];
                    let dp = ctx.diag_pos[c];
                    // Safety: row `c` is an upper-stage row, finalized
                    // before the lower stage started.
                    let uc = unsafe { ctx.vals.view(dp * k..ctx.rowptr[c + 1] * k) };
                    let upd = ctx.updates_of(e);
                    let d_lo = (ctx.update_span(e..e + 1).start - span.start) * k;
                    let de = &mut dt[d_lo..][..upd.len() * k];
                    if dropping {
                        // Per-lane control flow, as in `eliminate_columns`.
                        // A dropped lane contributes exact zeros:
                        // `x - 0` leaves every bit of `x` alone, like
                        // the serial sweep's skipped update.
                        for lane in 0..k {
                            let mut l = lrow[lane] / uc[lane];
                            let dropped = l.abs() < ctx.drop_thresh[lanes.idx(*row, lane)];
                            if dropped {
                                l = T::ZERO;
                                ctx.dropped[lane].fetch_add(1, Ordering::Relaxed);
                            }
                            lrow[lane] = l;
                            for (t, &[_, src]) in upd.iter().enumerate() {
                                de[t * k + lane] = if dropped {
                                    T::ZERO
                                } else {
                                    l * uc[(src as usize - dp) * k + lane]
                                };
                            }
                        }
                    } else {
                        for lane in 0..k {
                            lrow[lane] /= uc[lane];
                        }
                        for (d, &[_, src]) in de.chunks_exact_mut(k).zip(upd) {
                            let u = &uc[(src as usize - dp) * k..][..k];
                            for lane in 0..k {
                                d[lane] = lrow[lane] * u[lane];
                            }
                        }
                    }
                }
            }
            SrNode::Apply { entries, slot_lo } => {
                // UPDATE_BLOCK: subtract the deltas in tile order —
                // exactly the serial left-to-right accumulation.
                let upd = &ctx.upd[ctx.update_span(entries.clone())];
                for (s, &[dst, _]) in (*slot_lo..).zip(upd) {
                    let p = dst as usize;
                    for lane in 0..k {
                        let (x, d) = (ctx.vals.get(p * k + lane), deltas.get(s * k + lane));
                        ctx.vals.set(p * k + lane, x - d);
                    }
                }
            }
        }
    });
}

/// The parallel corner's plan: the corner rows grouped by the levels of
/// the corner's own dependency sub-pattern, and the pruned
/// point-to-point waits over that order.
#[derive(Debug)]
pub(crate) struct CornerPlan {
    row_of_task: Vec<usize>,
    schedule: P2PSchedule,
}

impl CornerPlan {
    /// Plans `FACTOR_LU` of corner rows `n_upper..n` of the permuted LU
    /// pattern for `nthreads` participants.
    pub(crate) fn build(
        rowptr: &[usize],
        colidx: &[usize],
        diag_pos: &[usize],
        n_upper: usize,
        nthreads: usize,
    ) -> Self {
        let m = rowptr.len() - 1 - n_upper;
        // Dependencies of corner row `r`: its corner columns `< r`.
        let corner_deps = |r: usize| {
            colidx[rowptr[r]..diag_pos[r]]
                .iter()
                .filter(move |&&c| c >= n_upper)
                .map(move |&c| c - n_upper)
        };
        let mut level_of = vec![0usize; m];
        let mut n_levels = 1usize;
        for e in 0..m {
            let lev = corner_deps(n_upper + e)
                .map(|d| level_of[d] + 1)
                .max()
                .unwrap_or(0);
            level_of[e] = lev;
            n_levels = n_levels.max(lev + 1);
        }
        // Group rows by level (stable): exec order stays topological.
        let mut level_ptr = vec![0usize; n_levels + 1];
        for &l in &level_of {
            level_ptr[l + 1] += 1;
        }
        for l in 0..n_levels {
            level_ptr[l + 1] += level_ptr[l];
        }
        let mut row_of_task = vec![0usize; m];
        let mut next = level_ptr.clone();
        for (e, &l) in level_of.iter().enumerate() {
            row_of_task[next[l]] = n_upper + e;
            next[l] += 1;
        }
        let mut task_of_row = vec![0usize; m];
        for (t, &r) in row_of_task.iter().enumerate() {
            task_of_row[r - n_upper] = t;
        }
        let schedule = P2PSchedule::build(m, nthreads, &level_ptr, |task, out| {
            out.extend(corner_deps(row_of_task[task]).map(|d| task_of_row[d]));
        });
        CornerPlan {
            row_of_task,
            schedule,
        }
    }
}

/// Point-to-point parallel `FACTOR_LU` on the corner — the paper's
/// optional variant ("the factorization of the corner can be done in
/// serial or parallel"; §III-B): the standard pruned-wait walk over
/// `plan`, as one region on `exec`. Bit-identical to the serial corner.
/// `exec` and `progress` must carry the participant count the plan was
/// built for.
pub(crate) fn factor_corner_parallel<T: Scalar, L: Lanes>(
    lanes: L,
    ctx: &NumericCtx<'_, T>,
    plan: &CornerPlan,
    n_upper: usize,
    exec: &Exec,
    progress: &ProgressCounters,
) {
    let schedule = &plan.schedule;
    debug_assert_eq!(exec.nthreads(), schedule.nthreads());
    let n = ctx.n();
    progress.reset();
    exec.run(|tid| {
        for &task in schedule.thread_tasks(tid) {
            progress.wait_all(schedule.waits(task));
            let r = plan.row_of_task[task];
            eliminate_columns(lanes, ctx, r, n_upper, n);
            finalize_row(lanes, ctx, r);
            progress.bump(tid);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric::parallel::factor_rows_serial;
    use crate::numeric::CtxFixture;
    use javelin_sparse::lanes::{DynLanes, FixedLanes};

    /// A small system with a wide level-0 block (rows 0..6, diagonal
    /// plus one coupling to the corner) and two heavy trailing rows
    /// (6, 7) that depend on all of it plus a 2x2 corner. Upper level
    /// structure: one level, cols 0..6. One lane per entry of `scales`.
    fn two_stage_case(scales: &[f64]) -> CtxFixture {
        let n = 8;
        let mut rowptr = vec![0usize];
        let mut colidx = Vec::new();
        let mut vals = Vec::new();
        for r in 0..6 {
            colidx.extend([r, 6 + r % 2]);
            vals.extend([4.0 + r as f64, 0.25 + r as f64 * 0.5]);
            rowptr.push(colidx.len());
        }
        for r in 6..n {
            for c in 0..6 {
                colidx.push(c);
                vals.push(1.0 + (r * 7 + c) as f64 * 0.1);
            }
            if r == 7 {
                colidx.push(6);
                vals.push(0.5);
            }
            colidx.push(r);
            vals.push(20.0 + r as f64);
            if r == 6 {
                colidx.push(7);
                vals.push(-0.75);
            }
            rowptr.push(colidx.len());
        }
        let scenarios: Vec<Vec<f64>> = scales
            .iter()
            .map(|s| vals.iter().map(|v| v * s).collect())
            .collect();
        CtxFixture::new(rowptr, colidx, &scenarios)
    }

    /// Upper stage serially, then the named lower sweep and corner, at
    /// the width of `scales`, with per-lane absolute τ thresholds
    /// `taus` (empty = no dropping); returns every lane's bits.
    fn run_engine<L: Lanes>(
        lanes: L,
        which: &str,
        nthreads: usize,
        tile: usize,
        scales: &[f64],
        taus: &[f64],
    ) -> Vec<Vec<u64>> {
        let mut fx = two_stage_case(scales);
        fx.drop_thresh = (0..8).flat_map(|_| taus.iter().copied()).collect();
        let ctx = fx.ctx();
        let exec = Exec::team(nthreads);
        let serial_rows = |lo, hi, col_lo| factor_rows_serial(lanes, &ctx, lo, hi, col_lo);
        match which {
            "serial" => serial_rows(0, 8, 0),
            "er" => {
                serial_rows(0, 6, 0);
                factor_lower_er_planned(lanes, &ctx, 6, &exec);
                serial_rows(6, 8, 6);
            }
            "sr" => {
                serial_rows(0, 6, 0);
                let sr = SrPlan::build(&fx.rowptr, &fx.colidx, &fx.upd_ptr, 6, &[0, 6], tile);
                let deltas = LuVals::zeroed(sr.n_delta_slots() * scales.len());
                factor_lower_sr(lanes, &ctx, &sr, &deltas, &exec);
                let corner = CornerPlan::build(&fx.rowptr, &fx.colidx, &fx.diag_pos, 6, nthreads);
                let progress = ProgressCounters::new(nthreads);
                factor_corner_parallel(lanes, &ctx, &corner, 6, &exec, &progress);
            }
            other => panic!("unknown engine {other}"),
        }
        (0..scales.len()).map(|c| fx.lane_bits(c)).collect()
    }

    const ONE: FixedLanes<1> = FixedLanes::<1>;

    #[test]
    fn er_matches_serial_bitwise() {
        let reference = run_engine(ONE, "serial", 1, 4, &[1.0], &[]);
        for nthreads in [1, 2, 4] {
            assert_eq!(
                run_engine(ONE, "er", nthreads, 4, &[1.0], &[]),
                reference,
                "nthreads={nthreads}"
            );
        }
    }

    #[test]
    fn sr_and_parallel_corner_match_serial_bitwise_across_tiles_and_threads() {
        let reference = run_engine(ONE, "serial", 1, 4, &[1.0], &[]);
        for nthreads in [1, 2, 3] {
            for tile in [4, 5, 64] {
                assert_eq!(
                    run_engine(ONE, "sr", nthreads, tile, &[1.0], &[]),
                    reference,
                    "nthreads={nthreads} tile={tile}"
                );
            }
        }
    }

    #[test]
    fn sr_and_parallel_corner_lanes_match_width_one_bitwise_with_and_without_dropping() {
        // Every lane of a width-3 SR + parallel-corner sweep carries the
        // bits of the width-1 serial sweep of that lane's values. The
        // trailing rows' multipliers lie in 0.6..1.5 whatever the scale,
        // so with τ on lane 0 drops part of each tile, lane 1 all of it
        // and lane 2 nothing.
        let scales = [1.0, 0.013, 7.5];
        let tau_sets: [&[f64]; 2] = [&[], &[0.8, 1.6, 0.2]];
        for taus in tau_sets {
            for tile in [4, 64] {
                let got = run_engine(DynLanes(3), "sr", 2, tile, &scales, taus);
                for (c, s) in scales.iter().enumerate() {
                    let tau = taus.get(c..c + 1).unwrap_or(&[]);
                    let want = run_engine(ONE, "serial", 1, 4, &[*s], tau);
                    assert_eq!(got[c], want[0], "lane {c} tile={tile} τ={taus:?}");
                }
            }
        }
    }

    #[test]
    fn a_plan_is_reusable_across_sweeps() {
        // The plan owns resettable task-graph counters and the caller
        // owns the delta slots: a second sweep through the same objects
        // (a refactorization) must reproduce the first.
        let sweep = |sr: &SrPlan, deltas: &LuVals<f64>| {
            let fx = two_stage_case(&[1.0]);
            factor_rows_serial(ONE, &fx.ctx(), 0, 6, 0);
            factor_lower_sr(ONE, &fx.ctx(), sr, deltas, &Exec::team(2));
            fx.lane_bits(0)
        };
        let fx = two_stage_case(&[1.0]);
        let sr = SrPlan::build(&fx.rowptr, &fx.colidx, &fx.upd_ptr, 6, &[0, 6], 4);
        assert!(sr.n_delta_slots() > 0, "tile = 4 must cut the 6-entry rows");
        let deltas = LuVals::zeroed(sr.n_delta_slots());
        let first = sweep(&sr, &deltas);
        assert_eq!(sweep(&sr, &deltas), first);
    }

    #[test]
    fn empty_lower_stage_is_noop() {
        let fx = two_stage_case(&[1.0]);
        let before = fx.lane_bits(0);
        let exec = Exec::team(2);
        factor_lower_er_planned(ONE, &fx.ctx(), 8, &exec);
        let sr = SrPlan::build(&fx.rowptr, &fx.colidx, &fx.upd_ptr, 8, &[0, 6], 8);
        assert_eq!(sr.n_delta_slots(), 0);
        factor_lower_sr(ONE, &fx.ctx(), &sr, &LuVals::zeroed(0), &exec);
        assert_eq!(fx.lane_bits(0), before, "values untouched");
    }
}
