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
//!   demoted rows than threads. Lane-generic and allocation-free — the
//!   sweep every refactorization and every batch uses.
//! * **Segmented-Rows** ([`factor_lower_sr`], Figs. 5–6): each trailing
//!   row's sub-corner entries are segmented into per-level *blocks*
//!   (contiguous column ranges, independent within a block thanks to the
//!   `lower(A+Aᵀ)` level order), blocks are optionally split into
//!   *tiles* whose updates accumulate into private delta buffers, and
//!   the whole thing runs as a DAG on the lightweight task graph —
//!   DIVIDE_COLUMNS / UPDATE_BLOCK in the paper's terms. Chosen when
//!   the demoted rows are few but heavy; width 1 only, and it builds
//!   its task graph per call, so only the first factorization runs it.
//!
//! Both are followed by `FACTOR_LU` on the corner: serial
//! ([`factor_rows_serial_ws`] over the trailing rows — "for most matrices, serial seems to be good
//! enough", §III-B) or, on the first factorization, optionally
//! point-to-point parallel ([`factor_corner_parallel`]).
//!
//! Every path preserves the serial within-row operation order, so
//! results are bit-identical to the serial sweep.

// SR tiles take `LuVals` row views over their exclusively-owned entry
// subranges; the ownership protocol is documented in `kernel.rs`.
#![allow(unsafe_code)]

use crate::numeric::kernel::{eliminate_columns, finalize_row, RowWorkspace};
use crate::numeric::parallel::factor_rows_serial_ws;
use crate::numeric::NumericCtx;
use javelin_level::P2PSchedule;
use javelin_sparse::lanes::{FixedLanes, Lanes};
use javelin_sparse::Scalar;
use javelin_sync::{Exec, ProgressCounters, TaskGraph};
use parking_lot::Mutex;
use std::sync::atomic::Ordering;

/// The width Segmented-Rows and the parallel corner run at.
const SCALAR: FixedLanes<1> = FixedLanes::<1>;

/// Even-Rows: the `FACTOR_L` sweep of trailing rows `n_upper..n`
/// against the finished upper stage, as one region on `exec` (a
/// persistent worker team by default) with each participant borrowing
/// its preallocated [`RowWorkspace`] — all lanes retired per row under
/// one chunking and one workspace load.
pub fn factor_lower_er_planned<T: Scalar, L: Lanes>(
    lanes: L,
    ctx: &NumericCtx<'_, T>,
    n_upper: usize,
    exec: &Exec,
    workspaces: &[Mutex<RowWorkspace>],
) {
    let n_lower = ctx.n() - n_upper;
    let nthreads = exec.nthreads();
    debug_assert_eq!(workspaces.len(), nthreads);
    let chunk = n_lower.div_ceil(nthreads.max(1)).max(1);
    exec.run(|tid| {
        let start = (tid * chunk).min(n_lower);
        let end = ((tid + 1) * chunk).min(n_lower);
        if start >= end {
            return;
        }
        let mut ws = workspaces[tid].lock();
        for r in n_upper + start..n_upper + end {
            ws.load_row(ctx.rowptr, ctx.colidx, r);
            // FACTOR_L: everything left of the corner.
            eliminate_columns(lanes, ctx, &ws, r, 0, n_upper);
        }
    });
}

/// One Segmented-Rows work item.
enum SrNode {
    /// Small segment: divide + update directly (entry range `k_lo..k_hi`
    /// of `row`, all columns inside one level block).
    Seg {
        row: usize,
        k_lo: usize,
        k_hi: usize,
    },
    /// Tile of a large segment: divide its entries and collect update
    /// deltas into `buf`.
    Tile {
        row: usize,
        k_lo: usize,
        k_hi: usize,
        buf: usize,
    },
    /// Applies the delta buffers `bufs` (in order) to `row`.
    Apply { bufs: std::ops::Range<usize> },
}

/// Segmented-Rows: the `FACTOR_L` sweep of trailing rows via
/// per-(row, level-block) segments with tiled updates on the task graph
/// (one worker per entry of `workspaces`). `ctx` must be a width-1
/// context.
///
/// Requires the factorization to have been scheduled on the
/// `lower(A+Aᵀ)` pattern (columns within one level block are then
/// mutually independent — the observation of §III-B).
pub fn factor_lower_sr<T: Scalar>(
    ctx: &NumericCtx<'_, T>,
    n_upper: usize,
    upper_level_ptr: &[usize],
    tile_size: usize,
    workspaces: &[Mutex<RowWorkspace>],
) {
    let n = ctx.n();
    let tile_size = tile_size.max(4);

    // Enumerate nodes row by row, chaining each row's blocks.
    let mut nodes: Vec<SrNode> = Vec::new();
    let mut deps: Vec<(usize, usize)> = Vec::new();
    let mut n_bufs = 0usize;
    for r in n_upper..n {
        let (rs, re) = (ctx.rowptr[r], ctx.rowptr[r + 1]);
        // Sub-corner entries: columns < n_upper form a sorted prefix.
        let sub_end = rs + ctx.colidx[rs..re].partition_point(|&c| c < n_upper);
        let mut k = rs;
        let mut prev_last: Option<usize> = None; // last node of previous block
        let mut lvl = 0usize;
        while k < sub_end {
            // Find this block: the maximal run of columns within one
            // upper level.
            while upper_level_ptr[lvl + 1] <= ctx.colidx[k] {
                lvl += 1;
            }
            let block_col_end = upper_level_ptr[lvl + 1];
            let seg_end = rs + ctx.colidx[rs..re].partition_point(|&c| c < block_col_end);
            debug_assert!(seg_end > k);
            let seg_len = seg_end - k;
            let first_node = nodes.len();
            let last_node;
            if seg_len <= tile_size {
                nodes.push(SrNode::Seg {
                    row: r,
                    k_lo: k,
                    k_hi: seg_end,
                });
                last_node = first_node;
            } else {
                // DIVIDE_COLUMNS over tiles, then one UPDATE apply.
                let buf_lo = n_bufs;
                let mut t = k;
                while t < seg_end {
                    let t_hi = (t + tile_size).min(seg_end);
                    nodes.push(SrNode::Tile {
                        row: r,
                        k_lo: t,
                        k_hi: t_hi,
                        buf: n_bufs,
                    });
                    n_bufs += 1;
                    t = t_hi;
                }
                let apply = nodes.len();
                nodes.push(SrNode::Apply {
                    bufs: buf_lo..n_bufs,
                });
                for tile_node in first_node..apply {
                    deps.push((tile_node, apply));
                }
                last_node = apply;
            }
            if let Some(p) = prev_last {
                // Chain: previous block of this row must fully finish
                // first (its updates feed this block's values).
                for node in first_node..=last_node {
                    if matches!(nodes[node], SrNode::Apply { .. }) {
                        continue; // already chained through its tiles
                    }
                    deps.push((p, node));
                }
            }
            prev_last = Some(last_node);
            k = seg_end;
        }
    }

    let bufs: Vec<Mutex<Vec<(usize, T)>>> = (0..n_bufs).map(|_| Mutex::new(Vec::new())).collect();
    let graph = TaskGraph::new(nodes.len(), &deps);
    let dropping = !ctx.drop_thresh.is_empty();
    graph.execute_with_tid(workspaces.len(), |tid, node| {
        match &nodes[node] {
            SrNode::Seg { row, k_lo, k_hi } => {
                let mut ws = workspaces[tid].lock();
                ws.load_row(ctx.rowptr, ctx.colidx, *row);
                let col_lo = ctx.colidx[*k_lo];
                let col_hi = ctx.colidx[*k_hi - 1] + 1;
                eliminate_columns(SCALAR, ctx, &ws, *row, col_lo, col_hi);
            }
            SrNode::Tile {
                row,
                k_lo,
                k_hi,
                buf,
            } => {
                // DIVIDE_COLUMNS + delta collection (race-free: each
                // tile writes only its own entries and its own buffer).
                let mut ws = workspaces[tid].lock();
                ws.load_row(ctx.rowptr, ctx.colidx, *row);
                let mut deltas: Vec<(usize, T)> = Vec::new();
                // Safety: concurrent tiles of one block own disjoint
                // entry subranges, and same-row blocks are chained
                // through the task graph — `k_lo..k_hi` is exclusively
                // this tile's until its graph successors run.
                let vt = unsafe { ctx.vals.view_mut(*k_lo..*k_hi) };
                for (i, kk) in (*k_lo..*k_hi).enumerate() {
                    let c = ctx.colidx[kk];
                    // Safety: row `c` is an upper-stage row, finalized
                    // before the lower stage started.
                    let uc = unsafe { ctx.vals.view(ctx.diag_pos[c]..ctx.rowptr[c + 1]) };
                    let l = vt[i] / uc[0];
                    if dropping && l.abs() < ctx.drop_thresh[*row] {
                        vt[i] = T::ZERO;
                        ctx.dropped[0].fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    vt[i] = l;
                    for (off, uk) in ((ctx.diag_pos[c] + 1)..ctx.rowptr[c + 1]).enumerate() {
                        let j = ctx.colidx[uk];
                        if let Some(p) = ws.entry_of(j) {
                            deltas.push((p, l * uc[off + 1]));
                        }
                    }
                }
                *bufs[*buf].lock() = deltas;
            }
            SrNode::Apply { bufs: range } => {
                // UPDATE_BLOCK: apply deltas in tile order — exactly the
                // serial left-to-right accumulation.
                for b in range.clone() {
                    let deltas = bufs[b].lock();
                    for &(p, d) in deltas.iter() {
                        ctx.vals.set(p, ctx.vals.get(p) - d);
                    }
                }
            }
        }
    });
}

/// Point-to-point parallel `FACTOR_LU` on the corner — the paper's
/// optional variant ("the factorization of the corner can be done in
/// serial or parallel"; §III-B). Levels are computed on the corner's
/// own dependency sub-pattern, then the standard pruned-wait machinery
/// runs as one region on `exec`. Bit-identical to the serial corner.
/// `ctx` must be a width-1 context; `exec`, `progress` and `workspaces`
/// must agree on the participant count.
pub fn factor_corner_parallel<T: Scalar>(
    ctx: &NumericCtx<'_, T>,
    n_upper: usize,
    exec: &Exec,
    progress: &ProgressCounters,
    workspaces: &[Mutex<RowWorkspace>],
) {
    let n = ctx.n();
    let m = n - n_upper;
    let nthreads = exec.nthreads();
    if nthreads <= 1 || m < 2 {
        factor_rows_serial_ws(SCALAR, ctx, n_upper, n, n_upper, &mut workspaces[0].lock());
        return;
    }
    // Corner levels: dep = corner column c (n_upper <= c < r).
    let mut level_of = vec![0usize; m];
    let mut n_levels = 1usize;
    for e in 0..m {
        let r = n_upper + e;
        let mut lev = 0usize;
        for k in ctx.rowptr[r]..ctx.diag_pos[r] {
            let c = ctx.colidx[k];
            if c >= n_upper {
                lev = lev.max(level_of[c - n_upper] + 1);
            }
        }
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
        let r = row_of_task[task];
        for k in ctx.rowptr[r]..ctx.diag_pos[r] {
            let c = ctx.colidx[k];
            if c >= n_upper {
                out.push(task_of_row[c - n_upper]);
            }
        }
    });
    progress.reset();
    exec.run(|tid| {
        let mut ws = workspaces[tid].lock();
        for &task in schedule.thread_tasks(tid) {
            progress.wait_all(schedule.waits(task));
            let r = row_of_task[task];
            ws.load_row(ctx.rowptr, ctx.colidx, r);
            eliminate_columns(SCALAR, ctx, &ws, r, n_upper, n);
            finalize_row(SCALAR, ctx, r);
            progress.bump(tid);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric::CtxFixture;

    /// A small system with a wide level-0 block (rows 0..6, diagonal
    /// only) and two heavy trailing rows (6, 7) that depend on all of it
    /// plus a 2x2 corner. Upper level structure: one level, cols 0..6.
    fn two_stage_case() -> CtxFixture {
        let n = 8;
        let mut rowptr = vec![0usize];
        let mut colidx = Vec::new();
        let mut vals = Vec::new();
        for r in 0..6 {
            colidx.push(r);
            vals.push(4.0 + r as f64);
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
            rowptr.push(colidx.len());
        }
        CtxFixture::new(rowptr, colidx, &[vals])
    }

    fn workspaces(nthreads: usize) -> Vec<Mutex<RowWorkspace>> {
        (0..nthreads)
            .map(|_| Mutex::new(RowWorkspace::new(8)))
            .collect()
    }

    /// Upper stage serially, then the named lower sweep and corner.
    fn run_engine(which: &str, nthreads: usize, tile: usize) -> Vec<u64> {
        let fx = two_stage_case();
        let ctx = fx.ctx();
        let wss = workspaces(nthreads);
        let exec = Exec::team(nthreads);
        let serial_rows = |lo, hi, col_lo| {
            factor_rows_serial_ws(SCALAR, &ctx, lo, hi, col_lo, &mut wss[0].lock())
        };
        match which {
            "serial" => serial_rows(0, 8, 0),
            "er" => {
                serial_rows(0, 6, 0);
                factor_lower_er_planned(SCALAR, &ctx, 6, &exec, &wss);
                serial_rows(6, 8, 6);
            }
            "sr" => {
                serial_rows(0, 6, 0);
                factor_lower_sr(&ctx, 6, &[0, 6], tile, &wss);
                factor_corner_parallel(&ctx, 6, &exec, &ProgressCounters::new(nthreads), &wss);
            }
            other => panic!("unknown engine {other}"),
        }
        fx.lane_bits(0)
    }

    #[test]
    fn er_matches_serial_bitwise() {
        let reference = run_engine("serial", 1, 4);
        for nthreads in [1, 2, 4] {
            assert_eq!(
                run_engine("er", nthreads, 4),
                reference,
                "nthreads={nthreads}"
            );
        }
    }

    #[test]
    fn sr_and_parallel_corner_match_serial_bitwise_across_tiles_and_threads() {
        let reference = run_engine("serial", 1, 4);
        for nthreads in [1, 2, 3] {
            for tile in [4, 5, 64] {
                assert_eq!(
                    run_engine("sr", nthreads, tile),
                    reference,
                    "nthreads={nthreads} tile={tile}"
                );
            }
        }
    }

    #[test]
    fn empty_lower_stage_is_noop() {
        let fx = two_stage_case();
        let before = fx.lane_bits(0);
        let wss = workspaces(2);
        factor_lower_er_planned(SCALAR, &fx.ctx(), 8, &Exec::team(2), &wss);
        factor_lower_sr(&fx.ctx(), 8, &[0, 6], 8, &wss);
        assert_eq!(fx.lane_bits(0), before, "values untouched");
    }
}
