//! The numeric walks: the serial row walk, the point-to-point upper
//! stage and the Even-Rows lower stage — each generic over the lane
//! width and the update list's offset width, and run on caller-owned
//! state (counters, execution context) plus the analysis's update list,
//! so every call is allocation- and spawn-free.
//!
//! The two-stage sweep (paper §III) is the point-to-point upper stage,
//! then Even-Rows over the trailing rows, then the corner serially
//! ("for most matrices, serial seems to be good enough", §III-B).

use crate::level::P2PSchedule;
use crate::numeric::kernel::{eliminate_columns, finalize_row};
use crate::numeric::NumericCtx;
use crate::sync::{col_range, ProgressCounters, WorkerTeam};
use javelin_sparse::lanes::Lanes;
use javelin_sparse::{Scalar, SpIndex};

/// Serial up-looking factorization of rows `lo..hi` against columns
/// `col_lo..` — one stream of each row's update lists serves all
/// lanes. Over `0..n` this is the reference every parallel engine must
/// match bit-for-bit; over `n_upper..n` with `col_lo = n_upper` it is
/// `FACTOR_LU` on the corner.
pub(crate) fn factor_rows_serial<T: Scalar, L: Lanes, I: SpIndex>(
    lanes: L,
    ctx: &NumericCtx<'_, T, I>,
    lo: usize,
    hi: usize,
    col_lo: usize,
) {
    let n = ctx.n();
    for r in lo..hi {
        eliminate_columns(lanes, ctx, r, col_lo, n);
        finalize_row(lanes, ctx, r);
    }
}

/// Point-to-point upper-stage factorization: each thread walks its
/// static block sequence — one contiguous block of rows per level —
/// spin-waits once per block on its pruned `(thread, blocks_done)`
/// list, factors the block's rows, and publishes its progress once
/// ([`ProgressCounters::walk`]) — the paper's replacement for
/// inter-level barriers (§III-A). Every row's update-list stream is
/// performed once for all lanes.
///
/// Rows are the first `schedule.n_tasks()` rows of the permuted matrix
/// (execution index = row index). The region runs on `team` with the
/// progress counters reset and reused; `team` and `progress` must both
/// carry `schedule.nthreads()` participants.
pub(crate) fn factor_upper_p2p_planned<T: Scalar, L: Lanes, I: SpIndex>(
    lanes: L,
    ctx: &NumericCtx<'_, T, I>,
    schedule: &P2PSchedule,
    team: &WorkerTeam,
    progress: &ProgressCounters,
) {
    let nthreads = schedule.nthreads();
    debug_assert_eq!(team.nthreads(), nthreads);
    debug_assert_eq!(progress.len(), nthreads);
    progress.reset();
    let n = ctx.n();
    team.run(|tid| {
        progress.walk(tid, schedule.thread_blocks(tid), |rows| {
            for row in rows {
                eliminate_columns(lanes, ctx, row, 0, n);
                finalize_row(lanes, ctx, row);
            }
        });
    });
}

/// Even-Rows (paper Figs. 7–8): the `FACTOR_L` sweep of trailing rows
/// `n_upper..n` against the finished upper stage, as one region on
/// `team`. A row demoted to the lower stage depends only on finished
/// upper-stage rows left of the corner, so thread `tid` takes the
/// contiguous chunk `col_range(n_lower, nthreads, tid)` of whole rows —
/// the solve's Even-Rows stage uses the same partition. Every lane is
/// retired per row under one chunking and one update-list stream. The
/// corner is left to [`factor_rows_serial`] with `col_lo = n_upper`.
pub(crate) fn factor_lower_er_planned<T: Scalar, L: Lanes, I: SpIndex>(
    lanes: L,
    ctx: &NumericCtx<'_, T, I>,
    n_upper: usize,
    team: &WorkerTeam,
) {
    let n_lower = ctx.n() - n_upper;
    let nthreads = team.nthreads();
    team.run(|tid| {
        for off in col_range(n_lower, nthreads, tid) {
            let r = n_upper + off;
            // FACTOR_L: everything left of the corner.
            eliminate_columns(lanes, ctx, r, 0, n_upper);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric::CtxFixture;
    use crate::{IluOptions, SymbolicIlu};
    use javelin_sparse::lanes::{DynLanes, FixedLanes};
    use javelin_sparse::{CooMatrix, CsrMatrix};
    use proptest::prelude::*;

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

    /// The two-stage sweep of `two_stage_case` — upper stage serially,
    /// Even-Rows on `nthreads`, serial corner — or, with `nthreads = 0`,
    /// the serial reference sweep, at the width of `scales`, with
    /// per-lane absolute τ thresholds `taus` (empty = no dropping);
    /// returns every lane's bits.
    fn sweep<L: Lanes>(lanes: L, nthreads: usize, scales: &[f64], taus: &[f64]) -> Vec<Vec<u64>> {
        let mut fx = two_stage_case(scales);
        fx.drop_thresh = (0..8).flat_map(|_| taus.iter().copied()).collect();
        let ctx = fx.ctx();
        if nthreads == 0 {
            factor_rows_serial(lanes, &ctx, 0, 8, 0);
        } else {
            factor_rows_serial(lanes, &ctx, 0, 6, 0);
            factor_lower_er_planned(lanes, &ctx, 6, &WorkerTeam::new(nthreads));
            factor_rows_serial(lanes, &ctx, 6, 8, 6);
        }
        (0..scales.len()).map(|c| fx.lane_bits(c)).collect()
    }

    const ONE: FixedLanes<1> = FixedLanes::<1>;

    #[test]
    fn er_matches_serial_bitwise() {
        let reference = sweep(ONE, 0, &[1.0], &[]);
        for nthreads in [1, 2, 3, 4] {
            assert_eq!(
                sweep(ONE, nthreads, &[1.0], &[]),
                reference,
                "nthreads={nthreads}"
            );
        }
    }

    #[test]
    fn er_lanes_match_width_one_bitwise_with_and_without_dropping() {
        // Every lane of a width-3 two-stage sweep carries the bits of
        // the width-1 serial sweep of that lane's values. The trailing
        // rows' multipliers lie in 0.6..1.5 whatever the scale, so with
        // τ on lane 0 drops part of each row, lane 1 all of it and
        // lane 2 nothing.
        let scales = [1.0, 0.013, 7.5];
        let tau_sets: [&[f64]; 2] = [&[], &[0.8, 1.6, 0.2]];
        for taus in tau_sets {
            let got = sweep(DynLanes(3), 2, &scales, taus);
            for (c, s) in scales.iter().enumerate() {
                let tau = taus.get(c..c + 1).unwrap_or(&[]);
                let want = sweep(ONE, 0, &[*s], tau);
                assert_eq!(got[c], want[0], "lane {c} τ={taus:?}");
            }
        }
    }

    #[test]
    fn empty_lower_stage_is_noop() {
        let fx = two_stage_case(&[1.0]);
        let before = fx.lane_bits(0);
        factor_lower_er_planned(ONE, &fx.ctx(), 8, &WorkerTeam::new(2));
        assert_eq!(fx.lane_bits(0), before, "values untouched");
    }

    #[test]
    fn p2p_matches_serial_bitwise() {
        let flat: Vec<f64> = [
            [10.0, 1.0, 2.0, 0.5],
            [1.0, 9.0, 0.5, 1.0],
            [2.0, 0.5, 8.0, 1.5],
            [0.5, 1.0, 1.5, 7.0],
        ]
        .concat();
        let lanes = FixedLanes::<1>;
        let serial = CtxFixture::dense(4, std::slice::from_ref(&flat));
        factor_rows_serial(lanes, &serial.ctx(), 0, 4, 0);
        for nthreads in [1, 2, 3] {
            let fx = CtxFixture::dense(4, std::slice::from_ref(&flat));
            // Dense lower triangle: each row is its own level.
            let level_ptr: Vec<usize> = (0..=4).collect();
            let deps = |r: usize, out: &mut Vec<usize>| out.extend(0..r);
            let schedule = P2PSchedule::build(4, nthreads, &level_ptr, deps);
            factor_upper_p2p_planned(
                lanes,
                &fx.ctx(),
                &schedule,
                &WorkerTeam::new(nthreads),
                &ProgressCounters::new(nthreads),
            );
            assert_eq!(
                fx.lane_bits(0),
                serial.lane_bits(0),
                "nthreads = {nthreads}"
            );
        }
    }

    /// Random strictly diagonally dominant matrix, n ≤ 12.
    fn arb_dominant() -> impl Strategy<Value = CsrMatrix<f64>> {
        (2usize..13).prop_flat_map(|n| {
            proptest::collection::vec((0..n, 0..n, 0.05..1.0f64), n..n * 4).prop_map(move |trips| {
                let mut coo = CooMatrix::new(n, n);
                let mut rowsum = vec![0.0f64; n];
                for &(r, c, v) in &trips {
                    if r != c {
                        coo.push(r, c, -v).unwrap();
                        rowsum[r] += v;
                    }
                }
                for (r, s) in rowsum.iter().enumerate() {
                    coo.push(r, r, s + 1.0).unwrap();
                }
                coo.to_csr()
            })
        })
    }

    /// Dense Doolittle LU without pivoting of `P·A·Pᵀ`, row-major.
    fn dense_lu(a: &CsrMatrix<f64>, new_to_old: &[usize]) -> Vec<Vec<f64>> {
        let n = a.nrows();
        let mut old = vec![vec![0.0; n]; n];
        for r in 0..n {
            for (&c, &v) in a.row_cols(r).iter().zip(a.row_vals(r)) {
                old[r][c] += v;
            }
        }
        let mut m: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| old[new_to_old[i]][new_to_old[j]]).collect())
            .collect();
        for i in 1..n {
            for c in 0..i {
                let l = m[i][c] / m[c][c];
                m[i][c] = l;
                for j in (c + 1)..n {
                    m[i][j] -= l * m[c][j];
                }
            }
        }
        m
    }

    fn assert_is_dense_lu(f: &crate::IluFactors<f64>, a: &CsrMatrix<f64>, what: &str) {
        let want = dense_lu(a, f.symbolic().perm().new_to_old());
        let lu = f.lu();
        for (r, want_row) in want.iter().enumerate() {
            let mut got_row = vec![0.0; want_row.len()];
            for (&c, &v) in lu.row_cols(r).iter().zip(lu.row_vals(r)) {
                got_row[c] = v;
            }
            for (c, (got, want)) in got_row.iter().zip(want_row).enumerate() {
                assert!(
                    (got - want).abs() < 1e-12,
                    "{what}: LU[{r},{c}] = {got}, dense LU says {want}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Independent oracle: with `fill_level ≥ n` the ILU pattern is
        /// the full LU pattern, so every entry point must reproduce a
        /// dense no-pivot LU of the permuted matrix — whatever the
        /// thread count or lane width.
        #[test]
        fn full_fill_ilu_is_dense_lu(a in arb_dominant(), seed in 0.2..2.0f64) {
            let a2 = javelin_synth::util::revalue(&a, seed, 0.05);
            for nthreads in 1..=3usize {
                let mut opts = IluOptions::ilu0(nthreads).with_fill(a.nrows());
                opts.split.min_rows_per_level = 2;
                let sym = SymbolicIlu::analyze(&a, &opts).unwrap();
                let mut f = sym.factor(&a).unwrap();
                assert_is_dense_lu(&f, &a, "factor");
                f.refactor(&a2).unwrap();
                assert_is_dense_lu(&f, &a2, "refactor");
                for k in [4usize, 5] {
                    let mut mats = vec![&a; k];
                    mats[k - 1] = &a2;
                    let batch = sym.factor_batch(&mats).unwrap();
                    prop_assert!(batch.all_ok());
                    assert_is_dense_lu(&batch.to_factors(0), &a, "factor_batch lane 0");
                    assert_is_dense_lu(&batch.to_factors(k - 1), &a2, "factor_batch lane k-1");
                }
            }
        }
    }
}
