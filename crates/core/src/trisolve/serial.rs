//! Serial forward/backward substitution on the combined LU factor —
//! the Serial engine of the apply pipeline, at every panel width.
//!
//! The substitution kernels are width-generic over the lane layer
//! ([`javelin_sparse::lanes`]) and read the factor through a
//! `FactorView`: `forward_lanes_inplace` / `backward_lanes_inplace`
//! retire every lane of a row before moving to the next row over a
//! row-interleaved buffer (`(r, c) → r·k + c`), so one stream over the
//! factor serves all `k` right-hand sides — whether the lanes share
//! one factor or each has its own scenario's values.
//!
//! Narrow panels skip the separate permutation passes:
//! `forward_lanes_folded` reads each row's right-hand sides straight
//! from the caller's column-major panel through the permutation, and
//! `backward_lanes_folded` writes each finished row straight into the
//! caller's solution as well as the buffer — two passes over the
//! vectors instead of gather, two sweeps and scatter. All four sweeps
//! share one row dot-product loop, so the folded pair is bit-identical
//! to the in-place pair between a gather and a scatter; the apply
//! pipeline picks the pair from the panel width (`trisolve::apply_lanes`).
//!
//! The classic scalar entry points [`forward_inplace`] /
//! [`backward_inplace`] are the `FixedLanes<1>` instantiations over the
//! shared-value view — at width 1 a plain vector *is* the interleaved
//! buffer, so the scalar path and the lane path are literally the same
//! code, bit for bit.

use super::view::{EntryLanes, FactorView, LaneValues, Shared};
use javelin_sparse::lanes::{for_each_chunk, FixedLanes, Lanes, LANE_CHUNK};
use javelin_sparse::{CsrMatrix, Panel, PanelMut, Scalar, SpIndex};
use std::cell::Cell;
use std::ops::Range;

/// In-place lane-generic forward substitution `L·X = Y` with implicit
/// unit diagonal over a row-interleaved `n × k` buffer: on entry `x`
/// holds the right-hand sides, on exit the solutions. Lane `c` carries
/// exactly the bits of a scalar [`forward_inplace`] run on that lane
/// against that lane's values.
pub(crate) fn forward_lanes_inplace<T: Scalar, L: Lanes, I: SpIndex, V: LaneValues<Value = T>>(
    lanes: L,
    f: FactorView<'_, I, V>,
    x: &mut [T],
) {
    let k = lanes.width();
    debug_assert_eq!(x.len(), f.n() * k, "interleaved buffer size");
    for r in 0..f.n() {
        for_each_chunk(0..k, |c0, cw| {
            let sums = row_sums(lanes, &f, f.lower(r), x, c0, cw);
            let xb = lanes.idx(r, c0);
            for (c, s) in sums[..cw].iter().enumerate() {
                x[xb + c] -= *s;
            }
        });
    }
}

/// In-place lane-generic backward substitution `U·X = Y` over a
/// row-interleaved buffer (see [`forward_lanes_inplace`]).
pub(crate) fn backward_lanes_inplace<T: Scalar, L: Lanes, I: SpIndex, V: LaneValues<Value = T>>(
    lanes: L,
    f: FactorView<'_, I, V>,
    x: &mut [T],
) {
    let k = lanes.width();
    debug_assert_eq!(x.len(), f.n() * k, "interleaved buffer size");
    for r in (0..f.n()).rev() {
        for_each_chunk(0..k, |c0, cw| {
            let d = f.pivot(r, c0, cw);
            let sums = row_sums(lanes, &f, f.upper(r), x, c0, cw);
            let xb = lanes.idx(r, c0);
            for (c, s) in sums[..cw].iter().enumerate() {
                x[xb + c] = (x[xb + c] - *s) / d.lane(c);
            }
        });
    }
}

/// Forward substitution with the apply's gather folded in: row `r`
/// takes its right-hand sides straight from the column-major panel `b`
/// at original row `new_to_old[r]`, and `z` (row-interleaved, contents
/// ignored on entry) receives the forward solution. Bit-identical to
/// `gather_permuted` followed by [`forward_lanes_inplace`]. One lane
/// chunk: `k ≤ LANE_CHUNK`.
pub(crate) fn forward_lanes_folded<T: Scalar, L: Lanes, I: SpIndex, V: LaneValues<Value = T>>(
    lanes: L,
    f: FactorView<'_, I, V>,
    new_to_old: &[usize],
    b: Panel<'_, T>,
    z: &mut [T],
) {
    let k = lanes.width();
    debug_assert!(k <= LANE_CHUNK, "folded sweeps run one lane chunk");
    debug_assert_eq!(z.len(), f.n() * k, "interleaved buffer size");
    // Column slices taken once per sweep; slots past `k` repeat the
    // last column and are never read.
    let cols: [&[T]; LANE_CHUNK] = std::array::from_fn(|c| b.col(c.min(k - 1)));
    for (r, &o) in new_to_old.iter().enumerate() {
        let sums = row_sums(lanes, &f, f.lower(r), z, 0, k);
        let zb = lanes.idx(r, 0);
        for (c, s) in sums[..k].iter().enumerate() {
            z[zb + c] = cols[c][o] - *s;
        }
    }
}

/// Backward substitution with the apply's scatter folded in: on entry
/// `z` holds the forward solution, and each finished row is written
/// both to `z` (later rows read it) and to the column-major panel `x`
/// at original row `new_to_old[r]`. Bit-identical to
/// [`backward_lanes_inplace`] followed by `scatter_permuted`. One lane
/// chunk: `k ≤ LANE_CHUNK`.
pub(crate) fn backward_lanes_folded<T: Scalar, L: Lanes, I: SpIndex, V: LaneValues<Value = T>>(
    lanes: L,
    f: FactorView<'_, I, V>,
    new_to_old: &[usize],
    z: &mut [T],
    mut x: PanelMut<'_, T>,
) {
    debug_assert!(
        lanes.width() <= LANE_CHUNK,
        "folded sweeps run one lane chunk"
    );
    debug_assert_eq!(z.len(), f.n() * lanes.width(), "interleaved buffer size");
    if lanes.width() == 1 {
        // One solution column, borrowed once for the sweep: re-borrowing
        // it per row cost 8–10 % of a width-1 apply.
        let x0 = x.col_mut(0);
        backward_rows_folded(lanes, f, new_to_old, z, |_, o, v| x0[o] = v);
    } else {
        backward_rows_folded(lanes, f, new_to_old, z, |c, o, v| x.col_mut(c)[o] = v);
    }
}

/// The row loop of [`backward_lanes_folded`]; `put(c, o, v)` stores
/// lane `c` of original row `o`.
#[inline(always)]
fn backward_rows_folded<T: Scalar, L: Lanes, I: SpIndex, V: LaneValues<Value = T>>(
    lanes: L,
    f: FactorView<'_, I, V>,
    new_to_old: &[usize],
    z: &mut [T],
    mut put: impl FnMut(usize, usize, T),
) {
    let k = lanes.width();
    for (r, &o) in new_to_old.iter().enumerate().rev() {
        let d = f.pivot(r, 0, k);
        let sums = row_sums(lanes, &f, f.upper(r), z, 0, k);
        let zb = lanes.idx(r, 0);
        for (c, s) in sums[..k].iter().enumerate() {
            let v = (z[zb + c] - *s) / d.lane(c);
            z[zb + c] = v;
            put(c, o, v);
        }
    }
}

/// Read access to a row-interleaved solve buffer: the Serial engine's
/// own slice, or the cells the threaded engine's region shares
/// (`engines.rs`), so both engines run one inner loop.
pub(super) trait SolveSlots<T> {
    /// Entry `i`.
    fn at(&self, i: usize) -> T;
}

impl<T: Copy> SolveSlots<T> for [T] {
    #[inline(always)]
    fn at(&self, i: usize) -> T {
        self[i]
    }
}

impl<T: Copy> SolveSlots<T> for [Cell<T>] {
    #[inline(always)]
    fn at(&self, i: usize) -> T {
        self[i].get()
    }
}

/// A row's dot products `Σ_e v_e(c) · x[col(e)·k + c]` over `entries`
/// (its L or its U part) for lanes `c0..c0 + cw` — the one inner loop
/// every sweep of both engines runs.
#[inline(always)]
pub(super) fn row_sums<
    T: Scalar,
    L: Lanes,
    I: SpIndex,
    V: LaneValues<Value = T>,
    X: SolveSlots<T> + ?Sized,
>(
    lanes: L,
    f: &FactorView<'_, I, V>,
    entries: Range<usize>,
    x: &X,
    c0: usize,
    cw: usize,
) -> [T; LANE_CHUNK] {
    row_sums_from([T::ZERO; LANE_CHUNK], lanes, f, entries, x, c0, cw)
}

/// [`row_sums`] continuing from the partial sums `sums` — how the
/// threaded engine finishes a trailing row from its Even-Rows prefix.
#[inline(always)]
pub(super) fn row_sums_from<
    T: Scalar,
    L: Lanes,
    I: SpIndex,
    V: LaneValues<Value = T>,
    X: SolveSlots<T> + ?Sized,
>(
    mut sums: [T; LANE_CHUNK],
    lanes: L,
    f: &FactorView<'_, I, V>,
    entries: Range<usize>,
    x: &X,
    c0: usize,
    cw: usize,
) -> [T; LANE_CHUNK] {
    for e in entries {
        let v = f.entry(e, c0, cw);
        let xb = lanes.idx(f.col(e), c0);
        for (c, s) in sums[..cw].iter_mut().enumerate() {
            *s += v.lane(c) * x.at(xb + c);
        }
    }
    sums
}

/// The shared-value view of a standalone combined-LU matrix.
fn shared_view<'a, T: Scalar>(
    lu: &'a CsrMatrix<T>,
    diag_pos: &'a [usize],
) -> FactorView<'a, usize, Shared<'a, T>> {
    FactorView::new(lu.rowptr(), lu.colidx(), diag_pos, Shared(lu.vals()))
}

/// In-place forward substitution `L·x = y` with implicit unit diagonal:
/// on entry `x` holds `y`, on exit the solution. The `FixedLanes<1>`
/// shared-value instantiation of the lane kernel.
pub fn forward_inplace<T: Scalar>(lu: &CsrMatrix<T>, diag_pos: &[usize], x: &mut [T]) {
    forward_lanes_inplace(FixedLanes::<1>, shared_view(lu, diag_pos), x);
}

/// In-place backward substitution `U·x = y`: on entry `x` holds `y`,
/// on exit the solution. The `FixedLanes<1>` shared-value
/// instantiation of the lane kernel.
pub fn backward_inplace<T: Scalar>(lu: &CsrMatrix<T>, diag_pos: &[usize], x: &mut [T]) {
    backward_lanes_inplace(FixedLanes::<1>, shared_view(lu, diag_pos), x);
}

#[cfg(test)]
mod tests {
    use super::*;
    use javelin_sparse::CooMatrix;

    /// Combined LU with known triangular factors:
    /// L = [[1,0],[0.5,1]], U = [[2,1],[0,3]] stored as one matrix.
    fn lu2() -> (CsrMatrix<f64>, Vec<usize>) {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 2.0).unwrap();
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 0, 0.5).unwrap();
        coo.push(1, 1, 3.0).unwrap();
        let lu = coo.to_csr();
        let dp = lu.diag_positions().unwrap();
        (lu, dp)
    }

    #[test]
    fn forward_unit_lower() {
        let (lu, dp) = lu2();
        let mut x = vec![2.0, 3.0];
        forward_inplace(&lu, &dp, &mut x);
        // x0 = 2; x1 = 3 - 0.5*2 = 2.
        assert_eq!(x, vec![2.0, 2.0]);
    }

    #[test]
    fn backward_upper() {
        let (lu, dp) = lu2();
        let mut x = vec![4.0, 6.0];
        backward_inplace(&lu, &dp, &mut x);
        // x1 = 6/3 = 2; x0 = (4 - 1*2)/2 = 1.
        assert_eq!(x, vec![1.0, 2.0]);
    }

    #[test]
    fn forward_then_backward_solves_lu_product() {
        let (lu, dp) = lu2();
        // Full matrix A = L*U = [[2,1],[1,3.5]].
        let a = [vec![2.0, 1.0], vec![1.0, 3.5]];
        let x_true = [1.5, -2.0];
        let b: Vec<f64> = (0..2)
            .map(|i| a[i][0] * x_true[0] + a[i][1] * x_true[1])
            .collect();
        let mut x = b;
        forward_inplace(&lu, &dp, &mut x);
        backward_inplace(&lu, &dp, &mut x);
        assert!((x[0] - x_true[0]).abs() < 1e-12);
        assert!((x[1] - x_true[1]).abs() < 1e-12);
    }

    #[test]
    fn lane_substitution_matches_scalar_per_lane_bitwise() {
        // The lane kernels on a row-interleaved buffer must reproduce,
        // per lane, exactly the scalar substitution bits — for a fixed
        // width, a dynamic width, and the degenerate width 1.
        use javelin_sparse::lanes::DynLanes;
        let (lu, dp) = lu2();
        let n = lu.nrows();
        let cols = [[2.0, 3.0], [-1.0, 5.0], [0.5, 0.25]];
        let run = |fwd_bwd: &dyn Fn(&mut [f64])| {
            let k = cols.len();
            let mut x = vec![0.0; n * k];
            for (c, col) in cols.iter().enumerate() {
                for r in 0..n {
                    x[r * k + c] = col[r];
                }
            }
            fwd_bwd(&mut x);
            x
        };
        let dynamic = run(&|x| {
            forward_lanes_inplace(DynLanes(3), shared_view(&lu, &dp), x);
            backward_lanes_inplace(DynLanes(3), shared_view(&lu, &dp), x);
        });
        for (c, col) in cols.iter().enumerate() {
            let mut want = col.to_vec();
            forward_inplace(&lu, &dp, &mut want);
            backward_inplace(&lu, &dp, &mut want);
            for r in 0..n {
                assert_eq!(
                    dynamic[r * 3 + c].to_bits(),
                    want[r].to_bits(),
                    "lane {c} row {r}"
                );
            }
        }
    }

    #[test]
    fn folded_sweeps_match_gather_inplace_scatter_bitwise() {
        // The folded pair must carry exactly the bits of gather →
        // in-place forward → in-place backward → scatter, through a
        // shuffled permutation, at every folded width over the shared
        // values, and over per-lane values (lanes 2.. of a 4-scenario
        // buffer, i.e. a batch column and a two-column sub-panel).
        use super::super::view::PerLane;
        use super::super::{gather_permuted, scatter_permuted};
        use javelin_sparse::lanes::DynLanes;
        use javelin_sparse::Perm;
        let lu =
            javelin_synth::grid::laplace_2d(9, 7).map_values(|v| if v < 0.0 { v * 0.9 } else { v });
        let dp = lu.diag_positions().unwrap();
        let n = lu.nrows();
        let mut new_to_old: Vec<usize> = (0..n).collect();
        let mut s = 0x9e37_79b9_7f4a_7c15_u64;
        for i in (1..n).rev() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            new_to_old.swap(i, (s >> 33) as usize % (i + 1));
        }
        let perm = Perm::from_new_to_old(new_to_old).unwrap();
        assert!(!perm.is_identity());
        let scenarios: Vec<f64> = (0..lu.nnz() * 4)
            .map(|i| lu.vals()[i / 4] * (1.0 + 0.125 * (i % 4) as f64))
            .collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();

        fn both<I: SpIndex, V: LaneValues<Value = f64>>(
            k: usize,
            f: FactorView<'_, I, V>,
            perm: &Perm,
            b: &[f64],
        ) -> (Vec<f64>, Vec<f64>) {
            let n = f.n();
            let (bp, lanes) = (Panel::new(b, n, k), DynLanes(k));
            let (mut z, mut want) = (vec![0.0; n * k], vec![0.0; n * k]);
            gather_permuted(lanes, perm.old_to_new(), bp, &mut z);
            forward_lanes_inplace(lanes, f, &mut z);
            backward_lanes_inplace(lanes, f, &mut z);
            scatter_permuted(lanes, perm.new_to_old(), &z, PanelMut::new(&mut want, n, k));
            let mut got = vec![0.0; n * k];
            let mut zf = vec![f64::NAN; n * k];
            javelin_sparse::with_lanes!(k, lanes => {
                forward_lanes_folded(lanes, f, perm.new_to_old(), bp, &mut zf);
                backward_lanes_folded(lanes, f, perm.new_to_old(), &mut zf, PanelMut::new(&mut got, n, k));
            });
            (got, want)
        }

        for k in 1..=4 {
            let b: Vec<f64> = (0..n * k)
                .map(|i| ((i * 37 % 53) as f64 - 26.0) * 0.17)
                .collect();
            let shared = FactorView::new(lu.rowptr(), lu.colidx(), &dp, Shared(lu.vals()));
            let (got, want) = both(k, shared, &perm, &b);
            assert_eq!(bits(&got), bits(&want), "shared k={k}");
            if k <= 2 {
                let lanes = PerLane {
                    vals: &scenarios[2..],
                    k: 4,
                };
                let per_lane = FactorView::new(lu.rowptr(), lu.colidx(), &dp, lanes);
                let (got, want) = both(k, per_lane, &perm, &b);
                assert_eq!(bits(&got), bits(&want), "per-lane c0=2 k={k}");
            }
        }
    }

    #[test]
    fn identity_is_noop() {
        let lu = CsrMatrix::<f64>::identity(5);
        let dp = lu.diag_positions().unwrap();
        let mut x = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let expect = x.clone();
        forward_inplace(&lu, &dp, &mut x);
        assert_eq!(x, expect);
        backward_inplace(&lu, &dp, &mut x);
        assert_eq!(x, expect);
    }
}
