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
//! The classic scalar entry points [`forward_inplace`] /
//! [`backward_inplace`] are the `FixedLanes<1>` instantiations over the
//! shared-value view — at width 1 a plain vector *is* the interleaved
//! buffer, so the scalar path and the lane path are literally the same
//! code, bit for bit.

use super::view::{EntryLanes, FactorView, LaneValues, Shared};
use javelin_sparse::lanes::{for_each_chunk, FixedLanes, Lanes, LANE_CHUNK};
use javelin_sparse::{CsrMatrix, Scalar};

/// In-place lane-generic forward substitution `L·X = Y` with implicit
/// unit diagonal over a row-interleaved `n × k` buffer: on entry `x`
/// holds the right-hand sides, on exit the solutions. Lane `c` carries
/// exactly the bits of a scalar [`forward_inplace`] run on that lane
/// against that lane's values.
pub(crate) fn forward_lanes_inplace<T: Scalar, L: Lanes, V: LaneValues<Value = T>>(
    lanes: L,
    f: FactorView<'_, V>,
    x: &mut [T],
) {
    let k = lanes.width();
    debug_assert_eq!(x.len(), f.n() * k, "interleaved buffer size");
    for r in 0..f.n() {
        for_each_chunk(0..k, |c0, cw| {
            let mut sums = [T::ZERO; LANE_CHUNK];
            for e in f.lower(r) {
                let v = f.entry(e, c0, cw);
                let xb = lanes.idx(f.col(e), c0);
                for (c, s) in sums[..cw].iter_mut().enumerate() {
                    *s += v.lane(c) * x[xb + c];
                }
            }
            let xb = lanes.idx(r, c0);
            for (c, s) in sums[..cw].iter().enumerate() {
                x[xb + c] -= *s;
            }
        });
    }
}

/// In-place lane-generic backward substitution `U·X = Y` over a
/// row-interleaved buffer (see [`forward_lanes_inplace`]).
pub(crate) fn backward_lanes_inplace<T: Scalar, L: Lanes, V: LaneValues<Value = T>>(
    lanes: L,
    f: FactorView<'_, V>,
    x: &mut [T],
) {
    let k = lanes.width();
    debug_assert_eq!(x.len(), f.n() * k, "interleaved buffer size");
    for r in (0..f.n()).rev() {
        for_each_chunk(0..k, |c0, cw| {
            let d = f.pivot(r, c0, cw);
            let mut sums = [T::ZERO; LANE_CHUNK];
            for e in f.upper(r) {
                let v = f.entry(e, c0, cw);
                let xb = lanes.idx(f.col(e), c0);
                for (c, s) in sums[..cw].iter_mut().enumerate() {
                    *s += v.lane(c) * x[xb + c];
                }
            }
            let xb = lanes.idx(r, c0);
            for (c, s) in sums[..cw].iter().enumerate() {
                x[xb + c] = (x[xb + c] - *s) / d.lane(c);
            }
        });
    }
}

/// The shared-value view of a standalone combined-LU matrix.
fn shared_view<'a, T: Scalar>(
    lu: &'a CsrMatrix<T>,
    diag_pos: &'a [usize],
) -> FactorView<'a, Shared<'a, T>> {
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
