//! Sparse triangular solves (paper §VI) — the operation Javelin is
//! co-designed around: the factorization is computed once, but `stri`
//! runs thousands of times inside the Krylov loop.
//!
//! All engines solve **in place**: the buffer starts as the right-hand
//! side and finishes as the solution (classic substitution is safe in
//! place because each row reads its own slot before writing it and reads
//! dependency slots only after their final write). The buffer is
//! row-interleaved and in the factor's permuted ordering; one fused
//! gather fills it from the caller's column-major panel and one fused
//! scatter empties it, the same two passes for every engine
//! (`IluFactors::solve_panel_with_buffer` is the pipeline).
//!
//! * [`serial`] — the Serial engine: lane-generic substitution, one
//!   stream over the factor for all `k` columns;
//! * [`engines`] — the three parallel engines of Fig. 12:
//!   barriered level sets (`CSR-LS`), point-to-point (`LS`), and
//!   point-to-point with the tiled lower-stage block (`LS + Lower`).

pub mod engines;
pub mod serial;

use javelin_sparse::lanes::{for_each_chunk, Lanes, LANE_CHUNK};
use javelin_sparse::{Panel, PanelMut, Scalar};

/// The apply pipeline's way in, for every engine: gathers the
/// column-major panel `b` into the engine's buffer permuted **and**
/// row-interleaved in one pass, `z[p(o)·k + c] = b[c][o]` — each row's
/// `k` lanes are written together, so the buffer is streamed once
/// whatever the width. At `k = 1` this is the plain permutation loop.
pub(crate) fn gather_permuted<T: Scalar, L: Lanes>(
    lanes: L,
    old_to_new: &[usize],
    b: Panel<'_, T>,
    z: &mut [T],
) {
    for_each_chunk(0..lanes.width(), |c0, cw| {
        // Column slices taken once per chunk, not per element; slots
        // past `cw` repeat the last column and are never read.
        let cols: [&[T]; LANE_CHUNK] = std::array::from_fn(|c| b.col(c0 + c.min(cw - 1)));
        for (o, &p) in old_to_new.iter().enumerate() {
            let zb = lanes.idx(p, c0);
            for (zv, col) in z[zb..zb + cw].iter_mut().zip(&cols) {
                *zv = col[o];
            }
        }
    });
}

/// The apply pipeline's way out: scatters the row-interleaved solution
/// `z` back through the permutation into the column-major panel `x` in
/// one pass, `x[c][o(i)] = z[i·k + c]`.
pub(crate) fn scatter_permuted<T: Scalar, L: Lanes>(
    lanes: L,
    new_to_old: &[usize],
    z: &[T],
    mut x: PanelMut<'_, T>,
) {
    for_each_chunk(0..lanes.width(), |c0, cw| {
        for (i, &o) in new_to_old.iter().enumerate() {
            let zb = lanes.idx(i, c0);
            for (c, &zv) in z[zb..zb + cw].iter().enumerate() {
                x.col_mut(c0 + c)[o] = zv;
            }
        }
    });
}
