//! Sparse triangular solves (paper §VI) — the operation Javelin is
//! co-designed around: the factorization is computed once, but `stri`
//! runs thousands of times inside the Krylov loop.
//!
//! Both engines solve in the caller's row-interleaved buffer (an
//! [`ApplyScratch`]) in the factor's permuted ordering (classic
//! substitution is safe in place because each row reads its own slot
//! before writing it and reads dependency slots only after their final
//! write). Neither needs a pass over the vectors
//! of its own on narrow panels: the forward sweep reads the caller's
//! column-major right-hand sides through the permutation and the
//! backward sweep writes the solution through it. The threaded engine
//! does this at every width, each thread at the rows it retires inside
//! the region; the Serial engine up to four columns (the scalar apply
//! included), while wider Serial panels gather into the buffer and
//! scatter out of it in one fused pass each (`apply_panel` is the
//! pipeline; `view` is the only module that knows how factor values are
//! addressed).
//!
//! * [`serial`] — the Serial engine: lane-generic substitution, one
//!   stream over the factor for all `k` columns, folded or in place;
//! * `engines` — the threaded engine, Fig. 12's `LS + Lower`:
//!   point-to-point level scheduling with pruned waits plus Even-Rows
//!   trailing rows, bitwise serial. The figure's other two variants,
//!   barriered level sets (`CSR-LS`) and point-to-point alone (`LS`),
//!   are modelled only, by the `javelin-machine` simulator.

pub(crate) mod engines;
pub mod serial;
pub(crate) mod view;

use crate::options::SolveEngine;
use crate::precond::ApplyScratch;
use crate::symbolic_ilu::SymCore;
use javelin_sparse::lanes::{for_each_chunk, Lanes, LANE_CHUNK};
use javelin_sparse::{with_lanes, Panel, PanelMut, Scalar, SparseError};
use view::{FactorView, LaneValues, PerLane, Shared};

/// Solves `A·X ≈ B` for an `n × k` panel through the factor values
/// `vals` of analysis `core` — the one apply pipeline, at every width,
/// for both engines and every stored factor width. `vals` holds
/// `stride` factors lane-interleaved (a [`crate::FactorsBatch`]'s
/// committed values, from the panel's first scenario on): one stored
/// factor serves every panel column ([`view::Shared`], what
/// [`crate::IluFactors`] is), otherwise column `c` reads factor `c`
/// ([`view::PerLane`]). The engine retires all `k` columns in one
/// schedule walk (Serial: one stream over the factor), reading `B` and
/// writing `x` through the permutation itself — except the Serial
/// engine at `k > 4`, which gathers `B` permuted and row-interleaved
/// into its buffer first and scatters the solution afterwards (see
/// `FOLD_MAX_WIDTH`). Widths `k ∈ {1, 4, 8}` run the monomorphized
/// fixed-lane kernels, every
/// other width the bit-identical dynamic fallback.
///
/// Both engines work in `scratch`'s buffer, grown to `n·k` entries when
/// shorter and never shrunk. The Serial engine takes no lock; the
/// threaded engine holds the analysis's sync lock for the whole apply,
/// so concurrent threaded applies of one analysis serialize.
///
/// # Errors
/// [`SparseError::DimensionMismatch`] on shape mismatches.
pub(crate) fn apply_panel<T: Scalar>(
    core: &SymCore,
    vals: &[T],
    stride: usize,
    engine: SolveEngine,
    scratch: &mut ApplyScratch<T>,
    b: Panel<'_, T>,
    x: PanelMut<'_, T>,
) -> Result<(), SparseError> {
    let (n, k) = (core.n, b.ncols());
    if b.nrows() != n || x.nrows() != n || x.ncols() != k {
        return Err(SparseError::DimensionMismatch(format!(
            "solve: rhs {}x{} / solution {}x{} against factors of dimension {}",
            b.nrows(),
            b.ncols(),
            x.nrows(),
            x.ncols(),
            n
        )));
    }
    if k == 0 {
        return Ok(());
    }
    if stride == 1 {
        let vals = Shared(vals);
        with_lanes!(k, lanes => apply_lanes(core, vals, lanes, engine, scratch, b, x));
    } else {
        let vals = PerLane { vals, k: stride };
        with_lanes!(k, lanes => apply_lanes(core, vals, lanes, engine, scratch, b, x));
    }
    Ok(())
}

/// The widest panel the Serial engine solves with the permutation
/// folded into its sweeps (`serial::{forward,backward}_lanes_folded`:
/// two passes over the vectors instead of four). Each folded row reads
/// and writes `k` cache lines of the caller's column-major panels
/// through the permutation, where gather and scatter touch one
/// row-interleaved line. On a 56³ 7-point ILU(0) apply (175 616 rows,
/// 2-vCPU x86 host) folding was faster at `k = 1` (−8 %), `k = 2..4`
/// (−25 to −35 %) and `k = 5` (−6 %), a toss-up at 6 and 48 % slower
/// at 8; the cut-over keeps a margin below the crossing. The threaded
/// engine folds at every width: each thread reads and writes only the
/// rows it retires, and its traced `k = 8` apply on the same system
/// (2 pinned threads) took ≈ 7.5 ms folded against ≈ 12 ms for the
/// gather, region and scatter it replaced.
const FOLD_MAX_WIDTH: usize = 4;

/// The lane-generic body of [`apply_panel`]; shapes already checked.
pub(crate) fn apply_lanes<T: Scalar, V: LaneValues<Value = T>, L: Lanes>(
    core: &SymCore,
    vals: V,
    lanes: L,
    engine: SolveEngine,
    scratch: &mut ApplyScratch<T>,
    b: Panel<'_, T>,
    x: PanelMut<'_, T>,
) {
    let (lu, perm) = (&core.lu, &core.perm);
    let f = FactorView::new(&lu.rowptr, &lu.colidx, &lu.diag_pos, vals);
    let len = core.n * lanes.width();
    scratch.buffer(len);
    match engine {
        SolveEngine::Serial => {
            let z = &mut scratch.buf[..len];
            if lanes.width() <= FOLD_MAX_WIDTH {
                serial::forward_lanes_folded(lanes, f, perm.new_to_old(), b, z);
                serial::backward_lanes_folded(lanes, f, perm.new_to_old(), z, x);
            } else {
                gather_permuted(lanes, perm.old_to_new(), b, z);
                serial::forward_lanes_inplace(lanes, f, z);
                serial::backward_lanes_inplace(lanes, f, z);
                scatter_permuted(lanes, perm.new_to_old(), z, x);
            }
        }
        SolveEngine::PointToPointLower => engines::solve_p2p_fused(core, lanes, f, scratch, b, x),
    }
}

/// The wide Serial apply's way in: gathers the
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

/// The wide Serial apply's way out: scatters the row-interleaved solution
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
