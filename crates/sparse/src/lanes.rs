//! The width-generic **lane layer**: one kernel core for scalar and
//! panel execution paths.
//!
//! The kernels that stream a sparse matrix or factor — the planned
//! spmv, the triangular-solve engines (serial and threaded), the numeric
//! factorization — retire a block of `k` *lanes* (right-hand sides, or
//! scenario value sets) per traversal. A [`Lanes`] value makes each of
//! them one generic core instead of a scalar copy plus a panel copy:
//!
//! * [`FixedLanes<K>`](FixedLanes) — a zero-sized, const-generic width.
//!   Monomorphizing a kernel at `FixedLanes<1>` *is* the scalar path
//!   (every per-lane loop has compile-time trip count 1 and folds
//!   away); `FixedLanes<4>` / `FixedLanes<8>` give the compiler exact
//!   trip counts for its vectorizer.
//! * [`DynLanes`] — the runtime-width fallback for arbitrary `k`,
//!   running exactly the loops the fixed widths unroll. Bitwise, a
//!   column computed through `DynLanes(k)` is identical to the same
//!   column through any `FixedLanes<K>` instantiation: lane arithmetic
//!   is column-independent and entry-ordered, so only codegen changes,
//!   never results.
//!
//! The [`with_lanes!`](crate::with_lanes) macro is the single dispatch
//! point: `k ∈ {1, 4, 8}` routes to the monomorphized kernels,
//! everything else to the dynamic fallback.
//!
//! The layer also owns the two conventions the kernels share:
//!
//! * **Row-interleaved element access**: lane `c` of row `r` lives at
//!   [`Lanes::idx`]`(r, c) = r·k + c`, keeping a row's `k` lanes
//!   contiguous for the per-entry inner loops (the layout of the solve
//!   engines' buffers and the batched factor values).
//! * **Column chunking**: [`for_each_chunk`] walks lane ranges in
//!   blocks of at most [`LANE_CHUNK`] so accumulators stay in
//!   fixed-size stack arrays for any runtime width; for `FixedLanes<K>`
//!   with `K ≤ LANE_CHUNK` the walk collapses to a single
//!   constant-width block.
//!
//! On top sit [`lane_fnma`], the per-lane elimination update of the
//! numeric factorization, and [`LaneMask`] — the per-column masking
//! vocabulary of the lockstep batch solvers (a converged or broken-down
//! lane freezes in place; the panel never changes shape). Those Krylov
//! drivers keep their vectors **column-major** ([`crate::Panel`]) and
//! run `vecops` per column; only the kernels above interleave.

use crate::scalar::Scalar;
use std::ops::Range;

/// Columns per stack-resident accumulator block: the chunk width lane
/// kernels use so arbitrary dynamic widths run allocation-free. Fixed
/// widths `K ≤ LANE_CHUNK` run as one exact-width chunk.
pub const LANE_CHUNK: usize = 8;

/// A panel width, threaded through the kernel cores as a value whose
/// type decides codegen: const-generic [`FixedLanes`] monomorphizes the
/// per-lane loops, [`DynLanes`] keeps them runtime.
///
/// The contract every kernel relies on: [`Lanes::width`] is pure (the
/// same value on every call), and lane arithmetic routed through
/// [`Lanes::idx`] touches lane `c` of a row independently of every
/// other lane — which is why column `c` of any lane-generic kernel is
/// bit-identical across `Lanes` implementations.
pub trait Lanes: Copy + Send + Sync + std::fmt::Debug {
    /// Compile-time width when monomorphized; `None` for [`DynLanes`].
    const FIXED: Option<usize>;

    /// The panel width `k` (≥ 1).
    fn width(&self) -> usize;

    /// Row-interleaved element index: lane `c` of row `r` at `r·k + c`.
    #[inline(always)]
    fn idx(&self, r: usize, c: usize) -> usize {
        r * self.width() + c
    }
}

/// A compile-time panel width (see module docs). `FixedLanes<1>` is the
/// scalar path; `FixedLanes<4>` / `FixedLanes<8>` are the constant-trip
/// monomorphizations [`with_lanes!`](crate::with_lanes) dispatches to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FixedLanes<const K: usize>;

impl<const K: usize> Lanes for FixedLanes<K> {
    const FIXED: Option<usize> = Some(K);

    #[inline(always)]
    fn width(&self) -> usize {
        K
    }
}

/// A runtime panel width — the fallback instantiation for widths the
/// dispatch table does not monomorphize. Bitwise-identical per column
/// to every fixed-width instantiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynLanes(pub usize);

impl Lanes for DynLanes {
    const FIXED: Option<usize> = None;

    #[inline(always)]
    fn width(&self) -> usize {
        self.0
    }
}

/// Dispatches a width-generic kernel: binds `$lanes` to the
/// monomorphized [`FixedLanes`] for `k ∈ {1, 4, 8}` and to
/// [`DynLanes`]`(k)` otherwise, then evaluates `$body` — the single
/// dispatch table between the scalar path (`K = 1`), the fixed panel
/// widths (`K = 4, 8`) and the dynamic fallback.
///
/// ```
/// use javelin_sparse::lanes::Lanes;
/// use javelin_sparse::with_lanes;
///
/// fn width_through_dispatch(k: usize) -> usize {
///     with_lanes!(k, lanes => lanes.width())
/// }
/// assert_eq!(width_through_dispatch(4), 4);
/// assert_eq!(width_through_dispatch(5), 5);
/// ```
#[macro_export]
macro_rules! with_lanes {
    ($k:expr, $lanes:ident => $body:expr) => {{
        match $k {
            1 => {
                let $lanes = $crate::lanes::FixedLanes::<1>;
                $body
            }
            4 => {
                let $lanes = $crate::lanes::FixedLanes::<4>;
                $body
            }
            8 => {
                let $lanes = $crate::lanes::FixedLanes::<8>;
                $body
            }
            k => {
                let $lanes = $crate::lanes::DynLanes(k);
                $body
            }
        }
    }};
}

/// Walks the lane range `cols` in blocks `(c0, cw)` of at most
/// [`LANE_CHUNK`] lanes — the accumulator-sizing discipline of every
/// lane kernel. For a full fixed-width range (`0..K`, `K ≤ LANE_CHUNK`)
/// this is a single constant-width block after inlining.
#[inline(always)]
pub fn for_each_chunk(cols: Range<usize>, mut f: impl FnMut(usize, usize)) {
    let mut c0 = cols.start;
    while c0 < cols.end {
        let cw = (cols.end - c0).min(LANE_CHUNK);
        f(c0, cw);
        c0 += cw;
    }
}

/// Per-lane fused negative multiply-add over row-interleaved buffers:
/// `y[r·k + c] -= l[c] · x[r·k + c]` for every row and lane — the
/// elimination inner-loop update `a[r,j] -= l·u[c,j]` with per-lane
/// multipliers. "Fused" refers to the one-pass shape, **not** to
/// hardware FMA: like [`Scalar::mul_add`], the body computes
/// multiply-then-subtract in two rounded steps, so every lane stays
/// bit-identical to the scalar kernels.
///
/// Always inlined: the numeric factorization calls this once per
/// updated entry with a single `k`-lane row, so at `FixedLanes<1>` an
/// out-of-line call (which a downstream crate's codegen-unit split
/// otherwise produces, `#[inline]` hint or not — measured at +13% on a
/// whole width-1 sweep) costs more than the one multiply-subtract.
#[inline(always)]
pub fn lane_fnma<T: Scalar, L: Lanes>(lanes: L, l: &[T], x: &[T], y: &mut [T]) {
    let k = lanes.width();
    debug_assert_eq!(l.len(), k, "lane_fnma: multiplier length");
    debug_assert_eq!(x.len(), y.len(), "lane_fnma: buffer lengths");
    debug_assert_eq!(x.len() % k.max(1), 0, "lane_fnma: ragged buffer");
    for (r, yrow) in y.chunks_exact_mut(k).enumerate() {
        for c in 0..k {
            yrow[c] -= l[c] * x[lanes.idx(r, c)];
        }
    }
}

/// Lane is still iterating.
pub const LANE_ACTIVE: u8 = 0;
/// Lane met its convergence target (result frozen in place).
pub const LANE_DONE: u8 = 1;
/// Lane hit a breakdown (result frozen where the scalar solver would
/// have returned).
pub const LANE_HALTED: u8 = 2;
/// Lane finished a restart cycle and waits, masked, for the panel's
/// next shared boundary (lockstep-restart GMRES).
pub const LANE_PENDING: u8 = 3;

/// Per-column masking state of a lockstep batch solve: each lane is
/// [`LANE_ACTIVE`], [`LANE_DONE`], [`LANE_HALTED`] or [`LANE_PENDING`].
/// Masked lanes keep their panel slot — the shared panel applies never
/// change shape — so freezing one lane cannot perturb a bit of its
/// neighbours.
#[derive(Debug, Clone, Default)]
pub struct LaneMask {
    state: Vec<u8>,
}

impl LaneMask {
    /// Resets to `k` lanes, all [`LANE_ACTIVE`] (grow-only storage).
    pub fn reset(&mut self, k: usize) {
        self.state.clear();
        self.state.resize(k, LANE_ACTIVE);
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// `true` when the mask covers zero lanes.
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// Lane `c`'s state.
    #[inline(always)]
    pub fn get(&self, c: usize) -> u8 {
        self.state[c]
    }

    /// Sets lane `c`'s state.
    #[inline(always)]
    pub fn set(&mut self, c: usize, s: u8) {
        self.state[c] = s;
    }

    /// `true` while lane `c` is [`LANE_ACTIVE`].
    #[inline(always)]
    pub fn is_active(&self, c: usize) -> bool {
        self.state[c] == LANE_ACTIVE
    }

    /// `true` while lane `c` is in state `s`.
    #[inline(always)]
    pub fn is(&self, c: usize, s: u8) -> bool {
        self.state[c] == s
    }

    /// `true` while any lane is still [`LANE_ACTIVE`].
    pub fn any_active(&self) -> bool {
        self.state.contains(&LANE_ACTIVE)
    }

    /// `true` while any lane is in state `s`.
    pub fn any(&self, s: u8) -> bool {
        self.state.contains(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_and_dyn_report_the_same_geometry() {
        let f = FixedLanes::<4>;
        let d = DynLanes(4);
        assert_eq!(f.width(), d.width());
        assert_eq!(<FixedLanes<4> as Lanes>::FIXED, Some(4));
        assert_eq!(<DynLanes as Lanes>::FIXED, None);
        for r in 0..5 {
            for c in 0..4 {
                assert_eq!(f.idx(r, c), d.idx(r, c));
                assert_eq!(f.idx(r, c), r * 4 + c);
            }
        }
    }

    #[test]
    fn dispatch_table_covers_fixed_and_dynamic_widths() {
        for k in [1usize, 2, 3, 4, 5, 7, 8, 9] {
            let fixed = with_lanes!(k, lanes => <_ as LanesProbe>::fixed(&lanes));
            let width = with_lanes!(k, lanes => lanes.width());
            assert_eq!(width, k);
            match k {
                1 | 4 | 8 => assert_eq!(fixed, Some(k), "k={k} must monomorphize"),
                _ => assert_eq!(fixed, None, "k={k} must fall back to DynLanes"),
            }
        }
        trait LanesProbe {
            fn fixed(&self) -> Option<usize>;
        }
        impl<L: Lanes> LanesProbe for L {
            fn fixed(&self) -> Option<usize> {
                L::FIXED
            }
        }
    }

    #[test]
    fn chunks_cover_ranges_exactly() {
        for (lo, hi) in [(0usize, 0usize), (0, 1), (0, 8), (0, 9), (3, 20), (5, 6)] {
            let mut seen = Vec::new();
            for_each_chunk(lo..hi, |c0, cw| {
                assert!((1..=LANE_CHUNK).contains(&cw));
                seen.extend(c0..c0 + cw);
            });
            assert_eq!(seen, (lo..hi).collect::<Vec<_>>(), "range {lo}..{hi}");
        }
    }

    /// The defining bitwise contract: lane `c` of [`lane_fnma`] is
    /// bit-identical between the dynamic fallback and the scalar
    /// (`FixedLanes<1>`) run of that lane.
    #[test]
    fn fnma_dyn_and_scalar_agree_bitwise() {
        let n = 13usize;
        for k in [1usize, 4, 5, 8] {
            let x: Vec<f64> = (0..n * k).map(|i| 0.3 + (i as f64 * 0.7).sin()).collect();
            let y0: Vec<f64> = (0..n * k).map(|i| (i as f64 * 0.11).cos()).collect();
            let l: Vec<f64> = (0..k).map(|c| 0.5 - c as f64 * 0.125).collect();
            let mut y = y0.clone();
            lane_fnma(DynLanes(k), &l, &x, &mut y);
            for c in 0..k {
                let xc: Vec<f64> = (0..n).map(|r| x[r * k + c]).collect();
                let mut yc: Vec<f64> = (0..n).map(|r| y0[r * k + c]).collect();
                lane_fnma(FixedLanes::<1>, &l[c..c + 1], &xc, &mut yc);
                for r in 0..n {
                    assert_eq!(
                        yc[r].to_bits(),
                        y[r * k + c].to_bits(),
                        "k={k} lane {c} row {r}"
                    );
                }
            }
        }
    }

    /// Poisoned inputs (NaN, ±∞, signed zero, subnormals): the fixed
    /// widths 4 and 8 — constant-trip loops the compiler is free to
    /// vectorize — must propagate specials bit-identically to the
    /// dynamic fallback, `∞·0 → NaN` lanes included.
    #[test]
    fn fnma_with_nan_and_inf_agrees_bitwise() {
        let n = 11usize;
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            1.0e-310, // subnormal
            2.5,
            -7.25,
        ];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for k in [4usize, 8] {
            let x: Vec<f64> = (0..n * k).map(|i| specials[i % specials.len()]).collect();
            let y0: Vec<f64> = (0..n * k)
                .map(|i| specials[(i * 3 + 1) % specials.len()])
                .collect();
            let l: Vec<f64> = (0..k).map(|c| specials[(c + 2) % specials.len()]).collect();
            let mut y_dyn = y0.clone();
            lane_fnma(DynLanes(k), &l, &x, &mut y_dyn);
            let mut y_fixed = y0.clone();
            with_lanes!(k, lanes => lane_fnma(lanes, &l, &x, &mut y_fixed));
            assert_eq!(bits(&y_fixed), bits(&y_dyn), "k={k}");
            // And the poison actually reached the outputs: NaN lanes
            // must exist, or this test proves nothing.
            assert!(y_fixed.iter().any(|v| v.is_nan()), "k={k} no NaN?");
        }
    }

    #[test]
    fn mask_tracks_lane_states() {
        let mut m = LaneMask::default();
        assert!(m.is_empty());
        m.reset(3);
        assert_eq!(m.len(), 3);
        assert!(m.any_active() && m.is_active(1));
        m.set(0, LANE_DONE);
        m.set(1, LANE_HALTED);
        assert!(m.any_active());
        m.set(2, LANE_PENDING);
        assert!(!m.any_active());
        assert!(m.any(LANE_PENDING) && m.is(2, LANE_PENDING));
        assert!(!m.any(LANE_ACTIVE));
        assert_eq!(m.get(1), LANE_HALTED);
        // Reset rearms every lane.
        m.reset(2);
        assert!(m.is_active(0) && m.is_active(1));
    }
}
