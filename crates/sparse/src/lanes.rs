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
}
