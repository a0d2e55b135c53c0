//! Sparse matrix–vector products: the planned tiled kernel.
//!
//! The plain CSR loop is [`CsrMatrix::spmv_into`] in `javelin-sparse`;
//! this module holds the one parallel kernel, [`SpmvPlan`] — a
//! CSR5-inspired tiled segmented sum: fixed-size tiles over the *entry*
//! stream (so wildly unbalanced rows cannot skew one thread), per-tile
//! partial sums, deterministic tile-order combination — the kernel
//! shape of the paper's Segmented-Rows layout (§II, §III-B).
//!
//! It follows the crate's plan/execute split: [`SpmvPlan::new`] derives
//! every tile descriptor (first row, partial slot range, thread
//! ownership) from the sparsity pattern once and builds the worker
//! team, and [`SpmvPlan::execute`] then runs without heap allocation,
//! thread spawns or searches — the per-iteration shape the Krylov loop
//! needs.
//!
//! Both execution entry points are thin wrappers over **one**
//! width-generic lane core (`execute_lanes`): [`SpmvPlan::execute`] is
//! the `FixedLanes<1>` instantiation, [`SpmvPlan::execute_panel`]
//! dispatches `k ∈ {1, 4, 8}` to the monomorphized fixed-width kernels
//! and every other width to the bit-identical `DynLanes` fallback (see
//! [`javelin_sparse::lanes`]).

#![allow(unsafe_code)] // LuVals tile views; protocol documented in numeric/kernel.rs.

use crate::numeric::LuVals;
use crate::sync::Exec;
use javelin_sparse::lanes::{for_each_chunk, FixedLanes, Lanes, LANE_CHUNK};
use javelin_sparse::{with_lanes, CsrMatrix, Panel, PanelMut, Scalar};

/// A precomputed execution plan for the CSR5-inspired tiled spmv.
///
/// Built once per sparsity pattern, executed arbitrarily many times:
/// construction derives, per entry-stream tile, the first row it
/// touches and a disjoint range inside one flat partial-sum buffer;
/// execution writes tile partials into those ranges (each slot owned by
/// exactly one thread — no locks) and combines them in deterministic
/// tile order. After construction, [`execute`](SpmvPlan::execute)
/// performs **zero heap allocations** and **zero thread spawns** (the
/// plan's team parks between executes).
///
/// The plan is tied to the *pattern* of the matrix it was built from
/// (`nrows`/`nnz` are checked; entry values are read fresh on every
/// execute, so numeric refactorizations reuse the plan unchanged).
#[derive(Debug)]
pub struct SpmvPlan<T> {
    nrows: usize,
    ncols: usize,
    nnz: usize,
    tile: usize,
    n_tiles: usize,
    /// Row containing the first entry of each tile.
    first_row: Vec<usize>,
    /// Partial-slot range of tile `t`: `slot_ptr[t]..slot_ptr[t + 1]`.
    slot_ptr: Vec<usize>,
    /// Flat per-tile partial sums, disjointly indexed via `slot_ptr`.
    partials: LuVals<T>,
    exec: Exec,
}

impl<T: Scalar> SpmvPlan<T> {
    /// Plans the tiled spmv for `a` on a persistent worker team of
    /// `nthreads` (spawned here, parked between executes; one thread
    /// spawns nothing). `tile_size` is in entries.
    pub fn new(a: &CsrMatrix<T>, nthreads: usize, tile_size: usize) -> Self {
        let exec = Exec::team(nthreads.max(1));
        let nnz = a.nnz();
        let tile = tile_size.max(1);
        let n_tiles = nnz.div_ceil(tile);
        let rowptr = a.rowptr();
        let mut first_row = Vec::with_capacity(n_tiles);
        let mut slot_ptr = Vec::with_capacity(n_tiles + 1);
        slot_ptr.push(0usize);
        for t in 0..n_tiles {
            let lo = t * tile;
            let hi = ((t + 1) * tile).min(nnz);
            // Rows containing the tile's first and last entry (empty
            // rows before a boundary are skipped, matching the walk in
            // `execute`).
            let fr = rowptr.partition_point(|&p| p <= lo).saturating_sub(1);
            let lr = rowptr.partition_point(|&p| p < hi).saturating_sub(1);
            first_row.push(fr);
            slot_ptr.push(slot_ptr[t] + (lr - fr + 1));
        }
        let partials = LuVals::zeroed(*slot_ptr.last().expect("nonempty"));
        SpmvPlan {
            nrows: a.nrows(),
            ncols: a.ncols(),
            nnz,
            tile,
            n_tiles,
            first_row,
            slot_ptr,
            partials,
            exec,
        }
    }

    /// Threads used per execute.
    pub fn nthreads(&self) -> usize {
        self.exec.nthreads()
    }

    /// Tile size in entries.
    pub fn tile_size(&self) -> usize {
        self.tile
    }

    /// Executes `y = A·x` through the plan: allocation-free, results
    /// bit-identical for every thread count (fixed tile-order
    /// combination).
    ///
    /// This *is* the width-generic lane core instantiated at
    /// `FixedLanes<1>` — the scalar path and the panel path share one
    /// kernel body (`execute_lanes`).
    ///
    /// # Panics
    /// When `a`'s shape/nnz do not match the planned matrix, or on
    /// vector length mismatches.
    pub fn execute(&self, a: &CsrMatrix<T>, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.ncols, "spmv: x length mismatch");
        assert_eq!(y.len(), self.nrows, "spmv: y length mismatch");
        let x = Panel::from_col(x);
        let mut y = PanelMut::from_col(y);
        self.check_panel_shapes(a, &x, &y);
        self.execute_lanes(FixedLanes::<1>, a, x, &mut y);
    }

    /// Executes `Y = A·X` for a whole RHS panel through the plan: the
    /// tile descriptors are walked **once per panel** (per column
    /// chunk), with the partial-sum buffer gaining a column dimension
    /// (slot `s`, column `c` at `s·k + c`). The buffer grows, grow-only,
    /// the first time a wider panel arrives — hence `&mut self`; at any
    /// already-seen width the execution is allocation-free, and the
    /// `k = 1` path never grows at all.
    ///
    /// Widths `k ∈ {1, 4, 8}` dispatch to the monomorphized
    /// [`FixedLanes`] kernels (compile-time lane trip counts — the
    /// SIMD-friendly form); every other width runs the bit-identical
    /// [`javelin_sparse::DynLanes`] fallback.
    ///
    /// Column `c` of the result is bit-identical to
    /// [`SpmvPlan::execute`] on column `c`: same tiles, same segment
    /// order, same deterministic tile-order combination.
    ///
    /// # Panics
    /// When `a`'s shape/nnz do not match the planned matrix, or on
    /// panel shape mismatches.
    pub fn execute_panel(&mut self, a: &CsrMatrix<T>, x: Panel<'_, T>, mut y: PanelMut<'_, T>) {
        let k = self.check_panel_shapes(a, &x, &y);
        if k == 0 {
            return;
        }
        self.grow_partials(k);
        with_lanes!(k, lanes => self.execute_lanes(lanes, a, x, &mut y));
    }

    /// The single shape validator behind every execute entry point
    /// (also reached for zero-width panels, which are otherwise a
    /// no-op). Returns the panel width.
    fn check_panel_shapes(&self, a: &CsrMatrix<T>, x: &Panel<'_, T>, y: &PanelMut<'_, T>) -> usize {
        assert_eq!(a.nrows(), self.nrows, "spmv plan: row count changed");
        assert_eq!(a.ncols(), self.ncols, "spmv plan: col count changed");
        assert_eq!(a.nnz(), self.nnz, "spmv plan: nnz changed");
        assert_eq!(x.nrows(), self.ncols, "spmv: x panel rows mismatch");
        assert_eq!(y.nrows(), self.nrows, "spmv: y panel rows mismatch");
        assert_eq!(x.ncols(), y.ncols(), "spmv: panel widths differ");
        x.ncols()
    }

    /// Grow-only resize of the partial buffer to width `k`.
    fn grow_partials(&mut self, k: usize) {
        let n_slots = *self.slot_ptr.last().expect("nonempty");
        if self.partials.len() < n_slots * k {
            self.partials = LuVals::zeroed(n_slots * k);
        }
    }

    /// The width-generic kernel core behind both [`SpmvPlan::execute`]
    /// (`FixedLanes<1>`) and [`SpmvPlan::execute_panel`] (dispatched):
    /// one tile walk retires all `k` lanes, with per-tile partials
    /// row-interleaved at `(slot, c) → slot·k + c` and a deterministic
    /// per-lane tile-order combination. Requires the partial buffer to
    /// already span `n_slots · k` entries (see
    /// `grow_partials`); lane arithmetic is entry-ordered
    /// and lane-independent, so lane `c` carries identical bits through
    /// every `L`.
    fn execute_lanes<L: Lanes>(
        &self,
        lanes: L,
        a: &CsrMatrix<T>,
        x: Panel<'_, T>,
        y: &mut PanelMut<'_, T>,
    ) {
        // Shapes were validated by `check_panel_shapes` on every entry
        // path; only the lane/width pairing is this function's own.
        let k = lanes.width();
        assert_eq!(x.ncols(), k, "spmv: panel width vs lanes");
        if self.nnz == 0 {
            for c in 0..k {
                y.col_mut(c).fill(T::ZERO);
            }
            return;
        }
        let n_slots = *self.slot_ptr.last().expect("nonempty");
        debug_assert!(self.partials.len() >= n_slots * k, "partials not grown");
        let rowptr = a.rowptr();
        let vals = a.vals();
        let colidx = a.colidx();
        let nthreads = self.exec.nthreads();
        let tiles_per_thread = self.n_tiles.div_ceil(nthreads).max(1);
        let partials = &self.partials;
        self.exec.run(|tid| {
            let t_lo = (tid * tiles_per_thread).min(self.n_tiles);
            let t_hi = ((tid + 1) * tiles_per_thread).min(self.n_tiles);
            for t in t_lo..t_hi {
                let lo = t * self.tile;
                let hi = ((t + 1) * self.tile).min(self.nnz);
                let base = self.slot_ptr[t];
                // Safety: tiles are partitioned contiguously across
                // threads and `slot_ptr` assigns each tile a disjoint
                // slot range — this thread owns every lane of tile `t`.
                let pt = unsafe { partials.view_mut(base * k..self.slot_ptr[t + 1] * k) };
                // Lane chunks re-walk the tile so the accumulators stay
                // on the stack; per lane the walk (and the bits) match
                // the single-RHS execute exactly. At a fixed width the
                // chunk is one constant-trip block — the form the
                // vectorizer wants. The chunk's column slices are
                // hoisted out of the entry loop so the inner FMA
                // indexes plain slices.
                for_each_chunk(0..k, |c0, cw| {
                    let mut xcols: [&[T]; LANE_CHUNK] = [&[]; LANE_CHUNK];
                    for (c, xc) in xcols[..cw].iter_mut().enumerate() {
                        *xc = x.col(c0 + c);
                    }
                    let mut row = self.first_row[t];
                    let mut slot = 0usize;
                    let mut accs = [T::ZERO; LANE_CHUNK];
                    let mut cursor = lo;
                    while cursor < hi {
                        while rowptr[row + 1] <= cursor {
                            for (c, acc) in accs[..cw].iter_mut().enumerate() {
                                pt[slot * k + c0 + c] = *acc;
                                *acc = T::ZERO;
                            }
                            slot += 1;
                            row += 1;
                        }
                        let stop = rowptr[row + 1].min(hi);
                        for e in cursor..stop {
                            let v = vals[e];
                            let j = colidx[e];
                            for (acc, xc) in accs[..cw].iter_mut().zip(xcols[..cw].iter()) {
                                *acc += v * xc[j];
                            }
                        }
                        cursor = stop;
                    }
                    for (c, acc) in accs[..cw].iter().enumerate() {
                        pt[slot * k + c0 + c] = *acc;
                    }
                    debug_assert_eq!(base + slot + 1, self.slot_ptr[t + 1]);
                });
            }
        });
        // Deterministic combination in tile order, lane by lane (tile
        // order per lane matches the single-RHS execute, so the bits do
        // too). This reduction stays on the safe `get` accessor on
        // purpose: it reads one scattered strided element per slot (no
        // contiguous run to vectorize), and a whole-buffer `view` here
        // measured ~40% slower at k = 1 — only the tile writers above
        // profit from slices.
        for c in 0..k {
            let yc = y.col_mut(c);
            yc.fill(T::ZERO);
            for t in 0..self.n_tiles {
                let first_row = self.first_row[t];
                for (i, s) in (self.slot_ptr[t]..self.slot_ptr[t + 1]).enumerate() {
                    let r = first_row + i;
                    if r < self.nrows {
                        yc[r] += partials.get(lanes.idx(s, c));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use javelin_sparse::lanes::DynLanes;
    use javelin_sparse::CooMatrix;

    fn skewed(n: usize) -> CsrMatrix<f64> {
        // One dense row amid sparse ones — the case row-chunking
        // balances poorly and tiling balances well.
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
        }
        for c in 0..n {
            if c != n / 2 {
                coo.push(n / 2, c, 0.5 + c as f64 * 0.01).unwrap();
            }
        }
        for i in 1..n {
            coo.push(i, i - 1, -1.0).unwrap();
        }
        coo.to_csr()
    }

    /// One planned execute of `y = A·x`.
    fn planned(a: &CsrMatrix<f64>, x: &[f64], nthreads: usize, tile: usize) -> Vec<f64> {
        let mut y = vec![f64::NAN; a.nrows()];
        SpmvPlan::new(a, nthreads, tile).execute(a, x, &mut y);
        y
    }

    #[test]
    fn plan_matches_serial_for_many_tilings() {
        let a = skewed(64);
        let x: Vec<f64> = (0..64).map(|i| 1.0 + (i % 7) as f64).collect();
        let mut y_ref = vec![0.0; 64];
        a.spmv_into(&x, &mut y_ref);
        for nthreads in [1, 3] {
            for tile in [1, 3, 8, 64, 1024] {
                let y = planned(&a, &x, nthreads, tile);
                for (g, w) in y.iter().zip(y_ref.iter()) {
                    assert!(
                        (g - w).abs() < 1e-12,
                        "tile={tile} nthreads={nthreads}: {g} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn plan_handles_empty_rows_and_matrix() {
        let mut coo = CooMatrix::new(5, 5);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(4, 4, 2.0).unwrap();
        let a = coo.to_csr();
        assert_eq!(planned(&a, &[1.0; 5], 2, 1), vec![1.0, 0.0, 0.0, 0.0, 2.0]);
        let empty = CooMatrix::<f64>::new(3, 3).to_csr();
        assert_eq!(planned(&empty, &[1.0; 3], 2, 4), vec![0.0; 3]);
    }

    #[test]
    fn plan_reuse_is_bitwise_stable_and_matches_a_fresh_plan() {
        let a = skewed(80);
        let x: Vec<f64> = (0..80).map(|i| (i as f64 * 0.37).sin()).collect();
        let plan = SpmvPlan::new(&a, 3, 16);
        let mut y1 = vec![0.0; 80];
        plan.execute(&a, &x, &mut y1);
        let bits1: Vec<u64> = y1.iter().map(|v| v.to_bits()).collect();
        // Repeated executes through the same plan: identical bits.
        for _ in 0..5 {
            let mut y2 = vec![7.0; 80];
            plan.execute(&a, &x, &mut y2);
            let bits2: Vec<u64> = y2.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits1, bits2);
        }
        // And identical to a plan built from scratch (same tile order).
        let y_once = planned(&a, &x, 3, 16);
        let bits0: Vec<u64> = y_once.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits0, bits1);
    }

    #[test]
    fn panel_execute_grows_once_and_stays_bitwise_stable() {
        let a = skewed(70);
        let n = a.nrows();
        let mut plan = SpmvPlan::new(&a, 3, 16);
        let x: Vec<f64> = (0..n * 8).map(|i| (i as f64 * 0.11).cos()).collect();
        // Wide panel first (grows the partials), then narrow reuse, then
        // wide again — every column must match the single-RHS execute
        // bitwise at every step. Covers both the fixed (1, 4, 8) and
        // dynamic (3, 5) dispatch arms.
        for k in [8usize, 1, 3, 4, 5, 8] {
            let mut y = vec![0.0; n * k];
            plan.execute_panel(
                &a,
                Panel::new(&x[..n * k], n, k),
                PanelMut::new(&mut y, n, k),
            );
            for c in 0..k {
                let mut yc = vec![0.0; n];
                plan.execute(&a, &x[c * n..(c + 1) * n], &mut yc);
                let pb: Vec<u64> = y[c * n..(c + 1) * n].iter().map(|v| v.to_bits()).collect();
                let sb: Vec<u64> = yc.iter().map(|v| v.to_bits()).collect();
                assert_eq!(pb, sb, "k={k} col={c}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "panel widths differ")]
    fn zero_width_panel_with_mismatched_output_is_rejected() {
        // Shape validation must run even on the zero-width early-out
        // path: a 0-column x against a 3-column y is a caller bug.
        let a = skewed(10);
        let n = a.nrows();
        let x: [f64; 0] = [];
        let mut y = vec![0.0; n * 3];
        let mut plan = SpmvPlan::new(&a, 1, 16);
        plan.execute_panel(&a, Panel::new(&x, n, 0), PanelMut::new(&mut y, n, 3));
    }

    #[test]
    fn dyn_lanes_match_dispatched_kernels_bitwise() {
        // The DynLanes instantiation of the lane core must be
        // bit-identical to whatever the dispatch table picks, at the
        // monomorphized widths especially.
        let a = skewed(66);
        let n = a.nrows();
        for k in [1usize, 4, 5, 8] {
            let x: Vec<f64> = (0..n * k).map(|i| (i as f64 * 0.23).sin()).collect();
            let mut plan = SpmvPlan::new(&a, 2, 16);
            let mut y_fixed = vec![0.0; n * k];
            plan.execute_panel(&a, Panel::new(&x, n, k), PanelMut::new(&mut y_fixed, n, k));
            let mut y_dyn = vec![0.0; n * k];
            // `execute_panel` above already grew the partials to width k.
            plan.execute_lanes(
                DynLanes(k),
                &a,
                Panel::new(&x, n, k),
                &mut PanelMut::new(&mut y_dyn, n, k),
            );
            let fb: Vec<u64> = y_fixed.iter().map(|v| v.to_bits()).collect();
            let db: Vec<u64> = y_dyn.iter().map(|v| v.to_bits()).collect();
            assert_eq!(fb, db, "k={k}");
        }
    }

    #[test]
    fn plan_thread_count_does_not_change_bits() {
        let a = skewed(91);
        let x: Vec<f64> = (0..91).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let reference = {
            let plan = SpmvPlan::new(&a, 1, 8);
            let mut y = vec![0.0; 91];
            plan.execute(&a, &x, &mut y);
            y.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        for nthreads in [2, 3, 8] {
            let plan = SpmvPlan::new(&a, nthreads, 8);
            let mut y = vec![0.0; 91];
            plan.execute(&a, &x, &mut y);
            let bits: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, reference, "nthreads={nthreads}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use javelin_sparse::CooMatrix;
    use proptest::prelude::*;

    /// Random rectangular-ish square matrix allowing empty rows,
    /// empty leading/trailing blocks, and duplicate-free structure.
    fn arb_matrix(n_max: usize) -> impl Strategy<Value = CsrMatrix<f64>> {
        (1..n_max).prop_flat_map(|n| {
            proptest::collection::vec((0..n, 0..n, -3.0..3.0f64), 0..n * 3).prop_map(move |trips| {
                let mut coo = CooMatrix::new(n, n);
                let mut seen = std::collections::HashSet::new();
                for (r, c, v) in trips {
                    if seen.insert((r, c)) {
                        coo.push(r, c, v).unwrap();
                    }
                }
                coo.to_csr()
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Panel execution is column-for-column bit-identical to `k`
        /// single-RHS executes for the issue's widths, across thread
        /// counts and tile sizes, including empty rows/matrices.
        #[test]
        fn panel_spmv_bitwise_matches_looped_single_rhs(
            a in arb_matrix(40),
            k_idx in 0usize..7,
            nthreads_idx in 0usize..4,
            tile_idx in 0usize..5,
        ) {
            // Fixed widths (1, 4, 8) and DynLanes widths (2, 3, 5, 7).
            let k = [1usize, 2, 3, 4, 5, 7, 8][k_idx];
            let nthreads = [1usize, 2, 3, 8][nthreads_idx];
            let tile = [1usize, 3, 8, 64, 1024][tile_idx];
            let n = a.nrows();
            let x: Vec<f64> = (0..n * k)
                .map(|i| 0.25 + ((i * 7) % 11) as f64 * 0.3)
                .collect();
            let mut plan = SpmvPlan::new(&a, nthreads, tile);
            let mut y = vec![f64::NAN; n * k];
            plan.execute_panel(&a, Panel::new(&x, n, k), PanelMut::new(&mut y, n, k));
            for c in 0..k {
                let mut yc = vec![f64::NAN; n];
                plan.execute(&a, &x[c * n..(c + 1) * n], &mut yc);
                let pb: Vec<u64> = y[c * n..(c + 1) * n].iter().map(|v| v.to_bits()).collect();
                let sb: Vec<u64> = yc.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(pb, sb, "k={} nthreads={} tile={} col={}", k, nthreads, tile, c);
            }
        }

        /// Planned execution equals the serial kernel for every
        /// (threads × tile) combination the issue calls out, including
        /// matrices with empty rows and fully empty matrices.
        #[test]
        fn planned_spmv_matches_serial(a in arb_matrix(40)) {
            let n = a.nrows();
            let x: Vec<f64> = (0..n).map(|i| 0.25 + (i % 5) as f64).collect();
            let mut y_ref = vec![0.0; n];
            a.spmv_into(&x, &mut y_ref);
            for nthreads in [1usize, 2, 3, 8] {
                for tile in [1usize, 3, 8, 64, 1024] {
                    let plan = SpmvPlan::new(&a, nthreads, tile);
                    let mut y = vec![f64::NAN; n];
                    plan.execute(&a, &x, &mut y);
                    for (g, w) in y.iter().zip(y_ref.iter()) {
                        prop_assert!(
                            (g - w).abs() < 1e-10 * w.abs().max(1.0),
                            "nthreads={} tile={}: {} vs {}", nthreads, tile, g, w
                        );
                    }
                }
            }
        }
    }
}
