//! Sparse matrix–vector products: the planned threaded kernel.
//!
//! The plain CSR loop is [`CsrMatrix::spmv_into`] in `javelin-sparse`;
//! [`SpmvPlan`] runs that same row loop on a worker team. The plan
//! splits the rows into one contiguous block per thread, balanced on
//! rows + entries (the nnz-balanced row blocks of Williams et al., SC
//! 2007), and each thread retires its block's rows in entry order: per
//! row and lane, `acc = 0; acc += v·x[j]`. No thread shares a row, so
//! nothing is combined afterwards, and every column is **bitwise**
//! `spmv_into` at every thread count and panel width.
//!
//! It follows the crate's plan/execute split: [`SpmvPlan::new`] builds
//! the row blocks and the worker team once, and the executes then run
//! without heap allocation, thread spawns or searches — the
//! per-iteration shape the Krylov loop needs.
//!
//! Both execution entry points are thin wrappers over **one**
//! width-generic lane core (`execute_lanes`): [`SpmvPlan::execute`] is
//! the `FixedLanes<1>` instantiation, [`SpmvPlan::execute_panel`]
//! dispatches `k ∈ {1, 4, 8}` to the monomorphized fixed-width kernels
//! and every other width to the bit-identical `DynLanes` fallback (see
//! [`javelin_sparse::lanes`]).

use crate::sync::{Exec, RegionCells};
use javelin_sparse::lanes::{for_each_chunk, FixedLanes, Lanes, LANE_CHUNK};
use javelin_sparse::{with_lanes, CsrMatrix, Panel, PanelMut, Scalar};
use std::marker::PhantomData;

/// A precomputed execution plan for the threaded spmv.
///
/// Built once per sparsity pattern, executed arbitrarily many times:
/// construction splits the rows into one contiguous block per team
/// thread; execution has each thread write its own rows of `y`. After
/// construction, [`execute`](SpmvPlan::execute) and
/// [`execute_panel`](SpmvPlan::execute_panel) perform **zero heap
/// allocations** and **zero thread spawns** (the plan's team parks
/// between executes).
///
/// The plan is tied to the *pattern* of the matrix it was built from
/// (`nrows`/`nnz` are checked; entry values are read fresh on every
/// execute, so numeric refactorizations reuse the plan unchanged).
#[derive(Debug)]
pub struct SpmvPlan<T> {
    nrows: usize,
    ncols: usize,
    nnz: usize,
    /// Thread `t` owns rows `bounds[t]..bounds[t + 1]`.
    bounds: Vec<usize>,
    exec: Exec,
    _scalar: PhantomData<T>,
}

impl<T: Scalar> SpmvPlan<T> {
    /// Plans the spmv for `a` on a persistent worker team of `nthreads`
    /// (spawned here, parked between executes; one thread spawns
    /// nothing). Thread `t`'s block ends at the first row boundary where
    /// the rows plus entries before it reach `t + 1` equal shares.
    ///
    /// `tile_size` is accepted and ignored: the row blocks need no
    /// tile. The parameter goes with `IluOptions::tile_size`, its last
    /// source (ROADMAP item 10).
    pub fn new(a: &CsrMatrix<T>, nthreads: usize, _tile_size: usize) -> Self {
        let exec = Exec::team(nthreads.max(1));
        let nt = exec.nthreads();
        let (nrows, rowptr) = (a.nrows(), a.rowptr());
        let total = nrows + a.nnz();
        let mut bounds = vec![0; nt + 1];
        let mut r = 0;
        for (t, b) in bounds.iter_mut().enumerate().skip(1) {
            while r < nrows && r + rowptr[r] < total * t / nt {
                r += 1;
            }
            *b = r;
        }
        SpmvPlan {
            nrows,
            ncols: a.ncols(),
            nnz: a.nnz(),
            bounds,
            exec,
            _scalar: PhantomData,
        }
    }

    /// Threads used per execute.
    pub fn nthreads(&self) -> usize {
        self.exec.nthreads()
    }

    /// Executes `y = A·x` through the plan: allocation-free, and bitwise
    /// [`CsrMatrix::spmv_into`] at every thread count.
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

    /// Executes `Y = A·X` for a whole RHS panel through the plan, with
    /// one pass over `A` per panel (per [`LANE_CHUNK`] columns). It
    /// mutates nothing; `&mut self` stays for its callers.
    ///
    /// Widths `k ∈ {1, 4, 8}` dispatch to the monomorphized
    /// [`FixedLanes`] kernels (compile-time lane trip counts — the
    /// SIMD-friendly form); every other width runs the bit-identical
    /// [`javelin_sparse::DynLanes`] fallback.
    ///
    /// Column `c` of the result is bitwise [`SpmvPlan::execute`] and
    /// [`CsrMatrix::spmv_into`] on column `c`.
    ///
    /// # Panics
    /// When `a`'s shape/nnz do not match the planned matrix, or on
    /// panel shape mismatches.
    pub fn execute_panel(&mut self, a: &CsrMatrix<T>, x: Panel<'_, T>, mut y: PanelMut<'_, T>) {
        let k = self.check_panel_shapes(a, &x, &y);
        if k == 0 {
            return;
        }
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

    /// The width-generic kernel core behind both [`SpmvPlan::execute`]
    /// (`FixedLanes<1>`) and [`SpmvPlan::execute_panel`] (dispatched):
    /// each thread runs `spmv_into`'s row loop over its row block, all
    /// lanes of a chunk per entry. Lane arithmetic is entry-ordered and
    /// lane-independent, so lane `c` carries identical bits through
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
        let (rowptr, colidx, vals) = (a.rowptr(), a.colidx(), a.vals());
        let stride = y.col_stride();
        let ys = RegionCells::new(y.data_mut());
        self.exec.run(|tid| {
            // Capture the `Sync` wrapper whole, not its `Cell` field.
            let ys = &ys;
            let rows = self.bounds[tid]..self.bounds[tid + 1];
            // The chunk's column slices are hoisted out of the row loop
            // so the inner multiply-add indexes plain slices; at a fixed width
            // the chunk is one constant-trip block.
            for_each_chunk(0..k, |c0, cw| {
                let mut xcols: [&[T]; LANE_CHUNK] = [&[]; LANE_CHUNK];
                for (c, xc) in xcols[..cw].iter_mut().enumerate() {
                    *xc = x.col(c0 + c);
                }
                for r in rows.clone() {
                    let mut accs = [T::ZERO; LANE_CHUNK];
                    for e in rowptr[r]..rowptr[r + 1] {
                        let (v, j) = (vals[e], colidx[e]);
                        for (acc, xc) in accs[..cw].iter_mut().zip(&xcols[..cw]) {
                            *acc += v * xc[j];
                        }
                    }
                    for (c, acc) in accs[..cw].iter().enumerate() {
                        ys.0[(c0 + c) * stride + r].set(*acc);
                    }
                }
            });
        });
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

        /// Panel column `c` is bitwise `spmv_into` on column `c` at every
        /// thread count and width, including empty rows and matrices:
        /// the row blocks run `spmv_into`'s own row loop.
        #[test]
        fn panel_column_is_bitwise_spmv_into(a in arb_matrix(40)) {
            let n = a.nrows();
            let x: Vec<f64> = (0..n * 8).map(|i| (i as f64 * 0.37).sin()).collect();
            let mut want = vec![0.0; n * 8];
            for (xc, wc) in x.chunks(n).zip(want.chunks_mut(n)) {
                a.spmv_into(xc, wc);
            }
            for nthreads in [1usize, 2, 3, 8] {
                let mut plan = SpmvPlan::new(&a, nthreads, 64);
                for k in [1usize, 2, 3, 4, 5, 7, 8] {
                    let mut y = vec![f64::NAN; n * k];
                    plan.execute_panel(&a, Panel::new(&x[..n * k], n, k), PanelMut::new(&mut y, n, k));
                    let got: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
                    let exp: Vec<u64> = want[..n * k].iter().map(|v| v.to_bits()).collect();
                    prop_assert_eq!(got, exp, "nthreads={} k={}", nthreads, k);
                }
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
