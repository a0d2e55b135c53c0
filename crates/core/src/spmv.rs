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
//! The plan streams a `u32` copy of the matrix's pattern
//! (`crate::pattern::CsrPattern`) with the values it is handed: 12
//! bytes per stored entry instead of the 16 of a `usize` CSR, the index
//! compression Williams et al. count among the first-order spmv
//! optimizations. A plan built by [`crate::SymbolicIlu::spmv_plan`]
//! shares the analysis's copy of `A`'s pattern; [`SpmvPlan::new`] makes
//! a copy of its own. The plan multiplies that one pattern with a value
//! slice: [`SpmvPlan::execute_vals`] takes the values alone (one per
//! planned entry, in the pattern's order), and the matrix entries
//! [`SpmvPlan::execute`] and [`SpmvPlan::execute_panel`] check the
//! matrix they are handed — its shape always (O(1)), its whole pattern
//! in debug builds — and pass its values on.
//!
//! It follows the crate's plan/execute split: the row blocks are built
//! once, on a team of the plan's own ([`SpmvPlan::new`]) or on an
//! analysis's team ([`crate::SymbolicIlu::spmv_plan`], the plan a
//! threaded `javelin::Session` runs every Krylov matvec through), and
//! the executes then run without heap allocation, thread spawns or
//! searches — the per-iteration shape the Krylov loop needs.
//!
//! A single vector (a width-1 panel) runs `spmv_into`'s own row loop,
//! [`javelin_sparse::spmv_csr_rows`], at `u32` on each block; a
//! one-thread plan runs it over every row on the caller. Wider panels
//! run one width-generic lane core (`execute_lanes`), dispatching
//! `k ∈ {4, 8}` to the monomorphized fixed-width kernels and every
//! other width to the bit-identical `DynLanes` fallback (see
//! [`javelin_sparse::lanes`]).
//!
//! The plan also runs the Krylov drivers' vector passes on its team
//! ([`SpmvPlan::dot`], [`SpmvPlan::map`], [`SpmvPlan::zip`],
//! [`SpmvPlan::zip3`]), block-aligned: participant `tid` owns the whole
//! [`vecops::DOT_BLOCK`]-entry blocks `col_range(n_blocks, nthreads,
//! tid)` of the vector, writes its entries and its blocks' sums, and
//! the caller adds the sums in block order after the join. Each is
//! bitwise its `vecops` body at every thread count; a one-thread plan,
//! or a vector of a single block, runs that body on the caller and
//! opens no region.

use crate::pattern::CsrPattern;
use crate::sync::{col_range, RegionCells, WorkerTeam};
use javelin_sparse::lanes::{for_each_chunk, Lanes, LANE_CHUNK};
use javelin_sparse::vecops::{self, DOT_BLOCK};
use javelin_sparse::{spmv_csr_rows, with_lanes, CsrMatrix, Panel, PanelMut, Scalar};
use std::cell::Cell;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Arc;

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
/// The plan is tied to the *pattern* of the matrix it was built from:
/// it keeps that pattern (at `u32` indices) and multiplies it with the
/// values each execute is handed — fresh on every execute, so numeric
/// refactorizations reuse the plan unchanged.
/// [`execute_vals`](SpmvPlan::execute_vals) takes a value slice, which
/// must hold one value per planned entry. The matrix entries must be
/// handed a matrix of the planned pattern: they check its dimensions and
/// entry count, and debug builds also check that its `rowptr` and
/// `colidx` equal the planned ones. A release build multiplies a
/// same-shape matrix of another pattern with the planned pattern.
#[derive(Debug)]
pub struct SpmvPlan<T> {
    ncols: usize,
    /// The planned pattern: an analysis's copy of `A`'s, or the plan's
    /// own.
    pattern: Arc<CsrPattern>,
    /// Thread `t` owns rows `bounds[t]..bounds[t + 1]`.
    bounds: Vec<usize>,
    team: Arc<WorkerTeam>,
    _scalar: PhantomData<T>,
}

impl<T: Scalar> SpmvPlan<T> {
    /// Plans the spmv for `a` on a persistent worker team of `nthreads`
    /// (spawned here, parked between executes; one thread spawns
    /// nothing).
    ///
    /// `tile_size` is accepted and ignored: the row blocks need no
    /// tile. The parameter goes with `IluOptions::tile_size`, its last
    /// source (ROADMAP item 12). The plan keeps a `u32` copy of `a`'s
    /// pattern.
    ///
    /// # Panics
    /// When `a`'s entry or column count exceeds the `u32` index range.
    pub fn new(a: &CsrMatrix<T>, nthreads: usize, _tile_size: usize) -> Self {
        let pattern = CsrPattern::of_matrix(a).unwrap_or_else(|e| panic!("spmv plan: {e}"));
        Self::on(
            Arc::new(WorkerTeam::new(nthreads.max(1))),
            Arc::new(pattern),
            a.ncols(),
        )
    }

    /// Plans the spmv of the `ncols`-column pattern `pattern` on
    /// `team`, one row block per participant. Thread `t`'s block
    /// ends at the first row boundary where the rows plus entries before
    /// it reach `t + 1` equal shares.
    pub(crate) fn on(team: Arc<WorkerTeam>, pattern: Arc<CsrPattern>, ncols: usize) -> Self {
        let nt = team.nthreads();
        let (nrows, rowptr) = (pattern.nrows(), &pattern.rowptr);
        let total = nrows + pattern.nnz();
        let mut bounds = vec![0; nt + 1];
        let mut r = 0;
        for (t, b) in bounds.iter_mut().enumerate().skip(1) {
            while r < nrows && r + (rowptr[r] as usize) < total * t / nt {
                r += 1;
            }
            *b = r;
        }
        SpmvPlan {
            ncols,
            pattern,
            bounds,
            team,
            _scalar: PhantomData,
        }
    }

    /// Threads used per execute.
    pub fn nthreads(&self) -> usize {
        self.team.nthreads()
    }

    /// Rows of the planned pattern (the length of `y`).
    pub fn nrows(&self) -> usize {
        self.pattern.nrows()
    }

    /// Executes `y = A·x` through the plan: allocation-free, and bitwise
    /// [`CsrMatrix::spmv_into`] at every thread count. This is
    /// [`SpmvPlan::execute_panel`] at width 1.
    ///
    /// # Panics
    /// When `a`'s shape/nnz do not match the planned matrix (debug
    /// builds: when its pattern does not), or on vector length
    /// mismatches.
    pub fn execute(&self, a: &CsrMatrix<T>, x: &[T], y: &mut [T]) {
        self.execute_panel(a, Panel::from_col(x), PanelMut::from_col(y));
    }

    /// Executes `Y = A·X` for a whole RHS panel through the plan: the
    /// checks on `a` (its shape; in debug builds its whole pattern
    /// against the planned one, since only its values are read), then
    /// [`SpmvPlan::execute_vals`] with `a`'s values.
    ///
    /// # Panics
    /// When `a`'s shape/nnz do not match the planned matrix (debug
    /// builds: when its pattern does not), or on panel shape mismatches.
    pub fn execute_panel(&self, a: &CsrMatrix<T>, x: Panel<'_, T>, y: PanelMut<'_, T>) {
        assert_eq!(
            a.nrows(),
            self.pattern.nrows(),
            "spmv plan: row count changed"
        );
        assert_eq!(a.ncols(), self.ncols, "spmv plan: col count changed");
        assert_eq!(a.nnz(), self.pattern.nnz(), "spmv plan: nnz changed");
        debug_assert!(
            self.pattern.matches(a),
            "spmv plan: the matrix's pattern differs from the planned one"
        );
        self.execute_vals(a.vals(), x, y);
    }

    /// Executes `Y = A·X` through the plan with `vals` as `A`'s values,
    /// one per planned entry in the planned pattern's order, with one
    /// pass over the pattern per panel (per [`LANE_CHUNK`] columns): the
    /// one kernel behind every execute.
    ///
    /// Width 1 has each thread run `spmv_into`'s own row loop,
    /// [`javelin_sparse::spmv_csr_rows`], over the planned `u32`
    /// pattern on its block; a one-thread plan runs it on the caller
    /// and opens no region. Widths 4 and 8 dispatch to the
    /// monomorphized [`javelin_sparse::FixedLanes`] kernels
    /// (compile-time lane trip counts — the SIMD-friendly form); every
    /// other width runs the bit-identical [`javelin_sparse::DynLanes`]
    /// fallback. Column `c` of the result is bitwise
    /// [`CsrMatrix::spmv_into`] on column `c` of a matrix of the
    /// planned pattern with these values.
    ///
    /// # Panics
    /// When `vals` does not hold one value per planned entry, or on
    /// panel shape mismatches.
    pub fn execute_vals(&self, vals: &[T], x: Panel<'_, T>, mut y: PanelMut<'_, T>) {
        let nrows = self.pattern.nrows();
        assert_eq!(
            vals.len(),
            self.pattern.nnz(),
            "spmv plan: one value per planned entry"
        );
        assert_eq!(x.nrows(), self.ncols, "spmv: x panel rows mismatch");
        assert_eq!(y.nrows(), nrows, "spmv: y panel rows mismatch");
        assert_eq!(x.ncols(), y.ncols(), "spmv: panel widths differ");
        match x.ncols() {
            0 => {}
            1 => self.execute_rows(vals, x.col(0), y.col_mut(0)),
            k => with_lanes!(k, lanes => self.execute_lanes(lanes, vals, x, &mut y)),
        }
    }

    /// The width-1 kernel behind [`SpmvPlan::execute_vals`]: each
    /// thread runs `spmv_into`'s row loop over its row block.
    fn execute_rows(&self, vals: &[T], x: &[T], y: &mut [T]) {
        let p = &*self.pattern;
        let ys = RegionCells::new(y);
        self.team.run(|tid| {
            // Capture the `Sync` wrapper whole, not its `Cell` field.
            let ys = &ys;
            let rows = self.bounds[tid]..self.bounds[tid + 1];
            spmv_csr_rows(&p.rowptr, &p.colidx, vals, rows, x, ys.0);
        });
    }

    /// The width-generic panel kernel behind [`SpmvPlan::execute_vals`]
    /// at widths above 1: each thread runs `spmv_into`'s row loop over
    /// its row block of the planned pattern, all lanes of a chunk per
    /// entry. Lane arithmetic is entry-ordered and lane-independent, so
    /// lane `c` carries identical bits through every `L`.
    fn execute_lanes<L: Lanes>(
        &self,
        lanes: L,
        vals: &[T],
        x: Panel<'_, T>,
        y: &mut PanelMut<'_, T>,
    ) {
        // Shapes were validated by `execute_vals`; only the lane/width
        // pairing is this function's own.
        let k = lanes.width();
        assert_eq!(x.ncols(), k, "spmv: panel width vs lanes");
        let p = &*self.pattern;
        let stride = y.col_stride();
        let ys = RegionCells::new(y.data_mut());
        self.team.run(|tid| {
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
                    for e in p.row(r) {
                        let (v, j) = (vals[e], p.colidx[e] as usize);
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

/// The Krylov drivers' vector passes on the plan's team (see module
/// docs): bitwise their `vecops` bodies, allocation-free.
impl<T: Scalar> SpmvPlan<T> {
    /// Whether a pass over an `n`-vector opens a region: only with two
    /// threads and two blocks to share.
    fn splits(&self, n: usize) -> bool {
        self.team.nthreads() > 1 && vecops::n_blocks(n) > 1
    }

    /// Runs `pass(cells, entries)` on the team over `y`: participant
    /// `tid` gets the entries of its whole blocks `col_range(n_blocks,
    /// nthreads, tid)` and their cells of `y`, which it alone writes
    /// from the region's fork to its join.
    fn on_blocks(&self, y: &mut [T], pass: impl Fn(&[Cell<T>], Range<usize>) + Sync) {
        let n = y.len();
        let (nb, nt) = (vecops::n_blocks(n), self.team.nthreads());
        let ys = RegionCells::new(y);
        self.team.run(|tid| {
            // Capture the `Sync` wrapper whole, not its `Cell` field.
            let ys = &ys;
            let blocks = col_range(nb, nt, tid);
            let span = (blocks.start * DOT_BLOCK).min(n)..(blocks.end * DOT_BLOCK).min(n);
            pass(&ys.0[span.clone()], span);
        });
    }

    /// `xᵀ·y`, bitwise [`vecops::dot`] at every thread count. Each
    /// participant writes its blocks' [`vecops::block_dot`]s into
    /// `sums`, one slot per block, and the caller adds the first
    /// `n_blocks(n)` slots in block order after the join; slots past
    /// them are never read. A one-thread plan or a single-block vector
    /// runs `vecops::dot` on the caller.
    ///
    /// # Panics
    /// When lengths differ, or when a split dot gets fewer than
    /// [`vecops::n_blocks`] slots.
    pub fn dot(&self, x: &[T], y: &[T], sums: &mut [T]) -> T {
        assert_eq!(x.len(), y.len(), "dot: length mismatch");
        let n = x.len();
        if !self.splits(n) {
            return vecops::dot(x, y);
        }
        let nb = vecops::n_blocks(n);
        assert!(sums.len() >= nb, "dot: {nb} block-sum slots needed");
        let sums = &mut sums[..nb];
        let cells = RegionCells::new(sums);
        let nt = self.team.nthreads();
        self.team.run(|tid| {
            // Capture the `Sync` wrapper whole, not its `Cell` field.
            let cells = &cells;
            for b in col_range(nb, nt, tid) {
                let block = b * DOT_BLOCK..((b + 1) * DOT_BLOCK).min(n);
                cells.0[b].set(vecops::block_dot(&x[block.clone()], &y[block]));
            }
        });
        sums.iter().fold(T::ZERO, |sum, &block| sum + block)
    }

    /// `yᵢ ← f(yᵢ)`, bitwise [`vecops::map`]; a one-thread plan or a
    /// single-block vector runs it on the caller.
    pub fn map<F: Fn(T) -> T + Sync>(&self, y: &mut [T], f: F) {
        if !self.splits(y.len()) {
            return vecops::map(y, f);
        }
        self.on_blocks(y, |ys, _| {
            for yi in ys {
                yi.set(f(yi.get()));
            }
        });
    }

    /// `yᵢ ← f(yᵢ, xᵢ)`, bitwise [`vecops::zip`]; a one-thread plan or
    /// a single-block vector runs it on the caller.
    ///
    /// # Panics
    /// When lengths differ.
    pub fn zip<F: Fn(T, T) -> T + Sync>(&self, y: &mut [T], x: &[T], f: F) {
        if !self.splits(y.len()) {
            return vecops::zip(y, x, f);
        }
        assert_eq!(x.len(), y.len(), "zip: length mismatch");
        self.on_blocks(y, |ys, span| {
            for (yi, &xi) in ys.iter().zip(&x[span]) {
                yi.set(f(yi.get(), xi));
            }
        });
    }

    /// `yᵢ ← f(yᵢ, uᵢ, vᵢ)`, bitwise [`vecops::zip3`]; a one-thread plan
    /// or a single-block vector runs it on the caller.
    ///
    /// # Panics
    /// When lengths differ.
    pub fn zip3<F: Fn(T, T, T) -> T + Sync>(&self, y: &mut [T], u: &[T], v: &[T], f: F) {
        if !self.splits(y.len()) {
            return vecops::zip3(y, u, v, f);
        }
        assert_eq!(u.len(), y.len(), "zip3: length mismatch");
        assert_eq!(v.len(), y.len(), "zip3: length mismatch");
        self.on_blocks(y, |ys, span| {
            for ((yi, &ui), &vi) in ys.iter().zip(&u[span.clone()]).zip(&v[span]) {
                yi.set(f(yi.get(), ui, vi));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use javelin_sparse::lanes::DynLanes;
    use javelin_sparse::CooMatrix;

    fn skewed(n: usize) -> CsrMatrix<f64> {
        // One dense row amid sparse ones: its block holds few rows, and
        // the blocks around it many.
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
    fn planned(a: &CsrMatrix<f64>, x: &[f64], nthreads: usize) -> Vec<f64> {
        let mut y = vec![f64::NAN; a.nrows()];
        SpmvPlan::new(a, nthreads, 0).execute(a, x, &mut y);
        y
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn plan_is_bitwise_spmv_into() {
        let a = skewed(64);
        let x: Vec<f64> = (0..64).map(|i| 1.0 + (i % 7) as f64).collect();
        let mut y_ref = vec![0.0; 64];
        a.spmv_into(&x, &mut y_ref);
        for nthreads in [1, 2, 3] {
            let y = planned(&a, &x, nthreads);
            assert_eq!(bits(&y), bits(&y_ref), "nthreads={nthreads}");
        }
    }

    #[test]
    fn grid_row_blocks_are_pinned() {
        // The 14³ grid's blocks, balanced on rows + entries: each is
        // the first row boundary at or past its share of n + nnz.
        let a = javelin_synth::grid::convection_diffusion_3d(14, 14, 14, (30.0, 20.0, 10.0));
        assert_eq!((a.nrows(), a.nnz()), (2_744, 18_032));
        let bounds = |nthreads| SpmvPlan::new(&a, nthreads, 0).bounds;
        assert_eq!(bounds(1), [0, 2_744]);
        assert_eq!(bounds(2), [0, 1_372, 2_744]);
        assert_eq!(bounds(3), [0, 923, 1_822, 2_744]);
    }

    #[test]
    fn plan_handles_empty_rows_and_matrix() {
        let mut coo = CooMatrix::new(5, 5);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(4, 4, 2.0).unwrap();
        let a = coo.to_csr();
        assert_eq!(planned(&a, &[1.0; 5], 2), vec![1.0, 0.0, 0.0, 0.0, 2.0]);
        let empty = CooMatrix::<f64>::new(3, 3).to_csr();
        assert_eq!(planned(&empty, &[1.0; 3], 2), vec![0.0; 3]);
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
        // And identical to a plan built from scratch.
        let y_once = planned(&a, &x, 3);
        let bits0: Vec<u64> = y_once.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits0, bits1);
    }

    #[test]
    fn panel_execute_is_bitwise_stable_across_widths() {
        let a = skewed(70);
        let n = a.nrows();
        let plan = SpmvPlan::new(&a, 3, 16);
        let x: Vec<f64> = (0..n * 8).map(|i| (i as f64 * 0.11).cos()).collect();
        // Wide panel first, then narrow reuse, then wide again — every
        // column must match the single-RHS execute bitwise at every
        // step. Covers the width-1 row loop, the fixed (4, 8) and the
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

    /// The plan multiplies with its own copy of the pattern, so a debug
    /// build rejects a matrix of the planned shape whose pattern differs
    /// — here one entry moved to another column — at every thread count
    /// and through both execute entry points.
    #[cfg(debug_assertions)]
    #[test]
    fn moved_column_breaks_the_plan_contract_in_debug() {
        let a = skewed(12);
        let (rowptr, mut colidx) = (a.rowptr().to_vec(), a.colidx().to_vec());
        // Row 0 stores only its diagonal: move it one column right.
        assert_eq!(&colidx[rowptr[0]..rowptr[1]], [0]);
        colidx[0] = 1;
        let moved = CsrMatrix::try_from_parts(12, 12, rowptr, colidx, a.vals().to_vec()).unwrap();
        let x = vec![1.0; 12];
        for nthreads in [1, 2] {
            let plan = SpmvPlan::new(&a, nthreads, 0);
            let single = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                plan.execute(&moved, &x, &mut [0.0; 12])
            }));
            assert!(single.is_err(), "execute, nthreads={nthreads}");
            let panel = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut y = vec![0.0; 24];
                let xs = vec![1.0; 24];
                plan.execute_panel(&moved, Panel::new(&xs, 12, 2), PanelMut::new(&mut y, 12, 2))
            }));
            assert!(panel.is_err(), "execute_panel, nthreads={nthreads}");
            // The planned matrix itself still multiplies.
            plan.execute(&a, &x, &mut [0.0; 12]);
        }
    }

    /// The values core multiplies the planned pattern with the values it
    /// is handed, not the planned matrix's: bitwise `spmv_into` on the
    /// matrix of those values at 1 and 2 threads and widths 1, 3 and 8.
    /// A value count other than the planned nnz panics through every
    /// entry point, in release and debug builds alike.
    #[test]
    fn values_core_is_bitwise_spmv_into_and_checks_the_value_count() {
        let a = skewed(40);
        let n = a.nrows();
        let vals: Vec<f64> = (0..a.nnz()).map(|e| 1.5 - (e % 9) as f64 * 0.37).collect();
        let (rowptr, colidx) = (a.rowptr().to_vec(), a.colidx().to_vec());
        let b = CsrMatrix::try_from_parts(n, n, rowptr, colidx, vals.clone()).unwrap();
        let x: Vec<f64> = (0..n * 8).map(|i| (i as f64 * 0.29).cos()).collect();
        // Same shape, other entry count: a diagonal.
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0).unwrap();
        }
        let other = coo.to_csr();
        for nthreads in [1, 2] {
            let plan = SpmvPlan::new(&a, nthreads, 0);
            for k in [1, 3, 8] {
                let mut y = vec![f64::NAN; n * k];
                let xs = Panel::new(&x[..n * k], n, k);
                plan.execute_vals(&vals, xs, PanelMut::new(&mut y, n, k));
                for c in 0..k {
                    let mut want = vec![0.0; n];
                    b.spmv_into(&x[c * n..(c + 1) * n], &mut want);
                    let got = &y[c * n..(c + 1) * n];
                    assert_eq!(bits(got), bits(&want), "nthreads={nthreads} k={k} col={c}");
                }
            }
            let panics =
                |f: &dyn Fn()| std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err();
            for len in [a.nnz() - 1, a.nnz() + 1] {
                assert!(
                    panics(&|| {
                        let (xs, mut y) = (Panel::new(&x[..n], n, 1), vec![0.0; n]);
                        plan.execute_vals(&vec![1.0; len], xs, PanelMut::new(&mut y, n, 1))
                    }),
                    "execute_vals, {len} values, nthreads={nthreads}"
                );
            }
            assert!(
                panics(&|| plan.execute(&other, &x[..n], &mut vec![0.0; n])),
                "execute, nthreads={nthreads}"
            );
            assert!(
                panics(&|| {
                    let (xs, mut y) = (Panel::new(&x[..n * 3], n, 3), vec![0.0; n * 3]);
                    plan.execute_panel(&other, xs, PanelMut::new(&mut y, n, 3))
                }),
                "execute_panel, nthreads={nthreads}"
            );
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
        let plan = SpmvPlan::new(&a, 1, 16);
        plan.execute_panel(&a, Panel::new(&x, n, 0), PanelMut::new(&mut y, n, 3));
    }

    #[test]
    fn dyn_lanes_match_dispatched_kernels_bitwise() {
        // The DynLanes instantiation of the lane core must be
        // bit-identical to whatever the dispatch table picks: the row
        // loop at width 1, the monomorphized kernels at 4 and 8.
        let a = skewed(66);
        let n = a.nrows();
        for k in [1usize, 4, 5, 8] {
            let x: Vec<f64> = (0..n * k).map(|i| (i as f64 * 0.23).sin()).collect();
            let plan = SpmvPlan::new(&a, 2, 16);
            let mut y_fixed = vec![0.0; n * k];
            plan.execute_panel(&a, Panel::new(&x, n, k), PanelMut::new(&mut y_fixed, n, k));
            let mut y_dyn = vec![0.0; n * k];
            plan.execute_lanes(
                DynLanes(k),
                a.vals(),
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
        /// single-RHS executes across widths and thread counts,
        /// including empty rows/matrices.
        #[test]
        fn panel_spmv_bitwise_matches_looped_single_rhs(
            a in arb_matrix(40),
            k_idx in 0usize..7,
            nthreads_idx in 0usize..4,
        ) {
            // The row loop (1), fixed widths (4, 8) and DynLanes widths
            // (2, 3, 5, 7).
            let k = [1usize, 2, 3, 4, 5, 7, 8][k_idx];
            let nthreads = [1usize, 2, 3, 8][nthreads_idx];
            let n = a.nrows();
            let x: Vec<f64> = (0..n * k)
                .map(|i| 0.25 + ((i * 7) % 11) as f64 * 0.3)
                .collect();
            let plan = SpmvPlan::new(&a, nthreads, 0);
            let mut y = vec![f64::NAN; n * k];
            plan.execute_panel(&a, Panel::new(&x, n, k), PanelMut::new(&mut y, n, k));
            for c in 0..k {
                let mut yc = vec![f64::NAN; n];
                plan.execute(&a, &x[c * n..(c + 1) * n], &mut yc);
                let pb: Vec<u64> = y[c * n..(c + 1) * n].iter().map(|v| v.to_bits()).collect();
                let sb: Vec<u64> = yc.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(pb, sb, "k={} nthreads={} col={}", k, nthreads, c);
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
                let plan = SpmvPlan::new(&a, nthreads, 64);
                for k in [1usize, 2, 3, 4, 5, 7, 8] {
                    let mut y = vec![f64::NAN; n * k];
                    plan.execute_panel(&a, Panel::new(&x[..n * k], n, k), PanelMut::new(&mut y, n, k));
                    let got: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
                    let exp: Vec<u64> = want[..n * k].iter().map(|v| v.to_bits()).collect();
                    prop_assert_eq!(got, exp, "nthreads={} k={}", nthreads, k);
                }
            }
        }

        /// Planned execution is bitwise the serial kernel at every
        /// thread count, including matrices with empty rows and fully
        /// empty matrices.
        #[test]
        fn planned_spmv_matches_serial(a in arb_matrix(40)) {
            let n = a.nrows();
            let x: Vec<f64> = (0..n).map(|i| 0.25 + (i % 5) as f64).collect();
            let mut y_ref = vec![0.0; n];
            a.spmv_into(&x, &mut y_ref);
            let want: Vec<u64> = y_ref.iter().map(|v| v.to_bits()).collect();
            for nthreads in [1usize, 2, 3, 8] {
                let plan = SpmvPlan::new(&a, nthreads, 0);
                let mut y = vec![f64::NAN; n];
                plan.execute(&a, &x, &mut y);
                let got: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(got, want.clone(), "nthreads={}", nthreads);
            }
        }

        /// Every team vector pass is bitwise its `vecops` body at 1, 2, 3
        /// and 8 threads, at lengths one below, at and one above 0–9
        /// whole blocks; a split dot reads only its own slots of a
        /// longer slot buffer of stale NaNs.
        #[test]
        fn team_vector_passes_are_bitwise_their_vecops_bodies(
            blocks_idx in 0usize..7,
            offset in 0usize..3,
            seed in 0u64..1_000,
        ) {
            let blocks = [0usize, 1, 2, 3, 4, 8, 9][blocks_idx];
            let n = (blocks * DOT_BLOCK + offset).saturating_sub(1);
            let vector = |salt: u64| -> Vec<f64> {
                let mut s = seed * 3 + salt;
                (0..n)
                    .map(|_| {
                        s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                        (s >> 11) as f64 / (1u64 << 52) as f64 - 1.0
                    })
                    .collect()
            };
            let (x, u, v) = (vector(0), vector(1), vector(2));
            let map = |y: f64| y * 0.37 - 1.0;
            let zip = |y: f64, x: f64| y + -0.61 * x;
            let zip3 = |p: f64, r: f64, q: f64| r + 0.3 * (p - 1.7 * q);
            let want_dot = vecops::dot(&x, &u).to_bits();
            let mut want_map = x.clone();
            vecops::map(&mut want_map, map);
            let mut want_zip = x.clone();
            vecops::zip(&mut want_zip, &u, zip);
            let mut want_zip3 = x.clone();
            vecops::zip3(&mut want_zip3, &u, &v, zip3);
            let a = CooMatrix::<f64>::new(1, 1).to_csr();
            for nthreads in [1usize, 2, 3, 8] {
                let plan = SpmvPlan::new(&a, nthreads, 0);
                let mut sums = vec![f64::NAN; vecops::n_blocks(n) + 3];
                let got = plan.dot(&x, &u, &mut sums).to_bits();
                prop_assert_eq!(got, want_dot, "dot n={} nthreads={}", n, nthreads);
                let mut y = x.clone();
                plan.map(&mut y, map);
                prop_assert_eq!(bits(&y), bits(&want_map), "map n={} nthreads={}", n, nthreads);
                let mut y = x.clone();
                plan.zip(&mut y, &u, zip);
                prop_assert_eq!(bits(&y), bits(&want_zip), "zip n={} nthreads={}", n, nthreads);
                let mut y = x.clone();
                plan.zip3(&mut y, &u, &v, zip3);
                prop_assert_eq!(bits(&y), bits(&want_zip3), "zip3 n={} nthreads={}", n, nthreads);
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|v| v.to_bits()).collect()
    }
}
