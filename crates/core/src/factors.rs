//! Numeric factor objects — the value-carrying half of the two-phase
//! symbolic/numeric API (see [`crate::symbolic_ilu`]) — plus the
//! one-shot [`factorize`] entry.

use crate::batch_factor::FactorsBatch;
use crate::level::P2PSchedule;
use crate::options::SolveEngine;
use crate::precond::{ApplyScratch, EnginePinned};
use crate::stats::FactorStats;
use crate::symbolic_ilu::{Sources, SymbolicIlu};
use javelin_sparse::{CsrMatrix, Panel, PanelMut, Scalar, SparseError};
use std::sync::OnceLock;

/// Everything the threaded triangular-solve engine needs, precomputed
/// once at analysis time — the co-design the paper stresses: the factor
/// layout *is* the solve layout. Its point-to-point schedules cover the
/// upper stage only; the trailing rows run Even-Rows over their
/// sub-corner prefixes, then a column-split finish through the corner.
#[derive(Debug)]
pub struct SolvePlan {
    /// Rows in the upper (point-to-point) stage.
    pub n_upper: usize,
    /// Level boundaries of the upper stage (new row indices).
    pub upper_level_ptr: Vec<usize>,
    /// Forward p2p schedule (execution index = row index).
    pub fwd: P2PSchedule,
    /// Backward p2p schedule over upper-stage rows (execution indices
    /// mapped through [`SolvePlan::bwd_row_of_task`]).
    pub bwd: P2PSchedule,
    /// Row solved by each backward execution index.
    pub bwd_row_of_task: Vec<usize>,
    /// Level boundaries of the backward upper-stage schedule (execution
    /// indices) — kept so [`SymbolicIlu::p2p_schedules`] can rebuild the
    /// schedule for any thread count.
    pub bwd_level_ptr: Vec<usize>,
    /// Per trailing row: entry range `(k_lo, k_hi)` of its sub-corner
    /// prefix (columns `< n_upper`) inside the LU arrays.
    pub block_rows: Vec<(usize, usize)>,
}

impl SolvePlan {
    /// Bytes of the plan's arrays, schedules included: `len × size_of`
    /// each.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&self.upper_level_ptr[..])
            + self.fwd.heap_bytes()
            + self.bwd.heap_bytes()
            + size_of_val(&self.bwd_row_of_task[..])
            + size_of_val(&self.bwd_level_ptr[..])
            + size_of_val(&self.block_rows[..])
    }
}

/// An incomplete LU factorization `P·A·Pᵀ ≈ L·U` packaged for fast
/// repeated triangular solves: the crate's one factor storage,
/// [`FactorsBatch`], at width 1, plus the scalar error contract
/// (a failed numeric phase is an `Err`, not a per-scenario status).
///
/// What it stores is the factor *values* — a numeric work buffer and
/// the committed values solves read, `nnz_lu` entries each — and a
/// [`SymbolicIlu`] handle: the pattern-dependent execution state shared
/// by every factor object of one analysis. That holds the LU pattern
/// (`rowptr` / `colidx` / diagonal positions, never copied per factor),
/// the [`SolvePlan`] (schedules, the trailing rows' sub-corner ranges),
/// the walks' progress counters and barrier, and the persistent
/// [`WorkerTeam`] its regions run on. Both engines solve in the caller's
/// [`ApplyScratch`] buffer, so after the numeric phase returns, every
/// solve through a warmed scratch runs with zero heap allocations and
/// zero thread spawns. The counters are mutex-guarded: concurrent
/// threaded applies (and refactors) of one analysis serialize instead
/// of racing. The Serial engine takes no lock, so concurrent Serial
/// applies run side by side.
///
/// [`IluFactors::lu`] is a diagnostic CSR copy of the factor, built
/// lazily on first call and dropped by the next refactor; solves never
/// read it.
///
/// For time-stepping workloads, [`IluFactors::refactor`] redoes only
/// the numeric phase in place when the values change but the pattern
/// does not.
///
/// [`WorkerTeam`]: crate::sync::WorkerTeam
pub struct IluFactors<T> {
    batch: FactorsBatch<T>,
    /// The diagnostic `usize` copy [`IluFactors::lu`] and
    /// [`IluFactors::diag_positions`] return, built on first call.
    lu: OnceLock<(CsrMatrix<T>, Vec<usize>)>,
}

/// Runs the full pipeline in one call: symbolic analysis plus numeric
/// factorization (see crate docs). Prefer the explicit two-phase form —
/// [`SymbolicIlu::analyze`] then [`SymbolicIlu::factor`] — whenever the
/// same pattern is factored more than once.
///
/// # Errors
/// Everything [`SymbolicIlu::analyze`] and [`SymbolicIlu::factor`] can
/// return.
pub fn factorize<T: Scalar>(
    a: &CsrMatrix<T>,
    opts: &crate::options::IluOptions,
) -> Result<IluFactors<T>, SparseError> {
    SymbolicIlu::analyze(a, opts)?.factor(a)
}

impl<T: Scalar> IluFactors<T> {
    /// The scalar view of a width-1 batch (numeric-phase internal
    /// constructor).
    pub(crate) fn from_batch(batch: FactorsBatch<T>) -> Self {
        debug_assert_eq!(batch.k(), 1, "IluFactors wraps a width-1 batch");
        IluFactors {
            batch,
            lu: OnceLock::new(),
        }
    }

    /// The symbolic analysis these factors were produced from. Cloning
    /// the handle is cheap and shares the plans, worker team and
    /// counters.
    pub fn symbolic(&self) -> &SymbolicIlu<T> {
        &self.batch.sym
    }

    /// Redoes the **numeric phase only**, in place, for a matrix with
    /// exactly the analyzed sparsity pattern but new values — the
    /// time-stepping entry point. The symbolic analysis, level
    /// schedules, trisolve/spmv plans, permutation, worker team and
    /// value buffers are reused verbatim: in the steady state this
    /// performs **zero heap allocations and zero thread spawns** (the
    /// planned engines run as regions on the persistent team).
    ///
    /// The resulting factor values are **bit-identical** to a fresh
    /// [`SymbolicIlu::factor`] of the same matrix — the engines'
    /// determinism contract, enforced by the test suite.
    ///
    /// # Errors
    /// * [`SparseError::PatternMismatch`] when `a`'s pattern differs
    ///   from the analyzed one (the factors are left untouched);
    /// * [`SparseError::ZeroPivot`] under
    ///   [`crate::ZeroPivotPolicy::Error`] when a pivot collapses — the
    ///   factor values and statistics then keep the previous successful
    ///   factorization, so the old preconditioner stays usable.
    pub fn refactor(&mut self, a: &CsrMatrix<T>) -> Result<(), SparseError> {
        self.refactor_scalar(Sources::Matrices(&[a]), None)
    }

    /// Like [`IluFactors::refactor`], but unconditionally boosts the
    /// diagonal by `relative_shift · max|aᵢᵢ|` before the numeric sweep,
    /// trading a little preconditioner accuracy for stability — the
    /// engine behind breakdown-aware solve retries, where the unshifted
    /// factorization completed but produced factors too ill-conditioned
    /// to apply. It checks `a`'s whole pattern against the analyzed one,
    /// then runs [`IluFactors::refactor_vals_with_shift`] on `a`'s
    /// values.
    ///
    /// # Errors
    /// See [`IluFactors::refactor`]; on a pattern mismatch nothing is
    /// touched.
    pub fn refactor_with_shift(
        &mut self,
        a: &CsrMatrix<T>,
        relative_shift: f64,
    ) -> Result<(), SparseError> {
        self.symbolic().check_pattern(a)?;
        self.refactor_vals_with_shift(a.vals(), relative_shift)
    }

    /// [`IluFactors::refactor_with_shift`] from `A`'s values alone: `vals`
    /// holds one value per entry of the analyzed pattern, in its order —
    /// values whose pattern the caller has checked (a solve's breakdown
    /// retry refactors from the values its factors came from). Same
    /// zero-allocation planned path as `refactor`; the applied absolute
    /// shift lands in `stats().diag_shift`.
    ///
    /// # Errors
    /// * [`SparseError::DimensionMismatch`] when `vals` does not hold one
    ///   value per analyzed entry (nothing is touched);
    /// * [`SparseError::ZeroPivot`] when a pivot still collapses; the
    ///   previous factorization is kept.
    pub fn refactor_vals_with_shift(
        &mut self,
        vals: &[T],
        relative_shift: f64,
    ) -> Result<(), SparseError> {
        self.refactor_scalar(Sources::Values(&[vals]), Some(relative_shift))
    }

    /// The batch's refactor at width 1, its one status surfaced as the
    /// result.
    fn refactor_scalar(
        &mut self,
        sources: Sources<'_, T>,
        shift: Option<f64>,
    ) -> Result<(), SparseError> {
        self.batch.refactor_lanes(sources, shift)?;
        self.lu.take();
        self.batch.statuses()[0].clone()
    }

    /// The combined LU factor (unit L diagonal implicit) in the
    /// permuted ordering — a diagnostic copy, built on first call from
    /// the analysis's pattern (widened to `usize`) and the committed
    /// values and dropped by the next refactor.
    pub fn lu(&self) -> &CsrMatrix<T> {
        &self.lu_copy().0
    }

    /// Diagonal entry positions within the LU arrays: part of the
    /// diagnostic copy [`IluFactors::lu`] builds.
    pub fn diag_positions(&self) -> &[usize] {
        &self.lu_copy().1
    }

    /// The `usize` copy behind [`IluFactors::lu`] and
    /// [`IluFactors::diag_positions`], built on first call; solves
    /// stream the analysis's `u32` pattern and never read it.
    fn lu_copy(&self) -> &(CsrMatrix<T>, Vec<usize>) {
        self.lu.get_or_init(|| {
            let (n, lu) = (self.batch.sym.n(), &self.batch.sym.core().lu);
            let wide = |v: &[u32]| v.iter().map(|&i| i as usize).collect::<Vec<usize>>();
            let vals = self.batch.committed.clone();
            let m = CsrMatrix::from_raw_unchecked(n, n, wide(&lu.rowptr), wide(&lu.colidx), vals);
            (m, wide(&lu.diag_pos))
        })
    }

    /// Factorization statistics.
    pub fn stats(&self) -> &FactorStats {
        self.batch.stats(0)
    }

    /// The engine used when none is named: LS+Lower when threaded and
    /// the machine actually has the cores, serial otherwise — including
    /// the oversubscribed case (`nthreads` above the process's core
    /// count, [`crate::sync::affinity::n_cores`], at plan time), where
    /// the point-to-point spin waits would churn against each other on
    /// shared cores. Pinning does not change the answer: the count is
    /// recorded before any team pins its caller.
    pub fn default_engine(&self) -> SolveEngine {
        self.batch.sym.default_engine()
    }

    /// A [`Preconditioner`](crate::Preconditioner) over these factors
    /// that always applies through `engine` instead of
    /// [`IluFactors::default_engine`].
    pub fn with_engine(&self, engine: SolveEngine) -> EnginePinned<'_, T> {
        self.batch.precond(engine)
    }

    /// Solves `A·X ≈ B` for an `n × k` panel of right-hand sides through
    /// the crate's one apply pipeline (`trisolve::apply_panel`, one
    /// factor under every column): the engine retires all `k` columns
    /// in one schedule walk (Serial: one stream over the factor),
    /// reading `B` and writing `x` through the permutation (the Serial
    /// engine at `k > 4` gathers and scatters in one pass each
    /// instead). Widths `k ∈ {1, 4, 8}` run the monomorphized
    /// fixed-lane kernels, every other width the bit-identical dynamic
    /// fallback.
    ///
    /// Both engines work in `scratch`'s buffer, grown to `n·k` entries
    /// when shorter and never shrunk. The Serial engine takes no lock;
    /// the threaded engine holds the analysis's counter lock for the
    /// whole apply. With `scratch` warmed at this width (e.g. by
    /// `SolverWorkspace::reserve`) the whole solve is allocation-free.
    ///
    /// Column `c` of the result is bit-identical to a single-RHS solve
    /// of column `c`, through any engine; a vector is a one-column
    /// panel ([`Panel::from_col`]).
    ///
    /// This is the one fallible apply. Callers whose shapes are right by
    /// construction use the [`Preconditioner`](crate::Preconditioner)
    /// trait instead (`f.apply(..)`, `f.with_engine(e).apply_with(..)`),
    /// which runs this same pipeline and panics on a mismatch.
    ///
    /// # Errors
    /// [`SparseError::DimensionMismatch`] on shape mismatches.
    pub fn solve_panel_with_buffer(
        &self,
        engine: SolveEngine,
        scratch: &mut ApplyScratch<T>,
        b: Panel<'_, T>,
        x: PanelMut<'_, T>,
    ) -> Result<(), SparseError> {
        self.batch.solve(engine, 0, scratch, b, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{IluOptions, ZeroPivotPolicy};
    use crate::Preconditioner;
    use javelin_sparse::lanes::DynLanes;
    use javelin_sparse::pattern::LevelPattern;
    use javelin_sparse::CooMatrix;

    fn laplace_2d(nx: usize, ny: usize) -> CsrMatrix<f64> {
        let n = nx * ny;
        let idx = |i: usize, j: usize| i * ny + j;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..nx {
            for j in 0..ny {
                let r = idx(i, j);
                coo.push(r, r, 4.0).unwrap();
                if i + 1 < nx {
                    coo.push(r, idx(i + 1, j), -1.0).unwrap();
                    coo.push(idx(i + 1, j), r, -1.0).unwrap();
                }
                if j + 1 < ny {
                    coo.push(r, idx(i, j + 1), -1.0).unwrap();
                    coo.push(idx(i, j + 1), r, -1.0).unwrap();
                }
            }
        }
        coo.to_csr()
    }

    /// Irregular nonsymmetric-pattern matrix with a structural diagonal.
    fn irregular(n: usize) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 8.0 + i as f64 * 0.01).unwrap();
            if i >= 1 {
                coo.push(i, i - 1, -1.0).unwrap();
            }
            if i >= 7 {
                coo.push(i, i - 7, -0.5).unwrap();
            }
            if i + 3 < n {
                coo.push(i, i + 3, -0.25).unwrap();
            }
            if i % 5 == 0 && i + 11 < n {
                coo.push(i, i + 11, -0.125).unwrap();
            }
        }
        coo.to_csr()
    }

    /// Same pattern as the input, deterministically different values.
    fn revalue(a: &CsrMatrix<f64>, seed: f64) -> CsrMatrix<f64> {
        javelin_synth::util::revalue(a, seed, 0.01)
    }

    /// `javelin_baseline::product_error_on_pattern` of `f` against `a`.
    pub(super) fn product_error(f: &IluFactors<f64>, a: &CsrMatrix<f64>) -> f64 {
        let pa = a.permute_sym(f.symbolic().perm()).unwrap();
        javelin_baseline::product_error_on_pattern(f.lu(), f.diag_positions(), &pa)
    }

    #[test]
    fn ilu0_product_identity_on_pattern() {
        let a = laplace_2d(8, 8);
        let f = compute_factors(&a, &IluOptions::default());
        assert!(product_error(&f, &a) < 1e-12);
    }

    fn compute_factors(a: &CsrMatrix<f64>, o: &IluOptions) -> IluFactors<f64> {
        factorize(a, o).expect("factorization succeeds")
    }

    #[test]
    fn refactor_is_bit_identical_to_fresh_factor() {
        // The tentpole contract: refactor(a2) == analyze-once,
        // factor(a2), at every thread count.
        for a in [laplace_2d(9, 7), irregular(150)] {
            for nthreads in [1usize, 2, 4] {
                let mut opts = IluOptions::ilu0(nthreads);
                opts.split.min_rows_per_level = 8;
                let sym = SymbolicIlu::analyze(&a, &opts).unwrap();
                assert!(sym.stats().n_lower_rows > 0, "nthreads={nthreads}");
                let mut f = sym.factor(&a).unwrap();
                let a2 = revalue(&a, 0.37);
                let fresh = sym.factor(&a2).unwrap();
                f.refactor(&a2).unwrap();
                let rb: Vec<u64> = f.lu().vals().iter().map(|v| v.to_bits()).collect();
                let fb: Vec<u64> = fresh.lu().vals().iter().map(|v| v.to_bits()).collect();
                assert_eq!(rb, fb, "nthreads={nthreads}");
            }
        }
    }

    #[test]
    fn refactor_with_dropping_and_milu_matches_fresh() {
        let a = irregular(120);
        let opts = IluOptions::ilu0(3)
            .with_fill(1)
            .with_drop_tol(0.02)
            .with_milu(1.0);
        let sym = SymbolicIlu::analyze(&a, &opts).unwrap();
        let mut f = sym.factor(&a).unwrap();
        let a2 = revalue(&a, 0.71);
        let fresh = sym.factor(&a2).unwrap();
        f.refactor(&a2).unwrap();
        assert_eq!(
            f.lu()
                .vals()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            fresh
                .lu()
                .vals()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
        assert!(f.stats().dropped_entries > 0, "τ should drop entries");
        assert_eq!(f.stats().dropped_entries, fresh.stats().dropped_entries);
        assert_eq!(f.stats().replaced_pivots, fresh.stats().replaced_pivots);
    }

    #[test]
    fn refactor_rejects_pattern_mismatch_and_leaves_factors_intact() {
        let a = laplace_2d(8, 8);
        let sym = SymbolicIlu::analyze(&a, &IluOptions::ilu0(2)).unwrap();
        let mut f = sym.factor(&a).unwrap();
        let before: Vec<u64> = f.lu().vals().iter().map(|v| v.to_bits()).collect();
        // Different dimension.
        let small = laplace_2d(4, 4);
        assert!(matches!(
            f.refactor(&small),
            Err(SparseError::PatternMismatch(_))
        ));
        // Same dimension, different pattern.
        let other = irregular(64);
        assert!(matches!(
            f.refactor(&other),
            Err(SparseError::PatternMismatch(_))
        ));
        // And factor() checks too.
        assert!(matches!(
            sym.factor(&other),
            Err(SparseError::PatternMismatch(_))
        ));
        let after: Vec<u64> = f.lu().vals().iter().map(|v| v.to_bits()).collect();
        assert_eq!(before, after, "failed refactor must not corrupt factors");
    }

    #[test]
    fn refactor_then_solve_matches_fresh_solve_bitwise() {
        let a = irregular(150);
        let n = a.nrows();
        let mut opts = IluOptions::ilu0(3);
        opts.split.min_rows_per_level = 8;
        let sym = SymbolicIlu::analyze(&a, &opts).unwrap();
        assert!(sym.stats().n_lower_rows > 0);
        let mut f = sym.factor(&a).unwrap();
        let a2 = revalue(&a, 1.3);
        f.refactor(&a2).unwrap();
        let fresh = compute_factors(&a2, &opts);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).sin()).collect();
        for engine in [SolveEngine::Serial, SolveEngine::PointToPointLower] {
            let mut xr = vec![0.0; n];
            let mut xf = vec![0.0; n];
            f.with_engine(engine).apply(&b, &mut xr);
            fresh.with_engine(engine).apply(&b, &mut xf);
            let rb: Vec<u64> = xr.iter().map(|v| v.to_bits()).collect();
            let fb: Vec<u64> = xf.iter().map(|v| v.to_bits()).collect();
            assert_eq!(rb, fb, "engine={engine}");
        }
    }

    #[test]
    fn symbolic_handle_is_shared_and_cheap_to_clone() {
        let a = laplace_2d(7, 7);
        let sym = SymbolicIlu::analyze(&a, &IluOptions::ilu0(2)).unwrap();
        let f1 = sym.factor(&a).unwrap();
        let f2 = sym.factor(&revalue(&a, 0.5)).unwrap();
        // Same plan object behind both factor objects.
        assert!(std::ptr::eq(f1.symbolic().plan(), f2.symbolic().plan()));
        assert!(std::ptr::eq(f1.symbolic().plan(), sym.plan()));
        assert_eq!(sym.n(), 49);
        assert_eq!(sym.nnz(), a.nnz());
        assert_eq!(sym.nthreads(), 2);
        assert!(!format!("{sym:?}").is_empty());
    }

    #[test]
    fn parallel_matches_serial_bitwise_all_engines() {
        for a in [laplace_2d(9, 7), irregular(120)] {
            let serial = compute_factors(&a, &IluOptions::default());
            for nthreads in [2, 4] {
                let mut opts = IluOptions::ilu0(nthreads);
                // Aggressive split so the lower stage actually runs.
                opts.split.min_rows_per_level = 8;
                let f = compute_factors(&a, &opts);
                assert!(f.stats().n_lower_rows > 0, "nthreads={nthreads}");
                // Same permutation => directly comparable values.
                assert_eq!(serial_perm(&serial), serial_perm(&f));
                let sb: Vec<u64> = serial.lu().vals().iter().map(|v| v.to_bits()).collect();
                let fb: Vec<u64> = f.lu().vals().iter().map(|v| v.to_bits()).collect();
                assert_eq!(sb, fb, "nthreads={nthreads}");
            }
        }
    }

    fn serial_perm(f: &IluFactors<f64>) -> Vec<usize> {
        f.symbolic().perm().new_to_old().to_vec()
    }

    #[test]
    fn solve_engines_agree_with_serial() {
        let a = irregular(150);
        let mut opts = IluOptions::ilu0(3);
        opts.split.min_rows_per_level = 8;
        let f = compute_factors(&a, &opts);
        assert!(f.stats().n_lower_rows > 0);
        let b: Vec<f64> = (0..150).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut x_ref = vec![0.0; 150];
        f.with_engine(SolveEngine::Serial).apply(&b, &mut x_ref);
        let mut x = vec![0.0; 150];
        f.with_engine(SolveEngine::PointToPointLower)
            .apply(&b, &mut x);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&x), bits(&x_ref));
    }

    #[test]
    fn workspace_reuse_is_bitwise_identical_to_fresh_path() {
        // Repeated solves through one factorization reuse its analysis's
        // progress counters and barrier; a second
        // factorization's first solve is the fresh-allocation path.
        // Both must produce identical bits.
        let a = irregular(150);
        let b: Vec<f64> = (0..150).map(|i| (i as f64 * 0.31).cos()).collect();
        let mut opts = IluOptions::ilu0(3);
        opts.split.min_rows_per_level = 8;
        let reused = compute_factors(&a, &opts);
        assert!(reused.stats().n_lower_rows > 0);
        let fresh = compute_factors(&a, &opts);
        let engine = SolveEngine::PointToPointLower;
        let fresh_bits = {
            let mut x = vec![0.0; 150];
            fresh.with_engine(engine).apply(&b, &mut x);
            x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        for rep in 0..4 {
            let mut x = vec![0.0; 150];
            reused.with_engine(engine).apply(&b, &mut x);
            let bits: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, fresh_bits, "rep={rep}");
        }
    }

    #[test]
    fn panel_solve_matches_single_rhs_bitwise_all_engines() {
        // One panel solve retires k columns under one schedule walk (on
        // the Serial engine: one factor stream); every column must carry
        // exactly the bits of a single-RHS solve of that column, for
        // both engines, every thread count and width — fixed-lane widths
        // (1, 4, 8), DynLanes widths (2, 3, 5, 7) and 9, which spans two
        // `LANE_CHUNK` blocks. Wide-first, so 8 → 1 narrows against the
        // already-grown scratch. On the Serial engine the single-RHS
        // solve folds the permutation into its sweeps while panels
        // wider than four gather and scatter, so the permutation must
        // be a real one for the two paths to differ: the rows are
        // scattered first, or the chain's level order is the identity.
        let rows = (0..150).map(|i| i * 7 % 150).collect();
        let scatter = javelin_sparse::Perm::from_new_to_old(rows).unwrap();
        let a = irregular(150).permute_sym(&scatter).unwrap();
        let n = a.nrows();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for nthreads in [1usize, 2, 3] {
            let mut opts = IluOptions::ilu0(nthreads);
            opts.split.min_rows_per_level = 8;
            let f = compute_factors(&a, &opts);
            assert!(!f.symbolic().perm().is_identity(), "threads={nthreads}");
            assert!(f.stats().n_lower_rows > 0, "threads={nthreads}");
            for k in [8usize, 1, 2, 3, 4, 5, 7, 9] {
                let b: Vec<f64> = (0..n * k)
                    .map(|i| ((i * 29 % 41) as f64 - 20.0) * 0.21)
                    .collect();
                for engine in [SolveEngine::Serial, SolveEngine::PointToPointLower] {
                    let at = format!("engine={engine} threads={nthreads} k={k}");
                    let mut xp = vec![0.0; n * k];
                    f.with_engine(engine).apply_panel_with(
                        &mut ApplyScratch::new(),
                        Panel::new(&b, n, k),
                        PanelMut::new(&mut xp, n, k),
                    );
                    for c in 0..k {
                        let mut x = vec![0.0; n];
                        f.with_engine(engine).apply(&b[c * n..(c + 1) * n], &mut x);
                        assert_eq!(bits(&xp[c * n..(c + 1) * n]), bits(&x), "{at} col={c}");
                    }
                    // The dynamic-width lane fallback is bit-identical to
                    // whatever the dispatch table picked.
                    let mut x_dyn = vec![0.0; n * k];
                    crate::trisolve::apply_lanes(
                        f.symbolic().core(),
                        crate::trisolve::view::Shared(f.lu().vals()),
                        DynLanes(k),
                        engine,
                        &mut ApplyScratch::new(),
                        Panel::new(&b, n, k),
                        PanelMut::new(&mut x_dyn, n, k),
                    );
                    assert_eq!(bits(&xp), bits(&x_dyn), "fixed vs dyn lanes {at}");
                }
            }
        }
    }

    #[test]
    fn panel_solve_reuses_buffer_and_rejects_bad_shapes() {
        let a = laplace_2d(9, 9);
        let n = a.nrows();
        let f = compute_factors(&a, &IluOptions::ilu0(2));
        let b: Vec<f64> = (0..n * 2).map(|i| (i as f64 * 0.13).sin()).collect();
        let mut x = vec![0.0; n * 2];
        for engine in [SolveEngine::Serial, SolveEngine::PointToPointLower] {
            // Both engines work in the caller's buffer, grown to n·k.
            let mut scratch = ApplyScratch::new();
            f.solve_panel_with_buffer(
                engine,
                &mut scratch,
                Panel::new(&b, n, 2),
                PanelMut::new(&mut x, n, 2),
            )
            .unwrap();
            assert_eq!(scratch.buf.len(), n * 2, "{engine}");
            // Narrower reuse keeps the wide buffer (grow-only).
            f.solve_panel_with_buffer(
                engine,
                &mut scratch,
                Panel::new(&b[..n], n, 1),
                PanelMut::new(&mut x[..n], n, 1),
            )
            .unwrap();
            assert_eq!(scratch.buf.len(), n * 2, "{engine}");
        }
        // Shape mismatches are reported, not panicked.
        let engine = f.default_engine();
        let short = vec![0.0; n];
        let mut xs = vec![0.0; n * 2];
        assert!(f
            .solve_panel_with_buffer(
                engine,
                &mut ApplyScratch::new(),
                Panel::new(&short, n, 1),
                PanelMut::new(&mut xs, n, 2)
            )
            .is_err());
        // Zero-width panels are a no-op.
        let empty: [f64; 0] = [];
        let mut empty_x: [f64; 0] = [];
        f.solve_panel_with_buffer(
            engine,
            &mut ApplyScratch::new(),
            Panel::new(&empty, n, 0),
            PanelMut::new(&mut empty_x, n, 0),
        )
        .unwrap();
    }

    #[test]
    fn shared_team_serves_many_factorizations() {
        use crate::sync::WorkerTeam;
        use std::sync::Arc;
        let a = irregular(140);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 13 % 29) as f64) - 14.0).collect();
        let mut owned = IluOptions::ilu0(3);
        owned.split.min_rows_per_level = 8;
        let team = Arc::new(WorkerTeam::new(3));
        let shared = owned.clone().with_shared_team(Arc::clone(&team));
        let f_owned = compute_factors(&a, &owned);
        assert!(f_owned.stats().n_lower_rows > 0);
        let f1 = compute_factors(&a, &shared);
        let f2 = compute_factors(&a, &shared.clone());
        let engine = SolveEngine::PointToPointLower;
        let mut x0 = vec![0.0; n];
        let mut x1 = vec![0.0; n];
        let mut x2 = vec![0.0; n];
        f_owned.with_engine(engine).apply(&b, &mut x0);
        f1.with_engine(engine).apply(&b, &mut x1);
        f2.with_engine(engine).apply(&b, &mut x2);
        let b0: Vec<u64> = x0.iter().map(|v| v.to_bits()).collect();
        let b1: Vec<u64> = x1.iter().map(|v| v.to_bits()).collect();
        let b2: Vec<u64> = x2.iter().map(|v| v.to_bits()).collect();
        assert_eq!(b0, b1);
        assert_eq!(b1, b2);
        // Both factorizations hold the same team, not copies.
        assert!(Arc::strong_count(&team) >= 3);
        // A team whose participant count disagrees with nthreads is
        // rejected up front.
        let mut bad = owned.clone();
        bad.shared_team = Some(Arc::new(WorkerTeam::new(2)));
        assert!(matches!(
            factorize(&a, &bad),
            Err(SparseError::DimensionMismatch(_))
        ));
    }

    #[test]
    fn oversubscription_falls_back_to_serial_default_engine() {
        let cores = crate::sync::affinity::n_cores();
        let a = irregular(100);
        let n = a.nrows();
        // Requesting more threads than the machine has cores must flip
        // the unnamed-engine path to serial substitution at plan time.
        let f = compute_factors(&a, &IluOptions::ilu0(cores + 1));
        assert_eq!(f.default_engine(), SolveEngine::Serial);
        // The default path still solves correctly (and explicit engines
        // remain available for measurements).
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 17) as f64) - 8.0).collect();
        let mut x_def = vec![0.0; n];
        let mut x_ser = vec![0.0; n];
        f.apply(&b, &mut x_def);
        f.with_engine(SolveEngine::Serial).apply(&b, &mut x_ser);
        assert_eq!(x_def, x_ser);
        let mut x_p2p = vec![0.0; n];
        f.with_engine(SolveEngine::PointToPointLower)
            .apply(&b, &mut x_p2p);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&x_p2p), bits(&x_ser));
        // Within the core budget the threaded default survives — pinned
        // too: a pinned analysis binds its caller to core 0, and neither
        // it nor a second analysis by the now-pinned caller may read
        // that one-core mask as the machine (on a scratch thread, so the
        // test harness keeps its mask).
        if cores > 1 {
            let f2 = compute_factors(&a, &IluOptions::ilu0(2));
            assert_eq!(f2.default_engine(), SolveEngine::PointToPointLower);
            let a = a.clone();
            let pinned = std::thread::spawn(move || {
                let mut opts = IluOptions::ilu0(2);
                opts.pin_threads = true;
                let first = SymbolicIlu::analyze(&a, &opts).expect("analyze");
                let second = SymbolicIlu::analyze(&a, &opts).expect("analyze");
                [first.default_engine(), second.default_engine()]
            })
            .join()
            .expect("scratch thread");
            assert_eq!(pinned, [SolveEngine::PointToPointLower; 2], "pinned");
        }
        assert_eq!(
            compute_factors(&a, &IluOptions::default()).default_engine(),
            SolveEngine::Serial
        );
    }

    #[test]
    fn serial_analysis_never_pins_its_caller() {
        // `pin_threads` binds a team's tid 0 — the calling thread — to
        // core 0. With `nthreads == 1` there is no team to place, so
        // the caller's affinity mask (what `available_parallelism`
        // reads on Linux) must come back untouched. On a scratch thread
        // so a regression cannot pin the test harness either.
        let cores = || std::thread::available_parallelism().map(|c| c.get());
        let (before, after) = std::thread::spawn(move || {
            let before = cores().ok();
            let mut opts = IluOptions::ilu0(1);
            opts.pin_threads = true;
            SymbolicIlu::analyze(&laplace_2d(6, 5), &opts).expect("analyze");
            (before, cores().ok())
        })
        .join()
        .expect("scratch thread");
        assert_eq!(before, after, "a serial analysis pinned its caller");
    }

    #[test]
    fn solve_actually_preconditions() {
        // For ILU(0) of a diagonally dominant matrix, ||x - A^{-1}b||
        // through the factors is a decent approximation: check the
        // preconditioned residual is much smaller than the raw rhs.
        let a = laplace_2d(10, 10);
        let f = compute_factors(&a, &IluOptions::default());
        let n = a.nrows();
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        f.apply(&b, &mut x);
        // r = b - A x should be noticeably smaller than b for a useful
        // preconditioner.
        let ax = a.spmv(&x);
        let r_norm: f64 = b
            .iter()
            .zip(ax.iter())
            .map(|(bi, axi)| (bi - axi) * (bi - axi))
            .sum::<f64>()
            .sqrt();
        let b_norm = (n as f64).sqrt();
        assert!(r_norm < 0.8 * b_norm, "residual {r_norm} vs rhs {b_norm}");
    }

    #[test]
    fn iluk_reduces_product_error_off_pattern() {
        // With k = n the factorization becomes exact: product error on
        // the (full) pattern stays ~0 and the solve is a direct solve.
        let a = irregular(40);
        let mut exact_opts = IluOptions::default();
        exact_opts.fill_level = 40;
        let f = compute_factors(&a, &exact_opts);
        let n = a.nrows();
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let b = a.spmv(&x_true);
        let mut x = vec![0.0; n];
        f.apply(&b, &mut x);
        for (g, w) in x.iter().zip(x_true.iter()) {
            assert!((g - w).abs() < 1e-8, "{g} vs {w}");
        }
    }

    #[test]
    fn drop_tolerance_drops_and_milu_compensates() {
        let a = irregular(100);
        let base = compute_factors(&a, &IluOptions::default());
        let tau = compute_factors(&a, &IluOptions::default().with_fill(1).with_drop_tol(0.02));
        assert!(tau.stats().dropped_entries > 0, "τ should drop entries");
        assert_eq!(base.stats().dropped_entries, 0);
        let milu = compute_factors(
            &a,
            &IluOptions::default()
                .with_fill(1)
                .with_drop_tol(0.02)
                .with_milu(1.0),
        );
        // MILU shifts diagonals; factors must differ from plain τ.
        assert!(milu.stats().dropped_entries > 0);
    }

    #[test]
    fn zero_pivot_error_policy_reports_row() {
        // Second row becomes exactly zero after elimination:
        // A = [[1, 1], [1, 1]].
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        let a = coo.to_csr();
        let mut opts = IluOptions::default();
        opts.zero_pivot = ZeroPivotPolicy::Error;
        match factorize(&a, &opts) {
            Err(SparseError::ZeroPivot { row }) => assert_eq!(row, 1),
            Err(other) => panic!("expected zero pivot, got {other:?}"),
            Ok(_) => panic!("expected zero pivot, got a factorization"),
        }
        // Replace policy succeeds and counts the replacement.
        let mut opts2 = IluOptions::default();
        opts2.zero_pivot = ZeroPivotPolicy::Replace { replacement: 1e-8 };
        let f = factorize(&a, &opts2).unwrap();
        assert_eq!(f.stats().replaced_pivots, 1);
    }

    #[test]
    fn rejects_bad_inputs() {
        // Rectangular.
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        assert!(factorize(&coo.to_csr(), &IluOptions::default()).is_err());
        // Missing diagonal.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        assert!(matches!(
            factorize(&coo.to_csr(), &IluOptions::default()),
            Err(SparseError::MissingDiagonal { row: 1 })
        ));
    }

    #[test]
    fn solve_rejects_bad_lengths() {
        // The one fallible apply reports every shape mismatch — wrong
        // `b` rows, wrong `x` rows, wrong `x` columns — as an error on
        // both engines.
        let a = laplace_2d(4, 4);
        let f = compute_factors(&a, &IluOptions::ilu0(2));
        let (b, mut x) = (vec![1.0; 32], vec![0.0; 32]);
        for engine in [SolveEngine::Serial, SolveEngine::PointToPointLower] {
            let mut scratch = ApplyScratch::new();
            // (b rows, x rows, x columns) against n = 16 at width 2.
            for (nb, nx, kx) in [(15, 16, 2), (16, 15, 2), (16, 16, 1)] {
                let b = Panel::new(&b[..nb * 2], nb, 2);
                let x = PanelMut::new(&mut x[..nx * kx], nx, kx);
                assert!(
                    matches!(
                        f.solve_panel_with_buffer(engine, &mut scratch, b, x),
                        Err(SparseError::DimensionMismatch(_))
                    ),
                    "{engine}: b rows {nb}, x {nx}x{kx}"
                );
            }
        }
    }

    #[test]
    fn stats_are_populated() {
        let a = laplace_2d(12, 12);
        let mut opts = IluOptions::ilu0(2);
        opts.split.min_rows_per_level = 6;
        let f = compute_factors(&a, &opts);
        let s = f.stats();
        assert_eq!(s.n, 144);
        assert_eq!(s.nnz_a, a.nnz());
        assert_eq!(s.nnz_lu, a.nnz()); // ILU(0): same pattern
        assert!(s.n_levels > 1);
        assert!(s.n_upper_levels <= s.n_levels);
        assert!(s.n_lower_rows > 0);
        assert!(s.n_waits <= s.n_raw_deps);
        assert_eq!(s.fill_ratio(), 1.0);
    }

    #[test]
    fn level_scheduling_only_has_no_lower_rows() {
        let a = laplace_2d(10, 10);
        let f = compute_factors(&a, &IluOptions::level_scheduling_only(2));
        assert_eq!(f.stats().n_lower_rows, 0);
        assert_eq!(f.symbolic().plan().n_upper, 100);
    }

    #[test]
    fn lower_a_pattern_two_stage_matches_serial() {
        let a = irregular(140);
        let mut opts = IluOptions::ilu0(2);
        opts.level_pattern = LevelPattern::LowerA;
        opts.split.min_rows_per_level = 8;
        let f = compute_factors(&a, &opts);
        assert!(f.stats().n_lower_rows > 0);
        let s = compute_factors(
            &a,
            &IluOptions {
                level_pattern: LevelPattern::LowerA,
                split: opts.split,
                ..IluOptions::default()
            },
        );
        let sb: Vec<u64> = s.lu().vals().iter().map(|v| v.to_bits()).collect();
        let fb: Vec<u64> = f.lu().vals().iter().map(|v| v.to_bits()).collect();
        assert_eq!(sb, fb);
    }

    #[test]
    fn three_thread_two_stage_factor_and_refactor_match_serial() {
        let a = irregular(160);
        let mut opts = IluOptions::ilu0(3);
        opts.split.min_rows_per_level = 10;
        let mut serial = opts.clone();
        serial.nthreads = 1;
        let f1 = compute_factors(&a, &serial);
        let f2 = compute_factors(&a, &opts);
        assert!(f2.stats().n_lower_rows > 0);
        let b1: Vec<u64> = f1.lu().vals().iter().map(|v| v.to_bits()).collect();
        let b2: Vec<u64> = f2.lu().vals().iter().map(|v| v.to_bits()).collect();
        assert_eq!(b1, b2);
        // And refactor through the threaded analysis (the same planned
        // walk) matches too.
        let sym = SymbolicIlu::analyze(&a, &opts).unwrap();
        let mut f3 = sym.factor(&a).unwrap();
        f3.refactor(&a).unwrap();
        let b3: Vec<u64> = f3.lu().vals().iter().map(|v| v.to_bits()).collect();
        assert_eq!(b1, b3);
    }

    #[test]
    fn bordered_fixture_demotes_its_border_rows() {
        // The fixture the lower-stage tests lean on: its dense border
        // rows land in the lower stage at every thread count, and only
        // the level-scheduling-only split keeps them out.
        let a = javelin_synth::util::bordered(&laplace_2d(12, 12), 6);
        for nthreads in [1, 2, 3] {
            let sym = SymbolicIlu::analyze(&a, &IluOptions::ilu0(nthreads)).unwrap();
            let n_lower = sym.stats().n_lower_rows;
            assert!(n_lower >= 6, "nthreads={nthreads}: {n_lower} lower rows");
            assert_eq!(sym.plan().n_upper + n_lower, a.nrows());
        }
        let sym = SymbolicIlu::analyze(&a, &IluOptions::level_scheduling_only(2)).unwrap();
        assert_eq!(sym.stats().n_lower_rows, 0);
    }

    #[test]
    fn trailing_rows_without_sub_corner_entries_are_bitwise_serial() {
        // A lower stage whose rows have no L entries below the corner:
        // the Even-Rows stage writes zero sums, and each trailing row
        // sums its corner L part from zero. A diagonal + superdiagonal chain
        // (plus L couplings inside the trailing rows only) keeps the
        // symmetrized levels a chain, so the split demotes its last 20 %
        // of rows; the permutation is the identity.
        let n = 60;
        let first_coupled = 52;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0 + (i % 5) as f64 * 0.25).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, -1.0 - (i % 3) as f64 * 0.125).unwrap();
            }
            if i >= first_coupled {
                coo.push(i, i - 1, -0.5).unwrap();
                coo.push(i, i - 2, 0.375).unwrap();
            }
        }
        let a = coo.to_csr();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for nthreads in [2usize, 3] {
            let mut opts = IluOptions::ilu0(nthreads);
            opts.split.min_rows_per_level = 2;
            let f = compute_factors(&a, &opts);
            let plan = f.symbolic().plan();
            assert!(f.stats().n_lower_rows > 0, "threads={nthreads}");
            assert!(plan.n_upper <= first_coupled - 2, "threads={nthreads}");
            assert!(
                plan.block_rows.iter().all(|&(lo, hi)| lo == hi),
                "threads={nthreads}"
            );
            for k in [1usize, 4, 5] {
                let b: Vec<f64> = (0..n * k)
                    .map(|i| ((i * 37 % 29) as f64 - 14.0) * 0.13)
                    .collect();
                let solve = |engine| {
                    let mut x = vec![0.0; n * k];
                    f.with_engine(engine).apply_panel_with(
                        &mut ApplyScratch::new(),
                        Panel::new(&b, n, k),
                        PanelMut::new(&mut x, n, k),
                    );
                    bits(&x)
                };
                assert_eq!(
                    solve(SolveEngine::PointToPointLower),
                    solve(SolveEngine::Serial),
                    "threads={nthreads} k={k}"
                );
            }
        }
    }

    #[test]
    fn every_numeric_entry_point_runs_the_lower_stage_bit_identically() {
        // Even-Rows + serial corner on 2 and 3 threads vs the serial
        // sweep: factor, refactor, shifted refactor and every lane of a
        // batch, with τ-dropping on.
        let a = javelin_synth::util::bordered(&laplace_2d(12, 12), 6);
        let a2 = revalue(&a, 0.37);
        let bits = |f: &IluFactors<f64>| -> Vec<u64> {
            f.lu().vals().iter().map(|v| v.to_bits()).collect()
        };
        let run = |nthreads: usize| {
            let opts = IluOptions::ilu0(nthreads).with_drop_tol(1e-3);
            let sym = SymbolicIlu::analyze(&a, &opts).unwrap();
            let mut f = sym.factor(&a).unwrap();
            let mut out = vec![bits(&f)];
            f.refactor(&a2).unwrap();
            out.push(bits(&f));
            f.refactor_with_shift(&a2, 1e-3).unwrap();
            out.push(bits(&f));
            let batch = sym.factor_batch(&[&a, &a2, &a, &a2, &a2]).unwrap();
            assert!(batch.all_ok());
            out.extend((0..batch.k()).map(|c| bits(&batch.to_factors(c))));
            assert!(f.stats().dropped_entries > 0, "τ must drop something");
            out
        };
        let reference = run(1);
        assert_eq!(reference[1], reference[4], "batch lane 1 is refactor(a2)");
        for nthreads in [2usize, 3] {
            assert_eq!(run(nthreads), reference, "{nthreads} threads");
        }
    }

    #[test]
    fn f32_factorization_works() {
        let n = 30;
        let mut coo = CooMatrix::<f32>::new(n, n);
        for i in 0..n {
            coo.push(i, i, 3.0).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, -1.0).unwrap();
                coo.push(i + 1, i, -1.0).unwrap();
            }
        }
        let a = coo.to_csr();
        let sym = SymbolicIlu::analyze(&a, &IluOptions::ilu0(2)).unwrap();
        let mut f = sym.factor(&a).unwrap();
        f.refactor(&a).unwrap();
        let b = vec![1.0f32; n];
        let mut x = vec![0.0f32; n];
        f.apply(&b, &mut x);
        assert!(x.iter().all(|v| v.is_finite()));
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::product_error;
    use super::*;
    use crate::options::{IluOptions, SolveEngine};
    use crate::Preconditioner;
    use javelin_sparse::CooMatrix;
    use proptest::prelude::*;

    /// Random diagonally dominant square matrix with full diagonal.
    fn arb_matrix(n_max: usize) -> impl Strategy<Value = CsrMatrix<f64>> {
        (4..n_max).prop_flat_map(|n| {
            proptest::collection::vec((0..n, 0..n, 0.05..1.0f64), n..n * 4).prop_map(move |trips| {
                let mut coo = CooMatrix::new(n, n);
                let mut rowsum = vec![0.0f64; n];
                for (r, c, v) in &trips {
                    if r != c {
                        coo.push(*r, *c, -*v).unwrap();
                        rowsum[*r] += v;
                    }
                }
                for (r, item) in rowsum.iter().enumerate() {
                    coo.push(r, r, item + 1.0).unwrap();
                }
                coo.to_csr()
            })
        })
    }

    /// Same pattern, deterministically perturbed values (still
    /// diagonally dominant enough to factor).
    fn revalue(a: &CsrMatrix<f64>, seed: f64) -> CsrMatrix<f64> {
        javelin_synth::util::revalue(a, seed, 0.05)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The defining ILU(0) identity on random matrices.
        #[test]
        fn ilu0_identity_on_random_matrices(a in arb_matrix(28)) {
            let f = factorize(&a, &IluOptions::default()).unwrap();
            prop_assert!(product_error(&f, &a) < 1e-9);
        }

        /// Parallel == serial, bitwise, on random matrices and random
        /// engine/thread choices.
        #[test]
        fn engines_bitwise_equal_on_random_matrices(
            a in arb_matrix(28),
            nthreads in 2usize..5,
        ) {
            let mut opts = IluOptions::ilu0(nthreads);
            opts.split.min_rows_per_level = 4;
            let mut serial = opts.clone();
            serial.nthreads = 1;
            let fp = factorize(&a, &opts).unwrap();
            let fs = factorize(&a, &serial).unwrap();
            let bp: Vec<u64> = fp.lu().vals().iter().map(|v| v.to_bits()).collect();
            let bs: Vec<u64> = fs.lu().vals().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(bp, bs);
        }

        /// The refactor satellite contract: `symbolic.factor(&a2)` and
        /// `factors.refactor(&a2)` (same pattern, new values) are
        /// bit-identical — across thread counts and panel widths (the
        /// refactored factors' panel solves must carry exactly the fresh
        /// factors' bits too).
        #[test]
        fn refactor_bitwise_equals_fresh_factor(
            a in arb_matrix(24),
            nthreads in 1usize..4,
            k_idx in 0usize..4,
            seed in 0.1..2.0f64,
        ) {
            let k = [1usize, 2, 3, 8][k_idx];
            let n = a.nrows();
            let mut opts = IluOptions::ilu0(nthreads);
            opts.split.min_rows_per_level = 4;
            let sym = SymbolicIlu::analyze(&a, &opts).unwrap();
            let mut f = sym.factor(&a).unwrap();
            let a2 = revalue(&a, seed);
            let fresh = sym.factor(&a2).unwrap();
            f.refactor(&a2).unwrap();
            let rb: Vec<u64> = f.lu().vals().iter().map(|v| v.to_bits()).collect();
            let fb: Vec<u64> = fresh.lu().vals().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(rb, fb);
            // Panel solves through refactored vs fresh factors agree
            // bitwise at every width.
            let b: Vec<f64> = (0..n * k)
                .map(|i| ((i * 31 % 23) as f64 - 11.0) * 0.17)
                .collect();
            let mut xr = vec![0.0; n * k];
            let mut xf = vec![0.0; n * k];
            let engine = f.default_engine();
            f.with_engine(engine).apply_panel_with(
                &mut ApplyScratch::new(),
                javelin_sparse::Panel::new(&b, n, k),
                javelin_sparse::PanelMut::new(&mut xr, n, k),
            );
            fresh.with_engine(engine).apply_panel_with(
                &mut ApplyScratch::new(),
                javelin_sparse::Panel::new(&b, n, k),
                javelin_sparse::PanelMut::new(&mut xf, n, k),
            );
            let xrb: Vec<u64> = xr.iter().map(|v| v.to_bits()).collect();
            let xfb: Vec<u64> = xf.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(xrb, xfb, "panel width {}", k);
        }

        /// Panel trisolves are column-for-column bit-identical to `k`
        /// independent single-RHS solves — the panel contract, over
        /// random matrices, widths and thread counts, for both engines —
        /// and the two engines' panels carry the same bits.
        #[test]
        fn panel_solves_bitwise_match_looped_single_rhs(
            a in arb_matrix(24),
            nthreads in 1usize..4,
            k_idx in 0usize..5,
        ) {
            let k = [1usize, 2, 3, 8, 9][k_idx];
            let n = a.nrows();
            let mut opts = IluOptions::ilu0(nthreads);
            opts.split.min_rows_per_level = 4;
            let f = factorize(&a, &opts).unwrap();
            let b: Vec<f64> = (0..n * k)
                .map(|i| ((i * 31 % 23) as f64 - 11.0) * 0.17)
                .collect();
            let mut panels = Vec::new();
            for engine in [SolveEngine::Serial, SolveEngine::PointToPointLower] {
                let mut xp = vec![0.0; n * k];
                f.with_engine(engine).apply_panel_with(
                    &mut ApplyScratch::new(),
                    javelin_sparse::Panel::new(&b, n, k),
                    javelin_sparse::PanelMut::new(&mut xp, n, k),
                );
                let pb: Vec<u64> = xp.iter().map(|v| v.to_bits()).collect();
                for c in 0..k {
                    let mut x = vec![0.0; n];
                    f.with_engine(engine).apply(&b[c * n..(c + 1) * n], &mut x);
                    let sb: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
                    prop_assert_eq!(&pb[c * n..(c + 1) * n], &sb[..], "engine={} k={} col={}", engine, k, c);
                }
                panels.push(pb);
            }
            prop_assert_eq!(&panels[0], &panels[1], "engines disagree at k={}", k);
        }

        /// Forward+backward substitution through the threaded engine
        /// equals the serial reference, bitwise.
        #[test]
        fn solves_agree_on_random_matrices(a in arb_matrix(24), nthreads in 2usize..4) {
            let n = a.nrows();
            let opts = IluOptions::ilu0(nthreads);
            let f = factorize(&a, &opts).unwrap();
            let b: Vec<f64> = (0..n).map(|i| ((i * 31 % 17) as f64) - 8.0).collect();
            let mut x_ref = vec![0.0; n];
            f.with_engine(SolveEngine::Serial).apply(&b, &mut x_ref);
            let mut x = vec![0.0; n];
            f.with_engine(SolveEngine::PointToPointLower).apply(&b, &mut x);
            let xb: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
            let rb: Vec<u64> = x_ref.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(xb, rb);
        }
    }
}
