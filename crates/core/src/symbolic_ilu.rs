//! The symbolic half of the two-phase factorization API.
//!
//! The paper's pipeline is explicitly phased: ordering, the ILU(k) fill
//! pattern, level analysis, the two-stage split and the point-to-point
//! schedules depend only on the *sparsity pattern* of `A`, and so does
//! *which* elimination updates the up-looking kernel performs (resolved
//! here into the update list); only the arithmetic of those updates
//! depends on its *values*. [`SymbolicIlu`] captures everything
//! pattern-dependent — the production handle split of SuperLU/KLU-style
//! interfaces — so time-stepping and transient workloads pay the
//! symbolic cost once:
//!
//! ```
//! use javelin_core::{IluOptions, SymbolicIlu};
//! use javelin_sparse::CooMatrix;
//!
//! let mut coo = CooMatrix::new(3, 3);
//! for i in 0..3 {
//!     coo.push(i, i, 4.0).unwrap();
//! }
//! let a = coo.to_csr();
//! let sym = SymbolicIlu::analyze(&a, &IluOptions::default()).unwrap();
//! let mut factors = sym.factor(&a).unwrap(); // numeric phase
//! // ... values change, pattern does not:
//! factors.refactor(&a).unwrap(); // numeric-only, zero allocations
//! ```
//!
//! `SymbolicIlu` is a cheaply cloneable handle (`Arc` inside); every
//! factor object — an [`IluFactors`] from [`SymbolicIlu::factor`], a
//! [`FactorsBatch`](crate::FactorsBatch) from
//! [`SymbolicIlu::factor_batch`] — keeps one, so the LU pattern, the
//! update list, the solve plan, the persistent worker team and the
//! grow-only scratch buffers are shared by all factor objects of one
//! analysis; a factor object owns only its values.

use crate::factors::{IluFactors, SolvePlan};
use crate::level::{split_levels, LevelSets, P2PSchedule};
use crate::numeric::kernel::{index_u32, update_list, LuVals};
use crate::numeric::parallel::{
    factor_lower_er_planned, factor_rows_serial, factor_upper_p2p_planned,
};
use crate::numeric::NumericCtx;
use crate::options::{IluOptions, SolveEngine, ZeroPivotPolicy};
use crate::stats::{FactorStats, Work};
use crate::symbolic;
use crate::sync::{col_range, Exec, ProgressCounters};
use crate::trisolve::engines::SolveScratch;
use javelin_sparse::lanes::Lanes;
use javelin_sparse::pattern::{level_pattern_of, SparsityPattern};
use javelin_sparse::{CsrMatrix, Perm, Scalar, SparseError};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Marks an LU position with no corresponding entry in `A` (fill).
pub(crate) const FILL: u32 = u32::MAX;

/// Everything pattern-dependent, computed once (see module docs).
pub(crate) struct SymCore<T> {
    pub(crate) n: usize,
    pub(crate) nthreads: usize,
    pub(crate) opts: IluOptions,
    pub(crate) engine_hint: SolveEngine,
    /// Pattern of the analyzed `A`, kept to validate refactor inputs.
    a_rowptr: Vec<usize>,
    a_colidx: Vec<usize>,
    /// Structural fingerprint of the analyzed `A` pattern (the cheap
    /// cache key of pattern-keyed symbolic caches; see
    /// [`javelin_sparse::pattern::pattern_fingerprint`]).
    a_fingerprint: u64,
    /// Permuted combined-LU pattern.
    pub(crate) rowptr: Vec<usize>,
    pub(crate) colidx: Vec<usize>,
    pub(crate) diag_pos: Vec<usize>,
    /// Per LU entry: source index into `A.vals()`, or [`FILL`].
    pub(crate) a_src: Vec<u32>,
    /// The update list (`numeric/kernel.rs`): LU entry `e`'s
    /// elimination updates are `upd[upd_ptr[e]..upd_ptr[e + 1]]`, one
    /// `[dst, src]` entry pair each.
    pub(crate) upd_ptr: Vec<u32>,
    pub(crate) upd: Vec<[u32; 2]>,
    pub(crate) perm: Perm,
    pub(crate) plan: SolvePlan,
    /// Symbolic/analysis statistics — the template every numeric phase
    /// completes with its own counters and timing.
    pub(crate) stats: FactorStats,
    pub(crate) exec: Exec,
    pub(crate) scratch: Mutex<SolveScratch<T>>,
    /// The numeric phase's only pattern-side scratch: the
    /// point-to-point stages' resettable progress counters. Its lock
    /// also serializes the numeric runs of every factor object of the
    /// analysis on the shared team; everything value-carrying — the
    /// work buffer and τ thresholds, at the factor's width — lives in
    /// the [`FactorsBatch`](crate::FactorsBatch) itself.
    pub(crate) progress: Mutex<ProgressCounters>,
}

/// The pattern-dependent phase of an incomplete factorization: ordering,
/// ILU(k) fill pattern, level schedule, two-stage split decision,
/// trisolve execution plans and all reusable scratch (see module
/// docs). Produce numeric factors with [`SymbolicIlu::factor`]; redo the
/// numeric phase in place with [`IluFactors::refactor`].
///
/// Cloning is cheap (an `Arc` bump) and shares the underlying plans,
/// worker team and scratch.
pub struct SymbolicIlu<T> {
    core: Arc<SymCore<T>>,
}

impl<T> Clone for SymbolicIlu<T> {
    fn clone(&self) -> Self {
        SymbolicIlu {
            core: Arc::clone(&self.core),
        }
    }
}

impl<T> std::fmt::Debug for SymbolicIlu<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SymbolicIlu")
            .field("n", &self.core.n)
            .field("nnz_lu", &self.core.colidx.len())
            .field("nthreads", &self.core.nthreads)
            .finish()
    }
}

impl<T: Scalar> SymbolicIlu<T> {
    /// Runs the symbolic phase of the pipeline on the *pattern* of `a`:
    /// ILU(k) fill, level analysis, two-stage split, permutation, the
    /// update list every numeric walk streams (its length is
    /// [`FactorStats::n_updates`]), the forward/backward point-to-point
    /// schedules, the trailing-block layout, the execution
    /// context (a persistent worker team) and all reusable numeric/solve
    /// scratch.
    ///
    /// The values of `a` are not read; [`SymbolicIlu::factor`] accepts
    /// any matrix with this exact pattern.
    ///
    /// # Errors
    /// * [`SparseError::NotSquare`] for rectangular inputs;
    /// * [`SparseError::MissingDiagonal`] when a structural diagonal
    ///   entry is absent;
    /// * [`SparseError::DimensionMismatch`] when a shared worker team's
    ///   participant count disagrees with `opts.nthreads`;
    /// * [`SparseError::InvalidStructure`] when `A`'s or the LU
    ///   pattern's entry count, or the number of elimination updates,
    ///   exceeds the `u32` index range.
    pub fn analyze(a: &CsrMatrix<T>, opts: &IluOptions) -> Result<Self, SparseError> {
        if !a.is_square() {
            return Err(SparseError::NotSquare {
                nrows: a.nrows(),
                ncols: a.ncols(),
            });
        }
        let n = a.nrows();
        let nthreads = opts.nthreads.max(1);
        if let Some(team) = &opts.shared_team {
            if team.nthreads() != nthreads {
                return Err(SparseError::DimensionMismatch(format!(
                    "shared worker team has {} participants, options request nthreads = {}",
                    team.nthreads(),
                    nthreads
                )));
            }
        }
        let mut stats = FactorStats {
            n,
            nnz_a: a.nnz(),
            ..Default::default()
        };

        // ---- Symbolic: the ILU(k) pattern (paper: "predetermining the
        // sparsity pattern"). -------------------------------------------
        let t0 = Instant::now();
        let s: SparsityPattern = symbolic::iluk_pattern_serial(a, opts.fill_level)?;
        stats.t_symbolic = t0.elapsed();
        stats.nnz_lu = s.nnz();

        // ---- Analysis: levels, two-stage split, permutation, schedules.
        let t1 = Instant::now();
        let lvl_pattern = level_pattern_of(&s, opts.level_pattern);
        let levels0 = LevelSets::compute_lower(&lvl_pattern);
        stats.n_levels = levels0.n_levels();
        let row_nnz: Vec<usize> = (0..n).map(|r| s.rowptr()[r + 1] - s.rowptr()[r]).collect();
        let plan0 = split_levels(&levels0, &row_nnz, &opts.split);
        stats.n_upper_levels = plan0.n_upper_levels();
        stats.n_lower_rows = plan0.n_lower();
        let perm = plan0.perm.clone();
        let n_upper = plan0.n_upper;

        // Permute the pattern and record, for every LU position, which
        // entry of `A` seeds it (fill positions start at zero) — the
        // paper's "copy-fill-in phase" reduced to an index map so the
        // numeric phase can reload values from any pattern-identical
        // matrix without re-merging.
        let old_to_new = perm.old_to_new();
        let new_to_old = perm.new_to_old();
        let mut rowptr = vec![0usize; n + 1];
        let mut colidx: Vec<usize> = Vec::with_capacity(s.nnz());
        let mut a_src: Vec<u32> = Vec::with_capacity(s.nnz());
        // Every source index is then below `FILL`.
        index_u32(a.nnz(), "nnz_a")?;
        {
            let mut merge: Vec<(usize, u32)> = Vec::new();
            for new_r in 0..n {
                let old_r = new_to_old[new_r];
                merge.clear();
                // Merge: S row ⊇ A row, both sorted by old column.
                let a_cols = a.row_cols(old_r);
                let a_lo = a.rowptr()[old_r];
                let mut ai = 0usize;
                for &old_c in s.row_cols(old_r) {
                    let src = if ai < a_cols.len() && a_cols[ai] == old_c {
                        ai += 1;
                        index_u32(a_lo + ai - 1, "A entry")?
                    } else {
                        FILL
                    };
                    merge.push((old_to_new[old_c], src));
                }
                debug_assert_eq!(ai, a_cols.len(), "A row not contained in pattern row");
                merge.sort_unstable_by_key(|&(c, _)| c);
                for &(c, src) in merge.iter() {
                    colidx.push(c);
                    a_src.push(src);
                }
                rowptr[new_r + 1] = colidx.len();
            }
        }
        let diag_pos: Vec<usize> = (0..n)
            .map(|r| {
                rowptr[r]
                    + colidx[rowptr[r]..rowptr[r + 1]]
                        .binary_search(&r)
                        .expect("diagonal survives symmetric permutation")
            })
            .collect();
        // The copy-fill-in map's numeric counterpart: every elimination
        // update of the pattern, resolved once for every numeric walk.
        let (upd_ptr, upd) = update_list(&rowptr, &colidx, &diag_pos)?;
        stats.n_updates = upd.len();

        // Backward levels over the upper stage (upper-pattern deps
        // restricted to columns < n_upper; corner columns are solved
        // before the parallel region starts).
        let bwd_levels_upper = {
            let mut bp = vec![0usize; n_upper + 1];
            let mut bc = Vec::new();
            for r in 0..n_upper {
                for k in (diag_pos[r] + 1)..rowptr[r + 1] {
                    let c = colidx[k];
                    if c < n_upper {
                        bc.push(c);
                    }
                }
                bp[r + 1] = bc.len();
            }
            LevelSets::compute_upper(&SparsityPattern::from_raw(n_upper, n_upper, bp, bc))
        };
        let bwd_row_of_task: Vec<usize> = bwd_levels_upper.rows_in_level_order().to_vec();
        let (fwd, bwd) = p2p_schedules(
            (&rowptr, &colidx, &diag_pos),
            [&plan0.upper_level_ptr, bwd_levels_upper.level_ptr()],
            &bwd_row_of_task,
            nthreads,
        );
        // Every strictly-lower entry of an upper-stage row is one raw
        // forward dependency.
        stats.n_raw_deps = (0..n_upper).map(|r| diag_pos[r] - rowptr[r]).sum();
        stats.n_waits = fwd.n_waits();
        // The numeric and solve walks each touch a row once only if the
        // upper levels and the trailing rows' Even-Rows chunks (the
        // same `col_range` partition both walks take) cover it once.
        debug_assert!(
            plan0.covers_rows_once(nthreads, |tid| col_range(plan0.n_lower(), nthreads, tid)),
            "two-stage split and Even-Rows chunks do not cover every row once"
        );

        // Each trailing row's sub-corner prefix, for the solve's
        // Even-Rows stage.
        let block_rows = (n_upper..n)
            .map(|r| {
                let (lo, hi) = (rowptr[r], rowptr[r + 1]);
                (lo, lo + colidx[lo..hi].partition_point(|&c| c < n_upper))
            })
            .collect();

        let plan = SolvePlan {
            n_upper,
            upper_level_ptr: plan0.upper_level_ptr,
            fwd,
            bwd,
            bwd_row_of_task,
            bwd_level_ptr: bwd_levels_upper.level_ptr().to_vec(),
            block_rows,
        };

        // Solve/refactor execution state, built once: a caller-shared
        // team if one was provided, else a team of this analysis's own
        // (a one-participant team spawns nothing), plus the
        // allocation-free engine and numeric scratch. A serial analysis
        // never pins: `team_pinned` would bind the *caller* to core 0.
        let exec = if let Some(team) = &opts.shared_team {
            Exec::with_team(Arc::clone(team))
        } else if opts.pin_threads && nthreads > 1 {
            Exec::team_pinned(nthreads)
        } else {
            Exec::team(nthreads)
        };
        // Oversubscription-aware default engine, picked at plan time
        // (the only moment the whole execution state is in hand): when
        // the requested thread count exceeds the machine's cores, the
        // point-to-point engine's spin waits churn against each other on
        // shared cores and lose to plain serial substitution, so the
        // unnamed-engine path falls back. The threaded engine remains
        // available through `solve_with` for measurements. The count is
        // the process's, recorded before any pinning — a caller pinned
        // by this or an earlier team still sees every core.
        let cores = crate::sync::affinity::n_cores();
        let engine_hint = if nthreads == 1 || nthreads > cores {
            SolveEngine::Serial
        } else {
            SolveEngine::PointToPointLower
        };
        let scratch = Mutex::new(SolveScratch::new(&plan, n, nthreads));
        stats.t_analysis = t1.elapsed();

        Ok(SymbolicIlu {
            core: Arc::new(SymCore {
                n,
                nthreads,
                opts: opts.clone(),
                engine_hint,
                a_fingerprint: javelin_sparse::pattern::fingerprint_parts(
                    a.nrows(),
                    a.ncols(),
                    a.rowptr(),
                    a.colidx(),
                ),
                a_rowptr: a.rowptr().to_vec(),
                a_colidx: a.colidx().to_vec(),
                rowptr,
                colidx,
                diag_pos,
                a_src,
                upd_ptr,
                upd,
                perm,
                plan,
                stats,
                exec,
                scratch,
                progress: Mutex::new(ProgressCounters::new(nthreads)),
            }),
        })
    }

    /// The upper stage's point-to-point schedules, forward and
    /// backward, rebuilt for `nthreads` threads from this analysis's
    /// pattern and levels: the rule [`SymbolicIlu::analyze`] builds
    /// [`SolvePlan::fwd`] and [`SolvePlan::bwd`] with, for simulating
    /// other thread counts.
    pub fn p2p_schedules(&self, nthreads: usize) -> (P2PSchedule, P2PSchedule) {
        let c = &*self.core;
        p2p_schedules(
            (&c.rowptr, &c.colidx, &c.diag_pos),
            [&c.plan.upper_level_ptr, &c.plan.bwd_level_ptr],
            &c.plan.bwd_row_of_task,
            nthreads.max(1),
        )
    }

    /// Matrix dimension the analysis was built for.
    pub fn n(&self) -> usize {
        self.core.n
    }

    /// Stored entries of the combined LU pattern (incl. fill).
    pub fn nnz(&self) -> usize {
        self.core.colidx.len()
    }

    /// Threads the plans were built for.
    pub fn nthreads(&self) -> usize {
        self.core.nthreads
    }

    /// The two-stage level permutation `P` (`LU ≈ P·A·Pᵀ`).
    pub fn perm(&self) -> &Perm {
        &self.core.perm
    }

    /// The solve plan (schedules, levels, trailing-block layout).
    pub fn plan(&self) -> &SolvePlan {
        &self.core.plan
    }

    /// The options the analysis was built with.
    pub fn options(&self) -> &IluOptions {
        &self.core.opts
    }

    /// The engine used by solves when none is named.
    pub fn default_engine(&self) -> SolveEngine {
        self.core.engine_hint
    }

    /// The exact work of one apply of a width-`k` panel through the
    /// threaded engine on these plans (see [`Work`]). The region walks
    /// the forward and backward schedules once each for the whole
    /// panel and reads and writes the caller's panels itself, so
    /// nothing here grows with `k`; a width-0 apply returns before any
    /// work. The Serial engine reads no schedule and runs no region.
    pub fn work(&self, k: usize) -> Work {
        if k == 0 {
            return Work::default();
        }
        let plan = &self.core.plan;
        let trailing = plan.n_upper < self.core.n;
        Work {
            caller_vector_passes: 0,
            schedule_bytes: plan.fwd.walk_bytes()
                + plan.bwd.walk_bytes()
                + plan.bwd_row_of_task.len() * std::mem::size_of::<usize>(),
            wait_checks: plan.fwd.n_waits() + plan.bwd.n_waits(),
            publications: plan.fwd.n_blocks() + plan.bwd.n_blocks(),
            // Forward → backward; with trailing rows also around the
            // Even-Rows stage and after the corner's backward solve.
            barriers: if trailing { 4 } else { 1 },
            regions: 1,
        }
    }

    /// The execution context numeric refactorizations and solves run on
    /// (a persistent worker team).
    pub(crate) fn exec(&self) -> &Exec {
        &self.core.exec
    }

    /// Symbolic/analysis statistics (numeric fields are zero; each
    /// [`IluFactors`] carries the completed statistics).
    pub fn stats(&self) -> &FactorStats {
        &self.core.stats
    }

    pub(crate) fn core(&self) -> &SymCore<T> {
        &self.core
    }

    /// Structural fingerprint of the analyzed pattern — the cheap cache
    /// key used by pattern-keyed symbolic caches. Equal to
    /// [`javelin_sparse::pattern::pattern_fingerprint`] of the analyzed
    /// matrix. A fingerprint match is a fast filter, not proof of
    /// pattern identity; pair it with [`SymbolicIlu::check_pattern`].
    pub fn pattern_fingerprint(&self) -> u64 {
        self.core.a_fingerprint
    }

    /// Verifies that `a` has exactly the sparsity pattern this analysis
    /// was built for.
    ///
    /// # Errors
    /// [`SparseError::PatternMismatch`] otherwise.
    pub fn check_pattern(&self, a: &CsrMatrix<T>) -> Result<(), SparseError> {
        let c = &*self.core;
        if a.nrows() != c.n || a.ncols() != c.n {
            return Err(SparseError::PatternMismatch(format!(
                "matrix is {}x{}, analysis was built for {}x{}",
                a.nrows(),
                a.ncols(),
                c.n,
                c.n
            )));
        }
        if a.rowptr() != c.a_rowptr.as_slice() || a.colidx() != c.a_colidx.as_slice() {
            return Err(SparseError::PatternMismatch(
                "matrix sparsity differs from the analyzed pattern \
                 (re-run SymbolicIlu::analyze for a new pattern)"
                    .to_string(),
            ));
        }
        Ok(())
    }

    /// Numeric factorization of `a` through the precomputed symbolic
    /// analysis: the point-to-point upper stage, the Even-Rows lower
    /// stage and the serial corner (paper §III) on the analysis's
    /// execution context and
    /// preallocated workspaces. `a` must have exactly the analyzed
    /// pattern — only its values are read. This is
    /// [`SymbolicIlu::factor_batch`] of `[a]`, its one scenario's
    /// breakdown returned as the error.
    ///
    /// The returned factors share this handle's pattern, plans, worker
    /// team and scratch; call [`IluFactors::refactor`] on them for
    /// subsequent value sets.
    ///
    /// # Errors
    /// * [`SparseError::PatternMismatch`] when `a`'s pattern differs
    ///   from the analyzed one;
    /// * [`SparseError::ZeroPivot`] under
    ///   [`crate::ZeroPivotPolicy::Error`] when a pivot collapses;
    /// * [`SparseError::Breakdown`] when
    ///   [`crate::ZeroPivotPolicy::ShiftRetry`] runs out of attempts.
    pub fn factor(&self, a: &CsrMatrix<T>) -> Result<IluFactors<T>, SparseError> {
        let batch = self.factor_batch(&[a])?;
        batch.statuses()[0].clone()?;
        Ok(IluFactors::from_batch(batch))
    }

    /// The one numeric driver: load through `a_src` → per-lane sticky
    /// shift → engines → per-lane outcome, for `lanes.width()`
    /// pattern-checked matrices at once. Every numeric entry point —
    /// [`SymbolicIlu::factor`], [`IluFactors::refactor`],
    /// [`IluFactors::refactor_with_shift`],
    /// [`FactorsBatch::refactor_batch`](crate::FactorsBatch::refactor_batch)
    /// — is this function at some width, called by the factor storage's
    /// one refactor. Allocation-free.
    ///
    /// Breakdown policy is applied **per lane**: a failing lane gets
    /// [`SparseError::ZeroPivot`] under `Error` (and under any policy
    /// when `forced_shift` is set — the shift is then applied
    /// unconditionally and the single sweep is final); under
    /// `ShiftRetry` all lanes re-sweep while any lane still has retry
    /// budget, each failed lane reloading with its own escalated
    /// diagonal shift, until every lane succeeds or ends in
    /// [`SparseError::Breakdown`]. Deterministic engines make re-sweeps
    /// of healthy lanes bit-identical, so the loop cannot perturb them.
    ///
    /// On return `run.statuses[c]` holds lane `c`'s outcome; for `Ok`
    /// lanes the factor is in `run.vals` and `run.replaced` /
    /// `run.dropped` / `run.failures` (failed sweeps; attempts − 1) /
    /// `run.shifts` describe the successful sweep.
    pub(crate) fn run_numeric<L: Lanes>(
        &self,
        lanes: L,
        run: NumericRun<'_, T>,
        forced_shift: Option<f64>,
    ) {
        let c = &*self.core;
        let k = lanes.width();
        assert_eq!(run.mats.len(), k, "one matrix per lane");
        run.failures.fill(0);
        run.shifts.fill(0.0);
        run.statuses.fill(Ok(()));
        let retry_policy = match c.opts.zero_pivot {
            ZeroPivotPolicy::ShiftRetry {
                initial,
                growth,
                max_attempts,
            } if forced_shift.is_none() => Some((initial, growth, max_attempts)),
            _ => None,
        };
        loop {
            // (Re)load: a failed sweep left the buffer partially
            // factored.
            self.load_values(lanes, run.mats, run.vals, run.drop_thresh);
            for lane in 0..k {
                let relative = match (forced_shift, retry_policy) {
                    (Some(relative), _) => Some(relative),
                    (None, Some((initial, growth, _)))
                        if run.failures[lane] > 0 && run.statuses[lane].is_ok() =>
                    {
                        Some(initial * growth.powi(run.failures[lane] as i32 - 1))
                    }
                    _ => None,
                };
                if let Some(relative) = relative {
                    run.shifts[lane] = self.shift_lane(lanes, run.vals, lane, relative);
                }
                run.replaced[lane].store(0, Ordering::Relaxed);
                run.dropped[lane].store(0, Ordering::Relaxed);
                run.failed[lane].store(usize::MAX, Ordering::Relaxed);
            }
            let ctx = NumericCtx {
                rowptr: &c.rowptr,
                colidx: &c.colidx,
                diag_pos: &c.diag_pos,
                upd_ptr: &c.upd_ptr,
                upd: &c.upd,
                vals: run.vals,
                drop_thresh: run.drop_thresh,
                milu_omega: T::from_f64(c.opts.milu_omega),
                pivot_threshold: T::from_f64(c.opts.pivot_threshold),
                zero_pivot: c.opts.zero_pivot,
                replaced: run.replaced,
                dropped: run.dropped,
                failed_row: run.failed,
            };
            self.run_engines(lanes, &ctx, &run);
            let mut retry = false;
            for lane in 0..k {
                let failed = run.failed[lane].load(Ordering::Relaxed);
                if failed == usize::MAX || run.statuses[lane].is_err() {
                    continue;
                }
                let row = failed - 1;
                run.failures[lane] += 1;
                match retry_policy {
                    Some((_, _, max_attempts)) if run.failures[lane] <= max_attempts => {
                        retry = true
                    }
                    Some((_, _, max_attempts)) => {
                        run.statuses[lane] = Err(SparseError::Breakdown {
                            row,
                            attempts: max_attempts + 1,
                            shift: run.shifts[lane],
                        })
                    }
                    None => run.statuses[lane] = Err(SparseError::ZeroPivot { row }),
                }
            }
            if !retry {
                return;
            }
        }
    }

    /// Loads every lane's matrix values into the interleaved buffer
    /// through the precomputed source map (fill positions get zero) and
    /// recomputes the per-lane τ drop thresholds in place.
    fn load_values<L: Lanes>(
        &self,
        lanes: L,
        mats: &[&CsrMatrix<T>],
        vals: &LuVals<T>,
        drop_thresh: &mut [T],
    ) {
        let c = &*self.core;
        let k = lanes.width();
        assert_eq!(mats.len(), k);
        for (e, &src) in c.a_src.iter().enumerate() {
            for lane in 0..k {
                let v = if src == FILL {
                    T::ZERO
                } else {
                    mats[lane].vals()[src as usize]
                };
                vals.set(e * k + lane, v);
            }
        }
        // τ drop thresholds, relative to the original row norms (Saad's
        // ILUT convention).
        if c.opts.drop_tol > 0.0 {
            let new_to_old = c.perm.new_to_old();
            for (new_r, &old_r) in new_to_old.iter().enumerate() {
                for (lane, a) in mats.iter().enumerate() {
                    let norm = a.row_vals(old_r).iter().map(|&v| v * v).sum::<T>().sqrt();
                    drop_thresh[lanes.idx(new_r, lane)] = T::from_f64(c.opts.drop_tol) * norm;
                }
            }
        }
    }

    /// Boosts `lane`'s freshly loaded diagonal away from zero by
    /// `relative_shift · max|aᵢᵢ|` of **that lane** (falling back to an
    /// absolute shift when its diagonal is entirely zero), signed to
    /// move each entry away from the origin. Returns the absolute shift
    /// applied.
    fn shift_lane<L: Lanes>(
        &self,
        lanes: L,
        vals: &LuVals<T>,
        lane: usize,
        relative_shift: f64,
    ) -> f64 {
        let diag = || self.core.diag_pos.iter().map(|&dp| lanes.idx(dp, lane));
        let mut scale = diag().fold(0.0f64, |m, i| m.max(vals.get(i).abs().to_f64()));
        if scale == 0.0 {
            scale = 1.0;
        }
        let shift = relative_shift * scale;
        let shift_t = T::from_f64(shift);
        for i in diag() {
            let d = vals.get(i);
            vals.set(
                i,
                if d < T::ZERO {
                    d - shift_t
                } else {
                    d + shift_t
                },
            );
        }
        shift
    }

    /// One numeric sweep over the loaded buffer: serial when
    /// single-threaded, otherwise the point-to-point upper stage and the
    /// Even-Rows lower stage as regions on the analysis's execution
    /// context, then the corner serially. Bit-identical to the serial
    /// sweep, at every width.
    fn run_engines<L: Lanes>(&self, lanes: L, ctx: &NumericCtx<'_, T>, run: &NumericRun<'_, T>) {
        let c = &*self.core;
        let (n, n_upper) = (c.n, c.plan.n_upper);
        if c.nthreads == 1 {
            factor_rows_serial(lanes, ctx, 0, n, 0);
            return;
        }
        factor_upper_p2p_planned(lanes, ctx, &c.plan.fwd, &c.exec, run.progress);
        if n_upper == n {
            return;
        }
        factor_lower_er_planned(lanes, ctx, n_upper, &c.exec);
        factor_rows_serial(lanes, ctx, n_upper, n, n_upper);
    }
}

/// The upper stage's point-to-point schedules at `nthreads` threads,
/// over the permuted LU pattern `(rowptr, colidx, diag_pos)` and the
/// forward and backward level pointers: the one dependency rule behind
/// [`SymbolicIlu::analyze`] and [`SymbolicIlu::p2p_schedules`].
///
/// Forward, row `r` waits on its strictly-lower columns — always sound,
/// even when `lower(A)` levels let same-level dependencies appear (the
/// point-to-point runtime only needs execution-index order). Backward,
/// execution index `t` solves row `bwd_row_of_task[t]` and waits on the
/// tasks of its strictly-upper columns below `n_upper`; the corner is
/// solved before the region starts.
fn p2p_schedules(
    (rowptr, colidx, diag_pos): (&[usize], &[usize], &[usize]),
    [fwd_level_ptr, bwd_level_ptr]: [&[usize]; 2],
    bwd_row_of_task: &[usize],
    nthreads: usize,
) -> (P2PSchedule, P2PSchedule) {
    let n_upper = bwd_row_of_task.len();
    let mut bwd_task_of_row = vec![0usize; n_upper];
    for (t, &r) in bwd_row_of_task.iter().enumerate() {
        bwd_task_of_row[r] = t;
    }
    let fwd_deps = |r: usize, out: &mut Vec<usize>| {
        debug_assert!(
            colidx[rowptr[r]..diag_pos[r]].iter().all(|&c| c < n_upper),
            "upper-stage row depends on trailing row"
        );
        out.extend_from_slice(&colidx[rowptr[r]..diag_pos[r]]);
    };
    let bwd_deps = |task: usize, out: &mut Vec<usize>| {
        let r = bwd_row_of_task[task];
        let upper = &colidx[diag_pos[r] + 1..rowptr[r + 1]];
        out.extend(
            upper
                .iter()
                .filter(|&&c| c < n_upper)
                .map(|&c| bwd_task_of_row[c]),
        );
    };
    let fwd = P2PSchedule::build(n_upper, nthreads, fwd_level_ptr, fwd_deps);
    let bwd = P2PSchedule::build(n_upper, nthreads, bwd_level_ptr, bwd_deps);
    // The block walks are race-free and deadlock-free only on a sound
    // schedule (waits dominate every dependency and target blocks that
    // end before the waiter starts), and publish once per thread and
    // level only on one block per level: check both, independently of
    // how `build` produced them.
    debug_assert!(fwd.validate(fwd_deps), "forward schedule is unsound");
    debug_assert!(
        fwd.has_level_blocks(fwd_level_ptr),
        "forward schedule is not blocked per level"
    );
    debug_assert!(bwd.validate(bwd_deps), "backward schedule is unsound");
    debug_assert!(
        bwd.has_level_blocks(bwd_level_ptr),
        "backward schedule is not blocked per level"
    );
    (fwd, bwd)
}

/// Everything one [`SymbolicIlu::run_numeric`] call works on, all
/// owned by the calling [`FactorsBatch`](crate::FactorsBatch) (its
/// width-`k` buffers and per-lane state) or by the analysis (the
/// pattern-only scratch), so no width allocates. Per-lane slices have
/// one element per lane.
pub(crate) struct NumericRun<'a, T> {
    /// One pattern-checked matrix per lane.
    pub mats: &'a [&'a CsrMatrix<T>],
    /// Lane-interleaved value buffer (`nnz·k`).
    pub vals: &'a LuVals<T>,
    /// Lane-interleaved τ thresholds (`n·k`; empty when dropping is off).
    pub drop_thresh: &'a mut [T],
    /// The analysis's p2p counters (pattern-only, shared by every
    /// width), borrowed under the `SymCore::progress` lock.
    pub progress: &'a ProgressCounters,
    /// Kernel counters of the latest sweep.
    pub replaced: &'a [AtomicUsize],
    pub dropped: &'a [AtomicUsize],
    pub failed: &'a [AtomicUsize],
    /// Failed sweeps per lane.
    pub failures: &'a mut [usize],
    /// Absolute diagonal shift last applied per lane.
    pub shifts: &'a mut [f64],
    /// Per-lane outcome.
    pub statuses: &'a mut [Result<(), SparseError>],
}

#[cfg(test)]
mod tests {
    use super::*;
    use javelin_synth::circuit::{power_grid, transient_circuit};
    use javelin_synth::fem::shell_strip;
    use javelin_synth::grid::{
        convection_diffusion_2d, convection_diffusion_3d, laplace_2d, laplace_3d,
    };
    use javelin_synth::util::{bordered, drop_random_offdiag};
    use proptest::prelude::*;

    /// The update list re-derived the way the probe walk found it: for
    /// every L entry `(r, c)` of `lu`'s pattern, every `u(c, j)` with
    /// `j > c`, looked up in row `r` by binary search.
    fn probe_enumeration(lu: &CsrMatrix<f64>) -> (Vec<u32>, Vec<[u32; 2]>) {
        let rowptr = lu.rowptr();
        let (mut ptr, mut list) = (vec![0u32], Vec::new());
        for r in 0..lu.nrows() {
            let row = lu.row_cols(r);
            for &c in row {
                if c < r {
                    for (uk, &j) in (rowptr[c]..).zip(lu.row_cols(c)) {
                        if j <= c {
                            continue;
                        }
                        if let Ok(p) = row.binary_search(&j) {
                            let dst = u32::try_from(rowptr[r] + p).unwrap();
                            list.push([dst, u32::try_from(uk).unwrap()]);
                        }
                    }
                }
                ptr.push(u32::try_from(list.len()).unwrap());
            }
        }
        (ptr, list)
    }

    /// `analyze`'s update list against the probe enumeration of the
    /// factored LU pattern, at one fill level and thread count.
    fn assert_update_list_is_the_probe_enumeration(
        what: &str,
        a: &CsrMatrix<f64>,
        fill: usize,
        nthreads: usize,
    ) -> FactorStats {
        let what = format!("{what} fill {fill} nthreads {nthreads}");
        let opts = IluOptions::ilu0(nthreads).with_fill(fill);
        let sym = SymbolicIlu::analyze(a, &opts).unwrap();
        let f = sym.factor(a).unwrap();
        let (ptr, list) = probe_enumeration(f.lu());
        let c = sym.core();
        assert_eq!(c.upd_ptr, ptr, "{what}: update ranges");
        assert_eq!(c.upd.len(), list.len(), "{what}: update count");
        for (i, (got, want)) in c.upd.iter().zip(&list).enumerate() {
            assert_eq!(got, want, "{what}: update pair {i}");
        }
        assert!(!list.is_empty(), "{what}: nothing eliminated");
        assert_eq!(sym.stats().n_updates, list.len(), "{what}");
        assert_eq!(f.stats().n_updates, list.len(), "{what}: factor stats");
        sym.stats().clone()
    }

    #[test]
    fn update_list_is_the_probe_enumeration_of_the_lu_pattern() {
        let cases: [(&str, CsrMatrix<f64>); 4] = [
            ("laplace_2d", laplace_2d(12, 12)),
            (
                "convection_diffusion_3d",
                convection_diffusion_3d(8, 8, 8, (1.0, 0.5, 0.25)),
            ),
            ("transient_circuit", transient_circuit(300, 20, false, 7)),
            ("bordered", bordered(&laplace_2d(14, 14), 6)),
        ];
        for (name, a) in &cases {
            for fill in 0..=2 {
                for nthreads in 1..=3 {
                    let stats =
                        assert_update_list_is_the_probe_enumeration(name, a, fill, nthreads);
                    if *name == "bordered" {
                        assert!(
                            stats.n_lower_rows > 0,
                            "{name} fill {fill} nthreads {nthreads}: empty lower stage"
                        );
                    }
                }
            }
        }
    }

    /// One of the `javelin-synth` generators at a drawn size and seed,
    /// bordered (a heavy lower stage) when `border > 0`.
    fn generated_matrix() -> impl Strategy<Value = (String, CsrMatrix<f64>)> {
        (0usize..8, 3usize..9, 0u64..1 << 20, 0usize..5).prop_map(|(g, s, seed, border)| {
            let (name, a) = match g {
                0 => ("laplace_2d", laplace_2d(s, s + 1)),
                1 => ("laplace_3d", laplace_3d(s / 2 + 2, 3, 3)),
                2 => (
                    "convection_diffusion_2d",
                    convection_diffusion_2d(s, s, 0.4, -0.3),
                ),
                3 => (
                    "convection_diffusion_3d",
                    convection_diffusion_3d(s / 2 + 2, 3, 3, (1.0, 0.5, 0.25)),
                ),
                4 => (
                    "transient_circuit",
                    transient_circuit(20 * s, s, seed % 2 == 0, seed),
                ),
                5 => ("power_grid", power_grid(20 * s, s, 2, seed)),
                6 => ("shell_strip", shell_strip(s, 3, 2, seed)),
                _ => (
                    "drop_random_offdiag",
                    drop_random_offdiag(&laplace_2d(s, s), 0.3, seed),
                ),
            };
            let a = if border > 0 { bordered(&a, border) } else { a };
            (format!("{name} s {s} seed {seed} border {border}"), a)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn update_list_is_the_probe_enumeration_on_generated_patterns(
            m in generated_matrix(),
            fill in 0usize..3,
            nthreads in 1usize..4,
        ) {
            assert_update_list_is_the_probe_enumeration(&m.0, &m.1, fill, nthreads);
        }
    }
}
