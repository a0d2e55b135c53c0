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
//! walks' counters and barrier are shared by all factor objects of one
//! analysis; a factor object owns only its values, and an apply's
//! width-sized buffer is the caller's
//! [`ApplyScratch`](crate::ApplyScratch).

use crate::factors::{IluFactors, SolvePlan};
use crate::level::{split_levels, LevelSets, P2PSchedule, StagePlan};
use crate::numeric::kernel::update_list;
use crate::numeric::parallel::{
    factor_lower_er_planned, factor_rows_serial, factor_upper_p2p_planned,
};
use crate::numeric::NumericCtx;
use crate::options::{IluOptions, SolveEngine, ZeroPivotPolicy};
use crate::pattern::CsrPattern;
use crate::spmv::SpmvPlan;
use crate::stats::{FactorStats, Work};
use crate::symbolic;
use crate::sync::{
    col_range, ProgressCounters, RegionCells, SpinBarrier, TeamAffinity, WorkerTeam,
};
use javelin_sparse::lanes::{for_each_chunk, Lanes, LANE_CHUNK};
use javelin_sparse::{CsrMatrix, Perm, Scalar, SparseError};
use parking_lot::Mutex;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Marks an LU position with no corresponding entry in `A` (fill).
pub(crate) const FILL: u32 = u32::MAX;

/// The error of a matrix whose `rowptr` or `colidx` differs from the
/// analyzed pattern.
fn pattern_differs() -> SparseError {
    SparseError::PatternMismatch(
        "matrix sparsity differs from the analyzed pattern \
         (re-run SymbolicIlu::analyze for a new pattern)"
            .to_string(),
    )
}

/// Everything pattern-dependent, computed once (see module docs).
pub(crate) struct SymCore {
    pub(crate) n: usize,
    pub(crate) nthreads: usize,
    pub(crate) opts: IluOptions,
    pub(crate) engine_hint: SolveEngine,
    /// Pattern of the analyzed `A`: it validates refactor inputs, and
    /// the analysis's spmv plans stream it.
    a: Arc<CsrPattern>,
    /// Structural fingerprint of the analyzed `A` pattern (the cheap
    /// cache key of pattern-keyed symbolic caches; see
    /// [`javelin_sparse::pattern::pattern_fingerprint`]).
    a_fingerprint: u64,
    /// Permuted combined-LU pattern, with its diagonal positions.
    pub(crate) lu: CsrPattern,
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
    /// The persistent team every region of the analysis runs on.
    pub(crate) team: Arc<WorkerTeam>,
    /// The analysis's only mutable state. Its lock serializes the
    /// numeric runs and the threaded applies of every factor object of
    /// the analysis on the shared team; everything value-carrying — the
    /// work buffer and τ thresholds at the factor's width, an apply's
    /// solve buffer at the panel's — lives with the factor object or
    /// the caller.
    pub(crate) sync: Mutex<SyncState>,
}

/// The point-to-point walks' resettable progress counters and the
/// threaded apply's barrier, one slot per thread: pattern-only, so no
/// width grows them.
pub(crate) struct SyncState {
    /// The forward walk's counters: the threaded apply's and the
    /// numeric sweep's upper stage.
    pub(crate) fwd: ProgressCounters,
    /// The backward walk's, so the fused forward+backward apply never
    /// resets counters mid-flight.
    pub(crate) bwd: ProgressCounters,
    pub(crate) barrier: SpinBarrier,
}

/// The pattern-dependent phase of an incomplete factorization: ordering,
/// ILU(k) fill pattern, level schedule, two-stage split decision,
/// trisolve execution plans and the walks' counters (see module
/// docs). Produce numeric factors with [`SymbolicIlu::factor`]; redo the
/// numeric phase in place with [`IluFactors::refactor`].
///
/// Cloning is cheap (an `Arc` bump) and shares the underlying plans,
/// worker team and counters. The scalar type ties the analysis to the
/// matrices its factors, spmv plans and pattern checks take.
pub struct SymbolicIlu<T> {
    core: Arc<SymCore>,
    _scalar: PhantomData<T>,
}

impl<T> Clone for SymbolicIlu<T> {
    fn clone(&self) -> Self {
        SymbolicIlu {
            core: Arc::clone(&self.core),
            _scalar: PhantomData,
        }
    }
}

impl<T> std::fmt::Debug for SymbolicIlu<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SymbolicIlu")
            .field("n", &self.core.n)
            .field("nnz_lu", &self.core.lu.nnz())
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
    /// context (a persistent worker team) and the walks' counters and
    /// barrier.
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
        // sparsity pattern"), built at `u32` with its diagonal positions;
        // the fill checks that `A`'s and its own entry counts fit. ------
        let t0 = Instant::now();
        let s = symbolic::iluk_pattern_serial(a, opts.fill_level)?;
        stats.t_symbolic = t0.elapsed();
        stats.nnz_lu = s.nnz();

        // ---- Analysis: levels, two-stage split, permutation, schedules.
        // The forward levels read the fill in one pass: no triangle of
        // it is built.
        let t1 = Instant::now();
        let levels0 = LevelSets::compute_forward(&s, opts.level_pattern);
        stats.n_levels = levels0.n_levels();
        let row_nnz: Vec<usize> = (0..n).map(|r| s.row(r).len()).collect();
        let plan0 = split_levels(&levels0, &row_nnz, &opts.split);
        stats.n_upper_levels = plan0.n_upper_levels();
        stats.n_lower_rows = plan0.n_lower();
        // The numeric and solve walks each touch a row once only if the
        // upper levels and the trailing rows' Even-Rows chunks (the
        // same `col_range` partition both walks take) cover it once.
        debug_assert!(
            plan0.covers_rows_once(nthreads, |tid| col_range(plan0.n_lower(), nthreads, tid)),
            "two-stage split and Even-Rows chunks do not cover every row once"
        );
        let StagePlan {
            perm,
            upper_level_ptr,
            n_upper,
        } = plan0;

        // Permute the pattern and record, for every LU position, which
        // entry of `A` seeds it (fill positions start at zero) — the
        // paper's "copy-fill-in phase" reduced to an index map so the
        // numeric phase can reload values from any pattern-identical
        // matrix without re-merging. `A`'s entry count fits a `u32`, so
        // every source index is below `FILL`, and the fill's entry count
        // bounds every LU row pointer, diagonal position and column.
        let old_to_new = perm.old_to_new();
        let new_to_old = perm.new_to_old();
        let mut rowptr = vec![0u32; n + 1];
        let mut colidx: Vec<u32> = Vec::with_capacity(s.nnz());
        let mut diag_pos: Vec<u32> = Vec::with_capacity(n);
        let mut a_src: Vec<u32> = Vec::with_capacity(s.nnz());
        {
            let mut merge: Vec<(u32, u32)> = Vec::new();
            for new_r in 0..n {
                let old_r = new_to_old[new_r];
                merge.clear();
                // Merge: S row ⊇ A row, both sorted by old column.
                let a_cols = a.row_cols(old_r);
                let a_lo = a.rowptr()[old_r];
                let mut ai = 0usize;
                for &old_c in &s.colidx[s.row(old_r)] {
                    let old_c = old_c as usize;
                    let src = if ai < a_cols.len() && a_cols[ai] == old_c {
                        ai += 1;
                        (a_lo + ai - 1) as u32
                    } else {
                        FILL
                    };
                    merge.push((old_to_new[old_c] as u32, src));
                }
                debug_assert_eq!(ai, a_cols.len(), "A row not contained in pattern row");
                merge.sort_unstable_by_key(|&(c, _)| c);
                for &(c, src) in merge.iter() {
                    if c as usize == new_r {
                        diag_pos.push(colidx.len() as u32);
                    }
                    colidx.push(c);
                    a_src.push(src);
                }
                rowptr[new_r + 1] = colidx.len() as u32;
            }
        }
        // Nothing reads the fill again: free it before the update list
        // is built.
        drop(s);
        assert_eq!(diag_pos.len(), n, "diagonal lost in the permutation");
        let lu = CsrPattern {
            rowptr,
            colidx,
            diag_pos,
        };
        // The copy-fill-in map's numeric counterpart: every elimination
        // update of the pattern, resolved once for every numeric walk.
        let (upd_ptr, upd) = update_list(&lu.rowptr, &lu.colidx, &lu.diag_pos)?;
        // The kernel's row bounds rest on every `dst` lying in its L
        // entry's row and every `src` in the pivot row's U part.
        #[cfg(debug_assertions)]
        {
            let (ptr, list) =
                crate::numeric::kernel::probe_enumeration(&lu.rowptr, &lu.colidx, &lu.diag_pos);
            debug_assert!(
                upd_ptr == ptr && upd == list,
                "update list differs from the probe enumeration of the LU pattern"
            );
        }
        stats.n_updates = upd.len();

        // Backward levels over the upper stage (upper-pattern deps
        // restricted to columns < n_upper; corner columns are solved
        // before the parallel region starts), read from the LU pattern.
        let (bwd_level_ptr, bwd_row_of_task) =
            LevelSets::compute_backward(&lu, n_upper).into_parts();
        let (fwd, bwd) = p2p_schedules(
            &lu,
            [&upper_level_ptr, &bwd_level_ptr],
            &bwd_row_of_task,
            nthreads,
        );
        // Every strictly-lower entry of an upper-stage row is one raw
        // forward dependency.
        stats.n_raw_deps = (0..n_upper)
            .map(|r| (lu.diag_pos[r] - lu.rowptr[r]) as usize)
            .sum();
        stats.n_waits = fwd.n_waits();

        // Each trailing row's sub-corner prefix, for the solve's
        // Even-Rows stage.
        let block_rows = (n_upper..n)
            .map(|r| {
                let row = lu.row(r);
                let prefix = lu.colidx[row.clone()].partition_point(|&c| (c as usize) < n_upper);
                (row.start, row.start + prefix)
            })
            .collect();

        let plan = SolvePlan {
            n_upper,
            upper_level_ptr,
            fwd,
            bwd,
            bwd_row_of_task,
            bwd_level_ptr,
            block_rows,
        };

        // Solve/refactor execution state, built once: a caller-shared
        // team if one was provided, else a team of this analysis's own
        // (a one-participant team spawns nothing). A serial analysis
        // never pins: a compact team would bind the *caller* to core 0.
        let team = if let Some(team) = &opts.shared_team {
            Arc::clone(team)
        } else if opts.pin_threads && nthreads > 1 {
            Arc::new(WorkerTeam::with_affinity(nthreads, TeamAffinity::Compact))
        } else {
            Arc::new(WorkerTeam::new(nthreads))
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
                a: Arc::new(CsrPattern::of_matrix(a)?),
                lu,
                a_src,
                upd_ptr,
                upd,
                perm,
                plan,
                stats,
                team,
                sync: Mutex::new(SyncState {
                    fwd: ProgressCounters::new(nthreads),
                    bwd: ProgressCounters::new(nthreads),
                    barrier: SpinBarrier::new(nthreads),
                }),
            }),
            _scalar: PhantomData,
        })
    }

    /// The upper stage's point-to-point schedules, forward and
    /// backward, rebuilt for `nthreads` threads from this analysis's
    /// pattern and levels: the rule [`SymbolicIlu::analyze`] builds
    /// [`SolvePlan::fwd`] and [`SolvePlan::bwd`] with, for counting
    /// spans at other thread counts.
    pub fn p2p_schedules(&self, nthreads: usize) -> (P2PSchedule, P2PSchedule) {
        let c = &*self.core;
        p2p_schedules(
            &c.lu,
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
        self.core.lu.nnz()
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

    /// The exact work of one numeric sweep of a width-`k` refactor on
    /// these plans (see [`Work`]): the load region (which checks the
    /// pattern on the first sweep), then the point-to-point upper stage
    /// and, with trailing rows, the Even-Rows stage, each one region;
    /// the corner runs on the caller after the joins, and the commit
    /// swaps buffers. No nnz-length pass runs on the caller, no walk
    /// passes a barrier, and nothing here grows with `k`. A one-thread
    /// analysis runs the same load and the serial walk inline: no
    /// region wakes a worker and no schedule is read. Each `ShiftRetry`
    /// re-sweep repeats this work. A width-0 call is no work, as for
    /// [`SymbolicIlu::work`].
    pub fn refactor_work(&self, k: usize) -> Work {
        let c = &*self.core;
        if k == 0 || c.nthreads == 1 {
            return Work::default();
        }
        let fwd = &c.plan.fwd;
        Work {
            caller_vector_passes: 0,
            schedule_bytes: fwd.walk_bytes(),
            wait_checks: fwd.n_waits(),
            publications: fwd.n_blocks(),
            barriers: 0,
            regions: if c.plan.n_upper < c.n { 3 } else { 2 },
        }
    }

    /// The counted span of one refactor sweep at `nthreads` threads:
    /// its critical path when a row costs its elimination updates plus
    /// its entries and synchronization is free. It follows the walk
    /// `run_engines` runs: the makespan of the upper stage's forward
    /// schedule at `nthreads` ([`P2PSchedule::makespan`]), plus the
    /// heaviest Even-Rows share of the trailing rows' work left of the
    /// corner, plus the corner, which runs serially. At one thread it
    /// is the serial work, [`FactorStats::n_updates`] plus the LU
    /// entries, so `refactor_span(1) / refactor_span(t)` bounds the
    /// sweep's speedup on `t` cores.
    pub fn refactor_span(&self, nthreads: usize) -> usize {
        let c = &*self.core;
        let cost = |e: Range<usize>| e.len() + (c.upd_ptr[e.end] - c.upd_ptr[e.start]) as usize;
        let (fwd, _) = self.p2p_schedules(nthreads);
        fwd.makespan(|r| cost(c.lu.row(r))) + self.trailing_span(nthreads, cost)
    }

    /// The counted span of one apply at `nthreads` threads: its
    /// critical path when a row costs the LU entries each sweep streams
    /// (the forward sweep its strictly lower part, the backward sweep
    /// its diagonal and upper part) and synchronization is free. It
    /// follows the walk `solve_p2p_fused` runs: the forward makespan,
    /// the heaviest Even-Rows share of the trailing rows' sub-corner
    /// entries, the corner's forward and backward solves, serial, and
    /// the backward makespan. At one thread it is the serial work, the
    /// LU entries.
    pub fn apply_span(&self, nthreads: usize) -> usize {
        let c = &*self.core;
        let (lu, plan) = (&c.lu, &c.plan);
        let diag = |r: usize| lu.diag_pos[r] as usize;
        let (fwd, bwd) = self.p2p_schedules(nthreads);
        fwd.makespan(|r| diag(r) - lu.row(r).start)
            + self.trailing_span(nthreads, |e| e.len())
            + bwd.makespan(|task| {
                let r = plan.bwd_row_of_task[task];
                lu.row(r).end - diag(r)
            })
    }

    /// The trailing rows' part of a span at `nthreads` threads, `cost`
    /// pricing a range of LU entries: the heaviest Even-Rows chunk
    /// (`col_range` of the trailing rows, as both walks cut it) of
    /// their entries left of the corner, plus the rest of each row,
    /// serially.
    fn trailing_span(&self, nthreads: usize, cost: impl Fn(Range<usize>) -> usize) -> usize {
        let c = &*self.core;
        let rows = &c.plan.block_rows;
        let nthreads = nthreads.max(1);
        let even_rows = (0..nthreads)
            .map(|tid| {
                col_range(rows.len(), nthreads, tid)
                    .map(|off| cost(rows[off].0..rows[off].1))
                    .sum::<usize>()
            })
            .max()
            .unwrap_or(0);
        let corner: usize = rows
            .iter()
            .enumerate()
            .map(|(off, &(_, k_hi))| cost(k_hi..c.lu.row(c.plan.n_upper + off).end))
            .sum();
        even_rows + corner
    }

    /// An spmv plan for `a` on this analysis's own team — the team its
    /// factorizations and applies run on, pinned when the analysis is —
    /// so the plan spawns nothing. It shares the analysis's `u32` copy
    /// of the analyzed pattern instead of copying `a`'s, so `a` must
    /// carry that pattern, as must every matrix its executes are handed
    /// (see [`SpmvPlan`]). Its executes are bitwise
    /// [`CsrMatrix::spmv_into`]; a one-thread analysis's plan runs on
    /// the caller.
    ///
    /// # Panics
    /// Debug builds: when `a`'s pattern differs from the analyzed one.
    pub fn spmv_plan(&self, a: &CsrMatrix<T>) -> SpmvPlan<T> {
        let c = &*self.core;
        debug_assert!(c.a.matches(a), "spmv_plan: `a` is not the analyzed pattern");
        SpmvPlan::on(Arc::clone(&c.team), Arc::clone(&c.a), c.n)
    }

    /// The bytes of every index array the analysis owns, exactly:
    /// `len × size_of` summed over its copy of `A`'s pattern and the LU
    /// pattern (`u32` each: 4 B·(3n + 2 + nnz_A + nnz_LU) together), the
    /// `a_src` map, the update list, the permutation and the
    /// [`SolvePlan`], schedules included. Not counted: the worker team
    /// and the walks' counters and barrier, a few words per thread. The
    /// analysis holds no value buffer: an apply solves in the caller's
    /// [`ApplyScratch`](crate::ApplyScratch).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        let c = &*self.core;
        c.a.heap_bytes()
            + c.lu.heap_bytes()
            + size_of_val(&c.a_src[..])
            + size_of_val(&c.upd_ptr[..])
            + size_of_val(&c.upd[..])
            + size_of_val(c.perm.new_to_old())
            + size_of_val(c.perm.old_to_new())
            + c.plan.heap_bytes()
    }

    /// Symbolic/analysis statistics (numeric fields are zero; each
    /// [`IluFactors`] carries the completed statistics).
    pub fn stats(&self) -> &FactorStats {
        &self.core.stats
    }

    pub(crate) fn core(&self) -> &SymCore {
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
        self.check_shape(a)?;
        if !c.a.matches(a) {
            return Err(pattern_differs());
        }
        Ok(())
    }

    /// The O(1) half of [`SymbolicIlu::check_pattern`]: `a`'s dimensions
    /// and entry count. A matrix that passes has a `rowptr` and a
    /// `colidx` as long as the analyzed ones, so the load region can
    /// compare them and gather through `a_src` inside `a`'s values.
    ///
    /// # Errors
    /// [`SparseError::PatternMismatch`] otherwise.
    pub(crate) fn check_shape(&self, a: &CsrMatrix<T>) -> Result<(), SparseError> {
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
        if a.nnz() != c.a.nnz() {
            return Err(pattern_differs());
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
    /// team and counters; call [`IluFactors::refactor`] on them for
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

    /// The one numeric driver: load region (which also checks the
    /// patterns) → per-lane sticky shift → engines → per-lane outcome,
    /// for `lanes.width()` shape-checked ([`SymbolicIlu::check_shape`])
    /// matrices at once. Every numeric entry point —
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
    /// On `Ok`, `run.statuses[c]` holds lane `c`'s outcome; for `Ok`
    /// lanes the factor is in `run.vals` and `run.replaced` /
    /// `run.dropped` / `run.failures` (failed sweeps; attempts − 1) /
    /// `run.shifts` describe the successful sweep.
    ///
    /// # Errors
    /// [`SparseError::PatternMismatch`] when a matrix's `rowptr` or
    /// `colidx` differs from the analyzed pattern, decided right after
    /// the first load and before any engine runs. Only `run.vals` and
    /// `run.drop_thresh` have then been written.
    pub(crate) fn run_numeric<L: Lanes>(
        &self,
        lanes: L,
        run: NumericRun<'_, T>,
        forced_shift: Option<f64>,
    ) -> Result<(), SparseError> {
        let c = &*self.core;
        let k = lanes.width();
        assert_eq!(run.mats.len(), k, "one matrix per lane");
        self.load_values(lanes, run.mats, run.vals, run.drop_thresh, true)?;
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
                rowptr: &c.lu.rowptr,
                colidx: &c.lu.colidx,
                diag_pos: &c.lu.diag_pos,
                upd_ptr: &c.upd_ptr,
                upd: &c.upd,
                vals: RegionCells::new(run.vals),
                drop_thresh: run.drop_thresh,
                milu_omega: T::from_f64(c.opts.milu_omega),
                pivot_threshold: T::from_f64(c.opts.pivot_threshold),
                zero_pivot: c.opts.zero_pivot,
                replaced: run.replaced,
                dropped: run.dropped,
                failed_row: run.failed,
            };
            self.run_engines(lanes, &ctx, run.progress);
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
                return Ok(());
            }
            // Reload: the failed sweep left the buffer partially
            // factored. The patterns were checked by the first load.
            self.load_values(lanes, run.mats, run.vals, run.drop_thresh, false)?;
        }
    }

    /// The load region: loads every lane's matrix values into the
    /// interleaved buffer through the precomputed source map (fill
    /// positions get zero) and recomputes the per-lane τ drop
    /// thresholds, as one region on the analysis's team. Participant
    /// `tid` owns the `col_range` share of three ranges: the LU entries
    /// (the `a_src` gather, every lane of each), the rows (their τ
    /// thresholds) and — when `check` is set — `0..=n` of `rowptr` and
    /// `0..nnz_A` of `colidx`, which it compares with the analyzed
    /// pattern. The matrices must have passed
    /// [`SymbolicIlu::check_shape`], so every source index lies inside
    /// their values whatever their pattern. Bit-identical at every
    /// thread count: each slot is one copy or one row norm.
    ///
    /// # Errors
    /// [`SparseError::PatternMismatch`] when `check` is set and a
    /// matrix's pattern differs; the buffers are then fully written
    /// from its values all the same.
    fn load_values<L: Lanes>(
        &self,
        lanes: L,
        mats: &[&CsrMatrix<T>],
        vals: &mut [T],
        drop_thresh: &mut [T],
        check: bool,
    ) -> Result<(), SparseError> {
        let c = &*self.core;
        assert_eq!(mats.len(), lanes.width());
        let nthreads = c.nthreads;
        let new_to_old = c.perm.new_to_old();
        // τ drop thresholds, relative to the original row norms (Saad's
        // ILUT convention).
        let tau = (c.opts.drop_tol > 0.0).then(|| T::from_f64(c.opts.drop_tol));
        let vals = RegionCells::new(vals);
        let drop_thresh = RegionCells::new(drop_thresh);
        let mismatch = AtomicBool::new(false);
        c.team.run(|tid| {
            // Capture the `Sync` wrappers whole, not their `Cell` fields,
            // and read the width here, where a fixed width is a constant.
            let (vals, drop_thresh, k) = (&vals, &drop_thresh, lanes.width());
            if check {
                let ptrs = col_range(c.a.rowptr.len(), nthreads, tid);
                let cols = col_range(c.a.nnz(), nthreads, tid);
                let differs = mats
                    .iter()
                    .any(|a| !c.a.same_ranges(a, ptrs.clone(), cols.clone()));
                if differs {
                    mismatch.store(true, Ordering::Relaxed);
                }
            }
            let entries = col_range(c.a_src.len(), nthreads, tid);
            let mine = &vals.0[entries.start * k..entries.end * k];
            for_each_chunk(0..k, |c0, cw| {
                // The lanes' value slices are hoisted out of the entry
                // loop: a cell store may alias anything read through
                // `mats`, so the loop would reload each slice per entry.
                let mut srcs: [&[T]; LANE_CHUNK] = [&[]; LANE_CHUNK];
                for (s, a) in srcs.iter_mut().zip(&mats[c0..c0 + cw]) {
                    *s = a.vals();
                }
                for (lanes_of_e, &src) in mine.chunks_exact(k).zip(&c.a_src[entries.clone()]) {
                    for (v, a) in lanes_of_e[c0..c0 + cw].iter().zip(&srcs) {
                        v.set(if src == FILL {
                            T::ZERO
                        } else {
                            a[src as usize]
                        });
                    }
                }
            });
            if let Some(tau) = tau {
                for new_r in col_range(c.n, nthreads, tid) {
                    let old_r = new_to_old[new_r];
                    for (lane, a) in mats.iter().enumerate() {
                        let norm = a.row_vals(old_r).iter().map(|&v| v * v).sum::<T>().sqrt();
                        drop_thresh.0[lanes.idx(new_r, lane)].set(tau * norm);
                    }
                }
            }
        });
        // The region join orders every participant's store before this
        // load.
        if mismatch.into_inner() {
            return Err(pattern_differs());
        }
        Ok(())
    }

    /// Boosts `lane`'s freshly loaded diagonal away from zero by
    /// `relative_shift · max|aᵢᵢ|` of **that lane** (falling back to an
    /// absolute shift when its diagonal is entirely zero), signed to
    /// move each entry away from the origin. Returns the absolute shift
    /// applied.
    fn shift_lane<L: Lanes>(
        &self,
        lanes: L,
        vals: &mut [T],
        lane: usize,
        relative_shift: f64,
    ) -> f64 {
        let diag = || {
            let diag_pos = self.core.lu.diag_pos.iter();
            diag_pos.map(|&dp| lanes.idx(dp as usize, lane))
        };
        let mut scale = diag().fold(0.0f64, |m, i| m.max(vals[i].abs().to_f64()));
        if scale == 0.0 {
            scale = 1.0;
        }
        let shift = relative_shift * scale;
        let shift_t = T::from_f64(shift);
        for i in diag() {
            let d = &mut vals[i];
            *d = if *d < T::ZERO {
                *d - shift_t
            } else {
                *d + shift_t
            };
        }
        shift
    }

    /// One numeric sweep over the loaded buffer: serial when
    /// single-threaded, otherwise the point-to-point upper stage and the
    /// Even-Rows lower stage as regions on the analysis's execution
    /// context, then the corner serially. Bit-identical to the serial
    /// sweep, at every width.
    fn run_engines<L: Lanes>(
        &self,
        lanes: L,
        ctx: &NumericCtx<'_, T>,
        progress: &ProgressCounters,
    ) {
        let c = &*self.core;
        let (n, n_upper) = (c.n, c.plan.n_upper);
        if c.nthreads == 1 {
            factor_rows_serial(lanes, ctx, 0, n, 0);
            return;
        }
        factor_upper_p2p_planned(lanes, ctx, &c.plan.fwd, &c.team, progress);
        if n_upper == n {
            return;
        }
        factor_lower_er_planned(lanes, ctx, n_upper, &c.team);
        factor_rows_serial(lanes, ctx, n_upper, n, n_upper);
    }
}

/// The upper stage's point-to-point schedules at `nthreads` threads,
/// over the permuted LU pattern `lu` and the forward and backward
/// level pointers: the one dependency rule behind
/// [`SymbolicIlu::analyze`] and [`SymbolicIlu::p2p_schedules`].
///
/// Forward, row `r` waits on its strictly-lower columns — always sound,
/// even when `lower(A)` levels let same-level dependencies appear (the
/// point-to-point runtime only needs execution-index order). Backward,
/// execution index `t` solves row `bwd_row_of_task[t]` and waits on the
/// tasks of its strictly-upper columns below `n_upper`; the corner is
/// solved before the region starts.
fn p2p_schedules(
    lu: &CsrPattern,
    [fwd_level_ptr, bwd_level_ptr]: [&[usize]; 2],
    bwd_row_of_task: &[usize],
    nthreads: usize,
) -> (P2PSchedule, P2PSchedule) {
    let n_upper = bwd_row_of_task.len();
    let mut bwd_task_of_row = vec![0usize; n_upper];
    for (t, &r) in bwd_row_of_task.iter().enumerate() {
        bwd_task_of_row[r] = t;
    }
    let lower = |r: usize| &lu.colidx[lu.rowptr[r] as usize..lu.diag_pos[r] as usize];
    let upper = |r: usize| &lu.colidx[lu.diag_pos[r] as usize + 1..lu.rowptr[r + 1] as usize];
    let fwd_deps = |r: usize, out: &mut Vec<usize>| {
        debug_assert!(
            lower(r).iter().all(|&c| (c as usize) < n_upper),
            "upper-stage row depends on trailing row"
        );
        out.extend(lower(r).iter().map(|&c| c as usize));
    };
    let bwd_deps = |task: usize, out: &mut Vec<usize>| {
        let upper = upper(bwd_row_of_task[task]);
        out.extend(
            upper
                .iter()
                .map(|&c| c as usize)
                .filter(|&c| c < n_upper)
                .map(|c| bwd_task_of_row[c]),
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
/// width-`k` buffers and per-lane state) or by the analysis (its
/// pattern-only counters), so no width allocates. Per-lane slices have
/// one element per lane.
pub(crate) struct NumericRun<'a, T> {
    /// One pattern-checked matrix per lane.
    pub mats: &'a [&'a CsrMatrix<T>],
    /// Lane-interleaved value buffer (`nnz·k`).
    pub vals: &'a mut [T],
    /// Lane-interleaved τ thresholds (`n·k`; empty when dropping is off).
    pub drop_thresh: &'a mut [T],
    /// The analysis's forward p2p counters (pattern-only, shared by
    /// every width), borrowed under the `SymCore::sync` lock.
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
    use crate::numeric::kernel::probe_enumeration;
    use crate::test_matrices::generated_matrix;
    use javelin_sparse::pattern::{level_pattern_of, LevelPattern, SparsityPattern};
    use javelin_synth::circuit::transient_circuit;
    use javelin_synth::grid::{convection_diffusion_3d, laplace_2d};
    use javelin_synth::util::bordered;
    use proptest::prelude::*;

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
        let lu = f.lu();
        let diag_pos = lu.diag_positions().unwrap();
        let (ptr, list) = probe_enumeration(lu.rowptr(), lu.colidx(), &diag_pos);
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

    /// FNV-1a over indices widened to `u64`, so the width an array is
    /// stored at cannot change its hash.
    fn fnv1a<I: Into<u64>>(words: impl IntoIterator<Item = I>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for byte in words.into_iter().flat_map(|w| w.into().to_le_bytes()) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Every index `analyze` produces, hashed per array: the LU pattern
    /// (`rowptr`, `colidx`), `diag_pos`, `a_src`, the update list
    /// (`upd_ptr`, `upd`), `block_rows`, `bwd_row_of_task`, and the
    /// forward and backward schedules' walks (per thread, each block's
    /// task range and wait pairs).
    fn analysis_hashes(a: &CsrMatrix<f64>, opts: &IluOptions) -> [u64; 10] {
        let sym = SymbolicIlu::analyze(a, opts).unwrap();
        let f = sym.factor(a).unwrap();
        let (lu, c, plan) = (f.lu(), sym.core(), sym.plan());
        let wide = |v: usize| v as u64;
        let walk = |s: &P2PSchedule| {
            let mut words = Vec::new();
            for tid in 0..s.nthreads() {
                words.push(s.thread_blocks(tid).len());
                for (rows, waits) in s.thread_blocks(tid) {
                    words.extend([rows.start, rows.end, waits.len()]);
                    words.extend(waits.iter().flat_map(|&(t, done)| [t, done]));
                }
            }
            fnv1a(words.into_iter().map(wide))
        };
        [
            fnv1a(lu.rowptr().iter().map(|&v| wide(v))),
            fnv1a(lu.colidx().iter().map(|&v| wide(v))),
            fnv1a(f.diag_positions().iter().map(|&v| wide(v))),
            fnv1a(c.a_src.iter().copied()),
            fnv1a(c.upd_ptr.iter().copied()),
            fnv1a(c.upd.iter().flatten().copied()),
            fnv1a(
                plan.block_rows
                    .iter()
                    .flat_map(|&(lo, hi)| [lo, hi])
                    .map(wide),
            ),
            fnv1a(plan.bwd_row_of_task.iter().map(|&v| wide(v))),
            walk(&plan.fwd),
            walk(&plan.bwd),
        ]
    }

    /// `analyze`'s output pinned as hashes recorded before the analysis
    /// stored its patterns as `u32`: a change of storage must not move
    /// one index, at any thread count.
    #[test]
    fn analyze_output_matches_committed_pins() {
        let grid = convection_diffusion_3d(14, 14, 14, (30.0, 20.0, 10.0));
        let circuit = transient_circuit(1500, 40, false, 11);
        // Per matrix: the eight thread-independent hashes, then the
        // forward and backward walks at t = 1, 2, 3.
        #[rustfmt::skip]
        let pins: [(&str, &CsrMatrix<f64>, usize, [u64; 8], [[u64; 2]; 3]); 2] = [
            (
                "grid", &grid, 0,
                [
                    0xd26f578e0180af5b, 0x8b39c73428dafaf1, 0xc10eb0c0fbac5c21, 0x1f8c2cec19d870c1,
                    0x0e1c20461c4397c6, 0x7217dfaae70a8d19, 0x92ebf6e6d6d15ec9, 0x7fd2526b5a175c9b,
                ],
                [
                    [0x547ab9d34b79fa53, 0x547ab9d34b79fa53],
                    [0xd1fd697106b74b2e, 0x834c41751fe7af08],
                    [0xd1ce231e8f9bca2d, 0x7051f8bd596ce44f],
                ],
            ),
            (
                "circuit", &circuit, 1,
                [
                    0x93d918cd9ec966b1, 0x1e255b4d6037e378, 0xa6c84d14ba3d6ada, 0xce8809734ab6edac,
                    0xa76d8fb9797b8ac9, 0x6d5533f2f5a1e0c6, 0xa3d4aa2454de2133, 0x26ed351504ef37d4,
                ],
                [
                    [0xa2c5ae811d302851, 0xa2c5ae811d302851],
                    [0x2add86e343afa150, 0xc9f1cc6869892e51],
                    [0xa48fa7126aad9f0e, 0x4c1449470e5ae9be],
                ],
            ),
        ];
        let names = [
            "rowptr",
            "colidx",
            "diag_pos",
            "a_src",
            "upd_ptr",
            "upd",
            "block_rows",
            "bwd_row_of_task",
            "fwd walk",
            "bwd walk",
        ];
        for (name, a, fill, arrays, walks) in pins {
            for (nthreads, walks) in (1..).zip(walks) {
                let got = analysis_hashes(a, &IluOptions::ilu0(nthreads).with_fill(fill));
                let want = arrays.iter().chain(&walks);
                for ((what, got), want) in names.iter().zip(got).zip(want) {
                    assert_eq!(got, *want, "{name} fill {fill} t{nthreads}: {what} moved");
                }
            }
        }
    }

    /// The analysis keeps its two patterns at 4 bytes per index: `A`'s
    /// copy (`n + 1` row pointers, `nnz_A` columns) and the LU pattern
    /// with its diagonal positions (`2n + 1` and `nnz_LU`).
    #[test]
    fn pattern_bytes_are_four_per_index() {
        let grid = convection_diffusion_3d(14, 14, 14, (30.0, 20.0, 10.0));
        let circuit = transient_circuit(1500, 40, false, 11);
        for (a, fill) in [(&grid, 0), (&circuit, 1)] {
            for nthreads in [1, 2] {
                let sym = SymbolicIlu::analyze(a, &IluOptions::ilu0(nthreads).with_fill(fill));
                let sym = sym.unwrap();
                let (c, n) = (sym.core(), a.nrows());
                let want = 4 * (3 * n + 2 + a.nnz() + sym.nnz());
                assert_eq!(c.a.heap_bytes() + c.lu.heap_bytes(), want, "fill {fill}");
                assert!(sym.heap_bytes() > want, "fill {fill}: the rest counted");
            }
        }
    }

    /// The one-pass levels against the patterns they replaced, at one
    /// fill level and thread count: under both [`LevelPattern`]s the
    /// forward levels of the fill equal `compute_lower` of
    /// `level_pattern_of`, and the analysis's backward levels equal
    /// `compute_lower` of its upper pattern restricted to the upper
    /// stage, with rows and columns reversed.
    fn assert_levels_match_the_built_patterns(
        what: &str,
        a: &CsrMatrix<f64>,
        fill: usize,
        nthreads: usize,
    ) {
        let s = crate::symbolic::iluk_pattern_serial(a, fill).unwrap();
        let wide = s.to_sparsity();
        for which in [LevelPattern::LowerSymmetrized, LevelPattern::LowerA] {
            let what = format!("{what} fill {fill} nthreads {nthreads} {which:?}");
            let fwd = LevelSets::compute_forward(&s, which);
            let want = LevelSets::compute_lower(&level_pattern_of(&wide, which));
            assert_eq!(fwd, want, "{what}: forward levels");

            let mut opts = IluOptions::ilu0(nthreads).with_fill(fill);
            opts.level_pattern = which;
            let sym = SymbolicIlu::analyze(a, &opts).unwrap();
            assert_eq!(sym.stats().n_levels, fwd.n_levels(), "{what}");
            let (lu, plan) = (&sym.core().lu, sym.plan());
            let n_upper = plan.n_upper;
            // Reversed row `n_upper - 1 - r` depends on the reversed
            // columns of row `r`'s upper part below `n_upper`.
            let rev = |i: usize| n_upper - 1 - i;
            let mut bp = vec![0usize; n_upper + 1];
            let mut bc = Vec::new();
            for i in 0..n_upper {
                let r = rev(i);
                let upper = &lu.colidx[lu.diag_pos[r] as usize + 1..lu.row(r).end];
                let start = bc.len();
                bc.extend(
                    upper
                        .iter()
                        .map(|&c| c as usize)
                        .filter(|&c| c < n_upper)
                        .map(rev),
                );
                bc[start..].sort_unstable();
                bp[i + 1] = bc.len();
            }
            let reversed =
                LevelSets::compute_lower(&SparsityPattern::from_raw(n_upper, n_upper, bp, bc));
            let level_of: Vec<usize> = (0..n_upper).map(|r| reversed.level_of()[rev(r)]).collect();
            let got = LevelSets::compute_backward(lu, n_upper);
            assert_eq!(got.level_of(), level_of, "{what}: backward levels");
            // Grouped by level, ascending rows within each.
            let mut rows: Vec<usize> = (0..n_upper).collect();
            rows.sort_by_key(|&r| (level_of[r], r));
            let mut level_ptr = vec![0usize; got.n_levels() + 1];
            for &l in &level_of {
                level_ptr[l + 1] += 1;
            }
            for l in 0..got.n_levels() {
                level_ptr[l + 1] += level_ptr[l];
            }
            assert_eq!(plan.bwd_level_ptr, level_ptr, "{what}");
            assert_eq!(plan.bwd_row_of_task, rows, "{what}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn one_pass_levels_match_the_built_patterns(
            m in generated_matrix(),
            fill in 0usize..4,
            nthreads in 1usize..4,
        ) {
            assert_levels_match_the_built_patterns(&m.0, &m.1, fill, nthreads);
        }

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
