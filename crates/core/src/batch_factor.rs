//! The factor storage: `k` pattern-identical value-sets factored
//! through **one** schedule walk — and, at `k = 1`, the scalar factor.
//!
//! [`SymbolicIlu::factor_batch`] turns `k` pattern-identical matrices
//! (the scenario corners of a parameter sweep) into a [`FactorsBatch`]:
//! `k` independent factorizations produced by a single pass of the
//! numeric engines in which the level-schedule / point-to-point walk,
//! the counter resets, the team regions and the stream of the
//! analysis's update list are shared, and only the per-entry
//! arithmetic loops over the `k` value-sets (the numeric engine of
//! [`crate::numeric`] at width `k`). [`IluFactors`] is this type at
//! `k = 1` plus the scalar error contract: [`SymbolicIlu::factor`],
//! [`IluFactors::refactor`], [`IluFactors::refactor_vals_with_shift`]
//! and [`FactorsBatch::refactor_batch`] all run the same code: the O(1)
//! shape checks on the caller, then one load region on the team that
//! compares every matrix's pattern with the analyzed one (values alone
//! were checked when they came in) and gathers the values, the walk,
//! the commit and the statistics. Refreshing
//! redoes the numeric phase with **zero heap allocations and zero
//! thread spawns** on the persistent team.
//!
//! Storage: the factor is stored **once**, in the layout it is applied
//! from. All scenarios share the analysis's `rowptr` / `colidx`; their
//! values live lane-interleaved (scenario `c` of LU entry `e` at
//! `e·k + c`) in two `nnz·k` buffers — the work buffer the numeric
//! engines fill, and the committed buffer applies read through the
//! crate's one apply pipeline (at `k = 1` one factor under every panel
//! column, at `k > 1` panel column `c` against scenario `c`; one stream
//! over `colidx` + values for the whole panel either way). A refactor
//! whose every scenario factored swaps the two buffers; otherwise the
//! scenarios that factored are copied lane by lane. A pattern mismatch
//! is found before the engines run and commits nothing. There is no
//! per-scenario CSR; [`FactorsBatch::to_factors`] copies one out on
//! demand, [`IluFactors::lu`] builds one lazily for diagnostics.
//!
//! Per-scenario breakdown semantics: every scenario carries its own
//! [`ZeroPivotPolicy`](crate::ZeroPivotPolicy) state. Under
//! `ShiftRetry`, a singular corner escalates **its own** sticky
//! diagonal shift across full re-runs of the batch while never-failed
//! neighbours rerun unshifted — and because the engines are
//! deterministic, those neighbours reproduce bit-identical factors on
//! every sweep, so one bad corner cannot perturb the others. A corner
//! that exhausts its attempt budget (or fails under `Error`) gets a
//! **typed per-scenario error** in [`FactorsBatch::statuses`] and keeps
//! its previous committed values and statistics — the keep-previous
//! contract [`IluFactors::refactor`] reports as its `Err`.
//!
//! Bit-identity: scenario `c` of any batch run is bit-identical to the
//! scalar `refactor` of matrix `c` alone — per lane, the kernels
//! execute the width-1 operation order on lane-`c` data only, and the
//! driver applies the same reload + shift sequence to every lane
//! whatever the width. The differential proptests in
//! `crates/core/tests/batch_differential.rs` enforce this across
//! engines × threads × k × pivot policies.

use crate::factors::IluFactors;
use crate::precond::{ApplyScratch, EnginePinned};
use crate::stats::FactorStats;
use crate::symbolic_ilu::{NumericRun, Sources, SymbolicIlu};
use crate::trisolve::apply_panel;
use crate::SolveEngine;
use javelin_sparse::{with_lanes, CsrMatrix, Panel, PanelMut, Scalar, SparseError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// `k` scenario factorizations of one symbolic analysis, produced and
/// refreshed as a batch and stored once, lane-interleaved, in the
/// layout panel solves apply them from (see module docs) — the crate's
/// only factor storage; [`IluFactors`] wraps one at `k = 1`. Obtain
/// with [`SymbolicIlu::factor_batch`]; refresh each sweep step with
/// [`FactorsBatch::refactor_batch`]; feed panel solves with
/// [`FactorsBatch::precond`]; inspect a scenario with
/// [`FactorsBatch::stats`] / [`FactorsBatch::to_factors`].
pub struct FactorsBatch<T> {
    pub(crate) sym: SymbolicIlu<T>,
    k: usize,
    /// The numeric engines' work buffer: scenario `c` of LU entry `e`
    /// at `e·k + c`.
    lu_vals: Vec<T>,
    /// The values applies read, in the same layout: every scenario's
    /// latest successful factorization (an identity-safe seed before
    /// its first).
    pub(crate) committed: Vec<T>,
    /// Interleaved per-scenario τ thresholds (`r·k + c`); empty when
    /// dropping is off.
    drop_thresh: Vec<T>,
    replaced: Vec<AtomicUsize>,
    dropped: Vec<AtomicUsize>,
    failed: Vec<AtomicUsize>,
    /// Failed sweeps per scenario (ShiftRetry bookkeeping).
    failures: Vec<usize>,
    /// Last absolute diagonal shift applied per scenario.
    shifts: Vec<f64>,
    stats: Vec<FactorStats>,
    statuses: Vec<Result<(), SparseError>>,
}

impl<T: Scalar> SymbolicIlu<T> {
    /// Numeric factorization of `k` pattern-identical matrices in one
    /// batched pass of the engines (see [`FactorsBatch`]). Every matrix
    /// must have exactly the analyzed pattern.
    ///
    /// Scenario breakdowns are **per-scenario**, reported through
    /// [`FactorsBatch::statuses`]; this only errs globally.
    ///
    /// # Errors
    /// * [`SparseError::DimensionMismatch`] when `mats` is empty;
    /// * [`SparseError::PatternMismatch`] when any matrix's pattern
    ///   differs from the analyzed one.
    pub fn factor_batch(&self, mats: &[&CsrMatrix<T>]) -> Result<FactorsBatch<T>, SparseError> {
        if mats.is_empty() {
            return Err(SparseError::DimensionMismatch(
                "factor_batch needs at least one scenario matrix".to_string(),
            ));
        }
        let mut batch = FactorsBatch::new(self, mats.len());
        batch.refactor_lanes(Sources::Matrices(mats), None)?;
        Ok(batch)
    }
}

impl<T: Scalar> FactorsBatch<T> {
    /// Every buffer a width-`k` factor of `sym` needs, committed values
    /// seeded with an identity-safe factor (unit diagonal, zero
    /// off-diagonal): a corner that breaks down on the very first batch
    /// still leaves a usable — if weak — preconditioner.
    fn new(sym: &SymbolicIlu<T>, k: usize) -> Self {
        let c = sym.core();
        let nnz = c.lu.nnz();
        let lu_vals = vec![T::ZERO; nnz * k];
        let mut committed = vec![T::ZERO; nnz * k];
        for &dp in c.lu.diag_pos.iter() {
            let dp = dp as usize;
            committed[dp * k..(dp + 1) * k].fill(T::ONE);
        }
        FactorsBatch {
            sym: sym.clone(),
            k,
            lu_vals,
            committed,
            drop_thresh: if c.opts.drop_tol > 0.0 {
                vec![T::ZERO; c.n * k]
            } else {
                Vec::new()
            },
            replaced: (0..k).map(|_| AtomicUsize::new(0)).collect(),
            dropped: (0..k).map(|_| AtomicUsize::new(0)).collect(),
            failed: (0..k).map(|_| AtomicUsize::new(usize::MAX)).collect(),
            failures: vec![0; k],
            shifts: vec![0.0; k],
            stats: vec![c.stats.clone(); k],
            statuses: (0..k).map(|_| Ok(())).collect(),
        }
    }

    /// Scenario count (the lane width of the batch).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Scenario `c`'s factorization statistics (of its latest
    /// successful batch).
    pub fn stats(&self, c: usize) -> &FactorStats {
        &self.stats[c]
    }

    /// Copies scenario `c` out into a standalone [`IluFactors`] — for
    /// tests, examples and diagnostics; solves go through
    /// [`FactorsBatch::precond`], which needs no copy.
    pub fn to_factors(&self, c: usize) -> IluFactors<T> {
        let mut one = Self::new(&self.sym, 1);
        let lane = self.committed[c..].iter().step_by(self.k);
        for (slot, &v) in one.committed.iter_mut().zip(lane) {
            *slot = v;
        }
        one.stats[0] = self.stats[c].clone();
        IluFactors::from_batch(one)
    }

    /// Per-scenario outcome of the latest batch: `Ok` when the
    /// scenario factored (possibly shift-retried — see its
    /// `stats().shift_attempts`), [`SparseError::ZeroPivot`] under the
    /// `Error` policy, [`SparseError::Breakdown`] when `ShiftRetry`
    /// exhausted its budget. Failed scenarios keep their previous
    /// factors.
    pub fn statuses(&self) -> &[Result<(), SparseError>] {
        &self.statuses
    }

    /// Whether every scenario of the latest batch factored.
    pub fn all_ok(&self) -> bool {
        self.statuses.iter().all(|s| s.is_ok())
    }

    /// A per-scenario panel preconditioner: column `c` of a batched
    /// Krylov solve is preconditioned by scenario `c`'s factors, the
    /// whole panel in one walk of `engine` over the batch's own
    /// interleaved values (see [`EnginePinned`]).
    pub fn precond(&self, engine: SolveEngine) -> EnginePinned<'_, T> {
        EnginePinned {
            batch: self,
            engine,
        }
    }

    /// The storage's one apply: solves column `j` of `b` against
    /// scenario `c0 + j` — against the only factor when `k = 1`,
    /// whatever `c0` — for the whole panel at once, through the crate's
    /// apply pipeline over the committed values.
    ///
    /// # Errors
    /// [`SparseError::DimensionMismatch`] on shape mismatches.
    ///
    /// # Panics
    /// When `k > 1` and the panel reaches past scenario `k − 1`.
    pub(crate) fn solve(
        &self,
        engine: SolveEngine,
        c0: usize,
        scratch: &mut ApplyScratch<T>,
        b: Panel<'_, T>,
        x: PanelMut<'_, T>,
    ) -> Result<(), SparseError> {
        let c0 = if self.k == 1 { 0 } else { c0 };
        assert!(
            self.k == 1 || c0 + b.ncols() <= self.k,
            "panel wider than the batch"
        );
        let vals = &self.committed[c0..];
        apply_panel(self.sym.core(), vals, self.k, engine, scratch, b, x)
    }

    /// Redoes the numeric phase of **all** `k` scenarios in one batched
    /// pass — the sweep-stepping entry point. The schedule walk, team
    /// regions, counter resets and update-list stream run once; the per-row
    /// arithmetic loops over the scenario lanes. In the steady state
    /// this performs **zero heap allocations and zero thread spawns**
    /// (enforced by `tests/refactor_alloc.rs`).
    ///
    /// Scenario breakdowns are per-scenario: consult
    /// [`FactorsBatch::statuses`] (or [`FactorsBatch::all_ok`]) after
    /// the call. A failed scenario keeps its previous values and
    /// statistics; its neighbours are bit-identical to a run without
    /// the bad corner.
    ///
    /// # Errors
    /// * [`SparseError::DimensionMismatch`] when `mats.len() != k`;
    /// * [`SparseError::PatternMismatch`] when any matrix's pattern
    ///   differs from the analyzed one. In both cases no factor is
    ///   touched.
    pub fn refactor_batch(&mut self, mats: &[&CsrMatrix<T>]) -> Result<(), SparseError> {
        self.refactor_lanes(Sources::Matrices(mats), None)
    }

    /// The one numeric entry of every factor object, at every width:
    /// shape checks (each matrix's dimensions and entry count, each
    /// value slice's length) → load region and planned walk
    /// ([`SymbolicIlu::run_numeric`], with `forced_shift` applied to
    /// every lane when set) → commit (swap or masked copy) →
    /// statistics. Errs only globally (see
    /// [`FactorsBatch::refactor_batch`]); per-scenario outcomes land in
    /// [`FactorsBatch::statuses`].
    pub(crate) fn refactor_lanes(
        &mut self,
        sources: Sources<'_, T>,
        forced_shift: Option<f64>,
    ) -> Result<(), SparseError> {
        if sources.width() != self.k {
            return Err(SparseError::DimensionMismatch(format!(
                "refactor_batch got {} matrices, batch was built for k = {}",
                sources.width(),
                self.k
            )));
        }
        // The O(1) checks; the load region compares the patterns.
        match sources {
            Sources::Matrices(mats) => {
                for a in mats {
                    self.sym.check_shape(a)?;
                }
            }
            Sources::Values(vals) => {
                for v in vals {
                    self.sym.check_vals(v)?;
                }
            }
        }
        let t2 = Instant::now();
        let c = self.sym.core();
        {
            let sync = c.sync.lock();
            let run = NumericRun {
                sources,
                vals: &mut self.lu_vals,
                drop_thresh: &mut self.drop_thresh,
                progress: &sync.fwd,
                replaced: &self.replaced,
                dropped: &self.dropped,
                failed: &self.failed,
                failures: &mut self.failures,
                shifts: &mut self.shifts,
                statuses: &mut self.statuses,
            };
            with_lanes!(self.k, lanes => self.sym.run_numeric(lanes, run, forced_shift))?;
        }
        // Commit phase: the lanes that succeeded take the work buffer's
        // values and complete their statistics; failed scenarios keep
        // the previous factorization. With every lane ok — a scalar
        // factor that succeeded — the two buffers swap: the next load
        // overwrites every entry of the new work buffer, so its stale
        // values are never read.
        let t_numeric = t2.elapsed();
        if self.all_ok() {
            std::mem::swap(&mut self.committed, &mut self.lu_vals);
        } else {
            for (e, lanes) in self.committed.chunks_exact_mut(self.k).enumerate() {
                for (lane, slot) in lanes.iter_mut().enumerate() {
                    if self.statuses[lane].is_ok() {
                        *slot = self.lu_vals[e * self.k + lane];
                    }
                }
            }
        }
        for (lane, stats) in self.stats.iter_mut().enumerate() {
            if self.statuses[lane].is_err() {
                continue;
            }
            stats.replaced_pivots = self.replaced[lane].load(Ordering::Relaxed);
            stats.dropped_entries = self.dropped[lane].load(Ordering::Relaxed);
            stats.shift_attempts = self.failures[lane] + 1;
            stats.diag_shift = self.shifts[lane];
            stats.t_numeric = t_numeric;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::options::{IluOptions, ZeroPivotPolicy};
    use crate::symbolic_ilu::SymbolicIlu;
    use crate::sync::col_range;
    use javelin_sparse::{CsrMatrix, SparseError};
    use javelin_synth::grid::laplace_2d;
    use javelin_synth::util::revalue;

    fn corners(a: &CsrMatrix<f64>, k: usize) -> Vec<CsrMatrix<f64>> {
        (0..k)
            .map(|c| revalue(a, 0.3 + c as f64 * 0.77, 0.05))
            .collect()
    }

    fn bits(f: &crate::IluFactors<f64>) -> Vec<u64> {
        f.lu().vals().iter().map(|v| v.to_bits()).collect()
    }

    fn all_bits(batch: &super::FactorsBatch<f64>) -> Vec<Vec<u64>> {
        (0..batch.k()).map(|c| bits(&batch.to_factors(c))).collect()
    }

    #[test]
    fn factor_batch_matches_looped_refactor_bitwise() {
        let a = laplace_2d(13, 13);
        for nthreads in [1usize, 2] {
            let sym = SymbolicIlu::analyze(&a, &IluOptions::ilu0(nthreads)).unwrap();
            let mats = corners(&a, 4);
            let refs: Vec<&CsrMatrix<f64>> = mats.iter().collect();
            let batch = sym.factor_batch(&refs).unwrap();
            assert!(batch.all_ok());
            for (c, m) in mats.iter().enumerate() {
                let mut scalar = sym.factor(&a).unwrap();
                scalar.refactor(m).unwrap();
                assert_eq!(
                    bits(&batch.to_factors(c)),
                    bits(&scalar),
                    "scenario {c}, nthreads {nthreads}"
                );
            }
        }
    }

    #[test]
    fn refactor_batch_steps_match_scalar() {
        let a = laplace_2d(11, 11);
        let sym = SymbolicIlu::analyze(&a, &IluOptions::ilu0(2)).unwrap();
        let mats0 = corners(&a, 3);
        let refs0: Vec<&CsrMatrix<f64>> = mats0.iter().collect();
        let mut batch = sym.factor_batch(&refs0).unwrap();
        let mats1: Vec<CsrMatrix<f64>> = mats0.iter().map(|m| revalue(m, 1.5, 0.1)).collect();
        let refs1: Vec<&CsrMatrix<f64>> = mats1.iter().collect();
        batch.refactor_batch(&refs1).unwrap();
        assert!(batch.all_ok());
        for (c, m) in mats1.iter().enumerate() {
            let mut scalar = sym.factor(&a).unwrap();
            scalar.refactor(m).unwrap();
            assert_eq!(bits(&batch.to_factors(c)), bits(&scalar), "scenario {c}");
        }
    }

    #[test]
    fn wrong_k_and_wrong_pattern_are_global_errors() {
        let a = laplace_2d(9, 9);
        let sym = SymbolicIlu::analyze(&a, &IluOptions::ilu0(1)).unwrap();
        let mats = corners(&a, 2);
        let refs: Vec<&CsrMatrix<f64>> = mats.iter().collect();
        let mut batch = sym.factor_batch(&refs).unwrap();
        let before = all_bits(&batch);
        assert!(matches!(
            batch.refactor_batch(&refs[..1]),
            Err(SparseError::DimensionMismatch(_))
        ));
        let other = laplace_2d(10, 10);
        assert!(matches!(
            batch.refactor_batch(&[&other, &other]),
            Err(SparseError::PatternMismatch(_))
        ));
        let after = all_bits(&batch);
        assert_eq!(before, after, "global errors must leave factors untouched");
        assert!(sym.factor_batch(&[]).is_err());
    }

    /// `a` with one column index moved inside its row, at an entry in
    /// the second participant's share of `colidx` of a `nthreads` load
    /// region: same dimensions, same `rowptr`, same entry count.
    fn moved_in_second_share(a: &CsrMatrix<f64>, nthreads: usize) -> CsrMatrix<f64> {
        let (nr, nc, rp, mut ci, vs) = a.clone().into_parts();
        let share = col_range(ci.len(), nthreads, 1);
        let e = (share.start + share.len() / 2..share.end)
            .find(|&e| rp.contains(&(e + 1)) && ci[e] - 1 > ci[e - 1])
            .expect("a row end that can move left");
        ci[e] -= 1;
        CsrMatrix::try_from_parts(nr, nc, rp, ci, vs).unwrap()
    }

    #[test]
    fn mismatch_in_the_second_threads_share_commits_nothing() {
        let a = laplace_2d(12, 12);
        for nthreads in [2usize, 3] {
            let what = format!("nthreads {nthreads}");
            let opts = IluOptions::ilu0(nthreads).with_zero_pivot(ZeroPivotPolicy::Error);
            let sym = SymbolicIlu::analyze(&a, &opts).unwrap();
            let bad = moved_in_second_share(&revalue(&a, 2.1, 0.2), nthreads);
            assert_eq!(bad.nnz(), a.nnz(), "{what}");

            // Scalar: the previous refactor's bits, unread before the
            // failed refactor so no cached copy can hide a change.
            let a2 = revalue(&a, 1.3, 0.1);
            let mut f = sym.factor(&a).unwrap();
            f.refactor(&a2).unwrap();
            let stats = format!("{:?}", f.stats());
            assert!(matches!(
                f.refactor(&bad),
                Err(SparseError::PatternMismatch(_))
            ));
            assert_eq!(bits(&f), bits(&sym.factor(&a2).unwrap()), "{what}: bits");
            assert_eq!(format!("{:?}", f.stats()), stats, "{what}: stats");

            // Batch: lane 1 of three mismatches; lane 2 failed before.
            let mut mats = corners(&a, 3);
            for &dp in mats[2].diag_positions().unwrap().iter() {
                mats[2].vals_mut()[dp] = 0.0;
            }
            let refs: Vec<&CsrMatrix<f64>> = mats.iter().collect();
            let mut batch = sym.factor_batch(&refs).unwrap();
            assert!(matches!(
                batch.statuses(),
                [Ok(()), Ok(()), Err(SparseError::ZeroPivot { .. })]
            ));
            let (before, statuses) = (all_bits(&batch), batch.statuses().to_vec());
            let stats: Vec<String> = (0..3).map(|c| format!("{:?}", batch.stats(c))).collect();
            assert!(matches!(
                batch.refactor_batch(&[&a2, &bad, &a2]),
                Err(SparseError::PatternMismatch(_))
            ));
            assert_eq!(all_bits(&batch), before, "{what}: batch bits");
            assert_eq!(batch.statuses(), statuses, "{what}: statuses");
            for (c, s) in stats.iter().enumerate() {
                assert_eq!(&format!("{:?}", batch.stats(c)), s, "{what}: stats {c}");
            }
        }
    }
}
