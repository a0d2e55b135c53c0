//! The unified `Session` façade: one object owning the system's values,
//! the two-phase factorization, the worker team and every workspace, with
//! the whole solve surface collapsed to three verbs —
//! [`Session::solve`], [`Session::solve_panel`] and
//! [`Session::krylov`] (with [`Session::krylov_panel`] as the batched
//! multi-RHS form of the latter) — plus [`Session::refactor`] for time
//! stepping.
//!
//! The session wraps one [`IluSolver`], the solve pipeline it shares
//! with the solve service: the factors, the engine, and an spmv plan
//! that runs every Krylov matvec on the analysis's team. The pattern
//! lives once, in the analysis (at `u32`); the session keeps only the
//! values of the matrix it was built or last refactored from, and the
//! plan multiplies the two. Its breakdown retry covers
//! [`Session::krylov`] and [`Session::krylov_panel`], one shifted
//! refactor from those values per call; [`Session::sweep`] has no
//! retry, because a scenario batch has no shifted refactor.
//!
//! ```
//! use javelin::prelude::*;
//!
//! let a = javelin::synth::grid::laplace_2d(16, 16);
//! let mut session = Session::builder()
//!     .ilu_options(IluOptions::ilu0(2).with_fill(0))
//!     .panel_width(4)
//!     .build(&a)
//!     .unwrap();
//! let b = vec![1.0; a.nrows()];
//! let mut x = vec![0.0; a.nrows()];
//! // Full preconditioned Krylov solve of A·x = b:
//! let res = session.krylov(Method::Pcg, &b, &mut x).unwrap();
//! assert!(res.converged);
//! // Values change, pattern does not — numeric-only refactorization:
//! session.refactor(&a).unwrap();
//! ```

use javelin_core::{FactorStats, FactorsBatch, IluFactors, IluOptions, SolveEngine, SymbolicIlu};
use javelin_solver::{IluSolver, Method, SolverOptions, SolverResult, SolverWorkspace};
use javelin_sparse::{CsrMatrix, Panel, PanelMut, Scalar, SparseError};

/// Builder for a [`Session`] (see [`Session::builder`]).
///
/// The analysis is configured by one value, an [`IluOptions`] passed
/// to [`SessionBuilder::ilu_options`] (fill level, drop tolerance,
/// MILU, threads or a shared team, the pivot policy, …); the other
/// setters cover what the session adds on top: the engine, the panel
/// width, the GMRES basis warm-up and the Krylov controls.
#[derive(Debug, Clone, Default)]
pub struct SessionBuilder {
    opts: IluOptions,
    solver: SolverOptions,
    engine: Option<SolveEngine>,
    panel_width: usize,
    warm_gmres_basis: bool,
}

impl SessionBuilder {
    /// The analysis's option set (default [`IluOptions::default`]: serial
    /// ILU(0)). Build it with [`IluOptions::ilu0`] and the `with_*`
    /// setters; [`IluOptions::with_shared_team`] runs the session's
    /// regions on a caller-owned team that many sessions can share.
    ///
    /// With [`ZeroPivotPolicy::shift_retry`] a breakdown triggers
    /// allocation-free numeric re-runs under an escalating diagonal
    /// shift instead of failing the build:
    ///
    /// ```
    /// use javelin::prelude::*;
    ///
    /// // A structurally fine but numerically singular system: both
    /// // pivots are exactly zero, so plain ILU(0) breaks down.
    /// let mut coo = CooMatrix::new(2, 2);
    /// coo.push(0, 0, 0.0).unwrap();
    /// coo.push(0, 1, 1.0).unwrap();
    /// coo.push(1, 0, 1.0).unwrap();
    /// coo.push(1, 1, 0.0).unwrap();
    /// let a = coo.to_csr();
    /// let with_policy = |p| IluOptions::default().with_zero_pivot(p);
    /// // Under the strict policy the zero pivot aborts the build.
    /// assert!(Session::builder()
    ///     .ilu_options(with_policy(ZeroPivotPolicy::Error))
    ///     .build(&a)
    ///     .is_err());
    /// // Shift-and-retry: the factorization recovers by re-running the
    /// // numeric phase with a boosted diagonal, and reports how.
    /// let session = Session::builder()
    ///     .ilu_options(with_policy(ZeroPivotPolicy::shift_retry()))
    ///     .build(&a)
    ///     .unwrap();
    /// assert!(session.stats().shift_attempts > 1);
    /// assert!(session.stats().diag_shift > 0.0);
    /// ```
    ///
    /// [`ZeroPivotPolicy::shift_retry`]: javelin_core::ZeroPivotPolicy::shift_retry
    #[must_use]
    pub fn ilu_options(mut self, opts: IluOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Triangular-solve engine for every apply in this session
    /// (default: the analysis's oversubscription-aware choice).
    #[must_use]
    pub fn engine(mut self, engine: SolveEngine) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Pre-warms panel scratch and the PCG / BiCGSTAB panels to width
    /// `k`, so the first [`Session::solve_panel`] and the first PCG or
    /// BiCGSTAB [`Session::krylov_panel`] at width ≤ `k` are already
    /// allocation-free (default 1). The GMRES and FGMRES Arnoldi basis
    /// — by far the largest buffer, up to `restart × n × k` — is not
    /// warmed at build time: its slots grow with the deepest cycle a
    /// solve runs, so sessions that never run GMRES never pay for it,
    /// and once the deepest solve has run it too is allocation-free;
    /// opt in with [`SessionBuilder::warm_gmres_basis`] for an
    /// allocation-free first GMRES solve.
    #[must_use]
    pub fn panel_width(mut self, k: usize) -> Self {
        self.panel_width = k;
        self
    }

    /// Opt-in: also pre-grow the GMRES stacked Arnoldi basis
    /// (`restart × n × k` at the builder's
    /// [`panel_width`](SessionBuilder::panel_width) and the solver
    /// options' restart length) at build time, so even the session's
    /// **first** GMRES panel solve performs zero heap allocations. Off
    /// by default because the basis dwarfs every other buffer; without
    /// it the slots grow with the deepest cycle a solve runs.
    #[must_use]
    pub fn warm_gmres_basis(mut self) -> Self {
        self.warm_gmres_basis = true;
        self
    }

    /// Krylov iteration controls (tolerance, caps, restart length).
    #[must_use]
    pub fn solver_options(mut self, solver: SolverOptions) -> Self {
        self.solver = solver;
        self
    }

    /// Analyzes and factors `a`, returning a ready [`Session`]. The
    /// session keeps a copy of `a`'s values, not of the matrix: its
    /// [`IluSolver`] multiplies them with the analysis's copy of the
    /// pattern in every Krylov matvec, on the analysis's team.
    ///
    /// # Errors
    /// Everything [`SymbolicIlu::analyze`] / [`SymbolicIlu::factor`]
    /// can return.
    pub fn build<T: Scalar>(&self, a: &CsrMatrix<T>) -> Result<Session<T>, SparseError> {
        let solver = IluSolver::new(a, &self.opts, self.engine)?;
        // Every engine solves in the workspace's apply buffer, which
        // `reserve` grows to the panel width.
        let mut workspace = SolverWorkspace::new();
        let (n, k) = (a.nrows(), self.panel_width.max(1));
        workspace.reserve(n, k);
        if self.warm_gmres_basis {
            workspace.reserve_gmres_basis(Method::Gmres, n, self.solver.restart, k);
        }
        Ok(Session {
            n,
            vals: a.vals().to_vec(),
            solver,
            batch: None,
            options: self.solver,
            workspace,
        })
    }
}

/// A single owner for everything one linear system needs across its
/// lifetime: the system's values, the symbolic analysis (which holds
/// the pattern), the numeric factors, the persistent worker team and
/// all solve workspaces (see module docs). Created by
/// [`Session::builder`].
pub struct Session<T: Scalar> {
    /// The system's dimension.
    n: usize,
    /// The values of the matrix the factors were built or last
    /// refactored from, on the analyzed pattern: the Krylov matvecs and
    /// the breakdown retry's shifted refactor read them.
    vals: Vec<T>,
    /// The factors, the engine and the spmv plan every solve runs
    /// through.
    solver: IluSolver<T>,
    batch: Option<FactorsBatch<T>>,
    options: SolverOptions,
    workspace: SolverWorkspace<T>,
}

// `builder()` lives on a single concrete instantiation so that plain
// `Session::builder()` needs no type annotation — the builder itself is
// scalar-agnostic and `build` fixes `T` from the matrix it receives.
impl Session<f64> {
    /// Starts building a session. Equivalent to
    /// [`SessionBuilder::default`]; the scalar type is chosen by
    /// [`SessionBuilder::build`], not here.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }
}

impl<T: Scalar> Session<T> {
    /// Applies the factorization once: `x ← (LU)⁻¹ b` through the
    /// session's engine — one forward + backward substitution, not an
    /// iterative solve. Allocation-free: it runs in the buffers
    /// [`SessionBuilder::build`] sized.
    ///
    /// # Errors
    /// [`SparseError::DimensionMismatch`] on length mismatches.
    pub fn solve(&mut self, b: &[T], x: &mut [T]) -> Result<(), SparseError> {
        self.solve_panel(Panel::from_col(b), PanelMut::from_col(x))
    }

    /// Panel analogue of [`Session::solve`]: one schedule walk (Serial
    /// engine: one factor stream) retires all columns of the
    /// right-hand-side panel. A panel wider than the built
    /// [`SessionBuilder::panel_width`] grows the buffers once.
    ///
    /// # Errors
    /// [`SparseError::DimensionMismatch`] on shape mismatches.
    pub fn solve_panel(&mut self, b: Panel<'_, T>, x: PanelMut<'_, T>) -> Result<(), SparseError> {
        let (factors, engine) = (self.solver.factors(), self.solver.engine());
        factors.solve_panel_with_buffer(engine, &mut self.workspace.precond, b, x)
    }

    /// Full preconditioned iterative solve of `A·x = b` with the chosen
    /// Krylov [`Method`], the session's ILU factors as the
    /// preconditioner and its reusable workspace — allocation-free in
    /// the steady state. It is [`Session::krylov_panel`] at width 1.
    ///
    /// ## Breakdown-aware retry
    ///
    /// When the solve halts with
    /// [`SolverStatus::NumericalBreakdown`](javelin_solver::SolverStatus::NumericalBreakdown)
    /// — typically a finite but wildly ill-conditioned preconditioner
    /// overflowing during its apply — the session performs **one
    /// automatic retry** ([`IluSolver::krylov_into`]): the factors are
    /// refactored with a small forced diagonal shift (`1e-4 · max|aᵢᵢ|`,
    /// a [`ZeroPivotPolicy::shift_retry`]-style boost) and the solve
    /// re-runs from the frozen finite iterate. A result produced this
    /// way carries `retried == true`. On success the session *keeps*
    /// the shifted factors until the next [`Session::refactor`]
    /// (self-healing: subsequent solves reuse the stable
    /// preconditioner); if the shifted refactor itself fails, the
    /// original breakdown result is returned unchanged.
    ///
    /// # Errors
    /// [`SparseError::DimensionMismatch`] on length mismatches.
    ///
    /// [`ZeroPivotPolicy::shift_retry`]: javelin_core::ZeroPivotPolicy::shift_retry
    pub fn krylov(
        &mut self,
        method: Method,
        b: &[T],
        x: &mut [T],
    ) -> Result<SolverResult, SparseError> {
        let mut results = [SolverResult::default()];
        let (b, x) = (Panel::from_col(b), PanelMut::from_col(x));
        self.krylov_into(method, b, x, &mut results)?;
        let [res] = results;
        Ok(res)
    }

    /// Batched Krylov solve: `k` systems of the chosen [`Method`] in
    /// lockstep over one RHS panel, sharing one preconditioner schedule
    /// walk per panel apply with per-column convergence and breakdown
    /// masking. `Pcg`/`BatchPcg` run the batched CG driver,
    /// `Bicgstab`/`BatchBicgstab` the batched BiCGSTAB, and
    /// `Gmres`/`BatchGmres` and `Fgmres` the lockstep-restart Arnoldi
    /// core (in its plain and flexible mode). Column `c` of the
    /// result is always bit-identical to the scalar solve of column
    /// `c`. Returns one result per column.
    ///
    /// Broken-down columns get [`Session::krylov`]'s one retry: one
    /// shifted refactor for the panel, then each broken column re-runs
    /// alone from its frozen iterate and is stamped `retried`; the
    /// other columns keep their first-attempt results.
    ///
    /// ```
    /// use javelin::prelude::*;
    ///
    /// let a = javelin::synth::grid::convection_diffusion_2d(10, 10, 0.4, 0.2);
    /// let n = a.nrows();
    /// let mut session = Session::builder().panel_width(3).build(&a).unwrap();
    /// let (k, b) = (3, javelin::synth::util::rhs_panel(n, 3, 42));
    /// let mut x = vec![0.0; n * k];
    /// let results = session
    ///     .krylov_panel(
    ///         Method::BatchBicgstab,
    ///         Panel::new(&b, n, k),
    ///         PanelMut::new(&mut x, n, k),
    ///     )
    ///     .unwrap();
    /// assert!(results.iter().all(|r| r.converged));
    /// ```
    ///
    /// # Errors
    /// [`SparseError::DimensionMismatch`] on shape mismatches.
    pub fn krylov_panel(
        &mut self,
        method: Method,
        b: Panel<'_, T>,
        x: PanelMut<'_, T>,
    ) -> Result<Vec<SolverResult>, SparseError> {
        let mut results = vec![SolverResult::default(); b.ncols()];
        self.krylov_into(method, b, x, &mut results)?;
        Ok(results)
    }

    /// The solver's panel solve (retry included) behind
    /// [`Session::krylov`] and [`Session::krylov_panel`], after the
    /// shape check that turns a mismatch into an error.
    fn krylov_into(
        &mut self,
        method: Method,
        b: Panel<'_, T>,
        x: PanelMut<'_, T>,
        results: &mut [SolverResult],
    ) -> Result<(), SparseError> {
        let n = self.n;
        if b.nrows() != n || x.nrows() != n || x.ncols() != b.ncols() {
            return Err(SparseError::DimensionMismatch(format!(
                "krylov: rhs {}x{} / solution {}x{} against a system of dimension {n}",
                b.nrows(),
                b.ncols(),
                x.nrows(),
                x.ncols(),
            )));
        }
        let (opts, ws) = (&self.options, &mut self.workspace);
        self.solver
            .krylov_into(method, &self.vals, b, x, opts, ws, results);
        Ok(())
    }

    /// Scenario sweep: solves `k` pattern-identical systems — one per
    /// matrix in `mats` (process corners, parameter perturbations,
    /// Monte-Carlo draws) — through **one** batched refactorization and
    /// one lockstep panel Krylov solve.
    ///
    /// Column `c` of `b`/`x` belongs to scenario `c`: matrix `mats[c]`
    /// is refactored (batched, one schedule walk for all `k` value
    /// sets; see [`FactorsBatch::refactor_batch`]), its factors
    /// precondition column `c`, and its matvec drives column `c` of
    /// the batched Krylov iteration. Each column's bits are identical
    /// to a scalar `refactor` + `krylov` of that scenario alone. A
    /// sweep has no breakdown retry: a broken-down scenario's result is
    /// its first attempt.
    ///
    /// The batch is stored once, lane-interleaved (two `nnz_lu·k` value
    /// buffers beside the analysis's shared index arrays — no
    /// per-scenario factor objects), and every preconditioner apply of
    /// the iteration is one pass of the apply pipeline over it: one
    /// stream over the column indices and the interleaved values
    /// serves all `k` columns.
    ///
    /// The session caches the batch handle: the first call at width `k`
    /// allocates it ([`SymbolicIlu::factor_batch`]); subsequent calls
    /// at the same `k` are numeric-only and allocation-free. The handle
    /// stays inspectable through [`Session::scenario_batch`] (e.g. for
    /// per-scenario shift/breakdown statistics).
    ///
    /// # Errors
    /// * [`SparseError::DimensionMismatch`] when `mats` is empty or the
    ///   panel shapes disagree with `k = mats.len()`;
    /// * [`SparseError::PatternMismatch`] when any scenario matrix
    ///   deviates from the analyzed pattern (nothing is touched);
    /// * the first per-scenario numeric error
    ///   ([`SparseError::ZeroPivot`] / [`SparseError::Breakdown`]) when
    ///   a scenario's factorization fails — every scenario keeps its
    ///   latest successful factorization, and
    ///   [`Session::scenario_batch`] exposes every per-scenario status.
    pub fn sweep(
        &mut self,
        method: Method,
        mats: &[&CsrMatrix<T>],
        b: Panel<'_, T>,
        x: PanelMut<'_, T>,
    ) -> Result<Vec<SolverResult>, SparseError> {
        let n = self.n;
        let k = mats.len();
        if k == 0 || b.nrows() != n || x.nrows() != n || b.ncols() != k || x.ncols() != k {
            return Err(SparseError::DimensionMismatch(format!(
                "sweep: {k} scenario matrices against rhs {}x{} / solution {}x{} (system dimension {n})",
                b.nrows(),
                b.ncols(),
                x.nrows(),
                x.ncols(),
            )));
        }
        match &mut self.batch {
            Some(batch) if batch.k() == k => batch.refactor_batch(mats)?,
            slot => *slot = Some(self.solver.factors().symbolic().factor_batch(mats)?),
        }
        let batch = self.batch.as_ref().expect("sweep: batch just installed");
        if let Some(err) = batch
            .statuses()
            .iter()
            .find_map(|s| s.as_ref().err().cloned())
        {
            return Err(err);
        }
        // `refactor_batch` / `factor_batch` pattern-checked every
        // scenario against the analysis, so `a`'s plan serves them all.
        let mut results = vec![SolverResult::default(); k];
        let (opts, ws) = (&self.options, &mut self.workspace);
        self.solver
            .sweep_into(method, batch, mats, b, x, opts, ws, &mut results);
        Ok(results)
    }

    /// The cached scenario batch of the most recent [`Session::sweep`]
    /// (None before the first sweep): per-scenario statuses
    /// ([`FactorsBatch::statuses`]), statistics with the
    /// shift/breakdown bookkeeping ([`FactorsBatch::stats`]) and, on
    /// demand, a copy of one scenario's factors
    /// ([`FactorsBatch::to_factors`]).
    pub fn scenario_batch(&self) -> Option<&FactorsBatch<T>> {
        self.batch.as_ref()
    }

    /// Numeric-only refactorization for a pattern-identical matrix with
    /// new values (see [`IluFactors::refactor`], which checks `a`'s
    /// pattern): on success the session's values are overwritten with
    /// `a`'s in place and every plan, team and workspace is reused —
    /// zero allocations, zero thread spawns in the steady state.
    ///
    /// # Errors
    /// * [`SparseError::PatternMismatch`] when `a`'s pattern differs
    ///   from the analyzed one (session untouched);
    /// * [`SparseError::ZeroPivot`] when a pivot collapses under the
    ///   error policy.
    pub fn refactor(&mut self, a: &CsrMatrix<T>) -> Result<(), SparseError> {
        self.solver.refactor(a)?;
        self.vals.copy_from_slice(a.vals());
        Ok(())
    }

    /// The numeric factors (also this session's preconditioner).
    pub fn factors(&self) -> &IluFactors<T> {
        self.solver.factors()
    }

    /// The shared symbolic analysis handle.
    pub fn symbolic(&self) -> &SymbolicIlu<T> {
        self.factors().symbolic()
    }

    /// Factorization statistics of the most recent factor/refactor.
    pub fn stats(&self) -> &FactorStats {
        self.factors().stats()
    }

    /// The triangular-solve engine every apply in this session uses.
    pub fn engine(&self) -> SolveEngine {
        self.solver.engine()
    }

    /// The Krylov iteration controls.
    pub fn solver_options(&self) -> &SolverOptions {
        &self.options
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use javelin_core::sync::WorkerTeam;
    use javelin_core::{Preconditioner, ZeroPivotPolicy};
    use javelin_solver::{krylov_panel_with, krylov_with};
    use javelin_synth::grid::laplace_2d;
    use std::sync::Arc;

    fn b_vec(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 13 % 17) as f64) - 8.0).collect()
    }

    #[test]
    fn session_krylov_matches_direct_solver_calls() {
        let a = laplace_2d(14, 14);
        let n = a.nrows();
        let b = b_vec(n);
        let mut session = Session::builder()
            .ilu_options(IluOptions::ilu0(2))
            .build(&a)
            .unwrap();
        let mut xs = vec![0.0; n];
        let res = session.krylov(Method::Pcg, &b, &mut xs).unwrap();
        assert!(res.converged);
        // Reference: a direct PCG solve with the same factors and engine.
        let opts = IluOptions::ilu0(2);
        let factors = javelin_core::factorize(&a, &opts).unwrap();
        let mut xr = vec![0.0; n];
        let reference = krylov_with(
            Method::Pcg,
            &a,
            &b,
            &mut xr,
            &factors,
            &SolverOptions::default(),
            &mut SolverWorkspace::new(),
        );
        assert_eq!(res.iterations, reference.iterations);
        for (g, w) in xs.iter().zip(xr.iter()) {
            assert!((g - w).abs() <= 1e-10 * w.abs().max(1.0), "{g} vs {w}");
        }
    }

    #[test]
    fn session_methods_all_converge() {
        let a = laplace_2d(12, 12);
        let n = a.nrows();
        let b = b_vec(n);
        let mut session = Session::builder()
            .ilu_options(IluOptions::ilu0(2))
            .build(&a)
            .unwrap();
        for method in [
            Method::Pcg,
            Method::Gmres,
            Method::Fgmres,
            Method::Bicgstab,
            Method::BatchPcg,
            Method::BatchBicgstab,
            Method::BatchGmres,
        ] {
            let mut x = vec![0.0; n];
            let res = session.krylov(method, &b, &mut x).unwrap();
            assert!(res.converged, "{method} failed");
            let ax = a.spmv(&x);
            let rel: f64 = b
                .iter()
                .zip(&ax)
                .map(|(p, q)| (p - q) * (p - q))
                .sum::<f64>()
                .sqrt()
                / b.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(rel <= 1e-5, "{method}: residual {rel}");
        }
    }

    #[test]
    fn session_solve_is_one_preconditioner_apply() {
        let a = laplace_2d(10, 10);
        let n = a.nrows();
        let b = b_vec(n);
        let mut session = Session::builder()
            .ilu_options(IluOptions::ilu0(2))
            .build(&a)
            .unwrap();
        let engine = session.engine();
        let mut xs = vec![0.0; n];
        session.solve(&b, &mut xs).unwrap();
        let mut xr = vec![0.0; n];
        session.factors().with_engine(engine).apply(&b, &mut xr);
        assert_eq!(
            xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            xr.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn session_panel_paths_match_scalar_paths_bitwise() {
        let a = laplace_2d(9, 9);
        let n = a.nrows();
        let k = 3;
        let b: Vec<f64> = (0..n * k)
            .map(|i| ((i * 7 % 31) as f64) * 0.11 - 1.5)
            .collect();
        let mut session = Session::builder()
            .ilu_options(IluOptions::ilu0(2))
            .panel_width(k)
            .build(&a)
            .unwrap();
        let mut xp = vec![0.0; n * k];
        session
            .solve_panel(Panel::new(&b, n, k), PanelMut::new(&mut xp, n, k))
            .unwrap();
        for c in 0..k {
            let mut x = vec![0.0; n];
            session.solve(&b[c * n..(c + 1) * n], &mut x).unwrap();
            assert_eq!(
                xp[c * n..(c + 1) * n]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "column {c}"
            );
        }
        // Batched Krylov over the same panel converges column-wise,
        // whichever batch method drives it.
        for method in [Method::BatchPcg, Method::BatchBicgstab, Method::BatchGmres] {
            let mut xk = vec![0.0; n * k];
            let results = session
                .krylov_panel(method, Panel::new(&b, n, k), PanelMut::new(&mut xk, n, k))
                .unwrap();
            assert_eq!(results.len(), k, "{method}");
            assert!(results.iter().all(|r| r.converged), "{method}");
        }
    }

    #[test]
    fn session_refactor_tracks_new_values() {
        let a = laplace_2d(10, 10);
        let n = a.nrows();
        let b = b_vec(n);
        let mut session = Session::builder()
            .ilu_options(IluOptions::ilu0(2))
            .build(&a)
            .unwrap();
        // Scale the whole system: same pattern, new values.
        let (nr, nc, rp, ci, vs) = a.clone().into_parts();
        let vs2: Vec<f64> = vs.iter().map(|v| v * 2.0).collect();
        let a2 = CsrMatrix::from_raw_unchecked(nr, nc, rp, ci, vs2);
        session.refactor(&a2).unwrap();
        let mut x = vec![0.0; n];
        let res = session.krylov(Method::Pcg, &b, &mut x).unwrap();
        assert!(res.converged);
        // The solve multiplies with `a2`'s values: it carries the bits
        // of a plain solve on `a2` with `a2`'s factors.
        let f2 = javelin_core::factorize(&a2, &IluOptions::ilu0(2)).unwrap();
        let mut x2 = vec![0.0; n];
        let want = krylov_with(
            Method::Pcg,
            &a2,
            &b,
            &mut x2,
            &f2.with_engine(session.engine()),
            session.solver_options(),
            &mut SolverWorkspace::new(),
        );
        assert_eq!(res.iterations, want.iterations);
        assert_eq!(
            x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            x2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // A·x = b with A doubled means x is halved relative to the
        // original system's solution.
        let mut session1 = Session::builder()
            .ilu_options(IluOptions::ilu0(2))
            .build(&a)
            .unwrap();
        let mut x1 = vec![0.0; n];
        session1.krylov(Method::Pcg, &b, &mut x1).unwrap();
        for (two, one) in x.iter().zip(x1.iter()) {
            assert!((2.0 * two - one).abs() <= 1e-5 * one.abs().max(1.0));
        }
    }

    #[test]
    fn session_sweep_matches_per_scenario_scalar_solves_bitwise() {
        let a = laplace_2d(11, 11);
        let n = a.nrows();
        let k = 4;
        let corners: Vec<_> = (0..k)
            .map(|c| javelin_synth::util::revalue(&a, 0.3 + c as f64 * 0.77, 0.05))
            .collect();
        let mats: Vec<&CsrMatrix<f64>> = corners.iter().collect();
        let b: Vec<f64> = (0..n * k)
            .map(|i| ((i * 7 % 29) as f64) * 0.13 - 1.7)
            .collect();
        let mut session = Session::builder()
            .ilu_options(IluOptions::ilu0(2))
            .panel_width(k)
            .build(&a)
            .unwrap();
        assert!(session.scenario_batch().is_none());
        let mut xs = vec![0.0; n * k];
        let results = session
            .sweep(
                Method::BatchPcg,
                &mats,
                Panel::new(&b, n, k),
                PanelMut::new(&mut xs, n, k),
            )
            .unwrap();
        assert_eq!(results.len(), k);
        assert!(results.iter().all(|r| r.converged));
        let batch = session.scenario_batch().unwrap();
        assert_eq!(batch.k(), k);
        assert!(batch.all_ok());
        // Reference: an independent session per scenario, scalar
        // refactor + scalar krylov. Same bits, same iteration counts.
        for (c, m) in corners.iter().enumerate() {
            let mut single = Session::builder()
                .ilu_options(IluOptions::ilu0(2))
                .build(&a)
                .unwrap();
            single.refactor(m).unwrap();
            let mut x = vec![0.0; n];
            let r = single
                .krylov(Method::Pcg, &b[c * n..(c + 1) * n], &mut x)
                .unwrap();
            assert_eq!(r.iterations, results[c].iterations, "scenario {c}");
            assert_eq!(
                xs[c * n..(c + 1) * n]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "scenario {c}"
            );
        }
        // A second sweep at the same width reuses the cached batch.
        let mut xs2 = vec![0.0; n * k];
        let again = session
            .sweep(
                Method::BatchPcg,
                &mats,
                Panel::new(&b, n, k),
                PanelMut::new(&mut xs2, n, k),
            )
            .unwrap();
        assert!(again.iter().all(|r| r.converged));
        assert_eq!(
            xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            xs2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // Shape mismatches are rejected up front.
        assert!(session
            .sweep(
                Method::BatchPcg,
                &[],
                Panel::new(&b, n, k),
                PanelMut::new(&mut xs2, n, k)
            )
            .is_err());
    }

    #[test]
    fn session_rejects_mismatched_shapes() {
        let a = laplace_2d(6, 6);
        let n = a.nrows();
        let mut session = Session::builder().build(&a).unwrap();
        let b = vec![1.0; n - 1];
        let mut x = vec![0.0; n];
        assert!(session.krylov(Method::Pcg, &b, &mut x).is_err());
        assert!(session.solve(&b, &mut x).is_err());
        let bp = vec![0.0; n];
        let mut xp = vec![0.0; 2 * n];
        assert!(session
            .krylov_panel(
                Method::BatchPcg,
                Panel::new(&bp, n, 1),
                PanelMut::new(&mut xp, n, 2)
            )
            .is_err());
        // Pattern mismatch on refactor leaves the session usable.
        let other = laplace_2d(5, 5);
        assert!(matches!(
            session.refactor(&other),
            Err(SparseError::PatternMismatch(_))
        ));
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        assert!(session.krylov(Method::Pcg, &b, &mut x).unwrap().converged);
    }

    #[test]
    fn breakdown_retry_refreshes_factors_and_stamps_result() {
        // A non-finite right-hand side forces a structured breakdown on
        // the first attempt; the session must perform exactly one
        // automatic retry with a shifted preconditioner, stamp the
        // result, and surface the (still broken-down) outcome instead
        // of an error. The shifted refactor must land in the stats.
        let a = laplace_2d(10, 10);
        let n = a.nrows();
        let mut session = Session::builder()
            .ilu_options(IluOptions::ilu0(2))
            .build(&a)
            .unwrap();
        assert_eq!(session.stats().diag_shift, 0.0);
        let mut b = b_vec(n);
        b[3] = f64::NAN;
        let mut x = vec![0.0; n];
        let res = session.krylov(Method::Gmres, &b, &mut x).unwrap();
        assert!(res.broke_down());
        assert!(res.retried, "the automatic retry must be recorded");
        // The retry refactored with a forced diagonal shift and the
        // session kept the stabilized factors.
        assert!(session.stats().diag_shift > 0.0);
        // A healthy solve on the shifted (slightly less accurate)
        // preconditioner still converges — and needs no retry.
        let b = b_vec(n);
        let res = session.krylov(Method::Gmres, &b, &mut x).unwrap();
        assert!(res.converged);
        assert!(!res.retried);
    }

    #[test]
    fn breakdown_retry_refactors_from_the_current_values() {
        // After a refactor to `a2`, a forced breakdown's shifted refactor
        // must start from `a2`'s values, not from the matrix the session
        // was built from: its factors carry the bits of `a`'s factors
        // refactored to `a2` with the retry's shift.
        let a = laplace_2d(10, 10);
        let a2 = javelin_synth::util::revalue(&a, 0.83, 0.2);
        let n = a.nrows();
        for t in [1, 2] {
            let opts = IluOptions::ilu0(t);
            let mut session = Session::builder()
                .ilu_options(opts.clone())
                .build(&a)
                .unwrap();
            session.refactor(&a2).unwrap();
            let mut b = b_vec(n);
            b[3] = f64::NAN;
            let mut x = vec![0.0; n];
            let res = session.krylov(Method::Gmres, &b, &mut x).unwrap();
            assert!(res.retried && res.broke_down(), "t = {t}: {res:?}");
            let mut want = javelin_core::factorize(&a, &opts).unwrap();
            want.refactor_with_shift(&a2, 1e-4).unwrap();
            let bits = |f: &IluFactors<f64>| {
                f.lu()
                    .vals()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(session.factors()), bits(&want), "t = {t}");
        }
    }

    #[test]
    fn panel_breakdown_retries_only_the_broken_column() {
        // Column 1 of a width-3 panel carries a NaN: the panel's one
        // retry refactors with the shift and re-runs that column alone,
        // while columns 0 and 2 keep their first-attempt bits — those
        // of the plain panel solve with the unshifted factors.
        let a = laplace_2d(10, 10);
        let (n, k) = (a.nrows(), 3);
        let mut b: Vec<f64> = (0..n * k).map(|i| ((i * 13 % 17) as f64) - 8.0).collect();
        b[n + 3] = f64::NAN;
        let mut session = Session::builder()
            .ilu_options(IluOptions::ilu0(2))
            .panel_width(k)
            .build(&a)
            .unwrap();
        let factors = javelin_core::factorize(&a, &IluOptions::ilu0(2)).unwrap();
        let m = factors.with_engine(session.engine());
        let mut want_x = vec![0.0; n * k];
        let want = krylov_panel_with(
            Method::Bicgstab,
            &a,
            Panel::new(&b, n, k),
            PanelMut::new(&mut want_x, n, k),
            &m,
            session.solver_options(),
            &mut SolverWorkspace::new(),
        );
        let mut x = vec![0.0; n * k];
        let got = session
            .krylov_panel(
                Method::Bicgstab,
                Panel::new(&b, n, k),
                PanelMut::new(&mut x, n, k),
            )
            .unwrap();
        assert!(got[1].retried && got[1].broke_down(), "{:?}", got[1]);
        for c in [0, 2] {
            assert!(got[c].converged && !got[c].retried, "col {c}: {:?}", got[c]);
            assert_eq!(got[c].iterations, want[c].iterations, "col {c}");
            let col = |v: &[f64]| {
                v[c * n..(c + 1) * n]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(col(&x), col(&want_x), "col {c}");
        }
        assert!(session.stats().diag_shift > 0.0);
    }

    #[test]
    fn builder_knobs_are_applied() {
        // One config surface: every analysis knob travels inside the
        // `IluOptions` value and reaches the analysis unchanged, beside
        // the session's own knobs.
        let a = laplace_2d(8, 8);
        let opts = IluOptions::ilu0(2)
            .with_fill(1)
            .with_drop_tol(1e-3)
            .with_milu(0.5)
            .with_zero_pivot(ZeroPivotPolicy::shift_retry());
        let opts = IluOptions {
            pivot_threshold: 1e-12,
            ..opts
        };
        let mut session = Session::builder()
            .ilu_options(opts.clone())
            // Not the analysis's pick for a 2-thread team on a multicore
            // host, so the knob is visible.
            .engine(SolveEngine::Serial)
            .panel_width(4)
            .solver_options(SolverOptions {
                tol: 1e-10,
                ..Default::default()
            })
            .build(&a)
            .unwrap();
        let got = session.symbolic().options();
        assert_eq!(got.fill_level, 1);
        assert_eq!(got.drop_tol, 1e-3);
        assert_eq!(got.milu_omega, 0.5);
        assert_eq!(got.nthreads, 2);
        assert_eq!(got.zero_pivot, opts.zero_pivot);
        assert_eq!(got.pivot_threshold, 1e-12);
        assert_eq!(session.engine(), SolveEngine::Serial);
        assert_eq!(session.solver_options().tol, 1e-10);
        // The panel width warmed the apply buffer both engines solve in.
        assert!(session.workspace.precond.buffer(0).len() >= 4 * a.nrows());
        assert!(session.stats().nnz_lu >= a.nnz());
    }

    #[test]
    fn warmed_gmres_basis_session_matches_cold_session_bitwise() {
        let a = laplace_2d(9, 8);
        let n = a.nrows();
        let k = 3;
        let b: Vec<f64> = (0..n * k)
            .map(|i| ((i * 11 % 23) as f64) * 0.2 - 2.0)
            .collect();
        let mut warm = Session::builder()
            .panel_width(k)
            .warm_gmres_basis()
            .build(&a)
            .unwrap();
        let mut cold = Session::builder().panel_width(k).build(&a).unwrap();
        let mut xw = vec![0.0; n * k];
        let mut xc = vec![0.0; n * k];
        let rw = warm
            .krylov_panel(
                Method::BatchGmres,
                Panel::new(&b, n, k),
                PanelMut::new(&mut xw, n, k),
            )
            .unwrap();
        let rc = cold
            .krylov_panel(
                Method::BatchGmres,
                Panel::new(&b, n, k),
                PanelMut::new(&mut xc, n, k),
            )
            .unwrap();
        assert!(rw.iter().all(|r| r.converged));
        for c in 0..k {
            assert_eq!(rw[c].iterations, rc[c].iterations, "col {c}");
        }
        assert_eq!(
            xw.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            xc.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn shared_team_session() {
        let a = laplace_2d(8, 8);
        let team = Arc::new(WorkerTeam::new(2));
        let mut s1 = Session::builder()
            .ilu_options(IluOptions::default().with_shared_team(Arc::clone(&team)))
            .build(&a)
            .unwrap();
        let mut s2 = Session::builder()
            .ilu_options(IluOptions::default().with_shared_team(Arc::clone(&team)))
            .build(&a)
            .unwrap();
        let n = a.nrows();
        let b = b_vec(n);
        let mut x1 = vec![0.0; n];
        let mut x2 = vec![0.0; n];
        s1.krylov(Method::Pcg, &b, &mut x1).unwrap();
        s2.krylov(Method::Pcg, &b, &mut x2).unwrap();
        assert_eq!(
            x1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            x2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
