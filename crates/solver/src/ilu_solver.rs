//! The one solve pipeline: ILU factors, their engine, the spmv plan
//! and the breakdown retry, packaged once for every consumer.
//!
//! `javelin::Session` and the solve service both run their Krylov
//! solves through an [`IluSolver`]. It owns the numeric factors, the
//! triangular-solve engine resolved once at construction, and an spmv
//! plan of the system on the analysis's own team
//! ([`SymbolicIlu::spmv_plan`]), through which every matvec runs. The
//! plan holds the analysis's one `u32` copy of the pattern, so a solve
//! needs only the system's values: the caller keeps them, the
//! [`SolverWorkspace`] and the [`SolverOptions`] and lends them per
//! call, so one workspace can serve many solvers and no solver holds a
//! copy of its matrix.

use crate::{
    krylov_panel_into, Method, PanelMatrices, SolverOptions, SolverResult, SolverWorkspace,
};
use javelin_core::{FactorsBatch, IluFactors, IluOptions, SolveEngine, SpmvPlan, SymbolicIlu};
use javelin_sparse::{CsrMatrix, Panel, PanelMut, Scalar, SparseError};

/// Relative diagonal shift of the breakdown retry: the factors are
/// refactored with every diagonal boosted by `1e-4 · max|aᵢᵢ|`, trading
/// a little accuracy (a few more Krylov iterations) for the stability
/// the first attempt lacked.
const BREAKDOWN_RETRY_SHIFT: f64 = 1e-4;

/// ILU factors with their engine and spmv plan: the Krylov solve
/// pipeline `javelin::Session` and the solve service share (see module
/// docs).
///
/// ```
/// use javelin_core::IluOptions;
/// use javelin_solver::{IluSolver, Method, SolverOptions, SolverResult, SolverWorkspace};
/// use javelin_sparse::{Panel, PanelMut};
///
/// let a = javelin_synth::grid::laplace_2d(12, 12);
/// let n = a.nrows();
/// let mut solver = IluSolver::new(&a, &IluOptions::ilu0(2), None).unwrap();
/// let b = vec![1.0; n];
/// let mut x = vec![0.0; n];
/// let mut results = [SolverResult::default()];
/// solver.krylov_into(
///     Method::Pcg,
///     a.vals(),
///     Panel::from_col(&b),
///     PanelMut::from_col(&mut x),
///     &SolverOptions::default(),
///     &mut SolverWorkspace::new(),
///     &mut results,
/// );
/// assert!(results[0].converged);
/// ```
pub struct IluSolver<T: Scalar> {
    factors: IluFactors<T>,
    engine: SolveEngine,
    /// Row blocks of the system on the analysis's team.
    spmv: SpmvPlan<T>,
}

impl<T: Scalar> IluSolver<T> {
    /// Analyzes and factors `a` under `opts`. `engine` pins every
    /// apply's triangular-solve engine; `None` takes the analysis's
    /// choice ([`IluFactors::default_engine`]).
    ///
    /// # Errors
    /// Everything [`SymbolicIlu::analyze`] / [`SymbolicIlu::factor`]
    /// can return.
    pub fn new(
        a: &CsrMatrix<T>,
        opts: &IluOptions,
        engine: Option<SolveEngine>,
    ) -> Result<Self, SparseError> {
        let factors = SymbolicIlu::analyze(a, opts)?.factor(a)?;
        Ok(IluSolver {
            engine: engine.unwrap_or_else(|| factors.default_engine()),
            spmv: factors.symbolic().spmv_plan(a),
            factors,
        })
    }

    /// Numeric-only refactorization for new values on the analyzed
    /// pattern ([`IluFactors::refactor`]); it also drops the shift a
    /// breakdown retry left in the factors.
    ///
    /// # Errors
    /// See [`IluFactors::refactor`].
    pub fn refactor(&mut self, a: &CsrMatrix<T>) -> Result<(), SparseError> {
        self.factors.refactor(a)
    }

    /// The numeric factors (the preconditioner of every solve).
    pub fn factors(&self) -> &IluFactors<T> {
        &self.factors
    }

    /// The triangular-solve engine every apply uses.
    pub fn engine(&self) -> SolveEngine {
        self.engine
    }

    /// Runs `method` over the panel `b` from the initial guesses in `x`
    /// against the system whose values are `vals`, one result per
    /// column into `results` ([`krylov_panel_into`], every matvec
    /// through the plan). `vals` must be the values the factors were
    /// last refactored from, one per entry of the analyzed pattern in
    /// its order: the plan multiplies them with the analysis's copy of
    /// that pattern ([`SpmvPlan::execute_vals`]), which checks their
    /// number, not where they came from. A caller checks the pattern
    /// when the values come in, as `javelin::Session::refactor` and the
    /// service's cache lookup do. It carries the pipeline's one
    /// breakdown retry:
    ///
    /// 1. run the panel;
    /// 2. if any column ended in
    ///    [`SolverStatus::NumericalBreakdown`](crate::SolverStatus::NumericalBreakdown),
    ///    refactor from `vals` with a small forced diagonal shift
    ///    ([`IluFactors::refactor_vals_with_shift`]), at most once per
    ///    call;
    /// 3. if that refactor succeeds, re-run exactly the broken columns,
    ///    one at a time, from their frozen finite iterates, and stamp
    ///    their results `retried`. A width-1 re-run carries the bits of
    ///    that column in a panel, so where a column runs never matters;
    /// 4. the shifted factors stay until the next refactor
    ///    (self-healing: later solves reuse the stable
    ///    preconditioner). If the shifted refactor fails, the
    ///    first-attempt results stand.
    ///
    /// # Panics
    /// On shape mismatches, a wrong number of values or a wrong
    /// `results` length.
    #[allow(clippy::too_many_arguments)]
    pub fn krylov_into(
        &mut self,
        method: Method,
        vals: &[T],
        b: Panel<'_, T>,
        mut x: PanelMut<'_, T>,
        opts: &SolverOptions,
        ws: &mut SolverWorkspace<T>,
        results: &mut [SolverResult],
    ) {
        let op = OnPlan {
            plan: &self.spmv,
            vals: |_| vals,
        };
        let (n, k, stride) = (x.nrows(), x.ncols(), x.col_stride());
        let first = PanelMut::with_stride(x.data_mut(), n, k, stride);
        let m = self.factors.with_engine(self.engine);
        krylov_panel_into(method, &op, b, first, &m, opts, ws, results);
        if !results.iter().any(SolverResult::broke_down) {
            return;
        }
        // A failed shifted refactor leaves the factors as they were, and
        // the first-attempt results stand.
        let Ok(()) = self
            .factors
            .refactor_vals_with_shift(vals, BREAKDOWN_RETRY_SHIFT)
        else {
            return;
        };
        let m = self.factors.with_engine(self.engine);
        for (c, result) in results.iter_mut().enumerate() {
            if result.broke_down() {
                let (bc, xc) = (Panel::from_col(b.col(c)), PanelMut::from_col(x.col_mut(c)));
                let slot = std::slice::from_mut(result);
                krylov_panel_into(method, &op, bc, xc, &m, opts, ws, slot);
                result.retried = true;
            }
        }
    }

    /// The scenario sweep's solve: column `c` of `b`/`x` iterates on
    /// `mats[c]`, preconditioned by scenario `c` of `batch` (which must
    /// have been factored from `mats`), every matvec through the plan
    /// on `mats[c]`'s values. Every scenario matrix must carry the
    /// analyzed pattern, as [`FactorsBatch::refactor_batch`] checks. It
    /// has no retry, because a batch has no shifted refactor.
    ///
    /// # Panics
    /// On shape mismatches or a wrong `results` length.
    #[allow(clippy::too_many_arguments)]
    pub fn sweep_into(
        &self,
        method: Method,
        batch: &FactorsBatch<T>,
        mats: &[&CsrMatrix<T>],
        b: Panel<'_, T>,
        x: PanelMut<'_, T>,
        opts: &SolverOptions,
        ws: &mut SolverWorkspace<T>,
        results: &mut [SolverResult],
    ) {
        let m = batch.precond(self.engine);
        let op = OnPlan {
            plan: &self.spmv,
            vals: |c: usize| mats[c].vals(),
        };
        krylov_panel_into(method, &op, b, x, &m, opts, ws, results);
    }
}

/// The solver's operator: the plan's one pattern multiplied with
/// `vals(c)`, the values of panel column `c`'s matrix — one shared slice
/// for a system, one slice per scenario for a sweep — with every matvec
/// and every vector pass run through the plan, on the analysis's team:
/// bitwise [`CsrMatrix::spmv_into`] and the `vecops` bodies.
struct OnPlan<'p, T, V> {
    plan: &'p SpmvPlan<T>,
    vals: V,
}

impl<'p, T: Scalar, V: Fn(usize) -> &'p [T] + Sync> PanelMatrices<T> for OnPlan<'p, T, V> {
    fn nrows(&self) -> usize {
        self.plan.nrows()
    }
    fn spmv_col(&self, c: usize, x: &[T], y: &mut [T]) {
        let (x, y) = (Panel::from_col(x), PanelMut::from_col(y));
        self.plan.execute_vals((self.vals)(c), x, y);
    }
    fn dot(&self, x: &[T], y: &[T], sums: &mut [T]) -> T {
        self.plan.dot(x, y, sums)
    }
    fn map<F: Fn(T) -> T + Sync>(&self, y: &mut [T], f: F) {
        self.plan.map(y, f);
    }
    fn zip<F: Fn(T, T) -> T + Sync>(&self, y: &mut [T], x: &[T], f: F) {
        self.plan.zip(y, x, f);
    }
    fn zip3<F: Fn(T, T, T) -> T + Sync>(&self, y: &mut [T], u: &[T], v: &[T], f: F) {
        self.plan.zip3(y, u, v, f);
    }
}
