//! # javelin-solver
//!
//! Krylov iterative solvers — the consumers of Javelin's preconditioner
//! and the measurement instrument of the paper's Table II (iterations
//! to a 1e-6 relative residual under different orderings).
//!
//! [`Method`] names the four methods: preconditioned CG, restarted
//! GMRES, flexible GMRES and BiCGSTAB. Each is **one lockstep panel
//! driver**: `k` systems advance together through one RHS panel,
//! sharing one preconditioner schedule walk per apply, with per-column
//! convergence and breakdown masking. A single right-hand side is the
//! `k = 1` panel.
//!
//! ## Three entries, one driver per method
//!
//! * [`krylov_panel_into`] — the one [`Method`] dispatch: a panel, with
//!   per-column results written into a caller slice (the fully
//!   allocation-free form, the one [`IluSolver`] runs);
//! * [`krylov_panel_with`] — the same, returning a `Vec<SolverResult>`;
//! * [`krylov_with`] — one right-hand side, run as a width-1 panel
//!   with its result on the stack.
//!
//! All three take any [`javelin_core::Preconditioner`], share
//! [`SolverOptions`] / [`SolverResult`], and thread a caller-owned
//! [`SolverWorkspace`] through the iteration — including the
//! [`javelin_core::ApplyScratch`] handed to the preconditioner. After
//! the workspace's first use at a given size, a full solve performs
//! **zero heap allocations** (residual-history recording, off by
//! default, is the one documented exception), pairing with the
//! factorization's persistent worker team for an allocation-free,
//! spawn-free Krylov hot loop.
//!
//! ## One solve pipeline
//!
//! [`IluSolver`] packages the ILU factors with their engine, an spmv
//! plan on the analysis's team and the one breakdown-retry rule.
//! `javelin::Session` and the solve service run every Krylov solve
//! through it.
//!
//! ## No lane generic
//!
//! The drivers are not generic over a lane width: every per-column
//! loop is `for c in 0..k` over column-major `n`-vectors, and the
//! preconditioner's trisolve and spmv kernels pick their own lane
//! instantiation from the panel width. Restart boundaries, happy
//! breakdown, the non-finite guards and the iteration-cap exits exist
//! once per method, and column `c` of any width is bit-identical to
//! the width-1 solve of that column.
//!
//! ## The operator and the work table
//!
//! The drivers reach `A` only through [`PanelMatrices::spmv_col`], one
//! call per column per matvec, and every `n`-vector only through the
//! operator's vector hooks: [`PanelMatrices::dot`] for each dot and
//! 2-norm, [`PanelMatrices::map`], [`PanelMatrices::zip`] and
//! [`PanelMatrices::zip3`] for each update pass. So the caller picks
//! where the whole solve runs: on the caller's core by default (the
//! `vecops` bodies), on the analysis's team under [`IluSolver`], whose
//! plan splits each pass into whole reduction blocks per thread. The
//! dot is [`vecops::dot`]'s blocked sum either way, so a solve carries
//! the same bits at every thread count. What each method issues per
//! iteration — spmvs, preconditioner applies, reductions and
//! vector-update passes — is the table behind [`Method::ops`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bicgstab;
mod columns;
mod gmres;
mod golden;
mod ilu_solver;
mod ops;
mod pcg;
mod proptests;
pub mod workspace;

pub use ilu_solver::IluSolver;
pub use ops::{ConvergedAt, KrylovOps};
pub use workspace::SolverWorkspace;

use javelin_core::Preconditioner;
use javelin_sparse::{vecops, CsrMatrix, Panel, PanelMut, Scalar};

/// The operator axis of a batched panel solve: which matrix drives
/// panel column `c`'s recurrence.
///
/// Ordinary multi-RHS solves share one matrix across all columns
/// (`&CsrMatrix` implements this by ignoring the column index).
/// Scenario sweeps — `k` pattern-identical systems, one per panel
/// column — use [`ScenarioMatrices`] so each column iterates on its own
/// operator while still sharing the lockstep loop and the panel
/// preconditioner applies. The drivers only ever touch the operator
/// through [`PanelMatrices::spmv_col`], one call per column per
/// matvec, and their `n`-vectors through the hooks after it, one call
/// per pass, so an implementation decides *where* and *from what* each
/// `A·x`, dot and update runs: a `CsrMatrix` runs
/// [`CsrMatrix::spmv_into`] and the default [`vecops`] bodies on the
/// caller, and [`IluSolver`] multiplies the analysis's one pattern with
/// the system's values through a [`javelin_core::SpmvPlan`] on the
/// analysis's worker team — bitwise the same results either way.
pub trait PanelMatrices<T: Scalar>: Sync {
    /// Row dimension (shared by every column's matrix).
    fn nrows(&self) -> usize;
    /// `y = A_c·x` for panel column `c`: the drivers' one matvec hook.
    /// Implementations must carry the bits of
    /// [`CsrMatrix::spmv_into`] on column `c`'s matrix.
    fn spmv_col(&self, c: usize, x: &[T], y: &mut [T]);
    /// `xᵀ·y`, every dot and 2-norm of the drivers. `sums` is the
    /// workspace's block-sum scratch: at least
    /// [`vecops::n_blocks`]`(x.len())` slots of stale values, which a
    /// threaded dot may overwrite. Implementations must carry the bits
    /// of the default, [`vecops::dot`].
    fn dot(&self, x: &[T], y: &[T], sums: &mut [T]) -> T {
        let _ = sums;
        vecops::dot(x, y)
    }
    /// `yᵢ ← f(yᵢ)`: the drivers' fills and scales. Implementations
    /// must carry the bits of the default, [`vecops::map`].
    fn map<F: Fn(T) -> T + Sync>(&self, y: &mut [T], f: F) {
        vecops::map(y, f);
    }
    /// `yᵢ ← f(yᵢ, xᵢ)`: the drivers' axpys, xpbys, copies and
    /// residuals. Implementations must carry the bits of the default,
    /// [`vecops::zip`].
    fn zip<F: Fn(T, T) -> T + Sync>(&self, y: &mut [T], x: &[T], f: F) {
        vecops::zip(y, x, f);
    }
    /// `yᵢ ← f(yᵢ, uᵢ, vᵢ)`: BiCGSTAB's direction update.
    /// Implementations must carry the bits of the default,
    /// [`vecops::zip3`].
    fn zip3<F: Fn(T, T, T) -> T + Sync>(&self, y: &mut [T], u: &[T], v: &[T], f: F) {
        vecops::zip3(y, u, v, f);
    }
}

impl<T: Scalar> PanelMatrices<T> for CsrMatrix<T> {
    fn nrows(&self) -> usize {
        CsrMatrix::nrows(self)
    }
    fn spmv_col(&self, _c: usize, x: &[T], y: &mut [T]) {
        self.spmv_into(x, y);
    }
}

// Smart-pointer and reference pass-throughs, so callers holding an
// `Arc<CsrMatrix<T>>` (the solve-service shape) or a plain reference
// keep working without an explicit deref at the call site.
impl<T: Scalar, A: PanelMatrices<T> + ?Sized> PanelMatrices<T> for &A {
    fn nrows(&self) -> usize {
        (**self).nrows()
    }
    fn spmv_col(&self, c: usize, x: &[T], y: &mut [T]) {
        (**self).spmv_col(c, x, y);
    }
    fn dot(&self, x: &[T], y: &[T], sums: &mut [T]) -> T {
        (**self).dot(x, y, sums)
    }
    fn map<F: Fn(T) -> T + Sync>(&self, y: &mut [T], f: F) {
        (**self).map(y, f);
    }
    fn zip<F: Fn(T, T) -> T + Sync>(&self, y: &mut [T], x: &[T], f: F) {
        (**self).zip(y, x, f);
    }
    fn zip3<F: Fn(T, T, T) -> T + Sync>(&self, y: &mut [T], u: &[T], v: &[T], f: F) {
        (**self).zip3(y, u, v, f);
    }
}

impl<T: Scalar, A: PanelMatrices<T> + Send + ?Sized> PanelMatrices<T> for std::sync::Arc<A> {
    fn nrows(&self) -> usize {
        (**self).nrows()
    }
    fn spmv_col(&self, c: usize, x: &[T], y: &mut [T]) {
        (**self).spmv_col(c, x, y);
    }
    fn dot(&self, x: &[T], y: &[T], sums: &mut [T]) -> T {
        (**self).dot(x, y, sums)
    }
    fn map<F: Fn(T) -> T + Sync>(&self, y: &mut [T], f: F) {
        (**self).map(y, f);
    }
    fn zip<F: Fn(T, T) -> T + Sync>(&self, y: &mut [T], x: &[T], f: F) {
        (**self).zip(y, x, f);
    }
    fn zip3<F: Fn(T, T, T) -> T + Sync>(&self, y: &mut [T], u: &[T], v: &[T], f: F) {
        (**self).zip3(y, u, v, f);
    }
}

/// `‖x‖₂` through the operator's dot hook: `a.dot(x, x, sums).sqrt()`,
/// bitwise [`vecops::norm2`].
fn norm2<T: Scalar, A: PanelMatrices<T>>(a: &A, x: &[T], sums: &mut [T]) -> T {
    a.dot(x, x, sums).sqrt()
}

/// One matrix per panel column — the scenario-sweep consumer shape
/// (pair with [`javelin_core::FactorsBatch::precond`] for per-scenario
/// preconditioning). The matrices must agree in shape; the solve
/// asserts the slice covers the panel width.
pub struct ScenarioMatrices<'a, T>(pub &'a [&'a CsrMatrix<T>]);

impl<T: Scalar> PanelMatrices<T> for ScenarioMatrices<'_, T> {
    fn nrows(&self) -> usize {
        self.0[0].nrows()
    }
    fn spmv_col(&self, c: usize, x: &[T], y: &mut [T]) {
        self.0[c].spmv_into(x, y);
    }
}

/// Which Krylov method a solve runs — the method axis of the
/// [`krylov_panel_into`] dispatch and of the `javelin::Session` façade.
///
/// Every variant is a lockstep panel driver; [`krylov_with`] runs it at
/// width 1. The `Batch*` variants are synonyms of their scalar names
/// (the same driver, kept for callers that name them).
///
/// ```
/// use javelin_core::{factorize, IluOptions};
/// use javelin_solver::{krylov_with, Method, SolverOptions, SolverWorkspace};
///
/// let a = javelin_synth::grid::convection_diffusion_2d(10, 10, 0.4, 0.2);
/// let f = factorize(&a, &IluOptions::ilu0(1)).unwrap();
/// let b = vec![1.0; a.nrows()];
/// let mut ws = SolverWorkspace::new();
/// for method in [Method::Gmres, Method::Fgmres, Method::Bicgstab] {
///     let mut x = vec![0.0; a.nrows()];
///     let res = krylov_with(method, &a, &b, &mut x, &f, &SolverOptions::default(), &mut ws);
///     assert!(res.converged, "{method}");
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Preconditioned conjugate gradients for SPD systems, with a
    /// (symmetric positive) preconditioner `M` applied as `z = M⁻¹·r`.
    /// With `M = L·U` from ILU(0) of an SPD matrix this is the classic
    /// IC-preconditioned CG the paper's iteration study drives; plain CG
    /// is this method with `javelin_core::precond::IdentityPrecond`.
    /// Iterations count matrix–vector products (one matvec and one
    /// preconditioner application each).
    Pcg,
    /// Restarted GMRES(m) with right preconditioning, `m` =
    /// [`SolverOptions::restart`]. GMRES is the method the paper pairs
    /// with ILU for general (nonsymmetric) systems: `stri` is "the
    /// primary call needed for methods like GMRES that use ILU" (§VI).
    /// Right preconditioning keeps the *true* residual observable: the
    /// driver solves `A·M⁻¹·u = b`, `x = M⁻¹·u`, so the least-squares
    /// residual equals the unpreconditioned one. Iterations count
    /// *inner* Arnoldi steps (one matvec and one preconditioner
    /// application each), as the paper's Table II reports them.
    Gmres,
    /// Flexible GMRES (FGMRES, Saad 1993): GMRES with a preconditioner
    /// that may *change between iterations* — the standard pairing for
    /// preconditioners that are themselves iterative or
    /// nondeterministic (τ/MILU factors refreshed mid-solve, polynomial
    /// or SSOR preconditioning with varying sweep counts). It applies
    /// `M⁻¹` through a stored basis `Z = M⁻¹·V`, which is its cost over
    /// GMRES. It is the GMRES driver's flexible mode: a panel runs `k`
    /// FGMRES systems in lockstep with one shared apply per inner step.
    /// Iterations count as for [`Method::Gmres`].
    Fgmres,
    /// BiCGSTAB with right preconditioning — the low-memory alternative
    /// to GMRES for nonsymmetric systems (circuit-style matrices in the
    /// paper's group B often pair with it). Iterations count full
    /// BiCGSTAB steps (two matvecs and two preconditioner applications
    /// each).
    Bicgstab,
    /// Synonym of [`Method::Pcg`].
    BatchPcg,
    /// Synonym of [`Method::Bicgstab`].
    BatchBicgstab,
    /// Synonym of [`Method::Gmres`].
    BatchGmres,
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Method::Pcg => write!(f, "pcg"),
            Method::Gmres => write!(f, "gmres"),
            Method::Fgmres => write!(f, "fgmres"),
            Method::Bicgstab => write!(f, "bicgstab"),
            Method::BatchPcg => write!(f, "batch-pcg"),
            Method::BatchBicgstab => write!(f, "batch-bicgstab"),
            Method::BatchGmres => write!(f, "batch-gmres"),
        }
    }
}

/// Runs the chosen Krylov [`Method`] on one right-hand side with
/// caller-owned working memory. This is [`krylov_panel_into`] over the
/// vector viewed as a width-1 panel (a stack `[SolverResult; 1]`, so
/// nothing is allocated on the way).
///
/// # Panics
/// On dimension mismatches.
pub fn krylov_with<T: Scalar, A: PanelMatrices<T>, P: Preconditioner<T>>(
    method: Method,
    a: &A,
    b: &[T],
    x: &mut [T],
    m: &P,
    opts: &SolverOptions,
    ws: &mut SolverWorkspace<T>,
) -> SolverResult {
    let n = a.nrows();
    assert_eq!(b.len(), n, "krylov: rhs length");
    assert_eq!(x.len(), n, "krylov: solution length");
    let mut results = [SolverResult::default()];
    krylov_panel_into(
        method,
        a,
        Panel::from_col(b),
        PanelMut::from_col(x),
        m,
        opts,
        ws,
        &mut results,
    );
    let [res] = results;
    res
}

/// Runs the chosen Krylov [`Method`] over a whole RHS panel with
/// caller-owned working memory: [`krylov_panel_into`] with a
/// freshly allocated result vector. Returns one [`SolverResult`] per
/// column.
///
/// ```
/// use javelin_core::{factorize, IluOptions};
/// use javelin_solver::{krylov_panel_with, Method, SolverOptions, SolverWorkspace};
/// use javelin_sparse::{Panel, PanelMut};
///
/// let a = javelin_synth::grid::convection_diffusion_2d(12, 12, 0.4, 0.2);
/// let n = a.nrows();
/// let f = factorize(&a, &IluOptions::ilu0(2)).unwrap();
/// let (k, b) = (3, javelin_synth::util::rhs_panel(n, 3, 7));
/// let mut x = vec![0.0; n * k];
/// let results = krylov_panel_with(
///     Method::Bicgstab,
///     &a,
///     Panel::new(&b, n, k),
///     PanelMut::new(&mut x, n, k),
///     &f,
///     &SolverOptions::default(),
///     &mut SolverWorkspace::new(),
/// );
/// assert!(results.iter().all(|r| r.converged));
/// ```
///
/// # Panics
/// On panel shape mismatches.
pub fn krylov_panel_with<T: Scalar, A: PanelMatrices<T>, P: Preconditioner<T>>(
    method: Method,
    a: &A,
    b: Panel<'_, T>,
    x: PanelMut<'_, T>,
    m: &P,
    opts: &SolverOptions,
    ws: &mut SolverWorkspace<T>,
) -> Vec<SolverResult> {
    let mut results = vec![SolverResult::default(); b.ncols()];
    krylov_panel_into(method, a, b, x, m, opts, ws, &mut results);
    results
}

/// The one [`Method`] dispatch of the crate: runs the chosen method
/// over an RHS panel, writing per-column results into a caller slice —
/// the fully allocation-free entry (the one [`IluSolver`] runs), which
/// [`krylov_with`] and [`krylov_panel_with`] wrap. The Arnoldi slots
/// grow with the deepest cycle a solve runs; [`SolverWorkspace::reserve`]
/// warms the PCG/BiCGSTAB panels only, and with the workspace also
/// reserved via [`SolverWorkspace::reserve_gmres_basis`] for the
/// method, even the first GMRES or FGMRES panel solve performs zero
/// heap allocations.
///
/// Every method is a lockstep panel driver: `k` systems advance
/// together, sharing one preconditioner schedule walk per apply, with
/// per-column convergence/breakdown masking. The `Batch*` synonyms run
/// the driver of their scalar name, and [`Method::Fgmres`] runs the
/// GMRES driver in its flexible mode. Column `c` of the result is
/// bit-identical to the width-1 solve of column `c`.
///
/// Each result slot is reset to [`SolverResult::default`] before the
/// solve, so stale state (including a previous `retried` stamp) never
/// leaks through. `results.len()` must equal the panel width.
///
/// # Panics
/// On panel shape mismatches or a wrong `results` length.
#[allow(clippy::too_many_arguments)]
pub fn krylov_panel_into<T: Scalar, A: PanelMatrices<T>, P: Preconditioner<T>>(
    method: Method,
    a: &A,
    b: Panel<'_, T>,
    x: PanelMut<'_, T>,
    m: &P,
    opts: &SolverOptions,
    ws: &mut SolverWorkspace<T>,
    results: &mut [SolverResult],
) {
    match method {
        Method::Pcg | Method::BatchPcg => pcg::solve(a, b, x, m, opts, ws, results),
        Method::Bicgstab | Method::BatchBicgstab => bicgstab::solve(a, b, x, m, opts, ws, results),
        Method::Gmres | Method::BatchGmres => gmres::solve(false, a, b, x, m, opts, ws, results),
        Method::Fgmres => gmres::solve(true, a, b, x, m, opts, ws, results),
    }
}

/// Iteration controls shared by all solvers.
#[derive(Debug, Clone, Copy)]
pub struct SolverOptions {
    /// Relative residual target `‖b − A·x‖₂ / ‖b‖₂` (the paper's 1e-6).
    pub tol: f64,
    /// Hard iteration cap (matrix–vector products for CG/BiCGSTAB,
    /// inner iterations for GMRES).
    pub max_iters: usize,
    /// GMRES restart length `m`.
    pub restart: usize,
    /// Record the residual history (costs one allocation per iteration).
    pub record_history: bool,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            tol: 1e-6,
            max_iters: 5000,
            restart: 50,
            record_history: false,
        }
    }
}

/// How a solve terminated — the structured companion to
/// [`SolverResult::converged`]. Every driver distinguishes *running out
/// of iterations* from *numerical breakdown* (a non-finite residual or
/// a collapsed recurrence scalar): a breakdown freezes the affected
/// column where a healthy solver would have kept iterating on NaNs, so
/// the caller can react (refactor with a diagonal shift, switch
/// methods, restart the one bad column) instead of paying `max_iters`
/// of poisoned arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverStatus {
    /// The tolerance was met within the iteration cap.
    Converged,
    /// The iteration cap was exhausted with finite arithmetic. This is
    /// the `Default` (the reset state of [`SolverResult`]).
    #[default]
    MaxIters,
    /// The recurrence broke down: a residual norm turned NaN/∞, a
    /// direction dot-product collapsed to zero, or the right-hand side
    /// itself was non-finite. The iterate is frozen at the last finite
    /// state the driver produced.
    NumericalBreakdown,
}

/// Outcome of a solve. The `Default` value (unconverged, zero
/// iterations, empty history) is the reset state [`krylov_panel_into`]
/// writes over.
#[derive(Debug, Clone, Default)]
pub struct SolverResult {
    /// Whether the tolerance was met within the iteration cap.
    pub converged: bool,
    /// Iterations performed (the paper's Table-II statistic).
    pub iterations: usize,
    /// Final relative residual.
    pub relative_residual: f64,
    /// Per-iteration relative residuals (empty unless requested).
    pub history: Vec<f64>,
    /// Structured termination reason (see [`SolverStatus`]).
    pub status: SolverStatus,
    /// Whether this result came from the automatic breakdown retry (the
    /// first attempt hit [`SolverStatus::NumericalBreakdown`] and the
    /// column re-ran with a diagonally shifted preconditioner). The
    /// drivers never set it: [`IluSolver::krylov_into`] is its only
    /// stamper.
    pub retried: bool,
}

impl SolverResult {
    /// True when the solve halted on a numerical breakdown rather than
    /// converging or exhausting its iteration cap.
    pub fn broke_down(&self) -> bool {
        self.status == SolverStatus::NumericalBreakdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use javelin_core::precond::IdentityPrecond;
    use javelin_sparse::CooMatrix;

    #[test]
    fn defaults_match_paper_tolerance() {
        let o = SolverOptions::default();
        assert_eq!(o.tol, 1e-6);
        assert!(o.max_iters >= 1000);
        assert_eq!(o.restart, 50);
    }

    #[test]
    fn default_status_is_max_iters() {
        assert_eq!(SolverResult::default().status, SolverStatus::MaxIters);
        assert!(!SolverResult::default().broke_down());
    }

    const ALL_METHODS: [Method; 7] = [
        Method::Pcg,
        Method::Gmres,
        Method::Fgmres,
        Method::Bicgstab,
        Method::BatchPcg,
        Method::BatchBicgstab,
        Method::BatchGmres,
    ];

    fn diag_dominant(n: usize) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, -1.0).unwrap();
                coo.push(i + 1, i, -1.0).unwrap();
            }
        }
        coo.to_csr()
    }

    #[test]
    fn nan_rhs_halts_every_method_immediately() {
        // A poisoned right-hand side must produce a structured
        // NumericalBreakdown at iteration 0, not max_iters of NaN
        // arithmetic — and never a NaN solution with converged = true.
        let a = diag_dominant(30);
        let mut b = vec![1.0; 30];
        b[7] = f64::NAN;
        for method in ALL_METHODS {
            let mut x = vec![0.0; 30];
            let opts = SolverOptions::default();
            let mut ws = SolverWorkspace::new();
            let res = krylov_with(method, &a, &b, &mut x, &IdentityPrecond, &opts, &mut ws);
            assert!(!res.converged, "{method}");
            assert_eq!(res.status, SolverStatus::NumericalBreakdown, "{method}");
            assert_eq!(res.iterations, 0, "{method}");
            assert!(res.broke_down(), "{method}");
            // The iterate is frozen at the (finite) initial guess.
            assert!(x.iter().all(|v| v.is_finite()), "{method}");
        }
    }

    #[test]
    fn nan_matrix_value_halts_with_breakdown_not_cap() {
        // One NaN in the operator: every driver must freeze the solve
        // within the first couple of iterations with a breakdown
        // status, far from the 5000-iteration cap.
        let n = 30;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0).unwrap();
        }
        coo.push(12, 13, f64::NAN).unwrap();
        let a = coo.to_csr();
        let b = vec![1.0; n];
        let opts = SolverOptions::default();
        for method in ALL_METHODS {
            let mut x = vec![0.0; n];
            let mut ws = SolverWorkspace::new();
            let res = krylov_with(method, &a, &b, &mut x, &IdentityPrecond, &opts, &mut ws);
            assert!(!res.converged, "{method}");
            assert_eq!(res.status, SolverStatus::NumericalBreakdown, "{method}");
            assert!(
                res.iterations + 2 < opts.max_iters,
                "{method}: froze at {} of {}",
                res.iterations,
                opts.max_iters
            );
        }
    }

    #[test]
    fn poisoned_panel_column_freezes_without_perturbing_neighbours() {
        // Column 1 carries a NaN RHS; columns 0 and 2 must converge
        // bit-identically to their standalone scalar solves.
        let a = diag_dominant(40);
        let n = a.nrows();
        let k = 3;
        let mut b = vec![0.0; n * k];
        for i in 0..n {
            b[i] = ((i % 7) as f64) - 3.0;
            b[2 * n + i] = ((i % 5) as f64) * 0.5 - 1.0;
        }
        b[n + 4] = f64::NAN;
        let opts = SolverOptions::default();
        for method in [
            Method::BatchPcg,
            Method::BatchBicgstab,
            Method::BatchGmres,
            Method::Fgmres,
        ] {
            let mut xb = vec![0.0; n * k];
            let res = krylov_panel_with(
                method,
                &a,
                Panel::new(&b, n, k),
                PanelMut::new(&mut xb, n, k),
                &IdentityPrecond,
                &opts,
                &mut SolverWorkspace::new(),
            );
            assert_eq!(res[1].status, SolverStatus::NumericalBreakdown, "{method}");
            assert!(!res[1].converged, "{method}");
            for c in [0usize, 2] {
                assert!(res[c].converged, "{method} col {c}");
                assert_eq!(res[c].status, SolverStatus::Converged, "{method} col {c}");
                let mut xs = vec![0.0; n];
                let scalar = krylov_with(
                    method,
                    &a,
                    &b[c * n..(c + 1) * n],
                    &mut xs,
                    &IdentityPrecond,
                    &opts,
                    &mut SolverWorkspace::new(),
                );
                assert_eq!(scalar.iterations, res[c].iterations, "{method} col {c}");
                let pb: Vec<u64> = xb[c * n..(c + 1) * n].iter().map(|v| v.to_bits()).collect();
                let sb: Vec<u64> = xs.iter().map(|v| v.to_bits()).collect();
                assert_eq!(pb, sb, "{method} col {c}");
            }
        }
    }
}
