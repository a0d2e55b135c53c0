//! # Javelin
//!
//! A scalable sparse incomplete-LU factorization framework — a Rust
//! reproduction of *"Javelin: A Scalable Implementation for Sparse
//! Incomplete LU Factorization"* (Booth & Bolet, IPDPS 2019).
//!
//! ## The `Session` façade
//!
//! The recommended entry point is [`Session`]: one object that owns the
//! matrix, the two-phase factorization, the persistent worker team and
//! every workspace, with the whole solve surface collapsed to three
//! verbs — `solve` (one preconditioner apply), `solve_panel` (multi-RHS)
//! and `krylov` (full iterative solve):
//!
//! ```
//! use javelin::prelude::*;
//!
//! // 2D Poisson problem, ILU(0) preconditioner, solve with PCG.
//! let a = javelin::synth::grid::laplace_2d(16, 16);
//! let mut session = Session::builder().nthreads(2).build(&a).unwrap();
//! let b = vec![1.0; a.nrows()];
//! let mut x = vec![0.0; a.nrows()];
//! let res = session.krylov(Method::Pcg, &b, &mut x).unwrap();
//! assert!(res.converged);
//! ```
//!
//! ## The two-phase lifecycle: analyze → factor → refactor → solve
//!
//! Underneath the façade, the API mirrors the paper's phase structure
//! (the symbolic/numeric handle split of SuperLU/KLU-style interfaces):
//!
//! * [`SymbolicIlu::analyze`](core::SymbolicIlu::analyze) does all
//!   pattern-dependent work once — ordering, ILU(k) fill, level
//!   schedules, the two-stage split, trisolve/spmv plans, the walks'
//!   counters and the worker team;
//! * [`SymbolicIlu::factor`](core::SymbolicIlu::factor) runs the
//!   numeric phase for one value set;
//! * [`IluFactors::refactor`](core::IluFactors::refactor) redoes the
//!   numeric phase **in place** for a pattern-identical matrix — zero
//!   allocations, zero thread spawns, bit-identical to a fresh factor —
//!   so a time stepper pays the symbolic cost exactly once;
//! * every solve/apply runs allocation-free on the persistent team.
//!
//! Time-stepping with [`Session::refactor`]:
//!
//! ```
//! use javelin::prelude::*;
//!
//! let a = javelin::synth::grid::laplace_2d(12, 12);
//! let mut session = Session::builder().build(&a).unwrap();
//! let mut u = vec![1.0; a.nrows()];
//! for _step in 0..3 {
//!     // values drift, pattern fixed → numeric-only refactorization
//!     session.refactor(&a).unwrap();
//!     let b = u.clone();
//!     let res = session.krylov(Method::Pcg, &b, &mut u).unwrap();
//!     assert!(res.converged);
//! }
//! ```
//!
//! The subsystem crates are re-exported under their short names:
//!
//! * [`sparse`] — CSR/CSC/COO formats, permutations, Matrix Market I/O
//! * [`synth`] — synthetic matrix generators (incl. the paper test suite)
//! * [`order`] — RCM, minimum-degree, nested dissection, DM, coloring
//! * [`core`] — the ILU framework itself (factorization, stri, spmv),
//!   with two of its modules also re-exported at the top level:
//!   [`level`] (level-set scheduling, two-stage split, p2p schedules)
//!   and [`sync`] (worker team, progress counters, spin barrier)
//! * [`baseline`] — the heavyweight comparator
//! * [`solver`] — PCG / GMRES / FGMRES / BiCGSTAB: three entries
//!   (`krylov_with`, `krylov_panel_with`, `krylov_panel_into`) over one
//!   lockstep panel driver per method, no lane generic
//! * [`machine`] — the apply simulator behind the reference benchmark's
//!   `machine.*` metrics (the paper's figures count spans instead)
//!
//! ## Multi-RHS panels and the lane layer
//!
//! Every layer is generic over a panel width `k` through the
//! width-generic **lane layer** ([`sparse::lanes`]): one kernel core
//! serves the scalar path (`FixedLanes<1>`), the SIMD-specialized
//! widths (`k ∈ {4, 8}`, monomorphized) and arbitrary dynamic widths.
//! One preconditioner schedule walk retires all `k` columns, and the
//! Krylov drivers (plain column-major loops above the lane kernels)
//! run `k` systems in lockstep with per-column convergence (and
//! breakdown) masking — column `c` always carries exactly the bits of
//! the scalar solve of column `c`:
//!
//! ```
//! use javelin::prelude::*;
//!
//! let a = javelin::synth::grid::convection_diffusion_2d(12, 12, 0.4, 0.2);
//! let n = a.nrows();
//! let mut session = Session::builder().panel_width(4).build(&a).unwrap();
//! let (k, b) = (4, javelin::synth::util::rhs_panel(n, 4, 7));
//! let mut x = vec![0.0; n * k];
//! let results = session
//!     .krylov_panel(
//!         Method::BatchGmres,
//!         Panel::new(&b, n, k),
//!         PanelMut::new(&mut x, n, k),
//!     )
//!     .unwrap();
//! assert!(results.iter().all(|r| r.converged));
//! ```
//!
//! ## Further reading
//!
//! The repository ships a docs layer alongside the rustdoc:
//! `README.md` (quickstart, workspace map, headline bench numbers)
//! and `docs/ARCHITECTURE.md` — the three load-bearing lifecycles
//! (plan/execute, panel stride + lockstep masking, and
//! analyze→factor→refactor) with diagrams and pointers into the
//! crates that implement them.

pub use javelin_baseline as baseline;
pub use javelin_core as core;
pub use javelin_core::{level, sync};
pub use javelin_machine as machine;
pub use javelin_order as order;
pub use javelin_service as service;
pub use javelin_solver as solver;
pub use javelin_sparse as sparse;
pub use javelin_synth as synth;

pub mod session;

pub use session::{Session, SessionBuilder};

/// Commonly used items, for `use javelin::prelude::*`.
pub mod prelude {
    pub use crate::session::{Session, SessionBuilder};
    pub use javelin_core::factorize;
    pub use javelin_core::factors::IluFactors;
    pub use javelin_core::options::{IluOptions, SolveEngine, ZeroPivotPolicy};
    pub use javelin_core::symbolic_ilu::SymbolicIlu;
    pub use javelin_core::FactorsBatch;
    pub use javelin_solver::{
        Method, PanelMatrices, ScenarioMatrices, SolverOptions, SolverResult, SolverStatus,
        SolverWorkspace,
    };
    pub use javelin_sparse::{
        CooMatrix, CsrMatrix, DynLanes, FixedLanes, Lanes, Panel, PanelMut, Perm, Scalar,
    };
}
