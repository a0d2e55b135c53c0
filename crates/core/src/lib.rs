//! # javelin-core
//!
//! The Javelin incomplete-LU framework (Booth & Bolet, IPDPS 2019):
//! a scalable shared-memory ILU factorization co-designed with the
//! sparse triangular solves that dominate preconditioned iterative
//! methods, all on conventional CSR storage.
//!
//! ## Pipeline
//!
//! 1. **Symbolic** (`symbolic`): the ILU(k) fill pattern of `A`, by
//!    the serial row-merge recurrence, at `u32` indices.
//! 2. **Level analysis** ([`level`]): level sets of `lower(S)` or
//!    `lower(S+Sᵀ)` (read from the fill in one pass, no triangle
//!    built), the two-stage split, and the sparsified point-to-point
//!    schedule.
//! 3. **Numeric** (`numeric`): up-looking factorization of the
//!    permuted pattern — upper stage under point-to-point progress
//!    counters, lower stage by Even-Rows, corner factored serially
//!    last. Deterministic: every engine produces bit-identical factors
//!    to the serial kernel.
//! 4. **Solves** ([`trisolve`]): forward/backward substitution through
//!    two engines — serial, and point-to-point level scheduling plus
//!    Even-Rows trailing rows (the paper's LS+Lower), bitwise serial —
//!    behind one apply pipeline.
//! 5. **spmv** ([`spmv`]): one planned kernel ([`SpmvPlan`]), the
//!    plain CSR row loop of `javelin-sparse`
//!    ([`spmv_csr_rows`](javelin_sparse::spmv_csr_rows)) run over a
//!    `u32` copy of the pattern on nnz-balanced row blocks, one per
//!    thread, bitwise the serial loop. [`SymbolicIlu::spmv_plan`]
//!    builds it on the analysis's own team and its copy of the
//!    analyzed pattern, so a threaded `javelin::Session` runs its
//!    Krylov matvecs on the same (pinned) threads as its applies.
//!
//! Under all of them sits [`sync`], the concurrency substrate: the
//! persistent worker team every region runs on, monotone progress
//! counters (the runtime half of the point-to-point schedule), the
//! spin barrier and core pinning.
//!
//! ## The two-phase API: analyze → factor → refactor → solve
//!
//! The pipeline above is *phased* the way the paper describes it:
//! steps 1–2 depend only on the sparsity **pattern**, step 3 on the
//! **values**, and step 4 runs thousands of times per factorization.
//! The API mirrors that exactly (the symbolic/numeric handle split of
//! SuperLU/KLU-style production interfaces):
//!
//! * **Analyze (once per pattern).** [`SymbolicIlu::analyze`] computes
//!   everything pattern-dependent: the ILU(k) fill, level sets, the
//!   two-stage split and permutation, the update list (every
//!   elimination update of the numeric phase, resolved once), the
//!   forward/backward point-to-point schedules, the
//!   [`factors::SolvePlan`], the walks' progress counters and barrier
//!   (pattern-only, under one lock shared by refactors and threaded
//!   applies), and an `Arc` of a [`sync::WorkerTeam`] — the persistent
//!   team every later region runs on, its threads parked between calls. It holds
//!   no value buffer.
//! * **Factor (once per value set).** [`SymbolicIlu::factor`] runs the
//!   numeric up-looking elimination through the planned engines and
//!   returns [`IluFactors`], which shares the analysis handle.
//! * **Refactor (every time step).** [`IluFactors::refactor`] redoes
//!   *only* the numeric phase in place for a pattern-identical matrix:
//!   zero heap allocations, zero thread spawns (the planned engines run
//!   as regions on the persistent team), bit-identical to a fresh
//!   [`SymbolicIlu::factor`] of the same values.
//! * **Execute (every iteration).** [`Preconditioner::apply_with`]
//!   (through the default engine, or one pinned by
//!   [`IluFactors::with_engine`]) and [`SpmvPlan::execute`] run fused
//!   parallel regions on the planned team: no heap allocation, no
//!   thread spawn, no `partition_point` searches — just loads, FMAs,
//!   and point-to-point waits. Engine results stay bit-identical to
//!   their serial references at every thread count.
//! * **Workspaces.** Callers own every width-sized buffer explicitly:
//!   [`ApplyScratch`] holds the `n·k` solve buffer both engines apply
//!   in, `SolverWorkspace` in `javelin-solver` a Krylov solver's
//!   vectors and that scratch, so one `SolverWorkspace::reserve` warms
//!   every engine. Buffers are grow-only: sized on first use (or by
//!   the reserve), reused verbatim afterwards, at every narrower width
//!   too.
//! * **Panels (multi-RHS).** Every execute path is generic over an RHS
//!   panel width `k`: [`Preconditioner::apply_panel_with`] /
//!   [`IluFactors::solve_panel_with_buffer`] (the one fallible apply:
//!   it reports a shape mismatch as an error, where the trait panics)
//!   and
//!   [`SpmvPlan::execute_panel`] retire a whole `k`-wide block of
//!   vectors under **one** schedule walk (on the Serial engine: one
//!   stream over the factor). The factor apply is one pipeline for
//!   every engine and width — the lane engine reads `B` and writes `X`
//!   through the permutation, solving in the caller's row-interleaved
//!   buffer (wide Serial panels gather and scatter instead) — shared
//!   by [`IluFactors`] (one factor
//!   under every column) and [`FactorsBatch`] (column `c` against
//!   scenario `c` of its lane-interleaved values), and a single vector
//!   is a one-column panel, so column `c` of any panel operation is
//!   **bit-identical** to the single-RHS path on that column.
//!   The Krylov drivers (`javelin_solver::krylov_panel_into`) build
//!   on that contract with per-column convergence masking.
//!
//! The one-shot [`factorize`] fuses analyze + factor for callers that
//! factor a pattern exactly once. Applications should usually sit one
//! level higher still, on the `javelin::Session` façade, which owns
//! the workspaces too.
//!
//! ## Quick start
//!
//! ```
//! use javelin_core::{options::IluOptions, Preconditioner, SymbolicIlu};
//! use javelin_sparse::CooMatrix;
//!
//! // A small SPD tridiagonal system.
//! let n = 32;
//! let mut coo = CooMatrix::new(n, n);
//! for i in 0..n {
//!     coo.push(i, i, 2.0).unwrap();
//!     if i + 1 < n {
//!         coo.push(i, i + 1, -1.0).unwrap();
//!         coo.push(i + 1, i, -1.0).unwrap();
//!     }
//! }
//! let a = coo.to_csr();
//! // Pattern work once …
//! let sym = SymbolicIlu::analyze(&a, &IluOptions::default()).unwrap();
//! // … numeric factorization per value set …
//! let mut factors = sym.factor(&a).unwrap();
//! let b = vec![1.0f64; n];
//! let mut x = vec![0.0f64; n];
//! factors.apply(&b, &mut x);
//! assert!(x.iter().all(|v| v.is_finite()));
//! // … and when the values change on the same pattern, numeric-only:
//! factors.refactor(&a).unwrap();
//! ```

// `deny`, not `forbid`: three `sync` modules opt back in — the team's
// borrowed regions, `RegionCells`' `Sync` claim (the one shared-buffer
// type of the apply, the spmv and the numeric factorization, argued in
// docs/ARCHITECTURE.md §7) and the affinity FFI call; everything else
// stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod batch_factor;
pub mod factors;
pub mod level;
pub(crate) mod numeric;
pub mod options;
pub(crate) mod pattern;
pub mod precond;
pub mod spmv;
pub mod stats;
pub(crate) mod symbolic;
pub mod symbolic_ilu;
pub mod sync;
#[cfg(test)]
mod test_matrices;
pub mod trisolve;

pub use batch_factor::FactorsBatch;
pub use factors::{factorize, IluFactors};
pub use options::{IluOptions, SolveEngine, ZeroPivotPolicy};
pub use precond::{ApplyScratch, EnginePinned, Preconditioner};
pub use spmv::SpmvPlan;
pub use stats::{FactorStats, Work};
pub use symbolic_ilu::SymbolicIlu;
