//! # javelin-service
//!
//! The solver-as-a-service layer: a persistent, multi-tenant solve
//! service over the Javelin ILU stack — the end-to-end realization of
//! the paper's amortization thesis (pay the symbolic/setup phase once,
//! amortize it across many numeric solves) under the traffic shape
//! that actually motivates it: many concurrent clients, pattern-
//! identical systems, values churning per request.
//!
//! The pipeline, end to end:
//!
//! 1. **Fingerprint** — each request's matrix pattern is hashed
//!    structurally ([`javelin_sparse::pattern_fingerprint`]); the
//!    engine memoizes fingerprints per `Arc` handle so streaming
//!    clients never re-hash.
//! 2. **Cache** — completed [`javelin_core::SymbolicIlu`] analyses,
//!    each with its factors, engine and spmv plan in one
//!    [`javelin_solver::IluSolver`], live in a pattern-keyed LRU
//!    (`PatternCache`); every fingerprint match is verified against
//!    the full pattern, so collisions degrade to counted misses, never
//!    wrong answers. A cached pattern costs zero symbolic work; changed
//!    values cost one numeric-only refactor.
//! 3. **Coalesce** — requests that are pattern-, value- and
//!    method-identical are fused into `k ∈ {8, 4}` right-hand-side
//!    panels for the lockstep batch Krylov drivers: one preconditioner
//!    schedule walk retires 8 clients' solves at once.
//! 4. **Panel dispatch** — each panel runs through the cached
//!    pattern's `IluSolver` (one driver per method), whose applies and
//!    matvecs run on the analysis's persistent
//!    [`javelin_core::sync::WorkerTeam`]; column `c` of a fused panel
//!    is bit-identical to that client's standalone solve. Broken-down
//!    columns get the solver's one automatic retry with a diagonally
//!    shifted preconditioner, in every chunk.
//! 5. **Respond** — admission control bounds the queue
//!    ([`ServiceError::Overloaded`]), malformed requests are rejected
//!    before the solver stack, shutdown drains gracefully, and every
//!    failure is a typed per-request error — one tenant's breakdown
//!    never perturbs another's solve.
//!
//! Two front-ends share the dispatcher: the in-process
//! [`ServiceClient`] (channel-based, synchronous) and a thin
//! length-prefixed TCP front-end ([`TcpFrontend`]) on plain
//! `std::net` — no async runtime required.
//!
//! ```
//! use javelin_service::{ServiceConfig, SolveService, SolveRequest};
//! use javelin_solver::Method;
//! use std::sync::Arc;
//!
//! let a = Arc::new(javelin_synth::grid::laplace_2d(12, 12));
//! let n = a.nrows();
//! let service = SolveService::start(ServiceConfig::default());
//! let client = service.client();
//! let reply = client
//!     .solve(SolveRequest {
//!         a: Arc::clone(&a),
//!         b: vec![1.0; n],
//!         x: Vec::new(),
//!         method: Method::BatchGmres,
//!     })
//!     .unwrap();
//! assert!(reply.result.converged);
//! service.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod error;
pub mod service;
pub(crate) mod tcp;
pub mod wire;

pub use cache::CacheStats;
pub use engine::{Engine, EngineConfig, EngineStats, SolveReply, SolveRequest};
pub use error::ServiceError;
pub use service::{ServiceClient, ServiceConfig, ServiceSnapshot, ServiceStats, SolveService};
pub use tcp::{TcpFrontend, TcpSolveClient, WireReply};
