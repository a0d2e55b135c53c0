//! # javelin-sparse
//!
//! Sparse-matrix substrate for the Javelin incomplete-LU framework.
//!
//! Javelin (Booth & Bolet, IPDPS 2019) deliberately stays in the
//! *conventional Compressed Sparse Row* format: the factorization, the
//! triangular solves and the matrix–vector products all operate on plain
//! CSR with at most a handful of auxiliary index arrays. This crate
//! provides that substrate:
//!
//! * [`CsrMatrix`] — the central format, with construction, validation,
//!   transposition, permutation (`P·A·Qᵀ`), triangular extraction and
//!   pattern algebra;
//! * [`CooMatrix`] — a triplet builder used by the generators and by
//!   Matrix Market I/O;
//! * [`Perm`] — permutations with composition and inversion;
//! * [`Scalar`] — the "templated" numeric abstraction (the paper's C++
//!   implementation is templated over the value type; we mirror that with
//!   a trait implemented for `f32` and `f64`);
//! * [`Panel`] / [`PanelMut`] — column-major dense right-hand-side
//!   panels (`n × k` blocks with a column stride) consumed by the
//!   multi-RHS execution paths;
//! * [`lanes`] — the width-generic lane layer ([`FixedLanes`] /
//!   [`DynLanes`] plus the [`with_lanes!`] dispatch table): one kernel
//!   core serves the scalar path (`K = 1`), the monomorphized panel
//!   widths (`K = 4, 8`) and arbitrary dynamic widths;
//! * [`io`] — Matrix Market reading/writing so that the real SuiteSparse
//!   inputs used by the paper can be substituted for the bundled synthetic
//!   suite;
//! * [`pattern`] — pattern-only helpers (`lower(A)`, `lower(A+Aᵀ)`, …)
//!   that feed the level scheduler.
//!
//! Everything here is deterministic and allocation-conscious: hot paths
//! never allocate, and construction routines take `Vec`s by value so the
//! caller controls reuse.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coo;
pub(crate) mod csr;
pub mod error;
pub mod fault;
pub mod io;
pub mod lanes;
pub mod panel;
pub mod pattern;
pub mod perm;
pub mod scalar;
pub mod vecops;

pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use error::SparseError;
pub use lanes::{DynLanes, FixedLanes, LaneMask, Lanes};
pub use panel::{Panel, PanelBuf, PanelMut};
pub use pattern::{pattern_fingerprint, value_fingerprint};
pub use perm::Perm;
pub use scalar::Scalar;
