//! # javelin-synth
//!
//! Synthetic sparse-matrix generators.
//!
//! The paper evaluates Javelin on 18 SuiteSparse matrices (Table I).
//! Those files are not redistributable here, so this crate generates
//! *synthetic analogues*: for each paper matrix, a generator of the same
//! structural class (PDE grid, finite-element mesh, circuit graph, power
//! network) matched on pattern symmetry, approximate row density, and
//! qualitative level structure, scaled to workstation size. The mapping
//! is the [`suite`] module (one entry per Table-I matrix); users with
//! the real matrices can substitute them through `javelin_sparse::io`.
//!
//! Generators are deterministic: every randomized builder takes an
//! explicit seed.
//!
//! * [`grid`] — finite-difference stencils (2D/3D Poisson, convection–
//!   diffusion)
//! * [`fem`] — finite-element-flavoured meshes (triangle, tetrahedral,
//!   shell strips with multiple DOFs per node)
//! * [`circuit`] — circuit-simulation-flavoured irregular graphs
//!   (preferential attachment, dense power-network rows)
//! * [`suite`] — the Table-I test suite

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circuit;
pub mod fem;
pub mod grid;
pub mod suite;
pub mod util;

pub use suite::{paper_suite, suite_matrix, SuiteGroup, SuiteMatrix};
