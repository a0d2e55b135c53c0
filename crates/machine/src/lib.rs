//! # javelin-machine
//!
//! A flat machine model and a discrete-event simulation of the threaded
//! apply: the reference benchmark's `machine.*` metrics compare its
//! two-thread speedup, calibrated to a measured serial apply, with the
//! measured one. Nothing else uses it: the scaling figures of
//! `javelin-bench` print counted bounds (`SymbolicIlu::refactor_span`
//! and `SymbolicIlu::apply_span`) beside measured times.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;
pub mod sim;

pub use model::MachineModel;
pub use sim::sim_trisolve_time;
