//! # javelin-machine
//!
//! Machine models and a discrete-event simulator for Javelin's
//! schedules — this repository's substitute for the paper's hardware.
//!
//! The paper evaluates on a 2×14-core Intel Haswell node and a 68-core
//! Intel Knights Landing node. Neither is available here, so the
//! scaling figures are regenerated by *replaying the exact schedules
//! the real implementation computes* (per-thread task sequences, pruned
//! point-to-point waits, barrier levels, Even-Rows chunks) on a
//! parameterized machine model: core count and speed, SMT sharing,
//! synchronization and barrier costs, and a cross-socket NUMA penalty.
//!
//! Everything that determines the *shape* of the paper's Figs. 9–13 —
//! level widths, critical-path depth, wait counts, serial fractions —
//! comes from the genuine data structures; the model only supplies the
//! per-operation timings, which can be calibrated against a measured
//! serial factorization on the host
//! ([`MachineModel::calibrated_to`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;
pub mod sim;

pub use model::MachineModel;
pub use sim::{
    sim_factor_time, sim_heavy_factor_time, sim_trisolve_time, SimBreakdown, TrisolveModel,
};
