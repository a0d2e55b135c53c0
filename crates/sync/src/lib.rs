//! # javelin-sync
//!
//! The concurrency substrate behind Javelin's "lightweight
//! synchronization" philosophy: the paper deliberately avoids heavy task
//! runtimes and barriers in favour of point-to-point spin
//! synchronization and static thread assignments. This crate supplies
//! those pieces:
//!
//! * [`team`] — the persistent [`WorkerTeam`]: parked workers with
//!   stable tids executing borrowed SPMD regions (the OpenMP parallel
//!   region, amortized across the whole Krylov loop);
//! * [`exec`] — [`Exec`], the cloneable handle on the team a plan's
//!   regions run on (the one way to run a region), and [`col_range`],
//!   the in-region column partitioner;
//! * [`progress`] — cache-padded monotone progress counters with
//!   acquire/release semantics: the runtime half of the sparsified
//!   point-to-point schedule;
//! * [`barrier`] — a sense-reversing spin barrier (the few full-team
//!   joins of the threaded trisolve's trailing stage);
//! * [`backoff`] — bounded spinning that escalates to `yield_now`, so
//!   oversubscribed runs (more threads than cores) always make progress;
//! * [`affinity`] — best-effort core pinning for team participants
//!   (`OMP_PROC_BIND`-style placement, Linux `sched_setaffinity`).
//!
//! Almost everything is safe Rust built on `std::sync::atomic`. The
//! two exceptions: [`team`] erases a closure lifetime so persistent
//! workers can execute borrowed regions (behind a documented fork-join
//! protocol), and [`affinity`] makes one FFI call into the
//! already-linked C library.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod abort;
pub mod affinity;
pub mod backoff;
pub mod barrier;
pub mod exec;
pub mod progress;
pub mod team;

pub use affinity::TeamAffinity;
pub use backoff::Backoff;
pub use barrier::SpinBarrier;
pub use exec::{col_range, Exec};
pub use progress::ProgressCounters;
pub use team::WorkerTeam;
