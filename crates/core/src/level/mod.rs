//! Level-set scheduling — the structural core of Javelin (§III of the
//! paper).
//!
//! Javelin applies an up-looking incomplete LU to a matrix permuted into
//! *level order*: row `i`'s level is one more than the deepest level
//! among the rows it depends on (the strictly-lower pattern of either
//! `A` or `A + Aᵀ`). Rows within a level are mutually independent and
//! factor concurrently. When trailing levels become too narrow to feed
//! all threads, a *two-stage split* moves them into a lower stage solved
//! by the Even-Rows method.
//!
//! This module computes:
//!
//! * [`levels::LevelSets`] — the level structure and its statistics
//!   (the paper's Tables I, III, IV);
//! * [`split::StagePlan`] — the two-stage partition: trailing levels
//!   narrower than the paper's `A` move to the lower stage, behind a
//!   relative-location guard and a row cap;
//! * [`schedule::P2PSchedule`] — per-thread block sequences with
//!   *sparsified point-to-point synchronization*: dependencies pruned to
//!   at most one `(thread, progress)` wait per foreign thread and block,
//!   executed with monotone progress counters instead of barriers (after
//!   Park et al., adapted to factorization).

// Stricter than the crate's `deny`: no submodule may opt back in.
#![forbid(unsafe_code)]

pub mod levels;
pub mod schedule;
pub mod split;

pub use levels::{LevelSets, LevelStats};
pub use schedule::P2PSchedule;
pub use split::{split_levels, SplitOptions, StagePlan};
