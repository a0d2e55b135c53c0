//! # javelin-bench
//!
//! The benchmark harness that regenerates **every table and figure** of
//! the paper's evaluation. The experiment index:
//!
//! | Target | Paper content |
//! |--------|---------------|
//! | `table1` | Test-suite statistics (N, NNZ, RD, SP, Lvl) |
//! | `table2` | Iterations to 1e-6 under AMD/RCM/ND/NAT/LS-RCM/LS-ND |
//! | `table3` | Level stats of `lower(A+Aᵀ)` + R-16/24/32 |
//! | `table4` | Level stats of `lower(A)` |
//! | `fig9`  | Slowdown of the WSMP-class baseline vs Javelin |
//! | `fig10` | ILU speedup on Haswell (14 / 28 cores), LS vs LS+Lower |
//! | `fig11` | ILU speedup on KNL (68 cores ×1 / ×2 threads) |
//! | `fig12` | stri max-speedup: CSR-LS vs LS vs LS+Lower |
//! | `fig13` | Group-A speedup under RCM preordering |
//!
//! Run a single experiment with `cargo run -p javelin-bench --release
//! --bin fig10`, or everything with `--bin all` (reports also land in
//! `results/`). Set `JAVELIN_SCALE=tiny` for a quick pass on miniature
//! matrices.
//!
//! Scaling numbers are produced by the machine-model simulator driven
//! by the real schedules (see the `javelin_machine` crate docs);
//! measured single-core numbers
//! accompany them where meaningful.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;

pub use harness::{prepare, write_report, PreparedMatrix, Table};
