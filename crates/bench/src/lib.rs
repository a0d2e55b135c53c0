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
//! | `fig9`  | Slowdown of the WSMP-class baseline vs Javelin (measured, serial) |
//! | `fig10` | ILU speedup bound at 14 / 28 threads, LS vs LS+Lower |
//! | `fig11` | ILU speedup bound at 68 / 136 threads |
//! | `fig12` | stri max-speedup bound: CSR-LS vs LS vs LS+Lower |
//! | `fig13` | Group-A speedup bound under RCM preordering |
//! | `ablation` | Level pattern and split sensitivity |
//!
//! Run a single experiment with `cargo run -p javelin-bench --release
//! --bin fig10`, or everything with `--bin all` (reports also land in
//! `results/`). Set `JAVELIN_SCALE=tiny` for a quick pass on miniature
//! matrices.
//!
//! The paper's machines (14–68 cores) are not available, so every
//! scaling column is a **count**, labelled as such: the bound
//! `span(1) / span(t)` at the paper's thread counts, where a span is the
//! critical path of the analysis's own schedules with synchronization
//! free (`SymbolicIlu::refactor_span` for a refactor sweep,
//! `SymbolicIlu::apply_span` for an apply). Beside each bound the
//! figures print **measured** 1- and 2-thread times on the host. A bound
//! has no memory system or synchronization cost, so a real run at `t`
//! threads stays below it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;

pub use harness::{write_report, Table};
