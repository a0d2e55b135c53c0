//! The four workloads (see `metrics::WORKLOADS` for why each exists).

pub mod service;
pub mod session;

use crate::harness::{Config, Outcome};
use crate::metrics::SERVICE_PANEL;

/// Runs `cfg.workload` in this process.
pub fn run(cfg: &Config) -> Outcome {
    if cfg.workload == SERVICE_PANEL {
        service::run(cfg)
    } else {
        session::run(cfg)
    }
}
