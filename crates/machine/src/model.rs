//! The flat machine model behind [`crate::sim_trisolve_time`].

/// Timing model of a shared-memory node with `n_cores` equal cores. All
/// costs in nanoseconds.
#[derive(Debug, Clone)]
pub struct MachineModel {
    /// Cores; a simulated run uses at most this many threads.
    pub n_cores: usize,
    /// Fixed cost of solving one row of a triangular sweep.
    pub row_solve_base_ns: f64,
    /// Cost per entry in a triangular row sweep.
    pub row_solve_per_nnz_ns: f64,
    /// Cost of checking one (satisfied) point-to-point wait.
    pub p2p_check_ns: f64,
    /// Extra latency when a point-to-point wait actually blocks (cache
    /// line transfer + resume).
    pub p2p_block_ns: f64,
    /// Cost of one full-team barrier.
    pub barrier_ns: f64,
}

impl MachineModel {
    /// A flat machine with `n` equal cores.
    pub fn generic(n: usize) -> Self {
        MachineModel {
            n_cores: n,
            row_solve_base_ns: 25.0,
            row_solve_per_nnz_ns: 2.5,
            p2p_check_ns: 15.0,
            p2p_block_ns: 75.0,
            barrier_ns: 1000.0,
        }
    }

    /// Cost (ns) of one triangular-solve row sweep over `nnz` entries.
    pub(crate) fn row_solve_cost(&self, nnz: usize) -> f64 {
        self.row_solve_base_ns + self.row_solve_per_nnz_ns * nnz as f64
    }

    /// Rescales the row costs so that a simulated serial run of
    /// `simulated_serial_s` takes `measured_serial_s` — calibrating the
    /// model against the host.
    pub fn calibrated_to(mut self, simulated_serial_s: f64, measured_serial_s: f64) -> Self {
        if simulated_serial_s > 0.0 && measured_serial_s > 0.0 {
            let scale = measured_serial_s / simulated_serial_s;
            self.row_solve_base_ns *= scale;
            self.row_solve_per_nnz_ns *= scale;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_scales_costs() {
        let m = MachineModel::generic(4).calibrated_to(1.0, 2.0);
        assert!((m.row_solve_base_ns - 50.0).abs() < 1e-9);
        let untouched = MachineModel::generic(4).calibrated_to(0.0, 2.0);
        assert_eq!(untouched.row_solve_base_ns, 25.0);
    }
}
