//! Parameterized machine models with presets for the paper's testbeds.

/// Timing model of a shared-memory node. All costs in nanoseconds.
#[derive(Debug, Clone)]
pub struct MachineModel {
    /// Human-readable name (appears in reports).
    pub name: &'static str,
    /// Physical cores.
    pub n_cores: usize,
    /// Hardware threads per core (KNL runs 2 in the paper's Fig. 11b).
    pub threads_per_core: usize,
    /// Sockets; threads are assigned round-robin blocks of
    /// `n_cores / sockets`.
    pub sockets: usize,
    /// Relative per-thread throughput when a core is shared by two
    /// hardware threads (≈ 0.6–0.7 on KNL).
    pub smt_efficiency: f64,
    /// Fixed cost of factoring one row (pointer chasing, loop setup).
    pub row_factor_base_ns: f64,
    /// Cost per stored entry touched during a row factorization.
    pub row_factor_per_nnz_ns: f64,
    /// Fixed cost of solving one row in `stri`.
    pub row_solve_base_ns: f64,
    /// Cost per entry in a `stri` row sweep.
    pub row_solve_per_nnz_ns: f64,
    /// Cost of checking one (satisfied) point-to-point wait.
    pub p2p_check_ns: f64,
    /// Extra latency when a point-to-point wait actually blocks (cache
    /// line transfer + resume).
    pub p2p_block_ns: f64,
    /// Additional wait cost when the awaited thread lives on another
    /// socket (the paper's NUMA observation on 28 cores).
    pub numa_penalty_ns: f64,
    /// Cost of one full-team barrier (per level in CSR-LS).
    pub barrier_ns: f64,
}

impl MachineModel {
    /// One socket of the paper's Haswell node (14 cores, E5-2695 v3).
    pub fn haswell14() -> Self {
        MachineModel {
            name: "haswell-14",
            n_cores: 14,
            threads_per_core: 1,
            sockets: 1,
            smt_efficiency: 1.0,
            row_factor_base_ns: 45.0,
            row_factor_per_nnz_ns: 6.0,
            row_solve_base_ns: 25.0,
            row_solve_per_nnz_ns: 3.0,
            p2p_check_ns: 18.0,
            p2p_block_ns: 90.0,
            numa_penalty_ns: 0.0,
            barrier_ns: 1200.0,
        }
    }

    /// Both sockets (28 cores) — adds the NUMA penalty the paper blames
    /// for poor cross-socket scaling.
    pub fn haswell28() -> Self {
        MachineModel {
            name: "haswell-28",
            n_cores: 28,
            sockets: 2,
            numa_penalty_ns: 350.0,
            barrier_ns: 2200.0,
            ..Self::haswell14()
        }
    }

    /// The paper's KNL 7250 node, 68 cores, one thread per core:
    /// slower cores, pricier synchronization.
    pub fn knl68() -> Self {
        MachineModel {
            name: "knl-68",
            n_cores: 68,
            threads_per_core: 1,
            sockets: 1,
            smt_efficiency: 1.0,
            row_factor_base_ns: 140.0,
            row_factor_per_nnz_ns: 19.0,
            row_solve_base_ns: 75.0,
            row_solve_per_nnz_ns: 9.0,
            p2p_check_ns: 45.0,
            p2p_block_ns: 220.0,
            numa_penalty_ns: 0.0,
            barrier_ns: 5200.0,
        }
    }

    /// KNL with 2 hardware threads per core (136 threads, Fig. 11b):
    /// minor gains at best — shared cores throttle each thread.
    pub fn knl136() -> Self {
        MachineModel {
            name: "knl-136",
            threads_per_core: 2,
            smt_efficiency: 0.62,
            ..Self::knl68()
        }
    }

    /// Generic flat machine with `n` equal cores — useful in tests.
    pub fn generic(n: usize) -> Self {
        MachineModel {
            name: "generic",
            n_cores: n,
            threads_per_core: 1,
            sockets: 1,
            smt_efficiency: 1.0,
            row_factor_base_ns: 50.0,
            row_factor_per_nnz_ns: 5.0,
            row_solve_base_ns: 25.0,
            row_solve_per_nnz_ns: 2.5,
            p2p_check_ns: 15.0,
            p2p_block_ns: 75.0,
            numa_penalty_ns: 0.0,
            barrier_ns: 1000.0,
        }
    }

    /// Maximum schedulable threads.
    pub fn max_threads(&self) -> usize {
        self.n_cores * self.threads_per_core
    }

    /// Per-thread speed factor at a given thread count (SMT sharing).
    pub(crate) fn thread_speed(&self, nthreads: usize) -> f64 {
        if nthreads > self.n_cores {
            self.smt_efficiency
        } else {
            1.0
        }
    }

    /// Socket of a thread id under block assignment.
    pub(crate) fn socket_of(&self, tid: usize) -> usize {
        if self.sockets <= 1 {
            return 0;
        }
        let physical = tid % self.n_cores;
        let per_socket = self.n_cores.div_ceil(self.sockets);
        physical / per_socket
    }

    /// Cost (ns) of one triangular-solve row sweep over `nnz` entries.
    pub(crate) fn row_solve_cost(&self, nnz: usize) -> f64 {
        self.row_solve_base_ns + self.row_solve_per_nnz_ns * nnz as f64
    }

    /// Rescales the compute costs so that a simulated serial
    /// factorization of `total_row_cost_ns` takes `measured_seconds` —
    /// calibrating the model against the host.
    pub fn calibrated_to(mut self, simulated_serial_s: f64, measured_serial_s: f64) -> Self {
        if simulated_serial_s > 0.0 && measured_serial_s > 0.0 {
            let scale = measured_serial_s / simulated_serial_s;
            self.row_factor_base_ns *= scale;
            self.row_factor_per_nnz_ns *= scale;
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
    fn presets_are_consistent() {
        assert_eq!(MachineModel::haswell14().max_threads(), 14);
        assert_eq!(MachineModel::haswell28().max_threads(), 28);
        assert_eq!(MachineModel::knl68().max_threads(), 68);
        assert_eq!(MachineModel::knl136().max_threads(), 136);
        assert!(MachineModel::haswell28().numa_penalty_ns > 0.0);
        assert_eq!(MachineModel::haswell14().numa_penalty_ns, 0.0);
    }

    #[test]
    fn smt_throttles() {
        let k = MachineModel::knl136();
        assert_eq!(k.thread_speed(68), 1.0);
        assert!(k.thread_speed(136) < 0.7);
    }

    #[test]
    fn sockets_partition_threads() {
        let h = MachineModel::haswell28();
        assert_eq!(h.socket_of(0), 0);
        assert_eq!(h.socket_of(13), 0);
        assert_eq!(h.socket_of(14), 1);
        assert_eq!(h.socket_of(27), 1);
        let single = MachineModel::haswell14();
        assert_eq!(single.socket_of(13), 0);
    }

    #[test]
    fn calibration_scales_costs() {
        let m = MachineModel::generic(4).calibrated_to(1.0, 2.0);
        assert!((m.row_factor_base_ns - 100.0).abs() < 1e-9);
        let untouched = MachineModel::generic(4).calibrated_to(0.0, 2.0);
        assert_eq!(untouched.row_factor_base_ns, 50.0);
    }
}
