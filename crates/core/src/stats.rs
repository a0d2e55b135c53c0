//! Factorization statistics and phase timings.

use std::time::Duration;

/// The exact synchronization and bookkeeping work of one apply through
/// the threaded engine ([`crate::SolveEngine::PointToPointLower`]) —
/// [`crate::SymbolicIlu::work`] — or of one refactor sweep —
/// [`crate::SymbolicIlu::refactor_work`]: a pure function of the
/// analysis's plans, with no counter in the hot loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Work {
    /// Bytes of schedule metadata the two point-to-point walks read:
    /// each block's task range and wait-list bounds, each wait entry,
    /// and the backward walk's row of each task.
    pub schedule_bytes: usize,
    /// Wait-list entries checked, summed over threads.
    pub wait_checks: usize,
    /// Progress publications (one per schedule block), summed over
    /// threads.
    pub publications: usize,
    /// Barrier episodes the team passes through.
    pub barriers: usize,
    /// Team regions (wake-ups).
    pub regions: usize,
}

/// Statistics collected while computing an [`crate::IluFactors`].
#[derive(Debug, Clone, Default)]
pub struct FactorStats {
    /// Matrix dimension.
    pub n: usize,
    /// Stored entries of the input matrix.
    pub nnz_a: usize,
    /// Stored entries of the combined LU factor (incl. fill for k > 0).
    pub nnz_lu: usize,
    /// Levels found on the chosen triangular pattern (Table I `Lvl`).
    pub n_levels: usize,
    /// Levels kept in the upper stage after the split.
    pub n_upper_levels: usize,
    /// Rows demoted to the lower stage (Table III `R-A`).
    pub n_lower_rows: usize,
    /// Point-to-point wait edges in the factorization schedule after
    /// pruning (the sparsification the paper adopts from Park et al.).
    pub n_waits: usize,
    /// Raw dependency edges before pruning.
    pub n_raw_deps: usize,
    /// Elimination updates `a[r, j] -= l[r, c]·u[c, j]` of one numeric
    /// sweep per value-set: the length of the analysis's update list.
    /// A pattern count, set by the analysis and carried into every
    /// factor's statistics.
    pub n_updates: usize,
    /// Pivots replaced under [`crate::ZeroPivotPolicy::Replace`].
    pub replaced_pivots: usize,
    /// Entries zeroed by the τ drop rule.
    pub dropped_entries: usize,
    /// Numeric sweeps performed by the last factorization (1 unless
    /// [`crate::ZeroPivotPolicy::ShiftRetry`] had to retry).
    pub shift_attempts: usize,
    /// Absolute diagonal shift applied on the successful sweep (0 when
    /// no shift was needed).
    pub diag_shift: f64,
    /// Symbolic-phase wall time.
    pub t_symbolic: Duration,
    /// Level analysis + split + schedule construction wall time.
    pub t_analysis: Duration,
    /// Numeric factorization wall time.
    pub t_numeric: Duration,
}

impl FactorStats {
    /// Fill ratio `nnz(LU) / nnz(A)`.
    pub fn fill_ratio(&self) -> f64 {
        if self.nnz_a == 0 {
            0.0
        } else {
            self.nnz_lu as f64 / self.nnz_a as f64
        }
    }

    /// Fraction of raw dependencies eliminated by pruning.
    pub fn wait_sparsification(&self) -> f64 {
        if self.n_raw_deps == 0 {
            0.0
        } else {
            1.0 - self.n_waits as f64 / self.n_raw_deps as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let s = FactorStats {
            nnz_a: 100,
            nnz_lu: 150,
            n_raw_deps: 50,
            n_waits: 10,
            ..Default::default()
        };
        assert!((s.fill_ratio() - 1.5).abs() < 1e-12);
        assert!((s.wait_sparsification() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_safe() {
        let s = FactorStats::default();
        assert_eq!(s.fill_ratio(), 0.0);
        assert_eq!(s.wait_sparsification(), 0.0);
    }
}
