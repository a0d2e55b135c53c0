//! Configuration of the factorization and solve pipeline.

use crate::level::SplitOptions;
use crate::sync::WorkerTeam;
use javelin_sparse::pattern::LevelPattern;
use std::sync::Arc;

/// What to do when a pivot magnitude falls below the breakdown
/// threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ZeroPivotPolicy {
    /// Abort with [`javelin_sparse::SparseError::ZeroPivot`].
    Error,
    /// Replace the pivot with `sign(pivot) · replacement` and continue
    /// (recorded in [`crate::FactorStats::replaced_pivots`]). The common
    /// choice for black-box preconditioning, since ILU does not pivot.
    Replace {
        /// Magnitude substituted for collapsed pivots.
        replacement: f64,
    },
    /// Shift-and-retry (Manteuffel-style): run the numeric phase as
    /// under [`ZeroPivotPolicy::Error`]; on breakdown, reload the
    /// values and re-run with an escalating diagonal boost
    /// `aᵢᵢ ← aᵢᵢ + sign(aᵢᵢ)·α·s` (where `s = maxᵢ|aᵢᵢ|`, or 1 for an
    /// all-zero diagonal), `α = initial·growthᵏ` on the `k`-th retry.
    /// Retries reuse the zero-allocation planned refactor machinery, so
    /// each costs one numeric sweep and nothing else. Succeeds with the
    /// applied shift recorded in [`crate::FactorStats::diag_shift`], or
    /// fails with [`javelin_sparse::SparseError::Breakdown`] once
    /// `max_attempts` shifted retries are exhausted.
    ShiftRetry {
        /// Relative shift `α` of the first retry.
        initial: f64,
        /// Multiplier applied to `α` on each further retry (`> 1`).
        growth: f64,
        /// Maximum number of *shifted* retries after the unshifted
        /// attempt (total numeric sweeps ≤ `max_attempts + 1`).
        max_attempts: usize,
    },
}

impl ZeroPivotPolicy {
    /// Shift-and-retry with the standard escalation: `α` from `1e-8`,
    /// ×10 per retry, at most 10 shifted retries (covering relative
    /// shifts up to ~10).
    pub fn shift_retry() -> Self {
        ZeroPivotPolicy::ShiftRetry {
            initial: 1e-8,
            growth: 10.0,
            max_attempts: 10,
        }
    }
}

impl Default for ZeroPivotPolicy {
    fn default() -> Self {
        ZeroPivotPolicy::Replace { replacement: 1e-8 }
    }
}

/// Which engine executes the triangular solves: serial substitution or
/// the one threaded engine. The paper's Fig. 12 also measures a
/// barriered level-set solve (CSR-LS) and point-to-point scheduling
/// with the trailing rows left to one thread (LS); both lose to
/// LS+Lower and are counted only: Fig. 12 of `javelin-bench` prints
/// the level-synchronous span of CSR-LS and
/// [`SymbolicIlu::apply_span`](crate::SymbolicIlu::apply_span) of an
/// analysis without the split for LS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveEngine {
    /// Plain serial substitution.
    Serial,
    /// Point-to-point level scheduling with pruned waits over the upper
    /// stage, then Even-Rows over the trailing rows (the paper's
    /// "LS + Lower"). Without a lower stage it is plain point-to-point
    /// scheduling. Bitwise serial: every row accumulates in
    /// [`SolveEngine::Serial`]'s entry order.
    #[default]
    PointToPointLower,
}

impl std::fmt::Display for SolveEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveEngine::Serial => write!(f, "serial"),
            SolveEngine::PointToPointLower => write!(f, "LS+Lower"),
        }
    }
}

/// Options for the factorization pipeline — consumed by
/// [`crate::SymbolicIlu::analyze`] (and the one-shot
/// [`crate::factorize`]), which fix them for the lifetime of the
/// symbolic handle.
#[derive(Debug, Clone)]
pub struct IluOptions {
    /// Fill level `k` of ILU(k). `0` keeps the pattern of `A` (the
    /// paper's evaluation setting).
    pub fill_level: usize,
    /// Drop tolerance `τ` of ILU(k, τ): computed entries with magnitude
    /// below `τ · ‖row‖₂ / √(row length)` are dropped (set to zero
    /// within the fixed pattern, so schedules stay valid). `0.0`
    /// disables dropping.
    pub drop_tol: f64,
    /// Modified-ILU compensation factor `ω ∈ [0, 1]`: the sum of values
    /// dropped from a row's U part is scaled by `ω` and added to its
    /// diagonal (MacLachlan–Osei-Kuffuor–Saad-style compensation).
    pub milu_omega: f64,
    /// Which triangular pattern drives level scheduling.
    pub level_pattern: LevelPattern,
    /// The two-stage split's sensitivity parameter `A` (minimum rows per
    /// level; `0` = pure level scheduling). Its location guard and row
    /// cap are constants of [`crate::level::split_levels`].
    pub split: SplitOptions,
    /// Ignored: no analysis, solve or spmv reads it. It stays only
    /// because the reference benchmark passes it to
    /// [`crate::SpmvPlan::new`], which ignores it too; the change that
    /// stops passing it deletes the field (ROADMAP item 12).
    pub tile_size: usize,
    /// Worker threads (`1` = fully serial pipeline).
    pub nthreads: usize,
    /// Pivot breakdown handling.
    pub zero_pivot: ZeroPivotPolicy,
    /// Breakdown detection threshold: a pivot counts as collapsed when
    /// its magnitude is below this value.
    pub pivot_threshold: f64,
    /// Pin the factorization's worker team to cores (compact
    /// placement: tid `i` → core `i % n_cores`, see
    /// [`crate::sync::TeamAffinity::Compact`] for what that does
    /// today), so each participant keeps its core and the caches it
    /// warms between regions. Best-effort — ignored when the kernel
    /// rejects the mask, when `nthreads == 1` (a serial analysis never
    /// pins its caller), and when a `shared_team` is given (its owner
    /// chose its placement). Placement never affects results:
    /// factorization and solves stay bit-identical either way.
    /// Defaults off.
    pub pin_threads: bool,
    /// A caller-owned worker team the factorization's solves run on
    /// instead of spawning their own: one process-wide team can serve
    /// many factorizations (each parks between regions, so idle
    /// sharers cost nothing). The team's participant count must equal
    /// `nthreads` — the solve schedules are built for it.
    /// `None` (the default) gives the factorization a team of its own,
    /// parked between regions.
    pub shared_team: Option<Arc<WorkerTeam>>,
}

impl Default for IluOptions {
    fn default() -> Self {
        IluOptions {
            fill_level: 0,
            drop_tol: 0.0,
            milu_omega: 0.0,
            level_pattern: LevelPattern::LowerSymmetrized,
            split: SplitOptions::default(),
            tile_size: 64,
            nthreads: 1,
            zero_pivot: ZeroPivotPolicy::default(),
            pivot_threshold: 1e-14,
            pin_threads: false,
            shared_team: None,
        }
    }
}

impl IluOptions {
    /// ILU(0) with `nthreads` workers and default two-stage split — the
    /// paper's benchmark configuration.
    pub fn ilu0(nthreads: usize) -> Self {
        IluOptions {
            nthreads,
            ..Default::default()
        }
    }

    /// Pure level scheduling (the paper's "LS" bars): no lower stage.
    pub fn level_scheduling_only(nthreads: usize) -> Self {
        IluOptions {
            nthreads,
            split: SplitOptions::level_scheduling_only(),
            ..Default::default()
        }
    }

    /// ILU(k) with fill level `k`.
    pub fn with_fill(mut self, k: usize) -> Self {
        self.fill_level = k;
        self
    }

    /// ILU(k, τ) dropping.
    pub fn with_drop_tol(mut self, tau: f64) -> Self {
        self.drop_tol = tau;
        self
    }

    /// MILU diagonal compensation.
    pub fn with_milu(mut self, omega: f64) -> Self {
        self.milu_omega = omega;
        self
    }

    /// Pivot breakdown policy (see [`ZeroPivotPolicy`]).
    pub fn with_zero_pivot(mut self, policy: ZeroPivotPolicy) -> Self {
        self.zero_pivot = policy;
        self
    }

    /// Runs this factorization's solves on `team` instead of a
    /// per-factorization worker pool; `nthreads` is taken from the
    /// team. See [`IluOptions::shared_team`].
    pub fn with_shared_team(mut self, team: Arc<WorkerTeam>) -> Self {
        self.nthreads = team.nthreads();
        self.shared_team = Some(team);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_configuration() {
        let o = IluOptions::default();
        assert_eq!(o.fill_level, 0);
        assert_eq!(o.drop_tol, 0.0);
        assert_eq!(o.level_pattern, LevelPattern::LowerSymmetrized);
        assert_eq!(o.split.min_rows_per_level, 16);
        assert_eq!(o.nthreads, 1);
    }

    #[test]
    fn builders_compose() {
        let o = IluOptions::ilu0(4)
            .with_fill(2)
            .with_drop_tol(1e-3)
            .with_milu(1.0);
        assert_eq!(o.nthreads, 4);
        assert_eq!(o.fill_level, 2);
        assert_eq!(o.drop_tol, 1e-3);
        assert_eq!(o.milu_omega, 1.0);
    }

    #[test]
    fn ls_only_disables_split() {
        let o = IluOptions::level_scheduling_only(8);
        assert_eq!(o.split.min_rows_per_level, 0);
        assert_eq!(o.nthreads, 8);
    }

    #[test]
    fn display_names() {
        assert_eq!(SolveEngine::Serial.to_string(), "serial");
        assert_eq!(SolveEngine::PointToPointLower.to_string(), "LS+Lower");
    }
}
