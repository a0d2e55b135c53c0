//! The per-column frame of the lockstep Krylov drivers: every panel
//! column's lane state and the one place its outcome is written.
//!
//! A panel solve advances `k` columns together; each column leaves the
//! lockstep on its own — converged, broken down, or at the iteration
//! cap — and then *freezes in its panel slot*, so the shared panel
//! applies never change shape and freezing one column cannot perturb a
//! bit of its neighbours. [`Columns`] holds that bookkeeping for all
//! three drivers (PCG, BiCGSTAB, GMRES/FGMRES): the entry checks, the
//! zero and non-finite right-hand-side columns, the history push, the
//! retire and the cap. A retired column's outcome is its
//! [`SolverResult::status`]; the lane only says whether it still
//! iterates.

use crate::{SolverOptions, SolverResult, SolverStatus};
use javelin_sparse::{Panel, PanelMut, Scalar};

/// Where one panel column stands in a lockstep solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum Lane {
    /// Still iterating (the rearmed state).
    #[default]
    Active,
    /// Waits, masked, for the panel's next restart boundary (GMRES).
    Pending,
    /// Left the solve; its result is final.
    Retired,
}

/// The four shape asserts every driver runs on entry, under its name,
/// ahead of any workspace growth. Returns the panel width `k`.
pub(crate) fn panel_width<T: Scalar>(
    driver: &str,
    n: usize,
    b: &Panel<'_, T>,
    x: &PanelMut<'_, T>,
    results: &[SolverResult],
) -> usize {
    let k = b.ncols();
    assert_eq!(b.nrows(), n, "{driver}: rhs panel rows");
    assert_eq!(x.nrows(), n, "{driver}: solution panel rows");
    assert_eq!(x.ncols(), k, "{driver}: panel widths differ");
    assert_eq!(results.len(), k, "{driver}: results length");
    k
}

/// A view over the workspace's lanes and the caller's results for one
/// panel solve (see module docs).
pub(crate) struct Columns<'a> {
    lanes: &'a mut [Lane],
    results: &'a mut [SolverResult],
    record_history: bool,
}

impl<'a> Columns<'a> {
    /// Rearms one lane per result to [`Lane::Active`] (the workspace
    /// sized the storage, so this never allocates after warm-up) and
    /// resets every result to [`SolverResult::default`].
    pub(crate) fn open(
        lanes: &'a mut Vec<Lane>,
        results: &'a mut [SolverResult],
        opts: &SolverOptions,
    ) -> Self {
        lanes.clear();
        lanes.resize(results.len(), Lane::Active);
        for r in results.iter_mut() {
            *r = SolverResult::default();
        }
        Columns {
            lanes,
            results,
            record_history: opts.record_history,
        }
    }

    /// Decides column `c` from its right-hand-side norm. A zero RHS is
    /// converged at 0 iterations with `x_c = 0`; a non-finite one is a
    /// breakdown with a NaN residual, at the initial guess. Returns
    /// whether the column iterates; the caller zeroes the working
    /// columns of one that does not, so the shared applies stay finite.
    pub(crate) fn start<T: Scalar>(
        &mut self,
        c: usize,
        bnorm: f64,
        x: &mut PanelMut<'_, T>,
    ) -> bool {
        if bnorm == 0.0 {
            x.col_mut(c).fill(T::ZERO);
            self.retire(c, SolverStatus::Converged, 0, 0.0);
        } else if !bnorm.is_finite() {
            self.retire(c, SolverStatus::NumericalBreakdown, 0, f64::NAN);
        }
        self.lanes[c] == Lane::Active
    }

    /// Column `c`'s lane.
    #[inline]
    pub(crate) fn lane(&self, c: usize) -> Lane {
        self.lanes[c]
    }

    /// Moves column `c` between [`Lane::Active`] and [`Lane::Pending`];
    /// [`Columns::retire`] is the only way out.
    #[inline]
    pub(crate) fn set(&mut self, c: usize, lane: Lane) {
        debug_assert!(lane != Lane::Retired && self.lanes[c] != Lane::Retired);
        self.lanes[c] = lane;
    }

    /// `true` while column `c` iterates.
    #[inline]
    pub(crate) fn is_active(&self, c: usize) -> bool {
        self.lanes[c] == Lane::Active
    }

    /// `true` while any column iterates.
    pub(crate) fn any_active(&self) -> bool {
        self.lanes.contains(&Lane::Active)
    }

    /// Appends `relres` to column `c`'s history when the solve records
    /// one.
    #[inline]
    pub(crate) fn record(&mut self, c: usize, relres: f64) {
        if self.record_history {
            self.results[c].history.push(relres);
        }
    }

    /// Freezes column `c` with its outcome — the only place a driver
    /// writes a result's `converged`, `iterations`,
    /// `relative_residual` and `status`.
    pub(crate) fn retire(
        &mut self,
        c: usize,
        status: SolverStatus,
        iterations: usize,
        relres: f64,
    ) {
        self.lanes[c] = Lane::Retired;
        let r = &mut self.results[c];
        r.converged = status == SolverStatus::Converged;
        r.iterations = iterations;
        r.relative_residual = relres;
        r.status = status;
    }

    /// Closes the columns still active at the iteration cap with their
    /// last residual estimates (`relres[c]`).
    pub(crate) fn retire_capped(&mut self, max_iters: usize, relres: &[f64]) {
        for c in 0..self.lanes.len() {
            if self.is_active(c) {
                self.retire(c, SolverStatus::MaxIters, max_iters, relres[c]);
            }
        }
    }
}
