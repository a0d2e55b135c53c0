//! Execution context for parallel regions: how a plan runs its SPMD
//! closures.
//!
//! There is one way to run a region: on a persistent [`WorkerTeam`].
//! Plans (factorizations, spmv plans) build or borrow
//! their [`Exec`] once at construction time and every region afterwards
//! reuses the same parked threads with stable tids — the paper's single
//! OpenMP parallel region, amortized across the whole Krylov loop. A
//! one-participant team spawns nothing and runs regions inline on the
//! caller, so serial plans pay no thread cost either. Nothing else in
//! the library starts a thread (`scripts/check_spawns.sh` checks it).
//!
//! [`Exec::run`] executes `f(tid)` for `tid ∈ 0..nthreads` with the
//! caller participating as tid 0 and full fork-join semantics (all
//! memory writes of the region happen-before `run` returns).

use crate::sync::team::WorkerTeam;
use std::sync::Arc;

/// A cloneable handle on the persistent team a plan's parallel regions
/// run on (see module docs). Clones share the workers.
#[derive(Debug, Clone)]
pub struct Exec(Arc<WorkerTeam>);

impl Exec {
    /// A team of `nthreads` participants owned by this handle (and its
    /// clones).
    pub fn team(nthreads: usize) -> Self {
        Exec(Arc::new(WorkerTeam::new(nthreads)))
    }

    /// Like [`Exec::team`], with compact core pinning: participant
    /// `tid` binds to core `tid % n_cores` (best-effort; see
    /// [`crate::sync::affinity`]). The calling thread is pinned as tid 0.
    pub(crate) fn team_pinned(nthreads: usize) -> Self {
        Exec(Arc::new(WorkerTeam::with_affinity(
            nthreads,
            crate::sync::affinity::TeamAffinity::Compact,
        )))
    }

    /// Wraps an existing team.
    pub(crate) fn with_team(team: Arc<WorkerTeam>) -> Self {
        Exec(team)
    }

    /// Number of participants per region.
    pub fn nthreads(&self) -> usize {
        self.0.nthreads()
    }

    /// Runs one fork-join region: `f(tid)` for every tid.
    #[inline]
    pub fn run<F>(&self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.0.run(f)
    }
}

/// Balanced per-thread column range for panel work *inside* a region:
/// thread `tid` of `nthreads` owns `col_range(ncols, nthreads, tid)`.
/// The ranges partition `0..ncols` with the first `ncols % nthreads`
/// threads taking one extra column.
///
/// Unlike ceil-div chunking, a narrow panel (`ncols < nthreads`) hands
/// the trailing threads genuinely **empty** ranges rather than
/// degenerate out-of-range ones. Callers simply skip an empty range; no
/// clamping or bounds games required.
pub fn col_range(ncols: usize, nthreads: usize, tid: usize) -> std::ops::Range<usize> {
    let nthreads = nthreads.max(1);
    debug_assert!(tid < nthreads, "col_range: tid {tid} of {nthreads}");
    let base = ncols / nthreads;
    let extra = ncols % nthreads;
    let start = tid * base + tid.min(extra);
    let len = base + usize::from(tid < extra);
    start..start + len
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_all_tids_every_region() {
        let exec = Exec::team(3);
        assert_eq!(exec.nthreads(), 3);
        let hits: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..4 {
            exec.run(|tid| {
                hits[tid].fetch_add(1, Ordering::Relaxed);
            });
        }
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 4));
    }

    #[test]
    fn cloned_team_exec_shares_workers() {
        let exec = Exec::team(2);
        let clone = exec.clone();
        let sum = AtomicUsize::new(0);
        exec.run(|tid| {
            sum.fetch_add(tid + 1, Ordering::Relaxed);
        });
        clone.run(|tid| {
            sum.fetch_add(tid + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn col_ranges_partition_exactly() {
        for nthreads in 1..=6 {
            for ncols in [0usize, 1, 2, 3, 5, 8, 17] {
                let mut seen = vec![0usize; ncols];
                let mut prev_end = 0usize;
                for tid in 0..nthreads {
                    let r = col_range(ncols, nthreads, tid);
                    assert_eq!(r.start, prev_end, "ranges must be contiguous");
                    prev_end = r.end;
                    for c in r {
                        seen[c] += 1;
                    }
                }
                assert_eq!(prev_end, ncols, "nthreads={nthreads} ncols={ncols}");
                assert!(seen.iter().all(|&s| s == 1));
            }
        }
    }

    #[test]
    fn col_ranges_are_balanced() {
        // 8 columns over 3 threads: 3 + 3 + 2, never 3 + 3 + 3 + clamp.
        let lens: Vec<usize> = (0..3).map(|t| col_range(8, 3, t).len()).collect();
        assert_eq!(lens, vec![3, 3, 2]);
    }

    #[test]
    fn narrow_panels_leave_trailing_threads_empty() {
        // k = 2 columns across 5 threads: exactly two single-column
        // ranges, three genuinely empty ones — no degenerate ranges.
        let ranges: Vec<_> = (0..5).map(|t| col_range(2, 5, t)).collect();
        assert_eq!(ranges[0], 0..1);
        assert_eq!(ranges[1], 1..2);
        for r in &ranges[2..] {
            assert!(r.is_empty(), "trailing range {r:?} must be empty");
        }
        // Width-1 panel: only tid 0 works (the k = 1 fast path).
        assert_eq!(col_range(1, 4, 0), 0..1);
        assert!((1..4).all(|t| col_range(1, 4, t).is_empty()));
    }
}
