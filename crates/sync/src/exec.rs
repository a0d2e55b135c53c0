//! Execution context for parallel regions: how a plan runs its SPMD
//! closures.
//!
//! There is one way to run a region: on a persistent [`WorkerTeam`].
//! Plans (factorizations, spmv plans) build their [`Exec`] once at
//! construction time and every region afterwards reuses the same parked
//! threads with stable tids — the paper's single OpenMP parallel
//! region, amortized across the whole Krylov loop. A one-participant
//! team spawns nothing and runs regions inline on the caller, so serial
//! plans pay no thread cost either.
//!
//! [`Exec::run`] executes `f(tid)` for `tid ∈ 0..nthreads` with the
//! caller participating as tid 0 and full fork-join semantics (all
//! memory writes of the region happen-before `run` returns).

use crate::team::WorkerTeam;
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
    /// [`crate::affinity`]). The calling thread is pinned as tid 0.
    pub fn team_pinned(nthreads: usize) -> Self {
        Exec(Arc::new(WorkerTeam::with_affinity(
            nthreads,
            crate::affinity::TeamAffinity::Compact,
        )))
    }

    /// Wraps an existing team.
    pub fn with_team(team: Arc<WorkerTeam>) -> Self {
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
}
