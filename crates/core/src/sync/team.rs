//! Persistent worker team: a fixed set of parked OS threads with stable
//! tids that repeatedly execute *borrowed* SPMD closures.
//!
//! The paper's runtime is an OpenMP parallel region: the thread team is
//! created once and every factorization/solve phase reuses it — a
//! spawn per region would throw tens of microseconds away on every
//! preconditioner apply inside a Krylov loop. Construction spawns
//! `nthreads - 1` workers that park between regions;
//! [`WorkerTeam::run`] publishes a borrowed closure, wakes the team,
//! participates as tid 0, and returns once every worker has finished
//! the region.
//!
//! ## Safety protocol
//!
//! This module contains the only `unsafe` in the workspace. The closure
//! reference handed to workers has its lifetime erased (workers are
//! `'static`, the closure is not). Soundness rests on one invariant:
//!
//! > `run` does not return — normally or by unwinding — until every
//! > worker has bumped the completion counter for this region, and a
//! > worker never touches the job pointer outside the epoch window in
//! > which it was published.
//!
//! The release-bump/acquire-wait pair on the completion counter also
//! carries every memory write a worker performed into the caller, the
//! same happens-before edge `std::thread::scope` provides.
//!
//! Workers wait for a region with bounded spinning (see
//! `crate::sync::backoff::Backoff`) and escalate to a condvar park, so idle
//! teams consume no CPU — many live factorizations (each owning a team)
//! can coexist in one process.

#![allow(unsafe_code)]

use crate::sync::abort::{self, RegionAbort};
use crate::sync::affinity::{pin_current_thread, TeamAffinity};
use crate::sync::backoff::Backoff;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A lifetime-erased pointer to the region closure.
///
/// Safety: only dereferenced by workers between the epoch bump that
/// published it and the completion bump the publisher waits on.
#[derive(Clone, Copy)]
struct RawJob(*const (dyn Fn(usize) + Sync));

// Safety: the pointee is `Sync` (shared calls are fine) and the pointer
// only crosses threads under the region protocol described above.
unsafe impl Send for RawJob {}

struct Shared {
    nthreads: usize,
    /// Region sequence number; bumped (release) to start a region.
    epoch: AtomicU64,
    /// The current region's closure, valid for exactly one epoch.
    job: Mutex<Option<RawJob>>,
    /// Workers that finished the current region.
    done: AtomicUsize,
    /// Set when any worker's closure panicked during the region.
    panicked: AtomicBool,
    /// Per-region abort flag: set when any participant (worker or
    /// caller) panics, so peers blocked in spin waits unwind instead of
    /// deadlocking (see [`crate::sync::abort`]). Cleared at region start.
    region_abort: Arc<RegionAbort>,
    /// Sticky panic marker: set when a region ends by unwind, cleared
    /// by [`WorkerTeam::repair`] (which `run` invokes automatically).
    poisoned: AtomicBool,
    /// Bumped on every unwound region — lets callers holding long-lived
    /// plans detect that the team went through a panic/repair cycle.
    generation: AtomicU64,
    /// Orders the team to exit.
    shutdown: AtomicBool,
    /// Number of workers parked on the condvar.
    sleepers: AtomicUsize,
    sleep_lock: Mutex<()>,
    sleep_cv: Condvar,
}

/// A persistent team of `nthreads` SPMD participants: the calling
/// thread (tid 0) plus `nthreads - 1` parked workers (tids
/// `1..nthreads`).
pub struct WorkerTeam {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Serializes regions: `run` takes `&self` but the epoch protocol
    /// supports one region at a time.
    region: Mutex<()>,
}

impl std::fmt::Debug for WorkerTeam {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerTeam")
            .field("nthreads", &self.shared.nthreads)
            .finish()
    }
}

impl WorkerTeam {
    /// Spawns a team of `nthreads` participants (`nthreads - 1` OS
    /// threads; `nthreads == 1` spawns none and runs regions inline).
    ///
    /// # Panics
    /// If `nthreads == 0` or a worker thread cannot be spawned.
    pub fn new(nthreads: usize) -> Self {
        Self::with_affinity(nthreads, TeamAffinity::None)
    }

    /// Like [`WorkerTeam::new`], additionally applying `affinity` to
    /// every participant: each worker pins itself as the first thing it
    /// does on its own thread, and the calling thread (tid 0) is pinned
    /// here, before the constructor returns. Pinning is best-effort
    /// (see [`crate::sync::affinity`]) — a rejected mask leaves the thread
    /// unpinned and the team fully functional.
    pub fn with_affinity(nthreads: usize, affinity: TeamAffinity) -> Self {
        assert!(nthreads >= 1, "team needs at least one participant");
        // `core_for` reads the process's core count, recorded on its
        // first read — here, before the caller is pinned.
        if let Some(core) = affinity.core_for(0) {
            pin_current_thread(core);
        }
        let shared = Arc::new(Shared {
            nthreads,
            epoch: AtomicU64::new(0),
            job: Mutex::new(None),
            done: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            region_abort: Arc::new(RegionAbort::new()),
            poisoned: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            sleep_lock: Mutex::new(()),
            sleep_cv: Condvar::new(),
        });
        let handles = (1..nthreads)
            .map(|tid| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("javelin-worker-{tid}"))
                    .spawn(move || {
                        if let Some(core) = affinity.core_for(tid) {
                            pin_current_thread(core);
                        }
                        worker_loop(&shared, tid)
                    })
                    .expect("spawn team worker")
            })
            .collect();
        WorkerTeam {
            shared,
            handles,
            region: Mutex::new(()),
        }
    }

    /// Number of participants (including the caller).
    pub fn nthreads(&self) -> usize {
        self.shared.nthreads
    }

    /// `true` while the team carries unrepaired poison from a region
    /// that ended by unwind. [`WorkerTeam::run`] repairs automatically
    /// at its next entry; this accessor lets callers observe the state
    /// in between.
    pub fn is_poisoned(&self) -> bool {
        self.shared.poisoned.load(Ordering::Acquire)
    }

    /// Number of panic/repair cycles this team has been through. Stable
    /// across healthy regions, bumped once per unwound region — callers
    /// holding long-lived schedules can compare generations to learn
    /// that a panic happened between two uses.
    pub fn generation(&self) -> u64 {
        self.shared.generation.load(Ordering::Acquire)
    }

    /// Explicitly clears panic poison and re-arms the region-abort
    /// flag, returning `true` if there was poison to clear. Safe to
    /// call at any time (serialized with regions); [`WorkerTeam::run`]
    /// performs the same repair automatically, so this exists for
    /// callers that want the team verifiably clean *before* committing
    /// to the next region.
    pub fn repair(&self) -> bool {
        let _region = self.region.lock().unwrap_or_else(|e| e.into_inner());
        self.repair_inner()
    }

    /// Repair body; caller must hold the region lock (quiescence).
    fn repair_inner(&self) -> bool {
        self.shared.region_abort.clear();
        self.shared.panicked.store(false, Ordering::Relaxed);
        self.shared.poisoned.swap(false, Ordering::AcqRel)
    }

    /// Executes `f(tid)` for every tid in `0..nthreads`, the caller
    /// running tid 0, and returns once all participants finished. `f`
    /// may borrow from the caller's stack. Regions are serialized:
    /// concurrent `run` calls queue on an internal lock.
    ///
    /// # Panics
    /// Propagates the caller's own panic after the region completes;
    /// panics with a generic message when (only) a worker panicked.
    pub fn run<F>(&self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if self.shared.nthreads == 1 {
            f(0);
            return;
        }
        let _region = self.region.lock().unwrap_or_else(|e| e.into_inner());
        let shared = &*self.shared;
        // Auto-repair poison left by a previously unwound region.
        self.repair_inner();
        shared.done.store(0, Ordering::Relaxed);
        shared.panicked.store(false, Ordering::Relaxed);
        {
            // Erase the closure lifetime. Safety: see module docs — this
            // function does not return until every worker has bumped
            // `done` for this epoch.
            let wide: &(dyn Fn(usize) + Sync) = &f;
            let raw = RawJob(unsafe {
                std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                    wide as *const _,
                )
            });
            *shared.job.lock().unwrap_or_else(|e| e.into_inner()) = Some(raw);
        }
        shared.epoch.fetch_add(1, Ordering::Release);
        if shared.sleepers.load(Ordering::SeqCst) > 0 {
            let _g = shared.sleep_lock.lock().unwrap_or_else(|e| e.into_inner());
            shared.sleep_cv.notify_all();
        }

        // Participate as tid 0, deferring any panic until the region is
        // quiescent (workers may still be reading caller-owned data).
        let caller_result = catch_unwind(AssertUnwindSafe(|| {
            let _g = abort::enter(Arc::clone(&shared.region_abort));
            f(0)
        }));
        if caller_result.is_err() {
            // Workers may be spin-waiting on progress tid 0 will never
            // make: release them so the region can reach quiescence.
            shared.region_abort.set();
        }

        let mut backoff = Backoff::new();
        while shared.done.load(Ordering::Acquire) != shared.nthreads - 1 {
            backoff.snooze();
        }
        // Region over: drop the job pointer before `f` goes out of scope.
        *shared.job.lock().unwrap_or_else(|e| e.into_inner()) = None;

        let worker_panicked = shared.panicked.load(Ordering::Relaxed);
        if caller_result.is_err() || worker_panicked {
            shared.poisoned.store(true, Ordering::Release);
            shared.generation.fetch_add(1, Ordering::AcqRel);
        }
        if let Err(payload) = caller_result {
            if worker_panicked && abort::is_abort_payload(payload.as_ref()) {
                // Tid 0 only unwound because a worker's panic aborted
                // the region: report the root cause, not the echo.
                panic!("worker thread panicked during team region");
            }
            resume_unwind(payload);
        }
        if worker_panicked {
            panic!("worker thread panicked during team region");
        }
    }
}

impl Drop for WorkerTeam {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake everyone: epoch bump for spinners, notify for sleepers.
        self.shared.epoch.fetch_add(1, Ordering::Release);
        {
            let _g = self
                .shared
                .sleep_lock
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            self.shared.sleep_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, tid: usize) {
    let mut seen = 0u64;
    loop {
        // Wait for a new epoch: bounded spin, then park.
        let mut backoff = Backoff::new();
        loop {
            let e = shared.epoch.load(Ordering::Acquire);
            if e != seen {
                seen = e;
                break;
            }
            if backoff.is_yielding() {
                shared.sleepers.fetch_add(1, Ordering::SeqCst);
                let guard = shared.sleep_lock.lock().unwrap_or_else(|e| e.into_inner());
                // Re-check under the lock: the publisher bumps the epoch
                // before taking this lock to notify, so a missed bump is
                // observed here instead of slept through.
                if shared.epoch.load(Ordering::Acquire) == seen
                    && !shared.shutdown.load(Ordering::SeqCst)
                {
                    let _guard = shared
                        .sleep_cv
                        .wait(guard)
                        .unwrap_or_else(|e| e.into_inner());
                }
                shared.sleepers.fetch_sub(1, Ordering::SeqCst);
                backoff.reset();
            } else {
                backoff.snooze();
            }
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let job = *shared.job.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(RawJob(ptr)) = job {
            // Safety: the publisher keeps the closure alive until every
            // worker bumps `done` below.
            let f = unsafe { &*ptr };
            let result = {
                let _g = abort::enter(Arc::clone(&shared.region_abort));
                catch_unwind(AssertUnwindSafe(|| f(tid)))
            };
            if let Err(payload) = result {
                // An abort echo is this worker being *released* from a
                // wait after a peer's panic, not a root cause: it must
                // still free any peers waiting on this worker, but only
                // genuine panics mark the region as worker-panicked.
                if !abort::is_abort_payload(payload.as_ref()) {
                    shared.panicked.store(true, Ordering::Relaxed);
                }
                shared.region_abort.set();
            }
            shared.done.fetch_add(1, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn all_tids_run_once_per_region() {
        for nthreads in 1..=6 {
            let team = WorkerTeam::new(nthreads);
            for _ in 0..5 {
                let hits: Vec<AtomicUsize> = (0..nthreads).map(|_| AtomicUsize::new(0)).collect();
                team.run(|tid| {
                    hits[tid].fetch_add(1, Ordering::Relaxed);
                });
                for (t, h) in hits.iter().enumerate() {
                    assert_eq!(h.load(Ordering::Relaxed), 1, "tid {t}");
                }
            }
        }
    }

    #[test]
    fn pinned_team_runs_all_tids() {
        // Pinning is best-effort; whatever the kernel decided, the
        // region protocol must be unaffected.
        let team = WorkerTeam::with_affinity(3, crate::sync::affinity::TeamAffinity::Compact);
        let hits: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..4 {
            team.run(|tid| {
                hits[tid].fetch_add(1, Ordering::Relaxed);
            });
        }
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 4));
    }

    /// The calling thread's `Cpus_allowed_list`, as the kernel reports it.
    #[cfg(target_os = "linux")]
    fn cpus_allowed_list() -> String {
        let status = std::fs::read_to_string("/proc/thread-self/status").expect("thread status");
        status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .expect("Cpus_allowed_list line")
            .trim()
            .to_string()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn compact_team_of_a_pinned_caller_spreads_across_cores() {
        // The process's core count is recorded before anything here is
        // pinned, as the first pinned team of a process records it. A
        // caller an earlier team already pinned to core 0 then builds a
        // compact team: its worker must still get a core of its own.
        let cores = crate::sync::affinity::n_cores();
        let allowed = std::thread::spawn(|| {
            assert!(pin_current_thread(0), "pin the scratch caller");
            let team = WorkerTeam::with_affinity(2, TeamAffinity::Compact);
            let lists: Vec<Mutex<String>> = (0..2).map(|_| Mutex::new(String::new())).collect();
            team.run(|tid| *lists[tid].lock().unwrap() = cpus_allowed_list());
            lists
                .into_iter()
                .map(|l| l.into_inner().unwrap())
                .collect::<Vec<_>>()
        })
        .join()
        .expect("scratch thread");
        assert_eq!(allowed[0], "0", "tid 0");
        if cores >= 2 {
            assert_eq!(allowed[1], "1", "tid 1 on a {cores}-core host");
        }
    }

    #[test]
    fn borrows_stack_data_across_many_regions() {
        let team = WorkerTeam::new(4);
        for round in 0..50 {
            let data = [round; 4];
            let sum = AtomicUsize::new(0);
            team.run(|tid| {
                sum.fetch_add(data[tid], Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 4 * round);
        }
    }

    #[test]
    fn workers_see_caller_writes_and_vice_versa() {
        let team = WorkerTeam::new(3);
        let mut owned = vec![0usize; 3];
        let cells: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        team.run(|tid| {
            cells[tid].store(tid + 10, Ordering::Relaxed);
        });
        // The completion wait orders worker writes before this read.
        for (i, c) in cells.iter().enumerate() {
            owned[i] = c.load(Ordering::Relaxed);
        }
        assert_eq!(owned, vec![10, 11, 12]);
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let team = WorkerTeam::new(2);
        team.run(|tid| {
            if tid == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn team_survives_a_panicked_region() {
        let team = WorkerTeam::new(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            team.run(|tid| {
                if tid == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(r.is_err());
        // The team must still execute subsequent regions.
        let sum = AtomicUsize::new(0);
        team.run(|tid| {
            sum.fetch_add(tid + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn worker_panic_releases_peers_blocked_on_its_progress() {
        // tid 1 panics before bumping the counter tids 0 and 2 wait on.
        // Without the region-abort protocol this deadlocks forever.
        let team = WorkerTeam::new(3);
        let progress = crate::sync::progress::ProgressCounters::new(3);
        let r = catch_unwind(AssertUnwindSafe(|| {
            team.run(|tid| {
                if tid == 1 {
                    panic!("boom");
                }
                progress.wait_for(1, 1); // never satisfied
            });
        }));
        assert!(r.is_err());
        assert_eq!(team.generation(), 1);
        // The team must still run healthy regions afterwards.
        let sum = AtomicUsize::new(0);
        team.run(|tid| {
            sum.fetch_add(tid + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 6);
        assert_eq!(team.generation(), 1);
    }

    #[test]
    fn caller_panic_releases_workers_blocked_on_tid0() {
        // Tid 0 (the caller) panics before bumping the counter the
        // workers wait on — the symmetric deadlock.
        let team = WorkerTeam::new(3);
        let progress = crate::sync::progress::ProgressCounters::new(3);
        let r = catch_unwind(AssertUnwindSafe(|| {
            team.run(|tid| {
                if tid == 0 {
                    panic!("caller boom");
                }
                progress.wait_for(0, 1); // never satisfied
            });
        }));
        let payload = r.unwrap_err();
        // The caller's own panic is the root cause and must win over
        // any worker abort echoes.
        assert_eq!(*payload.downcast_ref::<&str>().unwrap(), "caller boom");
        let sum = AtomicUsize::new(0);
        team.run(|tid| {
            sum.fetch_add(tid + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn barrier_waiters_unwind_on_peer_panic() {
        let team = WorkerTeam::new(3);
        let barrier = crate::sync::barrier::SpinBarrier::new(3);
        let r = catch_unwind(AssertUnwindSafe(|| {
            team.run(|tid| {
                if tid == 2 {
                    panic!("boom");
                }
                barrier.wait(); // 2 of 3 arrivals: never completes
            });
        }));
        assert!(r.is_err());
        barrier.reset();
        team.run(|_| {
            barrier.wait();
        });
    }

    #[test]
    fn poison_and_repair_contract() {
        let team = WorkerTeam::new(2);
        assert!(!team.is_poisoned());
        assert_eq!(team.generation(), 0);
        assert!(!team.repair()); // nothing to repair
        let _ = catch_unwind(AssertUnwindSafe(|| {
            team.run(|tid| {
                if tid == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(team.is_poisoned());
        assert_eq!(team.generation(), 1);
        assert!(team.repair());
        assert!(!team.is_poisoned());
        assert!(!team.repair()); // idempotent
                                 // Generation records history; repair does not rewind it.
        assert_eq!(team.generation(), 1);
    }

    #[test]
    fn parked_team_wakes_up() {
        let team = WorkerTeam::new(3);
        let sum = AtomicUsize::new(0);
        team.run(|tid| {
            sum.fetch_add(tid, Ordering::Relaxed);
        });
        // Give workers time to escalate to the condvar park, then run
        // another region through the wake path.
        std::thread::sleep(std::time::Duration::from_millis(30));
        team.run(|tid| {
            sum.fetch_add(tid, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn drop_joins_workers() {
        let team = WorkerTeam::new(4);
        team.run(|_| {});
        drop(team); // must not hang
    }
}
