//! Monotone per-thread progress counters — the runtime half of the
//! sparsified point-to-point schedule.
//!
//! Each worker owns one cache-padded counter and is its only writer: it
//! publishes its completed-task count there with a release store. A
//! consumer that must observe "thread `t` has completed ≥ `k` tasks"
//! spins (acquire) on `t`'s counter. The release/acquire pair makes
//! every memory write performed by the first `k` tasks of `t` visible
//! to the waiter — exactly the happens-before edge the factorization
//! and triangular solves need; no locks, no barriers.
//!
//! [`ProgressCounters::walk`] runs one thread's static task sequence
//! under **per-block publication**: the count is stored once at the end
//! of each contiguous run of execution indices (a thread's share of a
//! level is one such run) and once before any wait that is not already
//! satisfied — not after every task. A thread that blocks has therefore
//! published everything it finished, and every wait of a schedule
//! targets a task earlier in execution order, so no wait cycle can form
//! (`docs/ARCHITECTURE.md` §7 has the argument).

use crate::backoff::Backoff;
use crossbeam::utils::CachePadded;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A set of per-thread monotone progress counters.
#[derive(Debug)]
pub struct ProgressCounters {
    counters: Vec<CachePadded<AtomicUsize>>,
}

impl ProgressCounters {
    /// Creates `n` counters initialized to zero.
    pub fn new(n: usize) -> Self {
        ProgressCounters {
            counters: (0..n)
                .map(|_| CachePadded::new(AtomicUsize::new(0)))
                .collect(),
        }
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// `true` when no counters exist.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Resets every counter to zero. Caller must guarantee quiescence
    /// (no concurrent waiters/publishers) — typically between solves.
    pub fn reset(&self) {
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
        // Publish the zeroes before the next parallel phase begins.
        std::sync::atomic::fence(Ordering::Release);
    }

    /// Records that thread `t` completed one more task and publishes it
    /// at once (release). Only thread `t` may call this for `t`.
    #[inline]
    pub fn bump(&self, t: usize) {
        let c = &self.counters[t];
        c.store(c.load(Ordering::Relaxed) + 1, Ordering::Release);
    }

    /// Publishes that thread `t` has completed `done` tasks (release).
    /// Only thread `t` may call this for `t`, with non-decreasing `done`.
    #[inline]
    fn publish(&self, t: usize, done: usize) {
        self.counters[t].store(done, Ordering::Release);
    }

    /// Current published progress of thread `t` (acquire).
    #[inline]
    pub fn load(&self, t: usize) -> usize {
        self.counters[t].load(Ordering::Acquire)
    }

    /// Spin-waits (with yield escalation) until thread `t` has published
    /// at least `required` completed tasks.
    ///
    /// # Panics
    /// With [`crate::abort::ABORT_PANIC_MSG`] if the enclosing parallel
    /// region aborts (a peer panicked) while waiting — the wait would
    /// otherwise spin forever on a counter nobody will publish.
    #[inline]
    pub fn wait_for(&self, t: usize, required: usize) {
        if self.load(t) >= required {
            return;
        }
        let mut backoff = Backoff::new();
        while self.load(t) < required {
            crate::abort::check();
            backoff.snooze();
        }
    }

    /// Runs thread `tid`'s static task sequence `tasks` (ascending
    /// execution indices) under per-block publication (see module
    /// docs): before `run(task)`, every `(thread, required)` pair of
    /// `waits_of(task)` is awaited — publishing `tid`'s own count first
    /// if the wait is not already satisfied — and after it, the count
    /// is published only where the next task is not `task + 1`.
    /// Expects `tid`'s counter to start at zero ([`Self::reset`]).
    #[inline(always)]
    pub fn walk<'w>(
        &self,
        tid: usize,
        tasks: &[usize],
        waits_of: impl Fn(usize) -> &'w [(usize, usize)],
        mut run: impl FnMut(usize),
    ) {
        for (done, &task) in tasks.iter().enumerate() {
            for &(t, required) in waits_of(task) {
                if self.load(t) < required {
                    // About to block: a peer may need what this thread
                    // has finished but not yet published.
                    self.publish(tid, done);
                    self.wait_for(t, required);
                }
            }
            run(task);
            if tasks.get(done + 1) != Some(&(task + 1)) {
                self.publish(tid, done + 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abort::{self, RegionAbort};
    use std::sync::atomic::AtomicUsize;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    #[test]
    fn bump_and_load() {
        let p = ProgressCounters::new(3);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        p.bump(1);
        p.bump(1);
        assert_eq!(p.load(0), 0);
        assert_eq!(p.load(1), 2);
        p.publish(1, 5);
        assert_eq!(p.load(1), 5);
        p.reset();
        assert_eq!(p.load(1), 0);
    }

    #[test]
    fn wait_for_satisfied_immediately() {
        let p = ProgressCounters::new(1);
        p.bump(0);
        p.wait_for(0, 1); // must not hang
    }

    #[test]
    fn cross_thread_happens_before() {
        // Thread A writes data then bumps; thread B waits then reads.
        // Repeated to give a race a chance to show up.
        for _ in 0..50 {
            let p = ProgressCounters::new(2);
            let data = AtomicUsize::new(0);
            std::thread::scope(|s| {
                s.spawn(|| {
                    data.store(42, Ordering::Relaxed);
                    p.bump(0);
                });
                s.spawn(|| {
                    p.wait_for(0, 1);
                    assert_eq!(data.load(Ordering::Relaxed), 42);
                });
            });
        }
    }

    #[test]
    fn chain_of_waiters() {
        // t0 -> t1 -> t2 relay, oversubscribed on any core count.
        let p = ProgressCounters::new(3);
        let out = parking_lot::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            s.spawn(|| {
                p.wait_for(1, 1);
                out.lock().push(2);
                p.bump(2);
            });
            s.spawn(|| {
                p.wait_for(0, 1);
                out.lock().push(1);
                p.bump(1);
            });
            s.spawn(|| {
                out.lock().push(0);
                p.bump(0);
            });
        });
        assert_eq!(*out.lock(), vec![0, 1, 2]);
    }

    #[test]
    fn walk_publishes_once_per_contiguous_block() {
        // Blocks [0, 1, 2], [5, 6], [9]: the count a task sees published
        // is the size of all earlier blocks, never a mid-block value.
        let p = ProgressCounters::new(1);
        let mut seen = Vec::new();
        p.walk(
            0,
            &[0, 1, 2, 5, 6, 9],
            |_| &[],
            |task| seen.push((task, p.load(0))),
        );
        assert_eq!(seen, [(0, 0), (1, 0), (2, 0), (5, 3), (6, 3), (9, 5)]);
        assert_eq!(p.load(0), 6);
    }

    #[test]
    fn blocked_walker_publishes_finished_work_first() {
        // Thread 0 walks one block [0, 1]; its task 1 waits for thread
        // 1's only task, which waits for thread 0's task 0 — finished
        // but, mid-block, not yet published. Only the publication before
        // thread 0's blocking wait releases thread 1; without it the
        // pair deadlocks, which the watchdog turns into a failure (the
        // region-abort flag unwinds both spinning walkers).
        let waits0: [&[(usize, usize)]; 2] = [&[], &[(1, 1)]];
        let waits1: &[(usize, usize)] = &[(0, 1)];
        for round in 0..100 {
            let p = ProgressCounters::new(2);
            let order = parking_lot::Mutex::new(Vec::new());
            let flag = Arc::new(RegionAbort::new());
            let (tx, rx) = mpsc::channel();
            std::thread::scope(|s| {
                let (h0, h1) = (
                    s.spawn(|| {
                        let _g = abort::enter(Arc::clone(&flag));
                        p.walk(
                            0,
                            &[0, 1],
                            |task| waits0[task],
                            |task| order.lock().push(task),
                        );
                        tx.send(()).unwrap();
                    }),
                    s.spawn(|| {
                        let _g = abort::enter(Arc::clone(&flag));
                        p.walk(1, &[7], |_| waits1, |task| order.lock().push(task));
                        tx.send(()).unwrap();
                    }),
                );
                let finished = (0..2).all(|_| rx.recv_timeout(Duration::from_secs(10)).is_ok());
                if !finished {
                    flag.set();
                }
                let joined = [h0.join(), h1.join()];
                assert!(finished, "round {round}: walkers deadlocked");
                assert!(joined.iter().all(Result::is_ok), "round {round}");
            });
            assert_eq!(*order.lock(), [0, 7, 1], "round {round}");
        }
    }
}
