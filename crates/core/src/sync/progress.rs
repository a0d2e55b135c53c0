//! Monotone per-thread progress counters — the runtime half of the
//! sparsified point-to-point schedule.
//!
//! Each worker owns one cache-padded counter and is its only writer: it
//! publishes its count of completed tasks (for the schedule walks:
//! completed blocks) there with a release store. A consumer that must
//! observe "thread `t` has completed ≥ `k` of them" spins (acquire) on
//! `t`'s counter. The release/acquire pair makes every memory write
//! performed by the first `k` of `t`'s tasks visible to the waiter — exactly the happens-before edge the factorization
//! and triangular solves need; no locks, no barriers.
//!
//! [`ProgressCounters::walk`] runs one thread's static sequence of
//! **blocks** — contiguous runs of tasks, a thread's share of a level —
//! under per-block publication: a block's waits are checked once before
//! it starts, and the count of finished blocks is stored once when it
//! ends. A thread that blocks has therefore published everything it
//! finished, and every wait of a sound schedule targets a block that
//! ends before the waiting block starts, so no wait cycle can form
//! (`docs/ARCHITECTURE.md` §7 has the argument).

use crate::sync::backoff::Backoff;
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
    /// With `crate::sync::abort::ABORT_PANIC_MSG` if the enclosing parallel
    /// region aborts (a peer panicked) while waiting — the wait would
    /// otherwise spin forever on a counter nobody will publish.
    #[inline]
    pub fn wait_for(&self, t: usize, required: usize) {
        if self.load(t) >= required {
            return;
        }
        let mut backoff = Backoff::new();
        while self.load(t) < required {
            crate::sync::abort::check();
            backoff.snooze();
        }
    }

    /// Runs thread `tid`'s static block sequence (see module docs):
    /// before `run(block)`, every `(thread, required)` pair of the
    /// block's wait list is awaited; after it, `tid`'s count of finished
    /// blocks is published. Expects `tid`'s counter to start at zero
    /// ([`Self::reset`]).
    #[inline(always)]
    pub fn walk<'w, B>(
        &self,
        tid: usize,
        blocks: impl IntoIterator<Item = (B, &'w [(usize, usize)])>,
        mut run: impl FnMut(B),
    ) {
        for (done, (block, waits)) in blocks.into_iter().enumerate() {
            for &(t, required) in waits {
                self.wait_for(t, required);
            }
            run(block);
            self.publish(tid, done + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::abort::{self, RegionAbort};
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
        // is the number of earlier blocks, never a mid-block value.
        let p = ProgressCounters::new(1);
        let mut seen = Vec::new();
        let none: &[(usize, usize)] = &[];
        p.walk(0, [(0..3, none), (5..7, none), (9..10, none)], |block| {
            for task in block {
                seen.push((task, p.load(0)));
            }
        });
        assert_eq!(seen, [(0, 0), (1, 0), (2, 0), (5, 1), (6, 1), (9, 2)]);
        assert_eq!(p.load(0), 3);
    }

    #[test]
    fn blocked_walker_publishes_finished_work_first() {
        // Thread 0 walks blocks [0] and [1]; block [1] waits for thread
        // 1's only block, which waits for thread 0's block [0]. The
        // publication at the end of block [0] — before block [1]'s wait
        // is checked — is what releases thread 1; without it the pair
        // deadlocks, which the watchdog turns into a failure (the
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
                        p.walk(0, [(0, waits0[0]), (1, waits0[1])], |task| {
                            order.lock().push(task)
                        });
                        tx.send(()).unwrap();
                    }),
                    s.spawn(|| {
                        let _g = abort::enter(Arc::clone(&flag));
                        p.walk(1, [(7, waits1)], |task| order.lock().push(task));
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
