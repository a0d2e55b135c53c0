//! Sense-reversing spin barrier.
//!
//! Traditional level-scheduled triangular solves place a barrier between
//! levels (the paper's CSR-LS baseline, Fig. 12); Javelin replaces those
//! with point-to-point waits and keeps a barrier only for the few
//! full-team joins around the threaded solve's trailing stage. This one
//! avoids the heavyweight std barrier: it spins with yield escalation
//! like every other primitive in the crate and is reusable across any
//! number of phases.

use crate::sync::backoff::Backoff;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A reusable spin barrier for a fixed number of participants.
#[derive(Debug)]
pub struct SpinBarrier {
    n: usize,
    arrived: AtomicUsize,
    sense: AtomicBool,
}

impl SpinBarrier {
    /// Barrier for `n` participants (`n ≥ 1`).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "barrier needs at least one participant");
        SpinBarrier {
            n,
            arrived: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
        }
    }

    /// Number of participants.
    pub fn participants(&self) -> usize {
        self.n
    }

    /// Resets the barrier to its initial phase. Caller must guarantee
    /// quiescence (no thread inside `wait`) — typically between parallel
    /// regions, so one barrier can be built per plan and reused across
    /// any number of solves even after a panicked region left it
    /// mid-phase.
    pub fn reset(&self) {
        self.arrived.store(0, Ordering::Relaxed);
        self.sense.store(false, Ordering::Release);
    }

    /// Blocks until all `n` participants have called `wait`. Returns
    /// `true` on exactly one participant per phase (the "leader").
    ///
    /// # Panics
    /// With `crate::sync::abort::ABORT_PANIC_MSG` if the enclosing parallel
    /// region aborts (a peer panicked) while waiting — a panicked peer
    /// never arrives, so the phase can never complete.
    pub fn wait(&self) -> bool {
        let phase_sense = self.sense.load(Ordering::Relaxed);
        let arrival = self.arrived.fetch_add(1, Ordering::AcqRel) + 1;
        if arrival == self.n {
            // Last arrival: reset the counter and flip the sense,
            // releasing everyone spinning on it.
            self.arrived.store(0, Ordering::Relaxed);
            self.sense.store(!phase_sense, Ordering::Release);
            true
        } else {
            let mut backoff = Backoff::new();
            while self.sense.load(Ordering::Acquire) == phase_sense {
                crate::sync::abort::check();
                backoff.snooze();
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn single_participant_never_blocks() {
        let b = SpinBarrier::new(1);
        for _ in 0..10 {
            assert!(b.wait());
        }
    }

    #[test]
    fn phases_are_synchronized() {
        const THREADS: usize = 4;
        const PHASES: usize = 20;
        let b = SpinBarrier::new(THREADS);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for phase in 0..PHASES {
                        counter.fetch_add(1, Ordering::Relaxed);
                        b.wait();
                        // After the barrier every increment of this phase
                        // must be visible.
                        let seen = counter.load(Ordering::Relaxed);
                        assert!(seen >= (phase + 1) * THREADS, "phase {phase}: saw {seen}");
                        b.wait(); // second barrier so nobody races ahead
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), THREADS * PHASES);
    }

    #[test]
    fn reset_restores_initial_phase() {
        let b = SpinBarrier::new(2);
        // Simulate an abandoned phase: one arrival, then reset.
        b.arrived.store(1, Ordering::Relaxed);
        b.sense.store(true, Ordering::Relaxed);
        b.reset();
        // A fresh two-party phase must complete normally.
        std::thread::scope(|s| {
            s.spawn(|| {
                b.wait();
            });
            b.wait();
        });
    }

    #[test]
    fn exactly_one_leader_per_phase() {
        const THREADS: usize = 3;
        let b = SpinBarrier::new(THREADS);
        let leaders = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..10 {
                        if b.wait() {
                            leaders.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(leaders.load(Ordering::Relaxed), 10);
    }
}
