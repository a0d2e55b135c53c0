//! Bounded spinning with yield escalation.
//!
//! The paper's point-to-point waits are "inexpensive spinlocks". On a
//! dedicated many-core node pure spinning is right; in CI containers or
//! oversubscribed runs a waiting thread can occupy the core its
//! dependency needs. This backoff spins with `spin_loop` hints for a
//! few rounds, then yields to the OS scheduler, guaranteeing progress at
//! any core/thread ratio.

use std::hint;
use std::thread;

/// Exponential spin backoff that escalates to `thread::yield_now`.
#[derive(Debug, Default)]
pub(crate) struct Backoff {
    step: u32,
}

impl Backoff {
    /// Spin rounds (doubling each step) before yielding.
    const SPIN_LIMIT: u32 = 6;

    /// Fresh backoff.
    pub(crate) fn new() -> Self {
        Backoff { step: 0 }
    }

    /// One wait step: spins `2^step` times while below the spin limit,
    /// afterwards yields the thread.
    #[inline]
    pub(crate) fn snooze(&mut self) {
        if self.step <= Self::SPIN_LIMIT {
            for _ in 0..(1u32 << self.step) {
                hint::spin_loop();
            }
            self.step += 1;
        } else {
            thread::yield_now();
        }
    }

    /// `true` once the backoff has escalated past pure spinning —
    /// callers that want to park can use this as the trigger.
    pub(crate) fn is_yielding(&self) -> bool {
        self.step > Self::SPIN_LIMIT
    }

    /// Resets to pure spinning.
    pub(crate) fn reset(&mut self) {
        self.step = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalates_to_yield() {
        let mut b = Backoff::new();
        assert!(!b.is_yielding());
        for _ in 0..=Backoff::SPIN_LIMIT {
            b.snooze();
        }
        assert!(b.is_yielding());
        // Further snoozes stay in the yielding regime without panicking.
        for _ in 0..4 {
            b.snooze();
        }
        assert!(b.is_yielding());
    }

    #[test]
    fn reset_restores_spinning() {
        let mut b = Backoff::new();
        for _ in 0..10 {
            b.snooze();
        }
        b.reset();
        assert!(!b.is_yielding());
    }
}
