//! Region-abort protocol: turns a panic in one SPMD participant into a
//! prompt unwind of every participant instead of a deadlock.
//!
//! The point-to-point waits in this crate ([`crate::progress`],
//! [`crate::barrier`]) spin until a peer makes progress. If that peer
//! panics it never bumps its counter, and before this module existed
//! every other participant would spin forever — the region could not
//! reach the quiescent state [`crate::team::WorkerTeam::run`] needs
//! before it can propagate the panic. The fix is a per-region abort
//! flag:
//!
//! 1. the executor ([`crate::team`]) installs the region's flag in a
//!    thread-local for each participant;
//! 2. whichever participant panics has its unwind caught at the region
//!    edge, which sets the flag before recording completion;
//! 3. every spin wait polls the flag on its slow path and *panics* with
//!    [`ABORT_PANIC_MSG`] when it is set — unwinding that participant
//!    out of the region through the same catch, which marks it done.
//!
//! The cascade drains the whole region in bounded time, after which the
//! executor reports the original panic to the caller. Outside any
//! region (`enter` never called on this thread) the poll is a no-op, so
//! the primitives remain usable with ad-hoc `std::thread::scope` code.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Panic message used by [`check`] when a region is aborted. Executors
/// match on it to distinguish the abort echo from a root-cause panic.
pub const ABORT_PANIC_MSG: &str = "javelin parallel region aborted by a peer panic";

/// A per-region abort flag shared by all participants.
#[derive(Debug, Default)]
pub struct RegionAbort {
    flag: AtomicBool,
}

impl RegionAbort {
    /// Fresh, un-set flag.
    pub fn new() -> Self {
        RegionAbort::default()
    }

    /// Orders every participant polling this flag to unwind.
    pub fn set(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// `true` once the region is aborting.
    pub fn is_set(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// Re-arms the flag for a new region. Caller must guarantee
    /// quiescence (no participant inside the previous region).
    pub fn clear(&self) {
        self.flag.store(false, Ordering::Release);
    }
}

thread_local! {
    /// Innermost-last stack of active region flags for this thread
    /// (regions can nest when a region body launches sub-phases).
    static CURRENT: RefCell<Vec<Arc<RegionAbort>>> = const { RefCell::new(Vec::new()) };
}

/// Installs `flag` as this thread's current region flag until the
/// returned guard drops.
pub fn enter(flag: Arc<RegionAbort>) -> RegionGuard {
    CURRENT.with(|c| c.borrow_mut().push(flag));
    RegionGuard { _priv: () }
}

/// Uninstalls the flag pushed by the matching [`enter`] on drop —
/// including during an unwind, so a panicking participant leaves no
/// stale flag behind.
#[must_use]
pub struct RegionGuard {
    _priv: (),
}

impl Drop for RegionGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// Polled by spin waits: panics with [`ABORT_PANIC_MSG`] when the
/// current region (if any) is aborting. No-op outside a region.
#[inline]
pub fn check() {
    let aborting = CURRENT.with(|c| c.borrow().last().map(|f| f.is_set()).unwrap_or(false));
    if aborting {
        panic!("{ABORT_PANIC_MSG}");
    }
}

/// `true` when `payload` (a caught panic payload) is the abort echo
/// raised by [`check`] rather than a root-cause panic.
pub fn is_abort_payload(payload: &(dyn std::any::Any + Send)) -> bool {
    payload
        .downcast_ref::<&'static str>()
        .is_some_and(|s| *s == ABORT_PANIC_MSG)
        || payload
            .downcast_ref::<String>()
            .is_some_and(|s| s == ABORT_PANIC_MSG)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn check_is_noop_outside_regions() {
        check(); // must not panic
    }

    #[test]
    fn check_panics_once_flag_is_set() {
        let flag = Arc::new(RegionAbort::new());
        let _g = enter(Arc::clone(&flag));
        check(); // not set yet
        flag.set();
        let r = catch_unwind(AssertUnwindSafe(check));
        let payload = r.unwrap_err();
        assert!(is_abort_payload(payload.as_ref()));
    }

    #[test]
    fn guard_restores_outer_region() {
        let outer = Arc::new(RegionAbort::new());
        let inner = Arc::new(RegionAbort::new());
        let _og = enter(Arc::clone(&outer));
        outer.set();
        {
            let _ig = enter(Arc::clone(&inner));
            check(); // inner region is fine
        }
        // Back in the outer region: its abort is visible again.
        assert!(catch_unwind(AssertUnwindSafe(check)).is_err());
    }

    #[test]
    fn clear_rearms() {
        let flag = RegionAbort::new();
        flag.set();
        assert!(flag.is_set());
        flag.clear();
        assert!(!flag.is_set());
    }
}
