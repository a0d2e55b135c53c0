//! Optional CPU affinity for worker teams.
//!
//! The paper's experiments bind the OpenMP team to cores
//! (`OMP_PROC_BIND`-style) so that level-scheduled point-to-point waits
//! hit warm caches and first-touch page placement stays aligned with
//! the threads that later traverse the pages. This module is the
//! equivalent knob: a [`TeamAffinity`] policy that [`crate::sync::WorkerTeam`]
//! applies to each participant at startup.
//!
//! Pinning is *best-effort*: on non-Linux targets, or when the kernel
//! rejects the mask (cgroup cpuset restrictions, core offline), the
//! thread simply stays unpinned — correctness never depends on
//! placement, only locality does. [`pin_current_thread`] reports
//! whether the kernel accepted the mask so tests and diagnostics can
//! observe the outcome.
//!
//! No external crates: the single syscall wrapper below is a minimal
//! `extern "C"` declaration against the C library that is already
//! linked into every std binary.

use std::sync::OnceLock;

/// How a worker team binds its participants to cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TeamAffinity {
    /// Leave every thread where the OS scheduler puts it (default).
    #[default]
    None,
    /// Pin participant `tid` to core `tid % n_cores`: dense, stable
    /// placement. The calling thread (tid 0) is pinned too when it
    /// enters the team constructor — callers that must keep their main
    /// thread free should construct the team from a worker thread.
    /// The core count is the process's, recorded by [`n_cores`] before
    /// any pinning, so a team built by an already-pinned caller (every
    /// pinned analysis after the first) still spreads across cores.
    Compact,
}

impl TeamAffinity {
    /// The core this policy assigns to participant `tid`, if any.
    pub(crate) fn core_for(self, tid: usize) -> Option<usize> {
        match self {
            TeamAffinity::None => None,
            TeamAffinity::Compact => Some(tid % n_cores()),
        }
    }
}

/// Number of cores visible to this process (affinity-mask aware on
/// Linux via std), read once — on the first call — and recorded, so
/// that pinning a thread later does not shrink the answer. Falls back
/// to 1 if the OS won't say. [`crate::sync::WorkerTeam::with_affinity`] makes
/// the first call before it pins anything.
pub fn n_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Best-effort pin of the calling thread to `core`. Returns `true` if
/// the kernel accepted the mask, `false` when pinning is unsupported on
/// this target, the core index is out of range, or the syscall failed.
pub fn pin_current_thread(core: usize) -> bool {
    sys::pin(core)
}

#[cfg(target_os = "linux")]
mod sys {
    // The only unsafe here is one FFI call into the already-linked libc.
    #![allow(unsafe_code)]

    /// `cpu_set_t`: a 1024-bit CPU mask, matching glibc's layout.
    #[repr(C)]
    struct CpuSet {
        bits: [u64; 16],
    }

    extern "C" {
        /// `pid == 0` targets the calling thread.
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    pub fn pin(core: usize) -> bool {
        if core >= 16 * 64 {
            return false;
        }
        let mut set = CpuSet { bits: [0; 16] };
        set.bits[core / 64] |= 1u64 << (core % 64);
        // Safety: `set` is a valid, fully-initialized mask of the size
        // we pass; the call only touches scheduler state.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn pin(_core: usize) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_policy_wraps_over_cores() {
        let n = n_cores();
        assert!(n >= 1);
        assert_eq!(TeamAffinity::Compact.core_for(0), Some(0));
        assert_eq!(TeamAffinity::Compact.core_for(n), Some(0));
        assert_eq!(TeamAffinity::None.core_for(3), None);
    }

    #[test]
    fn out_of_range_core_is_rejected_without_a_syscall() {
        assert!(!pin_current_thread(16 * 64));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pin_in_scratch_thread_reports_success() {
        // Pin inside a throwaway thread so the test-harness thread
        // keeps its original (permissive) mask.
        let ok = std::thread::spawn(|| pin_current_thread(0)).join().unwrap();
        assert!(ok, "pinning a scratch thread to core 0 should succeed");
    }
}
