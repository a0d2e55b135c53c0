//! Scoped fork-join execution with stable thread ids.
//!
//! The paper runs inside an OpenMP parallel region: a fixed team of
//! threads, each knowing its id, executing the same SPMD function. This
//! module is the *spawn-per-region* form of that, built on
//! `std::thread::scope` so worker closures can borrow the matrix, the
//! schedule and the progress counters directly.
//!
//! It serves the once-per-pattern phases only — the parallel symbolic
//! fill search ([`parallel_chunks`]) and the Segmented-Rows task graph
//! ([`crate::taskgraph::TaskGraph`]) — where a thread spawn is noise
//! next to the work. Everything executed repeatedly (numeric
//! refactorization, triangular solves and spmv inside a Krylov
//! iteration) runs on the persistent [`crate::team::WorkerTeam`]
//! through [`crate::exec::Exec`]. Both give the same tid semantics and
//! the same fork-join memory ordering.

use crate::abort::{self, RegionAbort};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Runs `f(tid)` on `nthreads` OS threads (tids `0..nthreads`) and
/// waits for all of them. `nthreads == 1` runs inline on the caller.
///
/// Each region carries its own [`RegionAbort`] flag: if any participant
/// panics, the flag is set before its unwind leaves the region, so
/// peers blocked in the crate's spin waits unwind promptly instead of
/// deadlocking on progress that will never come (see [`crate::abort`]).
///
/// # Panics
/// Propagates a panic after all workers finish.
pub fn run_on_threads<F>(nthreads: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    assert!(nthreads >= 1, "need at least one thread");
    if nthreads == 1 {
        f(0);
        return;
    }
    let region_abort = Arc::new(RegionAbort::new());
    std::thread::scope(|s| {
        for tid in 1..nthreads {
            let fref = &f;
            let region_abort = Arc::clone(&region_abort);
            s.spawn(move || {
                let result = {
                    let _g = abort::enter(Arc::clone(&region_abort));
                    catch_unwind(AssertUnwindSafe(|| fref(tid)))
                };
                if let Err(payload) = result {
                    region_abort.set();
                    resume_unwind(payload);
                }
            });
        }
        let caller_result = {
            let _g = abort::enter(Arc::clone(&region_abort));
            catch_unwind(AssertUnwindSafe(|| f(0)))
        };
        if let Err(payload) = caller_result {
            // Release the peers before unwinding: the scope's exit path
            // joins every spawned thread, which only terminates if they
            // can observe the abort.
            region_abort.set();
            resume_unwind(payload);
        }
    });
}

/// Splits `0..len` into at most `nthreads` contiguous chunks and runs
/// `f(tid, start..end)` on each participating thread.
///
/// Degenerate calls stay cheap: `len == 0` returns without entering a
/// parallel region, and when the chunking leaves trailing threads with
/// empty ranges only the threads that own work are started (so the
/// closure is never invoked with an empty range).
pub fn parallel_chunks<F>(nthreads: usize, len: usize, f: F)
where
    F: Fn(usize, std::ops::Range<usize>) + Sync,
{
    if len == 0 {
        return;
    }
    let chunk = len.div_ceil(nthreads.max(1)).max(1);
    // Threads `>= active` would receive empty ranges; don't start them.
    let active = len.div_ceil(chunk);
    run_on_threads(active, |tid| {
        let start = (tid * chunk).min(len);
        let end = ((tid + 1) * chunk).min(len);
        f(tid, start..end);
    });
}

/// Balanced per-thread column range for panel work *inside* an SPMD
/// region: thread `tid` of `nthreads` owns `col_range(ncols, nthreads,
/// tid)`. The ranges partition `0..ncols` with the first `ncols %
/// nthreads` threads taking one extra column.
///
/// Unlike ceil-div chunking, a narrow panel (`ncols < nthreads`) hands
/// the trailing threads genuinely **empty** ranges rather than
/// degenerate out-of-range ones — the in-region mirror of
/// [`parallel_chunks`]' empty-chunk early-return. Callers simply skip
/// an empty range; no clamping or bounds games required.
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
    fn all_tids_run_once() {
        for nthreads in 1..=6 {
            let hits = (0..nthreads)
                .map(|_| AtomicUsize::new(0))
                .collect::<Vec<_>>();
            run_on_threads(nthreads, |tid| {
                hits[tid].fetch_add(1, Ordering::Relaxed);
            });
            for (t, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "tid {t}");
            }
        }
    }

    #[test]
    fn borrows_stack_data() {
        let data = [1usize, 2, 3, 4];
        let sum = AtomicUsize::new(0);
        run_on_threads(4, |tid| {
            sum.fetch_add(data[tid], Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn chunks_cover_range_exactly_once() {
        for nthreads in 1..=5 {
            for len in [0usize, 1, 7, 16, 33] {
                let marks: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
                parallel_chunks(nthreads, len, |_tid, range| {
                    for i in range {
                        marks[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(
                    marks.iter().all(|m| m.load(Ordering::Relaxed) == 1),
                    "nthreads={nthreads} len={len}"
                );
            }
        }
    }

    #[test]
    fn chunks_never_deliver_empty_ranges() {
        // 5 threads × len 6 → chunk 2 → 3 active threads, none empty.
        let calls = AtomicUsize::new(0);
        parallel_chunks(5, 6, |_tid, range| {
            assert!(!range.is_empty());
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        // Degenerate: empty input never enters a region.
        parallel_chunks(4, 0, |_tid, _range| {
            panic!("must not be called for len == 0");
        });
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        run_on_threads(2, |tid| {
            if tid == 1 {
                panic!("boom");
            }
        });
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
