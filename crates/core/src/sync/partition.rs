//! The in-region work partition: how a region's participants split a
//! range among themselves.

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
