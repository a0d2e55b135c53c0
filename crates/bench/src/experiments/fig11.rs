//! Fig. 11 — Javelin ILU(0) speedup on Intel KNL: 68 cores with one
//! thread each, and 68 cores × 2 hardware threads (136).
//!
//! As in Fig. 10, each bar is the counted bound `span(1) / span(t)` of
//! one refactor sweep (`SymbolicIlu::refactor_span`) at the paper's
//! thread counts. A count treats 136 threads as 136 cores, so it bounds
//! from above what two hardware threads per core can give; the paper
//! saw only minor gains there. Beside the bounds, the measured 1- and
//! 2-thread refactor times of the `LS+Lower` analysis on this host.

use super::fig10::refactor_bounds;
use javelin_synth::suite::Scale;

/// Regenerates Fig. 11 as a table of counted bounds and measured times.
pub fn run(scale: Scale) -> String {
    format!(
        "Fig. 11 — ILU(0) factorization speedup at KNL's 68 cores x 1 and x 2\n\
         threads (LS/LS+Low columns counted: span(1) / span(t) of one\n\
         refactor sweep, synchronization free; meas columns measured on this\n\
         host: one LS+Lower refactor at 1 and 2 threads, best of 3)\n\n{}",
        refactor_bounds(scale, [68, 136])
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fig10::check_refactor_bounds;

    #[test]
    fn bounds_lie_between_one_and_the_thread_count() {
        check_refactor_bounds(&run(Scale::Tiny), [68, 136]);
    }
}
