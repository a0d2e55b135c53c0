//! Fig. 12 — maximal speedup of the sparse triangular solve.
//!
//! The paper's metric,
//! `maxspeedup(m, mat, p) = time(CSR-LS, mat, 1) / min_{i<=p} time(m, mat, i)`,
//! with each time replaced by a counted span of one apply (forward +
//! backward solve of the ILU(0) factors; a row costs the entries each
//! sweep streams, synchronization free) at one socket of Haswell
//! (p = 14) and KNL (p = 68):
//!
//! * CSR-LS — the level-synchronous count of the analysis without the
//!   split: each level of both sweeps cut into the blocks of the
//!   point-to-point schedule, with a barrier after every level, so a
//!   level costs its heaviest block;
//! * LS — `SymbolicIlu::apply_span` of that analysis (pruned
//!   point-to-point waits instead of barriers);
//! * LS+Lower — `SymbolicIlu::apply_span` of the two-stage analysis.
//!
//! At one thread every span is the apply's serial work, the factor's
//! entries. Beside the bounds, the measured apply times of the two-stage
//! analysis on this host: Serial at 1 thread, the threaded engine at 2.

use crate::harness::{factor_variants, host_note, measured_apply, micros, prepare, Table};
use javelin_core::{IluFactors, IluOptions};
use javelin_synth::suite::{paper_suite, Scale};

/// The level-synchronous span of one apply of `f` at `t` threads: every
/// level of both sweeps cut into contiguous blocks of `ceil(width / t)`
/// rows, as `P2PSchedule::build` cuts it, each level costing its
/// heaviest block.
fn level_sync_span(f: &IluFactors<f64>, t: usize) -> usize {
    let (lu, dp, plan) = (f.lu(), f.diag_positions(), f.symbolic().plan());
    assert_eq!(
        plan.n_upper,
        lu.nrows(),
        "CSR-LS counts an analysis without the split"
    );
    let rowptr = lu.rowptr();
    let sweep = |level_ptr: &[usize], cost: &dyn Fn(usize) -> usize| -> usize {
        level_ptr
            .windows(2)
            .map(|l| {
                let chunk = (l[1] - l[0]).div_ceil(t).max(1);
                (l[0]..l[1])
                    .step_by(chunk)
                    .map(|lo| (lo..(lo + chunk).min(l[1])).map(cost).sum::<usize>())
                    .max()
                    .unwrap_or(0)
            })
            .sum()
    };
    sweep(&plan.upper_level_ptr, &|r| dp[r] - rowptr[r])
        + sweep(&plan.bwd_level_ptr, &|task| {
            let r = plan.bwd_row_of_task[task];
            rowptr[r + 1] - dp[r]
        })
}

/// Regenerates Fig. 12 as a table of counted bounds and measured times.
pub fn run(scale: Scale) -> String {
    let sweeps: [&[usize]; 2] = [&[1, 2, 4, 8, 14], &[1, 2, 4, 8, 16, 32, 68]];
    let mut t = Table::new(&[
        "Matrix",
        "CSRLS@14",
        "LS@14",
        "LS+Low@14",
        "CSRLS@68",
        "LS@68",
        "LS+Low@68",
        "meas t1 us",
        "meas t2 us",
    ]);
    for meta in paper_suite() {
        let prep = prepare(meta, scale);
        let f = factor_variants(&prep.matrix);
        let base = level_sync_span(&f.ls, 1) as f64;
        let mut cells = vec![prep.meta.name.to_string()];
        for sweep in sweeps {
            let best = |span: &dyn Fn(usize) -> usize| {
                let min = sweep.iter().map(|&p| span(p)).min().expect("nonempty");
                format!("{:.2}", base / min.max(1) as f64)
            };
            cells.push(best(&|p| level_sync_span(&f.ls, p)));
            cells.push(best(&|p| f.ls.symbolic().apply_span(p)));
            cells.push(best(&|p| f.er.symbolic().apply_span(p)));
        }
        cells.extend(measured_apply(&prep.matrix, &IluOptions::ilu0(1)).map(micros));
        t.row(cells);
    }
    format!(
        "Fig. 12 — maximal stri speedup vs serial CSR-LS (CSRLS/LS/LS+Low\n\
         columns counted: span(CSR-LS, 1) / min over i <= p of span(i) of one\n\
         apply, synchronization free; meas columns measured on this host: one\n\
         LS+Lower apply, Serial at 1 thread and threaded at 2, best of 5)\n\n{}{}",
        t.render(),
        host_note()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ls_variants_beat_csrls_baseline() {
        let r = run(Scale::Tiny);
        let mut checked = 0;
        for line in r.lines().filter(|l| l.contains("-like")) {
            let vals: Vec<f64> = line
                .split_whitespace()
                .skip(1)
                .map(|c| c.parse().unwrap())
                .collect();
            // Pruned waits never lengthen the critical path of the
            // same blocks (the core claim of the figure).
            assert!(vals[1] >= vals[0], "LS below CSR-LS: {line}");
            assert!(vals[4] >= vals[3], "LS below CSR-LS at 68: {line}");
            for (v, p) in vals[..6].iter().zip([14.0, 14.0, 14.0, 68.0, 68.0, 68.0]) {
                assert!(*v >= 1.0 && *v <= p + 0.005, "bound {v} at {p}: {line}");
            }
            assert!(vals[6..].iter().all(|&us| us > 0.0), "{line}");
            checked += 1;
        }
        assert_eq!(checked, 18);
    }
}
