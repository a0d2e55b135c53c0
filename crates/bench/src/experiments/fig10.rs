//! Fig. 10 — Javelin ILU(0) speedup on Intel Haswell, 14 and 28 cores.
//!
//! Bars: `LS` (level scheduling with point-to-point synchronization
//! only) and `LS+Lower` (the two-stage split with the Even-Rows lower
//! stage). Neither machine is available, so each bar is the counted
//! bound `span(1) / span(t)` of one refactor sweep
//! (`SymbolicIlu::refactor_span`): the critical path of the analysis's
//! own schedules at `t` threads, each row weighted by its updates plus
//! its entries, synchronization free. A bound has no memory system, so
//! the paper's cross-socket falloff at 28 cores cannot show in it.
//! Beside the bounds, the measured 1- and 2-thread refactor times of
//! the `LS+Lower` analysis on this host.

use crate::harness::{
    bound, factor_variants, geo_mean, host_note, measured_refactor, micros, prepare, Table,
};
use javelin_core::IluOptions;
use javelin_synth::suite::{paper_suite, Scale};

/// The table of Figs. 10 and 11: per suite matrix, the counted refactor
/// bounds of `LS` and `LS+Lower` at each of `threads`, then the
/// measured 1- and 2-thread refactor times; a geomean row closes it.
pub(crate) fn refactor_bounds(scale: Scale, threads: [usize; 2]) -> String {
    let mut headers = vec!["Matrix".to_string()];
    for t in threads {
        headers.extend([format!("LS@{t}"), format!("LS+Low@{t}")]);
    }
    headers.extend(["meas t1 us".to_string(), "meas t2 us".to_string()]);
    let mut t = Table::new(&headers.iter().map(String::as_str).collect::<Vec<_>>());
    let mut g = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for meta in paper_suite() {
        let prep = prepare(meta, scale);
        let f = factor_variants(&prep.matrix);
        let mut cells = vec![prep.meta.name.to_string()];
        let (ls, er) = (f.ls.symbolic(), f.er.symbolic());
        // Columns in header order: LS, LS+Lower at each thread count.
        let columns = threads.into_iter().flat_map(|t| [(ls, t), (er, t)]);
        for (k, (sym, threads)) in columns.enumerate() {
            let b = bound(|t| sym.refactor_span(t), threads);
            g[k].push(b);
            cells.push(format!("{b:.2}"));
        }
        cells.extend(measured_refactor(&prep.matrix, &IluOptions::ilu0(1)).map(micros));
        t.row(cells);
    }
    let mut cells = vec!["geomean".to_string()];
    cells.extend(g.iter().map(|v| format!("{:.2}", geo_mean(v))));
    cells.extend(["-".to_string(), "-".to_string()]);
    t.row(cells);
    format!("{}{}", t.render(), host_note())
}

/// Regenerates Fig. 10 as a table of counted bounds and measured times.
pub fn run(scale: Scale) -> String {
    format!(
        "Fig. 10 — ILU(0) factorization speedup at Haswell's 14 and 28 cores\n\
         (LS/LS+Low columns counted: span(1) / span(t) of one refactor sweep,\n\
         synchronization free; meas columns measured on this host: one\n\
         LS+Lower refactor at 1 and 2 threads, best of 3)\n\n{}",
        refactor_bounds(scale, [14, 28])
    )
}

/// Checks a report of [`refactor_bounds`] at `threads`: 18 suite rows,
/// each counted bound between 1 and its thread count, each measured
/// time positive.
#[cfg(test)]
pub(crate) fn check_refactor_bounds(report: &str, [t0, t1]: [usize; 2]) {
    assert!(report.contains("geomean"));
    let mut rows = 0;
    for line in report.lines().filter(|l| l.contains("-like")) {
        let vals: Vec<f64> = line
            .split_whitespace()
            .skip(1)
            .map(|c| c.parse().unwrap())
            .collect();
        for (v, t) in vals[..4].iter().zip([t0, t0, t1, t1]) {
            assert!(
                *v >= 1.0 && *v <= t as f64 + 0.005,
                "bound {v} at {t}: {line}"
            );
        }
        assert!(vals[4..].iter().all(|&us| us > 0.0), "{line}");
        rows += 1;
    }
    assert_eq!(rows, 18);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_lie_between_one_and_the_thread_count() {
        check_refactor_bounds(&run(Scale::Tiny), [14, 28]);
    }
}
