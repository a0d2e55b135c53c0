//! Fig. 13 — group-A speedup when the input is preordered with RCM
//! instead of nested dissection.
//!
//! The paper's framing: RCM costs level-structure width (fewer, longer
//! levels) but buys iteration count (Table II). Each bar here is the
//! counted bound `span(1) / span(14)` of the RCM-ordered two-stage
//! analysis, for one refactor sweep (`SymbolicIlu::refactor_span`) and
//! one apply (`SymbolicIlu::apply_span`); the level counts of both
//! orderings explain the gap to Fig. 10. Beside the bounds, the
//! measured 1- and 2-thread refactor times of the RCM-ordered system on
//! this host.

use crate::harness::{bound, host_note, measured_refactor, micros, preorder_dm_nd, Table};
use javelin_core::{IluOptions, SymbolicIlu};
use javelin_order::{compute_order, Ordering as Ord};
use javelin_synth::suite::{group_a, Scale};

/// Regenerates Fig. 13 as a table (ILU and stri bounds at 14 threads).
pub fn run(scale: Scale) -> String {
    let mut t = Table::new(&[
        "Matrix",
        "ILU@14",
        "stri@14",
        "lvls RCM",
        "lvls ND",
        "meas t1 us",
        "meas t2 us",
    ]);
    let opts = IluOptions::ilu0(1);
    for meta in group_a() {
        let a = meta.build_at(scale);
        let nd = SymbolicIlu::analyze(&preorder_dm_nd(&a), &opts).expect("nd analysis");
        let p = compute_order(&a, Ord::Rcm);
        let rcm_mat = a.permute_sym(&p).expect("rcm fits");
        let rcm = SymbolicIlu::analyze(&rcm_mat, &opts).expect("rcm analysis");
        let mut cells = vec![
            meta.name.to_string(),
            format!("{:.2}", bound(|t| rcm.refactor_span(t), 14)),
            format!("{:.2}", bound(|t| rcm.apply_span(t), 14)),
            rcm.stats().n_levels.to_string(),
            nd.stats().n_levels.to_string(),
        ];
        cells.extend(measured_refactor(&rcm_mat, &opts).map(micros));
        t.row(cells);
    }
    format!(
        "Fig. 13 — group-A speedup at 14 Haswell cores with RCM preordering\n\
         (ILU/stri columns counted: span(1) / span(14) of one refactor sweep\n\
         and one apply of the RCM-ordered analysis, synchronization free;\n\
         level counts shown to explain the gap; meas columns measured on\n\
         this host: one refactor at 1 and 2 threads, best of 3)\n\n{}{}",
        t.render(),
        host_note()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_complete_and_sane() {
        let r = run(Scale::Tiny);
        let mut checked = 0;
        for line in r.lines().filter(|l| l.contains("-like")) {
            let cells: Vec<&str> = line.split_whitespace().collect();
            let rcm: usize = cells[3].parse().unwrap();
            let nd: usize = cells[4].parse().unwrap();
            assert!(rcm >= 1 && nd >= 1, "degenerate level counts: {line}");
            for c in &cells[1..3] {
                let b: f64 = c.parse().unwrap();
                assert!((1.0..=14.005).contains(&b), "bound {b}: {line}");
            }
            for c in &cells[5..] {
                assert!(c.parse::<f64>().unwrap() > 0.0, "{line}");
            }
            checked += 1;
        }
        assert_eq!(checked, 6);
    }
}
