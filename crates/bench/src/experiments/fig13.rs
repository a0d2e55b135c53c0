//! Fig. 13 — group-A speedup when the input is preordered with RCM
//! instead of nested dissection.
//!
//! The paper's framing: RCM costs level-structure width (fewer, longer
//! levels) but buys iteration count (Table II); Fig. 13 shows the
//! factorization still speeds up respectably, with the base taken as
//! the *serial run of the ND-ordered system* — so the bars answer "what
//! do I give up by choosing the iteration-friendly ordering?".

use crate::harness::{factor_variants, preorder_dm_nd, Table};
use javelin_machine::{sim_factor_time, sim_trisolve_time, MachineModel, TrisolveModel};
use javelin_order::{compute_order, Ordering as Ord};
use javelin_synth::suite::{group_a, Scale};

/// Regenerates Fig. 13 as a table (ILU and stri speedups at 14 cores).
pub fn run(scale: Scale) -> String {
    let h14 = MachineModel::haswell14();
    let mut t = Table::new(&["Matrix", "ILU spd@14", "stri spd@14", "n_levels RCM", "ND"]);
    for meta in group_a() {
        let a = meta.build_at(scale);
        // ND pipeline (the Fig. 10 configuration) for the base time.
        let nd_prep = preorder_dm_nd(&a);
        let nd = factor_variants(&nd_prep);
        // RCM preorder for the measured bars.
        let p = compute_order(&a, Ord::Rcm);
        let rcm_mat = a.permute_sym(&p).expect("rcm fits");
        let rcm = factor_variants(&rcm_mat);
        let base_ilu = sim_factor_time(&nd.ls, &h14, 1).total_s;
        let ilu14 = base_ilu
            / sim_factor_time(&rcm.ls, &h14, 14)
                .total_s
                .min(sim_factor_time(&rcm.er, &h14, 14).total_s);
        let base_stri = sim_trisolve_time(&nd.ls, &h14, 1, TrisolveModel::Serial);
        let stri14 = base_stri
            / sim_trisolve_time(&rcm.ls, &h14, 14, TrisolveModel::Ls).min(sim_trisolve_time(
                &rcm.er,
                &h14,
                14,
                TrisolveModel::LsLower,
            ));
        t.row(vec![
            meta.name.to_string(),
            format!("{ilu14:.2}"),
            format!("{stri14:.2}"),
            rcm.ls.stats().n_levels.to_string(),
            nd.ls.stats().n_levels.to_string(),
        ]);
    }
    format!(
        "Fig. 13 — group-A speedup at 14 Haswell cores with RCM preordering\n\
         (base = serial time of the ND-ordered system; simulated from real\n\
         schedules; level counts shown to explain the gap)\n\n{}",
        t.render()
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
            let ilu: f64 = cells[1].parse().unwrap();
            let stri: f64 = cells[2].parse().unwrap();
            assert!(ilu > 0.1 && stri > 0.1, "degenerate speedup: {line}");
            checked += 1;
        }
        assert_eq!(checked, 6);
    }
}
