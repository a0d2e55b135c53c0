//! Fig. 12 — maximal speedup of the sparse triangular solve.
//!
//! Exactly the paper's metric:
//! `maxspeedup(m, mat, p) = time(CSR-LS, mat, 1) / min_{i<=p} time(m, mat, i)`
//! for methods CSR-LS (barriered level sets), LS (point-to-point), and
//! LS+Lower (point-to-point plus Even-Rows trailing rows), on one socket
//! of Haswell (p = 14) and KNL (p = 68).

use crate::harness::{factor_variants, prepare, Table};
use javelin_machine::{sim_trisolve_time, MachineModel, TrisolveModel};
use javelin_synth::suite::{paper_suite, Scale};

fn max_speedup(
    base: f64,
    machine: &MachineModel,
    sweep: &[usize],
    time_at: impl Fn(&MachineModel, usize) -> f64,
) -> f64 {
    let best = sweep
        .iter()
        .map(|&p| time_at(machine, p))
        .fold(f64::INFINITY, f64::min);
    base / best
}

/// Regenerates Fig. 12 as a table.
pub fn run(scale: Scale) -> String {
    let h14 = MachineModel::haswell14();
    let knl = MachineModel::knl68();
    let h_sweep = [1usize, 2, 4, 8, 14];
    let k_sweep = [1usize, 2, 4, 8, 16, 32, 68];
    let mut t = Table::new(&[
        "Matrix",
        "CSRLS@hsw",
        "LS@hsw",
        "LS+Low@hsw",
        "CSRLS@knl",
        "LS@knl",
        "LS+Low@knl",
    ]);
    for meta in paper_suite() {
        let prep = prepare(meta, scale);
        let f = factor_variants(&prep.matrix);
        let mut cells = vec![prep.meta.name.to_string()];
        for (m, sweep) in [(&h14, &h_sweep[..]), (&knl, &k_sweep[..])] {
            let base = sim_trisolve_time(&f.ls, m, 1, TrisolveModel::CsrLs);
            let csrls = max_speedup(base, m, sweep, |mm, p| {
                sim_trisolve_time(&f.ls, mm, p, TrisolveModel::CsrLs)
            });
            let ls = max_speedup(base, m, sweep, |mm, p| {
                sim_trisolve_time(&f.ls, mm, p, TrisolveModel::Ls)
            });
            let lower = max_speedup(base, m, sweep, |mm, p| {
                sim_trisolve_time(&f.er, mm, p, TrisolveModel::LsLower)
            });
            cells.push(format!("{csrls:.2}"));
            cells.push(format!("{ls:.2}"));
            cells.push(format!("{lower:.2}"));
        }
        t.row(cells);
    }
    format!(
        "Fig. 12 — maximal stri speedup vs serial CSR-LS (simulated from real\n\
         schedules; forward + backward solve of the ILU(0) factors)\n\n{}",
        t.render()
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
            // LS must dominate barriered CSR-LS on both machines (the
            // core claim of the figure).
            assert!(vals[1] >= vals[0], "LS below CSR-LS: {line}");
            assert!(vals[4] >= vals[3], "LS below CSR-LS on KNL: {line}");
            checked += 1;
        }
        assert_eq!(checked, 18);
    }
}
