//! Table II — iterations to convergence by ordering (group A).
//!
//! For each group-A matrix and each ordering (SYMAMD-style minimum
//! degree, RCM, nested dissection, natural), the system `A·x = b`
//! (`b = 1`) is solved by ILU(0)-preconditioned CG to a 1e-6 relative
//! residual. Plain orderings factor in the given row order (the
//! baseline in-order ILU); the `LS-RCM` / `LS-ND` columns impose
//! Javelin's level-set ordering on top, exactly as §VII describes.

use crate::harness::Table;
use javelin_baseline::{HeavyIlu, HeavyOptions};
use javelin_core::{factorize, IluOptions, Preconditioner};
use javelin_order::{compute_order, Ordering as Ord};
use javelin_solver::{krylov_with, Method, SolverOptions, SolverWorkspace};
use javelin_sparse::CsrMatrix;
use javelin_synth::suite::{group_a, Scale};

/// ILU-preconditioned CG from `x = 0` with `b = 1`: the iteration
/// count, or `>cap` when it did not converge.
fn pcg_iterations(a: &CsrMatrix<f64>, f: &impl Preconditioner<f64>) -> String {
    let b = vec![1.0; a.nrows()];
    let mut x = vec![0.0; a.nrows()];
    let (opts, mut ws) = (SolverOptions::default(), SolverWorkspace::new());
    let res = krylov_with(Method::Pcg, a, &b, &mut x, f, &opts, &mut ws);
    if res.converged {
        res.iterations.to_string()
    } else {
        format!(">{}", res.iterations)
    }
}

fn iterations_plain(a: &CsrMatrix<f64>) -> String {
    // In-order ILU(0) (the heavy baseline factors rows in natural
    // order, no internal permutation).
    match HeavyIlu::factor(a, &HeavyOptions::default()) {
        Ok(f) => pcg_iterations(a, &f),
        Err(_) => "x".to_string(),
    }
}

fn iterations_ls(a: &CsrMatrix<f64>) -> String {
    // Javelin's level-set ordering imposed on top (pure level
    // scheduling, serial numeric).
    match factorize(a, &IluOptions::level_scheduling_only(1)) {
        Ok(f) => pcg_iterations(a, &f),
        Err(_) => "x".to_string(),
    }
}

/// Regenerates Table II.
pub fn run(scale: Scale) -> String {
    let mut t = Table::new(&["Matrix", "AMD", "RCM", "ND", "NAT", "LS-RCM", "LS-ND"]);
    for meta in group_a() {
        let a = meta.build_at(scale);
        let mut cells = vec![meta.name.to_string()];
        for ord in [Ord::Amd, Ord::Rcm, Ord::Nd, Ord::Natural] {
            let p = compute_order(&a, ord);
            let ax = a.permute_sym(&p).expect("ordering fits");
            cells.push(iterations_plain(&ax));
        }
        for ord in [Ord::Rcm, Ord::Nd] {
            let p = compute_order(&a, ord);
            let ax = a.permute_sym(&p).expect("ordering fits");
            cells.push(iterations_ls(&ax));
        }
        t.row(cells);
    }
    format!(
        "Table II — ILU(0)-PCG iterations to 1e-6 relative residual, by ordering\n\
         (group A; LS-* = level-set ordering imposed on the preordered system)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_group_a_and_converges() {
        let r = run(Scale::Tiny);
        for name in [
            "offshore-like",
            "parabolic-like",
            "afshell-like",
            "thermal2-like",
            "ecology2-like",
            "apache2-like",
        ] {
            assert!(r.contains(name), "missing {name} in:\n{r}");
        }
        // Every iteration cell should be a plain number (convergence)
        // at tiny scale.
        for line in r.lines().filter(|l| l.contains("-like")) {
            for cell in line.split_whitespace().skip(1) {
                assert!(
                    cell.parse::<usize>().is_ok(),
                    "unconverged or failed cell {cell} in {line}"
                );
            }
        }
    }
}
