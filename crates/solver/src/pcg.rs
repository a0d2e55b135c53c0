//! Preconditioned conjugate gradients: `k` independent SPD systems
//! solved in lockstep through one RHS panel ([`crate::Method::Pcg`]).
//!
//! The driver runs `k` preconditioned-CG recurrences side by side,
//! sharing one [`javelin_core::Preconditioner::apply_panel_with`] call
//! per iteration: the preconditioner's schedule walk — the dominant
//! per-iteration cost the paper's triangular solves pay — is traversed
//! **once per panel**, not once per column. Per-column scalar state
//! (α, β, ρ, residual norms) stays independent, so column `c` of the
//! panel is **bit-identical** to solving column `c` alone at width 1,
//! iteration counts included. There is no separate scalar loop: a
//! single right-hand side is the `k = 1` panel.
//!
//! ## Convergence masking
//!
//! Columns converge (or break down) at different iterations. A finished
//! column is *masked*: its vector updates and scalar recurrences stop,
//! its result is frozen — but its storage stays in place, so the panel
//! layout (and the panel preconditioner apply) never changes shape.
//! Applying `M⁻¹` to a frozen column is redundant work, but it is
//! exactly what keeps the remaining columns on a single shared schedule
//! walk; the batch terminates as soon as every column is masked. The
//! lanes, the zero and non-finite right-hand sides and every retire go
//! through the drivers' one column frame (`crate::columns`).
//!
//! ## Allocation discipline
//!
//! All panel buffers live in the caller's [`SolverWorkspace`]
//! (`ensure_panel`, grow-only). After the first solve at a given
//! `(n, k)` — and with a warmed preconditioner scratch — an entire
//! solve performs **zero steady-state heap allocations**: the
//! per-iteration loop is matvecs, dots, axpys and one panel apply. The
//! optional residual histories (`record_history`, off by default) are
//! the documented exception.

use crate::columns::{self, Columns};
use crate::{norm2, PanelMatrices, SolverOptions, SolverResult, SolverStatus, SolverWorkspace};
use javelin_core::precond::Preconditioner;
use javelin_sparse::{Panel, PanelMut, Scalar};

/// The PCG driver behind [`crate::krylov_panel_into`]: per-column
/// scalar state keeps every column on exactly the standalone-PCG
/// recurrence, so column `c` is bit-identical at every width.
///
/// # Panics
/// On panel shape mismatches or when `results.len() != b.ncols()`.
pub(crate) fn solve<T: Scalar, A: PanelMatrices<T>, P: Preconditioner<T>>(
    a: &A,
    b: Panel<'_, T>,
    mut x: PanelMut<'_, T>,
    m: &P,
    opts: &SolverOptions,
    ws: &mut SolverWorkspace<T>,
    results: &mut [SolverResult],
) {
    let n = a.nrows();
    let k = columns::panel_width("pcg", n, &b, &x, results);
    if k == 0 {
        return;
    }
    ws.ensure_panel(n, k);
    let SolverWorkspace {
        precond,
        pr,
        pz,
        pp,
        pq,
        col_rz,
        block_sums,
        col_bnorm,
        col_relres,
        lanes,
        ..
    } = ws;
    let mut cols = Columns::open(lanes, results, opts);

    // ---- Per-column setup. -----------------------------------------
    for c in 0..k {
        col_bnorm[c] = norm2(a, b.col(c), block_sums).to_f64();
        if !cols.start(c, col_bnorm[c], &mut x) {
            for buf in [&mut *pr, &mut *pz, &mut *pp, &mut *pq] {
                buf[c * n..(c + 1) * n].fill(T::ZERO);
            }
            continue;
        }
        // r = b - A x (matvec into r, subtracted from b in place).
        let r = &mut pr[c * n..(c + 1) * n];
        a.spmv_col(c, x.col(c), r);
        a.zip(r, b.col(c), |ax, b| b - ax);
    }
    if !cols.any_active() {
        return;
    }
    // z = M⁻¹ r: one panel apply for all lanes.
    m.apply_panel_with(
        precond,
        Panel::new(&pr[..n * k], n, k),
        PanelMut::new(&mut pz[..n * k], n, k),
    );
    for c in 0..k {
        if !cols.is_active(c) {
            continue;
        }
        let rc = c * n..(c + 1) * n;
        a.zip(&mut pp[rc.clone()], &pz[rc.clone()], |_, z| z);
        col_rz[c] = a.dot(&pr[rc.clone()], &pz[rc.clone()], block_sums);
        col_relres[c] = norm2(a, &pr[rc], block_sums).to_f64() / col_bnorm[c];
        cols.record(c, col_relres[c]);
        if !col_relres[c].is_finite() {
            // First-iteration guard: a non-finite initial residual
            // (hostile matrix values, poisoned x₀) halts the lane now.
            cols.retire(c, SolverStatus::NumericalBreakdown, 0, col_relres[c]);
        }
    }

    // ---- Lockstep iteration with per-lane masking. ------------------
    for it in 1..=opts.max_iters {
        if !cols.any_active() {
            break;
        }
        for c in 0..k {
            if !cols.is_active(c) {
                continue;
            }
            let rc = c * n..(c + 1) * n;
            a.spmv_col(c, &pp[rc.clone()], &mut pq[rc.clone()]);
            let pq_dot = a.dot(&pp[rc.clone()], &pq[rc.clone()], block_sums);
            if pq_dot == T::ZERO || !pq_dot.is_finite() {
                cols.retire(c, SolverStatus::NumericalBreakdown, it - 1, col_relres[c]);
                continue;
            }
            let alpha = col_rz[c] / pq_dot;
            a.zip(x.col_mut(c), &pp[rc.clone()], |x, p| x + alpha * p);
            a.zip(&mut pr[rc.clone()], &pq[rc.clone()], |r, q| r + -alpha * q);
            col_relres[c] = norm2(a, &pr[rc], block_sums).to_f64() / col_bnorm[c];
            cols.record(c, col_relres[c]);
            if col_relres[c] < opts.tol {
                cols.retire(c, SolverStatus::Converged, it, col_relres[c]);
            } else if !col_relres[c].is_finite() {
                // Per-iteration containment: a residual that turned
                // NaN/∞ never recovers; freeze the lane here instead of
                // dragging poisoned panels to the iteration cap.
                cols.retire(c, SolverStatus::NumericalBreakdown, it, col_relres[c]);
            }
        }
        if !cols.any_active() {
            break;
        }
        // One panel apply serves every still-active lane; masked lanes
        // ride along without breaking the panel layout.
        m.apply_panel_with(
            precond,
            Panel::new(&pr[..n * k], n, k),
            PanelMut::new(&mut pz[..n * k], n, k),
        );
        for c in 0..k {
            if !cols.is_active(c) {
                continue;
            }
            let rc = c * n..(c + 1) * n;
            let rz_new = a.dot(&pr[rc.clone()], &pz[rc.clone()], block_sums);
            let beta = rz_new / col_rz[c];
            col_rz[c] = rz_new;
            a.zip(&mut pp[rc.clone()], &pz[rc], |p, z| z + beta * p);
        }
    }
    cols.retire_capped(opts.max_iters, col_relres);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{krylov_panel_with, krylov_with, Method};
    use javelin_core::precond::IdentityPrecond;
    use javelin_core::{factorize, IluOptions};
    use javelin_sparse::CsrMatrix;
    use javelin_synth::grid::laplace_2d;

    fn rhs_panel(n: usize, k: usize) -> Vec<f64> {
        (0..n * k)
            .map(|i| ((i * 37 % 53) as f64 - 26.0) * 0.11 + ((i / n) as f64))
            .collect()
    }

    /// A `k`-column PCG solve from `x`, in the caller's workspace.
    fn panel_solve(
        a: &CsrMatrix<f64>,
        b: &[f64],
        x: &mut [f64],
        m: &impl Preconditioner<f64>,
        opts: &SolverOptions,
        ws: &mut SolverWorkspace<f64>,
    ) -> Vec<SolverResult> {
        let (n, k) = (a.nrows(), b.len() / a.nrows());
        let (b, x) = (Panel::new(b, n, k), PanelMut::new(x, n, k));
        krylov_panel_with(Method::Pcg, a, b, x, m, opts, ws)
    }

    /// One right-hand side in a fresh workspace.
    fn solve_one(
        a: &CsrMatrix<f64>,
        b: &[f64],
        x: &mut [f64],
        m: &impl Preconditioner<f64>,
        opts: &SolverOptions,
    ) -> SolverResult {
        krylov_with(Method::Pcg, a, b, x, m, opts, &mut SolverWorkspace::new())
    }

    #[test]
    fn batch_is_bitwise_identical_to_independent_pcg() {
        // The defining contract: column c of a batched solve carries
        // exactly the bits (and the iteration count) of a standalone
        // width-1 run on that column.
        let a = laplace_2d(12, 11);
        let n = a.nrows();
        let f = factorize(&a, &IluOptions::ilu0(2)).unwrap();
        let opts = SolverOptions::default();
        for k in [1usize, 3, 8] {
            let b = rhs_panel(n, k);
            let mut xb = vec![0.0; n * k];
            let results = panel_solve(&a, &b, &mut xb, &f, &opts, &mut SolverWorkspace::new());
            for c in 0..k {
                let mut x = vec![0.0; n];
                let r = solve_one(&a, &b[c * n..(c + 1) * n], &mut x, &f, &opts);
                assert_eq!(results[c].converged, r.converged, "k={k} col={c}");
                assert_eq!(results[c].iterations, r.iterations, "k={k} col={c}");
                assert_eq!(
                    results[c].relative_residual.to_bits(),
                    r.relative_residual.to_bits(),
                    "k={k} col={c}"
                );
                let bb: Vec<u64> = xb[c * n..(c + 1) * n].iter().map(|v| v.to_bits()).collect();
                let sb: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
                assert_eq!(bb, sb, "k={k} col={c}");
            }
        }
    }

    #[test]
    fn masking_freezes_converged_columns_independently() {
        // Column 0 carries a tiny RHS (converges almost immediately),
        // column 1 a hard one: iteration counts must differ and each
        // column's true residual must meet the tolerance.
        let a = laplace_2d(14, 14);
        let n = a.nrows();
        let f = factorize(&a, &IluOptions::default()).unwrap();
        let opts = SolverOptions::default();
        let mut b = vec![0.0; n * 2];
        b[0] = 1e-3; // nearly-aligned easy column
        for i in 0..n {
            b[n + i] = ((i * 17 % 31) as f64 - 15.0) * 0.4;
        }
        let mut x = vec![0.0; n * 2];
        let res = panel_solve(&a, &b, &mut x, &f, &opts, &mut SolverWorkspace::new());
        assert!(res[0].converged && res[1].converged);
        assert!(
            res[0].iterations < res[1].iterations,
            "easy column {} vs hard column {}",
            res[0].iterations,
            res[1].iterations
        );
        for c in 0..2 {
            let ax = a.spmv(&x[c * n..(c + 1) * n]);
            let rnorm: f64 = b[c * n..(c + 1) * n]
                .iter()
                .zip(ax.iter())
                .map(|(bi, axi)| (bi - axi) * (bi - axi))
                .sum::<f64>()
                .sqrt();
            let bnorm: f64 = b[c * n..(c + 1) * n]
                .iter()
                .map(|v| v * v)
                .sum::<f64>()
                .sqrt();
            assert!(rnorm / bnorm < 1e-5, "col {c}: {}", rnorm / bnorm);
        }
    }

    #[test]
    fn zero_rhs_columns_are_trivially_converged() {
        let a = laplace_2d(6, 6);
        let n = a.nrows();
        let f = factorize(&a, &IluOptions::default()).unwrap();
        let mut b = vec![0.0; n * 3];
        for i in 0..n {
            b[n + i] = 1.0; // only the middle column is nontrivial
        }
        let mut x = vec![5.0; n * 3];
        let opts = SolverOptions::default();
        let res = panel_solve(&a, &b, &mut x, &f, &opts, &mut SolverWorkspace::new());
        assert!(res[0].converged && res[0].iterations == 0);
        assert!(res[2].converged && res[2].iterations == 0);
        assert!(x[..n].iter().all(|&v| v == 0.0));
        assert!(x[2 * n..].iter().all(|&v| v == 0.0));
        assert!(res[1].converged && res[1].iterations > 0);
    }

    #[test]
    fn workspace_reuse_across_widths_is_bitwise_stable() {
        // One workspace across k = 3 → 1 → 3 (grow, narrow, re-widen)
        // must reproduce fresh-workspace bits every time.
        let a = laplace_2d(10, 9);
        let n = a.nrows();
        let f = factorize(&a, &IluOptions::ilu0(2)).unwrap();
        let opts = SolverOptions::default();
        let b3 = rhs_panel(n, 3);
        let reference = {
            let mut x = vec![0.0; n * 3];
            panel_solve(&a, &b3, &mut x, &f, &opts, &mut SolverWorkspace::new());
            x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        let mut ws = SolverWorkspace::new();
        for rep in 0..3 {
            let mut x = vec![0.0; n * 3];
            panel_solve(&a, &b3, &mut x, &f, &opts, &mut ws);
            let bits: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, reference, "rep {rep}");
            // Interleave a narrower solve to stress the width change.
            let mut x1 = vec![0.0; n];
            panel_solve(&a, &b3[..n], &mut x1, &f, &opts, &mut ws);
        }
    }

    #[test]
    fn iteration_cap_and_histories() {
        let a = laplace_2d(16, 16);
        let n = a.nrows();
        let f = factorize(&a, &IluOptions::default()).unwrap();
        let b = rhs_panel(n, 2);
        let opts = SolverOptions {
            max_iters: 2,
            record_history: true,
            ..Default::default()
        };
        let mut x = vec![0.0; n * 2];
        let res = panel_solve(&a, &b, &mut x, &f, &opts, &mut SolverWorkspace::new());
        for r in &res {
            assert!(!r.converged);
            assert_eq!(r.iterations, 2);
            assert_eq!(r.history.len(), 3); // initial + 2 iterations
        }
    }

    #[test]
    fn cg_converges_on_laplacian() {
        let a = laplace_2d(12, 12);
        let n = a.nrows();
        let x_true: Vec<f64> = (0..n).map(|i| ((i % 11) as f64 - 5.0) * 0.3).collect();
        let b = a.spmv(&x_true);
        let mut x = vec![0.0; n];
        let res = solve_one(&a, &b, &mut x, &IdentityPrecond, &SolverOptions::default());
        assert!(res.converged, "relres = {}", res.relative_residual);
        // True residual check, not just the recurrence.
        let ax = a.spmv(&x);
        let err: f64 = b
            .iter()
            .zip(ax.iter())
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        assert!(err / b.iter().map(|v| v * v).sum::<f64>().sqrt() < 1e-5);
    }

    #[test]
    fn ilu_preconditioning_reduces_iterations() {
        let a = laplace_2d(16, 16);
        let n = a.nrows();
        let b = vec![1.0; n];
        let opts = SolverOptions::default();
        let plain = solve_one(&a, &b, &mut vec![0.0; n], &IdentityPrecond, &opts);
        let f = factorize(&a, &IluOptions::default()).unwrap();
        let pre = solve_one(&a, &b, &mut vec![0.0; n], &f, &opts);
        assert!(plain.converged && pre.converged);
        assert!(
            pre.iterations < plain.iterations,
            "ILU(0) PCG {} should beat CG {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn workspace_reuse_matches_fresh_solves() {
        // One workspace across repeated solves (and across a size
        // change) must give bit-identical results to fresh workspaces.
        let a = laplace_2d(14, 14);
        let n = a.nrows();
        let f = factorize(&a, &IluOptions::ilu0(2)).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin()).collect();
        let opts = SolverOptions::default();
        let mut x_ref = vec![0.0; n];
        let r_ref = solve_one(&a, &b, &mut x_ref, &f, &opts);
        let bits_ref: Vec<u64> = x_ref.iter().map(|v| v.to_bits()).collect();
        let mut ws = SolverWorkspace::new();
        // Warm the workspace on a different (smaller) system first.
        let a_small = laplace_2d(5, 5);
        let mut xs = vec![0.0; 25];
        let one = vec![1.0; 25];
        krylov_with(
            Method::Pcg,
            &a_small,
            &one,
            &mut xs,
            &IdentityPrecond,
            &opts,
            &mut ws,
        );
        for rep in 0..3 {
            let mut x = vec![0.0; n];
            let r = krylov_with(Method::Pcg, &a, &b, &mut x, &f, &opts, &mut ws);
            assert_eq!(r.iterations, r_ref.iterations, "rep {rep}");
            let bits: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, bits_ref, "rep {rep}");
        }
    }

    #[test]
    fn zero_rhs_is_trivial() {
        let a = laplace_2d(4, 4);
        let b = vec![0.0; 16];
        let mut x = vec![5.0; 16];
        let res = solve_one(&a, &b, &mut x, &IdentityPrecond, &SolverOptions::default());
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn iteration_cap_respected() {
        let a = laplace_2d(20, 20);
        let b = vec![1.0; 400];
        let mut x = vec![0.0; 400];
        let opts = SolverOptions {
            max_iters: 3,
            ..Default::default()
        };
        let res = solve_one(&a, &b, &mut x, &IdentityPrecond, &opts);
        assert!(!res.converged);
        assert_eq!(res.iterations, 3);
    }

    #[test]
    fn history_recorded_when_requested() {
        let a = laplace_2d(6, 6);
        let b = vec![1.0; 36];
        let mut x = vec![0.0; 36];
        let opts = SolverOptions {
            record_history: true,
            ..Default::default()
        };
        let res = solve_one(&a, &b, &mut x, &IdentityPrecond, &opts);
        assert!(res.converged);
        assert_eq!(res.history.len(), res.iterations + 1); // initial + per-iter
        assert!(res.history.windows(2).filter(|w| w[1] < w[0]).count() > res.history.len() / 2);
    }

    // ---- Golden pin -------------------------------------------------
    // Recorded from the PCG driver at the commit before it lost its lane
    // generic; see `crate::golden` for the tuple.
    use crate::golden::{self, Golden};

    fn golden_run(fixture: usize) -> Golden {
        use javelin_synth::grid::laplace_2d as lap;
        let hist = SolverOptions {
            record_history: true,
            ..Default::default()
        };
        match fixture {
            // ILU(0), history on.
            0 => {
                let a = lap(13, 11);
                let f = factorize(&a, &IluOptions::ilu0(1)).unwrap();
                golden::run(Method::Pcg, &a, &golden::rhs(a.nrows()), 0.0, &f, hist)
            }
            // ILU(1) on two threads, tight tolerance.
            1 => {
                let a = lap(14, 9);
                let f = factorize(&a, &IluOptions::ilu0(2).with_fill(1)).unwrap();
                let opts = SolverOptions { tol: 1e-12, ..hist };
                golden::run(Method::Pcg, &a, &golden::rhs(a.nrows()), 0.0, &f, opts)
            }
            // Unpreconditioned CG from a warm start.
            2 => {
                let a = lap(12, 12);
                golden::run(
                    Method::Pcg,
                    &a,
                    &golden::rhs(a.nrows()),
                    0.5,
                    &IdentityPrecond,
                    hist,
                )
            }
            // Iteration cap.
            3 => {
                let a = lap(20, 20);
                let opts = SolverOptions {
                    max_iters: 3,
                    ..hist
                };
                golden::run(
                    Method::Pcg,
                    &a,
                    &golden::rhs(a.nrows()),
                    0.0,
                    &IdentityPrecond,
                    opts,
                )
            }
            // Zero right-hand side: x is overwritten with zeros.
            4 => {
                let a = lap(4, 4);
                golden::run(Method::Pcg, &a, &[0.0; 16], 3.0, &IdentityPrecond, hist)
            }
            // NaN right-hand side: frozen at the initial guess.
            5 => {
                let a = lap(5, 4);
                let mut b = golden::rhs(a.nrows());
                b[7] = f64::NAN;
                golden::run(Method::Pcg, &a, &b, 0.25, &IdentityPrecond, hist)
            }
            _ => unreachable!(),
        }
    }

    const GOLDEN: [Golden; 6] = [
        // 0: ILU(0)
        (
            12,
            SolverStatus::Converged,
            0x3ea29e5c1b8f3d69,
            13,
            0x2e69fd7b19ef5993,
        ),
        // 1: ILU(1), two threads, tol 1e-12
        (
            14,
            SolverStatus::Converged,
            0x3d394f42fe7f7247,
            15,
            0xf2de6e75af7f7657,
        ),
        // 2: identity, warm start
        (
            33,
            SolverStatus::Converged,
            0x3ea691df6d376146,
            34,
            0x74db64d70b2eaa3c,
        ),
        // 3: cap
        (
            3,
            SolverStatus::MaxIters,
            0x3fcc3e7b9c3e0fd4,
            4,
            0x31dfeebe5837626d,
        ),
        // 4: zero rhs
        (
            0,
            SolverStatus::Converged,
            0x0000000000000000,
            0,
            0x8421ae126c7ced25,
        ),
        // 5: NaN rhs
        (
            0,
            SolverStatus::NumericalBreakdown,
            0x7ff8000000000000,
            0,
            0xe1ca3f76156a6965,
        ),
    ];

    #[test]
    fn pcg_reproduces_the_recorded_bits() {
        for (fixture, want) in GOLDEN.iter().enumerate() {
            assert_eq!(golden_run(fixture), *want, "pcg fixture {fixture}");
        }
    }
}
