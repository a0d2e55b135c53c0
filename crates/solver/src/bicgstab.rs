//! BiCGSTAB with right preconditioning: `k` independent nonsymmetric
//! systems solved in lockstep through one RHS panel
//! ([`crate::Method::Bicgstab`]).
//!
//! The driver extends PCG's lockstep-masking pattern (`crate::pcg`) to
//! the nonsymmetric short-recurrence solver: the **two** preconditioner
//! applications a BiCGSTAB step pays (`y = M⁻¹p` and `z = M⁻¹s`) each
//! become one [`javelin_core::Preconditioner::apply_panel_with`] call,
//! so the triangular schedule walk — the dominant per-iteration cost —
//! is traversed twice per *panel* instead of twice per *column*. All
//! per-column scalar recurrences (ρ, α, ω, β, residual norms) stay
//! independent: column `c` of the panel is **bit-identical** to a
//! width-1 run on that column, iteration counts, convergence flags and
//! (on breakdown) even NaN payloads included.
//!
//! ## Masking and per-column breakdown
//!
//! Columns converge at different iterations, and BiCGSTAB can also
//! *break down* per column (ρ = r̂ᵀr collapsing to zero or turning
//! non-finite, `tᵀt = 0`, or ω = 0). In every case the affected column
//! is **masked**, not the panel: its result freezes exactly where the
//! width-1 solve would have returned, its storage keeps its panel slot
//! (so the shared panel applies never change shape), and the remaining
//! columns keep iterating with bit-identical arithmetic. The panel
//! trisolve processes columns independently, so even a non-finite
//! frozen column cannot perturb its neighbours — the caller can then
//! restart just the masked column (e.g. with [`crate::Method::Gmres`])
//! while keeping the converged ones. Each breakdown retires its column
//! as `NumericalBreakdown` through the drivers' one column frame
//! (`crate::columns`), even when the residual is still finite.
//!
//! ## Allocation discipline
//!
//! All panels live in the caller's [`SolverWorkspace`]
//! (`ensure_panel_bicgstab`, grow-only): after the first solve at a
//! given `(n, k)` the per-iteration loop is matvecs, dots, axpys and
//! two panel applies — zero steady-state heap allocations, with opt-in
//! residual histories as the documented exception.

use crate::columns::{self, Columns};
use crate::{norm2, PanelMatrices, SolverOptions, SolverResult, SolverStatus, SolverWorkspace};
use javelin_core::precond::Preconditioner;
use javelin_sparse::{Panel, PanelMut, Scalar};

/// The BiCGSTAB driver behind [`crate::krylov_panel_into`]: per-column
/// ρ/α/ω state keeps every column on exactly the standalone recurrence,
/// breakdowns included.
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
    let k = columns::panel_width("bicgstab", n, &b, &x, results);
    if k == 0 {
        return;
    }
    ws.ensure_panel_bicgstab(n, k);
    let SolverWorkspace {
        precond,
        pr,
        pz,
        pp,
        pq,
        prhat,
        py,
        pt,
        col_rho,
        col_alpha,
        col_omega,
        block_sums,
        col_bnorm,
        col_relres,
        lanes,
        ..
    } = ws;
    let mut cols = Columns::open(lanes, results, opts);

    // ---- Per-column setup. -----------------------------------------
    for c in 0..k {
        let rc = c * n..(c + 1) * n;
        col_bnorm[c] = norm2(a, b.col(c), block_sums).to_f64();
        if !cols.start(c, col_bnorm[c], &mut x) {
            for buf in [
                &mut *pr,
                &mut *pz,
                &mut *pp,
                &mut *pq,
                &mut *prhat,
                &mut *py,
                &mut *pt,
            ] {
                buf[rc.clone()].fill(T::ZERO);
            }
            continue;
        }
        // r = b - A x (matvec into r, subtracted from b in place);
        // r_hat = r.
        let r = &mut pr[rc.clone()];
        a.spmv_col(c, x.col(c), r);
        a.zip(r, b.col(c), |ax, b| b - ax);
        a.zip(&mut prhat[rc.clone()], r, |_, r| r);
        col_rho[c] = T::ONE;
        col_alpha[c] = T::ONE;
        col_omega[c] = T::ONE;
        // q plays the role of `v = A·y`; z of the second preconditioned
        // direction; t of `A·z` — all zeroed.
        a.map(&mut pq[rc.clone()], |_| T::ZERO);
        a.map(&mut pp[rc.clone()], |_| T::ZERO);
        col_relres[c] = norm2(a, &pr[rc], block_sums).to_f64() / col_bnorm[c];
        cols.record(c, col_relres[c]);
        if !col_relres[c].is_finite() {
            // First-iteration guard: non-finite initial residual.
            cols.retire(c, SolverStatus::NumericalBreakdown, 0, col_relres[c]);
        }
    }

    // ---- Lockstep iteration with per-lane masking. ------------------
    for it in 1..=opts.max_iters {
        if !cols.any_active() {
            break;
        }
        // Phase 1 (per lane): the ρ recurrence and the new direction.
        for c in 0..k {
            if !cols.is_active(c) {
                continue;
            }
            let rc = c * n..(c + 1) * n;
            let rho_new = a.dot(&prhat[rc.clone()], &pr[rc.clone()], block_sums);
            if rho_new == T::ZERO || !rho_new.is_finite() {
                // ρ-breakdown: mask this lane where a width-1 solve
                // would have returned; the panel keeps iterating.
                cols.retire(c, SolverStatus::NumericalBreakdown, it - 1, col_relres[c]);
                continue;
            }
            let beta = (rho_new / col_rho[c]) * (col_alpha[c] / col_omega[c]);
            col_rho[c] = rho_new;
            // p = r + beta (p - omega v)
            let omega = col_omega[c];
            let (r, q) = (&pr[rc.clone()], &pq[rc.clone()]);
            a.zip3(&mut pp[rc], r, q, |p, r, q| r + beta * (p - omega * q));
        }
        if !cols.any_active() {
            break;
        }
        // y = M⁻¹ p: one panel apply for every lane (masked lanes ride
        // along on frozen data without changing the panel shape).
        m.apply_panel_with(
            precond,
            Panel::new(&pp[..n * k], n, k),
            PanelMut::new(&mut py[..n * k], n, k),
        );
        // Phase 2 (per lane): v = A·y, α, the intermediate residual s
        // and its early convergence check.
        for c in 0..k {
            if !cols.is_active(c) {
                continue;
            }
            let rc = c * n..(c + 1) * n;
            a.spmv_col(c, &py[rc.clone()], &mut pq[rc.clone()]);
            let alpha = col_rho[c] / a.dot(&prhat[rc.clone()], &pq[rc.clone()], block_sums);
            col_alpha[c] = alpha;
            // s = r - alpha v  (reuse r)
            a.zip(&mut pr[rc.clone()], &pq[rc.clone()], |r, q| r + -alpha * q);
            let s_norm = norm2(a, &pr[rc.clone()], block_sums).to_f64() / col_bnorm[c];
            col_relres[c] = s_norm;
            if s_norm < opts.tol {
                a.zip(x.col_mut(c), &py[rc], |x, y| x + alpha * y);
                cols.record(c, s_norm);
                cols.retire(c, SolverStatus::Converged, it, s_norm);
            } else if !s_norm.is_finite() {
                // α turned non-finite (r̂ᵀv collapse) or hostile values
                // poisoned s: halt before the stabilization half-step
                // touches x with NaNs.
                cols.retire(c, SolverStatus::NumericalBreakdown, it, s_norm);
            }
        }
        if !cols.any_active() {
            break;
        }
        // z = M⁻¹ s: the second shared panel apply of the step.
        m.apply_panel_with(
            precond,
            Panel::new(&pr[..n * k], n, k),
            PanelMut::new(&mut pz[..n * k], n, k),
        );
        // Phase 3 (per lane): the stabilization half-step.
        for c in 0..k {
            if !cols.is_active(c) {
                continue;
            }
            let rc = c * n..(c + 1) * n;
            a.spmv_col(c, &pz[rc.clone()], &mut pt[rc.clone()]);
            let tt = a.dot(&pt[rc.clone()], &pt[rc.clone()], block_sums);
            if tt == T::ZERO || !tt.is_finite() {
                cols.retire(c, SolverStatus::NumericalBreakdown, it, col_relres[c]);
                continue;
            }
            let omega = a.dot(&pt[rc.clone()], &pr[rc.clone()], block_sums) / tt;
            col_omega[c] = omega;
            let alpha = col_alpha[c];
            // x += alpha y + omega z
            a.zip(x.col_mut(c), &py[rc.clone()], |x, y| x + alpha * y);
            a.zip(x.col_mut(c), &pz[rc.clone()], |x, z| x + omega * z);
            // r = s - omega t
            a.zip(&mut pr[rc.clone()], &pt[rc.clone()], |r, t| r + -omega * t);
            col_relres[c] = norm2(a, &pr[rc], block_sums).to_f64() / col_bnorm[c];
            cols.record(c, col_relres[c]);
            if col_relres[c] < opts.tol {
                cols.retire(c, SolverStatus::Converged, it, col_relres[c]);
            } else if col_omega[c] == T::ZERO || !col_relres[c].is_finite() {
                cols.retire(c, SolverStatus::NumericalBreakdown, it, col_relres[c]);
            }
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
    use javelin_sparse::CooMatrix;
    use javelin_sparse::CsrMatrix;
    use javelin_synth::grid::convection_diffusion_2d;
    use javelin_synth::util::rhs_panel;

    /// A `k`-column BiCGSTAB solve from `x`, in the caller's workspace.
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
        krylov_panel_with(Method::Bicgstab, a, b, x, m, opts, ws)
    }

    /// One right-hand side in a fresh workspace.
    fn solve_one(
        a: &CsrMatrix<f64>,
        b: &[f64],
        x: &mut [f64],
        m: &impl Preconditioner<f64>,
        opts: &SolverOptions,
    ) -> SolverResult {
        krylov_with(
            Method::Bicgstab,
            a,
            b,
            x,
            m,
            opts,
            &mut SolverWorkspace::new(),
        )
    }

    fn assert_columns_bitwise(
        a: &CsrMatrix<f64>,
        b: &[f64],
        k: usize,
        batch_x: &[f64],
        batch_res: &[SolverResult],
        m: &impl Preconditioner<f64>,
        opts: &SolverOptions,
    ) {
        let n = a.nrows();
        for c in 0..k {
            let mut x = vec![0.0; n];
            let r = solve_one(a, &b[c * n..(c + 1) * n], &mut x, m, opts);
            assert_eq!(batch_res[c].converged, r.converged, "col {c}");
            assert_eq!(batch_res[c].iterations, r.iterations, "col {c}");
            assert_eq!(
                batch_res[c].relative_residual.to_bits(),
                r.relative_residual.to_bits(),
                "col {c}"
            );
            assert_eq!(batch_res[c].history.len(), r.history.len(), "col {c}");
            let bb: Vec<u64> = batch_x[c * n..(c + 1) * n]
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let sb: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bb, sb, "col {c}");
        }
    }

    #[test]
    fn batch_is_bitwise_identical_to_independent_bicgstab() {
        // The defining contract on a genuinely nonsymmetric operator.
        let a = convection_diffusion_2d(13, 11, 0.4, 0.2);
        let n = a.nrows();
        let f = factorize(&a, &IluOptions::ilu0(2)).unwrap();
        let opts = SolverOptions::default();
        for k in [1usize, 3, 8] {
            let b = rhs_panel(n, k, 11);
            let mut xb = vec![0.0; n * k];
            let results = panel_solve(&a, &b, &mut xb, &f, &opts, &mut SolverWorkspace::new());
            assert!(results.iter().all(|r| r.converged), "k={k}");
            assert_columns_bitwise(&a, &b, k, &xb, &results, &f, &opts);
        }
    }

    #[test]
    fn masking_freezes_converged_columns_independently() {
        let a = convection_diffusion_2d(14, 14, 0.5, 0.1);
        let n = a.nrows();
        let f = factorize(&a, &IluOptions::default()).unwrap();
        let opts = SolverOptions::default();
        let mut b = vec![0.0; n * 2];
        // Easy column: the RHS of a constant solution (the smooth mode
        // ILU resolves almost immediately); hard column: rough data.
        let ones = vec![1.0; n];
        b[..n].copy_from_slice(&a.spmv(&ones));
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
        assert_columns_bitwise(&a, &b, 2, &x, &res, &f, &opts);
    }

    /// A matrix whose leading 2×2 block is exactly skew-symmetric (a
    /// guaranteed ρ-chain breakdown for BiCGSTAB with x₀ = 0 and a RHS
    /// supported on that block) glued to a well-behaved nonsymmetric
    /// block. Column 0 of the panel must break down mid-iteration
    /// without perturbing a single bit of the other columns' iterates.
    fn skew_plus_dominant(m: usize) -> CsrMatrix<f64> {
        let n = 2 + m;
        let mut coo = CooMatrix::new(n, n);
        coo.push(0, 1, 2.0).unwrap();
        coo.push(1, 0, -2.0).unwrap();
        for i in 0..m {
            let r = 2 + i;
            coo.push(r, r, 5.0).unwrap();
            if i + 1 < m {
                coo.push(r, r + 1, -1.3).unwrap();
                coo.push(r + 1, r, -0.7).unwrap();
            }
        }
        coo.to_csr()
    }

    #[test]
    fn rho_breakdown_masks_one_column_without_perturbing_the_rest() {
        let m = 40;
        let a = skew_plus_dominant(m);
        let n = a.nrows();
        let k = 3;
        let mut b = vec![0.0; n * k];
        // Column 0 lives on the skew block: scalar BiCGSTAB breaks down.
        b[0] = 1.0;
        b[1] = -0.5;
        // Columns 1..k live on the dominant block and converge.
        for c in 1..k {
            for i in 0..m {
                b[c * n + 2 + i] = ((i * 7 + c) % 13) as f64 * 0.3 - 1.7;
            }
        }
        let opts = SolverOptions::default();
        // Prove the breakdown really happens at width 1.
        let mut x0 = vec![0.0; n];
        let scalar0 = solve_one(&a, &b[..n], &mut x0, &IdentityPrecond, &opts);
        assert!(!scalar0.converged, "column 0 must break down");
        assert!(
            scalar0.iterations < opts.max_iters,
            "breakdown, not cap: {}",
            scalar0.iterations
        );
        // The batch masks column 0 at the same point, bit for bit, and
        // the surviving columns match their scalar runs bit for bit.
        let mut xb = vec![0.0; n * k];
        let res = panel_solve(
            &a,
            &b,
            &mut xb,
            &IdentityPrecond,
            &opts,
            &mut SolverWorkspace::new(),
        );
        assert!(!res[0].converged);
        assert!(res[1].converged && res[2].converged);
        assert_columns_bitwise(&a, &b, k, &xb, &res, &IdentityPrecond, &opts);
    }

    #[test]
    fn zero_rhs_columns_are_trivially_converged() {
        let a = convection_diffusion_2d(6, 6, 0.3, 0.3);
        let n = a.nrows();
        let f = factorize(&a, &IluOptions::default()).unwrap();
        let mut b = vec![0.0; n * 3];
        for i in 0..n {
            b[n + i] = 1.0; // only the middle column is nontrivial
        }
        let mut x = vec![5.0; n * 3];
        let res = panel_solve(
            &a,
            &b,
            &mut x,
            &f,
            &SolverOptions::default(),
            &mut SolverWorkspace::new(),
        );
        assert!(res[0].converged && res[0].iterations == 0);
        assert!(res[2].converged && res[2].iterations == 0);
        assert!(x[..n].iter().all(|&v| v == 0.0));
        assert!(x[2 * n..].iter().all(|&v| v == 0.0));
        assert!(res[1].converged && res[1].iterations > 0);
    }

    #[test]
    fn workspace_reuse_across_widths_is_bitwise_stable() {
        let a = convection_diffusion_2d(10, 9, 0.2, 0.4);
        let n = a.nrows();
        let f = factorize(&a, &IluOptions::ilu0(2)).unwrap();
        let opts = SolverOptions::default();
        let b3 = rhs_panel(n, 3, 5);
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
        let a = convection_diffusion_2d(16, 16, 0.6, 0.2);
        let n = a.nrows();
        let b = rhs_panel(n, 2, 3);
        let opts = SolverOptions {
            max_iters: 2,
            tol: 1e-15,
            record_history: true,
            ..Default::default()
        };
        let mut x = vec![0.0; n * 2];
        let res = panel_solve(
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            &opts,
            &mut SolverWorkspace::new(),
        );
        for r in &res {
            assert!(!r.converged);
            assert_eq!(r.iterations, 2);
            assert_eq!(r.history.len(), 3); // initial + 2 full steps
        }
        assert_columns_bitwise(&a, &b, 2, &x, &res, &IdentityPrecond, &opts);
    }

    fn nonsym(n: usize) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 5.0).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, -1.3).unwrap();
                coo.push(i + 1, i, -0.7).unwrap();
            }
            if i + 4 < n {
                coo.push(i, i + 4, -0.4).unwrap();
                coo.push(i + 4, i, -0.9).unwrap();
            }
        }
        coo.to_csr()
    }

    #[test]
    fn converges_with_true_residual() {
        let a = nonsym(150);
        let x_true: Vec<f64> = (0..150).map(|i| (i as f64 * 0.11).sin()).collect();
        let b = a.spmv(&x_true);
        let mut x = vec![0.0; 150];
        let res = solve_one(&a, &b, &mut x, &IdentityPrecond, &SolverOptions::default());
        assert!(res.converged, "relres = {}", res.relative_residual);
        let ax = a.spmv(&x);
        let err: f64 = b
            .iter()
            .zip(ax.iter())
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(err / bn < 1e-5);
    }

    #[test]
    fn preconditioning_helps() {
        let a = nonsym(300);
        let b = vec![1.0; 300];
        let plain = {
            let mut x = vec![0.0; 300];
            solve_one(&a, &b, &mut x, &IdentityPrecond, &SolverOptions::default())
        };
        let f = factorize(&a, &IluOptions::default()).unwrap();
        let pre = {
            let mut x = vec![0.0; 300];
            solve_one(&a, &b, &mut x, &f, &SolverOptions::default())
        };
        assert!(plain.converged && pre.converged);
        assert!(pre.iterations <= plain.iterations);
    }

    #[test]
    fn zero_rhs_trivial() {
        let a = nonsym(20);
        let b = vec![0.0; 20];
        let mut x = vec![1.0; 20];
        let res = solve_one(&a, &b, &mut x, &IdentityPrecond, &SolverOptions::default());
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn cap_respected() {
        let a = nonsym(200);
        let b = vec![1.0; 200];
        let mut x = vec![0.0; 200];
        let opts = SolverOptions {
            max_iters: 2,
            tol: 1e-15,
            ..Default::default()
        };
        let res = solve_one(&a, &b, &mut x, &IdentityPrecond, &opts);
        assert!(!res.converged);
        assert!(res.iterations <= 2);
    }
    // ---- Golden pin -------------------------------------------------
    // Recorded from the BiCGSTAB driver at the commit before it lost its
    // lane generic; see `crate::golden` for the tuple.
    use crate::golden::{self, Golden};

    fn golden_run(fixture: usize) -> Golden {
        use javelin_synth::grid::convection_diffusion_2d as cd;
        let hist = SolverOptions {
            record_history: true,
            ..Default::default()
        };
        match fixture {
            // ILU(0) on a nonsymmetric operator, history on.
            0 => {
                let a = cd(13, 11, 0.4, 0.2);
                let f = factorize(&a, &IluOptions::ilu0(1)).unwrap();
                golden::run(Method::Bicgstab, &a, &golden::rhs(a.nrows()), 0.0, &f, hist)
            }
            // ILU(1) on two threads, tight tolerance.
            1 => {
                let a = cd(14, 9, 0.2, 0.5);
                let f = factorize(&a, &IluOptions::ilu0(2).with_fill(1)).unwrap();
                let opts = SolverOptions { tol: 1e-12, ..hist };
                golden::run(Method::Bicgstab, &a, &golden::rhs(a.nrows()), 0.0, &f, opts)
            }
            // Unpreconditioned from a warm start.
            2 => {
                let a = cd(12, 12, 0.6, 0.3);
                let b = golden::rhs(a.nrows());
                golden::run(Method::Bicgstab, &a, &b, 0.5, &IdentityPrecond, hist)
            }
            // Iteration cap.
            3 => {
                let a = cd(16, 16, 0.6, 0.2);
                let opts = SolverOptions {
                    max_iters: 2,
                    tol: 1e-15,
                    ..hist
                };
                let b = golden::rhs(a.nrows());
                golden::run(Method::Bicgstab, &a, &b, 0.0, &IdentityPrecond, opts)
            }
            // Zero right-hand side: x is overwritten with zeros.
            4 => {
                let a = cd(4, 4, 0.3, 0.3);
                golden::run(
                    Method::Bicgstab,
                    &a,
                    &[0.0; 16],
                    3.0,
                    &IdentityPrecond,
                    hist,
                )
            }
            // NaN right-hand side: frozen at the initial guess.
            5 => {
                let a = cd(5, 4, 0.3, 0.3);
                let mut b = golden::rhs(a.nrows());
                b[7] = f64::NAN;
                golden::run(Method::Bicgstab, &a, &b, 0.25, &IdentityPrecond, hist)
            }
            // ρ-breakdown on an exactly skew-symmetric 2×2 block.
            6 => {
                let mut coo = CooMatrix::new(2, 2);
                coo.push(0, 1, 2.0).unwrap();
                coo.push(1, 0, -2.0).unwrap();
                let a = coo.to_csr();
                golden::run(
                    Method::Bicgstab,
                    &a,
                    &[1.0, -0.5],
                    0.0,
                    &IdentityPrecond,
                    hist,
                )
            }
            _ => unreachable!(),
        }
    }

    const GOLDEN: [Golden; 7] = [
        // 0: ILU(0)
        (
            9,
            SolverStatus::Converged,
            0x3e86dcf5fbc81959,
            10,
            0x723c0d89f9767632,
        ),
        // 1: ILU(1), two threads, tol 1e-12
        (
            8,
            SolverStatus::Converged,
            0x3d714d5acea34f55,
            9,
            0x451ea17ec1106aa2,
        ),
        // 2: identity, warm start
        (
            25,
            SolverStatus::Converged,
            0x3ea1edec0c4ff0e0,
            26,
            0x85b7d4dc37178aa7,
        ),
        // 3: cap
        (
            2,
            SolverStatus::MaxIters,
            0x3fac204cf26d1852,
            3,
            0xaaeaff68307c15d9,
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
        // 6: skew block breakdown
        (
            1,
            SolverStatus::NumericalBreakdown,
            0x7ff0000000000000,
            1,
            0x88201fb960ff6465,
        ),
    ];

    #[test]
    fn bicgstab_reproduces_the_recorded_bits() {
        for (fixture, want) in GOLDEN.iter().enumerate() {
            assert_eq!(golden_run(fixture), *want, "bicgstab fixture {fixture}");
        }
    }
}
