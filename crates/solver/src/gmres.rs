//! Restarted GMRES with right preconditioning, and its flexible mode
//! FGMRES: `k` independent nonsymmetric systems driven through one RHS
//! panel, one restart cycle at a time ([`crate::Method::Gmres`],
//! [`crate::Method::Fgmres`]).
//!
//! The driver extends PCG's lockstep-masking pattern (`crate::pcg`) to
//! restarted GMRES. Because a GMRES run only ever leaves its restart
//! cycle at a convergence, breakdown or iteration-cap boundary, every
//! still-active column of a panel sits at **the same inner step `j` of
//! the same cycle** — so the dominant per-step cost, the preconditioner
//! application `z = M⁻¹·vⱼ`, can be one shared
//! [`javelin_core::Preconditioner::apply_panel_with`] call over the
//! stacked Arnoldi slot `j`, while the Hessenberg, Givens and
//! least-squares state stay strictly per column. Column `c` of the
//! panel is **bit-identical** to a width-1 run on that column: same
//! iterates, same iteration counts, same residual histories.
//!
//! ## Masking at restart boundaries
//!
//! A column that converges (or exhausts its iteration cap) mid-cycle
//! finalizes immediately — back-substitution, one single-column
//! correction apply `x += M⁻¹(V·y)`, exactly where a standalone solve
//! of that column stops — and then *freezes in its panel slot*: later
//! shared applies simply carry its stale basis column along without
//! reading the result. A column that hits the happy-breakdown case
//! (`h_{j+1,j} = 0` with the residual still above tolerance) finalizes
//! its cycle the same way and then *pauses* until the panel's next
//! restart boundary, where it re-enters with a fresh residual — the
//! arithmetic of an immediate restart, deferred to the shared boundary
//! so the panel applies keep a single shape. That wait is the
//! `Pending` lane of the drivers' one column frame (`crate::columns`);
//! a leaving column's status follows from its residual estimate.
//!
//! ## One Arnoldi process: plain and flexible
//!
//! The driver below is the only Arnoldi / Givens / back-substitution
//! loop in the crate, and FGMRES is its `flexible` mode, which differs
//! in two places only: step `j`'s shared apply keeps `zⱼ = M⁻¹vⱼ` in a
//! stacked slot instead of a transient panel, and a column leaving its
//! cycle updates `x += Z·y` with no trailing apply. FGMRES panels
//! therefore run in the same lockstep as GMRES panels.
//!
//! ## Allocation discipline
//!
//! The stacked basis (up to `restart` panels of `n × k`, as many more
//! for FGMRES) and all per-column small state live in the caller's
//! [`SolverWorkspace`], grow-only. The slots grow with the deepest
//! cycle: `ensure_gmres` sizes `v_0` and the small arrays, and the
//! driver grows slot `j + 1` of `V` just before the first column
//! writes `v_{j+1}`, and slot `j` of `Z` just before step `j`'s shared
//! apply. A column that fills its cycle leaves it without writing
//! `v_restart`, which nothing would read. So a solve allocates only
//! when it runs a cycle deeper than any earlier solve on the
//! workspace, and once the deepest solve has run the panel runs with
//! zero steady-state heap allocations, with opt-in residual histories
//! as the documented exception.
//! [`SolverWorkspace::reserve_gmres_basis`] warms the whole cycle for
//! an allocation-free first solve.

use crate::columns::{self, Columns, Lane};
use crate::workspace::ensure_slots;
use crate::{norm2, PanelMatrices, SolverOptions, SolverResult, SolverStatus, SolverWorkspace};
use javelin_core::precond::Preconditioner;
use javelin_sparse::{Panel, PanelMut, Scalar};

/// The restart length the driver runs for `restart` on an `n`-row
/// system: at least 1, at most `n`.
pub(crate) fn cycle_len(restart: usize, n: usize) -> usize {
    restart.max(1).min(n.max(1))
}

/// The lockstep-restart Arnoldi driver behind
/// [`crate::krylov_panel_into`] — the only Arnoldi / Givens /
/// back-substitution loop in the crate.
///
/// `flexible` selects FGMRES, which differs in exactly two places: the
/// shared apply of step `j` stores `zⱼ = M⁻¹vⱼ` in the stacked slot
/// `z_basis[j]` instead of the transient `pz` panel, and a column
/// leaving its cycle updates `x += Z·y` instead of `x += M⁻¹(V·y)`.
///
/// # Panics
/// On panel shape mismatches or when `results.len() != b.ncols()`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve<T: Scalar, A: PanelMatrices<T>, P: Preconditioner<T>>(
    flexible: bool,
    a: &A,
    b: Panel<'_, T>,
    mut x: PanelMut<'_, T>,
    m: &P,
    opts: &SolverOptions,
    ws: &mut SolverWorkspace<T>,
    results: &mut [SolverResult],
) {
    let n = a.nrows();
    let k = columns::panel_width("gmres", n, &b, &x, results);
    if k == 0 {
        return;
    }
    let restart = cycle_len(opts.restart, n);
    ws.ensure_gmres(n, k, restart);
    let SolverWorkspace {
        precond,
        pz,
        pq,
        pu,
        v_basis,
        z_basis,
        ph,
        pcs,
        psn,
        pg,
        pyk,
        block_sums,
        col_bnorm,
        col_relres,
        lanes,
        col_iters,
        ..
    } = ws;
    let mut cols = Columns::open(lanes, results, opts);
    let nk = n * k;
    // Per-column strides into the flat small-state arrays.
    let hs = (restart + 1) * restart;
    let gs = restart + 1;

    // ---- Per-column setup. ------------------------------------------
    for c in 0..k {
        col_bnorm[c] = norm2(a, b.col(c), block_sums).to_f64();
        col_iters[c] = 0;
        if cols.start(c, col_bnorm[c], &mut x) {
            cols.set(c, Lane::Pending);
            continue;
        }
        // The column never enters a cycle; zero its part of every slot
        // there is, so the shared applies carry finite data along (a
        // slot grown later in this solve arrives zero-filled).
        for slot in v_basis.iter_mut().take(restart) {
            let end = slot.len().min((c + 1) * n);
            if let Some(col) = slot.get_mut(c * n..end) {
                col.fill(T::ZERO);
            }
        }
    }

    // ---- Lockstep restart cycles. -----------------------------------
    loop {
        // Cycle start: every pending column computes its true residual
        // and either finishes or (re-)enters the shared cycle.
        for c in 0..k {
            if cols.lane(c) != Lane::Pending {
                continue;
            }
            let rc = c * n..(c + 1) * n;
            // r = b - A x (into u).
            let u = &mut pu[rc.clone()];
            a.spmv_col(c, x.col(c), u);
            a.zip(u, b.col(c), |ax, b| b - ax);
            let beta = norm2(a, u, block_sums);
            col_relres[c] = beta.to_f64() / col_bnorm[c];
            if col_iters[c] == 0 {
                // The first cycle start records the initial residual.
                cols.record(c, col_relres[c]);
            }
            // Converged, out of iterations, or the per-restart guard:
            // the true residual turned NaN/∞ (poisoned preconditioner
            // or matrix values) — freeze the column instead of spinning
            // every remaining cycle on NaNs.
            if !col_relres[c].is_finite()
                || col_relres[c] < opts.tol
                || col_iters[c] >= opts.max_iters
            {
                retire(&mut cols, c, col_iters[c], col_relres[c], opts);
                continue;
            }
            // v₀ = r / β; reset the rotated RHS g.
            let v0 = &mut v_basis[0][rc];
            a.zip(v0, u, |_, u| u);
            let inv = T::ONE / beta;
            a.map(v0, |v| v * inv);
            let g = &mut pg[c * gs..(c + 1) * gs];
            g.fill(T::ZERO);
            g[0] = beta;
            cols.set(c, Lane::Active);
        }
        if !cols.any_active() {
            break; // every column is retired
        }

        // Inner Arnoldi steps, in lockstep across the panel.
        for j in 0..restart {
            if !cols.any_active() {
                break;
            }
            // zⱼ = M⁻¹ vⱼ: ONE panel apply over the stacked basis slot j
            // serves every active column; masked columns carry stale
            // (finite-or-not, column-independent) data along.
            let zj = if flexible {
                ensure_slots(z_basis, j + 1, nk);
                &mut z_basis[j]
            } else {
                &mut *pz
            };
            m.apply_panel_with(
                precond,
                Panel::new(&v_basis[j][..nk], n, k),
                PanelMut::new(&mut zj[..nk], n, k),
            );
            for c in 0..k {
                if !cols.is_active(c) {
                    continue;
                }
                col_iters[c] += 1;
                let rc = c * n..(c + 1) * n;
                let h = &mut ph[c * hs..(c + 1) * hs];
                let cs = &mut pcs[c * restart..(c + 1) * restart];
                let sn = &mut psn[c * restart..(c + 1) * restart];
                let g = &mut pg[c * gs..(c + 1) * gs];
                // w = A zⱼ (w lives in this column's pq slot).
                let zc = if flexible { &z_basis[j] } else { &*pz };
                let w = &mut pq[rc.clone()];
                a.spmv_col(c, &zc[rc.clone()], w);
                // Modified Gram–Schmidt against this column's basis.
                for i in 0..=j {
                    let vi = &v_basis[i][rc.clone()];
                    let hij = a.dot(w, vi, block_sums);
                    h[i * restart + j] = hij;
                    a.zip(w, vi, |w, v| w + -hij * v);
                }
                let hjp = norm2(a, w, block_sums);
                h[(j + 1) * restart + j] = hjp;
                // Apply existing Givens rotations to the new column.
                for i in 0..j {
                    let hi = h[i * restart + j];
                    let hi1 = h[(i + 1) * restart + j];
                    h[i * restart + j] = cs[i] * hi + sn[i] * hi1;
                    h[(i + 1) * restart + j] = -sn[i] * hi + cs[i] * hi1;
                }
                // New rotation to kill h[j+1, j].
                let hjj = h[j * restart + j];
                let denom = (hjj * hjj + hjp * hjp).sqrt();
                let (cj, sj) = if denom == T::ZERO {
                    (T::ONE, T::ZERO)
                } else {
                    (hjj / denom, hjp / denom)
                };
                cs[j] = cj;
                sn[j] = sj;
                h[j * restart + j] = cj * hjj + sj * hjp;
                h[(j + 1) * restart + j] = T::ZERO;
                g[j + 1] = -sj * g[j];
                g[j] = cj * g[j];
                col_relres[c] = g[j + 1].abs().to_f64() / col_bnorm[c];
                cols.record(c, col_relres[c]);
                // The column stays in the cycle unless it converged,
                // broke down happily (h_{j+1,j} = 0: the Krylov space
                // closed), ran out of iterations, or the cycle is full
                // (the next cycle starts from the true residual, so
                // v_restart would never be read).
                let capped = col_iters[c] >= opts.max_iters;
                if !(col_relres[c] < opts.tol || hjp == T::ZERO || capped) && j + 1 < restart {
                    // v_{j+1} = w / h_{j+1,j}, in a slot grown on the
                    // first step that reaches it.
                    ensure_slots(v_basis, j + 2, nk);
                    let vnext = &mut v_basis[j + 1][rc.clone()];
                    a.zip(vnext, w, |_, w| w);
                    let inv = T::ONE / hjp;
                    a.map(vnext, |v| v * inv);
                    continue;
                }
                // Leaving the cycle, exactly where this column's
                // standalone recurrence does: back-substitute y from the
                // triangularized Hessenberg and correct x.
                let yk = &mut pyk[c * restart..(c + 1) * restart];
                for i in (0..=j).rev() {
                    let mut s = g[i];
                    for kk in (i + 1)..=j {
                        s -= h[i * restart + kk] * yk[kk];
                    }
                    yk[i] = s / h[i * restart + i];
                }
                if flexible {
                    // x += Z y — Z already holds the preconditioned
                    // directions (the "flexible" difference).
                    for (kk, &y) in yk[..=j].iter().enumerate() {
                        a.zip(x.col_mut(c), &z_basis[kk][rc.clone()], |x, z| x + y * z);
                    }
                } else {
                    // x += M⁻¹ (V y): one single-column apply into
                    // this column's pz slot.
                    let u = &mut pu[rc.clone()];
                    a.map(u, |_| T::ZERO);
                    for (kk, &y) in yk[..=j].iter().enumerate() {
                        a.zip(u, &v_basis[kk][rc.clone()], |u, v| u + y * v);
                    }
                    let z = &mut pz[rc];
                    m.apply_column_with(precond, c, u, z);
                    a.zip(x.col_mut(c), z, |x, z| x + z);
                }
                if col_relres[c] < opts.tol || capped {
                    retire(&mut cols, c, col_iters[c], col_relres[c], opts);
                } else {
                    // Re-enter at the panel's next restart boundary,
                    // where the cycle-start residual check decides: an
                    // immediate restart, deferred to the shared
                    // boundary so the applies keep one shape.
                    cols.set(c, Lane::Pending);
                }
            }
        }
    }
}

/// Retires column `c` with the status its last residual estimate
/// implies: below tolerance → converged; non-finite → breakdown;
/// otherwise the iteration cap ran out.
fn retire(cols: &mut Columns<'_>, c: usize, iterations: usize, relres: f64, opts: &SolverOptions) {
    let status = if relres < opts.tol {
        SolverStatus::Converged
    } else if relres.is_finite() {
        SolverStatus::MaxIters
    } else {
        SolverStatus::NumericalBreakdown
    };
    cols.retire(c, status, iterations, relres);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{krylov_panel_with, krylov_with, Method, ScenarioMatrices};
    use javelin_core::precond::IdentityPrecond;
    use javelin_core::{factorize, IluFactors, IluOptions, SolveEngine, SymbolicIlu};
    use javelin_sparse::{CooMatrix, CsrMatrix};
    use javelin_synth::grid::convection_diffusion_2d;
    use javelin_synth::util::{revalue, rhs_panel};
    use parking_lot::Mutex;

    /// Both flavours of the one core: every lockstep test below runs
    /// GMRES and FGMRES through the same assertions.
    const FLAVOURS: [Method; 2] = [Method::Gmres, Method::Fgmres];

    fn panel_solve(
        method: Method,
        a: &impl PanelMatrices<f64>,
        b: &[f64],
        k: usize,
        m: &impl Preconditioner<f64>,
        opts: &SolverOptions,
    ) -> (Vec<f64>, Vec<SolverResult>) {
        let n = a.nrows();
        let mut x = vec![0.0; n * k];
        let results = krylov_panel_with(
            method,
            a,
            Panel::new(b, n, k),
            PanelMut::new(&mut x, n, k),
            m,
            opts,
            &mut SolverWorkspace::new(),
        );
        (x, results)
    }

    /// One right-hand side in a fresh workspace.
    fn solve_one(
        method: Method,
        a: &CsrMatrix<f64>,
        b: &[f64],
        x: &mut [f64],
        m: &impl Preconditioner<f64>,
        opts: &SolverOptions,
    ) -> SolverResult {
        krylov_with(method, a, b, x, m, opts, &mut SolverWorkspace::new())
    }

    /// Column `c` of the panel solve ≡ the width-1 solve of column `c`
    /// (`a(c)` / `m(c)` name that column's operator and preconditioner).
    fn assert_column_bitwise(
        method: Method,
        c: usize,
        a: &CsrMatrix<f64>,
        b: &[f64],
        (batch_x, batch_res): &(Vec<f64>, Vec<SolverResult>),
        m: &impl Preconditioner<f64>,
        opts: &SolverOptions,
    ) {
        let n = a.nrows();
        let mut x = vec![0.0; n];
        let bc = &b[c * n..(c + 1) * n];
        let r = krylov_with(method, a, bc, &mut x, m, opts, &mut SolverWorkspace::new());
        let br = &batch_res[c];
        assert_eq!(br.converged, r.converged, "{method} col {c}");
        assert_eq!(br.status, r.status, "{method} col {c}");
        assert_eq!(br.iterations, r.iterations, "{method} col {c}");
        assert_eq!(
            br.relative_residual.to_bits(),
            r.relative_residual.to_bits(),
            "{method} col {c}"
        );
        assert_eq!(br.history, r.history, "{method} col {c}");
        let bb: Vec<u64> = batch_x[c * n..(c + 1) * n]
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let sb: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bb, sb, "{method} col {c}");
    }

    fn assert_columns_bitwise(
        method: Method,
        a: &CsrMatrix<f64>,
        b: &[f64],
        k: usize,
        batch: &(Vec<f64>, Vec<SolverResult>),
        m: &impl Preconditioner<f64>,
        opts: &SolverOptions,
    ) {
        for c in 0..k {
            assert_column_bitwise(method, c, a, b, batch, m, opts);
        }
    }

    #[test]
    fn batch_is_bitwise_identical_to_independent_scalar_runs() {
        let a = convection_diffusion_2d(13, 11, 0.4, 0.2);
        let n = a.nrows();
        let f = factorize(&a, &IluOptions::ilu0(2)).unwrap();
        let opts = SolverOptions::default();
        for method in FLAVOURS {
            for k in [1usize, 3, 4, 8] {
                let b = rhs_panel(n, k, 23);
                let batch = panel_solve(method, &a, &b, k, &f, &opts);
                assert!(batch.1.iter().all(|r| r.converged), "{method} k={k}");
                assert_columns_bitwise(method, &a, &b, k, &batch, &f, &opts);
            }
        }
    }

    #[test]
    fn lockstep_restarts_preserve_bitwise_identity() {
        // A short restart length forces several full cycles per column
        // — the lockstep-restart boundary is where block GMRES variants
        // usually diverge from the scalar recurrence, so pin it with an
        // unpreconditioned run (many cycles) and histories on.
        let a = convection_diffusion_2d(12, 12, 0.6, 0.3);
        let n = a.nrows();
        let opts = SolverOptions {
            restart: 7,
            record_history: true,
            ..Default::default()
        };
        for method in FLAVOURS {
            for k in [2usize, 5, 8] {
                let b = rhs_panel(n, k, 31);
                let batch = panel_solve(method, &a, &b, k, &IdentityPrecond, &opts);
                assert!(batch.1.iter().all(|r| r.converged), "{method} k={k}");
                assert!(
                    batch.1.iter().any(|r| r.iterations > 7),
                    "{method} k={k}: want at least one column past the first restart"
                );
                assert_columns_bitwise(method, &a, &b, k, &batch, &IdentityPrecond, &opts);
            }
        }
    }

    #[test]
    fn scenario_columns_iterate_on_their_own_operator_and_factors() {
        // One matrix and one preconditioner per column: every
        // single-column apply of the core (the GMRES correction) must
        // dispatch on the column too.
        let base = convection_diffusion_2d(9, 8, 0.4, 0.2);
        let n = base.nrows();
        let k = 4;
        let mats: Vec<_> = (0..k)
            .map(|c| revalue(&base, 0.1 + c as f64, 0.05))
            .collect();
        let refs: Vec<_> = mats.iter().collect();
        let sym = SymbolicIlu::analyze(&base, &IluOptions::ilu0(1)).unwrap();
        let factors = sym.factor_batch(&refs).unwrap();
        let m = factors.precond(SolveEngine::Serial);
        let opts = SolverOptions {
            restart: 5,
            ..Default::default()
        };
        let b = rhs_panel(n, k, 41);
        for method in FLAVOURS {
            let batch = panel_solve(method, &ScenarioMatrices(&refs), &b, k, &m, &opts);
            assert!(batch.1.iter().all(|r| r.converged), "{method}");
            for c in 0..k {
                let fc = factors.to_factors(c);
                let fc = fc.with_engine(SolveEngine::Serial);
                assert_column_bitwise(method, c, &mats[c], &b, &batch, &fc, &opts);
            }
        }
    }

    #[test]
    fn masking_freezes_converged_columns_independently() {
        let a = convection_diffusion_2d(14, 14, 0.5, 0.1);
        let n = a.nrows();
        let f = factorize(&a, &IluOptions::default()).unwrap();
        let opts = SolverOptions::default();
        let mut b = vec![0.0; n * 2];
        b[0] = 1e-3; // nearly-aligned easy column
        for i in 0..n {
            b[n + i] = ((i * 17 % 31) as f64 - 15.0) * 0.4;
        }
        for method in FLAVOURS {
            let batch = panel_solve(method, &a, &b, 2, &f, &opts);
            let res = &batch.1;
            assert!(res[0].converged && res[1].converged);
            assert!(
                res[0].iterations <= res[1].iterations,
                "{method}: easy column {} vs hard column {}",
                res[0].iterations,
                res[1].iterations
            );
            assert_columns_bitwise(method, &a, &b, 2, &batch, &f, &opts);
        }
    }

    #[test]
    fn zero_and_nan_rhs_columns_freeze_without_touching_their_neighbours() {
        let a = convection_diffusion_2d(6, 6, 0.3, 0.3);
        let n = a.nrows();
        let f = factorize(&a, &IluOptions::default()).unwrap();
        let opts = SolverOptions::default();
        // Columns: zero, healthy, NaN, healthy.
        let mut b = vec![0.0; n * 4];
        for i in 0..n {
            b[n + i] = 1.0;
            b[2 * n + i] = 0.5;
            b[3 * n + i] = ((i * 7 % 11) as f64) - 5.0;
        }
        b[2 * n + 4] = f64::NAN;
        for method in FLAVOURS {
            // The frozen columns start from a visible guess; the healthy
            // ones from zero, like the scalar reference runs.
            let mut x = vec![0.0; n * 4];
            x[..n].fill(5.0);
            x[2 * n..3 * n].fill(5.0);
            let res = krylov_panel_with(
                method,
                &a,
                Panel::new(&b, n, 4),
                PanelMut::new(&mut x, n, 4),
                &f,
                &opts,
                &mut SolverWorkspace::new(),
            );
            assert!(res[0].converged && res[0].iterations == 0, "{method}");
            assert!(x[..n].iter().all(|&v| v == 0.0), "{method}");
            assert_eq!(res[2].status, SolverStatus::NumericalBreakdown);
            assert_eq!(res[2].iterations, 0, "{method}");
            assert!(
                x[2 * n..3 * n].iter().all(|&v| v == 5.0),
                "{method}: a NaN column stays at its initial guess"
            );
            let batch = (x, res);
            for c in [1usize, 3] {
                assert!(batch.1[c].iterations > 0, "{method} col {c}");
                assert_column_bitwise(method, c, &a, &b, &batch, &f, &opts);
            }
        }
    }

    #[test]
    fn exact_preconditioner_converges_in_one_step_per_column() {
        // ILU with full fill = exact LU: every column needs ≤ 2 inner
        // steps, and the batch must agree with the scalar runs exactly.
        let a = convection_diffusion_2d(7, 7, 0.4, 0.2);
        let n = a.nrows();
        let f = factorize(&a, &IluOptions::default().with_fill(n)).unwrap();
        let opts = SolverOptions::default();
        let k = 4;
        let b = rhs_panel(n, k, 13);
        for method in FLAVOURS {
            let batch = panel_solve(method, &a, &b, k, &f, &opts);
            for r in &batch.1 {
                assert!(r.converged);
                assert!(r.iterations <= 2, "took {} iterations", r.iterations);
            }
            assert_columns_bitwise(method, &a, &b, k, &batch, &f, &opts);
        }
    }

    #[test]
    fn iteration_cap_matches_scalar_exactly() {
        let a = convection_diffusion_2d(14, 14, 0.6, 0.2);
        let n = a.nrows();
        let b = rhs_panel(n, 2, 3);
        let opts = SolverOptions {
            max_iters: 5,
            tol: 1e-14,
            restart: 3, // cap lands mid-cycle: 5 = 3 + 2
            record_history: true,
        };
        for method in FLAVOURS {
            let batch = panel_solve(method, &a, &b, 2, &IdentityPrecond, &opts);
            for r in &batch.1 {
                assert!(!r.converged);
                assert_eq!(r.iterations, 5);
            }
            assert_columns_bitwise(method, &a, &b, 2, &batch, &IdentityPrecond, &opts);
        }
    }

    #[test]
    fn happy_breakdown_pauses_one_column_until_the_shared_boundary() {
        // Column 0 closes its Krylov space exactly (b = β·e₄ on a
        // diagonal operator; reachable only with tol = 0) while column 1
        // keeps iterating: column 0 pauses to the next shared restart
        // boundary and re-enters there, bit for bit the scalar run.
        let n = 6;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 3.0 + i as f64).unwrap();
        }
        let a = coo.to_csr();
        let mut b = vec![0.0; 2 * n];
        b[4] = 0.9;
        for i in 0..n {
            b[n + i] = 1.0 + i as f64;
        }
        let opts = SolverOptions {
            tol: 0.0,
            max_iters: 2,
            restart: 4,
            record_history: true,
        };
        for method in FLAVOURS {
            let batch = panel_solve(method, &a, &b, 2, &IdentityPrecond, &opts);
            assert_eq!(batch.1[0].iterations, 2, "{method}");
            assert_columns_bitwise(method, &a, &b, 2, &batch, &IdentityPrecond, &opts);
        }
    }

    #[test]
    fn workspace_reuse_across_widths_is_bitwise_stable() {
        let a = convection_diffusion_2d(10, 9, 0.2, 0.4);
        let n = a.nrows();
        let f = factorize(&a, &IluOptions::ilu0(2)).unwrap();
        let opts = SolverOptions {
            restart: 9,
            ..Default::default()
        };
        let b3 = rhs_panel(n, 3, 5);
        let reference = {
            let mut x = vec![0.0; n * 3];
            krylov_panel_with(
                Method::Gmres,
                &a,
                Panel::new(&b3, n, 3),
                PanelMut::new(&mut x, n, 3),
                &f,
                &opts,
                &mut SolverWorkspace::new(),
            );
            x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        let mut ws = SolverWorkspace::new();
        for rep in 0..3 {
            let mut x = vec![0.0; n * 3];
            krylov_panel_with(
                Method::Gmres,
                &a,
                Panel::new(&b3, n, 3),
                PanelMut::new(&mut x, n, 3),
                &f,
                &opts,
                &mut ws,
            );
            let bits: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, reference, "rep {rep}");
            let mut x1 = vec![0.0; n];
            krylov_panel_with(
                Method::Gmres,
                &a,
                Panel::new(&b3[..n], n, 1),
                PanelMut::new(&mut x1, n, 1),
                &f,
                &opts,
                &mut ws,
            );
        }
    }

    fn convection(nx: usize, ny: usize) -> CsrMatrix<f64> {
        let n = nx * ny;
        let idx = |i: usize, j: usize| i * ny + j;
        let mut coo = CooMatrix::new(n, n);
        let (w1, w2) = (0.4, 0.2);
        for i in 0..nx {
            for j in 0..ny {
                let r = idx(i, j);
                coo.push(r, r, 4.0 + w1 + w2).unwrap();
                if i > 0 {
                    coo.push(r, idx(i - 1, j), -1.0 - w1).unwrap();
                }
                if i + 1 < nx {
                    coo.push(r, idx(i + 1, j), -1.0).unwrap();
                }
                if j > 0 {
                    coo.push(r, idx(i, j - 1), -1.0 - w2).unwrap();
                }
                if j + 1 < ny {
                    coo.push(r, idx(i, j + 1), -1.0).unwrap();
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn gmres_converges_on_nonsymmetric_system() {
        let a = convection(12, 12);
        let n = a.nrows();
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 13 % 17) as f64) * 0.1 - 0.5).collect();
        let b = a.spmv(&x_true);
        let mut x = vec![0.0; n];
        let res = solve_one(
            Method::Gmres,
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            &SolverOptions::default(),
        );
        assert!(res.converged, "relres = {}", res.relative_residual);
        let ax = a.spmv(&x);
        let err: f64 = b
            .iter()
            .zip(ax.iter())
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(err / bn < 1e-5, "true residual {}", err / bn);
    }

    #[test]
    fn ilu_preconditioning_cuts_gmres_iterations() {
        let a = convection(16, 16);
        let n = a.nrows();
        let b = vec![1.0; n];
        let plain = {
            let mut x = vec![0.0; n];
            solve_one(
                Method::Gmres,
                &a,
                &b,
                &mut x,
                &IdentityPrecond,
                &SolverOptions::default(),
            )
        };
        let f = factorize(&a, &IluOptions::default()).unwrap();
        let pre = {
            let mut x = vec![0.0; n];
            solve_one(Method::Gmres, &a, &b, &mut x, &f, &SolverOptions::default())
        };
        assert!(plain.converged && pre.converged);
        assert!(
            pre.iterations * 2 < plain.iterations,
            "ILU should at least halve iterations: {} vs {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn restart_length_one_still_converges() {
        // GMRES(1) on a well-conditioned diagonally dominant system.
        let a = convection(6, 6);
        let b = vec![1.0; 36];
        let mut x = vec![0.0; 36];
        let opts = SolverOptions {
            restart: 1,
            max_iters: 10000,
            ..Default::default()
        };
        let res = solve_one(Method::Gmres, &a, &b, &mut x, &IdentityPrecond, &opts);
        assert!(res.converged, "relres = {}", res.relative_residual);
    }

    #[test]
    fn exact_preconditioner_converges_in_one_iteration() {
        // ILU with full fill = exact LU: GMRES needs a single step.
        let a = convection(7, 7);
        let n = a.nrows();
        let f = factorize(&a, &IluOptions::default().with_fill(n)).unwrap();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let mut x = vec![0.0; n];
        let res = solve_one(Method::Gmres, &a, &b, &mut x, &f, &SolverOptions::default());
        assert!(res.converged);
        assert!(res.iterations <= 2, "took {} iterations", res.iterations);
    }

    #[test]
    fn zero_rhs() {
        let a = convection(4, 4);
        let b = vec![0.0; 16];
        let mut x = vec![3.0; 16];
        let res = solve_one(
            Method::Gmres,
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            &SolverOptions::default(),
        );
        assert!(res.converged);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn max_iters_cap() {
        let a = convection(14, 14);
        let b = vec![1.0; a.nrows()];
        let mut x = vec![0.0; a.nrows()];
        let opts = SolverOptions {
            max_iters: 5,
            tol: 1e-14,
            ..Default::default()
        };
        let res = solve_one(Method::Gmres, &a, &b, &mut x, &IdentityPrecond, &opts);
        assert!(!res.converged);
        assert_eq!(res.iterations, 5);
    }

    // ---- Golden pin -------------------------------------------------
    // Recorded from the hand-written scalar GMRES / FGMRES solvers at
    // the commit before they became width-1 runs of the lockstep
    // driver. The panel-vs-scalar bitwise grids compare one
    // implementation with itself, so the historical bits are pinned
    // here (see `crate::golden` for the tuple).
    use crate::golden::{self, Golden};

    fn run<P: Preconditioner<f64>>(
        flexible: bool,
        a: &CsrMatrix<f64>,
        b: &[f64],
        x0: f64,
        m: &P,
        opts: SolverOptions,
    ) -> Golden {
        let method = if flexible {
            Method::Fgmres
        } else {
            Method::Gmres
        };
        golden::run(method, a, b, x0, m, opts)
    }

    fn golden_run(fixture: usize, flexible: bool) -> Golden {
        use javelin_synth::grid::convection_diffusion_2d as cd;
        let ilu = |a: &CsrMatrix<f64>, fill: usize| {
            factorize(a, &IluOptions::ilu0(1).with_fill(fill)).unwrap()
        };
        let hist = SolverOptions {
            record_history: true,
            ..Default::default()
        };
        match fixture {
            // ILU(0), default restart 50, history on.
            0 => {
                let a = cd(13, 11, 0.4, 0.2);
                run(
                    flexible,
                    &a,
                    &golden::rhs(a.nrows()),
                    0.0,
                    &ilu(&a, 0),
                    hist,
                )
            }
            // Unpreconditioned, several full cycles of 7, warm start.
            1 => {
                let a = cd(12, 12, 0.6, 0.3);
                let opts = SolverOptions { restart: 7, ..hist };
                run(
                    flexible,
                    &a,
                    &golden::rhs(a.nrows()),
                    0.5,
                    &IdentityPrecond,
                    opts,
                )
            }
            // GMRES(1): a restart boundary after every step.
            2 => {
                let a = cd(6, 6, 0.3, 0.3);
                let opts = SolverOptions {
                    restart: 1,
                    max_iters: 10_000,
                    ..Default::default()
                };
                run(
                    flexible,
                    &a,
                    &golden::rhs(a.nrows()),
                    0.0,
                    &IdentityPrecond,
                    opts,
                )
            }
            // ILU(0) with a short restart and a tight tolerance.
            3 => {
                let a = cd(14, 9, 0.2, 0.5);
                let opts = SolverOptions {
                    restart: 3,
                    tol: 1e-12,
                    ..hist
                };
                run(
                    flexible,
                    &a,
                    &golden::rhs(a.nrows()),
                    0.0,
                    &ilu(&a, 0),
                    opts,
                )
            }
            // Iteration cap lands mid-cycle: 5 = 3 + 2.
            4 => {
                let a = cd(14, 14, 0.6, 0.2);
                let opts = SolverOptions {
                    max_iters: 5,
                    tol: 1e-14,
                    restart: 3,
                    record_history: true,
                };
                run(
                    flexible,
                    &a,
                    &golden::rhs(a.nrows()),
                    0.0,
                    &IdentityPrecond,
                    opts,
                )
            }
            // Full fill = exact LU: the Krylov space closes at once.
            5 => {
                let a = cd(7, 7, 0.4, 0.2);
                run(
                    flexible,
                    &a,
                    &golden::rhs(a.nrows()),
                    0.0,
                    &ilu(&a, a.nrows()),
                    hist,
                )
            }
            // Zero right-hand side: x is overwritten with zeros.
            6 => {
                let a = cd(4, 4, 0.3, 0.3);
                run(flexible, &a, &[0.0; 16], 3.0, &IdentityPrecond, hist)
            }
            // NaN right-hand side: frozen at the initial guess.
            7 => {
                let a = cd(5, 4, 0.3, 0.3);
                let mut b = golden::rhs(a.nrows());
                b[7] = f64::NAN;
                run(flexible, &a, &b, 0.25, &IdentityPrecond, hist)
            }
            // True happy breakdown (h_{j+1,j} == 0 exactly, reachable
            // only with tol = 0): b = β·e₄ on a diagonal operator
            // (β = 0.9, d = 7 leaves a one-ulp true residual, so the second
            // cycle breaks down again and the cap ends the solve finite).
            8 => {
                let mut coo = CooMatrix::new(6, 6);
                for i in 0..6 {
                    coo.push(i, i, 3.0 + i as f64).unwrap();
                }
                let a = coo.to_csr();
                let mut b = [0.0; 6];
                b[4] = 0.9;
                let opts = SolverOptions {
                    tol: 0.0,
                    max_iters: 2,
                    ..hist
                };
                run(flexible, &a, &b, 0.0, &IdentityPrecond, opts)
            }
            _ => unreachable!(),
        }
    }

    /// `[fixture] = (GMRES, FGMRES)`, see `golden_run`.
    const GOLDEN: [(Golden, Golden); 9] = [
        // 0: ILU(0), restart 50
        (
            (
                12,
                SolverStatus::Converged,
                0x3ea09285c76dc0b2,
                13,
                0xebfd6679479039d6,
            ),
            (
                12,
                SolverStatus::Converged,
                0x3ea09285c76dc0b2,
                13,
                0x5c3599006c049620,
            ),
        ),
        // 1: identity, restart 7, warm start
        (
            (
                67,
                SolverStatus::Converged,
                0x3eacdb07762872ee,
                68,
                0xca0d385a1796da5c,
            ),
            (
                67,
                SolverStatus::Converged,
                0x3eacdb077625f2e8,
                68,
                0xbbb1ba34685e19cd,
            ),
        ),
        // 2: identity, restart 1
        (
            (
                98,
                SolverStatus::Converged,
                0x3eb02999850027e2,
                0,
                0xf25a9f6d4b36827e,
            ),
            (
                98,
                SolverStatus::Converged,
                0x3eb02999850027e2,
                0,
                0xf25a9f6d4b36827e,
            ),
        ),
        // 3: ILU(0), restart 3, tol 1e-12
        (
            (
                37,
                SolverStatus::Converged,
                0x3d6bbcf3bd717c94,
                38,
                0xcdcacdc38e864ad5,
            ),
            (
                37,
                SolverStatus::Converged,
                0x3d6bbccf358b8ccd,
                38,
                0x2137a0d45cf43a0b,
            ),
        ),
        // 4: cap mid-cycle
        (
            (
                5,
                SolverStatus::MaxIters,
                0x3fadc7cda575e78e,
                6,
                0x05f30978a3040cb6,
            ),
            (
                5,
                SolverStatus::MaxIters,
                0x3fadc7cda575e78e,
                6,
                0x4902b7d9ba21d54f,
            ),
        ),
        // 5: full-fill ILU
        (
            (
                1,
                SolverStatus::Converged,
                0x3cc29e85f472f32f,
                2,
                0x53e2e7f30c9d1f18,
            ),
            (
                1,
                SolverStatus::Converged,
                0x3cc29e85f472f32f,
                2,
                0xf6bcfd2a6cef667b,
            ),
        ),
        // 6: zero rhs
        (
            (
                0,
                SolverStatus::Converged,
                0x0000000000000000,
                0,
                0x8421ae126c7ced25,
            ),
            (
                0,
                SolverStatus::Converged,
                0x0000000000000000,
                0,
                0x8421ae126c7ced25,
            ),
        ),
        // 7: NaN rhs
        (
            (
                0,
                SolverStatus::NumericalBreakdown,
                0x7ff8000000000000,
                0,
                0xe1ca3f76156a6965,
            ),
            (
                0,
                SolverStatus::NumericalBreakdown,
                0x7ff8000000000000,
                0,
                0xe1ca3f76156a6965,
            ),
        ),
        // 8: happy breakdown twice
        (
            (
                2,
                SolverStatus::MaxIters,
                0x0000000000000000,
                3,
                0xf1eefede8beb5e5c,
            ),
            (
                2,
                SolverStatus::MaxIters,
                0x0000000000000000,
                3,
                0xf1eefede8beb5e5c,
            ),
        ),
    ];

    #[test]
    fn width_one_instantiations_reproduce_the_historical_scalar_bits() {
        for (fixture, (plain, flexible)) in GOLDEN.iter().enumerate() {
            assert_eq!(
                golden_run(fixture, false),
                *plain,
                "gmres fixture {fixture}"
            );
            assert_eq!(
                golden_run(fixture, true),
                *flexible,
                "fgmres fixture {fixture}"
            );
        }
    }

    #[test]
    fn fgmres_matches_gmres_with_fixed_preconditioner() {
        let a = convection(10, 10);
        let n = a.nrows();
        let f = factorize(&a, &IluOptions::default()).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i % 9) as f64 - 4.0).collect();
        let opts = SolverOptions {
            tol: 1e-10,
            ..Default::default()
        };
        let mut xg = vec![0.0; n];
        let rg = solve_one(Method::Gmres, &a, &b, &mut xg, &f, &opts);
        let mut xf = vec![0.0; n];
        let rf = solve_one(Method::Fgmres, &a, &b, &mut xf, &f, &opts);
        assert!(rg.converged && rf.converged);
        // With a fixed preconditioner FGMRES spans the same space.
        assert_eq!(rg.iterations, rf.iterations);
        for (g, w) in xf.iter().zip(xg.iter()) {
            assert!((g - w).abs() < 1e-8, "{g} vs {w}");
        }
    }

    #[test]
    fn fgmres_tolerates_a_varying_preconditioner() {
        // A preconditioner that alternates between the ILU(0) and the
        // ILU(1) factors of the matrix per application — invalid for
        // plain GMRES's final M^{-1}(V y) step, fine for FGMRES.
        struct Alternating {
            a: IluFactors<f64>,
            b: IluFactors<f64>,
            flip: Mutex<bool>,
        }
        impl Preconditioner<f64> for Alternating {
            fn apply(&self, r: &[f64], z: &mut [f64]) {
                let mut flip = self.flip.lock();
                if *flip {
                    self.a.apply(r, z);
                } else {
                    self.b.apply(r, z);
                }
                *flip = !*flip;
            }
        }
        let a = convection(12, 12);
        let n = a.nrows();
        let pre = Alternating {
            a: factorize(&a, &IluOptions::default()).unwrap(),
            b: factorize(&a, &IluOptions::default().with_fill(1)).unwrap(),
            flip: Mutex::new(false),
        };
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let mut x = vec![0.0; n];
        let res = solve_one(
            Method::Fgmres,
            &a,
            &b,
            &mut x,
            &pre,
            &SolverOptions::default(),
        );
        assert!(res.converged, "relres {}", res.relative_residual);
        // True residual.
        let ax = a.spmv(&x);
        let err: f64 = b
            .iter()
            .zip(&ax)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(err / bn < 1e-5, "true relres {}", err / bn);
    }

    #[test]
    fn fgmres_unpreconditioned_equals_gmres() {
        let a = convection(8, 8);
        let b = vec![1.0; 64];
        let opts = SolverOptions::default();
        let mut xg = vec![0.0; 64];
        let rg = solve_one(Method::Gmres, &a, &b, &mut xg, &IdentityPrecond, &opts);
        let mut xf = vec![0.0; 64];
        let rf = solve_one(Method::Fgmres, &a, &b, &mut xf, &IdentityPrecond, &opts);
        assert_eq!(rg.iterations, rf.iterations);
        assert!(rg.converged && rf.converged);
    }

    #[test]
    fn zero_rhs_trivial() {
        let a = convection(4, 4);
        let b = vec![0.0; 16];
        let mut x = vec![2.0; 16];
        let res = solve_one(
            Method::Fgmres,
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            &SolverOptions::default(),
        );
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }
}
