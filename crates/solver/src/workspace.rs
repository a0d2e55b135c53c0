//! Caller-owned solver working memory.
//!
//! A [`SolverWorkspace`] holds every buffer a Krylov solver needs —
//! residual/direction panels, the stacked Arnoldi bases, the small
//! per-column Hessenberg/Givens arrays, the per-column lanes of the
//! drivers' one column frame (`crate::columns`), the block-sum slots
//! of a threaded dot —
//! plus the [`ApplyScratch`] forwarded to
//! [`javelin_core::Preconditioner::apply_with`]. Every buffer is
//! **grow-only**: it is extended (zero-filled) when a solve needs more
//! than the workspace has ever held and otherwise left alone — a
//! narrower panel or a smaller system simply uses a prefix, so
//! alternating shapes neither reallocate nor re-zero anything, and the
//! drivers never read a slot they have not written in the same solve.
//! One workspace can serve many consecutive solves of mixed kinds,
//! widths and sizes; it keeps the high-water-mark buffers alive, and a
//! steady-state solve allocates nothing.
//!
//! The Arnoldi slots grow with the deepest cycle: the GMRES driver
//! grows slot `j` of `V` (and, for FGMRES, of `Z`) on the step that
//! first writes it, so a workspace holds as many slots as the most
//! Arnoldi steps one cycle has run, never the whole restart length up
//! front. [`SolverWorkspace::reserve`] warms the PCG and BiCGSTAB
//! panels only; [`SolverWorkspace::reserve_gmres_basis`] is the opt-in
//! that warms the GMRES or FGMRES basis for an allocation-free first
//! solve.
//!
//! There is one driver per method, and a single right-hand side is its
//! width-1 panel ([`crate::krylov_with`]), so there is one buffer
//! family per method and one sizing rule for every width: scalar
//! solves run out of the same panels at `k = 1`.

use crate::columns::Lane;
use crate::{gmres, Method};
use javelin_core::ApplyScratch;
use javelin_sparse::{vecops, Scalar};

/// Reusable working memory for the Krylov solvers (see module docs).
#[derive(Debug, Default)]
pub struct SolverWorkspace<T> {
    /// Scratch handed to `Preconditioner::apply_with`.
    pub precond: ApplyScratch<T>,
    // Driver panels: column-major `n × k` blocks (stride `n`) for
    // residuals/preconditioned residuals/directions/matvecs, plus
    // per-column iteration state. Sized by `ensure_panel`; scalar
    // solves use them at width 1.
    pub(crate) pr: Vec<T>,
    pub(crate) pz: Vec<T>,
    pub(crate) pp: Vec<T>,
    pub(crate) pq: Vec<T>,
    pub(crate) col_rz: Vec<T>,
    /// Block-sum slots of the threaded dot
    /// ([`crate::PanelMatrices::dot`]), `n_blocks(n)` of them, sized
    /// with the panel so no solve grows them.
    pub(crate) block_sums: Vec<T>,
    pub(crate) col_bnorm: Vec<f64>,
    pub(crate) col_relres: Vec<f64>,
    /// Per-column lane of the lockstep drivers, rearmed by
    /// `Columns::open` at every solve entry.
    pub(crate) lanes: Vec<Lane>,
    // BiCGSTAB extensions: the shadow
    // residual, the two preconditioned directions and `A·z`, plus the
    // per-column BiCGSTAB scalar recurrences.
    pub(crate) prhat: Vec<T>,
    pub(crate) py: Vec<T>,
    pub(crate) pt: Vec<T>,
    pub(crate) col_rho: Vec<T>,
    pub(crate) col_alpha: Vec<T>,
    pub(crate) col_omega: Vec<T>,
    // The Arnoldi family (GMRES and FGMRES, every width): the stacked
    // bases as one `n × k` panel per Arnoldi slot — up to `restart`
    // slots of `V`, and for FGMRES of `Z = M⁻¹V`, grown by the driver
    // on the step that first writes each — so step `j`'s vectors form
    // one contiguous panel for the shared apply; a
    // residual/correction panel; and per-column Hessenberg / Givens /
    // rotated-rhs / least-squares-solution arrays.
    pub(crate) v_basis: Vec<Vec<T>>,
    pub(crate) z_basis: Vec<Vec<T>>,
    pub(crate) pu: Vec<T>,
    pub(crate) ph: Vec<T>,
    pub(crate) pcs: Vec<T>,
    pub(crate) psn: Vec<T>,
    pub(crate) pg: Vec<T>,
    pub(crate) pyk: Vec<T>,
    pub(crate) col_iters: Vec<usize>,
}

/// Grow-only sizing: extends `v` (zero-filled) to at least `n` entries
/// and never shrinks, moves or re-zeroes a buffer that is big enough.
fn ensure<T: Copy + Default>(v: &mut Vec<T>, n: usize) {
    if v.len() < n {
        v.resize(n, T::default());
    }
}

/// [`ensure`] for a stacked basis: at least `slots` panels of at least
/// `len` entries each.
pub(crate) fn ensure_slots<T: Copy + Default>(basis: &mut Vec<Vec<T>>, slots: usize, len: usize) {
    if basis.len() < slots {
        basis.resize_with(slots, Vec::new);
    }
    for slot in &mut basis[..slots] {
        ensure(slot, len);
    }
}

impl<T: Scalar> SolverWorkspace<T> {
    /// Fresh, empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-grows the PCG and BiCGSTAB panels for `k` columns of `n`
    /// entries, plus the preconditioner scratch at panel width — the
    /// buffer every ILU engine, Serial or threaded, applies in — so the
    /// first PCG or BiCGSTAB solve, or ILU apply, at width ≤ `k` is
    /// already allocation-free. The Arnoldi basis is **not** pre-grown: its
    /// slots grow with the deepest cycle a GMRES or FGMRES solve runs
    /// (grow-only; allocation-free once the deepest solve has run), so
    /// a session that never runs GMRES never pays for it — opt in with
    /// [`SolverWorkspace::reserve_gmres_basis`] for an allocation-free
    /// first GMRES solve. Growing is idempotent; steady-state callers
    /// never need this.
    pub fn reserve(&mut self, n: usize, k: usize) {
        let k = k.max(1);
        self.ensure_panel_bicgstab(n, k);
        self.precond.buffer(n * k);
    }

    /// Opt-in pre-growth of the Arnoldi state `method` runs on — the
    /// stacked `restart × n × k` basis `V` (GMRES), or `V` and `Z`
    /// (FGMRES), plus the per-column least-squares arrays — so even the
    /// **first** such solve at `(n, restart, k)` performs zero heap
    /// allocations (enforced by `tests/refactor_alloc.rs`). Every other
    /// method has no Arnoldi state, and this is a no-op for it. The
    /// restart length is clamped the way the driver clamps it
    /// (`max(1).min(n)`), so reserving with the solve's
    /// `SolverOptions::restart` always matches.
    pub fn reserve_gmres_basis(&mut self, method: Method, n: usize, restart: usize, k: usize) {
        let flexible = match method {
            Method::Gmres | Method::BatchGmres => false,
            Method::Fgmres => true,
            _ => return,
        };
        let k = k.max(1);
        let m = gmres::cycle_len(restart, n);
        self.ensure_gmres(n, k, m);
        ensure_slots(&mut self.v_basis, m, n * k);
        if flexible {
            ensure_slots(&mut self.z_basis, m, n * k);
        }
        self.precond.buffer(n * k);
    }

    /// Sizes the panel buffers for `k` columns of `n` entries (PCG,
    /// and the base of every other driver).
    pub(crate) fn ensure_panel(&mut self, n: usize, k: usize) {
        for buf in [&mut self.pr, &mut self.pz, &mut self.pp, &mut self.pq] {
            ensure(buf, n * k);
        }
        ensure(&mut self.col_rz, k);
        ensure(&mut self.block_sums, vecops::n_blocks(n));
        ensure(&mut self.col_bnorm, k);
        ensure(&mut self.col_relres, k);
        // Size the lane storage only, so the rearm at solve entry
        // (`Columns::open`) never allocates after a reserve.
        ensure(&mut self.lanes, k);
    }

    /// Sizes the extra panels/per-column scalars BiCGSTAB needs on top
    /// of
    /// [`SolverWorkspace::ensure_panel`].
    pub(crate) fn ensure_panel_bicgstab(&mut self, n: usize, k: usize) {
        self.ensure_panel(n, k);
        for buf in [&mut self.prhat, &mut self.py, &mut self.pt] {
            ensure(buf, n * k);
        }
        ensure(&mut self.col_rho, k);
        ensure(&mut self.col_alpha, k);
        ensure(&mut self.col_omega, k);
    }

    /// Sizes the Arnoldi family's fixed part for `k` columns at
    /// restart length `m` — the one GMRES sizing rule, width-1 solves
    /// included (`k = 1`): the first basis slot `v_0` and the
    /// per-column small arrays. The driver grows every later slot of
    /// `V` and `Z` on the step that first writes it.
    pub(crate) fn ensure_gmres(&mut self, n: usize, k: usize, m: usize) {
        self.ensure_panel(n, k);
        ensure_slots(&mut self.v_basis, 1, n * k);
        ensure(&mut self.pu, n * k);
        ensure(&mut self.ph, (m + 1) * m * k);
        ensure(&mut self.pcs, m * k);
        ensure(&mut self.psn, m * k);
        ensure(&mut self.pg, (m + 1) * k);
        ensure(&mut self.pyk, m * k);
        ensure(&mut self.col_iters, k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{krylov_panel_with, SolverOptions, SolverResult};
    use javelin_core::{factorize, IluOptions, Preconditioner};
    use javelin_sparse::{CsrMatrix, Panel, PanelMut};
    use javelin_synth::grid::{convection_diffusion_2d, laplace_2d};
    use javelin_synth::util::rhs_panel;

    #[test]
    fn buffers_grow_and_stabilize() {
        let mut ws = SolverWorkspace::<f64>::new();
        ws.ensure_panel(10, 1);
        assert_eq!(ws.pr.len(), 10);
        let ptr = ws.pr.as_ptr();
        ws.ensure_panel(10, 1); // same size: no reallocation
        ws.ensure_panel(6, 1); // smaller: a prefix of the same buffer
        assert_eq!((ws.pr.as_ptr(), ws.pr.len()), (ptr, 10));
        ws.ensure_gmres(10, 1, 5);
        // The fixed part only: `v_0` and the small arrays; the driver
        // grows every later slot.
        assert_eq!((ws.v_basis.len(), ws.z_basis.len()), (1, 0));
        assert_eq!(ws.ph.len(), 30);
    }

    #[test]
    fn reserve_leaves_the_arnoldi_slots_empty() {
        // `reserve` warms the PCG/BiCGSTAB panels at width `k` and no
        // Arnoldi slot: a session that never runs GMRES holds none.
        let (n, k) = (40usize, 8usize);
        let mut ws = SolverWorkspace::<f64>::new();
        ws.reserve(n, k);
        assert!(ws.v_basis.is_empty() && ws.z_basis.is_empty());
        assert_eq!(ws.pr.len(), n * k);
        assert_eq!(ws.pt.len(), n * k);
    }

    /// One solve of `method` at width `k` through `ws`.
    fn solve_into(
        ws: &mut SolverWorkspace<f64>,
        method: Method,
        a: &CsrMatrix<f64>,
        k: usize,
        m: &impl Preconditioner<f64>,
        opts: &SolverOptions,
    ) -> Vec<SolverResult> {
        let n = a.nrows();
        let b = rhs_panel(n, k, 29);
        let mut x = vec![0.0; n * k];
        let (b, x) = (Panel::new(&b, n, k), PanelMut::new(&mut x, n, k));
        krylov_panel_with(method, a, b, x, m, opts, ws)
    }

    #[test]
    fn arnoldi_slots_grow_to_the_deepest_cycle() {
        // At restart 50 each solve below converges inside its first
        // cycle, so the slots it grew are exactly its step count: `V`
        // for both flavours, `Z` for FGMRES only. A restart-4 solve
        // then fills every cycle and needs 4 slots, not 5: the step
        // that fills a cycle writes no `v_restart`.
        let a = convection_diffusion_2d(11, 10, 0.4, 0.2);
        let f = factorize(&a, &IluOptions::ilu0(1)).unwrap();
        let opts = SolverOptions {
            restart: 50,
            ..Default::default()
        };
        let slots = |ws: &SolverWorkspace<f64>| (ws.v_basis.len(), ws.z_basis.len());
        for (method, flexible) in [(Method::Gmres, false), (Method::Fgmres, true)] {
            let want = |t: usize| (t, if flexible { t } else { 0 });
            let mut ws = SolverWorkspace::new();
            let res = solve_into(&mut ws, method, &a, 1, &f, &opts);
            let steps = res[0].iterations;
            assert!(
                res[0].converged && steps > 4 && steps < 50,
                "{method}: {steps}"
            );
            assert_eq!(slots(&ws), want(steps), "{method}");
            // A narrower restart on the same workspace grows nothing.
            let short = SolverOptions { restart: 4, ..opts };
            let res = solve_into(&mut ws, method, &a, 1, &f, &short);
            assert!(res[0].converged && res[0].iterations > 4, "{method}");
            assert_eq!(slots(&ws), want(steps), "{method}");
            let mut ws = SolverWorkspace::new();
            solve_into(&mut ws, method, &a, 1, &f, &short);
            assert_eq!(slots(&ws), want(4), "{method}");
        }
    }

    #[test]
    fn reserve_gmres_basis_matches_driver_sizing() {
        // The driver clamps restart to n; the reserved basis must cover
        // that clamped shape exactly, so the first solve that runs a
        // whole cycle (tol = 0, capped at one cycle) moves and grows no
        // buffer — and leaves no reserved slot unused.
        let a = convection_diffusion_2d(5, 4, 0.4, 0.2);
        let f = factorize(&a, &IluOptions::ilu0(1)).unwrap();
        let (n, restart, k) = (a.nrows(), 50usize, 3usize);
        let m = restart.min(n);
        let mut ws = SolverWorkspace::<f64>::new();
        for method in [Method::Bicgstab, Method::Pcg] {
            ws.reserve_gmres_basis(method, n, restart, k);
            assert!(ws.v_basis.is_empty() && ws.pr.is_empty(), "{method}");
        }
        ws.reserve_gmres_basis(Method::Fgmres, n, restart, k);
        assert_eq!((ws.v_basis.len(), ws.z_basis.len()), (m, m));
        assert!(ws
            .v_basis
            .iter()
            .chain(&ws.z_basis)
            .all(|s| s.len() == n * k));
        assert_eq!(ws.ph.len(), (m + 1) * m * k);
        let reserved = buffer_extents(&ws);
        let opts = SolverOptions {
            tol: 0.0,
            max_iters: m,
            restart,
            record_history: false,
        };
        let res = solve_into(&mut ws, Method::Fgmres, &a, k, &f, &opts);
        assert!(res.iter().all(|r| r.iterations == m), "{res:?}");
        assert_eq!(buffer_extents(&ws), reserved, "the first solve regrew");
        let mut fresh = SolverWorkspace::new();
        solve_into(&mut fresh, Method::Fgmres, &a, k, &f, &opts);
        assert_eq!((fresh.v_basis.len(), fresh.z_basis.len()), (m, m));
    }

    /// Address and length of every buffer a solve can touch.
    fn buffer_extents(ws: &SolverWorkspace<f64>) -> Vec<(*const u8, usize)> {
        fn extent<E>(v: &[E]) -> (*const u8, usize) {
            (v.as_ptr().cast(), v.len())
        }
        let mut extents: Vec<_> = [
            &ws.pr,
            &ws.pz,
            &ws.pp,
            &ws.pq,
            &ws.col_rz,
            &ws.prhat,
            &ws.py,
            &ws.pt,
            &ws.col_rho,
            &ws.col_alpha,
            &ws.col_omega,
            &ws.pu,
            &ws.ph,
            &ws.pcs,
            &ws.psn,
            &ws.pg,
            &ws.pyk,
        ]
        .into_iter()
        .chain(&ws.v_basis)
        .chain(&ws.z_basis)
        .map(|v| extent(v))
        .collect();
        extents.push(extent(&ws.col_bnorm));
        extents.push(extent(&ws.col_relres));
        extents.push(extent(&ws.col_iters));
        extents.push(extent(&ws.lanes));
        extents
    }

    #[test]
    fn grow_only_reuse_across_shapes_is_bitwise_fresh_and_pointer_stable() {
        // One workspace driven wide → narrow → wide over two different
        // n, every method: each solve must return the bits of a
        // fresh-workspace solve (nothing may depend on a buffer having
        // been re-zeroed or being exactly n·k long, nor on lane state a
        // wider panel left behind), and once the high-water mark is
        // reached no buffer moves or shrinks again — not even after the
        // narrowest solve, which ends each round. PCG needs SPD
        // systems, so its rounds run on Laplacians of the same sizes.
        // The sixth step runs a longer cycle to a tighter tolerance,
        // deeper than every step before it, so the reused workspace
        // grows Arnoldi slots in the middle of a solve.
        let big = convection_diffusion_2d(11, 10, 0.4, 0.2);
        let small = convection_diffusion_2d(7, 6, 0.3, 0.5);
        let spd_big = laplace_2d(11, 10);
        let spd_small = laplace_2d(7, 6);
        let factor = |a| factorize(a, &IluOptions::ilu0(1)).unwrap();
        let (f_big, f_small) = (factor(&big), factor(&small));
        let (f_spd_big, f_spd_small) = (factor(&spd_big), factor(&spd_small));
        let opts = SolverOptions {
            restart: 9,
            ..Default::default()
        };
        let deep = SolverOptions {
            restart: 30,
            tol: 1e-12,
            ..opts
        };
        // (width, wide system, options)
        let steps = [
            (8usize, true, opts),
            (1, false, opts),
            (3, true, opts),
            (8, false, opts),
            (8, true, opts),
            (8, true, deep),
            (1, false, opts),
        ];
        let methods = [Method::Gmres, Method::Fgmres, Method::Bicgstab, Method::Pcg];
        let mut ws = SolverWorkspace::new();
        let mut high_water = Vec::new();
        for round in 0..2 {
            for (step, &(k, wide, opts)) in steps.iter().enumerate() {
                for method in methods {
                    let (a, f) = match (method == Method::Pcg, wide) {
                        (false, true) => (&big, &f_big),
                        (false, false) => (&small, &f_small),
                        (true, true) => (&spd_big, &f_spd_big),
                        (true, false) => (&spd_small, &f_spd_small),
                    };
                    let n = a.nrows();
                    let b = rhs_panel(n, k, 17 + step as u64);
                    let solve = |ws: &mut SolverWorkspace<f64>| {
                        let mut x = vec![0.0; n * k];
                        let res = krylov_panel_with(
                            method,
                            a,
                            Panel::new(&b, n, k),
                            PanelMut::new(&mut x, n, k),
                            f,
                            &opts,
                            ws,
                        );
                        assert!(res.iter().all(|r| r.converged), "{method} step {step}");
                        let iters: Vec<usize> = res.iter().map(|r| r.iterations).collect();
                        (x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), iters)
                    };
                    let slots = ws.v_basis.len();
                    let reused = solve(&mut ws);
                    let fresh = solve(&mut SolverWorkspace::new());
                    assert_eq!(reused, fresh, "{method} round {round} step {step}");
                    let deepest = opts.restart == deep.restart;
                    if round == 0 && deepest && method == Method::Gmres {
                        assert!(ws.v_basis.len() > slots, "step {step} grew no slot");
                    }
                }
            }
            if round == 0 {
                high_water = buffer_extents(&ws);
            }
        }
        assert_eq!(buffer_extents(&ws), high_water, "a buffer moved");
    }
}
