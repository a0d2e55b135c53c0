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
//! There is one driver per method, and a single right-hand side is its
//! width-1 panel ([`crate::krylov_with`]), so there is one buffer
//! family per method and one sizing rule for every width: scalar
//! solves run out of the same panels at `k = 1`.

use crate::columns::Lane;
use javelin_core::ApplyScratch;
use javelin_sparse::{vecops, Scalar};

/// Reusable working memory for the Krylov solvers (see module docs).
#[derive(Debug, Clone, Default)]
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
    // bases as one `n × k` panel per Arnoldi slot — `restart + 1` slots
    // of `V`, and for FGMRES `restart` slots of `Z = M⁻¹V` — so step
    // `j`'s vectors form one contiguous panel for the shared apply; a
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
fn ensure_slots<T: Copy + Default>(basis: &mut Vec<Vec<T>>, slots: usize, len: usize) {
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

    /// Pre-grows every buffer family a session-style caller may hit —
    /// the scalar Arnoldi state for `restart` (GMRES and FGMRES at
    /// width 1: `restart + 1` plus `restart` basis vectors of length
    /// `n`) and the PCG and BiCGSTAB panels for `k` columns —
    /// plus the preconditioner scratch at panel width, so the first
    /// solve of those kinds is already allocation-free. The panel
    /// GMRES driver's stacked `(restart + 1) × n × k` Arnoldi basis is
    /// deliberately **not** pre-grown to width `k` here: it dwarfs
    /// every other buffer (gigabytes for large `n·k`) and would tax
    /// every session whether or not it ever runs GMRES panels — opt in
    /// with [`SolverWorkspace::reserve_gmres_basis`] when the workload
    /// does, otherwise the first panel solve widens the slots
    /// (grow-only; allocation-free from the second solve on). Growing
    /// is idempotent; steady-state callers never need this.
    pub fn reserve(&mut self, n: usize, restart: usize, k: usize) {
        let k = k.max(1);
        self.ensure_panel_bicgstab(n, k);
        self.ensure_gmres(n, 1, restart.max(1), true);
        self.precond.buffer(n * k);
    }

    /// Opt-in pre-growth of the GMRES panel state — the stacked
    /// `(restart + 1) × n × k` Arnoldi basis plus the per-column
    /// least-squares arrays — so even the **first** GMRES panel solve
    /// at `(n, restart, k)` performs zero heap allocations (enforced by
    /// `tests/refactor_alloc.rs`). The restart length is clamped the
    /// way the driver clamps it (`max(1).min(n)`), so reserving with
    /// the solve's `SolverOptions::restart` always matches.
    pub fn reserve_gmres_basis(&mut self, n: usize, restart: usize, k: usize) {
        let k = k.max(1);
        let m = restart.max(1).min(n.max(1));
        self.ensure_gmres(n, k, m, false);
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

    /// Sizes the Arnoldi family for `k` columns at restart length `m`
    /// — the one GMRES sizing rule, width-1 solves included (`k = 1`).
    /// `flexible` additionally sizes the stored preconditioned basis
    /// FGMRES needs.
    pub(crate) fn ensure_gmres(&mut self, n: usize, k: usize, m: usize, flexible: bool) {
        self.ensure_panel(n, k);
        ensure_slots(&mut self.v_basis, m + 1, n * k);
        if flexible {
            ensure_slots(&mut self.z_basis, m, n * k);
        }
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
    use crate::{krylov_panel_with, Method, SolverOptions};
    use javelin_core::{factorize, IluOptions};
    use javelin_sparse::{Panel, PanelMut};
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
        ws.ensure_gmres(10, 1, 5, true);
        assert_eq!(ws.v_basis.len(), 6);
        assert_eq!(ws.z_basis.len(), 5);
        assert_eq!(ws.ph.len(), 30);
    }

    #[test]
    fn reserve_keeps_the_scalar_arnoldi_bases_as_separate_n_vectors() {
        // What `reserve` pre-grows at width 1 is measured, not guessed
        // (it doubles as `Session::build`'s resident free pool): the
        // GMRES and FGMRES bases as `restart + 1` plus `restart`
        // separate n-vectors, whatever panel width the caller names.
        let (n, restart, k) = (40usize, 7usize, 8usize);
        let mut ws = SolverWorkspace::<f64>::new();
        ws.reserve(n, restart, k);
        assert_eq!(ws.v_basis.len(), restart + 1);
        assert_eq!(ws.z_basis.len(), restart);
        assert!(ws.v_basis.iter().chain(&ws.z_basis).all(|s| s.len() == n));
        assert_eq!(ws.pr.len(), n * k);
        assert_eq!(ws.pt.len(), n * k);
    }

    #[test]
    fn reserve_gmres_basis_matches_driver_sizing() {
        let (n, restart, k) = (20usize, 50usize, 3usize);
        let mut ws = SolverWorkspace::<f64>::new();
        ws.reserve_gmres_basis(n, restart, k);
        // The driver clamps restart to n; the reserved basis must cover
        // that clamped shape so the first solve never regrows.
        let m = restart.min(n);
        assert_eq!(ws.v_basis.len(), m + 1);
        assert!(ws.v_basis.iter().all(|s| s.len() == n * k));
        assert_eq!(ws.ph.len(), (m + 1) * m * k);
        let ptrs: Vec<_> = ws.v_basis.iter().map(|s| s.as_ptr()).collect();
        ws.ensure_gmres(n, k, m, false);
        let after: Vec<_> = ws.v_basis.iter().map(|s| s.as_ptr()).collect();
        assert_eq!(ptrs, after, "reserve must pre-grow the basis");
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
        let widths = [8usize, 1, 3, 8, 8, 1];
        let methods = [Method::Gmres, Method::Fgmres, Method::Bicgstab, Method::Pcg];
        let mut ws = SolverWorkspace::new();
        let mut high_water = Vec::new();
        for round in 0..2 {
            for (step, &k) in widths.iter().enumerate() {
                let wide = step % 2 == 0;
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
                    let reused = solve(&mut ws);
                    let fresh = solve(&mut SolverWorkspace::new());
                    assert_eq!(reused, fresh, "{method} round {round} step {step}");
                }
            }
            if round == 0 {
                high_water = buffer_extents(&ws);
            }
        }
        assert_eq!(buffer_extents(&ws), high_water, "a buffer moved");
    }
}
