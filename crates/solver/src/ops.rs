//! The drivers' vector work, counted from their code: how many spmvs,
//! preconditioner applies, reductions and vector-update passes one
//! column of a converged solve performs ([`Method::ops`]).
//!
//! Each row below is one phase of a driver, for one panel column; every
//! entry is a full pass over an `n`-vector. A *reduction* is a dot
//! product or a 2-norm (`‖b‖` included); an *update* is a pass that
//! writes a vector: an axpy, xpby or scale, a copy, a fill, or the
//! residual (`r = b − A·x`) and direction loops.
//!
//! | method | phase | spmv | apply | reductions | updates |
//! |---|---|---|---|---|---|
//! | PCG | setup | 1 | 1 | 3 | 2 |
//! | | iteration | 1 | 1 | 3 | 3 |
//! | | converging iteration | 1 | 0 | 2 | 2 |
//! | BiCGSTAB | setup | 1 | 0 | 2 | 4 |
//! | | iteration (also converging at its end) | 2 | 2 | 6 | 5 |
//! | | converging at the half-step `s` | 1 | 1 | 3 | 3 |
//! | GMRES, FGMRES | setup | 0 | 0 | 1 | 0 |
//! | | restart-cycle start | 1 | 0 | 1 | 3 |
//! | | converging cycle start | 1 | 0 | 1 | 1 |
//! | | Arnoldi step `j` (0-based) | 1 | 1 | `j + 2` | `j + 3` |
//! | | Arnoldi step `j` that ends its cycle (converging, or `j + 1 = m`) | 1 | 1 | `j + 2` | `j + 1` |
//! | GMRES | cycle end after `t` steps | 0 | 1 | 0 | `t + 2` |
//! | FGMRES | cycle end after `t` steps | 0 | 0 | 0 | `t` |
//!
//! An iteration is what [`crate::SolverResult::iterations`] counts: a
//! CG or BiCGSTAB step, or one Arnoldi step. An Arnoldi step that stays
//! in its cycle writes the next basis vector (2 updates); the step that
//! ends a cycle of `m = restart` steps does not, since the next cycle
//! starts from the true residual. In a panel every column
//! pays its own rows; the applies of one step are one shared
//! [`javelin_core::Preconditioner::apply_panel_with`] call that counts
//! once per column.
//!
//! Every reduction is one [`crate::PanelMatrices::dot`] call and every
//! update one `map`/`zip`/`zip3` call, so the drivers' passes are
//! exactly what an operator's hooks see (`tests/work_pins.rs` counts
//! them). In a threaded [`crate::IluSolver`] every spmv, every threaded
//! apply and every pass over a vector of more than one reduction block
//! is one region on the analysis's team (`SymbolicIlu::work` states an
//! apply's own synchronization), so at t ≥ 2, on a system of more than
//! one block, a width-1 BiCGSTAB iteration opens 15 regions: 2 spmvs,
//! 2 applies, 6 reductions and 5 updates, and no vector pass stays on
//! the caller.

use crate::Method;
use std::ops::{Add, Mul};

/// The vector work of one column's solve (see the module table).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KrylovOps {
    /// Matrix–vector products: [`crate::PanelMatrices::spmv_col`] calls.
    pub spmvs: usize,
    /// Preconditioner applies.
    pub applies: usize,
    /// Dot products and 2-norms.
    pub reductions: usize,
    /// Passes that write a vector: axpys, copies, fills, residual and
    /// direction loops.
    pub updates: usize,
}

/// Which residual check ended a converged solve — the one fact about
/// its path that the iteration count leaves open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvergedAt {
    /// The check that closes an iteration: PCG's and BiCGSTAB's
    /// residual after the full step, GMRES's least-squares estimate
    /// after an Arnoldi step.
    Closing,
    /// The check before it: BiCGSTAB's half-step residual `s`, or
    /// GMRES's true residual at a restart boundary (the new cycle runs
    /// no step). PCG has no such check.
    Early,
}

const fn ops(spmvs: usize, applies: usize, reductions: usize, updates: usize) -> KrylovOps {
    KrylovOps {
        spmvs,
        applies,
        reductions,
        updates,
    }
}

impl Add for KrylovOps {
    type Output = KrylovOps;
    fn add(self, o: KrylovOps) -> KrylovOps {
        ops(
            self.spmvs + o.spmvs,
            self.applies + o.applies,
            self.reductions + o.reductions,
            self.updates + o.updates,
        )
    }
}

impl Mul<usize> for KrylovOps {
    type Output = KrylovOps;
    fn mul(self, n: usize) -> KrylovOps {
        ops(
            self.spmvs * n,
            self.applies * n,
            self.reductions * n,
            self.updates * n,
        )
    }
}

impl Method {
    /// The work of one column's solve that converged after `iterations`
    /// iterations at the check `exit` — the module table summed along
    /// that path. `restart` is the GMRES cycle length the driver used
    /// ([`crate::SolverOptions::restart`], at least 1 and at most `n`).
    ///
    /// `None` when no converged solve takes that path: PCG never exits
    /// [`ConvergedAt::Early`], a GMRES restart boundary falls only at a
    /// multiple of `restart`, and only GMRES can converge before its
    /// first iteration.
    pub fn ops(self, iterations: usize, restart: usize, exit: ConvergedAt) -> Option<KrylovOps> {
        let it = iterations;
        match (self, exit) {
            (_, ConvergedAt::Closing) if it == 0 => None,
            (Method::Pcg | Method::BatchPcg, ConvergedAt::Closing) => {
                Some(ops(1, 1, 3, 2) + ops(1, 1, 3, 3) * (it - 1) + ops(1, 0, 2, 2))
            }
            (Method::Pcg | Method::BatchPcg, ConvergedAt::Early) => None,
            (Method::Bicgstab | Method::BatchBicgstab, _) if it == 0 => None,
            (Method::Bicgstab | Method::BatchBicgstab, exit) => {
                let last = match exit {
                    ConvergedAt::Closing => ops(2, 2, 6, 5),
                    ConvergedAt::Early => ops(1, 1, 3, 3),
                };
                Some(ops(1, 0, 2, 4) + ops(2, 2, 6, 5) * (it - 1) + last)
            }
            (Method::Gmres | Method::BatchGmres | Method::Fgmres, exit) => {
                let m = restart.max(1);
                let (full, tail) = (it / m, it % m);
                if exit == ConvergedAt::Early && tail != 0 {
                    return None;
                }
                let flexible = self == Method::Fgmres;
                // One restart cycle of `t` steps; its last step, which
                // converges or fills the cycle, writes no next vector.
                let cycle = |t: usize| {
                    let steps = (0..t).fold(KrylovOps::default(), |sum, j| {
                        let leaving = j + 1 == t;
                        sum + ops(1, 1, j + 2, if leaving { j + 1 } else { j + 3 })
                    });
                    let end = if flexible {
                        ops(0, 0, 0, t)
                    } else {
                        ops(0, 1, 0, t + 2)
                    };
                    ops(1, 0, 1, 3) + steps + end
                };
                let setup = ops(0, 0, 1, 0);
                Some(match (exit, tail) {
                    (ConvergedAt::Early, _) => setup + cycle(m) * full + ops(1, 0, 1, 1),
                    (ConvergedAt::Closing, 0) => setup + cycle(m) * full,
                    (ConvergedAt::Closing, _) => setup + cycle(m) * full + cycle(tail),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn impossible_paths_have_no_ops() {
        assert_eq!(Method::Pcg.ops(5, 50, ConvergedAt::Early), None);
        assert_eq!(Method::Gmres.ops(7, 5, ConvergedAt::Early), None);
        for method in [Method::Pcg, Method::Bicgstab, Method::Gmres] {
            assert_eq!(method.ops(0, 50, ConvergedAt::Closing), None, "{method}");
        }
        assert_eq!(Method::Bicgstab.ops(0, 50, ConvergedAt::Early), None);
        // GMRES can meet the tolerance at its very first residual.
        assert_eq!(
            Method::Gmres.ops(0, 50, ConvergedAt::Early),
            Some(ops(1, 0, 2, 1))
        );
    }

    #[test]
    fn synonyms_share_their_drivers_table() {
        for (it, exit) in [(3, ConvergedAt::Closing), (6, ConvergedAt::Early)] {
            assert_eq!(
                Method::BatchPcg.ops(it, 3, exit),
                Method::Pcg.ops(it, 3, exit)
            );
            assert_eq!(
                Method::BatchBicgstab.ops(it, 3, exit),
                Method::Bicgstab.ops(it, 3, exit)
            );
            assert_eq!(
                Method::BatchGmres.ops(it, 3, exit),
                Method::Gmres.ops(it, 3, exit)
            );
        }
    }

    #[test]
    fn one_gmres_step_and_its_cycle() {
        // Setup, a cycle start, one converging step, the cycle end.
        assert_eq!(
            Method::Gmres.ops(1, 50, ConvergedAt::Closing),
            Some(ops(2, 2, 4, 7))
        );
        assert_eq!(
            Method::Fgmres.ops(1, 50, ConvergedAt::Closing),
            Some(ops(2, 1, 4, 5))
        );
    }
}
