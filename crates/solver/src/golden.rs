//! Shared helpers of the golden bit pins (`pcg.rs`, `bicgstab.rs`,
//! `gmres.rs`): each pin runs one fixture through [`crate::krylov_with`]
//! and compares a [`Golden`] tuple recorded from an earlier commit, so a
//! rewrite that shifts a single bit of any method fails a test even
//! where the panel-vs-scalar grids only compare the drivers with
//! themselves.

#![cfg(test)]

use crate::{krylov_with, Method, SolverOptions, SolverStatus, SolverWorkspace};
use javelin_core::precond::Preconditioner;
use javelin_sparse::CsrMatrix;

/// (iterations, status, relative_residual bits, history length, FNV-1a
/// over the bits of x).
pub(crate) type Golden = (usize, SolverStatus, u64, usize, u64);

pub(crate) fn fnv1a(x: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in x.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Integer-arithmetic right-hand side (no libm, so the pins do not
/// depend on the platform's `sin`).
pub(crate) fn rhs(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 13 % 29) as f64 - 14.0) * 0.21)
        .collect()
}

/// One width-1 solve from the constant initial guess `x0`, reduced to
/// its [`Golden`] tuple.
pub(crate) fn run<P: Preconditioner<f64>>(
    method: Method,
    a: &CsrMatrix<f64>,
    b: &[f64],
    x0: f64,
    m: &P,
    opts: SolverOptions,
) -> Golden {
    let mut x = vec![x0; a.nrows()];
    let res = krylov_with(method, a, b, &mut x, m, &opts, &mut SolverWorkspace::new());
    (
        res.iterations,
        res.status,
        res.relative_residual.to_bits(),
        res.history.len(),
        fnv1a(&x),
    )
}
