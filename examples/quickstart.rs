//! Quickstart: factor a 2D Poisson problem with ILU(0) and solve it
//! with preconditioned conjugate gradients — through the `Session`
//! façade, the one-object entry point that owns the factorization, the
//! worker team and every workspace.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use javelin::core::precond::IdentityPrecond;
use javelin::prelude::*;
use javelin::solver::krylov_with;
use javelin::synth::grid::laplace_2d;

fn main() {
    // 1. A test problem: the 5-point Laplacian on a 64x64 grid.
    let a = laplace_2d(64, 64);
    let n = a.nrows();
    println!("matrix: {} x {} with {} nonzeros", n, n, a.nnz());

    // 2. One Session = analyze + factor + workspaces. The default
    //    options reproduce the paper's configuration: ILU(0), level
    //    scheduling on lower(A+A^T), automatic two-stage split.
    let mut session = Session::builder().build(&a).expect("ILU(0)");
    let s = session.stats();
    println!(
        "ILU(0): {} levels ({} upper-stage), {} rows in the lower stage, fill ratio {:.2}",
        s.n_levels,
        s.n_upper_levels,
        s.n_lower_rows,
        s.fill_ratio()
    );
    println!(
        "point-to-point schedule: {} waits from {} raw dependencies ({:.0}% pruned)",
        s.n_waits,
        s.n_raw_deps,
        100.0 * s.wait_sparsification()
    );

    // 3. Solve A x = b with and without the preconditioner.
    let b = vec![1.0; n];
    let mut x_plain = vec![0.0; n];
    // Plain CG is PCG with the identity preconditioner.
    let plain = krylov_with(
        Method::Pcg,
        &a,
        &b,
        &mut x_plain,
        &IdentityPrecond,
        &SolverOptions::default(),
        &mut SolverWorkspace::new(),
    );
    let mut x_pre = vec![0.0; n];
    let pre = session
        .krylov(Method::Pcg, &b, &mut x_pre)
        .expect("matching shapes");
    println!(
        "CG:          {} iterations (relative residual {:.2e})",
        plain.iterations, plain.relative_residual
    );
    println!(
        "ILU(0)-PCG:  {} iterations (relative residual {:.2e})",
        pre.iterations, pre.relative_residual
    );
    assert!(pre.converged && plain.converged);
    assert!(pre.iterations < plain.iterations);
    println!(
        "preconditioning saved {} iterations",
        plain.iterations - pre.iterations
    );
}
