//! Implicit 3D heat equation — the classic PDE workload behind the
//! paper's group-A matrices.
//!
//! Backward-Euler steps `(I + dt·L) u_{k+1} = u_k` on a 3D grid are
//! solved with ILU(0)-preconditioned CG through the `javelin::Session`
//! façade. The time loop uses an *adaptive* step size, so the system
//! matrix changes every step — but only its values, never its pattern:
//! exactly the shape `Session::refactor` exists for. The example prints
//! the measured symbolic-amortization speedup of the numeric-only
//! refactorization against redoing the full pipeline per step, and
//! reproduces the paper's ordering trade-off in miniature (RCM needs
//! fewer iterations, ND exposes wider level sets; §VII).
//!
//! ```text
//! cargo run --release --example heat_equation
//! ```

use javelin::core::{factorize, IluOptions};
use javelin::level::LevelSets;
use javelin::order::{compute_order, Ordering};
use javelin::prelude::{Method, Session};
use javelin::solver::{krylov_with, SolverOptions, SolverWorkspace};
use javelin::sparse::pattern::lower_symmetrized_pattern;
use javelin::sparse::{CooMatrix, CsrMatrix};
use javelin::synth::grid::laplace_3d;
use std::time::{Duration, Instant};

/// A = I + dt·L, on the fixed pattern of L ∪ I.
fn heat_matrix(lap: &CsrMatrix<f64>, dt: f64) -> CsrMatrix<f64> {
    let n = lap.nrows();
    let mut coo = CooMatrix::new(n, n);
    for (r, c, v) in lap.iter() {
        let v = dt * v + if r == c { 1.0 } else { 0.0 };
        coo.push(r, c, v).expect("in range");
    }
    coo.to_csr()
}

fn main() {
    let (nx, ny, nz) = (16, 16, 16);
    let lap = laplace_3d(nx, ny, nz);
    let n = lap.nrows();
    let a = heat_matrix(&lap, 0.1);
    println!("heat system: n = {n}, nnz = {}", a.nnz());

    // Ordering study in miniature (paper §VII).
    let mut ws = SolverWorkspace::new();
    for ord in [Ordering::Rcm, Ordering::Nd, Ordering::Natural] {
        let p = compute_order(&a, ord);
        let ax = a.permute_sym(&p).expect("perm");
        let levels = LevelSets::compute_lower(&lower_symmetrized_pattern(&ax));
        let stats = levels.stats();
        let f = factorize(&ax, &IluOptions::default()).expect("ILU");
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let opts = SolverOptions::default();
        let res = krylov_with(Method::Pcg, &ax, &b, &mut x, &f, &opts, &mut ws);
        println!(
            "{ord:>4}: {:>3} iters | {:>3} levels (median width {:>4}) | {} waits",
            res.iterations,
            stats.n_levels,
            stats.median,
            f.stats().n_waits,
        );
    }

    // Adaptive-dt time stepping through the Session façade: the pattern
    // is analyzed once at build; each new dt only refactors numerics.
    let mut session = Session::builder()
        .solver_options(SolverOptions {
            tol: 1e-8,
            ..Default::default()
        })
        .build(&a)
        .expect("session");
    let mut u = vec![0.0; n];
    // A hot spot in the middle of the cube.
    u[(nx / 2 * ny + ny / 2) * nz + nz / 2] = 100.0;
    let mut total_iters = 0;
    let mut t_refactor = Duration::ZERO;
    let mut t_full = Duration::ZERO;
    let steps = 10;
    for step in 0..steps {
        // The step size ramps up as the transient smooths out.
        let dt = 0.1 * (1.0 + step as f64 / steps as f64);
        let a_t = heat_matrix(&lap, dt);
        let tr = Instant::now();
        session.refactor(&a_t).expect("pattern-stable refactor");
        t_refactor += tr.elapsed();
        let tf = Instant::now();
        let _fresh = factorize(&a_t, &IluOptions::default()).expect("full pipeline");
        t_full += tf.elapsed();
        let b = u.clone();
        let res = session.krylov(Method::Pcg, &b, &mut u).expect("shapes");
        assert!(res.converged);
        total_iters += res.iterations;
    }
    let heat_total: f64 = u.iter().sum();
    println!(
        "{steps} implicit steps (adaptive dt) in {total_iters} total CG iterations; \
         final total heat {heat_total:.3} (diffused from 100.0)"
    );
    let speedup = t_full.as_secs_f64() / t_refactor.as_secs_f64().max(1e-12);
    println!(
        "symbolic amortization: {steps} refactors took {t_refactor:.2?} vs {t_full:.2?} for \
         full analyze+factor — {speedup:.1}x faster per step"
    );
    assert!(heat_total > 0.0 && heat_total <= 100.0 + 1e-6);
}
