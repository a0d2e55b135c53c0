//! Batched multi-RHS solving: one ILU(0) preconditioner serving a
//! whole panel of right-hand sides through `krylov_panel_with`.
//!
//! ```text
//! cargo run --release --example batch_solve
//! ```
//!
//! Demonstrates (and asserts) the panel-execution contract end to end:
//!
//! 1. PCG on a panel converges `k` systems in lockstep, each column
//!    carrying exactly the bits (and iteration count) of a standalone
//!    `krylov_with` run on that column;
//! 2. columns converge independently (masking): faster columns retire
//!    at earlier iterations while the rest keep iterating;
//! 3. after a warm-up solve, a steady-state panel solve at `k = 8`
//!    performs **zero heap allocations** — measured with a counting
//!    global allocator, not assumed;
//! 4. malformed panels are rejected with an error, not a panic.

use javelin::core::{factorize, ApplyScratch, IluOptions};
use javelin::solver::{krylov_panel_with, krylov_with, Method, SolverOptions, SolverWorkspace};
use javelin::sparse::{Panel, PanelMut};
use javelin::synth::grid::laplace_2d;
use javelin::synth::util::rhs_panel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Counts allocations while `ARMED` — the instrument behind the
/// zero-steady-state-allocation check.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    let a = laplace_2d(48, 48);
    let n = a.nrows();
    let k = 8usize;
    println!("matrix: {n} x {n}, panel width k = {k}");

    // Factor once; the persistent worker team and the panel-width
    // scratch inside the factors serve every solve below.
    let factors = factorize(&a, &IluOptions::ilu0(2)).expect("ILU(0)");

    // A deterministic panel whose columns are genuinely different
    // systems, so they converge at different iterations and the
    // masking actually engages.
    let b = rhs_panel(n, k, 2024);

    let opts = SolverOptions::default();
    let mut ws = SolverWorkspace::new();
    let mut x = vec![0.0; n * k];

    // Warm-up solve: grows every buffer (workspace panels, the
    // preconditioner's permutation buffer, the engines' width-k
    // scratch) to its steady-state size.
    let results = krylov_panel_with(
        Method::Pcg,
        &a,
        Panel::new(&b, n, k),
        PanelMut::new(&mut x, n, k),
        &factors,
        &opts,
        &mut ws,
    );
    println!("\nper-column results (lockstep with convergence masking):");
    for (c, r) in results.iter().enumerate() {
        println!(
            "  column {c}: converged = {}, iterations = {:3}, relres = {:.3e}",
            r.converged, r.iterations, r.relative_residual
        );
    }
    assert!(results.iter().all(|r| r.converged), "all columns converge");
    let (min_it, max_it) = results.iter().fold((usize::MAX, 0), |(lo, hi), r| {
        (lo.min(r.iterations), hi.max(r.iterations))
    });
    assert!(
        min_it < max_it,
        "columns must retire at different iterations for masking to engage"
    );
    println!("masking engaged: columns retired between iteration {min_it} and {max_it}");

    // Contract check: every batched column is bit-identical to a
    // standalone single-RHS PCG run of that column.
    for c in 0..k {
        let mut xc = vec![0.0; n];
        let r = krylov_with(
            Method::Pcg,
            &a,
            &b[c * n..(c + 1) * n],
            &mut xc,
            &factors,
            &opts,
            &mut SolverWorkspace::new(),
        );
        assert_eq!(r.iterations, results[c].iterations, "column {c} iterations");
        let batch_bits: Vec<u64> = x[c * n..(c + 1) * n].iter().map(|v| v.to_bits()).collect();
        let solo_bits: Vec<u64> = xc.iter().map(|v| v.to_bits()).collect();
        assert_eq!(batch_bits, solo_bits, "column {c} bits");
    }
    println!("\nbatch == {k} independent PCG solves, bit for bit");

    // Steady state: the second batched solve must not allocate at all.
    x.fill(0.0);
    ALLOCS.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let results2 = krylov_panel_with(
        Method::Pcg,
        &a,
        Panel::new(&b, n, k),
        PanelMut::new(&mut x, n, k),
        &factors,
        &opts,
        &mut ws,
    );
    ARMED.store(false, Ordering::Relaxed);
    // One allocation is permitted: the Vec<SolverResult> assembled for
    // the caller on entry (documented); the iteration loop itself —
    // matvecs, dots, panel preconditioner applies — must be clean.
    let n_allocs = ALLOCS.load(Ordering::Relaxed);
    println!("steady-state PCG panel solve (k = {k}): {n_allocs} allocation(s) (result vec only)");
    assert!(
        n_allocs <= 1,
        "steady-state batched solve must not allocate (saw {n_allocs})"
    );
    assert_eq!(
        results2.iter().map(|r| r.iterations).collect::<Vec<_>>(),
        results.iter().map(|r| r.iterations).collect::<Vec<_>>(),
        "steady-state rerun reproduces the warm-up"
    );

    // Malformed panels error out instead of panicking.
    let short = vec![0.0; n];
    let mut bad_x = vec![0.0; n * 2];
    assert!(factors
        .solve_panel_with_buffer(
            factors.default_engine(),
            &mut ApplyScratch::new(),
            Panel::new(&short, n, 1),
            PanelMut::new(&mut bad_x, n, 2)
        )
        .is_err());
    println!("shape mismatches are rejected with Err, not a panic");

    // The nonsymmetric batch drivers obey the same contract: lockstep
    // panels through `Session::krylov_panel`, column-for-column
    // bit-identical to the scalar solvers.
    let an = javelin::synth::grid::convection_diffusion_2d(32, 32, 0.4, 0.2);
    let nn = an.nrows();
    let bn = rhs_panel(nn, k, 7);
    let mut session = javelin::Session::builder()
        .ilu_options(IluOptions::ilu0(2))
        .panel_width(k)
        .build(&an)
        .expect("session");
    for method in [
        javelin::solver::Method::BatchBicgstab,
        javelin::solver::Method::BatchGmres,
    ] {
        let mut xn = vec![0.0; nn * k];
        let rn = session
            .krylov_panel(
                method,
                Panel::new(&bn, nn, k),
                PanelMut::new(&mut xn, nn, k),
            )
            .expect("panel solve");
        assert!(rn.iter().all(|r| r.converged), "{method}");
        let its: Vec<usize> = rn.iter().map(|r| r.iterations).collect();
        println!("{method} panel (k = {k}) converged, per-column iterations {its:?}");
    }
    println!("\nbatch_solve: all checks passed");
}
