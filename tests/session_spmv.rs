//! A threaded `Session` and a threaded solve service run every Krylov
//! matvec on the analysis's own team, in nnz-balanced row blocks
//! (`IluSolver`, through `SymbolicIlu::spmv_plan`), and every dot, norm
//! and vector update there too, in whole `vecops::DOT_BLOCK`-entry
//! blocks per thread. That must change no bit: at 2 and 3 threads,
//! pinned and unpinned, every session solve, panel and sweep, and at 2
//! threads every service reply, carries the bits and iteration counts
//! of the same driver over the plain `&CsrMatrix`, whose matvecs and
//! vector passes run on the caller, with the same factors and engine.
//! And the whole solve is one answer at every thread count: 1, 2 and 3
//! threads give bitwise-equal solutions, on systems of one and of
//! several blocks, also when one workspace serves a larger system first.

use javelin::core::Preconditioner;
use javelin::prelude::*;
use javelin::service::{Engine, EngineConfig, SolveRequest};
use javelin::solver::{
    krylov_panel_with, krylov_with, IluSolver, ScenarioMatrices, SolverResult, SolverWorkspace,
};
use javelin::sparse::vecops;
use javelin::synth::circuit::transient_circuit;
use javelin::synth::grid::laplace_3d;
use javelin::synth::util::{revalue, rhs_panel};
use std::sync::Arc;

const METHODS: [Method; 4] = [Method::Pcg, Method::Bicgstab, Method::Gmres, Method::Fgmres];

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|v| v.to_bits()).collect()
}

/// The four team shapes: 2 and 3 threads, pinned and unpinned.
fn sessions(a: &CsrMatrix<f64>) -> impl Iterator<Item = (String, Session<f64>)> + '_ {
    [(2, false), (2, true), (3, false), (3, true)]
        .into_iter()
        .map(move |(nthreads, pin_threads)| {
            let opts = IluOptions {
                pin_threads,
                ..IluOptions::ilu0(nthreads)
            };
            let session = Session::builder()
                .ilu_options(opts)
                .panel_width(8)
                .build(a)
                .expect("session");
            let name = format!("nthreads {nthreads} pinned {pin_threads}");
            (name, session)
        })
}

fn matrices() -> [(&'static str, CsrMatrix<f64>); 2] {
    [
        ("grid", laplace_3d(14, 14, 14)),
        ("circuit", transient_circuit(2_000, 30, false, 3)),
    ]
}

#[test]
fn threaded_session_krylov_is_bitwise_the_plain_solve() {
    for (matrix, a) in matrices() {
        let n = a.nrows();
        let b = rhs_panel(n, 1, 5);
        for (team, mut session) in sessions(&a) {
            for method in METHODS {
                let case = format!("{matrix} {team} {method}");
                let mut x = vec![0.0; n];
                let got = session.krylov(method, &b, &mut x).expect("krylov");
                assert!(got.converged && !got.retried, "{case}: {got:?}");
                let m = session.factors().with_engine(session.engine());
                let mut want_x = vec![0.0; n];
                let want = krylov_with(
                    method,
                    &a,
                    &b,
                    &mut want_x,
                    &m,
                    session.solver_options(),
                    &mut SolverWorkspace::new(),
                );
                assert_eq!(got.iterations, want.iterations, "{case}");
                assert_eq!(bits(&x), bits(&want_x), "{case}");
            }
        }
    }
}

#[test]
fn threaded_session_panels_are_bitwise_the_plain_panels() {
    for (matrix, a) in matrices() {
        let n = a.nrows();
        for (team, mut session) in sessions(&a) {
            for method in METHODS {
                for k in [1, 3, 8] {
                    let case = format!("{matrix} {team} {method} k {k}");
                    let b = rhs_panel(n, k, 11);
                    let mut x = vec![0.0; n * k];
                    let got = session
                        .krylov_panel(method, Panel::new(&b, n, k), PanelMut::new(&mut x, n, k))
                        .expect("krylov_panel");
                    let m = session.factors().with_engine(session.engine());
                    let mut want_x = vec![0.0; n * k];
                    let want = krylov_panel_with(
                        method,
                        &a,
                        Panel::new(&b, n, k),
                        PanelMut::new(&mut want_x, n, k),
                        &m,
                        session.solver_options(),
                        &mut SolverWorkspace::new(),
                    );
                    for (c, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert!(g.converged, "{case} col {c}");
                        assert_eq!(g.iterations, w.iterations, "{case} col {c}");
                    }
                    assert_eq!(bits(&x), bits(&want_x), "{case}");
                }
            }
        }
    }
}

#[test]
fn threaded_session_sweep_is_bitwise_the_plain_sweep() {
    for (matrix, a) in matrices() {
        let n = a.nrows();
        let scenarios: Vec<_> = (0..3)
            .map(|s| revalue(&a, 0.4 + 0.6 * s as f64, 0.05))
            .collect();
        let mats: Vec<&CsrMatrix<f64>> = scenarios.iter().collect();
        let b = rhs_panel(n, 3, 17);
        for (team, mut session) in sessions(&a) {
            let case = format!("{matrix} {team}");
            let mut x = vec![0.0; n * 3];
            let got = session
                .sweep(
                    Method::Bicgstab,
                    &mats,
                    Panel::new(&b, n, 3),
                    PanelMut::new(&mut x, n, 3),
                )
                .expect("sweep");
            let m = session
                .scenario_batch()
                .expect("the sweep's batch")
                .precond(session.engine());
            let mut want_x = vec![0.0; n * 3];
            let want = krylov_panel_with(
                Method::Bicgstab,
                &ScenarioMatrices(&mats),
                Panel::new(&b, n, 3),
                PanelMut::new(&mut want_x, n, 3),
                &m,
                session.solver_options(),
                &mut SolverWorkspace::new(),
            );
            for (c, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(g.converged, "{case} scenario {c}");
                assert_eq!(g.iterations, w.iterations, "{case} scenario {c}");
            }
            assert_eq!(bits(&x), bits(&want_x), "{case}");
        }
    }
}

#[test]
fn threaded_service_replies_are_bitwise_the_plain_panels() {
    for (matrix, a) in matrices() {
        let n = a.nrows();
        let shared = Arc::new(a);
        for pin_threads in [false, true] {
            let ilu = IluOptions {
                pin_threads,
                ..IluOptions::ilu0(2)
            };
            let f = factorize(&shared, &ilu).expect("factorize");
            let mut engine = Engine::new(EngineConfig {
                ilu,
                ..EngineConfig::default()
            });
            for method in METHODS {
                for k in [1, 3, 8] {
                    let case = format!("{matrix} pinned {pin_threads} {method} k {k}");
                    let b = rhs_panel(n, k, 23);
                    let mut requests: Vec<_> = b
                        .chunks(n)
                        .map(|col| SolveRequest {
                            a: Arc::clone(&shared),
                            b: col.to_vec(),
                            x: Vec::new(),
                            method,
                        })
                        .collect();
                    let mut replies = Vec::new();
                    engine.process(&mut requests, &mut replies);
                    let mut want_x = vec![0.0; n * k];
                    let want = krylov_panel_with(
                        method,
                        &*shared,
                        Panel::new(&b, n, k),
                        PanelMut::new(&mut want_x, n, k),
                        &f,
                        &EngineConfig::default().solver,
                        &mut SolverWorkspace::new(),
                    );
                    for (c, (reply, w)) in replies.iter().zip(&want).enumerate() {
                        let reply = reply.as_ref().expect("served");
                        assert_eq!(reply.panel_width, k, "{case} col {c}");
                        assert!(reply.result.converged, "{case} col {c}");
                        assert_eq!(reply.result.iterations, w.iterations, "{case} col {c}");
                        let want_col = &want_x[c * n..(c + 1) * n];
                        assert_eq!(bits(&reply.x), bits(want_col), "{case} col {c}");
                    }
                }
            }
        }
    }
}

/// The thread-count grid: 1, 2 and 3 threads, pinned and unpinned.
const TEAMS: [(usize, bool); 6] = [
    (1, false),
    (1, true),
    (2, false),
    (2, true),
    (3, false),
    (3, true),
];

fn ilu0(nthreads: usize, pin_threads: bool) -> IluOptions {
    IluOptions {
        pin_threads,
        ..IluOptions::ilu0(nthreads)
    }
}

/// The driver over the plain `&CsrMatrix` from zero initial guesses,
/// every vector pass on the caller: its results and solution bits.
fn plain_panel(
    method: Method,
    a: &CsrMatrix<f64>,
    b: &[f64],
    k: usize,
    m: &impl Preconditioner<f64>,
    opts: &SolverOptions,
) -> (Vec<SolverResult>, Vec<u64>) {
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
    (results, bits(&x))
}

fn assert_same_solve(got: &[SolverResult], want: &[SolverResult], case: &str) {
    for (c, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(g.converged, "{case} col {c}: {g:?}");
        assert_eq!(g.iterations, w.iterations, "{case} col {c}");
    }
}

#[test]
fn session_solves_are_bitwise_equal_across_thread_counts() {
    // The 14³ grid and the circuit fit one reduction block, so their
    // vector passes stay on the caller; the 24³ grid's dots split into
    // four blocks, two per thread at t = 2.
    let mut systems = matrices().to_vec();
    systems.push(("grid 24", laplace_3d(24, 24, 24)));
    assert_eq!(vecops::n_blocks(systems[2].1.nrows()), 4);
    for (matrix, a) in &systems {
        let n = a.nrows();
        let b = rhs_panel(n, 3, 29);
        let mut sessions: Vec<_> = TEAMS
            .iter()
            .map(|&(nthreads, pin_threads)| {
                let session = Session::builder()
                    .ilu_options(ilu0(nthreads, pin_threads))
                    .panel_width(3)
                    .build(a)
                    .expect("session");
                (format!("nthreads {nthreads} pinned {pin_threads}"), session)
            })
            .collect();
        // Every team's factors carry the 1-thread analysis's bits, and
        // every engine the Serial apply's.
        let f = factorize(a, &IluOptions::ilu0(1)).expect("factorize");
        let m = f.with_engine(SolveEngine::Serial);
        let opts = *sessions[0].1.solver_options();
        for method in METHODS {
            for k in [1, 3] {
                let b = &b[..n * k];
                let (want, want_x) = plain_panel(method, a, b, k, &m, &opts);
                for (team, session) in &mut sessions {
                    let case = format!("{matrix} {team} {method} k {k}");
                    let mut x = vec![0.0; n * k];
                    let got = session
                        .krylov_panel(method, Panel::new(b, n, k), PanelMut::new(&mut x, n, k))
                        .expect("krylov_panel");
                    assert_same_solve(&got, &want, &case);
                    assert_eq!(bits(&x), want_x, "{case}");
                }
            }
        }
    }
}

#[test]
fn one_workspace_serves_a_larger_system_first_without_changing_a_bit() {
    // The service's shape: one workspace, many solvers. After a 24³
    // solve the workspace holds four block-sum slots; the 18³ system's
    // dots use two of them, and the stale two must never count.
    let systems = [laplace_3d(24, 24, 24), laplace_3d(18, 18, 18)];
    assert_eq!(vecops::n_blocks(systems[1].nrows()), 2);
    let opts = SolverOptions::default();
    let plain: Vec<_> = systems
        .iter()
        .map(|a| {
            let f = factorize(a, &IluOptions::ilu0(1)).expect("factorize");
            let m = f.with_engine(SolveEngine::Serial);
            let b = rhs_panel(a.nrows(), 1, 31);
            let solves = METHODS.map(|method| plain_panel(method, a, &b, 1, &m, &opts));
            (b, solves)
        })
        .collect();
    for (nthreads, pin_threads) in [(2, false), (3, true)] {
        let mut ws = SolverWorkspace::new();
        for (a, (b, solves)) in systems.iter().zip(&plain) {
            let n = a.nrows();
            let mut solver = IluSolver::new(a, &ilu0(nthreads, pin_threads), None).expect("solver");
            for (method, (want, want_x)) in METHODS.into_iter().zip(solves) {
                let case = format!("n {n} nthreads {nthreads} pinned {pin_threads} {method}");
                let mut x = vec![0.0; n];
                let mut got = [SolverResult::default()];
                solver.krylov_into(
                    method,
                    a.vals(),
                    Panel::from_col(b),
                    PanelMut::from_col(&mut x),
                    &opts,
                    &mut ws,
                    &mut got,
                );
                assert_same_solve(&got, want, &case);
                assert_eq!(&bits(&x), want_x, "{case}");
            }
        }
    }
}
