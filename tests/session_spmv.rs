//! A threaded `Session` and a threaded solve service run every Krylov
//! matvec on the analysis's own team, in nnz-balanced row blocks
//! (`IluSolver`, through `SymbolicIlu::spmv_plan`). That must change no
//! bit: at 2 and 3 threads, pinned and unpinned, every session solve,
//! panel and sweep, and at 2 threads every service reply, carries the
//! bits and iteration counts of the same driver over the plain
//! `&CsrMatrix`, whose matvecs are the caller's `spmv_into`, with the
//! same factors and engine.

use javelin::prelude::*;
use javelin::service::{Engine, EngineConfig, SolveRequest};
use javelin::solver::{krylov_panel_with, krylov_with, ScenarioMatrices, SolverWorkspace};
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
                    session.matrix(),
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
                        session.matrix(),
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
