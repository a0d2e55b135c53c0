//! End-to-end service tests: coalescing exactness, symbolic-cache
//! amortization, admission control, graceful drain, and the TCP
//! front-end.

use javelin_core::{factorize, IluOptions};
use javelin_service::{
    Engine, EngineConfig, ServiceConfig, ServiceError, SolveRequest, SolveService, TcpFrontend,
    TcpSolveClient,
};
use javelin_solver::{krylov_with, Method, SolverOptions, SolverWorkspace};
use javelin_sparse::CsrMatrix;
use javelin_synth::grid::{convection_diffusion_2d, laplace_2d};
use javelin_synth::util::rhs_panel;
use std::sync::Arc;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn requests(
    a: &Arc<CsrMatrix<f64>>,
    k: usize,
    seed: u64,
    method: Method,
) -> Vec<SolveRequest<f64>> {
    let n = a.nrows();
    let b = rhs_panel(n, k, seed);
    (0..k)
        .map(|c| SolveRequest {
            a: Arc::clone(a),
            b: b[c * n..(c + 1) * n].to_vec(),
            x: vec![0.0; n],
            method,
        })
        .collect()
}

#[test]
fn engine_coalesces_pattern_identical_requests_into_panels_bit_identically() {
    let a = Arc::new(convection_diffusion_2d(14, 14, 0.4, 0.2));
    let n = a.nrows();
    let mut engine = Engine::new(EngineConfig::default());
    let mut batch = requests(&a, 8, 42, Method::BatchGmres);
    let b_ref: Vec<Vec<f64>> = batch.iter().map(|r| r.b.clone()).collect();
    let mut replies = Vec::new();
    engine.process(&mut batch, &mut replies);
    assert_eq!(replies.len(), 8);

    // 8 pattern- and value-identical requests must fuse into one
    // width-8 panel.
    let stats = engine.stats();
    assert_eq!(stats.coalesced_panels, 1);
    assert_eq!(stats.coalesced_columns, 8);

    // Every fused column is bit-identical to its standalone scalar
    // solve through an independently built preconditioner.
    let factors = factorize(&a, &IluOptions::default()).unwrap();
    for (c, reply) in replies.iter().enumerate() {
        let reply = reply.as_ref().unwrap();
        assert!(reply.result.converged, "column {c}");
        assert_eq!(reply.panel_width, 8);
        let mut x_ref = vec![0.0; n];
        let r_ref = krylov_with(
            Method::BatchGmres,
            &a,
            &b_ref[c],
            &mut x_ref,
            &factors.with_engine(factors.default_engine()),
            &SolverOptions::default(),
            &mut SolverWorkspace::new(),
        );
        assert_eq!(reply.result.iterations, r_ref.iterations, "column {c}");
        assert_eq!(bits(&reply.x), bits(&x_ref), "column {c}");
    }
}

#[test]
fn cached_pattern_requests_do_zero_symbolic_analysis() {
    let a = Arc::new(laplace_2d(12, 12));
    let mut engine = Engine::new(EngineConfig::default());
    let mut replies = Vec::new();

    let mut batch = requests(&a, 4, 1, Method::BatchPcg);
    engine.process(&mut batch, &mut replies);
    assert_eq!(
        engine.cache_stats().misses,
        1,
        "first pattern: one analysis"
    );
    assert_eq!(engine.cache_stats().hits, 0);

    // Same pattern again — same handle and a fresh value-identical
    // copy: both must hit the cache; the analysis count must not move.
    let mut batch = requests(&a, 4, 2, Method::BatchPcg);
    engine.process(&mut batch, &mut replies);
    let a_copy = Arc::new(
        CsrMatrix::try_from_parts(
            a.nrows(),
            a.ncols(),
            a.rowptr().to_vec(),
            a.colidx().to_vec(),
            a.vals().to_vec(),
        )
        .unwrap(),
    );
    let mut batch = requests(&a_copy, 4, 3, Method::BatchPcg);
    engine.process(&mut batch, &mut replies);
    assert!(replies.iter().all(|r| r.as_ref().unwrap().result.converged));
    assert_eq!(
        engine.cache_stats().misses,
        1,
        "cached pattern must never re-analyze"
    );
    assert_eq!(engine.cache_stats().hits, 2);
    assert!(replies.iter().all(|r| r.as_ref().unwrap().symbolic_reused));

    // Same pattern, new values: still zero symbolic work — exactly one
    // numeric-only refactor.
    let a_scaled = Arc::new(a.map_values(|v| v * 2.0));
    let mut batch = requests(&a_scaled, 4, 4, Method::BatchPcg);
    engine.process(&mut batch, &mut replies);
    assert_eq!(engine.cache_stats().misses, 1);
    assert_eq!(engine.cache_stats().hits, 3);
    assert_eq!(engine.cache_stats().refactors, 1);
    assert!(replies.iter().all(|r| r.as_ref().unwrap().result.converged));
}

#[test]
fn mixed_tenants_group_by_pattern_and_values() {
    // Two different patterns plus a value-variant of the first, all in
    // one batch: three groups, each solved correctly, two analyses.
    let a1 = Arc::new(laplace_2d(10, 10));
    let a2 = Arc::new(convection_diffusion_2d(9, 11, 0.3, 0.1));
    let a1b = Arc::new(a1.map_values(|v| v * 1.25));
    let mut engine = Engine::new(EngineConfig::default());
    let mut batch = Vec::new();
    batch.extend(requests(&a1, 4, 10, Method::BatchGmres));
    batch.extend(requests(&a2, 4, 11, Method::BatchGmres));
    batch.extend(requests(&a1b, 4, 12, Method::BatchGmres));
    let mut replies = Vec::new();
    engine.process(&mut batch, &mut replies);
    assert_eq!(replies.len(), 12);
    for r in &replies {
        assert!(r.as_ref().unwrap().result.converged);
    }
    assert_eq!(engine.cache_stats().misses, 2, "two distinct patterns");
    assert_eq!(engine.cache_stats().refactors, 1, "one value variant");
    assert_eq!(engine.stats().coalesced_panels, 3, "three width-4 groups");
}

#[test]
fn method_synonyms_coalesce_into_one_panel_bit_identically() {
    // `Pcg` and `BatchPcg` name one driver: two requests on one handle
    // must share a width-2 panel, each column carrying exactly the bits
    // of its solo solve.
    let a = Arc::new(laplace_2d(12, 12));
    let mut batch = requests(&a, 2, 7, Method::Pcg);
    batch[1].method = Method::BatchPcg;
    let mut replies = Vec::new();
    Engine::new(EngineConfig::default()).process(&mut batch.clone(), &mut replies);
    for (c, reply) in replies.iter().enumerate() {
        let reply = reply.as_ref().unwrap();
        assert!(reply.result.converged, "column {c}");
        assert_eq!(reply.panel_width, 2, "column {c}");
        let mut solo = Vec::new();
        Engine::new(EngineConfig::default()).process(&mut vec![batch[c].clone()], &mut solo);
        let solo = solo[0].as_ref().unwrap();
        assert_eq!(solo.panel_width, 1);
        assert_eq!(
            bits(&reply.x),
            bits(&solo.x),
            "{} column {c}",
            batch[c].method
        );
        assert_eq!(reply.result.iterations, solo.result.iterations);
    }
}

#[test]
fn malformed_requests_get_typed_rejections_without_perturbing_the_batch() {
    let a = Arc::new(laplace_2d(8, 8));
    let mut engine = Engine::new(EngineConfig::default());
    let mut batch = requests(&a, 3, 7, Method::BatchBicgstab);
    batch[1].b.truncate(5); // wrong rhs length
    let mut replies = Vec::new();
    engine.process(&mut batch, &mut replies);
    assert!(matches!(replies[1], Err(ServiceError::Rejected(_))));
    assert!(replies[0].as_ref().unwrap().result.converged);
    assert!(replies[2].as_ref().unwrap().result.converged);
    assert_eq!(engine.stats().rejected, 1);
}

#[test]
fn concurrent_clients_get_bit_identical_scalar_answers() {
    let a = Arc::new(convection_diffusion_2d(12, 12, 0.35, 0.15));
    let n = a.nrows();
    let service = SolveService::start(ServiceConfig::default());
    let clients = 8;
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let client = service.client();
            let a = Arc::clone(&a);
            std::thread::spawn(move || {
                let b = rhs_panel(n, 1, 100 + c as u64);
                let reply = client
                    .solve(SolveRequest {
                        a: Arc::clone(&a),
                        b: b.clone(),
                        x: vec![0.0; n],
                        method: Method::BatchGmres,
                    })
                    .unwrap();
                (b, reply)
            })
        })
        .collect();
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let factors = factorize(&a, &IluOptions::default()).unwrap();
    for (b, reply) in &outcomes {
        assert!(reply.result.converged);
        let mut x_ref = vec![0.0; n];
        krylov_with(
            Method::BatchGmres,
            &a,
            b,
            &mut x_ref,
            &factors.with_engine(factors.default_engine()),
            &SolverOptions::default(),
            &mut SolverWorkspace::new(),
        );
        assert_eq!(bits(&reply.x), bits(&x_ref));
    }
    let snap = service.snapshot();
    assert_eq!(snap.requests, clients as u64);
    assert_eq!(snap.cache_misses, 1, "one analysis serves all clients");
    service.shutdown();
}

#[test]
fn admission_control_bounces_excess_load_with_typed_overloaded() {
    // A queue of depth 1 under 8 concurrent clients issuing bursts:
    // some requests must bounce with `Overloaded`, every admitted one
    // must complete, and nothing may error any other way.
    let a = Arc::new(laplace_2d(40, 40));
    let n = a.nrows();
    let cfg = ServiceConfig {
        max_queue: 1,
        ..Default::default()
    };
    let service = SolveService::start(cfg);
    let mut overloaded = 0u64;
    let mut completed = 0u64;
    for round in 0..3 {
        let handles: Vec<_> = (0..8)
            .map(|c| {
                let client = service.client();
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    let mut counts = (0u64, 0u64);
                    for i in 0..6 {
                        let b = rhs_panel(n, 1, (round * 100 + c * 10 + i) as u64);
                        match client.solve(SolveRequest {
                            a: Arc::clone(&a),
                            b,
                            x: vec![0.0; n],
                            method: Method::BatchPcg,
                        }) {
                            Ok(reply) => {
                                assert!(reply.result.converged);
                                counts.0 += 1;
                            }
                            Err(ServiceError::Overloaded { queue_depth }) => {
                                assert_eq!(queue_depth, 1);
                                counts.1 += 1;
                            }
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                    counts
                })
            })
            .collect();
        for h in handles {
            let (ok, over) = h.join().unwrap();
            completed += ok;
            overloaded += over;
        }
        if overloaded > 0 {
            break;
        }
    }
    assert!(completed > 0);
    assert!(
        overloaded > 0,
        "depth-1 queue under 8 concurrent clients must bounce something"
    );
    service.shutdown();
}

#[test]
fn shutdown_drains_queued_requests_then_refuses_new_ones() {
    let a = Arc::new(laplace_2d(30, 30));
    let n = a.nrows();
    let service = SolveService::start(ServiceConfig::default());
    let survivor = service.client();
    let handles: Vec<_> = (0..6)
        .map(|c| {
            let client = service.client();
            let a = Arc::clone(&a);
            std::thread::spawn(move || {
                client.solve(SolveRequest {
                    a: Arc::clone(&a),
                    b: rhs_panel(n, 1, c as u64),
                    x: vec![0.0; n],
                    method: Method::BatchGmres,
                })
            })
        })
        .collect();
    // Give the burst a moment to enqueue, then drain.
    std::thread::sleep(std::time::Duration::from_millis(10));
    service.shutdown();
    for h in handles {
        match h.join().unwrap() {
            Ok(reply) => assert!(reply.result.converged),
            // A request that raced the drain may be refused — but it
            // must be *refused*, never dropped on the floor.
            Err(ServiceError::ShuttingDown) => {}
            Err(e) => panic!("drain must serve or refuse, got: {e}"),
        }
    }
    let err = survivor
        .solve(SolveRequest {
            a: Arc::clone(&a),
            b: rhs_panel(n, 1, 99),
            x: vec![0.0; n],
            method: Method::BatchGmres,
        })
        .unwrap_err();
    assert_eq!(err, ServiceError::ShuttingDown);
}

#[test]
fn tcp_front_end_serves_multiple_connections() {
    let a = convection_diffusion_2d(10, 10, 0.25, 0.1);
    let n = a.nrows();
    let service = SolveService::start(ServiceConfig::default());
    let front = TcpFrontend::bind("127.0.0.1:0", service.client()).unwrap();
    let addr = front.addr();

    // Protocol violation first: solving before uploading a matrix is a
    // typed error, not a hang or disconnect.
    let mut early = TcpSolveClient::connect(addr).unwrap();
    let err = early.solve(Method::BatchGmres, &vec![1.0; n]).unwrap_err();
    assert!(err.to_string().contains("set-matrix"), "{err}");

    let factors = factorize(&a, &IluOptions::default()).unwrap();
    let handles: Vec<_> = (0..3)
        .map(|c| {
            let a = a.clone();
            std::thread::spawn(move || {
                let mut client = TcpSolveClient::connect(addr).unwrap();
                client.set_matrix(&a).unwrap();
                let n = a.nrows();
                let mut out = Vec::new();
                for i in 0..3 {
                    let b = rhs_panel(n, 1, (c * 10 + i) as u64);
                    let reply = client.solve(Method::BatchGmres, &b).unwrap();
                    assert!(reply.converged);
                    out.push((b, reply));
                }
                out
            })
        })
        .collect();
    for h in handles {
        for (b, reply) in h.join().unwrap() {
            let mut x_ref = vec![0.0; n];
            krylov_with(
                Method::BatchGmres,
                &a,
                &b,
                &mut x_ref,
                &factors.with_engine(factors.default_engine()),
                &SolverOptions::default(),
                &mut SolverWorkspace::new(),
            );
            assert_eq!(bits(&reply.x), bits(&x_ref), "wire solve differs");
        }
    }
    front.stop();
    service.shutdown();
}
