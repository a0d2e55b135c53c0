//! Deterministic multi-threaded load generator for the solve service:
//! measures coalesced-panel vs request-at-a-time throughput.
//!
//! ```text
//! cargo run --release --example service_loadgen
//! cargo run --release --example service_loadgen -- --smoke          # CI
//! cargo run --release --example service_loadgen -- --json loadgen.json
//! ```
//!
//! Each scenario spins up `c ∈ {2, 4, 8}` client threads against one
//! [`SolveService`], every client streaming pattern-identical BatchGmres
//! solves (same convection–diffusion matrix handle, deterministic
//! per-client right-hand sides). Two service configurations face the
//! identical workload:
//!
//! * **coalesced** — the default dispatcher: concurrent requests fuse
//!   into `k ∈ {8, 4}` panels, so one preconditioner schedule walk
//!   retires a whole batch of tenants;
//! * **request-at-a-time** — `max_batch = 1`: the same stack, the same
//!   cache, but every request dispatched alone (the baseline any
//!   service without coalescing would run).
//!
//! The workload is deterministic (fixed seeds, fixed counts); only the
//! wall-clock varies run to run. With `--json PATH` the numbers land as
//! a machine-readable snapshot. The gated service numbers
//! (`requests_per_s`, `request_latency_p50_ms`) come from the
//! `service-panel` workload of `benchmark/run.sh`, not from here.

use javelin::service::{ServiceConfig, SolveRequest, SolveService};
use javelin::solver::Method;
use javelin::synth::grid::convection_diffusion_2d;
use javelin::synth::util::rhs_panel;
use std::sync::{Arc, Barrier};
use std::time::Instant;

struct Scenario {
    clients: usize,
    coalesced_sps: f64,
    serial_sps: f64,
    coalesced_columns: u64,
    coalesced_panels: u64,
}

/// Drives `clients` threads × `solves` requests each through `service`
/// and returns (solves/sec, coalesced_columns, coalesced_panels).
fn drive(
    service: &SolveService<f64>,
    a: &Arc<javelin::sparse::CsrMatrix<f64>>,
    clients: usize,
    solves: usize,
) -> (f64, u64, u64) {
    let n = a.nrows();
    let before = service.snapshot();
    let barrier = Arc::new(Barrier::new(clients + 1));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let client = service.client();
            let a = Arc::clone(a);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                // Per-client deterministic right-hand side; buffers are
                // recycled through the reply so the steady state is
                // allocation-free on the client side too.
                let mut b = rhs_panel(n, 1, 1000 + c as u64);
                let mut x = vec![0.0; n];
                barrier.wait();
                for _ in 0..solves {
                    loop {
                        let req = SolveRequest {
                            a: Arc::clone(&a),
                            b: std::mem::take(&mut b),
                            x: std::mem::take(&mut x),
                            method: Method::BatchGmres,
                        };
                        match client.solve(req) {
                            Ok(reply) => {
                                assert!(reply.result.converged, "loadgen solve diverged");
                                b = reply.b;
                                x = reply.x;
                                break;
                            }
                            Err(javelin::service::ServiceError::Overloaded { .. }) => {
                                // Bounded queue: back off and retry.
                                b = rhs_panel(n, 1, 1000 + c as u64);
                                x = vec![0.0; n];
                                std::thread::yield_now();
                            }
                            Err(e) => panic!("loadgen request failed: {e}"),
                        }
                    }
                }
            })
        })
        .collect();
    barrier.wait();
    let t0 = Instant::now();
    for h in handles {
        h.join().expect("client thread");
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    let after = service.snapshot();
    (
        (clients * solves) as f64 / secs,
        after.coalesced_columns - before.coalesced_columns,
        after.coalesced_panels - before.coalesced_panels,
    )
}

fn main() {
    let mut grid = 40usize;
    let mut solves = 64usize;
    let mut threads = 2usize;
    let mut engine_name = String::from("auto");
    let mut client_counts = vec![2usize, 4, 8];
    let mut json_out: Option<String> = None;

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--smoke" => {
                grid = 16;
                solves = 8;
                client_counts = vec![2];
            }
            "--grid" => grid = argv.next().expect("--grid N").parse().expect("grid"),
            "--solves" => solves = argv.next().expect("--solves N").parse().expect("solves"),
            "--threads" => threads = argv.next().expect("--threads T").parse().expect("threads"),
            "--engine" => engine_name = argv.next().expect("--engine auto|serial|p2p"),
            "--clients" => {
                client_counts = argv
                    .next()
                    .expect("--clients a,b,c")
                    .split(',')
                    .map(|s| s.parse().expect("client count"))
                    .collect();
            }
            "--json" => json_out = Some(argv.next().expect("--json PATH")),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: service_loadgen [--smoke] [--grid N] [--solves N] \
                     [--threads T] [--engine auto|serial|p2p] [--clients a,b,c] \
                     [--json PATH]"
                );
                std::process::exit(2);
            }
        }
    }

    let a = Arc::new(convection_diffusion_2d(grid, grid, 0.4, 0.2));
    let n = a.nrows();
    // The threaded persistent-team engine is where coalescing pays:
    // one point-to-point schedule walk per fused panel amortizes the
    // per-level synchronization across up to 8 tenants' columns, so
    // `--engine p2p` is the configuration the service runs in
    // production (multicore servers). `auto` defers to the analysis-
    // time hint, which falls back to serial when the thread count
    // oversubscribes the machine. Both modes always get the identical
    // configuration — the only variable is the batch window.
    let engine = match engine_name.as_str() {
        "auto" => None,
        "serial" => Some(javelin::core::options::SolveEngine::Serial),
        "p2p" => Some(javelin::core::options::SolveEngine::PointToPointLower),
        other => {
            eprintln!("unknown engine: {other} (want auto|serial|p2p)");
            std::process::exit(2);
        }
    };
    let engine_cfg = javelin::service::EngineConfig {
        ilu: javelin::core::IluOptions::ilu0(threads),
        engine,
        ..Default::default()
    };
    println!(
        "service loadgen: {n}×{n} convection–diffusion, {solves} solves/client, \
         {threads} solver threads, engine {engine_name}"
    );
    println!(
        "{:>8} {:>16} {:>16} {:>9} {:>14}",
        "clients", "coalesced s/s", "one-at-a-time", "speedup", "avg panel"
    );

    let mut scenarios = Vec::new();
    for &clients in &client_counts {
        // Coalescing dispatcher (default batch window).
        let service = SolveService::start(ServiceConfig {
            engine: engine_cfg.clone(),
            ..Default::default()
        });
        // Warm the cache so both modes measure steady-state serving,
        // not the one-off symbolic analysis.
        drive(&service, &a, clients, 1);
        let (coalesced_sps, cols, panels) = drive(&service, &a, clients, solves);
        service.shutdown();

        // Same stack, batch window forced to one request.
        let cfg = ServiceConfig {
            engine: engine_cfg.clone(),
            max_batch: 1,
            ..Default::default()
        };
        let service = SolveService::start(cfg);
        drive(&service, &a, clients, 1);
        let (serial_sps, _, _) = drive(&service, &a, clients, solves);
        service.shutdown();

        let avg_panel = if panels > 0 {
            cols as f64 / panels as f64
        } else {
            1.0
        };
        println!(
            "{clients:>8} {coalesced_sps:>16.1} {serial_sps:>16.1} {:>8.2}x {avg_panel:>14.2}",
            coalesced_sps / serial_sps
        );
        scenarios.push(Scenario {
            clients,
            coalesced_sps,
            serial_sps,
            coalesced_columns: cols,
            coalesced_panels: panels,
        });
    }

    if let Some(path) = json_out {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!(
            "  \"grid\": {grid}, \"n\": {n}, \"solves_per_client\": {solves}, \
             \"threads\": {threads}, \"engine\": \"{engine_name}\",\n"
        ));
        s.push_str("  \"scenarios\": [\n");
        for (i, sc) in scenarios.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"clients\": {}, \"coalesced_solves_per_sec\": {:.1}, \
                 \"serial_solves_per_sec\": {:.1}, \"speedup\": {:.3}, \
                 \"coalesced_columns\": {}, \"coalesced_panels\": {}}}{}\n",
                sc.clients,
                sc.coalesced_sps,
                sc.serial_sps,
                sc.coalesced_sps / sc.serial_sps,
                sc.coalesced_columns,
                sc.coalesced_panels,
                if i + 1 < scenarios.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        if path == "-" {
            print!("{s}");
        } else {
            std::fs::write(&path, s).expect("write json snapshot");
            println!("wrote {path}");
        }
    }

    // The loadgen is also a correctness gate: with enough concurrent
    // pattern-identical clients the dispatcher must actually coalesce.
    if let Some(sc) = scenarios.iter().find(|s| s.clients >= 8) {
        assert!(
            sc.coalesced_panels > 0 && sc.coalesced_columns > sc.coalesced_panels,
            "8-client run never fused a panel — coalescing is broken"
        );
    }
}
