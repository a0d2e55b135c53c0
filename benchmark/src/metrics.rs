//! The benchmark's vocabulary: every workload and metric by name, with
//! unit, direction, regression bound and — for layer metrics — the
//! end-to-end metric it is expected to move. `BENCHMARK.json` lists the
//! metrics every workload reports (`only` empty); a unit test keeps the
//! two in step.

use crate::stats::Summary;

pub const PDE3D_SERIAL: &str = "pde3d-serial";
pub const PDE3D_TEAM2: &str = "pde3d-team2";
pub const CIRCUIT_STEPPER: &str = "circuit-stepper";
pub const SERVICE_PANEL: &str = "service-panel";

/// `(name, why)` of the four workloads, in report order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        PDE3D_SERIAL,
        "single-thread ILU(0)+BiCGSTAB on an out-of-L2 3-D PDE: trisolve/spmv/vecops streaming, no sync",
    ),
    (
        PDE3D_TEAM2,
        "the same system on a pinned 2-thread team: team regions, counters and the p2p engine do the work",
    ),
    (
        CIRCUIT_STEPPER,
        "irregular circuit matrix, ILU(1), values change every step: numeric refactor and the k=8 sweep dominate",
    ),
    (
        SERVICE_PANEL,
        "closed-loop Engine::process batches of mixed width: fingerprint, cache, refactor and panel kernels",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    PerLayer,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// Share of the baseline median by which the metric may worsen
    /// before it counts as a regression (end-to-end metrics only).
    pub bound: f64,
    /// Workloads that report it; empty means all four.
    pub only: &'static [&'static str],
    /// For a layer metric: the end-to-end metrics it should move.
    pub moves: &'static str,
}

impl MetricDef {
    pub fn applies_to(&self, workload: &str) -> bool {
        self.only.is_empty() || self.only.contains(&workload)
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    only: &'static [&'static str],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::EndToEnd,
        bound,
        only,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    only: &'static [&'static str],
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::PerLayer,
        bound: 0.0,
        only,
        moves,
    }
}

use Better::{Higher, Lower};

const ALL: &[&str] = &[];
const SERVICE: &[&str] = &[SERVICE_PANEL];
const CIRCUIT: &[&str] = &[CIRCUIT_STEPPER];
const TEAM2: &[&str] = &[PDE3D_TEAM2];

const SOLVE: &str = "solve_s, step_s";
const NUMERIC: &str = "refactor_s, step_s, sweep_scenarios_per_s, requests_per_s";
const SETUP: &str = "setup_s";
const SERVICE_E2E: &str = "requests_per_s, request_latency_*, step_s (service-panel)";
const SYNC: &str = "solve_s, refactor_s (pde3d-team2 only)";
const NONE: &str = "-";

/// Every metric the benchmark reports, end-to-end first.
pub const METRICS: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25, ALL),
    e2e("refactor_s", "s", Lower, 0.25, ALL),
    e2e("solve_s", "s", Lower, 0.25, ALL),
    e2e("step_s", "s", Lower, 0.25, ALL),
    e2e("requests_per_s", "1/s", Higher, 0.25, ALL),
    e2e("request_latency_p50_ms", "ms", Lower, 0.25, ALL),
    e2e("peak_rss_mib", "MiB", Lower, 0.1, ALL),
    e2e("request_latency_p95_ms", "ms", Lower, 0.25, SERVICE),
    e2e("sweep_scenarios_per_s", "1/s", Higher, 0.25, CIRCUIT),
    // host: facts and roofline denominators.
    layer("host.nproc", "count", Higher, ALL, NONE),
    layer("host.l2_bytes", "B", Higher, ALL, NONE),
    layer("host.llc_bytes", "B", Higher, ALL, NONE),
    layer("host.triad_gbs", "GB/s", Higher, ALL, NONE),
    layer("host.triad_ws_gbs", "GB/s", Higher, ALL, NONE),
    // sparse
    layer("sparse.dot_s", "s", Lower, ALL, SOLVE),
    layer("sparse.axpy_s", "s", Lower, ALL, SOLVE),
    layer("sparse.axpy_gbs", "GB/s", Higher, ALL, SOLVE),
    layer("sparse.fingerprint_s", "s", Lower, ALL, SERVICE_E2E),
    // sync, at the workload's thread count
    layer("sync.region_dispatch_us", "us", Lower, ALL, SYNC),
    layer("sync.barrier_us", "us", Lower, ALL, SYNC),
    layer("sync.p2p_handoff_us", "us", Lower, ALL, SYNC),
    // level
    layer("level.n_levels", "count", Lower, ALL, NONE),
    layer("level.n_upper_levels", "count", Lower, ALL, NONE),
    layer("level.n_lower_rows", "count", Lower, ALL, NONE),
    layer("level.n_waits", "count", Lower, ALL, SYNC),
    layer("level.n_raw_deps", "count", Lower, ALL, NONE),
    layer("level.wait_sparsification", "ratio", Higher, ALL, SYNC),
    layer("level.build_s", "s", Lower, ALL, SETUP),
    // core
    layer("core.analyze_s", "s", Lower, ALL, SETUP),
    layer("core.factor_s", "s", Lower, ALL, SETUP),
    layer("core.analyze_unattributed_s", "s", Lower, ALL, SETUP),
    layer("core.refactor_s", "s", Lower, ALL, NUMERIC),
    layer("core.refactor_gbs", "GB/s", Higher, ALL, NUMERIC),
    layer("core.refactor_batch_k8_s", "s", Lower, ALL, NUMERIC),
    layer("core.apply_s", "s", Lower, ALL, SOLVE),
    layer("core.apply_serial_s", "s", Lower, ALL, SOLVE),
    layer("core.trisolve_forward_s", "s", Lower, ALL, SOLVE),
    layer("core.trisolve_backward_s", "s", Lower, ALL, SOLVE),
    layer("core.apply_gbs", "GB/s", Higher, ALL, SOLVE),
    layer("core.apply_frac_of_triad", "ratio", Higher, ALL, SOLVE),
    layer("core.spmv_s", "s", Lower, ALL, SOLVE),
    layer("core.spmv_gbs", "GB/s", Higher, ALL, SOLVE),
    layer("core.spmv_frac_of_triad", "ratio", Higher, ALL, SOLVE),
    layer("core.apply_panel_k8_s", "s", Lower, ALL, SERVICE_E2E),
    layer(
        "core.apply_panel_k8_per_col_s",
        "s",
        Lower,
        ALL,
        SERVICE_E2E,
    ),
    layer("core.spmv_panel_k8_s", "s", Lower, ALL, SERVICE_E2E),
    layer("core.precond_calls", "count", Lower, ALL, SOLVE),
    layer("core.precond_busy_s", "s", Lower, ALL, SOLVE),
    layer("core.nnz_lu", "count", Lower, ALL, NONE),
    layer("core.fill_ratio", "ratio", Lower, ALL, NONE),
    layer("core.shift_attempts", "count", Lower, ALL, NONE),
    // solver
    layer("solver.iterations", "count", Lower, ALL, SOLVE),
    layer("solver.rel_residual", "ratio", Lower, ALL, NONE),
    layer("solver.self_s", "s", Lower, ALL, SOLVE),
    layer("solver.self_frac", "ratio", Lower, ALL, SOLVE),
    layer("solver.spmv_est_s", "s", Lower, ALL, SOLVE),
    layer("solver.vecops_est_s", "s", Lower, ALL, SOLVE),
    layer("solver.k1_panel_overhead", "ratio", Lower, ALL, SOLVE),
    // service
    layer("service.wire_encode_s", "s", Lower, ALL, NONE),
    layer("service.wire_decode_s", "s", Lower, ALL, NONE),
    layer("service.wire_bytes_per_req", "B", Lower, ALL, NONE),
    layer(
        "service.cache_hit_ratio",
        "ratio",
        Higher,
        SERVICE,
        SERVICE_E2E,
    ),
    layer("service.cache_misses", "count", Lower, SERVICE, SERVICE_E2E),
    layer("service.refactors", "count", Lower, SERVICE, SERVICE_E2E),
    layer(
        "service.coalesced_col_frac",
        "ratio",
        Higher,
        SERVICE,
        SERVICE_E2E,
    ),
    layer(
        "service.mean_panel_width",
        "count",
        Higher,
        SERVICE,
        SERVICE_E2E,
    ),
    layer("service.hit_overhead_s", "s", Lower, SERVICE, SERVICE_E2E),
    layer(
        "service.miss_batch_s",
        "s",
        Lower,
        SERVICE,
        "setup_s (service-panel)",
    ),
    layer("service.retries", "count", Lower, SERVICE, NONE),
    layer("service.rejected", "count", Lower, SERVICE, NONE),
    // session
    layer("session.setup_cold_s", "s", Lower, ALL, SETUP),
    layer("session.build_unattributed_s", "s", Lower, ALL, SETUP),
    layer(
        "session.sweep_s",
        "s",
        Lower,
        CIRCUIT,
        "sweep_scenarios_per_s",
    ),
    // machine: simulator against measurement
    layer("machine.sim_apply_speedup_2t", "ratio", Higher, TEAM2, NONE),
    layer(
        "machine.measured_apply_speedup_2t",
        "ratio",
        Higher,
        TEAM2,
        NONE,
    ),
    layer("machine.sim_rel_err", "ratio", Lower, TEAM2, NONE),
    // trace
    layer("trace.overhead_frac", "ratio", Lower, ALL, NONE),
];

pub fn def(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

/// One measured value; `summary` is present when it is the median of
/// repeated samples.
#[derive(Debug, Clone)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub summary: Option<Summary>,
}

/// The values one run produced, checked against the vocabulary.
#[derive(Debug, Default)]
pub struct Values(pub Vec<Value>);

impl Values {
    fn push(&mut self, name: &str, value: f64, summary: Option<Summary>) {
        let d = def(name).unwrap_or_else(|| panic!("metric {name} is not in the vocabulary"));
        assert!(
            self.get(name).is_none(),
            "metric {name} reported twice in one run"
        );
        self.0.push(Value {
            name: d.name,
            value,
            summary,
        });
    }

    /// A single measurement, count or computed figure.
    pub fn put(&mut self, name: &str, value: f64) {
        self.push(name, value, None);
    }

    /// The median of repeated samples, keeping quartiles and count.
    pub fn put_samples(&mut self, name: &str, samples: &[f64]) {
        let s = crate::stats::summarize(samples);
        self.push(name, s.median, Some(s));
    }

    pub fn get(&self, name: &str) -> Option<&Value> {
        self.0.iter().find(|v| v.name == name)
    }

    /// The metrics of `kind` that `workload` must report but did not.
    pub fn missing(&self, workload: &str, kind: Kind) -> Vec<&'static str> {
        METRICS
            .iter()
            .filter(|m| m.kind == kind && m.applies_to(workload) && self.get(m.name).is_none())
            .map(|m| m.name)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn vocabulary_is_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in METRICS {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                m.name,
                m.unit
            );
            match m.kind {
                Kind::EndToEnd => assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name),
                Kind::PerLayer => assert!(!m.moves.is_empty(), "{}", m.name),
            }
            for w in m.only {
                assert!(WORKLOADS.iter().any(|(n, _)| n == w), "{}: {w}", m.name);
            }
        }
        for (name, why) in WORKLOADS {
            assert!(valid_name(name));
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_every_workload_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            _ => panic!("{key} is not a list"),
        };
        let field = |item: &Json, key: &str| item.get(key).and_then(Json::as_str).map(String::from);
        let workloads: Vec<_> = list("workloads")
            .iter()
            .map(|w| (field(w, "name").unwrap(), field(w, "why").unwrap()))
            .collect();
        let ours: Vec<_> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, ours);
        for (key, kind) in [
            ("end_to_end", Kind::EndToEnd),
            ("per_layer", Kind::PerLayer),
        ] {
            let listed: Vec<_> = list(key)
                .iter()
                .map(|m| {
                    (
                        field(m, "name").unwrap(),
                        field(m, "unit").unwrap(),
                        field(m, "better").unwrap(),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect();
            let ours: Vec<_> = METRICS
                .iter()
                .filter(|m| m.kind == kind && m.only.is_empty())
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.as_str().to_string(),
                        (kind == Kind::EndToEnd).then_some(m.bound),
                    )
                })
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        assert!(METRICS
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
    }

    #[test]
    fn values_track_what_is_missing() {
        let mut v = Values::default();
        v.put("setup_s", 1.0);
        v.put_samples("solve_s", &[1.0, 3.0, 2.0]);
        assert_eq!(v.get("solve_s").unwrap().value, 2.0);
        assert_eq!(v.get("solve_s").unwrap().summary.unwrap().n, 3);
        let missing = v.missing(PDE3D_SERIAL, Kind::EndToEnd);
        assert!(missing.contains(&"step_s") && !missing.contains(&"setup_s"));
        assert!(!missing.contains(&"sweep_scenarios_per_s"));
        assert!(v
            .missing(CIRCUIT_STEPPER, Kind::EndToEnd)
            .contains(&"sweep_scenarios_per_s"));
    }
}
