//! Result documents: building them from a run, printing them, and
//! comparing two of them (`compare`, `--selfcheck`).
//!
//! One workload's document:
//! `{"header": {...}, "correct", "attempted", "failed", "failures": [...],
//!   "metrics": {name: {"value", "unit", "kind", "better", "bound"?, "q1"?, "q3"?, "n"?}}}`.
//! A set is `{"workloads": {name: document, ...}}`.

use crate::harness::{Config, Outcome};
use crate::host;
use crate::json::Json;
use crate::metrics::{def, Better, Kind, METRICS};
use crate::stats;

/// The full document of one workload run.
pub fn workload_doc(cfg: &Config, out: &Outcome) -> Json {
    let (kind, kind_name) = if cfg.trace {
        (Kind::PerLayer, "per_layer")
    } else {
        (Kind::EndToEnd, "end_to_end")
    };
    let mut header = host::header();
    header.extend([
        ("workload".to_string(), Json::str(&cfg.workload)),
        ("seed".to_string(), Json::Num(cfg.seed as f64)),
        ("seconds".to_string(), Json::Num(cfg.seconds)),
        ("trace".to_string(), Json::Bool(cfg.trace)),
        ("smoke".to_string(), Json::Bool(cfg.smoke)),
        (
            "oversubscribed".to_string(),
            Json::Bool(out.nthreads > host::nproc()),
        ),
    ]);
    header.extend(out.facts.iter().cloned());
    let metrics = METRICS
        .iter()
        .filter(|m| m.kind == kind)
        .filter_map(|m| out.values.get(m.name).map(|v| (m, v)))
        .map(|(m, v)| {
            let mut fields = vec![
                ("value", Json::Num(v.value)),
                ("unit", Json::str(m.unit)),
                ("kind", Json::str(kind_name)),
                ("better", Json::str(m.better.as_str())),
            ];
            match kind {
                Kind::EndToEnd => fields.push(("bound", Json::Num(m.bound))),
                Kind::PerLayer => fields.push(("moves", Json::str(m.moves))),
            }
            if let Some(s) = v.summary {
                fields.extend([
                    ("q1", Json::Num(s.q1)),
                    ("q3", Json::Num(s.q3)),
                    ("n", Json::Num(s.n as f64)),
                ]);
            }
            (m.name, Json::obj(fields))
        });
    Json::obj([
        ("header", Json::Obj(header)),
        ("correct", Json::Bool(out.check.failed == 0)),
        ("attempted", Json::Num(out.check.attempted as f64)),
        ("failed", Json::Num(out.check.failed as f64)),
        (
            "failures",
            Json::Arr(out.check.messages.iter().map(Json::str).collect()),
        ),
        ("metrics", Json::obj(metrics)),
    ])
}

/// The one-line result the driver reads: exactly the metrics that
/// `BENCHMARK.json` lists for this kind of run.
pub fn contract_line(doc: &Json) -> String {
    let metrics = doc.get("metrics").map_or(&[][..], Json::fields);
    let listed = metrics
        .iter()
        .filter(|(name, _)| def(name).is_some_and(|m| m.only.is_empty()))
        .map(|(name, m)| {
            let field = |k: &str| m.get(k).cloned().unwrap_or(Json::Null);
            (
                name.clone(),
                Json::obj([("value", field("value")), ("unit", field("unit"))]),
            )
        });
    Json::obj([
        (
            "correct",
            doc.get("correct").cloned().unwrap_or(Json::Bool(false)),
        ),
        (
            "attempted",
            doc.get("attempted").cloned().unwrap_or(Json::Num(0.0)),
        ),
        (
            "failed",
            doc.get("failed").cloned().unwrap_or(Json::Num(0.0)),
        ),
        ("metrics", Json::obj(listed)),
    ])
    .encode()
}

fn num(j: &Json, key: &str) -> Option<f64> {
    j.get(key).and_then(Json::as_f64)
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 0.01 && v.abs() < 1e6 {
        format!("{v:.4}")
    } else {
        format!("{v:.4e}")
    }
}

/// Prints one workload's document: every metric by name with its unit.
pub fn print_workload(doc: &Json) {
    let header = doc.get("header");
    let h = |k: &str| header.and_then(|h| h.get(k));
    let hs = |k: &str| h(k).and_then(Json::as_str).unwrap_or("?").to_string();
    let hn = |k: &str| h(k).and_then(Json::as_f64).map_or("?".into(), fmt_value);
    let flag = |k: &str| h(k).and_then(Json::as_bool).unwrap_or(false);
    println!(
        "== {} | seed {} | {} s | {}{} | n = {}, nnz = {}, nthreads = {}{}",
        hs("workload"),
        hn("seed"),
        hn("seconds"),
        if flag("trace") { "traced" } else { "untraced" },
        if flag("smoke") { ", smoke sizes" } else { "" },
        hn("n"),
        hn("nnz"),
        hn("nthreads"),
        if flag("oversubscribed") {
            " | OVERSUBSCRIBED: wall-clock values are not comparable"
        } else {
            ""
        },
    );
    println!(
        "   commit {} | {} | features {} | {} | nproc {} | L2 {} B | LLC {} B",
        hs("commit"),
        hs("rustc"),
        hs("cargo_features"),
        hs("cpu_model"),
        hn("nproc"),
        hn("l2_bytes"),
        hn("llc_bytes"),
    );
    for (name, m) in doc.get("metrics").map_or(&[][..], Json::fields) {
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        let mut line = format!(
            "   {name:<34} {:>14} {unit:<6}",
            num(m, "value").map_or("nan".into(), fmt_value)
        );
        if let (Some(q1), Some(q3), Some(n)) = (num(m, "q1"), num(m, "q3"), num(m, "n")) {
            line.push_str(&format!(
                " q1 {} q3 {} n {n:.0}",
                fmt_value(q1),
                fmt_value(q3)
            ));
        }
        if let Some(bound) = num(m, "bound") {
            let better = m.get("better").and_then(Json::as_str).unwrap_or("");
            line.push_str(&format!(
                " | {better} is better, bound {:.0}%",
                bound * 100.0
            ));
        }
        if let Some(moves) = m.get("moves").and_then(Json::as_str).filter(|m| *m != "-") {
            line.push_str(&format!(" | moves {moves}"));
        }
        println!("{line}");
    }
    let (attempted, failed) = (
        num(doc, "attempted").unwrap_or(0.0),
        num(doc, "failed").unwrap_or(0.0),
    );
    println!(
        "   checks: {attempted:.0} operations attempted, {failed:.0} failed (failed_frac = {})",
        fmt_value(if attempted > 0.0 {
            failed / attempted
        } else {
            1.0
        })
    );
    if let Some(Json::Arr(failures)) = doc.get("failures") {
        for f in failures {
            println!("   FAILED: {}", f.as_str().unwrap_or("?"));
        }
    }
}

/// Verdict of `compare` for one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
    /// A layer metric: no bound, shown for attribution only.
    Info,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// One side of a comparison: a median and, when it came from repeated
/// samples, its quartiles.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub median: f64,
    pub quartiles: Option<(f64, f64)>,
}

impl Side {
    fn of(m: &Json) -> Option<Side> {
        Some(Side {
            median: num(m, "value")?,
            quartiles: num(m, "q1").zip(num(m, "q3")),
        })
    }

    /// Interquartile range as a share of the median, when known.
    fn rel_spread(&self) -> Option<f64> {
        let (q1, q3) = self.quartiles?;
        Some(if self.median == 0.0 {
            0.0
        } else {
            (q3 - q1) / self.median.abs()
        })
    }
}

/// How much worse `b` is than `a` as a share of `a` (negative when it
/// is better), in the metric's own direction.
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let change = (b - a) / a.abs();
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// The rule later performance issues quote: *unresolved* when the
/// baseline's own quartile spread exceeds the bound, *regressed* when B
/// is worse than A by more than the bound, *improved* when it is better
/// by more than the baseline's spread (by more than the bound, for a
/// value that has no quartiles to judge its noise by), else
/// *unchanged*.
pub fn verdict(a: Side, b: Side, better: Better, bound: f64) -> Verdict {
    let noise = a.rel_spread().unwrap_or(bound);
    let worse = worsening(a.median, b.median, better);
    if noise > bound || !worse.is_finite() {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if -worse > noise {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Pools several runs of one side into one set: per (workload, metric)
/// the median of the runs' values with the quartiles *across runs* —
/// the spread that matters when two sides are compared — and the
/// values themselves under `runs`, for the pairwise tally. A single run
/// is returned as it is, with its within-run quartiles.
pub fn pool(runs: &[Json]) -> Json {
    let [first, rest @ ..] = runs else {
        return Json::obj([("workloads", Json::obj::<String>([]))]);
    };
    if rest.is_empty() {
        return first.clone();
    }
    let workloads = workloads_of(first).iter().map(|(workload, doc)| {
        let metrics = doc.get("metrics").map_or(&[][..], Json::fields);
        let pooled = metrics.iter().map(|(name, m)| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|run| {
                    num(
                        run.get("workloads")?
                            .get(workload)?
                            .get("metrics")?
                            .get(name)?,
                        "value",
                    )
                })
                .collect();
            let s = stats::summarize(&values);
            let mut fields: Vec<(String, Json)> = m
                .fields()
                .iter()
                .filter(|(k, _)| !matches!(k.as_str(), "value" | "q1" | "q3" | "n"))
                .cloned()
                .collect();
            fields.extend([
                ("value".to_string(), Json::Num(s.median)),
                ("q1".to_string(), Json::Num(s.q1)),
                ("q3".to_string(), Json::Num(s.q3)),
                ("n".to_string(), Json::Num(s.n as f64)),
                (
                    "runs".to_string(),
                    Json::Arr(values.into_iter().map(Json::Num).collect()),
                ),
            ]);
            (name.clone(), Json::Obj(fields))
        });
        let mut doc_fields: Vec<(String, Json)> = doc
            .fields()
            .iter()
            .filter(|(k, _)| k != "metrics")
            .cloned()
            .collect();
        doc_fields.push(("metrics".to_string(), Json::obj(pooled)));
        (workload.clone(), Json::Obj(doc_fields))
    });
    Json::obj([("workloads", Json::obj(workloads))])
}

/// Of the runs paired by position, in how many B was better than A
/// (ties count for neither). `None` unless both sides carry the same
/// number (> 1) of runs.
fn pair_wins(ma: &Json, mb: &Json, better: Better) -> Option<(usize, usize)> {
    let runs = |m: &Json| match m.get("runs") {
        Some(Json::Arr(v)) => Some(v.iter().filter_map(Json::as_f64).collect::<Vec<_>>()),
        _ => None,
    };
    let (ra, rb) = (runs(ma)?, runs(mb)?);
    if ra.len() != rb.len() || ra.len() < 2 {
        return None;
    }
    let wins = ra
        .iter()
        .zip(&rb)
        .filter(|(a, b)| worsening(**a, **b, better) < 0.0)
        .count();
    Some((wins, ra.len()))
}

fn workloads_of(set: &Json) -> &[(String, Json)] {
    set.get("workloads").map_or(&[][..], Json::fields)
}

/// Prints one row per (workload, metric) present in both sets and
/// returns how many rows regressed and how many end-to-end rows were
/// unresolved. With `same_commit` (the A/A self-check) a gap beyond the
/// bound counts in either direction, and layer metrics counted in whole
/// operations must be identical on both sides.
pub fn compare(a: &Json, b: &Json, same_commit: bool) -> (usize, usize) {
    println!(
        "{:<16} {:<34} {:>10} {:>21} {:>10} {:>21} {:>8}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "B/A"
    );
    let (mut regressed, mut unresolved) = (0, 0);
    for (workload, doc_a) in workloads_of(a) {
        let Some(doc_b) = b.get("workloads").and_then(|w| w.get(workload)) else {
            continue;
        };
        let over = |d: &Json| {
            d.get("header")
                .and_then(|h| h.get("oversubscribed"))
                .and_then(Json::as_bool)
                .unwrap_or(false)
        };
        let oversubscribed = over(doc_a) || over(doc_b);
        for (name, ma) in doc_a.get("metrics").map_or(&[][..], Json::fields) {
            let (Some(m), Some(mb)) = (def(name), doc_b.get("metrics").and_then(|m| m.get(name)))
            else {
                continue;
            };
            let (Some(sa), Some(sb)) = (Side::of(ma), Side::of(mb)) else {
                continue;
            };
            let mut v = match m.kind {
                Kind::EndToEnd => verdict(sa, sb, m.better, m.bound),
                Kind::PerLayer => Verdict::Info,
            };
            let is_count = m.unit == "count";
            if oversubscribed && !is_count {
                v = Verdict::Unresolved;
            }
            if same_commit {
                let gap = worsening(sa.median, sb.median, m.better).abs();
                let differs = match m.kind {
                    Kind::EndToEnd => v != Verdict::Unresolved && gap > m.bound,
                    Kind::PerLayer => is_count && sa.median != sb.median,
                };
                if differs {
                    v = Verdict::Regressed;
                }
            }
            match (m.kind, v) {
                (_, Verdict::Regressed) => regressed += 1,
                (Kind::EndToEnd, Verdict::Unresolved) => unresolved += 1,
                _ => {}
            }
            let range = |s: Side| {
                s.quartiles.map_or("-".to_string(), |(q1, q3)| {
                    format!("{}..{}", fmt_value(q1), fmt_value(q3))
                })
            };
            println!(
                "{workload:<16} {name:<34} {:>10} {:>21} {:>10} {:>21} {:>8.4}  {}{}",
                fmt_value(sa.median),
                range(sa),
                fmt_value(sb.median),
                range(sb),
                sb.median / sa.median,
                v.as_str(),
                if m.kind == Kind::EndToEnd {
                    format!(
                        " (worsening {:+.1}% of A = {} {}, bound {:.0}%{})",
                        100.0 * worsening(sa.median, sb.median, m.better),
                        fmt_value(sa.median),
                        m.unit,
                        100.0 * m.bound,
                        pair_wins(ma, mb, m.better).map_or(String::new(), |(w, n)| format!(
                            ", B better in {w}/{n} pairs"
                        ))
                    )
                } else {
                    String::new()
                }
            );
        }
    }
    (regressed, unresolved)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(median: f64, q1: f64, q3: f64) -> Side {
        Side {
            median,
            quartiles: Some((q1, q3)),
        }
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let a = side(1.0, 0.98, 1.02); // spread 4 %
        let lower = Better::Lower;
        assert_eq!(
            verdict(a, side(1.2, 1.2, 1.2), lower, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(a, side(1.05, 1.05, 1.05), lower, 0.1),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(a, side(0.97, 0.97, 0.97), lower, 0.1),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(a, side(0.9, 0.9, 0.9), lower, 0.1),
            Verdict::Improved
        );
        // A baseline noisier than the bound resolves nothing.
        let noisy = side(1.0, 0.9, 1.1);
        assert_eq!(
            verdict(noisy, side(0.5, 0.5, 0.5), lower, 0.1),
            Verdict::Unresolved
        );
        // A single value has no quartiles: only a change beyond the
        // bound says anything.
        let single = Side {
            median: 1.0,
            quartiles: None,
        };
        assert_eq!(
            verdict(single, side(0.95, 0.95, 0.95), lower, 0.1),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(single, side(0.85, 0.85, 0.85), lower, 0.1),
            Verdict::Improved
        );
        assert_eq!(
            verdict(single, side(1.15, 1.15, 1.15), lower, 0.1),
            Verdict::Regressed
        );
        // Direction: more requests per second is better.
        let higher = Better::Higher;
        assert_eq!(
            verdict(a, side(0.8, 0.8, 0.8), higher, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(a, side(1.3, 1.3, 1.3), higher, 0.1),
            Verdict::Improved
        );
        assert!((worsening(2.0, 1.0, higher) - 0.5).abs() < 1e-12);
        assert!((worsening(2.0, 1.0, lower) + 0.5).abs() < 1e-12);
    }

    fn run_with(solve_s: f64) -> Json {
        let metric = Json::obj([
            ("value", Json::Num(solve_s)),
            ("unit", Json::str("s")),
            ("q1", Json::Num(solve_s)),
            ("q3", Json::Num(solve_s)),
            ("n", Json::Num(9.0)),
        ]);
        let doc = Json::obj([
            ("header", Json::obj([("seed", Json::Num(0.0))])),
            ("metrics", Json::obj([("solve_s", metric)])),
        ]);
        Json::obj([("workloads", Json::obj([("pde3d-serial", doc)]))])
    }

    #[test]
    fn pooling_takes_quartiles_across_runs_and_tallies_pairs() {
        let single = run_with(1.0);
        assert_eq!(pool(std::slice::from_ref(&single)), single);
        let a = pool(&[run_with(1.0), run_with(3.0), run_with(2.0)]);
        let m = a.get("workloads").unwrap().get("pde3d-serial").unwrap();
        assert!(m.get("header").is_some());
        let m = m.get("metrics").unwrap().get("solve_s").unwrap();
        assert_eq!(num(m, "value"), Some(2.0));
        assert_eq!(
            (num(m, "q1"), num(m, "q3"), num(m, "n")),
            (Some(1.0), Some(3.0), Some(3.0))
        );
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
        let b = pool(&[run_with(0.5), run_with(3.5), run_with(1.0)]);
        let mb = b.get("workloads").unwrap().get("pde3d-serial").unwrap();
        let mb = mb.get("metrics").unwrap().get("solve_s").unwrap();
        assert_eq!(pair_wins(m, mb, Better::Lower), Some((2, 3)));
        assert_eq!(pair_wins(m, mb, Better::Higher), Some((1, 3)));
        assert_eq!(pair_wins(m, &run_with(1.0), Better::Lower), None);
    }

    #[test]
    fn contract_line_keeps_only_listed_metrics() {
        let doc = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(3.0)),
            ("failed", Json::Num(0.0)),
            (
                "metrics",
                Json::obj([
                    (
                        "setup_s",
                        Json::obj([
                            ("value", Json::Num(0.5)),
                            ("unit", Json::str("s")),
                            ("n", Json::Num(5.0)),
                        ]),
                    ),
                    (
                        "sweep_scenarios_per_s",
                        Json::obj([("value", Json::Num(9.0)), ("unit", Json::str("1/s"))]),
                    ),
                ]),
            ),
        ]);
        let line = contract_line(&doc);
        assert!(!line.contains('\n'));
        let back = Json::parse(&line).unwrap();
        let keys: Vec<&str> = back.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = back.get("metrics").unwrap();
        assert_eq!(metrics.fields().len(), 1);
        assert_eq!(
            metrics.get("setup_s").unwrap().encode(),
            r#"{"value": 0.5, "unit": "s"}"#
        );
    }
}
