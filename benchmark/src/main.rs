//! The repo's reference benchmark (see `benchmark/README.md`).
//!
//! ```text
//! javelin-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//!                   [--json PATH] [--smoke] [--selfcheck]
//! javelin-benchmark compare A.json[,A2.json,...] B.json[,B2.json,...]
//! ```
//!
//! With `--workload` one workload runs in this process and the last
//! line of standard output is the one-line result the driver reads.
//! Without it every workload runs in a process of its own (peak memory
//! is per workload) and the set is reported together.

mod harness;
mod host;
mod json;
mod layers;
mod metrics;
mod report;
mod stats;
mod trace;
mod workloads;

use harness::Config;
use json::Json;
use metrics::{Kind, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
    smoke: bool,
    selfcheck: bool,
}

fn usage() -> String {
    format!(
        "usage: javelin-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
         [--json PATH] [--smoke] [--selfcheck]\n       javelin-benchmark compare A.json[,A2.json,...] B.json[,B2.json,...]\n\
         workloads: {}",
        WORKLOADS.map(|(n, _)| n).join(", ")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 0,
        seconds: 10.0,
        trace: false,
        json: None,
        smoke: false,
        selfcheck: false,
    };
    let mut seconds_given = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if !WORKLOADS.iter().any(|(n, _)| *n == w) {
                    return Err(format!("unknown workload {w}"));
                }
                out.workload = Some(w);
            }
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                out.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
                seconds_given = true;
            }
            // `--trace` alone switches tracing on; the driver's form
            // `--trace 0|1` names the state.
            "--trace" => {
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--json" => out.json = Some(PathBuf::from(value("--json")?)),
            "--smoke" => out.smoke = true,
            "--selfcheck" => out.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.smoke && !seconds_given {
        out.seconds = 0.2;
    }
    Ok(out)
}

/// Where this build keeps its outputs: the target directory the binary
/// was built into (`<target>/release/javelin-benchmark`).
fn out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.to_path_buf()))
        .unwrap_or_else(|| PathBuf::from("."))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload in this process. Returns its document.
fn run_workload(args: &Args, workload: &str) -> Result<Json, String> {
    let cfg = Config {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
    };
    let out = workloads::run(&cfg);
    let kind = if cfg.trace {
        Kind::PerLayer
    } else {
        Kind::EndToEnd
    };
    let missing = out.values.missing(workload, kind);
    if out.check.failed == 0 && !missing.is_empty() {
        return Err(format!("{workload} did not report {missing:?}"));
    }
    let doc = report::workload_doc(&cfg, &out);
    report::print_workload(&doc);
    if cfg.trace {
        let path = out_dir().join(format!("trace-{workload}.json"));
        write_file(&path, &trace::chrome_trace(&out.spans, workload).pretty())?;
        println!(
            "   trace: {} spans ({} dropped) -> {}",
            out.spans.len(),
            out.spans_dropped,
            path.display()
        );
    }
    Ok(doc)
}

fn is_correct(doc: &Json) -> bool {
    doc.get("correct").and_then(Json::as_bool).unwrap_or(false)
}

/// Runs every workload, each in its own process, and returns the set.
fn run_set(args: &Args, label: &str) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut docs = Vec::new();
    for (workload, _) in WORKLOADS {
        let path = out_dir().join(format!("result-{label}-{workload}.json"));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--json")
            .arg(&path);
        if args.smoke {
            cmd.arg("--smoke");
        }
        // `status` waits for the child; its report streams through.
        let status = cmd.status().map_err(|e| format!("spawn {workload}: {e}"))?;
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("{workload} (exit {status}) left no result: {e}"))?;
        docs.push((workload, Json::parse(&text)?));
    }
    Ok(Json::obj([("workloads", Json::obj(docs))]))
}

fn metric_value(set: &Json, workload: &str, metric: &str) -> Option<f64> {
    set.get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn all_correct(set: &Json) -> bool {
    set.get("workloads")
        .map_or(&[][..], Json::fields)
        .iter()
        .all(|(_, doc)| is_correct(doc))
}

fn main_inner(argv: &[String]) -> Result<bool, String> {
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv else {
            return Err(usage());
        };
        // Each side is one result file or several, comma-separated:
        // the runs of one side are pooled before the comparison.
        let load = |side: &String| -> Result<Json, String> {
            let runs: Result<Vec<Json>, String> = side
                .split(',')
                .map(|p| {
                    std::fs::read_to_string(p)
                        .map_err(|e| format!("{p}: {e}"))
                        .and_then(|t| Json::parse(&t).map_err(|e| format!("{p}: {e}")))
                })
                .collect();
            Ok(report::pool(&runs?))
        };
        let (regressed, unresolved) = report::compare(&load(a)?, &load(b)?, false);
        println!("{regressed} regressed, {unresolved} unresolved");
        return Ok(regressed == 0);
    }
    let args = parse_args(argv).map_err(|e| format!("{e}\n{}", usage()))?;

    if let Some(workload) = &args.workload {
        let doc = run_workload(&args, workload)?;
        if let Some(path) = &args.json {
            write_file(path, &doc.pretty())?;
        }
        println!("{}", report::contract_line(&doc));
        return Ok(is_correct(&doc));
    }

    if args.selfcheck {
        return selfcheck(&args);
    }
    let set = run_set(&args, "a")?;
    let ok = all_correct(&set);
    if let (Some(serial), Some(team)) = (
        metric_value(&set, metrics::PDE3D_SERIAL, "solve_s"),
        metric_value(&set, metrics::PDE3D_TEAM2, "solve_s"),
    ) {
        println!(
            "derived (not gated): pde3d-serial.solve_s / pde3d-team2.solve_s = {:.4} (base {serial:.4} s)",
            serial / team
        );
    }
    if let Some(path) = &args.json {
        write_file(path, &set.pretty())?;
    }
    Ok(ok)
}

/// Pairs of set runs the A/A self-check makes. One run's median sits
/// inside a phase of the machine (a noisy neighbour slows memory-bound
/// work for tens of seconds); three interleaved pairs see several.
const SELFCHECK_PAIRS: usize = 3;

/// A/A: the same commit, seed and settings as sides A and B, run in
/// alternation, pooled per side and compared against the bounds.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for pair in 0..SELFCHECK_PAIRS {
        a.push(run_set(args, &format!("a{pair}"))?);
        b.push(run_set(args, &format!("b{pair}"))?);
    }
    let correct = a.iter().chain(&b).all(all_correct);
    let (a, b) = (report::pool(&a), report::pool(&b));
    println!("== selfcheck: {SELFCHECK_PAIRS} alternating pairs of runs of the same set, pooled per side");
    let (beyond, unresolved) = report::compare(&a, &b, true);
    println!(
        "selfcheck: {beyond} rows beyond their bound or with differing exact counts, {unresolved} unresolved"
    );
    if let Some(path) = &args.json {
        write_file(path, &a.pretty())?;
    }
    Ok(correct && beyond + unresolved == 0)
}

fn main() -> ExitCode {
    host::nproc(); // read before anything can pin this thread
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("javelin-benchmark: a correctness check or a comparison failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("javelin-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
