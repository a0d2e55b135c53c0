//! Shared infrastructure: suite preparation (the paper's DM + ND
//! preordering pipeline), timing, text tables, and report output.

use javelin_core::{factorize, ApplyScratch, IluFactors, IluOptions, SolveEngine};
use javelin_order::{dm::dm_row_permutation, nested_dissection_order};
use javelin_sparse::{CsrMatrix, Perm};
use javelin_synth::suite::{Scale, SuiteMatrix};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// A suite matrix taken through the paper's preprocessing pipeline:
/// maximum transversal (zero-free diagonal) followed by nested
/// dissection.
pub(crate) struct PreparedMatrix {
    /// Suite metadata (names, group, paper statistics).
    pub meta: SuiteMatrix,
    /// The preordered matrix handed to the factorization.
    pub matrix: CsrMatrix<f64>,
}

/// Reads the benchmark scale from `JAVELIN_SCALE` (`tiny` or
/// `standard`, default standard).
pub fn scale_from_env() -> Scale {
    match std::env::var("JAVELIN_SCALE").as_deref() {
        Ok("tiny") => Scale::Tiny,
        _ => Scale::Standard,
    }
}

/// Builds and preorders one suite matrix (paper §IV "Preordering":
/// Dulmage–Mendelsohn to the diagonal, then nested dissection).
pub(crate) fn prepare(meta: SuiteMatrix, scale: Scale) -> PreparedMatrix {
    let a = meta.build_at(scale);
    let matrix = preorder_dm_nd(&a);
    PreparedMatrix { meta, matrix }
}

/// Applies the DM + ND pipeline to an arbitrary matrix.
pub fn preorder_dm_nd(a: &CsrMatrix<f64>) -> CsrMatrix<f64> {
    // Zero-free diagonal (no-op for matrices that already have one).
    let rowp = dm_row_permutation(a).expect("square suite matrices");
    let a = a
        .permute(&rowp, &Perm::identity(a.ncols()))
        .expect("row permutation fits");
    // Fill-reducing ND (the paper uses METIS; `javelin_order` is the
    // in-repo substitute).
    let nd = nested_dissection_order(&a, 64);
    a.permute_sym(&nd).expect("nd permutation fits")
}

/// The two factorization configurations the figures compare: pure
/// level scheduling (`LS`) and the two-stage split with the Even-Rows
/// lower stage (`ER`). Numeric phases run serially (results are
/// bit-identical anyway); the figures count spans of their analyses
/// at any thread count.
pub(crate) struct FactorSet {
    /// Pure level scheduling (split disabled).
    pub(crate) ls: IluFactors<f64>,
    /// Two-stage split with Even-Rows.
    pub(crate) er: IluFactors<f64>,
}

/// Builds the two standard configurations for one matrix.
pub(crate) fn factor_variants(a: &CsrMatrix<f64>) -> FactorSet {
    let ls = factorize(a, &IluOptions::level_scheduling_only(1)).expect("LS factorization");
    let er = factorize(a, &IluOptions::ilu0(1)).expect("ER factorization");
    FactorSet { ls, er }
}

/// Best-of-`k` wall-clock timing.
pub(crate) fn time_best_of<R>(k: usize, mut f: impl FnMut() -> R) -> (Duration, R) {
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..k.max(1) {
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed();
        if dt < best {
            best = dt;
        }
        out = Some(r);
    }
    (best, out.expect("k >= 1"))
}

/// The counted speedup bound `span(1) / span(t)` of a span function.
pub(crate) fn bound(span: impl Fn(usize) -> usize, t: usize) -> f64 {
    span(1) as f64 / span(t).max(1) as f64
}

/// `a`'s analysis under `opts` at `t` threads, factored.
fn factored(a: &CsrMatrix<f64>, opts: &IluOptions, t: usize) -> IluFactors<f64> {
    let mut opts = opts.clone();
    opts.nthreads = t;
    factorize(a, &opts).expect("factors")
}

/// Measured wall time (best of 3, this host) of one refactor of `a`
/// under `opts` at 1 and at 2 threads.
pub(crate) fn measured_refactor(a: &CsrMatrix<f64>, opts: &IluOptions) -> [Duration; 2] {
    [1, 2].map(|t| {
        let mut f = factored(a, opts, t);
        time_best_of(3, || f.refactor(a).expect("refactor")).0
    })
}

/// Measured wall time (best of 5, this host) of one apply of `a`'s
/// factors under `opts`: Serial at 1 thread, the threaded engine at 2.
pub(crate) fn measured_apply(a: &CsrMatrix<f64>, opts: &IluOptions) -> [Duration; 2] {
    let b = vec![1.0; a.nrows()];
    let mut x = vec![0.0; a.nrows()];
    let mut scratch = ApplyScratch::new();
    [
        (1, SolveEngine::Serial),
        (2, SolveEngine::PointToPointLower),
    ]
    .map(|(t, engine)| {
        let f = factored(a, opts, t);
        time_best_of(5, || {
            f.solve_with_buffer(engine, &mut scratch, &b, &mut x)
                .expect("apply")
        })
        .0
    })
}

/// The host line under every report with measured 2-thread columns.
pub(crate) fn host_note() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!("\nmeasured on a host with available_parallelism = {cores}\n")
}

/// A measured time as a table cell, in microseconds.
pub(crate) fn micros(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e6)
}

/// Geometric mean of positive values (the paper reports geometric-mean
/// speedups).
pub(crate) fn geo_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s: f64 = values.iter().map(|v| v.max(1e-300).ln()).sum();
    (s / values.len() as f64).exp()
}

/// A simple fixed-width text table builder.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (cells already formatted).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "table row arity");
        self.rows.push(cells);
    }

    /// Renders with padded columns.
    pub(crate) fn render(&self) -> String {
        let ncol = self.headers.len();
        let mut width = vec![0usize; ncol];
        for (c, h) in self.headers.iter().enumerate() {
            width[c] = h.len();
        }
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                width[c] = width[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (c, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:<w$}  ", cell, w = width[c]);
            }
            out.push('\n');
        };
        line(&mut out, &self.headers);
        let total: usize = width.iter().sum::<usize>() + 2 * ncol;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

/// Writes a report to `results/<name>.txt` (best-effort) and returns it.
pub fn write_report(name: &str, body: &str) -> std::io::Result<()> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("{name}.txt")), body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use javelin_synth::suite::paper_suite;

    #[test]
    fn geo_mean_basic() {
        assert!((geo_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geo_mean(&[5.0]) - 5.0).abs() < 1e-12);
        assert_eq!(geo_mean(&[]), 0.0);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "2.5".into()]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn prepare_keeps_diagonal_and_shape() {
        let meta = paper_suite().remove(0); // wang3-like
        let p = prepare(meta, Scale::Tiny);
        assert!(p.matrix.diag_positions().is_ok());
        assert_eq!(p.matrix.nrows(), p.matrix.ncols());
    }

    #[test]
    fn time_best_of_runs_k_times() {
        let mut count = 0;
        let (_, r) = time_best_of(3, || {
            count += 1;
            42
        });
        assert_eq!(count, 3);
        assert_eq!(r, 42);
    }
}
