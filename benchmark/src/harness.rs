//! What every workload driver shares: run configuration, the outcome
//! record, the correctness ledger, seeded inputs and clock helpers.

use crate::host;
use crate::json::Json;
use crate::metrics::Values;
use crate::trace::Span;
use javelin::sparse::CsrMatrix;
use javelin::sync::affinity::pin_current_thread;
use std::time::Instant;

/// Relative residual every timed solve and reply must meet, recomputed
/// outside the solver.
pub const RESIDUAL_LIMIT: f64 = 1e-6;

/// One run's settings (the command line, parsed).
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// Length of the time-driven measured section.
    pub seconds: f64,
    pub trace: bool,
    /// Miniature sizes and repetition counts; same code paths.
    pub smoke: bool,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub values: Values,
    pub check: Check,
    /// Threads the workload's factorization and solves run on.
    pub nthreads: usize,
    /// Facts for the result header: sizes, repetitions, pinning.
    pub facts: Vec<(String, Json)>,
    /// Spans of a traced run (empty otherwise), and how many the
    /// preallocated buffer had no room for.
    pub spans: Vec<Span>,
    pub spans_dropped: u64,
}

impl Outcome {
    pub fn fact(&mut self, key: &str, value: impl Into<f64>) {
        self.facts.push((key.into(), Json::Num(value.into())));
    }

    /// An outcome for a workload on `nthreads` threads whose (primary)
    /// matrix is `a`, with the size facts every header carries.
    pub fn for_matrix(a: &CsrMatrix<f64>, nthreads: usize, fill_level: usize) -> Self {
        let mut out = Outcome {
            nthreads,
            ..Outcome::default()
        };
        out.fact("n", a.nrows() as f64);
        out.fact("nnz", a.nnz() as f64);
        out.fact("nthreads", nthreads as f64);
        out.fact("fill_level", fill_level as f64);
        out.fact("matrix_bytes", (16 * a.nnz() + 8 * (a.nrows() + 1)) as f64);
        out
    }

    /// Binds the calling thread to the last core, for workloads that
    /// drive everything from one thread. Left to the scheduler that
    /// thread migrates and shares core 0 with interrupt handling;
    /// identical solves then differed by 40 % on the reference box. (A
    /// threaded workload's team binds its own participants.)
    pub fn pin_driver_thread(&mut self) {
        let pinned = pin_current_thread(host::nproc() - 1);
        self.fact("driver_thread_pinned", u8::from(pinned));
    }
}

/// Operations attempted and failed: a non-converged solve, a typed
/// error, or a check outside the solver that did not hold.
#[derive(Debug, Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions, for the report.
    pub messages: Vec<String>,
}

impl Check {
    /// Records one operation; `what` is only rendered on failure.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(what());
            }
        }
    }
}

/// Seconds `f` took, and its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// A time budget for a time-driven loop.
pub struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    pub fn new(seconds: f64) -> Self {
        Budget {
            start: Instant::now(),
            seconds,
        }
    }

    /// Share of the budget that is used up (1 or more once it is spent).
    pub fn used(&self) -> f64 {
        self.start.elapsed().as_secs_f64() / self.seconds
    }

    /// True while the loop should take another sample: the budget is
    /// not used up, or fewer than `min_samples` were taken.
    pub fn more(&self, taken: usize, min_samples: usize) -> bool {
        taken < min_samples || self.used() < 1.0
    }
}

/// `‖b − A·x‖₂ / ‖b‖₂`, computed with plain loops so the check shares
/// no kernel with the code it checks.
pub fn rel_residual(a: &CsrMatrix<f64>, x: &[f64], b: &[f64]) -> f64 {
    let (rowptr, colidx, vals) = (a.rowptr(), a.colidx(), a.vals());
    let mut rr = 0.0;
    let mut bb = 0.0;
    for (i, &bi) in b.iter().enumerate() {
        let mut ax = 0.0;
        for k in rowptr[i]..rowptr[i + 1] {
            ax += vals[k] * x[colidx[k]];
        }
        rr += (bi - ax) * (bi - ax);
        bb += bi * bi;
    }
    (rr / bb).sqrt()
}

pub fn bits_equal(x: &[f64], y: &[f64]) -> bool {
    x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// splitmix64: the benchmark's own seeded stream (the library's
/// generators take plain `u64` seeds drawn from it).
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use javelin::sparse::CooMatrix;

    #[test]
    fn residual_of_exact_and_wrong_solutions() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 2.0).unwrap();
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 1, 4.0).unwrap();
        let a = coo.to_csr();
        let b = [4.0, 8.0];
        assert_eq!(rel_residual(&a, &[1.0, 2.0], &b), 0.0);
        let r = rel_residual(&a, &[0.0, 0.0], &b);
        assert!((r - 1.0).abs() < 1e-15);
    }

    #[test]
    fn check_counts_and_keeps_first_messages() {
        let mut c = Check::default();
        c.record(true, || unreachable!());
        for i in 0..10 {
            c.record(false, || format!("f{i}"));
        }
        assert_eq!((c.attempted, c.failed, c.messages.len()), (11, 10, 8));
    }

    #[test]
    fn seeded_stream_repeats_and_shuffles_a_permutation() {
        let (mut a, mut b) = (SplitMix(7), SplitMix(7));
        assert_eq!(a.next_u64(), b.next_u64());
        let mut v: Vec<usize> = (0..24).collect();
        a.shuffle(&mut v);
        let mut w: Vec<usize> = (0..24).collect();
        b.shuffle(&mut w);
        assert_eq!(v, w);
        w.sort_unstable();
        assert_eq!(w, (0..24).collect::<Vec<_>>());
        assert_ne!(v, w);
    }

    #[test]
    fn budget_insists_on_the_minimum_sample_count() {
        let b = Budget::new(0.0);
        assert!(b.more(0, 5) && b.more(4, 5) && !b.more(5, 5));
    }
}
