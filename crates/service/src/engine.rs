//! The dispatch engine: fingerprint → cache → coalesce → panel solve.
//!
//! [`Engine`] is the service's single-threaded core, separated from the
//! threaded front-end so its behaviour — grouping, caching, panel
//! chunking, breakdown retries, allocation discipline — is directly
//! testable without channels or threads. One `process` call takes a
//! batch of requests (whatever the admission queue held when the
//! dispatcher woke), groups them by *(pattern fingerprint, value
//! fingerprint, Krylov driver)* — verified, member by member, against
//! the group's actual matrix — brings the cached factors for each group up
//! to date (full symbolic analysis only on a genuinely new pattern;
//! numeric-only refactor when just the values moved), fuses each
//! group's right-hand sides into `k ∈ {8, 4}` panels for the lockstep
//! batch Krylov drivers, and scatters solutions back into the
//! requests' own buffers. A lone column (a width-1 chunk, or the one
//! broken-down column of a retry) skips the staging panels and solves
//! straight from its request's `b` into its `x`.
//!
//! Grouping by the **value** fingerprint too is what makes coalescing
//! exact: a fused panel shares one operator and one preconditioner, so
//! only requests whose matrices are identical may ride in one panel.
//! The fingerprints are a fast filter, not proof, so a request joins a
//! group only if its matrix *is* the group's (the same `Arc`, the
//! handle-sharing client's case, or an equal copy); a colliding
//! stranger starts a group of its own. Methods are grouped by the
//! driver that runs them, so `Pcg` and its synonym `BatchPcg` share a
//! panel. Pattern-identical requests with *different* values still win
//! — they share the symbolic analysis and pay only a numeric refactor —
//! they just solve in separate panels.
//!
//! In the steady state (all patterns cached, buffers warmed) a
//! `process` call performs **zero heap allocations** on the solve path:
//! the gather/scatter staging panels are grow-only, the workspace is
//! reused, sorting is in-place, and request/reply buffers travel by
//! ownership. The counting-allocator suite asserts this.

use crate::cache::{CacheStats, PatternCache};
use crate::error::ServiceError;
use javelin_core::options::SolveEngine;
use javelin_core::IluOptions;
use javelin_solver::{
    krylov_panel_into, Method, SolverOptions, SolverResult, SolverWorkspace, BREAKDOWN_RETRY_SHIFT,
};
use javelin_sparse::{
    pattern_fingerprint, value_fingerprint, CsrMatrix, Panel, PanelBuf, PanelMut, Scalar,
};
use std::sync::{Arc, Weak};

/// Fingerprint memo entries kept per engine (matrix handles seen
/// recently); the memo is wiped, not grown, beyond this.
const MEMO_CAP: usize = 64;

/// Engine construction knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Factorization options every cached analysis is built with
    /// (thread count, fill level, shared worker team, pivot policy, …).
    pub ilu: IluOptions,
    /// Krylov iteration controls shared by all requests.
    pub solver: SolverOptions,
    /// Widest fused panel (8 and 4 are the SIMD-specialized lane
    /// widths; chunking prefers 8, then 4, then the remainder).
    pub max_panel_width: usize,
    /// Analyzed patterns kept in the LRU cache.
    pub cache_capacity: usize,
    /// Trisolve engine for every preconditioner apply; `None` defers to
    /// the analysis-time hint ([`javelin_core::IluFactors::default_engine`]), which
    /// accounts for thread count and core oversubscription.
    pub engine: Option<SolveEngine>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            ilu: IluOptions::default(),
            solver: SolverOptions::default(),
            max_panel_width: 8,
            cache_capacity: 16,
            engine: None,
        }
    }
}

/// One client solve: `A·x = b` by `method`. The matrix travels as an
/// `Arc` — clients issuing many solves against one matrix share the
/// handle, which also lets the engine memoize its fingerprints by
/// address. `b` and `x` are owned buffers, returned in the reply so
/// steady-state clients recycle them (`x` is resized as needed).
#[derive(Debug, Clone)]
pub struct SolveRequest<T: Scalar> {
    /// System matrix (square; shared handle).
    pub a: Arc<CsrMatrix<T>>,
    /// Right-hand side (`a.nrows()` entries).
    pub b: Vec<T>,
    /// Solution buffer (resized to `a.nrows()`; contents ignored).
    pub x: Vec<T>,
    /// Krylov method to run.
    pub method: Method,
}

/// A served request: the solution, the solver outcome, and how the
/// service scheduled it.
#[derive(Debug, Clone)]
pub struct SolveReply<T: Scalar> {
    /// The right-hand-side buffer, returned for reuse.
    pub b: Vec<T>,
    /// The solution.
    pub x: Vec<T>,
    /// Solver outcome (`retried` set when the breakdown-retry ran).
    pub result: SolverResult,
    /// Width of the fused panel this request solved in (1 = alone).
    pub panel_width: usize,
    /// Whether the pattern's symbolic analysis came from the cache
    /// (zero symbolic work for this request).
    pub symbolic_reused: bool,
}

/// Monotonic dispatch counters (single dispatcher thread: plain ints).
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Requests processed (including rejected ones).
    pub requests: u64,
    /// `process` rounds.
    pub batches: u64,
    /// Fused panels dispatched with width > 1.
    pub coalesced_panels: u64,
    /// Columns solved through width-> 1 panels.
    pub coalesced_columns: u64,
    /// Requests re-run once after a numerical breakdown.
    pub retries: u64,
    /// Requests rejected before reaching the solver stack.
    pub rejected: u64,
}

enum Outcome {
    Pending,
    Failed(ServiceError),
    Solved {
        result: SolverResult,
        panel_width: usize,
        symbolic_reused: bool,
    },
}

struct MemoEntry<T: Scalar> {
    /// Keeps the `ArcInner` address reserved: as long as this weak ref
    /// lives, no new allocation can alias the pointer, so pointer
    /// equality with a live `Arc` proves it is the *same* (immutable)
    /// matrix — no rehash needed.
    weak: Weak<CsrMatrix<T>>,
    pattern_fp: u64,
    value_fp: u64,
}

/// The single-threaded dispatch core (see module docs).
pub struct Engine<T: Scalar> {
    cfg: EngineConfig,
    cache: PatternCache<T>,
    ws: SolverWorkspace<T>,
    bbuf: PanelBuf<T>,
    xbuf: PanelBuf<T>,
    results: Vec<SolverResult>,
    keys: Vec<(u64, u64, u8, usize)>,
    outcomes: Vec<Outcome>,
    /// Request indices of the panel being solved (see `solve_cols`).
    cols: Vec<usize>,
    memo: Vec<MemoEntry<T>>,
    stats: EngineStats,
}

/// Coalescing tag of a method: the panel driver `krylov_panel_into`
/// runs for it, so a scalar name and its `Batch*` synonym fuse.
fn method_tag(m: Method) -> u8 {
    match m {
        Method::Pcg | Method::BatchPcg => 0,
        Method::Gmres | Method::BatchGmres => 1,
        Method::Fgmres => 2,
        Method::Bicgstab | Method::BatchBicgstab => 3,
    }
}

/// Whether two requests carry the same system matrix — what a fused
/// panel, solved against its first member's matrix, needs of every
/// member. Pointer identity answers for shared handles at no cost;
/// separately built matrices compare in full.
fn same_matrix<T: Scalar>(x: &Arc<CsrMatrix<T>>, y: &Arc<CsrMatrix<T>>) -> bool {
    Arc::ptr_eq(x, y) || **x == **y
}

impl<T: Scalar> Engine<T> {
    /// A fresh engine (empty cache, cold buffers).
    pub fn new(cfg: EngineConfig) -> Self {
        let cache = PatternCache::new(cfg.cache_capacity);
        Engine {
            cfg,
            cache,
            ws: SolverWorkspace::new(),
            bbuf: PanelBuf::new(),
            xbuf: PanelBuf::new(),
            results: Vec::new(),
            keys: Vec::new(),
            outcomes: Vec::new(),
            cols: Vec::new(),
            memo: Vec::new(),
            stats: EngineStats::default(),
        }
    }

    /// Symbolic-cache behaviour counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Dispatch counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    fn fingerprints(&mut self, a: &Arc<CsrMatrix<T>>) -> (u64, u64) {
        let ptr = Arc::as_ptr(a);
        for e in &self.memo {
            if std::ptr::eq(e.weak.as_ptr(), ptr) {
                return (e.pattern_fp, e.value_fp);
            }
        }
        let pattern_fp = pattern_fingerprint(a);
        let value_fp = value_fingerprint(a.vals());
        if self.memo.len() >= MEMO_CAP {
            self.memo.clear();
        }
        self.memo.push(MemoEntry {
            weak: Arc::downgrade(a),
            pattern_fp,
            value_fp,
        });
        (pattern_fp, value_fp)
    }

    /// Serves one batch: groups, caches, coalesces, solves, and fills
    /// `replies` index-aligned with `requests` (which is drained).
    /// Infallible at the batch level — every per-request failure is a
    /// typed error in that request's reply slot.
    pub fn process(
        &mut self,
        requests: &mut Vec<SolveRequest<T>>,
        replies: &mut Vec<Result<SolveReply<T>, ServiceError>>,
    ) {
        self.stats.batches += 1;
        self.stats.requests += requests.len() as u64;
        self.outcomes.clear();
        self.keys.clear();
        for (idx, req) in requests.iter().enumerate() {
            if !req.a.is_square() {
                self.outcomes
                    .push(Outcome::Failed(ServiceError::Rejected(format!(
                        "matrix is {}x{}, not square",
                        req.a.nrows(),
                        req.a.ncols()
                    ))));
                self.stats.rejected += 1;
                continue;
            }
            if req.b.len() != req.a.nrows() {
                self.outcomes
                    .push(Outcome::Failed(ServiceError::Rejected(format!(
                        "rhs length {} != dimension {}",
                        req.b.len(),
                        req.a.nrows()
                    ))));
                self.stats.rejected += 1;
                continue;
            }
            self.outcomes.push(Outcome::Pending);
            let (pfp, vfp) = self.fingerprints(&req.a);
            self.keys.push((pfp, vfp, method_tag(req.method), idx));
        }
        self.keys.sort_unstable();

        // Walk the (pattern, values, driver) groups, extending a group
        // only by requests for its first member's matrix. `keys` is
        // moved out during the walk so group slices and the engine's
        // other fields can be borrowed simultaneously.
        let keys = std::mem::take(&mut self.keys);
        let mut g = 0;
        while g < keys.len() {
            let (pfp, vfp, tag, first) = keys[g];
            let mut end = g + 1;
            while end < keys.len()
                && (keys[end].0, keys[end].1, keys[end].2) == (pfp, vfp, tag)
                && same_matrix(&requests[first].a, &requests[keys[end].3].a)
            {
                end += 1;
            }
            self.dispatch_group(requests, &keys[g..end]);
            g = end;
        }
        self.keys = keys;

        // Hand every request's buffers back with its outcome.
        replies.clear();
        for (idx, req) in requests.drain(..).enumerate() {
            match std::mem::replace(&mut self.outcomes[idx], Outcome::Pending) {
                Outcome::Failed(e) => replies.push(Err(e)),
                Outcome::Solved {
                    result,
                    panel_width,
                    symbolic_reused,
                } => replies.push(Ok(SolveReply {
                    b: req.b,
                    x: req.x,
                    result,
                    panel_width,
                    symbolic_reused,
                })),
                Outcome::Pending => replies.push(Err(ServiceError::Disconnected)),
            }
        }
    }

    /// Solves one coalescing group (requests for one matrix and one
    /// Krylov driver) through the cached factors.
    fn dispatch_group(
        &mut self,
        requests: &mut [SolveRequest<T>],
        group: &[(u64, u64, u8, usize)],
    ) {
        let (pattern_fp, value_fp, _, first) = group[0];
        let method = requests[first].method;
        let a = Arc::clone(&requests[first].a);
        let n = a.nrows();

        // Resolve the cache: reuse a verified analysis (zero symbolic
        // work), refactor if only the values moved, analyze + factor
        // only for a genuinely new pattern.
        let (slot, symbolic_reused) = match self.cache.lookup(pattern_fp, &a) {
            Some(slot) => (slot, true),
            None => match self.cache.insert(pattern_fp, value_fp, &a, &self.cfg.ilu) {
                Ok(slot) => {
                    if let Some(engine) = self.cfg.engine {
                        self.cache.entry_mut(slot).engine = engine;
                    }
                    (slot, false)
                }
                Err(e) => {
                    for k in group {
                        self.outcomes[k.3] = Outcome::Failed(e.clone());
                    }
                    return;
                }
            },
        };
        if let Err(e) = self.cache.sync_values(slot, value_fp, &a) {
            for k in group {
                self.outcomes[k.3] = Outcome::Failed(e.clone());
            }
            return;
        }

        // Fuse the group's right-hand sides into panels, widest (most
        // SIMD-friendly) chunks first: 8s, then a 4, then the tail.
        let mut shifted = false;
        let mut offset = 0;
        while offset < group.len() {
            let rem = group.len() - offset;
            let preferred = if rem >= 8 {
                8
            } else if rem >= 4 {
                4
            } else {
                rem
            };
            let w = preferred.min(self.cfg.max_panel_width.max(1));
            let chunk = &group[offset..offset + w];
            offset += w;
            if w > 1 {
                self.stats.coalesced_panels += 1;
                self.stats.coalesced_columns += w as u64;
            }

            self.cols.clear();
            self.cols.extend(chunk.iter().map(|k| k.3));
            for &i in &self.cols {
                let x = &mut requests[i].x;
                x.clear();
                x.resize(n, T::ZERO);
            }
            self.results.clear();
            self.results.resize(w, SolverResult::default());
            self.solve_cols(slot, method, &a, requests, 0);

            // One automatic retry for broken-down columns: stabilize
            // the shared factors with a forced diagonal shift (once per
            // group — the shifted factors stay, self-healing exactly
            // like `Session::krylov`), then re-run just the broken
            // columns from their frozen finite iterates.
            self.cols.clear();
            self.cols.extend(
                self.results
                    .iter()
                    .zip(chunk)
                    .filter(|(r, _)| r.broke_down())
                    .map(|(_, k)| k.3),
            );
            if !self.cols.is_empty() && !shifted {
                let entry = self.cache.entry_mut(slot);
                if entry
                    .factors
                    .refactor_with_shift(&a, BREAKDOWN_RETRY_SHIFT)
                    .is_ok()
                {
                    shifted = true;
                    let rw = self.cols.len();
                    self.stats.retries += rw as u64;
                    let retry_at = self.results.len();
                    self.results.resize(retry_at + rw, SolverResult::default());
                    self.solve_cols(slot, method, &a, requests, retry_at);
                    for c in 0..rw {
                        let mut result = self.results[retry_at + c].clone();
                        result.retried = true;
                        self.outcomes[self.cols[c]] = Outcome::Solved {
                            result,
                            panel_width: w,
                            symbolic_reused,
                        };
                    }
                    self.results.truncate(retry_at);
                }
            }

            // First-attempt outcomes for everything not overwritten by
            // the retry pass above.
            for (c, k) in chunk.iter().enumerate() {
                if matches!(self.outcomes[k.3], Outcome::Pending) {
                    self.outcomes[k.3] = Outcome::Solved {
                        result: self.results[c].clone(),
                        panel_width: w,
                        symbolic_reused,
                    };
                }
            }
        }
    }

    /// Runs `method` on requests `self.cols` as one panel through the
    /// cached factors in `slot`, into `self.results[at..]`: each column
    /// starts from its request's `x` and leaves its solution there. A
    /// lone column solves straight in its request's own buffers; a wider
    /// panel is gathered into the staging panels and scattered back.
    fn solve_cols(
        &mut self,
        slot: usize,
        method: Method,
        a: &CsrMatrix<T>,
        requests: &mut [SolveRequest<T>],
        at: usize,
    ) {
        let entry = self.cache.entry_mut(slot);
        let m = entry.factors.with_engine(entry.engine);
        let (opts, results) = (&self.cfg.solver, &mut self.results[at..]);
        if let [i] = self.cols[..] {
            let SolveRequest { b, x, .. } = &mut requests[i];
            let (b, x) = (Panel::from_col(b), PanelMut::from_col(x));
            krylov_panel_into(method, a, b, x, &m, opts, &mut self.ws, results);
            return;
        }
        let n = a.nrows();
        self.bbuf
            .gather(n, self.cols.iter().map(|&i| requests[i].b.as_slice()));
        self.xbuf
            .gather(n, self.cols.iter().map(|&i| requests[i].x.as_slice()));
        let (b, x) = (self.bbuf.panel(), self.xbuf.panel_mut());
        krylov_panel_into(method, a, b, x, &m, opts, &mut self.ws, results);
        for (c, &i) in self.cols.iter().enumerate() {
            self.xbuf.scatter_col(c, &mut requests[i].x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use javelin_synth::grid::laplace_2d;

    /// `‖A·x − b‖∞`.
    fn residual(a: &CsrMatrix<f64>, x: &[f64], b: &[f64]) -> f64 {
        let mut ax = vec![0.0; b.len()];
        a.spmv_into(x, &mut ax);
        ax.iter()
            .zip(b)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn colliding_fingerprints_never_fuse_different_matrices() {
        // Forge the memo so two strangers — one with the first matrix's
        // pattern but other values, one with another pattern altogether
        // — carry the first matrix's fingerprints, as a hash collision
        // would have it. Each request must still get the solution of
        // its own system.
        let a1 = Arc::new(laplace_2d(8, 8));
        let same_pattern = Arc::new(a1.map_values(|v| v * 3.0 + 0.5));
        let other_pattern = Arc::new(laplace_2d(4, 16));
        assert_eq!(other_pattern.nrows(), a1.nrows());
        assert_ne!(other_pattern.colidx(), a1.colidx());
        let mut engine = Engine::<f64>::new(EngineConfig::default());
        let (pattern_fp, value_fp) = engine.fingerprints(&a1);
        for stranger in [&same_pattern, &other_pattern] {
            engine.memo.push(MemoEntry {
                weak: Arc::downgrade(stranger),
                pattern_fp,
                value_fp,
            });
        }
        let n = a1.nrows();
        let mats = [&a1, &a1, &same_pattern, &other_pattern];
        let mut requests: Vec<SolveRequest<f64>> = mats
            .iter()
            .enumerate()
            .map(|(i, a)| SolveRequest {
                a: Arc::clone(a),
                b: (0..n).map(|r| 1.0 + ((r + i) % 7) as f64).collect(),
                x: vec![0.0; n],
                method: Method::Gmres,
            })
            .collect();
        let mut replies = Vec::new();
        engine.process(&mut requests, &mut replies);
        let widths: Vec<usize> = replies
            .iter()
            .map(|r| r.as_ref().expect("solved").panel_width)
            .collect();
        assert_eq!(widths, [2, 2, 1, 1], "only the shared handle may fuse");
        for (reply, a) in replies.iter().zip(mats) {
            let reply = reply.as_ref().expect("solved");
            assert!(reply.result.converged);
            let r = residual(a, &reply.x, &reply.b);
            // A converged solve leaves ~1e-6; another system's solution
            // leaves O(1).
            assert!(
                r < 1e-3,
                "request solved against a stranger's matrix: {r:e}"
            );
        }
    }

    #[test]
    fn lone_columns_solve_in_their_own_buffers_retry_included() {
        // A width-2 panel whose NaN column breaks down: the retry re-runs
        // that one column straight in its request's buffers, and the
        // healthy column carries the bits of the same request served
        // alone (a width-1 chunk, also solved in place) by a fresh engine.
        let a = Arc::new(laplace_2d(8, 8));
        let n = a.nrows();
        let request = |b: Vec<f64>| SolveRequest {
            a: Arc::clone(&a),
            b,
            x: vec![7.0; n / 2],
            method: Method::Bicgstab,
        };
        let healthy: Vec<f64> = (0..n).map(|r| 1.0 + (r % 5) as f64).collect();
        let mut poisoned = healthy.clone();
        poisoned[3] = f64::NAN;
        let mut engine = Engine::<f64>::new(EngineConfig::default());
        let mut requests = vec![request(poisoned), request(healthy.clone())];
        let mut replies = Vec::new();
        engine.process(&mut requests, &mut replies);
        let broken = replies[0].as_ref().expect("served");
        assert!(broken.result.retried && broken.result.broke_down());
        assert_eq!(broken.x, vec![0.0; n], "frozen at the zero initial guess");
        let fused = replies[1].as_ref().expect("served");
        assert!(fused.result.converged && !fused.result.retried);
        assert_eq!((broken.panel_width, fused.panel_width), (2, 2));
        assert_eq!(engine.stats().retries, 1);

        let mut alone = Engine::<f64>::new(EngineConfig::default());
        let mut requests = vec![request(healthy)];
        let mut solo = Vec::new();
        alone.process(&mut requests, &mut solo);
        let solo = solo[0].as_ref().expect("served");
        assert_eq!(solo.panel_width, 1);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&solo.x), bits(&fused.x));
    }
}
