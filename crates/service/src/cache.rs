//! The pattern-keyed symbolic cache: the service's amortization engine.
//!
//! The paper's economics are "pay the symbolic/setup phase once,
//! amortize it across many numeric solves". A multi-tenant service
//! realizes that by keying completed analyses — each held, with its
//! numeric factors, by an [`IluSolver`] — on a **structural
//! fingerprint** of the CSR pattern
//! ([`javelin_sparse::pattern::pattern_fingerprint`]): a request whose
//! pattern was seen before reuses the cached analysis — zero symbolic
//! work — and pays at most a numeric
//! [`IluFactors::refactor`](javelin_core::IluFactors::refactor) when
//! its *values* differ from the cached factorization.
//!
//! The fingerprint is a fast filter, not an identity proof: every
//! fingerprint match is verified with the full
//! [`SymbolicIlu::check_pattern`](javelin_core::SymbolicIlu::check_pattern)
//! comparison before reuse, so hash collisions degrade to a counted
//! miss instead of silently solving with the wrong analysis. Eviction
//! is least-recently-used over a small bounded slot vector (tenant
//! counts are small; a linear scan over ≤ a few dozen entries is
//! cheaper and simpler than a hash map plus intrusive list).

use crate::error::ServiceError;
use javelin_core::{IluOptions, SolveEngine};
use javelin_solver::IluSolver;
use javelin_sparse::{CsrMatrix, Scalar};

/// One cached tenant: an analyzed pattern with its current factors.
pub(crate) struct CacheEntry<T: Scalar> {
    /// The structural fingerprint this entry is filed under (normally
    /// `pattern_fingerprint(a)`; collision tests may file entries under
    /// forced keys).
    pub pattern_fp: u64,
    /// Bit-exact fingerprint of the matrix values the factors currently
    /// represent — the coalescing level: requests whose value
    /// fingerprint matches share the factors as-is, a differing one
    /// triggers a numeric-only refactor.
    pub value_fp: u64,
    /// The analysis, its numeric factors (refactored in place as
    /// values churn), their engine and spmv plan.
    pub solver: IluSolver<T>,
    /// LRU tick of the last use.
    last_used: u64,
}

/// Monotonic counters describing cache behaviour (one dispatcher
/// thread owns the cache, so these are plain integers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from a cached analysis (zero symbolic work).
    pub hits: u64,
    /// Requests that had to run a fresh symbolic analysis.
    pub misses: u64,
    /// Entries evicted to make room (least recently used first).
    pub evictions: u64,
    /// Fingerprint matches whose full pattern comparison failed — a
    /// hash collision, degraded to a miss.
    pub collisions: u64,
    /// Numeric-only refactorizations (cached pattern, new values).
    pub refactors: u64,
}

/// Bounded LRU of analyzed patterns, keyed by structural fingerprint.
pub(crate) struct PatternCache<T: Scalar> {
    entries: Vec<CacheEntry<T>>,
    capacity: usize,
    tick: u64,
    stats: CacheStats,
    /// The engine every inserted solver pins (`None`: each analysis's
    /// own choice).
    pub(crate) engine: Option<SolveEngine>,
}

impl<T: Scalar> PatternCache<T> {
    /// An empty cache holding at most `capacity` analyzed patterns.
    ///
    /// # Panics
    /// When `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "pattern cache: zero capacity");
        PatternCache {
            entries: Vec::with_capacity(capacity),
            capacity,
            tick: 0,
            stats: CacheStats::default(),
            engine: None,
        }
    }

    /// Cache behaviour counters.
    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of cached patterns.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Looks up `pattern_fp`, verifying every fingerprint match against
    /// `a`'s actual pattern (collisions are counted and skipped).
    /// Returns the slot index of the verified entry and bumps its LRU
    /// tick and the hit counter; on miss, bumps the miss counter.
    ///
    /// The fingerprint is a parameter (rather than recomputed from `a`)
    /// so callers can memoize it per matrix handle — and so collision
    /// tests can force two distinct patterns onto one key.
    pub(crate) fn lookup(&mut self, pattern_fp: u64, a: &CsrMatrix<T>) -> Option<usize> {
        self.tick += 1;
        for (i, e) in self.entries.iter_mut().enumerate() {
            if e.pattern_fp != pattern_fp {
                continue;
            }
            if e.solver.factors().symbolic().check_pattern(a).is_err() {
                self.stats.collisions += 1;
                continue;
            }
            e.last_used = self.tick;
            self.stats.hits += 1;
            return Some(i);
        }
        self.stats.misses += 1;
        None
    }

    /// Analyzes and factors `a`, files the result under `pattern_fp`,
    /// and returns its slot index — evicting the least recently used
    /// entry when full. `value_fp` is `value_fingerprint(a.vals())`, a
    /// parameter for the same reason as in [`PatternCache::lookup`]:
    /// the caller has it memoized per matrix handle. The entry's solver
    /// pins the cache's `engine`.
    ///
    /// # Errors
    /// [`ServiceError::Solve`] when analysis or factorization fails
    /// (the cache is left unchanged).
    pub(crate) fn insert(
        &mut self,
        pattern_fp: u64,
        value_fp: u64,
        a: &CsrMatrix<T>,
        opts: &IluOptions,
    ) -> Result<usize, ServiceError> {
        let solver = IluSolver::new(a, opts, self.engine)?;
        self.tick += 1;
        let entry = CacheEntry {
            pattern_fp,
            value_fp,
            solver,
            last_used: self.tick,
        };
        if self.entries.len() == self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("capacity > 0");
            self.stats.evictions += 1;
            self.entries[lru] = entry;
            Ok(lru)
        } else {
            self.entries.push(entry);
            Ok(self.entries.len() - 1)
        }
    }

    /// Brings slot `i`'s factors up to date with `a`'s values
    /// (`value_fp` is their memoized fingerprint): a no-op when the
    /// entry's value fingerprint already matches, a numeric-only
    /// [`IluFactors::refactor`](javelin_core::IluFactors::refactor) (zero symbolic work, zero allocations)
    /// otherwise.
    ///
    /// # Errors
    /// [`ServiceError::Solve`] when the refactor fails; the entry keeps
    /// its previous (still consistent) factors and value fingerprint.
    pub(crate) fn sync_values(
        &mut self,
        i: usize,
        value_fp: u64,
        a: &CsrMatrix<T>,
    ) -> Result<(), ServiceError> {
        let e = &mut self.entries[i];
        if e.value_fp == value_fp {
            return Ok(());
        }
        e.solver.refactor(a)?;
        e.value_fp = value_fp;
        self.stats.refactors += 1;
        Ok(())
    }

    /// Slot access for dispatch (mutable: a breakdown retry refactors
    /// the entry's factors with a diagonal shift in place).
    pub(crate) fn entry_mut(&mut self, i: usize) -> &mut CacheEntry<T> {
        &mut self.entries[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use javelin_sparse::{pattern_fingerprint, value_fingerprint};
    use javelin_synth::grid::laplace_2d;

    fn vfp(a: &CsrMatrix<f64>) -> u64 {
        value_fingerprint(a.vals())
    }

    #[test]
    fn lru_evicts_least_recently_used_pattern() {
        let opts = IluOptions::default();
        let a1 = laplace_2d(5, 5);
        let a2 = laplace_2d(6, 6);
        let a3 = laplace_2d(7, 7);
        let (f1, f2, f3) = (
            pattern_fingerprint(&a1),
            pattern_fingerprint(&a2),
            pattern_fingerprint(&a3),
        );
        let mut cache = PatternCache::new(2);
        cache.insert(f1, vfp(&a1), &a1, &opts).unwrap();
        cache.insert(f2, vfp(&a2), &a2, &opts).unwrap();
        // Touch pattern 1 so pattern 2 becomes the LRU victim.
        assert!(cache.lookup(f1, &a1).is_some());
        cache.insert(f3, vfp(&a3), &a3, &opts).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(f1, &a1).is_some(), "recently used survives");
        assert!(cache.lookup(f3, &a3).is_some(), "new entry present");
        assert!(cache.lookup(f2, &a2).is_none(), "LRU victim evicted");
    }

    #[test]
    fn fingerprint_collision_is_verified_and_counted_not_served() {
        // Two structurally different matrices forced onto one key: the
        // full pattern verification must reject the wrong entry (a
        // counted collision) and still find the right one when both
        // live under the same fingerprint.
        let opts = IluOptions::default();
        let a1 = laplace_2d(5, 5);
        let a2 = laplace_2d(6, 6);
        let forced = 0xdead_beef_u64;
        let mut cache = PatternCache::new(4);
        let s1 = cache.insert(forced, vfp(&a1), &a1, &opts).unwrap();
        // A colliding lookup for a2 must not return a1's analysis.
        assert!(cache.lookup(forced, &a2).is_none());
        assert_eq!(cache.stats().collisions, 1);
        assert_eq!(cache.stats().misses, 1);
        let s2 = cache.insert(forced, vfp(&a2), &a2, &opts).unwrap();
        assert_ne!(s1, s2);
        // Both entries now share the key; each lookup resolves to its
        // own verified analysis.
        assert_eq!(cache.lookup(forced, &a1), Some(s1));
        assert_eq!(cache.lookup(forced, &a2), Some(s2));
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn sync_values_refactors_only_on_value_change() {
        let opts = IluOptions::default();
        let a = laplace_2d(6, 6);
        let fp = pattern_fingerprint(&a);
        let mut cache = PatternCache::new(2);
        let i = cache.insert(fp, vfp(&a), &a, &opts).unwrap();
        cache.sync_values(i, vfp(&a), &a).unwrap();
        assert_eq!(cache.stats().refactors, 0, "identical values: no work");
        let a2 = a.map_values(|v| v * 1.5);
        cache.sync_values(i, vfp(&a2), &a2).unwrap();
        assert_eq!(cache.stats().refactors, 1);
        cache.sync_values(i, vfp(&a2), &a2).unwrap();
        assert_eq!(cache.stats().refactors, 1, "fingerprint now matches");
    }
}
