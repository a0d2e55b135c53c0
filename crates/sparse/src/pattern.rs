//! Pattern-only (structural) operations.
//!
//! Level scheduling operates on the *sparsity pattern* of the lower
//! triangle — either `lower(A)` or `lower(A + Aᵀ)` (Javelin §III). These
//! helpers materialize those patterns without touching values, using the
//! same CSR layout (a `SparsityPattern` is a value-less CSR).

use crate::csr::CsrMatrix;
use crate::scalar::Scalar;

/// A value-less CSR structure: the sparsity pattern of a matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsityPattern {
    nrows: usize,
    ncols: usize,
    rowptr: Vec<usize>,
    colidx: Vec<usize>,
}

impl SparsityPattern {
    /// Builds a pattern from raw arrays. Debug builds validate.
    pub fn from_raw(nrows: usize, ncols: usize, rowptr: Vec<usize>, colidx: Vec<usize>) -> Self {
        debug_assert_eq!(rowptr.len(), nrows + 1);
        debug_assert_eq!(*rowptr.last().unwrap(), colidx.len());
        debug_assert!(rowptr.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!((0..nrows).all(|r| {
            let row = &colidx[rowptr[r]..rowptr[r + 1]];
            row.iter().all(|&c| c < ncols) && row.windows(2).all(|w| w[0] < w[1])
        }));
        SparsityPattern {
            nrows,
            ncols,
            rowptr,
            colidx,
        }
    }

    /// Pattern of an existing matrix.
    pub fn of<T: Scalar>(a: &CsrMatrix<T>) -> Self {
        SparsityPattern {
            nrows: a.nrows(),
            ncols: a.ncols(),
            rowptr: a.rowptr().to_vec(),
            colidx: a.colidx().to_vec(),
        }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of structural entries.
    #[inline(always)]
    pub fn nnz(&self) -> usize {
        self.colidx.len()
    }

    /// Row pointer array.
    #[inline(always)]
    pub fn rowptr(&self) -> &[usize] {
        &self.rowptr
    }

    /// Column index array.
    #[inline(always)]
    pub fn colidx(&self) -> &[usize] {
        &self.colidx
    }

    /// Column indices of one row.
    #[inline(always)]
    pub fn row_cols(&self, row: usize) -> &[usize] {
        &self.colidx[self.rowptr[row]..self.rowptr[row + 1]]
    }

    /// Materializes the pattern as a CSR matrix with all values `ONE`.
    pub fn to_csr<T: Scalar>(&self) -> CsrMatrix<T> {
        CsrMatrix::from_raw_unchecked(
            self.nrows,
            self.ncols,
            self.rowptr.clone(),
            self.colidx.clone(),
            vec![T::ONE; self.colidx.len()],
        )
    }

    /// 64-bit structural fingerprint of this pattern (see
    /// [`pattern_fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        fingerprint_parts(self.nrows, self.ncols, &self.rowptr, &self.colidx)
    }
}

// ---------------------------------------------------------------------
// Structural fingerprints — the cache keys of the solve service.
//
// A pattern-keyed cache (the `javelin-service` symbolic LRU) needs a
// cheap, deterministic, allocation-free digest of "same sparsity
// structure". The hash below is a word-wise FNV-1a variant with a
// splitmix64 finalizer: one multiply per index word, good dispersion
// for equal-length integer streams, and no dependencies. It is a *fast
// filter*, not a proof — collisions are possible (and unit-tested for
// at the cache layer), so any consumer must verify the full pattern on
// a fingerprint match before reusing cached analysis.
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// splitmix64 finalizer: full-avalanche mixing of the running hash.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Incremental word hasher behind the fingerprint functions (word-wise
/// FNV-1a core + `mix64` finalizer).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FingerprintHasher {
    state: u64,
}

impl FingerprintHasher {
    /// Fresh hasher (FNV-1a offset basis).
    pub(crate) fn new() -> Self {
        FingerprintHasher { state: FNV_OFFSET }
    }

    /// Absorbs one 64-bit word.
    #[inline]
    pub(crate) fn write(&mut self, word: u64) {
        self.state = (self.state ^ word).wrapping_mul(FNV_PRIME);
    }

    /// Absorbs a slice of index words.
    #[inline]
    pub(crate) fn write_usizes(&mut self, words: &[usize]) {
        for &w in words {
            self.write(w as u64);
        }
    }

    /// Finalized 64-bit digest.
    #[inline]
    pub(crate) fn finish(&self) -> u64 {
        mix64(self.state)
    }
}

impl Default for FingerprintHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// 64-bit fingerprint of a sparsity structure given as raw CSR arrays:
/// dimensions, row pointers and column indices (values ignored).
/// Allocation-free, deterministic across runs and platforms.
pub fn fingerprint_parts(nrows: usize, ncols: usize, rowptr: &[usize], colidx: &[usize]) -> u64 {
    let mut h = FingerprintHasher::new();
    h.write(nrows as u64);
    h.write(ncols as u64);
    h.write_usizes(rowptr);
    h.write_usizes(colidx);
    h.finish()
}

/// 64-bit *structural* fingerprint of a matrix: a digest of its
/// dimensions and CSR index arrays, independent of the stored values.
/// Two matrices with equal fingerprints *probably* share a sparsity
/// pattern — callers caching per-pattern state must still verify the
/// actual index arrays on a match (see module comment).
pub fn pattern_fingerprint<T: Scalar>(a: &CsrMatrix<T>) -> u64 {
    fingerprint_parts(a.nrows(), a.ncols(), a.rowptr(), a.colidx())
}

/// 64-bit fingerprint of a value slice (bit-exact: hashes each value's
/// IEEE bits, so `-0.0 ≠ 0.0` and NaN payloads are distinguished).
/// Paired with [`pattern_fingerprint`] this keys "same matrix, same
/// values" — the coalescing group key of the solve service.
pub fn value_fingerprint<T: Scalar>(vals: &[T]) -> u64 {
    let mut h = FingerprintHasher::new();
    h.write(vals.len() as u64);
    for v in vals {
        h.write(v.to_f64().to_bits());
    }
    h.finish()
}

/// Which triangular pattern drives level scheduling — the paper's
/// `lower(A)` vs `lower(A + Aᵀ)` option (§III, §VII "Levels and lower
/// size").
///
/// `lower(A+Aᵀ)` is the default: same-level columns become mutually
/// independent, which enables tiling for the triangular solve.
/// `lower(A)` generally yields more/larger levels for nonsymmetric
/// patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LevelPattern {
    /// Use the strictly-lower pattern of `A + Aᵀ` (symmetrized).
    #[default]
    LowerSymmetrized,
    /// Use the strictly-lower pattern of `A` alone.
    LowerA,
}

/// Strictly-lower-triangular pattern of `A` (no diagonal).
pub fn lower_pattern<T: Scalar>(a: &CsrMatrix<T>) -> SparsityPattern {
    lower_of(a.ncols(), a.rowptr(), a.colidx())
}

/// Strictly-lower-triangular pattern of `A + Aᵀ`.
///
/// Entry `(i,j)` with `j < i` is present when either `A[i,j]` or
/// `A[j,i]` is stored.
pub fn lower_symmetrized_pattern<T: Scalar>(a: &CsrMatrix<T>) -> SparsityPattern {
    lower_symmetrized_of(a.ncols(), a.rowptr(), a.colidx())
}

/// Dispatches on [`LevelPattern`] for value-less patterns.
pub fn level_pattern_of(p: &SparsityPattern, which: LevelPattern) -> SparsityPattern {
    match which {
        LevelPattern::LowerSymmetrized => lower_symmetrized_of(p.ncols, &p.rowptr, &p.colidx),
        LevelPattern::LowerA => lower_of(p.ncols, &p.rowptr, &p.colidx),
    }
}

// The one body of each triangle, over the CSR index arrays of a matrix
// or a pattern (`rowptr.len() - 1` rows, sorted columns per row).

fn lower_of(ncols: usize, rowptr: &[usize], colidx: &[usize]) -> SparsityPattern {
    triangle_of(ncols, rowptr, colidx, |r, c| c < r)
}

/// The entries `(r, c)` of the structure that `keep` accepts.
fn triangle_of(
    ncols: usize,
    rowptr: &[usize],
    colidx: &[usize],
    keep: impl Fn(usize, usize) -> bool,
) -> SparsityPattern {
    let n = rowptr.len() - 1;
    let mut out_rowptr = vec![0usize; n + 1];
    let mut out_colidx = Vec::new();
    for r in 0..n {
        let row = &colidx[rowptr[r]..rowptr[r + 1]];
        out_colidx.extend(row.iter().copied().filter(|&c| keep(r, c)));
        out_rowptr[r + 1] = out_colidx.len();
    }
    SparsityPattern::from_raw(n, ncols, out_rowptr, out_colidx)
}

fn lower_symmetrized_of(ncols: usize, rowptr: &[usize], colidx: &[usize]) -> SparsityPattern {
    let n = rowptr.len() - 1;
    assert_eq!(n, ncols, "symmetrized pattern requires a square matrix");
    // Scatter every off-diagonal entry into its lower-triangle row:
    // (r, c) with c < r stays, (r, c) with c > r lands as (c, r).
    let entries = || {
        (0..n).flat_map(move |r| {
            colidx[rowptr[r]..rowptr[r + 1]]
                .iter()
                .filter(move |&&c| c != r)
                .map(move |&c| (r.max(c), r.min(c)))
        })
    };
    let mut ptr = vec![0usize; n + 1];
    for (i, _) in entries() {
        ptr[i + 1] += 1;
    }
    for i in 0..n {
        ptr[i + 1] += ptr[i];
    }
    let mut cols = vec![0usize; ptr[n]];
    let mut next = ptr.clone();
    for (i, j) in entries() {
        cols[next[i]] = j;
        next[i] += 1;
    }
    // A row holds its own lower entries (sorted), then mirrored ones in
    // ascending source row: sort and dedup per row.
    let mut out_rowptr = vec![0usize; n + 1];
    let mut out_colidx = Vec::with_capacity(cols.len());
    for r in 0..n {
        let row = &mut cols[ptr[r]..ptr[r + 1]];
        row.sort_unstable();
        let start = out_colidx.len();
        for &c in row.iter() {
            if out_colidx[start..].last() != Some(&c) {
                out_colidx.push(c);
            }
        }
        out_rowptr[r + 1] = out_colidx.len();
    }
    SparsityPattern::from_raw(n, n, out_rowptr, out_colidx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn nonsym() -> CsrMatrix<f64> {
        // [ 1 . 2 ]
        // [ . 3 . ]
        // [ . 4 5 ]
        let mut coo = CooMatrix::new(3, 3);
        for (r, c, v) in [
            (0, 0, 1.0),
            (0, 2, 2.0),
            (1, 1, 3.0),
            (2, 1, 4.0),
            (2, 2, 5.0),
        ] {
            coo.push(r, c, v).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn lower_pattern_strict() {
        let a = nonsym();
        let l = lower_pattern(&a);
        assert_eq!(l.nnz(), 1);
        assert_eq!(l.row_cols(2), &[1]);
        assert_eq!(l.row_cols(0), &[] as &[usize]);
    }

    #[test]
    fn symmetrized_includes_mirror() {
        let a = nonsym();
        let ls = lower_symmetrized_pattern(&a);
        // lower(A+A^T): (2,1) from A, (2,0) mirrored from (0,2).
        assert_eq!(ls.nnz(), 2);
        assert_eq!(ls.row_cols(2), &[0, 1]);
    }

    #[test]
    fn symmetrized_equals_lower_for_symmetric_pattern() {
        let mut coo = CooMatrix::new(3, 3);
        for (r, c) in [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)] {
            coo.push(r, c, 1.0).unwrap();
        }
        let a = coo.to_csr();
        assert!(a.is_pattern_symmetric());
        assert_eq!(lower_pattern(&a), lower_symmetrized_pattern(&a));
    }

    #[test]
    fn symmetrized_dedups_two_sided_entries() {
        // (1,0) and (0,1) both present: lower sym must hold (1,0) once.
        let mut coo = CooMatrix::new(2, 2);
        for (r, c) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            coo.push(r, c, 1.0).unwrap();
        }
        let a = coo.to_csr();
        let ls = lower_symmetrized_pattern(&a);
        assert_eq!(ls.nnz(), 1);
        assert_eq!(ls.row_cols(1), &[0]);
    }

    #[test]
    fn pattern_of_and_to_csr() {
        let a = nonsym();
        let p = SparsityPattern::of(&a);
        assert_eq!(p.nnz(), a.nnz());
        let ones: CsrMatrix<f64> = p.to_csr();
        assert_eq!(ones.get(0, 2), Some(1.0));
        assert_eq!(ones.nnz(), a.nnz());
    }

    #[test]
    fn level_pattern_of_dispatches_on_the_pattern() {
        let a = nonsym();
        let p = SparsityPattern::of(&a);
        assert_eq!(
            level_pattern_of(&p, LevelPattern::LowerA),
            lower_pattern(&a)
        );
        assert_eq!(
            level_pattern_of(&p, LevelPattern::LowerSymmetrized),
            lower_symmetrized_pattern(&a)
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::coo::CooMatrix;
    use proptest::prelude::*;

    fn arb_square(n_max: usize) -> impl Strategy<Value = CsrMatrix<f64>> {
        (2..n_max).prop_flat_map(|n| {
            proptest::collection::vec((0..n, 0..n, -4.0..4.0f64), 1..n * 4).prop_map(move |trips| {
                let mut coo = CooMatrix::new(n, n);
                for (r, c, v) in trips {
                    coo.push(r, c, v).unwrap();
                }
                coo.to_csr()
            })
        })
    }

    #[test]
    fn fingerprint_ignores_values_and_sees_structure() {
        let mut coo = CooMatrix::new(3, 3);
        for i in 0..3 {
            coo.push(i, i, 2.0 + i as f64).unwrap();
        }
        coo.push(0, 2, -1.0).unwrap();
        let a = coo.to_csr();
        // Same pattern, different values → same structural fingerprint,
        // different value fingerprint.
        let a2 = a.map_values(|v| v * 3.5);
        assert_eq!(pattern_fingerprint(&a), pattern_fingerprint(&a2));
        assert_ne!(value_fingerprint(a.vals()), value_fingerprint(a2.vals()));
        // Value fingerprints are bit-exact: -0.0 and 0.0 differ.
        assert_ne!(value_fingerprint(&[0.0f64]), value_fingerprint(&[-0.0f64]));
        // Different structure → different fingerprint (with overwhelming
        // probability; these fixed fixtures are part of the contract).
        let mut coo3 = CooMatrix::new(3, 3);
        for i in 0..3 {
            coo3.push(i, i, 1.0).unwrap();
        }
        coo3.push(2, 0, -1.0).unwrap();
        let b = coo3.to_csr();
        assert_ne!(pattern_fingerprint(&a), pattern_fingerprint(&b));
        // Dimensions participate: a 3×3 and a 4×4 all-diagonal pattern
        // must not collide even though the shared prefix matches.
        let d3 = SparsityPattern::from_raw(3, 3, vec![0, 1, 2, 3], vec![0, 1, 2]);
        let d4 = SparsityPattern::from_raw(4, 4, vec![0, 1, 2, 3, 4], vec![0, 1, 2, 3]);
        assert_ne!(d3.fingerprint(), d4.fingerprint());
        // And the pattern-level fingerprint agrees with the matrix-level
        // one.
        assert_eq!(
            SparsityPattern::of(&a).fingerprint(),
            pattern_fingerprint(&a)
        );
    }

    proptest! {
        #[test]
        fn fingerprint_is_deterministic_and_value_blind(a in arb_square(24)) {
            let fp1 = pattern_fingerprint(&a);
            let fp2 = pattern_fingerprint(&a.map_values(|v| v * 0.5 - 1.0));
            prop_assert_eq!(fp1, fp2);
            prop_assert_eq!(fp1, SparsityPattern::of(&a).fingerprint());
        }

        #[test]
        fn symmetrized_lower_is_superset_of_lower(a in arb_square(24)) {
            let l = lower_pattern(&a);
            let ls = lower_symmetrized_pattern(&a);
            for r in 0..a.nrows() {
                for &c in l.row_cols(r) {
                    prop_assert!(ls.row_cols(r).binary_search(&c).is_ok());
                }
            }
        }

        #[test]
        fn symmetrized_matches_explicit_aat(a in arb_square(24)) {
            // Reference: form A + A^T explicitly via COO and take lower.
            let n = a.nrows();
            let mut coo = CooMatrix::new(n, n);
            for (r, c, v) in a.iter() {
                coo.push(r, c, v).unwrap();
                coo.push(c, r, v).unwrap();
            }
            let aat = coo.to_csr();
            let expect = lower_pattern(&aat);
            let got = lower_symmetrized_pattern(&a);
            // Patterns agree (values may differ; we only compare structure).
            prop_assert_eq!(got.rowptr(), expect.rowptr());
            prop_assert_eq!(got.colidx(), expect.colidx());
        }
    }
}
