//! Shared helpers for the generators: seeded RNG plumbing and value
//! assignment policies that keep ILU(0) numerically healthy without
//! pivoting (Javelin, like most incomplete factorizations, does not
//! pivot).

use javelin_sparse::{CooMatrix, CsrMatrix};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Deterministic RNG from a 64-bit seed.
pub fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Rewrites values so the matrix becomes strictly row-wise diagonally
/// dominant: off-diagonals are drawn from `[-1, -0.05] ∪ [0.05, 1]`
/// (scaled), and each diagonal is set to `margin + Σ|offdiag|`.
///
/// Diagonal dominance guarantees ILU(0) cannot hit a zero pivot and
/// keeps iteration counts of the Krylov studies finite.
pub(crate) fn make_diagonally_dominant(
    a: &CsrMatrix<f64>,
    margin: f64,
    seed: u64,
) -> CsrMatrix<f64> {
    let mut r = rng(seed);
    let n = a.nrows();
    let mut coo = CooMatrix::with_capacity(n, n, a.nnz());
    for row in 0..n {
        let mut offsum = 0.0;
        let mut entries: Vec<(usize, f64)> = Vec::with_capacity(a.row_nnz(row));
        for &c in a.row_cols(row) {
            if c != row {
                let mag: f64 = r.gen_range(0.05..1.0);
                let sign = if r.gen_bool(0.5) { 1.0 } else { -1.0 };
                let v = sign * mag;
                offsum += v.abs();
                entries.push((c, v));
            }
        }
        coo.push_unchecked(row, row, margin + offsum);
        for (c, v) in entries {
            coo.push_unchecked(row, c, v);
        }
    }
    coo.to_csr()
}

/// Deterministic column-major multi-RHS fixture: an `n × k` panel
/// (column stride `n`, ready for `javelin_sparse::Panel::new`) whose
/// columns carry visibly different structure — a smooth mode, an
/// oscillatory mode, and seeded noise — so batched-solve tests and
/// benchmarks exercise genuinely distinct systems per column rather
/// than `k` copies of one vector.
pub fn rhs_panel(n: usize, k: usize, seed: u64) -> Vec<f64> {
    let mut r = rng(seed);
    let mut data = vec![0.0f64; n * k];
    for c in 0..k {
        let freq = 1.0 + c as f64;
        for i in 0..n {
            let t = i as f64 / n.max(1) as f64;
            let smooth = (freq * std::f64::consts::PI * t).sin();
            let ripple = if c % 2 == 0 {
                (7.0 * t * freq).cos()
            } else {
                0.0
            };
            let noise: f64 = r.gen_range(-0.25..0.25);
            data[c * n + i] = smooth + 0.3 * ripple + noise;
        }
    }
    data
}

/// Deterministic same-pattern value drift: `v_k ← v_k · (1 +
/// amplitude·sin(k·seed))` — the "time step's worth of change" fixture
/// for numeric-refactorization tests and benchmarks. The sparsity
/// pattern is untouched, so the result is valid input for
/// `IluFactors::refactor` against an analysis of `a`; small amplitudes
/// (≲ 0.05) keep diagonally dominant inputs factorable.
pub fn revalue(a: &CsrMatrix<f64>, seed: f64, amplitude: f64) -> CsrMatrix<f64> {
    let (nr, nc, rp, ci, mut vs) = a.clone().into_parts();
    for (k, v) in vs.iter_mut().enumerate() {
        *v *= 1.0 + amplitude * ((k as f64 * seed).sin());
    }
    CsrMatrix::from_raw_unchecked(nr, nc, rp, ci, vs)
}

/// Appends `m` heavy border rows to a square `a`: row `n + i` holds
/// two thirds of the base columns (`j % 3 != i % 3`), a coupling to
/// border row `i − 2` and a dominant diagonal; the base rows are
/// unchanged. Under level scheduling the border rows form a trailing
/// suffix of two-row levels — a few-but-heavy lower stage with a
/// corner of two independent chains.
pub fn bordered(a: &CsrMatrix<f64>, m: usize) -> CsrMatrix<f64> {
    let n = a.nrows();
    let mut coo = CooMatrix::with_capacity(n + m, n + m, a.nnz() + m * n);
    for (r, c, v) in a.iter() {
        coo.push_unchecked(r, c, v);
    }
    for i in 0..m {
        let mut off = 0.0;
        for j in (0..n).filter(|j| j % 3 != i % 3) {
            let v = -0.02 * (1 + (i + j) % 5) as f64;
            coo.push_unchecked(n + i, j, v);
            off += v.abs();
        }
        if i >= 2 {
            coo.push_unchecked(n + i, n + i - 2, -0.5);
            off += 0.5;
        }
        coo.push_unchecked(n + i, n + i, off + 2.0);
    }
    coo.to_csr()
}

/// Random nonsymmetric perturbation of values (pattern preserved):
/// `v ← v · (1 + amp·u)` with `u ∈ [-1, 1)`. Useful for turning a
/// symmetric stencil into a "semiconductor-device-like" nonsymmetric
/// system while keeping the symmetric pattern.
pub fn perturb_values(a: &CsrMatrix<f64>, amp: f64, seed: u64) -> CsrMatrix<f64> {
    let r = std::cell::RefCell::new(rng(seed));
    a.map_values(|v| v * (1.0 + amp * (r.borrow_mut().gen::<f64>() * 2.0 - 1.0)))
}

/// Drops a random subset of *off-diagonal* entries with probability
/// `p_drop`, breaking pattern symmetry (used for tetrahedral-mesh-like
/// analogues whose patterns are not quite symmetric).
pub fn drop_random_offdiag(a: &CsrMatrix<f64>, p_drop: f64, seed: u64) -> CsrMatrix<f64> {
    let mut r = rng(seed);
    let n = a.nrows();
    let mut coo = CooMatrix::with_capacity(n, a.ncols(), a.nnz());
    for (row, c, v) in a.iter() {
        if row == c || r.gen::<f64>() >= p_drop {
            coo.push_unchecked(row, c, v);
        }
    }
    coo.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use javelin_sparse::CooMatrix;

    fn ring(n: usize) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0).unwrap();
            coo.push(i, (i + 1) % n, 1.0).unwrap();
            coo.push((i + 1) % n, i, 1.0).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn diagonal_dominance_holds() {
        let a = make_diagonally_dominant(&ring(10), 1.0, 7);
        for r in 0..a.nrows() {
            let mut off = 0.0;
            let mut diag = 0.0;
            for (k, &c) in a.row_cols(r).iter().enumerate() {
                let v = a.row_vals(r)[k];
                if c == r {
                    diag = v;
                } else {
                    off += v.abs();
                }
            }
            assert!(diag >= off + 0.99, "row {r}: diag {diag} vs off {off}");
        }
    }

    #[test]
    fn rhs_panel_is_deterministic_with_distinct_columns() {
        let p1 = rhs_panel(40, 4, 9);
        let p2 = rhs_panel(40, 4, 9);
        assert_eq!(p1, p2, "same seed must reproduce the panel");
        assert_ne!(p1, rhs_panel(40, 4, 10), "seed must matter");
        for c in 1..4 {
            assert_ne!(
                &p1[..40],
                &p1[c * 40..(c + 1) * 40],
                "column {c} must differ from column 0"
            );
        }
        assert!(p1.iter().all(|v| v.is_finite()));
        assert!(rhs_panel(10, 0, 1).is_empty());
    }

    #[test]
    fn deterministic_with_same_seed() {
        let a = make_diagonally_dominant(&ring(10), 1.0, 42);
        let b = make_diagonally_dominant(&ring(10), 1.0, 42);
        assert!(a.approx_eq(&b, 0.0));
        let c = make_diagonally_dominant(&ring(10), 1.0, 43);
        assert!(!a.approx_eq(&c, 1e-12));
    }

    #[test]
    fn perturbation_keeps_pattern() {
        let a = ring(8);
        let b = perturb_values(&a, 0.3, 3);
        assert_eq!(a.rowptr(), b.rowptr());
        assert_eq!(a.colidx(), b.colidx());
        assert!(!a.approx_eq(&b, 1e-9));
    }

    #[test]
    fn dropping_breaks_symmetry_but_keeps_diag() {
        let a = ring(50);
        let b = drop_random_offdiag(&a, 0.4, 11);
        assert!(b.nnz() < a.nnz());
        for r in 0..b.nrows() {
            assert!(b.get(r, r).is_some());
        }
        assert!(!b.is_pattern_symmetric());
    }

    #[test]
    fn bordered_appends_heavy_dominant_rows_and_keeps_the_base() {
        let a = ring(9);
        let b = bordered(&a, 3);
        assert_eq!((b.nrows(), b.ncols()), (12, 12));
        for r in 0..9 {
            assert_eq!(b.row_cols(r), a.row_cols(r));
            assert_eq!(b.row_vals(r), a.row_vals(r));
        }
        // Border row 2: six base columns, border row 0, the diagonal.
        assert_eq!(b.row_cols(11), [0, 1, 3, 4, 6, 7, 9, 11]);
        let (vals, cols) = (b.row_vals(11), b.row_cols(11));
        let diag = vals[cols.len() - 1];
        let off: f64 = vals[..cols.len() - 1].iter().map(|v| v.abs()).sum();
        assert!(diag > off + 1.0);
    }
}
