//! Dense-vector kernels of the iterative solvers, and the one
//! definition of their reduction.
//!
//! [`dot`] is blocked and reproducible (Demmel & Nguyen, *Fast
//! Reproducible Floating-Point Summation*, ARITH 2013): the vectors are
//! cut into fixed blocks of [`DOT_BLOCK`] entries, each block is summed
//! by [`block_dot`] — 8 interleaved partials, combined in a fixed tree,
//! then the block's tail — and the block sums are added in block order,
//! starting from zero. The answer depends on the length only, never on
//! who computes a block: a threaded dot that hands each thread whole
//! blocks and adds their sums in block order after the join
//! (`javelin_core::SpmvPlan::dot`) carries these bits at every thread
//! count, and so does every panel column. [`norm2`] is `dot(x, x)`'s
//! square root.
//!
//! The updates are one element-wise pass each: [`map`], [`zip`] and
//! [`zip3`] apply a closure to `y` and zero, one or two input vectors,
//! entry by entry, and [`axpy`] is [`zip`] with `y + a·x`. Because each
//! entry's arithmetic is its own, a threaded pass over any split of the
//! entries (the same `SpmvPlan` methods) carries the serial bits.

use crate::scalar::Scalar;

/// Entries per reduction block of [`dot`]: a fixed length, so the
/// blocks — and the bits — depend on the vector length only.
pub const DOT_BLOCK: usize = 4_096;

/// Blocks of [`DOT_BLOCK`] entries an `n`-vector's [`dot`] sums: the
/// number of block-sum slots a threaded dot needs.
pub fn n_blocks(n: usize) -> usize {
    n.div_ceil(DOT_BLOCK)
}

/// One block's sum `xᵀ·y` (any length; [`dot`] hands it at most
/// [`DOT_BLOCK`] entries): 8 interleaved partials over the whole
/// groups of 8 entries, combined as `((p₀+p₁)+(p₂+p₃))+((p₄+p₅)+(p₆+p₇))`,
/// then the tail's products added in order.
///
/// # Panics
/// When lengths differ.
pub fn block_dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let mut p = [T::ZERO; 8];
    let (xs, ys) = (x.chunks_exact(8), y.chunks_exact(8));
    let (x_tail, y_tail) = (xs.remainder(), ys.remainder());
    for (xg, yg) in xs.zip(ys) {
        for l in 0..8 {
            p[l] += xg[l] * yg[l];
        }
    }
    let mut sum = ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]));
    for (&a, &b) in x_tail.iter().zip(y_tail) {
        sum += a * b;
    }
    sum
}

/// Dot product `xᵀ·y`, blocked (see module docs): the [`block_dot`]s
/// of consecutive [`DOT_BLOCK`]-entry blocks, added in block order.
///
/// # Panics
/// When lengths differ.
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.chunks(DOT_BLOCK)
        .zip(y.chunks(DOT_BLOCK))
        .fold(T::ZERO, |sum, (xb, yb)| sum + block_dot(xb, yb))
}

/// Euclidean norm `‖x‖₂`: `dot(x, x).sqrt()`.
pub fn norm2<T: Scalar>(x: &[T]) -> T {
    dot(x, x).sqrt()
}

/// Infinity norm `‖x‖∞`.
#[cfg(test)]
pub(crate) fn norm_inf<T: Scalar>(x: &[T]) -> T {
    x.iter().fold(T::ZERO, |m, &v| m.max(v.abs()))
}

/// `y ← a·x + y`: [`zip`] with `y + a·x`.
///
/// # Panics
/// When lengths differ.
pub fn axpy<T: Scalar>(a: T, x: &[T], y: &mut [T]) {
    zip(y, x, |yi, xi| yi + a * xi);
}

/// `yᵢ ← f(yᵢ)` for every entry (a fill, a scale).
pub fn map<T: Scalar>(y: &mut [T], f: impl Fn(T) -> T) {
    for yi in y.iter_mut() {
        *yi = f(*yi);
    }
}

/// `yᵢ ← f(yᵢ, xᵢ)` for every entry (an axpy, an xpby, a copy, a
/// residual `b − y`).
///
/// # Panics
/// When lengths differ.
pub fn zip<T: Scalar>(y: &mut [T], x: &[T], f: impl Fn(T, T) -> T) {
    assert_eq!(x.len(), y.len(), "zip: length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = f(*yi, xi);
    }
}

/// `yᵢ ← f(yᵢ, uᵢ, vᵢ)` for every entry (BiCGSTAB's direction
/// `p ← r + β(p − ω·v)`).
///
/// # Panics
/// When lengths differ.
pub fn zip3<T: Scalar>(y: &mut [T], u: &[T], v: &[T], f: impl Fn(T, T, T) -> T) {
    assert_eq!(u.len(), y.len(), "zip3: length mismatch");
    assert_eq!(v.len(), y.len(), "zip3: length mismatch");
    for ((yi, &ui), &vi) in y.iter_mut().zip(u).zip(v) {
        *yi = f(*yi, ui, vi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lengths around the block edges the unit tests sweep.
    const LENGTHS: [usize; 9] = [
        0,
        1,
        7,
        8,
        9,
        DOT_BLOCK - 1,
        DOT_BLOCK,
        DOT_BLOCK + 1,
        3 * DOT_BLOCK + 5,
    ];

    /// A deterministic pseudo-random vector in `[-1, 1)` (no libm).
    fn lcg(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (s >> 11) as f64 / (1u64 << 52) as f64 - 1.0
            })
            .collect()
    }

    /// `xᵀ·y` by Dot2 (Ogita, Rump & Oishi): each product split exactly
    /// by a fused multiply-add, every addition compensated by TwoSum.
    fn compensated_dot(x: &[f64], y: &[f64]) -> f64 {
        let (mut s, mut c) = (0.0f64, 0.0f64);
        for (&a, &b) in x.iter().zip(y) {
            let p = a * b;
            let p_err = a.mul_add(b, -p);
            let t = s + p;
            let z = t - s;
            let t_err = (s - (t - z)) + (p - z);
            s = t;
            c += p_err + t_err;
        }
        s + c
    }

    #[test]
    fn dot_and_norms() {
        let x = vec![3.0, 4.0];
        assert_eq!(dot(&x, &x), 25.0);
        assert_eq!(norm2(&x), 5.0);
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
        assert_eq!(norm2::<f64>(&[]), 0.0);
    }

    #[test]
    fn dyadic_dots_are_exact_at_every_block_edge() {
        // Every product is a multiple of 1/4 below 32 in magnitude, so
        // every partial and block sum is exact in any order: the
        // blocked dot must return the exact sum at each length.
        for n in LENGTHS {
            let x: Vec<f64> = (0..n).map(|i| (i % 17) as f64 - 8.0).collect();
            let y: Vec<f64> = (0..n).map(|i| (i % 5) as f64 * 0.25 - 0.5).collect();
            let exact: i64 = (0..n)
                .map(|i| ((i % 17) as i64 - 8) * ((i % 5) as i64 - 2))
                .sum();
            assert_eq!(dot(&x, &y), exact as f64 * 0.25, "n={n}");
        }
    }

    #[test]
    fn dot_is_the_block_order_sum_of_block_dots() {
        // The definition itself: block sums added in block order from
        // zero — the combine a threaded dot performs after its join.
        for n in LENGTHS {
            let (x, y) = (lcg(n, 3), lcg(n, 4));
            let mut sum = 0.0;
            for b in 0..n_blocks(n) {
                let r = b * DOT_BLOCK..((b + 1) * DOT_BLOCK).min(n);
                sum += block_dot(&x[r.clone()], &y[r]);
            }
            assert_eq!(dot(&x, &y).to_bits(), sum.to_bits(), "n={n}");
        }
        assert_eq!(n_blocks(0), 0);
        assert_eq!(n_blocks(DOT_BLOCK), 1);
        assert_eq!(n_blocks(DOT_BLOCK + 1), 2);
    }

    #[test]
    fn dot_error_is_within_the_summation_bound() {
        // |dot − xᵀy| ≤ n·ε·Σ|xᵢyᵢ| against a compensated reference.
        for n in LENGTHS {
            for seed in 0..4 {
                let (x, y) = (lcg(n, 2 * seed + 1), lcg(n, 2 * seed + 2));
                let reference = compensated_dot(&x, &y);
                let magnitude: f64 = x.iter().zip(&y).map(|(a, b)| (a * b).abs()).sum();
                let bound = n as f64 * f64::EPSILON * magnitude;
                let err = (dot(&x, &y) - reference).abs();
                assert!(err <= bound, "n={n} seed={seed}: {err:e} > {bound:e}");
            }
        }
    }

    #[test]
    fn dot_propagates_nan_and_infinities() {
        let n = 3 * DOT_BLOCK + 5;
        // In the first block, in a middle block, and in the last
        // block's tail.
        for at in [5, DOT_BLOCK + 4_093, n - 1] {
            let ones = vec![1.0; n];
            let mut x = vec![1.0; n];
            x[at] = f64::NAN;
            assert!(dot(&x, &ones).is_nan(), "NaN at {at}");
            x[at] = f64::INFINITY;
            assert_eq!(dot(&x, &ones), f64::INFINITY, "+inf at {at}");
            x[at] = f64::NEG_INFINITY;
            assert_eq!(dot(&x, &ones), f64::NEG_INFINITY, "-inf at {at}");
            x[0] = f64::INFINITY;
            assert!(dot(&x, &ones).is_nan(), "+inf and -inf at {at}");
            assert_eq!(norm2(&x), f64::INFINITY, "norm at {at}");
        }
    }

    #[test]
    fn axpy_updates() {
        let x = vec![1.0, 2.0];
        let mut y = vec![10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![12.0, 24.0]);
    }

    #[test]
    fn map_zip_and_zip3_update_every_entry() {
        let mut y = vec![1.0, -2.0];
        map(&mut y, |v| 3.0 * v);
        assert_eq!(y, vec![3.0, -6.0]);
        zip(&mut y, &[1.0, 1.0], |v, x| x + 2.0 * v);
        assert_eq!(y, vec![7.0, -11.0]);
        zip3(&mut y, &[1.0, 2.0], &[0.5, 1.0], |p, r, q| {
            r + 2.0 * (p - q)
        });
        assert_eq!(y, vec![14.0, -22.0]);
    }

    #[test]
    #[should_panic(expected = "dot: length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "zip: length mismatch")]
    fn zip_length_mismatch_panics() {
        zip(&mut [1.0], &[1.0, 2.0], |y, x| y + x);
    }
}
