//! Dense-vector kernels used by the iterative solvers.
//!
//! Serial building blocks only; the parallel spmv/stri variants live in
//! `javelin-core` where they can use the shared thread pool.

use crate::scalar::Scalar;

/// Dot product `xᵀ·y`.
///
/// # Panics
/// When lengths differ.
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y.iter()).map(|(&a, &b)| a * b).sum()
}

/// Euclidean norm `‖x‖₂`.
pub fn norm2<T: Scalar>(x: &[T]) -> T {
    dot(x, x).sqrt()
}

/// Infinity norm `‖x‖∞`.
#[cfg(test)]
pub(crate) fn norm_inf<T: Scalar>(x: &[T]) -> T {
    x.iter().fold(T::ZERO, |m, &v| m.max(v.abs()))
}

/// `y ← a·x + y`.
///
/// # Panics
/// When lengths differ.
pub fn axpy<T: Scalar>(a: T, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi += a * xi;
    }
}

/// `y ← x + b·y` (the "xpby" update CG uses for direction vectors).
///
/// # Panics
/// When lengths differ.
pub fn xpby<T: Scalar>(x: &[T], b: T, y: &mut [T]) {
    assert_eq!(x.len(), y.len(), "xpby: length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi = xi + b * *yi;
    }
}

/// `x ← a·x`.
pub fn scale<T: Scalar>(a: T, x: &mut [T]) {
    for xi in x.iter_mut() {
        *xi *= a;
    }
}

/// Copies `src` into `dst`.
///
/// # Panics
/// When lengths differ.
pub fn copy<T: Scalar>(src: &[T], dst: &mut [T]) {
    assert_eq!(src.len(), dst.len(), "copy: length mismatch");
    dst.copy_from_slice(src);
}

/// `out = x - y`.
///
/// # Panics
/// When lengths differ.
pub fn sub<T: Scalar>(x: &[T], y: &[T]) -> Vec<T> {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    x.iter().zip(y.iter()).map(|(&a, &b)| a - b).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let x = vec![3.0, 4.0];
        assert_eq!(dot(&x, &x), 25.0);
        assert_eq!(norm2(&x), 5.0);
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
        assert_eq!(norm2::<f64>(&[]), 0.0);
    }

    #[test]
    fn axpy_updates() {
        let x = vec![1.0, 2.0];
        let mut y = vec![10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![12.0, 24.0]);
    }

    #[test]
    fn xpby_updates() {
        let x = vec![1.0, 1.0];
        let mut y = vec![3.0, 5.0];
        xpby(&x, 2.0, &mut y);
        assert_eq!(y, vec![7.0, 11.0]);
    }

    #[test]
    fn scale_copy_sub() {
        let mut x = vec![1.0, -2.0];
        scale(3.0, &mut x);
        assert_eq!(x, vec![3.0, -6.0]);
        let mut y = vec![0.0; 2];
        copy(&x, &mut y);
        assert_eq!(y, x);
        assert_eq!(sub(&x, &y), vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "dot: length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
