//! The numeric abstraction over which the framework is "templated".
//!
//! The reference Javelin implementation is a templated C++ library; the
//! Rust analogue is a small trait implemented for `f32` and `f64`. The
//! trait is intentionally minimal — exactly the operations incomplete
//! factorization, triangular solves and Krylov methods need — so that
//! adding a new real scalar (e.g. a software quad type) only requires a
//! handful of methods.

use std::fmt::{Debug, Display, LowerExp};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Real scalar usable as the value type of every matrix, factorization
/// and solver in the workspace.
pub trait Scalar:
    Copy
    + Send
    + Sync
    + PartialOrd
    + PartialEq
    + Debug
    + Display
    + LowerExp
    + Default
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Lossy conversion from `f64` (used by generators and tolerances).
    fn from_f64(v: f64) -> Self;
    /// Lossy conversion to `f64` (used for reporting and norms).
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Fused (or emulated) multiply-add `self * a + b`.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Machine epsilon of the type.
    fn epsilon() -> Self;
    /// Smallest positive normal value.
    fn min_positive() -> Self;
    /// `true` when the value is finite (not NaN/Inf).
    fn is_finite(self) -> bool;
    /// Larger of two values (NaN-propagating like `f64::max` is fine).
    fn max(self, other: Self) -> Self;
    /// Smaller of two values.
    fn min(self, other: Self) -> Self;
    /// Raw bit pattern widened to 64 bits.
    fn to_bits64(self) -> u64;
    /// Inverse of [`Scalar::to_bits64`].
    fn from_bits64(bits: u64) -> Self;
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        // Plain `a*b+c` keeps results bit-identical between serial and
        // parallel paths on every target; hardware FMA contraction is not
        // guaranteed by rustc anyway.
        self * a + b
    }
    #[inline(always)]
    fn epsilon() -> Self {
        f64::EPSILON
    }
    #[inline(always)]
    fn min_positive() -> Self {
        f64::MIN_POSITIVE
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline(always)]
    fn min(self, other: Self) -> Self {
        f64::min(self, other)
    }
    #[inline(always)]
    fn to_bits64(self) -> u64 {
        self.to_bits()
    }
    #[inline(always)]
    fn from_bits64(bits: u64) -> Self {
        f64::from_bits(bits)
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        self * a + b
    }
    #[inline(always)]
    fn epsilon() -> Self {
        f32::EPSILON
    }
    #[inline(always)]
    fn min_positive() -> Self {
        f32::MIN_POSITIVE
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f32::max(self, other)
    }
    #[inline(always)]
    fn min(self, other: Self) -> Self {
        f32::min(self, other)
    }
    #[inline(always)]
    fn to_bits64(self) -> u64 {
        self.to_bits() as u64
    }
    #[inline(always)]
    fn from_bits64(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Scalar>(v: f64) {
        let x = T::from_f64(v);
        assert!((x.to_f64() - v).abs() < 1e-6 * v.abs().max(1.0));
        assert_eq!(T::from_bits64(x.to_bits64()).to_f64(), x.to_f64());
    }

    #[test]
    fn f64_roundtrips() {
        for v in [0.0, 1.0, -2.5, 3.25e10, -1.0e-8] {
            roundtrip::<f64>(v);
        }
    }

    #[test]
    fn f32_roundtrips() {
        for v in [0.0, 1.0, -2.5, 3.25e4, -1.0e-6] {
            roundtrip::<f32>(v);
        }
    }

    #[test]
    fn constants_behave() {
        assert_eq!(f64::ZERO + f64::ONE, 1.0);
        assert_eq!(f32::ZERO + f32::ONE, 1.0);
        assert!(f64::epsilon() > 0.0);
        assert!(f32::epsilon() > f32::from_f64(f64::epsilon().to_f64()));
    }

    #[test]
    fn minmax_and_abs() {
        assert_eq!(Scalar::max(2.0f64, 3.0), 3.0);
        assert_eq!(Scalar::min(2.0f64, 3.0), 2.0);
        assert_eq!(Scalar::abs(-4.0f32), 4.0);
        assert!(Scalar::is_finite(1.0f64));
        assert!(!Scalar::is_finite(f64::NAN));
        assert!(!Scalar::is_finite(f64::INFINITY));
    }

    #[test]
    fn mul_add_matches_plain() {
        let (a, b, c) = (1.5f64, 2.5, -0.75);
        assert_eq!(a.mul_add(b, c), a * b + c);
    }
}
