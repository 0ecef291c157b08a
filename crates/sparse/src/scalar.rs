//! Scalar abstraction over real and complex arithmetic.

use loopscope_math::Complex64;
use std::fmt::Debug;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// The scalar field a sparse matrix is defined over.
///
/// Implemented for `f64` (DC, transient) and [`Complex64`] (AC). The trait is
/// sealed in spirit: downstream crates are not expected to implement it.
pub trait Scalar:
    Copy
    + Debug
    + PartialEq
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Magnitude used for pivot selection and singularity checks.
    fn modulus(self) -> f64;

    /// Squared magnitude — no square root / `hypot`, so it is the cheap form
    /// the magnitude argmax scans run on. Unlike [`modulus`](Scalar::modulus)
    /// it is subject to premature underflow (|z| ≲ 1e-154 squares to a
    /// subnormal or zero) and overflow (|z| ≳ 1e154 squares to infinity);
    /// callers must fall back to `modulus` when the winning square
    /// degenerates.
    fn modulus_sqr(self) -> f64;

    /// `true` when every component of the value is finite (neither NaN nor
    /// ±∞). Non-finite values silently escape magnitude scans and pivot
    /// comparisons (every NaN comparison is false), so the factorizations
    /// check this explicitly.
    fn is_finite(self) -> bool;

    /// Complex conjugate (the identity for real scalars) — used by the
    /// adjoint substitution sweeps of the condition estimator.
    fn conj(self) -> Self;

    /// Cheap magnitude surrogate for norm *estimates*: `|re| + |im|` for
    /// complex values, `|x|` for real ones. Within √2 of
    /// [`modulus`](Scalar::modulus), with no `hypot` and no intermediate
    /// under/overflow — good enough for the backward-error denominator of
    /// the refined solves, where a constant-factor-accurate scale is all
    /// that is needed.
    fn modulus_l1(self) -> f64;

    /// Embeds a real number into the scalar field.
    fn from_f64(x: f64) -> Self;

    /// Number of `f64` planes a lane-major store splits the value into: one
    /// for `f64`, two (real, then imaginary) for [`Complex64`].
    const PLANES: usize;

    /// The real part (the value itself for `f64`).
    fn re(self) -> f64;

    /// The imaginary part (`0` for `f64`).
    fn im(self) -> f64;

    /// The value with parts `re` and `im` (`im` is ignored for `f64`).
    fn from_parts(re: f64, im: f64) -> Self;

    /// Returns `true` when the value is exactly zero.
    fn is_zero(self) -> bool {
        self == Self::ZERO
    }
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    #[inline]
    fn modulus(self) -> f64 {
        self.abs()
    }

    #[inline]
    fn modulus_sqr(self) -> f64 {
        self * self
    }

    #[inline]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }

    #[inline]
    fn conj(self) -> Self {
        self
    }

    #[inline]
    fn modulus_l1(self) -> f64 {
        self.abs()
    }

    #[inline]
    fn from_f64(x: f64) -> Self {
        x
    }

    const PLANES: usize = 1;

    #[inline]
    fn re(self) -> f64 {
        self
    }

    #[inline]
    fn im(self) -> f64 {
        0.0
    }

    #[inline]
    fn from_parts(re: f64, _im: f64) -> Self {
        re
    }
}

impl Scalar for Complex64 {
    const ZERO: Self = Complex64::ZERO;
    const ONE: Self = Complex64::ONE;

    #[inline]
    fn modulus(self) -> f64 {
        self.abs()
    }

    #[inline]
    fn modulus_sqr(self) -> f64 {
        self.norm_sqr()
    }

    #[inline]
    fn is_finite(self) -> bool {
        Complex64::is_finite(self)
    }

    #[inline]
    fn conj(self) -> Self {
        Complex64::conj(self)
    }

    #[inline]
    fn modulus_l1(self) -> f64 {
        self.re.abs() + self.im.abs()
    }

    #[inline]
    fn from_f64(x: f64) -> Self {
        Complex64::from_real(x)
    }

    const PLANES: usize = 2;

    #[inline]
    fn re(self) -> f64 {
        self.re
    }

    #[inline]
    fn im(self) -> f64 {
        self.im
    }

    #[inline]
    fn from_parts(re: f64, im: f64) -> Self {
        Complex64::new(re, im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_scalar_basics() {
        assert_eq!(f64::ZERO, 0.0);
        assert_eq!(f64::ONE, 1.0);
        assert_eq!((-3.0f64).modulus(), 3.0);
        assert!(f64::ZERO.is_zero());
        assert!(!f64::ONE.is_zero());
        assert_eq!(f64::from_f64(2.5), 2.5);
        assert_eq!((-3.0f64).modulus_sqr(), 9.0);
        assert_eq!(Scalar::conj(-3.0f64), -3.0);
        assert_eq!((-3.0f64).modulus_l1(), 3.0);
        assert_eq!(f64::PLANES, 1);
        assert_eq!(<f64 as Scalar>::from_parts(2.5, 7.0), 2.5);
        assert_eq!((2.5f64.re(), 2.5f64.im()), (2.5, 0.0));
        assert!(Scalar::is_finite(1.0f64));
        assert!(!Scalar::is_finite(f64::NAN));
        assert!(!Scalar::is_finite(f64::INFINITY));
        // The documented hazard: modulus is exact where the square underflows.
        assert_eq!((1.0e-200f64).modulus_sqr(), 0.0);
        assert_eq!((1.0e-200f64).modulus(), 1.0e-200);
    }

    #[test]
    fn complex_scalar_basics() {
        assert!(Complex64::ZERO.is_zero());
        assert!(!Complex64::I.is_zero());
        assert!((Complex64::new(3.0, 4.0).modulus() - 5.0).abs() < 1e-15);
        assert_eq!(Complex64::from_f64(1.5), Complex64::new(1.5, 0.0));
        assert_eq!(Complex64::new(3.0, 4.0).modulus_sqr(), 25.0);
        assert_eq!(Complex64::new(3.0, -4.0).modulus_l1(), 7.0);
        assert_eq!(
            Scalar::conj(Complex64::new(3.0, 4.0)),
            Complex64::new(3.0, -4.0)
        );
        assert_eq!(Complex64::PLANES, 2);
        let z = <Complex64 as Scalar>::from_parts(1.5, -2.0);
        assert_eq!((Scalar::re(z), Scalar::im(z)), (1.5, -2.0));
        assert!(Scalar::is_finite(Complex64::new(1.0, 2.0)));
        assert!(!Scalar::is_finite(Complex64::new(1.0, f64::NAN)));
        assert!(!Scalar::is_finite(Complex64::new(f64::INFINITY, 0.0)));
    }
}
