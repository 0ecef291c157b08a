//! Complex arithmetic.
//!
//! A small, self-contained complex number type. AC small-signal analysis
//! assembles and solves complex linear systems `Y(jω) · x = b`, and the
//! stability methodology post-processes complex nodal responses, so this type
//! is used pervasively across the workspace.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// ```
/// use loopscope_math::Complex64;
///
/// let a = Complex64::new(1.0, 2.0);
/// let b = Complex64::new(3.0, -1.0);
/// let c = a * b;
/// assert_eq!(c, Complex64::new(5.0, 5.0));
/// assert!((a.abs() - 5.0_f64.sqrt()).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity `0 + 0j`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0j`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1j`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a new complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates (magnitude, phase in radians).
    ///
    /// ```
    /// use loopscope_math::Complex64;
    /// let z = Complex64::from_polar(2.0, std::f64::consts::FRAC_PI_2);
    /// assert!(z.re.abs() < 1e-15);
    /// assert!((z.im - 2.0).abs() < 1e-15);
    /// ```
    #[inline]
    pub fn from_polar(mag: f64, phase: f64) -> Self {
        Self {
            re: mag * phase.cos(),
            im: mag * phase.sin(),
        }
    }

    /// Returns the complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Returns the magnitude (modulus) `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Returns the squared magnitude `|z|²`, cheaper than [`abs`](Self::abs).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Returns the argument (phase) in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Returns the phase in degrees, in `(-180, 180]`.
    #[inline]
    pub fn arg_deg(self) -> f64 {
        self.arg().to_degrees()
    }

    /// Returns the multiplicative inverse `1/z`.
    ///
    /// Returns a non-finite value when `self` is zero.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Self::new(self.re / d, -self.im / d)
    }

    /// Returns the principal square root.
    ///
    /// ```
    /// use loopscope_math::Complex64;
    /// let z = Complex64::new(-4.0, 0.0).sqrt();
    /// assert!(z.re.abs() < 1e-15 && (z.im - 2.0).abs() < 1e-15);
    /// ```
    pub fn sqrt(self) -> Self {
        let (r, theta) = self.to_polar();
        Self::from_polar(r.sqrt(), theta / 2.0)
    }

    /// Returns the complex exponential `e^z`.
    pub fn exp(self) -> Self {
        Self::from_polar(self.re.exp(), self.im)
    }

    /// Returns the principal natural logarithm.
    pub fn ln(self) -> Self {
        Self::new(self.abs().ln(), self.arg())
    }

    /// Returns `(magnitude, phase)` polar form.
    #[inline]
    pub fn to_polar(self) -> (f64, f64) {
        (self.abs(), self.arg())
    }

    /// Magnitude in decibels, `20·log10(|z|)`.
    ///
    /// Returns `-inf` for a zero magnitude.
    #[inline]
    pub fn abs_db(self) -> f64 {
        20.0 * self.abs().log10()
    }

    /// Returns `true` when both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Self::new(self.re * k, self.im * k)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Self::from_real(re)
    }
}

impl Add for Complex64 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Self;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        let d = rhs.norm_sqr();
        Self::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Neg for Complex64 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl Add<f64> for Complex64 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: f64) -> Self {
        Self::new(self.re + rhs, self.im)
    }
}

impl Sub<f64> for Complex64 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: f64) -> Self {
        Self::new(self.re - rhs, self.im)
    }
}

impl Mul<f64> for Complex64 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Div<f64> for Complex64 {
    type Output = Self;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Self::new(self.re / rhs, self.im / rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex64, b: Complex64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn basic_arithmetic() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(-3.0, 0.5);
        assert!(close(a + b, Complex64::new(-2.0, 2.5)));
        assert!(close(a - b, Complex64::new(4.0, 1.5)));
        assert!(close(a * b, Complex64::new(-4.0, -5.5)));
        assert!(close((a / b) * b, a));
    }

    #[test]
    fn conj_and_norm() {
        let a = Complex64::new(3.0, -4.0);
        assert_eq!(a.conj(), Complex64::new(3.0, 4.0));
        assert!((a.abs() - 5.0).abs() < 1e-15);
        assert!((a.norm_sqr() - 25.0).abs() < 1e-15);
    }

    #[test]
    fn recip_is_inverse() {
        let a = Complex64::new(0.3, -1.7);
        assert!(close(a * a.recip(), Complex64::ONE));
    }

    #[test]
    fn polar_roundtrip() {
        let a = Complex64::new(-2.0, 1.0);
        let (r, th) = a.to_polar();
        assert!(close(Complex64::from_polar(r, th), a));
    }

    #[test]
    fn sqrt_squares_back() {
        for z in [
            Complex64::new(4.0, 0.0),
            Complex64::new(-1.0, 0.0),
            Complex64::new(3.0, -7.0),
        ] {
            let s = z.sqrt();
            assert!(close(s * s, z));
        }
    }

    #[test]
    fn exp_ln_roundtrip() {
        let z = Complex64::new(0.5, 1.2);
        assert!(close(z.exp().ln(), z));
    }

    #[test]
    fn db_of_unit_is_zero() {
        assert!(Complex64::ONE.abs_db().abs() < 1e-12);
        assert!((Complex64::new(10.0, 0.0).abs_db() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex64::new(1.0, 2.0).to_string(), "1+2j");
        assert_eq!(Complex64::new(1.0, -2.0).to_string(), "1-2j");
    }

    #[test]
    fn sum_iterator() {
        let s: Complex64 = (0..4).map(|i| Complex64::new(i as f64, 1.0)).sum();
        assert!(close(s, Complex64::new(6.0, 4.0)));
    }

    #[test]
    fn mixed_real_ops() {
        let a = Complex64::new(1.0, 1.0);
        assert!(close(a + 1.0, Complex64::new(2.0, 1.0)));
        assert!(close(a - 1.0, Complex64::new(0.0, 1.0)));
        assert!(close(a * 2.0, Complex64::new(2.0, 2.0)));
        assert!(close(a / 2.0, Complex64::new(0.5, 0.5)));
        assert!(close(2.0 * a, Complex64::new(2.0, 2.0)));
    }
}
