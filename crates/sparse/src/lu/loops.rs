//! The inner loops of the LU hot paths: the substitution fold of the
//! single-RHS sweeps, and the update and divide of the batched variant
//! lanes. Each is a plain loop in the order that defines the results: no
//! FMA, no reassociation, and the fold's accumulator strictly sequential.
//!
//! The lane loops work on one slot's **chunk** of a lane-major store: its
//! `T::PLANES` planes of `width` lanes each, the real parts first, then (for
//! complex values) the imaginary parts. Each lane runs the scalar type's
//! own operators on its parts — the complex product, subtraction and
//! `norm_sqr` division of [`Complex64`](loopscope_math::Complex64) in their
//! exact order — so a lane is bitwise the scalar reference, while the loop
//! over lanes has no cross-lane dependency and the compiler may pack it.

use crate::scalar::Scalar;
use std::ops::Range;

/// Returns `acc - Σ vals[i]·work[cols[i]]`, subtracting strictly in index
/// order (the substitution sweeps' sequential accumulator).
#[inline]
pub(crate) fn fold_sub_indexed<T: Scalar>(mut acc: T, vals: &[T], cols: &[usize], work: &[T]) -> T {
    for (v, &c) in vals.iter().zip(cols) {
        acc -= *v * work[c];
    }
    acc
}

/// The real and imaginary planes of a chunk (the latter empty for `f64`).
#[inline]
fn planes<T: Scalar>(chunk: &[f64]) -> (&[f64], &[f64]) {
    if T::PLANES == 2 {
        chunk.split_at(chunk.len() / 2)
    } else {
        (chunk, &[])
    }
}

/// [`planes`] of a mutable chunk.
#[inline]
fn planes_mut<T: Scalar>(chunk: &mut [f64]) -> (&mut [f64], &mut [f64]) {
    if T::PLANES == 2 {
        let half = chunk.len() / 2;
        chunk.split_at_mut(half)
    } else {
        (chunk, &mut [])
    }
}

/// The real and imaginary planes of a chunk restricted to `lanes`, each
/// `lanes.len()` long; for `f64` the imaginary view repeats the real plane
/// (it is never read: [`Scalar::from_parts`] ignores it).
#[inline]
pub(crate) fn lane_parts<T: Scalar>(chunk: &[f64], lanes: Range<usize>) -> (&[f64], &[f64]) {
    let (re, im) = planes::<T>(chunk);
    let re = &re[lanes.clone()];
    (re, if T::PLANES == 2 { &im[lanes] } else { re })
}

/// Lane `w` of a chunk.
#[inline]
pub(crate) fn lane<T: Scalar>(chunk: &[f64], w: usize) -> T {
    let (re, im) = planes::<T>(chunk);
    T::from_parts(re[w], if T::PLANES == 2 { im[w] } else { 0.0 })
}

/// Writes `v` into lane `w` of a chunk.
#[inline]
pub(crate) fn set_lane<T: Scalar>(chunk: &mut [f64], w: usize, v: T) {
    let (re, im) = planes_mut::<T>(chunk);
    re[w] = v.re();
    if T::PLANES == 2 {
        im[w] = v.im();
    }
}

/// Running per-lane statistics of the squares `|v|²` of a lane-major scan:
/// the largest square, the smallest square of a nonzero value, and a
/// finiteness accumulator that stays `0` while every square is finite. The
/// range tests of the pivot rule ("normal or an exact zero") read off
/// the last two ([`exact`](LaneSquares::exact)); keeping them as `f64`
/// selects and sums instead of per-lane flags leaves the loop over lanes
/// free of branches.
#[derive(Debug, Clone)]
pub(crate) struct LaneSquares {
    max: Vec<f64>,
    min: Vec<f64>,
    fin: Vec<f64>,
}

impl LaneSquares {
    /// Statistics of `width` lanes, reset.
    pub(crate) fn new(width: usize) -> Self {
        Self {
            max: vec![0.0; width],
            min: vec![f64::INFINITY; width],
            fin: vec![0.0; width],
        }
    }

    /// Resets the lanes in `lanes`.
    #[inline]
    pub(crate) fn reset(&mut self, lanes: Range<usize>) {
        self.max[lanes.clone()].fill(0.0);
        self.min[lanes.clone()].fill(f64::INFINITY);
        self.fin[lanes].fill(0.0);
    }

    /// Folds lanes `lanes` of one chunk into the statistics.
    #[inline]
    pub(crate) fn fold<T: Scalar>(&mut self, chunk: &[f64], lanes: Range<usize>) {
        self.fold_from::<T, false>(chunk, lanes);
    }

    /// Restarts lanes `lanes` at the statistics of one chunk:
    /// [`reset`](LaneSquares::reset), then [`fold`](LaneSquares::fold).
    #[inline]
    pub(crate) fn start<T: Scalar>(&mut self, chunk: &[f64], lanes: Range<usize>) {
        self.fold_from::<T, true>(chunk, lanes);
    }

    // Always inlined, so each width-specialized pass folds over its
    // constant lane range: the out-of-line copy the input scan otherwise
    // calls made the 64-corner batched sweep about 3% slower.
    #[inline(always)]
    fn fold_from<T: Scalar, const FIRST: bool>(&mut self, chunk: &[f64], lanes: Range<usize>) {
        let (vr, vi) = lane_parts::<T>(chunk, lanes.clone());
        let n = vr.len();
        let max = &mut self.max[lanes.clone()][..n];
        let min = &mut self.min[lanes.clone()][..n];
        let fin = &mut self.fin[lanes][..n];
        let vi = &vi[..n];
        for k in 0..n {
            let m2 = T::from_parts(vr[k], vi[k]).modulus_sqr();
            // For `f64`, `vi` repeats `vr`, so this is `vr == 0`.
            let zero = (vr[k] == 0.0) & (vi[k] == 0.0);
            let nonzero = if zero { f64::INFINITY } else { m2 };
            // `∞·0` and `NaN·0` are NaN, which sticks.
            if FIRST {
                (min[k], fin[k], max[k]) = (nonzero, m2 * 0.0, m2);
            } else {
                min[k] = if nonzero < min[k] { nonzero } else { min[k] };
                fin[k] += m2 * 0.0;
                max[k] = if m2 > max[k] { m2 } else { max[k] };
            }
        }
    }

    /// The largest square folded into lane `w`.
    #[inline]
    pub(crate) fn max(&self, w: usize) -> f64 {
        self.max[w]
    }

    /// Whether every square folded into lane `w` is an exact zero's or lies
    /// in `[floor, ∞)` — with `floor = f64::MIN_POSITIVE`, whether it is
    /// normal or an exact zero's.
    #[inline]
    pub(crate) fn exact(&self, w: usize, floor: f64) -> bool {
        self.fin[w] == 0.0 && self.min[w] >= floor
    }

    /// Whether every square folded into lane `w` is finite.
    #[inline]
    pub(crate) fn finite(&self, w: usize) -> bool {
        self.fin[w] == 0.0
    }
}

/// `r[w] -= a[w] · x[w]` and `l1[w] += |a[w]|₁` in lanes `0..l1.len()` —
/// one entry of a lane-major residual pass, with the row sums of `‖A‖∞`.
#[inline]
pub(crate) fn lane_residual<T: Scalar>(a: &[f64], x: &[f64], r: &mut [f64], l1: &mut [f64]) {
    let n = l1.len();
    let (ar, ai) = lane_parts::<T>(a, 0..n);
    let (xr, xi) = lane_parts::<T>(x, 0..n);
    let (rr, ri) = planes_mut::<T>(r);
    let (ai, xi, rr) = (&ai[..n], &xi[..n], &mut rr[..n]);
    let ri = &mut ri[..if T::PLANES == 2 { n } else { 0 }];
    for k in 0..n {
        let v = T::from_parts(ar[k], ai[k]);
        let acc = T::from_parts(rr[k], if T::PLANES == 2 { ri[k] } else { 0.0 })
            - v * T::from_parts(xr[k], xi[k]);
        rr[k] = acc.re();
        if T::PLANES == 2 {
            ri[k] = acc.im();
        }
        l1[k] += v.modulus_l1();
    }
}

/// `dst[w] -= m[w] · u[w]` in every lane — the batched-variant update
/// (lane = independent variant, each with its own multiplier `m[w]` and
/// factor value `u[w]`).
#[inline]
pub(crate) fn lane_mul_sub<T: Scalar>(m: &[f64], u: &[f64], dst: &mut [f64]) {
    let (mr, mi) = planes::<T>(m);
    let (ur, ui) = planes::<T>(u);
    let (dr, di) = planes_mut::<T>(dst);
    let w = dr.len();
    let (mr, ur) = (&mr[..w], &ur[..w]);
    if T::PLANES == 1 {
        for k in 0..w {
            dr[k] -= mr[k] * ur[k];
        }
    } else {
        let (mi, ui, di) = (&mi[..w], &ui[..w], &mut di[..w]);
        for k in 0..w {
            let z = T::from_parts(dr[k], di[k])
                - T::from_parts(mr[k], mi[k]) * T::from_parts(ur[k], ui[k]);
            dr[k] = z.re();
            di[k] = z.im();
        }
    }
}

/// [`lane_mul_sub`] that leaves a lane untouched where its multiplier is
/// exactly zero — the scalar refactorization's `is_zero` skip (subtracting
/// an exact-zero product can still flip a signed zero, and `0·∞` would make
/// NaN).
#[inline]
pub(crate) fn lane_mul_sub_nonzero<T: Scalar>(m: &[f64], u: &[f64], dst: &mut [f64]) {
    let w = dst.len() / T::PLANES;
    for k in 0..w {
        let mult: T = lane(m, k);
        if !mult.is_zero() {
            let d = lane::<T>(dst, k) - mult * lane::<T>(u, k);
            set_lane(dst, k, d);
        }
    }
}

/// Whether no lane of the chunk is exactly zero.
#[inline]
pub(crate) fn lanes_nonzero<T: Scalar>(chunk: &[f64]) -> bool {
    let w = chunk.len() / T::PLANES;
    (0..w).all(|k| !lane::<T>(chunk, k).is_zero())
}

/// `dst[w] = dst[w] / den[w]` in every lane — the batched divide, one
/// independent diagonal per variant lane.
#[inline]
pub(crate) fn lane_div<T: Scalar>(den: &[f64], dst: &mut [f64]) {
    let (er, ei) = planes::<T>(den);
    let (dr, di) = planes_mut::<T>(dst);
    let w = dr.len();
    let er = &er[..w];
    if T::PLANES == 1 {
        for k in 0..w {
            dr[k] /= er[k];
        }
    } else {
        let (ei, di) = (&ei[..w], &mut di[..w]);
        for k in 0..w {
            let z = T::from_parts(dr[k], di[k]) / T::from_parts(er[k], ei[k]);
            dr[k] = z.re();
            di[k] = z.im();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopscope_math::Complex64;

    #[test]
    fn scalar_reference_semantics() {
        let vals = [2.0f64, -3.0, 0.5];
        let cols = [2usize, 0, 1];
        let work = [10.0f64, 20.0, 30.0];
        let acc = fold_sub_indexed(1.0, &vals, &cols, &work);
        assert_eq!(acc, 1.0 - 2.0 * 30.0 + 3.0 * 10.0 - 0.5 * 20.0);
    }

    #[test]
    fn lane_scalar_reference_semantics() {
        let a = [2.0f64, -3.0, 0.5, 4.0];
        let b = [1.5f64, 2.0, -8.0, 0.25];
        let mut dst = [10.0f64, 10.0, 10.0, 10.0];
        lane_mul_sub::<f64>(&a, &b, &mut dst);
        assert_eq!(dst, [7.0, 16.0, 14.0, 9.0]);
        lane_div::<f64>(&[2.0, 4.0, -7.0, 3.0], &mut dst);
        assert_eq!(dst, [3.5, 4.0, -2.0, 3.0]);
    }

    /// Complex chunks hold the real plane, then the imaginary plane; every
    /// lane is bitwise the scalar `Complex64` arithmetic.
    #[test]
    fn complex_lanes_are_the_scalar_operators() {
        let zs = |v: &[(f64, f64)]| -> Vec<f64> {
            v.iter().map(|z| z.0).chain(v.iter().map(|z| z.1)).collect()
        };
        let a = [(2.0, 1.0 / 3.0), (-3.0, 0.7), (0.0, 0.0), (1e300, 1e-300)];
        let b = [(1.5, -2.0), (0.1, 0.2), (f64::INFINITY, 1.0), (3.0, -1e300)];
        let d = [(10.0, -0.0), (1.0 / 7.0, 5.0), (4.0, 4.0), (-2.0, 1e-10)];
        let (ca, cb) = (zs(&a), zs(&b));
        let mut dst = zs(&d);
        lane_mul_sub::<Complex64>(&ca, &cb, &mut dst);
        let mut skip = zs(&d);
        lane_mul_sub_nonzero::<Complex64>(&ca, &cb, &mut skip);
        assert!(!lanes_nonzero::<Complex64>(&ca) && lanes_nonzero::<Complex64>(&cb));
        let mut quot = zs(&d);
        lane_div::<Complex64>(&cb, &mut quot);
        let bits = |z: Complex64| (z.re.to_bits(), z.im.to_bits());
        for k in 0..4 {
            let (x, y, z) = (
                Complex64::new(a[k].0, a[k].1),
                Complex64::new(b[k].0, b[k].1),
                Complex64::new(d[k].0, d[k].1),
            );
            assert_eq!(bits(lane(&dst, k)), bits(z - x * y), "lane {k}");
            let skipped = if x.is_zero() { z } else { z - x * y };
            assert_eq!(bits(lane(&skip, k)), bits(skipped), "lane {k}");
            assert_eq!(bits(lane(&quot, k)), bits(z / y), "lane {k}");
        }
    }
}
