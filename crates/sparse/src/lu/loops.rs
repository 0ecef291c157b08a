//! The three inner loops of the LU hot paths: the substitution fold of the
//! single-RHS sweeps, and the update and divide of the batched variant
//! lanes. Each is a plain loop in the order that defines the results: no
//! FMA, no reassociation, and the fold's accumulator strictly sequential.

use crate::scalar::Scalar;

/// Returns `acc - Σ vals[i]·work[cols[i]]`, subtracting strictly in index
/// order (the substitution sweeps' sequential accumulator).
#[inline]
pub(crate) fn fold_sub_indexed<T: Scalar>(mut acc: T, vals: &[T], cols: &[usize], work: &[T]) -> T {
    for (v, &c) in vals.iter().zip(cols) {
        acc -= *v * work[c];
    }
    acc
}

/// `dst[w] -= a[w] * b[w]` elementwise over the common length — the w-lane
/// batched-variant update (lane = independent variant, each with its own
/// multiplier `a[w]` and factor value `b[w]`).
#[inline]
pub(crate) fn lane_mul_sub<T: Scalar>(a: &[T], b: &[T], dst: &mut [T]) {
    for ((d, x), y) in dst.iter_mut().zip(a).zip(b) {
        *d -= *x * *y;
    }
}

/// `dst[w] = dst[w] / den[w]` elementwise — the batched back-substitution
/// divide, one independent diagonal per variant lane.
#[inline]
pub(crate) fn lane_div<T: Scalar>(den: &[T], dst: &mut [T]) {
    for (d, e) in dst.iter_mut().zip(den) {
        *d = *d / *e;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        lane_mul_sub(&a, &b, &mut dst);
        assert_eq!(dst, [7.0, 16.0, 14.0, 9.0]);
        lane_div(&[2.0, 4.0, -7.0, 3.0], &mut dst);
        assert_eq!(dst, [3.5, 4.0, -2.0, 3.0]);
    }
}
