//! Explicitly vectorized inner-loop primitives for the LU hot paths.
//!
//! Two inner-loop shapes of the LU hot paths are vectorized here:
//!
//! 1. the **per-entry fold** of the single-RHS substitution sweeps
//!    (`acc -= vals[i] · work[cols[i]]`, strictly in order), and
//! 2. the **w-wide variant-lane update** of the batched many-variant
//!    refactor/solve (`dst[w] -= a[w] · b[w]` / `dst[w] = dst[w] / den[w]`
//!    over `w` contiguous variant lanes — every lane carries its *own*
//!    factor value, because each lane is an independent matrix sharing only
//!    the fill pattern).
//!
//! The scalar refactorization's updates are not among them: its compiled op
//! lists address factor slots directly (see [`crate::SparseLu::refactor_into`]),
//! one short update row per multiplier, which a plain loop serves.
//!
//! This module implements each primitive twice — a portable scalar reference
//! ([`scalar`]) and an AVX2 split-lane `(re, im)` form over
//! `core::arch::x86_64` — and exposes safe per-type dispatchers
//! ([`fold_sub_indexed_c64`], [`lane_mul_sub_f64`], …) that select between them
//! with a [`KernelBackend`] value. The solver records the backend **once per
//! symbolic analysis** (see [`selected_backend`] and
//! [`crate::SymbolicLu::kernel_backend`]), so a whole sweep runs one
//! consistent code path.
//!
//! # The bitwise contract
//!
//! Every vector implementation performs **the same IEEE-754 multiplies,
//! additions, subtractions and divisions, in the same per-element order, as
//! the scalar reference**: no FMA contraction, no reassociation across fill
//! entries, no blocked accumulators. Lanes only ever span *independent*
//! elements (distinct variant lanes), and
//! sequential dependences — the substitution fold's accumulator — stay
//! sequential with only the independent products vectorized. Consequently
//! the two backends produce bit-identical results on finite data, the
//! property the `proptest_kernels` suite pins and the reason every
//! determinism test (refactor-vs-fresh, `par_determinism`)
//! holds with the SIMD path active.
//!
//! # Backend selection
//!
//! [`selected_backend`] picks AVX2 when `is_x86_feature_detected!` reports
//! it and the portable scalar path otherwise; the `LOOPSCOPE_KERNEL`
//! environment knob ([`KERNEL_ENV`]) overrides the choice (`scalar` forces
//! the fallback everywhere, `avx2` asks for SIMD and still falls back when
//! the CPU lacks it). The knob is read when a factorization's symbolic
//! analysis is built, so with a fixed environment the selection is
//! deterministic for the whole process — and benches/tests can pin a
//! specific backend per pattern through
//! [`crate::SymbolicLu::with_kernel_backend`] without touching the
//! environment.
//!
//! This module is the only place in the crate allowed to use `unsafe`
//! (`core::arch` intrinsics and the split-lane slice reinterpretation); the
//! rest of the crate stays `deny(unsafe_code)`.

use crate::scalar::Scalar;
use loopscope_math::Complex64;
use std::fmt;

/// Environment variable naming the kernel backend (`scalar` forces the
/// portable fallback, `avx2` requests SIMD — honored only when the CPU has
/// it; anything else, or unset, auto-detects). Read when a symbolic
/// analysis is built, so every factorization over one pattern runs one
/// backend.
pub const KERNEL_ENV: &str = "LOOPSCOPE_KERNEL";

/// Which implementation of the vectorized inner-loop primitives a
/// factorization runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// The portable scalar reference path — always available, and the
    /// definition of correct results for the SIMD path.
    Scalar,
    /// Split-lane `(re, im)` AVX2 over `core::arch::x86_64`; bit-identical
    /// to [`KernelBackend::Scalar`] on finite data (same ops, same order,
    /// no FMA).
    Avx2,
}

impl KernelBackend {
    /// Short lowercase name (`"scalar"` / `"avx2"`), the same tokens the
    /// [`KERNEL_ENV`] knob accepts.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Avx2 => "avx2",
        }
    }

    /// `true` for explicitly vectorized backends.
    pub fn is_simd(self) -> bool {
        matches!(self, KernelBackend::Avx2)
    }
}

impl fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// `true` when the running CPU supports the AVX2 kernel path.
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Pure selection rule behind [`selected_backend`], exposed so tests can pin
/// it: an explicit `scalar` always wins, an explicit `avx2` (or no request)
/// takes SIMD only when the hardware has it, and unknown values fall back to
/// auto-detection. Matching is case-insensitive and whitespace-tolerant.
pub fn backend_for(request: Option<&str>, simd_available: bool) -> KernelBackend {
    let auto = if simd_available {
        KernelBackend::Avx2
    } else {
        KernelBackend::Scalar
    };
    match request.map(str::trim) {
        Some(s) if s.eq_ignore_ascii_case("scalar") => KernelBackend::Scalar,
        Some(s) if s.eq_ignore_ascii_case("avx2") => auto,
        _ => auto,
    }
}

/// The backend new symbolic analyses record: [`KERNEL_ENV`] applied to the
/// hardware detection by [`backend_for`]. With a fixed environment the
/// result is the same for every call in a process.
pub fn selected_backend() -> KernelBackend {
    backend_for(std::env::var(KERNEL_ENV).ok().as_deref(), simd_available())
}

/// Portable scalar reference implementations of the kernel primitives.
///
/// These loops **define** the arithmetic the SIMD backends must reproduce
/// bit-for-bit; they are also the dispatch target for scalar types other
/// than `f64`/[`Complex64`] and for hardware without AVX2.
pub mod scalar {
    use super::Scalar;

    /// Returns `acc - Σ vals[i]·work[cols[i]]`, subtracting strictly in
    /// index order (the substitution sweeps' sequential accumulator).
    #[inline]
    pub fn fold_sub_indexed<T: Scalar>(mut acc: T, vals: &[T], cols: &[usize], work: &[T]) -> T {
        for (v, &c) in vals.iter().zip(cols) {
            acc -= *v * work[c];
        }
        acc
    }

    /// `dst[w] -= a[w] * b[w]` elementwise over the common length — the
    /// w-lane batched-variant update (lane = independent variant, each with
    /// its own multiplier `a[w]` and factor value `b[w]`).
    #[inline]
    pub fn lane_mul_sub<T: Scalar>(a: &[T], b: &[T], dst: &mut [T]) {
        for ((d, x), y) in dst.iter_mut().zip(a).zip(b) {
            *d -= *x * *y;
        }
    }

    /// `dst[w] = dst[w] / den[w]` elementwise — the batched
    /// back-substitution divide, one independent diagonal per variant lane.
    #[inline]
    pub fn lane_div<T: Scalar>(den: &[T], dst: &mut [T]) {
        for (d, e) in dst.iter_mut().zip(den) {
            *d = *d / *e;
        }
    }
}

/// AVX2 split-lane implementations. Every function performs exactly the
/// scalar reference arithmetic per element: products via `vmulpd`, the
/// complex cross terms combined with `vaddsubpd` (never FMA), scattered
/// elements addressed through bounds-checked references. Functions are
/// `unsafe` with a single obligation — AVX2 must be available on the
/// running CPU — which the dispatchers discharge by construction
/// ([`KernelBackend::Avx2`] is only selected after runtime detection).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use core::arch::x86_64::{
        __m128d, _mm256_add_pd, _mm256_addsub_pd, _mm256_div_pd, _mm256_loadu_pd,
        _mm256_movedup_pd, _mm256_mul_pd, _mm256_permute_pd, _mm256_set1_pd, _mm256_set_m128d,
        _mm256_storeu_pd, _mm256_sub_pd, _mm256_xor_pd, _mm_loadu_pd,
    };
    use loopscope_math::Complex64;

    /// One 128-bit load of a single complex element through its
    /// bounds-checked reference (`Complex64` is `repr(C)` `[re, im]`).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_c64(z: &Complex64) -> __m128d {
        _mm_loadu_pd((z as *const Complex64).cast::<f64>())
    }

    /// See [`super::scalar::fold_sub_indexed`]: products are computed two
    /// lanes at a time, the accumulator is updated strictly in order.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fold_sub_indexed_c64(
        mut acc: Complex64,
        vals: &[Complex64],
        cols: &[usize],
        work: &[Complex64],
    ) -> Complex64 {
        let n = vals.len().min(cols.len());
        let mut i = 0;
        while i + 2 <= n {
            let va = _mm256_loadu_pd(vals[i..i + 2].as_ptr().cast::<f64>());
            let b0 = load_c64(&work[cols[i]]);
            let b1 = load_c64(&work[cols[i + 1]]);
            let vb = _mm256_set_m128d(b1, b0);
            // Pairwise complex products a·b: re = a.re·b.re − a.im·b.im,
            // im = a.re·b.im + a.im·b.re — multiplies then one vaddsubpd.
            let t1 = _mm256_mul_pd(_mm256_movedup_pd(va), vb);
            let t2 = _mm256_mul_pd(
                _mm256_permute_pd::<0b1111>(va),
                _mm256_permute_pd::<0b0101>(vb),
            );
            let prod = _mm256_addsub_pd(t1, t2);
            let mut pair = [Complex64::ZERO; 2];
            _mm256_storeu_pd(pair.as_mut_ptr().cast::<f64>(), prod);
            // The accumulator chain stays sequential: no lane reassociation.
            acc -= pair[0];
            acc -= pair[1];
            i += 2;
        }
        if i < n {
            acc -= vals[i] * work[cols[i]];
        }
        acc
    }

    /// See [`super::scalar::lane_mul_sub`]: two complex variant lanes per
    /// vector op, each lane multiplying its own `a[w]·b[w]` pair with
    /// exactly the scalar operation order (multiplies then one `vaddsubpd`,
    /// then the subtract — never FMA).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn lane_mul_sub_c64(a: &[Complex64], b: &[Complex64], dst: &mut [Complex64]) {
        let n = dst.len().min(a.len()).min(b.len());
        let mut j = 0;
        while j + 2 <= n {
            let va = _mm256_loadu_pd(a[j..j + 2].as_ptr().cast::<f64>());
            let vb = _mm256_loadu_pd(b[j..j + 2].as_ptr().cast::<f64>());
            // Pairwise complex products a·b: re = a.re·b.re − a.im·b.im,
            // im = a.re·b.im + a.im·b.re.
            let t1 = _mm256_mul_pd(_mm256_movedup_pd(va), vb);
            let t2 = _mm256_mul_pd(
                _mm256_permute_pd::<0b1111>(va),
                _mm256_permute_pd::<0b0101>(vb),
            );
            let prod = _mm256_addsub_pd(t1, t2);
            let dp = dst[j..j + 2].as_mut_ptr().cast::<f64>();
            let d = _mm256_loadu_pd(dp);
            _mm256_storeu_pd(dp, _mm256_sub_pd(d, prod));
            j += 2;
        }
        if j < n {
            dst[j] -= a[j] * b[j];
        }
    }

    /// See [`super::scalar::lane_div`]: each variant lane divides by its own
    /// diagonal. The per-lane `|den|²` denominators are built with one
    /// multiply and one in-register add in the scalar `re·re + im·im` order
    /// (the same expression as `Complex64::norm_sqr`), the numerators with
    /// multiplies and one sign-flipped `vaddsubpd` (`x − (−y)` is
    /// IEEE-identical to `x + y`), then one `vdivpd`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn lane_div_c64(den: &[Complex64], dst: &mut [Complex64]) {
        let n = dst.len().min(den.len());
        let sign = _mm256_set1_pd(-0.0);
        let mut j = 0;
        while j + 2 <= n {
            let vd = _mm256_loadu_pd(den[j..j + 2].as_ptr().cast::<f64>());
            // [re², im²] per lane, then each half-lane summed with its
            // swapped neighbor: both slots hold re² + im² (IEEE addition is
            // commutative bitwise, so slot order does not matter).
            let sq = _mm256_mul_pd(vd, vd);
            let dsum = _mm256_add_pd(sq, _mm256_permute_pd::<0b0101>(sq));
            let dp = dst[j..j + 2].as_mut_ptr().cast::<f64>();
            let a = _mm256_loadu_pd(dp);
            // num = [a.re·d.re + a.im·d.im, a.im·d.re − a.re·d.im]: addsub
            // with the second operand negated turns its even-lane subtract
            // into the required add and vice versa.
            let t1 = _mm256_mul_pd(a, _mm256_movedup_pd(vd));
            let t2 = _mm256_mul_pd(
                _mm256_permute_pd::<0b0101>(a),
                _mm256_permute_pd::<0b1111>(vd),
            );
            let num = _mm256_addsub_pd(t1, _mm256_xor_pd(t2, sign));
            _mm256_storeu_pd(dp, _mm256_div_pd(num, dsum));
            j += 2;
        }
        if j < n {
            dst[j] /= den[j];
        }
    }

    /// Real-lane form of [`fold_sub_indexed_c64`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fold_sub_indexed_f64(
        mut acc: f64,
        vals: &[f64],
        cols: &[usize],
        work: &[f64],
    ) -> f64 {
        let n = vals.len().min(cols.len());
        let mut i = 0;
        while i + 4 <= n {
            let mut b = [0.0f64; 4];
            for (k, bk) in b.iter_mut().enumerate() {
                *bk = work[cols[i + k]];
            }
            let prod = _mm256_mul_pd(
                _mm256_loadu_pd(vals[i..].as_ptr()),
                _mm256_loadu_pd(b.as_ptr()),
            );
            let mut p = [0.0f64; 4];
            _mm256_storeu_pd(p.as_mut_ptr(), prod);
            // Sequential accumulation, same order as the scalar loop.
            for &pk in &p {
                acc -= pk;
            }
            i += 4;
        }
        while i < n {
            acc -= vals[i] * work[cols[i]];
            i += 1;
        }
        acc
    }

    /// Real-lane form of [`lane_mul_sub_c64`]: four variant lanes per op.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn lane_mul_sub_f64(a: &[f64], b: &[f64], dst: &mut [f64]) {
        let n = dst.len().min(a.len()).min(b.len());
        let mut j = 0;
        while j + 4 <= n {
            let prod = _mm256_mul_pd(
                _mm256_loadu_pd(a[j..].as_ptr()),
                _mm256_loadu_pd(b[j..].as_ptr()),
            );
            let dp = dst[j..].as_mut_ptr();
            _mm256_storeu_pd(dp, _mm256_sub_pd(_mm256_loadu_pd(dp), prod));
            j += 4;
        }
        while j < n {
            dst[j] -= a[j] * b[j];
            j += 1;
        }
    }

    /// Real-lane form of [`lane_div_c64`]: one `vdivpd` per four lanes.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn lane_div_f64(den: &[f64], dst: &mut [f64]) {
        let n = dst.len().min(den.len());
        let mut j = 0;
        while j + 4 <= n {
            let dp = dst[j..].as_mut_ptr();
            _mm256_storeu_pd(
                dp,
                _mm256_div_pd(_mm256_loadu_pd(dp), _mm256_loadu_pd(den[j..].as_ptr())),
            );
            j += 4;
        }
        while j < n {
            dst[j] /= den[j];
            j += 1;
        }
    }
}

/// Expands to one safe per-type dispatcher per primitive: the scalar arm
/// inlines the reference loop, the AVX2 arm calls into the
/// `target_feature` function. The AVX2 arm re-checks [`simd_available`]
/// (a cached feature probe) before entering the `unsafe` call: `Avx2` is a
/// freely constructible public value, so soundness must hold even for a
/// caller that never went through [`selected_backend`] — on hardware
/// without AVX2 (and on non-x86_64 builds) the arm silently degrades to
/// the scalar reference, which is bit-identical anyway.
macro_rules! dispatchers {
    ($ty:ty, $lanes:expr, $fold:ident, $fold_simd:ident) => {
        /// `acc - Σ vals[i]·work[cols[i]]`, accumulated strictly in order,
        /// on the chosen backend (see [`scalar::fold_sub_indexed`]).
        #[inline]
        pub fn $fold(
            backend: KernelBackend,
            acc: $ty,
            vals: &[$ty],
            cols: &[usize],
            work: &[$ty],
        ) -> $ty {
            if vals.len() < $lanes {
                return scalar::fold_sub_indexed(acc, vals, cols, work);
            }
            match backend {
                KernelBackend::Scalar => scalar::fold_sub_indexed(acc, vals, cols, work),
                KernelBackend::Avx2 => {
                    #[cfg(target_arch = "x86_64")]
                    if simd_available() {
                        // SAFETY: AVX2 presence was just verified.
                        #[allow(unsafe_code)]
                        unsafe {
                            return avx2::$fold_simd(acc, vals, cols, work);
                        }
                    }
                    scalar::fold_sub_indexed(acc, vals, cols, work)
                }
            }
        }
    };
}

dispatchers!(Complex64, 2, fold_sub_indexed_c64, fold_sub_indexed_c64);

dispatchers!(f64, 4, fold_sub_indexed_f64, fold_sub_indexed_f64);

/// Per-type dispatchers for the batched variant-lane primitives, with the
/// same structure and soundness discipline as [`dispatchers`]: short slices
/// take the inlined scalar loop, and the AVX2 arm re-checks
/// [`simd_available`] before the `unsafe` call.
macro_rules! lane_dispatchers {
    ($ty:ty, $lanes:expr, $mulsub:ident, $div:ident, $mulsub_simd:ident, $div_simd:ident) => {
        /// `dst[w] -= a[w] * b[w]` elementwise on the chosen backend (see
        /// [`scalar::lane_mul_sub`]) — the batched-variant lane update,
        /// where every lane is an independent variant with its own
        /// multiplier/factor pair.
        #[inline]
        pub fn $mulsub(backend: KernelBackend, a: &[$ty], b: &[$ty], dst: &mut [$ty]) {
            if dst.len() < $lanes {
                return scalar::lane_mul_sub(a, b, dst);
            }
            match backend {
                KernelBackend::Scalar => scalar::lane_mul_sub(a, b, dst),
                KernelBackend::Avx2 => {
                    #[cfg(target_arch = "x86_64")]
                    if simd_available() {
                        // SAFETY: AVX2 presence was just verified.
                        #[allow(unsafe_code)]
                        unsafe {
                            avx2::$mulsub_simd(a, b, dst)
                        }
                    } else {
                        scalar::lane_mul_sub(a, b, dst)
                    }
                    #[cfg(not(target_arch = "x86_64"))]
                    scalar::lane_mul_sub(a, b, dst)
                }
            }
        }

        /// `dst[w] = dst[w] / den[w]` elementwise on the chosen backend
        /// (see [`scalar::lane_div`]) — one independent diagonal per
        /// variant lane.
        #[inline]
        pub fn $div(backend: KernelBackend, den: &[$ty], dst: &mut [$ty]) {
            if dst.len() < $lanes {
                return scalar::lane_div(den, dst);
            }
            match backend {
                KernelBackend::Scalar => scalar::lane_div(den, dst),
                KernelBackend::Avx2 => {
                    #[cfg(target_arch = "x86_64")]
                    if simd_available() {
                        // SAFETY: AVX2 presence was just verified.
                        #[allow(unsafe_code)]
                        unsafe {
                            avx2::$div_simd(den, dst)
                        }
                    } else {
                        scalar::lane_div(den, dst)
                    }
                    #[cfg(not(target_arch = "x86_64"))]
                    scalar::lane_div(den, dst)
                }
            }
        }
    };
}

lane_dispatchers!(
    Complex64,
    2,
    lane_mul_sub_c64,
    lane_div_c64,
    lane_mul_sub_c64,
    lane_div_c64
);

lane_dispatchers!(
    f64,
    4,
    lane_mul_sub_f64,
    lane_div_f64,
    lane_mul_sub_f64,
    lane_div_f64
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_rule_honors_explicit_scalar() {
        assert_eq!(backend_for(Some("scalar"), true), KernelBackend::Scalar);
        assert_eq!(backend_for(Some(" SCALAR "), true), KernelBackend::Scalar);
        assert_eq!(backend_for(Some("scalar"), false), KernelBackend::Scalar);
    }

    #[test]
    fn backend_rule_auto_detects() {
        assert_eq!(backend_for(None, true), KernelBackend::Avx2);
        assert_eq!(backend_for(None, false), KernelBackend::Scalar);
        assert_eq!(backend_for(Some("avx2"), true), KernelBackend::Avx2);
        // An AVX2 request on hardware without it degrades, never crashes.
        assert_eq!(backend_for(Some("avx2"), false), KernelBackend::Scalar);
        // Unknown values fall back to auto-detection.
        assert_eq!(backend_for(Some("banana"), true), KernelBackend::Avx2);
    }

    #[test]
    fn selection_is_deterministic_per_process() {
        let first = selected_backend();
        for _ in 0..100 {
            assert_eq!(selected_backend(), first);
        }
    }

    #[test]
    fn backend_names_round_trip() {
        for b in [KernelBackend::Scalar, KernelBackend::Avx2] {
            assert_eq!(backend_for(Some(b.name()), true).name(), {
                if b.is_simd() {
                    "avx2"
                } else {
                    "scalar"
                }
            });
            assert_eq!(b.to_string(), b.name());
        }
    }

    #[test]
    fn scalar_reference_semantics() {
        let vals = [2.0f64, -3.0, 0.5];
        let cols = [2usize, 0, 1];
        let work = [10.0f64, 20.0, 30.0];
        let acc = scalar::fold_sub_indexed(1.0, &vals, &cols, &work);
        assert_eq!(acc, 1.0 - 2.0 * 30.0 + 3.0 * 10.0 - 0.5 * 20.0);
    }

    #[test]
    fn lane_scalar_reference_semantics() {
        let a = [2.0f64, -3.0, 0.5, 4.0];
        let b = [1.5f64, 2.0, -8.0, 0.25];
        let mut dst = [10.0f64, 10.0, 10.0, 10.0];
        scalar::lane_mul_sub(&a, &b, &mut dst);
        assert_eq!(dst, [7.0, 16.0, 14.0, 9.0]);
        scalar::lane_div(&[2.0, 4.0, -7.0, 3.0], &mut dst);
        assert_eq!(dst, [3.5, 4.0, -2.0, 3.0]);
    }

    /// The batched lane primitives must match the scalar reference
    /// bit-for-bit on the dispatched backend, on awkwardly scaled data and
    /// at lengths exercising both the vector body and the scalar tail.
    #[test]
    fn lane_dispatchers_bitwise_match_scalar() {
        let backend = selected_backend();
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((seed >> 11) as f64) / ((1u64 << 53) as f64);
            (u - 0.5) * 2.0e3 * (10.0f64).powi(((seed >> 7) % 13) as i32 - 6)
        };
        for n in [1usize, 2, 3, 4, 5, 7, 8, 11] {
            let a: Vec<Complex64> = (0..n).map(|_| Complex64::new(next(), next())).collect();
            let b: Vec<Complex64> = (0..n).map(|_| Complex64::new(next(), next())).collect();
            let base: Vec<Complex64> = (0..n).map(|_| Complex64::new(next(), next())).collect();
            let mut want = base.clone();
            scalar::lane_mul_sub(&a, &b, &mut want);
            let mut got = base.clone();
            lane_mul_sub_c64(backend, &a, &b, &mut got);
            for (w, g) in want.iter().zip(&got) {
                assert!(w.re.to_bits() == g.re.to_bits() && w.im.to_bits() == g.im.to_bits());
            }
            let mut want = base.clone();
            scalar::lane_div(&a, &mut want);
            let mut got = base.clone();
            lane_div_c64(backend, &a, &mut got);
            for (w, g) in want.iter().zip(&got) {
                assert!(w.re.to_bits() == g.re.to_bits() && w.im.to_bits() == g.im.to_bits());
            }

            let ra: Vec<f64> = (0..n).map(|_| next()).collect();
            let rb: Vec<f64> = (0..n).map(|_| next()).collect();
            let rbase: Vec<f64> = (0..n).map(|_| next()).collect();
            let mut want = rbase.clone();
            scalar::lane_mul_sub(&ra, &rb, &mut want);
            let mut got = rbase.clone();
            lane_mul_sub_f64(backend, &ra, &rb, &mut got);
            for (w, g) in want.iter().zip(&got) {
                assert_eq!(w.to_bits(), g.to_bits());
            }
            let mut want = rbase.clone();
            scalar::lane_div(&ra, &mut want);
            let mut got = rbase;
            lane_div_f64(backend, &ra, &mut got);
            for (w, g) in want.iter().zip(&got) {
                assert_eq!(w.to_bits(), g.to_bits());
            }
        }
    }
}
