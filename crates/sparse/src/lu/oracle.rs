//! Test oracle of the compiled refactorization: the scatter/gather
//! refactorizations (scalar and batched) the op lists replaced, kept
//! verbatim in their arithmetic, and the properties that pin the compiled
//! paths to them bit for bit — factor values, lane statuses and the
//! recorded scales — on random patterns with BTF blocks, fill-in,
//! exact-zero multipliers, non-finite entries, pivots straddling both
//! pivot thresholds, off-pattern input and wrong dimensions.

use super::{
    column_max_moduli_into, compiled, exact_max_modulus, norm_inf, BatchLaneStatus, BatchedLu,
    LanePlanes, LuPattern, LuWorkspace, RefactorFailure, RefactorScales, SolveError, SparseLu,
    REFACTOR_PIVOT_RELATIVE, SINGULARITY_RELATIVE,
};
use crate::csr::CsrMatrix;
use crate::scalar::Scalar;
use crate::triplet::TripletMatrix;
use loopscope_math::Complex64;

/// The lane-interleaved update of the batched oracle, `dst[w] -= a[w] *
/// b[w]` over the common length: a private copy of the arithmetic the
/// batched refactorization used before its planes, so the oracle does not
/// run the code under test.
fn lane_mul_sub<T: Scalar>(a: &[T], b: &[T], dst: &mut [T]) {
    for ((d, x), y) in dst.iter_mut().zip(a).zip(b) {
        *d -= *x * *y;
    }
}

/// The lane-interleaved divide of the batched oracle, `dst[w] = dst[w] /
/// den[w]` (private copy, as [`lane_mul_sub`]).
fn lane_div<T: Scalar>(den: &[T], dst: &mut [T]) {
    for (d, e) in dst.iter_mut().zip(den) {
        *d = *d / *e;
    }
}

/// The scalar scatter/gather refactorization: a dense work row per
/// elimination step, marked with the row's pattern, the input row scattered
/// into it, left-looking updates against the finished `U` rows, then the
/// `L`, `U` and `F` values gathered. Returns the outcome and the factor
/// values in the `L | U | F` slot order (partial on failure).
fn refactor_scalar<T: Scalar>(
    pattern: &LuPattern,
    matrix: &CsrMatrix<T>,
) -> (Result<RefactorScales, RefactorFailure>, Vec<T>) {
    let n = pattern.n;
    let mut l_vals = Vec::new();
    let mut u_vals: Vec<T> = Vec::new();
    let mut f_vals = Vec::new();
    let outcome = (|| {
        if matrix.rows() != n || matrix.cols() != n {
            return Err(RefactorFailure::Hard(SolveError::NotSquare {
                rows: matrix.rows(),
                cols: matrix.cols(),
            }));
        }
        let (mut col_max, mut col_arg) = (Vec::new(), Vec::new());
        column_max_moduli_into(matrix, &pattern.cpos, &mut col_max, &mut col_arg)
            .map_err(RefactorFailure::Hard)?;
        let mut work = vec![T::ZERO; n];
        let mut marked = vec![usize::MAX; n];
        let mut u_max_sqr = 0.0f64;
        let mut u_max_arg = T::ZERO;
        let mut u_squares_exact = true;
        // Elimination steps; `col_max` is read only by the pivot check.
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            let l_range = pattern.l_ptr[i]..pattern.l_ptr[i + 1];
            let u_range = pattern.u_ptr[i]..pattern.u_ptr[i + 1];
            let f_range = pattern.f_ptr[i]..pattern.f_ptr[i + 1];
            for &c in pattern.l_cols[l_range.clone()]
                .iter()
                .chain(&pattern.u_cols[u_range.clone()])
                .chain(&pattern.f_cols[f_range.clone()])
            {
                work[c] = T::ZERO;
                marked[c] = i;
            }
            for (c, v) in matrix.row_entries(pattern.perm[i]) {
                let cc = pattern.cpos[c];
                if marked[cc] != i {
                    return Err(RefactorFailure::PatternMismatch);
                }
                work[cc] = v;
            }
            for t in l_range {
                let k = pattern.l_cols[t];
                let mult = work[k] / u_vals[pattern.u_ptr[k]];
                l_vals.push(mult);
                if !mult.is_zero() {
                    for s in (pattern.u_ptr[k] + 1)..pattern.u_ptr[k + 1] {
                        work[pattern.u_cols[s]] -= mult * u_vals[s];
                    }
                }
            }
            let diag_at = u_vals.len();
            let mut row_max_sqr = 0.0f64;
            let mut row_squares_exact = true;
            for s in u_range {
                let v = work[pattern.u_cols[s]];
                let m2 = v.modulus_sqr();
                if !(m2.is_normal() || v.is_zero()) {
                    row_squares_exact = false;
                    u_squares_exact = false;
                }
                if m2 > row_max_sqr {
                    row_max_sqr = m2;
                }
                if m2 > u_max_sqr {
                    u_max_sqr = m2;
                    u_max_arg = v;
                }
                u_vals.push(v);
            }
            for s in f_range {
                f_vals.push(work[pattern.f_cols[s]]);
            }
            let pivot = u_vals[diag_at];
            let scale = col_max[i] * SINGULARITY_RELATIVE;
            let scale_sqr = scale * scale;
            let degraded = if row_squares_exact && (scale_sqr.is_normal() || scale == 0.0) {
                let pivot_sqr = pivot.modulus_sqr();
                pivot_sqr == 0.0
                    || pivot_sqr <= scale_sqr
                    || pivot_sqr < REFACTOR_PIVOT_RELATIVE * REFACTOR_PIVOT_RELATIVE * row_max_sqr
            } else {
                if !pivot.is_finite() {
                    return Err(RefactorFailure::Degraded);
                }
                let pivot_mod = pivot.modulus();
                let row_max = u_vals[diag_at..]
                    .iter()
                    .map(|v| v.modulus())
                    .fold(0.0f64, f64::max);
                pivot_mod == 0.0
                    || pivot_mod <= scale
                    || pivot_mod < REFACTOR_PIVOT_RELATIVE * row_max
            };
            if degraded {
                return Err(RefactorFailure::Degraded);
            }
        }
        let a_max = col_max.iter().fold(0.0f64, |a, &b| a.max(b));
        let u_max = if u_squares_exact {
            if u_max_sqr > 0.0 {
                u_max_arg.modulus()
            } else {
                0.0
            }
        } else {
            exact_max_modulus(&u_vals)
        };
        Ok(RefactorScales {
            a_max,
            u_max,
            norm_inf: norm_inf(matrix),
        })
    })();
    l_vals.extend(u_vals);
    l_vals.extend(f_vals);
    (outcome, l_vals)
}

/// The batched scatter/gather refactorization over `width` lanes: one
/// lane-interleaved work row, one shared marker array, per-lane scatter,
/// lane-wise elimination and gather, per-lane pivot checks after each row.
/// Returns the statuses and the lane-interleaved factor values in the
/// `L | U | F` slot order.
fn refactor_batched<T: Scalar>(
    p: &LuPattern,
    wdt: usize,
    matrices: &[CsrMatrix<T>],
) -> (Vec<BatchLaneStatus>, Vec<T>) {
    let n = p.n;
    let (nl, nu) = (p.l_cols.len(), p.u_cols.len());
    let mut l_vals = vec![T::ZERO; nl * wdt];
    let mut u_vals = vec![T::ZERO; nu * wdt];
    let mut f_vals = vec![T::ZERO; p.f_cols.len() * wdt];
    let mut work = vec![T::ZERO; n * wdt];
    let mut marked = vec![usize::MAX; n];
    let mut col_max = vec![0.0; n * wdt];
    let (mut col_scratch, mut col_arg) = (Vec::new(), Vec::new());
    let mut statuses = vec![BatchLaneStatus::Factored; matrices.len()];
    let mut live: Vec<bool> = (0..wdt).map(|w| w < matrices.len()).collect();
    for (w, matrix) in matrices.iter().enumerate() {
        if matrix.rows() != n || matrix.cols() != n {
            statuses[w] = BatchLaneStatus::Failed(SolveError::NotSquare {
                rows: matrix.rows(),
                cols: matrix.cols(),
            });
            live[w] = false;
            continue;
        }
        match column_max_moduli_into(matrix, &p.cpos, &mut col_scratch, &mut col_arg) {
            Ok(()) => {
                for (i, &s) in col_scratch.iter().enumerate() {
                    col_max[i * wdt + w] = s;
                }
            }
            Err(e) => {
                statuses[w] = BatchLaneStatus::Failed(e);
                live[w] = false;
            }
        }
    }
    for i in 0..n {
        let l_range = p.l_ptr[i]..p.l_ptr[i + 1];
        let u_range = p.u_ptr[i]..p.u_ptr[i + 1];
        let f_range = p.f_ptr[i]..p.f_ptr[i + 1];
        for &c in p.l_cols[l_range.clone()]
            .iter()
            .chain(&p.u_cols[u_range.clone()])
            .chain(&p.f_cols[f_range.clone()])
        {
            work[c * wdt..(c + 1) * wdt].fill(T::ZERO);
            marked[c] = i;
        }
        for (w, matrix) in matrices.iter().enumerate() {
            if !live[w] {
                continue;
            }
            for (c, v) in matrix.row_entries(p.perm[i]) {
                let cc = p.cpos[c];
                if marked[cc] != i {
                    statuses[w] = BatchLaneStatus::PatternMismatch;
                    live[w] = false;
                    break;
                }
                work[cc * wdt + w] = v;
            }
        }
        for t in l_range {
            let k = p.l_cols[t];
            let u_diag = p.u_ptr[k] * wdt;
            let lane = t * wdt;
            l_vals[lane..lane + wdt].copy_from_slice(&work[k * wdt..(k + 1) * wdt]);
            lane_div(&u_vals[u_diag..u_diag + wdt], &mut l_vals[lane..lane + wdt]);
            let all_nonzero = l_vals[lane..lane + wdt].iter().all(|m| !m.is_zero());
            for s in (p.u_ptr[k] + 1)..p.u_ptr[k + 1] {
                let c = p.u_cols[s] * wdt;
                if all_nonzero {
                    lane_mul_sub(
                        &l_vals[lane..lane + wdt],
                        &u_vals[s * wdt..(s + 1) * wdt],
                        &mut work[c..c + wdt],
                    );
                } else {
                    for w in 0..wdt {
                        let mult = l_vals[lane + w];
                        if !mult.is_zero() {
                            work[c + w] -= mult * u_vals[s * wdt + w];
                        }
                    }
                }
            }
        }
        for s in u_range.clone() {
            let c = p.u_cols[s] * wdt;
            u_vals[s * wdt..(s + 1) * wdt].copy_from_slice(&work[c..c + wdt]);
        }
        for t in f_range {
            let c = p.f_cols[t] * wdt;
            f_vals[t * wdt..(t + 1) * wdt].copy_from_slice(&work[c..c + wdt]);
        }
        let diag_at = p.u_ptr[i] * wdt;
        for w in 0..wdt {
            if !live[w] {
                continue;
            }
            let mut row_max_sqr = 0.0f64;
            let mut row_squares_exact = true;
            for s in u_range.clone() {
                let v = u_vals[s * wdt + w];
                let m2 = v.modulus_sqr();
                if !(m2.is_normal() || v.is_zero()) {
                    row_squares_exact = false;
                }
                if m2 > row_max_sqr {
                    row_max_sqr = m2;
                }
            }
            let pivot = u_vals[diag_at + w];
            let scale = col_max[i * wdt + w] * SINGULARITY_RELATIVE;
            let scale_sqr = scale * scale;
            let degraded = if row_squares_exact && (scale_sqr.is_normal() || scale == 0.0) {
                let pivot_sqr = pivot.modulus_sqr();
                pivot_sqr == 0.0
                    || pivot_sqr <= scale_sqr
                    || pivot_sqr < REFACTOR_PIVOT_RELATIVE * REFACTOR_PIVOT_RELATIVE * row_max_sqr
            } else if !pivot.is_finite() {
                true
            } else {
                let pivot_mod = pivot.modulus();
                let row_max = u_range
                    .clone()
                    .map(|s| u_vals[s * wdt + w].modulus())
                    .fold(0.0f64, f64::max);
                pivot_mod == 0.0
                    || pivot_mod <= scale
                    || pivot_mod < REFACTOR_PIVOT_RELATIVE * row_max
            };
            if degraded {
                statuses[w] = BatchLaneStatus::Degraded;
                live[w] = false;
            }
        }
    }
    l_vals.extend(u_vals);
    l_vals.extend(f_vals);
    (statuses, l_vals)
}

/// SplitMix64: the case generator of the properties below.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    /// A value of random sign and magnitude in `±[0.05, 3)`.
    fn value(&mut self) -> f64 {
        let u = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        let v = 0.05 + 2.95 * u;
        if self.chance(50) {
            v
        } else {
            -v
        }
    }
}

/// A scalar the generator can build from a real and an imaginary part.
trait Sample: Scalar {
    fn sample(re: f64, im: f64) -> Self;
}

impl Sample for f64 {
    fn sample(re: f64, _im: f64) -> Self {
        re
    }
}

impl Sample for Complex64 {
    fn sample(re: f64, im: f64) -> Self {
        Complex64::new(re, im)
    }
}

/// One random case: a base structure (block upper triangular under a random
/// symmetric permutation, so BTF finds several blocks, with random fill
/// inside each block) and its stored positions.
struct Case {
    n: usize,
    entries: Vec<(usize, usize)>,
}

impl Case {
    fn new(rng: &mut Rng) -> Self {
        let n = 2 + rng.below(9);
        let blocks = 1 + rng.below(3.min(n));
        // Block of each (unpermuted) index: contiguous, non-empty.
        let mut cuts: Vec<usize> = (1..n).collect();
        for k in (1..cuts.len()).rev() {
            cuts.swap(k, rng.below(k + 1));
        }
        let mut cuts = cuts[..blocks - 1].to_vec();
        cuts.sort_unstable();
        let block_of = |i: usize| cuts.iter().filter(|&&c| c <= i).count();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in (1..n).rev() {
            perm.swap(k, rng.below(k + 1));
        }
        let density = 20 + rng.below(50);
        let mut entries = Vec::new();
        for r in 0..n {
            for c in 0..n {
                let keep = r == c
                    || (block_of(r) == block_of(c) && rng.chance(density))
                    || (block_of(r) < block_of(c) && rng.chance(density / 2));
                if keep {
                    entries.push((perm[r], perm[c]));
                }
            }
        }
        Self { n, entries }
    }

    /// Random values over `positions` (diagonally dominant, so the base
    /// factors), as a CSR of dimension `dim`.
    fn matrix<T: Sample>(
        &self,
        rng: &mut Rng,
        positions: &[(usize, usize)],
        dim: usize,
    ) -> CsrMatrix<T> {
        let mut row_sum = vec![0.0; self.n];
        let mut vals = Vec::with_capacity(positions.len());
        for &(r, c) in positions {
            let (re, im) = (rng.value(), rng.value());
            if r != c {
                row_sum[r] += re.abs() + im.abs();
            }
            vals.push((r, c, re, im));
        }
        let mut t = TripletMatrix::new(dim, dim);
        for (r, c, re, im) in vals {
            if r < dim && c < dim {
                let re = if r == c {
                    row_sum[r] + 1.0 + re.abs()
                } else {
                    re
                };
                t.push(r, c, T::sample(re, im));
            }
        }
        t.to_csr()
    }

    /// A variant of the case: new values over the base structure, then up
    /// to two of the perturbations the oracle must agree on.
    fn variant<T: Sample>(&self, rng: &mut Rng) -> CsrMatrix<T> {
        let mut positions = self.entries.clone();
        let mut dim = self.n;
        let mutations = rng.below(3);
        let mut kinds = Vec::new();
        for _ in 0..mutations {
            kinds.push(rng.below(8));
        }
        if kinds.contains(&6) {
            // Off-pattern: a position the base structure does not store
            // (it may still fall inside the fill, which is no mismatch).
            let (r, c) = (rng.below(self.n), rng.below(self.n));
            if !positions.contains(&(r, c)) {
                positions.push((r, c));
            }
        }
        if kinds.contains(&7) && rng.chance(30) {
            dim = self.n + 1;
        }
        let mut m: CsrMatrix<T> = self.matrix(rng, &positions, dim);
        let (row_ptr, col_idx) = {
            let (rp, ci, _) = m.parts();
            (rp.to_vec(), ci.to_vec())
        };
        let nnz = col_idx.len();
        let row_of = |e: usize| row_ptr.partition_point(|&p| p <= e) - 1;
        for &kind in &kinds {
            let vals = m.values_mut();
            match kind {
                // Exact zeros off the diagonal: zero multipliers and cancelling
                // updates.
                0 => {
                    for e in 0..nnz {
                        if row_of(e) != col_idx[e] && rng.chance(40) {
                            vals[e] = if rng.chance(50) { T::ZERO } else { -T::ZERO };
                        }
                    }
                }
                // A non-finite entry.
                1 => {
                    let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.below(3)];
                    vals[rng.below(nnz)] = T::sample(bad, 0.0);
                }
                // A diagonal straddling 1e-14 times its column's largest
                // off-diagonal modulus, within a few ulps.
                2 | 3 => {
                    let c = rng.below(dim.min(self.n));
                    let col_max = (0..nnz)
                        .filter(|&e| col_idx[e] == c && row_of(e) != c)
                        .map(|e| vals[e].modulus())
                        .fold(0.0f64, f64::max);
                    let ratio = if kind == 2 {
                        SINGULARITY_RELATIVE
                    } else {
                        REFACTOR_PIVOT_RELATIVE
                    };
                    let ulps = rng.below(5) as f64 - 2.0;
                    let d = col_max * ratio * (1.0 + ulps * f64::EPSILON);
                    if let Some(e) = (0..nnz).find(|&e| col_idx[e] == c && row_of(e) == c) {
                        vals[e] = T::sample(d, 0.0);
                    }
                }
                // Degenerate squares: the whole matrix, or one entry, far
                // outside the squared-magnitude range.
                4 => {
                    let s = [1.0e-160, 1.0e160, 1.0e-150][rng.below(3)];
                    if rng.chance(50) {
                        for v in vals.iter_mut() {
                            *v = *v * T::sample(s, 0.0);
                        }
                    } else {
                        let e = rng.below(nnz);
                        vals[e] = vals[e] * T::sample(s, 0.0);
                    }
                }
                // A vanishing diagonal: degraded unless pivoting rescues it.
                5 => {
                    let c = rng.below(dim.min(self.n));
                    if let Some(e) = (0..nnz).find(|&e| col_idx[e] == c && row_of(e) == c) {
                        vals[e] = T::sample(1.0e-13 * rng.value(), 0.0);
                    }
                }
                _ => {}
            }
        }
        m
    }
}

fn bits<T: Scalar>(v: &[T]) -> Vec<String> {
    v.iter().map(|x| format!("{x:?}")).collect()
}

fn scale_bits(s: &RefactorScales) -> [u64; 3] {
    [s.a_max.to_bits(), s.u_max.to_bits(), s.norm_inf.to_bits()]
}

/// The compiled scalar and batched refactorizations against the oracle on
/// one random case: a base factorization, then `variants` perturbed
/// matrices through the scalar path one by one and through the batched
/// path in groups at every width up to 8 (5 and 7 are no multiple of any
/// vector width), each group split into runs of consecutive variants that
/// share one structure.
fn check_case<T: Sample>(seed: u64) -> Result<(), String> {
    let mut rng = Rng(seed);
    let case = Case::new(&mut rng);
    let base: CsrMatrix<T> = case.matrix(&mut rng, &case.entries, case.n);
    let Ok(lu) = SparseLu::factor(&base) else {
        return Ok(());
    };
    let symbolic = lu.extract_symbolic();
    let p = &*symbolic.pattern;
    let variants: Vec<CsrMatrix<T>> = (0..8).map(|_| case.variant(&mut rng)).collect();

    let mut ws = LuWorkspace::new();
    let mut vals = Vec::new();
    for (k, m) in variants.iter().enumerate() {
        let want = refactor_scalar(p, m);
        let got = compiled::refactor(p, m, &mut ws.scan, &mut vals);
        match (&want.0, &got) {
            (Ok(a), Ok(b)) => {
                if scale_bits(a) != scale_bits(b) {
                    return Err(format!("variant {k}: scales {a:?} vs {b:?}"));
                }
                if bits(&want.1) != bits(&vals) {
                    return Err(format!("variant {k}: factors {:?} vs {vals:?}", want.1));
                }
            }
            (a, b) if a != b => return Err(format!("variant {k}: outcome {a:?} vs {b:?}")),
            _ => {}
        }
    }

    let same_structure = |a: &CsrMatrix<T>, b: &CsrMatrix<T>| {
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && a.parts().0 == b.parts().0
            && a.parts().1 == b.parts().1
    };
    for width in 1..=8 {
        let mut batched = BatchedLu::new(&symbolic, width);
        for group in variants.chunks(width) {
            for run in group.chunk_by(|a, b| same_structure(a, b)) {
                let (want_status, want_vals) = refactor_batched(p, width, run);
                let mut values = LanePlanes::new(run[0].nnz(), width);
                for (w, m) in run.iter().enumerate() {
                    values.load_lane(w, m.values());
                }
                let got_status = batched.refactor_lanes(&run[0], &values, run.len()).to_vec();
                if want_status != got_status {
                    return Err(format!(
                        "width {width}: statuses {want_status:?} vs {got_status:?}"
                    ));
                }
                for (w, status) in got_status.iter().enumerate() {
                    if !status.is_factored() {
                        continue;
                    }
                    let want: Vec<T> = want_vals.iter().skip(w).step_by(width).copied().collect();
                    let got: Vec<T> = (0..p.factor_len())
                        .map(|s| batched.factor_value(s, w))
                        .collect();
                    if bits(&want) != bits(&got) {
                        return Err(format!("width {width} lane {w}: factors differ"));
                    }
                }
            }
        }
    }
    Ok(())
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        #[test]
        fn compiled_real_refactor_is_the_scatter_gather_oracle(seed in 0u64..u64::MAX) {
            check_case::<f64>(seed)?;
        }

        #[test]
        fn compiled_complex_refactor_is_the_scatter_gather_oracle(seed in 0u64..u64::MAX) {
            check_case::<Complex64>(seed)?;
        }
    }
}

/// Over a structure that leaves the pattern at one step, a lane degraded at
/// an earlier step reports `Degraded`, while a lane degrading at that step
/// or later reports `PatternMismatch`: on one step the mismatch wins. Each
/// lane keeps its first failure in row order, as the oracle does, and the
/// scalar path stops at the same failure.
#[test]
fn each_lane_keeps_its_first_failure_in_row_order() {
    // A 4-chain: elimination in any chain order keeps every step row at
    // most three entries wide, so each step has an off-pattern position.
    let n = 4;
    let mut t = TripletMatrix::new(n, n);
    for i in 0..n {
        t.push(i, i, 4.0);
        if i + 1 < n {
            t.push(i, i + 1, 1.0);
            t.push(i + 1, i, 1.0);
        }
    }
    let base = t.to_csr();
    let symbolic = SparseLu::factor(&base).unwrap().extract_symbolic();
    let p = &*symbolic.pattern;
    // Original coordinates of a stored-nowhere entry in step 2's row.
    let extra = {
        let j = (0..n).find(|&j| p.slot_of(2, j).is_none()).unwrap();
        (p.perm[2], p.cperm[j])
    };
    // Base values plus the extra entry, with step `zeroed`'s input row all
    // zero (a zero pivot there: its multipliers vanish too).
    let lane = |zeroed: Option<usize>| {
        let mut t = TripletMatrix::new(n, n);
        let zero_row = zeroed.map(|z| p.perm[z]);
        for (r, c, v) in base.iter() {
            t.push(r, c, if Some(r) == zero_row { 0.0 } else { v });
        }
        t.push(extra.0, extra.1, 0.5);
        t.to_csr()
    };
    let lanes = [lane(Some(1)), lane(Some(2)), lane(Some(3)), lane(None)];
    let mut values = LanePlanes::new(lanes[0].nnz(), 4);
    for (w, m) in lanes.iter().enumerate() {
        values.load_lane(w, m.values());
    }
    let mut batched = BatchedLu::new(&symbolic, 4);
    let got = batched.refactor_lanes(&lanes[0], &values, 4).to_vec();
    assert_eq!(
        got,
        [
            BatchLaneStatus::Degraded,
            BatchLaneStatus::PatternMismatch,
            BatchLaneStatus::PatternMismatch,
            BatchLaneStatus::PatternMismatch
        ]
    );
    assert_eq!(got, refactor_batched(p, 4, &lanes).0);
    let mut ws = LuWorkspace::new();
    let mut vals = Vec::new();
    for m in &lanes {
        let want = refactor_scalar(p, m).0;
        let got = compiled::refactor(p, m, &mut ws.scan, &mut vals);
        assert_eq!(got.map(|s| scale_bits(&s)), want.map(|s| scale_bits(&s)));
    }
}

/// A pivot a few ulps either side of `1e-14` times its column scale takes
/// the exact `hypot` path and decides exactly as the oracle, in both
/// arithmetic fields; far from the threshold the estimate decides alone.
#[test]
fn pivots_at_the_singularity_threshold_decide_like_the_oracle() {
    for ulps in -3i32..=3 {
        for complex in [false, true] {
            let d = 3.0e-14 * (1.0 + ulps as f64 * f64::EPSILON);
            let mut t = TripletMatrix::<Complex64>::new(2, 2);
            let big = if complex {
                Complex64::new(1.8, 2.4)
            } else {
                Complex64::new(3.0, 0.0)
            };
            t.push(0, 0, Complex64::new(d, 0.0));
            t.push(1, 0, big);
            t.push(1, 1, Complex64::new(1.0, 0.0));
            t.push(0, 1, Complex64::new(1.0e-20, 0.0));
            let m = t.to_csr();
            // The pattern of a healthy matrix with the same structure.
            let mut h = TripletMatrix::<Complex64>::new(2, 2);
            for (r, c, v) in m.iter() {
                h.push(r, c, if r == c { Complex64::new(5.0, 0.0) } else { v });
            }
            let lu = SparseLu::factor(&h.to_csr()).unwrap();
            let symbolic = lu.extract_symbolic();
            let want = refactor_scalar(&symbolic.pattern, &m).0;
            let mut ws = LuWorkspace::new();
            let mut vals = Vec::new();
            let got = compiled::refactor(&symbolic.pattern, &m, &mut ws.scan, &mut vals);
            assert_eq!(
                got.map(|s| scale_bits(&s)),
                want.map(|s| scale_bits(&s)),
                "ulps {ulps}, complex {complex}"
            );
        }
    }
}
