//! Compiled refactorization: the numeric-only refactor of a [`LuPattern`]
//! driven by flat op lists that are built once per pattern, in the manner of
//! NICSLU's map-based re-factorization (Chen, Wang & Yang, IEEE TCAD 32(2),
//! 2013).
//!
//! A refactorization over a fixed pattern performs the same arithmetic at
//! every call; only the values change. Everything else — which slot an input
//! entry lands in, which factor slot an update writes — is resolved here
//! once, so the per-call work is the arithmetic plus flat index streams:
//!
//! * **Factor storage.** The factor values live in one buffer in elimination
//!   order, `L` slots first, then `U`, then the raw off-diagonal block
//!   entries `F` (the same per-part layout the solves, the selected
//!   inversion and the condition estimate read). One slot index therefore
//!   addresses any factor entry, and the buffer doubles as the work row: an
//!   input entry is scattered straight into its factor slot, and the
//!   elimination updates those slots in place.
//! * **Scatter map** ([`ScatterMap`]): one factor slot per stored entry of
//!   the input CSR, plus the first elimination step whose input row leaves
//!   the pattern, if any. It is compiled against one CSR structure (row
//!   pointers and column indices) and cached on the pattern when that
//!   structure lies inside it; a matrix with any other structure compiles a
//!   throwaway map of its own.
//! * **Elimination ops** ([`Program`]): one `(pivot slot, count)` op per
//!   `L` entry, in elimination order — op `t`'s multiplier is `L` slot `t`
//!   — with the `count` destination slots of its updates in one flat `u32`
//!   list. The update sources are the off-diagonal entries of the pivot's
//!   `U` row, which sit contiguously after the pivot slot, so they are not
//!   stored. On the 16×16 power grid (21,193 updates) the lists take about
//!   100 KB.
//! * **Pivot checks** run per elimination row, in row order, after the row's
//!   elimination — so each lane keeps its *first* failure, and on one row a
//!   pattern mismatch (found while scattering, before that row's
//!   elimination) wins over a degraded pivot, exactly as a scatter/gather
//!   pass that stops at its first failure would report.
//!
//! Per lane, every IEEE operation — each divide, product and subtraction —
//! runs in the order of the scatter/gather reference (no FMA, no
//! reassociation), so factors, lane statuses and the recorded scales are
//! bitwise those of the reference; the test oracle in this crate pins that.
//!
//! # Lazy column scales
//!
//! The singularity test compares a pivot against `1e-14` times its column's
//! largest input modulus. The scan keeps, per column, the squared-magnitude
//! maximum `q` and its argmax entry; the exact scale is `c = hypot(argmax)`
//! and the test the reference runs is `p² ≤ fl(fl(c·1e-14)²)`. With unit
//! roundoff `u = 2⁻⁵³`, `q = |z|²(1 ± 2u)`, `hypot` within one ulp (`2u`) and
//! three further roundings, the exact threshold `s²` and its cheap estimate
//! `A = fl(q·fl(1e-14·1e-14))` satisfy
//!
//! ```text
//! |s² − A| ≤ 12u·A        whenever 1e-276 ≤ q (so s² and A are normal)
//! ```
//!
//! so deciding `p² > A·(1 + 2⁻³⁰)` (not singular) or `p² < A·(1 − 2⁻³⁰)`
//! (singular) is exact; only a pivot inside that band — or a column scale
//! outside the normal range — pays the `hypot`. The same band bounds the
//! recorded `max |A|`: a column whose `q` lies below `(1 − 2⁻³⁰)` times the
//! largest `q` cannot hold the largest `hypot`, so only near-ties are
//! evaluated.

use super::loops::LaneSquares;
use super::{
    exact_max_modulus, lane_count, loops, slot_chunk, BatchLaneStatus, BatchedLu, LanePlanes,
    LuPattern, RefactorFailure, RefactorScales, SolveError, REFACTOR_PIVOT_RELATIVE,
    SINGULARITY_RELATIVE,
};
use crate::csr::CsrMatrix;
use crate::scalar::Scalar;
use std::borrow::Cow;

/// Relative half-width of the band around the singularity threshold inside
/// which the lazy scale falls back to the exact `hypot` — far wider than the
/// `12u` composed rounding error of the estimate (see the module docs).
const LAZY_MARGIN: f64 = 1.0 / (1u64 << 30) as f64;

/// Squared column scales below this take the exact path: the estimate's
/// error bound needs `q·1e-28` to stay a normal number.
const LAZY_MIN_SQR: f64 = 1.0e-276;

/// `fl(1e-14·1e-14)`, the squared singularity ratio of the estimate.
const SINGULARITY_SQR: f64 = SINGULARITY_RELATIVE * SINGULARITY_RELATIVE;

/// One elimination op. Op `t` belongs to `L` entry `t` (its multiplier
/// slot) of some row `i`: the entry becomes `value / pivot`, then `count`
/// updates subtract `multiplier · U[k][j]` from row `i`'s slots. The `U` row
/// of the pivot supplies the sources: slots `pivot + 1 .. pivot + 1 + count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct ElimOp {
    pub(super) pivot: u32,
    pub(super) count: u32,
}

/// The pattern-only op lists of the compiled refactorization, built once per
/// [`LuPattern`] on first use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct Program {
    /// One op per `L` entry, in elimination order: row `i`'s ops are
    /// `ops[l_ptr[i]..l_ptr[i + 1]]`, and op `t`'s multiplier is slot `t`.
    pub(super) ops: Vec<ElimOp>,
    /// Destination slots of every op's updates, concatenated in op order.
    pub(super) dst: Vec<u32>,
}

impl Program {
    /// Compiles the op lists of `p`.
    ///
    /// # Panics
    ///
    /// Panics when the pattern is not closed under elimination — impossible
    /// for patterns recorded by [`SparseLu::factor`](super::SparseLu::factor)
    /// — or holds more than `u32::MAX` factor entries.
    pub(super) fn build(p: &LuPattern) -> Self {
        assert!(
            u32::try_from(p.factor_len()).is_ok(),
            "the compiled refactorization supports at most u32::MAX factor entries"
        );
        let nl = p.l_cols.len();
        let updates: usize = p
            .l_cols
            .iter()
            .map(|&k| p.u_ptr[k + 1] - p.u_ptr[k] - 1)
            .sum();
        let mut ops = Vec::with_capacity(nl);
        let mut dst = Vec::with_capacity(updates);
        let mut slots = RowSlots::new(p.n);
        for i in 0..p.n {
            slots.load(p, i);
            for t in p.l_ptr[i]..p.l_ptr[i + 1] {
                let k = p.l_cols[t];
                let row = (p.u_ptr[k] + 1)..p.u_ptr[k + 1];
                ops.push(ElimOp {
                    pivot: (nl + p.u_ptr[k]) as u32,
                    count: row.len() as u32,
                });
                dst.extend(p.u_cols[row].iter().map(|&c| {
                    slots
                        .get(c)
                        .expect("LU pattern must be closed under elimination")
                        as u32
                }));
            }
        }
        Self { ops, dst }
    }

    /// Heap bytes held by the op lists.
    pub(super) fn heap_bytes(&self) -> usize {
        self.ops.capacity() * std::mem::size_of::<ElimOp>()
            + self.dst.capacity() * std::mem::size_of::<u32>()
    }
}

/// Where every stored entry of one CSR structure lands in the factor
/// buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct ScatterMap {
    /// The structure the map was compiled against (empty for a throwaway
    /// map, which is never compared).
    pub(super) row_ptr: Vec<usize>,
    pub(super) col_idx: Vec<usize>,
    /// Factor slot of every stored entry, in storage order. An entry outside
    /// the pattern maps to the pivot slot of its own row: that row, and every
    /// later one, is past the first mismatch and never read.
    pub(super) slot: Vec<u32>,
    /// The first elimination step whose input row leaves the pattern.
    pub(super) mismatch: Option<usize>,
}

impl ScatterMap {
    /// Compiles the map of `matrix`'s structure over `p`; `keyed` keeps a
    /// copy of the structure so the map can be cached and matched later.
    pub(super) fn build<T: Scalar>(p: &LuPattern, matrix: &CsrMatrix<T>, keyed: bool) -> Self {
        let (row_ptr, col_idx, _) = matrix.parts();
        let nl = p.l_cols.len();
        // Elimination step of every original row (the inverse of `perm`).
        let mut ppos = vec![0usize; p.n];
        for (k, &r) in p.perm.iter().enumerate() {
            ppos[r] = k;
        }
        let mut mismatch: Option<usize> = None;
        let mut slot = Vec::with_capacity(col_idx.len());
        let mut slots = RowSlots::new(p.n);
        for (r, &i) in ppos.iter().enumerate() {
            slots.load(p, i);
            for &c in &col_idx[row_ptr[r]..row_ptr[r + 1]] {
                let s = slots.get(p.cpos[c]).unwrap_or_else(|| {
                    mismatch = Some(mismatch.map_or(i, |m| m.min(i)));
                    nl + p.u_ptr[i]
                });
                slot.push(s as u32);
            }
        }
        Self {
            row_ptr: if keyed { row_ptr.to_vec() } else { Vec::new() },
            col_idx: if keyed { col_idx.to_vec() } else { Vec::new() },
            slot,
            mismatch,
        }
    }

    /// Whether `matrix` has the structure this map was compiled against.
    fn matches<T: Scalar>(&self, matrix: &CsrMatrix<T>) -> bool {
        let (row_ptr, col_idx, _) = matrix.parts();
        row_ptr == self.row_ptr.as_slice() && col_idx == self.col_idx.as_slice()
    }

    /// Heap bytes held by the map.
    pub(super) fn heap_bytes(&self) -> usize {
        (self.row_ptr.capacity() + self.col_idx.capacity()) * std::mem::size_of::<usize>()
            + self.slot.capacity() * std::mem::size_of::<u32>()
    }
}

impl LuPattern {
    /// Number of factor slots: `L`, `U` and `F` entries.
    pub(super) fn factor_len(&self) -> usize {
        self.l_cols.len() + self.u_cols.len() + self.f_cols.len()
    }

    /// The elimination op lists, compiled on the first call.
    pub(super) fn program(&self) -> &Program {
        self.program.get_or_init(|| Program::build(self))
    }

    /// The scatter map of `matrix`'s structure: the cached one when the
    /// structure matches it. The first structure that lies inside the
    /// pattern is compiled and cached; any other gets a throwaway map.
    fn scatter_for<T: Scalar>(&self, matrix: &CsrMatrix<T>) -> Cow<'_, ScatterMap> {
        if let Some(map) = self.scatter.get() {
            return if map.matches(matrix) {
                Cow::Borrowed(map)
            } else {
                Cow::Owned(ScatterMap::build(self, matrix, false))
            };
        }
        let map = ScatterMap::build(self, matrix, true);
        if map.mismatch.is_some() {
            return Cow::Owned(map);
        }
        // A concurrent first caller may have cached a different structure.
        match self.scatter.set(map) {
            Ok(()) => Cow::Borrowed(self.scatter.get().expect("just cached")),
            Err(mine) => match self.scatter.get() {
                Some(cached) if cached.matches(matrix) => Cow::Borrowed(cached),
                _ => Cow::Owned(mine),
            },
        }
    }
}

/// Dense slot lookup over one elimination row at a time: after
/// [`load`](RowSlots::load)`(p, i)`, [`get`](RowSlots::get)`(c)` is the
/// factor slot of entry `(step i, elimination column c)` — an `L` slot left
/// of the diagonal, a `U` slot within the block, an `F` slot in a later
/// block — or `None` when the pattern does not store it. Loading costs the
/// row's length and each lookup `O(1)`; the two arrays are sized by the
/// dimension.
pub(super) struct RowSlots {
    /// Per elimination column: the step whose row marked it, and its slot
    /// there.
    marks: Vec<(usize, usize)>,
    row: usize,
}

impl RowSlots {
    pub(super) fn new(n: usize) -> Self {
        Self {
            marks: vec![(usize::MAX, 0); n],
            row: 0,
        }
    }

    /// Marks every stored entry of step `i`'s row of `p`.
    pub(super) fn load(&mut self, p: &LuPattern, i: usize) {
        self.row = i;
        let nl = p.l_cols.len();
        let nu = p.u_cols.len();
        let parts = [
            (&p.l_ptr, &p.l_cols, 0),
            (&p.u_ptr, &p.u_cols, nl),
            (&p.f_ptr, &p.f_cols, nl + nu),
        ];
        for (ptr, cols, base) in parts {
            let range = ptr[i]..ptr[i + 1];
            for (t, &c) in range.clone().zip(&cols[range]) {
                self.marks[c] = (i, base + t);
            }
        }
    }

    /// The slot of column `c` in the loaded row, if stored.
    #[inline]
    pub(super) fn get(&self, c: usize) -> Option<usize> {
        let (row, slot) = self.marks[c];
        (row == self.row).then_some(slot)
    }
}

/// One matrix's column scan: per elimination column the squared-magnitude
/// maximum and its argmax entry (the lazy form of the reference scales),
/// plus `‖A‖∞`. Held by [`LuWorkspace`](super::LuWorkspace); sized on first
/// use and reused.
#[derive(Debug, Clone)]
pub(super) struct ColumnScan<T: Scalar> {
    sq: Vec<f64>,
    arg: Vec<T>,
    /// Exact per-column maxima, filled only when some square degenerated.
    exact: Vec<f64>,
    /// Whether every square was normal or the square of an exact zero.
    squares_ok: bool,
    /// `‖A‖∞`: the largest row sum of [`Scalar::modulus_l1`] moduli.
    pub(super) norm_inf: f64,
}

impl<T: Scalar> ColumnScan<T> {
    /// A scan pre-sized for dimension `n` (empty for `n = 0`).
    pub(super) fn for_dim(n: usize) -> Self {
        Self {
            sq: vec![0.0; n],
            arg: vec![T::ZERO; n],
            exact: vec![0.0; n],
            squares_ok: true,
            norm_inf: 0.0,
        }
    }

    /// One flat pass over `matrix` in storage (row-major) order: the
    /// squared-magnitude argmax per elimination column (`cpos` maps original
    /// columns) and the row sums of `‖A‖∞`, accumulated exactly like the
    /// refined solve's residual pass. When a square degenerates the exact
    /// per-column maxima are recomputed as the reference does.
    ///
    /// Fails with [`SolveError::NonFinite`] on the first non-finite entry
    /// (row-major order, original coordinates).
    pub(super) fn scan(&mut self, matrix: &CsrMatrix<T>, cpos: &[usize]) -> Result<(), SolveError> {
        let n = matrix.cols();
        let (row_ptr, col_idx, values) = matrix.parts();
        self.sq.clear();
        self.sq.resize(n, 0.0);
        self.arg.clear();
        self.arg.resize(n, T::ZERO);
        let mut squares_ok = true;
        let mut norm = 0.0f64;
        for r in 0..matrix.rows() {
            let mut row_sum = 0.0f64;
            for e in row_ptr[r]..row_ptr[r + 1] {
                let v = values[e];
                let m2 = v.modulus_sqr();
                // A normal square comes from a finite entry; anything else
                // is a non-finite entry, an exact zero or a degenerate
                // square.
                if !m2.is_normal() {
                    if !v.is_finite() {
                        return Err(SolveError::NonFinite {
                            row: r,
                            col: col_idx[e],
                        });
                    }
                    if !v.is_zero() {
                        squares_ok = false;
                    }
                }
                let cc = cpos[col_idx[e]];
                if m2 > self.sq[cc] {
                    self.sq[cc] = m2;
                    self.arg[cc] = v;
                }
                row_sum += v.modulus_l1();
            }
            if row_sum > norm {
                norm = row_sum;
            }
        }
        self.squares_ok = squares_ok;
        self.norm_inf = norm;
        if !squares_ok {
            self.exact.clear();
            self.exact.resize(n, 0.0);
            for (&c, &v) in col_idx.iter().zip(values) {
                let m = v.modulus();
                let cc = cpos[c];
                if m > self.exact[cc] {
                    self.exact[cc] = m;
                }
            }
        }
        Ok(())
    }

    /// The reference scale of column `i`: the exact modulus of its argmax.
    fn col_max(&self, i: usize) -> f64 {
        if !self.squares_ok {
            self.exact[i]
        } else if self.sq[i] > 0.0 {
            self.arg[i].modulus()
        } else {
            0.0
        }
    }

    /// The largest reference scale over all columns (the recorded
    /// `max |A|`), taking `hypot` only for near-ties of the largest square.
    fn a_max(&self) -> f64 {
        if !self.squares_ok {
            return self.exact.iter().fold(0.0f64, |a, &b| a.max(b));
        }
        let mut best = 0;
        for (c, &q) in self.sq.iter().enumerate() {
            if q > self.sq[best] {
                best = c;
            }
        }
        let Some(&top) = self.sq.get(best) else {
            return 0.0;
        };
        if top == 0.0 {
            return 0.0;
        }
        let lead = self.arg[best];
        let mut a_max = lead.modulus();
        let floor = top * (1.0 - LAZY_MARGIN);
        for (&q, &v) in self.sq.iter().zip(&self.arg) {
            // hypot is symmetric under negation, so equal or opposite
            // entries share the leader's modulus.
            if q >= floor && v != lead && v != -lead {
                a_max = a_max.max(v.modulus());
            }
        }
        a_max
    }
}

/// Whether the squared fast path of the reference pivot rule clears a
/// pivot of square `pivot_sqr` (not degraded), given a column scale square
/// `q` in the fast path's range (`0`, or at least [`LAZY_MIN_SQR`] with
/// every square exact): nonzero, not below `1e-8` times the row's largest
/// modulus, and the column scale zero or the pivot clear of the `1e-14`
/// band. Written without short-circuits so a loop over lanes stays
/// branch-free.
#[inline]
fn pivot_clears(q: f64, pivot_sqr: f64, row_max_sqr: f64, row_squares_ok: bool) -> bool {
    let row_degraded = (pivot_sqr == 0.0)
        | (pivot_sqr < REFACTOR_PIVOT_RELATIVE * REFACTOR_PIVOT_RELATIVE * row_max_sqr);
    let col_clear = (q == 0.0) | (pivot_sqr > q * SINGULARITY_SQR * (1.0 + LAZY_MARGIN));
    row_squares_ok & !row_degraded & col_clear
}

/// The squared fast path of the reference pivot rule (module docs):
/// whether the pivot of square `pivot_sqr` is degraded, decided from the
/// squares alone, or `None` when only the exact path can decide. `q` /
/// `squares_ok` are the column's largest square and whether the matrix's
/// squares were all exact; `row_max_sqr` / `row_squares_ok` describe the
/// squares of the pivot's `U` row.
#[inline]
fn pivot_fast(
    q: f64,
    squares_ok: bool,
    pivot_sqr: f64,
    row_max_sqr: f64,
    row_squares_ok: bool,
) -> Option<bool> {
    // The reference takes its squared path when the scale is 0 or its
    // square is normal.
    if !(row_squares_ok && squares_ok && (q == 0.0 || q >= LAZY_MIN_SQR)) {
        return None;
    }
    if pivot_clears(q, pivot_sqr, row_max_sqr, true) {
        return Some(false);
    }
    if pivot_sqr == 0.0
        || pivot_sqr < REFACTOR_PIVOT_RELATIVE * REFACTOR_PIVOT_RELATIVE * row_max_sqr
    {
        return Some(true);
    }
    // Here `q != 0` and the pivot is not above the band.
    (pivot_sqr < q * SINGULARITY_SQR * (1.0 - LAZY_MARGIN)).then_some(true)
}

/// The reference pivot rule of one elimination step: degraded when the
/// pivot is zero, not above `1e-14` times its column scale, or below `1e-8`
/// times its row's largest modulus — [`pivot_fast`] where the squares
/// decide, else the exact rule on `col_max()`, the exact column scale, and
/// `exact_row_max()`, the row's exact largest modulus.
#[inline]
fn pivot_degraded<T: Scalar>(
    q: f64,
    squares_ok: bool,
    col_max: impl FnOnce() -> f64,
    pivot: T,
    row_max_sqr: f64,
    row_squares_ok: bool,
    exact_row_max: impl FnOnce() -> f64,
) -> bool {
    let pivot_sqr = pivot.modulus_sqr();
    if let Some(degraded) = pivot_fast(q, squares_ok, pivot_sqr, row_max_sqr, row_squares_ok) {
        return degraded;
    }
    let scale = col_max() * SINGULARITY_RELATIVE;
    let scale_sqr = scale * scale;
    if row_squares_ok && (scale_sqr.is_normal() || scale == 0.0) {
        pivot_sqr == 0.0
            || pivot_sqr <= scale_sqr
            || pivot_sqr < REFACTOR_PIVOT_RELATIVE * REFACTOR_PIVOT_RELATIVE * row_max_sqr
    } else if !pivot.is_finite() {
        // The elimination overflowed; fresh pivoting may pick a healthier
        // order, so this is degraded (soft), not hard.
        true
    } else {
        let pivot_mod = pivot.modulus();
        pivot_mod == 0.0
            || pivot_mod <= scale
            || pivot_mod < REFACTOR_PIVOT_RELATIVE * exact_row_max()
    }
}

/// The scalar compiled refactorization behind
/// [`SparseLu::refactor_into`](super::SparseLu::refactor_into): scan, then
/// scatter `matrix` into `vals` (resized to the pattern's factor length),
/// then eliminate and check row by row, stopping at the first failure. Hard
/// failures are detected before `vals` is touched.
pub(super) fn refactor<T: Scalar>(
    p: &LuPattern,
    matrix: &CsrMatrix<T>,
    scan: &mut ColumnScan<T>,
    vals: &mut Vec<T>,
) -> Result<RefactorScales, RefactorFailure> {
    let n = p.n;
    if matrix.rows() != n || matrix.cols() != n {
        return Err(RefactorFailure::Hard(SolveError::NotSquare {
            rows: matrix.rows(),
            cols: matrix.cols(),
        }));
    }
    scan.scan(matrix, &p.cpos).map_err(RefactorFailure::Hard)?;
    let prog = p.program();
    let map = p.scatter_for(matrix);
    vals.clear();
    vals.resize(p.factor_len(), T::ZERO);
    for (&s, &v) in map.slot.iter().zip(matrix.parts().2) {
        vals[s as usize] = v;
    }

    let nl = p.l_cols.len();
    let mut next_dst = 0usize;
    // Running U maximum for the recorded pivot-growth scale.
    let mut u_max_sqr = 0.0f64;
    let mut u_max_arg = T::ZERO;
    let mut u_squares_ok = true;
    for i in 0..n {
        if map.mismatch == Some(i) {
            return Err(RefactorFailure::PatternMismatch);
        }
        for (t, op) in (p.l_ptr[i]..).zip(&prog.ops[p.l_ptr[i]..p.l_ptr[i + 1]]) {
            let pivot = op.pivot as usize;
            let dst = &prog.dst[next_dst..next_dst + op.count as usize];
            next_dst += dst.len();
            let mult = vals[t] / vals[pivot];
            vals[t] = mult;
            if !mult.is_zero() {
                for (&d, s) in dst.iter().zip(pivot + 1..) {
                    let u = vals[s];
                    vals[d as usize] -= mult * u;
                }
            }
        }
        let row = &vals[nl + p.u_ptr[i]..nl + p.u_ptr[i + 1]];
        let mut row_max_sqr = 0.0f64;
        let mut row_squares_ok = true;
        for &v in row {
            let m2 = v.modulus_sqr();
            if !(m2.is_normal() || v.is_zero()) {
                row_squares_ok = false;
                u_squares_ok = false;
            }
            if m2 > row_max_sqr {
                row_max_sqr = m2;
            }
            if m2 > u_max_sqr {
                u_max_sqr = m2;
                u_max_arg = v;
            }
        }
        if pivot_degraded(
            scan.sq[i],
            scan.squares_ok,
            || scan.col_max(i),
            row[0],
            row_max_sqr,
            row_squares_ok,
            || row.iter().map(|v| v.modulus()).fold(0.0f64, f64::max),
        ) {
            return Err(RefactorFailure::Degraded);
        }
    }
    let u_max = if !u_squares_ok {
        exact_max_modulus(&vals[nl..nl + p.u_cols.len()])
    } else if u_max_sqr > 0.0 {
        u_max_arg.modulus()
    } else {
        0.0
    };
    Ok(RefactorScales {
        a_max: scan.a_max(),
        u_max,
        norm_inf: scan.norm_inf,
    })
}

/// The lane-major input scan of one batched refactorization: per lane the
/// largest square of any entry and whether every square lies in the range
/// where the squared pivot test is exact. Against that global scale a
/// pivot is usually cleared at once; any other pivot takes the exact
/// column scale of its own lane ([`column_scale`](LaneScans::column_scale))
/// and the reference rule.
#[derive(Debug, Clone)]
pub(super) struct LaneScans {
    /// The squares of every entry of each lane.
    input: LaneSquares,
    /// Per lane: the first non-finite entry `(row, col)` in row-major order.
    non_finite: Vec<Option<(usize, usize)>>,
    /// Per-lane scratch of the pivot checks: the squares of the pivot's `U`
    /// row, and whether the global scale cleared the pivot.
    row: LaneSquares,
    cleared: Vec<bool>,
    /// Per lane, the reference scales `(q, col_max)` of its `n` elimination
    /// columns (lane `w` at `w·n..(w + 1)·n`), valid where `scaled[w]`.
    col_sqr: Vec<f64>,
    col_max: Vec<f64>,
    scaled: Vec<bool>,
}

impl LaneScans {
    /// Scans of `width` lanes of dimension `n`.
    pub(super) fn new(n: usize, width: usize) -> Self {
        Self {
            input: LaneSquares::new(width),
            non_finite: vec![None; width],
            row: LaneSquares::new(width),
            cleared: vec![false; width],
            col_sqr: vec![0.0; n * width],
            col_max: vec![0.0; n * width],
            scaled: vec![false; width],
        }
    }

    /// One pass over the stored entries of `structure`, whose entry `e` in
    /// lane `w` is `values.get(e, w)`, that scans every lane of the width
    /// `W` (see [`lane_count`](super::lane_count)) and copies the chunk of
    /// entry `e` to factor slot `slot[e]`. Each of lanes `0..lanes` with a
    /// non-finite square then takes one pass of its own for its first
    /// non-finite entry.
    fn scan<T: Scalar, const W: usize>(
        &mut self,
        structure: &CsrMatrix<T>,
        values: &LanePlanes<T>,
        lanes: usize,
        slot: &[u32],
        factors: &mut [f64],
    ) {
        let wdt = lane_count::<W>(values.width());
        let stride = T::PLANES * wdt;
        let (row_ptr, col_idx, _) = structure.parts();
        self.input.reset(0..wdt);
        self.non_finite[..lanes].fill(None);
        self.scaled[..lanes].fill(false);
        for (&s, chunk) in slot.iter().zip(values.vals.chunks_exact(stride)) {
            let at = s as usize * stride;
            factors[at..at + stride].copy_from_slice(chunk);
            self.input.fold::<T>(chunk, 0..wdt);
        }
        for w in 0..lanes {
            if self.input.finite(w) {
                continue;
            }
            self.non_finite[w] = (0..structure.rows()).find_map(|r| {
                (row_ptr[r]..row_ptr[r + 1])
                    .find(|&e| !values.get(e, w).is_finite())
                    .map(|e| (r, col_idx[e]))
            });
        }
    }

    /// The reference scale of elimination column `i` in lane `w`, as
    /// [`ColumnScan`] records it: `(q, col_max)`, the largest square and the
    /// exact modulus of its first argmax — or, when the lane's squares were
    /// not all exact, the exact largest modulus. A lane's first call after a
    /// scan fills all its columns in one pass over its entries, in storage
    /// order.
    fn column_scale<T: Scalar>(
        &mut self,
        w: usize,
        i: usize,
        col_idx: &[usize],
        values: &LanePlanes<T>,
        cpos: &[usize],
    ) -> (f64, f64) {
        let n = cpos.len();
        let lane = w * n..(w + 1) * n;
        if !self.scaled[w] {
            self.scaled[w] = true;
            let squares_ok = self.input.exact(w, f64::MIN_POSITIVE);
            let q = &mut self.col_sqr[lane.clone()];
            let max = &mut self.col_max[lane.clone()];
            q.fill(0.0);
            max.fill(0.0);
            for (chunk, &c) in values.chunks().zip(col_idx) {
                let v: T = loops::lane(chunk, w);
                let cc = cpos[c];
                let m2 = v.modulus_sqr();
                if m2 > q[cc] {
                    q[cc] = m2;
                    if squares_ok {
                        max[cc] = v.modulus();
                    }
                }
                if !squares_ok {
                    let m = v.modulus();
                    if m > max[cc] {
                        max[cc] = m;
                    }
                }
            }
        }
        (self.col_sqr[lane.start + i], self.col_max[lane.start + i])
    }
}

/// Disjoint chunks `(t, s, d)` of one lane store with chunk length
/// `stride`: the multiplier slot `t`, the update source `s` and the
/// destination `d` of an elimination update (`t < d`, `s ≠ d`).
fn update_chunks(
    vals: &mut [f64],
    stride: usize,
    t: usize,
    s: usize,
    d: usize,
) -> (&[f64], &[f64], &mut [f64]) {
    let (lo, hi) = vals.split_at_mut(d * stride);
    let m = &lo[t * stride..(t + 1) * stride];
    if s < d {
        (m, &lo[s * stride..(s + 1) * stride], &mut hi[..stride])
    } else {
        let (dst, rest) = hi.split_at_mut(stride);
        let at = (s - d - 1) * stride;
        (m, &rest[at..at + stride], dst)
    }
}

impl<T: Scalar> BatchedLu<T> {
    /// Marks lane `w` failed for good.
    fn fail(&mut self, w: usize, status: BatchLaneStatus) {
        self.statuses[w] = status;
        self.live[w] = false;
    }

    /// The batched compiled refactorization behind
    /// [`BatchedLu::refactor_lanes`]: one structure match, one pass over the
    /// entries that scans every lane and scatters whole slot chunks, one
    /// pass of the elimination ops over every lane, then the pivot checks
    /// of every live lane row by row.
    pub(super) fn refactor_shared<const W: usize>(
        &mut self,
        structure: &CsrMatrix<T>,
        values: &LanePlanes<T>,
        lanes: usize,
    ) {
        let p = std::sync::Arc::clone(&self.pattern);
        self.statuses.clear();
        self.statuses.resize(lanes, BatchLaneStatus::Factored);
        for (w, live) in self.live.iter_mut().enumerate() {
            *live = w < lanes;
        }
        if structure.rows() != p.n || structure.cols() != p.n {
            let e = SolveError::NotSquare {
                rows: structure.rows(),
                cols: structure.cols(),
            };
            for w in 0..lanes {
                self.fail(w, BatchLaneStatus::Failed(e));
            }
            return;
        }
        let map = p.scatter_for(structure);
        self.vals.vals.fill(0.0);
        self.scan
            .scan::<T, W>(structure, values, lanes, &map.slot, &mut self.vals.vals);
        for w in 0..lanes {
            if let Some((row, col)) = self.scan.non_finite[w] {
                self.fail(
                    w,
                    BatchLaneStatus::Failed(SolveError::NonFinite { row, col }),
                );
            }
        }
        self.eliminate::<W>(&p);
        self.check_pivots::<W>(&p, map.mismatch, structure.parts().1, values);
        if self.statuses.iter().any(|s| s.is_factored()) {
            self.factored = true;
        }
    }

    /// One pass of the elimination ops over every lane.
    fn eliminate<const W: usize>(&mut self, p: &LuPattern) {
        let prog = p.program();
        let stride = T::PLANES * lane_count::<W>(self.width);
        let vals = &mut self.vals.vals;
        // A multiplier that is exactly zero in some lane takes the per-lane
        // loop, which preserves the scalar path's `is_zero` skip bit for
        // bit.
        let mut next_dst = 0usize;
        for (t, op) in prog.ops.iter().enumerate() {
            let pivot = op.pivot as usize;
            let dst = &prog.dst[next_dst..next_dst + op.count as usize];
            next_dst += dst.len();
            let all_nonzero = {
                let (lo, hi) = vals.split_at_mut(pivot * stride);
                let mult = &mut lo[t * stride..(t + 1) * stride];
                loops::lane_div::<T>(&hi[..stride], mult);
                loops::lanes_nonzero::<T>(mult)
            };
            for (&d, s) in dst.iter().zip(pivot + 1..) {
                let (m, u, out) = update_chunks(vals, stride, t, s, d as usize);
                if all_nonzero {
                    loops::lane_mul_sub::<T>(m, u, out);
                } else {
                    loops::lane_mul_sub_nonzero::<T>(m, u, out);
                }
            }
        }
    }

    /// The pivot checks of every live lane in row order, so each lane keeps
    /// its first failure; on the structure's first off-pattern row every
    /// lane still live fails with a pattern mismatch. A pivot whose square
    /// clears `1e-14` times the lane's largest entry clears its own column
    /// scale too (monotone rounding); every other pivot is decided by the
    /// reference rule on its lane's column scale.
    fn check_pivots<const W: usize>(
        &mut self,
        p: &LuPattern,
        mismatch: Option<usize>,
        col_idx: &[usize],
        values: &LanePlanes<T>,
    ) {
        let wdt = lane_count::<W>(self.width);
        let stride = T::PLANES * wdt;
        let vals = &self.vals.vals;
        let nl = p.l_cols.len();
        let mut alive = self.live.iter().filter(|&&l| l).count();
        let scan = &mut self.scan;
        for i in 0..p.n {
            if alive == 0 {
                break;
            }
            if mismatch == Some(i) {
                for (status, live) in self.statuses.iter_mut().zip(&mut self.live) {
                    if *live {
                        *status = BatchLaneStatus::PatternMismatch;
                        *live = false;
                    }
                }
                break;
            }
            let slots = nl + p.u_ptr[i]..nl + p.u_ptr[i + 1];
            // The squares of the pivot's U row, every lane in one pass; the
            // pivot is the row's first chunk.
            let row = &vals[slots.start * stride..slots.end * stride];
            let (pivots, rest) = row.split_at(stride);
            scan.row.start::<T>(pivots, 0..wdt);
            for chunk in rest.chunks_exact(stride) {
                scan.row.fold::<T>(chunk, 0..wdt);
            }
            let (pr, pi) = loops::lane_parts::<T>(pivots, 0..wdt);
            let mut all_cleared = true;
            for w in 0..wdt {
                // Every square exact and at least `LAZY_MIN_SQR`: the global
                // scale and every column scale take the squared path.
                let cleared = scan.input.exact(w, LAZY_MIN_SQR)
                    & pivot_clears(
                        scan.input.max(w),
                        T::from_parts(pr[w], pi[w]).modulus_sqr(),
                        scan.row.max(w),
                        scan.row.exact(w, f64::MIN_POSITIVE),
                    );
                scan.cleared[w] = cleared;
                all_cleared &= cleared | !self.live[w];
            }
            if all_cleared {
                continue;
            }
            for w in 0..wdt {
                if !self.live[w] || scan.cleared[w] {
                    continue;
                }
                let squares_ok = scan.input.exact(w, f64::MIN_POSITIVE);
                let (q, col_max) = scan.column_scale(w, i, col_idx, values, &p.cpos);
                let lane = |s: usize| loops::lane::<T>(slot_chunk(vals, s, stride), w);
                let degraded = pivot_degraded(
                    q,
                    squares_ok,
                    || col_max,
                    lane(slots.start),
                    scan.row.max(w),
                    scan.row.exact(w, f64::MIN_POSITIVE),
                    || {
                        slots
                            .clone()
                            .map(|s| lane(s).modulus())
                            .fold(0.0f64, f64::max)
                    },
                );
                if degraded {
                    self.statuses[w] = BatchLaneStatus::Degraded;
                    self.live[w] = false;
                    alive -= 1;
                }
            }
        }
    }
}
