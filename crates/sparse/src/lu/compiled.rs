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
//! reassociation), so factors, lane statuses and `‖A‖∞` are bitwise those
//! of the reference; the test oracle in this crate pins that.
//!
//! # The pivot rule
//!
//! A pivot `p` is degraded when it is not above `1e-14` times its column's
//! largest input modulus (the relative threshold of KLU, Davis & Palamadai
//! Natarajan, ACM TOMS 37(3), 2010), or is below `1e-8` times its `U` row's
//! largest modulus. Both tests compare squared magnitudes:
//!
//! ```text
//! |p|² ≤ fl(q·fl(1e-14·1e-14))    or    |p|² < fl(1e-8·1e-8)·max|u|²
//! ```
//!
//! with `q` the largest [`Scalar::modulus_sqr`] of the pivot's column. The
//! scan keeps `q` per column, so no `hypot` is taken. Squares are trusted
//! only when every one of them is normal or an exact zero's, and `q·1e-28`
//! only when it is a normal number (`q` zero or at least
//! [`SQUARED_SCALE_MIN`]). Anywhere else — a degenerate square in the input
//! or in the pivot's `U` row, or a column scale below that range — the rule
//! runs on exact moduli, `|p| ≤ 1e-14·max|a|` or `|p| < 1e-8·max|u|`, and
//! the exact column maxima are computed on the first pivot that needs them.

use super::loops::LaneSquares;
use super::{
    lane_count, loops, slot_chunk, BatchLaneStatus, BatchedLu, LanePlanes, LuPattern,
    RefactorFailure, SolveError, REFACTOR_PIVOT_RELATIVE, SINGULARITY_RELATIVE,
};
use crate::csr::CsrMatrix;
use crate::scalar::Scalar;
use std::borrow::Cow;

/// Column scale squares below this take the exact-moduli rule: the squared
/// rule needs `q·1e-28` to be a normal number.
const SQUARED_SCALE_MIN: f64 = 1.0e-276;

/// `fl(1e-14·1e-14)`, the squared singularity ratio.
const SINGULARITY_SQR: f64 = SINGULARITY_RELATIVE * SINGULARITY_RELATIVE;

/// `fl(1e-8·1e-8)`, the squared row ratio.
const REFACTOR_PIVOT_SQR: f64 = REFACTOR_PIVOT_RELATIVE * REFACTOR_PIVOT_RELATIVE;

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

/// One matrix's column scan: per elimination column the largest square `q`
/// and, filled on the first pivot that needs them, the exact largest
/// moduli; plus `‖A‖∞`. Held by [`LuWorkspace`](super::LuWorkspace); sized
/// on first use and reused.
#[derive(Debug, Clone)]
pub(super) struct ColumnScan {
    sq: Vec<f64>,
    exact: Vec<f64>,
    /// Whether `exact` holds the maxima of the scanned matrix.
    exact_filled: bool,
    /// Whether every square was normal or the square of an exact zero.
    squares_ok: bool,
    /// `‖A‖∞`: the largest row sum of [`Scalar::modulus_l1`] moduli.
    norm_inf: f64,
}

impl ColumnScan {
    /// A scan pre-sized for dimension `n` (empty for `n = 0`).
    pub(super) fn for_dim(n: usize) -> Self {
        Self {
            sq: vec![0.0; n],
            exact: vec![0.0; n],
            exact_filled: false,
            squares_ok: true,
            norm_inf: 0.0,
        }
    }

    /// One flat pass over `matrix` in storage (row-major) order: the
    /// largest square per elimination column (`cpos` maps original columns)
    /// and the row sums of `‖A‖∞`, accumulated exactly like the refined
    /// solve's residual pass.
    ///
    /// Fails with [`SolveError::NonFinite`] on the first non-finite entry
    /// (row-major order, original coordinates).
    fn scan<T: Scalar>(&mut self, matrix: &CsrMatrix<T>, cpos: &[usize]) -> Result<(), SolveError> {
        let (row_ptr, col_idx, values) = matrix.parts();
        self.sq.clear();
        self.sq.resize(matrix.cols(), 0.0);
        self.exact_filled = false;
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
                }
                row_sum += v.modulus_l1();
            }
            if row_sum > norm {
                norm = row_sum;
            }
        }
        self.squares_ok = squares_ok;
        self.norm_inf = norm;
        Ok(())
    }

    /// The exact largest modulus of elimination column `i` of the scanned
    /// `matrix`; the first call after a scan fills every column.
    fn col_max<T: Scalar>(&mut self, i: usize, matrix: &CsrMatrix<T>, cpos: &[usize]) -> f64 {
        if !self.exact_filled {
            self.exact_filled = true;
            self.exact.resize(matrix.cols(), 0.0);
            let (_, col_idx, values) = matrix.parts();
            column_maxima(
                &mut self.exact,
                col_idx.iter().zip(values.iter().copied()),
                cpos,
                T::modulus,
            );
        }
        self.exact[i]
    }
}

/// `out[cpos[c]]`: the largest `f(v)` over the `entries` `(c, v)` of
/// original column `c` (0 for a column without entries).
#[inline]
fn column_maxima<'a, T: Scalar>(
    out: &mut [f64],
    entries: impl Iterator<Item = (&'a usize, T)>,
    cpos: &[usize],
    f: impl Fn(T) -> f64,
) {
    out.fill(0.0);
    for (&c, v) in entries {
        let m = f(v);
        let cc = cpos[c];
        if m > out[cc] {
            out[cc] = m;
        }
    }
}

/// The squared pivot rule (module docs): whether a pivot of square
/// `pivot_sqr` is degraded against the column scale square `q` and its
/// `U` row's largest square. Valid when every square involved is exact and
/// `q` lies in the squared range. Written without short-circuits so a loop
/// over lanes stays branch-free.
#[inline]
fn squared_degraded(q: f64, pivot_sqr: f64, row_max_sqr: f64) -> bool {
    (pivot_sqr <= q * SINGULARITY_SQR) | (pivot_sqr < REFACTOR_PIVOT_SQR * row_max_sqr)
}

/// The pivot rule of one elimination step (module docs). `q` / `squares_ok`
/// are the column's largest input square and whether every input square was
/// exact; `row_max_sqr` / `row_squares_ok` the same for the pivot's `U`
/// row. Outside the squared range the rule runs on exact moduli: `col_max()`
/// is the column's largest input modulus and `row_max()` the row's.
#[inline]
fn pivot_degraded<T: Scalar>(
    q: f64,
    squares_ok: bool,
    col_max: impl FnOnce() -> f64,
    pivot: T,
    row_max_sqr: f64,
    row_squares_ok: bool,
    row_max: impl FnOnce() -> f64,
) -> bool {
    if squares_ok && row_squares_ok && (q == 0.0 || q >= SQUARED_SCALE_MIN) {
        squared_degraded(q, pivot.modulus_sqr(), row_max_sqr)
    } else if !pivot.is_finite() {
        // The elimination overflowed; fresh pivoting may pick a healthier
        // order, so this is degraded (soft), not hard.
        true
    } else {
        let pivot_mod = pivot.modulus();
        pivot_mod <= col_max() * SINGULARITY_RELATIVE
            || pivot_mod < REFACTOR_PIVOT_RELATIVE * row_max()
    }
}

/// The scalar compiled refactorization behind
/// [`SparseLu::refactor_into`](super::SparseLu::refactor_into): scan, then
/// scatter `matrix` into `vals` (resized to the pattern's factor length),
/// then eliminate and check row by row, stopping at the first failure. Hard
/// failures are detected before `vals` is touched. Returns `‖A‖∞`.
pub(super) fn refactor<T: Scalar>(
    p: &LuPattern,
    matrix: &CsrMatrix<T>,
    scan: &mut ColumnScan,
    vals: &mut Vec<T>,
) -> Result<f64, RefactorFailure> {
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
            }
            if m2 > row_max_sqr {
                row_max_sqr = m2;
            }
        }
        if pivot_degraded(
            scan.sq[i],
            scan.squares_ok,
            || scan.col_max(i, matrix, &p.cpos),
            row[0],
            row_max_sqr,
            row_squares_ok,
            || row.iter().map(|v| v.modulus()).fold(0.0f64, f64::max),
        ) {
            return Err(RefactorFailure::Degraded);
        }
    }
    Ok(scan.norm_inf)
}

/// The lane-major input scan of one batched refactorization: per lane the
/// largest square of any entry and whether every square lies in the range
/// of the squared pivot rule. Against that global scale a pivot is usually
/// cleared at once; any other pivot takes the column scales of its own lane
/// ([`column`](LaneScans::column)) and the pivot rule.
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
    /// Per lane, the largest square and the exact largest modulus of each
    /// of its `n` elimination columns (lane `w` at `w·n..(w + 1)·n`), valid
    /// where `filled[w]` says so.
    col_sqr: Vec<f64>,
    col_max: Vec<f64>,
    filled: Vec<[bool; 2]>,
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
            filled: vec![[false; 2]; width],
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
        self.filled[..lanes].fill([false; 2]);
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

    /// A column scale of elimination column `i` in lane `w`: its largest
    /// square or, with `EXACT`, its exact largest modulus. A lane's first
    /// call of either kind after a scan fills all its columns of that kind
    /// in one pass over its entries.
    fn column<T: Scalar, const EXACT: bool>(
        &mut self,
        w: usize,
        i: usize,
        col_idx: &[usize],
        values: &LanePlanes<T>,
        cpos: &[usize],
    ) -> f64 {
        let n = cpos.len();
        let table = if EXACT {
            &mut self.col_max
        } else {
            &mut self.col_sqr
        };
        let lane = &mut table[w * n..(w + 1) * n];
        let filled = &mut self.filled[w][usize::from(EXACT)];
        if !*filled {
            *filled = true;
            let entries = col_idx
                .iter()
                .zip(values.chunks().map(|chunk| loops::lane::<T>(chunk, w)));
            if EXACT {
                column_maxima(lane, entries, cpos, T::modulus);
            } else {
                column_maxima(lane, entries, cpos, T::modulus_sqr);
            }
        }
        lane[i]
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
    /// pivot rule on its lane's column scales.
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
                // Every square exact and at least `SQUARED_SCALE_MIN`: the
                // global scale and every column scale take the squared rule.
                let cleared = scan.input.exact(w, SQUARED_SCALE_MIN)
                    & scan.row.exact(w, f64::MIN_POSITIVE)
                    & !squared_degraded(
                        scan.input.max(w),
                        T::from_parts(pr[w], pi[w]).modulus_sqr(),
                        scan.row.max(w),
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
                let q = scan.column::<T, false>(w, i, col_idx, values, &p.cpos);
                let squares_ok = scan.input.exact(w, f64::MIN_POSITIVE);
                let row_max_sqr = scan.row.max(w);
                let row_squares_ok = scan.row.exact(w, f64::MIN_POSITIVE);
                let lane = |s: usize| loops::lane::<T>(slot_chunk(vals, s, stride), w);
                let degraded = pivot_degraded(
                    q,
                    squares_ok,
                    || scan.column::<T, true>(w, i, col_idx, values, &p.cpos),
                    lane(slots.start),
                    row_max_sqr,
                    row_squares_ok,
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
