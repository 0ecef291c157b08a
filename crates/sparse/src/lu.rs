//! Sparse LU factorization with a symbolic/numeric split, fill-reducing
//! ordering and allocation-free hot paths.
//!
//! The solver is organised around the workload of the stability analyses: the
//! same MNA sparsity pattern is factored hundreds of times per sweep (once
//! per frequency point, Newton iteration or timestep) with only the numeric
//! values changing. Two entry points serve that workload, split the way KLU
//! splits `klu_factor` from `klu_refactor`:
//!
//! * [`SparseLu::factor`] — the one **fresh factorization**, and the only
//!   place that chooses pivots. It permutes the matrix to block
//!   upper-triangular form ([`crate::btf`]) and factors each diagonal block
//!   in a minimum-degree column order ([`crate::ordering`]) with KLU-style
//!   threshold pivoting: the row the ordering prefers is accepted as long as
//!   its pivot stays within [`ORDERED_PIVOT_THRESHOLD`] of the largest
//!   candidate, and rows are swapped only when numerics demand it. Rows are
//!   kept as flat sorted `(col, value)` vectors and elimination updates are
//!   two-pointer merges, so there is no tree/map traversal in the hot loop.
//!   [`SparseLu::extract_symbolic`] captures the result as a [`SymbolicLu`].
//! * [`SparseLu::refactor_into`] — the **numeric-only refactorization** that
//!   reuses a [`SymbolicLu`] (row *and* column permutations, block partition
//!   and fill pattern). It runs a left-looking pass driven by flat op lists
//!   compiled once per pattern — each input entry scattered straight into
//!   its factor slot, each update's destination slot resolved in advance; no
//!   pivot search, no fill discovery — reusing the factor value buffer and a
//!   caller-held [`LuWorkspace`], so the hot loop performs **zero heap
//!   allocations**. It
//!   never re-pivots: when a pivot degrades numerically (or the matrix
//!   pattern no longer matches) it reports the soft outcome `Ok(false)` and
//!   the caller decides whether to re-pivot through `factor`.
//!
//! Solves follow the same split: [`SparseLu::solve_into`] is the
//! allocation-free path (forward/backward substitution into caller-held
//! buffers), and [`SparseLu::solve`] is a thin convenience wrapper over it
//! for one-off solves. [`SparseLu::diag_inverse_into`] reads the whole
//! diagonal of `A⁻¹` off the same factors by selected inversion.
//!
//! Structural zeros are preserved during elimination (entries that cancel
//! exactly are kept), so the recorded fill pattern is value-independent and
//! remains valid for any matrix with the same structure.
//!
//! Singularity is detected **per pivot column, relative to that column's
//! largest entry modulus in the input matrix** rather than against an
//! absolute epsilon. Badly scaled but well-conditioned systems (e.g.
//! everything in nano-units) factor cleanly, genuinely rank-deficient
//! columns are still rejected, and — unlike a matrix-wide norm test — a
//! tiny-but-healthy column (a GMIN shunt next to a huge admittance) is not
//! misclassified just because unrelated entries are large.

use crate::csr::CsrMatrix;
use crate::scalar::Scalar;
use std::fmt;
use std::sync::{Arc, OnceLock};

mod compiled;
mod loops;
#[cfg(test)]
mod oracle;
mod selinv;
use compiled::LaneScan;
pub use selinv::InverseWorkspace;

/// Error produced by factorization or solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// The matrix is singular: no usable pivot exists for the given column.
    /// The payload is always the **original** (un-permuted) matrix column
    /// index, whatever fill-reducing or block-triangular permutations the
    /// factorization applied internally — the index a caller can map back
    /// to a circuit unknown.
    Singular(usize),
    /// The matrix is not square.
    NotSquare {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// The right-hand side length does not match the matrix dimension.
    RhsLength {
        /// Matrix dimension.
        expected: usize,
        /// Supplied right-hand-side length.
        got: usize,
    },
    /// The matrix contains a non-finite (NaN or ±∞) entry. Detected up
    /// front by [`SparseLu::factor`] / [`SparseLu::refactor_into`] so a
    /// poisoned stamp fails fast with coordinates instead of silently
    /// corrupting the factors: NaN compares false against every pivot
    /// threshold and would otherwise sail through the magnitude checks.
    /// Coordinates are **original** (un-permuted) row/column indices of the
    /// first offending stored entry in row-major order — deterministic for
    /// a given matrix, and mappable back to a circuit unknown.
    NonFinite {
        /// Original row index of the first non-finite entry.
        row: usize,
        /// Original column index of the first non-finite entry.
        col: usize,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Singular(c) => write!(f, "matrix is singular in column {c}"),
            SolveError::NotSquare { rows, cols } => {
                write!(f, "matrix is not square ({rows}x{cols})")
            }
            SolveError::RhsLength { expected, got } => {
                write!(f, "right-hand side has length {got}, expected {expected}")
            }
            SolveError::NonFinite { row, col } => {
                write!(f, "matrix has a non-finite entry at ({row}, {col})")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// A pivot is declared numerically singular when its modulus falls below
/// this fraction of **its column's** largest entry modulus in the input
/// matrix. Column-relative (rather than absolute, or matrix-norm-relative)
/// so uniformly scaled systems behave identically at any magnitude and a
/// small-but-healthy column is not poisoned by large entries elsewhere.
const SINGULARITY_RELATIVE: f64 = 1.0e-14;

/// During a refactorization the precomputed pivot order is trusted only while
/// each pivot stays within this factor of the largest modulus in its U row;
/// below it the refactorization reports its soft outcome and the caller
/// re-pivots with a fresh factorization.
const REFACTOR_PIVOT_RELATIVE: f64 = 1.0e-8;

/// Normwise backward error a refined solve must reach before
/// [`SparseLu::solve_refined_into`] stops iterating. A backward-stable LU
/// solve lands near machine epsilon (~1e-16); this threshold leaves two
/// orders of headroom so healthy solves pass on the direct solution with
/// **zero** refinement steps, while genuinely contaminated solutions (stale
/// factors, degraded pivots) fail it and trigger refinement.
pub const REFINE_BACKWARD_TOLERANCE: f64 = 1.0e-12;

/// Maximum number of refinement corrections [`SparseLu::solve_refined_into`]
/// applies before giving up. Fixed-iteration by design: with a working
/// factorization each step multiplies the error by the same contraction
/// factor, so if four steps have not converged, more will not either.
pub const REFINE_MAX_STEPS: usize = 4;

/// Relative pivot threshold of the fresh factorization, the same role and magnitude as KLU's default `tol`: the row preferred by
/// the fill-reducing order is accepted as pivot while its modulus stays
/// within this factor of the largest candidate in the pivot column; below
/// it, magnitude wins and rows are swapped.
pub const ORDERED_PIVOT_THRESHOLD: f64 = 1.0e-3;

/// The pivot order and fill pattern of an LU factorization, independent of
/// the numeric values.
///
/// Captured from a fresh [`SparseLu::factor`] by
/// [`SparseLu::extract_symbolic`]; consumed by [`SparseLu::refactor_into`]
/// to factor further matrices **with the same sparsity pattern** without
/// re-running pivot search or fill-in discovery. Both the row permutation
/// (pivot order) and the column permutation (elimination order) are
/// recorded, together with the block-triangular partition. The pattern is
/// value-independent because the analysis keeps structural zeros, so it
/// stays valid for every matrix assembled over the same structure.
#[derive(Debug, Clone)]
pub struct SymbolicLu {
    /// Shared with every [`SparseLu`] produced from it, so capturing and
    /// reusing a pattern never copies the index arrays.
    pattern: Arc<LuPattern>,
}

/// The immutable permutations + fill-pattern data shared (via `Arc`) between
/// a [`SymbolicLu`] and the factorizations built over it.
#[derive(Debug)]
struct LuPattern {
    n: usize,
    /// `perm[k]` is the original row index used as pivot row at step `k`.
    perm: Vec<usize>,
    /// `cperm[k]` is the original column eliminated at step `k`.
    cperm: Vec<usize>,
    /// Inverse of `cperm`: `cpos[c]` is the elimination step of original
    /// column `c`.
    cpos: Vec<usize>,
    /// CSR-style pattern of the strictly-lower factor, indexed by elimination
    /// step: `l_cols[l_ptr[i]..l_ptr[i+1]]` are the (ascending) pivot columns
    /// eliminated from row `perm[i]`, in elimination-column coordinates.
    l_ptr: Vec<usize>,
    l_cols: Vec<usize>,
    /// CSR-style pattern of the upper factor, indexed by elimination step;
    /// the first column of each row is the diagonal. Columns are in
    /// elimination coordinates (apply `cperm` to map back).
    u_ptr: Vec<usize>,
    u_cols: Vec<usize>,
    /// Elimination-step boundaries of the BTF diagonal blocks:
    /// `block_ptr[b]..block_ptr[b + 1]` is block `b`. `[0, n]` (one block)
    /// when the pattern is irreducible.
    block_ptr: Vec<usize>,
    /// CSR-style pattern of the off-diagonal (later-block) entries per
    /// elimination row — the raw matrix entries of pivot row `perm[i]` in
    /// columns of blocks after `i`'s own, in ascending elimination-column
    /// order. Empty for single-block factorizations. These entries are
    /// never eliminated: block back-substitution consumes them as-is.
    f_ptr: Vec<usize>,
    f_cols: Vec<usize>,
    /// Index data of the selected inversion
    /// ([`SparseLu::diag_inverse_into`]), built on its first call over this
    /// pattern; a re-pivoted factorization has its own pattern and index.
    inverse: OnceLock<selinv::InverseIndex>,
    /// Elimination op lists of the compiled refactorization, built on the
    /// first refactorization over this pattern (see `lu/compiled.rs`).
    program: OnceLock<compiled::Program>,
    /// Scatter map of the first input structure refactored over this
    /// pattern that lies inside it, keyed to that structure.
    scatter: OnceLock<compiled::ScatterMap>,
}

impl LuPattern {
    /// The trivial single-block partition of a dimension-`n` pattern.
    fn single_block(n: usize) -> Vec<usize> {
        vec![0, n]
    }

    /// An empty off-diagonal pattern for a dimension-`n` single-block
    /// factorization.
    fn empty_f(n: usize) -> Vec<usize> {
        vec![0; n + 1]
    }
}

impl SymbolicLu {
    /// Matrix dimension this pattern was computed for.
    pub fn dim(&self) -> usize {
        self.pattern.n
    }

    /// Total number of pattern entries the factorization stores: L and U
    /// (fill-in included) plus, for block-triangular factorizations, the
    /// raw off-diagonal block entries the block back-substitution consumes.
    pub fn fill_nnz(&self) -> usize {
        self.pattern.l_cols.len() + self.pattern.u_cols.len() + self.pattern.f_cols.len()
    }

    /// Number of diagonal blocks of the block-triangular partition: 1 when
    /// the pattern is irreducible and BTF degenerates.
    pub fn block_count(&self) -> usize {
        self.pattern.block_ptr.len() - 1
    }

    /// The block partition in elimination-step coordinates:
    /// `block_boundaries()[b]..block_boundaries()[b + 1]` spans diagonal
    /// block `b`; the slice has [`block_count`](SymbolicLu::block_count)` + 1`
    /// entries (`[0, n]` for single-block factorizations).
    pub fn block_boundaries(&self) -> &[usize] {
        &self.pattern.block_ptr
    }

    /// The pivot (row) order: element `k` is the original row eliminated at
    /// step `k`.
    pub fn pivot_order(&self) -> &[usize] {
        &self.pattern.perm
    }

    /// The column elimination order: element `k` is the original column
    /// eliminated at step `k`.
    pub fn column_order(&self) -> &[usize] {
        &self.pattern.cperm
    }

    /// Heap bytes held by the compiled refactorization of this pattern —
    /// its elimination op lists and the cached scatter map — or 0 before
    /// the first refactorization over it compiles them (see
    /// [`SparseLu::refactor_into`]).
    pub fn compiled_refactor_bytes(&self) -> usize {
        let p = &*self.pattern;
        p.program.get().map_or(0, |prog| prog.heap_bytes())
            + p.scatter.get().map_or(0, |map| map.heap_bytes())
    }
}

/// Largest modulus per *elimination* column of `matrix` (original columns
/// mapped through `cpos`), written into `out` — the per-column reference
/// scale for the relative singularity test. Reuses the allocations of `out`
/// and the `arg` argmax scratch.
///
/// The scan runs on squared magnitudes ([`Scalar::modulus_sqr`], no `hypot`
/// in the per-entry loop) and finalizes each column with **one** exact
/// [`Scalar::modulus`] on the winning entry. Squares degenerate outside
/// roughly `1e-154..1e154` (underflow to zero/subnormal, overflow to
/// infinity), which would corrupt the argmax — in that case the whole scan
/// is redone with exact moduli, so badly scaled but well-conditioned systems
/// keep the guarantees of the module-level singularity rule.
///
/// Fails with [`SolveError::NonFinite`] on the first non-finite stored
/// entry (row-major order, original coordinates).
fn column_max_moduli_into<T: Scalar>(
    matrix: &CsrMatrix<T>,
    cpos: &[usize],
    out: &mut Vec<f64>,
    arg: &mut Vec<T>,
) -> Result<(), SolveError> {
    out.clear();
    out.resize(matrix.cols(), 0.0);
    arg.clear();
    arg.resize(matrix.cols(), T::ZERO);
    let mut squares_exact = true;
    for (r, c, v) in matrix.iter() {
        if !v.is_finite() {
            return Err(SolveError::NonFinite { row: r, col: c });
        }
        let m2 = v.modulus_sqr();
        // A trustworthy square is either normal or an exact zero from an
        // exactly-zero entry (structural zeros are common and fine).
        if !(m2.is_normal() || v.is_zero()) {
            squares_exact = false;
        }
        let cc = cpos[c];
        if m2 > out[cc] {
            out[cc] = m2;
            arg[cc] = v;
        }
    }
    if squares_exact {
        for (scale, v) in out.iter_mut().zip(arg.iter()) {
            if *scale > 0.0 {
                *scale = v.modulus();
            }
        }
    } else {
        // Some square under/overflowed: the argmax above may have picked the
        // wrong entry (or missed every entry of a sub-1e-154 column). Redo
        // the scan with exact moduli — rare, and correctness beats speed
        // in these scale regimes.
        for s in out.iter_mut() {
            *s = 0.0;
        }
        for (_, c, v) in matrix.iter() {
            let m = v.modulus();
            let cc = cpos[c];
            if m > out[cc] {
                out[cc] = m;
            }
        }
    }
    Ok(())
}

/// Largest modulus over a value slice — squared-magnitude scan with one
/// exact [`Scalar::modulus`] on the winner, falling back to a full exact
/// scan when any square degenerates (same rule as
/// [`column_max_moduli_into`]).
fn exact_max_modulus<T: Scalar>(vals: &[T]) -> f64 {
    let mut max_sqr = 0.0f64;
    let mut arg = T::ZERO;
    let mut exact = true;
    for &v in vals {
        let m2 = v.modulus_sqr();
        if !(m2.is_normal() || v.is_zero()) {
            exact = false;
        }
        if m2 > max_sqr {
            max_sqr = m2;
            arg = v;
        }
    }
    if exact {
        if max_sqr > 0.0 {
            arg.modulus()
        } else {
            0.0
        }
    } else {
        vals.iter().map(|v| v.modulus()).fold(0.0f64, f64::max)
    }
}

/// The matrix scales a successful refactorization records on its
/// factorization (see the `a_max_modulus`, `u_max_modulus` and
/// `a_norm_inf` fields of [`SparseLu`]); all zero on an unfilled shell.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct RefactorScales {
    a_max: f64,
    u_max: f64,
    norm_inf: f64,
}

/// Why a numeric-only refactorization could not be completed: the soft
/// failures become [`SparseLu::refactor_into`]'s `Ok(false)`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RefactorFailure {
    /// A pivot fell below the numeric quality threshold at the given step;
    /// a fresh pivoting factorization may still succeed.
    Degraded,
    /// The matrix contains an entry outside the recorded fill pattern.
    PatternMismatch,
    /// A hard error that no re-pivoting can fix.
    Hard(SolveError),
}

/// Reusable scratch of the allocation-free refactorization path
/// ([`SparseLu::refactor_into`]): the per-column magnitude scan of the
/// input matrix.
///
/// Create one next to the [`SymbolicLu`] whose matrices it will serve and
/// pass it to every `refactor_into` call; after the first call no further
/// heap allocation happens (buffers are retained at matrix dimension).
#[derive(Debug, Clone)]
pub struct LuWorkspace<T: Scalar> {
    scan: LaneScan<T>,
}

impl<T: Scalar> Default for LuWorkspace<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Scalar> LuWorkspace<T> {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::for_dim(0)
    }

    /// Creates a workspace pre-sized for matrices of dimension `n`, so even
    /// the **first** [`SparseLu::refactor_into`] call over it performs no
    /// heap allocation. This is what per-worker solve contexts use: every
    /// allocation happens when the context is minted, none in the sweep loop.
    pub fn for_dim(n: usize) -> Self {
        Self {
            scan: LaneScan::for_dim(n),
        }
    }
}

/// An LU factorization `P·A·Q = L·U` of a sparse square matrix (`Q` is the
/// identity unless a fill-reducing column order was supplied).
///
/// Factors are stored flat (CSR-style index/value arrays ordered by
/// elimination step), so a solve is two cache-friendly sweeps. A
/// factorization can be reused for any number of right-hand sides — use
/// [`solve_into`](SparseLu::solve_into) in hot loops and
/// [`solve`](SparseLu::solve) for one-offs; with a [`SymbolicLu`] the
/// *pattern* can additionally be reused across matrices via
/// [`refactor_into`](SparseLu::refactor_into).
#[derive(Debug, Clone)]
pub struct SparseLu<T: Scalar> {
    /// Permutations and L/U index pattern, shared (not copied) with the
    /// [`SymbolicLu`] this factorization came from or can hand out.
    pattern: Arc<LuPattern>,
    /// Factor values in elimination order: the `L` entries (pattern
    /// `l_ptr`/`l_cols`), then `U` (`u_ptr`/`u_cols`), then the raw
    /// off-diagonal block entries (`f_ptr`/`f_cols`, none for single-block
    /// factorizations). One buffer, so one slot index addresses any factor
    /// entry (see [`SparseLu::factors`]); empty on an unfilled shell.
    vals: Vec<T>,
    /// Whether this factorization was produced by pattern-reusing
    /// refactorization (`true`) or fresh pivoting (`false`).
    refactored: bool,
    /// Largest entry modulus of the factored matrix, recorded at
    /// factorization time so the pivot-growth report of
    /// `solve_refined_into` costs O(1) per solve. Zero on an unfilled
    /// `from_symbolic` shell.
    a_max_modulus: f64,
    /// Largest entry modulus of the U factor, recorded like `a_max_modulus`.
    u_max_modulus: f64,
    /// `‖A‖∞` of the factored matrix (largest row sum of
    /// [`Scalar::modulus_l1`] moduli), recorded like `a_max_modulus`: the
    /// backward-error scale of `solve_refined_into`.
    a_norm_inf: f64,
}

/// Computes `merged = a − factor·p` for two sorted sparse rows, keeping the
/// full union pattern (entries that cancel to exact zero are preserved so the
/// fill pattern stays value-independent).
fn merge_sub<T: Scalar>(a: &[(usize, T)], p: &[(usize, T)], factor: T, out: &mut Vec<(usize, T)>) {
    out.clear();
    out.reserve(a.len() + p.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < p.len() {
        let (ac, av) = a[i];
        let (pc, pv) = p[j];
        if ac == pc {
            out.push((ac, av - factor * pv));
            i += 1;
            j += 1;
        } else if ac < pc {
            out.push((ac, av));
            i += 1;
        } else {
            out.push((pc, -(factor * pv)));
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    for &(pc, pv) in &p[j..] {
        out.push((pc, -(factor * pv)));
    }
}

impl<T: Scalar> SparseLu<T> {
    /// Factors a square sparse matrix **KLU-style** — the one fresh
    /// factorization, and the only entry point that chooses pivots.
    ///
    /// The matrix is permuted to block upper-triangular form
    /// ([`crate::btf`]), then each diagonal block is factored in a
    /// [`crate::ordering::min_degree_order`] column order with threshold
    /// pivoting: at each step the row the ordering prefers is accepted while
    /// its pivot modulus stays within [`ORDERED_PIVOT_THRESHOLD`] of the
    /// largest candidate in the column; otherwise the sparsest candidate
    /// above the threshold is chosen, so numerics can force a swap but never
    /// silently degrade. Fill never crosses a block boundary, and the
    /// off-diagonal block entries are stored raw for the block
    /// back-substitution instead of being eliminated. An irreducible pattern
    /// (one strongly connected component — typical for a single feedback
    /// loop) is a single block with identity BTF permutations.
    ///
    /// [`extract_symbolic`](SparseLu::extract_symbolic) captures the composed
    /// permutations, the per-block L/U patterns, the off-diagonal pattern and
    /// the block partition, so [`refactor_into`](SparseLu::refactor_into) and
    /// [`solve_into`](SparseLu::solve_into) stay numeric-only and
    /// allocation-free over it.
    ///
    /// ```
    /// use loopscope_sparse::{SparseLu, TripletMatrix};
    ///
    /// // Two strongly coupled unknowns feeding a third (no feedback).
    /// let mut t = TripletMatrix::<f64>::new(3, 3);
    /// t.push(0, 0, 2.0);
    /// t.push(0, 1, 1.0);
    /// t.push(1, 0, 1.0);
    /// t.push(1, 1, 3.0);
    /// t.push(2, 0, 1.0);
    /// t.push(2, 2, 4.0);
    /// let lu = SparseLu::factor(&t.to_csr())?;
    /// assert_eq!(lu.block_count(), 2);
    /// let x = lu.solve(&[5.0, 10.0, 6.0])?;
    /// assert!((x[0] - 1.0).abs() < 1e-12);
    /// assert!((x[1] - 3.0).abs() < 1e-12);
    /// assert!((x[2] - 1.25).abs() < 1e-12);
    /// # Ok::<(), loopscope_sparse::SolveError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::NotSquare`] for rectangular input,
    /// [`SolveError::NonFinite`] for the first non-finite stored entry
    /// (row-major order, off-diagonal block entries included), and
    /// [`SolveError::Singular`] — carrying the **original** column index —
    /// when the pattern is structurally singular or a block has no
    /// acceptable pivot.
    pub fn factor(matrix: &CsrMatrix<T>) -> Result<Self, SolveError> {
        let n = matrix.rows();
        if matrix.cols() != n {
            return Err(SolveError::NotSquare {
                rows: n,
                cols: matrix.cols(),
            });
        }
        // Each block factorization vets only its own block's entries; the
        // raw off-diagonal ones are checked here, like `refactor_into` does.
        if let Some((row, col, _)) = matrix.iter().find(|&(_, _, v)| !v.is_finite()) {
            return Err(SolveError::NonFinite { row, col });
        }
        let form = crate::btf::analyze(matrix)?;
        if form.is_single_block() {
            // Irreducible: no permutation shuffling, no F storage.
            let order = crate::ordering::min_degree_order(matrix);
            return Self::factor_block(matrix, &order);
        }
        // Position of every original column in the BTF order.
        let mut btf_cpos = vec![0usize; n];
        for (k, &c) in form.col_perm().iter().enumerate() {
            btf_cpos[c] = k;
        }

        let mut perm = Vec::with_capacity(n);
        let mut cperm = Vec::with_capacity(n);
        let mut l_ptr = Vec::with_capacity(n + 1);
        let mut l_cols = Vec::new();
        let mut l_vals = Vec::new();
        let mut u_ptr = Vec::with_capacity(n + 1);
        let mut u_cols = Vec::new();
        let mut u_vals = Vec::new();
        l_ptr.push(0);
        u_ptr.push(0);
        for b in 0..form.block_count() {
            let range = form.block_range(b);
            let (start, end) = (range.start, range.end);
            let dim = end - start;
            // The diagonal block in block-local coordinates. Entries in
            // later blocks are collected afterwards as the off-diagonal F
            // pattern; entries in earlier blocks cannot exist — the BTF
            // analysis of this very matrix guarantees upper form.
            let mut triplets = crate::triplet::TripletMatrix::new(dim, dim);
            for local_row in 0..dim {
                let row = form.row_perm()[start + local_row];
                for (c, v) in matrix.row_entries(row) {
                    let p = btf_cpos[c];
                    debug_assert!(p >= start, "BTF left an entry below its diagonal block");
                    if p < end {
                        triplets.push(local_row, p - start, v);
                    }
                }
            }
            let local = triplets.to_csr();
            let order = crate::ordering::min_degree_order(&local);
            let block_lu = Self::factor_block(&local, &order).map_err(|err| match err {
                // Map block-local indices back to the original ones.
                SolveError::Singular(col) => SolveError::Singular(form.col_perm()[start + col]),
                SolveError::NonFinite { row, col } => SolveError::NonFinite {
                    row: form.row_perm()[start + row],
                    col: form.col_perm()[start + col],
                },
                other => other,
            })?;
            let bp = &block_lu.pattern;
            let (block_l, block_u, _) = block_lu.factors();
            for k in 0..dim {
                perm.push(form.row_perm()[start + bp.perm[k]]);
                cperm.push(form.col_perm()[start + bp.cperm[k]]);
                let lr = bp.l_ptr[k]..bp.l_ptr[k + 1];
                l_cols.extend(bp.l_cols[lr.clone()].iter().map(|&c| start + c));
                l_vals.extend_from_slice(&block_l[lr]);
                l_ptr.push(l_cols.len());
                let ur = bp.u_ptr[k]..bp.u_ptr[k + 1];
                u_cols.extend(bp.u_cols[ur.clone()].iter().map(|&c| start + c));
                u_vals.extend_from_slice(&block_u[ur]);
                u_ptr.push(u_cols.len());
            }
        }

        // Composed inverse column permutation, then the off-diagonal block
        // pattern: the raw entries of each pivot row in later blocks, in
        // ascending elimination-column order.
        let mut cpos = vec![0usize; n];
        for (k, &c) in cperm.iter().enumerate() {
            cpos[c] = k;
        }
        let mut block_end_of_step = vec![0usize; n];
        for b in 0..form.block_count() {
            let range = form.block_range(b);
            for step in range.clone() {
                block_end_of_step[step] = range.end;
            }
        }
        let mut f_ptr = Vec::with_capacity(n + 1);
        let mut f_cols = Vec::new();
        let mut f_vals = Vec::new();
        f_ptr.push(0);
        let mut f_row: Vec<(usize, T)> = Vec::new();
        for (step, &pivot_row) in perm.iter().enumerate() {
            f_row.clear();
            let end = block_end_of_step[step];
            for (c, v) in matrix.row_entries(pivot_row) {
                let p = cpos[c];
                if p >= end {
                    f_row.push((p, v));
                }
            }
            f_row.sort_unstable_by_key(|&(p, _)| p);
            for &(p, v) in &f_row {
                f_cols.push(p);
                f_vals.push(v);
            }
            f_ptr.push(f_cols.len());
        }

        let a_max = matrix.max_modulus();
        let u_max = exact_max_modulus(&u_vals);
        let mut vals = l_vals;
        vals.extend_from_slice(&u_vals);
        vals.extend_from_slice(&f_vals);
        Ok(Self {
            pattern: Arc::new(LuPattern {
                n,
                perm,
                cperm,
                cpos,
                l_ptr,
                l_cols,
                u_ptr,
                u_cols,
                block_ptr: form.block_ptr().to_vec(),
                f_ptr,
                f_cols,
                inverse: OnceLock::new(),
                program: OnceLock::new(),
                scatter: OnceLock::new(),
            }),
            vals,
            refactored: false,
            a_max_modulus: a_max,
            u_max_modulus: u_max,
            a_norm_inf: norm_inf(matrix),
        })
    }

    /// Factors one irreducible diagonal block (the whole matrix when BTF
    /// degenerates), eliminating columns in `col_order` with threshold
    /// pivoting. `col_order[k]` names the original column — and,
    /// preferentially, the original row: MNA orderings are symmetric —
    /// eliminated at step `k`. The caller has checked that `matrix` is square.
    ///
    /// # Panics
    ///
    /// Panics if `col_order` is not a permutation of `0..matrix.rows()`.
    fn factor_block(matrix: &CsrMatrix<T>, col_order: &[usize]) -> Result<Self, SolveError> {
        let n = matrix.rows();
        // Column permutation: cperm[k] = original column eliminated at step
        // k; cpos is its inverse.
        let mut cpos = vec![usize::MAX; n];
        assert_eq!(
            col_order.len(),
            n,
            "column order must be a permutation of 0..n"
        );
        for (k, &c) in col_order.iter().enumerate() {
            assert!(
                c < n && cpos[c] == usize::MAX,
                "column order must be a permutation of 0..n"
            );
            cpos[c] = k;
        }
        let cperm = col_order.to_vec();

        // Per-elimination-column reference scales for the relative
        // singularity test; also rejects non-finite input up front.
        let mut col_max = Vec::new();
        let mut col_arg = Vec::new();
        column_max_moduli_into(matrix, &cpos, &mut col_max, &mut col_arg)?;

        // Working rows as (elimination-column, value) vectors sorted by
        // column. After step k every still-active row starts at a column > k,
        // so "row contains the pivot column" is a check of its first entry.
        let mut rows: Vec<Vec<(usize, T)>> = (0..n)
            .map(|r| {
                let mut row: Vec<(usize, T)> =
                    matrix.row_entries(r).map(|(c, v)| (cpos[c], v)).collect();
                row.sort_unstable_by_key(|&(c, _)| c);
                row
            })
            .collect();
        let mut active: Vec<usize> = (0..n).collect();
        // L entries per ORIGINAL row index, pushed in ascending step order.
        let mut l_rows: Vec<Vec<(usize, T)>> = vec![Vec::new(); n];
        let mut u_rows: Vec<Vec<(usize, T)>> = Vec::with_capacity(n);
        let mut perm = Vec::with_capacity(n);
        let mut scratch: Vec<(usize, T)> = Vec::new();

        // The loop is over elimination steps, not col_max; indexing is
        // clearer than iterating the threshold table.
        #[allow(clippy::needless_range_loop)]
        for k in 0..n {
            let (active_idx, pivot_mod) = Self::select_threshold_pivot(&rows, &active, k, cperm[k])
                // Report singularity against the ORIGINAL column index: callers
                // see the unknown they can map back to the circuit, not the
                // position some fill-reducing permutation moved it to.
                .ok_or(SolveError::Singular(cperm[k]))?;
            // Elimination can overflow into ±∞/NaN even when the input was
            // finite; NaN would pass the threshold checks below (every
            // comparison false), so reject it explicitly.
            if !pivot_mod.is_finite() {
                return Err(SolveError::NonFinite {
                    row: active[active_idx],
                    col: cperm[k],
                });
            }
            if pivot_mod <= col_max[k] * SINGULARITY_RELATIVE || pivot_mod == 0.0 {
                return Err(SolveError::Singular(cperm[k]));
            }
            let pivot_row = active.swap_remove(active_idx);
            let pivot = std::mem::take(&mut rows[pivot_row]);
            let pivot_val = pivot[0].1;

            // Eliminate column k from the remaining active rows.
            for &r in &active {
                let Some(&(c, a_rk)) = rows[r].first() else {
                    continue;
                };
                if c != k {
                    continue;
                }
                let factor = a_rk / pivot_val;
                merge_sub(&rows[r][1..], &pivot[1..], factor, &mut scratch);
                std::mem::swap(&mut rows[r], &mut scratch);
                // Record even exact-zero multipliers: the L pattern must not
                // depend on the numeric values.
                l_rows[r].push((k, factor));
            }

            perm.push(pivot_row);
            u_rows.push(pivot);
        }

        // Flatten into CSR-style arrays ordered by elimination step.
        let mut l_ptr = Vec::with_capacity(n + 1);
        let mut l_cols = Vec::new();
        let mut l_vals = Vec::new();
        let mut u_ptr = Vec::with_capacity(n + 1);
        let mut u_cols = Vec::new();
        let mut u_vals = Vec::new();
        l_ptr.push(0);
        u_ptr.push(0);
        for (i, u_row) in u_rows.into_iter().enumerate() {
            for (c, v) in std::mem::take(&mut l_rows[perm[i]]) {
                l_cols.push(c);
                l_vals.push(v);
            }
            l_ptr.push(l_cols.len());
            debug_assert_eq!(u_row[0].0, i, "pivot row must start at its diagonal");
            for (c, v) in u_row {
                u_cols.push(c);
                u_vals.push(v);
            }
            u_ptr.push(u_cols.len());
        }

        let a_max = col_max.iter().fold(0.0f64, |a, &b| a.max(b));
        let u_max = exact_max_modulus(&u_vals);
        let mut vals = l_vals;
        vals.extend_from_slice(&u_vals);
        Ok(Self {
            pattern: Arc::new(LuPattern {
                n,
                perm,
                cperm,
                cpos,
                l_ptr,
                l_cols,
                u_ptr,
                u_cols,
                block_ptr: LuPattern::single_block(n),
                f_ptr: LuPattern::empty_f(n),
                f_cols: Vec::new(),
                inverse: OnceLock::new(),
                program: OnceLock::new(),
                scatter: OnceLock::new(),
            }),
            vals,
            refactored: false,
            a_max_modulus: a_max,
            u_max_modulus: u_max,
            a_norm_inf: norm_inf(matrix),
        })
    }

    /// KLU-style pivot selection for the ordered factorization at step `k`:
    /// the row the ordering prefers (`preferred_row`, the symmetric-diagonal
    /// choice) wins while its modulus stays within
    /// [`ORDERED_PIVOT_THRESHOLD`] of the best candidate; otherwise the
    /// shortest (least fill-producing) candidate above the threshold wins,
    /// with modulus and then row index breaking ties deterministically.
    fn select_threshold_pivot(
        rows: &[Vec<(usize, T)>],
        active: &[usize],
        k: usize,
        preferred_row: usize,
    ) -> Option<(usize, f64)> {
        let mut max_mod = 0.0f64;
        for &r in active {
            if let Some(&(c, v)) = rows[r].first() {
                if c == k {
                    max_mod = max_mod.max(v.modulus());
                }
            }
        }
        if max_mod == 0.0 {
            return None;
        }
        let acceptance = ORDERED_PIVOT_THRESHOLD * max_mod;
        // (active index, modulus, row length, original row index)
        let mut best: Option<(usize, f64, usize, usize)> = None;
        for (ai, &r) in active.iter().enumerate() {
            let Some(&(c, v)) = rows[r].first() else {
                continue;
            };
            if c != k {
                continue;
            }
            let m = v.modulus();
            if m == 0.0 || m < acceptance {
                continue;
            }
            if r == preferred_row {
                // Numerics did not force a swap: respect the ordering.
                return Some((ai, m));
            }
            let len = rows[r].len();
            let better = match best {
                None => true,
                Some((_, bm, blen, brow)) => {
                    len < blen || (len == blen && (m > bm || (m == bm && r < brow)))
                }
            };
            if better {
                best = Some((ai, m, len, r));
            }
        }
        best.map(|(ai, m, _, _)| (ai, m))
    }

    /// Captures this factorization's permutations, block partition and fill
    /// pattern for later [`refactor_into`](SparseLu::refactor_into) calls.
    /// Cheap: the pattern is reference-counted, not copied.
    pub fn extract_symbolic(&self) -> SymbolicLu {
        SymbolicLu {
            pattern: Arc::clone(&self.pattern),
        }
    }

    /// Creates an **unfactored shell** over a previously captured symbolic
    /// analysis: the permutations and fill pattern are shared (not copied)
    /// with `symbolic`, and the L/U value buffers are pre-allocated to the
    /// pattern size but still empty.
    ///
    /// This is the buffer-ownership half of the plan/context split used by
    /// parallel sweeps: a shared, immutable plan holds the `SymbolicLu`, and
    /// every worker mints its own `SparseLu` shell from it — no symbolic
    /// analysis is re-run, and the first
    /// [`refactor_into`](SparseLu::refactor_into) over the shell fills the
    /// pre-allocated buffers without heap allocation (pair it with
    /// [`LuWorkspace::for_dim`] for a fully allocation-free worker loop).
    ///
    /// The shell is **not** a valid factorization until a `refactor_into`
    /// call over it succeeds; [`solve_into`](SparseLu::solve_into) /
    /// [`solve`](SparseLu::solve) panic on an unfilled shell.
    pub fn from_symbolic(symbolic: &SymbolicLu) -> Self {
        Self {
            pattern: Arc::clone(&symbolic.pattern),
            vals: Vec::with_capacity(symbolic.pattern.factor_len()),
            refactored: false,
            a_max_modulus: 0.0,
            u_max_modulus: 0.0,
            a_norm_inf: 0.0,
        }
    }

    /// Refactors `matrix` **in place** over `symbolic`'s permutations and
    /// fill pattern, reusing this factorization's L/U value buffers and the
    /// caller's [`LuWorkspace`].
    ///
    /// This is the hot path of frequency sweeps, Newton loops and transient
    /// stepping: a numeric-only left-looking pass with no pivot search and no
    /// fill discovery, driven by op lists compiled on the first call over
    /// the pattern (a scatter map keyed to `matrix`'s CSR structure, one
    /// elimination op per `L` entry with its update destinations resolved,
    /// and the per-row pivot checks). After that first call, a healthy
    /// refactorization performs **zero heap allocations**. The matrix's
    /// `‖A‖∞` is recorded with the factors for
    /// [`solve_refined_into`](SparseLu::solve_refined_into).
    ///
    /// It never re-pivots. Returns `Ok(true)` when `self` is now a valid
    /// factorization of `matrix`, and the **soft outcome** `Ok(false)` when a
    /// pivot degrades numerically or `matrix` has an entry outside the
    /// recorded pattern: the recorded pivot order cannot serve these values,
    /// and `self` holds no valid factors (solving panics, as on an unfilled
    /// [`from_symbolic`](SparseLu::from_symbolic) shell) until the caller
    /// re-pivots with a fresh [`factor`](SparseLu::factor) or a later
    /// refactorization succeeds.
    ///
    /// ```
    /// use loopscope_sparse::{LuWorkspace, SparseLu, TripletMatrix};
    ///
    /// let build = |d: f64| {
    ///     let mut t = TripletMatrix::<f64>::new(2, 2);
    ///     t.push(0, 0, d);
    ///     t.push(0, 1, 1.0);
    ///     t.push(1, 0, 1.0);
    ///     t.push(1, 1, d);
    ///     t.to_csr()
    /// };
    /// let mut lu = SparseLu::factor(&build(4.0))?;
    /// let symbolic = lu.extract_symbolic();
    /// let mut ws = LuWorkspace::new();
    /// // Same pattern, new values: numeric-only refactorization.
    /// assert!(lu.refactor_into(&symbolic, &build(3.0), &mut ws)?);
    /// let x = lu.solve(&[4.0, 4.0])?;
    /// assert!((x[0] - 1.0).abs() < 1e-12);
    /// // Vanishing diagonals degrade the recorded pivots: the soft outcome,
    /// // after which the caller re-pivots with a fresh factorization.
    /// let swapped = build(1.0e-12);
    /// assert!(!lu.refactor_into(&symbolic, &swapped, &mut ws)?);
    /// let lu = SparseLu::factor(&swapped)?;
    /// let x = lu.solve(&[1.0, 2.0])?;
    /// assert!((x[0] - 2.0).abs() < 1e-9);
    /// # Ok::<(), loopscope_sparse::SolveError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::NotSquare`] for a dimension mismatch with
    /// `symbolic` and [`SolveError::NonFinite`] for a non-finite entry; both
    /// are detected before any buffer is touched, so `self` stays valid.
    pub fn refactor_into(
        &mut self,
        symbolic: &SymbolicLu,
        matrix: &CsrMatrix<T>,
        ws: &mut LuWorkspace<T>,
    ) -> Result<bool, SolveError> {
        let outcome = compiled::refactor(&symbolic.pattern, matrix, &mut ws.scan, &mut self.vals);
        let scales = match outcome {
            Ok(scales) => Some(scales),
            // The hard checks run before any buffer is touched, so `self`
            // is still the previous, valid factorization.
            Err(RefactorFailure::Hard(e)) => return Err(e),
            Err(RefactorFailure::Degraded | RefactorFailure::PatternMismatch) => {
                // Keep the capacity, drop the partial factors: `self` is
                // now an unfilled shell over `symbolic`.
                self.vals.clear();
                None
            }
        };
        if !Arc::ptr_eq(&self.pattern, &symbolic.pattern) {
            self.pattern = Arc::clone(&symbolic.pattern);
        }
        self.refactored = scales.is_some();
        let RefactorScales {
            a_max,
            u_max,
            norm_inf,
        } = scales.unwrap_or_default();
        self.a_max_modulus = a_max;
        self.u_max_modulus = u_max;
        self.a_norm_inf = norm_inf;
        Ok(self.refactored)
    }

    /// The `L`, `U` and `F` factor values, each in its pattern's order.
    ///
    /// # Panics
    ///
    /// Panics on an unfilled [`from_symbolic`](SparseLu::from_symbolic)
    /// shell (no successful refactorization has run yet).
    fn factors(&self) -> (&[T], &[T], &[T]) {
        let p = &*self.pattern;
        assert_eq!(
            self.vals.len(),
            p.factor_len(),
            "solve on an unfactored SparseLu shell: refactor_into must succeed first"
        );
        let (l, rest) = self.vals.split_at(p.l_cols.len());
        let (u, f) = rest.split_at(p.u_cols.len());
        (l, u, f)
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.pattern.n
    }

    /// `true` when this factorization came from a successful
    /// [`refactor_into`](SparseLu::refactor_into) over a reused pivot order;
    /// `false` for a fresh [`factor`](SparseLu::factor) and for a shell with
    /// no valid factors.
    pub fn refactored(&self) -> bool {
        self.refactored
    }

    /// Total number of stored entries in the factorization: L and U (a
    /// fill-in diagnostic) plus, for block-triangular factorizations, the
    /// raw off-diagonal block entries.
    pub fn factor_nnz(&self) -> usize {
        self.vals.len()
    }

    /// Number of diagonal blocks of the block-triangular partition (1 when
    /// the factorization ran without BTF or the pattern is irreducible).
    pub fn block_count(&self) -> usize {
        self.pattern.block_ptr.len() - 1
    }

    /// Solves `A·x = b` **in place**: `rhs` holds `b` on entry and `x` on
    /// return, `work` is caller-held scratch of the same length. This is the
    /// allocation-free path for hot loops; [`solve`](SparseLu::solve) wraps
    /// it for one-off use.
    ///
    /// ```
    /// use loopscope_sparse::{SparseLu, TripletMatrix};
    ///
    /// let mut t = TripletMatrix::<f64>::new(2, 2);
    /// t.push(0, 0, 2.0);
    /// t.push(0, 1, 1.0);
    /// t.push(1, 0, 1.0);
    /// t.push(1, 1, 3.0);
    /// let lu = SparseLu::factor(&t.to_csr())?;
    /// let mut rhs = vec![5.0, 10.0];
    /// let mut work = vec![0.0; 2];
    /// lu.solve_into(&mut rhs, &mut work)?; // rhs now holds x
    /// assert!((rhs[0] - 1.0).abs() < 1e-12 && (rhs[1] - 3.0).abs() < 1e-12);
    /// # Ok::<(), loopscope_sparse::SolveError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::RhsLength`] when `rhs.len()` or `work.len()`
    /// does not match the matrix dimension.
    ///
    /// # Panics
    ///
    /// Panics when called on an unfilled [`from_symbolic`](SparseLu::from_symbolic)
    /// shell (no successful refactorization has run yet).
    pub fn solve_into(&self, rhs: &mut [T], work: &mut [T]) -> Result<(), SolveError> {
        let p = &*self.pattern;
        let (l_vals, u_vals, f_vals) = self.factors();
        if rhs.len() != p.n {
            return Err(SolveError::RhsLength {
                expected: p.n,
                got: rhs.len(),
            });
        }
        if work.len() != p.n {
            return Err(SolveError::RhsLength {
                expected: p.n,
                got: work.len(),
            });
        }
        // Block back-substitution, last block first: by the time block b
        // runs, every later block's solution already sits in `work`, so the
        // raw off-diagonal entries (F) fold the cross-block coupling into
        // the right-hand side before the within-block L/U sweeps. For a
        // single-block factorization the F loop is empty and this is a
        // plain forward-then-backward substitution.
        for b in (0..p.block_ptr.len() - 1).rev() {
            let (bs, be) = (p.block_ptr[b], p.block_ptr[b + 1]);
            // Forward substitution on the unit-lower factor, rows in
            // elimination order: work[i] = y[i] = r[perm[i]] − Σ L[i][k]·y[k]
            // with r = b − F·x(later blocks).
            for i in bs..be {
                let mut acc = rhs[p.perm[i]];
                let fr = p.f_ptr[i]..p.f_ptr[i + 1];
                acc = loops::fold_sub_indexed(acc, &f_vals[fr.clone()], &p.f_cols[fr], work);
                let lr = p.l_ptr[i]..p.l_ptr[i + 1];
                acc = loops::fold_sub_indexed(acc, &l_vals[lr.clone()], &p.l_cols[lr], work);
                work[i] = acc;
            }
            // Back substitution on U (diagonal first in each row), in place
            // over the work row: slots above i already hold solutions.
            for i in (bs..be).rev() {
                let start = p.u_ptr[i];
                let ur = (start + 1)..p.u_ptr[i + 1];
                let acc =
                    loops::fold_sub_indexed(work[i], &u_vals[ur.clone()], &p.u_cols[ur], work);
                work[i] = acc / u_vals[start];
            }
        }
        // Undo the column permutation: elimination slot i is original
        // unknown cperm[i].
        for i in 0..p.n {
            rhs[p.cperm[i]] = work[i];
        }
        Ok(())
    }

    /// Solves `A·x = b` using the stored factorization, returning a freshly
    /// allocated solution vector.
    ///
    /// Convenience wrapper over [`solve_into`](SparseLu::solve_into) for
    /// one-off solves; hot loops should hold their own buffers and call
    /// `solve_into` directly (it performs no heap allocation).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::RhsLength`] when `b.len()` does not match the
    /// matrix dimension.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, SolveError> {
        if b.len() != self.pattern.n {
            return Err(SolveError::RhsLength {
                expected: self.pattern.n,
                got: b.len(),
            });
        }
        let mut rhs = b.to_vec();
        let mut work = vec![T::ZERO; self.pattern.n];
        self.solve_into(&mut rhs, &mut work)?;
        Ok(rhs)
    }

    /// Solves `A·x = b` with **residual verification and iterative
    /// refinement**, in place: `rhs` holds `b` on entry and `x` on return.
    ///
    /// After the direct [`solve_into`](SparseLu::solve_into) the true
    /// residual `r = b − A·x` is computed through the caller-supplied
    /// original matrix (`matrix` must be the matrix this factorization was
    /// computed from: its `‖A‖∞` is read from the factorization, which
    /// recorded it while factoring). While the normwise backward error
    /// `‖r‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)` exceeds [`REFINE_BACKWARD_TOLERANCE`]
    /// and fewer than [`REFINE_MAX_STEPS`] corrections have been applied,
    /// the correction `A·δ = r` is solved through the same factors and
    /// folded into `x`. A correction that fails to shrink `‖r‖∞` is rolled
    /// back (the previous iterate is restored bit-for-bit), so the returned
    /// solution's residual is **never worse** than the direct solve's.
    ///
    /// Healthy factorizations pass the tolerance immediately
    /// (`refinement_steps == 0`) and pay only one residual pass on top of
    /// the plain solve; the entry magnitudes of `‖A‖∞` are
    /// [`Scalar::modulus_l1`] norms, so there is no `hypot` on this path.
    /// Performs no heap allocation once `ws` has reached matrix dimension.
    ///
    /// The returned [`SolveQuality`] reports the final residual norm,
    /// backward error, number of corrections and the factorization's
    /// pivot-growth factor; callers escalate on
    /// [`converged`](SolveQuality::converged)` == false` (see the retry
    /// ladder in `loopscope-spice`).
    ///
    /// ```
    /// use loopscope_sparse::{RefineWorkspace, SparseLu, TripletMatrix};
    ///
    /// let mut t = TripletMatrix::<f64>::new(2, 2);
    /// t.push(0, 0, 2.0);
    /// t.push(0, 1, 1.0);
    /// t.push(1, 0, 1.0);
    /// t.push(1, 1, 3.0);
    /// let a = t.to_csr();
    /// let lu = SparseLu::factor(&a)?;
    /// let mut rhs = vec![5.0, 10.0];
    /// let mut ws = RefineWorkspace::for_dim(2);
    /// let quality = lu.solve_refined_into(&a, &mut rhs, &mut ws)?;
    /// assert!(quality.converged);
    /// assert_eq!(quality.refinement_steps, 0);
    /// assert!((rhs[0] - 1.0).abs() < 1e-12 && (rhs[1] - 3.0).abs() < 1e-12);
    /// # Ok::<(), loopscope_sparse::SolveError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::NotSquare`] when `matrix` does not match the
    /// factorization dimension and [`SolveError::RhsLength`] for a
    /// mismatched `rhs`.
    ///
    /// # Panics
    ///
    /// Panics when called on an unfilled
    /// [`from_symbolic`](SparseLu::from_symbolic) shell, like
    /// [`solve_into`](SparseLu::solve_into).
    pub fn solve_refined_into(
        &self,
        matrix: &CsrMatrix<T>,
        rhs: &mut [T],
        ws: &mut RefineWorkspace<T>,
    ) -> Result<SolveQuality, SolveError> {
        let n = self.pattern.n;
        if matrix.rows() != n || matrix.cols() != n {
            return Err(SolveError::NotSquare {
                rows: matrix.rows(),
                cols: matrix.cols(),
            });
        }
        if rhs.len() != n {
            return Err(SolveError::RhsLength {
                expected: n,
                got: rhs.len(),
            });
        }
        ws.reset(n);
        ws.x.copy_from_slice(rhs);
        self.solve_into(&mut ws.x, &mut ws.work)?;
        // ‖A‖∞, the denominator scale of the backward error, was recorded
        // with the factors.
        let norm_a = self.a_norm_inf;
        let norms = residual_norms(matrix, &ws.x, rhs, &mut ws.residual);
        let (mut norm_r, norm_b) = (norms.r, norms.b);
        let mut steps = 0usize;
        let mut berr = backward_error(norm_r, norm_a, norms.x, norm_b);
        while berr > REFINE_BACKWARD_TOLERANCE && steps < REFINE_MAX_STEPS {
            ws.correction.copy_from_slice(&ws.residual);
            self.solve_into(&mut ws.correction, &mut ws.work)?;
            ws.x_prev.copy_from_slice(&ws.x);
            for (xi, di) in ws.x.iter_mut().zip(&ws.correction) {
                *xi += *di;
            }
            let norms = residual_norms(matrix, &ws.x, rhs, &mut ws.residual);
            // The norm scans map non-finite entries to +∞, so a diverging or
            // NaN-polluted update also lands in the rollback branch.
            if norms.r >= norm_r {
                ws.x.copy_from_slice(&ws.x_prev);
                break;
            }
            steps += 1;
            norm_r = norms.r;
            berr = backward_error(norm_r, norm_a, norms.x, norm_b);
        }
        rhs.copy_from_slice(&ws.x);
        let pivot_growth = if self.a_max_modulus > 0.0 {
            self.u_max_modulus / self.a_max_modulus
        } else {
            0.0
        };
        Ok(SolveQuality {
            residual_norm: norm_r,
            backward_error: berr,
            refinement_steps: steps,
            pivot_growth,
            converged: berr <= REFINE_BACKWARD_TOLERANCE,
        })
    }

    /// Estimates the 1-norm condition number `κ₁(A) = ‖A‖₁·‖A⁻¹‖₁` of the
    /// factored matrix using the Hager/Higham power iteration on `A⁻¹`
    /// (at most five forward/adjoint solve pairs through the existing
    /// factors — never a dense inverse), cross-checked against Higham's
    /// alternating-sign probe so the estimate cannot collapse on
    /// adversarial sign patterns. The result is a **lower bound** on the
    /// true κ₁, in practice within a small factor of it.
    ///
    /// `matrix` must be the matrix this factorization was computed from
    /// (its exact 1-norm anchors the estimate). This is a diagnostic path:
    /// it allocates its own scratch and is priced for once-per-sweep use,
    /// not per solve.
    ///
    /// ```
    /// use loopscope_sparse::{SparseLu, TripletMatrix};
    ///
    /// let mut t = TripletMatrix::<f64>::new(2, 2);
    /// t.push(0, 0, 1.0);
    /// t.push(1, 1, 1.0e-8);
    /// let a = t.to_csr();
    /// let lu = SparseLu::factor(&a)?;
    /// let kappa = lu.condition_estimate(&a)?;
    /// assert!((kappa - 1.0e8).abs() / 1.0e8 < 1e-6);
    /// # Ok::<(), loopscope_sparse::SolveError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::NotSquare`] when `matrix` does not match the
    /// factorization dimension.
    ///
    /// # Panics
    ///
    /// Panics when called on an unfilled
    /// [`from_symbolic`](SparseLu::from_symbolic) shell.
    pub fn condition_estimate(&self, matrix: &CsrMatrix<T>) -> Result<f64, SolveError> {
        let n = self.pattern.n;
        if matrix.rows() != n || matrix.cols() != n {
            return Err(SolveError::NotSquare {
                rows: matrix.rows(),
                cols: matrix.cols(),
            });
        }
        if n == 0 {
            return Ok(0.0);
        }
        // Exact ‖A‖₁: max column sum of moduli. One-off, so the exact
        // modulus is fine here.
        let mut col_sums = vec![0.0f64; n];
        for (_, c, v) in matrix.iter() {
            col_sums[c] += v.modulus();
        }
        let norm_a = col_sums.iter().fold(0.0f64, |a, &b| a.max(b));
        if norm_a == 0.0 {
            return Ok(f64::INFINITY);
        }

        let mut x: Vec<T> = vec![T::from_f64(1.0 / n as f64); n];
        let mut work = vec![T::ZERO; n];
        let mut y = vec![T::ZERO; n];
        let mut est = 0.0f64;
        let mut prev_j = usize::MAX;
        // Hager's iteration: maximize ‖A⁻¹x‖₁ over the unit 1-norm ball by
        // following the subgradient (an adjoint solve per step). Converges
        // in 2-3 iterations in practice; 5 is the customary cap.
        for _ in 0..5 {
            y.copy_from_slice(&x);
            self.solve_into(&mut y, &mut work)?;
            est = est.max(one_norm(&y));
            // ξ = sign(y), then z = A⁻ᴴ·ξ tells us which unit vector would
            // have produced a larger ‖A⁻¹·‖₁.
            for (zi, yi) in x.iter_mut().zip(&y) {
                let m = yi.modulus();
                *zi = if m > 0.0 {
                    *yi * T::from_f64(1.0 / m)
                } else {
                    T::ONE
                };
            }
            self.solve_adjoint_into(&mut x, &mut work);
            let (mut j, mut max_mod) = (0usize, 0.0f64);
            for (i, zi) in x.iter().enumerate() {
                let m = zi.modulus();
                if m > max_mod {
                    max_mod = m;
                    j = i;
                }
            }
            if j == prev_j || !max_mod.is_finite() {
                break;
            }
            prev_j = j;
            // Next probe: the unit vector the subgradient points at.
            for xi in x.iter_mut() {
                *xi = T::ZERO;
            }
            x[j] = T::ONE;
        }
        // Higham's safeguard probe: an alternating-sign right-hand side
        // that defeats the sign patterns Hager's iteration can stall on.
        for (i, xi) in x.iter_mut().enumerate() {
            let v = 1.0 + i as f64 / (n as f64 - 1.0).max(1.0);
            *xi = T::from_f64(if i % 2 == 0 { v } else { -v });
        }
        self.solve_into(&mut x, &mut work)?;
        est = est.max(2.0 * one_norm(&x) / (3.0 * n as f64));
        Ok(norm_a * est)
    }

    /// Solves `Aᴴ·z = w` in place through the stored factors (`rhs` holds
    /// `w` on entry and `z` on return): the adjoint substitutions run the
    /// recorded pattern in the reverse roles — `Uᴴ` is a forward sweep,
    /// `Lᴴ` a backward one, and the BTF blocks are visited in ascending
    /// order with each block's off-diagonal entries conjugate-scattered
    /// into the later blocks it feeds. Used by the condition estimator.
    fn solve_adjoint_into(&self, rhs: &mut [T], work: &mut [T]) {
        let p = &*self.pattern;
        let (l_vals, u_vals, f_vals) = self.factors();
        debug_assert_eq!(rhs.len(), p.n);
        debug_assert_eq!(work.len(), p.n);
        // Permute into elimination coordinates: w̃[j] = w[cperm[j]], from
        // Σᵢ conj(A'[i][j])·z̃[i] = w[cperm[j]] with A'[i][j] = A[perm[i]][cperm[j]].
        for j in 0..p.n {
            work[j] = rhs[p.cperm[j]];
        }
        for b in 0..p.block_ptr.len() - 1 {
            let (bs, be) = (p.block_ptr[b], p.block_ptr[b + 1]);
            // (L·U)ᴴ = Uᴴ·Lᴴ, so Uᴴ·y = w̃ runs first: Uᴴ is lower
            // triangular, solved forward, scattering each finished y[i]
            // into the later rows its U entries touch.
            for i in bs..be {
                let start = p.u_ptr[i];
                let yi = work[i] / Scalar::conj(u_vals[start]);
                work[i] = yi;
                if !yi.is_zero() {
                    for t in (start + 1)..p.u_ptr[i + 1] {
                        work[p.u_cols[t]] -= Scalar::conj(u_vals[t]) * yi;
                    }
                }
            }
            // Lᴴ·z̃ = y: upper triangular with unit diagonal, solved
            // backward; row i's L entries scatter into the earlier rows.
            for i in (bs..be).rev() {
                let zi = work[i];
                if !zi.is_zero() {
                    for t in p.l_ptr[i]..p.l_ptr[i + 1] {
                        work[p.l_cols[t]] -= Scalar::conj(l_vals[t]) * zi;
                    }
                }
            }
            // The off-diagonal entries of this block's rows couple into
            // *later* blocks' equations under the adjoint: fold them into
            // the pending right-hand sides before those blocks run.
            for i in bs..be {
                let zi = work[i];
                if !zi.is_zero() {
                    for t in p.f_ptr[i]..p.f_ptr[i + 1] {
                        work[p.f_cols[t]] -= Scalar::conj(f_vals[t]) * zi;
                    }
                }
            }
        }
        // Undo the row permutation: z[perm[i]] = z̃[i].
        for i in 0..p.n {
            rhs[p.perm[i]] = work[i];
        }
    }
}

/// Quality report of a residual-verified solve
/// ([`SparseLu::solve_refined_into`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveQuality {
    /// ∞-norm of the final residual `b − A·x`.
    pub residual_norm: f64,
    /// Normwise backward error `‖r‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)` of the returned
    /// solution (entry magnitudes via [`Scalar::modulus_l1`], so within √2
    /// of the Euclidean-modulus value). `0.0` for an exact solve,
    /// infinite when the solution or residual is non-finite.
    pub backward_error: f64,
    /// Number of refinement corrections folded into the solution (`0` when
    /// the direct solve already passed the tolerance).
    pub refinement_steps: usize,
    /// Pivot growth `max|U| / max|A|` of the factorization — a cheap
    /// conditioning smell test: growth far above 1 means elimination
    /// amplified entries and the factors deserve suspicion even when the
    /// backward error passes.
    pub pivot_growth: f64,
    /// Whether the backward error reached [`REFINE_BACKWARD_TOLERANCE`].
    /// `false` is the escalation signal of the retry ladder in
    /// `loopscope-spice`.
    pub converged: bool,
}

/// Reusable scratch for [`SparseLu::solve_refined_into`]: the solution
/// iterate, its rollback copy, the residual/correction vector and the
/// substitution work row. Create one next to the factorization (or use
/// [`RefineWorkspace::for_dim`] to pre-size) and pass it to every refined
/// solve; after the buffers reach matrix dimension no further heap
/// allocation happens.
#[derive(Debug, Clone)]
pub struct RefineWorkspace<T: Scalar> {
    x: Vec<T>,
    x_prev: Vec<T>,
    residual: Vec<T>,
    correction: Vec<T>,
    work: Vec<T>,
}

impl<T: Scalar> Default for RefineWorkspace<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Scalar> RefineWorkspace<T> {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self {
            x: Vec::new(),
            x_prev: Vec::new(),
            residual: Vec::new(),
            correction: Vec::new(),
            work: Vec::new(),
        }
    }

    /// Creates a workspace pre-sized for matrices of dimension `n`, so even
    /// the first refined solve over it performs no heap allocation.
    pub fn for_dim(n: usize) -> Self {
        Self {
            x: vec![T::ZERO; n],
            x_prev: vec![T::ZERO; n],
            residual: vec![T::ZERO; n],
            correction: vec![T::ZERO; n],
            work: vec![T::ZERO; n],
        }
    }

    /// Sizes every buffer to dimension `n` (no-op once they match).
    fn reset(&mut self, n: usize) {
        for buf in [
            &mut self.x,
            &mut self.x_prev,
            &mut self.residual,
            &mut self.correction,
            &mut self.work,
        ] {
            if buf.len() != n {
                buf.clear();
                buf.resize(n, T::ZERO);
            }
        }
    }
}

/// ∞-norm of a vector, taken as a scan: squared magnitudes with one square
/// root on the winner; exact fallback when squares degenerate, and +∞ as
/// soon as any component is non-finite (a poisoned norm must fail the
/// tolerance, not vanish from the comparison like NaN would). One pass can
/// run several scans; the largest square does not depend on the order of
/// the pushes.
#[derive(Clone, Copy)]
struct InfNormScan {
    max_sqr: f64,
    exact: bool,
}

impl InfNormScan {
    fn new() -> Self {
        Self {
            max_sqr: 0.0,
            exact: true,
        }
    }

    /// Takes `x` into the scan. The compare-and-branch (rarely taken once
    /// the maximum settles) keeps the running maximum off a data-dependent
    /// chain, which `f64::max` would put on every push.
    #[inline]
    fn push<T: Scalar>(&mut self, x: T) {
        let m2 = x.modulus_sqr();
        if !(m2.is_normal() || x.is_zero()) {
            self.exact = false;
        }
        if m2 > self.max_sqr {
            self.max_sqr = m2;
        }
    }

    /// The norm of `v`, every entry of which was pushed.
    fn finish<T: Scalar>(self, v: &[T]) -> f64 {
        if self.exact {
            self.max_sqr.sqrt()
        } else {
            exact_inf_norm(v)
        }
    }
}

/// The exact fallback of [`InfNormScan`]: the largest modulus, or +∞ as
/// soon as any component is non-finite.
fn exact_inf_norm<T: Scalar>(v: &[T]) -> f64 {
    let mut max = 0.0f64;
    for &x in v {
        if !x.is_finite() {
            return f64::INFINITY;
        }
        let m = x.modulus();
        if m > max {
            max = m;
        }
    }
    max
}

/// 1-norm of a vector (sum of exact moduli) — condition-estimator path.
fn one_norm<T: Scalar>(v: &[T]) -> f64 {
    v.iter().map(|x| x.modulus()).sum()
}

/// The ∞-norms of one residual pass: `‖b − A·x‖`, `‖x‖` and `‖b‖`.
struct ResidualNorms {
    r: f64,
    x: f64,
    b: f64,
}

/// `r = b − A·x` with its ∞-norm, and the ∞-norms of `x` and `b`, in one
/// pass over the CSR rows: each row's residual is accumulated as a
/// separate mat-vec would, and each norm scans its whole slice, so the
/// values are bitwise those of a residual pass followed by three norm
/// passes.
fn residual_norms<T: Scalar>(
    matrix: &CsrMatrix<T>,
    x: &[T],
    b: &[T],
    r: &mut [T],
) -> ResidualNorms {
    let rows = matrix.rows();
    let (mut norm_r, mut norm_x, mut norm_b) =
        (InfNormScan::new(), InfNormScan::new(), InfNormScan::new());
    for row in 0..rows {
        let acc =
            loops::fold_sub_indexed(b[row], matrix.row_values(row), matrix.row_pattern(row), x);
        r[row] = acc;
        norm_r.push(acc);
        norm_x.push(x[row]);
        norm_b.push(b[row]);
    }
    // Scratch and vectors longer than the matrix count in full.
    for (scan, v) in [(&mut norm_r, &*r), (&mut norm_x, x), (&mut norm_b, b)] {
        for &e in &v[rows.min(v.len())..] {
            scan.push(e);
        }
    }
    ResidualNorms {
        r: norm_r.finish(r),
        x: norm_x.finish(x),
        b: norm_b.finish(b),
    }
}

/// `‖A‖∞`: the largest row sum of [`Scalar::modulus_l1`] entry magnitudes,
/// summed in storage order — the backward-error scale, recorded with the
/// factors (the compiled refactorization accumulates the same sums in the
/// same order during its column scan).
fn norm_inf<T: Scalar>(matrix: &CsrMatrix<T>) -> f64 {
    let mut norm = 0.0f64;
    for row in 0..matrix.rows() {
        let mut row_sum = 0.0f64;
        for (_, v) in matrix.row_entries(row) {
            row_sum += v.modulus_l1();
        }
        if row_sum > norm {
            norm = row_sum;
        }
    }
    norm
}

/// Normwise backward error `‖r‖ / (‖A‖·‖x‖ + ‖b‖)`, defined as `0` for an
/// exactly zero residual and `+∞` whenever any ingredient is non-finite —
/// a huge-but-finite `x` must not drive the quotient to a spurious pass.
fn backward_error(norm_r: f64, norm_a: f64, norm_x: f64, norm_b: f64) -> f64 {
    if norm_r == 0.0 {
        return 0.0;
    }
    let denom = norm_a * norm_x + norm_b;
    if !norm_r.is_finite() || !denom.is_finite() || denom == 0.0 {
        return f64::INFINITY;
    }
    norm_r / denom
}

/// Normwise backward error `‖b − A·x‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)` of a candidate
/// solution `x` — **the exact residual test** [`SparseLu::solve_refined_into`]
/// runs before its first refinement step (same norms, same non-finite
/// handling: `0` for an exactly zero residual, `+∞` whenever any ingredient
/// is non-finite). Exposed so batched drivers can apply the identical
/// accept/escalate rule to solutions produced outside the refined path: a
/// value `≤` [`REFINE_BACKWARD_TOLERANCE`] is precisely the condition under
/// which a refined solve would have returned the candidate unchanged.
///
/// `residual` is caller-held scratch of the matrix dimension; on return it
/// holds `b − A·x`. Performs no heap allocation.
///
/// # Panics
///
/// Panics when `x`, `b` or `residual` are shorter than the matrix row count.
pub fn normwise_backward_error<T: Scalar>(
    matrix: &CsrMatrix<T>,
    x: &[T],
    b: &[T],
    residual: &mut [T],
) -> f64 {
    scaled_backward_error(matrix, norm_inf(matrix), x, b, residual)
}

/// [`normwise_backward_error`] with `‖A‖∞` supplied by the caller.
fn scaled_backward_error<T: Scalar>(
    matrix: &CsrMatrix<T>,
    norm_a: f64,
    x: &[T],
    b: &[T],
    residual: &mut [T],
) -> f64 {
    let norms = residual_norms(matrix, x, b, residual);
    backward_error(norms.r, norm_a, norms.x, norms.b)
}

/// Per-lane outcome of a [`BatchedLu::refactor`] call.
///
/// Lanes fail **independently**: a degraded pivot or stale pattern in one
/// variant never aborts the batch, it only marks that lane so the driver can
/// re-pivot the variant out of band with a fresh [`SparseLu::factor`] — the
/// same contract as the soft outcome of [`SparseLu::refactor_into`], which
/// never re-pivots either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchLaneStatus {
    /// The lane refactored cleanly; its solution lanes are valid.
    Factored,
    /// A pivot fell below the numeric quality threshold for this lane's
    /// values (the batched analogue of the soft outcome of
    /// [`SparseLu::refactor_into`]).
    Degraded,
    /// This lane's matrix has an entry outside the shared fill pattern; the
    /// symbolic analysis is stale for it.
    PatternMismatch,
    /// A hard per-lane error (dimension mismatch or non-finite stamp).
    Failed(SolveError),
}

impl BatchLaneStatus {
    /// `true` for [`BatchLaneStatus::Factored`].
    pub fn is_factored(self) -> bool {
        matches!(self, BatchLaneStatus::Factored)
    }
}

/// A batched numeric LU over `width` **independent matrices sharing one
/// symbolic analysis** — the variant axis of Monte Carlo / corner sweeps.
///
/// All `width` factorizations are stored structure-of-arrays: the values of
/// pattern slot `s` for every lane sit contiguously at `s·width..(s+1)·width`.
/// Because every lane shares the fill pattern, one index stream drives
/// `width` lanes of arithmetic through the lane update and divide loops —
/// and because those loops perform per-lane exactly the scalar operations in
/// the scalar order (no FMA, no reassociation, no cross-lane math), **each
/// lane's factors and solutions are bitwise identical to a scalar
/// [`SparseLu::refactor_into`] / [`SparseLu::solve_into`] run on that lane's
/// matrix alone**, at any batch width. `width == 1` is therefore not a special
/// case but the serial reference the determinism suite compares against.
///
/// The refactorization mirrors the scalar pass lane-by-lane, including the
/// pivot-quality rule: a lane whose pivot degrades (or whose matrix has
/// drifted off the pattern) is marked in [`statuses`](BatchedLu::statuses)
/// and its remaining values are unspecified, while the other lanes complete
/// normally. After construction (and the first refactorization over a
/// pattern, which compiles its op lists) no method performs heap
/// allocation.
#[derive(Debug, Clone)]
pub struct BatchedLu<T: Scalar> {
    pattern: Arc<LuPattern>,
    width: usize,
    /// Lane-interleaved factor values in the [`SparseLu`] slot order (`L`,
    /// then `U`, then `F`): slot `s`, lane `w` at `s·width + w`.
    vals: Vec<T>,
    /// The lane multipliers of the elimination op in flight (`width`).
    mult: Vec<T>,
    /// Per-lane column scans of the most recent refactorization.
    scans: Vec<LaneScan<T>>,
    /// Per-lane first elimination step whose input row leaves the pattern.
    mismatch: Vec<Option<usize>>,
    /// Per-lane outcome of the most recent [`refactor`](BatchedLu::refactor).
    statuses: Vec<BatchLaneStatus>,
    /// Per-lane liveness during a refactor pass (scratch).
    live: Vec<bool>,
    /// `true` once a refactor call has completed with ≥ 1 factored lane.
    factored: bool,
}

impl<T: Scalar> BatchedLu<T> {
    /// Creates a batched factorization shell over `symbolic` with `width`
    /// variant lanes. All buffers are allocated here;
    /// [`refactor`](BatchedLu::refactor) and
    /// [`solve_into`](BatchedLu::solve_into) are allocation-free.
    ///
    /// # Panics
    ///
    /// Panics when `width` is zero.
    pub fn new(symbolic: &SymbolicLu, width: usize) -> Self {
        assert!(width > 0, "batch width must be at least 1");
        let p = Arc::clone(&symbolic.pattern);
        let n = p.n;
        p.program();
        Self {
            vals: vec![T::ZERO; p.factor_len() * width],
            mult: vec![T::ZERO; width],
            scans: vec![LaneScan::for_dim(n); width],
            mismatch: vec![None; width],
            statuses: Vec::with_capacity(width),
            live: vec![false; width],
            factored: false,
            pattern: p,
            width,
        }
    }

    /// Number of variant lanes.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.pattern.n
    }

    /// Per-lane outcome of the most recent [`refactor`](BatchedLu::refactor)
    /// call (empty before the first call). One entry per supplied matrix.
    pub fn statuses(&self) -> &[BatchLaneStatus] {
        &self.statuses
    }

    /// Refactors up to `width` matrices over the shared pattern in one
    /// batched pass, returning the per-lane outcomes. `matrices` may be
    /// shorter than the width (a ragged final group): the surplus lanes
    /// simply carry unspecified values.
    ///
    /// Per lane, every arithmetic operation — scatter, elimination update,
    /// pivot test — is performed in exactly the order of a scalar
    /// [`SparseLu::refactor_into`] on that matrix alone (both run the
    /// pattern's compiled op lists), so a
    /// [`BatchLaneStatus::Factored`] lane holds bitwise-identical factor
    /// values. Failed lanes (degraded pivot, pattern drift, non-finite
    /// stamp, dimension mismatch) are reported in their status and never
    /// disturb the other lanes.
    ///
    /// # Panics
    ///
    /// Panics when `matrices` is empty or longer than the width.
    pub fn refactor(&mut self, matrices: &[CsrMatrix<T>]) -> &[BatchLaneStatus] {
        let (m, wdt) = (matrices.len(), self.width);
        assert!(
            m >= 1 && m <= wdt,
            "batch of {m} matrices does not fit width {wdt}"
        );
        self.refactor_compiled(matrices);
        &self.statuses
    }

    /// Normwise backward error `‖b − A·x‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)` of a
    /// candidate solution `x` of lane `lane` — [`normwise_backward_error`]
    /// with `‖A‖∞` read from the lane's most recent refactorization instead
    /// of recomputed. `matrix` must be the matrix that refactorization
    /// factored; the value is then bitwise [`normwise_backward_error`]'s.
    /// `residual` is caller-held scratch of the matrix dimension; on return
    /// it holds `b − A·x`. Performs no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is not below the width, or when `x`, `b` or
    /// `residual` are shorter than the matrix row count.
    pub fn lane_backward_error(
        &self,
        lane: usize,
        matrix: &CsrMatrix<T>,
        x: &[T],
        b: &[T],
        residual: &mut [T],
    ) -> f64 {
        scaled_backward_error(matrix, self.scans[lane].norm_inf, x, b, residual)
    }

    /// Solves all lanes **in place** over lane-interleaved right-hand sides:
    /// `rhs[r·width + w]` is component `r` of lane `w`'s system on entry and
    /// of its solution on return; `work` is caller-held scratch of the same
    /// `n·width` length.
    ///
    /// One traversal of the shared L/U index structure drives every lane:
    /// each factor slot loaded once streams over `width` contiguous lanes
    /// via the lane loops. Per lane the operation sequence — every
    /// product, subtraction and division, in order — is identical to a
    /// scalar [`SparseLu::solve_into`] with that lane's factors, so factored
    /// lanes produce bitwise-identical solutions at any width. Lanes that
    /// did not factor yield unspecified values (check
    /// [`statuses`](BatchedLu::statuses)).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::RhsLength`] when `rhs.len()` or `work.len()`
    /// differs from `width` times the matrix dimension.
    ///
    /// # Panics
    ///
    /// Panics when no [`refactor`](BatchedLu::refactor) call has produced a
    /// factored lane yet.
    pub fn solve_into(&self, rhs: &mut [T], work: &mut [T]) -> Result<(), SolveError> {
        let p = &*self.pattern;
        assert!(
            self.factored,
            "solve on an unfactored BatchedLu: refactor must produce a factored lane first"
        );
        let wdt = self.width;
        let expected = p.n * wdt;
        if rhs.len() != expected {
            return Err(SolveError::RhsLength {
                expected,
                got: rhs.len(),
            });
        }
        if work.len() != expected {
            return Err(SolveError::RhsLength {
                expected,
                got: work.len(),
            });
        }
        // The traversal of the scalar `solve_into`, one slot streaming over
        // every lane: F and U sources live in later elimination rows than
        // the destination, L sources in earlier ones, so the borrow splits
        // are valid, and every lane multiplies its *own* factor value
        // (lane_mul_sub).
        let (l_vals, rest) = self.vals.split_at(p.l_cols.len() * wdt);
        let (u_vals, f_vals) = rest.split_at(p.u_cols.len() * wdt);
        for b in (0..p.block_ptr.len() - 1).rev() {
            let (bs, be) = (p.block_ptr[b], p.block_ptr[b + 1]);
            for i in bs..be {
                let pr = p.perm[i] * wdt;
                let row = i * wdt;
                work[row..row + wdt].copy_from_slice(&rhs[pr..pr + wdt]);
                {
                    let (head, tail) = work.split_at_mut(row + wdt);
                    let dst = &mut head[row..];
                    for t in p.f_ptr[i]..p.f_ptr[i + 1] {
                        let src = p.f_cols[t] * wdt - (row + wdt);
                        loops::lane_mul_sub(
                            &f_vals[t * wdt..(t + 1) * wdt],
                            &tail[src..src + wdt],
                            dst,
                        );
                    }
                }
                {
                    let (head, tail) = work.split_at_mut(row);
                    let dst = &mut tail[..wdt];
                    for t in p.l_ptr[i]..p.l_ptr[i + 1] {
                        let src = p.l_cols[t] * wdt;
                        loops::lane_mul_sub(
                            &l_vals[t * wdt..(t + 1) * wdt],
                            &head[src..src + wdt],
                            dst,
                        );
                    }
                }
            }
            for i in (bs..be).rev() {
                let start = p.u_ptr[i];
                let row = i * wdt;
                let (head, tail) = work.split_at_mut(row + wdt);
                let dst = &mut head[row..];
                for t in (start + 1)..p.u_ptr[i + 1] {
                    let src = p.u_cols[t] * wdt - (row + wdt);
                    loops::lane_mul_sub(
                        &u_vals[t * wdt..(t + 1) * wdt],
                        &tail[src..src + wdt],
                        dst,
                    );
                }
                loops::lane_div(&u_vals[start * wdt..(start + 1) * wdt], dst);
            }
        }
        for i in 0..p.n {
            let c = p.cperm[i] * wdt;
            rhs[c..c + wdt].copy_from_slice(&work[i * wdt..(i + 1) * wdt]);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::min_degree_order;
    use crate::TripletMatrix;
    use loopscope_math::Complex64;

    /// One-shot fresh factorization and solve.
    fn factor_solve<T: Scalar>(a: &CsrMatrix<T>, b: &[T]) -> Result<Vec<T>, SolveError> {
        SparseLu::factor(a)?.solve(b)
    }

    /// A fresh factorization together with its captured symbolic analysis.
    fn factor_symbolic<T: Scalar>(a: &CsrMatrix<T>) -> (SparseLu<T>, SymbolicLu) {
        let lu = SparseLu::factor(a).unwrap();
        let symbolic = lu.extract_symbolic();
        (lu, symbolic)
    }

    fn csr_from_dense(d: &[&[f64]]) -> CsrMatrix<f64> {
        let rows = d.len();
        let cols = d[0].len();
        let mut t = TripletMatrix::new(rows, cols);
        for (i, row) in d.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    t.push(i, j, v);
                }
            }
        }
        t.to_csr()
    }

    #[test]
    fn solves_small_dense_system() {
        let a = csr_from_dense(&[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 4.0]]);
        let x_true = vec![1.0, -2.0, 3.0];
        let b = a.mul_vec(&x_true);
        let x = factor_solve(&a, &b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn handles_zero_diagonal_via_pivoting() {
        // Typical MNA pattern: a voltage-source branch row with zero diagonal.
        let a = csr_from_dense(&[&[0.0, 1.0], &[1.0, 1e-3]]);
        let x = factor_solve(&a, &[5.0, 2.0]).unwrap();
        // x[1] = 5 (from row 0), x[0] = 2 − 1e-3·5.
        assert!((x[1] - 5.0).abs() < 1e-12);
        assert!((x[0] - (2.0 - 5e-3)).abs() < 1e-12);
    }

    #[test]
    fn detects_singular_matrix() {
        let a = csr_from_dense(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(SparseLu::factor(&a), Err(SolveError::Singular(_))));
    }

    #[test]
    fn detects_structurally_empty_column() {
        let a = csr_from_dense(&[&[1.0, 0.0], &[3.0, 0.0]]);
        assert!(matches!(SparseLu::factor(&a), Err(SolveError::Singular(1))));
    }

    #[test]
    fn badly_scaled_but_well_conditioned_factors() {
        // Everything around 1e-200: far below the old absolute threshold but
        // perfectly conditioned — the relative test must accept it.
        let a = csr_from_dense(&[&[2.0e-200, 1.0e-200], &[1.0e-200, 3.0e-200]]);
        let lu = SparseLu::factor(&a).unwrap();
        let x = lu.solve(&[3.0e-200, 4.0e-200]).unwrap();
        // Exact solution of [[2,1],[1,3]]·x = [3,4] is [1, 1].
        assert!((x[0] - 1.0).abs() < 1e-10, "x0 = {}", x[0]);
        assert!((x[1] - 1.0).abs() < 1e-10, "x1 = {}", x[1]);
    }

    #[test]
    fn relatively_tiny_pivot_is_singular() {
        // A genuinely deficient column hidden behind mixed scales.
        let b = csr_from_dense(&[&[1.0e20, 1.0e4], &[1.0, 1.0e-16]]);
        // Elimination: row1 − 1e-20·row0 leaves ~1e-16 − 1e-16 at (1,1); the
        // exact value cancels to 0 and anything left is noise far below the
        // column scale (col_max = 1e4) times the relative threshold.
        assert!(matches!(SparseLu::factor(&b), Err(SolveError::Singular(1))));
    }

    #[test]
    fn rejects_non_square() {
        let mut t = TripletMatrix::<f64>::new(2, 3);
        t.push(0, 0, 1.0);
        assert!(matches!(
            SparseLu::factor(&t.to_csr()),
            Err(SolveError::NotSquare { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn rejects_bad_rhs_length() {
        let a = csr_from_dense(&[&[1.0]]);
        let lu = SparseLu::factor(&a).unwrap();
        assert!(matches!(
            lu.solve(&[1.0, 2.0]),
            Err(SolveError::RhsLength {
                expected: 1,
                got: 2
            })
        ));
        let mut rhs = [1.0];
        let mut short_work = [];
        assert!(matches!(
            lu.solve_into(&mut rhs, &mut short_work),
            Err(SolveError::RhsLength {
                expected: 1,
                got: 0
            })
        ));
    }

    #[test]
    fn repeated_solves_reuse_factorization() {
        let a = csr_from_dense(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let lu = SparseLu::factor(&a).unwrap();
        for k in 1..5 {
            let x_true = vec![k as f64, -(k as f64)];
            let b = a.mul_vec(&x_true);
            let x = lu.solve(&b).unwrap();
            assert!((x[0] - x_true[0]).abs() < 1e-12);
            assert!((x[1] - x_true[1]).abs() < 1e-12);
        }
    }

    #[test]
    fn solve_into_matches_solve() {
        let a = csr_from_dense(&[&[4.0, 1.0, 0.0], &[1.0, 5.0, 2.0], &[0.0, 2.0, 6.0]]);
        let lu = SparseLu::factor(&a).unwrap();
        let b = vec![1.0, -2.0, 3.0];
        let alloc = lu.solve(&b).unwrap();
        let mut rhs = b.clone();
        let mut work = vec![0.0; 3];
        lu.solve_into(&mut rhs, &mut work).unwrap();
        for (a, b) in alloc.iter().zip(&rhs) {
            assert!((a - b).abs() < 1e-15);
        }
    }

    #[test]
    fn larger_banded_system() {
        // Tridiagonal resistive-ladder-like matrix.
        let n = 50;
        let mut t = TripletMatrix::<f64>::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0);
            if i > 0 {
                t.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
            }
        }
        let a = t.to_csr();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = a.mul_vec(&x_true);
        let x = factor_solve(&a, &b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9);
        }
    }

    #[test]
    fn complex_system_roundtrip() {
        let n = 12;
        let mut t = TripletMatrix::<Complex64>::new(n, n);
        for i in 0..n {
            t.push(i, i, Complex64::new(3.0, 1.0 + i as f64 * 0.1));
            if i + 1 < n {
                t.push(i, i + 1, Complex64::new(-1.0, 0.3));
                t.push(i + 1, i, Complex64::new(0.2, -0.8));
            }
        }
        let a = t.to_csr();
        let x_true: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64).cos(), (i as f64 * 0.5).sin()))
            .collect();
        let b = a.mul_vec(&x_true);
        let x = factor_solve(&a, &b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((*xi - *ti).abs() < 1e-10);
        }
    }

    #[test]
    fn fill_in_is_tracked() {
        // Arrow matrix: dense last row/column creates fill-in.
        let n = 10;
        let mut t = TripletMatrix::<f64>::new(n, n);
        for i in 0..n {
            t.push(i, i, 4.0);
            if i + 1 < n {
                t.push(i, n - 1, 1.0);
                t.push(n - 1, i, 1.0);
            }
        }
        let a = t.to_csr();
        let lu = SparseLu::factor(&a).unwrap();
        assert!(lu.factor_nnz() >= a.nnz());
        let b = vec![1.0; n];
        let x = lu.solve(&b).unwrap();
        let r = a.mul_vec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn refactor_matches_fresh_factorization() {
        // Same pattern, different values: refactor must reproduce the fresh
        // solution without falling back.
        let a = csr_from_dense(&[&[4.0, 1.0, 0.0], &[1.0, 5.0, 2.0], &[0.0, 2.0, 6.0]]);
        let (mut lu, symbolic) = factor_symbolic(&a);
        let b_mat = csr_from_dense(&[&[7.0, 2.0, 0.0], &[2.0, 9.0, 1.0], &[0.0, 1.0, 8.0]]);
        let rhs = b_mat.mul_vec(&[1.0, -2.0, 0.5]);
        let fresh = factor_solve(&b_mat, &rhs).unwrap();
        let reused = lu
            .refactor_into(&symbolic, &b_mat, &mut LuWorkspace::new())
            .unwrap();
        assert!(reused && lu.refactored(), "pattern reuse must succeed here");
        let re = lu.solve(&rhs).unwrap();
        for (f, r) in fresh.iter().zip(&re) {
            assert!((f - r).abs() < 1e-12);
        }
    }

    #[test]
    fn refactor_into_reuses_buffers() {
        let build = |scale: f64| {
            csr_from_dense(&[
                &[4.0 * scale, 1.0, 0.0],
                &[1.0, 5.0 * scale, 2.0],
                &[0.0, 2.0, 6.0 * scale],
            ])
        };
        let (mut lu, symbolic) = factor_symbolic(&build(1.0));
        let mut ws = LuWorkspace::new();
        for k in 2..6 {
            let m = build(k as f64);
            assert!(lu.refactor_into(&symbolic, &m, &mut ws).unwrap());
            assert!(lu.refactored());
            let x_true = vec![1.0, -1.0, 0.5];
            let mut rhs = m.mul_vec(&x_true);
            let mut work = vec![0.0; 3];
            lu.solve_into(&mut rhs, &mut work).unwrap();
            for (xi, ti) in rhs.iter().zip(&x_true) {
                assert!((xi - ti).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn refactor_into_falls_back_and_recovers() {
        let a = csr_from_dense(&[&[1.0, 1.0e-3], &[1.0e-3, 1.0]]);
        let (mut lu, symbolic) = factor_symbolic(&a);
        let mut ws = LuWorkspace::new();
        // Degraded pivot: the in-place call reports the soft outcome and
        // leaves no usable factors behind.
        let b = csr_from_dense(&[&[1.0e-12, 1.0], &[1.0, 1.0e-12]]);
        assert_eq!(lu.refactor_into(&symbolic, &b, &mut ws), Ok(false));
        assert!(!lu.refactored());
        assert_eq!(lu.factor_nnz(), 0, "soft outcome must drop the factors");
        // The caller re-pivots with a fresh factorization...
        let mut lu = SparseLu::factor(&b).unwrap();
        let x = lu.solve(&[1.0, 2.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9 && (x[1] - 1.0).abs() < 1e-9);
        // ...whose own pattern keeps working for further refactors.
        let symbolic2 = lu.extract_symbolic();
        assert_eq!(lu.refactor_into(&symbolic2, &b, &mut ws), Ok(true));
        // And the stale shell recovers as soon as healthy values return.
        let mut shell = SparseLu::from_symbolic(&symbolic);
        assert_eq!(shell.refactor_into(&symbolic, &b, &mut ws), Ok(false));
        assert_eq!(shell.refactor_into(&symbolic, &a, &mut ws), Ok(true));
        assert!(shell.refactored());
    }

    #[test]
    #[should_panic(expected = "unfactored SparseLu shell")]
    fn solving_after_a_soft_refactor_outcome_panics() {
        let a = csr_from_dense(&[&[1.0, 1.0e-3], &[1.0e-3, 1.0]]);
        let (mut lu, symbolic) = factor_symbolic(&a);
        let b = csr_from_dense(&[&[1.0e-12, 1.0], &[1.0, 1.0e-12]]);
        assert_eq!(
            lu.refactor_into(&symbolic, &b, &mut LuWorkspace::new()),
            Ok(false)
        );
        let _ = lu.solve(&[1.0, 2.0]);
    }

    #[test]
    fn refactor_handles_fill_in_pattern() {
        // Arrow matrix with fill-in: the reused pattern must include fill.
        let n = 8;
        let build = |scale: f64| {
            let mut t = TripletMatrix::<f64>::new(n, n);
            for i in 0..n {
                t.push(i, i, 4.0 * scale + i as f64);
                if i + 1 < n {
                    t.push(i, n - 1, 1.0 * scale);
                    t.push(n - 1, i, 1.5 / scale);
                }
            }
            t.to_csr()
        };
        let (mut lu, symbolic) = factor_symbolic(&build(1.0));
        let m2 = build(1.7);
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 - 0.3 * i as f64).collect();
        let rhs = m2.mul_vec(&x_true);
        assert!(lu
            .refactor_into(&symbolic, &m2, &mut LuWorkspace::new())
            .unwrap());
        let x = lu.solve(&rhs).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9);
        }
    }

    #[test]
    fn refactor_falls_back_on_degraded_pivot() {
        // First matrix is diagonally dominant; the second flips the weight so
        // the recorded pivot order becomes terrible and the row-relative
        // pivot check must report the soft outcome instead of factoring.
        let a = csr_from_dense(&[&[1.0, 1.0e-3], &[1.0e-3, 1.0]]);
        let (_, symbolic) = factor_symbolic(&a);
        let b = csr_from_dense(&[&[1.0e-12, 1.0], &[1.0, 1.0e-12]]);
        let mut shell = SparseLu::from_symbolic(&symbolic);
        let reused = shell.refactor_into(&symbolic, &b, &mut LuWorkspace::new());
        assert_eq!(reused, Ok(false), "degraded pivot must ask for a re-pivot");
        // The fresh factorization re-pivots: row 1 takes column 0.
        let lu = SparseLu::factor(&b).unwrap();
        assert!(!lu.refactored());
        assert_eq!(lu.extract_symbolic().pivot_order()[0], 1);
        let x = lu.solve(&[1.0, 2.0]).unwrap();
        // b is (to 1e-12) the exchange matrix: x ≈ [2, 1].
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn refactor_rejects_pattern_mismatch_gracefully() {
        let a = csr_from_dense(&[&[2.0, 0.0], &[0.0, 3.0]]);
        let (mut lu, symbolic) = factor_symbolic(&a);
        // A different pattern (off-diagonal entries) is the soft outcome,
        // not a corrupted factorization.
        let b = csr_from_dense(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let mut ws = LuWorkspace::new();
        assert_eq!(lu.refactor_into(&symbolic, &b, &mut ws), Ok(false));
        assert!(!lu.refactored());
        let lu = SparseLu::factor(&b).unwrap();
        let x = lu.solve(&[3.0, 4.0]).unwrap();
        let r = b.mul_vec(&x);
        assert!((r[0] - 3.0).abs() < 1e-12 && (r[1] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn refactor_dimension_mismatch_is_hard_error() {
        let a = csr_from_dense(&[&[1.0]]);
        let b = csr_from_dense(&[&[1.0, 0.0], &[0.0, 1.0]]);
        // A hard error, not the soft outcome — and the receiver stays
        // usable.
        let (mut lu1, sym1) = factor_symbolic(&a);
        let mut ws = LuWorkspace::new();
        assert!(matches!(
            lu1.refactor_into(&sym1, &b, &mut ws),
            Err(SolveError::NotSquare { .. })
        ));
        let x = lu1.solve(&[2.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-15);
    }

    #[test]
    fn from_symbolic_shell_refactors_like_a_fresh_refactor() {
        let build = |scale: f64| {
            csr_from_dense(&[
                &[4.0 * scale, 1.0, 0.0],
                &[1.0, 5.0 * scale, 2.0],
                &[0.0, 2.0, 6.0 * scale],
            ])
        };
        let (mut reference, symbolic) = factor_symbolic(&build(1.0));
        // The shell never saw the factorization that produced the symbolic
        // analysis — only its pattern.
        let mut shell = SparseLu::from_symbolic(&symbolic);
        assert!(!shell.refactored());
        assert_eq!(shell.dim(), 3);
        let mut ws = LuWorkspace::for_dim(3);
        for k in 2..5 {
            let m = build(k as f64);
            assert!(shell.refactor_into(&symbolic, &m, &mut ws).unwrap());
            assert!(shell.refactored());
            assert!(reference.refactor_into(&symbolic, &m, &mut ws).unwrap());
            let b = m.mul_vec(&[1.0, -2.0, 0.5]);
            let xs = shell.solve(&b).unwrap();
            let xr = reference.solve(&b).unwrap();
            // Same pattern, same values, same op order: bitwise identical.
            for (a, b) in xs.iter().zip(&xr) {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    #[should_panic(expected = "unfactored SparseLu shell")]
    fn solving_an_unfilled_shell_panics() {
        let a = csr_from_dense(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let (_, symbolic) = factor_symbolic(&a);
        let shell = SparseLu::<f64>::from_symbolic(&symbolic);
        let _ = shell.solve(&[1.0, 2.0]);
    }

    #[test]
    fn symbolic_reports_pattern_size() {
        let a = csr_from_dense(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let (lu, symbolic) = factor_symbolic(&a);
        assert_eq!(symbolic.dim(), 2);
        assert_eq!(symbolic.fill_nnz(), lu.factor_nnz());
        assert_eq!(symbolic.pivot_order().len(), 2);
        // A full 2x2 pattern has no fill to avoid: min degree keeps the
        // natural column order.
        assert_eq!(symbolic.column_order(), &[0, 1]);
    }

    #[test]
    fn ordered_factor_solves_correctly() {
        // Arrow matrix where the hub is listed first: natural order fills in
        // completely, min degree defers the hub to the end.
        let n = 9;
        let mut t = TripletMatrix::<f64>::new(n, n);
        for i in 0..n {
            t.push(i, i, 5.0 + i as f64);
            if i > 0 {
                t.push(0, i, 1.0);
                t.push(i, 0, 1.5);
            }
        }
        let a = t.to_csr();
        let (lu, symbolic) = factor_symbolic(&a);
        assert_eq!(symbolic.block_count(), 1);
        assert_eq!(symbolic.column_order(), &min_degree_order(&a)[..]);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let b = a.mul_vec(&x_true);
        let x = lu.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10, "{xi} vs {ti}");
        }
        // The fill advantage the ordering exists for: none at all.
        assert_eq!(symbolic.fill_nnz(), a.nnz());
    }

    #[test]
    fn ordered_refactor_roundtrip() {
        let n = 9;
        let build = |scale: f64| {
            let mut t = TripletMatrix::<f64>::new(n, n);
            for i in 0..n {
                t.push(i, i, (5.0 + i as f64) * scale);
                if i > 0 {
                    t.push(0, i, 1.0 * scale);
                    t.push(i, 0, 1.5);
                }
            }
            t.to_csr()
        };
        let (mut lu, symbolic) = factor_symbolic(&build(1.0));
        let mut ws = LuWorkspace::new();
        for k in 2..5 {
            let m = build(k as f64);
            let reused = lu.refactor_into(&symbolic, &m, &mut ws).unwrap();
            assert!(reused, "ordered pattern must be reusable");
            let x_true: Vec<f64> = (0..n).map(|i| 1.0 - 0.2 * i as f64).collect();
            let mut rhs = m.mul_vec(&x_true);
            let mut work = vec![0.0; n];
            lu.solve_into(&mut rhs, &mut work).unwrap();
            for (xi, ti) in rhs.iter().zip(&x_true) {
                assert!((xi - ti).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn degraded_fallback_keeps_fill_reducing_order() {
        // An arrow with the hub listed first: natural order fills in
        // completely, min degree defers the hub. When new values degrade
        // a recorded pivot (a vanishing leaf diagonal), refactor_into asks
        // for a re-pivot, and the fresh factorization re-pivots *within
        // the same fill-reducing column order* instead of regressing to
        // natural order for the rest of a sweep.
        let n = 9;
        let build = |leaf_diag: f64| {
            let mut t = TripletMatrix::<f64>::new(n, n);
            for i in 0..n {
                t.push(i, i, if i == 3 { leaf_diag } else { 5.0 + i as f64 });
                if i > 0 {
                    t.push(0, i, 1.0);
                    t.push(i, 0, 1.5);
                }
            }
            t.to_csr()
        };
        let (mut lu, symbolic) = factor_symbolic(&build(8.0));
        let b = build(1.0e-12);
        let mut ws = LuWorkspace::new();
        assert_eq!(lu.refactor_into(&symbolic, &b, &mut ws), Ok(false));
        let fresh = SparseLu::factor(&b).unwrap();
        assert_eq!(
            fresh.extract_symbolic().column_order(),
            symbolic.column_order(),
            "the re-pivot must retain the fill-reducing column order"
        );
        assert_ne!(
            fresh.extract_symbolic().pivot_order(),
            symbolic.pivot_order(),
            "the degraded leaf must force a row swap"
        );
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 - 0.1 * i as f64).collect();
        let x = fresh.solve(&b.mul_vec(&x_true)).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9, "{xi} vs {ti}");
        }
    }

    #[test]
    fn ordered_threshold_forces_row_swap_when_needed() {
        // The ordering prefers the diagonal, but the diagonal entry of the
        // first eliminated column is 1e6 times smaller than the off-diagonal
        // candidate: the threshold test must swap rows, not accept it.
        let a = csr_from_dense(&[&[1.0e-6, 1.0], &[1.0, 1.0]]);
        let lu = SparseLu::factor(&a).unwrap();
        assert_eq!(lu.extract_symbolic().column_order(), &[0, 1]);
        let x_true = vec![3.0, -2.0];
        let b = a.mul_vec(&x_true);
        let x = lu.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9, "{xi} vs {ti}");
        }
        // Row 1 must have been promoted to pivot for column 0.
        assert_eq!(lu.extract_symbolic().pivot_order()[0], 1);
    }

    #[test]
    fn ordered_factor_handles_zero_diagonal() {
        // MNA-style: voltage-source branch row with a structurally zero
        // diagonal. The ordering's preferred row is never a candidate, so
        // the threshold selection must fall through to an off-diagonal row.
        let a = csr_from_dense(&[&[0.0, 1.0], &[1.0, 1e-3]]);
        let lu = SparseLu::factor_block(&a, &[0, 1]).unwrap();
        let x = lu.solve(&[5.0, 2.0]).unwrap();
        assert!((x[1] - 5.0).abs() < 1e-12);
        assert!((x[0] - (2.0 - 5e-3)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn ordered_factor_rejects_non_permutation() {
        let a = csr_from_dense(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let _ = SparseLu::factor_block(&a, &[0, 0]);
    }

    #[test]
    fn singular_error_reports_original_column_not_elimination_step() {
        // Original column 0 is structurally empty. Whatever order the
        // columns are eliminated in, the error must name column 0 — the
        // index a caller can map back to a circuit unknown — not the
        // permuted elimination step at which the failure surfaced. The BTF
        // analysis of the public entry point catches it structurally.
        let a = csr_from_dense(&[&[0.0, 1.0], &[0.0, 2.0]]);
        assert!(matches!(SparseLu::factor(&a), Err(SolveError::Singular(0))));
        // Under the order [1, 0] the empty column is eliminated at STEP 1;
        // the un-mapped error would have been Singular(1).
        assert!(matches!(
            SparseLu::factor_block(&a, &[1, 0]),
            Err(SolveError::Singular(0))
        ));
    }

    #[test]
    fn factor_runs_the_fill_reducing_path() {
        // Arrow matrix with the hub first: eliminating in natural order
        // fills in completely, the min-degree order `factor` computes
        // defers the hub and eliminates the fill.
        let n = 10;
        let mut t = TripletMatrix::<f64>::new(n, n);
        for i in 0..n {
            t.push(i, i, 5.0 + i as f64);
            if i > 0 {
                t.push(0, i, 1.0);
                t.push(i, 0, 1.5);
            }
        }
        let a = t.to_csr();
        let ordered = SparseLu::factor(&a).unwrap();
        let natural: Vec<usize> = (0..n).collect();
        let natural = SparseLu::factor_block(&a, &natural).unwrap();
        assert!(
            ordered.factor_nnz() < natural.factor_nnz(),
            "factor ({} nnz) must carry less fill than natural-order \
             elimination ({} nnz)",
            ordered.factor_nnz(),
            natural.factor_nnz()
        );
        // No-fill optimum on the arrow pattern.
        assert_eq!(ordered.factor_nnz(), a.nnz());
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 - 0.1 * i as f64).collect();
        let x = ordered.solve(&a.mul_vec(&x_true)).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    /// A 3-block cascade: two strongly coupled pairs and a singleton, with
    /// one-way coupling (later rows read earlier columns), plus a value
    /// knob that keeps the pattern fixed.
    fn cascade(scale: f64) -> CsrMatrix<f64> {
        let mut t = TripletMatrix::<f64>::new(5, 5);
        for b in 0..2 {
            let s = 2 * b;
            t.push(s, s, 3.0 * scale + s as f64);
            t.push(s, s + 1, 1.0);
            t.push(s + 1, s, 1.0 * scale);
            t.push(s + 1, s + 1, 4.0);
            if s > 0 {
                t.push(s, s - 1, 0.5 * scale);
            }
        }
        t.push(4, 3, 0.25);
        t.push(4, 4, 2.0 * scale);
        t.to_csr()
    }

    #[test]
    fn btf_factor_splits_blocks_and_solves_correctly() {
        let a = cascade(1.0);
        let (lu, symbolic) = factor_symbolic(&a);
        assert_eq!(symbolic.block_count(), 3);
        assert_eq!(lu.block_count(), 3);
        assert_eq!(
            symbolic.block_boundaries().len(),
            symbolic.block_count() + 1
        );
        // Off-diagonal entries are stored raw, never eliminated: the total
        // pattern matches the input exactly (each 2x2 block is dense and
        // the cascade couplings produce no fill).
        assert_eq!(symbolic.fill_nnz(), a.nnz());
        let x_true = vec![1.0, -2.0, 0.5, 3.0, -1.5];
        let b = a.mul_vec(&x_true);
        let x = lu.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12, "{xi} vs {ti}");
        }
    }

    #[test]
    fn btf_single_block_degenerates_to_plain_ordered_factorization() {
        // Tridiagonal: irreducible, so BTF must produce the *identical*
        // factorization the plain min-degree ordered path produces.
        let n = 12;
        let mut t = TripletMatrix::<f64>::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.5);
            if i > 0 {
                t.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
            }
        }
        let a = t.to_csr();
        let (btf_lu, btf_sym) = factor_symbolic(&a);
        assert_eq!(btf_sym.block_count(), 1);
        let plain_lu = SparseLu::factor_block(&a, &min_degree_order(&a)).unwrap();
        let plain_sym = plain_lu.extract_symbolic();
        assert_eq!(btf_sym.pivot_order(), plain_sym.pivot_order());
        assert_eq!(btf_sym.column_order(), plain_sym.column_order());
        assert_eq!(btf_sym.fill_nnz(), plain_sym.fill_nnz());
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.4).sin()).collect();
        let xb = btf_lu.solve(&b).unwrap();
        let xp = plain_lu.solve(&b).unwrap();
        for (a, b) in xb.iter().zip(&xp) {
            assert_eq!(a, b, "degenerate BTF must be bitwise the ordered path");
        }
    }

    #[test]
    fn btf_refactor_into_reuses_the_block_pattern() {
        let (mut lu, symbolic) = factor_symbolic(&cascade(1.0));
        let mut ws = LuWorkspace::for_dim(5);
        for k in 2..6 {
            let m = cascade(k as f64);
            let reused = lu.refactor_into(&symbolic, &m, &mut ws).unwrap();
            assert!(reused, "block pattern must be reusable");
            assert_eq!(lu.block_count(), 3);
            let x_true = vec![0.5, 1.0, -1.0, 2.0, 0.25];
            let mut rhs = m.mul_vec(&x_true);
            let mut work = vec![0.0; 5];
            lu.solve_into(&mut rhs, &mut work).unwrap();
            for (xi, ti) in rhs.iter().zip(&x_true) {
                assert!((xi - ti).abs() < 1e-12, "{xi} vs {ti}");
            }
            // The refactorization must agree bitwise with a fresh BTF
            // factorization of the same values (same pattern, same ops).
            let fresh = SparseLu::factor(&m).unwrap();
            let b = m.mul_vec(&x_true);
            let xf = fresh.solve(&b).unwrap();
            let mut xr = b.clone();
            lu.solve_into(&mut xr, &mut work).unwrap();
            for (a, b) in xr.iter().zip(&xf) {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn btf_pattern_mismatch_falls_back() {
        let (mut lu, symbolic) = factor_symbolic(&cascade(1.0));
        // Feedback entry (0, 4) merges the blocks: off the recorded pattern.
        let mut t = TripletMatrix::<f64>::new(5, 5);
        for (r, c, v) in cascade(1.0).iter() {
            t.push(r, c, v);
        }
        t.push(0, 4, 0.5);
        let m = t.to_csr();
        let mut ws = LuWorkspace::new();
        let reused = lu.refactor_into(&symbolic, &m, &mut ws);
        assert_eq!(
            reused,
            Ok(false),
            "off-pattern entry must ask for a re-pivot"
        );
        assert!(!lu.refactored());
        // The feedback entry merges blocks 0..=2 into one: the fresh
        // factorization re-analyzes the structure.
        let lu = SparseLu::factor(&m).unwrap();
        assert!(lu.block_count() < symbolic.block_count());
        let x_true = vec![1.0, 1.0, 1.0, 1.0, 1.0];
        let b = m.mul_vec(&x_true);
        let x = lu.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn diag_inverse_matches_unit_solves_on_btf_and_single_block() {
        // A multi-block (BTF) and a single-block factorization: every
        // diagonal entry of the inverse agrees with the unit-vector solve.
        let cases: Vec<SparseLu<f64>> = vec![
            SparseLu::factor(&cascade(1.3)).unwrap(),
            SparseLu::factor(&csr_from_dense(&[
                &[4.0, 1.0, 0.0],
                &[1.0, 5.0, 2.0],
                &[0.0, 2.0, 6.0],
            ]))
            .unwrap(),
        ];
        for lu in &cases {
            let n = lu.dim();
            let mut diag = vec![0.0; n];
            let mut ws = InverseWorkspace::new();
            lu.diag_inverse_into(&mut diag, &mut ws).unwrap();
            for (v, &d) in diag.iter().enumerate() {
                let mut e = vec![0.0; n];
                e[v] = 1.0;
                let x = lu.solve(&e).unwrap();
                assert!(
                    (d - x[v]).abs() <= 1e-14 * x[v].abs().max(1.0),
                    "{v}: {d} vs {}",
                    x[v]
                );
            }
            assert!(matches!(
                lu.diag_inverse_into(&mut diag[1..], &mut ws),
                Err(SolveError::RhsLength { .. })
            ));
        }
    }

    #[test]
    fn solve_error_display() {
        assert_eq!(
            SolveError::Singular(2).to_string(),
            "matrix is singular in column 2"
        );
        assert_eq!(
            SolveError::NotSquare { rows: 2, cols: 3 }.to_string(),
            "matrix is not square (2x3)"
        );
        assert_eq!(
            SolveError::RhsLength {
                expected: 4,
                got: 2
            }
            .to_string(),
            "right-hand side has length 2, expected 4"
        );
        assert_eq!(
            SolveError::NonFinite { row: 1, col: 3 }.to_string(),
            "matrix has a non-finite entry at (1, 3)"
        );
    }

    #[test]
    fn non_finite_input_is_rejected_with_coordinates() {
        // NaN would slip through every magnitude comparison; the up-front
        // scan must catch it with the original coordinates of the first
        // offending entry in row-major order.
        let a = csr_from_dense(&[&[2.0, 1.0], &[1.0, 1.0]]);
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bad = a.clone();
            let slot = bad.find_slot(1, 0).unwrap();
            bad.values_mut()[slot] = poison;
            assert_eq!(
                SparseLu::factor(&bad).map(|_| ()),
                Err(SolveError::NonFinite { row: 1, col: 0 })
            );
        }
        // Same detection on the refactorization path — and as a hard error,
        // so the previous factorization must stay intact and solvable.
        let (mut lu, symbolic) = factor_symbolic(&a);
        let mut ws = LuWorkspace::new();
        let mut bad = a.clone();
        let slot = bad.find_slot(0, 1).unwrap();
        bad.values_mut()[slot] = f64::NAN;
        assert_eq!(
            lu.refactor_into(&symbolic, &bad, &mut ws),
            Err(SolveError::NonFinite { row: 0, col: 1 })
        );
        let x = lu.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] + 5.0).abs() < 1e-12 && (x[1] - 15.0).abs() < 1e-12);
    }

    #[test]
    fn factor_rejects_non_finite_off_diagonal_block_entries() {
        // [[2, x], [0, 3]] splits into two 1x1 blocks, and x is a raw
        // off-diagonal block entry that no block factorization scans.
        let build = |x: f64| {
            let mut t = TripletMatrix::<f64>::new(2, 2);
            t.push(0, 0, 2.0);
            t.push(0, 1, x);
            t.push(1, 1, 3.0);
            t.to_csr()
        };
        let (mut lu, symbolic) = factor_symbolic(&build(1.0));
        assert_eq!(symbolic.block_count(), 2);
        let mut ws = LuWorkspace::new();
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let bad = build(poison);
            let poisoned = Err(SolveError::NonFinite { row: 0, col: 1 });
            assert_eq!(SparseLu::factor(&bad).map(|_| ()), poisoned);
            assert_eq!(
                lu.refactor_into(&symbolic, &bad, &mut ws).map(|_| ()),
                poisoned
            );
        }
    }

    #[test]
    fn refined_solve_converges_with_zero_steps_on_healthy_systems() {
        let a = csr_from_dense(&[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 4.0]]);
        let x_true = vec![1.0, -2.0, 3.0];
        let b = a.mul_vec(&x_true);
        let lu = SparseLu::factor(&a).unwrap();
        let mut rhs = b.clone();
        let mut ws = RefineWorkspace::for_dim(3);
        let q = lu.solve_refined_into(&a, &mut rhs, &mut ws).unwrap();
        assert!(q.converged);
        assert_eq!(q.refinement_steps, 0);
        assert!(q.backward_error <= REFINE_BACKWARD_TOLERANCE);
        assert!(q.residual_norm.is_finite());
        assert!(q.pivot_growth > 0.0 && q.pivot_growth.is_finite());
        for (xi, ti) in rhs.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn refined_solve_repairs_a_degraded_factorization() {
        // Factor A, then ask the factorization to solve a *perturbed*
        // system through solve_refined_into: the direct solve is now only
        // approximate, and refinement must drive the residual down.
        let a = csr_from_dense(&[&[4.0, 1.0, 0.0], &[1.0, 5.0, 2.0], &[0.0, 2.0, 6.0]]);
        let mut a_pert = a.clone();
        for v in a_pert.values_mut() {
            *v *= 1.0 + 1.0e-4;
        }
        // Also skew one entry so the perturbation is not a pure scaling
        // (a scaling alone would leave the direction of x exact).
        let slot = a_pert.find_slot(1, 2).unwrap();
        a_pert.values_mut()[slot] *= 1.02;
        let lu = SparseLu::factor(&a).unwrap();
        let x_true = vec![0.5, -1.5, 2.5];
        let b = a_pert.mul_vec(&x_true);

        // Plain solve through the stale factors: measurable residual.
        let mut plain = b.clone();
        let mut work = vec![0.0; 3];
        lu.solve_into(&mut plain, &mut work).unwrap();
        let mut r_plain: Vec<f64> = vec![0.0; 3];
        for (row, ri) in r_plain.iter_mut().enumerate() {
            let mut acc = b[row];
            for (c, v) in a_pert.row_entries(row) {
                acc -= v * plain[c];
            }
            *ri = acc;
        }
        let plain_norm = r_plain.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        assert!(plain_norm > 1e-9, "plain residual {plain_norm} too small");

        // Refined solve against the true (perturbed) matrix: the residual
        // must come down by orders of magnitude and never exceed plain.
        let mut rhs = b.clone();
        let mut ws = RefineWorkspace::for_dim(3);
        let q = lu.solve_refined_into(&a_pert, &mut rhs, &mut ws).unwrap();
        assert!(q.refinement_steps >= 1, "refinement did not engage");
        assert!(q.converged, "backward error {}", q.backward_error);
        assert!(
            q.residual_norm <= plain_norm,
            "refined {} vs plain {plain_norm}",
            q.residual_norm
        );
        for (xi, ti) in rhs.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-8, "x = {xi}, expected {ti}");
        }
    }

    #[test]
    fn refined_solve_handles_complex_systems() {
        let mut t = TripletMatrix::<Complex64>::new(2, 2);
        t.push(0, 0, Complex64::new(2.0, 1.0));
        t.push(0, 1, Complex64::new(0.0, -1.0));
        t.push(1, 0, Complex64::new(1.0, 0.0));
        t.push(1, 1, Complex64::new(3.0, 2.0));
        let a = t.to_csr();
        let x_true = vec![Complex64::new(1.0, -1.0), Complex64::new(-2.0, 0.5)];
        let b = a.mul_vec(&x_true);
        let lu = SparseLu::factor(&a).unwrap();
        let mut rhs = b.clone();
        let mut ws = RefineWorkspace::for_dim(2);
        let q = lu.solve_refined_into(&a, &mut rhs, &mut ws).unwrap();
        assert!(q.converged);
        assert_eq!(q.refinement_steps, 0);
        for (xi, ti) in rhs.iter().zip(&x_true) {
            assert!((*xi - *ti).abs() < 1e-12);
        }
    }

    #[test]
    fn refined_solve_rejects_dimension_mismatches() {
        let a = csr_from_dense(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let lu = SparseLu::factor(&a).unwrap();
        let mut ws = RefineWorkspace::new();
        let wide = csr_from_dense(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]);
        assert!(matches!(
            lu.solve_refined_into(&wide, &mut [1.0, 2.0], &mut ws),
            Err(SolveError::NotSquare { rows: 3, cols: 3 })
        ));
        assert!(matches!(
            lu.solve_refined_into(&a, &mut [1.0], &mut ws),
            Err(SolveError::RhsLength {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn adjoint_solve_matches_conjugate_transpose() {
        // Verify Aᴴ·z = w through the BTF path (multiple blocks, F entries)
        // for a complex matrix — the hardest configuration the adjoint
        // sweeps must get right.
        let mut t = TripletMatrix::<Complex64>::new(5, 5);
        let entries = [
            (0, 0, 2.0, 0.5),
            (0, 1, 1.0, -0.25),
            (1, 0, 1.0, 0.0),
            (1, 1, 3.0, 1.0),
            (0, 3, 0.5, 0.75),
            (2, 2, 4.0, -1.0),
            (2, 4, 1.5, 0.0),
            (3, 3, 2.5, 0.5),
            (3, 4, 1.0, 1.0),
            (4, 4, 5.0, -0.5),
        ];
        for &(r, c, re, im) in &entries {
            t.push(r, c, Complex64::new(re, im));
        }
        let a = t.to_csr();
        let (lu, symbolic) = factor_symbolic(&a);
        assert!(symbolic.block_count() > 1, "test wants a real BTF split");
        let w: Vec<Complex64> = (0..5)
            .map(|i| Complex64::new(1.0 + i as f64, 0.5 - i as f64))
            .collect();
        let mut z = w.clone();
        let mut work = vec![Complex64::ZERO; 5];
        lu.solve_adjoint_into(&mut z, &mut work);
        // Check Σ_r conj(A[r][c])·z[r] = w[c] for every column c.
        let mut lhs = [Complex64::ZERO; 5];
        for (r, c, v) in a.iter() {
            lhs[c] += Scalar::conj(v) * z[r];
        }
        for (l, wi) in lhs.iter().zip(&w) {
            assert!(
                (*l - *wi).abs() < 1e-12,
                "adjoint mismatch: {l:?} vs {wi:?}"
            );
        }
    }

    #[test]
    fn condition_estimate_tracks_known_conditioning() {
        // Identity: κ = 1.
        let eye = csr_from_dense(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let lu = SparseLu::factor(&eye).unwrap();
        let k = lu.condition_estimate(&eye).unwrap();
        assert!((k - 1.0).abs() < 1e-12, "κ(I) = {k}");

        // Diagonal with spread 1e8: κ₁ = 1e8 exactly.
        let d = csr_from_dense(&[&[1.0, 0.0], &[0.0, 1.0e-8]]);
        let lu = SparseLu::factor(&d).unwrap();
        let k = lu.condition_estimate(&d).unwrap();
        assert!((k - 1.0e8).abs() / 1.0e8 < 1e-6, "κ(D) = {k}");

        // A well-conditioned dense-ish system stays small; estimate is a
        // lower bound so only sanity-check the range.
        let a = csr_from_dense(&[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 4.0]]);
        let lu = SparseLu::factor(&a).unwrap();
        let k = lu.condition_estimate(&a).unwrap();
        assert!((1.0..100.0).contains(&k), "κ(A) = {k}");

        // Near-singular: two almost linearly dependent rows must report a
        // large κ.
        let s = csr_from_dense(&[&[1.0, 1.0], &[1.0, 1.0 + 1.0e-10]]);
        let lu = SparseLu::factor(&s).unwrap();
        let k = lu.condition_estimate(&s).unwrap();
        assert!(k > 1.0e9, "κ(near-singular) = {k}");
    }

    #[test]
    fn condition_estimate_works_through_btf_blocks() {
        // cascade() builds a 3-block BTF system; the estimator must run
        // its adjoint solves correctly across the F coupling.
        let a = cascade(1.0);
        let (lu, symbolic) = factor_symbolic(&a);
        assert!(symbolic.block_count() > 1);
        let k = lu.condition_estimate(&a).unwrap();
        assert!(k.is_finite() && k >= 1.0, "κ(cascade) = {k}");
    }

    #[test]
    fn refined_solve_badly_scaled_system() {
        // The 1e-200 scale regime: squared magnitudes underflow to zero,
        // so this exercises every exact-modulus fallback path at once
        // (column scan, pivot checks, norms).
        let a = csr_from_dense(&[&[2.0e-200, 1.0e-200], &[1.0e-200, 3.0e-200]]);
        let lu = SparseLu::factor(&a).unwrap();
        let mut rhs = vec![3.0e-200, 4.0e-200];
        let mut ws = RefineWorkspace::for_dim(2);
        let q = lu.solve_refined_into(&a, &mut rhs, &mut ws).unwrap();
        assert!(q.converged, "backward error {}", q.backward_error);
        assert!((rhs[0] - 1.0).abs() < 1e-10 && (rhs[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn badly_scaled_refactor_reuses_the_pattern() {
        // Companion to badly_scaled_but_well_conditioned_factors for the
        // refactorization path: the squared-magnitude pivot checks must
        // fall back to exact moduli instead of declaring degradation.
        let build = |s: f64| csr_from_dense(&[&[2.0 * s, 1.0 * s], &[1.0 * s, 3.0 * s]]);
        let (mut lu, symbolic) = factor_symbolic(&build(1.0));
        let mut ws = LuWorkspace::new();
        lu.refactor_into(&symbolic, &build(1.0e-200), &mut ws)
            .unwrap();
        assert!(
            lu.refactored(),
            "well-conditioned tiny-scale refactor must not fall back"
        );
        let x = lu.solve(&[3.0e-200, 4.0e-200]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10 && (x[1] - 1.0).abs() < 1e-10);
    }

    /// Lane-interleaves per-variant vectors into the SoA layout
    /// [`BatchedLu::solve_into`] consumes.
    fn interleave<T: Scalar>(lanes: &[Vec<T>], width: usize) -> Vec<T> {
        let n = lanes[0].len();
        let mut out = vec![T::ZERO; n * width];
        for (w, lane) in lanes.iter().enumerate() {
            for (r, &v) in lane.iter().enumerate() {
                out[r * width + w] = v;
            }
        }
        out
    }

    #[test]
    fn batched_refactor_and_solve_bitwise_match_scalar_btf() {
        // Three value variants over the 3-block cascade pattern: every
        // factor value and every solution component of every lane must be
        // bit-identical to a scalar refactor_into + solve_into on that
        // variant alone (F entries included — the batch crosses BTF blocks).
        let scales = [1.0, 1.7, 0.4];
        let (_, symbolic) = factor_symbolic(&cascade(scales[0]));
        let matrices: Vec<CsrMatrix<f64>> = scales.iter().map(|&s| cascade(s)).collect();
        let rhs_of = |s: f64| vec![3.0 * s, -1.0, 0.5 * s, 2.0, 1.0 + s];

        let mut batched = BatchedLu::new(&symbolic, scales.len());
        assert_eq!(batched.width(), 3);
        assert_eq!(batched.dim(), 5);
        let statuses = batched.refactor(&matrices).to_vec();
        assert!(statuses.iter().all(|s| s.is_factored()), "{statuses:?}");
        let lanes: Vec<Vec<f64>> = scales.iter().map(|&s| rhs_of(s)).collect();
        let mut soa = interleave(&lanes, scales.len());
        let mut soa_work = vec![0.0; soa.len()];
        batched.solve_into(&mut soa, &mut soa_work).unwrap();

        let mut ws = LuWorkspace::new();
        for (w, (matrix, &s)) in matrices.iter().zip(&scales).enumerate() {
            let mut lu = SparseLu::from_symbolic(&symbolic);
            lu.refactor_into(&symbolic, matrix, &mut ws).unwrap();
            assert!(lu.refactored());
            let mut x = rhs_of(s);
            let mut work = vec![0.0; x.len()];
            lu.solve_into(&mut x, &mut work).unwrap();
            for (r, xi) in x.iter().enumerate() {
                assert_eq!(
                    xi.to_bits(),
                    soa[r * scales.len() + w].to_bits(),
                    "lane {w} row {r}: scalar {xi} vs batched {}",
                    soa[r * scales.len() + w]
                );
            }
        }
    }

    #[test]
    fn batched_complex_identical_across_widths() {
        // The same complex variants solved at widths 1..=4 (width 4 leaves a
        // surplus lane) must agree bitwise with each other and with the
        // scalar path — width 1 *is* the serial reference, so this is the
        // in-crate form of the batch determinism contract.
        let build = |s: f64| {
            let n = 9;
            let mut t = TripletMatrix::<Complex64>::new(n, n);
            for i in 0..n {
                t.push(i, i, Complex64::new(3.0 * s, 1.0 + i as f64 * 0.1));
                if i + 1 < n {
                    t.push(i, i + 1, Complex64::new(-1.0, 0.3 * s));
                    t.push(i + 1, i, Complex64::new(0.2 * s, -0.8));
                }
            }
            t.to_csr()
        };
        let scales = [1.0, 1.3, 0.6];
        let (_, symbolic) = factor_symbolic(&build(scales[0]));
        let matrices: Vec<CsrMatrix<Complex64>> = scales.iter().map(|&s| build(s)).collect();
        let rhs: Vec<Vec<Complex64>> = scales
            .iter()
            .map(|&s| {
                (0..9)
                    .map(|i| Complex64::new((i as f64 * s).cos(), (i as f64 * 0.5).sin()))
                    .collect()
            })
            .collect();

        let mut ws = LuWorkspace::new();
        let reference: Vec<Vec<Complex64>> = matrices
            .iter()
            .zip(&rhs)
            .map(|(m, b)| {
                let mut lu = SparseLu::from_symbolic(&symbolic);
                lu.refactor_into(&symbolic, m, &mut ws).unwrap();
                let mut x = b.clone();
                let mut work = vec![Complex64::ZERO; x.len()];
                lu.solve_into(&mut x, &mut work).unwrap();
                x
            })
            .collect();

        for width in 1..=4usize {
            let mut batched = BatchedLu::new(&symbolic, width);
            for group in (0..scales.len()).step_by(width) {
                let end = (group + width).min(scales.len());
                let statuses = batched.refactor(&matrices[group..end]).to_vec();
                assert!(statuses.iter().all(|s| s.is_factored()));
                let lanes: Vec<Vec<Complex64>> = rhs[group..end].to_vec();
                let mut soa = interleave(&lanes, width);
                let mut soa_work = vec![Complex64::ZERO; soa.len()];
                batched.solve_into(&mut soa, &mut soa_work).unwrap();
                for (w, want) in reference[group..end].iter().enumerate() {
                    for (r, xi) in want.iter().enumerate() {
                        let got = soa[r * width + w];
                        assert!(
                            xi.re.to_bits() == got.re.to_bits()
                                && xi.im.to_bits() == got.im.to_bits(),
                            "width {width} lane {w} row {r}: {xi:?} vs {got:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batched_lane_failures_are_isolated() {
        let good = csr_from_dense(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let (_, symbolic) = factor_symbolic(&good);
        // Lane 1: exactly singular within the pattern (u22 eliminates to 0).
        let degraded = csr_from_dense(&[&[1.0, 1.0], &[1.0, 1.0]]);
        // Lane 2: an entry the pattern does not know about is impossible for
        // a 2x2 full pattern, so use a NaN stamp instead (hard error).
        let mut t = TripletMatrix::<f64>::new(2, 2);
        t.push(0, 0, 2.0);
        t.push(0, 1, f64::NAN);
        t.push(1, 0, 1.0);
        t.push(1, 1, 3.0);
        let poisoned = t.to_csr();
        // Lane 3: wrong dimension.
        let small = csr_from_dense(&[&[1.0]]);

        let mut batched = BatchedLu::new(&symbolic, 4);
        let statuses = batched
            .refactor(&[good.clone(), degraded, poisoned, small])
            .to_vec();
        assert_eq!(statuses[0], BatchLaneStatus::Factored);
        assert_eq!(statuses[1], BatchLaneStatus::Degraded);
        assert!(matches!(
            statuses[2],
            BatchLaneStatus::Failed(SolveError::NonFinite { .. })
        ));
        assert!(matches!(
            statuses[3],
            BatchLaneStatus::Failed(SolveError::NotSquare { .. })
        ));

        // The healthy lane solves to the scalar result despite its
        // neighbors' garbage.
        let mut soa = interleave(
            &[vec![5.0, 10.0], vec![0.0; 2], vec![0.0; 2], vec![0.0; 2]],
            4,
        );
        let mut soa_work = vec![0.0; soa.len()];
        batched.solve_into(&mut soa, &mut soa_work).unwrap();
        let lu = SparseLu::factor(&good).unwrap();
        let x = lu.solve(&[5.0, 10.0]).unwrap();
        assert_eq!(x[0].to_bits(), soa[0].to_bits());
        assert_eq!(x[1].to_bits(), soa[4].to_bits());
    }

    #[test]
    fn batched_pattern_mismatch_marks_the_lane() {
        // Tridiagonal symbolic; the second variant has a corner entry the
        // pattern never saw.
        let base = csr_from_dense(&[&[4.0, 1.0, 0.0], &[1.0, 4.0, 1.0], &[0.0, 1.0, 4.0]]);
        let (_, symbolic) = factor_symbolic(&base);
        let stray = csr_from_dense(&[&[4.0, 1.0, 0.5], &[1.0, 4.0, 1.0], &[0.0, 1.0, 4.0]]);
        let mut batched = BatchedLu::new(&symbolic, 2);
        let statuses = batched.refactor(&[base.clone(), stray]).to_vec();
        assert_eq!(statuses[0], BatchLaneStatus::Factored);
        assert_eq!(statuses[1], BatchLaneStatus::PatternMismatch);
    }

    #[test]
    fn batched_solve_rejects_wrong_lengths() {
        let a = csr_from_dense(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let (_, symbolic) = factor_symbolic(&a);
        let mut batched = BatchedLu::new(&symbolic, 2);
        batched.refactor(&[a.clone(), a.clone()]);
        let mut short = vec![0.0; 3];
        let mut work = vec![0.0; 4];
        assert!(matches!(
            batched.solve_into(&mut short, &mut work),
            Err(SolveError::RhsLength {
                expected: 4,
                got: 3
            })
        ));
        let mut rhs = vec![0.0; 4];
        let mut short_work = vec![0.0; 2];
        assert!(matches!(
            batched.solve_into(&mut rhs, &mut short_work),
            Err(SolveError::RhsLength {
                expected: 4,
                got: 2
            })
        ));
    }

    #[test]
    fn normwise_backward_error_matches_refined_solve_rule() {
        // A candidate produced by a verified solve must score below the
        // refinement tolerance through the public helper, and a perturbed
        // candidate must score worse — the helper is the accept/escalate
        // rule batched drivers apply outside the refined path.
        let a = csr_from_dense(&[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 4.0]]);
        let lu = SparseLu::factor(&a).unwrap();
        let b = vec![1.0, -2.0, 0.5];
        let x = lu.solve(&b).unwrap();
        let mut residual = vec![0.0; 3];
        let berr = normwise_backward_error(&a, &x, &b, &mut residual);
        assert!(berr <= REFINE_BACKWARD_TOLERANCE, "berr = {berr}");
        let worse: Vec<f64> = x.iter().map(|v| v + 1.0e-3).collect();
        let berr_worse = normwise_backward_error(&a, &worse, &b, &mut residual);
        assert!(berr_worse > berr && berr_worse > REFINE_BACKWARD_TOLERANCE);
        // Exact-zero residual reports exactly 0.
        assert_eq!(
            normwise_backward_error(&a, &[0.0; 3], &[0.0; 3], &mut residual),
            0.0
        );
    }

    /// The separate passes the fused residual pass replaced: a mat-vec
    /// residual, then one squared-magnitude ∞-norm scan per vector with the
    /// exact fallback.
    fn separate_residual_norms(
        a: &CsrMatrix<f64>,
        x: &[f64],
        b: &[f64],
        r: &mut [f64],
    ) -> [u64; 3] {
        for row in 0..a.rows() {
            let mut acc = b[row];
            for (c, v) in a.row_entries(row) {
                acc -= v * x[c];
            }
            r[row] = acc;
        }
        let norm = |v: &[f64]| {
            let mut max_sqr = 0.0f64;
            let mut exact = true;
            for &e in v {
                let m2 = e * e;
                if !(m2.is_normal() || e == 0.0) {
                    exact = false;
                }
                if m2 > max_sqr {
                    max_sqr = m2;
                }
            }
            if exact {
                return max_sqr.sqrt();
            }
            let mut max = 0.0f64;
            for &e in v {
                if !e.is_finite() {
                    return f64::INFINITY;
                }
                max = max.max(e.abs());
            }
            max
        };
        [norm(r).to_bits(), norm(x).to_bits(), norm(b).to_bits()]
    }

    #[test]
    fn fused_residual_pass_is_bitwise_the_separate_passes() {
        let a = csr_from_dense(&[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 4.0]]);
        let tiny = f64::MIN_POSITIVE / 8.0;
        let cases: [(Vec<f64>, Vec<f64>); 5] = [
            (vec![0.3, -1.7, 2.25], vec![1.0, -2.0, 0.5]),
            (vec![0.0; 3], vec![0.0; 3]),
            // Subnormal squares take the exact fallback.
            (vec![tiny, 0.0, -tiny], vec![tiny, 1.0e-200, 0.0]),
            // Non-finite entries map every norm they reach to +∞.
            (vec![f64::NAN, 1.0, 0.0], vec![1.0, f64::INFINITY, 0.0]),
            (vec![1.0e200, -3.0e200, 1.0], vec![1.0e160, 2.0, -1.0]),
        ];
        for (x, b) in &cases {
            // Scratch longer than the matrix, with stale entries: both
            // paths scan the whole slice.
            let mut fused_r = vec![0.5; 4];
            let mut separate_r = fused_r.clone();
            let fused = residual_norms(&a, x, b, &mut fused_r);
            let want = separate_residual_norms(&a, x, b, &mut separate_r);
            assert_eq!(
                [fused.r.to_bits(), fused.x.to_bits(), fused.b.to_bits()],
                want,
                "x = {x:?}, b = {b:?}"
            );
            let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fused_r), bits(&separate_r));
        }
    }
}
