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
//!   kept as flat sorted `(col, value)` vectors, each step's candidates come
//!   from a column → rows list, and each row update runs in place, with the
//!   fill merged in from the back. Every DC solve, AC plan and re-pivot pays
//!   this analysis. [`SparseLu::extract_symbolic`] captures the result as a
//!   [`SymbolicLu`].
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
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};

mod compiled;
mod loops;
#[cfg(test)]
mod oracle;
mod selinv;
use compiled::{ColumnScan, LaneScans};
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

/// A pivot is declared numerically singular when its modulus is not above
/// this fraction of **its column's** largest entry modulus in the input
/// matrix. Column-relative (rather than absolute, or matrix-norm-relative)
/// so uniformly scaled systems behave identically at any magnitude and a
/// small-but-healthy column is not poisoned by large entries elsewhere.
/// The fresh factorization compares moduli; the refactorization compares
/// squares, `|p|² ≤ fl(q·fl(1e-14·1e-14))` with `q` the column's largest
/// squared magnitude, and moduli only where squares degenerate (see
/// `lu/compiled.rs`).
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
/// ([`SparseLu::refactor_into`]): the scan of the input matrix that feeds
/// the pivot rule — per column the largest squared magnitude, and the exact
/// largest modulus where squares degenerate — and records `‖A‖∞`.
///
/// Create one next to the [`SymbolicLu`] whose matrices it will serve and
/// pass it to every `refactor_into` call; after the first call no further
/// heap allocation happens (buffers are retained at matrix dimension).
#[derive(Debug, Clone)]
pub struct LuWorkspace<T: Scalar> {
    scan: ColumnScan,
    scalar: PhantomData<T>,
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
            scan: ColumnScan::for_dim(n),
            scalar: PhantomData,
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
    /// `‖A‖∞` of the factored matrix (largest row sum of
    /// [`Scalar::modulus_l1`] moduli), recorded at factorization time: the
    /// backward-error scale of `solve_refined_into`. Zero on an unfilled
    /// `from_symbolic` shell.
    a_norm_inf: f64,
}

/// Marks an empty slot of the fresh factorization's index arrays: no next
/// list entry, no active position, no column.
const NONE: usize = usize::MAX;

/// A fresh factorization under construction: the composed permutations and
/// the `L` and `U` patterns and values, appended one elimination step at a
/// time in elimination order (global step and column coordinates).
#[derive(Debug)]
struct FreshFactors<T: Scalar> {
    perm: Vec<usize>,
    cperm: Vec<usize>,
    l_ptr: Vec<usize>,
    l_cols: Vec<usize>,
    l_vals: Vec<T>,
    u_ptr: Vec<usize>,
    u_cols: Vec<usize>,
    u_vals: Vec<T>,
}

impl<T: Scalar> FreshFactors<T> {
    fn new(n: usize) -> Self {
        Self {
            perm: Vec::with_capacity(n),
            cperm: Vec::with_capacity(n),
            l_ptr: vec![0],
            l_cols: Vec::new(),
            l_vals: Vec::new(),
            u_ptr: vec![0],
            u_cols: Vec::new(),
            u_vals: Vec::new(),
        }
    }

    /// The finished factorization of `matrix` over these factors, the
    /// block partition and the raw off-diagonal block entries.
    fn finish(
        self,
        matrix: &CsrMatrix<T>,
        block_ptr: Vec<usize>,
        (f_ptr, f_cols, f_vals): (Vec<usize>, Vec<usize>, Vec<T>),
    ) -> SparseLu<T> {
        let n = self.perm.len();
        let mut cpos = vec![0usize; n];
        for (k, &c) in self.cperm.iter().enumerate() {
            cpos[c] = k;
        }
        let mut vals = self.l_vals;
        vals.reserve(self.u_vals.len() + f_vals.len());
        vals.extend_from_slice(&self.u_vals);
        vals.extend_from_slice(&f_vals);
        SparseLu {
            pattern: Arc::new(LuPattern {
                n,
                perm: self.perm,
                cperm: self.cperm,
                cpos,
                l_ptr: self.l_ptr,
                l_cols: self.l_cols,
                u_ptr: self.u_ptr,
                u_cols: self.u_cols,
                block_ptr,
                f_ptr,
                f_cols,
                inverse: OnceLock::new(),
                program: OnceLock::new(),
                scatter: OnceLock::new(),
            }),
            vals,
            refactored: false,
            a_norm_inf: norm_inf(matrix),
        }
    }
}

/// One candidate row of the pivot column at its elimination step.
#[derive(Debug, Clone, Copy)]
struct Candidate<T> {
    /// Position of the row in the active list, the order candidates are
    /// weighed in.
    at: usize,
    row: usize,
    value: T,
    modulus: f64,
    /// Entries of the row not yet eliminated, the pivot column's included.
    len: usize,
}

/// Scratch of the block eliminations of one fresh factorization, reused
/// from block to block, every buffer sized by the block.
#[derive(Debug)]
struct BlockScratch<T: Scalar> {
    /// Elimination step of every block column.
    cpos: Vec<usize>,
    /// Per elimination column, the largest input modulus (and its argmax
    /// scratch): the reference scale of the singularity test.
    col_max: Vec<f64>,
    col_arg: Vec<T>,
    /// Working rows, each sorted by elimination column: the row's finished
    /// `L` entries `(column, multiplier)`, then from `live[r]` on its entries
    /// not yet eliminated.
    rows: Vec<Vec<(usize, T)>>,
    live: Vec<usize>,
    /// Column → rows index: each unfinished row sits in the list of its
    /// first column not yet eliminated — `head[c]`, then `next[r]` until
    /// [`NONE`] — so step `k`'s list holds exactly its candidates. An
    /// updated row moves to the list of its new first column.
    head: Vec<usize>,
    next: Vec<usize>,
    /// Rows not yet pivotal, and each row's position in that list.
    active: Vec<usize>,
    at: Vec<usize>,
    cands: Vec<Candidate<T>>,
    /// Per column, the step whose pivot row holds it and its index among
    /// that row's off-diagonal entries.
    pivot_at: Vec<(usize, usize)>,
}

impl<T: Scalar> BlockScratch<T> {
    fn new() -> Self {
        Self {
            cpos: Vec::new(),
            col_max: Vec::new(),
            col_arg: Vec::new(),
            rows: Vec::new(),
            live: Vec::new(),
            head: Vec::new(),
            next: Vec::new(),
            active: Vec::new(),
            at: Vec::new(),
            cands: Vec::new(),
            pivot_at: Vec::new(),
        }
    }

    /// Eliminates one irreducible diagonal block `matrix` (block-local
    /// coordinates) in the column order `col_order`, appending its steps to
    /// `out`. `row_map` / `col_map` name the original row and column of
    /// every block-local index; errors carry original indices.
    ///
    /// At step `k` the candidates are the active rows holding column `k` —
    /// the rows whose first column not yet eliminated is `k`, listed by the
    /// column → rows index — weighed in active-list order, so ties and the
    /// reported row are those of a scan over the active list. Each other candidate row `r` is updated in place: its entries
    /// in the pivot row's columns become `a − f·p`, and each pivot column
    /// it lacks is merged in as fill `−(f·p)`, where `f = a_rk / pivot` —
    /// per entry the same operations, in step order, as merging the row
    /// with the scaled pivot row.
    ///
    /// # Panics
    ///
    /// Panics if `col_order` is not a permutation of `0..matrix.rows()`.
    fn eliminate(
        &mut self,
        matrix: &CsrMatrix<T>,
        col_order: &[usize],
        row_map: &[usize],
        col_map: &[usize],
        out: &mut FreshFactors<T>,
    ) -> Result<(), SolveError> {
        let n = matrix.rows();
        let start = out.perm.len();
        assert_eq!(
            col_order.len(),
            n,
            "column order must be a permutation of 0..n"
        );
        self.cpos.clear();
        self.cpos.resize(n, NONE);
        for (k, &c) in col_order.iter().enumerate() {
            assert!(
                c < n && self.cpos[c] == NONE,
                "column order must be a permutation of 0..n"
            );
            self.cpos[c] = k;
        }
        // Per-elimination-column reference scales for the relative
        // singularity test; also rejects non-finite input up front.
        column_max_moduli_into(matrix, &self.cpos, &mut self.col_max, &mut self.col_arg).map_err(
            |err| match err {
                SolveError::NonFinite { row, col } => SolveError::NonFinite {
                    row: row_map[row],
                    col: col_map[col],
                },
                other => other,
            },
        )?;

        self.rows.resize_with(n, Vec::new);
        self.head.clear();
        self.head.resize(n, NONE);
        self.next.clear();
        self.next.resize(n, NONE);
        for r in 0..n {
            let row = &mut self.rows[r];
            row.clear();
            // Room for about as much fill again as the row's input entries
            // saves most reallocations.
            row.reserve(2 * matrix.row_pattern(r).len() + 4);
            row.extend(matrix.row_entries(r).map(|(c, v)| (self.cpos[c], v)));
            row.sort_unstable_by_key(|&(c, _)| c);
            if let Some(&(c, _)) = row.first() {
                self.next[r] = self.head[c];
                self.head[c] = r;
            }
        }
        self.live.clear();
        self.live.resize(n, 0);
        self.active.clear();
        self.active.extend(0..n);
        self.at.clear();
        self.at.extend(0..n);
        self.pivot_at.clear();
        self.pivot_at.resize(n, (NONE, 0));

        for k in 0..n {
            // Report failures against the ORIGINAL column index: callers
            // see the unknown they can map back to the circuit, not the
            // position some fill-reducing permutation moved it to.
            let col = col_map[col_order[k]];
            self.cands.clear();
            let mut r = self.head[k];
            while r != NONE {
                let row = &self.rows[r];
                let (c, value) = row[self.live[r]];
                debug_assert_eq!(c, k, "a row in list k starts at column k");
                self.cands.push(Candidate {
                    at: self.at[r],
                    row: r,
                    value,
                    modulus: value.modulus(),
                    len: row.len() - self.live[r],
                });
                r = self.next[r];
            }
            self.cands.sort_unstable_by_key(|c| c.at);
            let (pivot_row, pivot_mod) = select_threshold_pivot(&self.cands, col_order[k])
                .ok_or(SolveError::Singular(col))?;
            // Elimination can overflow into ±∞/NaN even when the input was
            // finite; NaN would pass the threshold checks below (every
            // comparison false), so reject it explicitly.
            if !pivot_mod.is_finite() {
                return Err(SolveError::NonFinite {
                    row: row_map[pivot_row],
                    col,
                });
            }
            if pivot_mod <= self.col_max[k] * SINGULARITY_RELATIVE || pivot_mod == 0.0 {
                return Err(SolveError::Singular(col));
            }
            let ai = self.at[pivot_row];
            self.active.swap_remove(ai);
            if let Some(&moved) = self.active.get(ai) {
                self.at[moved] = ai;
            }
            self.at[pivot_row] = NONE;

            // The pivot row is finished: its L entries, then its U row.
            let pivot = std::mem::take(&mut self.rows[pivot_row]);
            let (l_part, u_part) = pivot.split_at(self.live[pivot_row]);
            out.perm.push(row_map[pivot_row]);
            out.cperm.push(col);
            out.l_cols.extend(l_part.iter().map(|&(c, _)| start + c));
            out.l_vals.extend(l_part.iter().map(|&(_, v)| v));
            out.l_ptr.push(out.l_cols.len());
            out.u_cols.extend(u_part.iter().map(|&(c, _)| start + c));
            out.u_vals.extend(u_part.iter().map(|&(_, v)| v));
            out.u_ptr.push(out.u_cols.len());
            let pivot_val = u_part[0].1;
            let pivot_off = &u_part[1..];
            for (j, &(c, _)) in pivot_off.iter().enumerate() {
                self.pivot_at[c] = (k, j);
            }

            // Eliminate column k from the other candidates. Rows are
            // independent, so their order does not matter.
            for cand in &self.cands {
                let r = cand.row;
                if r == pivot_row {
                    continue;
                }
                let factor = cand.value / pivot_val;
                let row = &mut self.rows[r];
                let at = self.live[r];
                // Record even exact-zero multipliers: the L pattern must
                // not depend on the numeric values.
                row[at].1 = factor;
                self.live[r] = at + 1;
                let mut hits = 0;
                for entry in &mut row[at + 1..] {
                    let (step, j) = self.pivot_at[entry.0];
                    if step == k {
                        entry.1 -= factor * pivot_off[j].1;
                        hits += 1;
                    }
                }
                // Merge the fill in from the back: entries past the last
                // fill column move up, the rest stay put.
                let fill = pivot_off.len() - hits;
                let old_len = row.len();
                row.resize(old_len + fill, (0, T::ZERO));
                let (mut i, mut w, mut j) = (old_len, row.len(), pivot_off.len());
                while w > i {
                    // Row entry `at` is column k, left of every pivot column.
                    let (pc, pv) = pivot_off[j - 1];
                    let rc = row[i - 1].0;
                    w -= 1;
                    if rc >= pc {
                        i -= 1;
                        j -= usize::from(rc == pc);
                        row[w] = row[i];
                    } else {
                        j -= 1;
                        row[w] = (pc, -(factor * pv));
                    }
                }
                // A row with nothing left to eliminate is never a
                // candidate again (the block is singular).
                if let Some(&(c, _)) = row.get(at + 1) {
                    self.next[r] = self.head[c];
                    self.head[c] = r;
                }
            }
        }
        Ok(())
    }
}

/// KLU-style pivot selection among the candidates of one elimination step,
/// in active-list order: the row the ordering prefers (`preferred_row`, the
/// symmetric-diagonal choice) wins while its modulus stays within
/// [`ORDERED_PIVOT_THRESHOLD`] of the best candidate; otherwise the
/// shortest (least fill-producing) candidate above the threshold wins, with
/// modulus and then row index breaking ties deterministically. Returns the
/// pivot row and its modulus.
fn select_threshold_pivot<T: Scalar>(
    cands: &[Candidate<T>],
    preferred_row: usize,
) -> Option<(usize, f64)> {
    let max_mod = cands.iter().fold(0.0f64, |m, c| m.max(c.modulus));
    if max_mod == 0.0 {
        return None;
    }
    let acceptance = ORDERED_PIVOT_THRESHOLD * max_mod;
    // (modulus, row length, row index)
    let mut best: Option<(f64, usize, usize)> = None;
    for c in cands {
        let (m, len, r) = (c.modulus, c.len, c.row);
        if m == 0.0 || m < acceptance {
            continue;
        }
        if r == preferred_row {
            // Numerics did not force a swap: respect the ordering.
            return Some((r, m));
        }
        let better = match best {
            None => true,
            Some((bm, blen, brow)) => {
                len < blen || (len == blen && (m > bm || (m == bm && r < brow)))
            }
        };
        if better {
            best = Some((m, len, r));
        }
    }
    best.map(|(m, _, r)| (r, m))
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

        let mut out = FreshFactors::new(n);
        let mut scratch = BlockScratch::new();
        let mut row_entries: Vec<(usize, T)> = Vec::new();
        for b in 0..form.block_count() {
            let range = form.block_range(b);
            let (start, end) = (range.start, range.end);
            // The diagonal block in block-local coordinates. Entries in
            // later blocks are collected afterwards as the off-diagonal F
            // pattern; entries in earlier blocks cannot exist — the BTF
            // analysis of this very matrix guarantees upper form.
            let mut row_ptr = Vec::with_capacity(range.len() + 1);
            let mut col_idx = Vec::new();
            let mut values = Vec::new();
            row_ptr.push(0);
            for &row in &form.row_perm()[range.clone()] {
                row_entries.clear();
                for (c, v) in matrix.row_entries(row) {
                    let p = btf_cpos[c];
                    debug_assert!(p >= start, "BTF left an entry below its diagonal block");
                    if p < end {
                        row_entries.push((p - start, v));
                    }
                }
                row_entries.sort_unstable_by_key(|&(c, _)| c);
                col_idx.extend(row_entries.iter().map(|&(c, _)| c));
                values.extend(row_entries.iter().map(|&(_, v)| v));
                row_ptr.push(col_idx.len());
            }
            let local = CsrMatrix::from_parts(range.len(), range.len(), row_ptr, col_idx, values);
            let order = crate::ordering::min_degree_order(&local);
            scratch.eliminate(
                &local,
                &order,
                &form.row_perm()[range.clone()],
                &form.col_perm()[range],
                &mut out,
            )?;
        }

        // The off-diagonal block pattern: the raw entries of each pivot row
        // in later blocks, in ascending elimination-column order.
        let mut cpos = vec![0usize; n];
        for (k, &c) in out.cperm.iter().enumerate() {
            cpos[c] = k;
        }
        let mut f_ptr = Vec::with_capacity(n + 1);
        let mut f_cols = Vec::new();
        let mut f_vals = Vec::new();
        f_ptr.push(0);
        for b in 0..form.block_count() {
            let end = form.block_range(b).end;
            for &pivot_row in &out.perm[form.block_range(b)] {
                row_entries.clear();
                for (c, v) in matrix.row_entries(pivot_row) {
                    let p = cpos[c];
                    if p >= end {
                        row_entries.push((p, v));
                    }
                }
                row_entries.sort_unstable_by_key(|&(p, _)| p);
                f_cols.extend(row_entries.iter().map(|&(p, _)| p));
                f_vals.extend(row_entries.iter().map(|&(_, v)| v));
                f_ptr.push(f_cols.len());
            }
        }
        Ok(out.finish(matrix, form.block_ptr().to_vec(), (f_ptr, f_cols, f_vals)))
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
        let identity: Vec<usize> = (0..n).collect();
        let mut out = FreshFactors::new(n);
        let mut scratch = BlockScratch::new();
        scratch.eliminate(matrix, col_order, &identity, &identity, &mut out)?;
        Ok(out.finish(
            matrix,
            LuPattern::single_block(n),
            (LuPattern::empty_f(n), Vec::new(), Vec::new()),
        ))
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
        let norm_inf = match outcome {
            Ok(norm_inf) => Some(norm_inf),
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
        self.refactored = norm_inf.is_some();
        self.a_norm_inf = norm_inf.unwrap_or(0.0);
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
    /// backward error and number of corrections; callers escalate on
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
        Ok(SolveQuality {
            residual_norm: norm_r,
            backward_error: berr,
            refinement_steps: steps,
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
#[derive(Debug, Clone, Copy)]
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

    /// The norm of a vector every entry of which was pushed; `v` yields
    /// those entries again, in order, for the exact fallback.
    fn finish<T: Scalar>(self, v: impl IntoIterator<Item = T>) -> f64 {
        if self.exact {
            self.max_sqr.sqrt()
        } else {
            exact_inf_norm(v)
        }
    }
}

/// The exact fallback of [`InfNormScan`]: the largest modulus, or +∞ as
/// soon as any component is non-finite.
fn exact_inf_norm<T: Scalar>(v: impl IntoIterator<Item = T>) -> f64 {
    let mut max = 0.0f64;
    for x in v {
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
        r: norm_r.finish(r.iter().copied()),
        x: norm_x.finish(x.iter().copied()),
        b: norm_b.finish(b.iter().copied()),
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

/// Per-lane outcome of a [`BatchedLu::refactor_lanes`] call.
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

/// Values of `width` variant lanes stored **lane-major in `f64` planes**:
/// value `i` of every lane occupies one chunk of `T::PLANES · width`
/// numbers — the real parts of lanes `0..width`, then (for complex values)
/// their imaginary parts. Slot-major and lane-minor, so one index into a
/// shared structure addresses a contiguous run of every lane's parts.
///
/// The input, right-hand-side and solution store of [`BatchedLu`]: a lane
/// is loaded column-wise ([`load_lane`](LanePlanes::load_lane),
/// [`set`](LanePlanes::set)) and read back with [`get`](LanePlanes::get).
#[derive(Debug, Clone, PartialEq)]
pub struct LanePlanes<T: Scalar> {
    len: usize,
    width: usize,
    vals: Vec<f64>,
    scalar: std::marker::PhantomData<T>,
}

impl<T: Scalar> LanePlanes<T> {
    /// `len` zero values in each of `width` lanes.
    ///
    /// # Panics
    ///
    /// Panics when `width` is zero.
    pub fn new(len: usize, width: usize) -> Self {
        assert!(width > 0, "lane width must be at least 1");
        Self {
            len,
            width,
            vals: vec![0.0; len * T::PLANES * width],
            scalar: std::marker::PhantomData,
        }
    }

    /// Number of values per lane.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the lanes hold no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of lanes.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Value `i` of lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics when `i` or `lane` is out of range.
    #[inline]
    pub fn get(&self, i: usize, lane: usize) -> T {
        assert!(
            lane < self.width,
            "lane {lane} outside width {}",
            self.width
        );
        let at = i * self.stride() + lane;
        T::from_parts(
            self.vals[at],
            if T::PLANES == 2 {
                self.vals[at + self.width]
            } else {
                0.0
            },
        )
    }

    /// Sets value `i` of lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics when `i` or `lane` is out of range.
    #[inline]
    pub fn set(&mut self, i: usize, lane: usize, v: T) {
        assert!(
            lane < self.width,
            "lane {lane} outside width {}",
            self.width
        );
        let at = i * self.stride() + lane;
        self.vals[at] = v.re();
        if T::PLANES == 2 {
            self.vals[at + self.width] = v.im();
        }
    }

    /// Copies `values` (one per index) into lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics when `values.len()` differs from [`len`](LanePlanes::len) or
    /// `lane` is out of range.
    pub fn load_lane(&mut self, lane: usize, values: &[T]) {
        assert_eq!(values.len(), self.len, "one value per index");
        assert!(
            lane < self.width,
            "lane {lane} outside width {}",
            self.width
        );
        let (st, wdt) = (self.stride(), self.width);
        for (chunk, v) in self.vals.chunks_exact_mut(st).zip(values) {
            chunk[lane] = v.re();
            if T::PLANES == 2 {
                chunk[wdt + lane] = v.im();
            }
        }
    }

    /// The values of lane `lane`, in index order.
    fn lane(&self, lane: usize) -> impl Iterator<Item = T> + '_ {
        (0..self.len).map(move |i| self.get(i, lane))
    }

    /// The chunks of every value, in index order.
    #[inline]
    fn chunks(&self) -> std::slice::ChunksExact<'_, f64> {
        self.vals.chunks_exact(self.stride())
    }

    /// Numbers per chunk: `T::PLANES · width`.
    #[inline]
    fn stride(&self) -> usize {
        T::PLANES * self.width
    }

    /// The `RhsLength` error of a lane vector that is not `n` values in
    /// `width` lanes.
    fn check_shape(&self, n: usize, width: usize) -> Result<(), SolveError> {
        if self.len == n && self.width == width {
            Ok(())
        } else {
            Err(SolveError::RhsLength {
                expected: n * width,
                got: self.len * self.width,
            })
        }
    }
}

/// Chunk `t` of a lane store with chunk length `stride`.
#[inline]
fn slot_chunk(v: &[f64], t: usize, stride: usize) -> &[f64] {
    &v[t * stride..(t + 1) * stride]
}

/// The lane count of a batched pass specialized to `W` lanes: `W`, or the
/// runtime `width` for the generic pass `W = 0`.
#[inline(always)]
fn lane_count<const W: usize>(width: usize) -> usize {
    if W == 0 {
        width
    } else {
        W
    }
}

/// Calls `$s.$f::<W>(..)` with the lane width of `$s` as the compile-time
/// constant `W` for widths 1 to 8 (`W = 0`, the runtime width, for any
/// wider batch), so every lane loop of those widths has a fixed trip count
/// and every chunk copy a fixed length.
macro_rules! by_width {
    ($s:ident . $f:ident ( $($arg:expr),* $(,)? )) => {
        match $s.width {
            1 => $s.$f::<1>($($arg),*),
            2 => $s.$f::<2>($($arg),*),
            3 => $s.$f::<3>($($arg),*),
            4 => $s.$f::<4>($($arg),*),
            5 => $s.$f::<5>($($arg),*),
            6 => $s.$f::<6>($($arg),*),
            7 => $s.$f::<7>($($arg),*),
            8 => $s.$f::<8>($($arg),*),
            _ => $s.$f::<0>($($arg),*),
        }
    };
}

/// A batched numeric LU over `width` **independent matrices sharing one
/// symbolic analysis** — the variant axis of Monte Carlo / corner sweeps.
///
/// All `width` factorizations live in one [`LanePlanes`] store in the
/// [`SparseLu`] slot order (`L`, then `U`, then `F`): the chunk of pattern
/// slot `s` holds the real parts of every lane, then their imaginary parts.
/// Because every lane shares the fill pattern, one index stream drives
/// `width` lanes of arithmetic through the lane update and divide loops —
/// and because those loops perform per-lane exactly the scalar operations in
/// the scalar order (no FMA, no reassociation, no cross-lane math), **each
/// lane's factors and solutions are bitwise identical to a scalar
/// [`SparseLu::refactor_into`] / [`SparseLu::solve_into`] run on that lane's
/// matrix alone**, at any batch width. `width == 1` is therefore not a special
/// case but the serial reference the determinism suite compares against.
///
/// The point is lane-major from the load to the acceptance test:
/// [`refactor_lanes`](BatchedLu::refactor_lanes) takes every lane's values
/// over one shared CSR structure (matched once per call), scans the columns
/// of every lane in one pass, scatters whole slot chunks, eliminates, and
/// runs the pivot checks of every lane in one pass per row;
/// [`solve_lanes`](BatchedLu::solve_lanes) and
/// [`backward_errors`](BatchedLu::backward_errors) then solve and test every
/// lane together.
///
/// The refactorization mirrors the scalar pass lane-by-lane, including the
/// pivot-quality rule: a lane whose pivot degrades (or whose matrix has
/// drifted off the pattern) is marked in [`statuses`](BatchedLu::statuses)
/// and its remaining values are unspecified, while the other lanes complete
/// normally. After construction (and the first refactorization over a
/// pattern, which compiles its op lists) [`refactor_lanes`](BatchedLu::refactor_lanes),
/// [`solve_lanes`](BatchedLu::solve_lanes) and
/// [`backward_errors`](BatchedLu::backward_errors) perform no heap
/// allocation.
#[derive(Debug, Clone)]
pub struct BatchedLu<T: Scalar> {
    pattern: Arc<LuPattern>,
    width: usize,
    /// Factor values, one chunk per pattern slot.
    vals: LanePlanes<T>,
    /// The permuted right-hand sides and substitution work of a solve.
    work: LanePlanes<T>,
    /// The residuals `b − A·x` of the acceptance test.
    residual: LanePlanes<T>,
    /// Every lane's input scan and the pivot-check scratch.
    scan: LaneScans,
    /// Per-lane ∞-norm scans of the residual, solution and right-hand side.
    norms: [loops::LaneSquares; 3],
    /// Per-lane `‖A‖∞` and the current row sum of the acceptance pass.
    norm_a: Vec<f64>,
    row_sum: Vec<f64>,
    /// Per-lane outcome of the most recent refactorization.
    statuses: Vec<BatchLaneStatus>,
    /// Per-lane liveness during a refactor pass (scratch).
    live: Vec<bool>,
    /// `true` once a refactor call has completed with ≥ 1 factored lane.
    factored: bool,
}

impl<T: Scalar> BatchedLu<T> {
    /// Creates a batched factorization shell over `symbolic` with `width`
    /// variant lanes. The buffers of the lane-major point
    /// ([`refactor_lanes`](BatchedLu::refactor_lanes),
    /// [`solve_lanes`](BatchedLu::solve_lanes),
    /// [`backward_errors`](BatchedLu::backward_errors)) are all allocated
    /// here.
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
            vals: LanePlanes::new(p.factor_len(), width),
            work: LanePlanes::new(n, width),
            residual: LanePlanes::new(n, width),
            scan: LaneScans::new(n, width),
            norms: std::array::from_fn(|_| loops::LaneSquares::new(width)),
            norm_a: vec![0.0; width],
            row_sum: vec![0.0; width],
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

    /// Per-lane outcome of the most recent refactorization (empty before
    /// the first call). One entry per supplied lane.
    pub fn statuses(&self) -> &[BatchLaneStatus] {
        &self.statuses
    }

    /// Factor value of pattern slot `slot` (in the [`SparseLu`] order `L`,
    /// `U`, `F`) in lane `lane`.
    #[cfg(test)]
    fn factor_value(&self, slot: usize, lane: usize) -> T {
        self.vals.get(slot, lane)
    }

    /// Refactors lanes `0..lanes` whose matrices share `structure` (its
    /// values are ignored) in one batched pass, returning the per-lane
    /// outcomes: entry `e` of lane `w` is `values.get(e, w)`. `lanes` may be
    /// below the width (a ragged final group): the surplus lanes simply
    /// carry unspecified values. The structure is matched against the
    /// pattern once, one pass scans the columns of every lane, and whole
    /// slot chunks are scattered.
    ///
    /// Per lane, every arithmetic operation — scatter, elimination update,
    /// pivot test — is performed in exactly the order of a scalar
    /// [`SparseLu::refactor_into`] on that lane's matrix alone (both run the
    /// pattern's compiled op lists), so a [`BatchLaneStatus::Factored`] lane
    /// holds bitwise-identical factor values, and every status is the
    /// scalar outcome. A degraded pivot or non-finite stamp fails only its
    /// own lane; a structure that is not square of the factor dimension
    /// (`NotSquare`) or leaves the pattern (`PatternMismatch` from its first
    /// off-pattern row on) is shared by every lane.
    ///
    /// # Panics
    ///
    /// Panics when `lanes` is zero or above the width, or when `values` is
    /// not `structure.nnz()` values in `width` lanes.
    pub fn refactor_lanes(
        &mut self,
        structure: &CsrMatrix<T>,
        values: &LanePlanes<T>,
        lanes: usize,
    ) -> &[BatchLaneStatus] {
        self.check_lanes(lanes);
        assert!(
            values.len() == structure.nnz() && values.width() == self.width,
            "lane values must hold one value per stored entry in every lane"
        );
        by_width!(self.refactor_shared(structure, values, lanes));
        &self.statuses
    }

    fn check_lanes(&self, m: usize) {
        let wdt = self.width;
        assert!(
            m >= 1 && m <= wdt,
            "batch of {m} matrices does not fit width {wdt}"
        );
    }

    /// Solves every lane: `x` receives, lane by lane, the solution of the
    /// lane's factored system for the right-hand side in `b` (both `dim`
    /// values in `width` lanes).
    ///
    /// One traversal of the shared L/U index structure drives every lane:
    /// each factor slot loaded once streams over the lanes via the lane
    /// loops. Per lane the operation sequence — every product, subtraction
    /// and division, in order — is identical to a scalar
    /// [`SparseLu::solve_into`] with that lane's factors, so factored lanes
    /// produce bitwise-identical solutions at any width. Lanes that did not
    /// factor yield unspecified values (check
    /// [`statuses`](BatchedLu::statuses)).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::RhsLength`] when `b` or `x` is not `dim` values
    /// in `width` lanes.
    ///
    /// # Panics
    ///
    /// Panics when no refactorization has produced a factored lane yet.
    pub fn solve_lanes(
        &mut self,
        b: &LanePlanes<T>,
        x: &mut LanePlanes<T>,
    ) -> Result<(), SolveError> {
        let p = &*self.pattern;
        assert!(
            self.factored,
            "solve on an unfactored BatchedLu: refactor must produce a factored lane first"
        );
        b.check_shape(p.n, self.width)?;
        x.check_shape(p.n, self.width)?;
        by_width!(self.substitute(b, x));
        Ok(())
    }

    /// The substitutions of [`solve_lanes`](BatchedLu::solve_lanes) at `W`
    /// lanes (see [`lane_count`]).
    fn substitute<const W: usize>(&mut self, b: &LanePlanes<T>, x: &mut LanePlanes<T>) {
        let p = &*self.pattern;
        // The traversal of the scalar `solve_into`, one slot streaming over
        // every lane: F and U sources live in later elimination rows than
        // the destination, L sources in earlier ones, so the borrow splits
        // are valid, and every lane multiplies its *own* factor value.
        let st = T::PLANES * lane_count::<W>(self.width);
        let (l_vals, rest) = self.vals.vals.split_at(p.l_cols.len() * st);
        let (u_vals, f_vals) = rest.split_at(p.u_cols.len() * st);
        let work = &mut self.work.vals;
        for blk in (0..p.block_ptr.len() - 1).rev() {
            let (bs, be) = (p.block_ptr[blk], p.block_ptr[blk + 1]);
            for i in bs..be {
                let row = i * st;
                work[row..row + st].copy_from_slice(slot_chunk(&b.vals, p.perm[i], st));
                {
                    let (head, tail) = work.split_at_mut(row + st);
                    let dst = &mut head[row..];
                    for t in p.f_ptr[i]..p.f_ptr[i + 1] {
                        let src = p.f_cols[t] * st - (row + st);
                        loops::lane_mul_sub::<T>(
                            slot_chunk(f_vals, t, st),
                            &tail[src..src + st],
                            dst,
                        );
                    }
                }
                {
                    let (head, tail) = work.split_at_mut(row);
                    let dst = &mut tail[..st];
                    for t in p.l_ptr[i]..p.l_ptr[i + 1] {
                        loops::lane_mul_sub::<T>(
                            slot_chunk(l_vals, t, st),
                            slot_chunk(head, p.l_cols[t], st),
                            dst,
                        );
                    }
                }
            }
            for i in (bs..be).rev() {
                let start = p.u_ptr[i];
                let row = i * st;
                let (head, tail) = work.split_at_mut(row + st);
                let dst = &mut head[row..];
                for t in (start + 1)..p.u_ptr[i + 1] {
                    let src = p.u_cols[t] * st - (row + st);
                    loops::lane_mul_sub::<T>(slot_chunk(u_vals, t, st), &tail[src..src + st], dst);
                }
                loops::lane_div::<T>(slot_chunk(u_vals, start, st), dst);
            }
        }
        for i in 0..p.n {
            let at = p.cperm[i] * st;
            x.vals[at..at + st].copy_from_slice(&work[i * st..(i + 1) * st]);
        }
    }

    /// Normwise backward errors `‖b − A·x‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)` of the
    /// candidate solutions `x` of lanes `0..errors.len()`, in one lane-major
    /// residual pass: lane `w`'s matrix is `structure` with entry `e` equal
    /// to `values.get(e, w)`. The same pass accumulates every lane's `‖A‖∞`
    /// row sums, and each norm scans its whole lane, in the order of the
    /// scalar rule, so `errors[w]` is bitwise [`normwise_backward_error`]'s
    /// on lane `w` alone — the residual test of the verified serial solve.
    ///
    /// # Panics
    ///
    /// Panics when `errors` is longer than the width, when `structure` is
    /// not square of the factor dimension, or when `values`, `x` or `b` do
    /// not match it in length or width.
    pub fn backward_errors(
        &mut self,
        structure: &CsrMatrix<T>,
        values: &LanePlanes<T>,
        x: &LanePlanes<T>,
        b: &LanePlanes<T>,
        errors: &mut [f64],
    ) {
        let (n, wdt) = (self.pattern.n, self.width);
        let lanes = errors.len();
        assert!(lanes <= wdt, "{lanes} lanes do not fit width {wdt}");
        assert!(
            structure.rows() == n
                && structure.cols() == n
                && values.len() == structure.nnz()
                && values.width() == wdt
                && x.check_shape(n, wdt).is_ok()
                && b.check_shape(n, wdt).is_ok(),
            "lane systems must match the factor dimension and width"
        );
        by_width!(self.residual_pass(structure, values, x, b, errors));
    }

    /// The residual pass of [`backward_errors`](BatchedLu::backward_errors)
    /// at `W` lanes (see [`lane_count`]). It runs every lane of the width;
    /// a surplus lane's result is never read.
    fn residual_pass<const W: usize>(
        &mut self,
        structure: &CsrMatrix<T>,
        values: &LanePlanes<T>,
        x: &LanePlanes<T>,
        b: &LanePlanes<T>,
        errors: &mut [f64],
    ) {
        let wdt = lane_count::<W>(self.width);
        let stride = T::PLANES * wdt;
        let (row_ptr, col_idx, _) = structure.parts();
        for scan in &mut self.norms {
            scan.reset(0..wdt);
        }
        let norm_a = &mut self.norm_a[..wdt];
        let row_sum = &mut self.row_sum[..wdt];
        norm_a.fill(0.0);
        let rows = self.residual.vals.chunks_exact_mut(stride);
        let mut entries = values.vals.chunks_exact(stride).zip(col_idx);
        let lanes = x.vals.chunks_exact(stride).zip(b.vals.chunks_exact(stride));
        for ((r, (xr, br)), span) in rows.zip(lanes).zip(row_ptr.windows(2)) {
            r.copy_from_slice(br);
            row_sum.fill(0.0);
            for (a, &col) in entries.by_ref().take(span[1] - span[0]) {
                loops::lane_residual::<T>(a, slot_chunk(&x.vals, col, stride), r, row_sum);
            }
            for (norm, &sum) in norm_a.iter_mut().zip(row_sum.iter()) {
                if sum > *norm {
                    *norm = sum;
                }
            }
            for (scan, v) in self.norms.iter_mut().zip([&*r, xr, br]) {
                scan.fold::<T>(v, 0..wdt);
            }
        }
        let norm = |k: usize, w: usize, v: &LanePlanes<T>| {
            let scan = &self.norms[k];
            InfNormScan {
                max_sqr: scan.max(w),
                exact: scan.exact(w, f64::MIN_POSITIVE),
            }
            .finish(v.lane(w))
        };
        for (w, err) in errors.iter_mut().enumerate() {
            *err = backward_error(
                norm(0, w, &self.residual),
                self.norm_a[w],
                norm(1, w, x),
                norm(2, w, b),
            );
        }
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

    /// The singularity boundary of the refactorization on a column whose
    /// largest square is `q`: the largest pivot with
    /// `|p|² ≤ fl(q·fl(1e-14·1e-14))` is degraded and the next representable
    /// pivot above it factors, through `refactor_into` and through
    /// `refactor_lanes` at widths 1 and 3. Scaled by `1e-160` or `1e160`
    /// the column's squares degenerate, and the boundary is that of the
    /// exact moduli, `|p| ≤ 1e-14·max|a|`, where the squared rule would
    /// call the pivot above it degraded.
    #[test]
    fn refactor_singularity_boundary_is_the_squared_rule() {
        fn check<T: Scalar>(big: T, pivot: impl Fn(f64) -> T, scaled: bool) {
            // Column 0 holds the pivot and `big`. BTF puts the pivot in a
            // 1×1 block of its own, so it reaches the pivot check as it was
            // loaded, alone in its `U` row.
            let build = |d: T| {
                let mut t = TripletMatrix::new(2, 2);
                t.push(0, 0, d);
                t.push(1, 0, big);
                t.push(1, 1, T::ONE);
                t.to_csr()
            };
            let (mut lu, symbolic) = factor_symbolic(&build(big));
            assert_eq!(symbolic.block_count(), 2);
            let sqr = SINGULARITY_RELATIVE * SINGULARITY_RELATIVE;
            let squared = |x: f64| pivot(x).modulus_sqr() <= big.modulus_sqr() * sqr;
            let exact = |x: f64| pivot(x).modulus() <= big.modulus() * SINGULARITY_RELATIVE;
            let rule = |x: f64| if scaled { exact(x) } else { squared(x) };
            // The largest degraded `x`, walked to from the threshold.
            let mut x = big.modulus() * SINGULARITY_RELATIVE / pivot(1.0).modulus();
            for _ in 0..64 {
                if !rule(x) {
                    break;
                }
                x = x.next_up();
            }
            for _ in 0..64 {
                if rule(x) {
                    break;
                }
                x = x.next_down();
            }
            let up = x.next_up();
            assert!(rule(x) && !rule(up), "boundary at {x:e}");
            if scaled {
                assert!(squared(up), "the squares degenerate at {up:e}");
            }
            let (degraded, factors) = (build(pivot(x)), build(pivot(up)));
            let mut ws = LuWorkspace::new();
            assert_eq!(lu.refactor_into(&symbolic, &degraded, &mut ws), Ok(false));
            assert_eq!(lu.refactor_into(&symbolic, &factors, &mut ws), Ok(true));
            use BatchLaneStatus::{Degraded, Factored};
            let mut one = BatchedLu::new(&symbolic, 1);
            for (m, status) in [(&degraded, Degraded), (&factors, Factored)] {
                assert_eq!(refactor_all(&mut one, std::slice::from_ref(m)), [status]);
            }
            let mut three = BatchedLu::new(&symbolic, 3);
            let lanes = [degraded, factors, build(big)];
            assert_eq!(
                refactor_all(&mut three, &lanes),
                [Degraded, Factored, Factored]
            );
        }
        for (scale, scaled) in [(1.0, false), (1.0e-160, true), (1.0e160, true)] {
            check(3.0 * scale, |x| x, scaled);
            check(
                Complex64::new(1.8 * scale, 2.4 * scale),
                |x| Complex64::new(x, 0.5 * x),
                scaled,
            );
        }
    }

    /// Loads per-variant vectors into the lane-major store
    /// [`BatchedLu::solve_lanes`] consumes.
    fn lane_planes<T: Scalar>(lanes: &[Vec<T>], width: usize) -> LanePlanes<T> {
        let mut out = LanePlanes::new(lanes[0].len(), width);
        for (w, lane) in lanes.iter().enumerate() {
            out.load_lane(w, lane);
        }
        out
    }

    /// [`BatchedLu::refactor_lanes`] of `matrices`, which share one
    /// structure: lane `w` holds the values of `matrices[w]`.
    fn refactor_all<T: Scalar>(
        batched: &mut BatchedLu<T>,
        matrices: &[CsrMatrix<T>],
    ) -> Vec<BatchLaneStatus> {
        let structure = |m: &CsrMatrix<T>| {
            let (row_ptr, col_idx, _) = m.parts();
            (m.rows(), m.cols(), row_ptr.to_vec(), col_idx.to_vec())
        };
        assert!(matrices
            .iter()
            .all(|m| structure(m) == structure(&matrices[0])));
        let lanes: Vec<Vec<T>> = matrices.iter().map(|m| m.values().to_vec()).collect();
        let values = lane_planes(&lanes, batched.width());
        batched
            .refactor_lanes(&matrices[0], &values, matrices.len())
            .to_vec()
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
        let statuses = refactor_all(&mut batched, &matrices);
        assert!(statuses.iter().all(|s| s.is_factored()), "{statuses:?}");
        let lanes: Vec<Vec<f64>> = scales.iter().map(|&s| rhs_of(s)).collect();
        let b = lane_planes(&lanes, scales.len());
        let mut x = LanePlanes::new(5, scales.len());
        batched.solve_lanes(&b, &mut x).unwrap();

        let mut ws = LuWorkspace::new();
        for (w, (matrix, &s)) in matrices.iter().zip(&scales).enumerate() {
            let mut lu = SparseLu::from_symbolic(&symbolic);
            lu.refactor_into(&symbolic, matrix, &mut ws).unwrap();
            assert!(lu.refactored());
            for (slot, v) in lu.vals.iter().enumerate() {
                assert_eq!(v.to_bits(), batched.factor_value(slot, w).to_bits());
            }
            let mut want = rhs_of(s);
            let mut work = vec![0.0; want.len()];
            lu.solve_into(&mut want, &mut work).unwrap();
            for (r, xi) in want.iter().enumerate() {
                assert_eq!(
                    xi.to_bits(),
                    x.get(r, w).to_bits(),
                    "lane {w} row {r}: scalar {xi} vs batched {}",
                    x.get(r, w)
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

        let same = |a: Complex64, b: Complex64| {
            a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
        };
        for width in 1..=4usize {
            let mut batched = BatchedLu::new(&symbolic, width);
            for group in (0..scales.len()).step_by(width) {
                let end = (group + width).min(scales.len());
                let statuses = refactor_all(&mut batched, &matrices[group..end]);
                assert!(statuses.iter().all(|s| s.is_factored()));
                let b = lane_planes(&rhs[group..end], width);
                let mut x = LanePlanes::new(9, width);
                batched.solve_lanes(&b, &mut x).unwrap();
                for (w, want) in reference[group..end].iter().enumerate() {
                    for (r, &xi) in want.iter().enumerate() {
                        let got = x.get(r, w);
                        assert!(
                            same(xi, got),
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
        // Lane 2: a NaN stamp (hard error).
        let poisoned = csr_from_dense(&[&[2.0, f64::NAN], &[1.0, 3.0]]);

        let mut batched = BatchedLu::new(&symbolic, 4);
        let statuses = refactor_all(&mut batched, &[good.clone(), degraded, poisoned]);
        assert_eq!(statuses[0], BatchLaneStatus::Factored);
        assert_eq!(statuses[1], BatchLaneStatus::Degraded);
        assert_eq!(
            statuses[2],
            BatchLaneStatus::Failed(SolveError::NonFinite { row: 0, col: 1 })
        );

        // The healthy lane solves to the scalar result despite its
        // neighbors' garbage.
        let b = lane_planes(&[vec![5.0, 10.0], vec![0.0; 2], vec![0.0; 2]], 4);
        let mut x = LanePlanes::new(2, 4);
        batched.solve_lanes(&b, &mut x).unwrap();
        let lu = SparseLu::factor(&good).unwrap();
        let want = lu.solve(&[5.0, 10.0]).unwrap();
        assert_eq!(want[0].to_bits(), x.get(0, 0).to_bits());
        assert_eq!(want[1].to_bits(), x.get(1, 0).to_bits());

        // A structure of the wrong dimension fails every lane.
        let small = csr_from_dense(&[&[1.0]]);
        let statuses = refactor_all(&mut batched, &[small.clone(), small]);
        assert_eq!(
            statuses,
            [BatchLaneStatus::Failed(SolveError::NotSquare { rows: 1, cols: 1 }); 2]
        );
    }

    /// Eight lanes over a tridiagonal pattern, one each with a non-finite
    /// stamp, a degraded pivot, an exact-zero multiplier (the per-lane
    /// fallback of the update) and huge and tiny entries (degenerate squares:
    /// exact column scales), beside healthy lanes: every status is the
    /// scalar refactorization's, and the healthy lanes' factors and
    /// solutions are bitwise their width-1 runs. The same lanes over a
    /// structure with an entry outside the pattern fail, each at its first
    /// failure in row order, as the scalar refactorization does.
    #[test]
    fn batched_lane_failures_are_isolated_at_width_8() {
        let n = 6;
        let tri = |s: f64, edit: &dyn Fn(usize, usize, f64) -> f64, extra: bool| {
            let mut t = TripletMatrix::<f64>::new(n, n);
            for i in 0..n {
                t.push(i, i, edit(i, i, 4.0 * s + 0.1 * i as f64));
                if i + 1 < n {
                    t.push(i, i + 1, edit(i, i + 1, -s));
                    t.push(i + 1, i, edit(i + 1, i, 0.5 + s));
                }
            }
            if extra {
                t.push(0, n - 1, 0.5);
            }
            t.to_csr()
        };
        let keep = |_: usize, _: usize, v: f64| v;
        let (_, symbolic) = factor_symbolic(&tri(1.0, &keep, false));
        let lanes_of = |extra: bool| {
            vec![
                tri(1.0, &keep, extra),
                tri(
                    1.1,
                    &|r, c, v| if (r, c) == (2, 3) { f64::NAN } else { v },
                    extra,
                ),
                tri(1.3, &|_, _, v| v * 1.0e155, extra),
                tri(
                    0.9,
                    &|r, c, v| if (r, c) == (4, 4) { 1.0e-170 } else { v },
                    extra,
                ),
                tri(1.2, &|r, _, v| if r == 3 { v * 1.0e-20 } else { v }, extra),
                tri(
                    0.8,
                    &|r, c, v| {
                        if r.abs_diff(c) == 1 && r.min(c) == 2 {
                            0.0
                        } else {
                            v
                        }
                    },
                    extra,
                ),
                tri(0.7, &keep, extra),
                tri(2.0, &keep, extra),
            ]
        };
        let scalar_status = |m: &CsrMatrix<f64>| {
            let mut scan = compiled::ColumnScan::for_dim(0);
            let mut vals = Vec::new();
            match compiled::refactor(&symbolic.pattern, m, &mut scan, &mut vals) {
                Ok(_) => BatchLaneStatus::Factored,
                Err(RefactorFailure::Degraded) => BatchLaneStatus::Degraded,
                Err(RefactorFailure::PatternMismatch) => BatchLaneStatus::PatternMismatch,
                Err(RefactorFailure::Hard(e)) => BatchLaneStatus::Failed(e),
            }
        };

        let lanes = lanes_of(false);
        let mut batched = BatchedLu::new(&symbolic, 8);
        let got = refactor_all(&mut batched, &lanes);
        assert_eq!(
            got[1],
            BatchLaneStatus::Failed(SolveError::NonFinite { row: 2, col: 3 })
        );
        assert_eq!(got[4], BatchLaneStatus::Degraded);
        let healthy = [0usize, 2, 3, 5, 6, 7];
        for &w in &healthy {
            assert_eq!(got[w], BatchLaneStatus::Factored, "lane {w}");
        }
        for (w, m) in lanes.iter().enumerate() {
            assert_eq!(got[w], scalar_status(m), "lane {w}");
        }
        // The zero multiplier really takes the fallback: one L value is 0.
        let nl = symbolic.pattern.l_cols.len();
        assert!((0..nl).any(|t| batched.factor_value(t, 5) == 0.0));

        let rhs: Vec<Vec<f64>> = (0..8)
            .map(|w| (0..n).map(|i| 1.0 + (i * w) as f64 * 0.25).collect())
            .collect();
        let b = lane_planes(&rhs, 8);
        let mut x = LanePlanes::new(n, 8);
        batched.solve_lanes(&b, &mut x).unwrap();
        for &w in &healthy {
            let mut single = BatchedLu::new(&symbolic, 1);
            assert!(refactor_all(&mut single, std::slice::from_ref(&lanes[w]))[0].is_factored());
            for slot in 0..symbolic.pattern.factor_len() {
                assert_eq!(
                    batched.factor_value(slot, w).to_bits(),
                    single.factor_value(slot, 0).to_bits(),
                    "lane {w} slot {slot}"
                );
            }
            let mut x1 = LanePlanes::new(n, 1);
            single
                .solve_lanes(&lane_planes(std::slice::from_ref(&rhs[w]), 1), &mut x1)
                .unwrap();
            for r in 0..n {
                assert_eq!(
                    x.get(r, w).to_bits(),
                    x1.get(r, 0).to_bits(),
                    "lane {w} row {r}"
                );
            }
        }

        // Off the pattern: the structure's mismatch is every lane's, from
        // its row on; earlier failures stand.
        let stray = lanes_of(true);
        let got = refactor_all(&mut batched, &stray);
        assert!(got.contains(&BatchLaneStatus::PatternMismatch));
        for (w, m) in stray.iter().enumerate() {
            assert_eq!(got[w], scalar_status(m), "lane {w}");
        }
    }

    #[test]
    fn batched_pattern_mismatch_marks_the_lane() {
        // Tridiagonal symbolic; the stray structure has a corner entry the
        // pattern never saw.
        let base = csr_from_dense(&[&[4.0, 1.0, 0.0], &[1.0, 4.0, 1.0], &[0.0, 1.0, 4.0]]);
        let (_, symbolic) = factor_symbolic(&base);
        let stray = csr_from_dense(&[&[4.0, 1.0, 0.5], &[1.0, 4.0, 1.0], &[0.0, 1.0, 4.0]]);
        let mut batched = BatchedLu::new(&symbolic, 2);
        let statuses = refactor_all(&mut batched, &[base.clone(), base.clone()]);
        assert_eq!(statuses, [BatchLaneStatus::Factored; 2]);
        // A structure off the pattern marks every lane.
        let statuses = refactor_all(&mut batched, &[stray.clone(), stray]);
        assert_eq!(statuses, [BatchLaneStatus::PatternMismatch; 2]);
    }

    #[test]
    fn batched_solve_rejects_wrong_lengths() {
        let a = csr_from_dense(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let (_, symbolic) = factor_symbolic(&a);
        let mut batched = BatchedLu::new(&symbolic, 2);
        refactor_all(&mut batched, &[a.clone(), a.clone()]);
        let short = LanePlanes::new(3, 1);
        let mut x = LanePlanes::new(2, 2);
        assert!(matches!(
            batched.solve_lanes(&short, &mut x),
            Err(SolveError::RhsLength {
                expected: 4,
                got: 3
            })
        ));
        let b = LanePlanes::new(2, 2);
        let mut narrow = LanePlanes::new(2, 1);
        assert!(matches!(
            batched.solve_lanes(&b, &mut narrow),
            Err(SolveError::RhsLength {
                expected: 4,
                got: 2
            })
        ));
    }

    /// The lane-major acceptance pass is, lane by lane, bitwise the scalar
    /// normwise backward error — with exact, degenerate-square (tiny and
    /// huge) and non-finite candidates.
    #[test]
    fn lane_backward_errors_are_the_scalar_rule() {
        let build = |s: f64| {
            let mut t = TripletMatrix::<Complex64>::new(4, 4);
            for i in 0..4 {
                t.push(i, i, Complex64::new(3.0 * s, 0.5 + i as f64));
                if i + 1 < 4 {
                    t.push(i, i + 1, Complex64::new(-1.0, 0.25 * s));
                    t.push(i + 1, i, Complex64::new(0.75 * s, -0.5));
                }
            }
            t.to_csr()
        };
        let scales = [1.0, 1.0e-160, 1.0e155, 0.5, 2.0];
        let matrices: Vec<CsrMatrix<Complex64>> = scales.iter().map(|&s| build(s)).collect();
        let (_, symbolic) = factor_symbolic(&matrices[0]);
        let width = scales.len() + 1;
        let mut values = LanePlanes::new(matrices[0].nnz(), width);
        for (w, m) in matrices.iter().enumerate() {
            values.load_lane(w, m.values());
        }
        let mut batched = BatchedLu::new(&symbolic, width);
        batched.refactor_lanes(&matrices[0], &values, scales.len());
        let rhs: Vec<Vec<Complex64>> = (0..width)
            .map(|w| {
                (0..4)
                    .map(|i| Complex64::new(i as f64 - w as f64, 1.0))
                    .collect()
            })
            .collect();
        let b = lane_planes(&rhs, width);
        let mut x = LanePlanes::new(4, width);
        batched.solve_lanes(&b, &mut x).unwrap();
        // Perturb some candidates: a rounding-level nudge, a NaN.
        x.set(1, 3, x.get(1, 3) * Complex64::new(1.0 + 1.0e-9, 0.0));
        x.set(2, 4, Complex64::new(f64::NAN, 0.0));
        let mut errors = vec![0.0; scales.len()];
        batched.backward_errors(&matrices[0], &values, &x, &b, &mut errors);
        for (w, m) in matrices.iter().enumerate() {
            let xw: Vec<Complex64> = (0..4).map(|i| x.get(i, w)).collect();
            let mut residual = vec![Complex64::ZERO; 4];
            let want = normwise_backward_error(m, &xw, &rhs[w], &mut residual);
            assert_eq!(
                errors[w].to_bits(),
                want.to_bits(),
                "lane {w}: {} vs {want}",
                errors[w]
            );
        }
        assert_eq!(errors[4], f64::INFINITY);
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
