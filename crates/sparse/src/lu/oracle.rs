//! Test oracle of the compiled refactorization and of the one-time
//! analysis.
//!
//! * The scatter/gather refactorizations (scalar and batched) the op lists
//!   replaced, kept verbatim in their arithmetic, and the properties that
//!   pin the compiled paths to them bit for bit — factor values, lane
//!   statuses and the recorded `‖A‖∞` — on random patterns with BTF blocks,
//!   fill-in, exact-zero multipliers, non-finite entries, pivots straddling
//!   both pivot thresholds, off-pattern input and wrong dimensions. Their
//!   pivot checks apply the refactorization's pivot rule as its definition
//!   reads ([`pivot_rule`]).
//! * The one-time analysis the near-linear versions replaced, kept
//!   verbatim: the `BTreeSet` minimum-degree ordering, the fresh
//!   factorization by full-row merges over a scan of the active rows, and
//!   the op-list, scatter-map and selected-inversion index builds by a
//!   binary search per lookup. A property pins orders, patterns, factor
//!   values, errors and index arrays to them on random square matrices.

use super::selinv::{DiagEntry, InverseIndex};
use super::{
    column_max_moduli_into, compiled, norm_inf, BatchLaneStatus, BatchedLu, LanePlanes, LuPattern,
    RefactorFailure, SolveError, SparseLu, ORDERED_PIVOT_THRESHOLD, REFACTOR_PIVOT_RELATIVE,
    SINGULARITY_RELATIVE,
};
use crate::csr::CsrMatrix;
use crate::scalar::Scalar;
use crate::triplet::TripletMatrix;
use loopscope_math::Complex64;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

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

/// Whether every square of `vals` is normal or an exact zero's.
fn squares_exact<T: Scalar>(vals: &[T]) -> bool {
    vals.iter()
        .all(|v| v.modulus_sqr().is_normal() || v.is_zero())
}

/// The largest `f(v)` over `vals`, 0 when empty.
fn largest<T: Scalar>(vals: &[T], f: impl Fn(T) -> f64) -> f64 {
    vals.iter().map(|&v| f(v)).fold(0.0f64, f64::max)
}

/// The refactorization's pivot rule as its definition reads: the pivot,
/// the first entry of its `U` row `row`, is degraded when it is not above
/// `1e-14` times the largest modulus of `column`, its column's input
/// entries, or is below `1e-8` times the row's largest modulus. The test
/// runs on squares — `|p|² ≤ fl(q·fl(1e-14·1e-14))` with `q` the column's
/// largest square, `|p|² < fl(1e-8·1e-8)·max|u|²` — when every square of
/// the input (`input_exact`) and of the row is normal or an exact zero's
/// and `q` is zero or at least `1e-276`; otherwise on exact moduli, where a
/// non-finite pivot is degraded too.
fn pivot_rule<T: Scalar>(row: &[T], column: &[T], input_exact: bool) -> bool {
    let pivot = row[0];
    let q = largest(column, T::modulus_sqr);
    if input_exact && squares_exact(row) && (q == 0.0 || q >= 1.0e-276) {
        let sqr = |r: f64| r * r;
        let p2 = pivot.modulus_sqr();
        p2 <= q * sqr(SINGULARITY_RELATIVE)
            || p2 < sqr(REFACTOR_PIVOT_RELATIVE) * largest(row, T::modulus_sqr)
    } else {
        !pivot.is_finite()
            || pivot.modulus() <= SINGULARITY_RELATIVE * largest(column, T::modulus)
            || pivot.modulus() < REFACTOR_PIVOT_RELATIVE * largest(row, T::modulus)
    }
}

/// The input entries of every elimination column of `matrix`, or its first
/// non-finite entry in row-major order.
fn input_columns<T: Scalar>(
    pattern: &LuPattern,
    matrix: &CsrMatrix<T>,
) -> Result<Vec<Vec<T>>, SolveError> {
    let mut columns = vec![Vec::new(); matrix.cols()];
    for (row, col, v) in matrix.iter() {
        if !v.is_finite() {
            return Err(SolveError::NonFinite { row, col });
        }
        columns[pattern.cpos[col]].push(v);
    }
    Ok(columns)
}

/// The scalar scatter/gather refactorization: a dense work row per
/// elimination step, marked with the row's pattern, the input row scattered
/// into it, left-looking updates against the finished `U` rows, then the
/// `L`, `U` and `F` values gathered. Returns the outcome (`‖A‖∞` on
/// success) and the factor values in the `L | U | F` slot order (partial on
/// failure).
fn refactor_scalar<T: Scalar>(
    pattern: &LuPattern,
    matrix: &CsrMatrix<T>,
) -> (Result<f64, RefactorFailure>, Vec<T>) {
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
        let columns = input_columns(pattern, matrix).map_err(RefactorFailure::Hard)?;
        let input_exact = squares_exact(matrix.values());
        let mut work = vec![T::ZERO; n];
        let mut marked = vec![usize::MAX; n];
        for (i, column) in columns.iter().enumerate() {
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
            u_vals.extend(pattern.u_cols[u_range].iter().map(|&c| work[c]));
            for s in f_range {
                f_vals.push(work[pattern.f_cols[s]]);
            }
            if pivot_rule(&u_vals[diag_at..], column, input_exact) {
                return Err(RefactorFailure::Degraded);
            }
        }
        Ok(norm_inf(matrix))
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
    let mut columns = vec![Vec::new(); wdt];
    let mut input_exact = vec![false; wdt];
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
        match input_columns(p, matrix) {
            Ok(lane) => {
                columns[w] = lane;
                input_exact[w] = squares_exact(matrix.values());
            }
            Err(e) => {
                statuses[w] = BatchLaneStatus::Failed(e);
                live[w] = false;
            }
        }
    }
    // Elimination steps; each lane's `columns[w]` is read only by its
    // pivot check.
    #[allow(clippy::needless_range_loop)]
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
        for w in 0..wdt {
            if !live[w] {
                continue;
            }
            let row: Vec<T> = u_range.clone().map(|s| u_vals[s * wdt + w]).collect();
            if pivot_rule(&row, &columns[w][i], input_exact[w]) {
                statuses[w] = BatchLaneStatus::Degraded;
                live[w] = false;
            }
        }
    }
    l_vals.extend(u_vals);
    l_vals.extend(f_vals);
    (statuses, l_vals)
}

// ---------------------------------------------------------------------------
// The one-time analysis: fresh factorization, ordering and index builds.
// ---------------------------------------------------------------------------

/// The minimum-degree ordering over `BTreeSet` adjacency that
/// [`crate::ordering::min_degree_order`] replaced: an `O(n)` selection scan
/// per step and set inserts for the clique.
fn min_degree_order_by_sets<T: Scalar>(matrix: &CsrMatrix<T>) -> Vec<usize> {
    assert_eq!(
        matrix.rows(),
        matrix.cols(),
        "fill-reducing ordering requires a square matrix"
    );
    let n = matrix.rows();
    // Adjacency of A + Aᵀ, diagonal excluded.
    let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for r in 0..n {
        for &c in matrix.row_pattern(r) {
            if r != c {
                adj[r].insert(c);
                adj[c].insert(r);
            }
        }
    }

    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        // Smallest degree, smallest index on ties: deterministic and cheap.
        let mut pivot = usize::MAX;
        let mut pivot_deg = usize::MAX;
        for (v, nbrs) in adj.iter().enumerate() {
            if !eliminated[v] && nbrs.len() < pivot_deg {
                pivot_deg = nbrs.len();
                pivot = v;
            }
        }
        debug_assert!(pivot < n, "selection must find an uneliminated vertex");
        eliminated[pivot] = true;
        order.push(pivot);

        // Eliminating `pivot` connects its remaining neighbours into a
        // clique; `pivot` itself leaves the graph.
        let nbrs: Vec<usize> = adj[pivot].iter().copied().collect();
        for &u in &nbrs {
            adj[u].remove(&pivot);
        }
        for (i, &u) in nbrs.iter().enumerate() {
            for &w in &nbrs[i + 1..] {
                adj[u].insert(w);
                adj[w].insert(u);
            }
        }
        adj[pivot].clear();
    }
    order
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
    /// The fresh factorization [`SparseLu::factor`] replaced: per-block
    /// triplet → CSR copies, a scan of the whole active list per pivot
    /// column, and a full-row `merge_sub` copy per row update.
    fn factor_by_merge(matrix: &CsrMatrix<T>) -> Result<Self, SolveError> {
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
            let order = min_degree_order_by_sets(matrix);
            return Self::factor_block_by_merge(matrix, &order);
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
            let order = min_degree_order_by_sets(&local);
            let block_lu =
                Self::factor_block_by_merge(&local, &order).map_err(|err| match err {
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
    fn factor_block_by_merge(
        matrix: &CsrMatrix<T>,
        col_order: &[usize],
    ) -> Result<Self, SolveError> {
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
            let (active_idx, pivot_mod) = Self::select_by_scan(&rows, &active, k, cperm[k])
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
            a_norm_inf: norm_inf(matrix),
        })
    }

    /// KLU-style pivot selection for the ordered factorization at step `k`:
    /// the row the ordering prefers (`preferred_row`, the symmetric-diagonal
    /// choice) wins while its modulus stays within
    /// [`ORDERED_PIVOT_THRESHOLD`] of the best candidate; otherwise the
    /// shortest (least fill-producing) candidate above the threshold wins,
    /// with modulus and then row index breaking ties deterministically.
    fn select_by_scan(
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
}

/// The binary-search slot lookup the row marker replaced: the factor slot
/// of entry `(step i, elimination column c)`, if the
/// pattern stores it: an `L` slot left of the diagonal, else a `U` slot
/// within the block, else an `F` slot in a later block.
fn slot_of(p: &LuPattern, i: usize, c: usize) -> Option<usize> {
    let find = |ptr: &[usize], cols: &[usize]| {
        cols[ptr[i]..ptr[i + 1]]
            .binary_search(&c)
            .ok()
            .map(|t| ptr[i] + t)
    };
    let nl = p.l_cols.len();
    if c < i {
        return find(&p.l_ptr, &p.l_cols);
    }
    find(&p.u_ptr, &p.u_cols)
        .map(|t| nl + t)
        .or_else(|| find(&p.f_ptr, &p.f_cols).map(|t| nl + p.u_cols.len() + t))
}

/// [`compiled::Program::build`] by a binary search per update.
fn program_by_search(p: &LuPattern) -> compiled::Program {
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
    for i in 0..p.n {
        for t in p.l_ptr[i]..p.l_ptr[i + 1] {
            let k = p.l_cols[t];
            let row = (p.u_ptr[k] + 1)..p.u_ptr[k + 1];
            ops.push(compiled::ElimOp {
                pivot: (nl + p.u_ptr[k]) as u32,
                count: row.len() as u32,
            });
            dst.extend(p.u_cols[row].iter().map(|&c| {
                slot_of(p, i, c).expect("LU pattern must be closed under elimination") as u32
            }));
        }
    }
    compiled::Program { ops, dst }
}

/// [`compiled::ScatterMap::build`] by a binary search per entry.
fn scatter_by_search<T: Scalar>(
    p: &LuPattern,
    matrix: &CsrMatrix<T>,
    keyed: bool,
) -> compiled::ScatterMap {
    let (row_ptr, col_idx, _) = matrix.parts();
    let nl = p.l_cols.len();
    // Elimination step of every original row (the inverse of `perm`).
    let mut ppos = vec![0usize; p.n];
    for (k, &r) in p.perm.iter().enumerate() {
        ppos[r] = k;
    }
    let mut mismatch: Option<usize> = None;
    let mut slot = Vec::with_capacity(col_idx.len());
    for (r, &i) in ppos.iter().enumerate() {
        for &c in &col_idx[row_ptr[r]..row_ptr[r + 1]] {
            let s = slot_of(p, i, p.cpos[c]).unwrap_or_else(|| {
                mismatch = Some(mismatch.map_or(i, |m| m.min(i)));
                nl + p.u_ptr[i]
            });
            slot.push(s as u32);
        }
    }
    compiled::ScatterMap {
        row_ptr: if keyed { row_ptr.to_vec() } else { Vec::new() },
        col_idx: if keyed { col_idx.to_vec() } else { Vec::new() },
        slot,
        mismatch,
    }
}

/// [`InverseIndex::build`] by a binary search per product.
fn inverse_by_search(p: &LuPattern) -> InverseIndex {
    let n = p.n;
    let n_l = p.l_cols.len();
    assert!(
        u32::try_from(n_l + p.u_cols.len()).is_ok(),
        "selected inversion supports at most u32::MAX factor entries"
    );
    // Slot of pattern entry (row r, col c) of L+U; rows are ascending
    // in L and (diagonal first) in U.
    let slot = |r: usize, c: usize| -> Option<usize> {
        if c < r {
            let cols = &p.l_cols[p.l_ptr[r]..p.l_ptr[r + 1]];
            cols.binary_search(&c).ok().map(|t| p.l_ptr[r] + t)
        } else {
            let cols = &p.u_cols[p.u_ptr[r]..p.u_ptr[r + 1]];
            cols.binary_search(&c).ok().map(|t| n_l + p.u_ptr[r] + t)
        }
    };
    let closed = |r: usize, c: usize| {
        slot(r, c).expect("LU pattern must be closed under elimination") as u32
    };

    // Transpose of the L pattern, keeping each entry's row.
    let mut lt_ptr = vec![0usize; n + 1];
    for &c in &p.l_cols {
        lt_ptr[c + 1] += 1;
    }
    for i in 0..n {
        lt_ptr[i + 1] += lt_ptr[i];
    }
    let mut next = lt_ptr.clone();
    let mut lt_slot = vec![0usize; n_l];
    let mut lt_row = vec![0usize; n_l];
    for j in 0..n {
        for t in p.l_ptr[j]..p.l_ptr[j + 1] {
            let s = &mut next[p.l_cols[t]];
            lt_slot[*s] = t;
            lt_row[*s] = j;
            *s += 1;
        }
    }

    // The source list holds Σᵢ |L column i|·|U row i off-diagonal|
    // products; sizing it exactly keeps growth from doubling the peak
    // memory of the build.
    let products = (0..n)
        .map(|i| (lt_ptr[i + 1] - lt_ptr[i]) * (p.u_ptr[i + 1] - p.u_ptr[i] - 1))
        .sum();
    let mut upper_ptr = Vec::with_capacity(n_l + 1);
    let mut upper_src = Vec::with_capacity(products);
    upper_ptr.push(0);
    for i in 0..n {
        let u_off = &p.u_cols[p.u_ptr[i] + 1..p.u_ptr[i + 1]];
        for &j in &lt_row[lt_ptr[i]..lt_ptr[i + 1]] {
            upper_src.extend(u_off.iter().map(|&k| closed(j, k)));
            upper_ptr.push(upper_src.len());
        }
    }

    // (A⁻¹)_vv = Z[cpos[v]][ppos[v]], stored at pattern entry
    // (ppos[v], cpos[v]) when both steps share a block.
    let mut ppos = vec![0usize; n];
    for (k, &r) in p.perm.iter().enumerate() {
        ppos[r] = k;
    }
    let mut block_of = vec![0usize; n];
    for b in 0..p.block_ptr.len() - 1 {
        block_of[p.block_ptr[b]..p.block_ptr[b + 1]].fill(b);
    }
    let diag = (0..n)
        .map(|v| {
            let (a, c) = (p.cpos[v], ppos[v]);
            match slot(c, a) {
                Some(z) => DiagEntry::Slot(z),
                None if block_of[a] > block_of[c] => DiagEntry::Zero,
                None => DiagEntry::Unselected,
            }
        })
        .collect();
    InverseIndex {
        lt_ptr,
        lt_slot,
        upper_ptr,
        upper_src,
        diag,
    }
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

    let mut scan = compiled::ColumnScan::for_dim(0);
    let mut vals = Vec::new();
    for (k, m) in variants.iter().enumerate() {
        let want = refactor_scalar(p, m);
        let got = compiled::refactor(p, m, &mut scan, &mut vals);
        match (&want.0, &got) {
            (Ok(a), Ok(b)) => {
                if a.to_bits() != b.to_bits() {
                    return Err(format!("variant {k}: ‖A‖∞ {a:?} vs {b:?}"));
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

/// Exact bit patterns of a value slice (`NaN` payloads and signed zeros
/// included).
fn exact_bits<T: Scalar>(v: &[T]) -> Vec<(u64, u64)> {
    v.iter()
        .map(|x| (x.re().to_bits(), x.im().to_bits()))
        .collect()
}

/// Whether two fresh factorizations are identical: every pattern array,
/// every factor value and the recorded `‖A‖∞`, bit for bit.
fn same_factorization<T: Scalar>(want: &SparseLu<T>, got: &SparseLu<T>) -> Result<(), String> {
    let (a, b) = (&*want.pattern, &*got.pattern);
    let arrays = [
        ("perm", &a.perm, &b.perm),
        ("cperm", &a.cperm, &b.cperm),
        ("cpos", &a.cpos, &b.cpos),
        ("l_ptr", &a.l_ptr, &b.l_ptr),
        ("l_cols", &a.l_cols, &b.l_cols),
        ("u_ptr", &a.u_ptr, &b.u_ptr),
        ("u_cols", &a.u_cols, &b.u_cols),
        ("block_ptr", &a.block_ptr, &b.block_ptr),
        ("f_ptr", &a.f_ptr, &b.f_ptr),
        ("f_cols", &a.f_cols, &b.f_cols),
    ];
    for (name, x, y) in arrays {
        if x != y {
            return Err(format!("{name}: {x:?} vs {y:?}"));
        }
    }
    if a.n != b.n || exact_bits(&want.vals) != exact_bits(&got.vals) {
        return Err(format!("factor values {:?} vs {:?}", want.vals, got.vals));
    }
    if want.a_norm_inf.to_bits() != got.a_norm_inf.to_bits() || want.refactored != got.refactored {
        return Err("recorded ‖A‖∞ differs".to_string());
    }
    Ok(())
}

/// A random square matrix of dimension at most 60 for the one-time
/// analysis: a symmetric or unsymmetric pattern; diagonals healthy, tiny
/// (a threshold swap, or a pivot below the singularity rule), zero or
/// missing; values from a continuous range, from small dyadic numbers
/// (exact cancellation to signed zeros, exact-zero multipliers) or now and
/// then near the overflow threshold (∞ and NaN produced mid-elimination);
/// and sometimes an empty row or column (structurally singular).
fn analysis_matrix<T: Sample>(rng: &mut Rng) -> CsrMatrix<T> {
    const DYADIC: [f64; 10] = [1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 0.25, 4.0, 0.0, -0.0];
    let n = 1 + rng.below(60);
    let density = 1 + rng.below(20);
    let symmetric = rng.chance(50);
    let values = rng.below(3);
    let diagonals = rng.below(5);
    let empty = rng.chance(10).then(|| (rng.below(n), rng.chance(50)));
    let part = |rng: &mut Rng| match values {
        0 => rng.value(),
        1 => DYADIC[rng.below(DYADIC.len())],
        _ if rng.chance(15) => 1.0e300 * rng.value(),
        _ => DYADIC[rng.below(DYADIC.len())],
    };
    let value = |rng: &mut Rng| {
        let re = part(rng);
        let im = if rng.chance(50) { part(rng) } else { 0.0 };
        T::sample(re, im)
    };
    let mut t = TripletMatrix::new(n, n);
    for r in 0..n {
        for c in 0..n {
            if let Some((k, row)) = empty {
                if (row && r == k) || (!row && c == k) {
                    continue;
                }
            }
            if r == c {
                let d = match diagonals {
                    0 => Some(T::sample(8.0 + 4.0 * rng.value().abs(), 0.0)),
                    1 => {
                        let tiny = [1.0e-6, 1.0e-17][rng.below(2)];
                        Some(T::sample(tiny * rng.value(), 0.0))
                    }
                    2 => rng.chance(50).then(|| value(rng)),
                    3 => Some(if rng.chance(30) { T::ZERO } else { value(rng) }),
                    _ => Some(value(rng)),
                };
                if let Some(d) = d {
                    t.push(r, c, d);
                }
            } else if (!symmetric || r < c) && rng.chance(density) {
                t.push(r, c, value(rng));
                if symmetric {
                    t.push(c, r, value(rng));
                }
            }
        }
    }
    t.to_csr()
}

/// The one-time analysis against its oracle on one random matrix: the
/// minimum-degree order; the fresh factorization — pattern arrays, factor
/// values and `‖A‖∞` bitwise, or the same error (variant and index); and
/// over a successful pattern the op lists, the scatter maps of the matrix
/// (keyed and throwaway) and of a structure with one more entry, and the
/// selected-inversion index.
fn check_analysis<T: Sample>(seed: u64) -> Result<(), String> {
    let mut rng = Rng(seed);
    let m: CsrMatrix<T> = analysis_matrix(&mut rng);
    let order = crate::ordering::min_degree_order(&m);
    if order != min_degree_order_by_sets(&m) {
        return Err(format!("min-degree order {order:?}"));
    }
    let (want, got) = match (SparseLu::factor_by_merge(&m), SparseLu::factor(&m)) {
        (Ok(want), Ok(got)) => (want, got),
        (Err(want), Err(got)) if want == got => return Ok(()),
        (want, got) => {
            return Err(format!("outcome {:?} vs {:?}", want.err(), got.err()));
        }
    };
    same_factorization(&want, &got)?;
    let p = &*got.pattern;
    if compiled::Program::build(p) != program_by_search(p) {
        return Err("op lists differ".to_string());
    }
    let n = m.rows();
    let (r, c) = (rng.below(n), rng.below(n));
    let mut wider = TripletMatrix::new(n, n);
    for (i, j, v) in m.iter() {
        wider.push(i, j, v);
    }
    wider.push(r, c, T::ONE);
    for structure in [&m, &wider.to_csr()] {
        for keyed in [false, true] {
            if compiled::ScatterMap::build(p, structure, keyed)
                != scatter_by_search(p, structure, keyed)
            {
                return Err(format!("scatter maps differ (keyed {keyed})"));
            }
        }
    }
    if InverseIndex::build(p) != inverse_by_search(p) {
        return Err("selected-inversion index differs".to_string());
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

        #[test]
        fn real_analysis_is_the_oracle_analysis(seed in 0u64..u64::MAX) {
            check_analysis::<f64>(seed)?;
        }

        #[test]
        fn complex_analysis_is_the_oracle_analysis(seed in 0u64..u64::MAX) {
            check_analysis::<Complex64>(seed)?;
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
        let j = (0..n).find(|&j| slot_of(p, 2, j).is_none()).unwrap();
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
    let mut scan = compiled::ColumnScan::for_dim(0);
    let mut vals = Vec::new();
    for m in &lanes {
        let want = refactor_scalar(p, m).0;
        let got = compiled::refactor(p, m, &mut scan, &mut vals);
        assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
    }
}

/// A pivot a few ulps either side of `1e-14` times its column scale
/// decides exactly as the oracle's pivot rule, in both arithmetic fields.
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
            let mut scan = compiled::ColumnScan::for_dim(0);
            let mut vals = Vec::new();
            let got = compiled::refactor(&symbolic.pattern, &m, &mut scan, &mut vals);
            assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "ulps {ulps}, complex {complex}"
            );
        }
    }
}
