//! Block-triangular form (BTF) analysis of an unsymmetric sparsity pattern.
//!
//! KLU's first structural move — before any ordering or pivoting — is to
//! permute the matrix to **block upper-triangular form**: row and column
//! permutations `P`, `Q` such that `P·A·Q` has square diagonal blocks with
//! all remaining entries strictly *above* them. Each diagonal block can then
//! be factored independently (fill never crosses a block boundary) and the
//! off-diagonal entries are used raw by a block back-substitution — for
//! circuits with one-directional signal flow (cascaded stages, buffered
//! sub-circuits, bias cells driving a core) this turns one big factorization
//! into many small ones.
//!
//! The analysis is the textbook two-phase construction:
//!
//! 1. **Maximum transversal** (Duff's MC21): an augmenting-path bipartite
//!    matching pairs every column with a row holding a structural entry in
//!    it, i.e. a row permutation giving a zero-free diagonal. A deficient
//!    matching means the matrix is **structurally singular** — no values
//!    over this pattern can ever be factored — reported as
//!    [`SolveError::Singular`] carrying the original column index.
//! 2. **Tarjan's strongly connected components** on the directed graph the
//!    matched pattern induces on the columns (edge `c → c'` when the row
//!    matched to `c` holds an entry in column `c'`). Each SCC is one
//!    diagonal block; emitting the components in topological order makes
//!    every cross-block entry point from an earlier block's row into a
//!    later block's column — block *upper*-triangular form.
//!
//! Both phases are purely structural (values are never read); every fresh
//! [`SparseLu::factor`] computes them, and the [`SymbolicLu`] it records
//! carries the result to every refactorization over the pattern. Within each
//! block the rows and columns are sorted
//! ascending by original index, so an **irreducible matrix degenerates to a
//! single block with identity permutations** and [`SparseLu::factor`]
//! becomes exactly one minimum-degree ordered, threshold-pivoted
//! factorization of the whole matrix.
//!
//! [`SolveError::Singular`]: crate::SolveError::Singular
//! [`SparseLu::factor`]: crate::SparseLu::factor
//! [`SymbolicLu`]: crate::SymbolicLu
//!
//! # Example
//!
//! ```
//! use loopscope_sparse::{btf, TripletMatrix};
//!
//! // A 2-block cascade: unknowns {0,1} are strongly coupled, unknown {2}
//! // reads their output but nothing feeds back into it.
//! let mut t = TripletMatrix::<f64>::new(3, 3);
//! t.push(0, 0, 2.0);
//! t.push(0, 1, 1.0);
//! t.push(1, 0, 1.0);
//! t.push(1, 1, 3.0);
//! t.push(2, 0, 1.0); // one-way coupling: row 2 reads column 0
//! t.push(2, 2, 4.0);
//! let form = btf::analyze(&t.to_csr())?;
//! // Row 2's block must precede {0, 1} so the coupling entry sits above
//! // the diagonal blocks.
//! assert_eq!(form.block_count(), 2);
//! assert_eq!(&form.col_perm()[form.block_range(0)], &[2]);
//! # Ok::<(), loopscope_sparse::SolveError>(())
//! ```

use crate::csr::CsrMatrix;
use crate::lu::SolveError;
use crate::scalar::Scalar;

/// A block upper-triangular permutation of a square sparsity pattern,
/// computed by [`analyze`].
///
/// `row_perm[k]` / `col_perm[k]` name the original row/column at BTF
/// position `k`; `block_ptr` holds the positions where diagonal blocks
/// begin and end (`block_ptr[b]..block_ptr[b + 1]` is block `b`). Every
/// stored entry of the permuted matrix lies in a diagonal block or strictly
/// above it — never below.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Btf {
    row_perm: Vec<usize>,
    col_perm: Vec<usize>,
    block_ptr: Vec<usize>,
}

impl Btf {
    /// Number of diagonal blocks.
    pub fn block_count(&self) -> usize {
        self.block_ptr.len() - 1
    }

    /// `true` when the pattern is irreducible: one block covering the whole
    /// matrix, with identity permutations — BTF adds nothing over a plain
    /// fill-reducing factorization in that case.
    pub fn is_single_block(&self) -> bool {
        self.block_count() <= 1
    }

    /// The BTF-position range of diagonal block `b`.
    ///
    /// # Panics
    ///
    /// Panics when `b >= self.block_count()`.
    pub fn block_range(&self, b: usize) -> std::ops::Range<usize> {
        self.block_ptr[b]..self.block_ptr[b + 1]
    }

    /// The row permutation: element `k` is the original row at BTF position
    /// `k`. Within each block, rows are sorted ascending by original index,
    /// so a single-block result is the identity.
    pub fn row_perm(&self) -> &[usize] {
        &self.row_perm
    }

    /// The column permutation, same conventions as [`row_perm`](Btf::row_perm).
    pub fn col_perm(&self) -> &[usize] {
        &self.col_perm
    }

    /// Block boundaries in BTF positions: `block_ptr()[b]..block_ptr()[b+1]`
    /// spans diagonal block `b`; the slice has `block_count() + 1` entries.
    pub fn block_ptr(&self) -> &[usize] {
        &self.block_ptr
    }
}

/// Computes the block upper-triangular form of a square sparsity pattern:
/// a maximum transversal (zero-free diagonal) followed by Tarjan's SCC on
/// the matched column graph. Values are never read — only the pattern.
///
/// # Errors
///
/// Returns [`SolveError::NotSquare`] for rectangular input and
/// [`SolveError::Singular`] (carrying the **original column index**) when
/// the pattern is structurally singular, i.e. no perfect row/column
/// matching exists and no assignment of values could make the matrix
/// invertible.
pub fn analyze<T: Scalar>(matrix: &CsrMatrix<T>) -> Result<Btf, SolveError> {
    let n = matrix.rows();
    if matrix.cols() != n {
        return Err(SolveError::NotSquare {
            rows: n,
            cols: matrix.cols(),
        });
    }
    let row_of_col = maximum_transversal(matrix)?;
    let (col_perm, block_ptr) = tarjan_blocks(matrix, &row_of_col);
    // Within each block sort rows ascending, mirroring the ascending column
    // order `tarjan_blocks` produced: deterministic, and the single-block
    // case degenerates to identity permutations on both sides.
    let mut row_perm = Vec::with_capacity(n);
    for b in 0..block_ptr.len() - 1 {
        let start = row_perm.len();
        row_perm.extend(
            col_perm[block_ptr[b]..block_ptr[b + 1]]
                .iter()
                .map(|&c| row_of_col[c]),
        );
        row_perm[start..].sort_unstable();
    }
    Ok(Btf {
        row_perm,
        col_perm,
        block_ptr,
    })
}

/// Maximum bipartite matching of rows to columns over the structural
/// pattern (MC21-style augmenting paths, iterative so deep chains cannot
/// overflow the stack). Returns `row_of_col`: the row matched to each
/// column.
///
/// # Errors
///
/// Returns [`SolveError::Singular`] with the first unmatched original
/// column when no perfect matching exists.
fn maximum_transversal<T: Scalar>(matrix: &CsrMatrix<T>) -> Result<Vec<usize>, SolveError> {
    const UNMATCHED: usize = usize::MAX;
    let n = matrix.rows();
    let mut row_of_col = vec![UNMATCHED; n];
    let mut col_of_row = vec![UNMATCHED; n];
    // visited[c] == stamp of the current augmentation ⇒ column already
    // explored on this path; stamps replace an O(n) clear per start row.
    let mut visited = vec![UNMATCHED; n];
    // DFS frames: (row, next edge index, column that led into this row —
    // UNMATCHED for the root of the augmenting path).
    let mut frames: Vec<(usize, usize, usize)> = Vec::new();
    for start in 0..n {
        if col_of_row[start] != UNMATCHED {
            continue;
        }
        let stamp = start;
        frames.clear();
        frames.push((start, 0, UNMATCHED));
        while let Some(&(row, edge, _)) = frames.last() {
            let pattern = matrix.row_pattern(row);
            if edge >= pattern.len() {
                frames.pop();
                continue;
            }
            frames.last_mut().expect("frame present").1 += 1;
            let col = pattern[edge];
            if visited[col] == stamp {
                continue;
            }
            visited[col] = stamp;
            let owner = row_of_col[col];
            if owner == UNMATCHED {
                // Free column: flip the matching along the whole path.
                row_of_col[col] = row;
                col_of_row[row] = col;
                for i in (1..frames.len()).rev() {
                    let via = frames[i].2;
                    let prev = frames[i - 1].0;
                    row_of_col[via] = prev;
                    col_of_row[prev] = via;
                }
                break;
            }
            frames.push((owner, 0, col));
        }
    }
    match row_of_col.iter().position(|&r| r == UNMATCHED) {
        Some(col) => Err(SolveError::Singular(col)),
        None => Ok(row_of_col),
    }
}

/// Tarjan's strongly connected components (iterative) on the matched column
/// graph: edge `c → c'` for every entry of row `row_of_col[c]` in column
/// `c' != c`. Returns the column permutation (components concatenated in
/// topological order, each sorted ascending) and the block boundaries.
fn tarjan_blocks<T: Scalar>(
    matrix: &CsrMatrix<T>,
    row_of_col: &[usize],
) -> (Vec<usize>, Vec<usize>) {
    const UNVISITED: usize = usize::MAX;
    let n = row_of_col.len();
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut scc_stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    // Components in Tarjan emission order: every successor component is
    // emitted before its predecessors, i.e. REVERSE topological order.
    let mut components: Vec<Vec<usize>> = Vec::new();
    let mut call: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        scc_stack.push(root);
        on_stack[root] = true;
        call.push((root, 0));
        while let Some(&(v, edge)) = call.last() {
            let pattern = matrix.row_pattern(row_of_col[v]);
            if edge < pattern.len() {
                call.last_mut().expect("frame present").1 += 1;
                let w = pattern[edge];
                if w == v {
                    continue;
                }
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    scc_stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            call.pop();
            if let Some(&(parent, _)) = call.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                let mut component = Vec::new();
                loop {
                    let w = scc_stack.pop().expect("SCC stack holds the component");
                    on_stack[w] = false;
                    component.push(w);
                    if w == v {
                        break;
                    }
                }
                components.push(component);
            }
        }
    }
    // Topological order (edges pointing to LATER blocks = upper-triangular
    // form) is the reverse of Tarjan's emission order.
    components.reverse();
    let mut col_perm = Vec::with_capacity(n);
    let mut block_ptr = Vec::with_capacity(components.len() + 1);
    block_ptr.push(0);
    for mut component in components {
        component.sort_unstable();
        col_perm.extend(component);
        block_ptr.push(col_perm.len());
    }
    (col_perm, block_ptr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;

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

    fn is_permutation(p: &[usize], n: usize) -> bool {
        let mut seen = vec![false; n];
        p.len() == n
            && p.iter().all(|&v| {
                if v >= n || seen[v] {
                    false
                } else {
                    seen[v] = true;
                    true
                }
            })
    }

    /// No entry of the permuted matrix may fall below its diagonal block.
    fn assert_block_upper(matrix: &CsrMatrix<f64>, form: &Btf) {
        let n = matrix.rows();
        let mut rpos = vec![0usize; n];
        let mut cpos = vec![0usize; n];
        for (k, &r) in form.row_perm().iter().enumerate() {
            rpos[r] = k;
        }
        for (k, &c) in form.col_perm().iter().enumerate() {
            cpos[c] = k;
        }
        let block_of = |pos: usize| {
            (0..form.block_count())
                .find(|&b| form.block_range(b).contains(&pos))
                .expect("position inside some block")
        };
        for (r, c, _) in matrix.iter() {
            assert!(
                block_of(rpos[r]) <= block_of(cpos[c]),
                "entry ({r}, {c}) falls below its diagonal block"
            );
        }
    }

    #[test]
    fn diagonal_matrix_is_all_singleton_blocks() {
        let m = csr_from_dense(&[&[1.0, 0.0, 0.0], &[0.0, 2.0, 0.0], &[0.0, 0.0, 3.0]]);
        let form = analyze(&m).unwrap();
        assert_eq!(form.block_count(), 3);
        assert!(is_permutation(form.row_perm(), 3));
        assert!(is_permutation(form.col_perm(), 3));
        assert_block_upper(&m, &form);
    }

    #[test]
    fn irreducible_matrix_degenerates_to_identity_single_block() {
        // Tridiagonal: strongly connected, one block, identity permutations.
        let m = csr_from_dense(&[&[2.0, 1.0, 0.0], &[1.0, 2.0, 1.0], &[0.0, 1.0, 2.0]]);
        let form = analyze(&m).unwrap();
        assert!(form.is_single_block());
        assert_eq!(form.row_perm(), &[0, 1, 2]);
        assert_eq!(form.col_perm(), &[0, 1, 2]);
        assert_eq!(form.block_ptr(), &[0, 3]);
    }

    #[test]
    fn triangular_matrix_splits_into_singletons() {
        let m = csr_from_dense(&[&[1.0, 5.0, 5.0], &[0.0, 2.0, 5.0], &[0.0, 0.0, 3.0]]);
        let form = analyze(&m).unwrap();
        assert_eq!(form.block_count(), 3);
        assert_block_upper(&m, &form);
    }

    #[test]
    fn one_way_cascade_splits_into_blocks() {
        // Two strongly coupled 2x2 cells; cell {2,3} reads cell {0,1}'s
        // output but never the reverse — exactly a buffered circuit cascade.
        let m = csr_from_dense(&[
            &[2.0, 1.0, 0.0, 0.0],
            &[1.0, 3.0, 0.0, 0.0],
            &[1.0, 0.0, 2.0, 1.0],
            &[0.0, 0.0, 1.0, 3.0],
        ]);
        let form = analyze(&m).unwrap();
        assert_eq!(form.block_count(), 2);
        assert_block_upper(&m, &form);
        // Rows {2,3} read columns {0,1}: block {2,3} must come first so the
        // coupling entries sit ABOVE the diagonal blocks.
        assert_eq!(&form.col_perm()[form.block_range(0)], &[2, 3]);
        assert_eq!(&form.col_perm()[form.block_range(1)], &[0, 1]);
    }

    #[test]
    fn matching_survives_zero_diagonal() {
        // MNA-style voltage-source pattern: zero diagonal, but a perfect
        // matching exists by swapping the rows.
        let m = csr_from_dense(&[&[0.0, 1.0], &[1.0, 1.0]]);
        let form = analyze(&m).unwrap();
        assert!(is_permutation(form.row_perm(), 2));
        assert!(is_permutation(form.col_perm(), 2));
        assert_block_upper(&m, &form);
    }

    #[test]
    fn structural_singularity_reports_original_column() {
        // Column 1 is structurally empty: no matching can cover it.
        let m = csr_from_dense(&[&[1.0, 0.0, 2.0], &[3.0, 0.0, 1.0], &[0.0, 0.0, 4.0]]);
        assert!(matches!(analyze(&m), Err(SolveError::Singular(1))));
    }

    #[test]
    fn rectangular_is_rejected() {
        let m = CsrMatrix::<f64>::zeros(2, 3);
        assert!(matches!(analyze(&m), Err(SolveError::NotSquare { .. })));
    }

    #[test]
    fn empty_matrix_has_no_blocks() {
        let m = CsrMatrix::<f64>::zeros(0, 0);
        let form = analyze(&m).unwrap();
        assert_eq!(form.block_count(), 0);
        assert!(form.is_single_block());
        assert_eq!(form.block_ptr(), &[0]);
    }

    #[test]
    fn permuted_block_structure_is_recovered() {
        // Build a 3-block matrix, then scramble rows and columns; the
        // analysis must still find 3 blocks and a valid upper form.
        let n = 6;
        let mut t = TripletMatrix::<f64>::new(n, n);
        // Blocks {0,1}, {2,3}, {4,5} with forward coupling 0→1→2.
        for b in 0..3 {
            let s = 2 * b;
            t.push(s, s, 2.0);
            t.push(s, s + 1, 1.0);
            t.push(s + 1, s, 1.0);
            t.push(s + 1, s + 1, 2.0);
            if b > 0 {
                // Block b reads block b-1's output.
                t.push(s, s - 1, 0.5);
            }
        }
        let base = t.to_csr();
        // Scramble: new_row = (5r + 1) mod 6, new_col = (5c + 2) mod 6
        // (5 is coprime with 6, so both maps are permutations).
        let mut t2 = TripletMatrix::<f64>::new(n, n);
        for (r, c, v) in base.iter() {
            t2.push((5 * r + 1) % n, (5 * c + 2) % n, v);
        }
        let scrambled = t2.to_csr();
        let form = analyze(&scrambled).unwrap();
        assert_eq!(form.block_count(), 3);
        assert_block_upper(&scrambled, &form);
    }
}
