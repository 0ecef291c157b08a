//! Fill-reducing elimination orderings for sparse LU factorization.
//!
//! The amount of fill-in an LU factorization produces — and therefore the
//! cost of every numeric refactorization that reuses its pattern — depends
//! dramatically on the order in which unknowns are eliminated. Plain partial
//! pivoting picks pivots purely by magnitude, which on banded or mesh-like
//! MNA matrices can be far from fill-optimal.
//!
//! This module computes a **minimum-degree ordering on the pattern of
//! `A + Aᵀ`** ([`min_degree_order`]), the same family of symmetric
//! fill-reducing orderings (AMD) that KLU applies to circuit matrices before
//! its threshold-pivoting factorization. MNA patterns are structurally
//! symmetric (every element stamp touches `(i, j)` and `(j, i)`), so a
//! symmetric ordering is the natural fit.
//!
//! The ordering is purely structural: it looks only at the sparsity pattern,
//! never at values. [`SparseLu::factor`](crate::SparseLu::factor) computes
//! it for every diagonal block of every fresh factorization — each DC solve,
//! each AC plan and each re-pivot pays it — and follows it **unless a pivot
//! fails a relative magnitude threshold**, in which case it swaps rows
//! exactly like partial pivoting would. Refactorizations reuse the recorded
//! order and never recompute it.
//!
//! # Example
//!
//! ```
//! use loopscope_sparse::{ordering, SparseLu, TripletMatrix};
//!
//! // An "arrow" matrix: natural-order elimination fills in completely,
//! // eliminating the dense row/column last keeps the factors sparse.
//! let n = 8;
//! let mut t = TripletMatrix::<f64>::new(n, n);
//! for i in 0..n {
//!     t.push(i, i, 4.0);
//!     if i + 1 < n {
//!         t.push(i, 0, 1.0);
//!         t.push(0, i + 1, 1.0);
//!     }
//! }
//! let m = t.to_csr();
//! let order = ordering::min_degree_order(&m);
//! // The leaves go first; the hub leaves the graph only once it is a leaf.
//! assert_eq!(&order[..n - 2], &[1, 2, 3, 4, 5, 6]);
//! // The factorization follows that order, so the fill-in vanishes entirely.
//! let lu = SparseLu::factor(&m)?;
//! assert_eq!(lu.factor_nnz(), m.nnz());
//! # Ok::<(), loopscope_sparse::SolveError>(())
//! ```

use crate::csr::CsrMatrix;
use crate::scalar::Scalar;

/// Computes a fill-reducing elimination order by the minimum-degree
/// heuristic on the pattern of `A + Aᵀ`.
///
/// Returns a permutation `order` of `0..n` where `order[k]` is the original
/// row/column index to eliminate at step `k`.
/// [`SparseLu::factor`](crate::SparseLu::factor) computes it for every
/// diagonal block it factors.
///
/// The algorithm maintains the elimination graph explicitly: at each step the
/// uneliminated vertex of smallest degree is removed and its neighbours are
/// connected into a clique (the structural effect of one elimination step on
/// a symmetric pattern). Ties break toward the smallest index, so the order
/// is deterministic. Each adjacency list is kept sorted; eliminating a
/// vertex `v` marks its neighbours, then one pass over each neighbour's
/// list drops `v` and counts the clique members already present, and only
/// the missing ones are merged in. A tournament tree keyed by
/// `(degree, index)` finds the next vertex. The cost is
/// `O(Σ deg(u) + deg(v)²)` over the neighbours `u` of each eliminated `v`,
/// plus `O(log n)` per degree change.
///
/// # Panics
///
/// Panics if the matrix is not square or has more than `u32::MAX` rows.
pub fn min_degree_order<T: Scalar>(matrix: &CsrMatrix<T>) -> Vec<usize> {
    assert_eq!(
        matrix.rows(),
        matrix.cols(),
        "fill-reducing ordering requires a square matrix"
    );
    let n = matrix.rows();
    assert!(
        u32::try_from(n).is_ok(),
        "minimum-degree ordering supports at most u32::MAX unknowns"
    );
    // Adjacency of A + Aᵀ, diagonal excluded, each list sorted and unique,
    // with room to grow before reallocating (twice the row's length, about
    // twice its degree on the structurally symmetric MNA patterns).
    let mut adj: Vec<Vec<usize>> = (0..n)
        .map(|r| Vec::with_capacity(2 * matrix.row_pattern(r).len().saturating_sub(1)))
        .collect();
    for r in 0..n {
        for &c in matrix.row_pattern(r) {
            if r != c {
                adj[r].push(c);
                adj[c].push(r);
            }
        }
    }
    for nbrs in &mut adj {
        nbrs.sort_unstable();
        nbrs.dedup();
    }

    // A tournament tree over the vertices: leaf `v` holds the key
    // `(degree << 32) | v` of an uneliminated vertex (`u64::MAX` once it is
    // eliminated), each inner node the smaller key of its children, so the
    // root names the vertex of smallest degree, smallest index on ties.
    let leaves = n.next_power_of_two();
    let mut tree = vec![u64::MAX; 2 * leaves];
    let key = |deg: usize, v: usize| ((deg as u64) << 32) | v as u64;
    for (v, nbrs) in adj.iter().enumerate() {
        tree[leaves + v] = key(nbrs.len(), v);
    }
    for i in (1..leaves).rev() {
        tree[i] = tree[2 * i].min(tree[2 * i + 1]);
    }
    let set = |tree: &mut [u64], v: usize, k: u64| {
        let mut i = leaves + v;
        tree[i] = k;
        while i > 1 {
            i /= 2;
            tree[i] = tree[2 * i].min(tree[2 * i + 1]);
        }
    };

    let mut order = Vec::with_capacity(n);
    // Per vertex w, `(mark, seen)`: mark == v while w is a neighbour of the
    // vertex v being eliminated; seen == u once w is known adjacent to u.
    // Lists only lose eliminated vertices, so a `seen` stamp left by an
    // earlier visit of u stays true for every vertex still in the graph.
    let mut stamps = vec![(usize::MAX, usize::MAX); n];
    while tree[1] != u64::MAX {
        // Smallest degree, smallest index on ties: deterministic.
        let pivot = (tree[1] & u64::from(u32::MAX)) as usize;
        set(&mut tree, pivot, u64::MAX);
        order.push(pivot);

        // Eliminating `pivot` connects its remaining neighbours into a
        // clique; `pivot` itself leaves the graph.
        let nbrs = std::mem::take(&mut adj[pivot]);
        for &w in &nbrs {
            stamps[w].0 = pivot;
        }
        for &u in &nbrs {
            let list = &mut adj[u];
            let before = list.len();
            // Drop `pivot` and count the clique members `u` already has.
            let mut hits = 0;
            let mut keep = 0;
            for t in 0..list.len() {
                let w = list[t];
                if w == pivot {
                    continue;
                }
                hits += usize::from(stamps[w].0 == pivot);
                stamps[w].1 = u;
                list[keep] = w;
                keep += 1;
            }
            list.truncate(keep);
            // Merge the missing members in from the back, keeping the list
            // sorted.
            let missing = nbrs.len() - 1 - hits;
            let (mut i, mut at) = (keep, keep + missing);
            list.resize(at, 0);
            for &w in nbrs.iter().rev() {
                if i == at {
                    break;
                }
                if w == u || stamps[w].1 == u {
                    continue;
                }
                while i > 0 && list[i - 1] > w {
                    at -= 1;
                    i -= 1;
                    list[at] = list[i];
                }
                at -= 1;
                list[at] = w;
            }
            if list.len() != before {
                set(&mut tree, u, key(list.len(), u));
            }
        }
    }
    debug_assert_eq!(order.len(), n, "every vertex is eliminated once");
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SparseLu, TripletMatrix};
    use std::collections::BTreeSet;

    fn tridiagonal(n: usize) -> CsrMatrix<f64> {
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
        t.to_csr()
    }

    /// 5-point-stencil grid Laplacian on a p×p mesh (plus a diagonal shift to
    /// keep it non-singular) — the classic case where banded elimination fills
    /// in O(n·p) entries but minimum degree does far better.
    fn mesh(p: usize) -> CsrMatrix<f64> {
        let n = p * p;
        let mut t = TripletMatrix::<f64>::new(n, n);
        for i in 0..p {
            for j in 0..p {
                let u = i * p + j;
                t.push(u, u, 4.1);
                if i + 1 < p {
                    t.push(u, u + p, -1.0);
                    t.push(u + p, u, -1.0);
                }
                if j + 1 < p {
                    t.push(u, u + 1, -1.0);
                    t.push(u + 1, u, -1.0);
                }
            }
        }
        t.to_csr()
    }

    fn is_permutation(order: &[usize], n: usize) -> bool {
        let mut seen = vec![false; n];
        order.len() == n
            && order.iter().all(|&v| {
                if v >= n || seen[v] {
                    false
                } else {
                    seen[v] = true;
                    true
                }
            })
    }

    #[test]
    fn order_is_a_permutation() {
        let m = mesh(7);
        let order = min_degree_order(&m);
        assert!(is_permutation(&order, m.rows()));
    }

    /// nnz(L+U) of eliminating a structurally symmetric pattern in `order`
    /// on the diagonal: the diagonal plus both triangles of the filled
    /// elimination graph.
    fn elimination_fill(m: &CsrMatrix<f64>, order: &[usize]) -> usize {
        let n = m.rows();
        let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        for r in 0..n {
            for &c in m.row_pattern(r).iter().filter(|&&c| c != r) {
                adj[r].insert(c);
                adj[c].insert(r);
            }
        }
        let mut fill = n;
        for &v in order {
            let nbrs: Vec<usize> = std::mem::take(&mut adj[v]).into_iter().collect();
            fill += 2 * nbrs.len();
            for (i, &u) in nbrs.iter().enumerate() {
                adj[u].remove(&v);
                for &w in &nbrs[i + 1..] {
                    adj[u].insert(w);
                    adj[w].insert(u);
                }
            }
        }
        fill
    }

    #[test]
    fn tridiagonal_order_produces_no_extra_fill() {
        // A path graph eliminates without fill under min degree (endpoints
        // always have degree 1), matching the natural order's zero fill.
        let m = tridiagonal(40);
        let order = min_degree_order(&m);
        let natural: Vec<usize> = (0..m.rows()).collect();
        assert_eq!(elimination_fill(&m, &order), m.nnz());
        assert_eq!(elimination_fill(&m, &natural), m.nnz());
        // The factorization follows the order: pattern size equals input nnz.
        assert_eq!(SparseLu::factor(&m).unwrap().factor_nnz(), m.nnz());
    }

    #[test]
    fn mesh_order_beats_natural_order() {
        let m = mesh(12);
        let order = min_degree_order(&m);
        let natural: Vec<usize> = (0..m.rows()).collect();
        let ordered = SparseLu::factor(&m).unwrap().factor_nnz();
        // The diagonally dominant mesh never forces a row swap, so the
        // factorization's fill is exactly the order's structural prediction.
        assert_eq!(ordered, elimination_fill(&m, &order));
        assert!(
            ordered < elimination_fill(&m, &natural),
            "mesh: ordered fill {ordered} must beat natural fill {}",
            elimination_fill(&m, &natural)
        );
    }

    #[test]
    fn empty_and_single_matrices() {
        let m = CsrMatrix::<f64>::zeros(0, 0);
        assert!(min_degree_order(&m).is_empty());
        let mut t = TripletMatrix::<f64>::new(1, 1);
        t.push(0, 0, 1.0);
        assert_eq!(min_degree_order(&t.to_csr()), vec![0]);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rejects_rectangular() {
        let m = CsrMatrix::<f64>::zeros(2, 3);
        min_degree_order(&m);
    }
}
