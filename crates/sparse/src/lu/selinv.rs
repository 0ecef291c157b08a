//! Selected inversion: the diagonal of `A⁻¹` from an existing LU
//! factorization, by the Takahashi recurrences (Takahashi, Fagan & Chin,
//! PICA 1973; Erisman & Tinney, CACM 18(3), 1975).
//!
//! The factorization is `B = P·A·Q = L·U` with `L` unit lower triangular and
//! `U = D·Ũ`, `Ũ` unit upper triangular. From `Ũ·Z = D⁻¹·L⁻¹` and
//! `Z·L = Ũ⁻¹·D⁻¹` for `Z = B⁻¹`, row by row from the last step to the
//! first:
//!
//! * `Z_ij = −Σ_k Ũ_ik·Z_kj` for every `j` with `L_ji ≠ 0` (upper entries),
//! * `Z_ji = −Σ_k Z_jk·L_ki` for every `j` with `U_ij ≠ 0` (lower entries),
//! * `Z_ii = (1 − Σ_k U_ik·Z_ki) / d_i`,
//!
//! where `k` runs over the off-diagonal entries of row `i` of `U` (first and
//! third line) or column `i` of `L` (second line). Every `Z` entry a sum
//! reads has both indices above `i`, and lies on the pattern of `(L+U)ᵀ`:
//! `L_ji ≠ 0` and `U_ik ≠ 0` is exactly the elimination step that fills
//! `(j, k)`, and the factorization keeps every structural entry. So the
//! recurrence closes on the *selected set* — one `Z` slot per stored `L`/`U`
//! entry — and never needs the rest of the inverse.
//!
//! Fill never crosses a BTF block boundary, so the same loop runs every
//! diagonal block independently and yields each block's inverse on its
//! selected set. `B⁻¹` is block upper triangular: an entry in a lower block
//! is an exact zero, and the off-diagonal (F) blocks of `B⁻¹` are never
//! needed for a diagonal entry of `A⁻¹` whose `A_vv` is stored (see
//! [`SparseLu::diag_inverse_into`]).

use super::compiled::RowSlots;
use super::{LuPattern, SolveError, SparseLu};
use crate::scalar::Scalar;

/// Where `(A⁻¹)_vv` of one unknown lives after the recurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum DiagEntry {
    /// Slot of the selected-set value buffer.
    Slot(usize),
    /// A lower block of the block upper-triangular `B⁻¹`: exactly zero.
    Zero,
    /// Outside the selected set (`A_vv` was neither stored nor filled).
    Unselected,
}

/// Index data of the selected inversion over one [`LuPattern`], built once
/// on first use and shared by every factorization over the pattern.
///
/// `Z` slots are numbered over the stored factor entries: slot `t < nnz(L)`
/// is `L` entry `t` at `(row j, col i)` and holds `Z_ij`; slot
/// `nnz(L) + t` is `U` entry `t` at `(row i, col j)` and holds `Z_ji`
/// (`Z_ii` on the diagonal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct InverseIndex {
    /// The `L` slots of column `i`, rows ascending:
    /// `lt_slot[lt_ptr[i]..lt_ptr[i + 1]]`.
    pub(super) lt_ptr: Vec<usize>,
    pub(super) lt_slot: Vec<usize>,
    /// Per entry `s` of the `L` transpose (row `j` of column `i`): the `Z`
    /// slots of entries `(j, k)` for every off-diagonal `k` of `U` row `i`,
    /// in `U` order — `upper_src[upper_ptr[s]..upper_ptr[s + 1]]`. Column
    /// `i`'s lists are one row-major block of `|L column i|` rows by `|U row
    /// i|` off-diagonal columns: the upper recurrence reads its rows, the
    /// lower one its columns. One entry per product, so it dominates the
    /// index size, hence `u32`.
    pub(super) upper_ptr: Vec<usize>,
    pub(super) upper_src: Vec<u32>,
    /// Per original unknown `v`: where `(A⁻¹)_vv` lives.
    pub(super) diag: Vec<DiagEntry>,
}

impl InverseIndex {
    /// Builds the index of `p`.
    ///
    /// # Panics
    ///
    /// Panics when the pattern is not closed under elimination — impossible
    /// for patterns recorded by [`SparseLu::factor`], which keeps every
    /// structural entry — or has more than `u32::MAX` stored entries.
    pub(super) fn build(p: &LuPattern) -> Self {
        let n = p.n;
        let n_l = p.l_cols.len();
        let n_lu = n_l + p.u_cols.len();
        assert!(
            u32::try_from(n_lu).is_ok(),
            "selected inversion supports at most u32::MAX factor entries"
        );

        // Transpose of the L pattern: per entry `s` of column `i` its slot,
        // and per L slot `t` its entry `s`.
        let mut lt_ptr = vec![0usize; n + 1];
        for &c in &p.l_cols {
            lt_ptr[c + 1] += 1;
        }
        for i in 0..n {
            lt_ptr[i + 1] += lt_ptr[i];
        }
        let mut next = lt_ptr.clone();
        let mut lt_slot = vec![0usize; n_l];
        let mut lt_of = vec![0usize; n_l];
        for t in 0..n_l {
            let s = &mut next[p.l_cols[t]];
            lt_slot[*s] = t;
            lt_of[t] = *s;
            *s += 1;
        }

        // The source list holds one entry per product, Σᵢ |L column i|·|U
        // row i off-diagonal|: entry `s` (row j of column i) reads the slot
        // of `(j, k)` for each `k` of U row i.
        let u_off = |i: usize| p.u_ptr[i + 1] - p.u_ptr[i] - 1;
        let mut upper_ptr = Vec::with_capacity(n_l + 1);
        let mut upper_len = 0;
        upper_ptr.push(0);
        for i in 0..n {
            for _ in lt_ptr[i]..lt_ptr[i + 1] {
                upper_len += u_off(i);
                upper_ptr.push(upper_len);
            }
        }
        let mut upper_src = vec![0u32; upper_len];

        // One pass over the rows fills the list and the diagonal map.
        // (A⁻¹)_vv = Z[cpos[v]][ppos[v]], stored at pattern entry
        // (ppos[v], cpos[v]) when both steps share a block.
        let mut block_of = vec![0usize; n];
        for b in 0..p.block_ptr.len() - 1 {
            block_of[p.block_ptr[b]..p.block_ptr[b + 1]].fill(b);
        }
        let mut diag = vec![DiagEntry::Unselected; n];
        let mut slots = RowSlots::new(n);
        for j in 0..n {
            slots.load(p, j);
            // Slots of L+U only: an F entry is no selected-set slot.
            let slot = |c: usize| slots.get(c).filter(|&z| z < n_lu);
            let row = p.l_ptr[j]..p.l_ptr[j + 1];
            for (&i, &s) in p.l_cols[row.clone()].iter().zip(&lt_of[row]) {
                let src = &mut upper_src[upper_ptr[s]..upper_ptr[s + 1]];
                for (z, &k) in src
                    .iter_mut()
                    .zip(&p.u_cols[p.u_ptr[i] + 1..p.u_ptr[i + 1]])
                {
                    *z = slot(k).expect("LU pattern must be closed under elimination") as u32;
                }
            }
            let v = p.perm[j];
            let a = p.cpos[v];
            diag[v] = match slot(a) {
                Some(z) => DiagEntry::Slot(z),
                None if block_of[a] > block_of[j] => DiagEntry::Zero,
                None => DiagEntry::Unselected,
            };
        }
        Self {
            lt_ptr,
            lt_slot,
            upper_ptr,
            upper_src,
            diag,
        }
    }
}

/// Reusable buffers of [`SparseLu::diag_inverse_into`]: the selected-set
/// values of `Z` (one slot per stored `L`/`U` entry) and the `L` values
/// gathered column-wise. Sized on first use and retained, so every later
/// call over the same pattern performs no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct InverseWorkspace<T: Scalar> {
    z: Vec<T>,
    l_by_col: Vec<T>,
}

impl<T: Scalar> InverseWorkspace<T> {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self {
            z: Vec::new(),
            l_by_col: Vec::new(),
        }
    }
}

impl<T: Scalar> SparseLu<T> {
    /// Writes the diagonal of the inverse, `out[v] = (A⁻¹)_vv`, for every
    /// unknown `v` of the factored matrix by **selected inversion** over the
    /// stored factors — about twice the multiply-adds of one
    /// refactorization, instead of one full solve per unknown.
    ///
    /// Every unknown whose diagonal entry `A_vv` is stored in the factored
    /// matrix (structural zeros included) is covered: the value comes from
    /// its BTF diagonal block's selected inverse, or is an exact `0` when
    /// the entry falls in a lower block of `B⁻¹` — the same zero a solve
    /// produces, e.g. for a node a voltage source pins. Any other unknown
    /// gets NaN. MNA node rows always store their GMIN diagonal.
    ///
    /// The index data (the `L` transpose and the source slots of every
    /// product) is built once per symbolic pattern, on the first call over
    /// it; the numeric pass allocates nothing once `ws` has reached the
    /// pattern size.
    ///
    /// ```
    /// use loopscope_sparse::{InverseWorkspace, SparseLu, TripletMatrix};
    ///
    /// // [4 1; 2 3]⁻¹ = [3 −1; −2 4] / 10.
    /// let mut t = TripletMatrix::<f64>::new(2, 2);
    /// t.push(0, 0, 4.0);
    /// t.push(0, 1, 1.0);
    /// t.push(1, 0, 2.0);
    /// t.push(1, 1, 3.0);
    /// let lu = SparseLu::factor(&t.to_csr())?;
    /// let mut diag = vec![0.0; 2];
    /// lu.diag_inverse_into(&mut diag, &mut InverseWorkspace::new())?;
    /// assert!((diag[0] - 0.3).abs() < 1e-15 && (diag[1] - 0.4).abs() < 1e-15);
    /// # Ok::<(), loopscope_sparse::SolveError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::RhsLength`] when `out.len()` is not the matrix
    /// dimension.
    ///
    /// # Panics
    ///
    /// Panics when called on an unfilled
    /// [`from_symbolic`](SparseLu::from_symbolic) shell.
    pub fn diag_inverse_into(
        &self,
        out: &mut [T],
        ws: &mut InverseWorkspace<T>,
    ) -> Result<(), SolveError> {
        let p = &*self.pattern;
        let (l_vals, u_vals, _) = self.factors();
        if out.len() != p.n {
            return Err(SolveError::RhsLength {
                expected: p.n,
                got: out.len(),
            });
        }
        let ix = p.inverse.get_or_init(|| InverseIndex::build(p));
        let n_l = p.l_cols.len();
        ws.z.resize(n_l + p.u_cols.len(), T::ZERO);
        ws.l_by_col.clear();
        ws.l_by_col.extend(ix.lt_slot.iter().map(|&t| l_vals[t]));
        let z = &mut ws.z;
        for i in (0..p.n).rev() {
            // Ũ = D⁻¹·U: one division per row, multiplications after.
            let inv_d = T::ONE / u_vals[p.u_ptr[i]];
            let u_off = (p.u_ptr[i] + 1)..p.u_ptr[i + 1];
            let l_col = ix.lt_ptr[i]..ix.lt_ptr[i + 1];
            // One pass over column i's source block, row `s` the slots of
            // `(j, k)` for L entry `s` (row j) and each off-diagonal `k` of
            // U row i: each row yields the upper entry Z_ij, and each
            // column accumulates the lower entry Z_ji of U entry `(i, k)`,
            // every sum subtracting in index order from zero.
            let lower = n_l + u_off.start..n_l + u_off.end;
            z[lower.clone()].fill(T::ZERO);
            let (width, base) = (u_off.len(), ix.upper_ptr[l_col.start]);
            for (a, s) in l_col.enumerate() {
                let src = &ix.upper_src[base + a * width..base + (a + 1) * width];
                let l = ws.l_by_col[s];
                let mut acc = T::ZERO;
                for ((&u, &k), t) in u_vals[u_off.clone()].iter().zip(src).zip(lower.clone()) {
                    let zk = z[k as usize];
                    acc -= u * zk;
                    z[t] -= l * zk;
                }
                z[ix.lt_slot[s]] = acc * inv_d;
            }
            let mut acc = T::ONE;
            for t in u_off {
                acc -= u_vals[t] * z[n_l + t];
            }
            z[n_l + p.u_ptr[i]] = acc * inv_d;
        }
        for (o, entry) in out.iter_mut().zip(&ix.diag) {
            *o = match *entry {
                DiagEntry::Slot(s) => z[s],
                DiagEntry::Zero => T::ZERO,
                DiagEntry::Unselected => T::from_f64(f64::NAN),
            };
        }
        Ok(())
    }
}
