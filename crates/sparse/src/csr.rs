//! Compressed sparse row (CSR) matrix storage.

use crate::scalar::Scalar;

/// An immutable sparse matrix in compressed sparse row format.
///
/// Construct one through [`TripletMatrix::to_csr`](crate::TripletMatrix::to_csr).
///
/// ```
/// use loopscope_sparse::TripletMatrix;
/// let mut t = TripletMatrix::<f64>::new(2, 3);
/// t.push(0, 0, 1.0);
/// t.push(0, 2, 2.0);
/// t.push(1, 1, 3.0);
/// let m = t.to_csr();
/// assert_eq!(m.mul_vec(&[1.0, 1.0, 1.0]), vec![3.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<T: Scalar> {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<T>,
}

impl<T: Scalar> CsrMatrix<T> {
    /// Builds a CSR matrix from its arrays: `row_ptr` has `rows + 1`
    /// offsets into `col_idx` / `values`, and each row's columns ascend with
    /// no duplicates.
    pub(crate) fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<T>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), rows + 1);
        debug_assert_eq!(col_idx.len(), values.len());
        debug_assert!((0..rows).all(|r| {
            let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            row.windows(2).all(|w| w[0] < w[1]) && row.iter().all(|&c| c < cols)
        }));
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Creates an empty (all-zero) matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (structurally non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Returns the value at `(row, col)`, or zero if the entry is not stored.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> T {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        let start = self.row_ptr[row];
        let end = self.row_ptr[row + 1];
        match self.col_idx[start..end].binary_search(&col) {
            Ok(pos) => self.values[start + pos],
            Err(_) => T::ZERO,
        }
    }

    /// The column indices of the stored entries of a row — the row's
    /// sparsity pattern, without the values.
    ///
    /// Used by the structural analyses (fill-reducing ordering, pattern
    /// comparison) that must not depend on numeric values.
    #[inline]
    pub fn row_pattern(&self, row: usize) -> &[usize] {
        &self.col_idx[self.row_ptr[row]..self.row_ptr[row + 1]]
    }

    /// The stored values of a row, in the order of
    /// [`row_pattern`](CsrMatrix::row_pattern).
    #[inline]
    pub(crate) fn row_values(&self, row: usize) -> &[T] {
        &self.values[self.row_ptr[row]..self.row_ptr[row + 1]]
    }

    /// Iterates over the stored entries of a row as `(col, value)` pairs.
    pub fn row_entries(&self, row: usize) -> impl Iterator<Item = (usize, T)> + '_ {
        let start = self.row_ptr[row];
        let end = self.row_ptr[row + 1];
        self.col_idx[start..end]
            .iter()
            .copied()
            .zip(self.values[start..end].iter().copied())
    }

    /// Iterates over all stored entries as `(row, col, value)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.rows).flat_map(move |r| self.row_entries(r).map(move |(c, v)| (r, c, v)))
    }

    /// Matrix-vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.cols, "dimension mismatch in mul_vec");
        let mut y = vec![T::ZERO; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = T::ZERO;
            for (c, v) in self.row_entries(r) {
                acc += v * x[c];
            }
            *yr = acc;
        }
        y
    }

    /// Returns the storage index of the entry at `(row, col)`, or `None` when
    /// the position is not part of the sparsity pattern.
    ///
    /// Together with [`values_mut`](CsrMatrix::values_mut) this lets repeated
    /// assemblies over a fixed pattern overwrite values in place instead of
    /// rebuilding the matrix.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    #[inline]
    pub fn find_slot(&self, row: usize, col: usize) -> Option<usize> {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        let start = self.row_ptr[row];
        let end = self.row_ptr[row + 1];
        self.col_idx[start..end]
            .binary_search(&col)
            .ok()
            .map(|pos| start + pos)
    }

    /// The stored values, in the same order as
    /// [`find_slot`](CsrMatrix::find_slot) indexes them.
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Mutable access to the stored values, in the same order as
    /// [`find_slot`](CsrMatrix::find_slot) indexes them. The sparsity pattern
    /// itself is immutable.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// Resets every stored value to zero, keeping the pattern. The first step
    /// of an in-place re-assembly.
    pub fn zero_values(&mut self) {
        self.values.fill(T::ZERO);
    }

    /// The row pointers, column indices and values in storage order — the
    /// raw view the compiled refactorization scatters from.
    #[inline]
    pub(crate) fn parts(&self) -> (&[usize], &[usize], &[T]) {
        (&self.row_ptr, &self.col_idx, &self.values)
    }

    /// Returns `true` when `other` has the identical sparsity pattern
    /// (dimensions, row pointers and column indices).
    pub fn same_pattern(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;
    use loopscope_math::Complex64;

    fn sample() -> CsrMatrix<f64> {
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 2.0);
        t.push(0, 2, -1.0);
        t.push(1, 1, 3.0);
        t.push(2, 0, 4.0);
        t.push(2, 2, 5.0);
        t.to_csr()
    }

    #[test]
    fn structure_and_get() {
        let m = sample();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(2, 2), 5.0);
    }

    #[test]
    fn mul_vec_matches_dense() {
        let m = sample();
        let y = m.mul_vec(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![2.0 - 3.0, 6.0, 4.0 + 15.0]);
    }

    #[test]
    fn iter_yields_all_entries() {
        let m = sample();
        let entries: Vec<(usize, usize, f64)> = m.iter().collect();
        assert_eq!(entries.len(), 5);
        assert!(entries.contains(&(2, 0, 4.0)));
    }

    #[test]
    fn zeros_matrix() {
        let m = CsrMatrix::<f64>::zeros(2, 4);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.mul_vec(&[1.0; 4]), vec![0.0, 0.0]);
    }

    #[test]
    fn complex_mul_vec() {
        let mut t = TripletMatrix::<Complex64>::new(2, 2);
        t.push(0, 0, Complex64::I);
        t.push(1, 1, Complex64::new(2.0, 0.0));
        let m = t.to_csr();
        let y = m.mul_vec(&[Complex64::ONE, Complex64::I]);
        assert_eq!(y[0], Complex64::I);
        assert_eq!(y[1], Complex64::new(0.0, 2.0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        sample().get(3, 0);
    }

    #[test]
    fn find_slot_addresses_values() {
        let mut m = sample();
        let slot = m.find_slot(2, 2).unwrap();
        m.values_mut()[slot] = 7.5;
        assert_eq!(m.get(2, 2), 7.5);
        assert_eq!(m.find_slot(0, 1), None);
    }

    #[test]
    fn zero_values_keeps_pattern() {
        let mut m = sample();
        m.zero_values();
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.get(0, 0), 0.0);
        assert!(m.find_slot(0, 2).is_some());
    }

    #[test]
    fn same_pattern_ignores_values() {
        let a = sample();
        let mut b = sample();
        b.zero_values();
        assert!(a.same_pattern(&b));
        let c = CsrMatrix::<f64>::zeros(3, 3);
        assert!(!a.same_pattern(&c));
    }
}
