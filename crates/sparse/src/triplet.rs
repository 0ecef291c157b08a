//! Coordinate-format (triplet) sparse matrix builder.

use crate::csr::CsrMatrix;
use crate::scalar::Scalar;

/// A coordinate-format sparse matrix accumulator.
///
/// MNA element stamps call [`push`](TripletMatrix::push) repeatedly; entries
/// that address the same `(row, col)` position are summed when the matrix is
/// converted to CSR, exactly matching the superposition semantics of nodal
/// analysis stamps.
///
/// ```
/// use loopscope_sparse::TripletMatrix;
/// let mut t = TripletMatrix::<f64>::new(2, 2);
/// t.push(0, 0, 1.0);
/// t.push(0, 0, 2.0); // stamps accumulate
/// let m = t.to_csr();
/// assert_eq!(m.get(0, 0), 3.0);
/// assert_eq!(m.nnz(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TripletMatrix<T: Scalar> {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, T)>,
}

impl<T: Scalar> TripletMatrix<T> {
    /// Creates an empty `rows × cols` accumulator.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Creates an accumulator with pre-allocated capacity for `cap` stamps.
    pub fn with_capacity(rows: usize, cols: usize, cap: usize) -> Self {
        Self {
            rows,
            cols,
            entries: Vec::with_capacity(cap),
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

    /// Number of raw (pre-deduplication) entries pushed so far.
    pub fn raw_len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds `value` at `(row, col)`; duplicates accumulate.
    ///
    /// Zero values are accepted (they can still create structural entries).
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    #[inline]
    pub fn push(&mut self, row: usize, col: usize, value: T) {
        assert!(
            row < self.rows && col < self.cols,
            "triplet entry ({row}, {col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        self.entries.push((row, col, value));
    }

    /// Removes all entries, keeping the allocation and dimensions.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Converts to compressed sparse row form, summing duplicate entries.
    ///
    /// Duplicates are summed in push order, `((v₁ + v₂) + v₃) + …`, so the
    /// result does not depend on anything but the pushes. A counting sort by
    /// row keeps each row's pushes in order, and a stable sort by column
    /// brings each position's pushes together, still in order.
    pub fn to_csr(&self) -> CsrMatrix<T> {
        let mut starts = vec![0usize; self.rows + 1];
        for &(r, _, _) in &self.entries {
            starts[r + 1] += 1;
        }
        for r in 0..self.rows {
            starts[r + 1] += starts[r];
        }
        let mut by_row = vec![(0usize, T::ZERO); self.entries.len()];
        let mut next = starts.clone();
        for &(r, c, v) in &self.entries {
            by_row[next[r]] = (c, v);
            next[r] += 1;
        }
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx = Vec::with_capacity(self.entries.len());
        let mut values: Vec<T> = Vec::with_capacity(self.entries.len());
        row_ptr.push(0);
        for r in 0..self.rows {
            let row = &mut by_row[starts[r]..starts[r + 1]];
            row.sort_by_key(|&(c, _)| c);
            let first = col_idx.len();
            for &(c, v) in row.iter() {
                match values.last_mut() {
                    Some(sum) if col_idx.len() > first && col_idx.last() == Some(&c) => *sum += v,
                    _ => {
                        col_idx.push(c);
                        values.push(v);
                    }
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_parts(self.rows, self.cols, row_ptr, col_idx, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopscope_math::Complex64;

    #[test]
    fn accumulates_duplicates() {
        let mut t = TripletMatrix::<f64>::new(3, 3);
        t.push(1, 2, 5.0);
        t.push(1, 2, -2.0);
        t.push(0, 0, 1.0);
        let m = t.to_csr();
        assert_eq!(m.get(1, 2), 3.0);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(2, 2), 0.0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn clear_resets_entries() {
        let mut t = TripletMatrix::<f64>::new(2, 2);
        t.push(0, 0, 1.0);
        assert!(!t.is_empty());
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.to_csr().nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_out_of_bounds() {
        let mut t = TripletMatrix::<f64>::new(2, 2);
        t.push(2, 0, 1.0);
    }

    #[test]
    fn complex_entries() {
        let mut t = TripletMatrix::<Complex64>::new(2, 2);
        t.push(0, 1, Complex64::new(1.0, 2.0));
        t.push(0, 1, Complex64::new(0.5, -1.0));
        let m = t.to_csr();
        assert_eq!(m.get(0, 1), Complex64::new(1.5, 1.0));
    }

    /// The `BTreeMap` accumulation `to_csr` replaced.
    fn to_csr_by_map<T: Scalar>(t: &TripletMatrix<T>) -> Vec<(usize, usize, u64, u64)> {
        let mut acc = std::collections::BTreeMap::<(usize, usize), T>::new();
        for &(r, c, v) in &t.entries {
            acc.entry((r, c)).and_modify(|e| *e += v).or_insert(v);
        }
        acc.into_iter()
            .map(|((r, c), v)| (r, c, v.re().to_bits(), v.im().to_bits()))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(200))]

        /// Sums in push order, bit for bit: duplicates, signed zeros and
        /// rounding-sensitive magnitudes, any push order.
        #[test]
        fn duplicates_sum_in_push_order(
            pushes in proptest::collection::vec((0usize..7, 0usize..5, 0usize..8), 0..60)
        ) {
            let values = [1.0, -1.0, 0.0, -0.0, 1.0e16, 3.0, -1.0e-16, 0.1];
            let mut t = TripletMatrix::<f64>::new(7, 5);
            for &(r, c, v) in &pushes {
                t.push(r, c, values[v]);
            }
            let m = t.to_csr();
            let got: Vec<(usize, usize, u64, u64)> = m
                .iter()
                .map(|(r, c, v)| (r, c, v.to_bits(), 0.0f64.to_bits()))
                .collect();
            proptest::prop_assert_eq!(got, to_csr_by_map(&t));
        }
    }

    #[test]
    fn capacity_constructor() {
        let t = TripletMatrix::<f64>::with_capacity(4, 4, 16);
        assert_eq!(t.rows(), 4);
        assert_eq!(t.cols(), 4);
        assert_eq!(t.raw_len(), 0);
    }
}
