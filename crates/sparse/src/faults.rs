//! Deterministic numeric fault injection for robustness testing.
//!
//! Compiled only under the `fault-inject` feature, this module perturbs the
//! stored values of a [`CsrMatrix`] into the failure states the solver's
//! robustness layer must survive: NaN / ±∞ entries, a numerically dead
//! column, or a pivot degraded far below the refactorization threshold. The
//! test-suites in `loopscope-sparse` and `loopscope-spice` drive it at
//! chosen sweep points — single-node sweeps, transient steps and the
//! all-nodes scan, where `loopscope-spice` also corrupts a selected-inverse
//! value to force the per-node fallback — and assert that every fault
//! surfaces as a structured error or a rescued result — no panic, no hang,
//! no silent garbage — identically at every `LOOPSCOPE_THREADS` setting.
//!
//! Determinism is the whole point: the injector is seeded, draws from an
//! in-process [SplitMix64](https://prng.di.unimi.it/splitmix64.c) stream and
//! touches no clock or ambient randomness, so a fault plan replays
//! bit-for-bit across runs and thread counts.
//!
//! ```
//! use loopscope_sparse::faults::{FaultInjector, FaultKind};
//! use loopscope_sparse::{SparseLu, SolveError, TripletMatrix};
//!
//! let mut t = TripletMatrix::<f64>::new(2, 2);
//! t.push(0, 0, 2.0);
//! t.push(0, 1, 1.0);
//! t.push(1, 0, 1.0);
//! t.push(1, 1, 3.0);
//! let mut a = t.to_csr();
//! let report = FaultInjector::new(42).inject(FaultKind::Nan, &mut a);
//! let err = SparseLu::factor(&a).unwrap_err();
//! assert_eq!(
//!     err,
//!     SolveError::NonFinite { row: report.row, col: report.col }
//! );
//! ```

use crate::csr::CsrMatrix;
use crate::scalar::Scalar;

/// The numeric failure modes the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Overwrite one stored entry with NaN — must surface as
    /// [`crate::SolveError::NonFinite`] with that entry's coordinates.
    Nan,
    /// Overwrite one stored entry with +∞ — same detection path as NaN.
    PosInf,
    /// Zero every stored entry of one column — a numerically dead column
    /// that must surface as [`crate::SolveError::Singular`].
    NearSingular,
    /// Scale one diagonal entry by `1e-12` — deep below the refactorization
    /// pivot threshold, so a pattern-reusing refactorization must detect
    /// degradation and report its soft outcome (the caller then re-pivots,
    /// then runs its ladder).
    DegradedPivot,
}

/// What a fault application actually did: the kind and the coordinates of
/// the perturbed entry (for [`FaultKind::NearSingular`], `row` is the first
/// stored entry's row of the zeroed column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultReport {
    /// The injected failure mode.
    pub kind: FaultKind,
    /// Original row index of the perturbed entry.
    pub row: usize,
    /// Original column index of the perturbed entry (the zeroed column for
    /// [`FaultKind::NearSingular`]).
    pub col: usize,
}

/// A seeded, in-process fault injector over sparse matrix values.
///
/// Entry selection comes from a SplitMix64 stream seeded by the caller;
/// two injectors with the same seed make the same choices on the same
/// matrix, regardless of threads or wall-clock.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    state: u64,
}

impl FaultInjector {
    /// Creates an injector with the given seed. Equal seeds replay equal
    /// fault plans.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next SplitMix64 draw.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Picks a stored entry index in `0..nnz`.
    fn pick(&mut self, nnz: usize) -> usize {
        (self.next_u64() % nnz as u64) as usize
    }

    /// Applies `kind` to `matrix`, perturbing its stored values in place
    /// (the sparsity pattern is never changed), and reports what was done.
    ///
    /// For [`FaultKind::DegradedPivot`] the perturbed entry is the first
    /// stored diagonal entry at or after a randomly chosen row (wrapping),
    /// so matrices with partly empty diagonals still degrade a real pivot.
    ///
    /// # Panics
    ///
    /// Panics if `matrix` has no stored entries, or no stored diagonal
    /// entry when `kind` is [`FaultKind::DegradedPivot`].
    pub fn inject<T: Scalar>(&mut self, kind: FaultKind, matrix: &mut CsrMatrix<T>) -> FaultReport {
        let nnz = matrix.nnz();
        assert!(nnz > 0, "cannot inject a fault into an empty matrix");
        match kind {
            FaultKind::Nan | FaultKind::PosInf => {
                let slot = self.pick(nnz);
                // `iter()` yields stored entries in row-major order — the
                // same order `values_mut()` is laid out in — so slot k of
                // the values slice has the coordinates of the k-th yield.
                let (row, col, _) = matrix
                    .iter()
                    .nth(slot)
                    .expect("slot index is bounded by nnz");
                let poison = if kind == FaultKind::Nan {
                    f64::NAN
                } else {
                    f64::INFINITY
                };
                matrix.values_mut()[slot] = T::from_f64(poison);
                FaultReport { kind, row, col }
            }
            FaultKind::NearSingular => {
                let slot = self.pick(nnz);
                let (_, col, _) = matrix
                    .iter()
                    .nth(slot)
                    .expect("slot index is bounded by nnz");
                let mut first_row = usize::MAX;
                let hits: Vec<(usize, usize)> = matrix
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, c, _))| *c == col)
                    .map(|(k, (r, _, _))| (k, r))
                    .collect();
                let vals = matrix.values_mut();
                for &(k, r) in &hits {
                    vals[k] = T::ZERO;
                    if first_row == usize::MAX {
                        first_row = r;
                    }
                }
                FaultReport {
                    kind,
                    row: first_row,
                    col,
                }
            }
            FaultKind::DegradedPivot => {
                let n = matrix.rows().min(matrix.cols());
                assert!(n > 0, "cannot degrade a pivot of an empty matrix");
                let start = (self.next_u64() % n as u64) as usize;
                for offset in 0..n {
                    let d = (start + offset) % n;
                    if let Some(slot) = matrix.find_slot(d, d) {
                        let vals = matrix.values_mut();
                        vals[slot] = vals[slot] * T::from_f64(1.0e-12);
                        return FaultReport {
                            kind,
                            row: d,
                            col: d,
                        };
                    }
                }
                panic!("matrix has no stored diagonal entry to degrade");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;

    fn sample() -> CsrMatrix<f64> {
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 2.0);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        t.push(1, 1, 3.0);
        t.push(2, 2, 4.0);
        t.to_csr()
    }

    #[test]
    fn same_seed_replays_the_same_plan() {
        let mut a = sample();
        let mut b = sample();
        let ra = FaultInjector::new(7).inject(FaultKind::Nan, &mut a);
        let rb = FaultInjector::new(7).inject(FaultKind::Nan, &mut b);
        assert_eq!(ra, rb);
        for ((_, _, va), (_, _, vb)) in a.iter().zip(b.iter()) {
            assert_eq!(va.to_bits(), vb.to_bits());
        }
    }

    #[test]
    fn nan_and_inf_land_at_reported_coordinates() {
        for kind in [FaultKind::Nan, FaultKind::PosInf] {
            let mut a = sample();
            let report = FaultInjector::new(11).inject(kind, &mut a);
            let v = a
                .iter()
                .find(|&(r, c, _)| r == report.row && c == report.col)
                .map(|(_, _, v)| v)
                .unwrap();
            assert!(!v.is_finite());
            assert_eq!(v.is_nan(), kind == FaultKind::Nan);
        }
    }

    #[test]
    fn near_singular_zeroes_the_whole_column() {
        let mut a = sample();
        let report = FaultInjector::new(3).inject(FaultKind::NearSingular, &mut a);
        for (_, c, v) in a.iter() {
            if c == report.col {
                assert_eq!(v, 0.0);
            }
        }
    }

    #[test]
    fn degraded_pivot_scales_a_diagonal_entry() {
        let mut a = sample();
        let before = a.clone();
        let report = FaultInjector::new(5).inject(FaultKind::DegradedPivot, &mut a);
        assert_eq!(report.row, report.col);
        let old = before
            .iter()
            .find(|&(r, c, _)| r == report.row && c == report.col)
            .map(|(_, _, v)| v)
            .unwrap();
        let new = a
            .iter()
            .find(|&(r, c, _)| r == report.row && c == report.col)
            .map(|(_, _, v)| v)
            .unwrap();
        assert_eq!(new, old * 1.0e-12);
    }
}
