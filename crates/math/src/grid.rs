//! Frequency grids.
//!
//! AC analysis and the stability plot are evaluated over a broad frequency
//! range (the paper sweeps from audio frequencies to beyond 100 MHz), so a
//! logarithmically spaced grid is the natural choice. [`FrequencyGrid`]
//! couples a sweep specification with its realized sample points.

use crate::Hertz;

/// Returns `n` linearly spaced points between `start` and `stop` inclusive.
///
/// Returns an empty vector for `n == 0` and `[start]` for `n == 1`.
///
/// ```
/// let v = loopscope_math::linspace(0.0, 1.0, 5);
/// assert_eq!(v, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
/// ```
pub fn linspace(start: f64, stop: f64, n: usize) -> Vec<f64> {
    match n {
        0 => Vec::new(),
        1 => vec![start],
        _ => {
            let step = (stop - start) / (n - 1) as f64;
            (0..n).map(|i| start + step * i as f64).collect()
        }
    }
}

/// Returns `n` logarithmically spaced points between `start` and `stop`
/// inclusive (both must be positive).
///
/// # Panics
///
/// Panics if `start <= 0`, `stop <= 0`.
///
/// ```
/// let v = loopscope_math::logspace(1.0, 100.0, 3);
/// assert!((v[1] - 10.0).abs() < 1e-9);
/// ```
pub fn logspace(start: f64, stop: f64, n: usize) -> Vec<f64> {
    assert!(
        start > 0.0 && stop > 0.0,
        "logspace requires positive bounds"
    );
    linspace(start.log10(), stop.log10(), n)
        .into_iter()
        .map(|e| 10f64.powf(e))
        .collect()
}

/// Sweep specification for an AC analysis, mirroring SPICE `.ac` syntax.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SweepKind {
    /// Logarithmic sweep with the given number of points per decade.
    Decade {
        /// Number of frequency points per decade.
        points_per_decade: usize,
    },
    /// Linear sweep with the given total number of points.
    Linear {
        /// Total number of frequency points.
        points: usize,
    },
    /// Explicitly listed sample points (golden-data validation pins exact
    /// frequencies so comparisons carry no interpolation error).
    Points {
        /// Total number of frequency points.
        points: usize,
    },
}

/// A frequency grid: sweep bounds plus realized sample points in hertz.
///
/// ```
/// use loopscope_math::FrequencyGrid;
/// let grid = FrequencyGrid::log_decade(1e3, 1e9, 20);
/// assert!(grid.len() > 100);
/// assert!((grid.freqs()[0] - 1e3).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyGrid {
    start: Hertz,
    stop: Hertz,
    kind: SweepKind,
    freqs: Vec<Hertz>,
}

impl FrequencyGrid {
    /// Creates a logarithmic grid with `points_per_decade` points per decade
    /// between `start` and `stop` hertz (inclusive endpoints).
    ///
    /// # Panics
    ///
    /// Panics if `start <= 0`, `stop <= start`, either bound is not finite,
    /// `points_per_decade == 0`, or the point count overflows `usize`.
    pub fn log_decade(start: Hertz, stop: Hertz, points_per_decade: usize) -> Self {
        assert!(start > 0.0, "start frequency must be positive");
        assert!(stop > start, "stop frequency must exceed start frequency");
        assert!(stop.is_finite(), "sweep bounds must be finite");
        assert!(points_per_decade > 0, "need at least one point per decade");
        let decades = (stop / start).log10();
        // The float-to-integer cast saturates, so an overflowing count
        // reads `usize::MAX` here and fails the checked add.
        let n = ((decades * points_per_decade as f64).ceil() as usize)
            .max(1)
            .checked_add(1)
            .expect("the sweep's point count overflows usize");
        Self {
            start,
            stop,
            kind: SweepKind::Decade { points_per_decade },
            freqs: logspace(start, stop, n),
        }
    }

    /// Creates a linear grid with `points` samples between `start` and `stop`.
    ///
    /// # Panics
    ///
    /// Panics if `stop <= start`, either bound is not finite, or
    /// `points < 2`.
    pub fn linear(start: Hertz, stop: Hertz, points: usize) -> Self {
        assert!(stop > start, "stop frequency must exceed start frequency");
        assert!(
            start.is_finite() && stop.is_finite(),
            "sweep bounds must be finite"
        );
        assert!(points >= 2, "need at least two points");
        Self {
            start,
            stop,
            kind: SweepKind::Linear { points },
            freqs: linspace(start, stop, points),
        }
    }

    /// Creates a grid from explicitly listed sample points in hertz.
    ///
    /// The points must be finite, positive and strictly ascending. Unlike
    /// the swept constructors a single point is allowed — golden-data
    /// validation pins individual frequencies and solves exactly there.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty, contains a non-finite or non-positive
    /// value, or is not strictly ascending.
    ///
    /// ```
    /// use loopscope_math::{FrequencyGrid, SweepKind};
    /// let grid = FrequencyGrid::from_points(vec![10.0, 159.155, 2.0e4]);
    /// assert_eq!(grid.len(), 3);
    /// assert_eq!(grid.kind(), SweepKind::Points { points: 3 });
    /// assert_eq!(grid.freqs()[1], 159.155);
    /// ```
    pub fn from_points(points: Vec<Hertz>) -> Self {
        assert!(!points.is_empty(), "need at least one frequency point");
        for f in &points {
            assert!(
                f.is_finite() && *f > 0.0,
                "frequency points must be finite and positive, got {f}"
            );
        }
        for w in points.windows(2) {
            assert!(
                w[1] > w[0],
                "frequency points must be strictly ascending ({} then {})",
                w[0],
                w[1]
            );
        }
        Self {
            start: points[0],
            stop: *points.last().expect("non-empty by assertion"),
            kind: SweepKind::Points {
                points: points.len(),
            },
            freqs: points,
        }
    }

    /// Start frequency in hertz.
    pub fn start(&self) -> Hertz {
        self.start
    }

    /// Stop frequency in hertz.
    pub fn stop(&self) -> Hertz {
        self.stop
    }

    /// The sweep kind used to construct this grid.
    pub fn kind(&self) -> SweepKind {
        self.kind
    }

    /// The realized frequency samples in hertz, ascending.
    pub fn freqs(&self) -> &[Hertz] {
        &self.freqs
    }

    /// Number of frequency samples.
    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    /// Returns `true` when the grid holds no samples.
    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }

    /// Iterates over the frequency samples.
    pub fn iter(&self) -> std::slice::Iter<'_, Hertz> {
        self.freqs.iter()
    }
}

impl<'a> IntoIterator for &'a FrequencyGrid {
    type Item = &'a Hertz;
    type IntoIter = std::slice::Iter<'a, Hertz>;
    fn into_iter(self) -> Self::IntoIter {
        self.freqs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linspace_endpoints() {
        let v = linspace(-1.0, 1.0, 11);
        assert_eq!(v.len(), 11);
        assert!((v[0] + 1.0).abs() < 1e-15);
        assert!((v[10] - 1.0).abs() < 1e-15);
    }

    #[test]
    fn linspace_degenerate() {
        assert!(linspace(0.0, 1.0, 0).is_empty());
        assert_eq!(linspace(2.0, 5.0, 1), vec![2.0]);
    }

    #[test]
    fn logspace_is_monotone_and_bounded() {
        let v = logspace(1e3, 1e9, 61);
        assert_eq!(v.len(), 61);
        assert!((v[0] - 1e3).abs() / 1e3 < 1e-12);
        assert!((v[60] - 1e9).abs() / 1e9 < 1e-12);
        for w in v.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    #[should_panic(expected = "positive bounds")]
    fn logspace_rejects_nonpositive() {
        logspace(0.0, 10.0, 3);
    }

    #[test]
    fn decade_grid_density() {
        let grid = FrequencyGrid::log_decade(1e3, 1e6, 10);
        // 3 decades at 10 points/decade → 31 points.
        assert_eq!(grid.len(), 31);
        assert_eq!(
            grid.kind(),
            SweepKind::Decade {
                points_per_decade: 10
            }
        );
    }

    #[test]
    fn linear_grid() {
        let grid = FrequencyGrid::linear(0.5, 10.5, 11);
        assert_eq!(grid.len(), 11);
        assert!((grid.freqs()[5] - 5.5).abs() < 1e-12);
    }

    #[test]
    fn grid_iteration() {
        let grid = FrequencyGrid::log_decade(1.0, 10.0, 4);
        let collected: Vec<f64> = grid.iter().copied().collect();
        assert_eq!(collected, grid.freqs());
        let by_ref: Vec<f64> = (&grid).into_iter().copied().collect();
        assert_eq!(by_ref, collected);
    }

    #[test]
    #[should_panic(expected = "sweep bounds must be finite")]
    fn decade_grid_rejects_an_infinite_stop() {
        FrequencyGrid::log_decade(1e3, f64::INFINITY, 100);
    }

    #[test]
    #[should_panic(expected = "point count overflows")]
    fn decade_grid_rejects_a_saturated_point_count() {
        // 600 decades at `usize::MAX` points each: the count saturates.
        FrequencyGrid::log_decade(1e-300, 1e300, usize::MAX);
    }

    #[test]
    #[should_panic(expected = "sweep bounds must be finite")]
    fn linear_grid_rejects_an_infinite_start() {
        FrequencyGrid::linear(f64::NEG_INFINITY, 1.0, 3);
    }

    #[test]
    #[should_panic(expected = "stop frequency must exceed")]
    fn decade_grid_rejects_inverted_bounds() {
        FrequencyGrid::log_decade(1e6, 1e3, 10);
    }

    #[test]
    fn points_grid_preserves_exact_values() {
        let pts = vec![159.15494309189535, 1.0e3, 1.5915494309189535e5];
        let grid = FrequencyGrid::from_points(pts.clone());
        assert_eq!(grid.freqs(), &pts[..]);
        assert_eq!(grid.start(), pts[0]);
        assert_eq!(grid.stop(), pts[2]);
        assert_eq!(grid.kind(), SweepKind::Points { points: 3 });
    }

    #[test]
    fn points_grid_allows_single_point() {
        let grid = FrequencyGrid::from_points(vec![42.0]);
        assert_eq!(grid.len(), 1);
        assert_eq!(grid.start(), grid.stop());
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn points_grid_rejects_unsorted() {
        FrequencyGrid::from_points(vec![10.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn points_grid_rejects_nonpositive() {
        FrequencyGrid::from_points(vec![0.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "at least one frequency point")]
    fn points_grid_rejects_empty() {
        FrequencyGrid::from_points(Vec::new());
    }
}
