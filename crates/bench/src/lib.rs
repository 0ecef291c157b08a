//! Shared helpers for the `loopscope` benchmark/reproduction harness.
//!
//! Every table and figure of the paper's evaluation has a corresponding
//! Criterion bench target in `benches/` (see DESIGN.md §5 for the index).
//! Each bench first *prints* the regenerated table/series — so that
//! `cargo bench` doubles as the reproduction script — and then measures the
//! runtime of the underlying analysis.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use loopscope_circuits::{BiasParams, OpAmpParams};
use loopscope_core::{StabilityAnalyzer, StabilityOptions};
use loopscope_math::Complex64;
use loopscope_sparse::{CsrMatrix, TripletMatrix};

/// The sweep options used by all benches: the paper sweeps "a broad frequency
/// range"; 1 kHz – 1 GHz at 100 points/decade covers both the MHz main loop
/// and the tens-of-MHz local loops with enough resolution for the second
/// derivative.
pub fn bench_options() -> StabilityOptions {
    StabilityOptions {
        f_start: 1.0e3,
        f_stop: 1.0e9,
        points_per_decade: 100,
        ..Default::default()
    }
}

/// Nominal op-amp parameters (the paper's under-compensated buffer).
pub fn nominal_opamp() -> OpAmpParams {
    OpAmpParams::default()
}

/// Nominal bias-cell parameters (uncompensated local loop).
pub fn nominal_bias() -> BiasParams {
    BiasParams::default()
}

/// Builds a ready-to-use analyzer for the nominal op-amp buffer.
///
/// # Panics
///
/// Panics if the operating point fails to converge — that would invalidate
/// every benchmark, so failing loudly is the right behaviour here.
pub fn opamp_analyzer() -> (StabilityAnalyzer, loopscope_circuits::OpAmpNodes) {
    let (circuit, nodes) = loopscope_circuits::two_stage_buffer(&nominal_opamp());
    let analyzer = StabilityAnalyzer::new(circuit, bench_options())
        .expect("nominal op-amp must have an operating point");
    (analyzer, nodes)
}

/// Formats a frequency in engineering units for table printouts.
pub fn fmt_freq(hz: f64) -> String {
    if hz >= 1.0e6 {
        format!("{:.2} MHz", hz / 1.0e6)
    } else if hz >= 1.0e3 {
        format!("{:.2} kHz", hz / 1.0e3)
    } else {
        format!("{hz:.2} Hz")
    }
}

/// Builds the complex MNA admittance matrix of an N-stage RC ladder at a
/// given angular-frequency scale (same pattern for every scale).
pub fn rc_ladder_matrix(stages: usize, jw_scale: f64) -> CsrMatrix<Complex64> {
    let mut t = TripletMatrix::<Complex64>::new(stages, stages);
    for i in 0..stages {
        let g = 1.0e-3 * (1.0 + (i % 7) as f64 * 0.1);
        let jwc = Complex64::new(0.0, jw_scale * 1.0e-9 * (1.0 + (i % 5) as f64 * 0.2));
        let mut diag = Complex64::from_real(g) + jwc;
        if i > 0 {
            t.push(i, i - 1, Complex64::from_real(-g));
            diag += Complex64::from_real(g);
        }
        if i + 1 < stages {
            t.push(i, i + 1, Complex64::from_real(-g));
        }
        t.push(i, i, diag);
    }
    t.to_csr()
}

/// Complex admittance matrix of a p×p 2-D RC mesh (5-point stencil): the
/// classic pattern where elimination order decides between O(n·p) fill
/// (banded/natural order) and far less (minimum degree).
pub fn mesh_matrix(p: usize, jw_scale: f64) -> CsrMatrix<Complex64> {
    let n = p * p;
    let mut t = TripletMatrix::<Complex64>::new(n, n);
    for i in 0..p {
        for j in 0..p {
            let u = i * p + j;
            let g = g_of(i, j);
            let jwc = Complex64::new(0.0, jw_scale * 1.0e-9 * (1.0 + ((i * j) % 3) as f64 * 0.2));
            let mut diag = Complex64::from_real(1.0e-6) + jwc;
            if i + 1 < p {
                t.push(u, u + p, Complex64::from_real(-g));
                t.push(u + p, u, Complex64::from_real(-g));
                diag += Complex64::from_real(g);
            }
            if i > 0 {
                diag += Complex64::from_real(g_of(i - 1, j));
            }
            if j + 1 < p {
                t.push(u, u + 1, Complex64::from_real(-g));
                t.push(u + 1, u, Complex64::from_real(-g));
                diag += Complex64::from_real(g);
            }
            if j > 0 {
                diag += Complex64::from_real(g_of(i, j - 1));
            }
            t.push(u, u, diag);
        }
    }
    t.to_csr()
}

/// The conductance used by [`mesh_matrix`] for the edge leaving cell (i, j).
fn g_of(i: usize, j: usize) -> f64 {
    1.0e-3 * (1.0 + ((i + j) % 5) as f64 * 0.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopscope_circuits::blocks::opamp_cascade;
    use loopscope_sparse::SparseLu;
    use loopscope_spice::ac::AcAnalysis;
    use loopscope_spice::dc::solve_dc;

    #[test]
    fn helpers_are_consistent() {
        assert_eq!(fmt_freq(3.16e6), "3.16 MHz");
        assert_eq!(fmt_freq(50.0e3), "50.00 kHz");
        assert_eq!(fmt_freq(12.0), "12.00 Hz");
        let opts = bench_options();
        assert!(opts.f_stop > opts.f_start);
    }

    /// The fill of the one fresh factorization on the solver bench's
    /// structured matrices, pinned exactly: the tridiagonal ladder factors
    /// without fill, the irreducible mesh in its minimum-degree order, and
    /// the buffered cascade as many small blocks with the inter-stage
    /// couplings stored raw.
    #[test]
    fn factor_fill_on_the_bench_matrices_is_pinned() {
        let ladder = SparseLu::factor(&rc_ladder_matrix(400, 1.0e3)).expect("ladder factors");
        assert_eq!(ladder.factor_nnz(), 1198);
        assert_eq!(ladder.block_count(), 1);

        let mesh = SparseLu::factor(&mesh_matrix(33, 1.0e3)).expect("mesh factors");
        assert_eq!(mesh.factor_nnz(), 25_375);
        assert_eq!(mesh.block_count(), 1);

        let (circuit, _outs) = opamp_cascade(24);
        let op = solve_dc(&circuit).expect("cascade operating point");
        let ac = AcAnalysis::new(&circuit, &op).expect("valid analysis");
        let cascade = ac.admittance_matrix(1.0e4);
        let lu = SparseLu::factor(&cascade).expect("cascade factors");
        assert_eq!(lu.factor_nnz(), 243);
        assert_eq!(lu.factor_nnz(), cascade.nnz(), "no fill at all");
        assert!(lu.block_count() > 24, "{} blocks", lu.block_count());
    }

    #[test]
    fn opamp_analyzer_builds() {
        let (analyzer, nodes) = opamp_analyzer();
        assert!(analyzer.circuit().node_count() > 3);
        assert_eq!(analyzer.circuit().node_name(nodes.output), "out");
    }
}
