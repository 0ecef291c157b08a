//! Run-mode drivers: "Single Node" and "All Nodes" analyses.
//!
//! These mirror the run modes of the original DFII tool (paper §4.1): the
//! user either selects one net on the schematic and gets its stability plot
//! plus estimated phase margin, or scans every node of the circuit and gets a
//! report sorted by loop natural frequency.

use crate::error::StabilityError;
use crate::plot::StabilityPlot;
use crate::report::AllNodesReport;
use crate::result::NodeStabilityResult;
use loopscope_math::FrequencyGrid;
use loopscope_netlist::{Circuit, NodeId};
use loopscope_spice::ac::AcAnalysis;
use loopscope_spice::dc::{solve_dc, OperatingPoint};
use loopscope_spice::SolverBackend;

/// Options for a stability analysis run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StabilityOptions {
    /// Sweep start frequency in hertz.
    pub f_start: f64,
    /// Sweep stop frequency in hertz.
    pub f_stop: f64,
    /// Frequency resolution in points per decade; the stability plot is a
    /// second derivative, so it needs a denser grid than a plain Bode plot.
    pub points_per_decade: usize,
    /// Peaks shallower than this value are ignored. The default of `−1`
    /// corresponds to ζ = 1 (critically damped): anything above it cannot be
    /// an under-damped loop. Must be finite and negative.
    pub peak_threshold: f64,
    /// Relative tolerance used to cluster nodes into loops by natural
    /// frequency in the all-nodes report.
    pub group_tolerance: f64,
    /// Zero out the AC stimulus of every pre-existing independent source
    /// before probing (the tool's "auto-zero all AC sources" feature). The
    /// probe itself is injected by the analysis and is unaffected.
    pub zero_existing_ac: bool,
}

impl Default for StabilityOptions {
    fn default() -> Self {
        Self {
            f_start: 1.0e3,
            f_stop: 1.0e9,
            points_per_decade: 100,
            peak_threshold: -1.0,
            group_tolerance: 0.2,
            zero_existing_ac: true,
        }
    }
}

impl StabilityOptions {
    fn validate(&self) -> Result<(), StabilityError> {
        if !(self.f_start > 0.0 && self.f_stop > self.f_start) {
            return Err(StabilityError::InvalidOptions(
                "frequency sweep bounds must satisfy 0 < start < stop".to_string(),
            ));
        }
        if !(self.f_start.is_finite() && self.f_stop.is_finite()) {
            return Err(StabilityError::InvalidOptions(
                "frequency sweep bounds must be finite".to_string(),
            ));
        }
        if self.points_per_decade < 10 {
            return Err(StabilityError::InvalidOptions(
                "at least 10 points per decade are required for a usable second derivative"
                    .to_string(),
            ));
        }
        // `local_minima` compares every sample against the threshold: NaN
        // and −∞ fail every comparison and would silently hide every loop.
        if !(self.peak_threshold < 0.0 && self.peak_threshold.is_finite()) {
            return Err(StabilityError::InvalidOptions(
                "the peak threshold must be finite and negative".to_string(),
            ));
        }
        if !(self.group_tolerance > 0.0 && self.group_tolerance < 1.0) {
            return Err(StabilityError::InvalidOptions(
                "the loop-grouping tolerance must be in (0, 1)".to_string(),
            ));
        }
        Ok(())
    }

    /// The frequency grid realized from these options.
    pub fn grid(&self) -> FrequencyGrid {
        FrequencyGrid::log_decade(self.f_start, self.f_stop, self.points_per_decade)
    }
}

/// The stability analyzer: owns a copy of the circuit, its DC operating point
/// and the sweep options, and runs single-node or all-nodes scans against it.
#[derive(Debug)]
pub struct StabilityAnalyzer {
    circuit: Circuit,
    op: OperatingPoint,
    options: StabilityOptions,
    zeroed_sources: usize,
}

impl StabilityAnalyzer {
    /// Prepares the analyzer: optionally zeroes pre-existing AC stimuli,
    /// validates the circuit and solves its DC operating point.
    ///
    /// # Errors
    ///
    /// Returns [`StabilityError::InvalidOptions`] for inconsistent sweep
    /// options and [`StabilityError::Spice`] when the circuit fails
    /// validation or its operating point cannot be found.
    pub fn new(mut circuit: Circuit, options: StabilityOptions) -> Result<Self, StabilityError> {
        options.validate()?;
        let zeroed_sources = if options.zero_existing_ac {
            circuit.zero_ac_sources()
        } else {
            0
        };
        let op = solve_dc(&circuit)?;
        Ok(Self {
            circuit,
            op,
            options,
            zeroed_sources,
        })
    }

    /// Vestige of the retired solver-backend choice, kept so existing
    /// callers compile: a no-op, since every run solves on the one direct
    /// path ([`SolverBackend::Direct`]).
    pub fn set_solver_backend(&mut self, _backend: SolverBackend) {}

    /// The circuit under analysis (with AC sources possibly zeroed).
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The DC operating point the small-signal analysis is linearized around.
    pub fn operating_point(&self) -> &OperatingPoint {
        &self.op
    }

    /// The analysis options.
    pub fn options(&self) -> &StabilityOptions {
        &self.options
    }

    /// Number of independent sources whose AC stimulus was zeroed during
    /// preparation.
    pub fn zeroed_sources(&self) -> usize {
        self.zeroed_sources
    }

    /// Builds a stability plot from a driving-point magnitude response,
    /// guarding against nodes with (numerically) zero response — e.g. nets
    /// pinned by ideal voltage sources, whose driving-point impedance is zero.
    /// Such samples are clamped to a tiny floor so the plot stays defined and
    /// simply shows no peak there.
    pub(crate) fn plot_from_response(freqs: &[f64], mags: Vec<f64>) -> StabilityPlot {
        let max = mags.iter().cloned().fold(0.0f64, f64::max);
        let floor = (max * 1.0e-15).max(1.0e-30);
        let clamped: Vec<f64> = mags.into_iter().map(|m| m.max(floor)).collect();
        StabilityPlot::from_magnitude(freqs.to_vec(), clamped)
    }

    fn check_node(&self, node: NodeId) -> Result<(), StabilityError> {
        if node.is_ground() {
            return Err(StabilityError::UnknownNode(
                "the ground node cannot be probed".to_string(),
            ));
        }
        if node.index() >= self.circuit.node_count() {
            return Err(StabilityError::UnknownNode(format!(
                "node index {} does not exist in this circuit",
                node.index()
            )));
        }
        Ok(())
    }

    /// "Single Node" run mode: probes one node and returns its stability plot,
    /// dominant peak and estimated loop characteristics.
    ///
    /// # Errors
    ///
    /// Returns [`StabilityError::UnknownNode`] for ground or foreign nodes and
    /// [`StabilityError::Spice`] for simulation failures.
    pub fn single_node(&self, node: NodeId) -> Result<NodeStabilityResult, StabilityError> {
        self.check_node(node)?;
        let grid = self.options.grid();
        let ac = AcAnalysis::new(&self.circuit, &self.op)?;
        let response = ac.driving_point_response(node, &grid)?;
        let mags: Vec<f64> = response.iter().map(|v| v.abs()).collect();
        let plot = Self::plot_from_response(grid.freqs(), mags);
        Ok(NodeStabilityResult::from_plot(
            node,
            self.circuit.node_name(node),
            plot,
            self.options.peak_threshold,
        ))
    }

    /// Convenience wrapper of [`single_node`](Self::single_node) addressing
    /// the node by its net name.
    ///
    /// # Errors
    ///
    /// Returns [`StabilityError::UnknownNode`] when no net of that name exists.
    pub fn single_node_by_name(&self, name: &str) -> Result<NodeStabilityResult, StabilityError> {
        let node = self
            .circuit
            .find_node(name)
            .ok_or_else(|| StabilityError::UnknownNode(name.to_string()))?;
        self.single_node(node)
    }

    /// "All Nodes" run mode: probes every non-ground node, groups the detected
    /// peaks into loops by natural frequency and returns the full report
    /// (paper Table 2).
    ///
    /// # Errors
    ///
    /// Returns [`StabilityError::Spice`] for simulation failures.
    pub fn all_nodes(&self) -> Result<AllNodesReport, StabilityError> {
        let grid = self.options.grid();
        let ac = AcAnalysis::new(&self.circuit, &self.op)?;
        let responses = ac.driving_point_all_nodes(&grid)?;
        let nodes = self.circuit.signal_nodes();
        let mut entries = Vec::with_capacity(nodes.len());
        for (node, response) in nodes.into_iter().zip(responses) {
            let mags: Vec<f64> = response.iter().map(|v| v.abs()).collect();
            let plot = Self::plot_from_response(grid.freqs(), mags);
            entries.push(NodeStabilityResult::from_plot(
                node,
                self.circuit.node_name(node),
                plot,
                self.options.peak_threshold,
            ));
        }
        Ok(AllNodesReport::new(entries, self.options.group_tolerance))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopscope_circuits::blocks::{
        rc_ladder, series_rlc, series_rlc_damping, series_rlc_natural_freq,
    };
    use loopscope_circuits::{two_stage_buffer, OpAmpParams};

    fn fast_options() -> StabilityOptions {
        StabilityOptions {
            f_start: 1.0e3,
            f_stop: 1.0e8,
            points_per_decade: 60,
            ..Default::default()
        }
    }

    #[test]
    fn options_validation() {
        let o = StabilityOptions {
            f_start: -1.0,
            ..Default::default()
        };
        assert!(StabilityAnalyzer::new(Circuit::new("x"), o).is_err());
        let o = StabilityOptions {
            points_per_decade: 2,
            ..Default::default()
        };
        assert!(matches!(
            StabilityAnalyzer::new(Circuit::new("x"), o),
            Err(StabilityError::InvalidOptions(_))
        ));
        for peak_threshold in [0.5, f64::NAN, f64::NEG_INFINITY, f64::INFINITY] {
            let o = StabilityOptions {
                peak_threshold,
                ..Default::default()
            };
            assert!(
                matches!(o.validate(), Err(StabilityError::InvalidOptions(_))),
                "{peak_threshold}"
            );
        }
        let o = StabilityOptions {
            group_tolerance: 1.5,
            ..Default::default()
        };
        assert!(StabilityAnalyzer::new(Circuit::new("x"), o).is_err());
    }

    #[test]
    fn non_finite_sweep_bounds_are_invalid() {
        for (f_start, f_stop) in [
            (1.0e3, f64::INFINITY),
            (f64::INFINITY, f64::INFINITY),
            (f64::NAN, 1.0e9),
            (1.0e3, f64::NAN),
        ] {
            let o = StabilityOptions {
                f_start,
                f_stop,
                ..Default::default()
            };
            assert!(
                matches!(o.validate(), Err(StabilityError::InvalidOptions(_))),
                "{f_start} .. {f_stop}"
            );
        }
    }

    #[test]
    fn known_damping_series_rlc() {
        // ζ = 0.25 at 159 kHz: the estimate must recover both.
        let l: f64 = 1.0e-3;
        let cap: f64 = 1.0e-9;
        let r = 2.0 * 0.25 * (l / cap).sqrt();
        let (circuit, out) = series_rlc(r, l, cap);
        let zeta = series_rlc_damping(r, l, cap);
        let fnat = series_rlc_natural_freq(l, cap);
        let options = StabilityOptions {
            f_start: 1.0e3,
            f_stop: 1.0e7,
            points_per_decade: 120,
            ..Default::default()
        };
        let analyzer = StabilityAnalyzer::new(circuit, options).unwrap();
        let result = analyzer.single_node(out).unwrap();
        let est = result.estimate.expect("complex pole pair expected");
        assert!(
            (est.damping_ratio - zeta).abs() < 0.02,
            "ζ = {}",
            est.damping_ratio
        );
        assert!(
            (est.natural_freq_hz - fnat).abs() / fnat < 0.03,
            "fn = {}",
            est.natural_freq_hz
        );
    }

    #[test]
    fn rc_ladder_reports_no_loops() {
        let (circuit, nodes) = rc_ladder(4, 1.0e3, 1.0e-9);
        let analyzer = StabilityAnalyzer::new(circuit, fast_options()).unwrap();
        for node in nodes {
            let r = analyzer.single_node(node).unwrap();
            assert!(
                r.estimate.is_none(),
                "real-pole ladder must not report a loop at {}",
                r.node_name
            );
        }
    }

    #[test]
    fn opamp_buffer_main_loop_detected() {
        let (circuit, nodes) = two_stage_buffer(&OpAmpParams::default());
        let analyzer = StabilityAnalyzer::new(circuit, fast_options()).unwrap();
        let result = analyzer.single_node(nodes.output).unwrap();
        let est = result.estimate.expect("under-compensated buffer must peak");
        assert!(est.natural_freq_hz > 5.0e5 && est.natural_freq_hz < 1.0e7);
        assert!(est.damping_ratio < 0.5);
        // The probe injection never altered the stored circuit.
        assert_eq!(analyzer.circuit().elements().len(), 9);
    }

    #[test]
    fn single_node_by_name_and_errors() {
        let (circuit, _) = two_stage_buffer(&OpAmpParams::default());
        let analyzer = StabilityAnalyzer::new(circuit, fast_options()).unwrap();
        assert!(analyzer.single_node_by_name("out").is_ok());
        assert!(matches!(
            analyzer.single_node_by_name("not_a_net"),
            Err(StabilityError::UnknownNode(_))
        ));
        assert!(matches!(
            analyzer.single_node(Circuit::GROUND),
            Err(StabilityError::UnknownNode(_))
        ));
        assert!(matches!(
            analyzer.single_node(NodeId::from_index(999)),
            Err(StabilityError::UnknownNode(_))
        ));
    }

    #[test]
    fn ac_sources_are_zeroed_by_default() {
        use loopscope_netlist::SourceSpec;
        let mut circuit = Circuit::new("with ac");
        let a = circuit.node("a");
        circuit.add_vsource("V1", a, Circuit::GROUND, SourceSpec::dc_ac(1.0, 1.0, 0.0));
        circuit.add_resistor("R1", a, Circuit::GROUND, 1.0e3);
        circuit.add_capacitor("C1", a, Circuit::GROUND, 1.0e-12);
        let analyzer = StabilityAnalyzer::new(circuit.clone(), fast_options()).unwrap();
        assert_eq!(analyzer.zeroed_sources(), 1);
        let keep = StabilityOptions {
            zero_existing_ac: false,
            ..fast_options()
        };
        let analyzer2 = StabilityAnalyzer::new(circuit, keep).unwrap();
        assert_eq!(analyzer2.zeroed_sources(), 0);
    }
}
