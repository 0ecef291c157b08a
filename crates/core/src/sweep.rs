//! Corner and parameter sweeps (paper §4.2 "features in development").
//!
//! The original tool lists "in-tool corners setup" and "in-tool sweeps (TEMP
//! etc.)" as features under development: run the same stability analysis over
//! a set of circuit variants — process corners, temperatures, component
//! spreads — and report how the loop characteristics move. This module
//! implements that workflow on top of [`StabilityAnalyzer`]: the caller
//! supplies labelled circuit variants (each already reflecting its corner:
//! scaled model parameters, retuned component values, …) and gets back one
//! [`SweepPoint`] per variant plus worst-case helpers.

use crate::analysis::{StabilityAnalyzer, StabilityOptions};
use crate::error::StabilityError;
use crate::result::{LoopEstimate, NodeStabilityResult};
use loopscope_netlist::{Circuit, NodeId};
use loopscope_spice::batch::{driving_point_batch, BatchVariant};
use loopscope_spice::mna::MnaLayout;
use std::sync::Mutex;

/// The outcome of one sweep/corner point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Caller-supplied label of the variant (e.g. `"T=125C"`, `"cload=1nF"`).
    pub label: String,
    /// The probed node's loop estimate, or `None` when the node shows no
    /// under-damped loop at this corner.
    pub estimate: Option<LoopEstimate>,
}

/// Results of a corner/parameter sweep of a single node.
#[derive(Debug, Clone)]
pub struct NodeSweep {
    /// Name of the probed node.
    pub node_name: String,
    /// One entry per analysed variant, in input order.
    pub points: Vec<SweepPoint>,
}

impl NodeSweep {
    /// The corner with the least-damped loop (lowest damping ratio), if any
    /// corner shows a loop at all.
    pub fn worst_case(&self) -> Option<&SweepPoint> {
        self.points
            .iter()
            .filter(|p| p.estimate.is_some())
            .min_by(|a, b| {
                let za = a.estimate.expect("filtered").damping_ratio;
                let zb = b.estimate.expect("filtered").damping_ratio;
                za.partial_cmp(&zb).expect("finite damping")
            })
    }

    /// Returns `true` when every corner meets the given minimum phase margin
    /// (corners with no detected loop trivially pass).
    pub fn meets_phase_margin(&self, min_margin_deg: f64) -> bool {
        self.points.iter().all(|p| {
            p.estimate
                .is_none_or(|e| e.phase_margin_exact_deg >= min_margin_deg)
        })
    }

    /// Renders the sweep as a small text table.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "corner sweep of node `{}`\n{:<20} {:>12} {:>14} {:>10} {:>12}\n",
            self.node_name, "corner", "peak", "fn [Hz]", "ζ", "PM [deg]"
        );
        for p in &self.points {
            match p.estimate {
                Some(e) => out.push_str(&format!(
                    "{:<20} {:>12.2} {:>14.4e} {:>10.3} {:>12.1}\n",
                    p.label,
                    e.performance_index,
                    e.natural_freq_hz,
                    e.damping_ratio,
                    e.phase_margin_exact_deg
                )),
                None => out.push_str(&format!("{:<20} {:>12}\n", p.label, "(no loop)")),
            }
        }
        out
    }
}

/// Runs the single-node stability analysis on every labelled circuit variant.
///
/// Corner variants share the circuit *topology* — they differ only in
/// component values — so the frequency sweeps of all variants run through
/// the batched engine ([`loopscope_spice::batch`]): **one** symbolic
/// analysis serves the entire sweep, variants are packed up to
/// [`MAX_LANES`](loopscope_sparse::MAX_LANES) lanes wide through the batched
/// refactor/solve, and variant groups × frequency points are chunked across
/// worker threads (`LOOPSCOPE_THREADS`). Each variant still gets its own DC
/// operating point. Results are in input order and bitwise identical to
/// analysing each variant independently, at any worker count and batch
/// size.
///
/// Variants whose topology differs from the first variant's (different
/// nodes, different system dimension) are analysed per-variant through
/// [`StabilityAnalyzer::single_node`] instead — same results, without the
/// shared-plan amortization.
///
/// # Errors
///
/// Returns the first (in input order) [`StabilityError`] encountered; a
/// corner whose circuit fails to converge aborts the sweep so the failure is
/// not silently dropped.
pub fn sweep_node<I>(
    variants: I,
    node_name: &str,
    options: StabilityOptions,
) -> Result<NodeSweep, StabilityError>
where
    I: IntoIterator<Item = (String, Circuit)>,
{
    // Per-variant preparation (validation, AC-source zeroing, DC operating
    // point), chunked across workers; the lowest-index failure aborts. Each
    // step moves its variant out of its own slot, so no circuit is cloned.
    let slots: Vec<Mutex<Option<(String, Circuit)>>> = variants
        .into_iter()
        .map(|variant| Mutex::new(Some(variant)))
        .collect();
    let (prepared, _) = loopscope_spice::par::sweep_chunks(
        &slots,
        || (),
        |(), _idx, slot| -> Result<(String, StabilityAnalyzer), StabilityError> {
            let (label, circuit) = slot
                .lock()
                .expect("no step panics while holding a slot")
                .take()
                .expect("each variant is prepared exactly once");
            let analyzer = StabilityAnalyzer::new(circuit, options)?;
            Ok((label, analyzer))
        },
    );
    let prepared = prepared?;
    if prepared.is_empty() {
        return Ok(NodeSweep {
            node_name: node_name.to_string(),
            points: Vec::new(),
        });
    }

    let base = prepared[0].1.circuit();
    let node = base
        .find_node(node_name)
        .ok_or_else(|| StabilityError::UnknownNode(node_name.to_string()))?;
    let base_dim = MnaLayout::new(base).dim();
    let homogeneous = prepared.iter().all(|(_, a)| {
        a.circuit().node_count() == base.node_count()
            && a.circuit().find_node(node_name) == Some(node)
            && MnaLayout::new(a.circuit()).dim() == base_dim
    });
    let points = if homogeneous {
        sweep_batched(&prepared, node, options)?
    } else {
        sweep_per_variant(&prepared, node_name)?
    };
    Ok(NodeSweep {
        node_name: node_name.to_string(),
        points,
    })
}

/// The batched path: one shared symbolic analysis, variant-lane solves.
fn sweep_batched(
    prepared: &[(String, StabilityAnalyzer)],
    node: NodeId,
    options: StabilityOptions,
) -> Result<Vec<SweepPoint>, StabilityError> {
    let grid = options.grid();
    let batch: Vec<BatchVariant<'_>> = prepared
        .iter()
        .map(|(label, analyzer)| BatchVariant {
            label,
            circuit: analyzer.circuit(),
            op: analyzer.operating_point(),
        })
        .collect();
    let sweep = driving_point_batch(&batch, node, &grid)?;
    let mut points = Vec::with_capacity(prepared.len());
    for ((label, analyzer), outcome) in prepared.iter().zip(sweep.outcomes()) {
        // A per-variant failure aborts the sweep, first input index wins —
        // the historical contract of the per-variant path.
        if let Some(e) = &outcome.error {
            return Err(StabilityError::Spice(e.clone()));
        }
        let response = outcome.response.as_ref().expect("converged outcome");
        let mags: Vec<f64> = response.iter().map(|v| v.abs()).collect();
        let plot = StabilityAnalyzer::plot_from_response(grid.freqs(), mags);
        let result = NodeStabilityResult::from_plot(
            node,
            analyzer.circuit().node_name(node),
            plot,
            options.peak_threshold,
        );
        points.push(SweepPoint {
            label: label.clone(),
            estimate: result.estimate,
        });
    }
    Ok(points)
}

/// Fallback for heterogeneous variants: independent per-variant analyses.
fn sweep_per_variant(
    prepared: &[(String, StabilityAnalyzer)],
    node_name: &str,
) -> Result<Vec<SweepPoint>, StabilityError> {
    let (points, _) = loopscope_spice::par::sweep_chunks(
        prepared,
        || (),
        |(), _idx, (label, analyzer)| -> Result<SweepPoint, StabilityError> {
            let result = analyzer.single_node_by_name(node_name)?;
            Ok(SweepPoint {
                label: label.clone(),
                estimate: result.estimate,
            })
        },
    );
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopscope_circuits::{two_stage_buffer, OpAmpParams};

    fn options() -> StabilityOptions {
        StabilityOptions {
            f_start: 1.0e3,
            f_stop: 1.0e8,
            points_per_decade: 60,
            ..Default::default()
        }
    }

    fn variants() -> Vec<(String, loopscope_netlist::Circuit)> {
        // A load-capacitance sweep: heavier loads push the output pole down
        // and reduce the phase margin.
        [100.0e-12, 250.0e-12, 600.0e-12]
            .into_iter()
            .map(|cload| {
                let params = OpAmpParams {
                    cload,
                    ..Default::default()
                };
                let (circuit, _) = two_stage_buffer(&params);
                (format!("cload={:.0}pF", cload * 1.0e12), circuit)
            })
            .collect()
    }

    #[test]
    fn cload_sweep_orders_damping() {
        let sweep = sweep_node(variants(), "out", options()).unwrap();
        assert_eq!(sweep.points.len(), 3);
        let zetas: Vec<f64> = sweep
            .points
            .iter()
            .map(|p| p.estimate.map(|e| e.damping_ratio).unwrap_or(1.0))
            .collect();
        // Heavier load ⇒ less damping.
        assert!(
            zetas[0] > zetas[1] && zetas[1] > zetas[2],
            "zetas {zetas:?}"
        );
        let worst = sweep.worst_case().unwrap();
        assert_eq!(worst.label, "cload=600pF");
        assert!(!sweep.meets_phase_margin(60.0));
        assert!(sweep.meets_phase_margin(1.0));
        let text = sweep.to_text();
        assert!(text.contains("cload=100pF"));
        assert!(text.contains("out"));
    }

    #[test]
    fn batched_sweep_matches_per_variant_reference_bitwise() {
        // Regression contract of the batched migration: the shared-plan
        // lane-batched sweep must reproduce the old per-variant path (an
        // independent analysis per corner) bit for bit.
        let sweep = sweep_node(variants(), "out", options()).unwrap();
        assert_eq!(sweep.points.len(), 3);
        for ((label, circuit), point) in variants().into_iter().zip(&sweep.points) {
            let analyzer = StabilityAnalyzer::new(circuit, options()).unwrap();
            let reference = analyzer.single_node_by_name("out").unwrap();
            assert_eq!(point.label, label);
            match (reference.estimate, point.estimate) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.natural_freq_hz.to_bits(), b.natural_freq_hz.to_bits());
                    assert_eq!(a.damping_ratio.to_bits(), b.damping_ratio.to_bits());
                    assert_eq!(a.performance_index.to_bits(), b.performance_index.to_bits());
                    assert_eq!(
                        a.phase_margin_exact_deg.to_bits(),
                        b.phase_margin_exact_deg.to_bits()
                    );
                }
                (None, None) => {}
                (a, b) => panic!("estimate presence diverged: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn heterogeneous_variants_fall_back_to_per_variant_analyses() {
        // A topology mismatch (different node sets) cannot share one plan;
        // the sweep must still succeed via the per-variant fallback.
        let mut rc = loopscope_netlist::Circuit::new("rc");
        let out = rc.node("out");
        rc.add_resistor("R1", out, loopscope_netlist::Circuit::GROUND, 1.0e3);
        rc.add_capacitor("C1", out, loopscope_netlist::Circuit::GROUND, 1.0e-9);
        let mut all = variants();
        all.push(("rc".to_string(), rc));
        let sweep = sweep_node(all, "out", options()).unwrap();
        assert_eq!(sweep.points.len(), 4);
        assert_eq!(sweep.points[3].label, "rc");
    }

    #[test]
    fn sweep_propagates_failures() {
        // An invalid circuit (floating node) must abort the sweep.
        let mut bad = loopscope_netlist::Circuit::new("bad");
        let a = bad.node("a");
        let b = bad.node("b");
        bad.add_resistor("R1", a, b, 1.0);
        let result = sweep_node(vec![("broken".to_string(), bad)], "a", options());
        assert!(result.is_err());
    }
}
