//! Cross-crate integration tests: netlist → operating point → AC probe →
//! stability plot → report, exercised through the umbrella crate's public API.

use loopscope::prelude::*;
use loopscope_circuits::blocks::{series_rlc, series_rlc_damping, series_rlc_natural_freq};
use loopscope_circuits::opamp_with_bias;
use loopscope_core::baseline::transient_overshoot;
use loopscope_validate::Tolerance;

fn fast_options(f_start: f64, f_stop: f64) -> StabilityOptions {
    StabilityOptions {
        f_start,
        f_stop,
        points_per_decade: 80,
        ..Default::default()
    }
}

/// The complete pipeline on a circuit built from a text netlist: a series RLC
/// with ζ = 0.25 described in SPICE syntax, probed without modification.
#[test]
fn netlist_to_stability_estimate() {
    let netlist = r"
ringing rlc
V1 in 0 DC 0
R1 in mid 500
L1 mid out 1m
C1 out 0 1n
.end
";
    let circuit = parse_netlist(netlist).expect("netlist parses");
    let out = circuit.find_node("out").expect("out node exists");
    let analyzer = StabilityAnalyzer::new(circuit, fast_options(1.0e3, 1.0e7)).unwrap();
    let result = analyzer.single_node(out).unwrap();
    let est = result.estimate.expect("complex pole pair");
    let zeta = series_rlc_damping(500.0, 1.0e-3, 1.0e-9);
    Tolerance::absolute(0.02).assert_close("zeta", "V(out) peak", est.damping_ratio, zeta);
    Tolerance::relative(0.03).assert_close(
        "natural frequency [Hz]",
        "V(out) peak",
        est.natural_freq_hz,
        series_rlc_natural_freq(1.0e-3, 1.0e-9),
    );
}

/// The stability-plot estimate and the transient-overshoot baseline must agree
/// on the damping ratio of the same circuit (paper's Fig. 2 vs Fig. 4 cross
/// check), here on a circuit whose true ζ is known exactly.
#[test]
fn stability_plot_agrees_with_transient_baseline() {
    let l: f64 = 1.0e-3;
    let cap: f64 = 1.0e-9;
    let r = 2.0 * 0.3 * (l / cap).sqrt();
    let (circuit, out) = series_rlc(r, l, cap);

    let analyzer = StabilityAnalyzer::new(circuit.clone(), fast_options(1.0e3, 1.0e7)).unwrap();
    let plot_estimate = analyzer.single_node(out).unwrap().estimate.unwrap();

    let overshoot = transient_overshoot(&circuit, out, 40.0e-9, 80.0e-6).unwrap();

    Tolerance::absolute(0.04).assert_close(
        "zeta",
        "stability plot vs transient baseline",
        plot_estimate.damping_ratio,
        overshoot.equivalent_damping,
    );
    Tolerance::absolute(8.0).assert_close(
        "percent overshoot",
        "stability plot vs transient baseline",
        plot_estimate.percent_overshoot,
        overshoot.percent_overshoot,
    );
}

/// The all-nodes scan of the combined op-amp + bias circuit must find at least
/// two distinct loops (the MHz main loop and the bias cell's local loop), with
/// the main loop grouping together the output-path nodes — the paper's
/// Table 2 scenario.
#[test]
fn all_nodes_finds_main_and_local_loops() {
    let (circuit, opamp_nodes, bias_nodes) =
        opamp_with_bias(&OpAmpParams::default(), &BiasParams::default());
    let analyzer = StabilityAnalyzer::new(circuit, fast_options(1.0e4, 1.0e9)).unwrap();
    let report = analyzer.all_nodes().unwrap();

    assert!(
        report.loops().len() >= 2,
        "expected at least two loops, got {}",
        report.loops().len()
    );

    // The op-amp output must belong to a loop in the MHz range.
    let main_freq = report
        .entries()
        .iter()
        .find(|e| e.node == opamp_nodes.output)
        .and_then(|e| e.natural_freq_hz())
        .expect("main loop visible at the output");
    assert!(
        main_freq > 5.0e5 && main_freq < 1.0e7,
        "main loop at {main_freq}"
    );

    // The bias cell's regulation loop must show up well above the main loop.
    let bias_freq = report
        .entries()
        .iter()
        .find(|e| e.node == bias_nodes.q3_collector)
        .and_then(|e| e.natural_freq_hz())
        .expect("local bias loop visible at the Q3 collector");
    assert!(
        bias_freq > 2.0 * main_freq,
        "bias loop at {bias_freq} vs main at {main_freq}"
    );

    // The report text renders and mentions the output node.
    let text = report.to_text();
    assert!(text.contains("out"));
}

/// Retuning the compensation (larger Miller capacitor, smaller load) must
/// increase the estimated phase margin — the workflow a designer follows
/// after the tool flags a marginal loop.
#[test]
fn compensation_improves_phase_margin() {
    let nominal = OpAmpParams::default();
    let improved = OpAmpParams {
        c1: 12.0e-12,
        cload: 100.0e-12,
        ..nominal
    };
    let pm_of = |params: &OpAmpParams| {
        let (circuit, nodes) = two_stage_buffer(params);
        let analyzer = StabilityAnalyzer::new(circuit, fast_options(1.0e3, 1.0e8)).unwrap();
        analyzer
            .single_node(nodes.output)
            .unwrap()
            .estimate
            .map(|e| e.phase_margin_exact_deg)
    };
    let pm_nominal = pm_of(&nominal).expect("nominal circuit peaks");
    // (If no peak remains at all, the loop became even better damped.)
    if let Some(pm_improved) = pm_of(&improved) {
        assert!(
            pm_improved > pm_nominal + 5.0,
            "improved {pm_improved} vs nominal {pm_nominal}"
        );
    }
}

/// The analyzer must leave the caller's circuit untouched (probing is
/// non-invasive), and the same analyzer can serve many queries.
#[test]
fn analyzer_is_reusable_and_non_invasive() {
    let (circuit, nodes) = two_stage_buffer(&OpAmpParams::default());
    let element_count = circuit.elements().len();
    let analyzer = StabilityAnalyzer::new(circuit.clone(), fast_options(1.0e3, 1.0e8)).unwrap();
    let a = analyzer.single_node(nodes.output).unwrap();
    let b = analyzer.single_node(nodes.stage1).unwrap();
    let c = analyzer.single_node(nodes.output).unwrap();
    assert_eq!(analyzer.circuit().elements().len(), element_count);
    assert_eq!(a.peak.map(|p| p.x), c.peak.map(|p| p.x));
    // Both nodes on the same loop agree on the natural frequency within a few
    // per cent (paper Table 2 shows the same behaviour).
    if let (Some(fa), Some(fb)) = (a.natural_freq_hz(), b.natural_freq_hz()) {
        Tolerance::relative(0.1).assert_close("natural frequency [Hz]", "stage1 vs output", fb, fa);
    }
}

/// The all-nodes scan reads every node's impedance off a selected inversion
/// of the admittance factors. On the 16×16 power-grid mesh the `supply`
/// node, which the `Vdd` source pins, lands in a lower block of the
/// block-triangular inverse: its response must be an exact zero at every
/// point, as the node's own unit-injection solve gives. The grid nodes must
/// match their own solves to the verification tolerance.
#[test]
fn mesh_supply_node_all_nodes_response_is_exactly_zero() {
    use loopscope::math::Complex64;
    use loopscope_circuits::power_grid;

    let (circuit, grid_nodes) = power_grid(16, 16);
    let op = solve_dc(&circuit).unwrap();
    let ac = AcAnalysis::new(&circuit, &op).unwrap();
    let grid = FrequencyGrid::log_decade(1.0e3, 1.0e8, 4);
    let all = ac.driving_point_all_nodes(&grid).unwrap();
    let nodes = circuit.signal_nodes();
    let supply = circuit.find_node("supply").unwrap();
    let k = nodes.iter().position(|&n| n == supply).unwrap();
    let single = ac.driving_point_response(supply, &grid).unwrap();
    assert_eq!(all[k].len(), grid.len());
    for (a, s) in all[k].iter().zip(&single) {
        assert_eq!(*a, Complex64::ZERO, "all-nodes supply response");
        assert_eq!(*a, *s, "single-node supply response");
    }
    for &probe in &[grid_nodes[0], grid_nodes[255]] {
        let k = nodes.iter().position(|&n| n == probe).unwrap();
        let single = ac.driving_point_response(probe, &grid).unwrap();
        for (a, s) in all[k].iter().zip(&single) {
            assert!((*a - *s).abs() <= 1.0e-9 * s.abs(), "{a:?} vs {s:?}");
        }
    }
    assert_eq!(ac.solve_stats().inverse_fallbacks, 0);
}
