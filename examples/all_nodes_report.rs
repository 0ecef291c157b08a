//! "All Nodes" run mode on the combined op-amp + bias circuit: regenerates a
//! report in the format of the paper's Table 2 — every node's stability peak
//! and natural frequency, grouped into loops and sorted by frequency.
//!
//! The scan's frequency points are chunked across worker threads (set
//! `LOOPSCOPE_THREADS` to pin the count; the default uses every hardware
//! core), and at each point every node's driving-point impedance is read off
//! one factorization by selected inversion, checked against two verified
//! sample solves — the report is bitwise identical at any worker count.
//!
//! Run with `cargo run --release --example all_nodes_report`.

use loopscope::prelude::*;
use loopscope_circuits::opamp_with_bias;
use loopscope_spice::ac::AcAnalysis;
use loopscope_spice::par;

fn main() -> Result<(), StabilityError> {
    let (circuit, opamp_nodes, bias_nodes) =
        opamp_with_bias(&OpAmpParams::default(), &BiasParams::default());
    println!(
        "circuit `{}`: {} nodes, {} elements — scanning with {} sweep worker(s) \
         (set {} to override), every node's impedance by selected inversion",
        circuit.title(),
        circuit.node_count(),
        circuit.elements().len(),
        par::configured_workers(),
        par::THREADS_ENV,
    );

    let options = StabilityOptions {
        f_start: 1.0e4,
        f_stop: 1.0e9,
        points_per_decade: 100,
        ..Default::default()
    };
    let analyzer = StabilityAnalyzer::new(circuit, options)?;

    // Solver structure of the admittance system the scan factors at every
    // frequency: the BTF block partition and the factor fill.
    let ac = AcAnalysis::new(analyzer.circuit(), analyzer.operating_point())?;
    let structure = ac.solver_structure(analyzer.options().f_start)?;
    println!(
        "solver structure: {} unknowns, {} BTF diagonal block(s), {} factor entries, \
         κ₁ ≥ {:.3e} at {:.0} Hz",
        structure.dim,
        structure.block_count,
        structure.fill_nnz,
        structure.condition_estimate,
        analyzer.options().f_start,
    );
    drop(ac);

    let report = analyzer.all_nodes()?;

    println!("\n{}", report.to_text());

    println!("detected loops:");
    for (i, group) in report.loops().iter().enumerate() {
        println!(
            "  loop {}: natural frequency {:.2} MHz, {} node(s), worst performance index {:.1}",
            i + 1,
            group.natural_freq_hz / 1.0e6,
            group.members.len(),
            group.worst_performance_index
        );
    }

    if let Some(worst) = report.worst() {
        let est = worst.estimate.expect("worst node carries an estimate");
        println!(
            "\nmost oscillation-prone node: `{}` (ζ = {:.3}, estimated PM {:.1}°)",
            worst.node_name, est.damping_ratio, est.phase_margin_deg
        );
    }

    // Confirm that the scan sees both the op-amp main loop and the bias cell's
    // local loop without any loop having been broken.
    let main = report
        .entries()
        .iter()
        .find(|e| e.node == opamp_nodes.output)
        .and_then(|e| e.natural_freq_hz());
    let local = report
        .entries()
        .iter()
        .find(|e| e.node == bias_nodes.q3_collector)
        .and_then(|e| e.natural_freq_hz());
    println!(
        "\nmain loop seen at the op-amp output      : {:?} Hz\nlocal loop seen at the bias Q3 collector : {:?} Hz",
        main, local
    );
    Ok(())
}
