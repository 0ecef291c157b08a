//! A driving-point probe solves only the BTF block that holds its injected
//! row. On random multi-block circuits — RC sections joined by one-way
//! VCCS couplings, plus a node pinned by a voltage source — every signal
//! node's `driving_point_response` must equal, at every point, the value a
//! verified solve of the whole system reads at that node: the system
//! stamped over a plan built at the first frequency, a unit injection and
//! `solve_verified_in_place`. The comparison is `==` on `re` and `im`, so
//! only the sign of an exact zero may differ. The batched Monte Carlo lanes
//! must equal their serial per-variant references bit for bit.

use loopscope_math::{Complex64, FrequencyGrid};
use loopscope_netlist::{Circuit, NodeId, SourceSpec};
use loopscope_spice::ac::AcAnalysis;
use loopscope_spice::assembly::SweepPlan;
use loopscope_spice::batch::{driving_point_monte_carlo, ParameterVariation};
use loopscope_spice::dc::solve_dc;
use proptest::prelude::*;

/// One RC section: its node count (clamped to 1..=3), its series
/// resistance, its shunt capacitance.
type Section = (usize, f64, f64);

/// A coupling `(from, to, gm)`: a VCCS driving a node of section `to`,
/// controlled by a node of an earlier section `from`.
type Coupling = (usize, usize, f64);

/// Builds the circuit: each section is a resistor chain with a resistor and
/// a capacitor from every node to ground (one strongly connected block per
/// section); couplings run only from earlier sections into later ones, so
/// the sections stay separate blocks; a voltage source pins node `pin`,
/// which feeds the first section through a resistor.
fn multi_block(sections: &[Section], couplings: &[Coupling]) -> Circuit {
    let mut c = Circuit::new("multi-block");
    let pin = c.node("pin");
    c.add_vsource("VP", pin, Circuit::GROUND, SourceSpec::dc(1.0));
    let mut nodes: Vec<Vec<NodeId>> = Vec::new();
    for (s, &(count, ohms, farads)) in sections.iter().enumerate() {
        let mut section = Vec::new();
        for k in 0..count.clamp(1, 3) {
            let n = c.node(&format!("s{s}n{k}"));
            c.add_resistor(&format!("RG{s}_{k}"), n, Circuit::GROUND, 10.0 * ohms);
            c.add_capacitor(
                &format!("C{s}_{k}"),
                n,
                Circuit::GROUND,
                farads * (k + 1) as f64,
            );
            if let Some(&prev) = section.last() {
                c.add_resistor(&format!("R{s}_{k}"), prev, n, ohms);
            }
            section.push(n);
        }
        nodes.push(section);
    }
    c.add_resistor("RPIN", pin, nodes[0][0], 1.0e3);
    for (k, &(from, to, gm)) in couplings.iter().enumerate() {
        if nodes.len() < 2 {
            break;
        }
        let to = 1 + to % (nodes.len() - 1);
        let from = from % to;
        let out = nodes[to][k % nodes[to].len()];
        let control = nodes[from][k % nodes[from].len()];
        c.add_vccs(
            &format!("G{k}"),
            out,
            Circuit::GROUND,
            control,
            Circuit::GROUND,
            gm,
        );
    }
    c
}

/// The whole-system reference of `node`'s driving-point response: the
/// unit-injection system stamped at each frequency over a plan built at the
/// first, solved through the verified ladder, read at the node.
fn whole_system_reference(
    ac: &AcAnalysis<'_>,
    node: NodeId,
    grid: &FrequencyGrid,
) -> Vec<Complex64> {
    let freqs = grid.freqs();
    let layout = ac.layout();
    let var = layout.node_var(node).expect("signal node");
    let plan = SweepPlan::build(layout, &ac.assembly_job(freqs[0])).expect("plan");
    let mut ctx = plan.context();
    freqs
        .iter()
        .map(|&f| {
            ctx.assemble(&ac.assembly_job(f));
            let mut x = vec![Complex64::ZERO; layout.dim()];
            x[var] = Complex64::ONE;
            ctx.solve_verified_in_place(&mut x).expect("verified solve");
            x[var]
        })
        .collect()
}

fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
    v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn probe_responses_equal_the_whole_system_solve(
        sections in prop::collection::vec((1usize..4, 1.0e2f64..1.0e4, 1.0e-12f64..1.0e-9), 1..5),
        couplings in prop::collection::vec((0usize..8, 0usize..8, 1.0e-4f64..1.0e-2), 0..6),
    ) {
        let c = multi_block(&sections, &couplings);
        let op = solve_dc(&c).expect("operating point");
        let ac = AcAnalysis::new(&c, &op).expect("analysis");
        let grid = FrequencyGrid::log_decade(1.0e3, 1.0e9, 4);
        let structure = ac.solver_structure(grid.freqs()[0]).expect("structure");
        // The pinned node and its source branch are blocks of their own.
        prop_assert!(structure.block_count > 2, "{} blocks", structure.block_count);
        for node in c.signal_nodes() {
            let got = ac.driving_point_response(node, &grid).expect("probe");
            let want = whole_system_reference(&ac, node, &grid);
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert!(
                    g.re == w.re && g.im == w.im,
                    "node {}, point {}: probe {:?} vs whole system {:?}",
                    c.node_name(node), k, g, w
                );
            }
        }
        let pin = c.find_node("pin").expect("pinned node");
        let z = ac.driving_point_response(pin, &grid).expect("probe");
        prop_assert!(bits(&z) == bits(&vec![Complex64::ZERO; z.len()]), "pinned node reads {:?}", z);

        // Batched Monte Carlo lanes against their serial references.
        let node = *c.signal_nodes().last().expect("a signal node");
        let variation = ParameterVariation::new(0x5EED)
            .gaussian("RG0_0", 0.1)
            .uniform("C0_0", 0.2);
        let count = 3;
        let sweep = driving_point_monte_carlo(&c, &op, node, &grid, &variation, count)
            .expect("batch");
        for (i, outcome) in sweep.outcomes().iter().enumerate() {
            let mut variant = c.clone();
            variation.apply(i, &mut variant).expect("variant");
            let reference = AcAnalysis::new(&variant, &op)
                .expect("analysis")
                .driving_point_response(node, &grid)
                .expect("probe");
            let response = outcome.response.as_ref().expect("lane solved");
            prop_assert_eq!(bits(response), bits(&reference));
        }
    }
}
