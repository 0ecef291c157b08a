//! Property-based tests for the simulator on randomly generated linear
//! circuits, checking physical invariants rather than specific values.

use loopscope_math::FrequencyGrid;
use loopscope_netlist::{Circuit, SourceSpec};
use loopscope_sparse::SparseLu;
use loopscope_spice::ac::AcAnalysis;
use loopscope_spice::assembly::{AssembleMna, SlotSink, SolveContext, SweepPlan};
use loopscope_spice::dc::solve_dc;
use loopscope_spice::mna::{MatrixSink, MnaLayout, Stamper};
use proptest::prelude::*;

/// Physics-invariant tolerance for solved node voltages. Every solve
/// refines to a 1e-12 backward error, so 1e-9 absolute slack is generous.
const SOLVE_SLACK: f64 = 1.0e-9;

/// A conductance-chain assembly job over raw MNA variables — the same
/// pattern at every parameter set, like one frequency point of a sweep.
struct ChainJob {
    gs: Vec<f64>,
    shunt: f64,
}

impl AssembleMna<f64> for ChainJob {
    fn stamp<S: MatrixSink<f64>>(&self, st: &mut Stamper<'_, f64, S>) {
        let n = self.gs.len();
        for (i, &g) in self.gs.iter().enumerate() {
            st.add_var_var(i, i, g + self.shunt);
            if i + 1 < n {
                st.add_var_var(i, i + 1, -g);
                st.add_var_var(i + 1, i, -g);
                st.add_var_var(i + 1, i + 1, g);
            }
        }
        st.add_rhs_var(0, 1.0e-3);
    }
}

/// A resistor chain whose `MnaLayout` has exactly `n` variables (no branch
/// currents), so [`ChainJob`] can address them directly.
fn chain_layout(n: usize) -> MnaLayout {
    let mut c = Circuit::new("chain layout");
    let mut prev = Circuit::GROUND;
    for k in 0..n {
        let node = c.node(&format!("n{k}"));
        c.add_resistor(&format!("R{k}"), prev, node, 1.0);
        prev = node;
    }
    let layout = MnaLayout::new(&c);
    assert_eq!(layout.dim(), n);
    layout
}

/// Builds a random ladder of resistors with capacitors to ground, driven by a
/// DC + AC source. Always a valid, passive, connected circuit.
fn random_ladder(rs: &[f64], cs: &[f64], vdc: f64) -> (Circuit, Vec<loopscope_netlist::NodeId>) {
    let mut circuit = Circuit::new("random ladder");
    let input = circuit.node("in");
    circuit.add_vsource(
        "V1",
        input,
        Circuit::GROUND,
        SourceSpec::dc_ac(vdc, 1.0, 0.0),
    );
    let mut prev = input;
    let mut nodes = Vec::new();
    for (k, (&r, &c)) in rs.iter().zip(cs).enumerate() {
        let n = circuit.node(&format!("n{k}"));
        circuit.add_resistor(&format!("R{k}"), prev, n, r);
        circuit.add_capacitor(&format!("C{k}"), n, Circuit::GROUND, c);
        nodes.push(n);
        prev = n;
    }
    (circuit, nodes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// DC: with no DC path to ground anywhere except through the source, every
    /// ladder node sits at the source voltage (capacitors carry no current).
    #[test]
    fn dc_ladder_floats_to_source(
        rs in prop::collection::vec(10.0f64..1.0e6, 1..8),
        cs in prop::collection::vec(1.0e-12f64..1.0e-6, 8),
        vdc in -5.0f64..5.0,
    ) {
        let cs = &cs[..rs.len()];
        let (circuit, nodes) = random_ladder(&rs, cs, vdc);
        let op = solve_dc(&circuit).expect("linear circuit always converges");
        for n in nodes {
            prop_assert!((op.voltage(n) - vdc).abs() < 1.0e-3 + 1.0e-6 * vdc.abs());
        }
    }

    /// AC: a passive RC ladder driven by a 1 V source can never show gain
    /// above 1 anywhere, and the response magnitude is monotonically
    /// non-increasing along the ladder at every frequency.
    #[test]
    fn ac_ladder_is_passive_and_ordered(
        rs in prop::collection::vec(100.0f64..1.0e5, 2..6),
        cs in prop::collection::vec(10.0e-12f64..10.0e-9, 6),
    ) {
        let cs = &cs[..rs.len()];
        let (circuit, nodes) = random_ladder(&rs, cs, 0.0);
        let op = solve_dc(&circuit).expect("converges");
        let ac = AcAnalysis::new(&circuit, &op).expect("valid");
        let grid = FrequencyGrid::log_decade(10.0, 1.0e8, 10);
        let sweep = ac.sweep(&grid).expect("no singularities in a passive ladder");
        for (fi, _f) in grid.freqs().iter().enumerate() {
            let mut prev_mag = 1.0 + SOLVE_SLACK;
            for n in &nodes {
                let mag = sweep.response(*n)[fi].abs();
                prop_assert!(mag <= 1.0 + 1.0e-6 + SOLVE_SLACK, "passive gain bound violated: {mag}");
                prop_assert!(mag <= prev_mag + SOLVE_SLACK, "monotonicity violated");
                prev_mag = mag;
            }
        }
    }

    /// The two re-plan policies agree: solving a series of same-pattern
    /// systems through a `SweepPlan`-built context must agree with an
    /// adopting context (which runs its own symbolic analysis on the first
    /// value set it sees) and with a from-scratch factorization, and a
    /// second context over the same plan must reproduce the first bitwise.
    #[test]
    fn sweep_plan_contexts_agree_with_adopting_context(
        gs0 in prop::collection::vec(1.0e-6f64..1.0e-1, 2..9),
        scales in prop::collection::vec(0.05f64..20.0, 1..6),
        shunt in 1.0e-9f64..1.0e-3,
    ) {
        let layout = chain_layout(gs0.len());
        let plan = SweepPlan::<f64>::build(&layout, &ChainJob { gs: gs0.clone(), shunt })
            .expect("representative chain factors");
        let mut ctx = plan.context();
        let mut ctx2 = plan.context();
        let mut adopting = SolveContext::<f64>::adopting(&layout);
        for scale in scales {
            let job = ChainJob {
                gs: gs0.iter().map(|g| g * scale).collect(),
                shunt,
            };
            let from_plan = ctx.solve(&job).expect("context solves");
            let from_adopting = adopting.solve(&job).expect("adopting context solves");
            // From-scratch reference: fresh triplets, fresh factorization.
            let mut st = Stamper::new(&layout);
            job.stamp(&mut st);
            let (trip, rhs) = st.finish();
            let fresh = SparseLu::factor(&trip.to_csr())
                .and_then(|lu| lu.solve(&rhs))
                .expect("solvable");
            for ((a, b), c) in from_plan.iter().zip(&from_adopting).zip(&fresh) {
                let scale_ref = c.abs().max(1e-30);
                prop_assert!((a - c).abs() / scale_ref < SOLVE_SLACK, "plan vs fresh: {a} vs {c}");
                prop_assert!((b - c).abs() / scale_ref < SOLVE_SLACK, "adopting vs fresh: {b} vs {c}");
            }
            // Contexts over one plan are deterministic replicas of each other.
            let replay = ctx2.solve(&job).expect("context solves");
            prop_assert_eq!(from_plan, replay);
        }
        // The plan ran the only symbolic analysis on its side of the fence.
        prop_assert_eq!(plan.stats().symbolic, 1);
        prop_assert_eq!(ctx.stats().symbolic, 0);
    }

    /// The compiled admittance image `G + jω·C` loads exactly the values a
    /// stamped assembly produces — bit for bit, at any frequency from DC up —
    /// on random ladders with an inductor and controlled sources.
    #[test]
    fn admittance_image_load_is_the_stamped_assembly(
        rs in prop::collection::vec(1.0f64..1.0e6, 1..6),
        cs in prop::collection::vec(1.0e-15f64..1.0e-3, 6),
        l in 1.0e-12f64..1.0,
        gm in -1.0f64..1.0,
        gain in -10.0f64..10.0,
        freqs in prop::collection::vec(0.0f64..1.0e12, 1..8),
    ) {
        let cs = &cs[..rs.len()];
        let (mut circuit, nodes) = random_ladder(&rs, cs, 0.0);
        let last = *nodes.last().expect("at least one rung");
        let tap = circuit.node("tap");
        let mirror = circuit.node("mirror");
        circuit.add_inductor("Lt", last, tap, l);
        circuit.add_resistor("Rt", tap, Circuit::GROUND, 50.0);
        circuit.add_vccs("Gt", tap, Circuit::GROUND, nodes[0], Circuit::GROUND, gm);
        circuit.add_cccs("Ft", mirror, Circuit::GROUND, "V1", gain);
        circuit.add_resistor("Rm", mirror, Circuit::GROUND, 1.0e3);
        let op = solve_dc(&circuit).expect("converges");
        let ac = AcAnalysis::new(&circuit, &op).expect("valid");
        let f0 = 1.0e3;
        let image = ac
            .admittance_image(f0)
            .expect("representative system factors")
            .expect("the self-check passes on affine stamps");
        let mut pattern = ac.admittance_matrix(f0);
        pattern.zero_values();
        for f in freqs.into_iter().chain([0.0, f0]) {
            let mut stamped = pattern.clone();
            let mut st = Stamper::with_sink(ac.layout(), SlotSink::new(&mut stamped));
            ac.assembly_job(f).stamp(&mut st);
            let mut loaded = pattern.clone();
            image.load_into(f, loaded.values_mut());
            for ((_, _, a), (_, _, b)) in loaded.iter().zip(stamped.iter()) {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits(), "re at f = {}", f);
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits(), "im at f = {}", f);
            }
        }
    }

    /// Driving-point impedance of a passive one-port has a non-negative real
    /// part at every frequency (positive-real property).
    #[test]
    fn driving_point_impedance_is_positive_real(
        r1 in 10.0f64..1.0e5,
        r2 in 10.0f64..1.0e5,
        c in 1.0e-12f64..1.0e-7,
        l in 1.0e-9f64..1.0e-3,
    ) {
        let mut circuit = Circuit::new("one port");
        let a = circuit.node("a");
        let b = circuit.node("b");
        circuit.add_resistor("R1", a, b, r1);
        circuit.add_inductor("L1", b, Circuit::GROUND, l);
        circuit.add_resistor("R2", a, Circuit::GROUND, r2);
        circuit.add_capacitor("C1", a, Circuit::GROUND, c);
        let op = solve_dc(&circuit).expect("converges");
        let ac = AcAnalysis::new(&circuit, &op).expect("valid");
        let grid = FrequencyGrid::log_decade(1.0, 1.0e9, 10);
        let z = ac.driving_point_response(a, &grid).expect("solvable");
        for zi in z {
            prop_assert!(zi.re >= -SOLVE_SLACK * zi.abs().max(1.0), "negative real part {}", zi.re);
        }
    }
}
