//! Configuration invariance of the batched many-variant sweep engine. A
//! seeded Monte Carlo driving-point sweep, and the same variants
//! materialized and swept through `driving_point_batch`, must give every
//! variant **bitwise** the response of its own serial
//! `AcAnalysis::driving_point_response`, at every batch size and every
//! `LOOPSCOPE_THREADS`; the yield and the merged solve counters of a batch
//! size must not depend on the worker count. The batch sizes cover every
//! lane width (1 to 8) and ragged final groups (9, 11, 17). The retired
//! knobs `LOOPSCOPE_BATCH` and `LOOPSCOPE_PANEL` are accepted and ignored.
//!
//! NOTE: this file mutates the process environment (`LOOPSCOPE_THREADS` is
//! deliberately re-read on every sweep so benches and tests can switch it),
//! so it holds exactly ONE `#[test]` in its own test binary: tests in one
//! binary run on parallel threads, and a sibling test reading the
//! environment between this test's set/remove calls would be racy.

use loopscope_math::{Complex64, FrequencyGrid};
use loopscope_netlist::{Circuit, NodeId, SourceSpec};
use loopscope_spice::ac::AcAnalysis;
use loopscope_spice::assembly::SolveStats;
use loopscope_spice::batch::{
    self, driving_point_batch, driving_point_monte_carlo, BatchVariant, BatchedSweep,
    ParameterVariation,
};
use loopscope_spice::dc::{solve_dc, OperatingPoint};
use loopscope_spice::par;

/// A miniature two-stage amplifier with feedback compensation — gm stages,
/// load poles and a compensation network, so the admittance system has the
/// coupled structure (BTF blocks, off-diagonal fill) of the paper's op-amp
/// circuits rather than a trivial ladder.
fn two_stage() -> Circuit {
    let mut c = Circuit::new("two stage");
    let inp = c.node("in");
    let s1 = c.node("s1");
    let out = c.node("out");
    c.add_vsource("V1", inp, Circuit::GROUND, SourceSpec::dc_ac(1.0, 0.0, 0.0));
    // Stage 1: transconductance into r1 ∥ c1.
    c.add_vccs("G1", s1, Circuit::GROUND, inp, out, 1.0e-4);
    c.add_resistor("R1", s1, Circuit::GROUND, 2.0e6);
    c.add_capacitor("C1", s1, Circuit::GROUND, 0.5e-12);
    // Stage 2: transconductance into r2 ∥ cload.
    c.add_vccs("G2", out, Circuit::GROUND, s1, Circuit::GROUND, 2.0e-3);
    c.add_resistor("R2", out, Circuit::GROUND, 5.0e4);
    c.add_capacitor("CL", out, Circuit::GROUND, 100.0e-12);
    // Miller compensation across stage 2.
    c.add_capacitor("CC", s1, out, 2.0e-12);
    c
}

/// The `(re, im)` bit patterns of a response.
fn bits(response: &[Complex64]) -> Vec<(u64, u64)> {
    response
        .iter()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

/// What a configuration must not change: per-variant response bits
/// (`None` for a failed variant), the yield and the merged counters.
type Outcome = (Vec<Option<Vec<(u64, u64)>>>, usize, SolveStats);

fn outcome(sweep: &BatchedSweep) -> Outcome {
    let responses = sweep
        .outcomes()
        .iter()
        .map(|o| o.response.as_deref().map(bits))
        .collect();
    (responses, sweep.yield_count(), sweep.solve_stats())
}

/// The seeded variants, swept at any batch size under the current
/// environment through `driving_point_monte_carlo` and through
/// `driving_point_batch` over the materialized circuits.
struct Fixture {
    circuit: Circuit,
    op: OperatingPoint,
    node: NodeId,
    grid: FrequencyGrid,
    variation: ParameterVariation,
    materialized: Vec<Circuit>,
}

impl Fixture {
    fn new(max_count: usize) -> Self {
        let circuit = two_stage();
        let op = solve_dc(&circuit).unwrap();
        let node = circuit.find_node("out").unwrap();
        let variation = ParameterVariation::new(0x10C5_C0DE)
            .gaussian("R1", 0.10)
            .gaussian("CL", 0.15)
            .uniform("CC", 0.25)
            .uniform("G2", 0.05);
        let materialized = (0..max_count)
            .map(|i| {
                let mut vc = circuit.clone();
                variation.apply(i, &mut vc).unwrap();
                vc
            })
            .collect();
        Self {
            circuit,
            op,
            node,
            grid: FrequencyGrid::log_decade(1.0e3, 1.0e8, 8),
            variation,
            materialized,
        }
    }

    fn monte_carlo(&self, count: usize) -> Outcome {
        let sweep = driving_point_monte_carlo(
            &self.circuit,
            &self.op,
            self.node,
            &self.grid,
            &self.variation,
            count,
        )
        .unwrap();
        outcome(&sweep)
    }

    fn materialized(&self, count: usize) -> Outcome {
        let variants: Vec<BatchVariant<'_>> = self.materialized[..count]
            .iter()
            .map(|circuit| BatchVariant {
                label: "variant",
                circuit,
                op: &self.op,
            })
            .collect();
        outcome(&driving_point_batch(&variants, self.node, &self.grid).unwrap())
    }

    /// Variant `i`'s serial reference: its own analysis, alone.
    fn reference(&self, i: usize) -> Vec<(u64, u64)> {
        let analysis = AcAnalysis::new(&self.materialized[i], &self.op).unwrap();
        bits(
            &analysis
                .driving_point_response(self.node, &self.grid)
                .unwrap(),
        )
    }
}

#[test]
fn batched_sweeps_are_bitwise_identical_across_all_knobs() {
    const COUNTS: [usize; 8] = [1, 2, 3, 5, 8, 9, 11, 17];
    let fx = Fixture::new(COUNTS[COUNTS.len() - 1]);
    std::env::set_var(par::THREADS_ENV, "1");
    let references: Vec<_> = (0..fx.materialized.len())
        .map(|i| fx.reference(i))
        .collect();

    let mut at_one_thread = Vec::new();
    for count in COUNTS {
        let mut first: Option<(Outcome, Outcome)> = None;
        for threads in ["1", "3", "4"] {
            std::env::set_var(par::THREADS_ENV, threads);
            let runs = (fx.monte_carlo(count), fx.materialized(count));
            let cfg = format!("{count} variants, threads={threads}");
            for (name, (responses, yield_count, stats)) in [("mc", &runs.0), ("batch", &runs.1)] {
                assert_eq!(*yield_count, count, "{name}: {cfg} fully yields");
                assert_eq!(stats.symbolic, 1, "{name}: {cfg}: one symbolic analysis");
                for (v, got) in responses.iter().enumerate() {
                    assert_eq!(
                        got.as_ref(),
                        Some(&references[v]),
                        "{name}: variant {v} is not its serial reference at {cfg}"
                    );
                }
            }
            match &first {
                None => first = Some(runs),
                Some(want) => assert_eq!(&runs, want, "{cfg}: yield or counters moved"),
            }
        }
        at_one_thread.push(first.expect("at least one thread count"));
    }

    // The retired knobs are accepted and ignored: neither results nor
    // counters move, and the configuration records report fixed widths.
    for (name, value) in [
        (batch::BATCH_ENV, "1"),
        (batch::BATCH_ENV, "64"),
        (batch::BATCH_ENV, "junk"),
        (par::PANEL_ENV, "3"),
    ] {
        std::env::set_var(par::THREADS_ENV, "1");
        std::env::set_var(name, value);
        assert_eq!(batch::configured_batch_width(), 8, "{name}={value}");
        assert_eq!(par::configured_panel_width(), 16, "{name}={value}");
        for (count, want) in COUNTS.iter().zip(&at_one_thread) {
            let runs = (fx.monte_carlo(*count), fx.materialized(*count));
            assert_eq!(&runs, want, "{name}={value}, {count} variants");
        }
        std::env::remove_var(name);
    }
    std::env::remove_var(par::THREADS_ENV);
}
