//! Configuration invariance of the batched many-variant sweep engine: a
//! seeded Monte Carlo driving-point sweep must produce **bitwise identical**
//! per-variant responses — and identical yield and merged solve counters —
//! across every `LOOPSCOPE_THREADS` × `LOOPSCOPE_BATCH` combination.
//! `LOOPSCOPE_BATCH=1` with one worker is
//! the serial per-variant reference; wider lanes and more workers only
//! change how the same scalar-ordered arithmetic is scheduled.
//!
//! NOTE: this file mutates the process environment (both knobs are
//! deliberately re-read on every batched call so benches and tests can
//! switch them), so it holds exactly ONE `#[test]` in its own test binary:
//! tests in one binary run on parallel threads, and a sibling test reading
//! the environment between this test's set/remove calls would be racy.

use loopscope_math::FrequencyGrid;
use loopscope_netlist::{Circuit, SourceSpec};
use loopscope_spice::assembly::SolveStats;
use loopscope_spice::batch::{self, driving_point_monte_carlo, ParameterVariation};
use loopscope_spice::dc::solve_dc;
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

/// Per-variant bit patterns: `None` for a failed variant, otherwise the
/// `(re, im)` bit representation of every frequency point's response.
type VariantBits = Vec<Option<Vec<(u64, u64)>>>;

/// One seeded Monte Carlo sweep under the current environment knobs.
fn mc_sweep() -> (VariantBits, usize, SolveStats) {
    let c = two_stage();
    let op = solve_dc(&c).unwrap();
    let node = c.find_node("out").unwrap();
    let grid = FrequencyGrid::log_decade(1.0e3, 1.0e8, 8);
    let variation = ParameterVariation::new(0x10C5_C0DE)
        .gaussian("R1", 0.10)
        .gaussian("CL", 0.15)
        .uniform("CC", 0.25)
        .uniform("G2", 0.05);
    // 11 variants: not a multiple of any tested lane width, so ragged final
    // groups are exercised at every width.
    let sweep = driving_point_monte_carlo(&c, &op, node, &grid, &variation, 11).unwrap();
    let bits = sweep
        .outcomes()
        .iter()
        .map(|o| {
            o.response.as_ref().map(|resp| {
                resp.iter()
                    .map(|z| (z.re.to_bits(), z.im.to_bits()))
                    .collect()
            })
        })
        .collect();
    (bits, sweep.yield_count(), sweep.solve_stats())
}

#[test]
fn batched_sweeps_are_bitwise_identical_across_all_knobs() {
    // Reference: one worker, one variant lane — the serial per-variant path.
    std::env::set_var(par::THREADS_ENV, "1");
    std::env::set_var(batch::BATCH_ENV, "1");
    let (reference, ref_yield, ref_stats) = mc_sweep();
    assert_eq!(ref_yield, 11, "the seeded batch is expected to fully yield");
    assert_eq!(ref_stats.symbolic, 1, "one symbolic analysis per batch");

    for threads in ["1", "3", "4"] {
        // 64 is wider than the batch: the lanes are clamped to the 11
        // variants, which must not change a bit either.
        for width in ["1", "2", "3", "4", "8", "64"] {
            std::env::set_var(par::THREADS_ENV, threads);
            std::env::set_var(batch::BATCH_ENV, width);
            let (bits, yield_count, stats) = mc_sweep();
            let cfg = format!("threads={threads}, batch={width}");
            assert_eq!(yield_count, ref_yield, "{cfg}");
            assert_eq!(stats, ref_stats, "{cfg}");
            assert_eq!(bits.len(), reference.len(), "{cfg}");
            for (v, (got, want)) in bits.iter().zip(&reference).enumerate() {
                assert_eq!(got, want, "variant {v} diverged at {cfg}");
            }
        }
    }

    // Defaults (all knobs unset) must reproduce the reference too.
    std::env::remove_var(par::THREADS_ENV);
    std::env::remove_var(batch::BATCH_ENV);
    let (bits, yield_count, stats) = mc_sweep();
    assert_eq!(yield_count, ref_yield, "default knobs");
    assert_eq!(stats, ref_stats, "default knobs");
    assert_eq!(bits, reference, "default knobs diverged");
}
