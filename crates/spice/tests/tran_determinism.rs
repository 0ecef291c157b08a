//! Configuration invariance of the adaptive transient stepper: the step
//! sequence (and with it every waveform sample and every [`TransientStats`]
//! counter) must be **bitwise identical** at every `LOOPSCOPE_THREADS`
//! setting. The transient Newton loop is serial through one adopting
//! `SolveContext`, whose verified solves do not depend on the worker count
//! — so every accept/reject/grow decision, being a pure function of those solutions
//! and the options, is config-invariant too. This test pins that end to
//! end.
//!
//! NOTE: this file mutates the process environment (the knobs are re-read on
//! every run so benches and tests can switch them), so it holds exactly ONE
//! `#[test]` in its own test binary: tests in one binary run on parallel
//! threads, and a sibling test reading the environment between this test's
//! set/remove calls would be racy.

use loopscope_netlist::{Circuit, DiodeModel, SourceSpec};
use loopscope_spice::dc::solve_dc;
use loopscope_spice::par;
use loopscope_spice::tran::{TransientAnalysis, TransientOptions, TransientStats};

/// A stiff, nonlinear circuit with a delayed source discontinuity — the
/// adaptive ladder exercises growth, LTE rejections, a breakpoint landing
/// and the post-breakpoint backward-Euler restart.
fn ladder_circuit() -> Circuit {
    let mut c = Circuit::new("tran determinism");
    let vin = c.node("in");
    let fast = c.node("fast");
    let slow = c.node("slow");
    let clamp = c.node("clamp");
    c.add_vsource(
        "V1",
        vin,
        Circuit::GROUND,
        SourceSpec::step(0.0, 2.0, 3.0e-6),
    );
    c.add_resistor("R1", vin, fast, 1.0e3);
    c.add_capacitor("C1", fast, Circuit::GROUND, 1.0e-9);
    c.add_resistor("R2", vin, slow, 1.0e5);
    c.add_capacitor("C2", slow, Circuit::GROUND, 100.0e-9);
    c.add_resistor("R3", fast, clamp, 2.0e3);
    c.add_diode("D1", clamp, Circuit::GROUND, DiodeModel::default());
    c
}

/// One adaptive run under the current environment knobs, reduced to bit
/// patterns.
fn adaptive_run() -> (Vec<u64>, Vec<Vec<u64>>, TransientStats) {
    let c = ladder_circuit();
    let op = solve_dc(&c).unwrap();
    let opts = TransientOptions::adaptive(5.0e-9, 1.0e-6, 20.0e-6);
    let r = TransientAnalysis::new(&c, opts).unwrap().run(&op).unwrap();
    let time_bits = r.times().iter().map(|t| t.to_bits()).collect();
    let wave_bits = ["fast", "slow", "clamp"]
        .iter()
        .map(|name| {
            let node = c.find_node(name).unwrap();
            r.waveform(node)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect();
    (time_bits, wave_bits, *r.stats())
}

#[test]
fn adaptive_stepper_is_bitwise_identical_across_all_knobs() {
    // Reference: one worker.
    std::env::set_var(par::THREADS_ENV, "1");
    let (ref_times, ref_waves, ref_stats) = adaptive_run();
    // The scenario actually exercised the ladder.
    assert!(ref_stats.accepted_steps > 10);
    assert_eq!(ref_stats.breakpoints_hit, 1);
    assert!(ref_stats.max_dt > ref_stats.min_dt);

    for threads in ["1", "2", "4"] {
        std::env::set_var(par::THREADS_ENV, threads);
        let (times, waves, stats) = adaptive_run();
        let cfg = format!("threads={threads}");
        assert_eq!(times, ref_times, "step sequence diverged at {cfg}");
        assert_eq!(waves, ref_waves, "waveforms diverged at {cfg}");
        assert_eq!(stats, ref_stats, "stats diverged at {cfg}");
    }

    // Defaults (all knobs unset) must reproduce the reference too.
    std::env::remove_var(par::THREADS_ENV);
    let (times, waves, stats) = adaptive_run();
    assert_eq!(times, ref_times, "default knobs diverged");
    assert_eq!(waves, ref_waves, "default knobs diverged");
    assert_eq!(stats, ref_stats, "default knobs diverged");
}
