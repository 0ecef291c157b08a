//! The kernel-backend vestiges: `LOOPSCOPE_KERNEL` is accepted and ignored,
//! and every analysis reports the one scalar backend.
//!
//! This must stay the only test in its binary: it mutates the process
//! environment, which would race with any test running beside it.

use loopscope_math::FrequencyGrid;
use loopscope_netlist::{Circuit, SourceSpec};
use loopscope_sparse::kernels::KERNEL_ENV;
use loopscope_spice::ac::AcAnalysis;
use loopscope_spice::batch::{driving_point_monte_carlo, ParameterVariation};
use loopscope_spice::dc::solve_dc;
use loopscope_spice::KernelBackend;

/// A two-stage gm amplifier with Miller compensation, so the batched lanes
/// run coupled (non-ladder) factors.
fn two_stage() -> Circuit {
    let mut c = Circuit::new("kernel env");
    let inp = c.node("in");
    let s1 = c.node("s1");
    let out = c.node("out");
    c.add_vsource("V1", inp, Circuit::GROUND, SourceSpec::dc_ac(1.0, 0.0, 0.0));
    c.add_vccs("G1", s1, Circuit::GROUND, inp, out, 1.0e-4);
    c.add_resistor("R1", s1, Circuit::GROUND, 2.0e6);
    c.add_capacitor("C1", s1, Circuit::GROUND, 0.5e-12);
    c.add_vccs("G2", out, Circuit::GROUND, s1, Circuit::GROUND, 2.0e-3);
    c.add_resistor("R2", out, Circuit::GROUND, 5.0e4);
    c.add_capacitor("CL", out, Circuit::GROUND, 100.0e-12);
    c.add_capacitor("CC", s1, out, 2.0e-12);
    c
}

#[test]
fn kernel_env_is_ignored() {
    let c = two_stage();
    let op = solve_dc(&c).unwrap();
    let node = c.find_node("out").unwrap();
    let grid = FrequencyGrid::log_decade(1.0e3, 1.0e8, 8);
    let variation = ParameterVariation::new(0x10C5_C0DE)
        .gaussian("R1", 0.10)
        .gaussian("CL", 0.15)
        .uniform("CC", 0.25);
    let run = || {
        let sweep = driving_point_monte_carlo(&c, &op, node, &grid, &variation, 6).unwrap();
        let bits: Vec<Option<Vec<(u64, u64)>>> = sweep
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
        let ac = AcAnalysis::new(&c, &op).unwrap();
        let kernel = ac.solver_structure(1.0e5).unwrap().kernel;
        (bits, sweep.solve_stats(), kernel)
    };

    std::env::remove_var(KERNEL_ENV);
    let (reference, ref_stats, ref_kernel) = run();
    std::env::set_var(KERNEL_ENV, "avx2");
    let (bits, stats, kernel) = run();
    std::env::remove_var(KERNEL_ENV);

    assert!(
        reference.iter().all(Option::is_some),
        "every variant solves"
    );
    assert_eq!(bits, reference);
    assert_eq!(stats, ref_stats);
    assert_eq!(ref_kernel, KernelBackend::Scalar);
    assert_eq!(kernel, KernelBackend::Scalar);
}
