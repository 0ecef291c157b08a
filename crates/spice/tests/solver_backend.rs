//! The solver-backend vestiges: `LOOPSCOPE_SOLVER` is accepted and ignored,
//! and every analysis reports the one direct backend.
//!
//! This must stay the only test in its binary: it mutates the process
//! environment, which would race with any test running beside it.

use loopscope_math::FrequencyGrid;
use loopscope_netlist::{Circuit, SourceSpec};
use loopscope_spice::ac::AcAnalysis;
use loopscope_spice::dc::solve_dc;
use loopscope_spice::solver::SOLVER_ENV;
use loopscope_spice::SolverBackend;

fn rc_chain(sections: usize) -> Circuit {
    let mut c = Circuit::new("backend chain");
    let input = c.node("in");
    c.add_vsource(
        "V1",
        input,
        Circuit::GROUND,
        SourceSpec::dc_ac(1.0, 1.0, 0.0),
    );
    let mut prev = input;
    for k in 0..sections {
        let n = c.node(&format!("n{k}"));
        c.add_resistor(&format!("R{k}"), prev, n, 1.0e3 * (k + 1) as f64);
        c.add_capacitor(
            &format!("C{k}"),
            n,
            Circuit::GROUND,
            1.0e-9 / (k + 1) as f64,
        );
        prev = n;
    }
    c
}

#[test]
fn solver_env_is_ignored_and_the_backend_is_direct() {
    let c = rc_chain(8);
    let op = solve_dc(&c).unwrap();
    let node = c.find_node("n7").unwrap();
    let grid = FrequencyGrid::log_decade(1.0e2, 1.0e7, 12);
    let run = || {
        let ac = AcAnalysis::new(&c, &op).unwrap();
        let response = ac.driving_point_response(node, &grid).unwrap();
        let structure = ac.solver_structure(1.0e4).unwrap();
        (response, ac.solve_stats(), structure.solver)
    };

    std::env::remove_var(SOLVER_ENV);
    let (reference, ref_stats, ref_solver) = run();
    std::env::set_var(SOLVER_ENV, "iterative");
    let (response, stats, solver) = run();
    std::env::remove_var(SOLVER_ENV);

    assert_eq!(response.len(), reference.len());
    for (k, (a, b)) in response.iter().zip(&reference).enumerate() {
        assert!(
            a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
            "point {k}: {a:?} != {b:?}"
        );
    }
    assert_eq!(stats, ref_stats);
    assert_eq!(ref_solver, SolverBackend::Direct);
    assert_eq!(solver, SolverBackend::Direct);
}
