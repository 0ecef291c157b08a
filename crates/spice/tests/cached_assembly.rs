//! Integration tests for the cached-assembly + refactorization pipeline:
//! value-only restamping must be bit-equivalent to building from scratch, and
//! whole sweeps must perform exactly one symbolic LU analysis.
//!
//! The AC paths run on the `SweepPlan`/`SolveContext` split: the plan build
//! performs the sweep's single symbolic analysis (plus the factorization it
//! rides on), and **every** frequency point is then a value-only assembly +
//! numeric refactorization inside some worker context. All counters are
//! sums over the plan and the workers, so the invariants asserted here hold
//! under any `LOOPSCOPE_THREADS` setting — CI runs this suite with both
//! `LOOPSCOPE_THREADS=1` and `=4`.

use loopscope_math::FrequencyGrid;
use loopscope_netlist::{Circuit, DiodeModel, SourceSpec};
use loopscope_sparse::SparseLu;
use loopscope_spice::ac::AcAnalysis;
use loopscope_spice::dc::solve_dc;
use loopscope_spice::tran::{TransientAnalysis, TransientOptions};

fn rc_chain(sections: usize) -> Circuit {
    let mut c = Circuit::new("rc chain");
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
fn ac_sweep_runs_one_symbolic_analysis() {
    let c = rc_chain(6);
    let op = solve_dc(&c).unwrap();
    let ac = AcAnalysis::new(&c, &op).unwrap();
    let grid = FrequencyGrid::log_decade(1.0e2, 1.0e7, 40);
    let sweep = ac.sweep(&grid).unwrap();
    assert_eq!(sweep.len(), grid.len());

    let stats = ac.solve_stats();
    assert_eq!(
        stats.symbolic, 1,
        "one symbolic analysis per sweep: {stats:?}"
    );
    // Every grid point is a numeric refactorization over the shared plan
    // (the plan build itself accounts for the one extra factorization).
    assert_eq!(stats.numeric_refactor, grid.len(), "{stats:?}");
    assert_eq!(stats.cached_assemblies, grid.len(), "{stats:?}");
    assert_eq!(stats.fresh_fallback, 0, "{stats:?}");
    assert_eq!(stats.factorizations(), grid.len() + 1, "{stats:?}");
}

#[test]
fn all_nodes_scan_runs_one_symbolic_analysis() {
    let c = rc_chain(5);
    let op = solve_dc(&c).unwrap();
    let ac = AcAnalysis::new(&c, &op).unwrap();
    let grid = FrequencyGrid::log_decade(1.0e2, 1.0e6, 25);
    let responses = ac.driving_point_all_nodes(&grid).unwrap();
    assert_eq!(responses.len(), c.signal_nodes().len());

    let stats = ac.solve_stats();
    assert_eq!(stats.symbolic, 1, "{stats:?}");
    assert_eq!(stats.factorizations(), grid.len() + 1, "{stats:?}");
}

#[test]
fn sweep_and_driving_point_share_one_pattern() {
    // The sweep and driving-point systems differ only in the right-hand
    // side, so running both through the same analysis still needs exactly
    // one symbolic analysis in total.
    let c = rc_chain(4);
    let op = solve_dc(&c).unwrap();
    let ac = AcAnalysis::new(&c, &op).unwrap();
    let grid = FrequencyGrid::log_decade(1.0e3, 1.0e6, 10);
    let n0 = c.find_node("n0").unwrap();
    ac.sweep(&grid).unwrap();
    ac.driving_point_response(n0, &grid).unwrap();
    let stats = ac.solve_stats();
    assert_eq!(stats.symbolic, 1, "{stats:?}");
    assert_eq!(stats.factorizations(), 2 * grid.len() + 1, "{stats:?}");
}

#[test]
fn repeated_sweeps_reuse_the_cached_analysis() {
    let c = rc_chain(3);
    let op = solve_dc(&c).unwrap();
    let ac = AcAnalysis::new(&c, &op).unwrap();
    let grid = FrequencyGrid::log_decade(1.0e3, 1.0e5, 8);
    let first = ac.sweep(&grid).unwrap();
    let second = ac.sweep(&grid).unwrap();
    // Deterministic: the cached path must reproduce itself exactly.
    let out = c.find_node("n2").unwrap();
    for (a, b) in first.response(out).iter().zip(&second.response(out)) {
        assert_eq!(a.re, b.re);
        assert_eq!(a.im, b.im);
    }
    let stats = ac.solve_stats();
    assert_eq!(stats.symbolic, 1, "{stats:?}");
}

#[test]
fn cached_sweep_matches_freshly_built_matrices() {
    // Cross-check the in-place restamped path against from-scratch assembly
    // + factorization at every frequency.
    let c = rc_chain(5);
    let op = solve_dc(&c).unwrap();
    let ac = AcAnalysis::new(&c, &op).unwrap();
    let grid = FrequencyGrid::log_decade(1.0e2, 1.0e8, 12);
    let out = c.find_node("n4").unwrap();
    let z = ac.driving_point_response(out, &grid).unwrap();

    let layout = ac.layout();
    let var = layout.node_var(out).unwrap();
    for (i, &f) in grid.freqs().iter().enumerate() {
        let matrix = ac.admittance_matrix(f);
        let mut rhs = vec![loopscope_sparse::Complex64::ZERO; layout.dim()];
        rhs[var] = loopscope_sparse::Complex64::ONE;
        let fresh = SparseLu::factor(&matrix).unwrap().solve(&rhs).unwrap();
        let diff = (fresh[var] - z[i]).abs();
        let scale = z[i].abs().max(1e-30);
        assert!(diff / scale < 1e-9, "mismatch at {f} Hz: {diff}");
    }
}

#[test]
fn nonlinear_dc_and_transient_still_converge_through_the_cache() {
    // A diode rectifier forces operating-region changes (pattern stays
    // fixed, values swing over many decades) — the cached Newton path must
    // converge to the same answer as physics says.
    let mut c = Circuit::new("diode dc");
    let a = c.node("a");
    let k = c.node("k");
    c.add_vsource("V1", a, Circuit::GROUND, SourceSpec::dc(5.0));
    c.add_resistor("R1", a, k, 1.0e3);
    c.add_diode("D1", k, Circuit::GROUND, DiodeModel::default());
    let op = solve_dc(&c).unwrap();
    let vd = op.voltage(k);
    assert!(vd > 0.55 && vd < 0.75, "vd = {vd}");

    let mut c2 = Circuit::new("step tran");
    let vin = c2.node("in");
    let vout = c2.node("out");
    c2.add_vsource("V1", vin, Circuit::GROUND, SourceSpec::step(0.0, 1.0, 0.0));
    c2.add_resistor("R1", vin, vout, 1.0e3);
    c2.add_capacitor("C1", vout, Circuit::GROUND, 1.0e-6);
    let op2 = solve_dc(&c2).unwrap();
    let tran = TransientAnalysis::new(&c2, TransientOptions::new(10.0e-6, 5.0e-3)).unwrap();
    let result = tran.run(&op2).unwrap();
    let v_tau = result.value_at(vout, 1.0e-3).unwrap();
    assert!((v_tau - 0.632).abs() < 0.01, "v(τ) = {v_tau}");
}

#[test]
fn gmin_held_node_survives_huge_conductances() {
    // Regression: the singularity test is per-pivot-column relative. A 10 mΩ
    // resistor puts 100 S entries in the matrix while a capacitor-only node
    // is held up by nothing but GMIN (1e-12 S) at DC; a matrix-norm-relative
    // threshold (norm·1e-14 = 1e-12) would misclassify that healthy column
    // as singular.
    let mut c = Circuit::new("gmin vs 100 S");
    let a = c.node("a");
    let b = c.node("b");
    let float = c.node("float");
    c.add_vsource("V1", a, Circuit::GROUND, SourceSpec::dc(1.0));
    c.add_resistor("Rshunt", a, b, 0.01); // 100 S
    c.add_resistor("Rload", b, Circuit::GROUND, 1.0);
    c.add_resistor("Rup", b, float, 1.0e3);
    c.add_capacitor("Cfloat", float, Circuit::GROUND, 1.0e-9); // DC open
    let op = solve_dc(&c).unwrap();
    // The floating node draws no DC current, so it sits at v(b).
    assert!((op.voltage(float) - op.voltage(b)).abs() < 1e-6);
    assert!(
        op.voltage(b) > 0.9 && op.voltage(b) <= 1.0,
        "v(b) = {}",
        op.voltage(b)
    );
}
