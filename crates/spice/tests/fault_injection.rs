//! End-to-end fault-injection determinism: a seeded numeric fault planted
//! at sweep point `k` must surface as the **same structured, name-enriched
//! error** (or the same rescued solution) at every worker count — no
//! panic, no hang, no silent garbage.
//!
//! Unlike `par_determinism.rs` this file never touches the process
//! environment: worker counts go through [`par::sweep_chunks_with`], so the
//! whole matrix of configurations runs race-free inside one test binary.
//! The all-nodes scan, whose worker count comes from the environment, is
//! covered by `all_nodes_faults.rs`.

#![cfg(feature = "fault-inject")]

use loopscope_math::Complex64;
use loopscope_netlist::{Circuit, Element};
use loopscope_sparse::faults::{FaultInjector, FaultKind};
use loopscope_spice::assembly::{AssembleMna, SolveStats, SweepPlan};
use loopscope_spice::mna::{MatrixSink, MnaLayout, Stamper};
use loopscope_spice::par;
use loopscope_spice::SpiceError;

/// An RC ladder driven by a unit AC source — enough structure to exercise
/// node and branch unknowns in the enriched error names.
fn rc_chain(sections: usize) -> Circuit {
    let mut c = Circuit::new("fault chain");
    let input = c.node("in");
    c.add_vsource(
        "V1",
        input,
        Circuit::GROUND,
        loopscope_netlist::SourceSpec::dc_ac(1.0, 1.0, 0.0),
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

/// Minimal AC assembly job (the library's own AC job is private): resistor
/// and capacitor admittances plus the voltage-source branch equations, with
/// a unit excitation on the source branch.
struct AcJob<'a> {
    circuit: &'a Circuit,
    freq_hz: f64,
}

impl AssembleMna<Complex64> for AcJob<'_> {
    fn stamp<S: MatrixSink<Complex64>>(&self, st: &mut Stamper<'_, Complex64, S>) {
        let omega = 2.0 * std::f64::consts::PI * self.freq_hz;
        let one = Complex64::new(1.0, 0.0);
        for el in self.circuit.elements() {
            match el {
                Element::Resistor(r) => {
                    st.stamp_admittance(r.a, r.b, Complex64::new(1.0 / r.ohms, 0.0))
                }
                Element::Capacitor(c) => {
                    st.stamp_admittance(c.a, c.b, Complex64::new(0.0, omega * c.farads))
                }
                Element::Vsource(v) => {
                    let br = st.layout().branch_var(&v.name).expect("branch");
                    st.add_var_node(br, v.plus, one);
                    st.add_var_node(br, v.minus, -one);
                    st.add_node_var(v.plus, br, one);
                    st.add_node_var(v.minus, br, -one);
                    st.add_rhs_var(br, one);
                }
                other => panic!("unexpected element {other:?}"),
            }
        }
    }
}

/// Runs the sweep with `workers` workers, injecting `fault` (seeded by `seed + k`) into the assembled matrix of
/// point `fault_point` before its solve. Returns the per-point solutions
/// (or the lowest-index structured error) plus the merged solve counters.
fn sweep_with_fault(
    workers: usize,
    fault: FaultKind,
    fault_point: usize,
    seed: u64,
) -> (Result<Vec<Vec<Complex64>>, SpiceError>, SolveStats) {
    let circuit = rc_chain(6);
    let layout = MnaLayout::new(&circuit);
    let freqs: Vec<f64> = (0..24)
        .map(|k| 1.0e3 * 10f64.powf(k as f64 / 8.0))
        .collect();
    let seed_job = AcJob {
        circuit: &circuit,
        freq_hz: freqs[0],
    };
    let plan = SweepPlan::build(&layout, &seed_job).expect("plan");

    let (rows, states) = par::sweep_chunks_with(
        workers,
        &freqs,
        || plan.context(),
        |ctx, k, &freq| {
            let job = AcJob {
                circuit: &circuit,
                freq_hz: freq,
            };
            let mut rhs = ctx.assemble(&job);
            if k == fault_point {
                // Seeded per point: the same fault lands on the same entry
                // no matter which worker owns the point.
                FaultInjector::new(seed + k as u64).inject(fault, ctx.matrix_mut());
            }
            ctx.solve_verified_in_place(&mut rhs)?;
            Ok(rhs)
        },
    );
    let mut stats = plan.stats();
    for s in states {
        stats.merge(&s.stats());
    }
    (rows, stats)
}

/// Every worker count must reproduce the reference run
/// bit for bit: same per-point solutions on success, the same enriched
/// error otherwise, and the same merged counters.
fn assert_config_invariant(fault: FaultKind, fault_point: usize, seed: u64) {
    let (reference, ref_stats) = sweep_with_fault(1, fault, fault_point, seed);
    for workers in [1, 2, 4] {
        let (run, stats) = sweep_with_fault(workers, fault, fault_point, seed);
        match (&reference, &run) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.len(), b.len());
                for (point, (ra, rb)) in a.iter().zip(b).enumerate() {
                    for (i, (x, y)) in ra.iter().zip(rb).enumerate() {
                        assert!(
                            x.re == y.re && x.im == y.im,
                            "{fault:?}: point {point} entry {i} diverged at \
                             workers={workers}: {x:?} != {y:?}"
                        );
                    }
                }
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{fault:?}: error diverged at workers={workers}"),
            (a, b) => panic!(
                "{fault:?}: outcome diverged at workers={workers}: \
                 reference {a:?} vs run {b:?}"
            ),
        }
        // Counter totals are only chunking-invariant on success: after an
        // error, each worker stops at its own chunk's first failure, so how
        // much of the rest of the grid ran depends on the chunking.
        if reference.is_ok() {
            assert_eq!(
                ref_stats, stats,
                "{fault:?}: counters diverged at workers={workers}"
            );
        }
    }
}

#[test]
fn nan_fault_surfaces_as_the_same_named_error_everywhere() {
    let (outcome, _) = sweep_with_fault(3, FaultKind::Nan, 9, 0xC0FFEE);
    match outcome {
        Err(SpiceError::NonFiniteStamp { row, col, .. }) => {
            // Coordinates map through the layout to circuit names.
            assert!(
                row.starts_with("V(") || row.starts_with("I("),
                "row = {row}"
            );
            assert!(
                col.starts_with("V(") || col.starts_with("I("),
                "col = {col}"
            );
        }
        other => panic!("expected NonFiniteStamp, got {other:?}"),
    }
    assert_config_invariant(FaultKind::Nan, 9, 0xC0FFEE);
}

#[test]
fn infinity_fault_is_config_invariant() {
    assert_config_invariant(FaultKind::PosInf, 0, 7);
}

#[test]
fn dead_column_fault_is_config_invariant() {
    // A zeroed column either exhausts the ladder as a named SingularSystem
    // or is rescued by the per-point gmin rung; both outcomes must be
    // identical at every configuration.
    let (outcome, stats) = sweep_with_fault(1, FaultKind::NearSingular, 5, 0xDEAD);
    match &outcome {
        Err(e) => assert!(
            matches!(
                e,
                SpiceError::SingularSystem { .. } | SpiceError::ResidualCheckFailed { .. }
            ),
            "unexpected error {e:?}"
        ),
        Ok(_) => assert!(
            stats.gmin_bumps > 0,
            "a dead column can only succeed via the gmin rung; stats = {stats:?}"
        ),
    }
    assert_config_invariant(FaultKind::NearSingular, 5, 0xDEAD);
}

#[test]
fn degraded_pivot_fault_is_config_invariant() {
    assert_config_invariant(FaultKind::DegradedPivot, 17, 0xBEEF);
}

#[test]
fn healthy_sweep_never_escalates_and_is_config_invariant() {
    // Control: no fault injected (fault_point beyond the grid). The ladder
    // must stay on its first rung — zero retries, zero gmin bumps.
    let (outcome, stats) = sweep_with_fault(4, FaultKind::Nan, usize::MAX, 1);
    assert!(outcome.is_ok());
    assert_eq!(stats.residual_retries, 0);
    assert_eq!(stats.gmin_bumps, 0);
    assert_config_invariant(FaultKind::Nan, usize::MAX, 1);
}
