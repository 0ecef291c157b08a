//! Fault injection on the all-nodes scan: a seeded numeric fault planted at
//! one frequency of [`AcAnalysis::driving_point_all_nodes`] must give the
//! same structured error — or the same rescued values — as
//! [`AcAnalysis::driving_point_response`] probing each node on its own, at 1
//! and 4 workers; and a corrupted selected-inverse value must push exactly
//! its frequency onto the per-node verified fallback.
//!
//! NOTE: the all-nodes worker count comes from `LOOPSCOPE_THREADS`, so this
//! file mutates the process environment and holds exactly ONE `#[test]` in
//! its own test binary.

#![cfg(feature = "fault-inject")]

use loopscope_math::{Complex64, FrequencyGrid};
use loopscope_netlist::{Circuit, SourceSpec};
use loopscope_sparse::faults::FaultKind;
use loopscope_spice::ac::{AcAnalysis, AcFault};
use loopscope_spice::assembly::SolveStats;
use loopscope_spice::dc::solve_dc;
use loopscope_spice::{par, SpiceError};

/// An RC ladder behind a voltage source: the source pins node `in`, whose
/// all-nodes response is an exact zero.
fn rc_chain(sections: usize) -> Circuit {
    let mut c = Circuit::new("fault chain");
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

type Responses = Result<Vec<Vec<Complex64>>, SpiceError>;

/// The all-nodes scan with `fault` planted, plus its solve counters.
fn all_nodes(c: &Circuit, grid: &FrequencyGrid, fault: AcFault) -> (Responses, SolveStats) {
    let op = solve_dc(c).unwrap();
    let ac = AcAnalysis::new(c, &op).unwrap();
    ac.inject_fault(fault);
    (ac.driving_point_all_nodes(grid), ac.solve_stats())
}

/// The reference: one `driving_point_response` sweep per node with the
/// same fault planted, collapsed to the first error in node order.
fn per_node(c: &Circuit, grid: &FrequencyGrid, fault: AcFault) -> Responses {
    let op = solve_dc(c).unwrap();
    let ac = AcAnalysis::new(c, &op).unwrap();
    ac.inject_fault(fault);
    c.signal_nodes()
        .iter()
        .map(|&node| ac.driving_point_response(node, grid))
        .collect()
}

fn point_of(fault: AcFault) -> usize {
    match fault {
        AcFault::Matrix { point, .. } | AcFault::SelectedInverse { point } => point,
    }
}

#[test]
fn all_nodes_faults_match_per_node_probes_at_any_worker_count() {
    let c = rc_chain(6);
    let grid = FrequencyGrid::log_decade(1.0e3, 1.0e7, 6);
    let faults = [
        AcFault::Matrix {
            point: 9,
            kind: FaultKind::Nan,
            seed: 0xC0FFEE,
        },
        AcFault::Matrix {
            point: 0,
            kind: FaultKind::PosInf,
            seed: 7,
        },
        AcFault::Matrix {
            point: 5,
            kind: FaultKind::NearSingular,
            seed: 0xDEAD,
        },
        AcFault::Matrix {
            point: 17,
            kind: FaultKind::DegradedPivot,
            seed: 0xBEEF,
        },
        AcFault::SelectedInverse { point: 7 },
    ];
    for fault in faults {
        let mut serial: Option<(Responses, SolveStats)> = None;
        for threads in ["1", "4"] {
            std::env::set_var(par::THREADS_ENV, threads);
            let (got, stats) = all_nodes(&c, &grid, fault);
            let want = per_node(&c, &grid, fault);
            let cfg = format!("{fault:?} at LOOPSCOPE_THREADS={threads}");
            match (&got, &want) {
                (Err(a), Err(b)) => assert_eq!(a, b, "{cfg}: errors differ"),
                (Ok(a), Ok(b)) => {
                    let fell_back = stats.inverse_fallbacks > 0;
                    for k in 0..grid.len() {
                        let scale = b.iter().map(|r| r[k].abs()).fold(0.0f64, f64::max);
                        for (node, (ra, rb)) in a.iter().zip(b).enumerate() {
                            let (x, y) = (ra[k], rb[k]);
                            if fell_back && k == point_of(fault) {
                                // The fallback is the per-node ladder itself.
                                assert!(
                                    x.re == y.re && x.im == y.im,
                                    "{cfg}: node {node}, fallback point {k}: {x:?} != {y:?}"
                                );
                            } else {
                                assert!(
                                    (x - y).abs() <= 1.0e-9 * scale,
                                    "{cfg}: node {node}, point {k}: {x:?} vs {y:?}"
                                );
                            }
                        }
                    }
                    // The source-pinned input node is an exact zero.
                    assert!(a[0].iter().all(|z| *z == Complex64::ZERO), "{cfg}");
                }
                (a, b) => panic!("{cfg}: all-nodes {a:?} vs per-node {b:?}"),
            }
            if let AcFault::SelectedInverse { .. } = fault {
                assert!(got.is_ok(), "{cfg}");
                assert_eq!(stats.inverse_fallbacks, 1, "{cfg}: {stats:?}");
            }
            // One worker or four: the same outcome, bit for bit.
            match &serial {
                None => serial = Some((got, stats)),
                Some((reference, ref_stats)) => match (reference, &got) {
                    (Ok(a), Ok(b)) => {
                        for (ra, rb) in a.iter().zip(b) {
                            for (x, y) in ra.iter().zip(rb) {
                                assert!(x.re == y.re && x.im == y.im, "{cfg}");
                            }
                        }
                        assert_eq!(ref_stats, &stats, "{cfg}");
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b, "{cfg}"),
                    (a, b) => panic!("{cfg}: {a:?} vs {b:?}"),
                },
            }
        }
    }
    std::env::remove_var(par::THREADS_ENV);
}
