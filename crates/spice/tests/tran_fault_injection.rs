//! Transient fault-injection determinism: a seeded numeric fault planted at
//! Newton-solve ordinal `k` of a transient run must surface as the **same
//! structured, name-enriched error** — or the same identically-rescued
//! waveform, bit for bit — at every `LOOPSCOPE_THREADS` setting, exactly
//! like `tests/fault_injection.rs` pins for sweeps.
//!
//! The injection seam is [`TransientAnalysis::run_with_hook`]: the hook runs
//! between assembly and the verified solve of every Newton iteration, on
//! fixed grids and adaptive runs alike, so the fault lands on the same
//! assembled system no matter which configuration is active.
//!
//! NOTE: this file mutates the process environment (the worker-count knob
//! is re-read on every run), so it holds exactly ONE `#[test]`
//! in its own test binary — a sibling test reading the environment between
//! this test's set/remove calls would be racy.

#![cfg(feature = "fault-inject")]

use loopscope_netlist::{Circuit, DiodeModel, SourceSpec};
use loopscope_sparse::faults::{FaultInjector, FaultKind};
use loopscope_spice::dc::solve_dc;
use loopscope_spice::par;
use loopscope_spice::tran::{TransientAnalysis, TransientOptions};
use loopscope_spice::SpiceError;

/// A stiff nonlinear circuit with a delayed breakpoint, so the fault can
/// land mid-ladder on the adaptive path.
fn circuit() -> Circuit {
    let mut c = Circuit::new("tran faults");
    let vin = c.node("in");
    let fast = c.node("fast");
    let slow = c.node("slow");
    c.add_vsource(
        "V1",
        vin,
        Circuit::GROUND,
        SourceSpec::step(0.0, 1.5, 2.0e-6),
    );
    c.add_resistor("R1", vin, fast, 1.0e3);
    c.add_capacitor("C1", fast, Circuit::GROUND, 1.0e-9);
    c.add_resistor("R2", vin, slow, 1.0e5);
    c.add_capacitor("C2", slow, Circuit::GROUND, 50.0e-9);
    c.add_diode("D1", fast, Circuit::GROUND, DiodeModel::default());
    c
}

/// The adaptive run or the fixed grid of every scenario.
fn options(adaptive: bool) -> TransientOptions {
    if adaptive {
        TransientOptions::adaptive(10.0e-9, 0.5e-6, 10.0e-6)
    } else {
        TransientOptions::new(0.1e-6, 10.0e-6)
    }
}

/// One run under the current env knobs with `fault` injected at Newton-solve
/// ordinal `at` (`usize::MAX` = no fault), reduced to bit patterns.
fn run(
    adaptive: bool,
    fault: FaultKind,
    at: usize,
    seed: u64,
) -> Result<(Vec<u64>, Vec<Vec<u64>>), SpiceError> {
    let c = circuit();
    let op = solve_dc(&c).unwrap();
    let tran = TransientAnalysis::new(&c, options(adaptive)).unwrap();
    let r = tran.run_with_hook(&op, |ordinal, solver| {
        if ordinal == at {
            // Seeded by ordinal: the same fault lands on the same entry of
            // the same assembled system in every configuration.
            FaultInjector::new(seed + at as u64).inject(fault, solver.matrix_mut());
        }
    })?;
    let times = r.times().iter().map(|t| t.to_bits()).collect();
    let waves = ["fast", "slow"]
        .iter()
        .map(|n| {
            let node = c.find_node(n).unwrap();
            r.waveform(node)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect();
    Ok((times, waves))
}

/// The Newton-solve ordinals of a fault-free run whose factorization was
/// skipped because the assembly's matrix and device keys were those of the
/// last refactorization: on this nonlinear circuit, first iterations of a
/// step whose devices were bypassed, which load only their right-hand side.
fn reused_ordinals(adaptive: bool) -> Vec<usize> {
    let c = circuit();
    let op = solve_dc(&c).unwrap();
    let tran = TransientAnalysis::new(&c, options(adaptive)).unwrap();
    let mut reuses = Vec::new();
    let r = tran
        .run_with_hook(&op, |_, solver| reuses.push(solver.stats().factor_reuses))
        .unwrap();
    reuses.push(r.stats().solve.factor_reuses);
    reuses
        .windows(2)
        .enumerate()
        .filter(|(_, w)| w[1] > w[0])
        .map(|(ordinal, _)| ordinal)
        .collect()
}

/// Solve ordinals the fault-free runs serve with a reused factor, on the
/// fixed grid and the adaptive run: first iterations of a step after the
/// input edge, while the diode still moves.
const FIXED_REUSED: usize = 48;
const ADAPTIVE_REUSED: usize = 101;

/// The scenarios pinned across the config matrix:
/// (adaptive?, fault, solve ordinal, seed).
const SCENARIOS: &[(bool, FaultKind, usize, u64)] = &[
    // NaN mid-run: no ladder rung can repair it — must abort identically.
    (true, FaultKind::Nan, 23, 0xC0FFEE),
    (false, FaultKind::Nan, 23, 0xC0FFEE),
    // A zeroed column: rescued by the gmin rung or surfaced as a named
    // singular system — identical either way.
    (true, FaultKind::NearSingular, 11, 0xDEAD),
    (false, FaultKind::NearSingular, 11, 0xDEAD),
    // Ordinals whose factor the fault-free run reuses (first iterations of
    // a step, devices bypassed): the poisoned values must refactor and
    // climb the same ladder as any other system.
    (false, FaultKind::NearSingular, FIXED_REUSED, 0xBEEF),
    (true, FaultKind::DegradedPivot, ADAPTIVE_REUSED, 0xFACE),
    // Control: no fault.
    (true, FaultKind::Nan, usize::MAX, 1),
    (false, FaultKind::Nan, usize::MAX, 1),
];

#[test]
fn injected_transient_faults_are_config_invariant() {
    // Reference outcomes under pinned serial/default knobs.
    std::env::set_var(par::THREADS_ENV, "1");
    let references: Vec<_> = SCENARIOS
        .iter()
        .map(|&(adaptive, fault, at, seed)| run(adaptive, fault, at, seed))
        .collect();

    // The NaN scenarios must have surfaced as the name-enriched stamp error.
    for (i, r) in references.iter().enumerate() {
        let (_, fault, at, _) = SCENARIOS[i];
        if fault == FaultKind::Nan && at != usize::MAX {
            match r {
                Err(SpiceError::NonFiniteStamp { row, col, .. }) => {
                    assert!(
                        row.starts_with("V(") || row.starts_with("I("),
                        "row = {row}"
                    );
                    assert!(
                        col.starts_with("V(") || col.starts_with("I("),
                        "col = {col}"
                    );
                }
                other => panic!("scenario {i}: expected NonFiniteStamp, got {other:?}"),
            }
        }
        if at == usize::MAX {
            assert!(r.is_ok(), "control scenario {i} failed: {r:?}");
        }
    }

    // The poisoned ordinals would have reused their factors. The dead
    // column of the fixed grid is a branch column no gmin bump reaches,
    // and the degraded pivot of the adaptive run is re-pivoted.
    assert!(reused_ordinals(false).contains(&FIXED_REUSED));
    assert!(reused_ordinals(true).contains(&ADAPTIVE_REUSED));
    assert!(matches!(
        references[4],
        Err(SpiceError::SingularSystem { ref unknown, .. }) if unknown == "I(V1)"
    ));
    assert!(references[5].is_ok());

    for threads in ["1", "4"] {
        std::env::set_var(par::THREADS_ENV, threads);
        for (i, &(adaptive, fault, at, seed)) in SCENARIOS.iter().enumerate() {
            let got = run(adaptive, fault, at, seed);
            let cfg = format!("threads={threads}, scenario {i}");
            match (&references[i], &got) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "rescued waveform diverged at {cfg}"),
                (Err(a), Err(b)) => assert_eq!(a, b, "error diverged at {cfg}"),
                (a, b) => panic!("outcome diverged at {cfg}: {a:?} vs {b:?}"),
            }
        }
    }

    std::env::remove_var(par::THREADS_ENV);
}
