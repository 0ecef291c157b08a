//! A matrix fault planted in a driving-point probe lands on the whole
//! system's entry first and is then restricted to the probe's BTF block:
//! on Table 2, a NaN the seeded injector places inside the `out` block
//! {stage1, out, comp} surfaces as `NonFiniteStamp` naming that entry's
//! circuit unknowns — which pins the block's local-to-circuit name map —
//! and one it places in a row outside the block leaves the `out` probe
//! bitwise untouched.

#![cfg(feature = "fault-inject")]

use loopscope_circuits::{opamp_with_bias, BiasParams, OpAmpParams};
use loopscope_math::{Complex64, FrequencyGrid};
use loopscope_sparse::faults::{FaultInjector, FaultKind, FaultReport};
use loopscope_spice::ac::{AcAnalysis, AcFault};
use loopscope_spice::dc::solve_dc;
use loopscope_spice::SpiceError;

fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
    v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

#[test]
fn nan_in_the_out_probe_names_its_block_unknowns() {
    let (c, _, _) = opamp_with_bias(&OpAmpParams::default(), &BiasParams::default());
    let op = solve_dc(&c).expect("operating point");
    let out = c.find_node("out").expect("out node");
    let grid = FrequencyGrid::log_decade(1.0e3, 1.0e9, 10);
    let point = 17;
    let block = ["V(stage1)", "V(out)", "V(comp)"];

    let clean = AcAnalysis::new(&c, &op).expect("analysis");
    let layout = clean.layout();
    let reference = clean.driving_point_response(out, &grid).expect("probe");
    // The injector picks an entry of the whole system at the faulted point.
    let whole = clean.admittance_matrix(grid.freqs()[point]);
    let report = |seed: u64| -> FaultReport {
        FaultInjector::new(seed).inject(FaultKind::Nan, &mut whole.clone())
    };
    let in_block = |var: usize| block.contains(&layout.unknown_name(var).as_str());
    let probe = |seed: u64| {
        let ac = AcAnalysis::new(&c, &op).expect("analysis");
        ac.inject_fault(AcFault::Matrix {
            point,
            kind: FaultKind::Nan,
            seed,
        });
        ac.driving_point_response(out, &grid)
    };

    let inside = (0..1000)
        .find(|&seed| {
            let r = report(seed);
            in_block(r.row) && in_block(r.col)
        })
        .expect("some seed lands in the out block");
    let r = report(inside);
    assert_eq!(
        probe(inside),
        Err(SpiceError::NonFiniteStamp {
            row: layout.unknown_name(r.row),
            col: layout.unknown_name(r.col),
            row_index: r.row,
            col_index: r.col,
        })
    );

    let outside = (0..1000)
        .find(|&seed| !in_block(report(seed).row))
        .expect("some seed lands outside the out block's rows");
    assert_eq!(bits(&probe(outside).expect("probe")), bits(&reference));
}
