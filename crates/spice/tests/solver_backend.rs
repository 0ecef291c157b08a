//! End-to-end contract tests for the pluggable linear-solver backend seam:
//! a forced-iterative sweep must agree with the direct reference to the
//! iterative acceptance tolerance, report its work in the new
//! [`SolveStats`] counters, fall back to the verified direct ladder when no
//! preconditioner is available, and reproduce itself **bitwise** — counters
//! included — at every worker count.
//!
//! Like `fault_injection.rs`, this file never touches the process
//! environment: backends are pinned in-process through
//! [`AcAnalysis::set_solver_backend`] / [`SweepPlan::build_with_backend`],
//! and worker counts go through [`par::sweep_chunks_with`], so the whole
//! configuration matrix runs race-free inside one test binary.

use loopscope_math::{Complex64, FrequencyGrid};
use loopscope_netlist::{Circuit, Element, SourceSpec};
use loopscope_spice::ac::AcAnalysis;
use loopscope_spice::assembly::{AssembleMna, SolveStats, SweepPlan};
use loopscope_spice::dc::solve_dc;
use loopscope_spice::mna::{MatrixSink, MnaLayout, Stamper};
use loopscope_spice::solver::{anchor_index, PRECOND_REFRESH_INTERVAL};
use loopscope_spice::{par, SolverBackend, SpiceError};

/// An RC ladder long enough that a sweep spans several preconditioner
/// refresh groups.
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

/// Minimal AC assembly job over a linear circuit (the library's own AC job
/// is private) — resistor/capacitor admittances plus voltage-source branch
/// rows, with a unit excitation on the source branch.
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

fn sweep_freqs(points: usize) -> Vec<f64> {
    (0..points)
        .map(|k| 1.0e3 * 10f64.powf(k as f64 / 8.0))
        .collect()
}

/// Drives `freqs` through a plan pinned to `backend` with `workers` workers,
/// following the anchor-preconditioner discipline
/// of the library's own sweep drivers. Returns the per-point solutions and
/// the merged counters.
fn run_pinned_sweep(
    backend: SolverBackend,
    workers: usize,
    freqs: &[f64],
) -> (Vec<Vec<Complex64>>, SolveStats) {
    let circuit = rc_chain(6);
    let layout = MnaLayout::new(&circuit);
    let seed_job = AcJob {
        circuit: &circuit,
        freq_hz: freqs[0],
    };
    let plan = SweepPlan::build_with_backend(&layout, &seed_job, backend).expect("plan");
    let (rows, states) = par::sweep_chunks_with(
        workers,
        freqs,
        || plan.context(),
        |ctx, idx, &freq| -> Result<Vec<Complex64>, SpiceError> {
            let anchor = anchor_index(idx);
            let anchor_job = AcJob {
                circuit: &circuit,
                freq_hz: freqs[anchor],
            };
            ctx.ensure_preconditioner(anchor, idx == anchor, &anchor_job);
            let job = AcJob {
                circuit: &circuit,
                freq_hz: freq,
            };
            let mut rhs = ctx.assemble(&job);
            ctx.solve_backend_in_place(&mut rhs)?;
            Ok(rhs)
        },
    );
    let mut stats = plan.stats();
    for s in states {
        stats.merge(&s.stats());
    }
    (rows.expect("healthy passive sweep"), stats)
}

#[test]
fn forced_iterative_sweep_matches_direct_and_reports_counters() {
    let freqs = sweep_freqs(24);
    let (direct, dstats) = run_pinned_sweep(SolverBackend::Direct, 1, &freqs);
    let (iterative, istats) = run_pinned_sweep(SolverBackend::iterative_default(), 1, &freqs);

    // Same physics to the iterative acceptance tolerance (1e-9 backward
    // error — far tighter than this 1e-6 forward check on a well-conditioned
    // ladder).
    for (point, (a, b)) in direct.iter().zip(&iterative).enumerate() {
        for (x, y) in a.iter().zip(b) {
            let scale = x.abs().max(1.0);
            assert!(
                (*x - *y).abs() / scale < 1.0e-6,
                "point {point}: direct {x:?} vs iterative {y:?}"
            );
        }
    }

    // The direct run never touches the iterative counters.
    assert_eq!(dstats.iterative_solves, 0, "{dstats:?}");
    assert_eq!(dstats.gmres_iterations, 0, "{dstats:?}");
    assert_eq!(dstats.preconditioner_refreshes, 0, "{dstats:?}");
    assert_eq!(dstats.iterative_fallbacks, 0, "{dstats:?}");

    // The iterative run refreshes once per anchor group and serves every
    // point either by GMRES or by a counted fallback to the direct ladder.
    let groups = freqs.len().div_ceil(PRECOND_REFRESH_INTERVAL);
    assert_eq!(istats.preconditioner_refreshes, groups, "{istats:?}");
    assert_eq!(
        istats.iterative_solves + istats.iterative_fallbacks,
        freqs.len(),
        "{istats:?}"
    );
    assert!(istats.iterative_solves > 0, "{istats:?}");
    assert!(
        istats.gmres_iterations >= istats.iterative_solves,
        "{istats:?}"
    );
}

#[test]
fn iterative_sweep_is_chunking_invariant_counters_included() {
    let freqs = sweep_freqs(24);
    let backend = SolverBackend::iterative_default();
    let (reference, ref_stats) = run_pinned_sweep(backend, 1, &freqs);
    for workers in [1, 2, 4] {
        let (run, stats) = run_pinned_sweep(backend, workers, &freqs);
        for (point, (a, b)) in reference.iter().zip(&run).enumerate() {
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert!(
                    x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                    "point {point} entry {i} diverged at workers={workers}: {x:?} != {y:?}"
                );
            }
        }
        // GMRES iteration counts, refresh counts and fallback counts are
        // part of the determinism contract, not just the solutions.
        assert_eq!(ref_stats, stats, "counters diverged at workers={workers}");
    }
}

#[test]
fn backend_seam_without_preconditioner_falls_back_to_the_direct_ladder() {
    // `solve_backend_in_place` with no installed preconditioner must serve
    // the point through the exact verified-direct ladder — bitwise — and
    // count the miss.
    let freqs = sweep_freqs(6);
    let circuit = rc_chain(4);
    let layout = MnaLayout::new(&circuit);
    let seed_job = AcJob {
        circuit: &circuit,
        freq_hz: freqs[0],
    };
    let direct_plan =
        SweepPlan::build_with_backend(&layout, &seed_job, SolverBackend::Direct).expect("plan");
    let iter_plan =
        SweepPlan::build_with_backend(&layout, &seed_job, SolverBackend::iterative_default())
            .expect("plan");
    let mut dctx = direct_plan.context();
    let mut ictx = iter_plan.context();
    for &freq in &freqs {
        let job = AcJob {
            circuit: &circuit,
            freq_hz: freq,
        };
        let mut a = dctx.assemble(&job);
        dctx.solve_verified_in_place(&mut a).expect("direct");
        // No ensure_preconditioner call: every backend solve must miss.
        let mut b = ictx.assemble(&job);
        ictx.solve_backend_in_place(&mut b).expect("fallback");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }
    let stats = ictx.stats();
    assert_eq!(stats.iterative_fallbacks, freqs.len(), "{stats:?}");
    assert_eq!(stats.iterative_solves, 0, "{stats:?}");
    assert_eq!(stats.gmres_iterations, 0, "{stats:?}");
}

#[test]
fn pinned_analysis_reports_its_backend_and_serves_iterative_sweeps() {
    let circuit = rc_chain(5);
    let op = solve_dc(&circuit).unwrap();
    let grid = FrequencyGrid::log_decade(1.0e2, 1.0e6, 8);

    let direct = AcAnalysis::new(&circuit, &op).unwrap();
    direct.set_solver_backend(SolverBackend::Direct);
    let reference = direct.sweep(&grid).unwrap();

    let pinned = AcAnalysis::new(&circuit, &op).unwrap();
    pinned.set_solver_backend(SolverBackend::iterative_default());
    let structure = pinned.solver_structure(1.0e3).unwrap();
    assert!(structure.solver.is_iterative(), "{structure:?}");
    let sweep = pinned.sweep(&grid).unwrap();

    let out = circuit.find_node("n4").unwrap();
    for (a, b) in reference.response(out).iter().zip(&sweep.response(out)) {
        assert!(
            (*a - *b).abs() / a.abs().max(1.0) < 1.0e-6,
            "direct {a:?} vs iterative {b:?}"
        );
    }
    let stats = pinned.solve_stats();
    assert!(
        stats.iterative_solves > 0 && stats.preconditioner_refreshes > 0,
        "pinned analysis never took the iterative path: {stats:?}"
    );
}
