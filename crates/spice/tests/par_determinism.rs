//! Worker-count invariance of the parallel sweep executor: the all-nodes
//! stability scan (and the classical AC sweep) must produce **bitwise
//! identical** results at `LOOPSCOPE_THREADS=1`, `=2`, `=3` and `=4`, and
//! the merged solve counters must be identical too.
//!
//! NOTE: this file mutates the process environment (`LOOPSCOPE_THREADS` is
//! deliberately re-read on every sweep call so benches and tests can switch
//! it), so it holds exactly ONE `#[test]` in its own test binary: tests in
//! one binary run on parallel threads, and a sibling test reading the
//! environment between this test's set/remove calls would be racy.

use loopscope_math::{Complex64, FrequencyGrid};
use loopscope_netlist::{Circuit, SourceSpec};
use loopscope_spice::ac::AcAnalysis;
use loopscope_spice::assembly::SolveStats;
use loopscope_spice::dc::solve_dc;
use loopscope_spice::par;

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

/// Runs a fresh all-nodes scan with the given `LOOPSCOPE_THREADS` value.
fn all_nodes_with_threads(threads: &str) -> (Vec<Vec<Complex64>>, SolveStats) {
    std::env::set_var(par::THREADS_ENV, threads);
    let c = rc_chain(7);
    let op = solve_dc(&c).unwrap();
    let ac = AcAnalysis::new(&c, &op).unwrap();
    // 121 points — the paper-scale scan the parallel executor targets.
    let grid = FrequencyGrid::log_decade(1.0e2, 1.0e8, 20);
    let responses = ac.driving_point_all_nodes(&grid).unwrap();
    (responses, ac.solve_stats())
}

#[test]
fn sweeps_are_bitwise_identical_at_any_worker_count() {
    // --- All-nodes scan: serial reference vs parallel --------------------
    // Every point is a pure function of its frequency (selected inversion
    // plus its verified samples), so any chunking reproduces the one-worker
    // run bit for bit.
    let (serial, serial_stats) = all_nodes_with_threads("1");
    assert_eq!(
        serial_stats.inverse_fallbacks, 0,
        "healthy scan never falls back"
    );
    for threads in ["2", "3", "4"] {
        let (parallel, parallel_stats) = all_nodes_with_threads(threads);
        assert_eq!(serial.len(), parallel.len());
        for (node, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(s.len(), p.len());
            for (i, (a, b)) in s.iter().zip(p).enumerate() {
                assert!(
                    a.re == b.re && a.im == b.im,
                    "node {node}, point {i}: {a:?} != {b:?} at LOOPSCOPE_THREADS={threads}"
                );
            }
        }
        // Counter totals are sums over plan + workers: chunking-independent.
        assert_eq!(serial_stats, parallel_stats, "threads = {threads}");
    }

    // --- Classical AC sweep: serial vs 4 workers -------------------------
    let run = |threads: &str| {
        std::env::set_var(par::THREADS_ENV, threads);
        let c = rc_chain(5);
        let op = solve_dc(&c).unwrap();
        let ac = AcAnalysis::new(&c, &op).unwrap();
        let grid = FrequencyGrid::log_decade(1.0e2, 1.0e7, 15);
        let sweep = ac.sweep(&grid).unwrap();
        let out = c.find_node("n4").unwrap();
        (sweep.response(out), ac.solve_stats())
    };
    let (serial, serial_stats) = run("1");
    let (parallel, parallel_stats) = run("4");
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.re, b.re);
        assert_eq!(a.im, b.im);
    }
    assert_eq!(serial_stats, parallel_stats);
    std::env::remove_var(par::THREADS_ENV);
}
