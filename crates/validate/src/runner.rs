//! Executes golden cases against the simulator and collects results.
//!
//! The runner goes through the same public entry points the rest of the
//! workspace uses — `solve_dc`, [`AcAnalysis::sweep`] /
//! [`AcAnalysis::driving_point_response`] (the `SweepPlan` parallel path)
//! and [`TransientAnalysis::run`] (the adopting `SolveContext` path) — so a
//! golden pass certifies the code users actually call, under whatever
//! `LOOPSCOPE_THREADS` configuration is active.
//!
//! AC checks pin exact frequencies: the sweep grid is built from the pinned
//! values themselves via [`FrequencyGrid::from_points`], so comparisons
//! carry no interpolation error. Transient checks should pin multiples of
//! `dt` for the same reason.

use loopscope_math::FrequencyGrid;
use loopscope_netlist::{Circuit, NodeId};
use loopscope_spice::ac::AcAnalysis;
use loopscope_spice::batch::{driving_point_monte_carlo, ParameterVariation};
use loopscope_spice::dc::solve_dc;
use loopscope_spice::mna::MnaLayout;
use loopscope_spice::tran::{Integration, TransientAnalysis, TransientOptions};

use crate::compare::Mismatch;
use crate::golden::{AcQuantity, AnalysisCase, DcQuantity, GoldenCase, McQuantity};
use crate::json::format_number;

/// One evaluated check: what was measured and whether it passed.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckRecord {
    /// Quantity name through `MnaLayout` conventions, e.g. `"V(out)"`.
    pub quantity: String,
    /// Evaluation point, e.g. `"dc"`, `"f = 159.2 Hz"`.
    pub at: String,
    /// Measured value.
    pub got: f64,
    /// Golden reference.
    pub want: f64,
    /// Effective absolute tolerance applied.
    pub tol: f64,
    /// Whether the check passed.
    pub pass: bool,
}

/// Result of the optional BTF structure assertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StructureCheck {
    /// Required minimum number of BTF diagonal blocks.
    pub min_blocks: usize,
    /// What the solver's symbolic analysis found.
    pub got_blocks: usize,
    /// Whether the requirement held.
    pub pass: bool,
}

/// Aggregate outcome of one golden case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// All checks passed (and the case did not expect failure).
    Pass,
    /// At least one mismatch in a case that expected to pass.
    Fail,
    /// A case marked `expect_failure` that did fail — the desired result.
    ExpectedFailure,
    /// A case marked `expect_failure` whose checks all passed; the harness
    /// self-test is broken, so this is an overall failure.
    UnexpectedPass,
    /// The case could not be evaluated at all (build/solve/schema error).
    Error,
}

impl Outcome {
    /// Stable lower-snake tag for reports.
    pub fn tag(&self) -> &'static str {
        match self {
            Outcome::Pass => "pass",
            Outcome::Fail => "fail",
            Outcome::ExpectedFailure => "expected_failure",
            Outcome::UnexpectedPass => "unexpected_pass",
            Outcome::Error => "error",
        }
    }

    /// Whether this outcome keeps the corpus green.
    pub fn is_ok(&self) -> bool {
        matches!(self, Outcome::Pass | Outcome::ExpectedFailure)
    }
}

/// Full evaluation record of one golden case.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// Scenario name.
    pub name: String,
    /// Analysis kinds, e.g. `"dc+ac"`.
    pub kinds: String,
    /// Whether the golden declares it must fail.
    pub expect_failure: bool,
    /// Every evaluated check in runner order.
    pub checks: Vec<CheckRecord>,
    /// The failed comparisons, in evaluation order.
    pub mismatches: Vec<Mismatch>,
    /// Result of the `min_btf_blocks` assertion, when requested.
    pub structure: Option<StructureCheck>,
    /// Fatal error that stopped evaluation, if any.
    pub error: Option<String>,
    /// Aggregate outcome.
    pub outcome: Outcome,
}

impl CaseReport {
    /// The measured values in runner order — the input `--bless` needs.
    pub fn measured(&self) -> Vec<f64> {
        self.checks.iter().map(|c| c.got).collect()
    }
}

/// Runs one golden case end to end.
pub fn run_case(case: &GoldenCase) -> CaseReport {
    let mut report = CaseReport {
        name: case.name.clone(),
        kinds: case.kinds(),
        expect_failure: case.expect_failure,
        checks: Vec::with_capacity(case.check_count()),
        mismatches: Vec::new(),
        structure: None,
        error: None,
        outcome: Outcome::Error,
    };
    if let Err(msg) = run_case_inner(case, &mut report) {
        report.error = Some(msg);
    }
    let failed = !report.mismatches.is_empty() || report.structure.is_some_and(|s| !s.pass);
    report.outcome = match (report.error.is_some(), case.expect_failure, failed) {
        (true, _, _) => Outcome::Error,
        (false, false, false) => Outcome::Pass,
        (false, false, true) => Outcome::Fail,
        (false, true, true) => Outcome::ExpectedFailure,
        (false, true, false) => Outcome::UnexpectedPass,
    };
    report
}

/// Runs every case of a corpus, in order.
pub fn run_corpus(cases: &[GoldenCase]) -> Vec<CaseReport> {
    cases.iter().map(run_case).collect()
}

fn find_node(circuit: &Circuit, name: &str) -> Result<NodeId, String> {
    circuit
        .find_node(name)
        .ok_or_else(|| format!("golden references unknown node '{name}'"))
}

/// Resolves the `MnaLayout` display name for a node, e.g. `"V(out)"`.
fn voltage_name(layout: &MnaLayout, circuit: &Circuit, name: &str) -> Result<String, String> {
    let node = find_node(circuit, name)?;
    let var = layout
        .node_var(node)
        .ok_or_else(|| format!("node '{name}' is ground; it has no unknown to check"))?;
    Ok(layout.unknown_name(var))
}

fn freq_at(freq_hz: f64) -> String {
    format!("f = {} Hz", format_number(freq_hz))
}

fn run_case_inner(case: &GoldenCase, report: &mut CaseReport) -> Result<(), String> {
    let circuit = crate::circuits::build_circuit(&case.circuit)?;
    let layout = MnaLayout::new(&circuit);
    let op = solve_dc(&circuit).map_err(|e| format!("dc operating point: {e}"))?;

    // The AC analysis is shared by sweeps, driving-point scans and the BTF
    // structure assertion; build it lazily once.
    let needs_ac = case.min_btf_blocks.is_some()
        || case.analyses.iter().any(|a| {
            matches!(
                a,
                AnalysisCase::Ac { .. } | AnalysisCase::DrivingPoint { .. }
            )
        });
    let ac = if needs_ac {
        Some(AcAnalysis::new(&circuit, &op).map_err(|e| format!("ac setup: {e}"))?)
    } else {
        None
    };

    if let Some(min_blocks) = case.min_btf_blocks {
        let ac = ac.as_ref().expect("needs_ac covers min_btf_blocks");
        let rep_freq = case
            .analyses
            .iter()
            .find_map(|a| match a {
                AnalysisCase::Ac { checks } => checks.first().map(|c| c.freq_hz),
                AnalysisCase::DrivingPoint { checks, .. } => checks.first().map(|c| c.freq_hz),
                _ => None,
            })
            .unwrap_or(1.0e3);
        let structure = ac
            .solver_structure(rep_freq)
            .map_err(|e| format!("solver structure: {e}"))?;
        report.structure = Some(StructureCheck {
            min_blocks,
            got_blocks: structure.block_count,
            pass: structure.block_count >= min_blocks,
        });
        if structure.block_count < min_blocks {
            report.mismatches.push(Mismatch {
                quantity: "btf diagonal blocks".into(),
                at: freq_at(rep_freq),
                got: structure.block_count as f64,
                want: min_blocks as f64,
                tol: 0.0,
            });
        }
    }

    for analysis in &case.analyses {
        match analysis {
            AnalysisCase::Dc { checks } => {
                for check in checks {
                    let (quantity, got) = match &check.quantity {
                        DcQuantity::NodeVoltage(name) => {
                            let q = voltage_name(&layout, &circuit, name)?;
                            let node = find_node(&circuit, name)?;
                            (q, op.voltage(node))
                        }
                        DcQuantity::BranchCurrent(element) => {
                            let var = layout.branch_var(element).ok_or_else(|| {
                                format!("element '{element}' carries no branch current unknown")
                            })?;
                            let got = op.branch_current(element).ok_or_else(|| {
                                format!("no branch current recorded for '{element}'")
                            })?;
                            (layout.unknown_name(var), got)
                        }
                    };
                    record(report, &quantity, "dc", got, check.want, check.tol);
                }
            }
            AnalysisCase::Ac { checks } => {
                let ac = ac.as_ref().expect("needs_ac covers ac analyses");
                let grid = pinned_grid(checks.iter().map(|c| c.freq_hz))?;
                let sweep = ac.sweep(&grid).map_err(|e| format!("ac sweep: {e}"))?;
                for check in checks {
                    let vname = voltage_name(&layout, &circuit, &check.node)?;
                    let node = find_node(&circuit, &check.node)?;
                    let idx = grid_index(&grid, check.freq_hz);
                    let response = sweep.response(node)[idx];
                    let (quantity, got) = match check.quantity {
                        AcQuantity::Magnitude => (format!("|{vname}|"), response.abs()),
                        AcQuantity::PhaseDeg => (format!("arg {vname} [deg]"), response.arg_deg()),
                    };
                    record(
                        report,
                        &quantity,
                        &freq_at(check.freq_hz),
                        got,
                        check.want,
                        check.tol,
                    );
                }
            }
            AnalysisCase::DrivingPoint { node, checks } => {
                let ac = ac.as_ref().expect("needs_ac covers driving_point");
                let node_id = find_node(&circuit, node)?;
                // Validate the node has an unknown (same error text as AC).
                voltage_name(&layout, &circuit, node)?;
                let grid = pinned_grid(checks.iter().map(|c| c.freq_hz))?;
                let responses = ac
                    .driving_point_response(node_id, &grid)
                    .map_err(|e| format!("driving-point scan: {e}"))?;
                for check in checks {
                    let idx = grid_index(&grid, check.freq_hz);
                    let z = responses[idx];
                    let (quantity, got) = match check.quantity {
                        AcQuantity::Magnitude => (format!("|Z({node})|"), z.abs()),
                        AcQuantity::PhaseDeg => (format!("arg Z({node}) [deg]"), z.arg_deg()),
                    };
                    record(
                        report,
                        &quantity,
                        &freq_at(check.freq_hz),
                        got,
                        check.want,
                        check.tol,
                    );
                }
            }
            AnalysisCase::Tran {
                dt,
                t_stop,
                method,
                adaptive,
                checks,
            } => {
                let mut options = match adaptive {
                    Some(a) => {
                        let mut o = TransientOptions::adaptive(a.dt_min, a.dt_max, *t_stop);
                        o.reltol = a.reltol;
                        o.abstol = a.abstol;
                        o
                    }
                    None => TransientOptions::new(*dt, *t_stop),
                };
                options.method = match method.as_str() {
                    "backward_euler" => Integration::BackwardEuler,
                    _ => Integration::Trapezoidal,
                };
                let tran = TransientAnalysis::new(&circuit, options)
                    .map_err(|e| format!("transient setup: {e}"))?;
                let result = tran.run(&op).map_err(|e| format!("transient run: {e}"))?;
                for check in checks {
                    let vname = voltage_name(&layout, &circuit, &check.node)?;
                    let node = find_node(&circuit, &check.node)?;
                    let got = result
                        .value_at(node, check.time)
                        .map_err(|e| format!("transient waveform: {e}"))?;
                    record(
                        report,
                        &vname,
                        &format!("t = {} s", format_number(check.time)),
                        got,
                        check.want,
                        check.tol,
                    );
                }
            }
            AnalysisCase::MonteCarlo {
                node,
                seed,
                count,
                freqs,
                rules,
                checks,
            } => {
                let node_id = find_node(&circuit, node)?;
                // Validate the node has an unknown (same error text as AC).
                voltage_name(&layout, &circuit, node)?;
                let grid = pinned_grid(freqs.iter().copied())?;
                let mut variation = ParameterVariation::new(*seed);
                for rule in rules {
                    variation = match rule.dist.as_str() {
                        "gaussian" => variation.gaussian(&rule.element, rule.tolerance),
                        _ => variation.uniform(&rule.element, rule.tolerance),
                    };
                }
                let sweep =
                    driving_point_monte_carlo(&circuit, &op, node_id, &grid, &variation, *count)
                        .map_err(|e| format!("monte carlo sweep: {e}"))?;
                let at = format!("{count} variants, seed {seed}");
                let peaks = sweep.peak_magnitudes();
                for check in checks {
                    let (quantity, got) = match &check.quantity {
                        McQuantity::Yield => ("mc yield".to_string(), sweep.yield_count() as f64),
                        McQuantity::WorstCaseIndex => {
                            let (idx, _) = sweep
                                .worst_case_peak()
                                .ok_or_else(|| "monte carlo: no variant converged".to_string())?;
                            ("worst-case variant index".to_string(), idx as f64)
                        }
                        McQuantity::WorstCasePeak => {
                            let (_, peak) = sweep
                                .worst_case_peak()
                                .ok_or_else(|| "monte carlo: no variant converged".to_string())?;
                            (format!("worst-case peak |Z({node})|"), peak)
                        }
                        McQuantity::PeakQuantile(q) => {
                            let value = sweep
                                .peak_quantile(*q)
                                .ok_or_else(|| "monte carlo: no variant converged".to_string())?;
                            (format!("q={q} peak |Z({node})|"), value)
                        }
                        McQuantity::VariantPeak(index) => {
                            let peak = peaks.get(*index).copied().flatten().ok_or_else(|| {
                                format!("monte carlo: variant {index} has no converged peak")
                            })?;
                            (format!("mc#{index} peak |Z({node})|"), peak)
                        }
                    };
                    record(report, &quantity, &at, got, check.want, check.tol);
                }
            }
        }
    }
    Ok(())
}

fn record(
    report: &mut CaseReport,
    quantity: &str,
    at: &str,
    got: f64,
    want: f64,
    tol: crate::compare::Tolerance,
) {
    let result = tol.check(quantity, at, got, want);
    report.checks.push(CheckRecord {
        quantity: quantity.to_string(),
        at: at.to_string(),
        got,
        want,
        tol: tol.effective(want),
        pass: result.is_ok(),
    });
    if let Err(m) = result {
        report.mismatches.push(m);
    }
}

/// Builds the exact-solve grid for a set of pinned frequencies.
fn pinned_grid(freqs: impl Iterator<Item = f64>) -> Result<FrequencyGrid, String> {
    let mut points: Vec<f64> = freqs.collect();
    points.sort_by(|a, b| a.partial_cmp(b).expect("finite frequencies"));
    points.dedup();
    if points.iter().any(|f| !f.is_finite() || *f <= 0.0) {
        return Err("pinned frequencies must be finite and positive".into());
    }
    Ok(FrequencyGrid::from_points(points))
}

/// Index of a pinned frequency in the grid built from the same values —
/// exact float equality holds by construction.
fn grid_index(grid: &FrequencyGrid, freq_hz: f64) -> usize {
    grid.freqs()
        .iter()
        .position(|f| *f == freq_hz)
        .expect("grid was built from the checks' own frequencies")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::GoldenCase;
    use std::path::Path;

    fn case_from(text: &str) -> GoldenCase {
        GoldenCase::parse(Path::new("inline.json"), text).unwrap()
    }

    #[test]
    fn divider_case_passes_and_records_layout_names() {
        let case = case_from(
            r#"{
              "schema_version": 1, "name": "div", "description": "d", "provenance": "p",
              "circuit": {"netlist": ["divider", "V1 in 0 DC 10", "R1 in out 1k", "R2 out 0 1k", ".end"]},
              "analyses": [{"kind": "dc", "checks": [
                {"node": "out", "want": 5.0, "atol": 1e-6},
                {"branch": "V1", "want": -5.0e-3, "atol": 1e-9}
              ]}]
            }"#,
        );
        let report = run_case(&case);
        assert_eq!(report.outcome, Outcome::Pass, "{:?}", report.mismatches);
        assert_eq!(report.checks[0].quantity, "V(out)");
        assert_eq!(report.checks[1].quantity, "I(V1)");
        assert_eq!(report.checks[0].at, "dc");
    }

    #[test]
    fn wrong_want_produces_structured_mismatch() {
        let case = case_from(
            r#"{
              "schema_version": 1, "name": "bad", "description": "d", "provenance": "p",
              "circuit": {"netlist": ["divider", "V1 in 0 DC 10", "R1 in out 1k", "R2 out 0 1k", ".end"]},
              "analyses": [{"kind": "dc", "checks": [
                {"node": "out", "want": 7.5, "atol": 1e-6}
              ]}]
            }"#,
        );
        let report = run_case(&case);
        assert_eq!(report.outcome, Outcome::Fail);
        let m = &report.mismatches[0];
        assert_eq!(m.quantity, "V(out)");
        assert_eq!(m.at, "dc");
        assert!((m.got - 5.0).abs() < 1e-6);
        assert_eq!(m.want, 7.5);
    }

    #[test]
    fn unknown_node_is_an_error_not_a_mismatch() {
        let case = case_from(
            r#"{
              "schema_version": 1, "name": "missing", "description": "d", "provenance": "p",
              "circuit": {"netlist": ["t", "V1 in 0 DC 1", "R1 in 0 1k", ".end"]},
              "analyses": [{"kind": "dc", "checks": [
                {"node": "nope", "want": 0.0, "atol": 1e-6}
              ]}]
            }"#,
        );
        let report = run_case(&case);
        assert_eq!(report.outcome, Outcome::Error);
        assert!(report.error.as_deref().unwrap().contains("'nope'"));
    }

    #[test]
    fn monte_carlo_case_runs_the_batched_engine() {
        // Below the RC corner (fc = 15.9 kHz) the tank's |Z| tracks R, so a
        // 5% gaussian rule keeps every variant's peak within a loose band of
        // the nominal 10 kΩ; the seed pins the exact values.
        let case = case_from(
            r#"{
              "schema_version": 1, "name": "mc", "description": "d", "provenance": "p",
              "circuit": {"netlist": ["tank", "R1 tank 0 10k", "C1 tank 0 1n", ".end"]},
              "analyses": [
                {"kind": "monte_carlo", "node": "tank", "seed": 7, "count": 3,
                 "freqs": [1.0e3],
                 "rules": [{"element": "R1", "dist": "gaussian", "tolerance": 0.05}],
                 "checks": [
                   {"quantity": "yield", "want": 3.0, "atol": 0.5},
                   {"quantity": "worst_case_peak", "want": 1.0e4, "rtol": 0.25},
                   {"quantity": "peak_quantile", "q": 1.0, "want": 1.0e4, "rtol": 0.25}
                 ]}
              ]
            }"#,
        );
        let report = run_case(&case);
        assert_eq!(
            report.outcome,
            Outcome::Pass,
            "{:?} {:?}",
            report.error,
            report.mismatches
        );
        assert_eq!(report.kinds, "monte_carlo");
        assert_eq!(report.checks[0].quantity, "mc yield");
        assert_eq!(report.checks[0].got, 3.0);
        assert_eq!(report.checks[1].quantity, "worst-case peak |Z(tank)|");
        // Worst case dominates every quantile, including q = 1.
        assert_eq!(report.checks[1].got, report.checks[2].got);
    }

    #[test]
    fn expect_failure_flips_outcomes() {
        let failing = r#"{
          "schema_version": 1, "name": "xf", "description": "d", "provenance": "p",
          "expect_failure": true,
          "circuit": {"netlist": ["t", "V1 in 0 DC 1", "R1 in 0 1k", ".end"]},
          "analyses": [{"kind": "dc", "checks": [{"node": "in", "want": 2.0, "atol": 1e-9}]}]
        }"#;
        let report = run_case(&case_from(failing));
        assert_eq!(report.outcome, Outcome::ExpectedFailure);
        assert!(report.outcome.is_ok());
        let passing = failing.replace("\"want\": 2.0", "\"want\": 1.0");
        let report = run_case(&case_from(&passing));
        assert_eq!(report.outcome, Outcome::UnexpectedPass);
        assert!(!report.outcome.is_ok());
    }
}
