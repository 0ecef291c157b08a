//! Machine-readable corpus report, mirroring the `BENCH_solver.json` flow.
//!
//! The binary (and CI) write `target/VALIDATE_report.json` so golden runs
//! leave the same kind of artifact trail the solver benches do; CI uploads
//! it next to the bench JSON.

use std::io;
use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::runner::{CaseReport, Outcome};

/// Summary counts over a corpus run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// Cases with [`Outcome::Pass`].
    pub passed: usize,
    /// Cases with [`Outcome::Fail`].
    pub failed: usize,
    /// Cases with [`Outcome::ExpectedFailure`].
    pub expected_failures: usize,
    /// Cases with [`Outcome::UnexpectedPass`].
    pub unexpected_passes: usize,
    /// Cases with [`Outcome::Error`].
    pub errors: usize,
}

impl Counts {
    /// Tallies the outcomes of a corpus run.
    pub fn from_reports(reports: &[CaseReport]) -> Self {
        let mut c = Counts::default();
        for r in reports {
            match r.outcome {
                Outcome::Pass => c.passed += 1,
                Outcome::Fail => c.failed += 1,
                Outcome::ExpectedFailure => c.expected_failures += 1,
                Outcome::UnexpectedPass => c.unexpected_passes += 1,
                Outcome::Error => c.errors += 1,
            }
        }
        c
    }

    /// Total number of cases.
    pub fn total(&self) -> usize {
        self.passed + self.failed + self.expected_failures + self.unexpected_passes + self.errors
    }

    /// Whether the corpus is green: every case passed or failed exactly as
    /// its `expect_failure` flag demands.
    pub fn is_ok(&self) -> bool {
        self.failed == 0 && self.unexpected_passes == 0 && self.errors == 0
    }
}

/// Builds the report document for a corpus run.
pub fn report_json(reports: &[CaseReport]) -> Json {
    let counts = Counts::from_reports(reports);
    let env_str = |key: &str| {
        std::env::var(key)
            .map(Json::Str)
            .unwrap_or(Json::Str("default".into()))
    };
    let cases: Vec<Json> = reports
        .iter()
        .map(|r| {
            let mismatches: Vec<Json> = r
                .mismatches
                .iter()
                .map(|m| {
                    Json::Obj(vec![
                        ("quantity".into(), Json::Str(m.quantity.clone())),
                        ("at".into(), Json::Str(m.at.clone())),
                        ("got".into(), Json::Num(m.got)),
                        ("want".into(), Json::Num(m.want)),
                        ("tol".into(), Json::Num(m.tol)),
                    ])
                })
                .collect();
            let mut entries = vec![
                ("name".into(), Json::Str(r.name.clone())),
                ("analyses".into(), Json::Str(r.kinds.clone())),
                ("outcome".into(), Json::Str(r.outcome.tag().into())),
                ("checks".into(), Json::Num(r.checks.len() as f64)),
                ("mismatches".into(), Json::Arr(mismatches)),
            ];
            if let Some(s) = r.structure {
                entries.push((
                    "btf_blocks".into(),
                    Json::Obj(vec![
                        ("min".into(), Json::Num(s.min_blocks as f64)),
                        ("got".into(), Json::Num(s.got_blocks as f64)),
                    ]),
                ));
            }
            entries.push((
                "error".into(),
                r.error
                    .as_ref()
                    .map(|e| Json::Str(e.clone()))
                    .unwrap_or(Json::Null),
            ));
            Json::Obj(entries)
        })
        .collect();
    Json::Obj(vec![
        ("schema_version".into(), Json::Num(1.0)),
        ("tool".into(), Json::Str("loopscope-validate".into())),
        ("threads".into(), env_str("LOOPSCOPE_THREADS")),
        ("total".into(), Json::Num(counts.total() as f64)),
        ("passed".into(), Json::Num(counts.passed as f64)),
        ("failed".into(), Json::Num(counts.failed as f64)),
        (
            "expected_failures".into(),
            Json::Num(counts.expected_failures as f64),
        ),
        (
            "unexpected_passes".into(),
            Json::Num(counts.unexpected_passes as f64),
        ),
        ("errors".into(), Json::Num(counts.errors as f64)),
        ("ok".into(), Json::Bool(counts.is_ok())),
        ("cases".into(), Json::Arr(cases)),
    ])
}

/// The default report path: `$CARGO_TARGET_DIR/VALIDATE_report.json`, or the
/// workspace `target/` next to this crate when the variable is unset — the
/// same resolution the solver bench uses for `BENCH_solver.json`.
pub fn default_report_path() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../target").to_string());
    Path::new(&target).join("VALIDATE_report.json")
}

/// Writes the report JSON, creating parent directories as needed.
/// Returns the path written.
pub fn write_report(reports: &[CaseReport], path: Option<&Path>) -> io::Result<PathBuf> {
    let path = path
        .map(Path::to_path_buf)
        .unwrap_or_else(default_report_path);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(&path, report_json(reports).pretty())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::Mismatch;

    fn report(name: &str, outcome: Outcome, mismatches: Vec<Mismatch>) -> CaseReport {
        CaseReport {
            name: name.into(),
            kinds: "dc".into(),
            expect_failure: matches!(outcome, Outcome::ExpectedFailure | Outcome::UnexpectedPass),
            checks: Vec::new(),
            mismatches,
            structure: None,
            error: None,
            outcome,
        }
    }

    #[test]
    fn counts_and_ok_flag() {
        let reports = vec![
            report("a", Outcome::Pass, vec![]),
            report(
                "b",
                Outcome::ExpectedFailure,
                vec![Mismatch {
                    quantity: "V(x)".into(),
                    at: "dc".into(),
                    got: 0.0,
                    want: 1.0,
                    tol: 1e-9,
                }],
            ),
        ];
        let counts = Counts::from_reports(&reports);
        assert_eq!(counts.total(), 2);
        assert!(counts.is_ok());
        let doc = report_json(&reports);
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        let cases = doc.get("cases").and_then(Json::as_arr).unwrap();
        assert_eq!(cases.len(), 2);
        let m = cases[1].get("mismatches").and_then(Json::as_arr).unwrap();
        assert_eq!(m[0].get("quantity").and_then(Json::as_str), Some("V(x)"));
    }

    #[test]
    fn failures_flip_ok() {
        let reports = vec![report("a", Outcome::UnexpectedPass, vec![])];
        assert!(!Counts::from_reports(&reports).is_ok());
        let doc = report_json(&reports);
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    }
}
