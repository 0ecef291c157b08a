//! Golden-data validation harness for the `loopscope` workspace.
//!
//! The solver pipeline asserts internal bitwise invariants everywhere
//! (refactor-vs-fresh, batch-vs-serial, thread-count determinism), but those
//! only prove self-consistency. This crate checks the *answers*: a corpus
//! of JSON golden files under `tests/golden_data/` pins reference values —
//! DC node voltages, AC magnitude/phase at exact frequencies, transient
//! samples at exact times — derived offline from closed-form analytic
//! solutions (each file's `provenance` field records the derivation), so CI
//! validates against an external reference with no network.
//!
//! The layers:
//!
//! * [`golden`] — the versioned [`golden::GoldenCase`] schema, loader and
//!   the `--bless` rewriter;
//! * [`compare`] — the shared [`Tolerance`] comparator producing structured
//!   [`Mismatch`] reports that name quantities through `MnaLayout`
//!   conventions (`V(out)`, `I(V1)`) like the solver's own errors;
//! * [`runner`] — drives `spice::{dc, ac, tran}` through their public
//!   entry points and compares under tolerance;
//! * [`report`] — the `target/VALIDATE_report.json` artifact, mirroring the
//!   bench JSON flow.
//!
//! Run the corpus with `cargo run -p loopscope-validate`; regenerate goldens
//! after an intentional numerics change with
//! `LOOPSCOPE_BLESS=1 cargo run -p loopscope-validate -- --bless` (the env
//! guard keeps a stray flag from silently rewriting references).
//!
//! ```
//! use loopscope_validate::{GoldenCase, run_case, Outcome};
//! use std::path::Path;
//!
//! let text = r#"{
//!   "schema_version": 1,
//!   "description": "1:1 resistive divider",
//!   "provenance": "analytic: V(out) = 10 * R2/(R1+R2) = 5",
//!   "circuit": {"netlist": ["div", "V1 in 0 DC 10", "R1 in out 1k", "R2 out 0 1k", ".end"]},
//!   "analyses": [{"kind": "dc", "checks": [{"node": "out", "want": 5.0, "atol": 1e-6}]}]
//! }"#;
//! let case = GoldenCase::parse(Path::new("divider.json"), text)?;
//! let report = run_case(&case);
//! assert_eq!(report.outcome, Outcome::Pass);
//! # Ok::<(), loopscope_validate::GoldenError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circuits;
pub mod compare;
pub mod golden;
pub mod json;
pub mod report;
pub mod runner;

pub use compare::{Mismatch, Tolerance};
pub use golden::{
    bless_file, default_data_dir, load_dir, AnalysisCase, BlessedChange, CircuitSpec, GoldenCase,
    GoldenError, SCHEMA_VERSION,
};
pub use report::{default_report_path, report_json, write_report, Counts};
pub use runner::{run_case, run_corpus, CaseReport, CheckRecord, Outcome, StructureCheck};
