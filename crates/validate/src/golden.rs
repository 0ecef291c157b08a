//! The golden-case schema: loading, validation and `--bless` rewriting.
//!
//! A golden file is a JSON document pinning reference values for one circuit
//! under one or more analyses. The format is versioned (`schema_version`)
//! and every check carries its own absolute/relative tolerance, so each
//! quantity states how exact its reference is — analytic DC answers pin
//! nine digits while integrated transient samples allow truncation error.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::compare::Tolerance;
use crate::json::{self, Json, JsonError};

/// The golden-file format version this harness reads and writes.
pub const SCHEMA_VERSION: f64 = 1.0;

/// Errors raised while loading, interpreting or rewriting golden files.
#[derive(Debug)]
pub enum GoldenError {
    /// Filesystem failure reading or writing a golden file.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying error message.
        msg: String,
    },
    /// The file is not syntactically valid JSON.
    Parse {
        /// The file involved.
        path: PathBuf,
        /// The JSON syntax error with position.
        err: JsonError,
    },
    /// The JSON is well-formed but violates the golden schema.
    Schema {
        /// The file involved.
        path: PathBuf,
        /// What is wrong, with a JSON-path-style context prefix.
        msg: String,
    },
}

impl fmt::Display for GoldenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GoldenError::Io { path, msg } => write!(f, "{}: {msg}", path.display()),
            GoldenError::Parse { path, err } => write!(f, "{}: {err}", path.display()),
            GoldenError::Schema { path, msg } => {
                write!(f, "{}: schema error: {msg}", path.display())
            }
        }
    }
}

impl std::error::Error for GoldenError {}

/// How the scenario's circuit is constructed.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitSpec {
    /// SPICE netlist text (stored as an array of lines in the JSON).
    Netlist(String),
    /// A named builder from `loopscope-circuits` plus numeric parameters.
    Builtin {
        /// Builder id, e.g. `"opamp_cascade"`.
        id: String,
        /// Builder parameters by name, e.g. `stages`, `r_ohms`.
        params: Vec<(String, f64)>,
    },
}

/// The measured quantity of a DC check.
#[derive(Debug, Clone, PartialEq)]
pub enum DcQuantity {
    /// A node voltage, by node name.
    NodeVoltage(String),
    /// A branch current, by element name (voltage sources, inductors, VCVS).
    BranchCurrent(String),
}

/// One pinned DC operating-point value.
#[derive(Debug, Clone, PartialEq)]
pub struct DcCheck {
    /// What is measured.
    pub quantity: DcQuantity,
    /// The reference value.
    pub want: f64,
    /// Acceptance band.
    pub tol: Tolerance,
}

/// The measured quantity of an AC (or driving-point) check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcQuantity {
    /// Magnitude of the complex response.
    Magnitude,
    /// Phase of the complex response in degrees, wrapped to ±180°.
    PhaseDeg,
}

impl AcQuantity {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "magnitude" => Some(AcQuantity::Magnitude),
            "phase_deg" => Some(AcQuantity::PhaseDeg),
            _ => None,
        }
    }
}

/// One pinned AC value at an exact frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct AcCheck {
    /// The observed node, by name.
    pub node: String,
    /// The pinned frequency in hertz — the runner solves exactly here.
    pub freq_hz: f64,
    /// Magnitude or phase.
    pub quantity: AcQuantity,
    /// The reference value.
    pub want: f64,
    /// Acceptance band.
    pub tol: Tolerance,
}

/// One pinned driving-point impedance value at an exact frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct DrivingPointCheck {
    /// The pinned frequency in hertz.
    pub freq_hz: f64,
    /// Magnitude or phase of the impedance.
    pub quantity: AcQuantity,
    /// The reference value.
    pub want: f64,
    /// Acceptance band.
    pub tol: Tolerance,
}

/// One pinned transient node voltage at an exact time.
#[derive(Debug, Clone, PartialEq)]
pub struct TranCheck {
    /// The observed node, by name.
    pub node: String,
    /// The pinned time in seconds (choose multiples of `dt` so the value
    /// is a solved sample, not an interpolation).
    pub time: f64,
    /// The reference value.
    pub want: f64,
    /// Acceptance band.
    pub tol: Tolerance,
}

/// Adaptive-stepping parameters of a transient golden (schema fields
/// `dt_min`, `dt_max`, `reltol`, `abstol`, active when `"adaptive": true`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TranAdaptive {
    /// Smallest step the ladder may take, seconds.
    pub dt_min: f64,
    /// Largest step the controller may grow to, seconds.
    pub dt_max: f64,
    /// Relative LTE tolerance (dimensionless).
    pub reltol: f64,
    /// Absolute LTE tolerance, volts.
    pub abstol: f64,
}

/// One tolerance rule of a Monte Carlo analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct McRule {
    /// The perturbed element, by name.
    pub element: String,
    /// `"gaussian"` or `"uniform"`.
    pub dist: String,
    /// Relative tolerance (one σ for gaussian, half-span for uniform).
    pub tolerance: f64,
}

/// The measured quantity of a Monte Carlo check — statistics of the batch's
/// per-variant peak driving-point magnitudes, all of which are pinned by the
/// seed (the variant streams are deterministic, so the references are exact
/// up to solver rounding).
#[derive(Debug, Clone, PartialEq)]
pub enum McQuantity {
    /// Number of converged variants.
    Yield,
    /// Index of the worst-case variant (largest peak magnitude).
    WorstCaseIndex,
    /// Peak magnitude of the worst-case variant.
    WorstCasePeak,
    /// The `q`-quantile of the converged variants' peak magnitudes.
    PeakQuantile(f64),
    /// Peak magnitude of one pinned variant, by batch index.
    VariantPeak(usize),
}

/// One pinned Monte Carlo statistic.
#[derive(Debug, Clone, PartialEq)]
pub struct McCheck {
    /// What is measured.
    pub quantity: McQuantity,
    /// The reference value.
    pub want: f64,
    /// Acceptance band.
    pub tol: Tolerance,
}

/// One analysis to run for a scenario, with its pinned checks.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisCase {
    /// DC operating point.
    Dc {
        /// Pinned node voltages / branch currents.
        checks: Vec<DcCheck>,
    },
    /// AC sweep using the circuit's own AC sources.
    Ac {
        /// Pinned magnitude/phase values.
        checks: Vec<AcCheck>,
    },
    /// Driving-point impedance scan (unit current injection) at one node.
    DrivingPoint {
        /// The injection node, by name.
        node: String,
        /// Pinned impedance values.
        checks: Vec<DrivingPointCheck>,
    },
    /// Transient integration — fixed grid, or adaptive when `adaptive` is
    /// set.
    Tran {
        /// Fixed time step in seconds (equal to `dt_min` for an adaptive
        /// case, where the grid spacing is controlled by the LTE ladder).
        dt: f64,
        /// Stop time in seconds.
        t_stop: f64,
        /// `"trapezoidal"` (default) or `"backward_euler"`.
        method: String,
        /// Adaptive stepping parameters; `None` selects the fixed grid.
        adaptive: Option<TranAdaptive>,
        /// Pinned waveform samples.
        checks: Vec<TranCheck>,
    },
    /// Seeded Monte Carlo driving-point sweep through the batched engine.
    MonteCarlo {
        /// The injection node, by name.
        node: String,
        /// Seed of the variation streams — pins every variant's values.
        seed: u64,
        /// Number of variants.
        count: usize,
        /// The exact sweep frequencies in hertz.
        freqs: Vec<f64>,
        /// Per-element tolerance rules, in application order.
        rules: Vec<McRule>,
        /// Pinned batch statistics.
        checks: Vec<McCheck>,
    },
}

impl AnalysisCase {
    /// Short kind tag for tables and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            AnalysisCase::Dc { .. } => "dc",
            AnalysisCase::Ac { .. } => "ac",
            AnalysisCase::DrivingPoint { .. } => "driving_point",
            AnalysisCase::Tran { .. } => "tran",
            AnalysisCase::MonteCarlo { .. } => "monte_carlo",
        }
    }

    /// Number of pinned checks in this analysis.
    pub fn check_count(&self) -> usize {
        match self {
            AnalysisCase::Dc { checks } => checks.len(),
            AnalysisCase::Ac { checks } => checks.len(),
            AnalysisCase::DrivingPoint { checks, .. } => checks.len(),
            AnalysisCase::Tran { checks, .. } => checks.len(),
            AnalysisCase::MonteCarlo { checks, .. } => checks.len(),
        }
    }
}

/// A fully parsed golden scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenCase {
    /// Scenario id (unique across the corpus; defaults from the file stem).
    pub name: String,
    /// Human-oriented one-liner.
    pub description: String,
    /// Where the reference values come from (analytic derivation or the
    /// external simulator + version). Required — an unexplained golden is
    /// unreviewable.
    pub provenance: String,
    /// When `true` the scenario must FAIL validation; it proves the harness
    /// catches regressions rather than only confirming passes.
    pub expect_failure: bool,
    /// How to construct the circuit.
    pub circuit: CircuitSpec,
    /// Optional structural assertion: the AC solver's BTF decomposition
    /// must find at least this many diagonal blocks.
    pub min_btf_blocks: Option<usize>,
    /// The analyses to run, in file order.
    pub analyses: Vec<AnalysisCase>,
    /// Source file the case was loaded from.
    pub path: PathBuf,
}

impl GoldenCase {
    /// Total number of pinned checks across all analyses.
    pub fn check_count(&self) -> usize {
        self.analyses.iter().map(AnalysisCase::check_count).sum()
    }

    /// The analysis kinds in file order, joined with `+` (e.g. `"dc+ac"`).
    pub fn kinds(&self) -> String {
        let mut kinds: Vec<&str> = Vec::new();
        for a in &self.analyses {
            if !kinds.contains(&a.kind()) {
                kinds.push(a.kind());
            }
        }
        kinds.join("+")
    }

    /// Parses one golden document.
    pub fn parse(path: &Path, text: &str) -> Result<Self, GoldenError> {
        let doc = json::parse(text).map_err(|err| GoldenError::Parse {
            path: path.to_path_buf(),
            err,
        })?;
        let schema = |msg: String| GoldenError::Schema {
            path: path.to_path_buf(),
            msg,
        };

        let version = doc
            .get("schema_version")
            .and_then(Json::as_f64)
            .ok_or_else(|| schema("missing numeric 'schema_version'".into()))?;
        if version != SCHEMA_VERSION {
            return Err(schema(format!(
                "schema_version {version} is not supported (this harness reads {SCHEMA_VERSION})"
            )));
        }

        let default_name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .map(str::to_owned)
            .unwrap_or(default_name);
        let description = req_str(&doc, "description", &schema)?;
        let provenance = req_str(&doc, "provenance", &schema)?;
        let expect_failure = doc
            .get("expect_failure")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        let min_btf_blocks = match doc.get("min_btf_blocks") {
            None => None,
            Some(v) => Some(
                v.as_f64()
                    .ok_or_else(|| schema("'min_btf_blocks' must be a number".into()))?
                    as usize,
            ),
        };
        let circuit_obj = doc
            .get("circuit")
            .ok_or_else(|| schema("missing 'circuit'".into()))?;
        let circuit = parse_circuit(circuit_obj, &schema)?;

        let analyses_arr = doc
            .get("analyses")
            .and_then(Json::as_arr)
            .ok_or_else(|| schema("missing 'analyses' array".into()))?;
        if analyses_arr.is_empty() {
            return Err(schema("'analyses' must not be empty".into()));
        }
        let mut analyses = Vec::with_capacity(analyses_arr.len());
        for (i, a) in analyses_arr.iter().enumerate() {
            analyses.push(parse_analysis(a, i, &schema)?);
        }

        Ok(GoldenCase {
            name,
            description,
            provenance,
            expect_failure,
            circuit,
            min_btf_blocks,
            analyses,
            path: path.to_path_buf(),
        })
    }

    /// Loads one golden file.
    pub fn load(path: &Path) -> Result<Self, GoldenError> {
        let text = std::fs::read_to_string(path).map_err(|e| GoldenError::Io {
            path: path.to_path_buf(),
            msg: e.to_string(),
        })?;
        Self::parse(path, &text)
    }
}

/// Loads every `*.json` golden in `dir`, sorted by file name so corpus
/// order (and therefore report and bless order) is deterministic.
pub fn load_dir(dir: &Path) -> Result<Vec<GoldenCase>, GoldenError> {
    let entries = std::fs::read_dir(dir).map_err(|e| GoldenError::Io {
        path: dir.to_path_buf(),
        msg: e.to_string(),
    })?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    let mut cases = Vec::with_capacity(paths.len());
    for p in &paths {
        cases.push(GoldenCase::load(p)?);
    }
    Ok(cases)
}

/// The repo-relative default corpus directory, `tests/golden_data/`.
///
/// Resolved from this crate's manifest at compile time (the same idiom the
/// bench JSON writer uses for `target/`), overridable at run time with the
/// `LOOPSCOPE_GOLDEN_DIR` environment variable.
pub fn default_data_dir() -> PathBuf {
    std::env::var("LOOPSCOPE_GOLDEN_DIR")
        .unwrap_or_else(|_| {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden_data").to_string()
        })
        .into()
}

fn req_str(
    doc: &Json,
    key: &str,
    schema: &impl Fn(String) -> GoldenError,
) -> Result<String, GoldenError> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| schema(format!("missing string '{key}'")))
}

fn parse_circuit(
    v: &Json,
    schema: &impl Fn(String) -> GoldenError,
) -> Result<CircuitSpec, GoldenError> {
    if let Some(lines) = v.get("netlist") {
        let lines = lines
            .as_arr()
            .ok_or_else(|| schema("circuit.netlist must be an array of lines".into()))?;
        let mut text = String::new();
        for (i, line) in lines.iter().enumerate() {
            let s = line
                .as_str()
                .ok_or_else(|| schema(format!("circuit.netlist[{i}] must be a string")))?;
            text.push_str(s);
            text.push('\n');
        }
        return Ok(CircuitSpec::Netlist(text));
    }
    if let Some(id) = v.get("builtin") {
        let id = id
            .as_str()
            .ok_or_else(|| schema("circuit.builtin must be a string".into()))?
            .to_owned();
        let mut params = Vec::new();
        if let Some(p) = v.get("params") {
            let entries = p
                .as_obj()
                .ok_or_else(|| schema("circuit.params must be an object".into()))?;
            for (k, val) in entries {
                let num = val
                    .as_f64()
                    .ok_or_else(|| schema(format!("circuit.params.{k} must be a number")))?;
                params.push((k.clone(), num));
            }
        }
        return Ok(CircuitSpec::Builtin { id, params });
    }
    Err(schema(
        "circuit needs either 'netlist' (array of lines) or 'builtin' (+ optional 'params')".into(),
    ))
}

fn parse_tol(
    v: &Json,
    ctx: &str,
    schema: &impl Fn(String) -> GoldenError,
) -> Result<Tolerance, GoldenError> {
    let atol = v.get("atol").and_then(Json::as_f64);
    let rtol = v.get("rtol").and_then(Json::as_f64);
    if atol.is_none() && rtol.is_none() {
        return Err(schema(format!(
            "{ctx}: every check must state 'atol' and/or 'rtol'"
        )));
    }
    let (atol, rtol) = (atol.unwrap_or(0.0), rtol.unwrap_or(0.0));
    if !(atol.is_finite() && rtol.is_finite() && atol >= 0.0 && rtol >= 0.0) {
        return Err(schema(format!(
            "{ctx}: tolerances must be finite and non-negative"
        )));
    }
    if atol == 0.0 && rtol == 0.0 {
        return Err(schema(format!(
            "{ctx}: at least one of atol/rtol must be positive"
        )));
    }
    Ok(Tolerance::new(atol, rtol))
}

fn req_num(
    v: &Json,
    key: &str,
    ctx: &str,
    schema: &impl Fn(String) -> GoldenError,
) -> Result<f64, GoldenError> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| schema(format!("{ctx}: missing numeric '{key}'")))
}

fn req_check_str(
    v: &Json,
    key: &str,
    ctx: &str,
    schema: &impl Fn(String) -> GoldenError,
) -> Result<String, GoldenError> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| schema(format!("{ctx}: missing string '{key}'")))
}

fn checks_arr<'a>(
    v: &'a Json,
    ctx: &str,
    schema: &impl Fn(String) -> GoldenError,
) -> Result<&'a [Json], GoldenError> {
    let arr = v
        .get("checks")
        .and_then(Json::as_arr)
        .ok_or_else(|| schema(format!("{ctx}: missing 'checks' array")))?;
    if arr.is_empty() {
        return Err(schema(format!("{ctx}: 'checks' must not be empty")));
    }
    Ok(arr)
}

fn parse_ac_quantity(
    v: &Json,
    ctx: &str,
    schema: &impl Fn(String) -> GoldenError,
) -> Result<AcQuantity, GoldenError> {
    let q = req_check_str(v, "quantity", ctx, schema)?;
    AcQuantity::parse(&q).ok_or_else(|| {
        schema(format!(
            "{ctx}: unknown quantity '{q}' (expected 'magnitude' or 'phase_deg')"
        ))
    })
}

fn parse_analysis(
    v: &Json,
    index: usize,
    schema: &impl Fn(String) -> GoldenError,
) -> Result<AnalysisCase, GoldenError> {
    let ctx = format!("analyses[{index}]");
    let kind = req_check_str(v, "kind", &ctx, schema)?;
    match kind.as_str() {
        "dc" => {
            let mut checks = Vec::new();
            for (i, c) in checks_arr(v, &ctx, schema)?.iter().enumerate() {
                let cctx = format!("{ctx}.checks[{i}]");
                let quantity = if let Some(node) = c.get("node").and_then(Json::as_str) {
                    DcQuantity::NodeVoltage(node.to_owned())
                } else if let Some(el) = c.get("branch").and_then(Json::as_str) {
                    DcQuantity::BranchCurrent(el.to_owned())
                } else {
                    return Err(schema(format!("{cctx}: needs 'node' or 'branch'")));
                };
                checks.push(DcCheck {
                    quantity,
                    want: req_num(c, "want", &cctx, schema)?,
                    tol: parse_tol(c, &cctx, schema)?,
                });
            }
            Ok(AnalysisCase::Dc { checks })
        }
        "ac" => {
            let mut checks = Vec::new();
            for (i, c) in checks_arr(v, &ctx, schema)?.iter().enumerate() {
                let cctx = format!("{ctx}.checks[{i}]");
                checks.push(AcCheck {
                    node: req_check_str(c, "node", &cctx, schema)?,
                    freq_hz: req_num(c, "freq_hz", &cctx, schema)?,
                    quantity: parse_ac_quantity(c, &cctx, schema)?,
                    want: req_num(c, "want", &cctx, schema)?,
                    tol: parse_tol(c, &cctx, schema)?,
                });
            }
            Ok(AnalysisCase::Ac { checks })
        }
        "driving_point" => {
            let node = req_check_str(v, "node", &ctx, schema)?;
            let mut checks = Vec::new();
            for (i, c) in checks_arr(v, &ctx, schema)?.iter().enumerate() {
                let cctx = format!("{ctx}.checks[{i}]");
                checks.push(DrivingPointCheck {
                    freq_hz: req_num(c, "freq_hz", &cctx, schema)?,
                    quantity: parse_ac_quantity(c, &cctx, schema)?,
                    want: req_num(c, "want", &cctx, schema)?,
                    tol: parse_tol(c, &cctx, schema)?,
                });
            }
            Ok(AnalysisCase::DrivingPoint { node, checks })
        }
        "tran" => {
            let t_stop = req_num(v, "t_stop", &ctx, schema)?;
            let method = v
                .get("method")
                .and_then(Json::as_str)
                .unwrap_or("trapezoidal")
                .to_owned();
            if method != "trapezoidal" && method != "backward_euler" {
                return Err(schema(format!(
                    "{ctx}: unknown method '{method}' (expected 'trapezoidal' or 'backward_euler')"
                )));
            }
            // `"adaptive": true` selects the LTE-controlled stepper and
            // requires `dt_min`/`dt_max` (with optional `reltol`/`abstol`
            // tolerances); a fixed-grid case requires `dt` as before.
            let is_adaptive = v.get("adaptive").and_then(Json::as_bool).unwrap_or(false);
            let (dt, adaptive) = if is_adaptive {
                let dt_min = req_num(v, "dt_min", &ctx, schema)?;
                let dt_max = req_num(v, "dt_max", &ctx, schema)?;
                if dt_max < dt_min {
                    return Err(schema(format!("{ctx}: dt_max must be at least dt_min")));
                }
                let reltol = match v.get("reltol") {
                    Some(r) => r
                        .as_f64()
                        .ok_or_else(|| schema(format!("{ctx}: 'reltol' must be a number")))?,
                    None => 1.0e-3,
                };
                let abstol = match v.get("abstol") {
                    Some(a) => a
                        .as_f64()
                        .ok_or_else(|| schema(format!("{ctx}: 'abstol' must be a number")))?,
                    None => 1.0e-6,
                };
                (
                    dt_min,
                    Some(TranAdaptive {
                        dt_min,
                        dt_max,
                        reltol,
                        abstol,
                    }),
                )
            } else {
                (req_num(v, "dt", &ctx, schema)?, None)
            };
            let mut checks = Vec::new();
            for (i, c) in checks_arr(v, &ctx, schema)?.iter().enumerate() {
                let cctx = format!("{ctx}.checks[{i}]");
                checks.push(TranCheck {
                    node: req_check_str(c, "node", &cctx, schema)?,
                    time: req_num(c, "time", &cctx, schema)?,
                    want: req_num(c, "want", &cctx, schema)?,
                    tol: parse_tol(c, &cctx, schema)?,
                });
            }
            Ok(AnalysisCase::Tran {
                dt,
                t_stop,
                method,
                adaptive,
                checks,
            })
        }
        "monte_carlo" => {
            let node = req_check_str(v, "node", &ctx, schema)?;
            let seed = req_num(v, "seed", &ctx, schema)?;
            if seed < 0.0 || seed.fract() != 0.0 {
                return Err(schema(format!(
                    "{ctx}: 'seed' must be a non-negative integer"
                )));
            }
            let count = req_num(v, "count", &ctx, schema)?;
            if count < 1.0 || count.fract() != 0.0 {
                return Err(schema(format!("{ctx}: 'count' must be a positive integer")));
            }
            let freqs_arr = v
                .get("freqs")
                .and_then(Json::as_arr)
                .ok_or_else(|| schema(format!("{ctx}: missing 'freqs' array")))?;
            let mut freqs = Vec::with_capacity(freqs_arr.len());
            for (i, f) in freqs_arr.iter().enumerate() {
                freqs.push(
                    f.as_f64()
                        .ok_or_else(|| schema(format!("{ctx}.freqs[{i}] must be a number")))?,
                );
            }
            if freqs.is_empty() {
                return Err(schema(format!("{ctx}: 'freqs' must not be empty")));
            }
            let rules_arr = v
                .get("rules")
                .and_then(Json::as_arr)
                .ok_or_else(|| schema(format!("{ctx}: missing 'rules' array")))?;
            let mut rules = Vec::with_capacity(rules_arr.len());
            for (i, r) in rules_arr.iter().enumerate() {
                let rctx = format!("{ctx}.rules[{i}]");
                let dist = req_check_str(r, "dist", &rctx, schema)?;
                if dist != "gaussian" && dist != "uniform" {
                    return Err(schema(format!(
                        "{rctx}: unknown dist '{dist}' (expected 'gaussian' or 'uniform')"
                    )));
                }
                rules.push(McRule {
                    element: req_check_str(r, "element", &rctx, schema)?,
                    dist,
                    tolerance: req_num(r, "tolerance", &rctx, schema)?,
                });
            }
            let mut checks = Vec::new();
            for (i, c) in checks_arr(v, &ctx, schema)?.iter().enumerate() {
                let cctx = format!("{ctx}.checks[{i}]");
                let q = req_check_str(c, "quantity", &cctx, schema)?;
                let quantity = match q.as_str() {
                    "yield" => McQuantity::Yield,
                    "worst_case_index" => McQuantity::WorstCaseIndex,
                    "worst_case_peak" => McQuantity::WorstCasePeak,
                    "peak_quantile" => McQuantity::PeakQuantile(req_num(c, "q", &cctx, schema)?),
                    "variant_peak" => {
                        McQuantity::VariantPeak(req_num(c, "index", &cctx, schema)? as usize)
                    }
                    other => {
                        return Err(schema(format!(
                            "{cctx}: unknown quantity '{other}' (expected yield, \
                             worst_case_index, worst_case_peak, peak_quantile or variant_peak)"
                        )))
                    }
                };
                checks.push(McCheck {
                    quantity,
                    want: req_num(c, "want", &cctx, schema)?,
                    tol: parse_tol(c, &cctx, schema)?,
                });
            }
            Ok(AnalysisCase::MonteCarlo {
                node,
                seed: seed as u64,
                count: count as usize,
                freqs,
                rules,
                checks,
            })
        }
        other => Err(schema(format!(
            "{ctx}: unknown analysis kind '{other}' (expected dc, ac, driving_point, tran \
             or monte_carlo)"
        ))),
    }
}

/// One `want` value rewritten by a bless pass.
#[derive(Debug, Clone, PartialEq)]
pub struct BlessedChange {
    /// JSON-path-style location of the check, e.g. `analyses[1].checks[0]`.
    pub location: String,
    /// The value that was checked in before.
    pub old: f64,
    /// The freshly measured value now recorded.
    pub new: f64,
}

/// Rewrites a golden file's `want` fields from freshly measured values.
///
/// `got` must hold one entry per check in **runner order** (analyses in
/// file order, checks in file order within each analysis) — exactly what
/// the runner's check records provide. Only changed values are reported;
/// the file is rewritten in place with key order preserved.
pub fn bless_file(path: &Path, got: &[f64]) -> Result<Vec<BlessedChange>, GoldenError> {
    let text = std::fs::read_to_string(path).map_err(|e| GoldenError::Io {
        path: path.to_path_buf(),
        msg: e.to_string(),
    })?;
    let mut doc = json::parse(&text).map_err(|err| GoldenError::Parse {
        path: path.to_path_buf(),
        err,
    })?;
    let schema = |msg: String| GoldenError::Schema {
        path: path.to_path_buf(),
        msg,
    };

    let mut changes = Vec::new();
    let mut next = 0usize;
    {
        let analyses = doc
            .get_mut("analyses")
            .and_then(|v| match v {
                Json::Arr(items) => Some(items),
                _ => None,
            })
            .ok_or_else(|| schema("missing 'analyses' array".into()))?;
        for (ai, analysis) in analyses.iter_mut().enumerate() {
            let checks = analysis
                .get_mut("checks")
                .and_then(|v| match v {
                    Json::Arr(items) => Some(items),
                    _ => None,
                })
                .ok_or_else(|| schema(format!("analyses[{ai}]: missing 'checks'")))?;
            for (ci, check) in checks.iter_mut().enumerate() {
                let fresh = *got.get(next).ok_or_else(|| {
                    schema(format!(
                        "bless has {} measured values but the file holds more checks",
                        got.len()
                    ))
                })?;
                next += 1;
                let want = check.get_mut("want").ok_or_else(|| {
                    schema(format!("analyses[{ai}].checks[{ci}]: missing 'want'"))
                })?;
                let old = want.as_f64().ok_or_else(|| {
                    schema(format!(
                        "analyses[{ai}].checks[{ci}]: 'want' must be a number"
                    ))
                })?;
                if old != fresh {
                    changes.push(BlessedChange {
                        location: format!("analyses[{ai}].checks[{ci}]"),
                        old,
                        new: fresh,
                    });
                    *want = Json::Num(fresh);
                }
            }
        }
    }
    if next != got.len() {
        return Err(schema(format!(
            "bless has {} measured values but the file holds {next} checks",
            got.len()
        )));
    }
    std::fs::write(path, doc.pretty()).map_err(|e| GoldenError::Io {
        path: path.to_path_buf(),
        msg: e.to_string(),
    })?;
    Ok(changes)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{
      "schema_version": 1,
      "name": "unit",
      "description": "d",
      "provenance": "p",
      "circuit": {"netlist": ["t", "V1 in 0 DC 1", "R1 in 0 1k", ".end"]},
      "analyses": [
        {"kind": "dc", "checks": [{"node": "in", "want": 1.0, "atol": 1e-9}]}
      ]
    }"#;

    #[test]
    fn parses_minimal_case() {
        let case = GoldenCase::parse(Path::new("unit.json"), MINIMAL).unwrap();
        assert_eq!(case.name, "unit");
        assert!(!case.expect_failure);
        assert_eq!(case.check_count(), 1);
        assert_eq!(case.kinds(), "dc");
        match &case.analyses[0] {
            AnalysisCase::Dc { checks } => {
                assert_eq!(checks[0].quantity, DcQuantity::NodeVoltage("in".into()));
                assert_eq!(checks[0].want, 1.0);
            }
            other => panic!("wrong analysis: {other:?}"),
        }
    }

    #[test]
    fn rejects_wrong_schema_version() {
        let text = MINIMAL.replace("\"schema_version\": 1", "\"schema_version\": 99");
        let err = GoldenCase::parse(Path::new("x.json"), &text).unwrap_err();
        assert!(err.to_string().contains("not supported"), "{err}");
    }

    #[test]
    fn rejects_check_without_tolerance() {
        let text = MINIMAL.replace(", \"atol\": 1e-9", "");
        let err = GoldenCase::parse(Path::new("x.json"), &text).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("analyses[0].checks[0]"), "{msg}");
        assert!(msg.contains("atol"), "{msg}");
    }

    #[test]
    fn parses_monte_carlo_case() {
        let text = r#"{
          "schema_version": 1, "name": "mc", "description": "d", "provenance": "p",
          "circuit": {"netlist": ["t", "R1 tank 0 1k", "C1 tank 0 1n", ".end"]},
          "analyses": [
            {"kind": "monte_carlo", "node": "tank", "seed": 42, "count": 4,
             "freqs": [1.0e3, 1.0e4],
             "rules": [{"element": "R1", "dist": "gaussian", "tolerance": 0.05}],
             "checks": [
               {"quantity": "yield", "want": 4.0, "atol": 0.5},
               {"quantity": "peak_quantile", "q": 0.5, "want": 1.0e3, "rtol": 0.5},
               {"quantity": "variant_peak", "index": 2, "want": 1.0e3, "rtol": 0.5}
             ]}
          ]
        }"#;
        let case = GoldenCase::parse(Path::new("mc.json"), text).unwrap();
        assert_eq!(case.kinds(), "monte_carlo");
        assert_eq!(case.check_count(), 3);
        match &case.analyses[0] {
            AnalysisCase::MonteCarlo {
                node,
                seed,
                count,
                freqs,
                rules,
                checks,
            } => {
                assert_eq!(node, "tank");
                assert_eq!(*seed, 42);
                assert_eq!(*count, 4);
                assert_eq!(freqs.len(), 2);
                assert_eq!(rules[0].element, "R1");
                assert_eq!(checks[1].quantity, McQuantity::PeakQuantile(0.5));
                assert_eq!(checks[2].quantity, McQuantity::VariantPeak(2));
            }
            other => panic!("wrong analysis: {other:?}"),
        }
    }

    #[test]
    fn monte_carlo_rejects_unknown_dist_and_quantity() {
        let base = r#"{
          "schema_version": 1, "description": "d", "provenance": "p",
          "circuit": {"netlist": ["t", "R1 tank 0 1k", "C1 tank 0 1n", ".end"]},
          "analyses": [
            {"kind": "monte_carlo", "node": "tank", "seed": 1, "count": 2,
             "freqs": [1.0e3],
             "rules": [{"element": "R1", "dist": "gaussian", "tolerance": 0.05}],
             "checks": [{"quantity": "yield", "want": 2.0, "atol": 0.5}]}
          ]
        }"#;
        let bad_dist = base.replace("\"dist\": \"gaussian\"", "\"dist\": \"cauchy\"");
        let err = GoldenCase::parse(Path::new("x.json"), &bad_dist).unwrap_err();
        assert!(err.to_string().contains("unknown dist"), "{err}");
        let bad_q = base.replace("\"quantity\": \"yield\"", "\"quantity\": \"sigma\"");
        let err = GoldenCase::parse(Path::new("x.json"), &bad_q).unwrap_err();
        assert!(err.to_string().contains("unknown quantity"), "{err}");
    }

    #[test]
    fn rejects_unknown_analysis_kind() {
        let text = MINIMAL.replace("\"kind\": \"dc\"", "\"kind\": \"noise\"");
        let err = GoldenCase::parse(Path::new("x.json"), &text).unwrap_err();
        assert!(err.to_string().contains("unknown analysis kind"), "{err}");
    }

    #[test]
    fn bless_rewrites_wants_in_order() {
        let dir = std::env::temp_dir().join("loopscope_validate_bless_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.json");
        std::fs::write(&path, MINIMAL).unwrap();
        let changes = bless_file(&path, &[0.75]).unwrap();
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].old, 1.0);
        assert_eq!(changes[0].new, 0.75);
        let reread = GoldenCase::load(&path).unwrap();
        match &reread.analyses[0] {
            AnalysisCase::Dc { checks } => assert_eq!(checks[0].want, 0.75),
            other => panic!("wrong analysis: {other:?}"),
        }
        // A second bless with the same values is a no-op.
        assert!(bless_file(&path, &[0.75]).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bless_rejects_count_mismatch() {
        let dir = std::env::temp_dir().join("loopscope_validate_bless_count");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.json");
        std::fs::write(&path, MINIMAL).unwrap();
        assert!(bless_file(&path, &[1.0, 2.0]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
