//! Batched many-variant frequency sweeps: Monte Carlo and corner analysis
//! over **one circuit topology**.
//!
//! The paper's workload — loop-stability sign-off across process and
//! temperature variation — is a *many-variant* problem: thousands of
//! parameter sets over a single topology. Every variant shares the MNA
//! sparsity pattern, so one [`SweepPlan`] (one symbolic analysis: ordering,
//! BTF partition, fill pattern, pivot sequence) serves the entire batch, and
//! the per-variant work collapses to reload → numeric refactor → solve.
//!
//! This module batches that per-variant work across **variant lanes**:
//!
//! * Every lane's values live lane-major over the plan's shared zero
//!   pattern, in a [`loopscope_sparse::LanePlanes`] store: per stored
//!   entry the real parts of every lane, then their imaginary parts. Each
//!   frequency point loads lane `k`'s system from its compiled admittance
//!   image ([`AffineImage`](crate::AffineImage), one image per lane per
//!   variant group, self-checked like the serial analysis's own) — or,
//!   without an image, stamps it — into a scratch CSR, and copies it into
//!   the next batched column; a lane whose stamps leave the pattern takes
//!   no column and escalates. [`loopscope_sparse::BatchedLu`] then matches the shared
//!   structure once per point, scans and scatters every lane in one pass,
//!   and keeps its factors in the same split `re`/`im` planes, so one
//!   traversal of the shared index structure drives `W` lanes of
//!   `Complex64` arithmetic.
//! * Per lane, every operation runs in exactly the order of the scalar
//!   refactor/solve — no FMA, no reassociation, no cross-lane math — so a
//!   healthy lane's solution is **bitwise identical** to the serial
//!   per-variant path at any lane width; `LOOPSCOPE_BATCH=1` *is* the serial
//!   reference, not an approximation of it.
//! * Lanes fail independently. A variant whose values degrade a pivot, drift
//!   off the shared pattern, or fail validation is carried as a structured
//!   per-variant error in its [`VariantOutcome`] — the batch never aborts.
//!   Accepted fast-path solutions satisfy the exact residual rule of the
//!   verified serial path ([`loopscope_sparse::normwise_backward_error`] ≤
//!   [`loopscope_sparse::REFINE_BACKWARD_TOLERANCE`], with `‖A‖∞` read
//!   from the lane's refactorization), computed for every lane in one
//!   lane-major residual pass ([`BatchedLu::backward_errors`]);
//!   anything else escalates to a scalar [`SolveContext`] running the
//!   verified retry ladder — the one solve path of every serial sweep — so
//!   escalated values are bitwise identical to the serial sweep.
//! * The driver parallelizes over **two axes** — variant groups × frequency
//!   points — through [`par::sweep_chunks`], and is chunking-invariant: the
//!   results and the merged [`SolveStats`] totals are identical at any
//!   `LOOPSCOPE_THREADS` and `LOOPSCOPE_BATCH` setting.
//!
//! Yield semantics: [`BatchedSweep::yield_count`] is the number of variants
//! whose entire sweep converged. A healthy batch performs **exactly one**
//! symbolic analysis total ([`BatchedSweep::solve_stats`]`.symbolic == 1`),
//! which is the entire point.

use crate::ac::{AcAnalysis, CompiledSystem};
use crate::assembly::{AssembleMna, SlotSink, SolveContext, SolveStats, SweepPlan};
use crate::dc::OperatingPoint;
use crate::error::SpiceError;
use crate::mna::Stamper;
use crate::par;
use loopscope_math::{Complex64, FrequencyGrid};
use loopscope_netlist::{Circuit, Element, NodeId};
use loopscope_sparse::{
    BatchLaneStatus, BatchedLu, CsrMatrix, LanePlanes, REFINE_BACKWARD_TOLERANCE,
};

/// Environment knob selecting the variant-lane width of batched sweeps.
///
/// Re-read on every batched call (like `LOOPSCOPE_THREADS`), so tests and
/// benches can switch it. `1` runs the serial per-variant reference — which
/// is bitwise identical to every other width, not merely close.
pub const BATCH_ENV: &str = "LOOPSCOPE_BATCH";

/// Default variant-lane width when [`BATCH_ENV`] is unset: the widest
/// width with a specialized lane loop (wider ones take the slower run-time
/// width path), so the shared index traversal and the per-point
/// bookkeeping are amortized over the most lanes. The 64-corner
/// `corners_mc` benchmark ran about 12% faster at 8 lanes than at 4 on a
/// 2-vCPU x86-64 guest.
pub const DEFAULT_BATCH_WIDTH: usize = 8;

/// Parses a batch-width override; `None`/garbage/`0` fall back to the
/// default (same policy as `par::configured_workers`).
fn parse_batch_width(raw: Option<&str>) -> usize {
    raw.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(DEFAULT_BATCH_WIDTH)
}

/// The variant-lane width batched sweeps run at: [`BATCH_ENV`] when set to a
/// positive integer, [`DEFAULT_BATCH_WIDTH`] otherwise.
pub fn configured_batch_width() -> usize {
    parse_batch_width(std::env::var(BATCH_ENV).ok().as_deref())
}

/// The lane width a batch of `jobs` variants runs at: the configured width,
/// but never more lanes than variants (and at least one). Results do not
/// depend on the width, so the clamp only spares the lane buffers a group
/// could never fill.
fn effective_width(configured: usize, jobs: usize) -> usize {
    configured.min(jobs).max(1)
}

// ---------------------------------------------------------------------------
// Parameter variation
// ---------------------------------------------------------------------------

/// Distribution of one element's relative tolerance.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Distribution {
    /// Scale factor `1 + rel_sigma · z`, `z ~ N(0, 1)` (Box–Muller).
    Gaussian {
        /// Relative standard deviation (0.05 = 5 %).
        rel_sigma: f64,
    },
    /// Scale factor uniform in `[1 − rel_span, 1 + rel_span]`.
    Uniform {
        /// Relative half-span (0.2 = ±20 %).
        rel_span: f64,
    },
}

/// One per-element tolerance rule of a [`ParameterVariation`].
#[derive(Debug, Clone, PartialEq)]
struct VariationRule {
    element: String,
    dist: Distribution,
}

/// Deterministic per-element parameter variation generator for Monte Carlo
/// sweeps.
///
/// Seeded with SplitMix64 exactly like the fault injector: variant `i`
/// derives its own independent stream from `(seed, i)` alone, so the factors
/// for a variant do not depend on how the batch is chunked across threads or
/// lanes, nor on how many variants were generated before it. The same
/// `(seed, rules, index)` triple always produces the same circuit —
/// replayable in a golden test years later.
///
/// Rules apply **relative** scale factors to element values (resistance,
/// capacitance, inductance, controlled-source gains) in the order the rules
/// were added. Factors are deliberately *not* clamped: a tolerance wide
/// enough to drive a value negative produces a variant that fails
/// validation, which is reported as that variant's structured outcome — the
/// yield story, not a generator error.
///
/// ```
/// use loopscope_spice::batch::ParameterVariation;
///
/// let var = ParameterVariation::new(42)
///     .gaussian("R1", 0.05) // 5 % sigma on R1's resistance
///     .uniform("C1", 0.20); // ±20 % on C1's capacitance
/// let f0 = var.factors(0);
/// assert_eq!(f0.len(), 2);
/// assert_eq!(var.factors(0), f0); // same variant ⇒ same factors, always
/// assert_ne!(var.factors(1), f0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ParameterVariation {
    seed: u64,
    rules: Vec<VariationRule>,
}

impl ParameterVariation {
    /// Creates an empty variation plan over the given seed. With no rules
    /// every variant is an exact copy of the base circuit.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds a Gaussian tolerance on `element`'s value: scale factor
    /// `1 + rel_sigma·z` with `z` standard normal.
    #[must_use]
    pub fn gaussian(mut self, element: &str, rel_sigma: f64) -> Self {
        self.rules.push(VariationRule {
            element: element.to_string(),
            dist: Distribution::Gaussian { rel_sigma },
        });
        self
    }

    /// Adds a uniform tolerance on `element`'s value: scale factor drawn
    /// uniformly from `[1 − rel_span, 1 + rel_span]`.
    #[must_use]
    pub fn uniform(mut self, element: &str, rel_span: f64) -> Self {
        self.rules.push(VariationRule {
            element: element.to_string(),
            dist: Distribution::Uniform { rel_span },
        });
        self
    }

    /// Number of tolerance rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// The scale factors variant `index` applies, one per rule in insertion
    /// order. Pure function of `(seed, rules, index)`.
    pub fn factors(&self, index: usize) -> Vec<f64> {
        let mut rng = SplitMix64::for_variant(self.seed, index);
        self.rules
            .iter()
            .map(|rule| match rule.dist {
                Distribution::Gaussian { rel_sigma } => 1.0 + rel_sigma * rng.next_gaussian(),
                Distribution::Uniform { rel_span } => {
                    1.0 + rel_span * (2.0 * rng.next_unit() - 1.0)
                }
            })
            .collect()
    }

    /// Applies variant `index`'s scale factors to `circuit` in place.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownReference`] when a rule names an element
    /// the circuit does not contain and [`SpiceError::InvalidOptions`] when
    /// it names an element kind without a scalable value (independent
    /// sources, nonlinear devices). Both are rule errors that would hit
    /// every variant identically, so callers abort the batch on them.
    pub fn apply(&self, index: usize, circuit: &mut Circuit) -> Result<(), SpiceError> {
        let factors = self.factors(index);
        for (rule, &factor) in self.rules.iter().zip(&factors) {
            let el = circuit.element_mut(&rule.element).ok_or_else(|| {
                SpiceError::UnknownReference(format!(
                    "variation rule names unknown element '{}'",
                    rule.element
                ))
            })?;
            scale_element(el, factor)?;
        }
        Ok(())
    }

    /// Variant `index` as element value **overrides** against `circuit`:
    /// `(element position, scaled element)` pairs sorted by position, holding
    /// exactly the values [`apply`](ParameterVariation::apply) would leave in
    /// a materialized variant circuit (rules are applied cumulatively in
    /// insertion order, through the same scaling arithmetic). The batched
    /// Monte Carlo driver stamps these over one shared analysis instead of
    /// cloning the whole circuit per variant.
    ///
    /// # Errors
    ///
    /// The same rule errors as [`apply`](ParameterVariation::apply).
    pub(crate) fn overrides_for(
        &self,
        index: usize,
        circuit: &Circuit,
        positions: &[usize],
    ) -> Result<Vec<(usize, Element)>, SpiceError> {
        debug_assert_eq!(positions.len(), self.rules.len());
        let factors = self.factors(index);
        let mut overrides: Vec<(usize, Element)> = Vec::with_capacity(self.rules.len());
        for (&pos, &factor) in positions.iter().zip(&factors) {
            match overrides.iter_mut().find(|(p, _)| *p == pos) {
                Some((_, el)) => scale_element(el, factor)?,
                None => {
                    let mut el = circuit.elements()[pos].clone();
                    scale_element(&mut el, factor)?;
                    overrides.push((pos, el));
                }
            }
        }
        overrides.sort_by_key(|&(p, _)| p);
        Ok(overrides)
    }

    /// Resolves the rules' element names to positions in `circuit`'s element
    /// order, erroring on names the circuit does not contain.
    pub(crate) fn rule_positions(&self, circuit: &Circuit) -> Result<Vec<usize>, SpiceError> {
        self.rules
            .iter()
            .map(|rule| {
                circuit.element_position(&rule.element).ok_or_else(|| {
                    SpiceError::UnknownReference(format!(
                        "variation rule names unknown element '{}'",
                        rule.element
                    ))
                })
            })
            .collect()
    }
}

/// Scales the single value parameter of `el` by `factor`.
fn scale_element(el: &mut Element, factor: f64) -> Result<(), SpiceError> {
    match el {
        Element::Resistor(r) => r.ohms *= factor,
        Element::Capacitor(c) => c.farads *= factor,
        Element::Inductor(l) => l.henries *= factor,
        Element::Vcvs(e) => e.gain *= factor,
        Element::Vccs(g) => g.gm *= factor,
        Element::Cccs(f) => f.gain *= factor,
        Element::Ccvs(h) => h.rm *= factor,
        other => {
            return Err(SpiceError::InvalidOptions(format!(
                "element '{}' ({:?}) has no scalable value parameter",
                other.name(),
                other.kind()
            )))
        }
    }
    Ok(())
}

/// SplitMix64 — the same generator (same constants) as
/// `loopscope_sparse::faults::FaultInjector`, re-derived here so batched
/// sweeps do not depend on the `fault-inject` feature.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Stream for variant `index`: the base seed advanced by an
    /// index-proportional golden-ratio offset, so each variant's stream is
    /// addressable without generating its predecessors.
    fn for_variant(seed: u64, index: usize) -> Self {
        Self {
            state: seed.wrapping_add((index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in the half-open-above interval `(0, 1]` — never zero, so it
    /// is safe under `ln`.
    fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard normal via Box–Muller (cosine branch). Two uniform draws per
    /// sample — deterministic draw count, no rejection loop.
    fn next_gaussian(&mut self) -> f64 {
        let u1 = self.next_unit();
        let u2 = self.next_unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

// ---------------------------------------------------------------------------
// Batch input / output types
// ---------------------------------------------------------------------------

/// One variant of a batched sweep: a label plus borrowed circuit and
/// operating point. All variants of a batch must share the base topology
/// (same nodes, same MNA layout); they differ only in element values.
#[derive(Debug, Clone, Copy)]
pub struct BatchVariant<'a> {
    /// Display label carried through to the [`VariantOutcome`].
    pub label: &'a str,
    /// The variant's circuit (same topology as the rest of the batch).
    pub circuit: &'a Circuit,
    /// The variant's DC operating point.
    pub op: &'a OperatingPoint,
}

/// Per-variant result of a batched sweep: either the full complex response
/// over the grid or a structured error — never both, never neither.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantOutcome {
    /// Position of the variant in the batch input.
    pub index: usize,
    /// The variant's label.
    pub label: String,
    /// Driving-point response per grid frequency, when every point
    /// converged.
    pub response: Option<Vec<Complex64>>,
    /// The variant's failure (validation, singularity, residual check …),
    /// carried per-variant so the batch never aborts. For a mid-sweep
    /// failure this is the error at the lowest failing frequency index.
    pub error: Option<SpiceError>,
}

impl VariantOutcome {
    /// `true` when the variant's entire sweep converged.
    pub fn converged(&self) -> bool {
        self.response.is_some()
    }
}

/// Result of a batched many-variant sweep: per-variant outcomes in input
/// order plus the merged solver counters.
///
/// The extraction helpers reduce each converged variant to its **peak
/// driving-point magnitude** `max_f |Z(jf)|` — the quantity the paper's
/// stability metric keys on (a taller impedance peak ⇒ a less damped
/// response), which makes "worst case" the variant with the largest peak.
#[derive(Debug, Clone)]
pub struct BatchedSweep {
    freqs: Vec<f64>,
    outcomes: Vec<VariantOutcome>,
    stats: SolveStats,
}

impl BatchedSweep {
    /// A batch that solved nothing: the given outcomes and zero counters.
    fn unsolved(freqs: &[f64], outcomes: Vec<VariantOutcome>) -> Self {
        Self {
            freqs: freqs.to_vec(),
            outcomes,
            stats: SolveStats::default(),
        }
    }

    /// The frequency grid the batch was swept over.
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Per-variant outcomes, in batch input order.
    pub fn outcomes(&self) -> &[VariantOutcome] {
        &self.outcomes
    }

    /// Number of variants in the batch.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// `true` when the batch held no variants.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Number of variants whose entire sweep converged — the batch yield.
    pub fn yield_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.converged()).count()
    }

    /// Yield as a fraction of the batch size (`1.0` for an empty batch).
    pub fn yield_fraction(&self) -> f64 {
        if self.outcomes.is_empty() {
            1.0
        } else {
            self.yield_count() as f64 / self.outcomes.len() as f64
        }
    }

    /// Merged solver counters: the shared plan build plus every worker.
    /// Chunking-invariant; `symbolic == 1` for a healthy batch of any size.
    pub fn solve_stats(&self) -> SolveStats {
        self.stats
    }

    /// Peak response magnitude per variant (`None` for failed variants).
    pub fn peak_magnitudes(&self) -> Vec<Option<f64>> {
        self.outcomes
            .iter()
            .map(|o| {
                o.response
                    .as_ref()
                    .map(|resp| resp.iter().map(|z| z.abs()).fold(0.0f64, f64::max))
            })
            .collect()
    }

    /// The worst-case variant: `(index, peak)` of the converged variant with
    /// the **largest** peak magnitude (ties keep the lowest index). `None`
    /// when no variant converged.
    pub fn worst_case_peak(&self) -> Option<(usize, f64)> {
        let mut worst: Option<(usize, f64)> = None;
        for (i, peak) in self.peak_magnitudes().into_iter().enumerate() {
            if let Some(p) = peak {
                if worst.is_none_or(|(_, wp)| p > wp) {
                    worst = Some((i, p));
                }
            }
        }
        worst
    }

    /// Nearest-rank quantile of the converged variants' peak magnitudes:
    /// `q = 0` is the smallest peak, `q = 1` the largest (the worst case),
    /// `q = 0.5` the median. `None` when no variant converged.
    ///
    /// # Panics
    ///
    /// Panics when `q` is outside `[0, 1]`.
    pub fn peak_quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be within [0, 1]");
        let mut peaks: Vec<f64> = self.peak_magnitudes().into_iter().flatten().collect();
        if peaks.is_empty() {
            return None;
        }
        peaks.sort_by(|a, b| a.partial_cmp(b).expect("finite peaks"));
        let rank = (q * (peaks.len() - 1) as f64).round() as usize;
        Some(peaks[rank])
    }
}

// ---------------------------------------------------------------------------
// The batched driver
// ---------------------------------------------------------------------------

/// Per-lane solve result of one frequency point.
type LanePoint = Result<Complex64, SpiceError>;

/// One lane of a batched drive: the analysis to stamp plus the element value
/// overrides distinguishing this variant from the analysis's own circuit.
/// [`driving_point_batch`] materializes a circuit (and analysis) per variant
/// and leaves the overrides empty; the Monte Carlo driver shares **one**
/// analysis across every lane and carries each variant's scaled values as
/// overrides — the stamped systems are identical either way.
#[derive(Clone, Copy)]
struct Lane<'a, 'c> {
    analysis: &'a AcAnalysis<'c>,
    overrides: &'a [(usize, Element)],
}

/// Mutable per-worker state of the batched frequency sweep: the lane-major
/// values of every lane's system, the batched factorization, the lane
/// right-hand sides and solutions, the scalar escalation context and the
/// result rows of the points it solved. Runners are allocated at the
/// group's lane width, pooled per outer worker and reused across variant
/// groups — a ragged group simply drives fewer lanes (`m ≤ width`), so the
/// per-point loop is allocation-free and the factorization buffers are
/// minted once per worker rather than once per group.
struct GroupRunner<'p> {
    width: usize,
    /// The injection unknown — constant for the whole batch.
    var: usize,
    /// The plan's shared structure, over which every lane's values live.
    pattern: &'p CsrMatrix<Complex64>,
    /// Every lane's system values over [`pattern`](GroupRunner::pattern),
    /// lane-major.
    values: LanePlanes<Complex64>,
    /// Value CSR a lane's system is loaded (from its image) or stamped
    /// into before its values are copied into the lane's column.
    lane_csr: CsrMatrix<Complex64>,
    batched: BatchedLu<Complex64>,
    /// The unit injection at [`var`](GroupRunner::var) in every lane.
    injection: LanePlanes<Complex64>,
    /// Every lane's solution.
    solution: LanePlanes<Complex64>,
    /// Every lane's backward error of the current point.
    errors: Vec<f64>,
    /// Scratch RHS recycled through the stampers.
    rhs_scratch: Vec<Complex64>,
    /// Per-point statuses of the batched columns, and per lane of the
    /// group its column (`None` for a lane whose values miss the pattern,
    /// which takes no batched work).
    statuses: Vec<BatchLaneStatus>,
    columns: Vec<Option<usize>>,
    /// Scalar escalation context over the same plan: lanes that fail the
    /// batched fast path rerun through the exact serial verified ladder.
    ctx: SolveContext<'p, Complex64>,
    esc_x: Vec<Complex64>,
    /// The lane results of every point this runner solved in the current
    /// group, point-major (`m` per point, in point order); sized for every
    /// point of the sweep at mint, cleared per group.
    rows: Vec<LanePoint>,
    stats: SolveStats,
}

impl<'p> GroupRunner<'p> {
    fn new(plan: &'p SweepPlan<Complex64>, width: usize, var: usize, points: usize) -> Self {
        let n = plan.dim();
        let pattern = plan.pattern();
        let mut injection = LanePlanes::new(n, width);
        for w in 0..width {
            injection.set(var, w, Complex64::ONE);
        }
        Self {
            width,
            var,
            pattern,
            values: LanePlanes::new(pattern.nnz(), width),
            lane_csr: pattern.clone(),
            batched: BatchedLu::new(plan.symbolic(), width),
            injection,
            solution: LanePlanes::new(n, width),
            errors: vec![0.0; width],
            rhs_scratch: Vec::with_capacity(n),
            statuses: Vec::with_capacity(width),
            columns: vec![None; width],
            ctx: plan.context(),
            esc_x: vec![Complex64::ZERO; n],
            rows: Vec::with_capacity(points * width),
            stats: SolveStats::default(),
        }
    }

    /// Solves one frequency point for every lane of the group, appending the
    /// driving-point value (or per-variant error) of each lane to
    /// [`rows`](GroupRunner::rows). The group may be
    /// ragged (`group.len() < width`): surplus lanes carry unspecified
    /// values that are never read — every batched operation is elementwise
    /// per lane, so dead lanes cannot disturb live ones. `systems[k]` is
    /// lane `k`'s compiled system: an image to load, a system to stamp, or
    /// one off the pattern, which skips the batched work and escalates.
    fn solve_point(&mut self, group: &[Lane<'_, '_>], systems: &[CompiledSystem], freq_hz: f64) {
        debug_assert!(group.len() <= self.width);
        // Reload (or, without an image, restamp) every live lane's values
        // over the shared pattern, then copy them into the next batched
        // column.
        let mut live = 0;
        for (k, lane) in group.iter().enumerate() {
            let missed = match &systems[k] {
                CompiledSystem::Image(image) => {
                    image.load_into(freq_hz, self.lane_csr.values_mut());
                    false
                }
                CompiledSystem::Stamped => {
                    self.lane_csr.zero_values();
                    let rhs = std::mem::take(&mut self.rhs_scratch);
                    let sink = SlotSink::new(&mut self.lane_csr);
                    let mut st = Stamper::with_sink_reusing(self.ctx.layout(), sink, rhs);
                    lane.analysis
                        .system(freq_hz, false, lane.overrides)
                        .stamp(&mut st);
                    let (sink, rhs) = st.into_parts();
                    self.rhs_scratch = rhs;
                    sink.missed()
                }
                CompiledSystem::OffPattern => true,
            };
            self.columns[k] = (!missed).then_some(live);
            if !missed {
                self.values.load_lane(live, self.lane_csr.values());
                self.stats.cached_assemblies += 1;
                live += 1;
            }
        }
        // One batched numeric refactorization over the live columns, one
        // batched solve of the unit injections and one lane-major residual
        // pass: the exact residual rule of the serial verified solve, lane
        // by lane.
        self.statuses.clear();
        if live > 0 {
            let statuses = self
                .batched
                .refactor_lanes(self.pattern, &self.values, live);
            self.statuses.extend_from_slice(statuses);
        }
        let factored = self.statuses.iter().filter(|s| s.is_factored()).count();
        self.stats.numeric_refactor += factored;
        if factored > 0 {
            self.batched
                .solve_lanes(&self.injection, &mut self.solution)
                .expect("lane vectors are sized dim x width");
            self.batched.backward_errors(
                self.pattern,
                &self.values,
                &self.solution,
                &self.injection,
                &mut self.errors[..live],
            );
        }
        // Per lane: accept, or escalate through the scalar verified ladder.
        for (k, &lane) in group.iter().enumerate() {
            let accepted = self.columns[k].filter(|&c| {
                self.statuses[c].is_factored() && self.errors[c] <= REFINE_BACKWARD_TOLERANCE
            });
            let point = match accepted {
                Some(c) => Ok(self.solution.get(self.var, c)),
                None => self.escalate(lane, &systems[k], freq_hz),
            };
            self.rows.push(point);
        }
    }

    /// Reruns one lane's point through the scalar context — assemble (a
    /// load from the lane's image when it has one), unit injection, verified
    /// retry ladder — the exact procedure of the serial
    /// [`AcAnalysis::driving_point_response`] worker, so escalated values
    /// stay bitwise identical to the serial path at any configuration.
    fn escalate(&mut self, lane: Lane<'_, '_>, system: &CompiledSystem, freq_hz: f64) -> LanePoint {
        match system {
            CompiledSystem::Image(image) => self.ctx.load_values(image, freq_hz),
            CompiledSystem::Stamped | CompiledSystem::OffPattern => {
                let _ = self
                    .ctx
                    .assemble(&lane.analysis.system(freq_hz, false, lane.overrides));
            }
        }
        self.esc_x.fill(Complex64::ZERO);
        self.esc_x[self.var] = Complex64::ONE;
        self.ctx.solve_verified_in_place(&mut self.esc_x)?;
        Ok(self.esc_x[self.var])
    }

    /// Counters accumulated by this runner (stamps, batched refactors, and
    /// everything the escalation context did).
    fn stats(&self) -> SolveStats {
        let mut total = self.stats;
        total.merge(&self.ctx.stats());
        total
    }
}

/// Sweeps the driving-point response at `node` for a batch of circuit
/// variants sharing one topology, amortizing **one** symbolic analysis over
/// the whole batch.
///
/// Variants are grouped into lanes of [`configured_batch_width`] and run
/// through the batched refactor/solve; groups and frequency points are both
/// chunked across worker threads. Per-variant failures (validation errors,
/// singular systems, residual-check failures) are carried in that variant's
/// [`VariantOutcome`] — the batch itself only errors on inputs that are
/// wrong for *every* variant (injecting at the ground node).
///
/// Results are bitwise identical to the serial per-variant reference at any
/// `LOOPSCOPE_THREADS` × `LOOPSCOPE_BATCH` configuration, and the merged
/// [`BatchedSweep::solve_stats`] totals are identical too.
///
/// # Errors
///
/// Returns [`SpiceError::UnknownReference`] when `node` is the ground node
/// or out of range for the batch topology.
pub fn driving_point_batch(
    variants: &[BatchVariant<'_>],
    node: NodeId,
    grid: &FrequencyGrid,
) -> Result<BatchedSweep, SpiceError> {
    let freqs = grid.freqs();
    let mut outcomes: Vec<VariantOutcome> = variants
        .iter()
        .enumerate()
        .map(|(i, v)| VariantOutcome {
            index: i,
            label: v.label.to_string(),
            response: None,
            error: None,
        })
        .collect();
    if variants.is_empty() {
        return Ok(BatchedSweep::unsolved(freqs, outcomes));
    }

    // Per-variant analysis construction; failures become that variant's
    // outcome, never the batch's.
    let analyses: Vec<Result<AcAnalysis<'_>, SpiceError>> = variants
        .iter()
        .map(|v| AcAnalysis::new(v.circuit, v.op))
        .collect();
    let mut healthy: Vec<usize> = Vec::with_capacity(variants.len());
    for (i, a) in analyses.iter().enumerate() {
        match a {
            Ok(_) => healthy.push(i),
            Err(e) => outcomes[i].error = Some(e.clone()),
        }
    }

    if freqs.is_empty() {
        // Mirror the serial path: an empty grid yields empty responses.
        for &i in &healthy {
            outcomes[i].response = Some(Vec::new());
        }
        return Ok(BatchedSweep::unsolved(freqs, outcomes));
    }

    // One symbolic analysis for the whole batch, from the first variant
    // whose representative system factors.
    let mut plan = None;
    for &i in &healthy {
        let analysis = analyses[i].as_ref().expect("healthy index");
        match analysis.plan_for(freqs[0]) {
            Ok(planned) => {
                plan = Some((planned, analysis));
                break;
            }
            Err(e) => outcomes[i].error = Some(e),
        }
    }
    let Some((planned, owner)) = plan else {
        // Every variant failed before a plan could be built.
        return Ok(BatchedSweep::unsolved(freqs, outcomes));
    };
    healthy.retain(|&i| outcomes[i].error.is_none());
    let plan = &planned.plan;

    let var = owner.injection_var(node)?;

    // Structural guard: every lane must address the plan's layout — the
    // same node and branch counts, so the probed unknown is the same node
    // voltage. Variants with a different layout are reported per-variant
    // and skipped.
    let (dim, branches) = (plan.dim(), plan.layout().branch_count());
    healthy.retain(|&i| {
        let a = analyses[i].as_ref().expect("healthy index");
        let compatible = a.layout().dim() == dim && a.layout().branch_count() == branches;
        if !compatible {
            outcomes[i].error = Some(SpiceError::InvalidOptions(format!(
                "variant '{}' has a different topology than the batch base",
                variants[i].label
            )));
        }
        compatible
    });

    let jobs: Vec<(usize, Lane<'_, '_>)> = healthy
        .iter()
        .map(|&i| {
            (
                i,
                Lane {
                    analysis: analyses[i].as_ref().expect("healthy index"),
                    overrides: &[],
                },
            )
        })
        .collect();
    Ok(drive_lanes(plan, &jobs, freqs, var, outcomes))
}

/// One variant's outcome inside [`drive_lanes`]: the original variant index
/// paired with its full-sweep response or the error at its lowest failing
/// frequency.
type VariantResult = (usize, Result<Vec<Complex64>, SpiceError>);

/// The shared two-axis drive of both batch entry points: chunks `jobs`
/// (variant index + lane) into groups of [`configured_batch_width`] lanes
/// (at most `jobs.len()`, see [`effective_width`]), sweeps
/// every group over `freqs` — variant groups outside, frequency points
/// inside, so both a many-group and a single-group batch saturate the
/// machine — and transposes the per-point lane rows into per-variant sweeps
/// (a variant's error is the one at its lowest failing frequency) once per
/// group, from the rows the runners filled in place. Each
/// group first compiles one admittance image per lane over the plan's
/// pattern, self-checked at `freqs[0]`; its frequency points load from them
/// (or stamp, for a lane whose image failed the check), and a lane whose
/// stamps leave the pattern skips the batched work and escalates at every
/// point.
///
/// Writes each variant's response or error into its entry of `outcomes`
/// and returns the finished sweep, whose counters are the plan's plus the
/// runners'. Counters live in the pooled runners, accumulated across every
/// group a runner served and merged once at the end, so the totals are
/// exact sums — invariant under chunking, lane width and worker count.
fn drive_lanes(
    plan: &SweepPlan<Complex64>,
    jobs: &[(usize, Lane<'_, '_>)],
    freqs: &[f64],
    var: usize,
    mut outcomes: Vec<VariantOutcome>,
) -> BatchedSweep {
    let width = effective_width(configured_batch_width(), jobs.len());
    let groups: Vec<Vec<(usize, Lane<'_, '_>)>> = jobs
        .chunks(width)
        .map(<[(usize, Lane<'_, '_>)]>::to_vec)
        .collect();
    let (group_results, worker_pools) = par::sweep_chunks(
        &groups,
        Vec::new,
        |pool: &mut Vec<GroupRunner<'_>>,
         _gi,
         group: &Vec<(usize, Lane<'_, '_>)>|
         -> Result<Vec<VariantResult>, SpiceError> {
            let lanes: Vec<Lane<'_, '_>> = group.iter().map(|&(_, lane)| lane).collect();
            let systems: Vec<CompiledSystem> = lanes
                .iter()
                .map(|lane| {
                    lane.analysis
                        .compile_image(plan.pattern(), lane.overrides, freqs[0])
                })
                .collect();
            // Runners (factor buffers, escalation context) are pooled across
            // groups: each inner worker takes one from the pool — or mints
            // one at the batch's lane width on first use — and returns it
            // afterwards, so the per-group cost is image compile, reload and
            // refactor only.
            let shared_pool = std::sync::Mutex::new(std::mem::take(pool));
            let (done, runners) = par::sweep_chunks(
                freqs,
                || {
                    let mut runner = shared_pool
                        .lock()
                        .expect("runner pool lock")
                        .pop()
                        .unwrap_or_else(|| GroupRunner::new(plan, width, var, freqs.len()));
                    runner.rows.clear();
                    runner
                },
                |runner: &mut GroupRunner<'_>, _fi, &f| -> Result<(), SpiceError> {
                    runner.solve_point(&lanes, &systems, f);
                    Ok(())
                },
            );
            done.expect("group step is infallible");
            // Runners come back in chunk order and every chunk is a
            // contiguous run of points, so their rows concatenate to the
            // points in order.
            let m = group.len();
            let out = group
                .iter()
                .enumerate()
                .map(|(k, &(vi, _))| {
                    let mut resp = Vec::with_capacity(freqs.len());
                    let mut first_err = None;
                    for point in runners.iter().flat_map(|r| r.rows.chunks(m)) {
                        match &point[k] {
                            Ok(z) => resp.push(*z),
                            Err(e) => {
                                first_err = Some(e.clone());
                                break;
                            }
                        }
                    }
                    (vi, first_err.map_or(Ok(resp), Err))
                })
                .collect();
            *pool = shared_pool.into_inner().expect("runner pool lock");
            pool.extend(runners);
            Ok(out)
        },
    );

    let mut stats = plan.stats();
    for runner in worker_pools.iter().flatten() {
        stats.merge(&runner.stats());
    }
    let results = group_results.expect("group driver is infallible");
    for (vi, result) in results.into_iter().flatten() {
        match result {
            Ok(resp) => outcomes[vi].response = Some(resp),
            Err(e) => outcomes[vi].error = Some(e),
        }
    }
    BatchedSweep {
        freqs: freqs.to_vec(),
        outcomes,
        stats,
    }
}

/// Monte Carlo driving-point sweep: generates `count` variants of `circuit`
/// under `variation` (variant `i`'s values depend only on the seed and `i`)
/// and sweeps them through the batched engine.
///
/// All variants share the base operating point: the analysis linearizes
/// around one fixed bias, which is the small-signal-variation regime the
/// paper's corner methodology assumes (tolerances perturb the AC response,
/// not the bias network).
///
/// Because tolerance rules only rescale element *values* — never the
/// topology — every variant shares the base circuit's validation outcome,
/// node layout and device linearizations. The sweep therefore builds **one**
/// [`AcAnalysis`] and stamps each lane from the base elements with that
/// variant's scaled elements substituted in place, instead of materializing
/// `count` circuit clones. The substituted elements carry the exact values
/// [`ParameterVariation::apply`] would have written, and the stamp walks the
/// element list in the same order, so lane systems — and thus results — are
/// bitwise identical to running the materialized variants through
/// [`driving_point_batch`].
///
/// # Errors
///
/// Returns the rule errors of [`ParameterVariation::apply`] (unknown element
/// name, unscalable element kind) — those would fail every variant
/// identically — and the batch-level errors of [`driving_point_batch`].
/// Per-variant solver failures are **not** errors; they land in the yield.
pub fn driving_point_monte_carlo(
    circuit: &Circuit,
    op: &OperatingPoint,
    node: NodeId,
    grid: &FrequencyGrid,
    variation: &ParameterVariation,
    count: usize,
) -> Result<BatchedSweep, SpiceError> {
    let freqs = grid.freqs();
    // Rule errors (unknown element, unscalable kind) fail every variant the
    // same way, so they surface as batch-level errors up front.
    let positions = variation.rule_positions(circuit)?;
    let mut overrides: Vec<Vec<(usize, Element)>> = Vec::with_capacity(count);
    for i in 0..count {
        overrides.push(variation.overrides_for(i, circuit, &positions)?);
    }
    let mut outcomes: Vec<VariantOutcome> = (0..count)
        .map(|i| VariantOutcome {
            index: i,
            label: format!("mc#{i}"),
            response: None,
            error: None,
        })
        .collect();
    if count == 0 {
        return Ok(BatchedSweep::unsolved(freqs, outcomes));
    }

    // Validation is purely topological, so a base-analysis failure is every
    // variant's failure; mirror the per-variant outcome semantics of
    // `driving_point_batch`.
    let base = match AcAnalysis::new(circuit, op) {
        Ok(a) => a,
        Err(e) => {
            for o in &mut outcomes {
                o.error = Some(e.clone());
            }
            return Ok(BatchedSweep::unsolved(freqs, outcomes));
        }
    };
    if freqs.is_empty() {
        for o in &mut outcomes {
            o.response = Some(Vec::new());
        }
        return Ok(BatchedSweep::unsolved(freqs, outcomes));
    }

    // One symbolic analysis from the base values. The plan's pattern depends
    // only on the (shared) structure; should the base representative fail to
    // factor, fall back to materialized variants so a perturbation that
    // rescues the system still gets its chance, exactly as before.
    let planned = match base.plan_for(freqs[0]) {
        Ok(planned) => planned,
        Err(_) => {
            let mut variant_circuits = Vec::with_capacity(count);
            for i in 0..count {
                let mut c = circuit.clone();
                variation.apply(i, &mut c)?;
                variant_circuits.push(c);
            }
            let labels: Vec<String> = (0..count).map(|i| format!("mc#{i}")).collect();
            let variants: Vec<BatchVariant<'_>> = variant_circuits
                .iter()
                .zip(&labels)
                .map(|(c, label)| BatchVariant {
                    label,
                    circuit: c,
                    op,
                })
                .collect();
            return driving_point_batch(&variants, node, grid);
        }
    };
    let plan = &planned.plan;

    let var = base.injection_var(node)?;

    let jobs: Vec<(usize, Lane<'_, '_>)> = overrides
        .iter()
        .enumerate()
        .map(|(i, over)| {
            (
                i,
                Lane {
                    analysis: &base,
                    overrides: over,
                },
            )
        })
        .collect();
    Ok(drive_lanes(plan, &jobs, freqs, var, outcomes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::solve_dc;
    use loopscope_netlist::SourceSpec;

    /// R ∥ C one-pole: Z(jω) = R / (1 + jωRC) — small, well-conditioned.
    fn rc_tank() -> Circuit {
        let mut c = Circuit::new("rc tank");
        let out = c.node("out");
        c.add_resistor("R1", out, Circuit::GROUND, 1.0e3);
        c.add_capacitor("C1", out, Circuit::GROUND, 1.0e-9);
        c.add_isource("I1", Circuit::GROUND, out, SourceSpec::dc(0.0));
        c
    }

    #[test]
    fn batch_width_parsing_defaults_and_bounds() {
        assert_eq!(parse_batch_width(None), DEFAULT_BATCH_WIDTH);
        assert_eq!(parse_batch_width(Some("")), DEFAULT_BATCH_WIDTH);
        assert_eq!(parse_batch_width(Some("junk")), DEFAULT_BATCH_WIDTH);
        assert_eq!(parse_batch_width(Some("0")), DEFAULT_BATCH_WIDTH);
        assert_eq!(parse_batch_width(Some("1")), 1);
        assert_eq!(parse_batch_width(Some(" 8 ")), 8);
    }

    #[test]
    fn lane_width_is_clamped_to_the_batch() {
        assert_eq!(effective_width(4, 64), 4);
        assert_eq!(effective_width(64, 3), 3);
        assert_eq!(effective_width(8, 8), 8);
        assert_eq!(effective_width(1, 11), 1);
        // An empty batch still chunks at a valid width.
        assert_eq!(effective_width(4, 0), 1);
    }

    #[test]
    fn variation_streams_are_deterministic_and_index_addressable() {
        let var = ParameterVariation::new(0xCAFE)
            .gaussian("R1", 0.05)
            .uniform("C1", 0.2);
        let f2 = var.factors(2);
        // Re-querying any index reproduces it exactly, in any order.
        assert_eq!(var.factors(7), var.factors(7));
        assert_eq!(var.factors(2), f2);
        assert_ne!(var.factors(3), f2);
        // Uniform factors stay inside their span; Gaussian ones vary.
        for i in 0..200 {
            let f = var.factors(i);
            assert!(f[1] >= 0.8 && f[1] <= 1.2, "uniform out of span: {}", f[1]);
            assert!(f[0].is_finite());
        }
        // A different seed produces a different stream.
        let other = ParameterVariation::new(0xBEEF)
            .gaussian("R1", 0.05)
            .uniform("C1", 0.2);
        assert_ne!(other.factors(2), f2);
    }

    #[test]
    fn variation_apply_scales_named_elements_only() {
        let var = ParameterVariation::new(1).gaussian("R1", 0.1);
        let base = rc_tank();
        let mut scaled = base.clone();
        var.apply(0, &mut scaled).unwrap();
        let factor = var.factors(0)[0];
        let (Some(Element::Resistor(r0)), Some(Element::Resistor(r1))) =
            (base.element("R1"), scaled.element("R1"))
        else {
            panic!("resistor lookup");
        };
        assert_eq!(r1.ohms, r0.ohms * factor);
        // Unnamed elements are untouched.
        assert_eq!(base.element("C1"), scaled.element("C1"));
        // Unknown element name is a rule error.
        let bad = ParameterVariation::new(1).gaussian("R99", 0.1);
        assert!(matches!(
            bad.apply(0, &mut base.clone()),
            Err(SpiceError::UnknownReference(_))
        ));
        // Independent sources have no scalable value.
        let bad_kind = ParameterVariation::new(1).gaussian("I1", 0.1);
        assert!(matches!(
            bad_kind.apply(0, &mut base.clone()),
            Err(SpiceError::InvalidOptions(_))
        ));
    }

    #[test]
    fn identical_variants_match_the_serial_sweep_bitwise() {
        let c = rc_tank();
        let op = solve_dc(&c).unwrap();
        let node = c.find_node("out").unwrap();
        let grid = FrequencyGrid::log_decade(1.0e3, 1.0e7, 5);

        let ac = AcAnalysis::new(&c, &op).unwrap();
        let reference = ac.driving_point_response(node, &grid).unwrap();

        // Zero rules: every Monte Carlo variant is the base circuit.
        let variation = ParameterVariation::new(9);
        let sweep = driving_point_monte_carlo(&c, &op, node, &grid, &variation, 5).unwrap();
        assert_eq!(sweep.len(), 5);
        assert_eq!(sweep.yield_count(), 5);
        assert_eq!(sweep.yield_fraction(), 1.0);
        // One symbolic analysis for the whole batch.
        assert_eq!(sweep.solve_stats().symbolic, 1);
        for outcome in sweep.outcomes() {
            let resp = outcome.response.as_ref().unwrap();
            assert_eq!(resp.len(), reference.len());
            for (a, b) in resp.iter().zip(&reference) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    #[test]
    fn varied_variants_match_per_variant_serial_references_bitwise() {
        let c = rc_tank();
        let op = solve_dc(&c).unwrap();
        let node = c.find_node("out").unwrap();
        let grid = FrequencyGrid::log_decade(1.0e3, 1.0e7, 4);
        let variation = ParameterVariation::new(0xD00D)
            .gaussian("R1", 0.05)
            .uniform("C1", 0.1);

        let sweep = driving_point_monte_carlo(&c, &op, node, &grid, &variation, 6).unwrap();
        assert_eq!(sweep.yield_count(), 6);
        for (i, outcome) in sweep.outcomes().iter().enumerate() {
            // Serial reference: an independent analysis of the same variant.
            let mut vc = c.clone();
            variation.apply(i, &mut vc).unwrap();
            let ac = AcAnalysis::new(&vc, &op).unwrap();
            let reference = ac.driving_point_response(node, &grid).unwrap();
            let resp = outcome.response.as_ref().unwrap();
            for (a, b) in resp.iter().zip(&reference) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    #[test]
    fn failed_variants_never_abort_the_batch() {
        let c = rc_tank();
        let op = solve_dc(&c).unwrap();
        let node = c.find_node("out").unwrap();
        let grid = FrequencyGrid::log_decade(1.0e3, 1.0e6, 3);

        // A structurally different variant (extra node) cannot share the
        // batch layout and must fail alone.
        let mut odd = Circuit::new("odd");
        let out = odd.node("out");
        let extra = odd.node("extra");
        odd.add_resistor("R1", out, Circuit::GROUND, 1.0e3);
        odd.add_capacitor("C1", out, Circuit::GROUND, 1.0e-9);
        odd.add_resistor("R2", out, extra, 1.0e3);
        odd.add_capacitor("C2", extra, Circuit::GROUND, 1.0e-12);
        let odd_op = solve_dc(&odd).unwrap();

        let variants = [
            BatchVariant {
                label: "good-a",
                circuit: &c,
                op: &op,
            },
            BatchVariant {
                label: "odd",
                circuit: &odd,
                op: &odd_op,
            },
            BatchVariant {
                label: "good-b",
                circuit: &c,
                op: &op,
            },
        ];
        let sweep = driving_point_batch(&variants, node, &grid).unwrap();
        assert_eq!(sweep.len(), 3);
        assert_eq!(sweep.yield_count(), 2);
        assert!(sweep.outcomes()[0].converged());
        assert!(sweep.outcomes()[2].converged());
        let bad = &sweep.outcomes()[1];
        assert!(!bad.converged());
        assert!(matches!(bad.error, Some(SpiceError::InvalidOptions(_))));
        // The two healthy lanes still match each other bitwise.
        assert_eq!(sweep.outcomes()[0].response, sweep.outcomes()[2].response);
    }

    #[test]
    fn same_dimension_with_a_different_node_count_is_a_different_topology() {
        // Three nodes, probed at `c` (unknown 2) ...
        let mut base = Circuit::new("three nodes");
        let a = base.node("a");
        let b = base.node("b");
        let node = base.node("c");
        base.add_isource("I1", Circuit::GROUND, a, SourceSpec::dc(1.0e-3));
        base.add_resistor("R1", a, b, 1.0e3);
        base.add_resistor("R2", b, node, 1.0e3);
        base.add_resistor("R3", node, Circuit::GROUND, 1.0e3);
        base.add_capacitor("C1", node, Circuit::GROUND, 1.0e-9);
        let base_op = solve_dc(&base).unwrap();
        // ... and two nodes plus V1's branch: also dimension 3, but its
        // unknown 2 is V1's branch current, not a node voltage.
        let mut two = Circuit::new("two nodes and a branch");
        let a = two.node("a");
        let b = two.node("b");
        two.add_vsource("V1", a, Circuit::GROUND, SourceSpec::dc(1.0));
        two.add_resistor("R1", a, b, 1.0e3);
        two.add_capacitor("C1", b, Circuit::GROUND, 1.0e-9);
        let two_op = solve_dc(&two).unwrap();
        assert_eq!(
            crate::mna::MnaLayout::new(&base).dim(),
            crate::mna::MnaLayout::new(&two).dim()
        );

        let variants = [
            BatchVariant {
                label: "base",
                circuit: &base,
                op: &base_op,
            },
            BatchVariant {
                label: "two",
                circuit: &two,
                op: &two_op,
            },
        ];
        let grid = FrequencyGrid::log_decade(1.0e3, 1.0e6, 3);
        let sweep = driving_point_batch(&variants, node, &grid).unwrap();
        let rejected = &sweep.outcomes()[1];
        assert!(rejected.response.is_none());
        assert!(matches!(
            &rejected.error,
            Some(SpiceError::InvalidOptions(msg)) if msg.contains("different topology")
        ));
        let reference = AcAnalysis::new(&base, &base_op)
            .unwrap()
            .driving_point_response(node, &grid)
            .unwrap();
        let bits = |v: &[Complex64]| -> Vec<(u64, u64)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        let base_response = sweep.outcomes()[0].response.as_ref().unwrap();
        assert_eq!(bits(base_response), bits(&reference));
    }

    #[test]
    fn variant_with_an_extra_element_gets_its_own_response() {
        // The base's nodes and branches plus R4 across two nodes the base
        // leaves unconnected, so the variant stamps outside the base's
        // pattern; once in the base's element order and once with V1
        // declared after R1, which moves every element position.
        let build = |extra: bool, reordered: bool| {
            let mut c = Circuit::new("ladder");
            let a = c.node("a");
            let b = c.node("b");
            let d = c.node("d");
            if reordered {
                c.add_resistor("R1", a, b, 1.0e3);
                c.add_vsource("V1", a, Circuit::GROUND, SourceSpec::dc(1.0));
            } else {
                c.add_vsource("V1", a, Circuit::GROUND, SourceSpec::dc(1.0));
                c.add_resistor("R1", a, b, 1.0e3);
            }
            c.add_resistor("R2", b, d, 2.0e3);
            c.add_resistor("R3", d, Circuit::GROUND, 1.0e3);
            c.add_capacitor("C1", d, Circuit::GROUND, 1.0e-9);
            if extra {
                c.add_resistor("R4", a, d, 5.0e2);
            }
            c
        };
        let circuits = [build(false, false), build(true, false), build(true, true)];
        let ops: Vec<OperatingPoint> = circuits.iter().map(|c| solve_dc(c).unwrap()).collect();
        let variants: Vec<BatchVariant<'_>> = circuits
            .iter()
            .zip(&ops)
            .map(|(circuit, op)| BatchVariant {
                label: "variant",
                circuit,
                op,
            })
            .collect();
        let node = circuits[0].find_node("d").unwrap();
        let grid = FrequencyGrid::log_decade(1.0e3, 1.0e6, 3);
        let sweep = driving_point_batch(&variants, node, &grid).unwrap();
        let bits = |v: &[Complex64]| -> Vec<(u64, u64)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        for (k, outcome) in sweep.outcomes().iter().enumerate() {
            let reference = AcAnalysis::new(&circuits[k], &ops[k])
                .unwrap()
                .driving_point_response(node, &grid)
                .unwrap();
            let response = outcome.response.as_ref().expect("variant solved");
            assert_eq!(bits(response), bits(&reference), "variant {k}");
        }
        // The two variants off the base's pattern take no batched work:
        // every one of their points escalates straight to a rebuilt,
        // freshly factored system. Only the base lane loads and refactors
        // in the batch.
        let points = grid.freqs().len();
        let stats = sweep.solve_stats();
        assert_eq!(stats.cached_assemblies, points);
        assert_eq!(stats.numeric_refactor, points);
        assert_eq!(stats.pattern_rebuilds, 2 * points);
        assert_eq!(stats.symbolic, 1 + 2 * points);
        assert_eq!(stats.residual_retries + stats.gmin_bumps, 0);
    }

    #[test]
    fn stamped_lanes_match_image_lanes_bitwise() {
        let mut c = Circuit::new("rlc ladder");
        let a = c.node("a");
        let b = c.node("b");
        let d = c.node("d");
        c.add_vsource("V1", a, Circuit::GROUND, SourceSpec::dc(1.0));
        c.add_resistor("R1", a, b, 1.0e3);
        c.add_capacitor("C1", b, Circuit::GROUND, 1.0e-9);
        c.add_inductor("L1", b, d, 1.0e-6);
        c.add_resistor("R2", d, Circuit::GROUND, 2.0e3);
        c.add_capacitor("C2", d, Circuit::GROUND, 2.0e-12);
        let op = solve_dc(&c).unwrap();
        let ac = AcAnalysis::new(&c, &op).unwrap();
        let freqs = FrequencyGrid::log_decade(1.0e3, 1.0e9, 4).freqs().to_vec();
        let planned = ac.plan_for(freqs[0]).unwrap();
        let var = ac.injection_var(d).unwrap();
        let variation = ParameterVariation::new(0xD00D)
            .gaussian("R1", 0.05)
            .uniform("C2", 0.1)
            .gaussian("L1", 0.1);
        let positions = variation.rule_positions(&c).unwrap();
        let overrides: Vec<Vec<(usize, Element)>> = (0..2)
            .map(|i| variation.overrides_for(i, &c, &positions).unwrap())
            .collect();
        // The base circuit and two Monte Carlo variants, in a ragged group.
        let mut lanes = vec![Lane {
            analysis: &ac,
            overrides: &[],
        }];
        lanes.extend(overrides.iter().map(|o| Lane {
            analysis: &ac,
            overrides: o,
        }));
        let images: Vec<CompiledSystem> = lanes
            .iter()
            .map(|l| ac.compile_image(planned.plan.pattern(), l.overrides, freqs[0]))
            .collect();
        assert!(images.iter().all(|s| matches!(s, CompiledSystem::Image(_))));

        let solve = |systems: &[CompiledSystem]| {
            let mut runner = GroupRunner::new(&planned.plan, 4, var, freqs.len());
            for &f in &freqs {
                runner.solve_point(&lanes, systems, f);
            }
            let rows: Vec<(u64, u64)> = runner
                .rows
                .iter()
                .map(|point| {
                    let z = point.as_ref().expect("lane solved");
                    (z.re.to_bits(), z.im.to_bits())
                })
                .collect();
            (rows, runner.stats().cached_assemblies)
        };
        let stamped: Vec<CompiledSystem> = lanes.iter().map(|_| CompiledSystem::Stamped).collect();
        let stamped = solve(&stamped);
        assert_eq!(stamped.0.len(), lanes.len() * freqs.len());
        assert_eq!(stamped, solve(&images));
    }

    #[test]
    fn worst_case_and_quantile_extraction() {
        // Larger R ⇒ taller |Z| peak at DC end: variant order is known.
        let mut circuits = Vec::new();
        for (i, ohms) in [1.0e3, 4.0e3, 2.0e3].into_iter().enumerate() {
            let mut c = Circuit::new(format!("tank {i}"));
            let out = c.node("out");
            c.add_resistor("R1", out, Circuit::GROUND, ohms);
            c.add_capacitor("C1", out, Circuit::GROUND, 1.0e-9);
            circuits.push(c);
        }
        let ops: Vec<_> = circuits.iter().map(|c| solve_dc(c).unwrap()).collect();
        let node = circuits[0].find_node("out").unwrap();
        let labels = ["a", "b", "c"];
        let variants: Vec<BatchVariant<'_>> = circuits
            .iter()
            .zip(&ops)
            .zip(labels)
            .map(|((circuit, op), label)| BatchVariant { label, circuit, op })
            .collect();
        let grid = FrequencyGrid::log_decade(1.0e2, 1.0e6, 3);
        let sweep = driving_point_batch(&variants, node, &grid).unwrap();
        assert_eq!(sweep.yield_count(), 3);
        let (worst_idx, worst_peak) = sweep.worst_case_peak().unwrap();
        assert_eq!(worst_idx, 1); // the 4 kΩ tank
        assert!((worst_peak - sweep.peak_quantile(1.0).unwrap()).abs() == 0.0);
        assert!(sweep.peak_quantile(0.0).unwrap() <= sweep.peak_quantile(0.5).unwrap());
        assert!(sweep.peak_quantile(0.5).unwrap() <= sweep.peak_quantile(1.0).unwrap());
    }

    #[test]
    fn ground_injection_is_a_batch_level_error() {
        let c = rc_tank();
        let op = solve_dc(&c).unwrap();
        let grid = FrequencyGrid::log_decade(1.0e3, 1.0e6, 2);
        let variation = ParameterVariation::new(3);
        let err =
            driving_point_monte_carlo(&c, &op, Circuit::GROUND, &grid, &variation, 2).unwrap_err();
        assert!(matches!(err, SpiceError::UnknownReference(_)));
    }

    #[test]
    fn empty_batch_is_well_defined() {
        let grid = FrequencyGrid::log_decade(1.0e3, 1.0e6, 2);
        let sweep = driving_point_batch(&[], Circuit::GROUND, &grid).unwrap();
        assert!(sweep.is_empty());
        assert_eq!(sweep.yield_fraction(), 1.0);
        assert_eq!(sweep.worst_case_peak(), None);
        assert_eq!(sweep.peak_quantile(0.5), None);
    }
}
