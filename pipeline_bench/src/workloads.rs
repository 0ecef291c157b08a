//! The three workloads. Each op is one user request through the public API
//! of `loopscope-core` (`run`); the traced run re-enacts the same request
//! layer by layer from the layers' public functions (`run_traced`) and must
//! reproduce the top-level output bit for bit. Why each workload exists and
//! what it exercises is written up in `NOTES.md` next to this crate.

use crate::deck;
use crate::trace::Tracer;
use loopscope_circuits::opamp::two_stage_open_loop;
use loopscope_circuits::{opamp_with_bias, power_grid, BiasParams, OpAmpParams};
use loopscope_core::baseline::{
    damping_from_overshoot, open_loop_margins, transient_overshoot, BodeMargins, OvershootResult,
};
use loopscope_core::{
    sweep_node, AllNodesReport, NodeStabilityResult, NodeSweep, StabilityAnalyzer,
    StabilityOptions, StabilityPlot, SweepPoint,
};
use loopscope_math::{Complex64, FrequencyGrid};
use loopscope_netlist::{parse_netlist, Circuit, NodeId};
use loopscope_sparse::REFINE_BACKWARD_TOLERANCE;
use loopscope_spice::batch::{driving_point_batch, BatchVariant, ParameterVariation};
use loopscope_spice::dc::solve_dc;
use loopscope_spice::measure::{bode_margins, overshoot_percent, settled_value, unwrap_phase_deg};
use loopscope_spice::mna::MnaLayout;
use loopscope_spice::tran::{TransientAnalysis, TransientOptions};
use loopscope_spice::{AcAnalysis, SolveStats, SolverBackend, SolverStructure};
use std::error::Error;

/// Error type of a failed op or set-up.
pub type BenchResult<T> = Result<T, Box<dyn Error>>;

/// Layer counters of one traced op.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub dc_newton_iterations: usize,
    pub tran_accepted_steps: usize,
    pub tran_rejected_steps: usize,
    pub tran_newton_iterations: usize,
    pub ac_factorizations: usize,
    pub ac_symbolic: usize,
    pub ac_cached_assemblies: usize,
    /// Unit-current or source right-hand sides solved: frequency points ×
    /// injections of every AC layer call, batched lanes included (computed
    /// from the calls made).
    pub ac_rhs_solves: usize,
    /// Forward and back substitution flops of those solves: 8 per stored
    /// factor entry of the system each one was solved on (computed).
    pub solve_flops: f64,
    /// Residual retries + gmin bumps + fresh fallbacks + iterative fallbacks.
    pub ac_retries: usize,
    pub batch_numeric_refactor: usize,
    pub batch_yield_fraction: f64,
}

impl Counts {
    /// Counts `rhs_solves` right-hand sides solved on a factor with
    /// `fill_nnz` stored entries.
    fn add_solves(&mut self, rhs_solves: usize, fill_nnz: usize) {
        self.ac_rhs_solves += rhs_solves;
        self.solve_flops += 8.0 * rhs_solves as f64 * fill_nnz as f64;
    }

    fn add_ac(&mut self, stats: &SolveStats, rhs_solves: usize, fill_nnz: usize) {
        self.add_solves(rhs_solves, fill_nnz);
        self.ac_factorizations += stats.factorizations();
        self.ac_symbolic += stats.symbolic;
        self.ac_cached_assemblies += stats.cached_assemblies;
        self.ac_retries += stats.residual_retries
            + stats.gmin_bumps
            + stats.fresh_fallback
            + stats.iterative_fallbacks;
    }
}

/// One benchmark workload: inputs made from a seed, an op, its check.
pub trait Workload: Sized {
    /// What one op consumes (made untimed before the op starts).
    type Input;
    /// What one op returns.
    type Output;
    /// Untimed ops run in every set-up, identical on every run and commit.
    const WARMUP_OPS: usize;
    /// Ops after which the inputs repeat.
    const OP_CYCLE: usize = 1;

    /// Makes the inputs from `seed` and validates them.
    fn setup(seed: u64) -> BenchResult<Self>;
    /// Driving-point samples (frequency point × probed node × variant) one
    /// op produces.
    fn samples_per_op(&self) -> usize;
    /// The input of op `op`.
    fn prepare(&self, op: usize) -> Self::Input;
    /// The op through the top-level API.
    fn run(&self, input: Self::Input) -> BenchResult<Self::Output>;
    /// The same op re-enacted layer by layer, one span per layer call.
    fn run_traced(
        &self,
        input: Self::Input,
        tracer: &mut Tracer,
        counts: &mut Counts,
    ) -> BenchResult<Self::Output>;
    /// Checks op `op`'s output; the error says what was wrong.
    fn check(&self, op: usize, out: &Self::Output) -> Result<(), String>;
    /// Bit-exact rendering of an output: `{:?}` prints every `f64` in its
    /// shortest round-trip form, so equal strings mean equal bits.
    fn fingerprint(out: &Self::Output) -> String;
    /// Solver structure of a separate diagnostic analysis of the workload's
    /// circuit, taken outside every op.
    fn structure(&self) -> BenchResult<SolverStructure>;
}

/// SplitMix64: the seeded stream every workload draws its inputs from.
struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `seed`, decorrelated from the stream of `seed + 1`.
    fn new(seed: u64) -> Self {
        let mut rng = Self(seed);
        rng.next_u64();
        rng
    }

    /// The stream for op `op` of a run seeded with `seed`.
    fn for_op(seed: u64, op: usize) -> Self {
        Self::new(seed ^ (op as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The analyzer's plot construction (`StabilityAnalyzer::plot_from_response`
/// is crate-private): magnitudes floored at 1e-15 of their maximum (at least
/// 1e-30) so nodes pinned by ideal sources keep a defined plot.
fn plot_from_response(freqs: &[f64], response: &[Complex64]) -> StabilityPlot {
    let mags: Vec<f64> = response.iter().map(|v| v.abs()).collect();
    let max = mags.iter().cloned().fold(0.0f64, f64::max);
    let floor = (max * 1.0e-15).max(1.0e-30);
    let clamped = mags.into_iter().map(|m| m.max(floor)).collect();
    StabilityPlot::from_magnitude(freqs.to_vec(), clamped)
}

/// `AllNodesReport` from driving-point responses, as `all_nodes()` builds it.
fn traced_report(
    tracer: &mut Tracer,
    circuit: &Circuit,
    options: &StabilityOptions,
    freqs: &[f64],
    responses: Vec<Vec<Complex64>>,
) -> AllNodesReport {
    let plots: Vec<StabilityPlot> = tracer.span("core.plot", || {
        responses
            .iter()
            .map(|r| plot_from_response(freqs, r))
            .collect()
    });
    let entries: Vec<NodeStabilityResult> = tracer.span("core.peaks", || {
        circuit
            .signal_nodes()
            .into_iter()
            .zip(plots)
            .map(|(node, plot)| {
                NodeStabilityResult::from_plot(
                    node,
                    circuit.node_name(node),
                    plot,
                    options.peak_threshold,
                )
            })
            .collect()
    });
    tracer.span("core.report", || {
        AllNodesReport::new(entries, options.group_tolerance)
    })
}

/// Traced `StabilityAnalyzer::new`: validation, AC-source zeroing and the
/// DC operating point.
fn traced_analyzer(
    tracer: &mut Tracer,
    counts: &mut Counts,
    circuit: Circuit,
    options: StabilityOptions,
) -> BenchResult<StabilityAnalyzer> {
    let analyzer = tracer.span("spice.dc.op", || StabilityAnalyzer::new(circuit, options))?;
    counts.dc_newton_iterations += analyzer.operating_point().iterations();
    Ok(analyzer)
}

/// Traced `AcAnalysis::driving_point_all_nodes` on the analyzer's circuit,
/// whose factor stores `fill_nnz` entries.
fn traced_all_nodes(
    tracer: &mut Tracer,
    counts: &mut Counts,
    analyzer: &StabilityAnalyzer,
    grid: &FrequencyGrid,
    fill_nnz: usize,
) -> BenchResult<Vec<Vec<Complex64>>> {
    let (responses, stats) = tracer.span("spice.ac.all_nodes", || -> BenchResult<_> {
        let ac = AcAnalysis::new(analyzer.circuit(), analyzer.operating_point())?;
        let responses = ac.driving_point_all_nodes(grid)?;
        Ok((responses, ac.solve_stats()))
    })?;
    counts.add_ac(&stats, grid.len() * responses.len(), fill_nnz);
    Ok(responses)
}

/// Solver structure of a fresh analysis of `analyzer`'s circuit at the
/// geometric centre of its sweep.
fn structure_of(analyzer: &StabilityAnalyzer) -> BenchResult<SolverStructure> {
    let o = analyzer.options();
    let ac = AcAnalysis::new(analyzer.circuit(), analyzer.operating_point())?;
    Ok(ac.solver_structure((o.f_start * o.f_stop).sqrt())?)
}

fn find(circuit: &Circuit, name: &str) -> BenchResult<NodeId> {
    Ok(circuit
        .find_node(name)
        .ok_or_else(|| format!("no node `{name}`"))?)
}

// ---------------------------------------------------------------------------
// table2_session
// ---------------------------------------------------------------------------

/// Fig. 2 transient settings: 2 ns fixed step over 8 µs.
const TRAN_DT: f64 = 2.0e-9;
const TRAN_STOP: f64 = 8.0e-6;
/// Seeded variants of the Table 2 circuit a run cycles through.
const SESSION_VARIANTS: usize = 8;
/// Relative half-span of the load and compensation capacitor perturbation.
const SESSION_CAP_SPREAD: f64 = 0.1;
/// Loop bands of the Table 2 circuit: the main loop near 3.3 MHz moves
/// with the perturbed capacitors (fn ∝ 1/√C, so ±10 % moves it ≈ ±5 %);
/// the bias-cell loop near 44.6 MHz is not perturbed. ±25 % leaves room
/// for the 100 points/decade grid (2.3 % per step) on top.
const MAIN_LOOP_HZ: (f64, f64) = (3.3e6 * 0.75, 3.3e6 * 1.25);
const LOCAL_LOOP_HZ: (f64, f64) = (44.6e6 * 0.75, 44.6e6 * 1.25);
/// ζ from the plot and ζ from the step overshoot differ by 0.003 on the
/// nominal circuit (0.182 vs 0.179, a 1.7 % gap: the loop is not exactly
/// second order). The check allows three times that relative gap.
const ZETA_AGREEMENT: f64 = 3.0 * 0.003 / 0.179;

/// One Table 2 variant as netlist text: the closed-loop circuit and its
/// loop-broken twin for the open-loop Bode baseline.
pub struct SessionDeck {
    closed: String,
    open: String,
    /// Stored factor entries of the closed-loop system and of the twin's.
    closed_fill: usize,
    open_fill: usize,
}

pub struct Table2Session {
    decks: Vec<SessionDeck>,
    /// Signal nodes of the Table 2 circuit.
    nodes: usize,
    options: StabilityOptions,
    ol_grid: FrequencyGrid,
}

pub struct SessionOut {
    report: AllNodesReport,
    text: String,
    output: NodeStabilityResult,
    overshoot: OvershootResult,
    margins: BodeMargins,
}

impl Table2Session {
    /// The perturbed op-amp parameters of variant `k`.
    fn params(rng: &mut SplitMix64) -> OpAmpParams {
        let nominal = OpAmpParams::default();
        let mut spread = || 1.0 + SESSION_CAP_SPREAD * (2.0 * rng.unit() - 1.0);
        OpAmpParams {
            cload: nominal.cload * spread(),
            c1: nominal.c1 * spread(),
            ..nominal
        }
    }

    /// Renders the constructed circuit and checks that the parsed deck
    /// gives its DC operating point and all-nodes report bit for bit.
    fn round_trip(&self, built: Circuit) -> BenchResult<String> {
        let text = deck::render(&built).map_err(|e| format!("deck cannot express `{e}`"))?;
        let parsed = parse_netlist(&text)?;
        let names: Vec<(String, String)> = built
            .elements()
            .iter()
            .zip(parsed.elements())
            .map(|(a, b)| (a.name().to_string(), b.name().to_string()))
            .collect();
        let a = StabilityAnalyzer::new(built, self.options)?;
        let b = StabilityAnalyzer::new(parsed, self.options)?;
        let (opa, opb) = (a.operating_point(), b.operating_point());
        let branches_equal = names.iter().all(|(na, nb)| {
            opa.branch_current(na).map(f64::to_bits) == opb.branch_current(nb).map(f64::to_bits)
        });
        let same_op = format!("{:?}", opa.node_voltages()) == format!("{:?}", opb.node_voltages())
            && opa.iterations() == opb.iterations()
            && branches_equal;
        if !same_op {
            return Err("parsed deck changes the DC operating point".into());
        }
        if format!("{:?}", a.all_nodes()?) != format!("{:?}", b.all_nodes()?) {
            return Err("parsed deck changes the all-nodes report".into());
        }
        Ok(text)
    }
}

impl Workload for Table2Session {
    type Input = usize;
    type Output = SessionOut;
    const WARMUP_OPS: usize = 16;
    const OP_CYCLE: usize = SESSION_VARIANTS;

    fn setup(seed: u64) -> BenchResult<Self> {
        let mut session = Self {
            decks: Vec::with_capacity(SESSION_VARIANTS),
            nodes: 0,
            options: StabilityOptions::default(),
            ol_grid: FrequencyGrid::log_decade(1.0, 100.0e6, 40),
        };
        let mut rng = SplitMix64::new(seed);
        for _ in 0..SESSION_VARIANTS {
            let params = Self::params(&mut rng);
            let (closed, _, _) = opamp_with_bias(&params, &BiasParams::default());
            session.nodes = closed.signal_nodes().len();
            let (open, _) = two_stage_open_loop(&params);
            let closed = session.round_trip(closed)?;
            let closed_fill = structure_of(&StabilityAnalyzer::new(
                parse_netlist(&closed)?,
                session.options,
            )?)?
            .fill_nnz;
            let open = deck::render(&open).map_err(|e| format!("deck cannot express `{e}`"))?;
            let twin = parse_netlist(&open)?;
            let f = session.ol_grid.freqs();
            let centre = (f[0] * f[f.len() - 1]).sqrt();
            let open_fill = AcAnalysis::new(&twin, &solve_dc(&twin)?)?
                .solver_structure(centre)?
                .fill_nnz;
            session.decks.push(SessionDeck {
                closed,
                open,
                closed_fill,
                open_fill,
            });
        }
        Ok(session)
    }

    fn samples_per_op(&self) -> usize {
        // All nodes, one node, and the open-loop sweep's output node.
        self.options.grid().len() * (self.nodes + 1) + self.ol_grid.len()
    }

    fn prepare(&self, op: usize) -> usize {
        op % SESSION_VARIANTS
    }

    fn run(&self, k: usize) -> BenchResult<SessionOut> {
        let deck = &self.decks[k];
        let circuit = parse_netlist(&deck.closed)?;
        let twin = parse_netlist(&deck.open)?;
        let analyzer = StabilityAnalyzer::new(circuit, self.options)?;
        let report = analyzer.all_nodes()?;
        let text = report.to_text();
        let out = find(analyzer.circuit(), "out")?;
        let output = analyzer.single_node(out)?;
        let overshoot = transient_overshoot(analyzer.circuit(), out, TRAN_DT, TRAN_STOP)?;
        let margins = open_loop_margins(&twin, find(&twin, "out")?, &self.ol_grid)?;
        Ok(SessionOut {
            report,
            text,
            output,
            overshoot,
            margins,
        })
    }

    fn run_traced(
        &self,
        k: usize,
        tracer: &mut Tracer,
        counts: &mut Counts,
    ) -> BenchResult<SessionOut> {
        let deck = &self.decks[k];
        let (circuit, twin) = tracer.span("netlist.parse", || -> BenchResult<_> {
            Ok((parse_netlist(&deck.closed)?, parse_netlist(&deck.open)?))
        })?;
        let analyzer = traced_analyzer(tracer, counts, circuit, self.options)?;
        let grid = self.options.grid();
        let responses = traced_all_nodes(tracer, counts, &analyzer, &grid, deck.closed_fill)?;
        let report = traced_report(
            tracer,
            analyzer.circuit(),
            &self.options,
            grid.freqs(),
            responses,
        );
        let text = tracer.span("core.report", || report.to_text());

        // "Single Node" at the output.
        let out = find(analyzer.circuit(), "out")?;
        let (response, stats) = tracer.span("spice.ac.single_node", || -> BenchResult<_> {
            let ac = AcAnalysis::new(analyzer.circuit(), analyzer.operating_point())?;
            let response = ac.driving_point_response(out, &grid)?;
            Ok((response, ac.solve_stats()))
        })?;
        counts.add_ac(&stats, grid.len(), deck.closed_fill);
        let plot = tracer.span("core.plot", || plot_from_response(grid.freqs(), &response));
        let output = tracer.span("core.peaks", || {
            NodeStabilityResult::from_plot(
                out,
                analyzer.circuit().node_name(out),
                plot,
                self.options.peak_threshold,
            )
        });

        // Transient-overshoot baseline (Fig. 2).
        let op = tracer.span("spice.dc.op", || solve_dc(analyzer.circuit()))?;
        counts.dc_newton_iterations += op.iterations();
        let wave = tracer.span("spice.tran.run", || -> BenchResult<_> {
            let tran = TransientAnalysis::new(
                analyzer.circuit(),
                TransientOptions::new(TRAN_DT, TRAN_STOP),
            )?;
            let result = tran.run(&op)?;
            let stats = result.stats();
            counts.tran_accepted_steps += stats.accepted_steps;
            counts.tran_rejected_steps += stats.rejected_steps;
            counts.tran_newton_iterations += stats.newton_iterations;
            Ok(result.waveform(out)?)
        })?;
        let initial = wave.first().copied().unwrap_or(0.0);
        let final_value = settled_value(&wave, 0.05);
        let percent = overshoot_percent(&wave, initial, final_value);
        let overshoot = OvershootResult {
            percent_overshoot: percent,
            equivalent_damping: damping_from_overshoot(percent),
            initial_value: initial,
            final_value,
        };

        // Open-loop Bode baseline (Fig. 3) on the loop-broken twin.
        let twin_out = find(&twin, "out")?;
        let twin_op = tracer.span("spice.dc.op", || solve_dc(&twin))?;
        counts.dc_newton_iterations += twin_op.iterations();
        let (sweep, stats) = tracer.span("spice.ac.sweep", || -> BenchResult<_> {
            let ac = AcAnalysis::new(&twin, &twin_op)?;
            let sweep = ac.sweep(&self.ol_grid)?;
            Ok((sweep, ac.solve_stats()))
        })?;
        counts.add_ac(&stats, self.ol_grid.len(), deck.open_fill);
        let gain_db = sweep.magnitude_db(twin_out);
        let phase = unwrap_phase_deg(&sweep.phase_deg(twin_out));
        let margins = bode_margins(self.ol_grid.freqs(), &gain_db, &phase);
        Ok(SessionOut {
            report,
            text,
            output,
            overshoot,
            margins,
        })
    }

    fn check(&self, _op: usize, out: &SessionOut) -> Result<(), String> {
        let loops = out.report.loops();
        let in_band = |f: f64, (lo, hi): (f64, f64)| f >= lo && f <= hi;
        if loops.len() != 2
            || !in_band(loops[0].natural_freq_hz, MAIN_LOOP_HZ)
            || !in_band(loops[1].natural_freq_hz, LOCAL_LOOP_HZ)
        {
            let found: Vec<f64> = loops.iter().map(|l| l.natural_freq_hz).collect();
            return Err(format!(
                "expected the main and bias loops, found {found:?} Hz"
            ));
        }
        let est = out.output.estimate.ok_or("the output node shows no loop")?;
        if !in_band(est.natural_freq_hz, MAIN_LOOP_HZ) {
            return Err(format!("output loop at {} Hz", est.natural_freq_hz));
        }
        let zeta_step = out.overshoot.equivalent_damping;
        let gap = (est.damping_ratio - zeta_step).abs() / zeta_step;
        if gap > ZETA_AGREEMENT {
            return Err(format!(
                "ζ from the plot {} vs ζ from the overshoot {zeta_step}",
                est.damping_ratio
            ));
        }
        if out.margins.phase_margin_deg.is_none() || !out.text.contains("Loop at") {
            return Err("open-loop margins or report text missing".into());
        }
        Ok(())
    }

    fn fingerprint(out: &SessionOut) -> String {
        format!(
            "{:?}\n{}\n{:?}\n{:?}\n{:?}",
            out.report, out.text, out.output, out.overshoot, out.margins
        )
    }

    fn structure(&self) -> BenchResult<SolverStructure> {
        let circuit = parse_netlist(&self.decks[0].closed)?;
        structure_of(&StabilityAnalyzer::new(circuit, self.options)?)
    }
}

// ---------------------------------------------------------------------------
// allnodes_mesh
// ---------------------------------------------------------------------------

/// Mesh side: one all-nodes scan of the `MESH_N × MESH_N` power grid takes
/// 0.1–0.3 s at one worker on a 2-vCPU x86-64 container.
const MESH_N: usize = 16;
/// Sample nodes per op whose all-nodes response is checked against
/// `single_node`.
const MESH_SAMPLES: usize = 2;

pub struct AllNodesMesh {
    seed: u64,
    options: StabilityOptions,
    nodes: usize,
    /// Relative tolerance between an all-nodes and a single-node response:
    /// both solves pass the `REFINE_BACKWARD_TOLERANCE` backward-error gate,
    /// so each lies within κ·η of the exact value; κ is the largest 1-norm
    /// condition estimate over the sweep ends and centre.
    tolerance: f64,
    /// Stored factor entries of the mesh system at the sweep centre.
    fill_nnz: usize,
}

pub struct MeshOut {
    analyzer: StabilityAnalyzer,
    report: AllNodesReport,
}

impl AllNodesMesh {
    fn options() -> StabilityOptions {
        StabilityOptions {
            f_start: 1.0e3,
            f_stop: 100.0e6,
            points_per_decade: 20,
            ..StabilityOptions::default()
        }
    }
}

impl Workload for AllNodesMesh {
    type Input = ();
    type Output = MeshOut;
    const WARMUP_OPS: usize = 2;

    fn setup(seed: u64) -> BenchResult<Self> {
        let options = Self::options();
        let analyzer = StabilityAnalyzer::new(power_grid(MESH_N, MESH_N).0, options)?;
        let ac = AcAnalysis::new(analyzer.circuit(), analyzer.operating_point())?;
        let centre = ac.solver_structure((options.f_start * options.f_stop).sqrt())?;
        let mut kappa = centre.condition_estimate;
        for f in [options.f_start, options.f_stop] {
            kappa = kappa.max(ac.solver_structure(f)?.condition_estimate);
        }
        Ok(Self {
            seed,
            options,
            nodes: analyzer.circuit().signal_nodes().len(),
            tolerance: 2.0 * kappa * REFINE_BACKWARD_TOLERANCE,
            fill_nnz: centre.fill_nnz,
        })
    }

    fn samples_per_op(&self) -> usize {
        self.options.grid().len() * self.nodes
    }

    fn prepare(&self, _op: usize) {}

    fn run(&self, (): ()) -> BenchResult<MeshOut> {
        let (circuit, _) = power_grid(MESH_N, MESH_N);
        let analyzer = StabilityAnalyzer::new(circuit, self.options)?;
        let report = analyzer.all_nodes()?;
        Ok(MeshOut { analyzer, report })
    }

    fn run_traced(&self, (): (), tracer: &mut Tracer, counts: &mut Counts) -> BenchResult<MeshOut> {
        let (circuit, _) = tracer.span("circuits.build", || power_grid(MESH_N, MESH_N));
        let analyzer = traced_analyzer(tracer, counts, circuit, self.options)?;
        let grid = self.options.grid();
        let responses = traced_all_nodes(tracer, counts, &analyzer, &grid, self.fill_nnz)?;
        let report = traced_report(
            tracer,
            analyzer.circuit(),
            &self.options,
            grid.freqs(),
            responses,
        );
        Ok(MeshOut { analyzer, report })
    }

    fn check(&self, op: usize, out: &MeshOut) -> Result<(), String> {
        if !out.report.loops().is_empty() {
            return Err(format!(
                "an RC mesh has no loops, found {}",
                out.report.loops().len()
            ));
        }
        let entries = out.report.entries();
        let mut rng = SplitMix64::for_op(self.seed, op);
        for _ in 0..MESH_SAMPLES {
            let entry = &entries[rng.below(entries.len())];
            let single = out
                .analyzer
                .single_node(entry.node)
                .map_err(|e| e.to_string())?;
            let pairs = entry.plot.magnitude().iter().zip(single.plot.magnitude());
            for (a, b) in pairs {
                if (a - b).abs() > self.tolerance * a.abs().max(b.abs()) {
                    return Err(format!(
                        "node {}: all-nodes {a} vs single-node {b}",
                        entry.node_name
                    ));
                }
            }
        }
        Ok(())
    }

    fn fingerprint(out: &MeshOut) -> String {
        format!(
            "{:?}\n{:?}",
            out.analyzer.operating_point().node_voltages(),
            out.report
        )
    }

    fn structure(&self) -> BenchResult<SolverStructure> {
        structure_of(&StabilityAnalyzer::new(
            power_grid(MESH_N, MESH_N).0,
            self.options,
        )?)
    }
}

// ---------------------------------------------------------------------------
// corners_mc
// ---------------------------------------------------------------------------

/// Seeded corners per op.
const CORNERS: usize = 64;
/// Uniform relative half-spans of the corner spread.
const CORNER_SPREAD: [(&str, f64); 3] = [("Cload", 0.1), ("C1", 0.1), ("Ggm2", 0.1)];

pub struct CornersMc {
    seed: u64,
    options: StabilityOptions,
    variants: Vec<(String, Circuit)>,
    /// Stored factor entries of the first corner's system at the sweep
    /// centre; the batch solves every corner on one symbolic analysis.
    fill_nnz: usize,
}

pub struct CornersOut {
    sweep: NodeSweep,
    text: String,
}

impl Workload for CornersMc {
    type Input = Vec<(String, Circuit)>;
    type Output = CornersOut;
    const WARMUP_OPS: usize = 2;

    fn setup(seed: u64) -> BenchResult<Self> {
        let (base, _, _) = opamp_with_bias(&OpAmpParams::default(), &BiasParams::default());
        let variation = CORNER_SPREAD
            .iter()
            .fold(ParameterVariation::new(seed), |v, &(el, span)| {
                v.uniform(el, span)
            });
        let mut variants = Vec::with_capacity(CORNERS);
        for i in 0..CORNERS {
            let mut circuit = base.clone();
            variation.apply(i, &mut circuit)?;
            variants.push((format!("mc{i:02}"), circuit));
        }
        let options = StabilityOptions::default();
        let fill_nnz =
            structure_of(&StabilityAnalyzer::new(variants[0].1.clone(), options)?)?.fill_nnz;
        Ok(Self {
            seed,
            options,
            variants,
            fill_nnz,
        })
    }

    fn samples_per_op(&self) -> usize {
        self.options.grid().len() * CORNERS
    }

    fn prepare(&self, _op: usize) -> Vec<(String, Circuit)> {
        self.variants.clone()
    }

    fn run(&self, variants: Vec<(String, Circuit)>) -> BenchResult<CornersOut> {
        let sweep = sweep_node(variants, "out", self.options)?;
        let text = sweep.to_text();
        Ok(CornersOut { sweep, text })
    }

    fn run_traced(
        &self,
        variants: Vec<(String, Circuit)>,
        tracer: &mut Tracer,
        counts: &mut Counts,
    ) -> BenchResult<CornersOut> {
        let options = self.options;
        let prepared = tracer.span("spice.dc.op", || -> BenchResult<Vec<_>> {
            variants
                .into_iter()
                .map(|(label, c)| Ok((label, StabilityAnalyzer::new(c, options)?)))
                .collect()
        })?;
        counts.dc_newton_iterations += prepared
            .iter()
            .map(|(_, a)| a.operating_point().iterations())
            .sum::<usize>();
        // `sweep_node` takes the batched path only for one shared topology.
        let dims: Vec<usize> = prepared
            .iter()
            .map(|(_, a)| MnaLayout::new(a.circuit()).dim())
            .collect();
        if dims.iter().any(|&d| d != dims[0]) {
            return Err("corners do not share one topology".into());
        }
        let node = find(prepared[0].1.circuit(), "out")?;
        let grid = options.grid();
        let sweep = tracer.span("spice.batch.sweep", || {
            let batch: Vec<BatchVariant<'_>> = prepared
                .iter()
                .map(|(label, a)| BatchVariant {
                    label,
                    circuit: a.circuit(),
                    op: a.operating_point(),
                })
                .collect();
            driving_point_batch(&batch, node, &grid)
        })?;
        counts.batch_numeric_refactor += sweep.solve_stats().numeric_refactor;
        counts.add_solves(CORNERS * grid.len(), self.fill_nnz);
        counts.batch_yield_fraction += sweep.yield_fraction();
        let responses = sweep
            .outcomes()
            .iter()
            .map(|o| match (&o.response, &o.error) {
                (_, Some(e)) => Err(e.to_string()),
                (Some(r), None) => Ok(r),
                (None, None) => Err("outcome without a response".to_string()),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let plots: Vec<StabilityPlot> = tracer.span("core.plot", || {
            responses
                .iter()
                .map(|r| plot_from_response(grid.freqs(), r))
                .collect()
        });
        let points = tracer.span("core.peaks", || {
            prepared
                .iter()
                .zip(plots)
                .map(|((label, a), plot)| SweepPoint {
                    label: label.clone(),
                    estimate: NodeStabilityResult::from_plot(
                        node,
                        a.circuit().node_name(node),
                        plot,
                        options.peak_threshold,
                    )
                    .estimate,
                })
                .collect()
        });
        let sweep = NodeSweep {
            node_name: "out".to_string(),
            points,
        };
        let text = tracer.span("core.report", || sweep.to_text());
        Ok(CornersOut { sweep, text })
    }

    fn check(&self, op: usize, out: &CornersOut) -> Result<(), String> {
        let points = &out.sweep.points;
        if points.len() != CORNERS || points.iter().any(|p| p.estimate.is_none()) {
            return Err("every corner must show the main loop".into());
        }
        // The batched contract: a corner equals its own per-variant
        // analysis on the direct backend, bit for bit.
        let k = SplitMix64::for_op(self.seed, op).below(CORNERS);
        let mut analyzer = StabilityAnalyzer::new(self.variants[k].1.clone(), self.options)
            .map_err(|e| e.to_string())?;
        analyzer.set_solver_backend(SolverBackend::Direct);
        let reference = analyzer
            .single_node_by_name("out")
            .map_err(|e| e.to_string())?;
        if format!("{:?}", reference.estimate) != format!("{:?}", points[k].estimate) {
            return Err(format!("corner {k} differs from its per-variant analysis"));
        }
        Ok(())
    }

    fn fingerprint(out: &CornersOut) -> String {
        format!("{:?}\n{}", out.sweep, out.text)
    }

    fn structure(&self) -> BenchResult<SolverStructure> {
        structure_of(&StabilityAnalyzer::new(
            self.variants[0].1.clone(),
            self.options,
        )?)
    }
}
