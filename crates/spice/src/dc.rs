//! Nonlinear DC operating-point analysis.
//!
//! The operating point is found by Newton-Raphson iteration on the MNA
//! system, run along one continuation ladder (Nagel's SPICE2 aids, UCB/ERL
//! M520, 1975) whose phases are tried in order until one converges:
//!
//! * **plain Newton** from a zero guess;
//! * **gmin stepping** — a shunt conductance from every node to ground is
//!   started large and reduced decade by decade, then removed, re-converging
//!   at every stage;
//! * **source stepping** — all independent DC sources are ramped from 0 to
//!   100 % while re-converging.
//!
//! Each phase starts from zero, each later stage of a phase from the
//! voltages the previous stage converged to, and a stage that fails to
//! converge ends its phase. Every Newton run of the search is recorded in
//! the [`ConvergenceReport`].
//!
//! The result ([`OperatingPoint`]) carries the node voltages and branch
//! currents, and is the linearization point for AC and the starting state for
//! transient analysis.

use crate::assembly::{fresh_device_key, AssembleMna, NewtonJob, SolveContext};
use crate::devices::{self, NonlinearStamp};
use crate::error::SpiceError;
use crate::mna::{MatrixSink, MnaLayout, StampModel, Stamper};
use crate::GMIN;
use loopscope_netlist::{Capacitor, Circuit, Element, Inductor, NodeId, SourceSpec};
use std::borrow::Cow;

/// Options controlling the operating-point solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcOptions {
    /// Maximum Newton iterations per convergence attempt.
    pub max_iterations: usize,
    /// Absolute node-voltage convergence tolerance in volts.
    pub vntol: f64,
    /// Relative convergence tolerance.
    pub reltol: f64,
    /// Largest per-iteration node-voltage update in volts (damping).
    pub max_step: f64,
    /// The last shunt decade of gmin stepping when plain Newton fails
    /// (decades `0..=gmin_decades`, at most 305).
    pub gmin_decades: usize,
    /// Number of ramp points used by source stepping as a last resort.
    pub source_steps: usize,
}

/// The most decades gmin stepping may take: decade `k` shunts `1e-2·10⁻ᵏ` S,
/// and decade 305 (`1e-307` S) is the last whose shunt is a normal `f64`
/// (at least `f64::MIN_POSITIVE ≈ 2.2e-308`).
const MAX_GMIN_DECADES: usize = 305;

impl Default for DcOptions {
    fn default() -> Self {
        Self {
            max_iterations: 200,
            vntol: 1.0e-9,
            reltol: 1.0e-6,
            max_step: 0.5,
            gmin_decades: 10,
            source_steps: 10,
        }
    }
}

impl DcOptions {
    /// Checks the options for internal consistency before any work happens:
    /// at least one Newton iteration, finite positive tolerances and damping
    /// step, at most 305 gmin decades (the last whose shunt is a normal
    /// `f64`) and at least one source-stepping ramp point.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidOptions`] naming the offending field.
    pub fn validate(&self) -> Result<(), SpiceError> {
        if self.max_iterations == 0 {
            return Err(SpiceError::InvalidOptions(
                "max_iterations must be at least 1".into(),
            ));
        }
        for (name, value) in [
            ("vntol", self.vntol),
            ("reltol", self.reltol),
            ("max_step", self.max_step),
        ] {
            if !value.is_finite() || value <= 0.0 {
                return Err(SpiceError::InvalidOptions(format!(
                    "{name} must be finite and positive (got {value})"
                )));
            }
        }
        if self.gmin_decades > MAX_GMIN_DECADES {
            return Err(SpiceError::InvalidOptions(format!(
                "gmin_decades must be at most {MAX_GMIN_DECADES} (got {})",
                self.gmin_decades
            )));
        }
        if self.source_steps == 0 {
            return Err(SpiceError::InvalidOptions(
                "source_steps must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// The convergence strategy a [`StageReport`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DcPhase {
    /// Plain Newton-Raphson from the initial guess.
    Newton,
    /// Gmin stepping: a decade-by-decade reduction of an extra shunt
    /// conductance from every node to ground.
    GminStepping,
    /// Source stepping: independent DC sources ramped from 0 to 100 %.
    SourceStepping,
}

/// One Newton run inside the operating-point search: which phase and stage
/// it served, how many iterations it used and where its convergence metric
/// ended up.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// The convergence strategy this run belonged to.
    pub phase: DcPhase,
    /// Stage index within the phase: 0 for plain Newton; the gmin decade
    /// (with the final no-shunt re-solve last) for gmin stepping; the ramp
    /// point (1-based) for source stepping.
    pub stage: usize,
    /// Newton iterations the stage used.
    pub iterations: usize,
    /// Largest node-voltage update at the last iteration — the convergence
    /// residual the tolerances are tested against.
    pub final_delta: f64,
    /// Whether the stage converged (a failed stage triggers the next phase,
    /// or the overall error when no phase is left).
    pub converged: bool,
}

/// How the DC operating point converged: every Newton run the search
/// performed, in order, across the plain / gmin-stepping / source-stepping
/// phases. Carried by [`OperatingPoint::convergence`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConvergenceReport {
    stages: Vec<StageReport>,
}

impl ConvergenceReport {
    /// Every Newton run of the search, in execution order.
    pub fn stages(&self) -> &[StageReport] {
        &self.stages
    }

    /// The phase that produced the final (converged) solution — the phase
    /// the search had to escalate to.
    pub fn phase(&self) -> DcPhase {
        self.stages.last().map_or(DcPhase::Newton, |s| s.phase)
    }

    /// Total Newton iterations across all stages, including failed attempts.
    pub fn total_iterations(&self) -> usize {
        self.stages.iter().map(|s| s.iterations).sum()
    }
}

/// The DC operating point of a circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    node_voltages: Vec<f64>,
    /// `(element name, current)` of every branch-forming element, in MNA
    /// layout order — so `{:?}` prints the same text on every run.
    branch_currents: Vec<(String, f64)>,
    iterations: usize,
    convergence: ConvergenceReport,
}

impl OperatingPoint {
    /// Voltage of a node (0 for ground).
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.node_voltages[node.index()]
    }

    /// The full node-voltage table indexed by `NodeId::index()`.
    pub fn node_voltages(&self) -> &[f64] {
        &self.node_voltages
    }

    /// Current through a branch-forming element (voltage sources, inductors,
    /// VCVS, CCVS), in amperes, if that element owns a branch.
    pub fn branch_current(&self, element_name: &str) -> Option<f64> {
        self.branch_currents
            .iter()
            .find(|(name, _)| name == element_name)
            .map(|&(_, i)| i)
    }

    /// Every branch current `(element name, amperes)`, in MNA layout order.
    pub fn branch_currents(&self) -> &[(String, f64)] {
        &self.branch_currents
    }

    /// Total Newton iterations spent converging (across all stepping phases,
    /// including attempts that failed and forced an escalation).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Stage-by-stage convergence report: which phase the search reached and
    /// the iterations and final residual of every Newton run along the way.
    pub fn convergence(&self) -> &ConvergenceReport {
        &self.convergence
    }
}

/// The DC MNA system at a trial solution, as a restampable assembly job.
///
/// `source_scale` multiplies all independent DC sources (used by source
/// stepping) and `gshunt` is an extra conductance from every node to ground
/// (used by gmin stepping). Neither affects the sparsity pattern, and the
/// Newton trial voltages only move values, so the whole DC solve — every
/// iteration of every gmin/source-stepping phase — shares one cached pattern
/// and (pivot health permitting) one symbolic LU analysis. The linear
/// matrix stamps depend on `gshunt` alone, the job's Newton image key. The
/// devices arrive evaluated at the trial solution, under a device key of
/// their own.
struct DcSystem<'a> {
    circuit: &'a Circuit,
    layout: &'a MnaLayout,
    stamps: Cow<'a, [NonlinearStamp]>,
    device_key: u64,
    source_scale: f64,
    gshunt: f64,
}

impl AssembleMna<f64> for DcSystem<'_> {
    fn stamp<S: MatrixSink<f64>>(&self, st: &mut Stamper<'_, f64, S>) {
        st.stamp_elements(GMIN + self.gshunt, self);
    }
}

impl NewtonJob for DcSystem<'_> {
    fn matrix_key(&self) -> [u64; 2] {
        [self.gshunt.to_bits(), 0]
    }

    fn device_stamps(&self) -> &[NonlinearStamp] {
        &self.stamps
    }

    fn device_key(&self) -> u64 {
        self.device_key
    }
}

/// At DC a capacitor is open, an inductor a short, and every independent
/// source its DC value times `source_scale`.
impl StampModel<f64> for DcSystem<'_> {
    fn circuit(&self) -> &Circuit {
        self.circuit
    }

    fn layout(&self) -> &MnaLayout {
        self.layout
    }

    fn capacitor(&self, _ei: usize, _c: &Capacitor) -> Option<(f64, Option<f64>)> {
        None
    }

    fn inductor(&self, _ei: usize, _br: usize, _l: &Inductor) -> Option<(f64, Option<f64>)> {
        None
    }

    fn source(&self, spec: &SourceSpec) -> Option<f64> {
        Some(spec.dc * self.source_scale)
    }

    fn device<S: MatrixSink<f64>>(
        &self,
        st: &mut Stamper<'_, f64, S>,
        _ei: usize,
        device: usize,
        _element: &Element,
    ) {
        st.add_device(&self.stamps[device]);
    }
}

/// The assembly job of the DC system of `circuit` linearized at the node
/// voltages `voltages` (indexed by [`NodeId::index`]) — what each plain
/// Newton iteration of the operating-point search stamps. A diagnostic and
/// benchmark entry point: the job owns its devices' stamps, evaluated here,
/// under a device key no other job has.
pub fn assembly_job<'a>(
    circuit: &'a Circuit,
    layout: &'a MnaLayout,
    voltages: &[f64],
) -> impl NewtonJob + 'a {
    let mut stamps = Vec::new();
    devices::stamp_devices(circuit, layout, voltages, &mut stamps);
    DcSystem {
        circuit,
        layout,
        stamps: Cow::Owned(stamps),
        device_key: fresh_device_key(),
        source_scale: 1.0,
        gshunt: 0.0,
    }
}

/// One Newton run of the operating-point search: its final node voltages,
/// the full unknown vector, the iterations it took and its last update.
struct NewtonRun {
    voltages: Vec<f64>,
    solution: Vec<f64>,
    iterations: usize,
    final_delta: f64,
    converged: bool,
}

/// Runs Newton-Raphson from the supplied initial node voltages.
/// Non-convergence is an ordinary outcome (the search escalates to its next
/// phase); `Err` is a hard solver failure that aborts the search.
///
/// Every iteration evaluates the devices into a reused buffer, assembles
/// through the context's Newton image
/// ([`SolveContext::assemble_newton_into`]) under a fresh device key — DC
/// iterations never bypass their devices, so no two share their stamps —
/// and solves through the residual-verified retry ladder
/// ([`SolveContext::solve_verified_in_place`]), so solver failures arrive
/// name-enriched and are genuine hard errors, not convergence noise.
fn newton(
    circuit: &Circuit,
    layout: &MnaLayout,
    solver: &mut SolveContext<'_, f64>,
    initial_voltages: &[f64],
    source_scale: f64,
    gshunt: f64,
    opts: &DcOptions,
) -> Result<NewtonRun, SpiceError> {
    let mut voltages = initial_voltages.to_vec();
    let mut solution = vec![0.0; layout.dim()];
    let has_nonlinear = circuit.elements().iter().any(Element::is_nonlinear);
    let mut final_delta = f64::INFINITY;
    let mut stamps = Vec::new();

    for iteration in 1..=opts.max_iterations {
        devices::stamp_devices(circuit, layout, &voltages, &mut stamps);
        let job = DcSystem {
            circuit,
            layout,
            stamps: Cow::Borrowed(&stamps),
            device_key: fresh_device_key(),
            source_scale,
            gshunt,
        };
        solver.assemble_newton_into(&job, &mut solution);
        solver.solve_verified_in_place(&mut solution)?;

        // Test every node's update against the tolerances and damp it, in
        // one pass: node `i`'s unknown is `i − 1` (`MnaLayout::node_var`).
        let mut converged = true;
        final_delta = 0.0;
        for (v, &target) in voltages[1..].iter_mut().zip(&solution) {
            let delta = target - *v;
            converged &= delta.abs() <= opts.vntol + opts.reltol * target.abs();
            final_delta = final_delta.max(delta.abs());
            *v += delta.clamp(-opts.max_step, opts.max_step);
        }
        // Linear circuits converge in a single iteration by construction.
        if converged || !has_nonlinear {
            // Undo the damping: the run ends on the exact node voltages.
            let nodes = voltages.len() - 1;
            voltages[1..].copy_from_slice(&solution[..nodes]);
            return Ok(NewtonRun {
                voltages,
                solution,
                iterations: iteration,
                final_delta,
                converged: true,
            });
        }
    }
    Ok(NewtonRun {
        voltages,
        solution,
        iterations: opts.max_iterations,
        final_delta,
        converged: false,
    })
}

/// The shunt conductance of gmin stepping's decade `k`: `1e-2·10⁻ᵏ` S.
fn gmin_shunt(decade: usize) -> f64 {
    1.0e-2 * 10f64.powi(-(decade as i32))
}

/// The continuation ladder of the operating-point search, as
/// `(phase, stage, source_scale, gshunt)` in run order: plain Newton; gmin
/// stepping's `gmin_decades + 1` shrinking shunts, then one stage without a
/// shunt; source stepping's ramp points `1..=source_steps`.
fn continuation_stages(opts: &DcOptions) -> impl Iterator<Item = (DcPhase, usize, f64, f64)> {
    let (decades, steps) = (opts.gmin_decades, opts.source_steps);
    let gmin = (0..=decades + 1).map(move |k| {
        let gshunt = if k <= decades { gmin_shunt(k) } else { 0.0 };
        (DcPhase::GminStepping, k, 1.0, gshunt)
    });
    let ramp = (1..=steps).map(move |k| (DcPhase::SourceStepping, k, k as f64 / steps as f64, 0.0));
    std::iter::once((DcPhase::Newton, 0, 1.0, 0.0))
        .chain(gmin)
        .chain(ramp)
}

/// Solves the DC operating point with default options.
///
/// # Errors
///
/// Returns [`SpiceError::Netlist`] if the circuit fails validation; a hard
/// solver failure ([`SpiceError::SingularSystem`],
/// [`SpiceError::NonFiniteStamp`], [`SpiceError::ResidualCheckFailed`] or
/// [`SpiceError::Linear`]) if the MNA system cannot be solved; and
/// [`SpiceError::DcNoConvergence`] if Newton iteration (including gmin and
/// source stepping) fails to converge.
pub fn solve_dc(circuit: &Circuit) -> Result<OperatingPoint, SpiceError> {
    solve_dc_with(circuit, &DcOptions::default())
}

/// Solves the DC operating point with explicit options.
///
/// Runs the stages of the continuation ladder in order, each phase from a
/// zero guess and each later stage of a phase from the voltages its
/// predecessor converged to. The first phase whose stages all converge
/// gives the operating point; a failed stage ends its phase.
///
/// # Errors
///
/// See [`solve_dc`]; the [`SpiceError::DcNoConvergence`] carries the
/// iterations and final update of the last failing stage. Additionally
/// returns [`SpiceError::InvalidOptions`] if `opts` fails
/// [`DcOptions::validate`].
pub fn solve_dc_with(circuit: &Circuit, opts: &DcOptions) -> Result<OperatingPoint, SpiceError> {
    opts.validate()?;
    circuit.validate().map_err(SpiceError::Netlist)?;
    let layout = MnaLayout::new(circuit);
    let zero = vec![0.0; circuit.node_count()];
    let mut report = ConvergenceReport::default();
    // One adopting solve context for the entire operating-point search:
    // the stages only change values, never the pattern.
    let mut solver = SolveContext::adopting(&layout);
    let mut last: Option<(DcPhase, NewtonRun)> = None;
    for (phase, stage, source_scale, gshunt) in continuation_stages(opts) {
        let guess = match &last {
            Some((p, run)) if *p == phase && !run.converged => continue,
            Some((p, run)) if *p == phase => &run.voltages,
            // The previous phase converged in every stage.
            Some((_, run)) if run.converged => break,
            _ => &zero,
        };
        let run = newton(
            circuit,
            &layout,
            &mut solver,
            guess,
            source_scale,
            gshunt,
            opts,
        )?;
        report.stages.push(StageReport {
            phase,
            stage,
            iterations: run.iterations,
            final_delta: run.final_delta,
            converged: run.converged,
        });
        last = Some((phase, run));
    }
    let (_, run) = last.expect("the ladder starts with plain Newton");
    if !run.converged {
        return Err(SpiceError::DcNoConvergence {
            iterations: run.iterations,
            max_delta: run.final_delta,
        });
    }
    let branch_currents = circuit
        .elements()
        .iter()
        .enumerate()
        .filter_map(|(ei, el)| {
            let var = layout.element_branch(ei)?;
            Some((el.name().to_string(), run.solution[var]))
        })
        .collect();
    Ok(OperatingPoint {
        node_voltages: run.voltages,
        branch_currents,
        iterations: report.total_iterations(),
        convergence: report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::THERMAL_VOLTAGE;
    use loopscope_netlist::{
        BjtModel, BjtPolarity, DiodeModel, MosfetModel, MosfetPolarity, SourceSpec,
    };

    #[test]
    fn resistive_divider() {
        let mut c = Circuit::new("divider");
        let vin = c.node("in");
        let mid = c.node("mid");
        c.add_vsource("V1", vin, Circuit::GROUND, SourceSpec::dc(10.0));
        c.add_resistor("R1", vin, mid, 3.0e3);
        c.add_resistor("R2", mid, Circuit::GROUND, 1.0e3);
        let op = solve_dc(&c).unwrap();
        assert!((op.voltage(vin) - 10.0).abs() < 1e-9);
        assert!((op.voltage(mid) - 2.5).abs() < 1e-6);
        // Source current = −10/4k = −2.5 mA (flows out of the + terminal).
        let i = op.branch_current("V1").unwrap();
        assert!((i + 2.5e-3).abs() < 1e-9);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut c = Circuit::new("isrc");
        let out = c.node("out");
        // 1 mA injected into `out` (flows from ground through the source).
        c.add_isource("I1", Circuit::GROUND, out, SourceSpec::dc(1.0e-3));
        c.add_resistor("R1", out, Circuit::GROUND, 2.0e3);
        let op = solve_dc(&c).unwrap();
        assert!((op.voltage(out) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn inductor_is_dc_short() {
        let mut c = Circuit::new("lshort");
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, SourceSpec::dc(1.0));
        c.add_inductor("L1", a, b, 1.0e-3);
        c.add_resistor("R1", b, Circuit::GROUND, 1.0e3);
        let op = solve_dc(&c).unwrap();
        assert!((op.voltage(b) - 1.0).abs() < 1e-9);
        let il = op.branch_current("L1").unwrap();
        assert!((il - 1.0e-3).abs() < 1e-9);
    }

    #[test]
    fn capacitor_is_dc_open() {
        let mut c = Circuit::new("copen");
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, SourceSpec::dc(5.0));
        c.add_resistor("R1", a, b, 1.0e3);
        c.add_capacitor("C1", b, Circuit::GROUND, 1.0e-9);
        let op = solve_dc(&c).unwrap();
        // No DC path through the capacitor → no drop across R1.
        assert!((op.voltage(b) - 5.0).abs() < 1e-3);
    }

    #[test]
    fn vcvs_amplifies() {
        let mut c = Circuit::new("vcvs");
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("V1", inp, Circuit::GROUND, SourceSpec::dc(0.1));
        c.add_resistor("Rin", inp, Circuit::GROUND, 1.0e6);
        c.add_vcvs("E1", out, Circuit::GROUND, inp, Circuit::GROUND, 20.0);
        c.add_resistor("Rload", out, Circuit::GROUND, 1.0e3);
        let op = solve_dc(&c).unwrap();
        assert!((op.voltage(out) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn non_finite_vcvs_gain_fails_fast_with_names() {
        // The gain entry couples the buffer's two block-triangular blocks,
        // so it is stored raw outside both diagonal blocks: the fresh
        // factorization must still reject it up front, by name.
        for gain in [f64::NAN, f64::INFINITY] {
            let mut c = Circuit::new("poisoned buffer");
            let a = c.node("a");
            let b = c.node("b");
            c.add_vsource("V1", a, Circuit::GROUND, SourceSpec::dc(1.0));
            c.add_resistor("R1", a, Circuit::GROUND, 1.0e3);
            c.add_vcvs("E1", b, Circuit::GROUND, a, Circuit::GROUND, gain);
            c.add_resistor("R2", b, Circuit::GROUND, 1.0e3);
            match solve_dc(&c) {
                Err(SpiceError::NonFiniteStamp { row, col, .. }) => {
                    assert_eq!((row.as_str(), col.as_str()), ("I(E1)", "V(a)"));
                }
                other => panic!("gain {gain}: expected NonFiniteStamp, got {other:?}"),
            }
        }
    }

    #[test]
    fn vccs_and_cccs() {
        let mut c = Circuit::new("gm");
        let inp = c.node("in");
        let out = c.node("out");
        let out2 = c.node("out2");
        c.add_vsource("V1", inp, Circuit::GROUND, SourceSpec::dc(1.0));
        c.add_resistor("Rin", inp, Circuit::GROUND, 1.0e3);
        // 1 mS VCCS: i = 1 mA pulled from out (flows out→ground through source).
        c.add_vccs("G1", out, Circuit::GROUND, inp, Circuit::GROUND, 1.0e-3);
        c.add_resistor("Ro", out, Circuit::GROUND, 1.0e3);
        // CCCS mirrors the V1 current into out2.
        c.add_cccs("F1", out2, Circuit::GROUND, "V1", 1.0);
        c.add_resistor("Ro2", out2, Circuit::GROUND, 1.0e3);
        let op = solve_dc(&c).unwrap();
        // VCCS drives current out of node `out` → −1 V across 1 kΩ.
        assert!((op.voltage(out) + 1.0).abs() < 1e-6);
        // V1 sources 1 mA into Rin, so its branch current is −1 mA; the CCCS
        // copies it flowing out of `out2`, giving +1 V across Ro2.
        assert!((op.voltage(out2) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn ccvs_transresistance() {
        let mut c = Circuit::new("ccvs");
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("V1", inp, Circuit::GROUND, SourceSpec::dc(1.0));
        c.add_resistor("R1", inp, Circuit::GROUND, 1.0e3);
        // v(out) = 2000 Ω · i(V1); i(V1) = −1 mA → −2 V.
        c.add_ccvs("H1", out, Circuit::GROUND, "V1", 2.0e3);
        c.add_resistor("Rload", out, Circuit::GROUND, 1.0e4);
        let op = solve_dc(&c).unwrap();
        assert!((op.voltage(out) + 2.0).abs() < 1e-6);
    }

    #[test]
    fn diode_forward_drop() {
        let mut c = Circuit::new("diode");
        let a = c.node("a");
        let k = c.node("k");
        c.add_vsource("V1", a, Circuit::GROUND, SourceSpec::dc(5.0));
        c.add_resistor("R1", a, k, 1.0e3);
        c.add_diode("D1", k, Circuit::GROUND, DiodeModel::default());
        let op = solve_dc(&c).unwrap();
        let vd = op.voltage(k);
        // Forward drop of a silicon diode at a few mA.
        assert!(vd > 0.55 && vd < 0.75, "vd = {vd}");
        // Current through the resistor matches the diode equation.
        let i_r = (5.0 - vd) / 1.0e3;
        let i_d = 1e-14 * ((vd / THERMAL_VOLTAGE).exp() - 1.0);
        assert!((i_r - i_d).abs() / i_r < 1e-3);
    }

    #[test]
    fn bjt_common_emitter_bias() {
        let mut c = Circuit::new("ce");
        let vcc = c.node("vcc");
        let vb = c.node("vb");
        let vc = c.node("vc");
        c.add_vsource("VCC", vcc, Circuit::GROUND, SourceSpec::dc(5.0));
        // Base driven through a large resistor from VCC.
        c.add_resistor("RB", vcc, vb, 430.0e3);
        c.add_resistor("RC", vcc, vc, 2.0e3);
        c.add_bjt(
            "Q1",
            vc,
            vb,
            Circuit::GROUND,
            BjtPolarity::Npn,
            BjtModel {
                bf: 100.0,
                ..Default::default()
            },
        );
        let op = solve_dc(&c).unwrap();
        let vbe = op.voltage(vb);
        let vce = op.voltage(vc);
        assert!(vbe > 0.5 && vbe < 0.8, "vbe = {vbe}");
        // IB ≈ (5 − 0.65)/430k ≈ 10 µA → IC ≈ 1 mA → VC ≈ 5 − 2 = 3 V.
        assert!(vce > 2.0 && vce < 4.0, "vce = {vce}");
    }

    #[test]
    fn nmos_diode_connected() {
        let mut c = Circuit::new("mosdiode");
        let vdd = c.node("vdd");
        let d = c.node("d");
        c.add_vsource("VDD", vdd, Circuit::GROUND, SourceSpec::dc(3.0));
        c.add_resistor("R1", vdd, d, 10.0e3);
        c.add_mosfet(
            "M1",
            d,
            d,
            Circuit::GROUND,
            MosfetPolarity::Nmos,
            20.0e-6,
            1.0e-6,
            MosfetModel {
                vto: 0.7,
                kp: 100.0e-6,
                lambda: 0.0,
                ..Default::default()
            },
        );
        let op = solve_dc(&c).unwrap();
        let vgs = op.voltage(d);
        // Solve 0.5·β·(vgs−vth)² = (3−vgs)/10k numerically: vgs ≈ 1.15 V.
        let beta = 100e-6 * 20.0;
        let lhs = 0.5 * beta * (vgs - 0.7) * (vgs - 0.7);
        let rhs = (3.0 - vgs) / 10.0e3;
        assert!((lhs - rhs).abs() / rhs < 1e-3, "vgs = {vgs}");
        assert!(vgs > 0.9 && vgs < 1.4, "vgs = {vgs}");
    }

    #[test]
    fn cmos_inverter_midpoint() {
        let mut c = Circuit::new("inv");
        let vdd = c.node("vdd");
        let vin = c.node("in");
        let vout = c.node("out");
        c.add_vsource("VDD", vdd, Circuit::GROUND, SourceSpec::dc(3.0));
        c.add_vsource("VIN", vin, Circuit::GROUND, SourceSpec::dc(1.5));
        let nmodel = MosfetModel {
            vto: 0.7,
            kp: 100e-6,
            lambda: 0.05,
            ..Default::default()
        };
        let pmodel = MosfetModel {
            vto: -0.7,
            kp: 50e-6,
            lambda: 0.05,
            ..Default::default()
        };
        c.add_mosfet(
            "MN",
            vout,
            vin,
            Circuit::GROUND,
            MosfetPolarity::Nmos,
            10e-6,
            1e-6,
            nmodel,
        );
        c.add_mosfet(
            "MP",
            vout,
            vin,
            vdd,
            MosfetPolarity::Pmos,
            20e-6,
            1e-6,
            pmodel,
        );
        let op = solve_dc(&c).unwrap();
        let vo = op.voltage(vout);
        // With matched drive strengths the switching output sits mid-rail-ish.
        assert!(vo > 0.3 && vo < 2.7, "vout = {vo}");
    }

    #[test]
    fn validation_failure_is_reported() {
        let mut c = Circuit::new("bad");
        let a = c.node("a");
        let b = c.node("b");
        c.add_resistor("R1", a, b, 1.0);
        c.add_resistor("R2", a, b, 1.0);
        assert!(matches!(solve_dc(&c), Err(SpiceError::Netlist(_))));
    }

    #[test]
    fn singular_circuit_is_reported() {
        // Two ideal voltage sources in parallel with different values cannot
        // be satisfied; with only sources and no resistive path the matrix is
        // fine, so instead build a current source driving an open node
        // chain... simplest singular case: a current source in series with a
        // capacitor (no DC path).
        let mut c = Circuit::new("singular");
        let a = c.node("a");
        let b = c.node("b");
        c.add_isource("I1", Circuit::GROUND, a, SourceSpec::dc(1e-3));
        c.add_capacitor("C1", a, b, 1e-9);
        c.add_resistor("R1", b, Circuit::GROUND, 1e3);
        // GMIN keeps this solvable, but the node voltage is enormous.
        let op = solve_dc(&c).unwrap();
        assert!(op.voltage(a).abs() > 1e6);
    }

    #[test]
    fn operating_point_accessors() {
        let mut c = Circuit::new("acc");
        let a = c.node("a");
        c.add_vsource("V1", a, Circuit::GROUND, SourceSpec::dc(1.0));
        c.add_resistor("R1", a, Circuit::GROUND, 1.0);
        let op = solve_dc(&c).unwrap();
        assert_eq!(op.node_voltages().len(), 2);
        assert!(op.iterations() >= 1);
        assert!(op.branch_current("R1").is_none());
        assert!(op.branch_current("V1").is_some());
        assert_eq!(op.voltage(Circuit::GROUND), 0.0);
    }

    #[test]
    fn branch_currents_print_in_layout_order_on_every_run() {
        let mut c = Circuit::new("branches");
        let a = c.node("a");
        let b = c.node("b");
        let d = c.node("d");
        let e = c.node("e");
        c.add_vsource("Vz", a, Circuit::GROUND, SourceSpec::dc(1.0));
        c.add_resistor("R1", a, b, 1.0e3);
        c.add_inductor("La", b, d, 1.0e-6);
        c.add_resistor("R2", d, Circuit::GROUND, 1.0e3);
        c.add_vcvs("Em", e, Circuit::GROUND, d, Circuit::GROUND, 2.0);
        c.add_resistor("R3", e, Circuit::GROUND, 1.0e3);
        let f = c.node("f");
        c.add_ccvs("Hb", f, Circuit::GROUND, "Vz", 1.0e3);
        c.add_resistor("R4", f, Circuit::GROUND, 1.0e3);
        let first = solve_dc(&c).unwrap();
        let names: Vec<&str> = first
            .branch_currents()
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(names, ["Vz", "La", "Em", "Hb"]);
        let layout = MnaLayout::new(&c);
        for (name, i) in first.branch_currents() {
            assert!(layout.branch_var(name).is_some());
            assert_eq!(first.branch_current(name), Some(*i));
        }
        let text = format!("{first:?}");
        for _ in 0..12 {
            assert_eq!(format!("{:?}", solve_dc(&c).unwrap()), text);
        }
    }

    #[test]
    fn invalid_options_are_rejected_up_front() {
        let mut c = Circuit::new("opts");
        let a = c.node("a");
        c.add_vsource("V1", a, Circuit::GROUND, SourceSpec::dc(1.0));
        c.add_resistor("R1", a, Circuit::GROUND, 1.0);

        let check = |opts: DcOptions, needle: &str| {
            let err = solve_dc_with(&c, &opts).unwrap_err();
            match err {
                SpiceError::InvalidOptions(msg) => {
                    assert!(msg.contains(needle), "message `{msg}` missing `{needle}`")
                }
                other => panic!("expected InvalidOptions, got {other:?}"),
            }
        };

        check(
            DcOptions {
                max_iterations: 0,
                ..Default::default()
            },
            "max_iterations",
        );
        check(
            DcOptions {
                vntol: f64::NAN,
                ..Default::default()
            },
            "vntol",
        );
        check(
            DcOptions {
                reltol: 0.0,
                ..Default::default()
            },
            "reltol",
        );
        check(
            DcOptions {
                max_step: f64::INFINITY,
                ..Default::default()
            },
            "max_step",
        );
        check(
            DcOptions {
                source_steps: 0,
                ..Default::default()
            },
            "source_steps",
        );
        for gmin_decades in [MAX_GMIN_DECADES + 1, usize::MAX] {
            check(
                DcOptions {
                    gmin_decades,
                    ..Default::default()
                },
                "gmin_decades",
            );
        }
        assert!(DcOptions::default().validate().is_ok());
        let deepest = DcOptions {
            gmin_decades: MAX_GMIN_DECADES,
            ..Default::default()
        };
        assert!(deepest.validate().is_ok());
        // The bound is the last decade whose shunt is a normal float.
        assert!(gmin_shunt(MAX_GMIN_DECADES).is_normal());
        assert!(!gmin_shunt(MAX_GMIN_DECADES + 1).is_normal());
    }

    #[test]
    fn convergence_report_for_a_linear_circuit_is_one_newton_stage() {
        let mut c = Circuit::new("divider");
        let vin = c.node("in");
        let mid = c.node("mid");
        c.add_vsource("V1", vin, Circuit::GROUND, SourceSpec::dc(10.0));
        c.add_resistor("R1", vin, mid, 3.0e3);
        c.add_resistor("R2", mid, Circuit::GROUND, 1.0e3);
        let op = solve_dc(&c).unwrap();
        let report = op.convergence();
        assert_eq!(report.phase(), DcPhase::Newton);
        assert_eq!(report.stages().len(), 1);
        let stage = &report.stages()[0];
        assert!(stage.converged);
        assert_eq!(stage.stage, 0);
        assert_eq!(stage.iterations, 1);
        assert!(stage.final_delta.is_finite());
        assert_eq!(report.total_iterations(), op.iterations());
    }

    /// 5 V through 1 kΩ into a default diode.
    fn diode_circuit() -> Circuit {
        let mut c = Circuit::new("diode");
        let a = c.node("a");
        let k = c.node("k");
        c.add_vsource("V1", a, Circuit::GROUND, SourceSpec::dc(5.0));
        c.add_resistor("R1", a, k, 1.0e3);
        c.add_diode("D1", k, Circuit::GROUND, DiodeModel::default());
        c
    }

    #[test]
    fn convergence_report_tracks_nonlinear_newton_iterations() {
        let c = diode_circuit();
        let op = solve_dc(&c).unwrap();
        let report = op.convergence();
        // Direct Newton converges here, so there is exactly one stage, and a
        // nonlinear circuit takes more than one iteration.
        assert_eq!(report.phase(), DcPhase::Newton);
        assert_eq!(report.stages().len(), 1);
        assert!(report.stages()[0].converged);
        assert!(report.stages()[0].iterations > 1);
        // The final delta at convergence is below the combined tolerance
        // envelope (vntol + reltol·|v| with |v| < 5 V here).
        let opts = DcOptions::default();
        assert!(report.stages()[0].final_delta <= opts.vntol + opts.reltol * 5.0);
        assert_eq!(report.total_iterations(), op.iterations());
    }

    /// The search of [`diode_circuit`], which escalates deterministically
    /// once its Newton runs are starved of iterations.
    fn starved_diode_search(
        opts: DcOptions,
    ) -> (OperatingPoint, Vec<(DcPhase, usize, usize, bool)>) {
        let c = diode_circuit();
        let op = solve_dc_with(&c, &opts).unwrap();
        assert_eq!(op.iterations(), op.convergence().total_iterations());
        let trace = op
            .convergence()
            .stages()
            .iter()
            .map(|s| (s.phase, s.stage, s.iterations, s.converged))
            .collect();
        (op, trace)
    }

    #[test]
    fn a_failed_newton_stage_escalates_to_a_converging_gmin_search() {
        let (op, trace) = starved_diode_search(DcOptions {
            max_iterations: 16,
            ..Default::default()
        });
        let mut want = vec![(DcPhase::Newton, 0, 16, false)];
        let gmin_iterations = [11, 16, 4, 3, 2, 2, 1, 1, 1, 1, 1, 1];
        want.extend(
            gmin_iterations
                .iter()
                .enumerate()
                .map(|(stage, &n)| (DcPhase::GminStepping, stage, n, true)),
        );
        assert_eq!(trace, want);
        assert_eq!(op.convergence().phase(), DcPhase::GminStepping);
    }

    #[test]
    fn a_failed_gmin_search_escalates_to_a_converging_source_ramp() {
        let (op, trace) = starved_diode_search(DcOptions {
            max_iterations: 11,
            gmin_decades: 1,
            source_steps: 20,
            ..Default::default()
        });
        let mut want = vec![
            (DcPhase::Newton, 0, 11, false),
            (DcPhase::GminStepping, 0, 11, true),
            (DcPhase::GminStepping, 1, 11, false),
        ];
        let ramp = [2, 4, 10, 5, 5, 4, 4, 4, 4, 4, 4, 3, 3, 3, 3, 3, 3, 3, 3, 3];
        want.extend(
            ramp.iter()
                .enumerate()
                .map(|(k, &n)| (DcPhase::SourceStepping, k + 1, n, true)),
        );
        assert_eq!(trace, want);
        assert_eq!(op.convergence().phase(), DcPhase::SourceStepping);
    }

    /// Every stage of the continuation ladder, a few Newton iterations
    /// each: the image-served assemblies are bitwise the full stamped ones,
    /// on a circuit whose resistor and current source stamp after a device
    /// into its slots and rows.
    #[test]
    fn newton_image_loads_match_every_stepping_stage() {
        let mut c = Circuit::new("stepping stages");
        let vcc = c.node("vcc");
        let b = c.node("b");
        let col = c.node("c");
        c.add_vsource("VCC", vcc, Circuit::GROUND, SourceSpec::dc(5.0));
        c.add_resistor("RB", vcc, b, 430.0e3);
        c.add_bjt(
            "Q1",
            col,
            b,
            Circuit::GROUND,
            BjtPolarity::Npn,
            BjtModel::default(),
        );
        c.add_diode("D1", b, Circuit::GROUND, DiodeModel::default());
        c.add_resistor("RC", vcc, col, 2.0e3);
        c.add_isource("IB", Circuit::GROUND, b, SourceSpec::dc(1.0e-6));
        let layout = MnaLayout::new(&c);
        let opts = DcOptions::default();
        let mut ctx = SolveContext::adopting(&layout);
        let mut reference = SolveContext::adopting(&layout);
        let (mut rhs, mut want_rhs) = (Vec::new(), Vec::new());
        let mut loads = 0;
        let mut stamps = Vec::new();
        for (_, _, source_scale, gshunt) in continuation_stages(&opts) {
            for k in 0..4 {
                let voltages = [0.0, 5.0, 0.6 + 0.01 * k as f64, 2.0 - 0.1 * k as f64];
                devices::stamp_devices(&c, &layout, &voltages, &mut stamps);
                let job = DcSystem {
                    circuit: &c,
                    layout: &layout,
                    stamps: Cow::Borrowed(&stamps),
                    device_key: fresh_device_key(),
                    source_scale,
                    gshunt,
                };
                ctx.assemble_newton_into(&job, &mut rhs);
                reference.assemble_into(&job, &mut want_rhs);
                let bits = |m: &loopscope_sparse::CsrMatrix<f64>| -> Vec<u64> {
                    m.iter().map(|e| e.2.to_bits()).collect()
                };
                assert_eq!(bits(ctx.matrix()), bits(reference.matrix()));
                let rhs_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(rhs_bits(&rhs), rhs_bits(&want_rhs));
                if ctx
                    .newton_image()
                    .is_some_and(|i| i.key() == job.matrix_key())
                {
                    loads += 1;
                }
            }
        }
        // Each gmin stage compiles on its second iteration and loads after;
        // the source-stepping stages share the zero-shunt key's image.
        assert!(loads >= 2 * (opts.gmin_decades + 1) + 3 * opts.source_steps);
        let image = ctx.newton_image().unwrap();
        assert!(
            image.tail_len() > 0,
            "RC stamps after Q1 into V(c)'s diagonal"
        );
    }

    #[test]
    fn no_convergence_error_carries_real_iteration_data() {
        // A diode circuit given a single Newton iteration cannot converge;
        // the search runs through every phase and the final error must carry
        // the true iteration count and a finite final delta (never NaN).
        let c = diode_circuit();
        let opts = DcOptions {
            max_iterations: 1,
            gmin_decades: 2,
            source_steps: 2,
            ..Default::default()
        };
        match solve_dc_with(&c, &opts) {
            Err(SpiceError::DcNoConvergence {
                iterations,
                max_delta,
            }) => {
                assert_eq!(iterations, 1);
                assert!(max_delta.is_finite(), "max_delta = {max_delta}");
                assert!(max_delta > 0.0);
            }
            other => panic!("expected DcNoConvergence, got {other:?}"),
        }
    }
}
