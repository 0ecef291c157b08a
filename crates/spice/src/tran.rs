//! Transient (time-domain) analysis.
//!
//! Transient analysis is the substrate for the *traditional* stability check
//! the paper compares against — "node pulsing": apply a small step to the
//! closed-loop circuit and read the overshoot of the response. Integration
//! uses backward Euler or trapezoidal companion models; nonlinear devices
//! are resolved with Newton iteration at every time point.
//!
//! # One stepper
//!
//! Every run steps through one *accept-or-escalate ladder* that mirrors
//! the solver's verified-solve retry ladder on the time axis. A step is
//! solved, its local truncation error (LTE) estimated from a
//! predictor–corrector difference against `reltol`/`abstol`, and then
//! either **accepted** (growing the next step, capped at `dt_max` and the
//! next breakpoint) or **rejected** — halve the width and retry. Newton
//! non-convergence is just another rejection rung (halve; at `dt_min`
//! switch the step to backward Euler) before the run surfaces
//! [`SpiceError::TransientNoConvergence`] enriched with the recorded
//! [`rejection history`](crate::error::StepRejection).
//!
//! Step targets are counted, not accumulated: `origin + k·h`, with `k`
//! counted from the last width change, breakpoint landing or the start.
//!
//! A **breakpoint schedule** harvested from source discontinuities
//! ([`loopscope_netlist::Waveform::breakpoints`]) forces exact landings:
//! the step *ending* on a breakpoint evaluates sources by their left limit
//! and the step *starting* there restarts with one backward-Euler step at
//! `dt_min` (the same start-up treatment `t = 0` gets), so a discontinuity
//! is never integrated across.
//!
//! A **fixed grid** ([`TransientOptions::new`], `dt_min == dt_max`) is the
//! same ladder at a width that cannot change: no LTE test, an empty
//! breakpoint schedule (sources are sampled on the grid's own points), and
//! targets `k·dt` bit for bit, with the final step shortened to land
//! exactly on `t_stop`. Only a Newton failure can reject one of its steps,
//! and the only rung left is the backward-Euler retry.
//!
//! # Device capacitances are not stamped
//!
//! Each Newton iteration stamps the diodes', BJTs' and MOSFETs' Newton
//! conductances and companion currents only. Their capacitance parameters
//! (`cj0`; `cje`, `cjc`, `tf`; `cgs`, `cgd`, `cdb`) enter the AC analysis
//! alone, so an overshoot measured here — the ζ(overshoot) of Table 2 —
//! comes from a circuit without the devices' charge: only explicit
//! capacitors and inductors carry reactive history.
//!
//! # Device bypass
//!
//! A Newton iteration whose trial point is within `vntol` of the node
//! voltages the devices were last evaluated at, at every signal node,
//! reuses every device's last stamp instead of evaluating the devices
//! again (SPICE2's bypass; Nagel, UCB/ERL M520, 1975). The first iteration
//! of a step starts from the previous step's converged point and is
//! usually bypassed. The loop numbers its device evaluations and hands
//! that ordinal to the solver as the job's device key, so a bypassed
//! iteration with an unchanged `(dt, method)` key loads only its
//! right-hand side over the values last factored, and the solver reuses
//! its factors ([`SolveContext::assemble_newton_into`],
//! [`SolveContext::factor`]). The verified solve runs at every iteration.
//! Bypass is a tolerance contract: a bypassed device is linearized up to
//! `vntol` away from its trial point, which moves a converged solution by
//! at most about `1.5·H·vntol²` of current per terminal row (`H` the row's
//! second derivatives; the derivation is in the provenance of the
//! `tran_table2_step` golden).
//!
//! The step sequence is a pure deterministic function of (circuit, options):
//! every accept/reject decision is computed from residual-verified solutions
//! that are themselves bitwise identical at any `LOOPSCOPE_THREADS`
//! setting, so the produced grid — and every counter in
//! [`TransientStats`] — is bit-identical across those configurations.

use crate::assembly::{fresh_device_key, AssembleMna, NewtonJob, SolveContext, SolveStats};
use crate::dc::OperatingPoint;
use crate::devices::{self, NonlinearStamp};
use crate::error::{SpiceError, StepRejectReason, StepRejection};
use crate::mna::{MatrixSink, MnaLayout, StampModel, StampPart, Stamper};
use crate::GMIN;
use loopscope_math::interp;
use loopscope_netlist::{Capacitor, Circuit, Element, Inductor, NodeId, SourceSpec};
use std::borrow::Cow;

/// Step-growth threshold: the next step doubles only when the worst LTE
/// ratio of the accepted step is at or below this fraction of the tolerance.
/// With the trapezoidal rule's ~`h³` local error, doubling multiplies the
/// estimate by ~8x, so growing at ≤ 0.1 keeps the post-growth ratio below 1
/// and avoids accept/reject limit cycles.
const LTE_GROW_THRESHOLD: f64 = 0.1;

/// Relative landing tolerance of the stepper, as a fraction of
/// `t_stop`: breakpoints closer than this to each other (or to `t_stop`)
/// merge into one landing, and a step that would stop closer than this
/// short of `t_stop` lands on `t_stop` instead (stretching the controller's
/// width by at most `t_stop · LANDING_RTOL`) — either way no ulp-wide sliver
/// step is ever taken.
const LANDING_RTOL: f64 = 1.0e-12;

/// Time-integration method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Integration {
    /// Backward Euler: L-stable, slightly lossy; good default for stiff
    /// circuits and start-up transients.
    BackwardEuler,
    /// Trapezoidal rule: second-order accurate, preserves oscillation
    /// amplitude much better — preferred for ringing/overshoot measurements.
    ///
    /// The very first time point integrates with one Backward Euler step:
    /// the trapezoidal companion models reference the previous capacitor
    /// current / inductor voltage, and at `t = 0` those come from the DC
    /// operating point, which is inconsistent with a source that steps at
    /// `t = 0⁺` (SPICE's classic trapezoidal start-up problem — without the
    /// BE step the whole waveform lags the analytic response by `dt/2`,
    /// a first-order error that golden-data validation flags immediately).
    /// Backward Euler's companions only need the previous *state*, and the
    /// reactive currents they produce are consistent start-up values for
    /// the trapezoidal steps that follow, restoring second-order accuracy.
    Trapezoidal,
}

/// Options controlling a transient run.
///
/// `dt_min == dt_max` is a **fixed grid** (and `reltol`/`abstol` are
/// unused); `dt_max > dt_min` lets the step controller of the
/// [module docs](crate::tran) move the width between the two.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientOptions {
    /// Smallest step the ladder may take, in seconds. On a fixed grid
    /// this *is* the step. (Breakpoint landings may still produce a
    /// shorter step when two breakpoints lie closer than `dt_min`.)
    pub dt_min: f64,
    /// Largest step the controller may grow to, in seconds. Equal to
    /// `dt_min` for a fixed grid.
    pub dt_max: f64,
    /// Stop time in seconds (the run covers `0..=t_stop`).
    pub t_stop: f64,
    /// Integration method.
    pub method: Integration,
    /// Maximum Newton iterations per time point.
    pub max_newton: usize,
    /// Newton convergence tolerance on node voltages, volts.
    pub vntol: f64,
    /// Relative LTE tolerance of the adaptive step control (dimensionless).
    pub reltol: f64,
    /// Absolute LTE tolerance of the adaptive step control, volts.
    pub abstol: f64,
}

impl TransientOptions {
    /// Creates **fixed-grid** options with the given step and stop time,
    /// trapezoidal integration and default Newton settings.
    pub fn new(dt: f64, t_stop: f64) -> Self {
        Self {
            dt_min: dt,
            dt_max: dt,
            t_stop,
            method: Integration::Trapezoidal,
            max_newton: 50,
            vntol: 1.0e-9,
            reltol: 1.0e-3,
            abstol: 1.0e-6,
        }
    }

    /// Creates **adaptive** options stepping between `dt_min` and `dt_max`,
    /// with trapezoidal integration, default Newton settings and the default
    /// LTE tolerances (`reltol = 1e-3`, `abstol = 1e-6`).
    pub fn adaptive(dt_min: f64, dt_max: f64, t_stop: f64) -> Self {
        Self {
            dt_min,
            dt_max,
            ..Self::new(dt_min, t_stop)
        }
    }

    /// Whether the step width may change (`dt_max > dt_min`); `false` is
    /// a fixed grid.
    pub fn is_adaptive(&self) -> bool {
        self.dt_max > self.dt_min
    }
}

/// Counters describing how a transient run stepped — the time-axis analogue
/// of [`SolveStats`], which makes the adaptive ladder's behaviour assertable
/// in tests and benchmarks.
///
/// Like the step sequence itself, every counter is a pure deterministic
/// function of (circuit, options) and bit-identical at any
/// `LOOPSCOPE_THREADS` setting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientStats {
    /// Steps accepted into the result (`times().len() - 1`).
    pub accepted_steps: usize,
    /// Step attempts rejected by the ladder (LTE over tolerance or Newton
    /// non-convergence) and retried at a smaller width or with backward
    /// Euler. On a fixed grid only a Newton failure rejects a step, so this
    /// is non-zero there only after a backward-Euler rescue.
    pub rejected_steps: usize,
    /// Steps accepted *despite* an LTE estimate over tolerance because the
    /// width had already reached `dt_min` — graceful degradation instead of
    /// a hard abort. Always zero on a fixed grid, which has no LTE test.
    pub forced_accepts: usize,
    /// Total Newton iterations across all attempts (accepted and rejected).
    pub newton_iterations: usize,
    /// Newton iterations that reused every device's last stamp instead of
    /// evaluating the devices again, because every signal node sat within
    /// `vntol` of the voltages the stamps were evaluated at (device bypass;
    /// see the [module docs](crate::tran)). Always zero on a linear circuit.
    pub bypassed_iterations: usize,
    /// Smallest accepted step width, seconds (`+∞` before any step).
    pub min_dt: f64,
    /// Largest accepted step width, seconds (`0` before any step).
    pub max_dt: f64,
    /// Breakpoints the stepper landed on exactly (source discontinuities;
    /// the plain `t_stop` landing is not counted unless a discontinuity
    /// falls there). Always zero on a fixed grid, which has no breakpoint
    /// schedule.
    pub breakpoints_hit: usize,
    /// Linear-solver counters accumulated over the whole run.
    pub solve: SolveStats,
}

impl Default for TransientStats {
    fn default() -> Self {
        Self {
            accepted_steps: 0,
            rejected_steps: 0,
            forced_accepts: 0,
            newton_iterations: 0,
            bypassed_iterations: 0,
            min_dt: f64::INFINITY,
            max_dt: 0.0,
            breakpoints_hit: 0,
            solve: SolveStats::default(),
        }
    }
}

impl TransientStats {
    /// Records an accepted step of width `dt`.
    fn record_accept(&mut self, dt: f64) {
        self.accepted_steps += 1;
        self.min_dt = self.min_dt.min(dt);
        self.max_dt = self.max_dt.max(dt);
    }
}

/// Result of a transient run: node-voltage waveforms on a time grid.
#[derive(Debug, Clone)]
pub struct TransientResult {
    times: Vec<f64>,
    /// Node voltages, one row of `stride` values per time point:
    /// `data[time_index * stride + node_index]`.
    data: Vec<f64>,
    /// Values per row: the circuit's node count, ground included.
    stride: usize,
    stats: TransientStats,
}

impl TransientResult {
    /// The simulation time points in seconds, strictly increasing. The last
    /// point lands **exactly** on the requested `t_stop` (never past it —
    /// overshoot would corrupt overshoot/settling measurements read off the
    /// tail).
    ///
    /// The grid is **not uniform in general**: a fixed-grid run samples
    /// `k·dt` except for a possibly shortened final step, while an
    /// adaptive run's spacing varies from `dt_min` to `dt_max` (and below
    /// `dt_min` only for breakpoint landings). Consumers must pair each
    /// sample with its entry here rather than assume `i * dt` — or use
    /// [`value_at`](TransientResult::value_at), which interpolates on the
    /// actual grid.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Step-control counters for the run (accepted/rejected steps, Newton
    /// iterations, min/max accepted `dt`, breakpoints hit, solver ladder
    /// counters).
    pub fn stats(&self) -> &TransientStats {
        &self.stats
    }

    /// Number of stored time points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Returns `true` when the result holds no time points.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Bounds-checks `node`'s index against the simulated circuit's node
    /// count and returns its waveform index. (A `NodeId` minted by a
    /// different circuit is only caught when its index is out of range —
    /// node ids carry no circuit identity.)
    fn node_index(&self, node: NodeId) -> Result<usize, SpiceError> {
        let idx = node.index();
        if idx < self.stride && !self.data.is_empty() {
            Ok(idx)
        } else {
            Err(SpiceError::UnknownReference(format!(
                "node index {idx} outside the transient result"
            )))
        }
    }

    /// The waveform of a node across the whole run.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownReference`] when `node`'s index lies
    /// outside the simulated circuit's nodes (or the result is empty).
    pub fn waveform(&self, node: NodeId) -> Result<Vec<f64>, SpiceError> {
        let idx = self.node_index(node)?;
        Ok(self
            .data
            .chunks_exact(self.stride)
            .map(|row| row[idx])
            .collect())
    }

    /// The node voltage linearly interpolated at time `t` (clamped to the
    /// first/last sample outside the simulated range). Interpolation is over
    /// the **actual, possibly non-uniform** [`times`](TransientResult::times)
    /// grid — each bracketing sample pair is looked up by binary search, so
    /// adaptive runs interpolate correctly across their varying step widths.
    /// Interpolates directly over the stored rows via
    /// [`interp::lerp_at_by`] — the node's waveform vector is **not**
    /// materialized per call.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownReference`] when `node`'s index lies
    /// outside the simulated circuit's nodes (or the result is empty).
    pub fn value_at(&self, node: NodeId, t: f64) -> Result<f64, SpiceError> {
        let idx = self.node_index(node)?;
        Ok(interp::lerp_at_by(&self.times, t, |i| {
            self.data[i * self.stride + idx]
        }))
    }
}

/// Transient analysis driver.
#[derive(Debug)]
pub struct TransientAnalysis<'c> {
    circuit: &'c Circuit,
    layout: MnaLayout,
    options: TransientOptions,
    /// Source discontinuities the stepper lands on, sorted and merged;
    /// empty on a fixed grid.
    breakpoints: Vec<f64>,
    /// Result rows reserved up front: every row of a fixed grid.
    rows: usize,
}

impl<'c> TransientAnalysis<'c> {
    /// Prepares a transient analysis.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidOptions`] for a non-positive `dt_min`, a
    /// `dt_max` below `dt_min`, a `t_stop` shorter than one minimum step, a
    /// zero `max_newton`, non-finite or non-positive `vntol`/`reltol`/
    /// `abstol`, a `t_stop / dt_max` step count whose result rows cannot be
    /// allocated, and [`SpiceError::Netlist`] if the circuit fails
    /// validation.
    pub fn new(circuit: &'c Circuit, options: TransientOptions) -> Result<Self, SpiceError> {
        circuit.validate().map_err(SpiceError::Netlist)?;
        if !(options.dt_min > 0.0 && options.dt_min.is_finite()) {
            return Err(SpiceError::InvalidOptions(
                "time step must be positive".to_string(),
            ));
        }
        if !(options.dt_max.is_finite() && options.dt_max >= options.dt_min) {
            return Err(SpiceError::InvalidOptions(
                "dt_max must be finite and at least dt_min".to_string(),
            ));
        }
        if options.max_newton == 0 {
            return Err(SpiceError::InvalidOptions(
                "max_newton must be at least 1".to_string(),
            ));
        }
        if !(options.vntol > 0.0 && options.vntol.is_finite()) {
            return Err(SpiceError::InvalidOptions(
                "vntol must be finite and positive".to_string(),
            ));
        }
        if !(options.reltol > 0.0 && options.reltol.is_finite()) {
            return Err(SpiceError::InvalidOptions(
                "reltol must be finite and positive".to_string(),
            ));
        }
        if !(options.abstol > 0.0 && options.abstol.is_finite()) {
            return Err(SpiceError::InvalidOptions(
                "abstol must be finite and positive".to_string(),
            ));
        }
        // `t_stop == dt_min` is a perfectly valid single-step run; only a
        // stop time short of one minimum step is inconsistent.
        let stop_valid = options.t_stop.is_finite() && options.t_stop >= options.dt_min;
        if !stop_valid {
            return Err(SpiceError::InvalidOptions(
                "stop time must be at least one time step".to_string(),
            ));
        }
        // A fixed grid samples sources on its own points: it never lands
        // on a breakpoint.
        let breakpoints = if options.is_adaptive() {
            Self::breakpoints(circuit, options.t_stop)
        } else {
            Vec::new()
        };
        // A fixed grid takes at most `⌈t_stop/dt⌉` steps; the initial row
        // and rounding slack make the `+ 2`. The `as` cast saturates, so an
        // absurd step count fails the checked arithmetic instead of
        // overflowing the reservation.
        let row_bytes = circuit.node_count() * std::mem::size_of::<f64>();
        let rows = ((options.t_stop / options.dt_max).ceil() as usize)
            .checked_add(breakpoints.len() + 2)
            .filter(|rows| {
                rows.checked_mul(row_bytes)
                    .is_some_and(|bytes| bytes <= isize::MAX as usize)
            })
            .ok_or_else(|| unallocatable_rows(&options))?;
        Ok(Self {
            circuit,
            layout: MnaLayout::new(circuit),
            options,
            breakpoints,
            rows,
        })
    }

    /// The breakpoint schedule of a run to `t_stop`: source discontinuities
    /// in `(0, t_stop]`, sorted and merged. Points within a relative
    /// tolerance of each other collapse to one landing (two ulp-apart edges
    /// must not force a degenerate ulp-wide step), and a point within
    /// tolerance of `t_stop` snaps onto it so the final landing doubles as
    /// the breakpoint landing.
    fn breakpoints(circuit: &Circuit, t_stop: f64) -> Vec<f64> {
        let tol = t_stop * LANDING_RTOL;
        let mut bps = Vec::new();
        for el in circuit.elements() {
            let spec = match el {
                Element::Vsource(v) => &v.spec,
                Element::Isource(i) => &i.spec,
                _ => continue,
            };
            spec.waveform.breakpoints(&mut bps);
        }
        for b in &mut bps {
            if (*b - t_stop).abs() <= tol {
                *b = t_stop;
            }
        }
        // `t = 0` needs no landing — the run starts there (and takes the
        // same backward-Euler restart step a breakpoint landing triggers).
        bps.retain(|&b| b > tol && b <= t_stop);
        bps.sort_by(f64::total_cmp);
        bps.dedup_by(|next, kept| *next - *kept <= tol);
        bps
    }

    /// Runs the transient analysis starting from the given operating point,
    /// through the accept-or-escalate stepper of the
    /// [module docs](crate::tran) (a fixed grid when `dt_max == dt_min`).
    ///
    /// # Errors
    ///
    /// Returns a hard solver failure ([`SpiceError::SingularSystem`],
    /// [`SpiceError::NonFiniteStamp`], [`SpiceError::ResidualCheckFailed`] or
    /// [`SpiceError::Linear`]) if a time-point system cannot be solved even
    /// through the solver's retry ladder, or
    /// [`SpiceError::TransientNoConvergence`] — naming the time point, step
    /// index, worst-residual node and the rejected step attempts — once the
    /// step ladder is exhausted at `dt_min`, or
    /// [`SpiceError::InvalidOptions`] when the allocator refuses the result
    /// rows.
    pub fn run(&self, op: &OperatingPoint) -> Result<TransientResult, SpiceError> {
        self.run_impl(op, |_, _| {})
    }

    /// Like [`run`](TransientAnalysis::run), but invoking `hook` with the
    /// 0-based solve ordinal and the solver between assembly and the
    /// verified solve of **every** Newton iteration — the seam the
    /// fault-injection suites use to poison stamped values at a
    /// deterministic point of the run. Compiled only for tests and under the
    /// `fault-inject` feature; never part of the production surface.
    ///
    /// # Errors
    ///
    /// As [`run`](TransientAnalysis::run) — including any failure the
    /// injected perturbation provokes.
    #[cfg(any(test, feature = "fault-inject"))]
    pub fn run_with_hook(
        &self,
        op: &OperatingPoint,
        hook: impl FnMut(usize, &mut SolveContext<'_, f64>),
    ) -> Result<TransientResult, SpiceError> {
        self.run_impl(op, hook)
    }

    /// The accept-or-escalate stepper (see the [module docs](crate::tran)
    /// for the ladder). A fixed grid is this loop at a width that cannot
    /// change: no LTE test and an empty breakpoint schedule.
    fn run_impl<F: FnMut(usize, &mut SolveContext<'_, f64>)>(
        &self,
        op: &OperatingPoint,
        mut hook: F,
    ) -> Result<TransientResult, SpiceError> {
        let node_count = self.circuit.node_count();
        let opts = &self.options;
        let t_stop = opts.t_stop;
        let fixed = !opts.is_adaptive();
        let bps = &self.breakpoints;

        // State carried between time points.
        let mut voltages = op.node_voltages().to_vec();
        let mut prev_cap_current: Vec<f64> = vec![0.0; self.circuit.elements().len()];
        let mut prev_ind_voltage: Vec<f64> = vec![0.0; self.circuit.elements().len()];
        let mut branch_currents: Vec<f64> = vec![0.0; self.layout.dim()];
        // Seed inductor currents from the operating point.
        for (ei, el) in self.circuit.elements().iter().enumerate() {
            if let Element::Inductor(l) = el {
                if let Some(i0) = op.branch_current(&l.name) {
                    if let Some(var) = self.layout.element_branch(ei) {
                        branch_currents[var] = i0;
                    }
                }
                prev_ind_voltage[ei] = voltages[l.a.index()] - voltages[l.b.index()];
            }
        }

        // The result is reserved up front for every row of a fixed grid, so
        // accepting a step there allocates nothing. A reservation the
        // allocator refuses is an error, not an abort.
        let mut times = Vec::new();
        let mut data = Vec::new();
        times
            .try_reserve_exact(self.rows)
            .and_then(|()| data.try_reserve_exact(self.rows * node_count))
            .map_err(|_| unallocatable_rows(opts))?;
        times.push(0.0);
        data.extend_from_slice(&voltages);

        // Companion-model restamping never changes the sparsity pattern, so
        // one adopting context serves every Newton iteration of every
        // timestep, and its Newton image compiles each `(dt, method)`
        // system's linear stamps once.
        let mut solver = SolveContext::adopting(&self.layout);

        // Newton trial state, reused across every iteration of every step
        // (ground stays zero; all other entries are rewritten per iteration).
        // The solution buffer is hoisted too: it cycles through assemble →
        // verified solve (the retry ladder's refinement
        // workspace and rhs backup live inside the solver and are warm after
        // the first step), so the steady-state Newton loop performs zero heap
        // allocations (proven by `tests/alloc_transient.rs`).
        let mut trial = voltages.clone();
        let mut next = vec![0.0; node_count];
        let mut solution = vec![0.0; self.layout.dim()];
        // Device bypass: each device's latest stamp, in stamp order, the
        // node voltages they were evaluated at (NaN until the first
        // evaluation, so that one never bypasses) and the ordinal of that
        // evaluation, the jobs' device key.
        let device_count = self.layout.device_elements().len();
        let mut stamps: Vec<NonlinearStamp> = Vec::with_capacity(device_count);
        let mut evaluated_at = vec![f64::NAN; node_count];
        let mut evaluations = 0u64;
        let mut stats = TransientStats::default();
        let mut solve_ordinal = 0usize;
        // Newton runs started: every attempt restamps its linear
        // right-hand side once.
        let mut runs = 0u64;

        // Predictor history: the accepted solution *before* `voltages` and
        // the step width that led from it to `voltages`. Invalidated across
        // discontinuities — linear extrapolation through a jump would be
        // meaningless as an error reference — and never valid on a fixed
        // grid, which has no LTE test.
        let mut prev2 = vec![0.0; node_count];
        let mut hist_valid = false;
        let mut h_last = 0.0f64;

        let mut t = 0.0f64;
        // The controller's step. Starts (and restarts after every
        // breakpoint) at `dt_min`: right after a discontinuity there is no
        // LTE evidence yet, so the ladder re-earns its width by doubling.
        let mut h = opts.dt_min;
        // Step targets are `origin + k·h`, with `k` counted from the last
        // width change, breakpoint landing or the start — not accumulated
        // as `t + h`, whose rounding drifts. A fixed grid thus lands on
        // `k·dt` exactly.
        let mut origin = 0.0f64;
        let mut k = 0u64;
        // The step leaving a discontinuity (t = 0 or a breakpoint) runs
        // backward Euler — the reactive history is not valid trapezoidal
        // start-up state (see [`Integration::Trapezoidal`]).
        let mut post_disc = true;
        let mut bp_idx = 0usize;

        while t < t_stop {
            // ---- one accepted output sample: the attempt ladder ----
            let mut h_try = h;
            let mut force_be = false;
            let mut rejections: Vec<StepRejection> = Vec::new();
            // Skip breakpoints at or before the current time (exact landings
            // make `t` compare equal to a hit breakpoint).
            while bp_idx < bps.len() && bps[bp_idx] <= t {
                bp_idx += 1;
            }

            loop {
                // Candidate step: the controller's width clamped to land
                // exactly on t_stop and on the next breakpoint. A step that
                // would stop within the landing tolerance short of t_stop
                // takes t_stop with it rather than leaving a sliver for one
                // more step.
                let remaining = t_stop - t;
                let (mut h_c, mut target) = if remaining - h_try <= t_stop * LANDING_RTOL {
                    (remaining, t_stop)
                } else {
                    (h_try, origin + (k + 1) as f64 * h_try)
                };
                let mut landing = false;
                if bp_idx < bps.len() {
                    let b = bps[bp_idx];
                    if b - t <= h_c {
                        h_c = b - t;
                        target = b;
                        landing = true;
                    }
                }
                let t_new = target;
                let method = if post_disc || force_be {
                    Integration::BackwardEuler
                } else {
                    opts.method
                };
                // The width may shrink only while the controller is above
                // `dt_min`: a final step stretched onto t_stop can exceed
                // `dt_min` by the landing tolerance, and halving it would
                // retry the same step forever.
                let can_shrink = h_c > opts.dt_min && h_try > opts.dt_min;

                // Newton at (t_new, h_c). A landing step evaluates sources
                // by their left limit: the discontinuity belongs to the
                // *next* step, never to the one integrating up to it.
                trial.copy_from_slice(&voltages);
                let mut converged = false;
                // Node with the largest voltage update at the most recent
                // Newton iteration — named in the non-convergence error so
                // the user knows which unknown refused to settle.
                let mut worst_node = None;
                runs += 1;
                for _ in 0..opts.max_newton {
                    // Bypass: a trial point within `vntol` of the last
                    // evaluation at every node reuses every stamp, and
                    // with them their device key. For an unchanged
                    // `(dt, method)` key the solver then loads only the
                    // right-hand side and reuses its factors. A linear
                    // circuit has nothing to evaluate and one key.
                    if device_count > 0 {
                        let bypass = self.circuit.signal_nodes_iter().all(|node| {
                            let i = node.index();
                            (trial[i] - evaluated_at[i]).abs() < opts.vntol
                        });
                        if bypass {
                            stats.bypassed_iterations += 1;
                        } else {
                            devices::stamp_devices(self.circuit, &self.layout, &trial, &mut stamps);
                            evaluated_at.copy_from_slice(&trial);
                            evaluations += 1;
                        }
                    }
                    let job = TimestepSystem {
                        analysis: self,
                        run: runs,
                        t: t_new,
                        dt: h_c,
                        method,
                        left_limit: landing,
                        stamps: Cow::Borrowed(&stamps),
                        device_key: evaluations,
                        prev: &voltages,
                        prev_cap_current: &prev_cap_current,
                        prev_ind_voltage: &prev_ind_voltage,
                        prev_solution: &branch_currents,
                    };
                    // Assembly and the verified solve are split so the
                    // (production no-op) hook can poison the assembled
                    // values in fault-injection runs.
                    solver.assemble_newton_into(&job, &mut solution);
                    hook(solve_ordinal, &mut solver);
                    solve_ordinal += 1;
                    solver.solve_verified_in_place(&mut solution)?;
                    stats.newton_iterations += 1;

                    let mut max_delta: f64 = 0.0;
                    for node in self.circuit.signal_nodes_iter() {
                        let var = self.layout.node_var(node).expect("signal node");
                        let v = solution[var];
                        let delta = (v - trial[node.index()]).abs();
                        if delta >= max_delta {
                            max_delta = delta;
                            worst_node = Some(node);
                        }
                        next[node.index()] = v;
                    }
                    std::mem::swap(&mut trial, &mut next);
                    if max_delta < opts.vntol || device_count == 0 {
                        converged = true;
                        break;
                    }
                }

                if !converged {
                    // Newton non-convergence is a rejection rung: halve
                    // toward dt_min, then switch the step to backward Euler,
                    // then surface the whole ladder history.
                    stats.rejected_steps += 1;
                    rejections.push(StepRejection {
                        time: t_new,
                        dt: h_c,
                        reason: StepRejectReason::NewtonNoConvergence,
                    });
                    if can_shrink {
                        h_try = (h_c * 0.5).max(opts.dt_min);
                        (origin, k) = (t, 0);
                        continue;
                    }
                    if method == Integration::Trapezoidal {
                        force_be = true;
                        continue;
                    }
                    let worst = worst_node
                        .map(|n| self.circuit.node_name(n).to_string())
                        .unwrap_or_else(|| "<none>".to_string());
                    return Err(SpiceError::TransientNoConvergence {
                        time: t_new,
                        step: stats.accepted_steps + 1,
                        worst_node: worst,
                        rejections,
                    });
                }

                // LTE accept test: predictor–corrector difference. The
                // predictor extrapolates linearly through the two previous
                // accepted points; the difference to the corrector (the
                // solved step) estimates the local truncation error. Skipped
                // on restart steps (no valid history across a discontinuity)
                // — those run at dt_min, where the ladder would accept
                // anyway.
                let mut grow = false;
                if hist_valid && !post_disc {
                    let scale = h_c / h_last;
                    let mut ratio: f64 = 0.0;
                    for node in self.circuit.signal_nodes_iter() {
                        let i = node.index();
                        let x_new = trial[i];
                        let x_prev = voltages[i];
                        let predicted = x_prev + (x_prev - prev2[i]) * scale;
                        let err = (x_new - predicted).abs();
                        let tol = opts.reltol * x_new.abs().max(x_prev.abs()) + opts.abstol;
                        ratio = ratio.max(err / tol);
                    }
                    if ratio > 1.0 {
                        if can_shrink {
                            stats.rejected_steps += 1;
                            rejections.push(StepRejection {
                                time: t_new,
                                dt: h_c,
                                reason: StepRejectReason::LteExceeded { ratio },
                            });
                            h_try = (h_c * 0.5).max(opts.dt_min);
                            (origin, k) = (t, 0);
                            continue;
                        }
                        // Already at the floor: accept anyway (graceful
                        // degradation instead of a hard abort) and count it.
                        stats.forced_accepts += 1;
                    } else if ratio <= LTE_GROW_THRESHOLD {
                        grow = true;
                    }
                }

                // ---- accept ----
                for (ei, el) in self.circuit.elements().iter().enumerate() {
                    match el {
                        Element::Capacitor(c) => {
                            let v_new = trial[c.a.index()] - trial[c.b.index()];
                            let v_old = voltages[c.a.index()] - voltages[c.b.index()];
                            let i_new = match method {
                                Integration::BackwardEuler => c.farads / h_c * (v_new - v_old),
                                Integration::Trapezoidal => {
                                    2.0 * c.farads / h_c * (v_new - v_old) - prev_cap_current[ei]
                                }
                            };
                            prev_cap_current[ei] = i_new;
                        }
                        Element::Inductor(l) => {
                            prev_ind_voltage[ei] = trial[l.a.index()] - trial[l.b.index()];
                        }
                        _ => {}
                    }
                }
                branch_currents.copy_from_slice(&solution);
                if landing || post_disc || fixed {
                    // The point before this step sits across (or on) a
                    // discontinuity — no extrapolation through it.
                    hist_valid = false;
                } else {
                    prev2.copy_from_slice(&voltages);
                    h_last = h_c;
                    hist_valid = true;
                }
                std::mem::swap(&mut voltages, &mut trial);
                t = t_new;
                times.push(t);
                data.extend_from_slice(&voltages);
                stats.record_accept(h_c);

                if landing {
                    stats.breakpoints_hit += 1;
                    bp_idx += 1;
                    post_disc = true;
                    h = opts.dt_min;
                    (origin, k) = (t, 0);
                } else {
                    post_disc = false;
                    // Grow from the post-rejection width (`h_try`), not the
                    // possibly landing-shortened `h_c`: an exact landing
                    // must not shrink the controller.
                    h = if grow {
                        (h_try * 2.0).min(opts.dt_max)
                    } else {
                        h_try
                    };
                    k += 1;
                    if h != h_try {
                        (origin, k) = (t, 0);
                    }
                }
                break;
            }
        }

        stats.solve = solver.stats();
        Ok(TransientResult {
            times,
            data,
            stride: node_count,
            stats,
        })
    }

    /// The assembly job of one Newton iteration at time `t` of a step of
    /// width `dt_min` that starts from `voltages` (also the trial point),
    /// with every reactive history value (capacitor current, inductor
    /// voltage, branch current) read from `history`, which must be at least
    /// as long as the element list and the MNA dimension. A diagnostic and
    /// benchmark entry point. Its right-hand-side key is `t`'s bits, so
    /// jobs for the same `t` that one context assembles must share
    /// `voltages` and `history`. The job owns its devices' stamps,
    /// evaluated here, under a device key no other job has.
    pub fn assembly_job<'a>(
        &'a self,
        t: f64,
        method: Integration,
        voltages: &'a [f64],
        history: &'a [f64],
    ) -> impl NewtonJob + 'a {
        let mut stamps = Vec::new();
        devices::stamp_devices(self.circuit, &self.layout, voltages, &mut stamps);
        TimestepSystem {
            analysis: self,
            run: t.to_bits(),
            t,
            dt: self.options.dt_min,
            method,
            left_limit: false,
            stamps: Cow::Owned(stamps),
            device_key: fresh_device_key(),
            prev: voltages,
            prev_cap_current: history,
            prev_ind_voltage: history,
            prev_solution: history,
        }
    }
}

/// The error for a run whose result rows cannot be allocated.
fn unallocatable_rows(options: &TransientOptions) -> SpiceError {
    SpiceError::InvalidOptions(format!(
        "dt_max = {:e} is too small for t_stop = {:e}: the result rows cannot be allocated",
        options.dt_max, options.t_stop
    ))
}

/// Assembly job for one Newton iteration of one transient time point.
///
/// The linear matrix stamps depend only on the step width and the
/// integration method (the Newton image's matrix key). The linear
/// right-hand side (sources at `t`, companion history) is fixed for a
/// whole Newton run, which `run` numbers. The devices arrive evaluated,
/// one stamp per device in stamp order, under the key `device_key`.
struct TimestepSystem<'a, 'c> {
    analysis: &'a TransientAnalysis<'c>,
    /// Ordinal of the Newton run (the step attempt) this iteration serves.
    run: u64,
    t: f64,
    dt: f64,
    method: Integration,
    /// Evaluate sources by their left limit at `t` (breakpoint landing).
    left_limit: bool,
    stamps: Cow<'a, [NonlinearStamp]>,
    device_key: u64,
    prev: &'a [f64],
    prev_cap_current: &'a [f64],
    prev_ind_voltage: &'a [f64],
    prev_solution: &'a [f64],
}

impl AssembleMna<f64> for TimestepSystem<'_, '_> {
    fn stamp<S: MatrixSink<f64>>(&self, st: &mut Stamper<'_, f64, S>) {
        self.stamp_part(st, StampPart::All);
    }
}

impl NewtonJob for TimestepSystem<'_, '_> {
    fn matrix_key(&self) -> [u64; 2] {
        let method = match self.method {
            Integration::BackwardEuler => 0,
            Integration::Trapezoidal => 1,
        };
        [self.dt.to_bits(), method]
    }

    fn rhs_key(&self) -> u64 {
        self.run
    }

    fn device_stamps(&self) -> &[NonlinearStamp] {
        &self.stamps
    }

    fn device_key(&self) -> u64 {
        self.device_key
    }

    fn stamp_part<S: MatrixSink<f64>>(&self, st: &mut Stamper<'_, f64, S>, part: StampPart) {
        st.stamp_elements(part, GMIN, self);
    }
}

/// Capacitors and inductors stamp their companion models of the step;
/// sources are evaluated at `t` (by their left limit on a breakpoint
/// landing); devices are linearized at the trial point. Only the devices'
/// Newton conductances are stamped: their capacitances enter the AC
/// analysis only.
impl StampModel<f64> for TimestepSystem<'_, '_> {
    fn circuit(&self) -> &Circuit {
        self.analysis.circuit
    }

    fn layout(&self) -> &MnaLayout {
        &self.analysis.layout
    }

    fn capacitor(&self, ei: usize, c: &Capacitor) -> Option<(f64, Option<f64>)> {
        let v_old = self.prev[c.a.index()] - self.prev[c.b.index()];
        Some(if self.method == Integration::Trapezoidal {
            let geq = 2.0 * c.farads / self.dt;
            (geq, Some(geq * v_old + self.prev_cap_current[ei]))
        } else {
            let geq = c.farads / self.dt;
            (geq, Some(geq * v_old))
        })
    }

    fn inductor(&self, ei: usize, br: usize, l: &Inductor) -> Option<(f64, Option<f64>)> {
        let i_old = self.prev_solution[br];
        Some(if self.method == Integration::Trapezoidal {
            let req = 2.0 * l.henries / self.dt;
            (-req, Some(-req * i_old - self.prev_ind_voltage[ei]))
        } else {
            let req = l.henries / self.dt;
            (-req, Some(-req * i_old))
        })
    }

    fn source(&self, spec: &SourceSpec) -> Option<f64> {
        Some(if self.left_limit {
            spec.value_at_left(self.t)
        } else {
            spec.value_at(self.t)
        })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::solve_dc;
    use loopscope_netlist::SourceSpec;

    #[test]
    fn rc_charging_curve() {
        // Step from 0 to 1 V through 1 kΩ into 1 µF: τ = 1 ms.
        let mut c = Circuit::new("rc step");
        let vin = c.node("in");
        let vout = c.node("out");
        c.add_vsource("V1", vin, Circuit::GROUND, SourceSpec::step(0.0, 1.0, 0.0));
        c.add_resistor("R1", vin, vout, 1.0e3);
        c.add_capacitor("C1", vout, Circuit::GROUND, 1.0e-6);
        let op = solve_dc(&c).unwrap();
        let tran = TransientAnalysis::new(&c, TransientOptions::new(10.0e-6, 5.0e-3)).unwrap();
        let result = tran.run(&op).unwrap();
        // After one time constant: 1 − e^-1 ≈ 0.632.
        let v_tau = result.value_at(vout, 1.0e-3).unwrap();
        assert!((v_tau - 0.632).abs() < 0.01, "v(τ) = {v_tau}");
        // Fully settled by 5τ.
        let v_end = result.value_at(vout, 5.0e-3).unwrap();
        assert!((v_end - 1.0).abs() < 0.01, "v(5τ) = {v_end}");
    }

    #[test]
    fn lc_oscillation_period_with_trapezoidal() {
        // A lightly damped series RLC ringing at f0 = 1/(2π√(LC)).
        let mut c = Circuit::new("rlc ring");
        let vin = c.node("in");
        let mid = c.node("mid");
        let vout = c.node("out");
        c.add_vsource("V1", vin, Circuit::GROUND, SourceSpec::step(0.0, 1.0, 0.0));
        c.add_resistor("R1", vin, mid, 5.0);
        c.add_inductor("L1", mid, vout, 1.0e-3);
        c.add_capacitor("C1", vout, Circuit::GROUND, 1.0e-9);
        let op = solve_dc(&c).unwrap();
        // f0 ≈ 159 kHz → period ≈ 6.28 µs; run 40 µs at 20 ns.
        let tran = TransientAnalysis::new(&c, TransientOptions::new(20.0e-9, 40.0e-6)).unwrap();
        let result = tran.run(&op).unwrap();
        let wave = result.waveform(vout).unwrap();
        let times = result.times();
        // Find the first two upward crossings of the final value 1.0.
        let mut crossings = Vec::new();
        for i in 1..wave.len() {
            if wave[i - 1] < 1.0 && wave[i] >= 1.0 {
                crossings.push(times[i]);
            }
        }
        assert!(crossings.len() >= 2, "expected ringing");
        let period = (crossings[1] - crossings[0]) * 1.0; // full period between same-direction crossings
        assert!(
            (period - 6.28e-6).abs() / 6.28e-6 < 0.1,
            "period = {period}"
        );
        // Overshoot close to 100 % (very low damping).
        let peak = wave.iter().cloned().fold(0.0, f64::max);
        assert!(peak > 1.7, "peak = {peak}");
    }

    #[test]
    fn backward_euler_damps_more_than_trapezoidal() {
        let build = || {
            let mut c = Circuit::new("ring");
            let vin = c.node("in");
            let mid = c.node("mid");
            let vout = c.node("out");
            c.add_vsource("V1", vin, Circuit::GROUND, SourceSpec::step(0.0, 1.0, 0.0));
            c.add_resistor("R1", vin, mid, 20.0);
            c.add_inductor("L1", mid, vout, 1.0e-3);
            c.add_capacitor("C1", vout, Circuit::GROUND, 1.0e-9);
            c
        };
        let run = |method: Integration| {
            let c = build();
            let op = solve_dc(&c).unwrap();
            let mut opts = TransientOptions::new(50.0e-9, 30.0e-6);
            opts.method = method;
            let tran = TransientAnalysis::new(&c, opts).unwrap();
            let r = tran.run(&op).unwrap();
            let out = c.find_node("out").unwrap();
            r.waveform(out).unwrap().iter().cloned().fold(0.0, f64::max)
        };
        let peak_trap = run(Integration::Trapezoidal);
        let peak_be = run(Integration::BackwardEuler);
        assert!(peak_trap > peak_be, "trap {peak_trap} vs BE {peak_be}");
    }

    #[test]
    fn diode_rectifier_clamps_negative_half() {
        use loopscope_netlist::DiodeModel;
        let mut c = Circuit::new("rect");
        let vin = c.node("in");
        let vout = c.node("out");
        c.add_vsource(
            "V1",
            vin,
            Circuit::GROUND,
            loopscope_netlist::SourceSpec {
                dc: 0.0,
                ac_mag: 0.0,
                ac_phase_deg: 0.0,
                waveform: loopscope_netlist::Waveform::Sine {
                    offset: 0.0,
                    amplitude: 2.0,
                    freq_hz: 1.0e3,
                    delay: 0.0,
                },
            },
        );
        c.add_diode("D1", vin, vout, DiodeModel::default());
        c.add_resistor("RL", vout, Circuit::GROUND, 1.0e3);
        let op = solve_dc(&c).unwrap();
        let tran = TransientAnalysis::new(&c, TransientOptions::new(2.0e-6, 2.0e-3)).unwrap();
        let result = tran.run(&op).unwrap();
        let wave = result.waveform(vout).unwrap();
        let min = wave.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = wave.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // Positive peaks pass (minus a diode drop), negative half is clamped.
        assert!(max > 1.0, "max = {max}");
        assert!(min > -0.3, "min = {min}");
    }

    #[test]
    fn invalid_options_rejected() {
        let mut c = Circuit::new("x");
        let a = c.node("a");
        c.add_resistor("R1", a, Circuit::GROUND, 1.0);
        c.add_capacitor("C1", a, Circuit::GROUND, 1e-9);
        assert!(TransientAnalysis::new(&c, TransientOptions::new(0.0, 1.0)).is_err());
        assert!(TransientAnalysis::new(&c, TransientOptions::new(1.0, 0.5)).is_err());
        let mut zero_newton = TransientOptions::new(1.0e-6, 1.0e-3);
        zero_newton.max_newton = 0;
        assert!(matches!(
            TransientAnalysis::new(&c, zero_newton),
            Err(SpiceError::InvalidOptions(msg)) if msg.contains("max_newton")
        ));
        let mut bad_vntol = TransientOptions::new(1.0e-6, 1.0e-3);
        bad_vntol.vntol = f64::NAN;
        assert!(matches!(
            TransientAnalysis::new(&c, bad_vntol),
            Err(SpiceError::InvalidOptions(msg)) if msg.contains("vntol")
        ));
    }

    #[test]
    fn no_convergence_error_names_time_step_and_node() {
        use loopscope_netlist::DiodeModel;
        // A hard-driven diode with a single Newton iteration per step cannot
        // settle; the failure must name the time point, step index and the
        // node whose update was largest.
        let mut c = Circuit::new("stiff");
        let vin = c.node("in");
        let vout = c.node("out");
        c.add_vsource("V1", vin, Circuit::GROUND, SourceSpec::step(0.0, 5.0, 0.0));
        c.add_resistor("R1", vin, vout, 1.0e3);
        c.add_diode("D1", vout, Circuit::GROUND, DiodeModel::default());
        let op = solve_dc(&c).unwrap();
        let mut opts = TransientOptions::new(1.0e-6, 10.0e-6);
        opts.max_newton = 1;
        let tran = TransientAnalysis::new(&c, opts).unwrap();
        match tran.run(&op) {
            Err(SpiceError::TransientNoConvergence {
                time,
                step,
                worst_node,
                rejections,
            }) => {
                assert!(time > 0.0 && time <= 10.0e-6);
                assert!(step >= 1);
                assert!(
                    worst_node == "out" || worst_node == "in",
                    "worst_node = {worst_node}"
                );
                // Step 1 already runs backward Euler at dt, so the ladder
                // has no rung left after its one failed attempt.
                assert_eq!(rejections.len(), 1, "{rejections:?}");
                assert_eq!(rejections[0].dt, opts.dt_min);
                assert!(matches!(
                    rejections[0].reason,
                    StepRejectReason::NewtonNoConvergence
                ));
            }
            other => panic!("expected TransientNoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn result_accessors() {
        let mut c = Circuit::new("acc");
        let a = c.node("a");
        c.add_vsource("V1", a, Circuit::GROUND, SourceSpec::dc(1.0));
        c.add_resistor("R1", a, Circuit::GROUND, 1.0e3);
        let op = solve_dc(&c).unwrap();
        let tran = TransientAnalysis::new(&c, TransientOptions::new(1.0e-6, 10.0e-6)).unwrap();
        let r = tran.run(&op).unwrap();
        // 10 steps of 1 µs plus the initial point — exactly, now that the
        // grid clamps to t_stop instead of letting t_stop/dt ceiling
        // overshoot.
        assert_eq!(r.len(), 11);
        assert!(!r.is_empty());
        assert_eq!(*r.times().last().unwrap(), 10.0e-6);
        assert_eq!(r.times().len(), r.len());
        assert!((r.value_at(a, 5.0e-6).unwrap() - 1.0).abs() < 1e-9);
    }

    /// A circuit whose transient response is trivially flat, for grid tests.
    fn dc_circuit() -> (Circuit, NodeId) {
        let mut c = Circuit::new("grid");
        let a = c.node("a");
        c.add_vsource("V1", a, Circuit::GROUND, SourceSpec::dc(1.0));
        c.add_resistor("R1", a, Circuit::GROUND, 1.0e3);
        c.add_capacitor("C1", a, Circuit::GROUND, 1.0e-9);
        (c, a)
    }

    #[test]
    fn grid_ends_exactly_at_t_stop_for_non_multiple_dt() {
        let (c, _) = dc_circuit();
        let op = solve_dc(&c).unwrap();
        // 10 µs is NOT a multiple of 3 µs: the old `ceil` grid ended at
        // 12 µs, past the requested stop time.
        let tran = TransientAnalysis::new(&c, TransientOptions::new(3.0e-6, 10.0e-6)).unwrap();
        let r = tran.run(&op).unwrap();
        let times = r.times();
        assert_eq!(*times.last().unwrap(), 10.0e-6, "times = {times:?}");
        assert!(times.windows(2).all(|w| w[0] < w[1]), "times = {times:?}");
        assert!(times.iter().all(|&t| t <= 10.0e-6), "times = {times:?}");
        // 0, 3, 6, 9 µs plus the shortened final step to exactly 10 µs.
        assert_eq!(r.len(), 5, "times = {times:?}");
    }

    #[test]
    fn grid_handles_ratio_that_rounds_up() {
        let (c, _) = dc_circuit();
        let op = solve_dc(&c).unwrap();
        // 0.3/0.1 computes as 2.9999…96 in f64 but other exact-multiple
        // ratios round UP, creating a phantom step whose shortened width
        // would be ≤ 0; either way the grid must end exactly at t_stop with
        // strictly increasing times.
        for (dt, t_stop) in [
            (0.1e-3, 0.3e-3),
            (1.0e-6, 10.0e-6),
            (0.4, 1.0),
            (7.0e-7, 9.1e-6),
        ] {
            let tran = TransientAnalysis::new(&c, TransientOptions::new(dt, t_stop)).unwrap();
            let r = tran.run(&op).unwrap();
            let times = r.times();
            assert_eq!(
                *times.last().unwrap(),
                t_stop,
                "dt={dt}, t_stop={t_stop}: times end at {:?}",
                times.last()
            );
            assert!(
                times.windows(2).all(|w| w[0] < w[1]),
                "dt={dt}, t_stop={t_stop}: non-increasing grid {times:?}"
            );
        }
    }

    #[test]
    fn single_step_run_is_valid() {
        let (c, a) = dc_circuit();
        let op = solve_dc(&c).unwrap();
        // t_stop == dt: exactly one step, previously rejected by validation.
        let tran = TransientAnalysis::new(&c, TransientOptions::new(2.0e-6, 2.0e-6)).unwrap();
        let r = tran.run(&op).unwrap();
        assert_eq!(r.times(), &[0.0, 2.0e-6]);
        assert!((r.value_at(a, 2.0e-6).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn out_of_range_node_is_an_error_not_a_panic() {
        let (c, _) = dc_circuit();
        let op = solve_dc(&c).unwrap();
        let tran = TransientAnalysis::new(&c, TransientOptions::new(1.0e-6, 5.0e-6)).unwrap();
        let r = tran.run(&op).unwrap();
        // A node id minted by a BIGGER circuit does not exist in this result.
        let mut big = Circuit::new("bigger");
        let mut foreign = big.node("n0");
        for i in 1..8 {
            foreign = big.node(&format!("n{i}"));
        }
        assert!(foreign.index() >= c.node_count());
        assert!(matches!(
            r.waveform(foreign),
            Err(SpiceError::UnknownReference(_))
        ));
        assert!(matches!(
            r.value_at(foreign, 1.0e-6),
            Err(SpiceError::UnknownReference(_))
        ));
    }

    #[test]
    fn value_at_lerps_on_non_uniform_grid() {
        // A hand-built result with wildly non-uniform spacing (what an
        // adaptive run produces): interpolation must bracket by the actual
        // times, not assume `i * dt`.
        let (c, a) = dc_circuit();
        assert_eq!(a.index(), 1);
        let r = TransientResult {
            times: vec![0.0, 1.0e-6, 5.0e-6, 6.0e-6],
            data: vec![0.0, 0.0, 0.0, 1.0, 0.0, 3.0, 0.0, 10.0],
            stride: 2,
            stats: TransientStats::default(),
        };
        drop(c);
        // Exact samples.
        assert_eq!(r.value_at(a, 1.0e-6).unwrap(), 1.0);
        assert_eq!(r.value_at(a, 6.0e-6).unwrap(), 10.0);
        // Midpoints of unequal intervals.
        assert!((r.value_at(a, 3.0e-6).unwrap() - 2.0).abs() < 1e-12);
        assert!((r.value_at(a, 5.5e-6).unwrap() - 6.5).abs() < 1e-12);
        // Clamped outside the range.
        assert_eq!(r.value_at(a, -1.0).unwrap(), 0.0);
        assert_eq!(r.value_at(a, 1.0).unwrap(), 10.0);
    }

    /// Two-time-constant RC: fast branch τ = 1 µs, slow branch τ = 10 ms
    /// (ratio 1e4) off one stepped source.
    fn stiff_rc() -> Circuit {
        let mut c = Circuit::new("stiff rc");
        let vin = c.node("in");
        let fast = c.node("fast");
        let slow = c.node("slow");
        c.add_vsource("V1", vin, Circuit::GROUND, SourceSpec::step(0.0, 1.0, 0.0));
        c.add_resistor("R1", vin, fast, 1.0e3);
        c.add_capacitor("C1", fast, Circuit::GROUND, 1.0e-9);
        c.add_resistor("R2", vin, slow, 1.0e6);
        c.add_capacitor("C2", slow, Circuit::GROUND, 10.0e-9);
        c
    }

    #[test]
    fn adaptive_resolves_both_time_constants_with_few_steps() {
        let c = stiff_rc();
        let op = solve_dc(&c).unwrap();
        let t_stop = 20.0e-3;
        let opts = TransientOptions::adaptive(10.0e-9, 0.5e-3, t_stop);
        let r = TransientAnalysis::new(&c, opts).unwrap().run(&op).unwrap();
        let fast = c.find_node("fast").unwrap();
        let slow = c.find_node("slow").unwrap();
        // Both exponentials tracked despite the 1e4 τ ratio.
        for (node, tau) in [(fast, 1.0e-6), (slow, 10.0e-3)] {
            for mult in [1.0, 2.0, 5.0] {
                let t = tau * mult;
                if t > t_stop {
                    continue;
                }
                let want = 1.0 - (-t / tau).exp();
                let got = r.value_at(node, t).unwrap();
                assert!(
                    (got - want).abs() < 5.0e-3,
                    "node τ={tau}, t={t}: got {got}, want {want}"
                );
            }
        }
        let stats = r.stats();
        // A fixed grid resolving τ = 1 µs over 20 ms needs tens of
        // thousands of steps; the adaptive ladder does it in a few hundred.
        assert!(
            stats.accepted_steps < 2_000,
            "accepted = {}",
            stats.accepted_steps
        );
        assert_eq!(stats.accepted_steps, r.len() - 1);
        assert!(stats.min_dt <= stats.max_dt);
        assert!(stats.max_dt <= opts.dt_max);
        assert!(stats.newton_iterations >= stats.accepted_steps);
        // The grid actually varied: it grew well beyond dt_min.
        assert!(
            stats.max_dt > 100.0 * opts.dt_min,
            "max_dt = {}",
            stats.max_dt
        );
        assert_eq!(*r.times().last().unwrap(), t_stop);
        assert!(r.times().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn adaptive_lands_exactly_on_source_breakpoints() {
        // STEP delayed to 2.5 µs: the stepper must produce a sample at
        // exactly that time, with the pre-jump (left-limit) value.
        let mut c = Circuit::new("delayed step");
        let vin = c.node("in");
        let vout = c.node("out");
        c.add_vsource(
            "V1",
            vin,
            Circuit::GROUND,
            SourceSpec::step(0.0, 1.0, 2.5e-6),
        );
        c.add_resistor("R1", vin, vout, 1.0e3);
        c.add_capacitor("C1", vout, Circuit::GROUND, 1.0e-9);
        let op = solve_dc(&c).unwrap();
        let opts = TransientOptions::adaptive(5.0e-9, 1.0e-6, 10.0e-6);
        let r = TransientAnalysis::new(&c, opts).unwrap().run(&op).unwrap();
        assert_eq!(r.stats().breakpoints_hit, 1);
        assert!(
            r.times().contains(&2.5e-6),
            "no exact landing in {:?}",
            r.times()
        );
        // Left limit at the breakpoint: the jump is not integrated across,
        // so the waveform is still exactly at its pre-step value there.
        let at_bp = r.value_at(vout, 2.5e-6).unwrap();
        assert!(at_bp.abs() < 1e-12, "v(breakpoint) = {at_bp}");
        // And well settled by the end (τ = 1 µs, 7.5 µs after the step).
        let at_end = r.value_at(vout, 10.0e-6).unwrap();
        assert!((at_end - 1.0).abs() < 5e-3, "v(end) = {at_end}");
    }

    #[test]
    fn adaptive_error_carries_rejection_history() {
        use loopscope_netlist::DiodeModel;
        // Same hard-driven diode as the fixed-grid error test, adaptive:
        // with one Newton iteration per attempt the ladder must halve down
        // to dt_min, switch to BE, and then surface every attempt.
        let mut c = Circuit::new("stiff diode");
        let vin = c.node("in");
        let vout = c.node("out");
        c.add_vsource("V1", vin, Circuit::GROUND, SourceSpec::step(0.0, 5.0, 0.0));
        c.add_resistor("R1", vin, vout, 1.0e3);
        c.add_diode("D1", vout, Circuit::GROUND, DiodeModel::default());
        let op = solve_dc(&c).unwrap();
        let mut opts = TransientOptions::adaptive(0.25e-6, 2.0e-6, 10.0e-6);
        opts.max_newton = 1;
        let tran = TransientAnalysis::new(&c, opts).unwrap();
        match tran.run(&op) {
            Err(SpiceError::TransientNoConvergence {
                time,
                step,
                worst_node,
                rejections,
            }) => {
                assert!(time > 0.0 && time <= 10.0e-6);
                assert!(step >= 1);
                assert!(
                    worst_node == "out" || worst_node == "in",
                    "worst_node = {worst_node}"
                );
                assert!(!rejections.is_empty());
                // The ladder bottomed out at dt_min before giving up.
                let smallest = rejections
                    .iter()
                    .map(|r| r.dt)
                    .fold(f64::INFINITY, f64::min);
                assert!(
                    smallest <= opts.dt_min * (1.0 + 1e-12),
                    "smallest {smallest}"
                );
                assert!(rejections.iter().all(|r| matches!(
                    r.reason,
                    crate::error::StepRejectReason::NewtonNoConvergence
                )));
            }
            other => panic!("expected TransientNoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn adaptive_final_step_never_leaves_a_sliver() {
        // Accumulated rounding puts the last step's end a few ulps short of
        // t_stop; without the landing tolerance the run ended
        // [.., 9.999999999999997e-7, 1e-6] with a ~2e-22 s final step.
        let mut c = Circuit::new("rc sliver");
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, SourceSpec::dc(1.0));
        c.add_resistor("R1", a, b, 1.0e3);
        c.add_capacitor("C1", b, Circuit::GROUND, 1.0e-12);
        let op = solve_dc(&c).unwrap();
        let opts = TransientOptions::adaptive(8.0e-9, 3.2e-8, 1.0e-6);
        let r = TransientAnalysis::new(&c, opts).unwrap().run(&op).unwrap();
        let times = r.times();
        assert_eq!(*times.last().unwrap(), opts.t_stop);
        let last_step = times[times.len() - 1] - times[times.len() - 2];
        assert!(last_step >= opts.dt_min, "last step {last_step:e}");
        assert!(
            r.stats().min_dt >= opts.dt_min,
            "min_dt {:e}",
            r.stats().min_dt
        );
    }

    #[test]
    fn fixed_grid_times_are_exact_multiples_of_dt() {
        let (c, _) = dc_circuit();
        let op = solve_dc(&c).unwrap();
        // The Table 2 grid, and a stop time that is not a multiple of dt.
        for (dt, t_stop) in [(2.0e-9, 8.0e-6), (3.0e-7, 1.0e-5)] {
            let tran = TransientAnalysis::new(&c, TransientOptions::new(dt, t_stop)).unwrap();
            let r = tran.run(&op).unwrap();
            let times = r.times();
            let n = times.len() - 1;
            // Every sample but the last is `k·dt` bit for bit — counted,
            // not accumulated as `t + dt`.
            for (k, t) in times[..n].iter().enumerate() {
                assert_eq!(
                    t.to_bits(),
                    (k as f64 * dt).to_bits(),
                    "dt={dt}: times[{k}] = {t:e}"
                );
            }
            assert_eq!(times[n], t_stop);
            let stats = r.stats();
            assert_eq!(stats.accepted_steps, n);
            assert_eq!(stats.min_dt, t_stop - (n - 1) as f64 * dt, "dt={dt}");
            assert_eq!(stats.max_dt, dt);
            assert_eq!(stats.rejected_steps, 0);
            assert_eq!(stats.forced_accepts, 0);
            assert_eq!(stats.breakpoints_hit, 0);
        }
    }

    #[test]
    fn stretched_final_step_that_fails_newton_is_an_error_not_a_hang() {
        use loopscope_netlist::DiodeModel;
        // 10 µs / 1 µs: the final step `t_stop − 9·dt` is a few ulps wider
        // than dt. A hard diode edge at 9.5 µs makes exactly that step fail
        // Newton; the ladder cannot shrink a step at dt_min, so it retries
        // with backward Euler once and then reports the failure.
        let mut c = Circuit::new("late edge");
        let vin = c.node("in");
        let vout = c.node("out");
        c.add_vsource(
            "V1",
            vin,
            Circuit::GROUND,
            SourceSpec::step(0.0, 5.0, 9.5e-6),
        );
        c.add_resistor("R1", vin, vout, 1.0e3);
        c.add_diode("D1", vout, Circuit::GROUND, DiodeModel::default());
        let op = solve_dc(&c).unwrap();
        let (dt, t_stop) = (1.0e-6, 10.0e-6);
        assert!(t_stop - 9.0 * dt > dt);
        let mut opts = TransientOptions::new(dt, t_stop);
        opts.max_newton = 3;
        match TransientAnalysis::new(&c, opts).unwrap().run(&op) {
            Err(SpiceError::TransientNoConvergence {
                time,
                step,
                rejections,
                ..
            }) => {
                assert_eq!((time, step), (t_stop, 10));
                assert_eq!(rejections.len(), 2, "{rejections:?}");
            }
            other => panic!("expected TransientNoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn unallocatable_step_count_is_an_error() {
        let (c, _) = dc_circuit();
        // The row count overflows `usize`.
        assert!(matches!(
            TransientAnalysis::new(&c, TransientOptions::new(1.0e-300, 1.0)),
            Err(SpiceError::InvalidOptions(msg)) if msg.contains("dt_max")
        ));
        // 2.5e17 rows of 16 bytes fit in `isize` but in no address space
        // (57-bit virtual addresses end at 1.4e17 bytes): the reservation
        // fails, and the run reports it.
        let op = solve_dc(&c).unwrap();
        let tran = TransientAnalysis::new(&c, TransientOptions::new(4.0e-18, 1.0)).unwrap();
        assert!(matches!(
            tran.run(&op),
            Err(SpiceError::InvalidOptions(msg)) if msg.contains("dt_max")
        ));
    }

    #[test]
    fn invalid_adaptive_options_rejected() {
        let (c, _) = dc_circuit();
        // dt_max below dt_min.
        assert!(matches!(
            TransientAnalysis::new(&c, TransientOptions::adaptive(1.0e-6, 0.5e-6, 1.0e-3)),
            Err(SpiceError::InvalidOptions(msg)) if msg.contains("dt_max")
        ));
        let mut bad_reltol = TransientOptions::adaptive(1.0e-6, 1.0e-4, 1.0e-3);
        bad_reltol.reltol = 0.0;
        assert!(matches!(
            TransientAnalysis::new(&c, bad_reltol),
            Err(SpiceError::InvalidOptions(msg)) if msg.contains("reltol")
        ));
        let mut bad_abstol = TransientOptions::adaptive(1.0e-6, 1.0e-4, 1.0e-3);
        bad_abstol.abstol = f64::NAN;
        assert!(matches!(
            TransientAnalysis::new(&c, bad_abstol),
            Err(SpiceError::InvalidOptions(msg)) if msg.contains("abstol")
        ));
    }

    /// A MOSFET stage with a BJT follower, a diode clamp and an LC tail. In
    /// element order the drain capacitor, the clamp resistor and the
    /// emitter inductor follow the devices that share their slots, so the
    /// Newton image has linear "tail" stamps after device stamps, in the
    /// matrix and in the right-hand side; the gate steps at 1 µs.
    fn tail_circuit() -> Circuit {
        use loopscope_netlist::{BjtModel, BjtPolarity, DiodeModel, MosfetModel, MosfetPolarity};
        let mut c = Circuit::new("newton image tail");
        let vdd = c.node("vdd");
        let gate = c.node("gate");
        let drain = c.node("drain");
        let emitter = c.node("emitter");
        let out = c.node("out");
        c.add_vsource("VDD", vdd, Circuit::GROUND, SourceSpec::dc(3.0));
        c.add_vsource(
            "VG",
            gate,
            Circuit::GROUND,
            SourceSpec::step(0.9, 1.2, 1.0e-6),
        );
        c.add_resistor("RD", vdd, drain, 5.0e3);
        c.add_mosfet(
            "M1",
            drain,
            gate,
            Circuit::GROUND,
            MosfetPolarity::Nmos,
            10.0e-6,
            1.0e-6,
            MosfetModel {
                vto: 0.7,
                kp: 100.0e-6,
                lambda: 0.02,
                ..Default::default()
            },
        );
        c.add_capacitor("CD", drain, Circuit::GROUND, 1.0e-12);
        c.add_diode("D1", drain, vdd, DiodeModel::default());
        c.add_resistor("RC", drain, vdd, 50.0e3);
        c.add_bjt(
            "Q1",
            vdd,
            drain,
            emitter,
            BjtPolarity::Npn,
            BjtModel::default(),
        );
        c.add_resistor("RE", emitter, Circuit::GROUND, 10.0e3);
        c.add_inductor("L1", emitter, out, 1.0e-6);
        c.add_capacitor("CO", out, Circuit::GROUND, 1.0e-12);
        c
    }

    /// Assembles `job` through `ctx` (which serves loads from its Newton
    /// image once the key repeats) and in full through `reference`, and
    /// asserts bitwise-equal matrices and right-hand sides. Returns whether
    /// `ctx` holds an image for the job's key afterwards.
    fn assert_load_matches_stamps(
        ctx: &mut SolveContext<'_, f64>,
        reference: &mut SolveContext<'_, f64>,
        job: &TimestepSystem<'_, '_>,
    ) -> bool {
        let (mut rhs, mut want_rhs) = (Vec::new(), Vec::new());
        ctx.assemble_newton_into(job, &mut rhs);
        reference.assemble_into(job, &mut want_rhs);
        let bits = |m: &loopscope_sparse::CsrMatrix<f64>| {
            m.iter()
                .map(|(r, c, v)| (r, c, v.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            bits(ctx.matrix()),
            bits(reference.matrix()),
            "t = {}",
            job.t
        );
        let rhs_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(rhs_bits(&rhs), rhs_bits(&want_rhs), "t = {}", job.t);
        ctx.newton_image()
            .is_some_and(|image| image.key() == job.matrix_key())
    }

    #[test]
    fn newton_image_loads_are_bitwise_the_stamped_assemblies() {
        let c = tail_circuit();
        let op = solve_dc(&c).unwrap();
        let dt = 10.0e-9;
        let tran = TransientAnalysis::new(&c, TransientOptions::new(dt, 2.0e-6)).unwrap();
        let elements = c.elements().len();
        let mut ctx = SolveContext::adopting(&tran.layout);
        let mut reference = SolveContext::adopting(&tran.layout);
        let base = op.node_voltages().to_vec();
        // Nonzero reactive history, so the companion right-hand sides are
        // live in every step.
        let cap_current: Vec<f64> = (0..elements).map(|k| 1.0e-6 * k as f64).collect();
        let ind_voltage: Vec<f64> = (0..elements).map(|k| -1.0e-3 * k as f64).collect();
        let mut branch = vec![0.0; tran.layout.dim()];
        branch[tran.layout.branch_var("L1").unwrap()] = 2.0e-5;
        // (run, t, dt, method, left limit): the backward-Euler start-up
        // step, three trapezoidal steps, the step landing on the 1 µs
        // breakpoint by its left limit, the backward-Euler restart after
        // it, and a shortened final step.
        let short = 2.0e-6 - 199.0 * dt;
        let steps = [
            (1, dt, dt, Integration::BackwardEuler, false),
            (2, 2.0 * dt, dt, Integration::Trapezoidal, false),
            (3, 3.0 * dt, dt, Integration::Trapezoidal, false),
            (4, 4.0 * dt, dt, Integration::Trapezoidal, false),
            (5, 1.0e-6, 0.3 * dt, Integration::Trapezoidal, true),
            (6, 1.0e-6 + dt, dt, Integration::BackwardEuler, false),
            (7, 1.01e-6, dt, Integration::BackwardEuler, false),
            (8, 2.0e-6, short, Integration::Trapezoidal, false),
        ];
        let mut loads = 0;
        let mut tails = 0;
        let mut stamps = Vec::new();
        for (run, t, dt, method, left_limit) in steps {
            for k in 0..4 {
                // Each Newton iteration moves the devices' operating point.
                let trial: Vec<f64> = base
                    .iter()
                    .enumerate()
                    .map(|(i, v)| v + 1.0e-3 * (k * i) as f64 - 2.0e-3 * run as f64)
                    .collect();
                devices::stamp_devices(&c, &tran.layout, &trial, &mut stamps);
                let job = TimestepSystem {
                    analysis: &tran,
                    run,
                    t,
                    dt,
                    method,
                    left_limit,
                    stamps: Cow::Borrowed(&stamps),
                    device_key: 4 * run + k as u64,
                    prev: &base,
                    prev_cap_current: &cap_current,
                    prev_ind_voltage: &ind_voltage,
                    prev_solution: &branch,
                };
                if assert_load_matches_stamps(&mut ctx, &mut reference, &job) {
                    loads += 1;
                    tails = ctx.newton_image().unwrap().tail_len();
                }
            }
        }
        // Every key after its second iteration loads from an image, and the
        // image has tail stamps to replay.
        assert!(loads >= 10, "{loads} image loads");
        assert!(tails > 0);
        assert_eq!(
            ctx.stats().cached_assemblies,
            reference.stats().cached_assemblies
        );
    }

    /// Bitwise matrix and right-hand-side contents of `ctx`'s last
    /// assembly.
    fn assembled_bits(ctx: &SolveContext<'_, f64>, rhs: &[f64]) -> (Vec<u64>, Vec<u64>) {
        (
            ctx.matrix().iter().map(|e| e.2.to_bits()).collect(),
            rhs.iter().map(|v| v.to_bits()).collect(),
        )
    }

    #[test]
    fn rhs_only_loads_are_bitwise_the_full_loads() {
        let c = tail_circuit();
        let op = solve_dc(&c).unwrap();
        let dt = 10.0e-9;
        let tran = TransientAnalysis::new(&c, TransientOptions::new(dt, 2.0e-6)).unwrap();
        let elements = c.elements().len();
        let base = op.node_voltages().to_vec();
        let cap_current: Vec<f64> = (0..elements).map(|k| 1.0e-6 * k as f64).collect();
        let ind_voltage: Vec<f64> = (0..elements).map(|k| -1.0e-3 * k as f64).collect();
        let mut branch = vec![0.0; tran.layout.dim()];
        branch[tran.layout.branch_var("L1").unwrap()] = 2.0e-5;
        let job = |run: u64, method, stamps: &[NonlinearStamp], device_key| TimestepSystem {
            analysis: &tran,
            run,
            t: run as f64 * dt,
            dt,
            method,
            left_limit: false,
            stamps: Cow::Owned(stamps.to_vec()),
            device_key,
            prev: &base,
            prev_cap_current: &cap_current,
            prev_ind_voltage: &ind_voltage,
            prev_solution: &branch,
        };
        let (be, trap) = (Integration::BackwardEuler, Integration::Trapezoidal);
        // (run, method, device evaluation, whether the load is right-hand
        // side only): a backward-Euler run whose key compiles on its second
        // iteration, a new run under the same keys, a re-evaluated device,
        // the switch to trapezoidal (a new matrix key), and the same again.
        let iterations = [
            (1, be, 1, false),
            (1, be, 1, false),
            (1, be, 1, true),
            (2, be, 1, true),
            (2, be, 2, false),
            (2, be, 2, true),
            (3, trap, 2, false),
            (3, trap, 2, false),
            (3, trap, 2, true),
            (4, trap, 2, true),
            (4, trap, 3, false),
            (4, trap, 3, true),
        ];
        let mut ctx = SolveContext::adopting(&tran.layout);
        let mut reference = SolveContext::adopting(&tran.layout);
        let (mut rhs, mut want_rhs) = (Vec::new(), Vec::new());
        let mut stamps = Vec::new();
        let mut rhs_only = 0;
        for (run, method, evaluation, only_rhs) in iterations {
            let trial: Vec<f64> = base
                .iter()
                .enumerate()
                .map(|(i, v)| v + 1.0e-3 * (evaluation as usize * i) as f64)
                .collect();
            devices::stamp_devices(&c, &tran.layout, &trial, &mut stamps);
            let job = job(run, method, &stamps, evaluation);
            let reuses = ctx.stats().factor_reuses;
            let imaged = ctx
                .newton_image()
                .is_some_and(|image| image.key() == job.matrix_key());
            ctx.assemble_newton_into(&job, &mut rhs);
            reference.assemble_into(&job, &mut want_rhs);
            assert_eq!(
                assembled_bits(&ctx, &rhs),
                assembled_bits(&reference, &want_rhs),
                "run {run}, evaluation {evaluation}"
            );
            ctx.solve_verified_in_place(&mut rhs).unwrap();
            // An assembly with the factored keys reuses the factors; one
            // that found an image of the key in place loaded only the
            // right-hand side. (The second trapezoidal iteration stamps in
            // full to compile its image, and reuses too.)
            let reused = ctx.stats().factor_reuses > reuses;
            assert_eq!(
                reused && imaged,
                only_rhs,
                "run {run}, evaluation {evaluation}"
            );
            rhs_only += usize::from(only_rhs);
        }
        assert_eq!(ctx.stats().factor_reuses, rhs_only + 1);

        // A job that breaks the key promise shows what a right-hand-side
        // load reads: the currents of the stamps it is handed, over the
        // matrix last factored.
        let factored = assembled_bits(&ctx, &rhs).0;
        let moved: Vec<f64> = base.iter().map(|v| v + 0.05).collect();
        devices::stamp_devices(&c, &tran.layout, &moved, &mut stamps);
        let liar = job(4, trap, &stamps, 3);
        ctx.assemble_newton_into(&liar, &mut rhs);
        reference.assemble_into(&liar, &mut want_rhs);
        let (matrix, loaded_rhs) = assembled_bits(&ctx, &rhs);
        let (full_matrix, full_rhs) = assembled_bits(&reference, &want_rhs);
        assert_eq!(matrix, factored);
        assert_ne!(matrix, full_matrix);
        assert_eq!(loaded_rhs, full_rhs);
    }

    #[test]
    fn hook_and_gmin_rescue_change_the_assembled_values_not_the_image() {
        let c = tail_circuit();
        let op = solve_dc(&c).unwrap();
        let tran = TransientAnalysis::new(&c, TransientOptions::new(10.0e-9, 1.0e-6)).unwrap();
        let history = vec![0.0; c.elements().len().max(tran.layout.dim())];
        let job = tran.assembly_job(
            10.0e-9,
            Integration::Trapezoidal,
            op.node_voltages(),
            &history,
        );
        let mut ctx = SolveContext::adopting(&tran.layout);
        let mut reference = SolveContext::adopting(&tran.layout);
        let mut rhs = Vec::new();
        for _ in 0..3 {
            ctx.assemble_newton_into(&job, &mut rhs);
        }
        assert!(ctx.newton_image().is_some());
        reference.assemble_into(&job, &mut Vec::new());
        let clean: Vec<u64> = reference.matrix().iter().map(|e| e.2.to_bits()).collect();
        let values = |ctx: &SolveContext<'_, f64>| -> Vec<u64> {
            ctx.matrix().iter().map(|e| e.2.to_bits()).collect()
        };

        // A poisoned value reaches the verified solve...
        ctx.assemble_newton_into(&job, &mut rhs);
        let slot = ctx.matrix_mut().find_slot(0, 0).unwrap();
        ctx.matrix_mut().values_mut()[slot] = f64::NAN;
        assert!(matches!(
            ctx.solve_verified_in_place(&mut rhs),
            Err(SpiceError::NonFiniteStamp { .. })
        ));
        // ...and the next load is clean again.
        ctx.assemble_newton_into(&job, &mut rhs);
        assert!(ctx.newton_image().is_some());
        assert_eq!(values(&ctx), clean);

        // A dead column is rescued by a gmin bump of the assembled values;
        // the next load carries no bump.
        let dead = tran.layout.node_var(c.find_node("out").unwrap()).unwrap();
        let m = ctx.matrix_mut();
        for (row, col, _) in m.clone().iter() {
            if col == dead {
                let slot = m.find_slot(row, col).unwrap();
                m.values_mut()[slot] = 0.0;
            }
        }
        let q = ctx.solve_verified_in_place(&mut rhs).unwrap();
        assert!(q.converged);
        assert!(ctx.stats().gmin_bumps >= 1);
        ctx.assemble_newton_into(&job, &mut rhs);
        assert!(ctx.newton_image().is_some());
        assert_eq!(values(&ctx), clean);
    }

    #[test]
    fn linear_fixed_grid_reuses_its_factors_once_the_key_settles() {
        // dt = 2^-20 s and t_stop = 64·dt are exact, so every step after
        // the backward-Euler start-up has the same `(dt, method)` key.
        let mut c = Circuit::new("rc reuse");
        let vin = c.node("in");
        let vout = c.node("out");
        c.add_vsource("V1", vin, Circuit::GROUND, SourceSpec::step(0.0, 1.0, 0.0));
        c.add_resistor("R1", vin, vout, 1.0e3);
        c.add_capacitor("C1", vout, Circuit::GROUND, 1.0e-9);
        let op = solve_dc(&c).unwrap();
        let dt = 1.0 / 1_048_576.0;
        let tran = TransientAnalysis::new(&c, TransientOptions::new(dt, 64.0 * dt)).unwrap();
        let stats = *tran.run(&op).unwrap().stats();
        assert_eq!(stats.accepted_steps, 64);
        assert_eq!(stats.newton_iterations, 64);
        // A linear circuit has no devices to bypass.
        assert_eq!(stats.bypassed_iterations, 0);
        // Step 1 (backward Euler) is the symbolic analysis, step 2 the one
        // refactorization of the trapezoidal key, and every later step
        // assembles bitwise the same matrix and reuses its factors.
        assert_eq!(stats.solve.symbolic, 1);
        assert_eq!(stats.solve.numeric_refactor, 1);
        assert_eq!(stats.solve.factor_reuses, 62);
        assert_eq!(stats.solve.factorizations(), 2);
    }

    #[test]
    fn a_settled_step_start_bypasses_the_devices_and_reuses_the_factors() {
        // A diode clamp charging through an RC: the first Newton iteration
        // of each step starts from the previous step's converged point,
        // within vntol of that step's last device evaluation.
        use loopscope_netlist::DiodeModel;
        let mut c = Circuit::new("bypass");
        let vin = c.node("in");
        let vout = c.node("out");
        c.add_vsource("V1", vin, Circuit::GROUND, SourceSpec::step(0.0, 2.0, 0.0));
        c.add_resistor("R1", vin, vout, 1.0e3);
        c.add_capacitor("C1", vout, Circuit::GROUND, 1.0e-9);
        c.add_diode("D1", vout, Circuit::GROUND, DiodeModel::default());
        let op = solve_dc(&c).unwrap();
        let tran = TransientAnalysis::new(&c, TransientOptions::new(10.0e-9, 5.0e-6)).unwrap();
        let stats = *tran.run(&op).unwrap().stats();
        assert!(stats.bypassed_iterations > 0, "{stats:?}");
        // Every step after the first has one first iteration at most.
        assert!(
            stats.bypassed_iterations < stats.accepted_steps,
            "{stats:?}"
        );
        // A bypassed iteration with the step's key loads the factored
        // values again, so its factor is reused.
        assert!(stats.solve.factor_reuses > 0, "{stats:?}");
        assert_eq!(
            stats.solve.factorizations() + stats.solve.factor_reuses,
            stats.newton_iterations,
            "{stats:?}"
        );
    }

    #[test]
    fn rc_charge_is_accurate_at_clamped_final_point() {
        // τ = 1 ms; stop mid-curve at a non-multiple of dt so the final
        // (shortened) step actually integrates: the value at t_stop must
        // match the analytic exponential, proving the companion models used
        // the shortened width rather than a full dt.
        let mut c = Circuit::new("rc clamp");
        let vin = c.node("in");
        let vout = c.node("out");
        c.add_vsource("V1", vin, Circuit::GROUND, SourceSpec::step(0.0, 1.0, 0.0));
        c.add_resistor("R1", vin, vout, 1.0e3);
        c.add_capacitor("C1", vout, Circuit::GROUND, 1.0e-6);
        let op = solve_dc(&c).unwrap();
        let t_stop = 0.73e-3; // 73 steps of 10 µs
        let tran = TransientAnalysis::new(&c, TransientOptions::new(10.1e-6, t_stop)).unwrap();
        let r = tran.run(&op).unwrap();
        assert_eq!(*r.times().last().unwrap(), t_stop);
        let expected = 1.0 - (-t_stop / 1.0e-3_f64).exp();
        let got = r.value_at(vout, t_stop).unwrap();
        assert!((got - expected).abs() < 5e-3, "{got} vs {expected}");
    }
}
