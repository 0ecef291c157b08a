//! Transient (time-domain) analysis.
//!
//! Transient analysis is the substrate for the *traditional* stability check
//! the paper compares against — "node pulsing": apply a small step to the
//! closed-loop circuit and read the overshoot of the response. Integration
//! uses backward Euler or trapezoidal companion models; nonlinear devices
//! are resolved with Newton iteration at every time point.
//!
//! # Fixed grid vs. adaptive stepping
//!
//! Two stepping modes share one options struct:
//!
//! * **Fixed grid** ([`TransientOptions::new`], `dt_min == dt_max`): the
//!   legacy uniform-`dt` grid with the final step shortened to land exactly
//!   on `t_stop`.
//! * **Adaptive** ([`TransientOptions::adaptive`], `dt_max > dt_min`): each
//!   step runs a per-step *accept-or-escalate ladder* mirroring the solver's
//!   verified-solve retry ladder on the time axis. A step is solved, its
//!   local truncation error (LTE) estimated from a predictor–corrector
//!   difference against `reltol`/`abstol`, and then either **accepted**
//!   (growing the next step, capped at `dt_max` and the next breakpoint) or
//!   **rejected** — halve the width and retry. Newton non-convergence is
//!   just another rejection rung (halve; at `dt_min` switch the step to
//!   backward Euler) before the run surfaces
//!   [`SpiceError::TransientNoConvergence`] enriched with the recorded
//!   [`rejection history`](crate::error::StepRejection).
//!
//! A **breakpoint schedule** harvested from source discontinuities
//! ([`loopscope_netlist::Waveform::breakpoints`]) forces exact landings:
//! the step *ending* on a breakpoint evaluates sources by their left limit
//! and the step *starting* there restarts with one backward-Euler step at
//! `dt_min` (the same start-up treatment `t = 0` gets), so a discontinuity
//! is never integrated across.
//!
//! The step sequence is a pure deterministic function of (circuit, options):
//! every accept/reject decision is computed from residual-verified solutions
//! that are themselves bitwise identical at any `LOOPSCOPE_THREADS`
//! setting, so the produced grid — and every counter in
//! [`TransientStats`] — is bit-identical across those configurations.

use crate::assembly::{AssembleMna, NewtonJob, SolveContext, SolveStats};
use crate::dc::OperatingPoint;
use crate::devices;
use crate::error::{SpiceError, StepRejectReason, StepRejection};
use crate::mna::{MatrixSink, MnaLayout, StampPart, Stamper};
use crate::GMIN;
use loopscope_math::interp;
use loopscope_netlist::{Circuit, Element, NodeId};

/// Step-growth threshold: the next step doubles only when the worst LTE
/// ratio of the accepted step is at or below this fraction of the tolerance.
/// With the trapezoidal rule's ~`h³` local error, doubling multiplies the
/// estimate by ~8x, so growing at ≤ 0.1 keeps the post-growth ratio below 1
/// and avoids accept/reject limit cycles.
const LTE_GROW_THRESHOLD: f64 = 0.1;

/// Relative landing tolerance of the adaptive stepper, as a fraction of
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
/// `dt_min == dt_max` selects the legacy **fixed grid** (and `reltol`/
/// `abstol` are unused); `dt_max > dt_min` selects the **adaptive** stepper
/// described in the [module docs](crate::tran).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientOptions {
    /// Smallest step the adaptive ladder may take, in seconds. On the fixed
    /// grid this *is* the step. (Breakpoint landings may still produce a
    /// shorter step when two breakpoints lie closer than `dt_min`.)
    pub dt_min: f64,
    /// Largest step the adaptive controller may grow to, in seconds. Must
    /// equal `dt_min` for a fixed-grid run.
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

    /// Whether these options select the adaptive stepper
    /// (`dt_max > dt_min`).
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
    /// non-convergence) and retried at a smaller width. Always zero on the
    /// fixed grid.
    pub rejected_steps: usize,
    /// Steps accepted *despite* an LTE estimate over tolerance because the
    /// width had already reached `dt_min` — graceful degradation instead of
    /// a hard abort. Always zero on the fixed grid.
    pub forced_accepts: usize,
    /// Total Newton iterations across all attempts (accepted and rejected).
    pub newton_iterations: usize,
    /// Smallest accepted step width, seconds (`+∞` before any step).
    pub min_dt: f64,
    /// Largest accepted step width, seconds (`0` before any step).
    pub max_dt: f64,
    /// Breakpoints the stepper landed on exactly (source discontinuities;
    /// the plain `t_stop` landing is not counted unless a discontinuity
    /// falls there). Always zero on the fixed grid.
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
    /// The grid is **not uniform in general**: a fixed-grid run is
    /// `dt`-spaced except for a possibly shortened final step, while an
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
}

impl<'c> TransientAnalysis<'c> {
    /// Prepares a transient analysis.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidOptions`] for a non-positive `dt_min`, a
    /// `dt_max` below `dt_min`, a `t_stop` shorter than one minimum step, a
    /// zero `max_newton`, non-finite or non-positive `vntol`/`reltol`/
    /// `abstol`, and [`SpiceError::Netlist`] if the circuit fails validation.
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
        Ok(Self {
            circuit,
            layout: MnaLayout::new(circuit),
            options,
        })
    }

    /// Runs the transient analysis starting from the given operating point.
    ///
    /// Dispatches on the options: `dt_max == dt_min` runs the legacy
    /// fixed-grid loop (bitwise identical to its historical output),
    /// `dt_max > dt_min` runs the adaptive accept-or-escalate stepper (see
    /// the [module docs](crate::tran)).
    ///
    /// # Errors
    ///
    /// Returns a hard solver failure ([`SpiceError::SingularSystem`],
    /// [`SpiceError::NonFiniteStamp`], [`SpiceError::ResidualCheckFailed`] or
    /// [`SpiceError::Linear`]) if a time-point system cannot be solved even
    /// through the solver's retry ladder, or
    /// [`SpiceError::TransientNoConvergence`] — naming the time point, step
    /// index, worst-residual node and (on the adaptive path) the rejected
    /// step attempts — once the step ladder is exhausted at `dt_min`.
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

    fn run_impl<F: FnMut(usize, &mut SolveContext<'_, f64>)>(
        &self,
        op: &OperatingPoint,
        hook: F,
    ) -> Result<TransientResult, SpiceError> {
        if self.options.is_adaptive() {
            self.run_adaptive(op, hook)
        } else {
            self.run_fixed(op, hook)
        }
    }

    /// The legacy fixed-grid loop. Every arithmetic operation on the
    /// waveform path is unchanged from before the adaptive stepper existed,
    /// so `dt_max == dt_min` options reproduce historical results bitwise.
    fn run_fixed<F: FnMut(usize, &mut SolveContext<'_, f64>)>(
        &self,
        op: &OperatingPoint,
        mut hook: F,
    ) -> Result<TransientResult, SpiceError> {
        let node_count = self.circuit.node_count();
        let dt = self.options.dt_min;
        let t_stop = self.options.t_stop;
        // Step count covering 0..=t_stop. `ceil` alone is not enough: when
        // t_stop is not an exact multiple of dt the final full step would
        // land PAST t_stop (e.g. dt = 0.4, t_stop = 1.0 → grid 0.4, 0.8,
        // 1.2), and floating-point division rounds exact multiples UP a few
        // ulps (10e-6 / 1e-6 = 10.000…002), which a bare `ceil` turns into
        // a phantom ~1e-21-second step. Shaving a few ulps off the ratio
        // before ceiling collapses those near-exact cases back to the exact
        // grid; genuinely non-multiple stop times keep their extra step,
        // which the loop below shortens to end exactly at t_stop. The
        // `while` guard is a belt-and-suspenders floor so the shortened
        // step's width is strictly positive in every remaining case.
        let ratio = (t_stop / dt) * (1.0 - 8.0 * f64::EPSILON);
        let mut steps = (ratio.ceil() as usize).max(1);
        while steps > 1 && (steps - 1) as f64 * dt >= t_stop {
            steps -= 1;
        }

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

        // The whole result is reserved up front, so accepting a step
        // allocates nothing.
        let mut times = Vec::with_capacity(steps + 1);
        let mut data = Vec::with_capacity((steps + 1) * node_count);
        times.push(0.0);
        data.extend_from_slice(&voltages);
        let nonlinear = self.circuit.elements().iter().any(Element::is_nonlinear);

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
        let mut stats = TransientStats::default();
        let mut solve_ordinal = 0usize;

        for step in 1..=steps {
            // The final step ends exactly at t_stop, shortened when t_stop
            // is not a multiple of dt; the companion models integrate over
            // the actual step width.
            let last = step == steps;
            let t = if last { t_stop } else { step as f64 * dt };
            let dt_step = if last {
                t_stop - (step - 1) as f64 * dt
            } else {
                dt
            };
            // Backward Euler start-up step for trapezoidal integration (see
            // [`Integration::Trapezoidal`]): the t = 0 reactive currents from
            // the DC operating point are not valid trapezoidal history when a
            // source is discontinuous at t = 0⁺.
            let method = if step == 1 {
                Integration::BackwardEuler
            } else {
                self.options.method
            };
            trial.copy_from_slice(&voltages);
            let mut converged = false;
            // Node with the largest voltage update at the most recent Newton
            // iteration — named in the non-convergence error so the user
            // knows which unknown refused to settle.
            let mut worst_node = None;

            for _ in 0..self.options.max_newton {
                let job = TimestepSystem {
                    analysis: self,
                    run: step as u64,
                    t,
                    dt: dt_step,
                    method,
                    left_limit: false,
                    trial: &trial,
                    prev: &voltages,
                    prev_cap_current: &prev_cap_current,
                    prev_ind_voltage: &prev_ind_voltage,
                    prev_solution: &branch_currents,
                };
                // Assembly and the verified solve are split so the
                // (production no-op) hook can poison the assembled values
                // in fault-injection runs.
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
                if max_delta < self.options.vntol || !nonlinear {
                    converged = true;
                    break;
                }
            }
            if !converged {
                let worst = worst_node
                    .map(|n| self.circuit.node_name(n).to_string())
                    .unwrap_or_else(|| "<none>".to_string());
                return Err(SpiceError::TransientNoConvergence {
                    time: t,
                    step,
                    worst_node: worst,
                    rejections: Vec::new(),
                });
            }

            // Update capacitor / inductor state for the next step.
            for (ei, el) in self.circuit.elements().iter().enumerate() {
                match el {
                    Element::Capacitor(c) => {
                        let v_new = trial[c.a.index()] - trial[c.b.index()];
                        let v_old = voltages[c.a.index()] - voltages[c.b.index()];
                        let i_new = match method {
                            Integration::BackwardEuler => c.farads / dt_step * (v_new - v_old),
                            Integration::Trapezoidal => {
                                2.0 * c.farads / dt_step * (v_new - v_old) - prev_cap_current[ei]
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
            std::mem::swap(&mut voltages, &mut trial);
            times.push(t);
            data.extend_from_slice(&voltages);
            stats.record_accept(dt_step);
        }

        stats.solve = solver.stats();
        Ok(TransientResult {
            times,
            data,
            stride: node_count,
            stats,
        })
    }

    /// The breakpoint schedule for this run: source discontinuities in
    /// `(0, t_stop]`, sorted and merged. Points within a relative tolerance
    /// of each other collapse to one landing (two ulp-apart edges must not
    /// force a degenerate ulp-wide step), and a point within tolerance of
    /// `t_stop` snaps onto it so the final landing doubles as the breakpoint
    /// landing.
    fn breakpoints(&self) -> Vec<f64> {
        let t_stop = self.options.t_stop;
        let tol = t_stop * LANDING_RTOL;
        let mut bps = Vec::new();
        for el in self.circuit.elements() {
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

    /// The adaptive accept-or-escalate stepper (see the
    /// [module docs](crate::tran) for the ladder).
    fn run_adaptive<F: FnMut(usize, &mut SolveContext<'_, f64>)>(
        &self,
        op: &OperatingPoint,
        mut hook: F,
    ) -> Result<TransientResult, SpiceError> {
        let node_count = self.circuit.node_count();
        let opts = &self.options;
        let t_stop = opts.t_stop;
        let bps = self.breakpoints();
        let nonlinear = self.circuit.elements().iter().any(Element::is_nonlinear);

        // State carried between time points (identical to the fixed grid).
        let mut voltages = op.node_voltages().to_vec();
        let mut prev_cap_current: Vec<f64> = vec![0.0; self.circuit.elements().len()];
        let mut prev_ind_voltage: Vec<f64> = vec![0.0; self.circuit.elements().len()];
        let mut branch_currents: Vec<f64> = vec![0.0; self.layout.dim()];
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

        let mut times = vec![0.0];
        let mut data = voltages.clone();
        let mut solver = SolveContext::adopting(&self.layout);
        let mut trial = voltages.clone();
        let mut next = vec![0.0; node_count];
        let mut solution = vec![0.0; self.layout.dim()];
        let mut stats = TransientStats::default();
        let mut solve_ordinal = 0usize;
        // Newton runs started: every attempt restamps its linear
        // right-hand side once.
        let mut runs = 0u64;

        // Predictor history: the accepted solution *before* `voltages` and
        // the step width that led from it to `voltages`. Invalidated across
        // discontinuities — linear extrapolation through a jump would be
        // meaningless as an error reference.
        let mut prev2 = vec![0.0; node_count];
        let mut hist_valid = false;
        let mut h_last = 0.0f64;

        let mut t = 0.0f64;
        // The controller's step. Starts (and restarts after every
        // breakpoint) at `dt_min`: right after a discontinuity there is no
        // LTE evidence yet, so the ladder re-earns its width by doubling.
        let mut h = opts.dt_min;
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
                // exactly on t_stop and on the next breakpoint. Exact
                // targets are assigned (not accumulated) so the grid hits
                // them bit-exactly. A step that would stop within the
                // landing tolerance short of t_stop (accumulated rounding
                // leaves `t` a few ulps off the grid) takes t_stop with it
                // rather than leaving a sliver for one more step.
                let remaining = t_stop - t;
                let (mut h_c, mut target) = if remaining - h_try <= t_stop * LANDING_RTOL {
                    (remaining, t_stop)
                } else {
                    (h_try, t + h_try)
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

                // Newton at (t_new, h_c). A landing step evaluates sources
                // by their left limit: the discontinuity belongs to the
                // *next* step, never to the one integrating up to it.
                trial.copy_from_slice(&voltages);
                let mut converged = false;
                let mut worst_node = None;
                runs += 1;
                for _ in 0..opts.max_newton {
                    let job = TimestepSystem {
                        analysis: self,
                        run: runs,
                        t: t_new,
                        dt: h_c,
                        method,
                        left_limit: landing,
                        trial: &trial,
                        prev: &voltages,
                        prev_cap_current: &prev_cap_current,
                        prev_ind_voltage: &prev_ind_voltage,
                        prev_solution: &branch_currents,
                    };
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
                    if max_delta < opts.vntol || !nonlinear {
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
                    if h_c > opts.dt_min {
                        h_try = (h_c * 0.5).max(opts.dt_min);
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
                        if h_c > opts.dt_min {
                            stats.rejected_steps += 1;
                            rejections.push(StepRejection {
                                time: t_new,
                                dt: h_c,
                                reason: StepRejectReason::LteExceeded { ratio },
                            });
                            h_try = (h_c * 0.5).max(opts.dt_min);
                            continue;
                        }
                        // Already at the floor: accept anyway (graceful
                        // degradation — the fixed grid would have silently
                        // taken this step too) and count it.
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
                if landing || post_disc {
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
    /// `voltages` and `history`.
    pub fn assembly_job<'a>(
        &'a self,
        t: f64,
        method: Integration,
        voltages: &'a [f64],
        history: &'a [f64],
    ) -> impl NewtonJob + 'a {
        TimestepSystem {
            analysis: self,
            run: t.to_bits(),
            t,
            dt: self.options.dt_min,
            method,
            left_limit: false,
            trial: voltages,
            prev: voltages,
            prev_cap_current: history,
            prev_ind_voltage: history,
            prev_solution: history,
        }
    }

    /// Stamps `part` of the MNA system for one Newton iteration of one time
    /// point.
    ///
    /// With `left_limit` set (a breakpoint-landing step), independent
    /// sources are evaluated by their left limit at `t` so the step sees
    /// only the pre-discontinuity waveform.
    #[allow(clippy::too_many_arguments)]
    fn stamp_timestep<S: MatrixSink<f64>>(
        &self,
        st: &mut Stamper<'_, f64, S>,
        part: StampPart,
        t: f64,
        dt: f64,
        method: Integration,
        left_limit: bool,
        trial: &[f64],
        prev: &[f64],
        prev_cap_current: &[f64],
        prev_ind_voltage: &[f64],
        prev_solution: &[f64],
    ) {
        let trapezoidal = method == Integration::Trapezoidal;
        let source_value = |spec: &loopscope_netlist::SourceSpec| {
            if left_limit {
                spec.value_at_left(t)
            } else {
                spec.value_at(t)
            }
        };

        if part.stamps_gmin() {
            for node in self.circuit.signal_nodes_iter() {
                st.add_node_node(node, node, GMIN);
            }
        }

        let elements = self.circuit.elements();
        for &ei in self.layout.part_elements(part) {
            match &elements[ei] {
                Element::Resistor(r) => st.stamp_admittance(r.a, r.b, 1.0 / r.ohms),
                Element::Capacitor(c) => {
                    let v_old = prev[c.a.index()] - prev[c.b.index()];
                    if trapezoidal {
                        let geq = 2.0 * c.farads / dt;
                        let ieq = geq * v_old + prev_cap_current[ei];
                        st.stamp_admittance(c.a, c.b, geq);
                        st.add_rhs_node(c.a, ieq);
                        st.add_rhs_node(c.b, -ieq);
                    } else {
                        let geq = c.farads / dt;
                        let ieq = geq * v_old;
                        st.stamp_admittance(c.a, c.b, geq);
                        st.add_rhs_node(c.a, ieq);
                        st.add_rhs_node(c.b, -ieq);
                    }
                }
                Element::Inductor(l) => {
                    let br = self.layout.element_branch(ei).expect("branch");
                    let i_old = prev_solution[br];
                    st.add_var_node(br, l.a, 1.0);
                    st.add_var_node(br, l.b, -1.0);
                    st.add_node_var(l.a, br, 1.0);
                    st.add_node_var(l.b, br, -1.0);
                    if trapezoidal {
                        let req = 2.0 * l.henries / dt;
                        st.add_var_var(br, br, -req);
                        st.add_rhs_var(br, -req * i_old - prev_ind_voltage[ei]);
                    } else {
                        let req = l.henries / dt;
                        st.add_var_var(br, br, -req);
                        st.add_rhs_var(br, -req * i_old);
                    }
                }
                Element::Vsource(v) => {
                    let br = self.layout.element_branch(ei).expect("branch");
                    st.add_var_node(br, v.plus, 1.0);
                    st.add_var_node(br, v.minus, -1.0);
                    st.add_node_var(v.plus, br, 1.0);
                    st.add_node_var(v.minus, br, -1.0);
                    st.add_rhs_var(br, source_value(&v.spec));
                }
                Element::Isource(i) => {
                    st.stamp_current_injection(i.minus, i.plus, source_value(&i.spec));
                }
                Element::Vcvs(e) => {
                    let br = self.layout.element_branch(ei).expect("branch");
                    st.add_var_node(br, e.out_plus, 1.0);
                    st.add_var_node(br, e.out_minus, -1.0);
                    st.add_var_node(br, e.ctrl_plus, -e.gain);
                    st.add_var_node(br, e.ctrl_minus, e.gain);
                    st.add_node_var(e.out_plus, br, 1.0);
                    st.add_node_var(e.out_minus, br, -1.0);
                }
                Element::Vccs(g) => {
                    st.stamp_vccs(g.out_plus, g.out_minus, g.ctrl_plus, g.ctrl_minus, g.gm)
                }
                Element::Cccs(f) => {
                    let ctrl = self
                        .layout
                        .control_branch(ei)
                        .expect("controlling source validated");
                    st.add_node_var(f.out_plus, ctrl, f.gain);
                    st.add_node_var(f.out_minus, ctrl, -f.gain);
                }
                Element::Ccvs(h) => {
                    let br = self.layout.element_branch(ei).expect("branch");
                    let ctrl = self
                        .layout
                        .control_branch(ei)
                        .expect("controlling source validated");
                    st.add_var_node(br, h.out_plus, 1.0);
                    st.add_var_node(br, h.out_minus, -1.0);
                    st.add_var_var(br, ctrl, -h.rm);
                    st.add_node_var(h.out_plus, br, 1.0);
                    st.add_node_var(h.out_minus, br, -1.0);
                }
                Element::Diode(d) => {
                    devices::stamp_diode(d, trial).apply(st);
                }
                Element::Bjt(q) => {
                    devices::stamp_bjt(q, trial).apply(st);
                }
                Element::Mosfet(m) => {
                    devices::stamp_mosfet(m, trial).apply(st);
                }
            }
        }
    }
}

/// Assembly job for one Newton iteration of one transient time point.
///
/// The linear matrix stamps depend only on the step width and the
/// integration method (the Newton image's matrix key). The linear
/// right-hand side (sources at `t`, companion history) is fixed for a
/// whole Newton run, which `run` numbers.
struct TimestepSystem<'a, 'c> {
    analysis: &'a TransientAnalysis<'c>,
    /// Ordinal of the Newton run (the step attempt) this iteration serves.
    run: u64,
    t: f64,
    dt: f64,
    method: Integration,
    /// Evaluate sources by their left limit at `t` (breakpoint landing).
    left_limit: bool,
    trial: &'a [f64],
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

    fn stamp_part<S: MatrixSink<f64>>(&self, st: &mut Stamper<'_, f64, S>, part: StampPart) {
        self.analysis.stamp_timestep(
            st,
            part,
            self.t,
            self.dt,
            self.method,
            self.left_limit,
            self.trial,
            self.prev,
            self.prev_cap_current,
            self.prev_ind_voltage,
            self.prev_solution,
        );
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
                // The fixed grid has no retry ladder — no recorded attempts.
                assert!(rejections.is_empty());
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
    fn degenerate_adaptive_options_take_the_fixed_grid_path() {
        let (c, a) = dc_circuit();
        let op = solve_dc(&c).unwrap();
        let fixed = TransientOptions::new(1.0e-6, 10.0e-6);
        let degenerate = TransientOptions::adaptive(1.0e-6, 1.0e-6, 10.0e-6);
        assert!(!degenerate.is_adaptive());
        let rf = TransientAnalysis::new(&c, fixed).unwrap().run(&op).unwrap();
        let rd = TransientAnalysis::new(&c, degenerate)
            .unwrap()
            .run(&op)
            .unwrap();
        // Bitwise identical grids and waveforms.
        assert_eq!(rf.times(), rd.times());
        let (wf, wd) = (rf.waveform(a).unwrap(), rd.waveform(a).unwrap());
        assert!(wf.iter().zip(&wd).all(|(x, y)| x.to_bits() == y.to_bits()));
        assert_eq!(rd.stats().rejected_steps, 0);
        assert_eq!(rd.stats().breakpoints_hit, 0);
        assert_eq!(rd.stats().accepted_steps, 10);
        // The final fixed step's width is computed as `t_stop - 9·dt`, a few
        // ulps off dt — the stats record what was actually integrated.
        assert!((rd.stats().min_dt - 1.0e-6).abs() < 1e-18);
        assert!((rd.stats().max_dt - 1.0e-6).abs() < 1e-18);
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
        for (run, t, dt, method, left_limit) in steps {
            for k in 0..4 {
                // Each Newton iteration moves the devices' operating point.
                let trial: Vec<f64> = base
                    .iter()
                    .enumerate()
                    .map(|(i, v)| v + 1.0e-3 * (k * i) as f64 - 2.0e-3 * run as f64)
                    .collect();
                let job = TimestepSystem {
                    analysis: &tran,
                    run,
                    t,
                    dt,
                    method,
                    left_limit,
                    trial: &trial,
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
