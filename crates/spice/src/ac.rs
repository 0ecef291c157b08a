//! Small-signal AC analysis.
//!
//! The circuit is linearized around a previously computed DC operating point
//! and the complex MNA system `Y(jω)·x = b` is solved at every frequency of a
//! sweep. Two kinds of excitation are supported:
//!
//! * the circuit's own AC sources ([`AcAnalysis::sweep`]), which is the
//!   classical `.ac` analysis used for Bode plots, and
//! * a **unit AC current injected at a node** with every other AC stimulus
//!   turned off ([`AcAnalysis::driving_point_response`] /
//!   [`AcAnalysis::driving_point_all_nodes`]) — the probe the stability
//!   methodology of Milev & Burt is built on. The response at the injected
//!   node is the driving-point impedance `Z_nn(jω)`, whose magnitude carries
//!   the complex-pole signature the stability plot extracts. A single-node
//!   probe (and the batched sweeps of [`crate::batch`]) solves only the
//!   diagonal block of the block-triangular form that holds the node's
//!   row — the node's loop — bitwise the whole-system value up to the sign
//!   of an exact zero (see [`AcAnalysis::driving_point_response`]).
//!
//! For the all-nodes mode every node's driving-point impedance is a diagonal
//! entry of `Y(jω)⁻¹`, and all of them are read off the one factorization
//! each frequency already has by **selected inversion**
//! ([`loopscope_sparse::SparseLu::diag_inverse_into`], the Takahashi
//! recurrences) at about the cost of one factorization — not one solve per
//! node. Two verified sample injections per frequency check the result
//! against the retry-ladder solve (see
//! [`AcAnalysis::driving_point_all_nodes`] for the tolerance). That is what
//! makes whole-circuit stability scans cheap compared to running one full
//! simulation per node.
//!
//! Across frequency points the heavy lifting is shared through a
//! [`SweepPlan`]: the sparsity pattern,
//! value-slot map and fill-reducing LU symbolic analysis are built **once
//! per analysis** and shared — read-only — by every solve. Next to the plan
//! the analysis compiles its element stamps once into an [`AffineImage`]
//! `Y(jω) = G + jω·C`, and every frequency point loads its values from it
//! instead of re-running the stamps — bit for bit the same values (see
//! [`AffineImage`] for the argument, and the self-check that guards it). Frequency points
//! are embarrassingly parallel, so all three sweep entry points
//! ([`AcAnalysis::sweep`], [`AcAnalysis::driving_point_response`],
//! [`AcAnalysis::driving_point_all_nodes`]) chunk their grid across worker
//! threads via [`crate::par::sweep_chunks`] (`LOOPSCOPE_THREADS` knob,
//! default = available parallelism). Each worker mints its own
//! [`SolveContext`] from the shared plan:
//! value buffers, numeric L/U, scratch — reloaded in place, refactored
//! numerically, solved through the one verified retry ladder
//! ([`SolveContext::solve_verified_in_place`]) or inverted on the selected
//! set, with no heap allocation on the factor side. Results are assembled
//! in frequency order and are **bitwise identical at any worker count**; a
//! whole sweep still
//! performs exactly one symbolic analysis (see
//! [`AcAnalysis::solve_stats`]).

use crate::assembly::{
    AffineImage, AffineSink, AssembleMna, Injection, SlotSink, SolveContext, SolveStats, SweepPlan,
};
use crate::dc::OperatingPoint;
use crate::devices::{self, NonlinearStamp};
use crate::error::SpiceError;
use crate::mna::{MatrixSink, MnaLayout, StampModel, Stamper};
use crate::par;
use crate::solver::SolverBackend;
use crate::GMIN;
use loopscope_math::{interp, Complex64, FrequencyGrid, TWO_PI};
use loopscope_netlist::{Capacitor, Circuit, Element, Inductor, NodeId, SourceSpec};
use loopscope_sparse::{CsrMatrix, KernelBackend, Scalar, REFINE_BACKWARD_TOLERANCE};
use std::sync::{Arc, Mutex, OnceLock};

/// Verified sample injections per frequency point of the all-nodes scan
/// (see [`AcAnalysis::driving_point_all_nodes`]).
const INVERSE_SAMPLES: usize = 2;

/// A numeric fault planted in the driving-point sweeps of one analysis —
/// the hook the all-nodes fault-injection tests drive. Compiled only under
/// the `fault-inject` feature; never part of the production surface.
#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcFault {
    /// Perturb the assembled matrix of sweep index `point` with `kind`,
    /// seeded by `seed` — at every assembly of that point, so a per-node
    /// recomputation replays the same fault.
    Matrix {
        /// Sweep index of the faulted frequency.
        point: usize,
        /// The perturbation.
        kind: loopscope_sparse::faults::FaultKind,
        /// Injector seed.
        seed: u64,
    },
    /// Add one ohm to the selected-inverse value of the first verification
    /// sample of all-nodes sweep index `point`.
    SelectedInverse {
        /// Sweep index of the faulted frequency.
        point: usize,
    },
}

/// Results of an AC sweep: complex node voltages over frequency.
///
/// ```
/// use loopscope_math::FrequencyGrid;
/// use loopscope_netlist::{Circuit, SourceSpec};
/// use loopscope_spice::{ac::AcAnalysis, dc::solve_dc};
///
/// // RC low-pass driven by a 1 V AC source.
/// let mut ckt = Circuit::new("rc");
/// let vin = ckt.node("in");
/// let vout = ckt.node("out");
/// ckt.add_vsource("V1", vin, Circuit::GROUND, SourceSpec::dc_ac(0.0, 1.0, 0.0));
/// ckt.add_resistor("R1", vin, vout, 1.0e3);
/// ckt.add_capacitor("C1", vout, Circuit::GROUND, 1.0e-6);
/// let op = solve_dc(&ckt)?;
/// let ac = AcAnalysis::new(&ckt, &op)?;
/// let sweep = ac.sweep(&FrequencyGrid::log_decade(1.0, 1.0e4, 10))?;
/// assert_eq!(sweep.len(), sweep.freqs().len());
/// // −3 dB at the RC corner, 1/(2πRC) ≈ 159.2 Hz.
/// let corner = sweep.magnitude_at(vout, 159.155);
/// assert!((corner - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.01);
/// # Ok::<(), loopscope_spice::SpiceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AcSweep {
    freqs: Vec<f64>,
    /// `data[freq_index][node_index]` — node voltages including ground at 0.
    data: Vec<Vec<Complex64>>,
}

impl AcSweep {
    /// The swept frequencies in hertz.
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Number of frequency points.
    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    /// Returns `true` when the sweep holds no points.
    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }

    /// Complex response of a node across the sweep.
    pub fn response(&self, node: NodeId) -> Vec<Complex64> {
        self.data.iter().map(|row| row[node.index()]).collect()
    }

    /// Magnitude of a node response across the sweep.
    pub fn magnitude(&self, node: NodeId) -> Vec<f64> {
        self.data
            .iter()
            .map(|row| row[node.index()].abs())
            .collect()
    }

    /// Magnitude in decibels of a node response across the sweep.
    pub fn magnitude_db(&self, node: NodeId) -> Vec<f64> {
        self.data
            .iter()
            .map(|row| row[node.index()].abs_db())
            .collect()
    }

    /// Phase in degrees (wrapped to ±180°) of a node response.
    pub fn phase_deg(&self, node: NodeId) -> Vec<f64> {
        self.data
            .iter()
            .map(|row| row[node.index()].arg_deg())
            .collect()
    }

    /// Magnitude of a node response, linearly interpolated at `freq_hz`.
    ///
    /// Out-of-range queries **clamp to the endpoint values** — a frequency
    /// below the first swept point returns the first sample's magnitude and
    /// one above the last returns the last sample's, never an extrapolation
    /// (this is [`interp::lerp_at_by`]'s documented contract, asserted by
    /// this type's below-first/above-last unit tests). Interpolates directly
    /// over the stored sweep data without materializing the full magnitude
    /// vector.
    ///
    /// # Panics
    ///
    /// Panics on an empty sweep.
    pub fn magnitude_at(&self, node: NodeId, freq_hz: f64) -> f64 {
        let idx = node.index();
        interp::lerp_at_by(&self.freqs, freq_hz, |i| self.data[i][idx].abs())
    }
}

/// Structural diagnostics of the shared solver plan an [`AcAnalysis`] runs
/// on, reported by [`AcAnalysis::solver_structure`]: how the block-
/// triangular analysis partitioned the admittance matrix, how much fill the
/// per-block factorization carries, and how well-conditioned the
/// representative system is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverStructure {
    /// MNA system dimension (node voltages + branch currents).
    pub dim: usize,
    /// Diagonal blocks of the block-triangular (BTF) partition: 1 when the
    /// admittance pattern is irreducible (a single feedback loop couples
    /// everything), more for block-structured circuits such as cascades.
    pub block_count: usize,
    /// Stored factor entries — L and U fill plus raw off-diagonal block
    /// entries.
    pub fill_nnz: usize,
    /// Vestige of the retired kernel-backend choice: always
    /// [`KernelBackend::Scalar`], the one code path of the LU inner loops.
    pub kernel: KernelBackend,
    /// Hager/Higham 1-norm condition estimate `κ₁(Y)` of the admittance
    /// system at the representative frequency the structure was taken at
    /// (see [`loopscope_sparse::SparseLu::condition_estimate`]). A lower
    /// bound on the true condition number — large values warn that sweep
    /// results near that frequency carry amplified rounding error.
    pub condition_estimate: f64,
    /// Vestige of the retired solver-backend choice: always
    /// [`SolverBackend::Direct`], the one path every sweep solves through.
    pub solver: SolverBackend,
}

/// The shared sweep plan of an analysis and the admittance image compiled
/// over its pattern (`None` when the self-check dropped it: every point then
/// stamps), plus the probe of each BTF block, derived on first use.
#[derive(Debug)]
pub(crate) struct AcPlan {
    pub(crate) plan: SweepPlan<Complex64>,
    pub(crate) image: Option<AffineImage>,
    probes: Vec<OnceLock<Probe>>,
}

/// What a driving-point probe solves: the plan of the BTF diagonal block
/// that holds the injected row ([`SweepPlan::block_plan`]) and the
/// analysis's image restricted to it.
///
/// A unit current injected into a row of block `b` leaves the right-hand
/// side zero in every other block, so every later block solves to exact
/// zeros and the earlier blocks never reach the injected unknown: its
/// driving-point response is the block system's, computed by exactly the
/// operations of the whole system's block back-substitution.
#[derive(Debug)]
pub(crate) struct Probe {
    pub(crate) plan: SweepPlan<Complex64>,
    pub(crate) image: Option<AffineImage>,
}

impl AcPlan {
    pub(crate) fn new(plan: SweepPlan<Complex64>, image: Option<AffineImage>) -> Self {
        let probes = (0..plan.symbolic().block_count())
            .map(|_| OnceLock::new())
            .collect();
        Self {
            plan,
            image,
            probes,
        }
    }

    /// The probe of a unit current injected at unknown `var`, and the
    /// injection in its block's coordinates.
    ///
    /// # Panics
    ///
    /// Panics when column `var` lies in a block before row `var`'s. That
    /// needs a structurally zero diagonal, and every node voltage's
    /// diagonal carries gmin.
    pub(crate) fn probe(&self, var: usize) -> (&Probe, Injection) {
        let symbolic = self.plan.symbolic();
        let b = symbolic.block_of_row(var);
        let probe = self.probes[b].get_or_init(|| {
            let plan = self.plan.block_plan(var);
            let image = self.image.as_ref().map(|image| plan.restrict_image(image));
            Probe { plan, image }
        });
        let injection = probe.plan.injection(var);
        assert!(
            injection.read.is_some()
                || symbolic.column_order()[..symbolic.block_boundaries()[b]]
                    .iter()
                    .all(|&c| c != var),
            "the probed column lies in a block before the injected row's"
        );
        (probe, injection)
    }
}

/// A whole-system value buffer over an analysis's pattern and the
/// right-hand side of its stamps: where a probe point without a block image
/// is assembled before its block is gathered.
#[derive(Debug)]
pub(crate) struct FullScratch {
    matrix: CsrMatrix<Complex64>,
    rhs: Vec<Complex64>,
}

impl FullScratch {
    pub(crate) fn new(plan: &SweepPlan<Complex64>) -> Self {
        Self {
            matrix: plan.pattern().clone(),
            rhs: Vec::with_capacity(plan.dim()),
        }
    }
}

/// A nonlinear device linearized at the operating point: its Newton stamp,
/// whose conductances the AC system stamps, and its capacitances
/// `(a, b, farads)`, stamped as `jωC` admittances.
type Linearized = (NonlinearStamp, Vec<(NodeId, NodeId, f64)>);

/// Small-signal AC analysis of a circuit linearized at an operating point.
#[derive(Debug)]
pub struct AcAnalysis<'c> {
    circuit: &'c Circuit,
    layout: MnaLayout,
    /// The shared sweep plan and compiled image, built lazily at the first
    /// solve: the Y(jω) sparsity pattern, slot map and LU symbolic analysis
    /// are identical at every frequency (and for both sweep and
    /// driving-point excitations, which differ only in the right-hand
    /// side), so one plan serves every solve this analysis ever performs —
    /// shared read-only across the worker threads of a chunked sweep. The
    /// `Mutex` only guards lazy construction; workers hold `Arc` clones.
    plan: Mutex<Option<Arc<AcPlan>>>,
    /// Sweep-level counter totals: the plan build plus every worker
    /// context's counters, merged after each sweep.
    stats: Mutex<SolveStats>,
    /// The nonlinear devices linearized at construction, indexed by
    /// element position (`None` for a linear element). Neither part depends
    /// on frequency, so one evaluation serves every stamp this analysis ever
    /// performs.
    devices: Vec<Option<Box<Linearized>>>,
    /// The planted fault of the fault-injection tests (see [`AcFault`]).
    #[cfg(feature = "fault-inject")]
    fault: Mutex<Option<AcFault>>,
}

/// What [`AcAnalysis::compile_image`] made of a system over a pattern.
#[derive(Debug)]
pub(crate) enum CompiledSystem {
    /// An image whose loads reproduce the stamped system bit for bit.
    Image(AffineImage),
    /// The stamps fit the pattern but the image failed its self-check:
    /// every point stamps.
    Stamped,
    /// A stamp falls outside the pattern.
    OffPattern,
}

impl CompiledSystem {
    /// The image, if the compile kept one.
    pub(crate) fn image(self) -> Option<AffineImage> {
        match self {
            CompiledSystem::Image(image) => Some(image),
            CompiledSystem::Stamped | CompiledSystem::OffPattern => None,
        }
    }
}

/// Assembly job for the complex admittance system at one `jω`, stamped by
/// [`AcAnalysis::assemble_point`] or [`AcAnalysis::stamp_full`] for a point
/// without an image. Every
/// entry is either independent of `jω` or a multiple `jω·x` of it, which is
/// what lets [`AcAnalysis::compile_image`] stamp it once at `jω = (0, 1)`.
pub(crate) struct AcSystem<'a, 'c> {
    pub(crate) analysis: &'a AcAnalysis<'c>,
    /// `(0, 2π·f)` at a frequency point (see [`AcAnalysis::system`]).
    pub(crate) jw: Complex64,
    pub(crate) use_circuit_sources: bool,
    /// Element value overrides `(position, element)` sorted by position —
    /// the batched Monte Carlo driver stamps one shared analysis with
    /// per-variant values instead of materializing a circuit per variant.
    /// Empty on the serial path.
    pub(crate) overrides: &'a [(usize, Element)],
}

impl AssembleMna<Complex64> for AcSystem<'_, '_> {
    fn stamp<S: MatrixSink<Complex64>>(&self, st: &mut Stamper<'_, Complex64, S>) {
        st.stamp_elements(Complex64::from_real(GMIN), self);
    }
}

/// Capacitors and inductors stamp `jωC` and `−jωL`; sources stamp their AC
/// phasor when `use_circuit_sources` is set; devices stamp the conductances
/// and capacitances cached at the operating point. An override replaces the
/// element at its position (overrides carry scalable value kinds only, never
/// a nonlinear device).
impl StampModel<Complex64> for AcSystem<'_, '_> {
    fn circuit(&self) -> &Circuit {
        self.analysis.circuit
    }

    fn layout(&self) -> &MnaLayout {
        &self.analysis.layout
    }

    fn element<'e>(&'e self, ei: usize, element: &'e Element) -> &'e Element {
        match self.overrides.binary_search_by_key(&ei, |&(pos, _)| pos) {
            Ok(k) => &self.overrides[k].1,
            Err(_) => element,
        }
    }

    fn capacitor(&self, _ei: usize, c: &Capacitor) -> Option<(Complex64, Option<Complex64>)> {
        Some((self.jw * c.farads, None))
    }

    fn inductor(
        &self,
        _ei: usize,
        _br: usize,
        l: &Inductor,
    ) -> Option<(Complex64, Option<Complex64>)> {
        Some((-(self.jw * l.henries), None))
    }

    fn source(&self, spec: &SourceSpec) -> Option<Complex64> {
        (self.use_circuit_sources && spec.ac_mag != 0.0)
            .then(|| Complex64::from_polar(spec.ac_mag, spec.ac_phase_deg.to_radians()))
    }

    fn device<S: MatrixSink<Complex64>>(
        &self,
        st: &mut Stamper<'_, Complex64, S>,
        ei: usize,
        _device: usize,
        _element: &Element,
    ) {
        let (stamp, capacitances) = self.analysis.devices[ei].as_deref().expect("a device");
        for &(r, c, g) in stamp.conductances() {
            st.add_node_node(r, c, Complex64::from_real(g));
        }
        for &(a, b, cap) in capacitances {
            st.stamp_admittance(a, b, self.jw * cap);
        }
    }
}

impl<'c> AcAnalysis<'c> {
    /// Prepares an AC analysis.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::Netlist`] if the circuit fails validation or
    /// [`SpiceError::InvalidOptions`] if the operating point does not match
    /// the circuit's node count.
    pub fn new(circuit: &'c Circuit, op: &OperatingPoint) -> Result<Self, SpiceError> {
        circuit.validate().map_err(SpiceError::Netlist)?;
        if op.node_voltages().len() != circuit.node_count() {
            return Err(SpiceError::InvalidOptions(format!(
                "operating point has {} nodes but the circuit has {}",
                op.node_voltages().len(),
                circuit.node_count()
            )));
        }
        let layout = MnaLayout::new(circuit);
        let v = op.node_voltages();
        let devices = circuit
            .elements()
            .iter()
            .map(|el| {
                el.is_nonlinear()
                    .then(|| Box::new((devices::stamp_device(el, v), devices::capacitances(el, v))))
            })
            .collect();
        Ok(Self {
            circuit,
            layout,
            plan: Mutex::new(None),
            stats: Mutex::new(SolveStats::default()),
            devices,
            #[cfg(feature = "fault-inject")]
            fault: Mutex::new(None),
        })
    }

    /// Plants `fault` in every later driving-point sweep of this analysis
    /// ([`driving_point_response`](AcAnalysis::driving_point_response) and
    /// [`driving_point_all_nodes`](AcAnalysis::driving_point_all_nodes)).
    #[cfg(feature = "fault-inject")]
    pub fn inject_fault(&self, fault: AcFault) {
        *self.fault.lock().expect("fault lock") = Some(fault);
    }

    /// The planted fault, if any.
    #[cfg(feature = "fault-inject")]
    fn fault(&self) -> Option<AcFault> {
        *self.fault.lock().expect("fault lock")
    }

    /// Assembles the whole unit-injection system (every AC stimulus off) of
    /// point `idx` of `freqs` into `ctx` through
    /// [`assemble_point`](AcAnalysis::assemble_point) and applies a planted
    /// matrix fault: the all-nodes point.
    fn assemble_unit(
        &self,
        ctx: &mut SolveContext<'_, Complex64>,
        image: Option<&AffineImage>,
        freqs: &[f64],
        idx: usize,
        rhs: &mut Vec<Complex64>,
    ) {
        self.assemble_point(ctx, image, freqs[idx], false, rhs);
        #[cfg(feature = "fault-inject")]
        if let Some(AcFault::Matrix { point, kind, seed }) = self.fault() {
            if point == idx {
                loopscope_sparse::faults::FaultInjector::new(seed).inject(kind, ctx.matrix_mut());
            }
        }
    }

    /// Assembles the block system of `probe` at point `idx` of `freqs` into
    /// `ctx`, a context of its block plan, through
    /// [`assemble_block`](AcAnalysis::assemble_block). A matrix fault
    /// planted at the point lands on the whole system's entry first: the
    /// point is stamped in full into `full`, perturbed, then gathered.
    fn assemble_probe(
        &self,
        probe: &Probe,
        ctx: &mut SolveContext<'_, Complex64>,
        full: &mut FullScratch,
        freqs: &[f64],
        idx: usize,
    ) {
        #[cfg(feature = "fault-inject")]
        if let Some(AcFault::Matrix { point, kind, seed }) = self.fault() {
            if point == idx {
                self.stamp_full(full, freqs[idx], &[]);
                loopscope_sparse::faults::FaultInjector::new(seed).inject(kind, &mut full.matrix);
                ctx.gather_values(full.matrix.values());
                return;
            }
        }
        self.assemble_block(ctx, probe.image.as_ref(), freqs[idx], &[], full);
    }

    /// Assembles the probe system at `freq_hz` into `ctx`, a context of a
    /// probe's block plan — the one assembly of every probe point, serial
    /// or batched. With `image`, the analysis's image restricted to the
    /// block, it loads the block's values; without one it stamps the whole
    /// system, with `overrides` in place of their elements, into `full` and
    /// gathers the block's entries from it.
    #[inline]
    pub(crate) fn assemble_block(
        &self,
        ctx: &mut SolveContext<'_, Complex64>,
        image: Option<&AffineImage>,
        freq_hz: f64,
        overrides: &[(usize, Element)],
        full: &mut FullScratch,
    ) {
        match image {
            Some(image) => ctx.load_values(image, freq_hz),
            None => {
                self.stamp_full(full, freq_hz, overrides);
                ctx.gather_values(full.matrix.values());
            }
        }
    }

    /// Stamps the whole unit-injection system at `freq_hz`, with
    /// `overrides` in place of their elements, into `full`.
    ///
    /// # Panics
    ///
    /// Panics when a stamp falls outside the pattern of `full`.
    fn stamp_full(&self, full: &mut FullScratch, freq_hz: f64, overrides: &[(usize, Element)]) {
        full.matrix.zero_values();
        let rhs = std::mem::take(&mut full.rhs);
        let mut st = Stamper::with_sink_reusing(&self.layout, SlotSink::new(&mut full.matrix), rhs);
        self.system(freq_hz, false, overrides).stamp(&mut st);
        let (sink, rhs) = st.into_parts();
        assert!(
            !sink.missed(),
            "an assembly left the pattern of its context"
        );
        full.rhs = rhs;
    }

    /// Assembles the whole system at `freq_hz` into `ctx`, a context minted
    /// from the plan `image` was compiled over — the one assembly of every
    /// whole-system AC point. With an image it loads the values and, when
    /// `use_circuit_sources` is set, copies the image's right-hand side into
    /// `rhs`; a unit injection's `rhs` is left as it was, for
    /// [`solve_injection`] to overwrite. Without one it stamps the elements
    /// and the right-hand side into `rhs`.
    #[inline]
    fn assemble_point(
        &self,
        ctx: &mut SolveContext<'_, Complex64>,
        image: Option<&AffineImage>,
        freq_hz: f64,
        use_circuit_sources: bool,
        rhs: &mut Vec<Complex64>,
    ) {
        match image {
            Some(image) => {
                ctx.load_values(image, freq_hz);
                if use_circuit_sources {
                    rhs.clear();
                    rhs.extend_from_slice(image.rhs());
                }
            }
            None => ctx.assemble_into(&self.system(freq_hz, use_circuit_sources, &[]), rhs),
        }
    }

    /// The MNA layout used by this analysis.
    pub fn layout(&self) -> &MnaLayout {
        &self.layout
    }

    /// Counters describing how this analysis served its linear solves so
    /// far: how many symbolic analyses, numeric refactorizations and
    /// in-place assemblies ran, summed over the plan build and every worker
    /// context (sums are chunking-independent, so the totals are identical
    /// at any worker count). A fresh analysis performs exactly one symbolic
    /// analysis for an entire sweep — or any number of sweeps.
    pub fn solve_stats(&self) -> SolveStats {
        *self.stats.lock().expect("stats lock")
    }

    /// Structural diagnostics of the shared solver plan: the BTF block
    /// partition and factor fill of the admittance system, plus a condition
    /// estimate of the system at `representative_freq_hz`. Builds the plan
    /// from that system if no solve has run yet (the structure is
    /// frequency-independent, so any in-band frequency serves); afterwards
    /// the same shared plan is reported. The condition estimate always
    /// factors the system at `representative_freq_hz` — a diagnostic
    /// factorization in a throwaway context that is **not** folded into
    /// [`solve_stats`](AcAnalysis::solve_stats), so sweep counter
    /// invariants are unaffected.
    ///
    /// # Errors
    ///
    /// Returns the name-enriched solver error (e.g.
    /// [`SpiceError::SingularSystem`]) when the representative system cannot
    /// be factored.
    pub fn solver_structure(
        &self,
        representative_freq_hz: f64,
    ) -> Result<SolverStructure, SpiceError> {
        let planned = self.plan_for(representative_freq_hz)?;
        let symbolic = planned.plan.symbolic();
        let mut probe = planned.plan.context();
        self.assemble_point(
            &mut probe,
            planned.image.as_ref(),
            representative_freq_hz,
            false,
            &mut Vec::new(),
        );
        probe
            .factor()
            .map_err(|e| SpiceError::from_solve(e, &self.layout))?;
        let condition_estimate = probe
            .condition_estimate()
            .map_err(|e| SpiceError::from_solve(e, &self.layout))?;
        Ok(SolverStructure {
            dim: symbolic.dim(),
            block_count: symbolic.block_count(),
            fill_nnz: symbolic.fill_nnz(),
            kernel: KernelBackend::Scalar,
            condition_estimate,
            solver: SolverBackend::Direct,
        })
    }

    /// The shared sweep plan, built at the first solve from the system at
    /// `first_freq` (representative values for the threshold-pivoted
    /// ordering) and reused — read-only — for every later solve, with the
    /// analysis's admittance image compiled over its pattern and
    /// self-checked at `first_freq`.
    pub(crate) fn plan_for(&self, first_freq: f64) -> Result<Arc<AcPlan>, SpiceError> {
        let mut guard = self.plan.lock().expect("plan lock");
        if let Some(planned) = guard.as_ref() {
            return Ok(Arc::clone(planned));
        }
        let job = self.system(first_freq, false, &[]);
        let plan = SweepPlan::build(&self.layout, &job).map_err(SpiceError::Linear)?;
        self.stats.lock().expect("stats lock").merge(&plan.stats());
        let image = self.compile_image(plan.pattern(), &[], first_freq).image();
        let planned = Arc::new(AcPlan::new(plan, image));
        *guard = Some(Arc::clone(&planned));
        Ok(planned)
    }

    /// Compiles the admittance system — with `overrides` stamped in place of
    /// their elements — into an [`AffineImage`] over `pattern` (zero
    /// values), by stamping once at `jω = (0, 1)`. The image is kept only
    /// when a load at `check_freq` reproduces a stamped assembly at that
    /// frequency bit for bit; otherwise the caller stamps every point, or
    /// learns that a stamp falls outside the pattern.
    pub(crate) fn compile_image(
        &self,
        pattern: &CsrMatrix<Complex64>,
        overrides: &[(usize, Element)],
        check_freq: f64,
    ) -> CompiledSystem {
        let mut st = Stamper::with_sink(&self.layout, AffineSink::new(pattern));
        let unit = AcSystem {
            analysis: self,
            jw: Complex64::new(0.0, 1.0),
            use_circuit_sources: true,
            overrides,
        };
        unit.stamp(&mut st);
        let (sink, rhs) = st.into_parts();
        match sink.finish(rhs) {
            Some(image) => match self.checked_image(image, pattern, overrides, check_freq) {
                Some(image) => CompiledSystem::Image(image),
                None => CompiledSystem::Stamped,
            },
            None => CompiledSystem::OffPattern,
        }
    }

    /// The compile-time self-check of [`compile_image`](AcAnalysis::compile_image):
    /// `image` if it reproduces one stamped assembly at `check_freq`.
    fn checked_image(
        &self,
        image: AffineImage,
        pattern: &CsrMatrix<Complex64>,
        overrides: &[(usize, Element)],
        check_freq: f64,
    ) -> Option<AffineImage> {
        let mut stamped = pattern.clone();
        let mut st = Stamper::with_sink(&self.layout, SlotSink::new(&mut stamped));
        self.system(check_freq, true, overrides).stamp(&mut st);
        let (sink, rhs) = st.into_parts();
        let hit = !sink.missed();
        (hit && image.reproduces(check_freq, &stamped, &rhs)).then_some(image)
    }

    /// The admittance image this analysis loads its frequency points from
    /// (a copy), building the shared plan from the system at
    /// `representative_freq_hz` first if no solve has run yet — the same
    /// plan [`solver_structure`](AcAnalysis::solver_structure) reports.
    /// `None` when the image failed its self-check and the analysis stamps
    /// every point instead. A diagnostic and benchmark entry point.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::Linear`] when the representative system cannot
    /// be factored.
    pub fn admittance_image(
        &self,
        representative_freq_hz: f64,
    ) -> Result<Option<AffineImage>, SpiceError> {
        Ok(self.plan_for(representative_freq_hz)?.image.clone())
    }

    /// The assembly job of the unit-injection admittance system at
    /// `freq_hz` (every AC stimulus off) — what a frequency point without an
    /// image stamps through [`SolveContext::assemble`]. A diagnostic and
    /// benchmark entry point.
    pub fn assembly_job(&self, freq_hz: f64) -> impl AssembleMna<Complex64> + '_ {
        self.system(freq_hz, false, &[])
    }

    /// Folds the counters of finished worker contexts into the totals.
    fn absorb_worker_stats(&self, worker_stats: impl IntoIterator<Item = SolveStats>) {
        let mut stats = self.stats.lock().expect("stats lock");
        for s in worker_stats {
            stats.merge(&s);
        }
    }

    /// Assembles and returns the complex admittance matrix at `freq_hz`
    /// (diagnostic/benchmark entry point; the analyses themselves go through
    /// the in-place cached path).
    pub fn admittance_matrix(&self, freq_hz: f64) -> CsrMatrix<Complex64> {
        let mut st = Stamper::<Complex64>::new(&self.layout);
        self.assembly_job(freq_hz).stamp(&mut st);
        let (triplets, _) = st.finish();
        triplets.to_csr()
    }

    /// The complex admittance system at `freq_hz`, along with the RHS
    /// produced by the circuit's own AC sources when `use_circuit_sources`
    /// is set, with per-variant element value overrides, `(position,
    /// element)` sorted ascending by position: the override element is
    /// stamped in place of the circuit's own. The batched Monte Carlo driver
    /// uses this to stamp thousands of variants through one analysis — an
    /// override carrying the same values as a materialized variant circuit
    /// produces a bitwise-identical system, since the stamp order and
    /// arithmetic are untouched.
    pub(crate) fn system<'a>(
        &'a self,
        freq_hz: f64,
        use_circuit_sources: bool,
        overrides: &'a [(usize, Element)],
    ) -> AcSystem<'a, 'c> {
        // `AffineImage::load_into` computes `w` with this same expression.
        let w = TWO_PI * freq_hz;
        AcSystem {
            analysis: self,
            jw: Complex64::new(0.0, w),
            use_circuit_sources,
            overrides,
        }
    }

    /// The unknown a unit current injected at `node` enters: an error for
    /// the ground node, then for a node outside the circuit.
    pub(crate) fn injection_var(&self, node: NodeId) -> Result<usize, SpiceError> {
        let Some(var) = self.layout.node_var(node) else {
            return Err(SpiceError::UnknownReference(
                "cannot inject at the ground node".to_string(),
            ));
        };
        if node.index() >= self.circuit.node_count() {
            return Err(SpiceError::UnknownReference(format!(
                "node index {} outside circuit",
                node.index()
            )));
        }
        Ok(var)
    }

    fn solve_into_node_row(&self, solution: &[Complex64]) -> Vec<Complex64> {
        let mut row = vec![Complex64::ZERO; self.circuit.node_count()];
        for node in self.circuit.signal_nodes_iter() {
            row[node.index()] = self.layout.node_value(solution, node);
        }
        row
    }

    /// Runs a classical AC sweep using the circuit's own AC sources.
    ///
    /// Frequency points are chunked across worker threads (see
    /// [`crate::par`]); results come back in frequency order and are
    /// bitwise identical at any worker count.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::Linear`] when the linearized system is singular
    /// at some frequency (the lowest failing frequency wins).
    pub fn sweep(&self, grid: &FrequencyGrid) -> Result<AcSweep, SpiceError> {
        let freqs = grid.freqs();
        if freqs.is_empty() {
            return Ok(AcSweep {
                freqs: Vec::new(),
                data: Vec::new(),
            });
        }
        let planned = self.plan_for(freqs[0])?;
        let image = planned.image.as_ref();
        let (result, workers) = par::sweep_chunks(
            freqs,
            || (planned.plan.context(), Vec::new()),
            |(ctx, x): &mut (SolveContext<'_, Complex64>, Vec<Complex64>),
             _,
             &f|
             -> Result<Vec<Complex64>, SpiceError> {
                // The assembled RHS becomes the solution in place; the
                // per-point verified retry ladder enriches failures with
                // circuit names.
                self.assemble_point(ctx, image, f, true, x);
                ctx.solve_verified_in_place(x)?;
                Ok(self.solve_into_node_row(x))
            },
        );
        // Counters survive failures: merge before propagating any error.
        self.absorb_worker_stats(workers.iter().map(|(c, _)| c.stats()));
        Ok(AcSweep {
            freqs: freqs.to_vec(),
            data: result?,
        })
    }

    /// Injects a unit AC current into `node` (all other AC stimuli disabled)
    /// and returns the complex response **at the same node** across the sweep
    /// — the driving-point impedance used by the stability plot.
    ///
    /// **Only the node's loop is solved.** `Z = e_vᵀY⁻¹e_v` depends only on
    /// the diagonal block of the block-triangular form (BTF) that holds the
    /// node's row: a loop of the circuit, in the paper's terms. The unit
    /// injection leaves every later block at exactly zero, and the earlier
    /// blocks never reach the node. So each point loads, refactors and
    /// solves that block alone ([`SweepPlan`]'s block plan, sliced from the
    /// analysis's one symbolic analysis — no new ordering or factorization),
    /// through the verified retry ladder. The response is computed by
    /// exactly the operations of the whole system's block back-substitution,
    /// so a healthy point reads bitwise what a whole-system solve reads,
    /// except for the sign of an exact zero. A node whose column lies in a
    /// later block (a node pinned by a voltage source, say) reads an exact
    /// `+0`. The verified solve certifies the block system: the whole
    /// system's other residual rows are exactly zero, or belong to unknowns
    /// the response never reads.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownReference`] when `node` is the ground
    /// node. The whole system is still factored once, at the first
    /// frequency, to plan the analysis, so a structurally singular system
    /// or a non-finite stamp anywhere fails there
    /// ([`SpiceError::Linear`]). After that only the node's block is solved:
    /// a point whose block is singular, holds a non-finite value or fails
    /// its residual check returns [`SpiceError::SingularSystem`],
    /// [`SpiceError::NonFiniteStamp`] or
    /// [`SpiceError::ResidualCheckFailed`], naming the circuit's unknowns,
    /// but another block that turns numerically singular at a later point
    /// no longer fails the sweep.
    pub fn driving_point_response(
        &self,
        node: NodeId,
        grid: &FrequencyGrid,
    ) -> Result<Vec<Complex64>, SpiceError> {
        let var = self.injection_var(node)?;
        let freqs = grid.freqs();
        if freqs.is_empty() {
            return Ok(Vec::new());
        }
        let planned = self.plan_for(freqs[0])?;
        let (probe, injection) = planned.probe(var);
        let (out, workers) = par::sweep_chunks(
            freqs,
            // Per-worker state: a context of the probe's block plan, the
            // injection vector and the whole-system scratch.
            || {
                (
                    probe.plan.context(),
                    vec![Complex64::ZERO; probe.plan.dim()],
                    FullScratch::new(&planned.plan),
                )
            },
            |(ctx, x, full): &mut (SolveContext<'_, Complex64>, Vec<Complex64>, FullScratch),
             idx,
             _|
             -> Result<Complex64, SpiceError> {
                self.assemble_probe(probe, ctx, full, freqs, idx);
                solve_injection(ctx, injection, x)
            },
        );
        self.absorb_worker_stats(workers.iter().map(|(c, _, _)| c.stats()));
        out
    }

    /// [`driving_point_response`](AcAnalysis::driving_point_response) at
    /// unknown `var` and point `idx` of `freqs` alone, in a context of its
    /// own whose counters are merged into `stats`: the all-nodes per-node
    /// fallback.
    fn probe_point(
        &self,
        planned: &AcPlan,
        var: usize,
        freqs: &[f64],
        idx: usize,
        stats: &mut SolveStats,
    ) -> Result<Complex64, SpiceError> {
        let (probe, injection) = planned.probe(var);
        let mut ctx = probe.plan.context();
        let mut full = FullScratch::new(&planned.plan);
        let mut x = vec![Complex64::ZERO; probe.plan.dim()];
        self.assemble_probe(probe, &mut ctx, &mut full, freqs, idx);
        let z = solve_injection(&mut ctx, injection, &mut x);
        stats.merge(&ctx.stats());
        z
    }

    /// Driving-point responses for **every** non-ground node: the workhorse of
    /// the tool's "All Nodes" mode. At each frequency the admittance matrix
    /// is factored once and every node's `Z_nn = (Y⁻¹)_nn` is read off the
    /// factors by **selected inversion**
    /// ([`SolveContext::diag_inverse_into`]), about the cost of one
    /// factorization instead of one solve per node. Frequencies are chunked
    /// across worker threads, and each point is a pure function of its
    /// frequency, so results are bitwise identical at any worker count.
    ///
    /// **Verification.** At each frequency (sweep index `k`), two unit
    /// injections at nodes `2k` and `2k + 1` (modulo the node count, so
    /// every node is sampled across a sweep of at least half as many points
    /// as nodes) run through the retry ladder of
    /// [`SolveContext::solve_verified_in_place`], which also factors the
    /// point. Each sample's `x̂_v` must agree with the selected-inverse
    /// `ẑ_v`: a verified solve has normwise backward error `β ≤ η`
    /// ([`REFINE_BACKWARD_TOLERANCE`]), so `‖x̂ − x‖∞ ≤ κ·η·‖x̂‖∞` to first
    /// order (the norm is taken over `|re| + |im|` moduli, as the refined
    /// solve measures it, which only widens the bound by at most `√2`); `ẑ` comes from the same factors, whose backward error a
    /// zero-step refinement already certifies below `η`, so
    /// `|ẑ_v − x_v| ≤ κ·η·‖x̂‖∞` too. The accepted gap is therefore
    /// `|x̂_v − ẑ_v| ≤ 2·κ·η·‖x̂‖∞`. It is checked first with `κ = 1`, a
    /// lower bound that every healthy point passes at no cost; a miss is
    /// re-checked with the Hager/Higham estimate `κ₁` of the point
    /// ([`SolveContext::condition_estimate`] — MNA admittance matrices are
    /// structurally symmetric, so it stands in for `κ∞`), the same
    /// `2·κ₁·η` the all-nodes vs single-node agreement is held to.
    ///
    /// A point whose samples disagree, whose sample solve climbed a rung of
    /// the ladder (a residual retry or a gmin bump) or failed, or whose
    /// inverse holds a non-finite value is recomputed with one verified
    /// solve per node of the node's BTF block, from a fresh assembly each —
    /// exactly what
    /// [`driving_point_response`](AcAnalysis::driving_point_response) does
    /// at that point, errors included — and counted in
    /// [`SolveStats::inverse_fallbacks`].
    ///
    /// Returns one vector per signal node, in [`Circuit::signal_nodes`] order.
    ///
    /// # Errors
    ///
    /// The first error, in node order, of the verified per-node solves of
    /// the lowest failing frequency — exactly what
    /// [`driving_point_response`](AcAnalysis::driving_point_response)
    /// reports for that node: [`SpiceError::NonFiniteStamp`],
    /// [`SpiceError::SingularSystem`] or [`SpiceError::ResidualCheckFailed`].
    pub fn driving_point_all_nodes(
        &self,
        grid: &FrequencyGrid,
    ) -> Result<Vec<Vec<Complex64>>, SpiceError> {
        let nodes = self.circuit.signal_nodes();
        let freqs = grid.freqs();
        if freqs.is_empty() {
            return Ok(vec![Vec::new(); nodes.len()]);
        }
        let planned = self.plan_for(freqs[0])?;
        let image = planned.image.as_ref();
        let dim = self.layout.dim();
        let vars: Vec<usize> = nodes
            .iter()
            .map(|&n| self.layout.node_var(n).expect("signal node"))
            .collect();
        // One row of node responses per frequency. The worker owns an
        // injection vector and the inverse-diagonal buffer next to its
        // context.
        let (rows, workers) = par::sweep_chunks(
            freqs,
            || {
                (
                    planned.plan.context(),
                    vec![Complex64::ZERO; dim],
                    vec![Complex64::ZERO; dim],
                    SolveStats::default(),
                )
            },
            |(ctx, x, diag, fallback): &mut (
                SolveContext<'_, Complex64>,
                Vec<Complex64>,
                Vec<Complex64>,
                SolveStats,
            ),
             idx,
             _|
             -> Result<Vec<Complex64>, SpiceError> {
                self.assemble_unit(ctx, image, freqs, idx, x);
                if let Some(row) = self.selected_inverse_row(ctx, &vars, idx, x, diag) {
                    return Ok(row);
                }
                ctx.count_inverse_fallback();
                vars.iter()
                    .map(|&var| self.probe_point(&planned, var, freqs, idx, fallback))
                    .collect()
            },
        );
        self.absorb_worker_stats(
            workers
                .iter()
                .flat_map(|(c, _, _, fallback)| [c.stats(), *fallback]),
        );
        // Transpose frequency-major worker rows into the node-major layout
        // the stability report consumes.
        let mut out = vec![Vec::with_capacity(freqs.len()); nodes.len()];
        for row in rows? {
            for (k, v) in row.into_iter().enumerate() {
                out[k].push(v);
            }
        }
        Ok(out)
    }

    /// The verified selected-inverse row of one all-nodes point (the system
    /// is assembled in `ctx`), or `None` when the point must fall back to
    /// per-node solves — see
    /// [`driving_point_all_nodes`](AcAnalysis::driving_point_all_nodes) for
    /// the contract. `x` and `diag` are dimension-sized scratch.
    fn selected_inverse_row(
        &self,
        ctx: &mut SolveContext<'_, Complex64>,
        vars: &[usize],
        idx: usize,
        x: &mut [Complex64],
        diag: &mut [Complex64],
    ) -> Option<Vec<Complex64>> {
        let before = ctx.stats();
        let mut samples = [(0usize, Complex64::ZERO, 0.0f64); INVERSE_SAMPLES];
        let count = INVERSE_SAMPLES.min(vars.len());
        for (j, sample) in samples[..count].iter_mut().enumerate() {
            let var = vars[(INVERSE_SAMPLES * idx + j) % vars.len()];
            let solved = solve_injection(ctx, Injection::at(var), x).ok()?;
            let norm = x.iter().map(|v| v.modulus_l1()).fold(0.0f64, f64::max);
            *sample = (var, solved, norm);
        }
        let after = ctx.stats();
        if after.residual_retries != before.residual_retries
            || after.gmin_bumps != before.gmin_bumps
        {
            return None;
        }
        ctx.diag_inverse_into(diag).ok()?;
        #[cfg(feature = "fault-inject")]
        if self.fault() == Some(AcFault::SelectedInverse { point: idx }) {
            diag[samples[0].0] += Complex64::ONE;
        }
        let mut kappa = None;
        for &(var, solved, norm) in &samples[..count] {
            let gap = (diag[var] - solved).abs();
            let bound = 2.0 * REFINE_BACKWARD_TOLERANCE * norm;
            if gap <= bound {
                continue;
            }
            let k = match kappa {
                Some(k) => k,
                None => *kappa.insert(ctx.condition_estimate().ok()?),
            };
            if gap.is_nan() || gap > k * bound {
                return None;
            }
        }
        let row: Vec<Complex64> = vars.iter().map(|&v| diag[v]).collect();
        row.iter().all(|v| v.is_finite()).then_some(row)
    }
}

/// Solves the system assembled in `ctx` for a unit current `injection` —
/// in place in the dimension-sized `x`, through the verified retry ladder,
/// which factors first — and returns the response in its read column, the
/// driving-point value (an exact `+0` when it has none). `x` is left
/// holding the whole solution.
pub(crate) fn solve_injection(
    ctx: &mut SolveContext<'_, Complex64>,
    injection: Injection,
    x: &mut [Complex64],
) -> Result<Complex64, SpiceError> {
    x.fill(Complex64::ZERO);
    x[injection.row] = Complex64::ONE;
    ctx.solve_verified_in_place(x)?;
    Ok(injection.read.map_or(Complex64::ZERO, |c| x[c]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::solve_dc;
    use crate::mna::tests::every_element_kind;
    use loopscope_math::interp;
    use loopscope_netlist::SourceSpec;

    fn rc_lowpass() -> (Circuit, NodeId, NodeId) {
        let mut c = Circuit::new("rc");
        let vin = c.node("in");
        let vout = c.node("out");
        c.add_vsource("V1", vin, Circuit::GROUND, SourceSpec::dc_ac(0.0, 1.0, 0.0));
        c.add_resistor("R1", vin, vout, 1.0e3);
        c.add_capacitor("C1", vout, Circuit::GROUND, 1.0e-6);
        (c, vin, vout)
    }

    #[test]
    fn rc_corner_frequency() {
        let (c, vin, vout) = rc_lowpass();
        let op = solve_dc(&c).unwrap();
        let ac = AcAnalysis::new(&c, &op).unwrap();
        let grid = FrequencyGrid::log_decade(1.0, 1.0e5, 20);
        let sweep = ac.sweep(&grid).unwrap();
        // Input node follows the source exactly.
        for m in sweep.magnitude(vin) {
            assert!((m - 1.0).abs() < 1e-9);
        }
        // Corner at 1/(2πRC) = 159.15 Hz → −3 dB.
        let corner = sweep.magnitude_at(vout, 159.155);
        assert!((corner - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.01);
        // Two decades above the corner the slope is −20 dB/dec.
        let hi = sweep.magnitude_at(vout, 15_915.5);
        assert!((hi - 0.01).abs() < 0.001);
        // Phase approaches −90°.
        let phases = sweep.phase_deg(vout);
        assert!(phases.last().unwrap() < &-85.0);
    }

    #[test]
    fn rlc_series_resonance() {
        let mut c = Circuit::new("rlc");
        let vin = c.node("in");
        let mid = c.node("mid");
        let vout = c.node("out");
        c.add_vsource("V1", vin, Circuit::GROUND, SourceSpec::dc_ac(0.0, 1.0, 0.0));
        c.add_resistor("R1", vin, mid, 10.0);
        c.add_inductor("L1", mid, vout, 1.0e-3);
        c.add_capacitor("C1", vout, Circuit::GROUND, 1.0e-9);
        let op = solve_dc(&c).unwrap();
        let ac = AcAnalysis::new(&c, &op).unwrap();
        // f0 = 1/(2π√(LC)) ≈ 159.2 kHz; Q = √(L/C)/R = 100.
        let grid = FrequencyGrid::log_decade(1.0e3, 1.0e7, 200);
        let sweep = ac.sweep(&grid).unwrap();
        let mags = sweep.magnitude(vout);
        let peak = mags.iter().cloned().fold(0.0, f64::max);
        let peak_idx = mags.iter().position(|&m| m == peak).unwrap();
        let peak_freq = sweep.freqs()[peak_idx];
        assert!(
            (peak_freq - 159.2e3).abs() / 159.2e3 < 0.05,
            "peak at {peak_freq}"
        );
        // Output resonates to roughly Q × input.
        assert!(peak > 50.0 && peak < 150.0, "peak magnitude {peak}");
    }

    #[test]
    fn driving_point_of_parallel_rc() {
        // A 1 kΩ ∥ 1 µF one-port: Z(0) = 1 kΩ, corner at 159 Hz.
        let mut c = Circuit::new("zrc");
        let n = c.node("n");
        c.add_resistor("R1", n, Circuit::GROUND, 1.0e3);
        c.add_capacitor("C1", n, Circuit::GROUND, 1.0e-6);
        let op = solve_dc(&c).unwrap();
        let ac = AcAnalysis::new(&c, &op).unwrap();
        let grid = FrequencyGrid::log_decade(1.0, 1.0e5, 20);
        let z = ac.driving_point_response(n, &grid).unwrap();
        assert!((z[0].abs() - 1.0e3).abs() / 1.0e3 < 1e-3);
        let mags: Vec<f64> = z.iter().map(|v| v.abs()).collect();
        let corner = interp::lerp_at(grid.freqs(), &mags, 159.155);
        assert!((corner - 1.0e3 * std::f64::consts::FRAC_1_SQRT_2).abs() / 707.0 < 0.01);
    }

    #[test]
    fn driving_point_rejects_ground() {
        let (c, _, _) = rc_lowpass();
        let op = solve_dc(&c).unwrap();
        let ac = AcAnalysis::new(&c, &op).unwrap();
        let grid = FrequencyGrid::log_decade(1.0, 10.0, 2);
        assert!(matches!(
            ac.driving_point_response(Circuit::GROUND, &grid),
            Err(SpiceError::UnknownReference(_))
        ));
    }

    #[test]
    fn all_nodes_matches_single_node() {
        let (c, vin, vout) = rc_lowpass();
        let op = solve_dc(&c).unwrap();
        let ac = AcAnalysis::new(&c, &op).unwrap();
        let grid = FrequencyGrid::log_decade(10.0, 1.0e4, 10);
        let all = ac.driving_point_all_nodes(&grid).unwrap();
        let single_out = ac.driving_point_response(vout, &grid).unwrap();
        let single_in = ac.driving_point_response(vin, &grid).unwrap();
        let nodes = c.signal_nodes();
        let idx_out = nodes.iter().position(|&n| n == vout).unwrap();
        let idx_in = nodes.iter().position(|&n| n == vin).unwrap();
        for (a, b) in all[idx_out].iter().zip(&single_out) {
            assert!((*a - *b).abs() < 1e-12);
        }
        for (a, b) in all[idx_in].iter().zip(&single_in) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn vsource_ac_mag_zero_acts_as_short() {
        // The input source has no AC component: injecting current at the
        // output should see R1 to the AC-grounded input in parallel with C1.
        let mut c = Circuit::new("short");
        let vin = c.node("in");
        let vout = c.node("out");
        c.add_vsource("V1", vin, Circuit::GROUND, SourceSpec::dc(1.0));
        c.add_resistor("R1", vin, vout, 2.0e3);
        c.add_resistor("R2", vout, Circuit::GROUND, 2.0e3);
        let op = solve_dc(&c).unwrap();
        let ac = AcAnalysis::new(&c, &op).unwrap();
        let grid = FrequencyGrid::log_decade(1.0, 100.0, 2);
        let z = ac.driving_point_response(vout, &grid).unwrap();
        // 2k ∥ 2k = 1k.
        assert!((z[0].abs() - 1.0e3).abs() / 1.0e3 < 1e-6);
    }

    #[test]
    fn mosfet_common_source_gain() {
        use loopscope_netlist::{MosfetModel, MosfetPolarity};
        let mut c = Circuit::new("cs amp");
        let vdd = c.node("vdd");
        let vg = c.node("g");
        let vd = c.node("d");
        c.add_vsource("VDD", vdd, Circuit::GROUND, SourceSpec::dc(3.0));
        c.add_vsource("VG", vg, Circuit::GROUND, SourceSpec::dc_ac(1.0, 1.0, 0.0));
        c.add_resistor("RD", vdd, vd, 2.0e3);
        c.add_mosfet(
            "M1",
            vd,
            vg,
            Circuit::GROUND,
            MosfetPolarity::Nmos,
            50.0e-6,
            1.0e-6,
            MosfetModel {
                vto: 0.6,
                kp: 100.0e-6,
                lambda: 0.0,
                ..Default::default()
            },
        );
        let op = solve_dc(&c).unwrap();
        // vov = 0.4 V, β = 5 mA/V² → Id = 0.4 mA (drain sits at 2.2 V, well in
        // saturation); gm = β·vov = 2 mS → gain = gm·RD = 4.
        let ac = AcAnalysis::new(&c, &op).unwrap();
        let grid = FrequencyGrid::log_decade(1.0, 1.0e3, 5);
        let sweep = ac.sweep(&grid).unwrap();
        let gain = sweep.magnitude(vd)[0];
        assert!((gain - 4.0).abs() < 0.1, "gain = {gain}");
    }

    #[test]
    fn magnitude_at_clamps_below_first_point() {
        let (c, _, vout) = rc_lowpass();
        let op = solve_dc(&c).unwrap();
        let ac = AcAnalysis::new(&c, &op).unwrap();
        // Sweep starts at 10 Hz: querying below must return the 10 Hz value,
        // not a left-extrapolation of the first segment's slope.
        let grid = FrequencyGrid::log_decade(10.0, 1.0e5, 10);
        let sweep = ac.sweep(&grid).unwrap();
        let first = sweep.magnitude(vout)[0];
        assert_eq!(sweep.magnitude_at(vout, 10.0), first);
        assert_eq!(sweep.magnitude_at(vout, 1.0), first);
        assert_eq!(sweep.magnitude_at(vout, 0.0), first);
        assert_eq!(sweep.magnitude_at(vout, -5.0), first);
    }

    #[test]
    fn magnitude_at_clamps_above_last_point() {
        let (c, _, vout) = rc_lowpass();
        let op = solve_dc(&c).unwrap();
        let ac = AcAnalysis::new(&c, &op).unwrap();
        let grid = FrequencyGrid::log_decade(10.0, 1.0e4, 10);
        let sweep = ac.sweep(&grid).unwrap();
        let last = *sweep.magnitude(vout).last().unwrap();
        // Above the last point the −20 dB/dec rolloff would extrapolate far
        // below the last sample; the contract is to clamp instead.
        assert_eq!(sweep.magnitude_at(vout, 1.0e4), last);
        assert_eq!(sweep.magnitude_at(vout, 1.0e6), last);
        assert_eq!(sweep.magnitude_at(vout, f64::MAX), last);
        // Interior queries still interpolate (strictly between neighbours).
        let mid = sweep.magnitude_at(vout, 200.0);
        assert!(mid < sweep.magnitude_at(vout, 100.0));
        assert!(mid > last);
    }

    /// The stamped assembly at `freq_hz` over `pattern`, with the circuit's
    /// AC sources, as a SlotSink assembly.
    fn stamped(
        ac: &AcAnalysis<'_>,
        pattern: &CsrMatrix<Complex64>,
        freq_hz: f64,
        overrides: &[(usize, Element)],
    ) -> (CsrMatrix<Complex64>, Vec<Complex64>) {
        let mut m = pattern.clone();
        let mut st = Stamper::with_sink(&ac.layout, SlotSink::new(&mut m));
        ac.system(freq_hz, true, overrides).stamp(&mut st);
        let (sink, rhs) = st.into_parts();
        assert!(!sink.missed());
        (m, rhs)
    }

    #[test]
    fn image_load_is_bitwise_the_stamped_assembly_for_every_element_kind() {
        use crate::batch::ParameterVariation;
        let c = every_element_kind();
        let op = solve_dc(&c).unwrap();
        let ac = AcAnalysis::new(&c, &op).unwrap();
        let grid = FrequencyGrid::log_decade(1.0, 1.0e9, 10);
        let mut freqs = vec![0.0, 1.0e-3];
        freqs.extend_from_slice(grid.freqs());
        freqs.push(1.0e15);

        let planned = ac.plan_for(grid.freqs()[0]).unwrap();
        let pattern = planned.plan.pattern();
        let image = planned.image.as_ref().expect("self-check passes");
        // One C term per stored entry of a capacitance or inductance: C1,
        // L1 and D1's junction sit on one node each (1 + 1 + 1), Q1 adds
        // base-emitter (1) and base-collector (4), M1 gate-source (1),
        // gate-drain (4) and drain-bulk (1). The sources leave a nonzero
        // right-hand side.
        assert_eq!(image.c_terms().len(), 14);
        assert!(image.rhs().iter().any(|v| *v != Complex64::ZERO));

        let variation = ParameterVariation::new(0x5EED)
            .gaussian("R1", 0.1)
            .uniform("C1", 0.2)
            .uniform("L1", 0.2)
            .gaussian("E1", 0.1)
            .gaussian("G1", 0.1)
            .uniform("F1", 0.2)
            .uniform("H1", 0.2);
        let positions = variation.rule_positions(&c).unwrap();
        let mut cases: Vec<(Vec<(usize, Element)>, AffineImage)> =
            vec![(Vec::new(), image.clone())];
        for i in 0..3 {
            let overrides = variation.overrides_for(i, &c, &positions).unwrap();
            let image = ac
                .compile_image(pattern, &overrides, grid.freqs()[0])
                .image()
                .expect("self-check passes with overrides");
            cases.push((overrides, image));
        }
        for (overrides, image) in &cases {
            for &f in &freqs {
                let (m, rhs) = stamped(&ac, pattern, f, overrides);
                assert!(image.reproduces(f, &m, &rhs), "f = {f}");
            }
        }
        // Overrides really change the loaded values.
        let loaded = |image: &AffineImage| {
            let mut m = pattern.clone();
            image.load_into(1.0e6, m.values_mut());
            m.iter().map(|(_, _, v)| v).collect::<Vec<_>>()
        };
        assert_ne!(loaded(&cases[0].1), loaded(&cases[1].1));
    }

    #[test]
    fn corrupted_image_fails_the_self_check_and_points_stamp() {
        let c = every_element_kind();
        let op = solve_dc(&c).unwrap();
        let grid = FrequencyGrid::log_decade(1.0e3, 1.0e8, 5);
        let f0 = grid.freqs()[0];
        let reference = AcAnalysis::new(&c, &op).unwrap();
        let planned = reference.plan_for(f0).unwrap();
        let pattern = planned.plan.pattern();

        // An image compiled at the wrong unit (jω = 2j) holds every C term
        // doubled: the self-check must catch it.
        let mut st = Stamper::with_sink(&reference.layout, AffineSink::new(pattern));
        let doubled = AcSystem {
            jw: Complex64::new(0.0, 2.0),
            ..reference.system(0.0, true, &[])
        };
        doubled.stamp(&mut st);
        let (sink, rhs) = st.into_parts();
        let corrupted = sink.finish(rhs).unwrap();
        assert!(reference
            .checked_image(corrupted, pattern, &[], f0)
            .is_none());

        // An analysis whose image was dropped stamps every point — and
        // reads the same values and counters as one that loads.
        let stamping = AcAnalysis::new(&c, &op).unwrap();
        *stamping.plan.lock().unwrap() = Some(Arc::new(AcPlan::new(planned.plan.clone(), None)));
        let node = c.find_node("b").unwrap();
        let bits = |v: &[Complex64]| -> Vec<(u64, u64)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        assert_eq!(
            bits(&stamping.driving_point_response(node, &grid).unwrap()),
            bits(&reference.driving_point_response(node, &grid).unwrap())
        );
        let (all_s, all_r) = (
            stamping.driving_point_all_nodes(&grid).unwrap(),
            reference.driving_point_all_nodes(&grid).unwrap(),
        );
        for (s, r) in all_s.iter().zip(&all_r) {
            assert_eq!(bits(s), bits(r));
        }
        let (sw_s, sw_r) = (
            stamping.sweep(&grid).unwrap(),
            reference.sweep(&grid).unwrap(),
        );
        for n in c.signal_nodes() {
            assert_eq!(bits(&sw_s.response(n)), bits(&sw_r.response(n)));
        }
        let (mut st_s, st_r) = (stamping.solve_stats(), reference.solve_stats());
        // The stamping analysis never built its own plan.
        st_s.symbolic += 1;
        assert_eq!(st_s, st_r);
    }

    #[test]
    fn sweep_accessors() {
        let (c, _, vout) = rc_lowpass();
        let op = solve_dc(&c).unwrap();
        let ac = AcAnalysis::new(&c, &op).unwrap();
        let grid = FrequencyGrid::log_decade(1.0, 100.0, 5);
        let sweep = ac.sweep(&grid).unwrap();
        assert_eq!(sweep.len(), grid.len());
        assert!(!sweep.is_empty());
        assert_eq!(sweep.response(vout).len(), grid.len());
        assert_eq!(sweep.magnitude_db(vout).len(), grid.len());
        assert_eq!(sweep.freqs(), grid.freqs());
    }
}
