//! A small-signal circuit simulator built on modified nodal analysis (MNA).
//!
//! This crate is the substrate that replaces the commercial Spectre/TIspice
//! simulators used by the original DATE'05 tool. It provides the three
//! analyses the stability methodology needs:
//!
//! * [`dc::OperatingPoint`] — nonlinear DC operating point via Newton-Raphson
//!   with gmin and source stepping,
//! * [`ac::AcAnalysis`] — small-signal frequency sweeps, including the
//!   driving-point (current-injection) responses the stability plot is
//!   computed from,
//! * [`tran::TransientAnalysis`] — time-domain integration used by the
//!   traditional step-response overshoot baseline.
//!
//! The MNA formulation, element stamps and device companion models live in
//! [`mna`] and [`devices`]; measurement helpers (overshoot, gain/phase
//! margins, crossovers) live in [`measure`]. The solver pipeline builds the
//! sparsity pattern and the LU pivot order once per circuit structure and
//! then restamps values in place (a frequency point loads them from a
//! compiled [`assembly::AffineImage`] instead) and
//! refactors numerically for every further frequency point, Newton
//! iteration or timestep, all through one driver, [`assembly::SolveContext`]. The sequential analyses (DC Newton,
//! transient stepping) use an adopting context that re-plans from its own
//! systems; the frequency sweeps share an immutable [`assembly::SweepPlan`]
//! and mint one context per worker that never re-plans, running their grids
//! across scoped worker threads through [`par::sweep_chunks`]
//! (`LOOPSCOPE_THREADS` knob, results bitwise identical at any worker
//! count).
//!
//! # Example
//!
//! ```
//! use loopscope_netlist::{Circuit, SourceSpec};
//! use loopscope_spice::{dc::solve_dc, ac::AcAnalysis};
//! use loopscope_math::FrequencyGrid;
//!
//! // A simple RC low-pass driven by a 1 V AC source.
//! let mut ckt = Circuit::new("rc");
//! let vin = ckt.node("in");
//! let vout = ckt.node("out");
//! ckt.add_vsource("V1", vin, Circuit::GROUND, SourceSpec::dc_ac(0.0, 1.0, 0.0));
//! ckt.add_resistor("R1", vin, vout, 1.0e3);
//! ckt.add_capacitor("C1", vout, Circuit::GROUND, 1.0e-6);
//! let op = solve_dc(&ckt)?;
//! let ac = AcAnalysis::new(&ckt, &op)?;
//! let grid = FrequencyGrid::log_decade(1.0, 1.0e5, 10);
//! let sweep = ac.sweep(&grid)?;
//! // At the 159 Hz corner the output is 3 dB down.
//! let corner = sweep.magnitude_at(vout, 159.15);
//! assert!((corner - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.01);
//! # Ok::<(), loopscope_spice::SpiceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ac;
pub mod assembly;
pub mod batch;
pub mod dc;
pub mod devices;
pub mod error;
pub mod measure;
pub mod mna;
pub mod par;
pub mod solver;
pub mod tran;

pub use ac::{AcAnalysis, AcSweep, SolverStructure};
pub use assembly::{AffineImage, AssembleMna, SlotSink, SolveContext, SolveStats, SweepPlan};
pub use batch::{
    driving_point_batch, driving_point_monte_carlo, BatchVariant, BatchedSweep, ParameterVariation,
    VariantOutcome,
};
pub use dc::{
    solve_dc, solve_dc_with, ConvergenceReport, DcOptions, DcPhase, OperatingPoint, StageReport,
};
pub use error::{SpiceError, StepRejectReason, StepRejection};
pub use loopscope_sparse::KernelBackend;
pub use solver::SolverBackend;
pub use tran::{Integration, TransientAnalysis, TransientOptions, TransientResult, TransientStats};

/// Thermal voltage kT/q at 300 K, in volts.
pub const THERMAL_VOLTAGE: f64 = 0.02585;

/// Minimum conductance added from every node to ground to keep MNA matrices
/// well conditioned (SPICE `GMIN`).
pub const GMIN: f64 = 1.0e-12;
