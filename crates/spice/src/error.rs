//! Simulator error type.

use crate::mna::MnaLayout;
use loopscope_netlist::NetlistError;
use loopscope_sparse::SolveError;
use std::fmt;

/// Why the adaptive transient stepper rejected one attempted step.
///
/// Mirrors the rungs of the per-step accept-or-escalate ladder (see
/// [`crate::tran`]): a step is retried with a smaller width after either
/// failure kind, and only once the ladder is exhausted at `dt_min` does the
/// run surface [`SpiceError::TransientNoConvergence`] carrying the recorded
/// [`StepRejection`]s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepRejectReason {
    /// The Newton loop did not converge within `max_newton` iterations.
    NewtonNoConvergence,
    /// The local-truncation-error estimate exceeded the `reltol`/`abstol`
    /// tolerance.
    LteExceeded {
        /// Worst per-node `error / tolerance` ratio (`> 1` means rejected).
        ratio: f64,
    },
}

/// One rejected transient step attempt: where it was tried, how wide it was,
/// and which ladder rung rejected it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRejection {
    /// Attempted end time of the step, in seconds.
    pub time: f64,
    /// Attempted step width, in seconds.
    pub dt: f64,
    /// Which ladder rung rejected the attempt.
    pub reason: StepRejectReason,
}

/// Errors produced by the circuit simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SpiceError {
    /// The circuit failed structural validation before simulation.
    Netlist(NetlistError),
    /// The MNA matrix could not be factored (singular system), typically a
    /// floating node or an inconsistent source loop.
    Linear(SolveError),
    /// The MNA matrix is singular at a *named* circuit unknown — the
    /// name-enriched form of [`SolveError::Singular`], produced by
    /// [`SpiceError::from_solve`]. Typically a floating node (`V(name)`) or an
    /// inconsistent voltage-source / inductor loop (`I(element)`).
    SingularSystem {
        /// Human-readable unknown: `V(node)` or `I(element)`.
        unknown: String,
        /// Original (un-permuted) MNA matrix column index.
        column: usize,
    },
    /// A NaN or infinite value was stamped into the MNA matrix — the
    /// name-enriched form of [`SolveError::NonFinite`], produced by
    /// [`SpiceError::from_solve`]. Usually a device model evaluated outside
    /// its domain or a corrupted parameter.
    NonFiniteStamp {
        /// Human-readable unknown of the offending row.
        row: String,
        /// Human-readable unknown of the offending column.
        col: String,
        /// Original row index of the non-finite entry.
        row_index: usize,
        /// Original column index of the non-finite entry.
        col_index: usize,
    },
    /// The solve retry ladder ran out of rungs: refinement, a fresh
    /// threshold-pivoted factorization and the per-point gmin bumps all
    /// failed to produce a residual-verified solution.
    ResidualCheckFailed {
        /// Backward error of the best solution the ladder produced
        /// (see [`loopscope_sparse::SolveQuality::backward_error`]).
        backward_error: f64,
        /// Number of per-point gmin bumps that were applied before giving up.
        gmin_bumps: usize,
    },
    /// The Newton-Raphson operating-point iteration did not converge.
    DcNoConvergence {
        /// Number of iterations attempted.
        iterations: usize,
        /// Largest voltage update at the last iteration.
        max_delta: f64,
    },
    /// A transient Newton solve failed to converge at the given time.
    TransientNoConvergence {
        /// Simulation time at which convergence failed, in seconds.
        time: f64,
        /// Timestep index (1-based, matching the output sample index).
        step: usize,
        /// Name of the node with the largest voltage update at the last
        /// Newton iteration — the unknown that refused to settle.
        worst_node: String,
        /// The rejected attempts at this time point, in ladder order: the
        /// stepper's halve-and-retry history and its backward-Euler retry.
        /// A fixed grid cannot halve, so it records only the failed step
        /// and, after a trapezoidal step, its backward-Euler retry.
        rejections: Vec<StepRejection>,
    },
    /// A reference (node or element) passed to an analysis does not belong to
    /// the circuit.
    UnknownReference(String),
    /// Analysis options are inconsistent (e.g. a non-positive time step).
    InvalidOptions(String),
}

impl SpiceError {
    /// Enriches a sparse-solver error with circuit names: singular columns
    /// and non-finite coordinates are mapped through the MNA `layout` to
    /// `V(node)` / `I(element)` labels ([`SpiceError::SingularSystem`],
    /// [`SpiceError::NonFiniteStamp`]); every other [`SolveError`] passes
    /// through as [`SpiceError::Linear`].
    pub fn from_solve(e: SolveError, layout: &MnaLayout) -> Self {
        match e {
            SolveError::Singular(column) => SpiceError::SingularSystem {
                unknown: layout.unknown_name(column),
                column,
            },
            SolveError::NonFinite { row, col } => SpiceError::NonFiniteStamp {
                row: layout.unknown_name(row),
                col: layout.unknown_name(col),
                row_index: row,
                col_index: col,
            },
            other => SpiceError::Linear(other),
        }
    }

    /// Whether this error is a hard linear-solver failure (as opposed to a
    /// Newton non-convergence that a continuation strategy such as gmin or
    /// source stepping might still rescue).
    pub fn is_solver_failure(&self) -> bool {
        matches!(
            self,
            SpiceError::Linear(_)
                | SpiceError::SingularSystem { .. }
                | SpiceError::NonFiniteStamp { .. }
                | SpiceError::ResidualCheckFailed { .. }
        )
    }
}

impl fmt::Display for SpiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpiceError::Netlist(e) => write!(f, "netlist error: {e}"),
            SpiceError::Linear(e) => write!(f, "linear solve failed: {e}"),
            SpiceError::SingularSystem { unknown, column } => write!(
                f,
                "MNA matrix is singular at {unknown} (column {column}): \
                 check for floating nodes or voltage-source/inductor loops"
            ),
            SpiceError::NonFiniteStamp {
                row,
                col,
                row_index,
                col_index,
            } => write!(
                f,
                "non-finite value stamped at ({row}, {col}) \
                 [matrix entry ({row_index}, {col_index})]"
            ),
            SpiceError::ResidualCheckFailed {
                backward_error,
                gmin_bumps,
            } => write!(
                f,
                "solve retry ladder exhausted: backward error {backward_error:.3e} \
                 after {gmin_bumps} gmin bump(s)"
            ),
            SpiceError::DcNoConvergence {
                iterations,
                max_delta,
            } => write!(
                f,
                "DC operating point did not converge after {iterations} iterations (last |ΔV| = {max_delta:.3e})"
            ),
            SpiceError::TransientNoConvergence {
                time,
                step,
                worst_node,
                rejections,
            } => {
                write!(
                    f,
                    "transient Newton iteration failed to converge at t = {time:.3e} s \
                     (step {step}, worst node {worst_node})"
                )?;
                if !rejections.is_empty() {
                    let smallest = rejections.iter().map(|r| r.dt).fold(f64::INFINITY, f64::min);
                    write!(
                        f,
                        " after {} rejected attempt(s), smallest dt {smallest:.3e} s",
                        rejections.len()
                    )?;
                }
                Ok(())
            }
            SpiceError::UnknownReference(name) => {
                write!(f, "unknown node or element reference `{name}`")
            }
            SpiceError::InvalidOptions(reason) => write!(f, "invalid analysis options: {reason}"),
        }
    }
}

impl std::error::Error for SpiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpiceError::Netlist(e) => Some(e),
            SpiceError::Linear(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for SpiceError {
    fn from(e: NetlistError) -> Self {
        SpiceError::Netlist(e)
    }
}

impl From<SolveError> for SpiceError {
    fn from(e: SolveError) -> Self {
        SpiceError::Linear(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopscope_netlist::{Circuit, SourceSpec};
    use std::error::Error;

    #[test]
    fn display_and_source() {
        let e = SpiceError::DcNoConvergence {
            iterations: 100,
            max_delta: 0.5,
        };
        assert!(e.to_string().contains("100 iterations"));
        assert!(e.source().is_none());

        let wrapped = SpiceError::Linear(SolveError::Singular(3));
        assert!(wrapped.to_string().contains("singular"));
        assert!(wrapped.source().is_some());

        let n = SpiceError::from(NetlistError::InvalidCircuit("x".into()));
        assert!(matches!(n, SpiceError::Netlist(_)));

        assert!(SpiceError::UnknownReference("foo".into())
            .to_string()
            .contains("foo"));
        let t = SpiceError::TransientNoConvergence {
            time: 1e-6,
            step: 42,
            worst_node: "V(out)".into(),
            rejections: Vec::new(),
        };
        assert!(t.to_string().contains("transient"));
        assert!(t.to_string().contains("step 42"));
        assert!(t.to_string().contains("V(out)"));
        assert!(!t.to_string().contains("rejected"));
        let ladder = SpiceError::TransientNoConvergence {
            time: 1e-6,
            step: 42,
            worst_node: "V(out)".into(),
            rejections: vec![
                StepRejection {
                    time: 1e-6,
                    dt: 4e-9,
                    reason: StepRejectReason::LteExceeded { ratio: 3.5 },
                },
                StepRejection {
                    time: 0.998e-6,
                    dt: 2e-9,
                    reason: StepRejectReason::NewtonNoConvergence,
                },
            ],
        };
        let msg = ladder.to_string();
        assert!(msg.contains("2 rejected attempt(s)"), "{msg}");
        assert!(msg.contains("2.000e-9"), "{msg}");
        assert!(SpiceError::InvalidOptions("dt".into())
            .to_string()
            .contains("dt"));
    }

    #[test]
    fn from_solve_enriches_with_circuit_names() {
        let mut c = Circuit::new("enrich");
        let a = c.node("in");
        let b = c.node("out");
        c.add_vsource("V1", a, Circuit::GROUND, SourceSpec::dc(1.0));
        c.add_resistor("R1", a, b, 1e3);
        let layout = MnaLayout::new(&c);

        let singular = SpiceError::from_solve(SolveError::Singular(1), &layout);
        assert_eq!(
            singular,
            SpiceError::SingularSystem {
                unknown: "V(out)".into(),
                column: 1
            }
        );
        assert!(singular.is_solver_failure());

        let nan = SpiceError::from_solve(SolveError::NonFinite { row: 0, col: 2 }, &layout);
        assert_eq!(
            nan,
            SpiceError::NonFiniteStamp {
                row: "V(in)".into(),
                col: "I(V1)".into(),
                row_index: 0,
                col_index: 2
            }
        );

        let passthrough = SpiceError::from_solve(
            SolveError::RhsLength {
                expected: 2,
                got: 3,
            },
            &layout,
        );
        assert!(matches!(passthrough, SpiceError::Linear(_)));

        let soft = SpiceError::DcNoConvergence {
            iterations: 5,
            max_delta: 0.1,
        };
        assert!(!soft.is_solver_failure());
        assert!(SpiceError::ResidualCheckFailed {
            backward_error: 1e-3,
            gmin_bumps: 2
        }
        .is_solver_failure());
    }
}
