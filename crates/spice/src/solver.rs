//! Vestiges of the retired solver-backend choice.
//!
//! Every AC sweep, all-nodes scan, DC operating point and transient run
//! solves on one direct path: numeric LU refactorization at every point,
//! residual-verified by the retry ladder of
//! [`SolveContext::solve_verified_in_place`](crate::assembly::SolveContext::solve_verified_in_place).
//! The names below survive only so existing callers keep compiling; none of
//! them selects anything.

/// Name of the environment variable that once chose the solver backend.
/// It is accepted and ignored: nothing in this workspace reads it.
pub const SOLVER_ENV: &str = "LOOPSCOPE_SOLVER";

/// The linear-solver backend of a sweep. One variant: every solve is the
/// direct, residual-verified LU path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverBackend {
    /// Numeric LU refactorization at every point, residual-verified by the
    /// retry ladder.
    Direct,
}
