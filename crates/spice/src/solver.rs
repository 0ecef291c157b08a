//! Linear-solver backend selection: the `LOOPSCOPE_SOLVER` knob, the
//! dim/fill auto-selection rule, and the stale-preconditioner refresh
//! schedule shared by every sweep driver.
//!
//! Every AC sweep in this crate routes its solves through a
//! [`SolverBackend`] seam: the **direct** path (numeric LU refactorization
//! at every point, residual-verified by the retry ladder) or the
//! **iterative** path (restarted GMRES preconditioned by a *stale* LU that
//! is refreshed only every [`PRECOND_REFRESH_INTERVAL`]-th sweep point).
//! Direct LU fill grows superlinearly on 2-D mesh patterns, so large
//! power-grid systems want the iterative path; small block-structured MNA
//! systems refactor so cheaply that direct always wins. The
//! [`resolve_backend`] rule picks per structure, and the environment knob
//! lets benches, CI matrices and users force either path. DC operating
//! points and transient runs always solve direct: their adopting
//! [`SolveContext`](crate::assembly::SolveContext) has no backend to pick.
//!
//! # Determinism contract
//!
//! Iterative results are **not** bitwise identical to direct results — but
//! they are deterministic and chunking/thread-invariant: the preconditioner
//! used at sweep point `idx` is always the factorization of the matrix at
//! [`anchor_index`]`(idx)`, whatever worker processes the point, so the
//! GMRES inputs (and with them the iteration counts, residuals and
//! solutions) are bitwise reproducible at any `LOOPSCOPE_THREADS`
//! chunking.

use loopscope_sparse::SolverBackend;

/// Environment variable naming the solver backend every AC sweep routes
/// through: `direct` forces the LU path, `iterative` forces GMRES with the
/// stale-LU preconditioner, `auto` (the default when unset or unparsable)
/// picks per system structure via [`resolve_backend`]. It does not affect
/// DC operating points or transient runs, which always solve direct.
pub const SOLVER_ENV: &str = "LOOPSCOPE_SOLVER";

/// How often the iterative path refreshes its preconditioner: sweep point
/// `idx` is preconditioned by the LU of the matrix at
/// `anchor_index(idx) = idx − idx % 8`, so one numeric refactorization
/// serves 8 sweep points. Chosen so adjacent-frequency matrices stay close
/// enough for GMRES to converge in a handful of iterations while the
/// refactor cost amortizes nearly 8x.
pub const PRECOND_REFRESH_INTERVAL: usize = 8;

/// Acceptance threshold of an iterative solve's normwise backward error.
/// Looser than the direct path's `REFINE_BACKWARD_TOLERANCE` (the
/// documented determinism-contract relaxation: iterative results are
/// verified against the true residual but not refined to working
/// precision); any GMRES verdict above this falls back to the exact
/// verified-direct ladder.
pub const GMRES_ACCEPT_BACKWARD_TOLERANCE: f64 = 1.0e-9;

/// Minimum system dimension at which `auto` considers the iterative path.
pub const AUTO_DIM_THRESHOLD: usize = 4096;

/// Minimum fill ratio (`fill_nnz / dim`) at which `auto` considers the
/// iterative path: below it the direct refactorization is cheap enough
/// that stale-preconditioned GMRES cannot pay for its matrix-vector
/// products.
pub const AUTO_FILL_FACTOR: usize = 8;

/// The user-facing solver selection parsed from [`SOLVER_ENV`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverMode {
    /// Always the direct verified-LU path.
    Direct,
    /// Always the GMRES path (with the direct ladder as per-point fallback).
    Iterative,
    /// Pick per system structure — see [`resolve_backend`].
    Auto,
}

impl SolverMode {
    /// Parses a `LOOPSCOPE_SOLVER` value; `None` for anything but the three
    /// known spellings (case-insensitive, surrounding whitespace ignored).
    pub fn parse(value: Option<&str>) -> Option<SolverMode> {
        match value?.trim().to_ascii_lowercase().as_str() {
            "direct" => Some(SolverMode::Direct),
            "iterative" => Some(SolverMode::Iterative),
            "auto" => Some(SolverMode::Auto),
            _ => None,
        }
    }
}

/// The solver mode AC sweeps run with: [`SOLVER_ENV`] when set to a known
/// value, otherwise [`SolverMode::Auto`]. Read afresh on every call, so
/// tests and benches can switch it between runs.
pub fn configured_solver_mode() -> SolverMode {
    SolverMode::parse(std::env::var(SOLVER_ENV).ok().as_deref()).unwrap_or(SolverMode::Auto)
}

/// Resolves a [`SolverMode`] against a system's structure: `Auto` picks the
/// iterative backend only for large, fill-heavy systems
/// (`dim ≥` [`AUTO_DIM_THRESHOLD`] and `fill_nnz ≥` [`AUTO_FILL_FACTOR`]`·dim`
/// — the 2-D-mesh regime where per-point refactorization dominates), and
/// the direct backend everywhere else.
pub fn resolve_backend(mode: SolverMode, dim: usize, fill_nnz: usize) -> SolverBackend {
    match mode {
        SolverMode::Direct => SolverBackend::Direct,
        SolverMode::Iterative => SolverBackend::iterative_default(),
        SolverMode::Auto => {
            if dim >= AUTO_DIM_THRESHOLD && fill_nnz >= AUTO_FILL_FACTOR * dim {
                SolverBackend::iterative_default()
            } else {
                SolverBackend::Direct
            }
        }
    }
}

/// The sweep point whose matrix preconditions point `idx`: the start of
/// `idx`'s refresh group. A pure function of the index, so every worker
/// derives the same preconditioner for a point regardless of chunking.
pub fn anchor_index(idx: usize) -> usize {
    idx - idx % PRECOND_REFRESH_INTERVAL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing_accepts_known_spellings() {
        assert_eq!(SolverMode::parse(Some("direct")), Some(SolverMode::Direct));
        assert_eq!(
            SolverMode::parse(Some(" Iterative ")),
            Some(SolverMode::Iterative)
        );
        assert_eq!(SolverMode::parse(Some("AUTO")), Some(SolverMode::Auto));
        assert_eq!(SolverMode::parse(Some("gmres")), None);
        assert_eq!(SolverMode::parse(Some("")), None);
        assert_eq!(SolverMode::parse(None), None);
    }

    #[test]
    fn auto_picks_iterative_only_for_large_fill_heavy_systems() {
        assert_eq!(
            resolve_backend(SolverMode::Auto, 100, 10_000),
            SolverBackend::Direct,
            "small systems stay direct regardless of fill"
        );
        assert_eq!(
            resolve_backend(SolverMode::Auto, 10_000, 10_000),
            SolverBackend::Direct,
            "sparse factors stay direct regardless of dimension"
        );
        assert!(
            resolve_backend(SolverMode::Auto, 10_000, 200_000).is_iterative(),
            "big 2-D-mesh fill goes iterative"
        );
        assert_eq!(
            resolve_backend(SolverMode::Direct, 1_000_000, 1_000_000_000),
            SolverBackend::Direct
        );
        assert!(resolve_backend(SolverMode::Iterative, 2, 4).is_iterative());
    }

    #[test]
    fn anchor_index_is_the_group_start() {
        let k = PRECOND_REFRESH_INTERVAL;
        assert_eq!(anchor_index(0), 0);
        assert_eq!(anchor_index(k - 1), 0);
        assert_eq!(anchor_index(k), k);
        assert_eq!(anchor_index(3 * k + 5), 3 * k);
    }
}
