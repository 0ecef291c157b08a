//! Sparse matrices and a symbolic/numeric sparse LU solver for circuit
//! simulation.
//!
//! Modified nodal analysis (MNA) produces matrices that are extremely sparse
//! — each circuit element touches at most a handful of rows/columns — and the
//! stability analyses in `loopscope-spice` factor the *same pattern* hundreds
//! of times per sweep (one factorization per frequency point, Newton
//! iteration or timestep). The crate is organised around that workload:
//!
//! * [`TripletMatrix`] — a coordinate-format accumulator that element
//!   "stamps" append to; duplicate entries are summed, which matches how MNA
//!   stamps superpose. Used once per circuit structure to discover the
//!   pattern.
//! * [`CsrMatrix`] — compressed sparse row storage used for matrix-vector
//!   products and as the input to factorization. Values can be rewritten in
//!   place ([`CsrMatrix::zero_values`], [`CsrMatrix::find_slot`]) so repeated
//!   assemblies over a fixed pattern allocate nothing.
//! * [`ordering`] — fill-reducing elimination orderings (minimum degree on
//!   the `A + Aᵀ` pattern, as KLU applies to circuit matrices). Every fresh
//!   factorization computes one per diagonal block; they keep the LU fill —
//!   and therefore the cost of every numeric refactorization — near the
//!   structural optimum.
//! * [`btf`] — block upper-triangular form (maximum transversal + Tarjan
//!   SCC, KLU's outermost structural move). Block-structured circuits —
//!   cascaded stages, buffered sub-circuits — factor as many small diagonal
//!   blocks, with the cross-block entries stored raw (zero fill) for the
//!   block back-substitution; irreducible patterns are a single block.
//! * [`SparseLu`] — flat-storage LU with two entry points, split the way KLU
//!   splits `klu_factor` from `klu_refactor`. [`SparseLu::factor`] is the
//!   one fresh factorization and the only one that chooses pivots: BTF, then
//!   a minimum-degree order and KLU-style relative threshold pivoting per
//!   diagonal block, swapping rows only when numerics demand it.
//!   [`SparseLu::extract_symbolic`] captures its row and column permutations,
//!   block partition and fill pattern as a [`SymbolicLu`]; every later
//!   matrix with the same structure is factored by the numeric-only,
//!   allocation-free [`SparseLu::refactor_into`] with a reusable
//!   [`LuWorkspace`], which skips pivot search and fill discovery entirely.
//!   `refactor_into` never re-pivots: a degraded pivot or an off-pattern
//!   entry is its soft outcome `Ok(false)`, and the caller re-pivots through
//!   `factor`. Solves are allocation-free through [`SparseLu::solve_into`];
//!   [`SparseLu::diag_inverse_into`] computes the whole diagonal of `A⁻¹`
//!   from the same factors by selected inversion (the Takahashi
//!   recurrences), for about the cost of one factorization.
//!
//! The scalar abstraction [`Scalar`] is implemented for `f64` (DC and
//! transient analyses) and [`Complex64`] (AC analysis). The numeric hot
//! loops — the substitution fold and the batched variant-lane update and
//! divide — are plain portable loops with one code path each, so results
//! never depend on the CPU. [`kernels`] keeps only the vestiges of the
//! retired backend choice (`KERNEL_ENV`, accepted and ignored, and the
//! one-variant [`KernelBackend`]).
//!
//! # Example
//!
//! ```
//! use loopscope_sparse::{LuWorkspace, SparseLu, TripletMatrix};
//!
//! // 2x2 system: [2 1; 1 3]·x = [5, 10]  →  x = [1, 3]
//! let mut t = TripletMatrix::<f64>::new(2, 2);
//! t.push(0, 0, 2.0);
//! t.push(0, 1, 1.0);
//! t.push(1, 0, 1.0);
//! t.push(1, 1, 3.0);
//! let mut lu = SparseLu::factor(&t.to_csr())?;
//! let x = lu.solve(&[5.0, 10.0])?;
//! assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 3.0).abs() < 1e-12);
//!
//! // Same pattern, new values: numeric-only refactorization over the
//! // captured symbolic analysis (`false` would ask for a fresh `factor`).
//! let symbolic = lu.extract_symbolic();
//! let mut ws = LuWorkspace::new();
//! let mut t2 = TripletMatrix::<f64>::new(2, 2);
//! t2.push(0, 0, 4.0);
//! t2.push(0, 1, 1.0);
//! t2.push(1, 0, 1.0);
//! t2.push(1, 1, 5.0);
//! assert!(lu.refactor_into(&symbolic, &t2.to_csr(), &mut ws)?);
//! let x2 = lu.solve(&[5.0, 6.0])?;
//! assert!((x2[0] - 1.0).abs() < 1e-12 && (x2[1] - 1.0).abs() < 1e-12);
//! # Ok::<(), loopscope_sparse::SolveError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod btf;
mod csr;
#[cfg(feature = "fault-inject")]
pub mod faults;
pub mod kernels;
mod lu;
pub mod ordering;
mod scalar;
mod triplet;

pub use csr::CsrMatrix;
pub use kernels::KernelBackend;
pub use lu::{
    normwise_backward_error, BatchLaneStatus, BatchedLu, InverseWorkspace, LanePlanes, LuWorkspace,
    RefineWorkspace, SolveError, SolveQuality, SparseLu, SymbolicLu, MAX_LANES,
    ORDERED_PIVOT_THRESHOLD, REFINE_BACKWARD_TOLERANCE, REFINE_MAX_STEPS,
};
pub use scalar::Scalar;
pub use triplet::TripletMatrix;

pub use loopscope_math::Complex64;
