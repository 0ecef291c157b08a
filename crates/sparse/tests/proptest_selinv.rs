//! Property-based tests of the selected inversion
//! ([`SparseLu::diag_inverse_into`]): the diagonal of `A⁻¹` read off the LU
//! factors must match a dense reference inverse on random real and complex
//! systems — irreducible (one BTF block) and block-structured (several),
//! with scrambled rows and columns — and a row that a voltage-source-like
//! branch pins must come back as an exact `0.0`, the value a solve gives.

use loopscope_math::dense::{CMatrix, DMatrix};
use loopscope_math::Complex64;
use loopscope_sparse::{CsrMatrix, InverseWorkspace, Scalar, SparseLu, TripletMatrix};
use proptest::prelude::*;

/// One random system: dimension, block cut seeds, off-diagonal entries
/// `(row, col, re, im)`, whether to scramble rows/columns, whether to pin
/// node 0 with a voltage-source branch.
struct Spec {
    n: usize,
    cuts: Vec<usize>,
    entries: Vec<(usize, usize, f64, f64)>,
    scramble: bool,
    pin: bool,
}

/// Builds the system of `spec` over the scalar field `val` maps into.
///
/// Unknown `r` belongs to block `#{cuts ≤ r}`; an entry is kept only when
/// its row's block is not before its column's, so the blocks are one-way
/// coupled and BTF recovers them. Rows are strictly diagonally dominant.
/// With `pin`, unknown `n` is the branch current of a source fixing the
/// unknown of column `scol(0)` (see [`pinned`]): it enters that unknown's
/// row and its own row fixes the unknown, with no `(n, n)` entry.
fn build<T: Scalar>(spec: &Spec, val: impl Fn(f64, f64) -> T) -> CsrMatrix<T> {
    let n = spec.n;
    let block = |r: usize| spec.cuts.iter().filter(|&&c| c % n <= r).count();
    // The affine maps below are bijections iff 5 and 7 are coprime with n.
    let scramble = spec.scramble && !n.is_multiple_of(5) && !n.is_multiple_of(7);
    let srow = |r: usize| if scramble { (5 * r + 3) % n } else { r };
    let scol = |c: usize| if scramble { (7 * c + 1) % n } else { c };
    let dim = n + usize::from(spec.pin);
    let mut t = TripletMatrix::<T>::new(dim, dim);
    let mut row_sum = vec![0.0f64; n];
    for &(r, c, re, im) in &spec.entries {
        let (r, c) = (r % n, c % n);
        if r != c && block(r) >= block(c) {
            let v = val(re, im);
            row_sum[r] += v.modulus();
            t.push(srow(r), scol(c), v);
        }
    }
    for (r, sum) in row_sum.iter().enumerate() {
        t.push(srow(r), scol(r), val(sum + 1.0 + 0.01 * r as f64, 0.3));
    }
    if spec.pin {
        t.push(srow(0), n, T::ONE);
        t.push(n, scol(0), T::ONE);
    }
    t.to_csr()
}

/// Checks `diag_inverse_into` against the dense unit-vector solves
/// `solve_dense(e_v)` for every unknown with a stored diagonal; a pinned
/// unknown must be exactly zero.
fn check<T: Scalar>(
    a: &CsrMatrix<T>,
    pinned: Option<usize>,
    solve_dense: impl Fn(&[T]) -> Vec<T>,
) -> Result<(), String> {
    let n = a.rows();
    let lu = SparseLu::factor(a).expect("dominant system must factor");
    let mut diag = vec![T::ZERO; n];
    lu.diag_inverse_into(&mut diag, &mut InverseWorkspace::new())
        .expect("diag inverse");
    let stored: Vec<usize> = (0..n)
        .filter(|&v| a.row_entries(v).any(|(c, _)| c == v))
        .collect();
    for v in stored {
        let mut e = vec![T::ZERO; n];
        e[v] = T::ONE;
        let x = solve_dense(&e);
        let scale = x.iter().map(|xi| xi.modulus()).fold(0.0f64, f64::max);
        let err = (diag[v] - x[v]).modulus();
        prop_assert!(
            err <= 1.0e-11 * scale,
            "unknown {} of {} ({} blocks): {:?} vs dense {:?}",
            v,
            n,
            lu.block_count(),
            diag[v],
            x[v]
        );
    }
    if let Some(p) = pinned {
        prop_assert!(diag[p] == T::ZERO, "pinned unknown: {:?}", diag[p]);
    }
    Ok(())
}

/// The unknown `spec` pins, when it pins one whose diagonal is stored
/// (always without a scramble).
fn pinned(spec: &Spec) -> Option<usize> {
    (spec.pin && !spec.scramble).then_some(0)
}

fn dense_real(a: &CsrMatrix<f64>) -> DMatrix {
    let mut d = DMatrix::zeros(a.rows(), a.cols());
    for (r, c, v) in a.iter() {
        d[(r, c)] = v;
    }
    d
}

fn dense_complex(a: &CsrMatrix<Complex64>) -> CMatrix {
    let mut d = CMatrix::zeros(a.rows(), a.cols());
    for (r, c, v) in a.iter() {
        d[(r, c)] = v;
    }
    d
}

fn spec(n: usize, cuts: Vec<usize>, entries: Vec<(usize, usize, f64, f64)>, flags: usize) -> Spec {
    Spec {
        n,
        cuts,
        entries,
        scramble: flags & 1 == 1,
        pin: flags & 2 == 2,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Real systems: one block (no cuts) or several.
    #[test]
    fn real_diag_inverse_matches_dense_inverse(
        n in 1usize..16,
        cuts in prop::collection::vec(0usize..16, 0..4),
        entries in prop::collection::vec(
            (0usize..16, 0usize..16, -3.0f64..3.0, -3.0f64..3.0), 0..70),
        flags in 0usize..4,
    ) {
        let s = spec(n, cuts, entries, flags);
        let a = build(&s, |re, _| re);
        let dense = dense_real(&a);
        check(&a, pinned(&s), |b| dense.solve(b).expect("dense solve"))?;
    }

    /// Complex systems, the AC scalar field.
    #[test]
    fn complex_diag_inverse_matches_dense_inverse(
        n in 1usize..16,
        cuts in prop::collection::vec(0usize..16, 0..4),
        entries in prop::collection::vec(
            (0usize..16, 0usize..16, -3.0f64..3.0, -3.0f64..3.0), 0..70),
        flags in 0usize..4,
    ) {
        let s = spec(n, cuts, entries, flags);
        let a = build(&s, Complex64::new);
        let dense = dense_complex(&a);
        check(&a, pinned(&s), |b| dense.solve(b).expect("dense solve"))?;
    }

    /// Block-structured systems always split into several BTF blocks, so
    /// the cross-block zeros and per-block recurrences are exercised.
    #[test]
    fn multi_block_diag_inverse_matches_dense_inverse(
        n in 4usize..16,
        entries in prop::collection::vec(
            (0usize..16, 0usize..16, -3.0f64..3.0, -3.0f64..3.0), 0..70),
        flags in 0usize..4,
    ) {
        let s = spec(n, vec![n / 3, 2 * n / 3], entries, flags);
        let a = build(&s, Complex64::new);
        prop_assert!(SparseLu::factor(&a).expect("factor").block_count() > 1);
        let dense = dense_complex(&a);
        check(&a, pinned(&s), |b| dense.solve(b).expect("dense solve"))?;
    }
}

/// The index data is built on the first call and reused: a second call on a
/// refactored matrix over the same pattern gives the new inverse.
#[test]
fn refactored_values_reuse_the_pattern_index() {
    let s = spec(
        9,
        vec![3, 6],
        (0..40)
            .map(|k| (k * 7 % 9, k * 5 % 9, 1.0 - 0.1 * k as f64, 0.5))
            .collect(),
        2,
    );
    let a = build(&s, Complex64::new);
    let b = build(&s, |re, im| Complex64::new(2.0 * re, -im));
    let mut lu = SparseLu::factor(&a).unwrap();
    let symbolic = lu.extract_symbolic();
    let mut ws = InverseWorkspace::new();
    let mut diag = vec![Complex64::ZERO; a.rows()];
    lu.diag_inverse_into(&mut diag, &mut ws).unwrap();
    assert!(lu
        .refactor_into(&symbolic, &b, &mut Default::default())
        .unwrap());
    lu.diag_inverse_into(&mut diag, &mut ws).unwrap();
    let dense = dense_complex(&b);
    for v in 0..9 {
        let mut e = vec![Complex64::ZERO; b.rows()];
        e[v] = Complex64::ONE;
        let x = dense.solve(&e).unwrap();
        assert!((diag[v] - x[v]).abs() <= 1e-12 * x[v].abs().max(1.0));
    }
    assert_eq!(diag[0], Complex64::ZERO, "pinned node");
}
