//! Property-based tests for the sparse LU solver.
//!
//! The key invariant: for any reasonably conditioned matrix `A` and vector
//! `x`, factoring `A` and solving against `b = A·x` recovers `x`, and the
//! residual `A·x̂ − b` is small. Diagonal dominance is enforced on the random
//! matrices to keep the condition number bounded so the tolerance can be tight.

use loopscope_math::dense::{CMatrix, DMatrix};
use loopscope_math::Complex64;
use loopscope_sparse::{CsrMatrix, LuWorkspace, SparseLu, TripletMatrix};
use proptest::prelude::*;

/// Builds a random, diagonally dominant sparse matrix from proptest inputs.
fn build_real(n: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix<f64> {
    build_real_scaled(n, entries, 1.0)
}

/// Like [`build_real`] but with every off-diagonal value multiplied by
/// `scale` — same sparsity pattern for any scale, different numerics.
fn build_real_scaled(n: usize, entries: &[(usize, usize, f64)], scale: f64) -> CsrMatrix<f64> {
    let mut t = TripletMatrix::new(n, n);
    let mut row_sum = vec![0.0; n];
    for &(r, c, v) in entries {
        let (r, c) = (r % n, c % n);
        if r == c {
            continue;
        }
        t.push(r, c, v * scale);
        row_sum[r] += (v * scale).abs();
    }
    for (i, s) in row_sum.iter().enumerate() {
        // Strict diagonal dominance keeps the matrix invertible.
        t.push(i, i, s + 1.0 + i as f64 * 0.01);
    }
    t.to_csr()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn real_solve_recovers_solution(
        n in 2usize..24,
        entries in prop::collection::vec((0usize..24, 0usize..24, -5.0f64..5.0), 0..120),
        xseed in prop::collection::vec(-10.0f64..10.0, 24),
    ) {
        let a = build_real(n, &entries);
        let x_true: Vec<f64> = xseed.iter().take(n).copied().collect();
        let b = a.mul_vec(&x_true);
        let lu = SparseLu::factor(&a).expect("diagonally dominant matrix must factor");
        let x = lu.solve(&b).expect("solve");
        for (xi, ti) in x.iter().zip(&x_true) {
            prop_assert!((xi - ti).abs() < 1e-8 * (1.0 + ti.abs()));
        }
    }

    #[test]
    fn residual_is_small(
        n in 2usize..16,
        entries in prop::collection::vec((0usize..16, 0usize..16, -3.0f64..3.0), 0..80),
        bseed in prop::collection::vec(-10.0f64..10.0, 16),
    ) {
        let a = build_real(n, &entries);
        let b: Vec<f64> = bseed.iter().take(n).copied().collect();
        let x = SparseLu::factor(&a).expect("must factor").solve(&b).expect("solve");
        let r = a.mul_vec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            prop_assert!((ri - bi).abs() < 1e-8 * (1.0 + bi.abs()));
        }
    }

    #[test]
    fn complex_solve_recovers_solution(
        n in 2usize..12,
        entries in prop::collection::vec(
            (0usize..12, 0usize..12, -3.0f64..3.0, -3.0f64..3.0), 0..60),
        xseed in prop::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 12),
    ) {
        let mut t = TripletMatrix::<Complex64>::new(n, n);
        let mut row_sum = vec![0.0; n];
        for &(r, c, re, im) in &entries {
            let (r, c) = (r % n, c % n);
            if r == c { continue; }
            let v = Complex64::new(re, im);
            t.push(r, c, v);
            row_sum[r] += v.abs();
        }
        for (i, s) in row_sum.iter().enumerate() {
            t.push(i, i, Complex64::new(s + 1.0, 0.5));
        }
        let a = t.to_csr();
        let x_true: Vec<Complex64> = xseed.iter().take(n)
            .map(|&(re, im)| Complex64::new(re, im)).collect();
        let b = a.mul_vec(&x_true);
        let lu = SparseLu::factor(&a).expect("must factor");
        let x = lu.solve(&b).expect("rhs length matches");
        for (xi, ti) in x.iter().zip(&x_true) {
            prop_assert!((*xi - *ti).abs() < 1e-8 * (1.0 + ti.abs()));
        }
    }

    /// Refactorization over a reused symbolic pattern must agree with a
    /// fresh factorization on any same-pattern real system.
    #[test]
    fn real_refactor_matches_fresh_factor(
        n in 2usize..20,
        entries in prop::collection::vec((0usize..20, 0usize..20, -4.0f64..4.0), 0..100),
        xseed in prop::collection::vec(-10.0f64..10.0, 20),
        scale in 0.2f64..5.0,
    ) {
        let first = build_real(n, &entries);
        let mut lu = SparseLu::factor(&first).expect("diagonally dominant matrix must factor");
        let symbolic = lu.extract_symbolic();
        // Same pattern, different values.
        let second = build_real_scaled(n, &entries, scale);
        prop_assert!(first.same_pattern(&second));
        let x_true: Vec<f64> = xseed.iter().take(n).copied().collect();
        let b = second.mul_vec(&x_true);
        let reused = lu.refactor_into(&symbolic, &second, &mut LuWorkspace::new())
            .expect("refactor must succeed");
        prop_assert!(reused, "diagonally dominant refactor must not ask for a re-pivot");
        let x = lu.solve(&b).expect("solve");
        let fresh = SparseLu::factor(&second).expect("fresh factor").solve(&b).expect("solve");
        for ((xi, fi), ti) in x.iter().zip(&fresh).zip(&x_true) {
            prop_assert!((xi - ti).abs() < 1e-8 * (1.0 + ti.abs()),
                "refactor vs truth: {} vs {}", xi, ti);
            prop_assert!((xi - fi).abs() < 1e-8 * (1.0 + fi.abs()),
                "refactor vs fresh: {} vs {}", xi, fi);
        }
    }

    /// The same property over the complex field (the AC-analysis scalar).
    #[test]
    fn complex_refactor_matches_fresh_factor(
        n in 2usize..12,
        entries in prop::collection::vec(
            (0usize..12, 0usize..12, -3.0f64..3.0, -3.0f64..3.0), 0..60),
        xseed in prop::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 12),
        phase in 0.1f64..6.2,
    ) {
        let build = |rot: Complex64| {
            let mut t = TripletMatrix::<Complex64>::new(n, n);
            let mut row_sum = vec![0.0; n];
            for &(r, c, re, im) in &entries {
                let (r, c) = (r % n, c % n);
                if r == c { continue; }
                let v = Complex64::new(re, im) * rot;
                t.push(r, c, v);
                row_sum[r] += v.abs();
            }
            for (i, s) in row_sum.iter().enumerate() {
                t.push(i, i, Complex64::new(s + 1.0, 0.5));
            }
            t.to_csr()
        };
        let first = build(Complex64::ONE);
        let mut lu = SparseLu::factor(&first).expect("must factor");
        let symbolic = lu.extract_symbolic();
        // Rotate all off-diagonal values in the complex plane: same pattern,
        // different numbers — like re-stamping jωC at a new frequency.
        let second = build(Complex64::from_polar(1.0, phase));
        prop_assert!(first.same_pattern(&second));
        let x_true: Vec<Complex64> = xseed.iter().take(n)
            .map(|&(re, im)| Complex64::new(re, im)).collect();
        let b = second.mul_vec(&x_true);
        let reused = lu.refactor_into(&symbolic, &second, &mut LuWorkspace::new())
            .expect("refactor");
        prop_assert!(reused);
        let x = lu.solve(&b).expect("solve");
        for (xi, ti) in x.iter().zip(&x_true) {
            prop_assert!((*xi - *ti).abs() < 1e-8 * (1.0 + ti.abs()),
                "{:?} vs {:?}", xi, ti);
        }
    }

    /// A refactorization handed a matrix whose pattern does not match the
    /// symbolic analysis must either succeed or report the soft outcome —
    /// never a wrong answer — and a re-pivot through `factor` recovers.
    #[test]
    fn refactor_pattern_mismatch_falls_back_correctly(
        n in 2usize..12,
        entries_a in prop::collection::vec((0usize..12, 0usize..12, -3.0f64..3.0), 0..40),
        entries_b in prop::collection::vec((0usize..12, 0usize..12, -3.0f64..3.0), 0..40),
        xseed in prop::collection::vec(-5.0f64..5.0, 12),
    ) {
        let a = build_real(n, &entries_a);
        let mut lu = SparseLu::factor(&a).expect("must factor");
        let symbolic = lu.extract_symbolic();
        let b_mat = build_real(n, &entries_b);
        let x_true: Vec<f64> = xseed.iter().take(n).copied().collect();
        let rhs = b_mat.mul_vec(&x_true);
        let reused = lu.refactor_into(&symbolic, &b_mat, &mut LuWorkspace::new())
            .expect("refactor or soft outcome");
        prop_assert_eq!(reused, lu.refactored());
        if !reused {
            lu = SparseLu::factor(&b_mat).expect("re-pivot");
        }
        let x = lu.solve(&rhs).expect("solve");
        for (xi, ti) in x.iter().zip(&x_true) {
            prop_assert!((xi - ti).abs() < 1e-8 * (1.0 + ti.abs()));
        }
    }

    /// The fresh factorization (BTF, then a fill-reducing order with
    /// threshold pivoting per block) must agree with a dense
    /// partial-pivoting reference solve on any reasonably conditioned real
    /// system.
    #[test]
    fn ordered_real_factor_matches_dense_reference(
        n in 2usize..20,
        entries in prop::collection::vec((0usize..20, 0usize..20, -4.0f64..4.0), 0..100),
        xseed in prop::collection::vec(-10.0f64..10.0, 20),
    ) {
        let a = build_real(n, &entries);
        let lu = SparseLu::factor(&a).expect("diagonally dominant matrix must factor");
        let x_true: Vec<f64> = xseed.iter().take(n).copied().collect();
        let b = a.mul_vec(&x_true);
        let x = lu.solve(&b).expect("solve");
        // Dense reference over the same values.
        let mut dense = DMatrix::zeros(n, n);
        for (r, c, v) in a.iter() {
            dense[(r, c)] = v;
        }
        let reference = dense.solve(&b).expect("dense reference must factor");
        for ((xi, ri), ti) in x.iter().zip(&reference).zip(&x_true) {
            prop_assert!((xi - ri).abs() < 1e-8 * (1.0 + ri.abs()),
                "ordered vs dense: {} vs {}", xi, ri);
            prop_assert!((xi - ti).abs() < 1e-8 * (1.0 + ti.abs()),
                "ordered vs truth: {} vs {}", xi, ti);
        }
    }

    /// The same property over the complex field (the AC-analysis scalar).
    #[test]
    fn ordered_complex_factor_matches_dense_reference(
        n in 2usize..12,
        entries in prop::collection::vec(
            (0usize..12, 0usize..12, -3.0f64..3.0, -3.0f64..3.0), 0..60),
        bseed in prop::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 12),
    ) {
        let mut t = TripletMatrix::<Complex64>::new(n, n);
        let mut row_sum = vec![0.0; n];
        for &(r, c, re, im) in &entries {
            let (r, c) = (r % n, c % n);
            if r == c { continue; }
            let v = Complex64::new(re, im);
            t.push(r, c, v);
            row_sum[r] += v.abs();
        }
        for (i, s) in row_sum.iter().enumerate() {
            t.push(i, i, Complex64::new(s + 1.0, 0.5));
        }
        let a = t.to_csr();
        let lu = SparseLu::factor(&a).expect("must factor");
        let b: Vec<Complex64> = bseed.iter().take(n)
            .map(|&(re, im)| Complex64::new(re, im)).collect();
        let x = lu.solve(&b).expect("solve");
        let mut dense = CMatrix::zeros(n, n);
        for (r, c, v) in a.iter() {
            dense[(r, c)] = v;
        }
        let reference = dense.solve(&b).expect("dense reference must factor");
        for (xi, ri) in x.iter().zip(&reference) {
            prop_assert!((*xi - *ri).abs() < 1e-8 * (1.0 + ri.abs()),
                "{:?} vs {:?}", xi, ri);
        }
    }

    /// Refactorization over the symbolic pattern of a fresh factorization
    /// (the production configuration of `SolveContext`) must match a fresh
    /// factorization on any same-pattern system, through a shell minted
    /// from the pattern alone.
    #[test]
    fn ordered_refactor_into_matches_fresh_factor(
        n in 2usize..20,
        entries in prop::collection::vec((0usize..20, 0usize..20, -4.0f64..4.0), 0..100),
        xseed in prop::collection::vec(-10.0f64..10.0, 20),
        scale in 0.2f64..5.0,
    ) {
        let first = build_real(n, &entries);
        let symbolic = SparseLu::factor(&first)
            .expect("diagonally dominant matrix must factor")
            .extract_symbolic();
        let second = build_real_scaled(n, &entries, scale);
        prop_assert!(first.same_pattern(&second));
        let mut ws = LuWorkspace::new();
        let mut lu = SparseLu::from_symbolic(&symbolic);
        let reused = lu.refactor_into(&symbolic, &second, &mut ws).expect("refactor");
        prop_assert!(reused, "diagonally dominant refactor must not ask for a re-pivot");
        let x_true: Vec<f64> = xseed.iter().take(n).copied().collect();
        let b = second.mul_vec(&x_true);
        let mut rhs = b.clone();
        let mut work = vec![0.0; n];
        lu.solve_into(&mut rhs, &mut work).expect("solve");
        let fresh = SparseLu::factor(&second).expect("fresh factor").solve(&b).expect("solve");
        for ((xi, fi), ti) in rhs.iter().zip(&fresh).zip(&x_true) {
            prop_assert!((xi - ti).abs() < 1e-8 * (1.0 + ti.abs()),
                "refactor vs truth: {} vs {}", xi, ti);
            prop_assert!((xi - fi).abs() < 1e-8 * (1.0 + fi.abs()),
                "refactor vs fresh: {} vs {}", xi, fi);
        }
    }

    /// `solve_into` and the allocating `solve` are the same computation.
    #[test]
    fn solve_into_matches_solve(
        n in 2usize..16,
        entries in prop::collection::vec((0usize..16, 0usize..16, -3.0f64..3.0), 0..80),
        bseed in prop::collection::vec(-10.0f64..10.0, 16),
    ) {
        let a = build_real(n, &entries);
        let lu = SparseLu::factor(&a).expect("must factor");
        let b: Vec<f64> = bseed.iter().take(n).copied().collect();
        let alloc = lu.solve(&b).expect("solve");
        let mut rhs = b.clone();
        let mut work = vec![0.0; n];
        lu.solve_into(&mut rhs, &mut work).expect("solve_into");
        for (a, b) in alloc.iter().zip(&rhs) {
            prop_assert!((a - b).abs() == 0.0, "identical sweeps must agree bitwise");
        }
    }

    #[test]
    fn triplet_accumulation_matches_sum(
        pushes in prop::collection::vec((0usize..6, 0usize..6, -2.0f64..2.0), 1..40),
    ) {
        let mut t = TripletMatrix::<f64>::new(6, 6);
        let mut dense = [[0.0f64; 6]; 6];
        for &(r, c, v) in &pushes {
            t.push(r, c, v);
            dense[r][c] += v;
        }
        let m = t.to_csr();
        for (r, row) in dense.iter().enumerate() {
            for (c, want) in row.iter().enumerate() {
                prop_assert!((m.get(r, c) - want).abs() < 1e-12);
            }
        }
    }
}
