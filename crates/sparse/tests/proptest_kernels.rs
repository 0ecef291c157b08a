//! Property-based proof of the kernel layer's bitwise contract: the SIMD
//! backend must produce **bit-identical** results to the portable scalar
//! reference — same IEEE operations, same per-element order, no FMA, no
//! reassociation — on random real and complex data, both at the primitive
//! level and through the full refactor / solve / selected-inversion
//! pipeline.
//!
//! On hardware without AVX2 the SIMD comparisons degrade to scalar-vs-scalar
//! (trivially true) instead of being skipped silently, so the suite runs
//! everywhere.

use loopscope_math::Complex64;
use loopscope_sparse::kernels::{self, KernelBackend};
use loopscope_sparse::{InverseWorkspace, LuWorkspace, SparseLu, TripletMatrix};
use proptest::prelude::*;

/// The backend to pit against [`KernelBackend::Scalar`]: AVX2 when the CPU
/// has it, scalar otherwise (so every assertion below stays meaningful and
/// none silently vanish on non-AVX2 hardware).
fn simd_or_scalar() -> KernelBackend {
    if kernels::simd_available() {
        KernelBackend::Avx2
    } else {
        KernelBackend::Scalar
    }
}

fn c64(pair: (f64, f64)) -> Complex64 {
    Complex64::new(pair.0, pair.1)
}

fn assert_bits_f64(a: &[f64], b: &[f64], what: &str) -> Result<(), String> {
    prop_assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        prop_assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{} diverges at {}: {} vs {}",
            what,
            i,
            x,
            y
        );
    }
    Ok(())
}

fn assert_bits_c64(a: &[Complex64], b: &[Complex64], what: &str) -> Result<(), String> {
    prop_assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        prop_assert_eq!(
            (x.re.to_bits(), x.im.to_bits()),
            (y.re.to_bits(), y.im.to_bits()),
            "{} diverges at {}: {} vs {}",
            what,
            i,
            x,
            y
        );
    }
    Ok(())
}

/// Right-hand sides solved per factorization in the pipeline properties.
const RHS_COLUMNS: usize = 4;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Primitive level, complex lanes: the substitution fold bit-agrees
    /// between the scalar reference and the SIMD backend on random data
    /// (duplicate gather sources included).
    #[test]
    fn complex_primitives_bit_agree(
        mult in (-3.0f64..3.0, -3.0f64..3.0),
        vals in prop::collection::vec((-4.0f64..4.0, -4.0f64..4.0), 0..40),
        cols_seed in prop::collection::vec(0usize..64, 0..40),
        work_seed in prop::collection::vec((-8.0f64..8.0, -8.0f64..8.0), 64),
    ) {
        let simd = simd_or_scalar();
        let mult = c64(mult);
        let vals: Vec<Complex64> = vals.into_iter().map(c64).collect();
        let n = vals.len().min(cols_seed.len());
        let cols: Vec<usize> = cols_seed[..n].to_vec();
        let work: Vec<Complex64> = work_seed.into_iter().map(c64).collect();

        let acc_scalar = kernels::fold_sub_indexed_c64(
            KernelBackend::Scalar, mult, &vals[..n], &cols, &work);
        let acc_simd = kernels::fold_sub_indexed_c64(simd, mult, &vals[..n], &cols, &work);
        assert_bits_c64(&[acc_scalar], &[acc_simd], "fold_sub_indexed_c64")?;
    }

    /// Primitive level, real lanes.
    #[test]
    fn real_primitives_bit_agree(
        mult in -3.0f64..3.0,
        vals in prop::collection::vec(-4.0f64..4.0, 0..40),
        cols_seed in prop::collection::vec(0usize..64, 0..40),
        work_seed in prop::collection::vec(-8.0f64..8.0, 64),
    ) {
        let simd = simd_or_scalar();
        let n = vals.len().min(cols_seed.len());
        let cols: Vec<usize> = cols_seed[..n].to_vec();

        let acc_scalar = kernels::fold_sub_indexed_f64(
            KernelBackend::Scalar, mult, &vals[..n], &cols, &work_seed);
        let acc_simd = kernels::fold_sub_indexed_f64(simd, mult, &vals[..n], &cols, &work_seed);
        assert_bits_f64(&[acc_scalar], &[acc_simd], "fold_sub_indexed_f64")?;
    }

    /// Full pipeline, complex: a BTF factorization refactored, solved and
    /// selected-inverted on a scalar-pinned and a SIMD-pinned copy of the
    /// same symbolic analysis must produce bit-identical solutions and
    /// inverse diagonals.
    #[test]
    fn complex_refactor_solve_and_inverse_bit_agree(
        n in 2usize..12,
        entries in prop::collection::vec(
            (0usize..12, 0usize..12, -3.0f64..3.0, -3.0f64..3.0), 0..60),
        rhs_seed in prop::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 12 * RHS_COLUMNS),
        scale in 0.2f64..5.0,
    ) {
        let build = |s: f64| {
            let mut t = TripletMatrix::<Complex64>::new(n, n);
            let mut row_sum = vec![0.0; n];
            for &(r, c, re, im) in &entries {
                let (r, c) = (r % n, c % n);
                if r == c { continue; }
                let v = Complex64::new(re * s, im * s);
                t.push(r, c, v);
                row_sum[r] += v.abs();
            }
            for (i, sum) in row_sum.iter().enumerate() {
                t.push(i, i, Complex64::new(sum + 1.0 + i as f64 * 0.01, 0.5));
            }
            t.to_csr()
        };
        let first = build(1.0);
        let symbolic = SparseLu::factor(&first)
            .expect("diagonally dominant matrix must factor")
            .extract_symbolic();
        let sym_scalar = symbolic.with_kernel_backend(KernelBackend::Scalar);
        let sym_simd = symbolic.with_kernel_backend(simd_or_scalar());

        let second = build(scale);
        let mut ws = LuWorkspace::for_dim(n);
        let mut lu_scalar = SparseLu::from_symbolic(&sym_scalar);
        lu_scalar.refactor_into(&sym_scalar, &second, &mut ws).expect("refactor");
        prop_assert!(lu_scalar.refactored());
        let mut lu_simd = SparseLu::from_symbolic(&sym_simd);
        lu_simd.refactor_into(&sym_simd, &second, &mut ws).expect("refactor");
        prop_assert!(lu_simd.refactored());
        prop_assert_eq!(lu_scalar.kernel_backend(), KernelBackend::Scalar);

        let mut work = vec![Complex64::ZERO; n];
        for col in rhs_seed.chunks(n).take(RHS_COLUMNS) {
            let rhs: Vec<Complex64> = col.iter().copied().map(c64).collect();
            let mut a = rhs.clone();
            lu_scalar.solve_into(&mut a, &mut work).expect("solve");
            let mut b = rhs;
            lu_simd.solve_into(&mut b, &mut work).expect("solve");
            assert_bits_c64(&a, &b, "solve_into (complex)")?;
        }
        let mut a = vec![Complex64::ZERO; n];
        lu_scalar.diag_inverse_into(&mut a, &mut InverseWorkspace::new()).expect("inverse");
        let mut b = vec![Complex64::ZERO; n];
        lu_simd.diag_inverse_into(&mut b, &mut InverseWorkspace::new()).expect("inverse");
        assert_bits_c64(&a, &b, "diag_inverse_into (complex)")?;
    }

    /// Full pipeline, real lanes (the DC/transient scalar field).
    #[test]
    fn real_refactor_solve_and_inverse_bit_agree(
        n in 2usize..16,
        entries in prop::collection::vec((0usize..16, 0usize..16, -4.0f64..4.0), 0..80),
        rhs_seed in prop::collection::vec(-5.0f64..5.0, 16 * RHS_COLUMNS),
        scale in 0.2f64..5.0,
    ) {
        let build = |s: f64| {
            let mut t = TripletMatrix::<f64>::new(n, n);
            let mut row_sum = vec![0.0; n];
            for &(r, c, v) in &entries {
                let (r, c) = (r % n, c % n);
                if r == c { continue; }
                t.push(r, c, v * s);
                row_sum[r] += (v * s).abs();
            }
            for (i, sum) in row_sum.iter().enumerate() {
                t.push(i, i, sum + 1.0 + i as f64 * 0.01);
            }
            t.to_csr()
        };
        let first = build(1.0);
        let symbolic = SparseLu::factor(&first)
            .expect("diagonally dominant matrix must factor")
            .extract_symbolic();
        let sym_scalar = symbolic.with_kernel_backend(KernelBackend::Scalar);
        let sym_simd = symbolic.with_kernel_backend(simd_or_scalar());

        let second = build(scale);
        let mut ws = LuWorkspace::for_dim(n);
        let mut lu_scalar = SparseLu::from_symbolic(&sym_scalar);
        lu_scalar.refactor_into(&sym_scalar, &second, &mut ws).expect("refactor");
        prop_assert!(lu_scalar.refactored());
        let mut lu_simd = SparseLu::from_symbolic(&sym_simd);
        lu_simd.refactor_into(&sym_simd, &second, &mut ws).expect("refactor");
        prop_assert!(lu_simd.refactored());

        let mut work = vec![0.0f64; n];
        for col in rhs_seed.chunks(n).take(RHS_COLUMNS) {
            let mut a = col.to_vec();
            lu_scalar.solve_into(&mut a, &mut work).expect("solve");
            let mut b = col.to_vec();
            lu_simd.solve_into(&mut b, &mut work).expect("solve");
            assert_bits_f64(&a, &b, "solve_into (real)")?;
        }
        let mut a = vec![0.0f64; n];
        lu_scalar.diag_inverse_into(&mut a, &mut InverseWorkspace::new()).expect("inverse");
        let mut b = vec![0.0f64; n];
        lu_simd.diag_inverse_into(&mut b, &mut InverseWorkspace::new()).expect("inverse");
        assert_bits_f64(&a, &b, "diag_inverse_into (real)")?;
    }
}

/// Backend selection must be stable for the whole process: every symbolic
/// analysis built under one environment records the same backend, and it is
/// consistent with what `selected_backend` reports.
#[test]
fn backend_selection_is_deterministic_per_process() {
    let expected = kernels::selected_backend();
    for trial in 0..20 {
        assert_eq!(kernels::selected_backend(), expected, "trial {trial}");
        let mut t = TripletMatrix::<f64>::new(2, 2);
        t.push(0, 0, 2.0 + trial as f64);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        t.push(1, 1, 3.0);
        let lu = SparseLu::factor(&t.to_csr()).expect("factors");
        let symbolic = lu.extract_symbolic();
        assert_eq!(symbolic.kernel_backend(), expected);
        assert_eq!(lu.kernel_backend(), expected);
    }
    // The environment knob's pure selection rule: `scalar` always wins, and
    // feeding the live environment back through it reproduces the selection
    // (whatever LOOPSCOPE_KERNEL this process runs under).
    assert_eq!(
        kernels::backend_for(Some("scalar"), kernels::simd_available()),
        KernelBackend::Scalar
    );
    assert_eq!(
        kernels::backend_for(
            std::env::var(kernels::KERNEL_ENV).ok().as_deref(),
            kernels::simd_available()
        ),
        expected
    );
}

/// Pinning a backend never mutates the original analysis.
#[test]
fn with_kernel_backend_copies_not_shares() {
    let mut t = TripletMatrix::<f64>::new(2, 2);
    t.push(0, 0, 2.0);
    t.push(0, 1, 1.0);
    t.push(1, 0, 1.0);
    t.push(1, 1, 3.0);
    let symbolic = SparseLu::factor(&t.to_csr())
        .expect("factors")
        .extract_symbolic();
    let original = symbolic.kernel_backend();
    let pinned = symbolic.with_kernel_backend(KernelBackend::Scalar);
    assert_eq!(pinned.kernel_backend(), KernelBackend::Scalar);
    assert_eq!(symbolic.kernel_backend(), original);
    assert_eq!(pinned.dim(), symbolic.dim());
    assert_eq!(pinned.fill_nnz(), symbolic.fill_nnz());
}
