//! Property-based tests for the block-triangular (BTF) factorization path.
//!
//! Two invariant families:
//!
//! 1. **The BTF partition is a genuine block upper-triangular permutation**:
//!    row/column permutations are bijections, the block pointer is a
//!    monotone cover of the dimension, and no stored entry of the permuted
//!    matrix falls below its diagonal block.
//! 2. **BTF-factored solves are correct**: against a dense partial-pivoting
//!    reference over the same values, on randomly generated (and randomly
//!    scrambled) block-structured systems, real and complex, through both
//!    the fresh factorization and the numeric-only refactorization.

use loopscope_math::dense::{CMatrix, DMatrix};
use loopscope_math::Complex64;
use loopscope_sparse::{btf, CsrMatrix, LuWorkspace, SparseLu, TripletMatrix};
use proptest::prelude::*;

/// Specification of one random cascade: per-block sizes (clamped to 1..=4)
/// plus flat lists of in-block and cross-block (strictly upward) couplings.
type CascadeSpec = (
    Vec<usize>,
    Vec<(usize, usize, f64)>,
    Vec<(usize, usize, f64)>,
);

/// Builds a block-structured matrix from a cascade spec: diagonally
/// dominant blocks on the diagonal, couplings from later blocks' rows into
/// earlier blocks' columns (one-way, so the block partition is recoverable),
/// then an optional row/column scramble. Off-diagonal values scale with
/// `scale` while the pattern stays fixed.
fn build_cascade(spec: &CascadeSpec, scale: f64, scramble: bool) -> CsrMatrix<f64> {
    let (block_sizes, in_block, cross_block) = spec;
    let sizes: Vec<usize> = block_sizes.iter().map(|&s| s.clamp(1, 4)).collect();
    // Block start offsets.
    let mut starts = Vec::with_capacity(sizes.len());
    let mut total = 0usize;
    for &s in &sizes {
        starts.push(total);
        total += s;
    }
    let n = total;
    let mut entries: Vec<(usize, usize, f64)> = Vec::new();
    // Dense-ish diagonal blocks: diagonal plus the requested couplings.
    for (b, &s) in sizes.iter().enumerate() {
        let base = starts[b];
        for i in 0..s {
            entries.push((base + i, base + i, 0.0)); // diagonal placeholder
        }
        for &(r, c, v) in in_block {
            let (r, c) = (base + r % s, base + c % s);
            if r != c {
                entries.push((r, c, v * scale));
            }
        }
    }
    // One-way couplings: a LATER block's row reads an EARLIER block's
    // column (never the reverse), so the blocks stay separate SCCs.
    if sizes.len() > 1 {
        for &(i, j, v) in cross_block {
            let from_block = 1 + i % (sizes.len() - 1); // 1..len
            let to_block = j % from_block; // strictly earlier
            let r = starts[from_block] + i % sizes[from_block];
            let c = starts[to_block] + j % sizes[to_block];
            entries.push((r, c, v * scale));
        }
    }
    // Make every row strictly diagonally dominant so the system is
    // invertible and refactorization never needs the pivoting fallback.
    let mut row_sum = vec![0.0f64; n];
    for &(r, c, v) in &entries {
        if r != c {
            row_sum[r] += v.abs();
        }
    }
    // The affine maps below are bijections iff their multipliers are
    // coprime with n; fall back to identity when they are not.
    let do_scramble = scramble && gcd(5, n) == 1 && gcd(7, n) == 1;
    let srow = |r: usize| if do_scramble { (5 * r + 3) % n } else { r };
    let scol = |c: usize| if do_scramble { (7 * c + 1) % n } else { c };
    let mut t = TripletMatrix::<f64>::new(n, n);
    for &(r, c, v) in &entries {
        if r == c {
            t.push(srow(r), scol(c), row_sum[r] + 1.0 + 0.01 * r as f64);
        } else {
            t.push(srow(r), scol(c), v);
        }
    }
    t.to_csr()
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn dense_reference(a: &CsrMatrix<f64>, b: &[f64]) -> Vec<f64> {
    let n = a.rows();
    let mut dense = DMatrix::zeros(n, n);
    for (r, c, v) in a.iter() {
        dense[(r, c)] = v;
    }
    dense.solve(b).expect("dense reference must factor")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The partition returned by `btf::analyze` is a valid permutation to
    /// block upper-triangular form on arbitrary zero-free-diagonal patterns.
    #[test]
    fn btf_partition_is_a_valid_block_upper_permutation(
        n in 1usize..20,
        entries in prop::collection::vec((0usize..20, 0usize..20, 0.1f64..5.0), 0..80),
    ) {
        let mut t = TripletMatrix::<f64>::new(n, n);
        for i in 0..n {
            t.push(i, i, 1.0); // zero-free diagonal ⇒ structurally nonsingular
        }
        for &(r, c, v) in &entries {
            t.push(r % n, c % n, v);
        }
        let m = t.to_csr();
        let form = btf::analyze(&m).expect("zero-free diagonal must match");

        // Permutations are bijections.
        let mut seen_r = vec![false; n];
        let mut seen_c = vec![false; n];
        prop_assert_eq!(form.row_perm().len(), n);
        prop_assert_eq!(form.col_perm().len(), n);
        for k in 0..n {
            prop_assert!(!seen_r[form.row_perm()[k]]);
            seen_r[form.row_perm()[k]] = true;
            prop_assert!(!seen_c[form.col_perm()[k]]);
            seen_c[form.col_perm()[k]] = true;
        }
        // The block pointer is a strictly monotone cover of 0..n.
        let bp = form.block_ptr();
        prop_assert_eq!(bp[0], 0);
        prop_assert_eq!(*bp.last().unwrap(), n);
        prop_assert!(bp.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(form.block_count() + 1, bp.len());

        // No entry below its diagonal block.
        let mut rpos = vec![0usize; n];
        let mut cpos = vec![0usize; n];
        for (k, &r) in form.row_perm().iter().enumerate() { rpos[r] = k; }
        for (k, &c) in form.col_perm().iter().enumerate() { cpos[c] = k; }
        let mut block_of = vec![0usize; n];
        for b in 0..form.block_count() {
            for p in form.block_range(b) { block_of[p] = b; }
        }
        for (r, c, _) in m.iter() {
            prop_assert!(
                block_of[rpos[r]] <= block_of[cpos[c]],
                "entry ({}, {}) falls below its diagonal block", r, c
            );
        }
    }

    /// A BTF factorization of a (scrambled) cascade solves identically to a
    /// dense partial-pivoting reference, and the partition really is
    /// multi-block when the cascade has several blocks.
    #[test]
    fn btf_factored_solve_matches_dense_reference(
        spec in (
            prop::collection::vec(1usize..5, 1..5),
            prop::collection::vec((0usize..8, 0usize..8, -3.0f64..3.0), 0..24),
            prop::collection::vec((0usize..8, 0usize..8, -3.0f64..3.0), 0..12),
        ),
        xseed in prop::collection::vec(-5.0f64..5.0, 20),
        scramble_sel in 0usize..2,
    ) {
        let scramble = scramble_sel == 1;
        let a = build_cascade(&spec, 1.0, scramble);
        let n = a.rows();
        let lu = SparseLu::factor(&a).expect("diagonally dominant cascade must factor");
        let symbolic = lu.extract_symbolic();
        // Cross-block coupling is strictly one-way, so no SCC can span two
        // generated blocks: the partition is at least as fine as generated.
        prop_assert!(symbolic.block_count() >= spec.0.len(),
            "found {} blocks for a {}-block cascade",
            symbolic.block_count(), spec.0.len());
        let x_true: Vec<f64> = (0..n).map(|i| xseed[i % xseed.len()]).collect();
        let b = a.mul_vec(&x_true);
        let x = lu.solve(&b).expect("solve");
        let reference = dense_reference(&a, &b);
        for ((xi, ri), ti) in x.iter().zip(&reference).zip(&x_true) {
            prop_assert!((xi - ri).abs() < 1e-8 * (1.0 + ri.abs()),
                "BTF vs dense: {} vs {}", xi, ri);
            prop_assert!((xi - ti).abs() < 1e-8 * (1.0 + ti.abs()),
                "BTF vs truth: {} vs {}", xi, ti);
        }
    }

    /// The complex-field version (the AC-analysis scalar): a block-diagonal
    /// complex cascade with one-way coupling, BTF-factored, against the
    /// dense complex reference.
    #[test]
    fn btf_complex_solve_matches_dense_reference(
        sizes in prop::collection::vec(1usize..4, 1..5),
        coupling in prop::collection::vec((0usize..6, 0usize..6, -2.0f64..2.0, -2.0f64..2.0), 0..16),
        bseed in prop::collection::vec((-3.0f64..3.0, -3.0f64..3.0), 16),
    ) {
        let mut starts = Vec::new();
        let mut n = 0usize;
        for &s in &sizes { starts.push(n); n += s; }
        let mut t = TripletMatrix::<Complex64>::new(n, n);
        let mut row_sum = vec![0.0f64; n];
        // Strongly coupled complex blocks.
        for (b, &s) in sizes.iter().enumerate() {
            let base = starts[b];
            for i in 0..s {
                for j in 0..s {
                    if i != j {
                        let v = Complex64::new(0.5 + 0.1 * i as f64, -0.3 + 0.1 * j as f64);
                        t.push(base + i, base + j, v);
                        row_sum[base + i] += v.abs();
                    }
                }
            }
        }
        // One-way cross-block coupling (later row reads earlier column).
        if sizes.len() > 1 {
            for &(i, j, re, im) in &coupling {
                let fb = 1 + i % (sizes.len() - 1);
                let tb = j % fb;
                let r = starts[fb] + i % sizes[fb];
                let c = starts[tb] + j % sizes[tb];
                let v = Complex64::new(re, im);
                t.push(r, c, v);
                row_sum[r] += v.abs();
            }
        }
        for (i, s) in row_sum.iter().enumerate() {
            t.push(i, i, Complex64::new(s + 1.0 + 0.01 * i as f64, 0.7));
        }
        let a = t.to_csr();
        let lu = SparseLu::factor(&a).expect("must factor");
        let b: Vec<Complex64> = (0..n).map(|i| {
            let (re, im) = bseed[i % bseed.len()];
            Complex64::new(re, im)
        }).collect();
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

    /// Numeric-only refactorization over a BTF symbolic analysis matches a
    /// fresh BTF factorization of the same values — through the in-place,
    /// allocation-free path.
    #[test]
    fn btf_refactor_into_matches_fresh_btf_factor(
        spec in (
            prop::collection::vec(1usize..5, 1..4),
            prop::collection::vec((0usize..8, 0usize..8, -3.0f64..3.0), 0..20),
            prop::collection::vec((0usize..8, 0usize..8, -3.0f64..3.0), 0..10),
        ),
        scale in 0.25f64..4.0,
        xseed in prop::collection::vec(-5.0f64..5.0, 16),
    ) {
        let first = build_cascade(&spec, 1.0, false);
        let n = first.rows();
        let mut lu = SparseLu::factor(&first).expect("must factor");
        let symbolic = lu.extract_symbolic();
        let second = build_cascade(&spec, scale, false);
        prop_assert!(first.same_pattern(&second));
        let mut ws = LuWorkspace::for_dim(n);
        let reused = lu.refactor_into(&symbolic, &second, &mut ws).expect("refactor");
        prop_assert!(reused, "dominant cascade must not ask for a re-pivot");
        let fresh = SparseLu::factor(&second).expect("fresh factor");
        let x_true: Vec<f64> = (0..n).map(|i| xseed[i % xseed.len()]).collect();
        let b = second.mul_vec(&x_true);
        let mut x_re = b.clone();
        let mut work = vec![0.0; n];
        lu.solve_into(&mut x_re, &mut work).expect("solve");
        let x_fresh = fresh.solve(&b).expect("solve");
        for (a, b) in x_re.iter().zip(&x_fresh) {
            prop_assert!(*a == *b,
                "refactor and fresh BTF factor must agree bitwise: {} vs {}", a, b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A diagonal block sliced out of a BTF pattern refactors and solves a
    /// unit injection into one of its rows to the block part of the whole
    /// system's solution, bit for bit (`==`, so up to the signs of exact
    /// zeros), and the gather map of its matrix addresses the whole
    /// matrix's entries.
    #[test]
    fn block_slice_solves_to_the_block_part_of_the_whole_solve(
        spec in (
            prop::collection::vec(1usize..5, 1..5),
            prop::collection::vec((0usize..8, 0usize..8, -3.0f64..3.0), 0..24),
            prop::collection::vec((0usize..8, 0usize..8, -3.0f64..3.0), 0..12),
        ),
        scale in 0.25f64..4.0,
        row_sel in 0usize..64,
        scramble_sel in 0usize..2,
    ) {
        let first = build_cascade(&spec, 1.0, scramble_sel == 1);
        let second = build_cascade(&spec, scale, scramble_sel == 1);
        let n = first.rows();
        let symbolic = SparseLu::factor(&first).expect("must factor").extract_symbolic();
        let row = row_sel % n;
        let b = symbolic.block_of_row(row);
        let bounds = symbolic.block_boundaries();
        let (start, end) = (bounds[b], bounds[b + 1]);
        prop_assert!(symbolic.pivot_order()[start..end].contains(&row));

        let slice = symbolic.block(b);
        prop_assert_eq!(slice.dim(), end - start);
        prop_assert_eq!(slice.block_count(), 1);
        let (local, gather) = symbolic.restrict_to_block(b, &second);
        prop_assert_eq!(gather.len(), local.nnz());
        for (v, &e) in local.values().iter().zip(&gather) {
            prop_assert_eq!(v.to_bits(), second.values()[e].to_bits());
        }

        let mut ws = LuWorkspace::for_dim(n);
        let mut whole = SparseLu::from_symbolic(&symbolic);
        prop_assert!(whole.refactor_into(&symbolic, &second, &mut ws).expect("refactor"));
        let mut part = SparseLu::from_symbolic(&slice);
        prop_assert!(part.refactor_into(&slice, &local, &mut ws).expect("refactor"));

        let mut x = vec![0.0; n];
        x[row] = 1.0;
        whole.solve_into(&mut x, &mut vec![0.0; n]).expect("solve");
        let local_row = symbolic.pivot_order()[start..end]
            .iter()
            .position(|&r| r == row)
            .expect("the block holds the row");
        let mut y = vec![0.0; end - start];
        y[local_row] = 1.0;
        part.solve_into(&mut y, &mut vec![0.0; end - start]).expect("solve");
        for (k, &c) in symbolic.column_order()[start..end].iter().enumerate() {
            prop_assert!(y[k] == x[c], "column {}: slice {} vs whole {}", c, y[k], x[c]);
        }
        // Every later block solves to exact zeros.
        for &c in &symbolic.column_order()[end..] {
            prop_assert!(x[c] == 0.0, "column {} of a later block reads {}", c, x[c]);
        }
    }
}
