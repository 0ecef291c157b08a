//! Counting-allocator proof that the refactor/solve hot paths — the inner
//! loops of the frequency sweeps (one `refactor_into` per frequency, then
//! unit-vector `solve_into` calls or one `diag_inverse_into` for the
//! all-nodes stability scan) — perform **zero heap allocations** once the
//! buffers are warm.
//!
//! A wrapper around the system allocator counts every `alloc`/`realloc`
//! call; the test warms the workspace with one refactor + solve, then runs
//! many more and asserts the counter did not move.

use loopscope_sparse::{CsrMatrix, InverseWorkspace, LuWorkspace, SparseLu, TripletMatrix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator with a global allocation counter.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers entirely to the system allocator; the counter is a relaxed
// atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocation_count() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// An N-stage RC-ladder-like tridiagonal matrix with a value knob — the same
/// shape the AC sweep refactors at every frequency point.
fn ladder(stages: usize, scale: f64) -> CsrMatrix<f64> {
    let mut t = TripletMatrix::<f64>::new(stages, stages);
    for i in 0..stages {
        let g = 1.0e-3 * (1.0 + (i % 7) as f64 * 0.1) * scale;
        let mut diag = g + 1.0e-9;
        if i > 0 {
            t.push(i, i - 1, -g);
            diag += g;
        }
        if i + 1 < stages {
            t.push(i, i + 1, -g);
        }
        t.push(i, i, diag);
    }
    t.to_csr()
}

// NOTE: this file must hold exactly ONE #[test] touching the counter: tests
// in one binary run on parallel threads, and a sibling test allocating
// between this test's before/after reads would make the zero-allocation
// assertion flaky. The counter sanity-check therefore lives at the end of
// the same test, not in its own #[test].
#[test]
fn refactor_and_solve_hot_loop_is_allocation_free() {
    let n = 200;
    let first = ladder(n, 1.0);
    let mut lu = SparseLu::factor(&first).expect("ladder factors");
    let symbolic = lu.extract_symbolic();
    let mut ws = LuWorkspace::new();

    // Pre-build the matrices the loop will consume (assembly caches do the
    // analogous restamp-in-place) and the solve buffers.
    let matrices: Vec<CsrMatrix<f64>> = (0..8).map(|k| ladder(n, 1.0 + 0.3 * k as f64)).collect();
    let mut rhs = vec![0.0f64; n];
    let mut work = vec![0.0f64; n];

    // Warm-up: the first refactor sizes the workspace buffers.
    lu.refactor_into(&symbolic, &matrices[0], &mut ws)
        .expect("refactor");
    assert!(lu.refactored());
    rhs[0] = 1.0;
    lu.solve_into(&mut rhs, &mut work).expect("solve");

    // The measured loop: one refactor per "frequency", many solves per
    // "node", exactly like `driving_point_all_nodes`.
    let before = allocation_count();
    for m in &matrices {
        lu.refactor_into(&symbolic, m, &mut ws).expect("refactor");
        assert!(lu.refactored(), "hot loop must not fall back");
        for node in 0..n {
            rhs.fill(0.0);
            rhs[node] = 1.0;
            lu.solve_into(&mut rhs, &mut work).expect("solve");
            assert!(rhs[node].is_finite());
        }
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "refactor_into + solve_into hot loop must not allocate \
         ({} allocations over {} refactors / {} solves)",
        after - before,
        matrices.len(),
        matrices.len() * n
    );

    // The plan/context split of the parallel sweep executor: a worker mints
    // a `SparseLu` shell from the shared symbolic analysis plus a pre-sized
    // workspace (the mint cost, paid once per worker, outside the loop), and
    // its ENTIRE loop — including the very first refactor, which fills the
    // pre-allocated shell buffers — must not allocate.
    let mut worker_lu = SparseLu::from_symbolic(&symbolic);
    let mut worker_ws = LuWorkspace::for_dim(n);
    let before = allocation_count();
    for m in &matrices {
        worker_lu
            .refactor_into(&symbolic, m, &mut worker_ws)
            .expect("refactor");
        assert!(worker_lu.refactored(), "worker loop must not fall back");
        for node in 0..n {
            rhs.fill(0.0);
            rhs[node] = 1.0;
            worker_lu.solve_into(&mut rhs, &mut work).expect("solve");
            assert!(rhs[node].is_finite());
        }
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "a freshly minted worker context must run its whole sweep loop \
         (first refactor included) without allocating, saw {} allocations",
        after - before
    );

    // The selected inversion of the all-nodes scan: one refactor per
    // "frequency", then the whole diagonal of the inverse off its factors.
    // The first call builds the pattern's index data and sizes the
    // workspace; every later call — over new values — must not allocate.
    let mut diag = vec![0.0f64; n];
    let mut inverse_ws = InverseWorkspace::new();
    worker_lu
        .diag_inverse_into(&mut diag, &mut inverse_ws)
        .expect("first selected inversion");
    let before = allocation_count();
    for m in &matrices {
        worker_lu
            .refactor_into(&symbolic, m, &mut worker_ws)
            .expect("refactor");
        assert!(worker_lu.refactored(), "inverse loop must not fall back");
        worker_lu
            .diag_inverse_into(&mut diag, &mut inverse_ws)
            .expect("selected inversion");
        assert!(diag.iter().all(|d| d.is_finite() && *d > 0.0));
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "the selected-inversion loop (refactor_into + diag_inverse_into) must \
         not allocate after its first call, saw {} allocations",
        after - before
    );

    // Sanity-check that the counter really counts (the allocating
    // convenience `solve` must bump it), so the zero above is meaningful.
    let probe = allocation_count();
    let x = lu.solve(&rhs).expect("solve");
    assert!(x[0].is_finite());
    assert!(
        allocation_count() > probe,
        "the allocating convenience path should have bumped the counter"
    );
}
