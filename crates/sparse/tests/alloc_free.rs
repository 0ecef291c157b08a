//! Counting-allocator proof that the refactor/solve hot path — the inner
//! loop of the all-nodes stability scan (one `refactor_into` per frequency,
//! one `solve_into` per node) — performs **zero heap allocations** once the
//! buffers are warm.
//!
//! A wrapper around the system allocator counts every `alloc`/`realloc`
//! call; the test warms the workspace with one refactor + solve, then runs
//! many more and asserts the counter did not move.

use loopscope_sparse::{CsrMatrix, LuWorkspace, SparseLu, TripletMatrix};
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

    // The blocked multi-RHS path of the all-nodes scan: one refactor per
    // "frequency", then the injections batched into panels of K solved by
    // one `solve_block_into` traversal each. Panel and scratch are minted
    // once (context mint time); the loop itself — fill, blocked solve,
    // gather, including the final short panel — must not allocate.
    // 200 % 16 != 0, so the loop also covers the final SHORT panel, which
    // reuses the same buffers sliced down.
    let panel_k = 16;
    let mut panel = vec![0.0f64; n * panel_k];
    let mut panel_work = vec![0.0f64; n * panel_k];
    let nodes: Vec<usize> = (0..n).collect();
    let before = allocation_count();
    for m in &matrices {
        worker_lu
            .refactor_into(&symbolic, m, &mut worker_ws)
            .expect("refactor");
        assert!(worker_lu.refactored(), "panel loop must not fall back");
        for chunk in nodes.chunks(panel_k) {
            let cols = chunk.len();
            let active = &mut panel[..n * cols];
            active.fill(0.0);
            for (j, &node) in chunk.iter().enumerate() {
                active[j * n + node] = 1.0;
            }
            worker_lu
                .solve_block_into(active, cols, &mut panel_work[..n * cols])
                .expect("blocked solve");
            for (j, &node) in chunk.iter().enumerate() {
                assert!(active[j * n + node].is_finite());
            }
        }
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "the blocked panel loop (refactor_into + solve_block_into) must not \
         allocate, saw {} allocations",
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
