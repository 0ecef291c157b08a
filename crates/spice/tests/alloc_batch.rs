//! Counting-allocator proof that the batched many-variant sweep's **point
//! loop** is allocation-free: every frequency point of every variant group
//! reloads the lane values from their compiled images, refactors and solves
//! the lanes in runner-held buffers, and writes each lane's result into
//! runner-held rows that are transposed once per group. What remains is a
//! per-run and per-group constant (the plan, one image per lane, the runner
//! minted per worker, one response vector per variant).
//!
//! Methodology, as in `alloc_transient.rs`: two sweeps that differ only in
//! the number of frequency points isolate the per-point cost as a
//! difference. The test pins `LOOPSCOPE_THREADS=1`, so one runner serves
//! every point and the difference cannot come from a worker count that
//! depends on the grid. Exactly ONE `#[test]` in this binary may touch the
//! counter (and the environment), because sibling tests would race both.

use loopscope_math::FrequencyGrid;
use loopscope_netlist::{Circuit, SourceSpec};
use loopscope_spice::batch::{driving_point_monte_carlo, ParameterVariation};
use loopscope_spice::dc::solve_dc;
use loopscope_spice::par;
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

/// A two-stage transconductance amplifier with Miller compensation: coupled
/// admittance structure with fill and BTF blocks.
fn two_stage() -> Circuit {
    let mut c = Circuit::new("alloc batch");
    let inp = c.node("in");
    let s1 = c.node("s1");
    let out = c.node("out");
    c.add_vsource("V1", inp, Circuit::GROUND, SourceSpec::dc_ac(1.0, 0.0, 0.0));
    c.add_vccs("G1", s1, Circuit::GROUND, inp, out, 1.0e-4);
    c.add_resistor("R1", s1, Circuit::GROUND, 2.0e6);
    c.add_capacitor("C1", s1, Circuit::GROUND, 0.5e-12);
    c.add_vccs("G2", out, Circuit::GROUND, s1, Circuit::GROUND, 2.0e-3);
    c.add_resistor("R2", out, Circuit::GROUND, 5.0e4);
    c.add_capacitor("CL", out, Circuit::GROUND, 100.0e-12);
    c.add_capacitor("CC", s1, out, 2.0e-12);
    c
}

/// Allocations of one seeded 9-variant Monte Carlo sweep (two full lane
/// groups and a ragged one at the default width) over `ppd` points per
/// decade, and the number of frequency points.
fn sweep_allocations(ppd: usize) -> (usize, usize) {
    let c = two_stage();
    let op = solve_dc(&c).unwrap();
    let node = c.find_node("out").unwrap();
    let grid = FrequencyGrid::log_decade(1.0e3, 1.0e8, ppd);
    let variation = ParameterVariation::new(0x5EED)
        .gaussian("R1", 0.10)
        .uniform("CC", 0.25);
    let before = allocation_count();
    let sweep = driving_point_monte_carlo(&c, &op, node, &grid, &variation, 9).unwrap();
    let after = allocation_count();
    assert_eq!(sweep.yield_count(), 9, "every variant converges");
    (after - before, grid.freqs().len())
}

#[test]
fn batched_point_loop_is_allocation_free() {
    std::env::set_var(par::THREADS_ENV, "1");
    // Warm up lazily initialized runtime bits.
    let _ = sweep_allocations(4);
    let (small, small_points) = sweep_allocations(10);
    let (large, large_points) = sweep_allocations(40);
    std::env::remove_var(par::THREADS_ENV);
    let extra_points = (large_points - small_points) as f64;
    let per_point = large.saturating_sub(small) as f64 / extra_points;
    // A per-point lane-result vector would show here as one allocation per
    // point per variant group (9 variants make groups of 8 and 1: 2 per
    // point).
    assert!(
        per_point == 0.0,
        "the batched point loop allocates {per_point:.3} times per frequency point \
         ({small} allocations @ {small_points} points, {large} @ {large_points})"
    );
    // Sanity-check that the counter actually counts.
    let probe = allocation_count();
    let v: Vec<u8> = vec![0; 4096];
    assert!(v.len() == 4096 && allocation_count() > probe);
}
