//! Counting-allocator proof that the transient stepper's **steady-state
//! loop** allocates nothing on a fixed grid (`dt_min == dt_max`): every
//! Newton iteration of every timestep cycles hoisted buffers through the
//! adopting `SolveContext` (`assemble_newton_into` +
//! `solve_verified_in_place`: a Newton image load or an in-place assembly,
//! numeric refactorization, refined in-place substitution), nonlinear
//! devices evaluate into fixed-capacity stamps, and the waveform storage is
//! one flat buffer sized by `TransientAnalysis::new` for every row of the
//! grid — on a linear circuit and on one with a diode, a BJT and a MOSFET
//! iterating Newton at every step.
//!
//! Methodology: the setup cost (pattern discovery, symbolic analysis,
//! buffer minting) is a per-run constant, so two runs differing only in
//! step count isolate the per-step cost as a difference — independent of
//! how big the constant is. The same counting-allocator caveat as
//! `loopscope-sparse/tests/alloc_free.rs` applies: exactly ONE `#[test]`
//! in this binary may touch the counter, because sibling tests run on
//! parallel threads and would race it.

use loopscope_netlist::{
    BjtModel, BjtPolarity, Circuit, DiodeModel, MosfetModel, MosfetPolarity, SourceSpec, Waveform,
};
use loopscope_spice::dc::solve_dc;
use loopscope_spice::tran::{TransientAnalysis, TransientOptions};
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

/// An RC divider with a step source: linear (one Newton iteration per
/// step), with a capacitor so the companion models restamp every step.
fn circuit() -> Circuit {
    let mut c = Circuit::new("alloc tran");
    let vin = c.node("in");
    let vout = c.node("out");
    c.add_vsource("V1", vin, Circuit::GROUND, SourceSpec::step(0.0, 1.0, 0.0));
    c.add_resistor("R1", vin, vout, 1.0e3);
    c.add_capacitor("C1", vout, Circuit::GROUND, 1.0e-6);
    c
}

/// A MOSFET common-source stage with a diode clamp and a BJT follower, all
/// driven by a sine on the gate: three nonlinear devices whose terminals
/// move at every step, so the per-device bypass re-evaluates them in every
/// step of the run.
fn nonlinear_circuit() -> Circuit {
    let mut c = Circuit::new("alloc tran nonlinear");
    let vdd = c.node("vdd");
    let gate = c.node("gate");
    let drain = c.node("drain");
    let emitter = c.node("emitter");
    c.add_vsource("VDD", vdd, Circuit::GROUND, SourceSpec::dc(3.0));
    c.add_vsource(
        "VG",
        gate,
        Circuit::GROUND,
        SourceSpec {
            dc: 1.05,
            ac_mag: 0.0,
            ac_phase_deg: 0.0,
            waveform: Waveform::Sine {
                offset: 1.05,
                amplitude: 0.15,
                freq_hz: 1.0e3,
                delay: 0.0,
            },
        },
    );
    c.add_resistor("RD", vdd, drain, 5.0e3);
    c.add_capacitor("CD", drain, Circuit::GROUND, 1.0e-9);
    c.add_mosfet(
        "M1",
        drain,
        gate,
        Circuit::GROUND,
        MosfetPolarity::Nmos,
        10.0e-6,
        1.0e-6,
        MosfetModel {
            vto: 0.7,
            kp: 100.0e-6,
            lambda: 0.02,
            ..Default::default()
        },
    );
    c.add_diode("D1", drain, vdd, DiodeModel::default());
    c.add_bjt(
        "Q1",
        vdd,
        drain,
        emitter,
        BjtPolarity::Npn,
        BjtModel::default(),
    );
    c.add_resistor("RE", emitter, Circuit::GROUND, 10.0e3);
    c.add_capacitor("CE", emitter, Circuit::GROUND, 1.0e-9);
    c
}

/// Allocations and device evaluations of one whole transient run of
/// `steps` steps (dt chosen so t_stop is a non-multiple, exercising the
/// shortened final step too).
fn run_allocations(circuit: fn() -> Circuit, steps: usize) -> (usize, usize) {
    let c = circuit();
    let op = solve_dc(&c).unwrap();
    let dt = 10.0e-6;
    // Non-multiple stop time: `steps` full steps plus a shortened one.
    let t_stop = dt * steps as f64 - 0.4 * dt;
    let tran = TransientAnalysis::new(&c, TransientOptions::new(dt, t_stop)).unwrap();
    let before = allocation_count();
    let r = tran.run(&op).unwrap();
    let after = allocation_count();
    assert_eq!(r.len(), steps + 1, "initial point + one row per step");
    assert_eq!(*r.times().last().unwrap(), t_stop);
    (after - before, r.stats().device_evaluations)
}

#[test]
fn transient_steady_state_loop_allocates_nothing() {
    // Warm up lazily initialized runtime bits (thread-locals, fmt buffers…)
    // so they don't pollute the measured difference.
    let _ = run_allocations(circuit, 8);

    for (name, build) in [
        ("linear RC", circuit as fn() -> Circuit),
        ("nonlinear", nonlinear_circuit),
    ] {
        let (small, small_evaluations) = run_allocations(build, 50);
        let (large, large_evaluations) = run_allocations(build, 150);
        let extra_steps = 100;
        // The extra steps of the nonlinear run evaluate devices, so the
        // evaluation path is part of the measured steady state.
        if name == "nonlinear" {
            assert!(
                large_evaluations - small_evaluations >= extra_steps,
                "{name}: {small_evaluations} device evaluations @ 50 steps, \
                 {large_evaluations} @ 150 steps"
            );
        }
        let per_step = (large.saturating_sub(small)) as f64 / extra_steps as f64;

        // An extra step allocates nothing: the Newton loop's assemble →
        // factor → solve cycle runs entirely in hoisted buffers, and the
        // result rows land in storage reserved for the whole grid. Any
        // per-step allocation (one `Vec` per stored row before the flat
        // buffer: 1; two heap lists per device per Newton iteration on the
        // nonlinear circuit: ≥ 12) fails this.
        assert!(
            per_step == 0.0,
            "{name}: steady-state transient loop allocates {per_step:.2} times per step \
             (runs: {small} allocs @ 50 steps, {large} @ 150 steps); \
             the Newton loop must not allocate"
        );
    }

    // Sanity-check that the counter actually counts, so the bound above is
    // meaningful.
    let probe = allocation_count();
    let v: Vec<u8> = vec![0; 4096];
    assert!(v.len() == 4096 && allocation_count() > probe);
}
