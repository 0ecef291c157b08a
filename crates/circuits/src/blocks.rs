//! Small reference blocks with exactly known pole/zero structure.
//!
//! These circuits back the ablation studies (real-pole rejection, known-ζ
//! validation) and provide additional realistic scenarios — source followers
//! and current mirrors are exactly the "local loops that otherwise go
//! undetected" the paper's introduction motivates.

use loopscope_netlist::{Circuit, MosfetModel, MosfetPolarity, NodeId, SourceSpec};

/// Builds an `n`-section RC ladder driven from an ideal source.
///
/// All of its poles are real, so a stability scan must report **no**
/// significant negative peaks anywhere — this is the paper's claim that the
/// double differentiation of the stability plot "filters out the effects of
/// the real poles and zeros".
///
/// Returns the circuit and the ladder nodes in order from the source.
///
/// # Panics
///
/// Panics if `sections == 0`.
pub fn rc_ladder(sections: usize, r_ohms: f64, c_farads: f64) -> (Circuit, Vec<NodeId>) {
    assert!(sections > 0, "need at least one RC section");
    let mut c = Circuit::new(format!("{sections}-section RC ladder"));
    let input = c.node("in");
    c.add_vsource("Vin", input, Circuit::GROUND, SourceSpec::dc(1.0));
    let mut prev = input;
    let mut nodes = Vec::with_capacity(sections);
    for k in 1..=sections {
        let n = c.node(&format!("n{k}"));
        c.add_resistor(&format!("R{k}"), prev, n, r_ohms);
        c.add_capacitor(&format!("C{k}"), n, Circuit::GROUND, c_farads);
        nodes.push(n);
        prev = n;
    }
    (c, nodes)
}

/// Builds a cascade of `stages` buffered two-pole op-amp gain cells — the
/// canonical **block-structured** circuit: signal flows strictly forward.
///
/// Each stage is an ideal-input amplifier (a VCVS sensing the previous
/// stage's output without loading it) driving two cascaded RC poles. The
/// VCVS input draws no current, so no stage ever couples back into the one
/// before it: the MNA admittance matrix is block upper-triangular with one
/// strongly coupled diagonal block per stage (plus the source block), and
/// the BTF analysis (`loopscope-sparse`'s `btf` module) recovers exactly that
/// partition. This is the scenario where KLU-style block factorization
/// beats whole-matrix ordering: every block factors independently and the
/// inter-stage couplings contribute zero fill.
///
/// The RC values are staggered per stage so the matrix values (not just
/// the pattern) differ from block to block.
///
/// Returns the circuit and each stage's output node, in signal order.
///
/// # Panics
///
/// Panics if `stages == 0`.
pub fn opamp_cascade(stages: usize) -> (Circuit, Vec<NodeId>) {
    assert!(stages > 0, "need at least one gain stage");
    let mut c = Circuit::new(format!("{stages}-stage buffered op-amp cascade"));
    let input = c.node("in");
    c.add_vsource(
        "Vin",
        input,
        Circuit::GROUND,
        SourceSpec::dc_ac(0.0, 1.0, 0.0),
    );
    let mut prev_out = input;
    let mut outputs = Vec::with_capacity(stages);
    for k in 0..stages {
        let drive = c.node(&format!("s{k}_drive"));
        let mid = c.node(&format!("s{k}_mid"));
        let out = c.node(&format!("s{k}_out"));
        // Ideal-input gain element: senses `prev_out` without loading it.
        c.add_vcvs(
            &format!("E{k}"),
            drive,
            Circuit::GROUND,
            prev_out,
            Circuit::GROUND,
            2.0,
        );
        // Two staggered RC poles per stage.
        let r = 1.0e3 * (1.0 + 0.1 * (k % 7) as f64);
        let cap = 1.0e-9 * (1.0 + 0.2 * (k % 5) as f64);
        c.add_resistor(&format!("R{k}a"), drive, mid, r);
        c.add_capacitor(&format!("C{k}a"), mid, Circuit::GROUND, cap);
        c.add_resistor(&format!("R{k}b"), mid, out, 2.0 * r);
        c.add_capacitor(&format!("C{k}b"), out, Circuit::GROUND, 0.5 * cap);
        outputs.push(out);
        prev_out = out;
    }
    (c, outputs)
}

/// Builds a series RLC divider (output across the capacitor): the canonical
/// second-order low-pass with
///
/// * natural frequency `f_n = 1/(2π√(LC))` and
/// * damping ratio `ζ = (R/2)·√(C/L)`.
///
/// The exact ζ makes this the quantitative ground truth for the stability
/// plot: its peak must read `−1/ζ²` at `f_n`.
///
/// Returns the circuit and the output node.
pub fn series_rlc(r_ohms: f64, l_henries: f64, c_farads: f64) -> (Circuit, NodeId) {
    let mut c = Circuit::new("series RLC divider");
    let input = c.node("in");
    let mid = c.node("mid");
    let out = c.node("out");
    c.add_vsource(
        "Vin",
        input,
        Circuit::GROUND,
        SourceSpec::step(0.0, 1.0, 0.0),
    );
    c.add_resistor("R1", input, mid, r_ohms);
    c.add_inductor("L1", mid, out, l_henries);
    c.add_capacitor("C1", out, Circuit::GROUND, c_farads);
    (c, out)
}

/// Damping ratio of the [`series_rlc`] divider for the given element values.
pub fn series_rlc_damping(r_ohms: f64, l_henries: f64, c_farads: f64) -> f64 {
    0.5 * r_ohms * (c_farads / l_henries).sqrt()
}

/// Natural frequency (hertz) of the [`series_rlc`] divider.
pub fn series_rlc_natural_freq(l_henries: f64, c_farads: f64) -> f64 {
    1.0 / (2.0 * std::f64::consts::PI * (l_henries * c_farads).sqrt())
}

/// Builds an NMOS source follower driving a capacitive load through its own
/// output impedance, fed from a source with series resistance and inductive
/// wiring — a classic local-ringing scenario in the paper's list of circuits
/// (emitter/source followers) that black-box analysis misses.
///
/// Returns the circuit and the follower output node.
pub fn source_follower(cload_farads: f64, l_wire_henries: f64) -> (Circuit, NodeId) {
    let mut c = Circuit::new("source follower with capacitive load");
    let vdd = c.node("vdd");
    let sig = c.node("sig");
    let gate = c.node("gate");
    let out = c.node("out");

    c.add_vsource("VDD", vdd, Circuit::GROUND, SourceSpec::dc(3.3));
    c.add_vsource("Vsig", sig, Circuit::GROUND, SourceSpec::dc(2.0));
    c.add_resistor("Rsig", sig, gate, 1.0e3);
    if l_wire_henries > 0.0 {
        let mid = c.node("lw");
        c.add_inductor("Lwire", gate, mid, l_wire_henries);
        c.add_mosfet(
            "M1",
            vdd,
            mid,
            out,
            MosfetPolarity::Nmos,
            100.0e-6,
            1.0e-6,
            follower_model(),
        );
    } else {
        c.add_mosfet(
            "M1",
            vdd,
            gate,
            out,
            MosfetPolarity::Nmos,
            100.0e-6,
            1.0e-6,
            follower_model(),
        );
    }
    c.add_isource("Ibias", out, Circuit::GROUND, SourceSpec::dc(200.0e-6));
    c.add_capacitor("Cload", out, Circuit::GROUND, cload_farads);
    (c, out)
}

fn follower_model() -> MosfetModel {
    MosfetModel {
        vto: 0.7,
        kp: 120.0e-6,
        lambda: 0.02,
        cgs: 0.6e-12,
        cgd: 0.1e-12,
        cdb: 0.05e-12,
    }
}

/// Builds an NMOS current mirror whose output drives a capacitive load; the
/// mirror's diode-connected input node and the output node form another local
/// structure the "All Nodes" scan should classify as well damped (no complex
/// pole peak beyond the threshold) unless wiring inductance is added.
///
/// Returns the circuit, the mirror input (diode) node and the output node.
pub fn current_mirror(cload_farads: f64) -> (Circuit, NodeId, NodeId) {
    let mut c = Circuit::new("NMOS current mirror");
    let vdd = c.node("vdd");
    let diode = c.node("diode");
    let out = c.node("out");

    let nmos = MosfetModel {
        vto: 0.7,
        kp: 100.0e-6,
        lambda: 0.03,
        cgs: 0.2e-12,
        cgd: 0.05e-12,
        cdb: 0.05e-12,
    };

    c.add_vsource("VDD", vdd, Circuit::GROUND, SourceSpec::dc(3.3));
    c.add_isource("Iref", diode, Circuit::GROUND, SourceSpec::dc(100.0e-6));
    c.add_resistor("Rref", vdd, diode, 15.0e3);
    c.add_mosfet(
        "M1",
        diode,
        diode,
        Circuit::GROUND,
        MosfetPolarity::Nmos,
        20.0e-6,
        1.0e-6,
        nmos,
    );
    c.add_mosfet(
        "M2",
        out,
        diode,
        Circuit::GROUND,
        MosfetPolarity::Nmos,
        40.0e-6,
        1.0e-6,
        nmos,
    );
    c.add_resistor("Rload", vdd, out, 10.0e3);
    c.add_capacitor("Cload", out, Circuit::GROUND, cload_farads);
    (c, diode, out)
}

/// Builds a `rows × cols` on-chip power-distribution grid: a 2-D resistive
/// mesh (5-point stencil) with a decoupling capacitor from every grid node
/// to ground, driven by a supply at the `(0, 0)` corner through a small
/// series resistance.
///
/// This is the canonical **fill-heavy** pattern: unlike the block-structured
/// MNA systems of op-amp circuits, a 2-D mesh has no useful BTF partition
/// and its LU factors fill in superlinearly, the hardest pattern the direct
/// solver faces. Conductances and capacitances carry a small deterministic positional
/// variation so matrix *values* (not just the pattern) differ across the
/// grid.
///
/// Returns the circuit and the grid nodes in row-major order
/// (`nodes[i * cols + j]` is grid position `(i, j)`; the far corner — the
/// natural probe for a driving-point sweep — is `nodes[rows * cols - 1]`).
///
/// # Panics
///
/// Panics if `rows == 0` or `cols == 0`.
pub fn power_grid(rows: usize, cols: usize) -> (Circuit, Vec<NodeId>) {
    assert!(rows > 0 && cols > 0, "need a non-empty grid");
    let mut c = Circuit::new(format!("{rows}x{cols} power grid"));
    // Per-edge conductance and per-node capacitance with deterministic
    // positional variation (same recipe at any grid size).
    let r_of = |i: usize, j: usize| 1.0e3 / (1.0 + ((i + j) % 5) as f64 * 0.1);
    let c_of = |i: usize, j: usize| 1.0e-9 * (1.0 + ((i * j) % 3) as f64 * 0.2);

    let nodes: Vec<NodeId> = (0..rows)
        .flat_map(|i| (0..cols).map(move |j| (i, j)))
        .map(|(i, j)| c.node(&format!("g{i}_{j}")))
        .collect();
    for i in 0..rows {
        for j in 0..cols {
            let u = nodes[i * cols + j];
            if j + 1 < cols {
                c.add_resistor(
                    &format!("Rh{i}_{j}"),
                    u,
                    nodes[i * cols + j + 1],
                    r_of(i, j),
                );
            }
            if i + 1 < rows {
                c.add_resistor(
                    &format!("Rv{i}_{j}"),
                    u,
                    nodes[(i + 1) * cols + j],
                    r_of(i, j),
                );
            }
            c.add_capacitor(&format!("C{i}_{j}"), u, Circuit::GROUND, c_of(i, j));
        }
    }
    // Corner drive: the supply enters at (0, 0) through a package/bump
    // resistance, so every grid node keeps a nonzero driving-point
    // impedance.
    let supply = c.node("supply");
    c.add_vsource(
        "Vdd",
        supply,
        Circuit::GROUND,
        SourceSpec::dc_ac(1.0, 1.0, 0.0),
    );
    c.add_resistor("Rdrive", supply, nodes[0], 10.0);
    (c, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopscope_spice::dc::solve_dc;

    #[test]
    fn rc_ladder_structure() {
        let (c, nodes) = rc_ladder(5, 1.0e3, 1.0e-9);
        assert_eq!(nodes.len(), 5);
        assert_eq!(c.elements().len(), 1 + 2 * 5);
        c.validate().unwrap();
        let op = solve_dc(&c).unwrap();
        // No DC drop through the ladder (capacitors block any current).
        for n in nodes {
            assert!((op.voltage(n) - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    #[should_panic(expected = "at least one RC section")]
    fn rc_ladder_rejects_zero_sections() {
        rc_ladder(0, 1.0, 1.0);
    }

    #[test]
    fn series_rlc_parameters() {
        // 1 mH, 1 nF → fn ≈ 159 kHz; R = 2ζ√(L/C) = 400 Ω gives ζ = 0.2.
        let l = 1.0e-3;
        let cap = 1.0e-9;
        assert!((series_rlc_damping(400.0, l, cap) - 0.2).abs() < 1e-12);
        assert!((series_rlc_natural_freq(l, cap) - 159.155e3).abs() / 159.155e3 < 1e-3);
        let (c, out) = series_rlc(400.0, l, cap);
        c.validate().unwrap();
        let op = solve_dc(&c).unwrap();
        assert!(op.voltage(out).abs() < 1e-6);
    }

    #[test]
    fn source_follower_bias() {
        let (c, out) = source_follower(10.0e-12, 0.0);
        let op = solve_dc(&c).unwrap();
        let vo = op.voltage(out);
        // Output sits roughly a Vgs below the 2 V input.
        assert!(vo > 0.7 && vo < 1.6, "vout = {vo}");
        let (c2, out2) = source_follower(10.0e-12, 50.0e-9);
        let op2 = solve_dc(&c2).unwrap();
        assert!((op2.voltage(out2) - vo).abs() < 0.05);
    }

    #[test]
    fn opamp_cascade_is_block_structured() {
        use loopscope_spice::ac::AcAnalysis;

        let stages = 4;
        let (c, outs) = opamp_cascade(stages);
        c.validate().unwrap();
        assert_eq!(outs.len(), stages);
        let op = solve_dc(&c).unwrap();
        // Zero DC input: the whole cascade idles at 0 V.
        for &o in &outs {
            assert!(op.voltage(o).abs() < 1e-9);
        }
        // The admittance pattern must split into one block per stage plus
        // the source block — the structure the bench's BTF scenario relies
        // on.
        let ac = AcAnalysis::new(&c, &op).unwrap();
        let structure = ac.solver_structure(1.0e3).unwrap();
        assert!(
            structure.block_count > stages,
            "expected more than {stages} BTF blocks, found {}",
            structure.block_count
        );
    }

    #[test]
    fn power_grid_counts_and_dc_level() {
        let (rows, cols) = (4, 6);
        let (c, nodes) = power_grid(rows, cols);
        c.validate().unwrap();
        assert_eq!(nodes.len(), rows * cols);
        // Grid nodes plus the supply node (ground is not counted as a node
        // here; node_count includes ground slot 0).
        assert_eq!(c.node_count(), rows * cols + 2);
        // Elements: horizontal + vertical mesh resistors, one cap per grid
        // node, the supply source and its series resistor.
        let resistors = rows * (cols - 1) + (rows - 1) * cols + 1;
        let caps = rows * cols;
        assert_eq!(c.elements().len(), resistors + caps + 1);
        // At DC the caps are open and the mesh carries no current: every
        // node floats to the supply.
        let op = solve_dc(&c).unwrap();
        for &n in &nodes {
            assert!((op.voltage(n) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty grid")]
    fn power_grid_rejects_empty() {
        power_grid(3, 0);
    }

    #[test]
    fn current_mirror_copies_current() {
        let (c, diode, out) = current_mirror(1.0e-12);
        let op = solve_dc(&c).unwrap();
        let vd = op.voltage(diode);
        assert!(vd > 0.8 && vd < 1.6, "vdiode = {vd}");
        // Output current ≈ 2× reference (W ratio) → drop across 10 kΩ load.
        let vout = op.voltage(out);
        assert!(vout < 3.3 && vout > 0.1, "vout = {vout}");
    }
}
