//! Nonlinear device evaluation: one linearization per device, shared by
//! the Newton iterations and the small-signal (AC) system.
//!
//! Every nonlinear device is reduced, at a given set of terminal voltages, to
//! a [`NonlinearStamp`]:
//!
//! * a set of **conductance stamps** `(row node, column node, value)` that are
//!   added to the MNA matrix, and
//! * a set of **right-hand-side currents** `(node, value)` that implement the
//!   Newton companion sources.
//!
//! DC and transient Newton iterations stamp both halves at every trial
//! point. The AC analysis evaluates the stamp once at the operating point
//! and uses its conductances, plus the device's **two-terminal
//! capacitances** (`capacitances`) as `jωC` admittances. The transient
//! does not stamp those capacitances: device charge enters the AC analysis
//! only. The polarity handling (NPN/PNP, NMOS/PMOS) happens in here so the
//! analyses never need to special-case device flavours.

use crate::mna::MnaLayout;
use crate::{GMIN, THERMAL_VOLTAGE};
use loopscope_netlist::{
    Bjt, BjtPolarity, Circuit, Diode, Element, Mosfet, MosfetPolarity, NodeId,
};

/// Voltage beyond which the junction exponential is linearized to avoid
/// floating-point overflow during badly scaled Newton steps.
const EXP_LIMIT: f64 = 40.0;

/// A limited exponential: returns `(value, derivative)` of a function that
/// equals `exp(x)` for `x ≤ EXP_LIMIT` and continues linearly (with matching
/// slope) beyond it.
fn limited_exp(x: f64) -> (f64, f64) {
    if x > EXP_LIMIT {
        let e = EXP_LIMIT.exp();
        (e * (1.0 + (x - EXP_LIMIT)), e)
    } else {
        let e = x.exp();
        (e, e)
    }
}

/// Most conductance entries any device stamps (the BJT's 3×3 block).
const MAX_CONDUCTANCES: usize = 9;
/// Most companion currents any device stamps (one per BJT terminal).
const MAX_RHS_CURRENTS: usize = 3;

/// Linearized contribution of a nonlinear device at a trial solution.
///
/// The entries live in fixed-capacity inline arrays sized for the largest
/// device, so evaluating a device at every Newton iteration never touches
/// the heap.
#[derive(Debug, Clone, Copy)]
pub struct NonlinearStamp {
    conductances: [(NodeId, NodeId, f64); MAX_CONDUCTANCES],
    conductance_count: usize,
    rhs_currents: [(NodeId, f64); MAX_RHS_CURRENTS],
    rhs_count: usize,
}

impl NonlinearStamp {
    /// Copies the device's entries into a stamp.
    ///
    /// # Panics
    ///
    /// Panics when either list exceeds the capacity of the largest device.
    fn new(conductances: &[(NodeId, NodeId, f64)], rhs_currents: &[(NodeId, f64)]) -> Self {
        let mut stamp = Self {
            conductances: [(NodeId::GROUND, NodeId::GROUND, 0.0); MAX_CONDUCTANCES],
            conductance_count: conductances.len(),
            rhs_currents: [(NodeId::GROUND, 0.0); MAX_RHS_CURRENTS],
            rhs_count: rhs_currents.len(),
        };
        stamp.conductances[..conductances.len()].copy_from_slice(conductances);
        stamp.rhs_currents[..rhs_currents.len()].copy_from_slice(rhs_currents);
        stamp
    }

    /// Conductance entries `(row node, column node, value)` to add to the MNA
    /// matrix. Ground rows/columns are filtered out by the stamper.
    pub fn conductances(&self) -> &[(NodeId, NodeId, f64)] {
        &self.conductances[..self.conductance_count]
    }

    /// Newton companion currents `(node, value)` to add to the RHS.
    pub fn rhs_currents(&self) -> &[(NodeId, f64)] {
        &self.rhs_currents[..self.rhs_count]
    }
}

/// The empty stamp: no conductances, no currents. A placeholder for a
/// device not evaluated yet.
impl Default for NonlinearStamp {
    fn default() -> Self {
        Self::new(&[], &[])
    }
}

/// Evaluates the nonlinear device `element` (a diode, BJT or MOSFET) at the
/// given node voltages and returns its Newton stamp.
///
/// # Panics
///
/// Panics when `element` is not a nonlinear device.
pub(crate) fn stamp_device(element: &Element, voltages: &[f64]) -> NonlinearStamp {
    match element {
        Element::Diode(d) => stamp_diode(d, voltages),
        Element::Bjt(q) => stamp_bjt(q, voltages),
        Element::Mosfet(m) => stamp_mosfet(m, voltages),
        other => panic!("element '{}' is not a nonlinear device", other.name()),
    }
}

/// Evaluates every nonlinear device of `circuit` at `voltages` into `out`,
/// replacing its contents, one stamp per device in stamp order (the
/// elements of [`MnaLayout::device_elements`]). Allocation-free once
/// `out` has held as many stamps.
pub(crate) fn stamp_devices(
    circuit: &Circuit,
    layout: &MnaLayout,
    voltages: &[f64],
    out: &mut Vec<NonlinearStamp>,
) {
    let elements = circuit.elements();
    out.clear();
    out.extend(
        layout
            .device_elements()
            .iter()
            .map(|&ei| stamp_device(&elements[ei], voltages)),
    );
}

/// Two-terminal capacitances `(a, b, farads)` of the nonlinear device
/// `element` at the operating point `voltages`, stamped by the AC analysis
/// as `jωC` admittances: a diode's `cj0`; a BJT's base-emitter `cje` plus
/// the diffusion capacitance `tf·g_m`, and base-collector `cjc`; a
/// MOSFET's `cgs`, `cgd` and drain-bulk `cdb`. Zero capacitances are left
/// out. Empty for every other element.
pub(crate) fn capacitances(element: &Element, voltages: &[f64]) -> Vec<(NodeId, NodeId, f64)> {
    let candidates = match element {
        Element::Diode(d) => vec![(d.anode, d.cathode, d.model.cj0)],
        Element::Bjt(q) => {
            let (vbe, vbc, _) = bjt_junction_voltages(q, voltages);
            // Diffusion capacitance c_d = TF·g_m (forward transconductance).
            let gm_forward = eval_bjt(q, vbe, vbc).dic_dvbe;
            vec![
                (
                    q.base,
                    q.emitter,
                    q.model.cje + q.model.tf * gm_forward.max(0.0),
                ),
                (q.base, q.collector, q.model.cjc),
            ]
        }
        Element::Mosfet(m) => vec![
            (m.gate, m.source, m.model.cgs),
            (m.gate, m.drain, m.model.cgd),
            (m.drain, NodeId::GROUND, m.model.cdb),
        ],
        _ => Vec::new(),
    };
    candidates.into_iter().filter(|c| c.2 > 0.0).collect()
}

/// Reads the voltage of `node` from a full node-voltage table (index 0 is
/// ground and always reads 0).
#[inline]
pub fn node_voltage(voltages: &[f64], node: NodeId) -> f64 {
    voltages[node.index()]
}

fn two_terminal_conductance(a: NodeId, b: NodeId, g: f64) -> [(NodeId, NodeId, f64); 4] {
    [(a, a, g), (b, b, g), (a, b, -g), (b, a, -g)]
}

// ---------------------------------------------------------------------------
// Diode
// ---------------------------------------------------------------------------

/// Evaluates a diode at the given node voltages and returns its Newton stamp.
pub fn stamp_diode(d: &Diode, voltages: &[f64]) -> NonlinearStamp {
    let vd = node_voltage(voltages, d.anode) - node_voltage(voltages, d.cathode);
    let nvt = d.model.n * THERMAL_VOLTAGE;
    let (e, de) = limited_exp(vd / nvt);
    let id = d.model.is * (e - 1.0) + GMIN * vd;
    let gd = d.model.is * de / nvt + GMIN;
    let ieq = id - gd * vd;
    NonlinearStamp::new(
        &two_terminal_conductance(d.anode, d.cathode, gd),
        &[(d.anode, -ieq), (d.cathode, ieq)],
    )
}

// ---------------------------------------------------------------------------
// BJT (Ebers-Moll with Early effect)
// ---------------------------------------------------------------------------

/// Normalized (NPN-referenced) BJT evaluation shared by DC and AC paths.
struct BjtEval {
    /// Collector current derivative w.r.t. v_be.
    dic_dvbe: f64,
    /// Collector current derivative w.r.t. v_bc.
    dic_dvbc: f64,
    /// Base current derivative w.r.t. v_be (input conductance g_pi).
    dib_dvbe: f64,
    /// Base current derivative w.r.t. v_bc (g_mu).
    dib_dvbc: f64,
    /// Normalized collector current.
    ic: f64,
    /// Normalized base current.
    ib: f64,
}

fn eval_bjt(q: &Bjt, vbe: f64, vbc: f64) -> BjtEval {
    let vt = THERMAL_VOLTAGE;
    let m = &q.model;
    let (ef, def) = limited_exp(vbe / vt);
    let (er, der) = limited_exp(vbc / vt);
    let i_f = m.is * (ef - 1.0);
    let i_r = m.is * (er - 1.0);
    let gif = m.is * def / vt;
    let gir = m.is * der / vt;
    let kq = if m.vaf.is_finite() {
        1.0 - vbc / m.vaf
    } else {
        1.0
    };
    let dkq_dvbc = if m.vaf.is_finite() { -1.0 / m.vaf } else { 0.0 };

    let ic = (i_f - i_r) * kq - i_r / m.br;
    let ib = i_f / m.bf + i_r / m.br;

    BjtEval {
        dic_dvbe: gif * kq,
        dic_dvbc: -gir * kq + (i_f - i_r) * dkq_dvbc - gir / m.br,
        dib_dvbe: gif / m.bf,
        dib_dvbc: gir / m.br,
        ic,
        ib,
    }
}

fn bjt_junction_voltages(q: &Bjt, voltages: &[f64]) -> (f64, f64, f64) {
    let sign = match q.polarity {
        BjtPolarity::Npn => 1.0,
        BjtPolarity::Pnp => -1.0,
    };
    let vb = node_voltage(voltages, q.base);
    let vc = node_voltage(voltages, q.collector);
    let ve = node_voltage(voltages, q.emitter);
    (sign * (vb - ve), sign * (vb - vc), sign)
}

/// Evaluates a BJT and returns its Newton companion stamp.
pub fn stamp_bjt(q: &Bjt, voltages: &[f64]) -> NonlinearStamp {
    let (vbe, vbc, sign) = bjt_junction_voltages(q, voltages);
    let e = eval_bjt(q, vbe, vbc);

    // Derivatives of the *normalized* currents w.r.t. real node voltages.
    // v_be = sign·(V_b − V_e), v_bc = sign·(V_b − V_c); the sign cancels when
    // converting the normalized current back to the real terminal current.
    let dic = |dvbe: f64, dvbc: f64| (dvbe + dvbc, -dvbc, -dvbe); // (d/dVb, d/dVc, d/dVe)
    let (dic_db, dic_dc, dic_de) = dic(e.dic_dvbe, e.dic_dvbc);
    let (dib_db, dib_dc, dib_de) = dic(e.dib_dvbe, e.dib_dvbc);

    let vb = node_voltage(voltages, q.base);
    let vc = node_voltage(voltages, q.collector);
    let ve = node_voltage(voltages, q.emitter);

    // Real terminal currents flowing *into* the device.
    let i_c = sign * e.ic;
    let i_b = sign * e.ib;

    // Conductance rows for collector and base; emitter is the negative sum.
    let rows = [
        (q.collector, dic_db, dic_dc, dic_de, i_c),
        (q.base, dib_db, dib_dc, dib_de, i_b),
        (
            q.emitter,
            -(dic_db + dib_db),
            -(dic_dc + dib_dc),
            -(dic_de + dib_de),
            -(i_c + i_b),
        ),
    ];
    let mut conductances = [(q.base, q.base, 0.0); MAX_CONDUCTANCES];
    let mut rhs_currents = [(q.base, 0.0); MAX_RHS_CURRENTS];
    for (k, &(terminal, d_db, d_dc, d_de, current)) in rows.iter().enumerate() {
        conductances[3 * k] = (terminal, q.base, d_db);
        conductances[3 * k + 1] = (terminal, q.collector, d_dc);
        conductances[3 * k + 2] = (terminal, q.emitter, d_de);
        let ieq = current - (d_db * vb + d_dc * vc + d_de * ve);
        rhs_currents[k] = (terminal, -ieq);
    }

    NonlinearStamp::new(&conductances, &rhs_currents)
}

// ---------------------------------------------------------------------------
// MOSFET (Shichman-Hodges level 1)
// ---------------------------------------------------------------------------

struct MosEval {
    id: f64,
    gm: f64,
    gds: f64,
}

fn eval_mosfet_normalized(beta: f64, lambda: f64, vth: f64, vgs: f64, vds: f64) -> MosEval {
    debug_assert!(vds >= 0.0);
    let vov = vgs - vth;
    if vov <= 0.0 {
        // Cut-off: leave a tiny conductance for numerical robustness.
        return MosEval {
            id: 0.0,
            gm: 0.0,
            gds: GMIN,
        };
    }
    let clm = 1.0 + lambda * vds;
    if vds < vov {
        // Triode region.
        let id0 = beta * (vov * vds - 0.5 * vds * vds);
        MosEval {
            id: id0 * clm,
            gm: beta * vds * clm,
            gds: beta * (vov - vds) * clm + id0 * lambda + GMIN,
        }
    } else {
        // Saturation region.
        let id0 = 0.5 * beta * vov * vov;
        MosEval {
            id: id0 * clm,
            gm: beta * vov * clm,
            gds: id0 * lambda + GMIN,
        }
    }
}

struct MosOperating {
    /// Terminal playing the role of drain after source/drain symmetry swap.
    eff_drain: NodeId,
    /// Terminal playing the role of source after the swap.
    eff_source: NodeId,
    sign: f64,
    eval: MosEval,
}

fn mosfet_operating(m: &Mosfet, voltages: &[f64]) -> MosOperating {
    let sign = match m.polarity {
        MosfetPolarity::Nmos => 1.0,
        MosfetPolarity::Pmos => -1.0,
    };
    let vd = node_voltage(voltages, m.drain);
    let vg = node_voltage(voltages, m.gate);
    let vs = node_voltage(voltages, m.source);
    let vds_n = sign * (vd - vs);
    // The level-1 channel is symmetric: when v_ds goes negative the device
    // conducts with drain and source roles exchanged.
    let (eff_drain, eff_source, vds_eff, vgs_eff) = if vds_n >= 0.0 {
        (m.drain, m.source, vds_n, sign * (vg - vs))
    } else {
        (m.source, m.drain, -vds_n, sign * (vg - vd))
    };
    let vth = sign * m.model.vto;
    let eval = eval_mosfet_normalized(m.beta(), m.model.lambda, vth, vgs_eff, vds_eff);
    MosOperating {
        eff_drain,
        eff_source,
        sign,
        eval,
    }
}

/// Evaluates a MOSFET and returns its Newton companion stamp.
pub fn stamp_mosfet(m: &Mosfet, voltages: &[f64]) -> NonlinearStamp {
    let op = mosfet_operating(m, voltages);
    let MosEval { id, gm, gds } = op.eval;
    let sign = op.sign;
    let (d, s, g) = (op.eff_drain, op.eff_source, m.gate);

    // Real drain-terminal current (into the effective drain).
    let i_d = sign * id;
    // Derivatives of the real current w.r.t. real node voltages; the sign
    // factors cancel as for the BJT.
    let did_dg = gm;
    let did_dd = gds;
    let did_ds = -(gm + gds);

    let vd = node_voltage(voltages, d);
    let vg = node_voltage(voltages, g);
    let vs = node_voltage(voltages, s);
    let ieq = i_d - (did_dg * vg + did_dd * vd + did_ds * vs);

    NonlinearStamp::new(
        &[
            (d, g, did_dg),
            (d, d, did_dd),
            (d, s, did_ds),
            (s, g, -did_dg),
            (s, d, -did_dd),
            (s, s, -did_ds),
        ],
        &[(d, -ieq), (s, ieq)],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopscope_netlist::{BjtModel, Circuit, DiodeModel, MosfetModel};

    fn nodes(n: usize) -> (Circuit, Vec<NodeId>) {
        let mut c = Circuit::new("dev");
        let ids = (0..n).map(|i| c.node(&format!("n{}", i + 1))).collect();
        (c, ids)
    }

    #[test]
    fn limited_exp_continuity() {
        let (below, _) = limited_exp(EXP_LIMIT - 1e-9);
        let (above, _) = limited_exp(EXP_LIMIT + 1e-9);
        assert!((below - above).abs() / below < 1e-6);
        // Far beyond the limit the value grows linearly, not exponentially.
        let (far, slope) = limited_exp(EXP_LIMIT + 100.0);
        assert!((far - EXP_LIMIT.exp() * 101.0).abs() / far < 1e-12);
        assert_eq!(slope, EXP_LIMIT.exp());
    }

    #[test]
    fn diode_forward_current_matches_shockley() {
        let (_, ids) = nodes(2);
        let d = Diode {
            name: "D1".into(),
            anode: ids[0],
            cathode: ids[1],
            model: DiodeModel::default(),
        };
        // 0.6 V forward bias.
        let voltages = vec![0.0, 0.6, 0.0];
        let stamp = stamp_diode(&d, &voltages);
        // Reconstruct the trial-point current from the companion model:
        // the RHS at the anode is −(i_d − g_d·v_d), so i_d = g_d·v_d − rhs.
        let gd = stamp
            .conductances()
            .iter()
            .find(|(r, c, _)| *r == ids[0] && *c == ids[0])
            .unwrap()
            .2;
        let id = gd * 0.6 - stamp.rhs_currents()[0].1;
        let expected = 1e-14 * ((0.6 / THERMAL_VOLTAGE).exp() - 1.0) + GMIN * 0.6;
        assert!(
            (id - expected).abs() / expected < 1e-9,
            "id {id} vs {expected}"
        );
        assert!(gd > 0.0);
    }

    #[test]
    fn diode_reverse_bias_is_nearly_off() {
        let (_, ids) = nodes(2);
        let d = Diode {
            name: "D1".into(),
            anode: ids[0],
            cathode: ids[1],
            model: DiodeModel::default(),
        };
        let voltages = vec![0.0, -5.0, 0.0];
        let gd = stamp_diode(&d, &voltages).conductances()[0].2;
        assert!(gd < 1e-9, "reverse conductance should be tiny, got {gd}");
    }

    #[test]
    fn bjt_active_region_transconductance() {
        let (_, ids) = nodes(3);
        let q = Bjt {
            name: "Q1".into(),
            collector: ids[0],
            base: ids[1],
            emitter: ids[2],
            polarity: BjtPolarity::Npn,
            model: BjtModel {
                is: 1e-16,
                bf: 100.0,
                br: 1.0,
                vaf: f64::INFINITY,
                ..Default::default()
            },
        };
        // Vb = 0.65, Vc = 3.0, Ve = 0: forward active.
        let voltages = vec![0.0, 3.0, 0.65, 0.0];
        let e = eval_bjt(&q, 0.65, 0.65 - 3.0);
        let ic = e.ic;
        // gm ≈ Ic / Vt in forward active.
        assert!((e.dic_dvbe - ic / THERMAL_VOLTAGE).abs() / (ic / THERMAL_VOLTAGE) < 1e-3);
        // beta = Ic/Ib ≈ BF.
        assert!((ic / e.ib - 100.0).abs() < 1.0);

        let stamp = stamp_bjt(&q, &voltages);
        // The (collector, base) entry is the transconductance.
        let gm_entry = stamp
            .conductances()
            .iter()
            .find(|(r, c, _)| *r == ids[0] && *c == ids[1])
            .unwrap()
            .2;
        assert!((gm_entry - e.dic_dvbe).abs() / e.dic_dvbe < 1e-12);
    }

    #[test]
    fn bjt_early_effect_gives_output_conductance() {
        let (_, ids) = nodes(3);
        let mk = |vaf: f64| Bjt {
            name: "Q1".into(),
            collector: ids[0],
            base: ids[1],
            emitter: ids[2],
            polarity: BjtPolarity::Npn,
            model: BjtModel {
                vaf,
                ..Default::default()
            },
        };
        let voltages = vec![0.0, 3.0, 0.65, 0.0];
        let with_early = stamp_bjt(&mk(50.0), &voltages);
        let without = stamp_bjt(&mk(f64::INFINITY), &voltages);
        let go = |stamp: &NonlinearStamp| {
            stamp
                .conductances()
                .iter()
                .find(|(r, c, _)| *r == ids[0] && *c == ids[0])
                .unwrap()
                .2
        };
        assert!(go(&with_early) > go(&without));
        assert!(go(&with_early) > 0.0);
    }

    #[test]
    fn pnp_mirrors_npn() {
        let (_, ids) = nodes(3);
        let npn = Bjt {
            name: "Qn".into(),
            collector: ids[0],
            base: ids[1],
            emitter: ids[2],
            polarity: BjtPolarity::Npn,
            model: BjtModel::default(),
        };
        let pnp = Bjt {
            polarity: BjtPolarity::Pnp,
            name: "Qp".into(),
            ..npn.clone()
        };
        // NPN biased at +0.65 base, PNP at −0.65 base with mirrored rails.
        let v_npn = vec![0.0, 2.0, 0.65, 0.0];
        let v_pnp = vec![0.0, -2.0, -0.65, 0.0];
        let sn = stamp_bjt(&npn, &v_npn);
        let sp = stamp_bjt(&pnp, &v_pnp);
        // Companion currents mirror in sign.
        let ic_n = sn.rhs_currents()[0].1;
        let ic_p = sp.rhs_currents()[0].1;
        assert!((ic_n + ic_p).abs() < 1e-9 * ic_n.abs().max(1e-30));
    }

    #[test]
    fn mosfet_regions() {
        // Saturation: vds > vov.
        let sat = eval_mosfet_normalized(1e-3, 0.0, 0.7, 1.7, 3.0);
        assert!((sat.id - 0.5e-3).abs() < 1e-9);
        assert!((sat.gm - 1e-3).abs() < 1e-9);
        assert!(sat.gds <= 2.0 * GMIN);
        // Triode: vds < vov.
        let tri = eval_mosfet_normalized(1e-3, 0.0, 0.7, 1.7, 0.1);
        let expected = 1e-3 * (1.0 * 0.1 - 0.005);
        assert!((tri.id - expected).abs() < 1e-9);
        assert!(tri.gds > sat.gds);
        // Cut-off.
        let off = eval_mosfet_normalized(1e-3, 0.0, 0.7, 0.3, 1.0);
        assert_eq!(off.id, 0.0);
        assert_eq!(off.gm, 0.0);
    }

    #[test]
    fn mosfet_lambda_increases_current_with_vds() {
        let lo = eval_mosfet_normalized(1e-3, 0.05, 0.7, 1.7, 2.0);
        let hi = eval_mosfet_normalized(1e-3, 0.05, 0.7, 1.7, 4.0);
        assert!(hi.id > lo.id);
        assert!(lo.gds > GMIN);
    }

    #[test]
    fn nmos_stamp_in_saturation() {
        let (_, ids) = nodes(3);
        let m = Mosfet {
            name: "M1".into(),
            drain: ids[0],
            gate: ids[1],
            source: ids[2],
            polarity: MosfetPolarity::Nmos,
            width: 10e-6,
            length: 1e-6,
            model: MosfetModel {
                vto: 0.7,
                kp: 100e-6,
                lambda: 0.0,
                ..Default::default()
            },
        };
        // Vd=3, Vg=1.7, Vs=0 → vov=1, Id = 0.5·β·vov² = 0.5 mA.
        let voltages = vec![0.0, 3.0, 1.7, 0.0];
        let stamp = stamp_mosfet(&m, &voltages);
        // Companion reconstructs Id at the trial point: ieq_d = −(Id − Σg·v).
        let sum_gv: f64 = stamp
            .conductances()
            .iter()
            .filter(|(r, _, _)| *r == ids[0])
            .map(|(_, c, g)| g * node_voltage(&voltages, *c))
            .sum();
        let id = -stamp.rhs_currents()[0].1 + sum_gv;
        assert!((id - 0.5e-3).abs() < 1e-9);
    }

    #[test]
    fn pmos_conducts_with_negative_vgs() {
        let (_, ids) = nodes(3);
        let m = Mosfet {
            name: "M1".into(),
            drain: ids[0],
            gate: ids[1],
            source: ids[2],
            polarity: MosfetPolarity::Pmos,
            width: 10e-6,
            length: 1e-6,
            model: MosfetModel {
                vto: -0.7,
                kp: 100e-6,
                lambda: 0.0,
                ..Default::default()
            },
        };
        // Source at 3 V (tied to supply), gate at 1.3 V, drain at 0 V:
        // |Vgs| = 1.7 > |Vto| → conducting, |vov| = 1.
        let voltages = vec![0.0, 0.0, 1.3, 3.0];
        let op = mosfet_operating(&m, &voltages);
        assert!((op.eval.id - 0.5e-3).abs() < 1e-9);
        // Effective drain is the terminal at lower potential for a PMOS.
        assert_eq!(op.eff_drain, ids[0]);
    }

    #[test]
    fn mosfet_source_drain_swap() {
        let (_, ids) = nodes(3);
        let m = Mosfet {
            name: "M1".into(),
            drain: ids[0],
            gate: ids[1],
            source: ids[2],
            polarity: MosfetPolarity::Nmos,
            width: 10e-6,
            length: 1e-6,
            model: MosfetModel {
                vto: 0.5,
                kp: 100e-6,
                lambda: 0.0,
                ..Default::default()
            },
        };
        // Drain below source: the device should conduct "backwards".
        let voltages = vec![0.0, 0.0, 2.0, 1.0];
        let op = mosfet_operating(&m, &voltages);
        assert_eq!(op.eff_drain, ids[2]);
        assert_eq!(op.eff_source, ids[0]);
        assert!(op.eval.id > 0.0);
    }

    #[test]
    fn small_signal_capacitances_present() {
        let (_, ids) = nodes(3);
        let m = Mosfet {
            name: "M1".into(),
            drain: ids[0],
            gate: ids[1],
            source: ids[2],
            polarity: MosfetPolarity::Nmos,
            width: 10e-6,
            length: 1e-6,
            model: MosfetModel {
                cgs: 1e-14,
                cgd: 5e-15,
                cdb: 2e-15,
                ..Default::default()
            },
        };
        let caps = capacitances(&Element::Mosfet(m), &[0.0, 3.0, 1.7, 0.0]);
        assert_eq!(caps.len(), 3);
        let q = Bjt {
            name: "Q1".into(),
            collector: ids[0],
            base: ids[1],
            emitter: ids[2],
            polarity: BjtPolarity::Npn,
            model: BjtModel {
                cje: 1e-13,
                cjc: 5e-14,
                tf: 1e-10,
                ..Default::default()
            },
        };
        let caps = capacitances(&Element::Bjt(q), &[0.0, 3.0, 0.65, 0.0]);
        assert_eq!(caps.len(), 2);
        // Diffusion capacitance adds to CJE.
        let cbe = caps
            .iter()
            .find(|(a, b, _)| *a == ids[1] && *b == ids[2])
            .unwrap()
            .2;
        assert!(cbe > 1e-13);
    }
}
