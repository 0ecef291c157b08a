//! SPICE deck writer: renders a code-constructed [`Circuit`] as netlist
//! text that `loopscope_netlist::parse_netlist` reads back into the same
//! circuit.
//!
//! Elements are written in circuit order, so the parser creates nodes and
//! branch unknowns in the original order and the parsed circuit stamps the
//! identical MNA system. Values use Rust's shortest round-trip exponent
//! form, so every value parses back to the same bits. Each semiconductor
//! gets its own `.model` card. An element whose name does not start with its
//! SPICE type letter (the bias cell's `bias_*` devices) is written with that
//! letter prefixed; names only label elements, they never enter the stamps.

use loopscope_netlist::{BjtModel, BjtPolarity, Circuit, Element, MosfetModel, MosfetPolarity};
use loopscope_netlist::{NodeId, SourceSpec, Waveform};
use std::fmt::Write;

/// Renders `circuit` as a SPICE deck.
///
/// # Errors
///
/// Returns the name of the first element the deck grammar cannot express
/// (element kinds other than R, C, V, I, G, Q and M, or a pulse/sine source).
pub fn render(circuit: &Circuit) -> Result<String, String> {
    let node = |n: NodeId| circuit.node_name(n);
    let mut models = String::new();
    let mut cards = String::new();
    for el in circuit.elements() {
        let line = match el {
            Element::Resistor(r) => format!(
                "{} {} {} {:e}",
                card_name('R', &r.name),
                node(r.a),
                node(r.b),
                r.ohms
            ),
            Element::Capacitor(c) => format!(
                "{} {} {} {:e}",
                card_name('C', &c.name),
                node(c.a),
                node(c.b),
                c.farads
            ),
            Element::Vsource(v) => format!(
                "{} {} {} {}",
                card_name('V', &v.name),
                node(v.plus),
                node(v.minus),
                source(&v.spec).ok_or_else(|| v.name.clone())?
            ),
            Element::Isource(i) => format!(
                "{} {} {} {}",
                card_name('I', &i.name),
                node(i.plus),
                node(i.minus),
                source(&i.spec).ok_or_else(|| i.name.clone())?
            ),
            Element::Vccs(g) => format!(
                "{} {} {} {} {} {:e}",
                card_name('G', &g.name),
                node(g.out_plus),
                node(g.out_minus),
                node(g.ctrl_plus),
                node(g.ctrl_minus),
                g.gm
            ),
            Element::Bjt(q) => {
                let name = card_name('Q', &q.name);
                let model = format!("mod_{name}");
                models.push_str(&bjt_model(&model, q.polarity, &q.model));
                format!(
                    "{name} {} {} {} {model}",
                    node(q.collector),
                    node(q.base),
                    node(q.emitter)
                )
            }
            Element::Mosfet(m) => {
                let name = card_name('M', &m.name);
                let model = format!("mod_{name}");
                models.push_str(&mosfet_model(&model, m.polarity, &m.model));
                format!(
                    "{name} {} {} {} {model} W={:e} L={:e}",
                    node(m.drain),
                    node(m.gate),
                    node(m.source),
                    m.width,
                    m.length
                )
            }
            other => return Err(other.name().to_string()),
        };
        cards.push_str(&line);
        cards.push('\n');
    }
    Ok(format!("{}\n{models}{cards}.end\n", circuit.title()))
}

fn card_name(letter: char, name: &str) -> String {
    if name.starts_with([letter, letter.to_ascii_lowercase()]) {
        name.to_string()
    } else {
        format!("{letter}{name}")
    }
}

/// The source tokens after the two nodes; `None` for waveforms the deck
/// grammar has no card for.
fn source(spec: &SourceSpec) -> Option<String> {
    let mut out = format!(
        "DC {:e} AC {:e} {:e}",
        spec.dc, spec.ac_mag, spec.ac_phase_deg
    );
    match spec.waveform {
        Waveform::Constant => {}
        Waveform::Step {
            initial,
            final_value,
            delay,
        } => write!(out, " STEP {initial:e} {final_value:e} {delay:e}").ok()?,
        Waveform::Pulse { .. } | Waveform::Sine { .. } => return None,
    }
    Some(out)
}

fn bjt_model(name: &str, polarity: BjtPolarity, m: &BjtModel) -> String {
    let kind = match polarity {
        BjtPolarity::Npn => "NPN",
        BjtPolarity::Pnp => "PNP",
    };
    let mut card = format!(
        ".model {name} {kind} is={:e} bf={:e} br={:e} cje={:e} cjc={:e} tf={:e}",
        m.is, m.bf, m.br, m.cje, m.cjc, m.tf
    );
    // An infinite Early voltage is the parser's default and has no literal.
    if m.vaf.is_finite() {
        let _ = write!(card, " vaf={:e}", m.vaf);
    }
    card.push('\n');
    card
}

fn mosfet_model(name: &str, polarity: MosfetPolarity, m: &MosfetModel) -> String {
    let kind = match polarity {
        MosfetPolarity::Nmos => "NMOS",
        MosfetPolarity::Pmos => "PMOS",
    };
    format!(
        ".model {name} {kind} vto={:e} kp={:e} lambda={:e} cgs={:e} cgd={:e} cdb={:e}\n",
        m.vto, m.kp, m.lambda, m.cgs, m.cgd, m.cdb
    )
}
