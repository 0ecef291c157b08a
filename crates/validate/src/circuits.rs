//! Building a scenario's circuit from its [`CircuitSpec`].
//!
//! Netlist scenarios go through the `loopscope-netlist` text parser (so the
//! corpus also exercises the front-end); builtin scenarios call the named
//! reference builders in `loopscope-circuits`, which is how block-structured
//! and transistor-level cases are expressed without duplicating their
//! construction in JSON.

use loopscope_circuits::{blocks, opamp_with_bias, BiasParams, OpAmpParams};
use loopscope_netlist::{parse_netlist, Circuit};

use crate::golden::CircuitSpec;

/// Builds the circuit for a golden scenario.
///
/// # Errors
///
/// Returns a human-readable message when the netlist fails to parse, the
/// builtin id is unknown, or a required builtin parameter is missing.
pub fn build_circuit(spec: &CircuitSpec) -> Result<Circuit, String> {
    let circuit = match spec {
        CircuitSpec::Netlist(text) => parse_netlist(text).map_err(|e| format!("netlist: {e}"))?,
        CircuitSpec::Builtin { id, params } => build_builtin(id, params)?,
    };
    circuit.validate().map_err(|e| format!("circuit: {e}"))?;
    Ok(circuit)
}

fn param(params: &[(String, f64)], key: &str, builtin: &str) -> Result<f64, String> {
    params
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| *v)
        .ok_or_else(|| format!("builtin '{builtin}' needs numeric param '{key}'"))
}

fn count_param(params: &[(String, f64)], key: &str, builtin: &str) -> Result<usize, String> {
    let v = param(params, key, builtin)?;
    if v < 1.0 || v.fract() != 0.0 {
        return Err(format!(
            "builtin '{builtin}' param '{key}' must be a positive integer, got {v}"
        ));
    }
    Ok(v as usize)
}

fn build_builtin(id: &str, params: &[(String, f64)]) -> Result<Circuit, String> {
    match id {
        "rc_ladder" => {
            let sections = count_param(params, "sections", id)?;
            let r = param(params, "r_ohms", id)?;
            let c = param(params, "c_farads", id)?;
            Ok(blocks::rc_ladder(sections, r, c).0)
        }
        "opamp_cascade" => {
            let stages = count_param(params, "stages", id)?;
            Ok(blocks::opamp_cascade(stages).0)
        }
        "series_rlc" => {
            let r = param(params, "r_ohms", id)?;
            let l = param(params, "l_henries", id)?;
            let c = param(params, "c_farads", id)?;
            Ok(blocks::series_rlc(r, l, c).0)
        }
        "source_follower" => {
            let cload = param(params, "cload_farads", id)?;
            let lwire = param(params, "l_wire_henries", id)?;
            Ok(blocks::source_follower(cload, lwire).0)
        }
        "current_mirror" => {
            let cload = param(params, "cload_farads", id)?;
            Ok(blocks::current_mirror(cload).0)
        }
        "power_grid" => {
            let rows = count_param(params, "rows", id)?;
            let cols = count_param(params, "cols", id)?;
            Ok(blocks::power_grid(rows, cols).0)
        }
        // The paper's Table 2 circuit at its default parameters: the
        // buffered op-amp and the zero-TC bias cell in one netlist.
        "opamp_with_bias" => Ok(opamp_with_bias(&OpAmpParams::default(), &BiasParams::default()).0),
        other => Err(format!(
            "unknown builtin '{other}' (known: rc_ladder, opamp_cascade, series_rlc, \
             source_follower, current_mirror, power_grid, opamp_with_bias)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_netlist_spec() {
        let spec = CircuitSpec::Netlist("t\nV1 in 0 DC 1\nR1 in 0 1k\n.end\n".into());
        let c = build_circuit(&spec).unwrap();
        assert_eq!(c.elements().len(), 2);
    }

    #[test]
    fn builds_builtin_with_params() {
        let spec = CircuitSpec::Builtin {
            id: "rc_ladder".into(),
            params: vec![
                ("sections".into(), 3.0),
                ("r_ohms".into(), 1.0e3),
                ("c_farads".into(), 1.0e-9),
            ],
        };
        let c = build_circuit(&spec).unwrap();
        assert_eq!(c.elements().len(), 1 + 2 * 3);
    }

    #[test]
    fn builds_table2_builtin() {
        let spec = CircuitSpec::Builtin {
            id: "opamp_with_bias".into(),
            params: vec![],
        };
        let c = build_circuit(&spec).unwrap();
        for node in ["out", "stage1", "bias_out", "bias_mirror"] {
            assert!(c.find_node(node).is_some(), "{node}");
        }
    }

    #[test]
    fn builds_power_grid_builtin() {
        let spec = CircuitSpec::Builtin {
            id: "power_grid".into(),
            params: vec![("rows".into(), 4.0), ("cols".into(), 3.0)],
        };
        let c = build_circuit(&spec).unwrap();
        // 4x3 mesh: (4*2 + 3*3) resistors + 12 caps + Rdrive + Vdd.
        assert_eq!(c.elements().len(), 17 + 12 + 2);
    }

    #[test]
    fn missing_param_is_named() {
        let spec = CircuitSpec::Builtin {
            id: "opamp_cascade".into(),
            params: vec![],
        };
        let err = build_circuit(&spec).unwrap_err();
        assert!(err.contains("stages"), "{err}");
    }

    #[test]
    fn unknown_builtin_lists_known_ids() {
        let spec = CircuitSpec::Builtin {
            id: "nonsense".into(),
            params: vec![],
        };
        let err = build_circuit(&spec).unwrap_err();
        assert!(err.contains("rc_ladder"), "{err}");
    }

    #[test]
    fn netlist_errors_surface_parser_message() {
        let spec = CircuitSpec::Netlist("t\nR1 in\n.end\n".into());
        let err = build_circuit(&spec).unwrap_err();
        assert!(err.starts_with("netlist:"), "{err}");
    }
}
