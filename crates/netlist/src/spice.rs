//! SPICE-subset netlist parser and writer.
//!
//! The dialect covers what analog/mixed-signal schematic exports use:
//! `M`/`R`/`C`/`D`/`Q`/`X` cards, `key=value` parameters with engineering
//! suffixes, `.subckt`/`.ends`, `+` continuation lines, and `*`/`$`
//! comments.

use std::borrow::Cow;
use std::fmt::{self, Write};

use crate::circuit::{Circuit, DeviceKind, DeviceParams, MosPolarity};
use crate::hierarchy::{Instance, Netlist, Subckt};
use crate::units::{parse_value, starts_with_ignore_case, write_value};

/// Error from [`parse_spice`], with the 1-based source line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSpiceError {
    /// 1-based line number of the offending card.
    pub line: usize,
    message: String,
}

impl fmt::Display for ParseSpiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseSpiceError {}

/// Parses a SPICE-subset netlist into a hierarchical [`Netlist`].
///
/// # Errors
///
/// Returns [`ParseSpiceError`] on malformed cards, unknown models, or
/// mismatched `.subckt`/`.ends`.
///
/// # Examples
///
/// ```
/// let src = "\
/// * inverter
/// .subckt inv in out vdd vss
/// mp out in vdd vdd pch l=16n nfin=4 nf=2
/// mn out in vss vss nch l=16n nfin=2
/// .ends
/// xtop a b vdd vss inv
/// ";
/// let netlist = paragraph_netlist::parse_spice(src).unwrap();
/// let flat = netlist.flatten().unwrap();
/// assert_eq!(flat.num_devices(), 2);
/// ```
pub fn parse_spice(source: &str) -> Result<Netlist, ParseSpiceError> {
    let source = source.to_ascii_lowercase();
    let lines = logical_lines(&source);
    let mut netlist = Netlist::new("top");
    let mut current: Option<Subckt> = None;
    // One token buffer and one parameter split, reused by every card.
    let (mut tokens, mut positional, mut kv) = (Vec::new(), Vec::new(), Vec::new());

    for (line_no, line) in &lines {
        let err = |message: String| ParseSpiceError {
            line: *line_no,
            message,
        };
        tokens.clear();
        tokens.extend(line.split_whitespace());
        let Some(&card) = tokens.first() else {
            continue;
        };
        if card.starts_with(".subckt") {
            if current.is_some() {
                return Err(err("nested .subckt is not supported".into()));
            }
            if tokens.len() < 2 {
                return Err(err(".subckt needs a name".into()));
            }
            let name = tokens[1].to_owned();
            let ports = tokens[2..].iter().map(|s| s.to_string()).collect();
            current = Some(Subckt {
                name: name.clone(),
                ports,
                circuit: Circuit::new(name),
                instances: Vec::new(),
            });
            continue;
        }
        if card.starts_with(".ends") {
            let sub = current
                .take()
                .ok_or_else(|| err(".ends without .subckt".into()))?;
            netlist.add_subckt(sub);
            continue;
        }
        if card.starts_with('.') {
            // `.end`, `.option`, `.global` and unknown dot-cards (models,
            // temperature, ...) carry nothing the netlist keeps.
            continue;
        }

        let scope = current.as_mut().unwrap_or(&mut netlist.top);
        split_params(&tokens[1..], &mut positional, &mut kv);
        parse_card(card, &positional, &kv, scope).map_err(err)?;
    }

    if let Some(sub) = current {
        return Err(ParseSpiceError {
            line: source.lines().count(),
            message: format!("unterminated .subckt '{}'", sub.name),
        });
    }
    Ok(netlist)
}

/// Joins `+` continuation lines and strips comments; yields
/// `(line_number, logical_line)`. A line is borrowed from `source`
/// unless continuations were appended to it.
fn logical_lines(source: &str) -> Vec<(usize, Cow<'_, str>)> {
    let mut out: Vec<(usize, Cow<'_, str>)> = Vec::new();
    for (i, raw) in source.lines().enumerate() {
        // `$` / `;` start a trailing comment only at line start or after
        // whitespace (mid-token they are part of a name).
        let mut cut = raw.len();
        let bytes = raw.as_bytes();
        for (pos, c) in raw.char_indices() {
            if (c == '$' || c == ';') && (pos == 0 || bytes[pos - 1].is_ascii_whitespace()) {
                cut = pos;
                break;
            }
        }
        let trimmed = raw[..cut].trim();
        if trimmed.is_empty() || trimmed.starts_with('*') {
            continue;
        }
        if let Some(cont) = trimmed.strip_prefix('+') {
            if let Some((_, last)) = out.last_mut() {
                let joined = last.to_mut();
                joined.push(' ');
                joined.push_str(cont.trim());
                continue;
            }
        }
        out.push((i + 1, Cow::Borrowed(trimmed)));
    }
    out
}

/// Splits a card's tokens after its name into positional tokens and
/// `key=value` pairs, reusing both buffers.
fn split_params<'a>(
    tokens: &[&'a str],
    positional: &mut Vec<&'a str>,
    kv: &mut Vec<(&'a str, &'a str)>,
) {
    positional.clear();
    kv.clear();
    for t in tokens {
        match t.split_once('=') {
            Some(pair) => kv.push(pair),
            None => positional.push(t),
        }
    }
}

fn parse_card(
    name: &str,
    positional: &[&str],
    kv: &[(&str, &str)],
    scope: &mut Subckt,
) -> Result<(), String> {
    let kind_char = name.chars().next().unwrap();
    let get = |key: &str| -> Option<f64> {
        kv.iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| parse_value(v).ok())
    };

    match kind_char {
        'm' => {
            if positional.len() < 5 {
                return Err(format!("mosfet '{name}' needs 4 nets + model"));
            }
            let model = positional[4];
            let (polarity, thick) =
                mos_model(model).ok_or_else(|| format!("unknown mosfet model '{model}'"))?;
            let params = DeviceParams {
                l: get("l").unwrap_or(16e-9),
                w: get("w").unwrap_or(0.0),
                nf: get("nf").unwrap_or(1.0) as u32,
                nfin: get("nfin").unwrap_or(2.0) as u32,
                multi: get("m").unwrap_or(1.0) as u32,
                value: 0.0,
            };
            let [d, g, s, b] = [0, 1, 2, 3].map(|i| scope.circuit.net(positional[i]));
            scope
                .circuit
                .add_mosfet(name, polarity, thick, d, g, s, b, params);
        }
        'r' => {
            if positional.len() < 3 {
                return Err(format!("resistor '{name}' needs 2 nets + value"));
            }
            let [p, n] = [0, 1].map(|i| scope.circuit.net(positional[i]));
            let ohms = parse_value(positional[2]).map_err(|e| e.to_string())?;
            let l = get("l").unwrap_or(1e-6);
            scope.circuit.add_resistor(name, p, n, ohms, l);
        }
        'c' => {
            if positional.len() < 3 {
                return Err(format!("capacitor '{name}' needs 2 nets + value"));
            }
            let [p, n] = [0, 1].map(|i| scope.circuit.net(positional[i]));
            let farads = parse_value(positional[2]).map_err(|e| e.to_string())?;
            let multi = get("m").unwrap_or(1.0) as u32;
            scope.circuit.add_capacitor(name, p, n, farads, multi);
        }
        'd' => {
            if positional.len() < 2 {
                return Err(format!("diode '{name}' needs 2 nets"));
            }
            let [p, n] = [0, 1].map(|i| scope.circuit.net(positional[i]));
            let nf = get("nf").unwrap_or(1.0) as u32;
            scope.circuit.add_diode(name, p, n, nf);
        }
        'q' => {
            if positional.len() < 4 {
                return Err(format!("bjt '{name}' needs 3 nets + model"));
            }
            let [c, b, e] = [0, 1, 2].map(|i| scope.circuit.net(positional[i]));
            let pnp = positional[3].contains("pnp");
            scope.circuit.add_bjt(name, pnp, c, b, e);
        }
        'x' => {
            if positional.len() < 2 {
                return Err(format!("instance '{name}' needs nets + subckt name"));
            }
            let subckt = positional.last().unwrap().to_string();
            let conns = positional[..positional.len() - 1]
                .iter()
                .map(|s| s.to_string())
                .collect();
            scope.instances.push(Instance {
                name: name.to_owned(),
                subckt,
                conns,
            });
        }
        other => return Err(format!("unsupported card '{other}'")),
    }
    Ok(())
}

fn mos_model(model: &str) -> Option<(MosPolarity, bool)> {
    let thick = model.contains("25") || model.contains("hv") || model.contains("thick");
    if model.starts_with('n') {
        Some((MosPolarity::Nmos, thick))
    } else if model.starts_with('p') {
        Some((MosPolarity::Pmos, thick))
    } else {
        None
    }
}

/// Serialises a hierarchical netlist back to SPICE text.
///
/// Round-trips with [`parse_spice`]: `parse(write(n))` reproduces the same
/// flattened circuit.
pub fn write_spice(netlist: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "* netlist {}", netlist.top.name);
    for sub in &netlist.subckts {
        let _ = writeln!(out, ".subckt {} {}", sub.name, sub.ports.join(" "));
        write_body(&mut out, &sub.circuit, &sub.instances);
        out.push_str(".ends\n");
    }
    write_body(&mut out, &netlist.top.circuit, &netlist.top.instances);
    out.push_str(".end\n");
    out
}

/// Serialises a flat circuit as a top-level SPICE deck.
pub fn write_flat_spice(circuit: &Circuit) -> String {
    // Cards run ~50–80 bytes; reserving up front spares the regrowth.
    let mut out = String::with_capacity(64 + 80 * circuit.num_devices());
    let _ = writeln!(out, "* flat circuit {}", circuit.name);
    write_body(&mut out, circuit, &[]);
    out.push_str(".end\n");
    out
}

fn write_body(out: &mut String, circuit: &Circuit, instances: &[Instance]) {
    for d in circuit.devices() {
        let p = &d.params;
        let prefix = match d.kind {
            DeviceKind::Mosfet { .. } => "m",
            DeviceKind::Resistor => "r",
            DeviceKind::Capacitor => "c",
            DeviceKind::Diode => "d",
            DeviceKind::Bjt { .. } => "q",
        };
        write_card_name(out, &d.name, prefix);
        for (_, net) in &d.conns {
            out.push(' ');
            out.push_str(&circuit.net_ref(*net).name);
        }
        match d.kind {
            DeviceKind::Mosfet {
                polarity,
                thick_gate,
            } => {
                let model = match (polarity, thick_gate) {
                    (MosPolarity::Nmos, false) => "nch",
                    (MosPolarity::Pmos, false) => "pch",
                    (MosPolarity::Nmos, true) => "nch_hv",
                    (MosPolarity::Pmos, true) => "pch_hv",
                };
                let _ = write!(out, " {model} l=");
                write_value(out, p.l);
                let _ = write!(out, " nfin={} nf={} m={}", p.nfin, p.nf, p.multi);
            }
            DeviceKind::Resistor => {
                out.push(' ');
                write_value(out, p.value);
                out.push_str(" l=");
                write_value(out, p.l);
            }
            DeviceKind::Capacitor => {
                out.push(' ');
                write_value(out, p.value);
                let _ = write!(out, " m={}", p.multi);
            }
            DeviceKind::Diode => {
                let _ = write!(out, " dnom nf={}", p.nf);
            }
            DeviceKind::Bjt { pnp } => out.push_str(if pnp { " pnp" } else { " npn" }),
        }
        out.push('\n');
    }
    for inst in instances {
        write_card_name(out, &inst.name, "x");
        let _ = writeln!(out, " {} {}", inst.conns.join(" "), inst.subckt);
    }
}

/// SPICE cards are typed by their first letter; prefix names that would
/// otherwise parse as a different card (device names from flattening may
/// start with any letter).
fn write_card_name(out: &mut String, name: &str, prefix: &str) {
    if !starts_with_ignore_case(name, prefix) {
        out.push_str(prefix);
        out.push('_');
    }
    out.push_str(name);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::NetClass;

    const INV_CHAIN: &str = "\
* two inverters
.subckt inv in out vdd vss
mp out in vdd vdd pch l=16n nfin=4 nf=2 m=1
mn out in vss vss nch l=16n nfin=2
.ends
x0 a b vdd vss inv
x1 b z vdd vss inv
c0 z vss 1.5f
.end
";

    #[test]
    fn parses_and_flattens_chain() {
        let nl = parse_spice(INV_CHAIN).unwrap();
        assert_eq!(nl.subckts.len(), 1);
        let flat = nl.flatten().unwrap();
        flat.validate().unwrap();
        assert_eq!(flat.num_devices(), 5);
        assert_eq!(flat.kind_counts().cap, 1);
        let vdd = flat.find_net("vdd").unwrap();
        assert_eq!(flat.net_ref(vdd).class, NetClass::Supply);
    }

    #[test]
    fn continuation_lines_join() {
        let src = "\
mp out in vdd vdd pch l=16n\n+ nfin=8 nf=4\n.end\n";
        let nl = parse_spice(src).unwrap();
        let flat = nl.flatten().unwrap();
        assert_eq!(flat.devices()[0].params.nfin, 8);
        assert_eq!(flat.devices()[0].params.nf, 4);
    }

    #[test]
    fn comments_are_stripped() {
        let src = "* header\nr1 a b 2.2k $ trailing\nc1 a 0 1p ; other\n.end\n";
        let flat = parse_spice(src).unwrap().flatten().unwrap();
        assert_eq!(flat.num_devices(), 2);
        assert_eq!(flat.devices()[0].params.value, 2200.0);
    }

    #[test]
    fn roundtrip_preserves_flat_circuit() {
        let nl = parse_spice(INV_CHAIN).unwrap();
        let flat1 = nl.clone().flatten().unwrap();
        let text = write_spice(&nl);
        let flat2 = parse_spice(&text).unwrap().flatten().unwrap();
        assert_eq!(flat1.num_devices(), flat2.num_devices());
        assert_eq!(flat1.num_nets(), flat2.num_nets());
        assert_eq!(flat1.kind_counts(), flat2.kind_counts());
    }

    #[test]
    fn error_reports_line_number() {
        let src = "* ok\nm1 a b c\n";
        let err = parse_spice(src).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("mosfet"));
    }

    #[test]
    fn unterminated_subckt_errors() {
        let err = parse_spice(".subckt foo a b\nr1 a b 1k\n").unwrap_err();
        assert!(err.to_string().contains("unterminated"));
    }

    #[test]
    fn thick_gate_models() {
        let flat = parse_spice("m1 d g s b nch_hv l=150n\n.end\n")
            .unwrap()
            .flatten()
            .unwrap();
        assert!(matches!(
            flat.devices()[0].kind,
            DeviceKind::Mosfet {
                thick_gate: true,
                polarity: MosPolarity::Nmos
            }
        ));
    }

    #[test]
    fn write_flat_roundtrip() {
        let flat1 = parse_spice(INV_CHAIN).unwrap().flatten().unwrap();
        let text = write_flat_spice(&flat1);
        let flat2 = parse_spice(&text).unwrap().flatten().unwrap();
        assert_eq!(flat1.kind_counts(), flat2.kind_counts());
        // Prefixed names still resolve to the same devices.
        assert_eq!(flat1.num_nets(), flat2.num_nets());
    }
}
