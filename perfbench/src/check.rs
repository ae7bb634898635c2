//! Answer checks, made outside the timed phase against in-process
//! references.

use paragraph::Target;
use paragraph_netlist::{parse_spice, Circuit};
use serde_json::Value;

/// Int8 answers may differ from the lone-request int8 reference by this
/// much in training (scaled) space: the bound the executor parity suite
/// pins for calibrated batched int8 (`max_rel_err` with a 0.05 floor in
/// `crates/exec/tests/parity.rs`).
pub const INT8_TOLERANCE: f64 = 0.15;
/// Absolute floor of the int8 relative error, as in the parity suite.
pub const INT8_FLOOR: f64 = 0.05;

/// Parses and flattens a request netlist, as the service does.
///
/// # Errors
///
/// The parse or flatten error.
pub fn circuit(netlist: &str) -> Result<Circuit, String> {
    parse_spice(netlist)
        .map_err(|e| e.to_string())?
        .flatten()
        .map_err(|e| e.to_string())
}

/// Whether a serialized response envelope reports `"ok": true` (the
/// flag sits right after the id, so only the head is searched).
pub fn envelope_ok(body: &[u8]) -> bool {
    crate::http::contains(&body[..body.len().min(48)], b"\"ok\":true")
}

/// A reference prediction vector as the `(net, value)` pairs the
/// service renders: nets in id order, rails (`None`) skipped.
pub fn expected_pairs(circuit: &Circuit, preds: &[Option<f64>]) -> Vec<(String, f64)> {
    circuit
        .nets()
        .iter()
        .zip(preds)
        .filter_map(|(net, p)| p.map(|v| (net.name.clone(), v)))
        .collect()
}

/// The `(net, value)` pairs of a response envelope's
/// `result.predictions`.
///
/// # Errors
///
/// When the envelope is not ok or the predictions are malformed.
pub fn served_pairs(envelope: &Value) -> Result<Vec<(String, f64)>, String> {
    if envelope["ok"].as_bool() != Some(true) {
        return Err(format!("not ok: {:?}", envelope["error"]));
    }
    let preds = match &envelope["result"]["predictions"] {
        Value::Array(items) => items,
        other => return Err(format!("no predictions array: {other:?}")),
    };
    preds
        .iter()
        .map(|p| match (p["net"].as_str(), p["value"].as_f64()) {
            (Some(net), Some(v)) => Ok((net.to_owned(), v)),
            _ => Err(format!("malformed prediction {p:?}")),
        })
        .collect()
}

/// Parses a serialized envelope and returns its prediction pairs.
///
/// # Errors
///
/// When the body is not JSON or [`served_pairs`] fails.
pub fn served_pairs_from_body(body: &[u8]) -> Result<Vec<(String, f64)>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8")?;
    let envelope: Value = serde_json::from_str(text).map_err(|e| format!("bad JSON: {e}"))?;
    served_pairs(&envelope)
}

/// Every net present in both, with bit-identical values.
///
/// # Errors
///
/// Names the first mismatch.
pub fn bitwise_equal(served: &[(String, f64)], expected: &[(String, f64)]) -> Result<(), String> {
    if served.len() != expected.len() {
        return Err(format!(
            "{} predictions served, {} expected",
            served.len(),
            expected.len()
        ));
    }
    for ((sn, sv), (en, ev)) in served.iter().zip(expected) {
        if sn != en || sv.to_bits() != ev.to_bits() {
            return Err(format!("net {sn} = {sv:e}, reference {en} = {ev:e}"));
        }
    }
    Ok(())
}

/// Every net present in both, within [`INT8_TOLERANCE`] in the model's
/// training space.
///
/// # Errors
///
/// Names the worst mismatch.
pub fn within_int8_tolerance(
    served: &[(String, f64)],
    expected: &[(String, f64)],
    max_value: Option<f64>,
) -> Result<(), String> {
    if served.len() != expected.len() {
        return Err(format!(
            "{} predictions served, {} expected",
            served.len(),
            expected.len()
        ));
    }
    let scaled = |v: f64| f64::from(Target::Cap.scale_with(max_value, v));
    for ((sn, sv), (en, ev)) in served.iter().zip(expected) {
        let (s, e) = (scaled(*sv), scaled(*ev));
        let err = (s - e).abs() / e.abs().max(INT8_FLOOR);
        if sn != en || !err.is_finite() || err >= INT8_TOLERANCE {
            return Err(format!(
                "net {sn}: int8 {sv:e} vs reference {en} {ev:e} (scaled error {err:.3})"
            ));
        }
    }
    Ok(())
}
