//! The JSON-lines request/response protocol.
//!
//! One request per line, one response line per request, in order:
//!
//! ```json
//! {"op": "predict", "id": 7, "model": "cap_ensemble", "netlist": "mp o i vdd vdd pch\n.end\n"}
//! {"id": 7, "ok": true, "result": {"model": "cap_ensemble", ...}, "cached": false}
//! ```
//!
//! Every response carries the request's `id` verbatim (or `null`), an
//! `ok` flag, and either a `result` object or a structured `error` with a
//! machine-readable `code`. A predict answer travels as an [`Envelope`]
//! whose `result` is already rendered JSON text, spliced in on the wire.

use std::sync::Arc;

use serde_json::{json, Value};

/// Requestable operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Run model inference on a SPICE netlist.
    Predict,
    /// Circuit and graph statistics for a SPICE netlist.
    Stats,
    /// Electrical rule checks for a SPICE netlist.
    Erc,
    /// Liveness plus registry summary.
    Health,
    /// Service counters, latency histograms, queue depth, cache stats.
    Metrics,
    /// Re-scan the model directory and atomically swap the registry.
    Reload,
    /// Deliberately panic in a worker (only honoured when the service
    /// was built with `enable_debug_ops`; used to test panic isolation).
    DebugPanic,
}

impl Op {
    /// All operations, indexable by [`Op::index`].
    pub const ALL: [Op; 7] = [
        Op::Predict,
        Op::Stats,
        Op::Erc,
        Op::Health,
        Op::Metrics,
        Op::Reload,
        Op::DebugPanic,
    ];

    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            Op::Predict => "predict",
            Op::Stats => "stats",
            Op::Erc => "erc",
            Op::Health => "health",
            Op::Metrics => "metrics",
            Op::Reload => "reload",
            Op::DebugPanic => "debug_panic",
        }
    }

    /// Stable position in [`Op::ALL`] (used by the metrics tables).
    pub fn index(self) -> usize {
        Op::ALL.iter().position(|&o| o == self).expect("listed")
    }

    fn from_name(name: &str) -> Option<Op> {
        Op::ALL.into_iter().find(|o| o.name() == name)
    }
}

/// Error codes a response's `error.code` field can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed JSON, missing/invalid fields, or an unknown `op`.
    BadRequest,
    /// The netlist failed to parse or flatten.
    InvalidNetlist,
    /// The named model is not in the registry.
    UnknownModel,
    /// The request queue is full; retry later.
    Overloaded,
    /// The deadline passed before a worker picked the request up.
    DeadlineExceeded,
    /// A worker panicked or the registry reload failed.
    Internal,
}

impl ErrorCode {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::InvalidNetlist => "invalid_netlist",
            ErrorCode::UnknownModel => "unknown_model",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A structured service error: machine-readable code plus a message.
#[derive(Debug, Clone)]
pub struct ServeError {
    /// Machine-readable category.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ServeError {
    /// Builds an error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

impl std::error::Error for ServeError {}

/// A parsed request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// Echoed verbatim in the response (`null` when absent).
    pub id: Value,
    /// Requested operation.
    pub op: Op,
    /// Model key (`predict` only); `None` selects the default.
    pub model: Option<String>,
    /// SPICE netlist text (`predict`/`stats`/`erc`).
    pub netlist: Option<String>,
    /// Per-request deadline relative to arrival; `None` uses the
    /// service default.
    pub deadline_ms: Option<u64>,
    /// When `true` the response carries a `debug` object with the
    /// request ID and per-stage latency breakdown.
    pub debug: bool,
}

impl Request {
    /// Parses one JSON line.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] with [`ErrorCode::BadRequest`] on
    /// malformed JSON, a non-object, a missing/unknown `op`, or
    /// wrongly-typed fields.
    pub fn parse(line: &str) -> Result<Request, ServeError> {
        let value = serde_json::from_str(line).map_err(malformed_json)?;
        Request::from_value(value)
    }

    /// [`Request::parse`] of an already parsed JSON line, moving the
    /// netlist text out of it rather than copying it.
    pub(crate) fn from_value(value: Value) -> Result<Request, ServeError> {
        let bad = |m: String| ServeError::new(ErrorCode::BadRequest, m);
        let Value::Object(mut obj) = value else {
            return Err(bad("request must be a JSON object".into()));
        };
        for (key, _) in obj.iter() {
            if !matches!(
                key.as_str(),
                "op" | "id" | "model" | "netlist" | "deadline_ms" | "debug"
            ) {
                return Err(bad(format!("unknown field '{key}'")));
            }
        }
        let op_name = obj
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("missing string field 'op'".into()))?;
        let op = Op::from_name(op_name).ok_or_else(|| bad(format!("unknown op '{op_name}'")))?;
        let deadline_ms = match obj.get("deadline_ms") {
            None | Some(Value::Null) => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| {
                bad(format!(
                    "field 'deadline_ms' must be a non-negative integer, got {}",
                    v.kind_name()
                ))
            })?),
        };
        let debug = match obj.get("debug") {
            None | Some(Value::Null) => false,
            Some(Value::Bool(b)) => *b,
            Some(other) => {
                return Err(bad(format!(
                    "field 'debug' must be a boolean, got {}",
                    other.kind_name()
                )))
            }
        };
        let mut take_str = |key: &str| -> Result<Option<String>, ServeError> {
            match obj.remove(key) {
                None | Some(Value::Null) => Ok(None),
                Some(Value::String(s)) => Ok(Some(s)),
                Some(other) => Err(bad(format!(
                    "field '{key}' must be a string, got {}",
                    other.kind_name()
                ))),
            }
        };
        Ok(Request {
            op,
            model: take_str("model")?,
            netlist: take_str("netlist")?,
            id: obj.remove("id").unwrap_or(Value::Null),
            deadline_ms,
            debug,
        })
    }
}

/// The `bad_request` error for a line that is not JSON.
pub(crate) fn malformed_json(err: serde_json::Error) -> ServeError {
    ServeError::new(ErrorCode::BadRequest, format!("malformed JSON: {err}"))
}

/// Builds a success response envelope. `cached` is reported for
/// `predict` so clients can observe cache behaviour; the `result`
/// payload itself is identical on both paths.
pub fn ok_response(id: &Value, result: Value, cached: Option<bool>) -> Value {
    let mut v = json!({"id": id.clone(), "ok": true});
    v["result"] = result; // moved in: `json!` would copy it
    if let Some(c) = cached {
        v["cached"] = Value::Bool(c);
    }
    v
}

/// Builds an error response envelope.
pub fn error_response(id: &Value, err: &ServeError) -> Value {
    json!({
        "id": id.clone(),
        "ok": false,
        "error": {"code": err.code.as_str(), "message": err.message},
    })
}

/// A response on its way to the wire: a predict answer with its
/// `result` as rendered JSON text, or any other answer as a [`Value`].
#[derive(Debug)]
pub enum Envelope {
    /// A predict answer.
    Predict(PredictEnvelope),
    /// Every other answer: errors, control plane, `stats` and `erc`.
    Value(Value),
}

impl From<Value> for Envelope {
    fn from(value: Value) -> Self {
        Envelope::Value(value)
    }
}

impl Envelope {
    /// The envelope as one compact JSON line (without trailing newline).
    pub fn render(&self) -> String {
        match self {
            Envelope::Predict(p) => p.render(),
            Envelope::Value(v) => serde_json::to_string(v).expect("envelope serialises"),
        }
    }

    /// The envelope as a [`Value`]. A predict answer that kept the tree
    /// its text was rendered from returns it; one served from the cache
    /// parses its text.
    pub fn into_value(self) -> Value {
        match self {
            Envelope::Predict(p) => p.into_value(),
            Envelope::Value(v) => v,
        }
    }

    /// The envelope's `ok` flag.
    pub(crate) fn is_ok(&self) -> bool {
        match self {
            Envelope::Predict(_) => true,
            Envelope::Value(v) => v["ok"].as_bool() == Some(true),
        }
    }

    /// Appends the `debug` field.
    pub(crate) fn set_debug(&mut self, debug: Value) {
        match self {
            Envelope::Predict(p) => p.debug = Some(debug),
            Envelope::Value(v) => v["debug"] = debug,
        }
    }
}

/// `{"id": .., "ok": true, "result": .., "cached": .., "debug": ..}` of a
/// predict, `debug` only when asked for, with `result` held as the JSON
/// text it renders to. The cache stores that text, so a hit shares it
/// and renders nothing but the envelope around it.
#[derive(Debug)]
pub struct PredictEnvelope {
    id: Value,
    result: Arc<str>,
    /// The tree `result` was rendered from, kept by a miss so an
    /// in-process caller gets it back without a parse.
    tree: Option<Value>,
    cached: bool,
    debug: Option<Value>,
}

impl PredictEnvelope {
    /// A fresh answer: `result` rendered from `tree`.
    pub(crate) fn miss(id: Value, result: Arc<str>, tree: Value) -> Self {
        Self {
            id,
            result,
            tree: Some(tree),
            cached: false,
            debug: None,
        }
    }

    /// An answer from the cache.
    pub(crate) fn hit(id: Value, result: Arc<str>) -> Self {
        Self {
            id,
            result,
            tree: None,
            cached: true,
            debug: None,
        }
    }

    /// The bytes `serde_json::to_string` gives for
    /// [`PredictEnvelope::into_value`], with `result` copied in verbatim.
    fn render(&self) -> String {
        let json = |v: &Value| serde_json::to_string(v).expect("envelope field serialises");
        let id = json(&self.id);
        let debug = self.debug.as_ref().map(json);
        let debug_len = debug.as_ref().map_or(0, String::len);
        let mut out = String::with_capacity(self.result.len() + id.len() + debug_len + 48);
        out.push_str("{\"id\":");
        out.push_str(&id);
        out.push_str(",\"ok\":true,\"result\":");
        out.push_str(&self.result);
        out.push_str(if self.cached {
            ",\"cached\":true"
        } else {
            ",\"cached\":false"
        });
        if let Some(debug) = &debug {
            out.push_str(",\"debug\":");
            out.push_str(debug);
        }
        out.push('}');
        out
    }

    fn into_value(self) -> Value {
        let result = self.tree.unwrap_or_else(|| {
            serde_json::from_str(&self.result).expect("a rendered result parses")
        });
        let mut envelope = ok_response(&self.id, result, Some(self.cached));
        if let Some(debug) = self.debug {
            envelope["debug"] = debug;
        }
        envelope
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_and_full_requests() {
        let r = Request::parse(r#"{"op": "health"}"#).unwrap();
        assert_eq!(r.op, Op::Health);
        assert!(r.id.is_null() && r.model.is_none() && r.deadline_ms.is_none());
        assert!(!r.debug);

        let r = Request::parse(
            r#"{"op": "predict", "id": 3, "model": "m", "netlist": ".end", "deadline_ms": 250, "debug": true}"#,
        )
        .unwrap();
        assert_eq!(r.op, Op::Predict);
        assert_eq!(r.id.as_u64(), Some(3));
        assert_eq!(r.model.as_deref(), Some("m"));
        assert_eq!(r.netlist.as_deref(), Some(".end"));
        assert_eq!(r.deadline_ms, Some(250));
        assert!(r.debug);
    }

    #[test]
    fn rejects_malformed_lines() {
        for line in [
            "not json",
            "[1, 2]",
            r#"{"id": 1}"#,
            r#"{"op": "launch_missiles"}"#,
            r#"{"op": "predict", "netlist": 5}"#,
            r#"{"op": "predict", "deadline_ms": "soon"}"#,
            r#"{"op": "predict", "surprise": true}"#,
            r#"{"op": "predict", "debug": "yes"}"#,
        ] {
            let err = Request::parse(line).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{line}");
            assert!(!err.message.is_empty());
        }
    }

    #[test]
    fn envelopes_carry_id_and_code() {
        let id = Value::String("req-9".into());
        let ok = ok_response(&id, json!({"x": 1}), Some(true));
        assert_eq!(ok["id"].as_str(), Some("req-9"));
        assert_eq!(ok["ok"].as_bool(), Some(true));
        assert_eq!(ok["cached"].as_bool(), Some(true));
        let err = error_response(&id, &ServeError::new(ErrorCode::Overloaded, "queue full"));
        assert_eq!(err["ok"].as_bool(), Some(false));
        assert_eq!(err["error"]["code"].as_str(), Some("overloaded"));
    }

    /// A predict envelope renders the bytes of the same envelope built as
    /// a `Value`, and gives that `Value` back whether it kept the tree or
    /// parses its text.
    #[test]
    fn predict_envelope_renders_as_its_value() {
        let result = json!({
            "model": "cap_ensemble",
            "target": "CAP",
            "members": 4,
            "predictions": [
                {"net": "o", "value": 1.25e-15},
                {"net": "n\"1\\x", "value": -3.5},
            ],
        });
        let text: Arc<str> = serde_json::to_string(&result).unwrap().into();
        let ids = [
            Value::Null,
            json!(0),
            json!(-7),
            json!(1.5),
            json!("q\"uote b\\ack \u{1}\u{1f}\n\t é漢🦀"),
            json!({"batch": [1, "two"], "none": null}),
        ];
        let stages = json!({"parse_us": 12.5, "total_us": 40});
        let debug = json!({"request_id": "req-9", "cache_hit": true, "stages": stages});
        for id in &ids {
            for cached in [false, true] {
                for debug in [None, Some(&debug)] {
                    let mut expected = serde_json::Map::new();
                    expected.insert("id", id.clone());
                    expected.insert("ok", Value::Bool(true));
                    expected.insert("result", result.clone());
                    expected.insert("cached", Value::Bool(cached));
                    if let Some(debug) = debug {
                        expected.insert("debug", debug.clone());
                    }
                    let expected = Value::Object(expected);
                    let wire = serde_json::to_string(&expected).unwrap();
                    for tree in [None, Some(result.clone())] {
                        let envelope = Envelope::Predict(PredictEnvelope {
                            id: id.clone(),
                            result: Arc::clone(&text),
                            tree,
                            cached,
                            debug: debug.cloned(),
                        });
                        assert!(envelope.is_ok());
                        assert_eq!(envelope.render(), wire, "id {id:?}, cached {cached}");
                        assert_eq!(envelope.into_value(), expected, "id {id:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn op_indices_are_stable() {
        for (i, op) in Op::ALL.into_iter().enumerate() {
            assert_eq!(op.index(), i);
            assert_eq!(Op::from_name(op.name()), Some(op));
        }
    }
}
