//! Per-connection state machine for the gateway's evented loop.
//!
//! Each [`Conn`] wraps one nonblocking [`TcpStream`] and is ticked by
//! its shard: flush pending output, poll the in-flight request, read
//! whatever bytes are available, and drive the protocol forward. The
//! first non-whitespace byte decides the protocol — `{` means the
//! JSON-lines line protocol, anything else is parsed as HTTP/1.1 — so
//! both kinds of client share one port.
//!
//! One request is in flight per connection at a time: responses stay in
//! order (JSON-lines contract, HTTP pipelining) and a connection that
//! floods requests is back-pressured by simply not reading more until
//! the current one resolves.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use serde_json::Value;

use super::http::{self, HttpParse};
use super::ShardCtx;
use crate::protocol::{error_response, Envelope, ErrorCode, Op, Request, ServeError};
use crate::service::PendingCall;
use crate::service::Submitted;

/// What the first bytes said this connection speaks.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Proto {
    /// Nothing but whitespace seen yet.
    Undecided,
    /// The JSON-lines protocol: one response line per request line.
    JsonLines,
    /// HTTP/1.1 (or 1.0) keep-alive.
    Http,
}

/// How to encode the in-flight request's response when it resolves.
#[derive(Debug, Clone, Copy)]
enum RespKind {
    /// One compact JSON line plus `\n`.
    JsonLine,
    /// An HTTP response; `keep_alive` false closes after the flush.
    Http { keep_alive: bool },
}

/// One gateway connection.
pub(super) struct Conn {
    stream: TcpStream,
    /// Unparsed request bytes.
    buf: Vec<u8>,
    /// Encoded response bytes not yet written.
    out: Vec<u8>,
    /// How much of `out` has been written.
    out_pos: usize,
    proto: Proto,
    inflight: Option<(PendingCall, RespKind)>,
    /// Last time this connection made progress (bytes moved or a
    /// request resolved); drives the stall and idle deadlines.
    last_activity: Instant,
    read_closed: bool,
    close_after_flush: bool,
}

impl Conn {
    pub(super) fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            proto: Proto::Undecided,
            inflight: None,
            last_activity: Instant::now(),
            read_closed: false,
            close_after_flush: false,
        }
    }

    fn out_done(&self) -> bool {
        self.out_pos == self.out.len()
    }

    /// True while a request is waiting on a worker; the shard loop
    /// polls more eagerly then.
    pub(super) fn has_inflight(&self) -> bool {
        self.inflight.is_some()
    }

    /// One scheduling quantum: returns `false` when the connection is
    /// finished and should be dropped. Sets `*progress` when any bytes
    /// moved or a request resolved, so the shard loop knows not to
    /// sleep.
    pub(super) fn tick(&mut self, ctx: &ShardCtx, progress: &mut bool) -> bool {
        let mut active = false;

        if !self.flush(&mut active) {
            return false;
        }

        // Poll the in-flight request; on resolution, encode and fall
        // through so a pipelined follow-up can be dispatched this tick.
        if let Some((call, kind)) = self.inflight.take() {
            match ctx.service.poll(call) {
                Ok(envelope) => {
                    self.encode_envelope(envelope, kind);
                    active = true;
                }
                Err(call) => self.inflight = Some((call, kind)),
            }
        }

        // Read only while nothing is in flight: ordered responses and
        // natural backpressure against request floods.
        if self.inflight.is_none() && !self.read_closed {
            let mut tmp = [0u8; 8192];
            loop {
                match self.stream.read(&mut tmp) {
                    Ok(0) => {
                        self.read_closed = true;
                        break;
                    }
                    Ok(n) => {
                        self.buf.extend_from_slice(&tmp[..n]);
                        active = true;
                        if n < tmp.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => return false,
                }
            }
        }

        if !self.drive(ctx, &mut active) {
            return false;
        }
        if !self.flush(&mut active) {
            return false;
        }

        let now = Instant::now();
        if active {
            self.last_activity = now;
            *progress = true;
        }

        if self.close_after_flush && self.inflight.is_none() && self.out_done() {
            return false;
        }
        if self.read_closed && self.inflight.is_none() && self.out_done() && self.buf.is_empty() {
            return false;
        }

        // A partial request that stopped making progress (slow-loris)
        // gets a timeout response and the connection is closed; a
        // fully-idle keep-alive connection is eventually reclaimed.
        let stalled = now.duration_since(self.last_activity);
        if self.inflight.is_none() && !self.buf.is_empty() && stalled >= ctx.config.read_deadline {
            match self.proto {
                Proto::JsonLines => self.push_json_line(error_response(
                    &Value::Null,
                    &ServeError::new(
                        ErrorCode::DeadlineExceeded,
                        "timed out waiting for a complete request line",
                    ),
                )),
                Proto::Http | Proto::Undecided => {
                    let body = http::error_body(
                        "deadline_exceeded",
                        "timed out waiting for a complete request",
                    );
                    self.out.extend_from_slice(&http::response(
                        408,
                        "Request Timeout",
                        "application/json",
                        &body,
                        false,
                        &[],
                    ));
                }
            }
            self.buf.clear();
            self.close_after_flush = true;
            *progress = true;
        } else if self.inflight.is_none()
            && self.buf.is_empty()
            && self.out_done()
            && stalled >= ctx.config.idle_deadline
        {
            return false;
        }
        true
    }

    /// Writes as much buffered output as the socket accepts.
    fn flush(&mut self, active: &mut bool) -> bool {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return false,
                Ok(n) => {
                    self.out_pos += n;
                    *active = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.out_done() && !self.out.is_empty() {
            self.out.clear();
            self.out_pos = 0;
        }
        true
    }

    /// Consumes complete requests from the front of `buf` until one is
    /// in flight, input runs dry, or the connection errors.
    fn drive(&mut self, ctx: &ShardCtx, active: &mut bool) -> bool {
        while self.inflight.is_none() && !self.close_after_flush {
            if self.proto == Proto::Undecided {
                let skip = self
                    .buf
                    .iter()
                    .take_while(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
                    .count();
                self.buf.drain(..skip);
                match self.buf.first() {
                    None => return true,
                    Some(b'{') => self.proto = Proto::JsonLines,
                    Some(_) => self.proto = Proto::Http,
                }
            }
            match self.proto {
                Proto::Undecided => unreachable!("sniffed above"),
                Proto::JsonLines => {
                    let Some(nl) = self.buf.iter().position(|&b| b == b'\n') else {
                        if self.buf.len() > ctx.config.max_line {
                            self.push_json_line(error_response(
                                &Value::Null,
                                &ServeError::new(
                                    ErrorCode::BadRequest,
                                    format!(
                                        "request line exceeds the {} byte limit",
                                        ctx.config.max_line
                                    ),
                                ),
                            ));
                            self.buf.clear();
                            self.close_after_flush = true;
                            *active = true;
                        }
                        return true;
                    };
                    let line: Vec<u8> = self.buf.drain(..=nl).collect();
                    let mut line = &line[..line.len() - 1];
                    if line.last() == Some(&b'\r') {
                        line = &line[..line.len() - 1];
                    }
                    // A line that is not UTF-8 cannot be a request:
                    // drop the connection.
                    let Ok(text) = std::str::from_utf8(line) else {
                        return false;
                    };
                    if text.trim().is_empty() {
                        continue;
                    }
                    match ctx.service.submit_line(text) {
                        Submitted::Done(envelope) => {
                            self.push_json_line(envelope);
                            *active = true;
                        }
                        Submitted::Pending(call) => {
                            self.inflight = Some((call, RespKind::JsonLine));
                        }
                    }
                }
                Proto::Http => {
                    match http::parse(&self.buf, ctx.config.max_header, ctx.config.max_body) {
                        HttpParse::Incomplete => return true,
                        HttpParse::Bad {
                            status,
                            reason,
                            message,
                        } => {
                            let body = http::error_body("bad_request", &message);
                            self.out.extend_from_slice(&http::response(
                                status,
                                reason,
                                "application/json",
                                &body,
                                false,
                                &[],
                            ));
                            self.buf.clear();
                            self.close_after_flush = true;
                            *active = true;
                        }
                        HttpParse::Ok { req, consumed } => {
                            self.buf.drain(..consumed);
                            self.route(ctx, req, active);
                        }
                    }
                }
            }
        }
        true
    }

    /// Dispatches one parsed HTTP request to its route.
    fn route(&mut self, ctx: &ShardCtx, req: http::ParsedRequest, active: &mut bool) {
        let keep_alive = req.keep_alive;
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/health") => {
                let envelope = ctx.service.call(control_request(Op::Health));
                let body = serde_json::to_string(&envelope["result"])
                    .expect("health serialises")
                    .into_bytes();
                self.push_http(200, "OK", "application/json", &body, keep_alive, &[]);
            }
            ("GET", "/metrics") => {
                let body = super::aggregate_prometheus(&ctx.services);
                self.push_http(
                    200,
                    "OK",
                    "text/plain; version=0.0.4",
                    body.as_bytes(),
                    keep_alive,
                    &[],
                );
            }
            ("GET", "/metrics.json") => {
                let body = serde_json::to_string(&super::aggregate_snapshot(&ctx.services))
                    .expect("snapshot serialises")
                    .into_bytes();
                self.push_http(200, "OK", "application/json", &body, keep_alive, &[]);
            }
            ("GET", "/registry") => {
                let body = serde_json::to_string(&super::registry_snapshot(&ctx.service))
                    .expect("registry serialises")
                    .into_bytes();
                self.push_http(200, "OK", "application/json", &body, keep_alive, &[]);
            }
            ("POST", "/predict") => self.route_predict(ctx, &req.body, keep_alive),
            ("GET", "/debug/traces") => {
                let body = serde_json::to_string(&super::debug::traces_index())
                    .expect("trace index serialises")
                    .into_bytes();
                self.push_http(200, "OK", "application/json", &body, keep_alive, &[]);
            }
            ("GET", path) if path.starts_with("/debug/traces/") => {
                let request_id = &path["/debug/traces/".len()..];
                match super::debug::trace_detail(request_id) {
                    Some(doc) => {
                        let body = serde_json::to_string(&doc)
                            .expect("trace detail serialises")
                            .into_bytes();
                        self.push_http(200, "OK", "application/json", &body, keep_alive, &[]);
                    }
                    None => {
                        let body = http::error_body(
                            "not_found",
                            &format!("no retained trace for request id {request_id:?}"),
                        );
                        self.push_http(
                            404,
                            "Not Found",
                            "application/json",
                            &body,
                            keep_alive,
                            &[],
                        );
                    }
                }
            }
            ("GET", "/debug/dashboard") => {
                let body = super::debug::dashboard_html(&ctx.services);
                self.push_http(
                    200,
                    "OK",
                    "text/html; charset=utf-8",
                    body.as_bytes(),
                    keep_alive,
                    &[],
                );
            }
            (_, "/debug/traces" | "/debug/dashboard") => {
                let body = http::error_body("bad_request", "method not allowed; use GET");
                self.push_http(
                    405,
                    "Method Not Allowed",
                    "application/json",
                    &body,
                    keep_alive,
                    &["Allow: GET"],
                );
            }
            (_, path) if path.starts_with("/debug/traces/") => {
                let body = http::error_body("bad_request", "method not allowed; use GET");
                self.push_http(
                    405,
                    "Method Not Allowed",
                    "application/json",
                    &body,
                    keep_alive,
                    &["Allow: GET"],
                );
            }
            (_, "/health" | "/metrics" | "/metrics.json" | "/registry") => {
                let body = http::error_body("bad_request", "method not allowed; use GET");
                self.push_http(
                    405,
                    "Method Not Allowed",
                    "application/json",
                    &body,
                    keep_alive,
                    &["Allow: GET"],
                );
            }
            (_, "/predict") => {
                let body = http::error_body("bad_request", "method not allowed; use POST");
                self.push_http(
                    405,
                    "Method Not Allowed",
                    "application/json",
                    &body,
                    keep_alive,
                    &["Allow: POST"],
                );
            }
            (_, path) => {
                let body = http::error_body("bad_request", &format!("no such route: {path}"));
                self.push_http(404, "Not Found", "application/json", &body, keep_alive, &[]);
            }
        }
        *active = true;
    }

    /// `POST /predict`: the body is the same JSON object the line
    /// protocol takes (`op` defaults to `predict`). It is parsed once
    /// and handed to [`crate::Service::submit_value`], the path
    /// [`crate::Service::submit_line`] takes after its own parse, so
    /// payloads stay bit-identical across protocols.
    fn route_predict(&mut self, ctx: &ShardCtx, body: &[u8], keep_alive: bool) {
        let Ok(text) = std::str::from_utf8(body) else {
            let body = http::error_body("bad_request", "request body is not valid UTF-8");
            self.push_http(
                400,
                "Bad Request",
                "application/json",
                &body,
                keep_alive,
                &[],
            );
            return;
        };
        let parse_started = Instant::now();
        let submitted = match serde_json::from_str::<Value>(text) {
            Err(_) => ctx.service.submit_line(text), // reports the malformed JSON
            Ok(Value::Object(mut map)) => match map.get("op").and_then(Value::as_str) {
                None if map.get("op").is_none() => {
                    map.insert("op", Value::String("predict".into()));
                    ctx.service.submit_value(Value::Object(map), parse_started)
                }
                Some("predict") => ctx.service.submit_value(Value::Object(map), parse_started),
                _ => {
                    let body = http::error_body(
                        "bad_request",
                        "POST /predict only accepts op \"predict\"",
                    );
                    self.push_http(
                        400,
                        "Bad Request",
                        "application/json",
                        &body,
                        keep_alive,
                        &[],
                    );
                    return;
                }
            },
            // submit_value reports the non-object
            Ok(other) => ctx.service.submit_value(other, parse_started),
        };
        match submitted {
            Submitted::Done(envelope) => {
                self.encode_envelope(envelope, RespKind::Http { keep_alive })
            }
            Submitted::Pending(call) => {
                self.inflight = Some((call, RespKind::Http { keep_alive }));
            }
        }
    }

    /// Encodes a resolved response envelope for its protocol.
    fn encode_envelope(&mut self, envelope: impl Into<Envelope>, kind: RespKind) {
        let envelope = envelope.into();
        match kind {
            RespKind::JsonLine => self.push_json_line(envelope),
            RespKind::Http { keep_alive } => {
                let (status, reason, extra) = envelope_status(&envelope);
                let body = envelope.render().into_bytes();
                self.push_http(status, reason, "application/json", &body, keep_alive, extra);
            }
        }
    }

    fn push_json_line(&mut self, envelope: impl Into<Envelope>) {
        self.out
            .extend_from_slice(envelope.into().render().as_bytes());
        self.out.push(b'\n');
    }

    fn push_http(
        &mut self,
        status: u16,
        reason: &str,
        content_type: &str,
        body: &[u8],
        keep_alive: bool,
        extra: &[&str],
    ) {
        self.out.extend_from_slice(&http::response(
            status,
            reason,
            content_type,
            body,
            keep_alive,
            extra,
        ));
        if !keep_alive {
            self.close_after_flush = true;
        }
    }
}

/// A synthetic control-plane request with a null id.
fn control_request(op: Op) -> Request {
    Request {
        id: Value::Null,
        op,
        model: None,
        netlist: None,
        deadline_ms: None,
        debug: false,
    }
}

/// Maps a response envelope onto an HTTP status line, with
/// `Retry-After` on shedding.
fn envelope_status(envelope: &Envelope) -> (u16, &'static str, &'static [&'static str]) {
    let Envelope::Value(envelope) = envelope else {
        return (200, "OK", &[]); // a predict answer
    };
    if envelope["ok"].as_bool() == Some(true) {
        return (200, "OK", &[]);
    }
    match envelope["error"]["code"].as_str() {
        Some("bad_request") | Some("invalid_netlist") => (400, "Bad Request", &[]),
        Some("unknown_model") => (404, "Not Found", &[]),
        Some("overloaded") => (503, "Service Unavailable", &["Retry-After: 1"]),
        Some("deadline_exceeded") => (504, "Gateway Timeout", &[]),
        _ => (500, "Internal Server Error", &[]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::PredictEnvelope;
    use serde_json::json;

    #[test]
    fn status_mapping_covers_every_error_code() {
        let ok = json!({"ok": true});
        assert_eq!(envelope_status(&ok.into()).0, 200);
        let predict = PredictEnvelope::hit(Value::Null, "{}".into());
        assert_eq!(envelope_status(&Envelope::Predict(predict)).0, 200);
        for (code, status) in [
            ("bad_request", 400),
            ("invalid_netlist", 400),
            ("unknown_model", 404),
            ("overloaded", 503),
            ("deadline_exceeded", 504),
            ("internal", 500),
        ] {
            let envelope = json!({"ok": false, "error": {"code": code, "message": "m"}});
            assert_eq!(envelope_status(&envelope.into()).0, status, "{code}");
        }
        let overloaded = json!({"ok": false, "error": {"code": "overloaded", "message": "m"}});
        let (status, _, extra) = envelope_status(&overloaded.into());
        assert_eq!(status, 503);
        assert_eq!(extra, ["Retry-After: 1"]);
    }
}
