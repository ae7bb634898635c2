//! Minimal HTTP/1.1 request parsing and response encoding for the
//! gateway — enough of RFC 9112 for keep-alive API traffic: request
//! line, case-insensitive headers, `Content-Length` bodies, and
//! `Connection` semantics. Anything outside that subset gets a precise
//! error status rather than a guess (`Transfer-Encoding` → 501,
//! unsupported version → 505, oversized → 413/431).

use std::io::Write;

/// One fully received request, borrowed views resolved into owned data
/// so the connection buffer can be drained immediately.
#[derive(Debug, PartialEq)]
pub struct ParsedRequest {
    /// Request method, as sent (methods are case-sensitive).
    pub method: String,
    /// Request target, e.g. `/predict`; query strings are kept as-is.
    pub path: String,
    /// Whether the connection should stay open after the response:
    /// HTTP/1.1 default yes, HTTP/1.0 default no, `Connection` header
    /// overrides either way.
    pub keep_alive: bool,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

/// Outcome of trying to parse the front of a connection buffer.
#[derive(Debug, PartialEq)]
pub enum HttpParse {
    /// Not enough bytes yet; read more.
    Incomplete,
    /// Irrecoverably malformed: answer with `status` and close.
    Bad {
        /// HTTP status code to answer with.
        status: u16,
        /// Reason phrase for the status line.
        reason: &'static str,
        /// Human-readable detail for the error body.
        message: String,
    },
    /// One complete request; `consumed` bytes can be drained.
    Ok {
        /// The parsed request.
        req: ParsedRequest,
        /// Bytes of the buffer this request occupied.
        consumed: usize,
    },
}

fn bad(status: u16, reason: &'static str, message: impl Into<String>) -> HttpParse {
    HttpParse::Bad {
        status,
        reason,
        message: message.into(),
    }
}

/// Parses one request from the front of `buf`.
///
/// `max_header` bounds the head (request line + headers) and
/// `max_body` bounds `Content-Length`; exceeding them yields 431 / 413
/// so a hostile peer cannot grow the buffer without limit.
pub fn parse(buf: &[u8], max_header: usize, max_body: usize) -> HttpParse {
    let Some(head_len) = find_head_end(buf) else {
        if buf.len() > max_header {
            return bad(
                431,
                "Request Header Fields Too Large",
                "request head too large",
            );
        }
        return HttpParse::Incomplete;
    };
    if head_len > max_header {
        return bad(
            431,
            "Request Header Fields Too Large",
            "request head too large",
        );
    }
    let Ok(head) = std::str::from_utf8(&buf[..head_len]) else {
        return bad(400, "Bad Request", "request head is not valid UTF-8");
    };
    let mut lines = head.split("\r\n").flat_map(|l| l.split('\n'));
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.splitn(3, ' ');
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return bad(
            400,
            "Bad Request",
            format!("malformed request line: {request_line:?}"),
        );
    };
    if method.is_empty() || path.is_empty() || !method.bytes().all(|b| b.is_ascii_alphabetic()) {
        return bad(
            400,
            "Bad Request",
            format!("malformed request line: {request_line:?}"),
        );
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        v if v.starts_with("HTTP/") => {
            return bad(505, "HTTP Version Not Supported", format!("version {v:?}"))
        }
        v => return bad(400, "Bad Request", format!("malformed version: {v:?}")),
    };
    let mut content_length: Option<usize> = None;
    let mut keep_alive = http11;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return bad(
                400,
                "Bad Request",
                format!("malformed header line: {line:?}"),
            );
        };
        // RFC 9112 §5.1: whitespace between field name and colon must be
        // rejected (request-smuggling vector).
        if name.is_empty() || name.ends_with(' ') || name.ends_with('\t') {
            return bad(
                400,
                "Bad Request",
                format!("malformed header name: {name:?}"),
            );
        }
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let Ok(n) = value.parse::<usize>() else {
                return bad(400, "Bad Request", format!("bad Content-Length: {value:?}"));
            };
            if content_length.is_some_and(|prev| prev != n) {
                return bad(400, "Bad Request", "conflicting Content-Length headers");
            }
            content_length = Some(n);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return bad(
                501,
                "Not Implemented",
                "Transfer-Encoding is not supported; send Content-Length",
            );
        } else if name.eq_ignore_ascii_case("connection") {
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
        }
    }
    let body_len = content_length.unwrap_or(0);
    if body_len > max_body {
        return bad(
            413,
            "Content Too Large",
            format!("body of {body_len} bytes exceeds the {max_body} byte limit"),
        );
    }
    if buf.len() < head_len + body_len {
        return HttpParse::Incomplete;
    }
    HttpParse::Ok {
        req: ParsedRequest {
            method: method.to_owned(),
            path: path.to_owned(),
            keep_alive,
            body: buf[head_len..head_len + body_len].to_vec(),
        },
        consumed: head_len + body_len,
    }
}

/// Offset one past the blank line ending the head, accepting bare-LF
/// line endings alongside CRLF. The search stops at the first blank
/// line, so a partly arrived body is never read.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.iter()
        .enumerate()
        .find_map(|(j, &b)| match (b, &buf[j + 1..]) {
            (b'\n', [b'\n', ..]) => Some(j + 2),
            (b'\n', [b'\r', b'\n', ..]) if j > 0 && buf[j - 1] == b'\r' => Some(j + 3),
            _ => None,
        })
}

/// Appends one response with `Content-Length` framing to `out`.
/// `extra_headers` lines are verbatim `Name: value` pairs (no trailing
/// CRLF).
pub fn write_response(
    out: &mut Vec<u8>,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    extra_headers: &[&str],
) {
    write!(
        out,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        body.len()
    )
    .expect("writing to a Vec cannot fail");
    for header in extra_headers {
        out.extend_from_slice(header.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    if !keep_alive {
        out.extend_from_slice(b"Connection: close\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
}

/// A JSON error body shaped like the line protocol's error envelope, so
/// HTTP clients and JSON-lines clients read the same fields.
pub fn error_body(code: &str, message: &str) -> Vec<u8> {
    serde_json::to_string(&serde_json::json!({
        "ok": false,
        "error": {"code": code, "message": message},
    }))
    .expect("error body serialises")
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    const HDR: usize = 16 * 1024;
    const BODY: usize = 1024 * 1024;

    #[test]
    fn parses_get_without_body() {
        let buf = b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n";
        match parse(buf, HDR, BODY) {
            HttpParse::Ok { req, consumed } => {
                assert_eq!(req.method, "GET");
                assert_eq!(req.path, "/health");
                assert!(req.keep_alive);
                assert!(req.body.is_empty());
                assert_eq!(consumed, buf.len());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_post_with_content_length() {
        let buf = b"POST /predict HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"extra";
        match parse(buf, HDR, BODY) {
            HttpParse::Ok { req, consumed } => {
                assert_eq!(req.body, b"{\"a\"");
                assert_eq!(consumed, buf.len() - 5);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn incomplete_until_body_arrives() {
        let buf = b"POST /predict HTTP/1.1\r\nContent-Length: 10\r\n\r\n12345";
        assert_eq!(parse(buf, HDR, BODY), HttpParse::Incomplete);
    }

    #[test]
    fn headers_are_case_insensitive() {
        let buf = b"POST /p HTTP/1.1\r\ncOnTeNt-LeNgTh: 2\r\nCONNECTION: CLOSE\r\n\r\nok";
        match parse(buf, HDR, BODY) {
            HttpParse::Ok { req, .. } => {
                assert_eq!(req.body, b"ok");
                assert!(!req.keep_alive);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn http10_defaults_to_close_keepalive_header_overrides() {
        let buf = b"GET / HTTP/1.0\r\n\r\n";
        match parse(buf, HDR, BODY) {
            HttpParse::Ok { req, .. } => assert!(!req.keep_alive),
            other => panic!("{other:?}"),
        }
        let buf = b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        match parse(buf, HDR, BODY) {
            HttpParse::Ok { req, .. } => assert!(req.keep_alive),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_request_line_is_400() {
        for bad_req in [
            "GARBAGE\r\n\r\n",
            "GET /x\r\n\r\n",
            "G=T /x HTTP/1.1\r\n\r\n",
            " GET /x HTTP/1.1\r\n\r\n",
        ] {
            match parse(bad_req.as_bytes(), HDR, BODY) {
                HttpParse::Bad { status: 400, .. } => {}
                other => panic!("{bad_req:?} -> {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_headers_are_400() {
        for bad_req in [
            "GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
            "GET / HTTP/1.1\r\nName : v\r\n\r\n",
            "GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
            "GET / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n",
        ] {
            match parse(bad_req.as_bytes(), HDR, BODY) {
                HttpParse::Bad { status: 400, .. } => {}
                other => panic!("{bad_req:?} -> {other:?}"),
            }
        }
    }

    #[test]
    fn unsupported_version_and_encoding() {
        match parse(b"GET / HTTP/2.0\r\n\r\n", HDR, BODY) {
            HttpParse::Bad { status: 505, .. } => {}
            other => panic!("{other:?}"),
        }
        match parse(
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            HDR,
            BODY,
        ) {
            HttpParse::Bad { status: 501, .. } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversize_limits() {
        let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(64));
        match parse(huge.as_bytes(), 32, BODY) {
            HttpParse::Bad { status: 431, .. } => {}
            other => panic!("{other:?}"),
        }
        // A partial head that already exceeds the limit must not wait
        // for more bytes.
        let partial = "GET /aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa";
        match parse(partial.as_bytes(), 32, BODY) {
            HttpParse::Bad { status: 431, .. } => {}
            other => panic!("{other:?}"),
        }
        match parse(b"POST / HTTP/1.1\r\nContent-Length: 999\r\n\r\n", HDR, 100) {
            HttpParse::Bad { status: 413, .. } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bare_lf_line_endings_accepted() {
        let buf = b"GET /health HTTP/1.1\nHost: x\n\n";
        match parse(buf, HDR, BODY) {
            HttpParse::Ok { req, .. } => assert_eq!(req.path, "/health"),
            other => panic!("{other:?}"),
        }
    }

    /// The two-window search `find_head_end` replaced: the earlier end
    /// of the first `\r\n\r\n` and the first `\n\n`.
    fn head_end_by_windows(buf: &[u8]) -> Option<usize> {
        let crlf = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4);
        let lf = buf.windows(2).position(|w| w == b"\n\n").map(|i| i + 2);
        match (crlf, lf) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    #[test]
    fn head_end_matches_the_two_window_search() {
        // Every buffer of up to 11 bytes drawn from {CR, LF, 'a'}.
        let mut buf = Vec::new();
        for len in 0..=11 {
            for code in 0..3_usize.pow(len) {
                buf.clear();
                buf.extend((0..len).map(|i| b"\r\na"[code / 3_usize.pow(i) % 3]));
                assert_eq!(find_head_end(&buf), head_end_by_windows(&buf), "{buf:?}");
            }
        }
        // A body holding blank lines of either kind never moves the end.
        for head in [
            "POST / HTTP/1.1\r\nA: b\r\n\r\n",
            "POST / HTTP/1.1\nA: b\n\n",
        ] {
            let buf = format!("{head}x\n\ny\r\n\r\nz\n\n");
            assert_eq!(find_head_end(buf.as_bytes()), Some(head.len()));
            assert_eq!(head_end_by_windows(buf.as_bytes()), Some(head.len()));
        }
    }

    #[test]
    fn response_encoding_framing() {
        let mut r = Vec::new();
        write_response(&mut r, 200, "OK", "application/json", b"{}", true, &[]);
        let text = String::from_utf8(r).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(!text.contains("Connection: close"));
        assert!(text.ends_with("\r\n\r\n{}"));
        let mut r = Vec::new();
        write_response(
            &mut r,
            503,
            "Service Unavailable",
            "application/json",
            b"x",
            false,
            &["Retry-After: 1"],
        );
        let text = String::from_utf8(r).unwrap();
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
    }
}
