//! Minimal HTTP/1.1 keep-alive client for `POST /predict`. Requests are
//! encoded once before timing; a round trip reuses the connection's
//! buffers, so steady-state round trips make no heap allocation on the
//! client side.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Encodes `POST /predict` with a JSON body `{"id": id, "netlist": ...}`
/// (plus `"model"` when given), the form an EDA tool sends.
pub fn predict_request(id: usize, netlist: &str, model: Option<&str>) -> Vec<u8> {
    let mut body = serde_json::json!({"id": id, "netlist": netlist});
    if let Some(model) = model {
        body["model"] = serde_json::Value::String(model.to_owned());
    }
    let body = serde_json::to_string(&body).expect("request body serialises");
    let mut out = format!(
        "POST /predict HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// One keep-alive connection.
#[derive(Debug)]
pub struct HttpConn {
    stream: TcpStream,
    buf: Vec<u8>,
    chunk: Box<[u8]>,
}

impl HttpConn {
    /// Connects with Nagle off and a read timeout, so a stalled server
    /// fails the run instead of hanging it.
    ///
    /// # Errors
    ///
    /// Any socket error.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(1 << 16),
            chunk: vec![0; 1 << 16].into_boxed_slice(),
        })
    }

    /// Writes `request` and reads one `Content-Length`-framed response;
    /// returns its status code and body.
    ///
    /// # Errors
    ///
    /// A socket error, a closed connection, or an unframed response.
    pub fn roundtrip(&mut self, request: &[u8]) -> Result<(u16, &[u8]), String> {
        self.stream
            .write_all(request)
            .map_err(|e| format!("write: {e}"))?;
        self.buf.clear();
        let mut framed: Option<(usize, usize)> = None; // (head end, body length)
        loop {
            if let Some((head, len)) = framed {
                if self.buf.len() >= head + len {
                    break;
                }
            }
            let n = self
                .stream
                .read(&mut self.chunk)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".into());
            }
            let searched_to = self.buf.len().saturating_sub(3);
            self.buf.extend_from_slice(&self.chunk[..n]);
            if framed.is_none() {
                if let Some(pos) = find(&self.buf[searched_to..], b"\r\n\r\n") {
                    let head = searched_to + pos + 4;
                    framed = Some((head, content_length(&self.buf[..head])?));
                }
            }
        }
        let (head, len) = framed.expect("loop exits framed");
        let status = std::str::from_utf8(self.buf.get(9..12).unwrap_or_default())
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or("malformed status line")?;
        Ok((status, &self.buf[head..head + len]))
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn content_length(head: &[u8]) -> Result<usize, String> {
    let head = std::str::from_utf8(head).map_err(|_| "response head is not UTF-8")?;
    head.split("\r\n")
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .ok_or_else(|| "response without Content-Length".to_owned())
}

/// Whether `body` contains `needle` (an allocation-free substring test).
pub fn contains(body: &[u8], needle: &[u8]) -> bool {
    find(body, needle).is_some()
}
