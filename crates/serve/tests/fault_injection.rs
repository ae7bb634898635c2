//! Network fault injection against the gateway: slow-loris stalls,
//! mid-body disconnects, oversized heads and bodies, garbage bytes,
//! pipelined bursts — the gateway must never panic, must time abusive
//! connections out on a deadline, and must keep serving well-behaved
//! clients throughout.

mod common;

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use common::{
    build_model_dir, predict_line, start_gateway, test_service_config, HttpClient, LineClient,
    NETLIST_A, NETLIST_B,
};
use paragraph_serve::GatewayConfig;

/// A gateway with short abuse deadlines: stalls time out after 300ms.
fn abuse_config(shards: usize) -> GatewayConfig {
    GatewayConfig {
        shards,
        service: test_service_config(),
        read_deadline: Duration::from_millis(300),
        ..GatewayConfig::default()
    }
}

#[test]
fn http_slow_loris_gets_408_while_good_clients_are_served() {
    let (dir, _ensemble) = build_model_dir("loris-http");
    // One shard: the attacker and the good clients share an event loop,
    // so this also proves a stalled socket cannot wedge the loop.
    let handle = start_gateway(&dir, abuse_config(1));

    // The attacker trickles out half a request line and stops.
    let mut attacker = HttpClient::connect(handle.addr());
    attacker.stream.write_all(b"POST /pre").expect("write");

    // Good clients on BOTH protocols keep getting answers meanwhile.
    let mut line = LineClient::connect(handle.addr());
    let mut http = HttpClient::connect(handle.addr());
    for id in 0..5 {
        let v = line.roundtrip(&predict_line(id, NETLIST_A, None));
        assert_eq!(v["ok"].as_bool(), Some(true), "{v:?}");
        assert_eq!(http.get("/health").status, 200);
    }

    // Past the read deadline the attacker gets a 408 and the close.
    std::thread::sleep(Duration::from_millis(500));
    let r = attacker.read_response().expect("timeout response");
    assert_eq!(r.status, 408);
    assert_eq!(
        r.json()["error"]["code"].as_str(),
        Some("deadline_exceeded")
    );
    attacker.assert_closed();

    // The gateway is still healthy afterwards.
    assert_eq!(http.get("/health").status, 200);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn json_lines_slow_loris_gets_structured_timeout() {
    let (dir, _ensemble) = build_model_dir("loris-line");
    let handle = start_gateway(&dir, abuse_config(1));

    // Half a JSON object, no newline, then silence.
    let mut attacker = LineClient::connect(handle.addr());
    attacker
        .writer
        .write_all(br#"{"op": "predi"#)
        .expect("write");
    std::thread::sleep(Duration::from_millis(500));

    let v: serde_json::Value =
        serde_json::from_str(&attacker.recv_raw()).expect("timeout line is JSON");
    assert_eq!(v["ok"].as_bool(), Some(false));
    assert_eq!(v["error"]["code"].as_str(), Some("deadline_exceeded"));
    let mut rest = String::new();
    assert_eq!(
        attacker.reader.read_to_string(&mut rest).expect("EOF"),
        0,
        "connection must be closed after the timeout line"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_body_disconnect_and_truncated_fin_are_harmless() {
    let (dir, _ensemble) = build_model_dir("midbody");
    let handle = start_gateway(&dir, abuse_config(1));

    // Promise 1000 body bytes, send 10, vanish without a FIN handshake.
    {
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut s = stream.try_clone().unwrap();
        s.write_all(b"POST /predict HTTP/1.1\r\nContent-Length: 1000\r\n\r\n0123456789")
            .unwrap();
        drop(s);
        stream.shutdown(Shutdown::Both).unwrap();
    }

    // Promise a request, send a fragment, half-close (FIN) and wait:
    // the fragment can never complete, so the read deadline must
    // answer 408 and drop the connection.
    let mut fin = HttpClient::connect(handle.addr());
    fin.stream.write_all(b"GET /hea").unwrap();
    fin.stream.shutdown(Shutdown::Write).unwrap();
    let r = fin.read_response().expect("timeout response");
    assert_eq!(r.status, 408);
    fin.assert_closed();

    // Nothing panicked; the shard still serves.
    let mut good = HttpClient::connect(handle.addr());
    assert_eq!(good.get("/health").status, 200);
    let v = LineClient::connect(handle.addr()).roundtrip(&predict_line(1, NETLIST_B, None));
    assert_eq!(v["ok"].as_bool(), Some(true), "{v:?}");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_head_and_body_are_rejected_with_limits_statuses() {
    let (dir, _ensemble) = build_model_dir("oversize");
    let handle = start_gateway(
        &dir,
        GatewayConfig {
            shards: 1,
            service: test_service_config(),
            max_header: 256,
            max_body: 1024,
            max_line: 1024,
            ..GatewayConfig::default()
        },
    );

    // Head past max_header: 431, even before CRLF CRLF arrives.
    let mut c = HttpClient::connect(handle.addr());
    let huge = format!(
        "GET /health HTTP/1.1\r\nX-Filler: {}\r\n\r\n",
        "x".repeat(512)
    );
    let r = c.request_raw(huge.as_bytes());
    assert_eq!(r.status, 431);
    c.assert_closed();

    // Declared body past max_body: 413 immediately, body never read.
    let mut c = HttpClient::connect(handle.addr());
    let r = c.request_raw(b"POST /predict HTTP/1.1\r\nContent-Length: 4096\r\n\r\n");
    assert_eq!(r.status, 413);
    c.assert_closed();

    // JSON line past max_line: structured bad_request, then close.
    let mut c = LineClient::connect(handle.addr());
    c.writer
        .write_all(format!("{{\"op\": \"predict\", \"pad\": \"{}\"", "y".repeat(2048)).as_bytes())
        .unwrap();
    let v: serde_json::Value = serde_json::from_str(&c.recv_raw()).unwrap();
    assert_eq!(v["error"]["code"].as_str(), Some("bad_request"));

    // A complete line past max_line is refused the same way, unparsed.
    let mut c = LineClient::connect(handle.addr());
    let line = format!(
        "{{\"op\": \"health\", \"id\": 1, \"pad\": \"{}\"}}\n",
        "y".repeat(2048)
    );
    c.writer.write_all(line.as_bytes()).unwrap();
    let v: serde_json::Value = serde_json::from_str(&c.recv_raw()).unwrap();
    assert_eq!(v["error"]["code"].as_str(), Some("bad_request"));
    assert_eq!(
        v["error"]["message"].as_str(),
        Some("request line exceeds the 1024 byte limit"),
        "{v:?}"
    );

    // A CRLF line of exactly max_line bytes is served: neither the
    // `\r` nor the `\n` counts toward the limit.
    let mut c = LineClient::connect(handle.addr());
    let head = "{\"op\": \"health\", \"id\": \"";
    let id = "y".repeat(1024 - head.len() - 2);
    let line = format!("{head}{id}\"}}\r\n");
    assert_eq!(line.len(), 1024 + 2);
    c.writer.write_all(line.as_bytes()).unwrap();
    let v: serde_json::Value = serde_json::from_str(&c.recv_raw()).unwrap();
    assert_eq!(v["ok"].as_bool(), Some(true), "{v:?}");
    assert_eq!(v["id"].as_str(), Some(id.as_str()));

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_bytes_get_400_and_fresh_connections_recover() {
    let (dir, _ensemble) = build_model_dir("garbage");
    let handle = start_gateway(&dir, abuse_config(1));

    let mut c = HttpClient::connect(handle.addr());
    let r = c.request_raw(b"\x01\x02\xff\xfe binary noise\r\n\r\n");
    assert_eq!(r.status, 400);
    c.assert_closed();

    let v = LineClient::connect(handle.addr()).roundtrip(&predict_line(7, NETLIST_A, None));
    assert_eq!(v["ok"].as_bool(), Some(true), "{v:?}");

    // A body nested past the parser's depth limit is a 400, not a
    // stack overflow that aborts every shard, and the connection stays
    // open.
    let mut c = HttpClient::connect(handle.addr());
    let r = c.post_json("/predict", &deep_json());
    assert_eq!(r.status, 400);
    assert_eq!(r.json()["error"]["code"].as_str(), Some("bad_request"));
    let r = c.post_json("/predict", &predict_line(8, NETLIST_A, None));
    assert_eq!(r.status, 200);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_json_line_keeps_the_connection_open() {
    let (dir, _ensemble) = build_model_dir("badline");
    let handle = start_gateway(&dir, abuse_config(1));

    let mut c = LineClient::connect(handle.addr());
    let bad = c.roundtrip("{not json at all");
    assert_eq!(bad["ok"].as_bool(), Some(false));
    assert_eq!(bad["error"]["code"].as_str(), Some("bad_request"));

    // Same connection, next request is served normally.
    let good = c.roundtrip(&predict_line(1, NETLIST_A, None));
    assert_eq!(good["ok"].as_bool(), Some(true), "{good:?}");

    // A high surrogate escape followed by a non-surrogate one is
    // malformed JSON, not a shard-killing panic.
    let broken = c.roundtrip(&predict_line(2, r"mp o i vdd vdd pch\ud800\u0041", None));
    assert_eq!(broken["ok"].as_bool(), Some(false), "{broken:?}");
    assert_eq!(broken["error"]["code"].as_str(), Some("bad_request"));
    let good = c.roundtrip(&predict_line(3, NETLIST_A, None));
    assert_eq!(good["ok"].as_bool(), Some(true), "{good:?}");

    // So is a line nested past the parser's depth limit.
    let deep = c.roundtrip(&deep_json());
    assert_eq!(
        deep["error"]["code"].as_str(),
        Some("bad_request"),
        "{deep:?}"
    );
    let good = c.roundtrip(&predict_line(4, NETLIST_A, None));
    assert_eq!(good["ok"].as_bool(), Some(true), "{good:?}");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A ~20 kB request whose netlist opens 20,000 arrays.
fn deep_json() -> String {
    format!("{{\"netlist\":{}", "[".repeat(20_000))
}

#[test]
fn an_object_with_many_members_does_not_stall_its_shard() {
    let (dir, _ensemble) = build_model_dir("wide");
    // One shard: the wide body and the predict share an event loop.
    let handle = start_gateway(&dir, abuse_config(1));
    let mut wide = HttpClient::connect(handle.addr());
    let mut good = HttpClient::connect(handle.addr());

    // ~1 MB, a quarter of the default body limit.
    let mut body = String::from(r#"{"op": "predict""#);
    for i in 0..80_000 {
        write!(body, r#","m{i}":0"#).unwrap();
    }
    body.push('}');
    wide.stream
        .write_all(
            format!(
                "POST /predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("write wide body");

    let started = Instant::now();
    let r = good.post_json("/predict", &predict_line(1, NETLIST_A, None));
    assert_eq!(r.status, 200);
    let waited = started.elapsed();
    assert!(waited < Duration::from_secs(5), "predict waited {waited:?}");

    let r = wide.read_response().expect("wide body answered");
    assert_eq!(r.status, 400);
    assert_eq!(r.json()["error"]["code"].as_str(), Some("bad_request"));

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipelined_json_lines_burst_is_answered_in_order() {
    let (dir, _ensemble) = build_model_dir("lineburst");
    let handle = start_gateway(&dir, abuse_config(2));

    let mut c = LineClient::connect(handle.addr());
    let mut burst = String::new();
    for id in 0..20_u64 {
        let netlist = if id % 2 == 0 { NETLIST_A } else { NETLIST_B };
        burst.push_str(&predict_line(id, netlist, None));
        burst.push('\n');
    }
    c.writer.write_all(burst.as_bytes()).expect("write burst");
    for id in 0..20_u64 {
        let v: serde_json::Value = serde_json::from_str(&c.recv_raw()).unwrap();
        assert_eq!(v["ok"].as_bool(), Some(true), "{v:?}");
        assert_eq!(v["id"].as_u64(), Some(id), "responses out of order");
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
