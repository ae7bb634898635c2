//! HTTP/1.1 protocol conformance for the sharded gateway: routing,
//! keep-alive and Content-Length framing, header case-insensitivity,
//! malformed-request status codes, load shedding (`503` +
//! `Retry-After`), pipelining, and first-byte protocol sniffing parity
//! with the in-process `Service::handle_line`.

mod common;

use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{
    build_model_dir, direct_reference, predict_line, response_predictions, start_gateway,
    test_service_config, HttpClient, LineClient, NETLIST_A, NETLIST_B,
};
use paragraph_serve::{
    Gateway, GatewayConfig, ModelRegistry, PendingCall, Service, ServiceConfig, Submitted,
    ENSEMBLE_KEY,
};
use serde_json::{json, Value};

fn predict_body(id: u64, netlist: &str) -> String {
    serde_json::to_string(&json!({"id": id, "netlist": netlist})).unwrap()
}

#[test]
fn routes_and_keepalive_predict_match_direct_reference() {
    let (dir, ensemble) = build_model_dir("routes");
    let handle = start_gateway(
        &dir,
        GatewayConfig {
            shards: 2,
            service: test_service_config(),
            ..GatewayConfig::default()
        },
    );
    let expected_a = direct_reference(&ensemble, NETLIST_A);
    assert!(expected_a.iter().any(|(_, v)| *v > 0.0));

    // Everything below flows over ONE keep-alive connection; each
    // successful framed response proves the previous one didn't close
    // or misframe the stream.
    let mut c = HttpClient::connect(handle.addr());

    let health = c.get("/health");
    assert_eq!(health.status, 200);
    assert_eq!(health.header("content-type"), Some("application/json"));
    let health = health.json();
    assert_eq!(health["status"].as_str(), Some("ok"), "{health:?}");

    // `op` is implied on POST /predict; payload must be bit-identical
    // to the line protocol's and match the direct in-process reference.
    let cold = c.post_json("/predict", &predict_body(1, NETLIST_A));
    assert_eq!(cold.status, 200);
    let cold = cold.json();
    assert_eq!(cold["ok"].as_bool(), Some(true), "{cold:?}");
    assert_eq!(cold["id"].as_u64(), Some(1));
    assert_eq!(cold["cached"].as_bool(), Some(false));
    assert_eq!(response_predictions(&cold), expected_a);

    let warm = c.post_json("/predict", &predict_body(2, NETLIST_A)).json();
    assert_eq!(warm["cached"].as_bool(), Some(true));
    assert_eq!(
        cold["result"], warm["result"],
        "cache must serve identical payloads"
    );

    // An explicit `"op": "predict"` is accepted; any other op is not.
    let explicit = c.post_json("/predict", &predict_line(3, NETLIST_B, None));
    assert_eq!(explicit.status, 200);
    let wrong_op = c.post_json("/predict", r#"{"op": "health", "id": 4}"#);
    assert_eq!(wrong_op.status, 400);

    let metrics = c.get("/metrics");
    assert_eq!(metrics.status, 200);
    assert_eq!(
        metrics.header("content-type"),
        Some("text/plain; version=0.0.4")
    );
    let text = String::from_utf8(metrics.body.clone()).unwrap();
    assert!(text.contains("shard=\"0\""), "per-shard labels expected");
    assert!(text.contains("shard=\"1\""), "per-shard labels expected");

    let snapshot = c.get("/metrics.json").json();
    assert_eq!(snapshot["shard_count"].as_u64(), Some(2));
    assert!(snapshot["totals"]["requests"].as_u64().unwrap() >= 4);

    let registry = c.get("/registry").json();
    let models: Vec<&str> = registry["models"]
        .as_array()
        .unwrap()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert!(models.contains(&"cap_1f"), "{registry:?}");
    assert!(models.contains(&ENSEMBLE_KEY), "{registry:?}");
    assert_eq!(registry["ensemble"].as_bool(), Some(true));

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn headers_are_case_insensitive_and_connection_close_honoured() {
    let (dir, _ensemble) = build_model_dir("caseins");
    let handle = start_gateway(
        &dir,
        GatewayConfig {
            shards: 1,
            service: test_service_config(),
            ..GatewayConfig::default()
        },
    );

    // Shouted header names and a shouted `Connection: CLOSE` value must
    // both be recognised.
    let mut c = HttpClient::connect(handle.addr());
    let body = predict_body(1, NETLIST_A);
    let r = c.request_raw(
        format!(
            "POST /predict HTTP/1.1\r\nhOsT: t\r\ncOnTeNt-LeNgTh: {}\r\nCONNECTION: CLOSE\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    );
    assert_eq!(r.status, 200);
    assert_eq!(r.header("connection"), Some("close"));
    c.assert_closed();

    // HTTP/1.0 defaults to close; `Connection: keep-alive` overrides.
    let mut c = HttpClient::connect(handle.addr());
    let r = c.request_raw(b"GET /health HTTP/1.0\r\n\r\n");
    assert_eq!(r.status, 200);
    c.assert_closed();

    let mut c = HttpClient::connect(handle.addr());
    let r = c.request_raw(b"GET /health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
    assert_eq!(r.status, 200);
    let again = c.get("/health");
    assert_eq!(again.status, 200, "keep-alive 1.0 connection must persist");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_requests_get_parser_level_statuses() {
    let (dir, _ensemble) = build_model_dir("malformed");
    let handle = start_gateway(
        &dir,
        GatewayConfig {
            shards: 1,
            service: test_service_config(),
            ..GatewayConfig::default()
        },
    );

    // (raw request, expected status); each closes the connection.
    let cases: Vec<(Vec<u8>, u16)> = vec![
        (b"GARBAGE\r\n\r\n".to_vec(), 400),
        (b"GET /health\r\n\r\n".to_vec(), 400),
        (b"GET /health HTTP/2.0\r\n\r\n".to_vec(), 505),
        (
            b"GET /health HTTP/1.1\r\nno colon here\r\n\r\n".to_vec(),
            400,
        ),
        (
            b"POST /predict HTTP/1.1\r\nContent-Length: nope\r\n\r\n".to_vec(),
            400,
        ),
        (
            b"POST /predict HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}".to_vec(),
            400,
        ),
        (
            b"POST /predict HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
            501,
        ),
    ];
    for (raw, expected) in cases {
        let mut c = HttpClient::connect(handle.addr());
        let r = c.request_raw(&raw);
        assert_eq!(
            r.status,
            expected,
            "request {:?}",
            String::from_utf8_lossy(&raw)
        );
        assert_eq!(r.header("connection"), Some("close"));
        c.assert_closed();
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_method_is_405_unknown_route_404_unknown_model_404() {
    let (dir, _ensemble) = build_model_dir("methods");
    let handle = start_gateway(
        &dir,
        GatewayConfig {
            shards: 1,
            service: test_service_config(),
            ..GatewayConfig::default()
        },
    );
    let mut c = HttpClient::connect(handle.addr());

    // 405s advertise the allowed method and keep the connection alive.
    let r = c.request_raw(b"DELETE /health HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(r.status, 405);
    assert_eq!(r.header("allow"), Some("GET"));
    let r = c.get("/predict");
    assert_eq!(r.status, 405);
    assert_eq!(r.header("allow"), Some("POST"));

    let r = c.get("/no/such/route");
    assert_eq!(r.status, 404);

    // Envelope-level errors map onto statuses: unknown model is 404.
    let r = c.post_json(
        "/predict",
        &serde_json::to_string(&json!({"id": 1, "model": "nope", "netlist": NETLIST_A})).unwrap(),
    );
    assert_eq!(r.status, 404);
    assert_eq!(r.json()["error"]["code"].as_str(), Some("unknown_model"));

    // Invalid netlist is 400 through the same mapping.
    let r = c.post_json(
        "/predict",
        &serde_json::to_string(&json!({"id": 2, "netlist": "not spice at all"})).unwrap(),
    );
    assert_eq!(r.status, 400);
    assert_eq!(r.json()["error"]["code"].as_str(), Some("invalid_netlist"));

    // The connection survived every error above.
    assert_eq!(c.get("/health").status, 200);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A linear chain of `devices` transistors. `tag` keeps instance names
/// (and the cache key) unique per call.
fn chain_netlist(tag: usize, devices: usize) -> String {
    let mut s = String::new();
    for i in 0..devices {
        let j = i + 1;
        s.push_str(&format!("mq{tag}x{i} n{i} n{j} vss vss nch\n"));
    }
    s.push_str(".end\n");
    s
}

/// Pause between submissions while a test fills a one-worker,
/// one-slot queue, and the most submissions it makes before the
/// service must have shed.
const SUBMIT_PAUSE: Duration = Duration::from_millis(20);
const MAX_SUBMITS: u32 = 10;

/// Chain size whose lone predict on `service` outlasts the whole
/// submit-and-sleep loop, so the first job still holds the worker while
/// the queue fills and the shed requests arrive, however fast predicts
/// are: doubles from 2,000 devices until one predict takes that long.
fn saturating_chain_devices(service: &Service, tag: usize) -> usize {
    let loop_time = SUBMIT_PAUSE * MAX_SUBMITS;
    let mut devices = 2_000;
    loop {
        let line = predict_line(0, &chain_netlist(tag, devices), None);
        let started = Instant::now();
        let response = service.handle_line(&line);
        let took = started.elapsed();
        assert!(response.contains("\"ok\":true"), "{response:.300}");
        if took > loop_time {
            return devices;
        }
        assert!(
            devices < 1 << 20,
            "a {devices}-device predict took {took:?}, under {loop_time:?}"
        );
        devices *= 2;
    }
}

/// Submits chains of `devices` until `service` sheds one; returns the
/// pending jobs (the one on the worker and the queued one).
fn fill_until_shed(service: &Service, tag: usize, devices: usize) -> Vec<PendingCall> {
    let mut pending = Vec::new();
    for k in 0..MAX_SUBMITS as usize {
        let line = predict_line(100 + k as u64, &chain_netlist(tag + 1 + k, devices), None);
        match service.submit_line(&line) {
            Submitted::Pending(call) => pending.push(call),
            Submitted::Done(envelope) => {
                assert_eq!(
                    envelope["error"]["code"].as_str(),
                    Some("overloaded"),
                    "{envelope:?}"
                );
                return pending;
            }
        }
        // Give the worker a moment to pull the head job off the queue.
        std::thread::sleep(SUBMIT_PAUSE);
    }
    panic!("service never shed under a full queue");
}

#[test]
fn load_shedding_yields_503_with_retry_after_and_structured_overloaded() {
    let (dir, _ensemble) = build_model_dir("shed");
    // One shard, one worker, queue of one, no batching, no cache: two
    // slow jobs saturate the shard completely.
    let handle = start_gateway(
        &dir,
        GatewayConfig {
            shards: 1,
            service: ServiceConfig {
                workers: 1,
                queue_capacity: 1,
                max_batch: 1,
                cache_capacity: 0,
                ..ServiceConfig::default()
            },
            ..GatewayConfig::default()
        },
    );
    let service: Arc<Service> = handle.services()[0].clone();

    // Fill the shard through the service API until it sheds: at that
    // point the worker is grinding a slow job and the queue is full.
    let devices = saturating_chain_devices(&service, 0);
    let pending = fill_until_shed(&service, 0, devices);

    // An HTTP predict arriving now is shed with 503 + Retry-After...
    let mut http = HttpClient::connect(handle.addr());
    let r = http.post_json("/predict", &predict_body(1, NETLIST_A));
    assert_eq!(r.status, 503, "{:?}", r.json());
    assert_eq!(r.header("retry-after"), Some("1"));
    assert_eq!(r.json()["error"]["code"].as_str(), Some("overloaded"));

    // ...and a JSON-lines client on the SAME port gets the structured
    // `overloaded` error, not a dropped connection.
    let mut line_client = LineClient::connect(handle.addr());
    let v = line_client.roundtrip(&predict_line(2, NETLIST_A, None));
    assert_eq!(v["ok"].as_bool(), Some(false));
    assert_eq!(v["error"]["code"].as_str(), Some("overloaded"));

    // Drain the slow jobs so shutdown is orderly.
    for call in pending {
        let _ = service.wait(call);
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// JSON-lines over the gateway must answer byte for byte what
/// `Service::handle_line` answers on a service with the same registry
/// and config: the wire format is the service's own rendering.
#[test]
fn json_lines_over_gateway_is_byte_identical_to_handle_line() {
    let (dir, _ensemble) = build_model_dir("parity");
    let config = test_service_config();
    let registry = Arc::new(ModelRegistry::open(&dir).unwrap());
    let reference = Service::new(Arc::clone(&registry), config.clone());
    let handle = Gateway::bind(
        "127.0.0.1:0",
        registry,
        GatewayConfig {
            shards: 2,
            service: config,
            ..GatewayConfig::default()
        },
    )
    .unwrap()
    .spawn();
    let mut client = LineClient::connect(handle.addr());

    // Cold predict, warm (cached) predict, malformed JSON, unknown
    // model: every raw response line must match byte for byte.
    let requests = [
        predict_line(1, NETLIST_A, None),
        predict_line(2, NETLIST_A, None),
        "{malformed json".to_owned(),
        predict_line(3, NETLIST_B, Some("missing_model")),
        r#"{"op": "stats", "id": 4}"#.to_owned(),
    ];
    for request in &requests {
        client.send(request);
        let served = client.recv_raw();
        let expected = reference.handle_line(request);
        // `stats` contains live latency numbers; compare ids only.
        if request.contains("stats") {
            let served: Value = serde_json::from_str(&served).unwrap();
            let expected: Value = serde_json::from_str(&expected).unwrap();
            assert_eq!(served["id"], expected["id"]);
            assert_eq!(served["ok"], expected["ok"]);
        } else {
            assert_eq!(served, expected, "gateway diverged on: {request}");
        }
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipelined_http_requests_are_answered_in_order() {
    let (dir, _ensemble) = build_model_dir("pipeline");
    let handle = start_gateway(
        &dir,
        GatewayConfig {
            shards: 1,
            service: test_service_config(),
            ..GatewayConfig::default()
        },
    );

    let mut c = HttpClient::connect(handle.addr());
    let mut burst = Vec::new();
    for id in 1..=5_u64 {
        let body = predict_body(id, NETLIST_A);
        burst.extend_from_slice(
            format!(
                "POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        );
    }
    c.stream.write_all(&burst).expect("write burst");
    for id in 1..=5_u64 {
        let r = c
            .read_response()
            .expect("response for each pipelined request");
        assert_eq!(r.status, 200);
        assert_eq!(r.json()["id"].as_u64(), Some(id), "responses out of order");
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Serialises tests that flip the process-wide trace store on: the
/// store is a singleton, so concurrent enable/reset calls from parallel
/// tests would corrupt each other's counters.
static STORE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The `/debug` surface basics: content types, 405 on wrong methods,
/// 404 (as JSON) for unknown request ids, and `/metrics.json`
/// aggregation totals equal to the per-shard sums the same payload
/// reports.
#[test]
fn debug_surface_content_types_unknown_id_and_aggregation() {
    let _guard = STORE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (dir, _ensemble) = build_model_dir("debugsurface");
    let handle = start_gateway(
        &dir,
        GatewayConfig {
            shards: 2,
            service: test_service_config(),
            ..GatewayConfig::default()
        },
    );
    paragraph_obs::set_store_enabled(true);
    let store = paragraph_obs::trace_store();
    store.reset();
    store.set_keep_one_in(1); // keep everything: the index must fill

    // Traffic across both shards: connections round-robin per accept.
    for id in 1..=4_u64 {
        let mut c = HttpClient::connect(handle.addr());
        let r = c.post_json("/predict", &predict_body(id, NETLIST_A));
        assert_eq!(r.status, 200, "{:?}", r.json());
    }

    let mut c = HttpClient::connect(handle.addr());

    // Index: JSON content type, counters, and retained entries.
    let r = c.get("/debug/traces");
    assert_eq!(r.status, 200);
    assert_eq!(r.header("content-type"), Some("application/json"));
    let index = r.json();
    assert_eq!(index["enabled"].as_bool(), Some(true));
    assert!(index["epoch_unix_ns"].as_u64().is_some());
    let completed = index["counters"]["completed"].as_u64().expect("completed");
    assert!(completed >= 4, "4 predicts completed, saw {completed}");
    let retained = index["counters"]["retained"].as_u64().expect("retained");
    let not_retained = index["counters"]["not_retained"]
        .as_u64()
        .expect("not_retained");
    assert_eq!(
        retained + not_retained,
        completed,
        "retention counters must partition completed requests"
    );
    let traces = index["traces"].as_array().expect("traces array");
    assert!(!traces.is_empty(), "keep-everything sampling retained none");
    for t in traces {
        assert!(t["request_id"].as_str().is_some(), "{t:?}");
        assert!(t["reason"].as_str().is_some(), "{t:?}");
        assert!(t["total_us"].as_f64().is_some(), "{t:?}");
    }
    // Every retained predict carries its owning shard label.
    let shards: std::collections::BTreeSet<u64> = traces
        .iter()
        .filter(|t| t["op"].as_str() == Some("predict"))
        .filter_map(|t| t["shard"].as_u64())
        .collect();
    assert!(
        !shards.is_empty(),
        "predict traces must carry shard labels: {traces:?}"
    );

    // Detail for a real id round-trips; an unknown id is JSON 404.
    let known = traces[0]["request_id"].as_str().unwrap().to_owned();
    let r = c.get(&format!("/debug/traces/{known}"));
    assert_eq!(r.status, 200);
    assert_eq!(r.header("content-type"), Some("application/json"));
    let detail = r.json();
    assert_eq!(detail["request_id"].as_str(), Some(known.as_str()));
    assert!(detail["traceEvents"].as_array().is_some(), "{detail:?}");
    let r = c.get("/debug/traces/req-does-not-exist");
    assert_eq!(r.status, 404);
    assert_eq!(r.header("content-type"), Some("application/json"));
    assert_eq!(r.json()["error"]["code"].as_str(), Some("not_found"));

    // Dashboard: self-contained HTML.
    let r = c.get("/debug/dashboard");
    assert_eq!(r.status, 200);
    assert_eq!(r.header("content-type"), Some("text/html; charset=utf-8"));
    let page = String::from_utf8(r.body.clone()).expect("dashboard is UTF-8");
    assert!(page.contains("<html"), "not an HTML page");
    assert!(page.contains("request latency"), "latency section missing");
    assert!(page.contains("retained traces"), "trace section missing");
    assert!(!page.contains("<script"), "dashboard must not need scripts");

    // Wrong methods get 405 + Allow, like the other GET routes.
    for path in ["/debug/traces", "/debug/dashboard", "/debug/traces/req-1"] {
        let r = c.post_json(path, "{}");
        assert_eq!(r.status, 405, "{path}");
        assert_eq!(r.header("allow"), Some("GET"), "{path}");
    }

    // Aggregation: the totals block equals the per-shard sums of the
    // same snapshot payload.
    let snapshot = c.get("/metrics.json").json();
    let shards = snapshot["shards"].as_array().expect("shards array");
    assert_eq!(snapshot["shard_count"].as_u64(), Some(2));
    let per_shard_requests: u64 = shards
        .iter()
        .flat_map(|s| s["endpoints"].as_array().expect("endpoints").iter())
        .filter_map(|e| e["requests"].as_u64())
        .sum();
    assert_eq!(
        snapshot["totals"]["requests"].as_u64(),
        Some(per_shard_requests),
        "aggregate totals must equal the per-shard sum"
    );
    let per_shard_queue: i64 = shards
        .iter()
        .filter_map(|s| s["queue_depth"].as_f64())
        .sum::<f64>() as i64;
    assert_eq!(
        snapshot["totals"]["queue_depth"].as_f64().map(|v| v as i64),
        Some(per_shard_queue)
    );

    paragraph_obs::set_store_enabled(false);
    store.reset();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance path for tail sampling: a genuinely slow request
/// (long transistor chain against a millisecond slow threshold) is
/// retained with reason `slow`, and `/debug/traces/<req-id>` serves its
/// full parse → queue → inference span tree. The retained payload is
/// also written to `target/retained_traces.json` for CI to upload.
#[test]
fn slow_request_is_retained_with_full_span_tree() {
    let _guard = STORE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (dir, _ensemble) = build_model_dir("debugslow");
    let handle = start_gateway(
        &dir,
        GatewayConfig {
            shards: 1,
            service: ServiceConfig {
                workers: 1,
                cache_capacity: 0,
                slow_threshold: Duration::from_millis(1),
                ..test_service_config()
            },
            ..GatewayConfig::default()
        },
    );
    paragraph_obs::set_store_enabled(true);
    let store = paragraph_obs::trace_store();
    store.reset();
    store.set_keep_one_in(0); // remarkable requests only
    store.set_slow_threshold_us(f64::MAX); // the service's flag decides

    // A 3000-device chain takes far longer than the 1 ms slow
    // threshold; debug mode echoes the internal request id back.
    let mut c = HttpClient::connect(handle.addr());
    let netlist = chain_netlist(77, 3_000).replace('\n', "\\n");
    let body = format!(r#"{{"id": 900, "netlist": "{netlist}", "debug": true}}"#);
    let r = c.post_json("/predict", &body);
    assert_eq!(r.status, 200, "{:?}", r.json());
    let response = r.json();
    let request_id = response["debug"]["request_id"]
        .as_str()
        .expect("debug responses carry the internal request id")
        .to_owned();
    assert_eq!(
        response["debug"]["slow"].as_bool(),
        Some(true),
        "{response:?}"
    );

    // The index lists it with reason slow and its shard.
    let index = c.get("/debug/traces").json();
    let entry = index["traces"]
        .as_array()
        .expect("traces")
        .iter()
        .find(|t| t["request_id"].as_str() == Some(request_id.as_str()))
        .unwrap_or_else(|| panic!("slow request {request_id} not retained: {index:?}"))
        .clone();
    assert_eq!(entry["reason"].as_str(), Some("slow"), "{entry:?}");
    assert_eq!(entry["shard"].as_u64(), Some(0), "{entry:?}");
    assert!(entry["stages"]["queue_wait_us"].as_f64().is_some());

    // The detail serves the full span tree, Chrome-trace compatible.
    let r = c.get(&format!("/debug/traces/{request_id}"));
    assert_eq!(r.status, 200);
    let detail = r.json();
    assert_eq!(detail["reason"].as_str(), Some("slow"));
    assert_eq!(detail["ok"].as_bool(), Some(true));
    let events = detail["traceEvents"].as_array().expect("traceEvents");
    let names: std::collections::BTreeSet<&str> =
        events.iter().filter_map(|e| e["name"].as_str()).collect();
    for expected in [
        "parse",
        "serve_request",
        "queue_wait",
        "cache_lookup",
        "inference",
        "predict_job",
    ] {
        assert!(
            names.contains(expected),
            "span '{expected}' missing from retained tree {names:?}"
        );
    }
    for e in events {
        assert_eq!(e["ph"].as_str(), Some("X"), "{e:?}");
        assert!(e["ts"].as_f64().is_some() && e["dur"].as_f64().is_some());
    }

    // CI uploads the retained trace as an artifact.
    let target_dir = std::env::var("CARGO_TARGET_DIR")
        .unwrap_or_else(|_| format!("{}/../../target", env!("CARGO_MANIFEST_DIR")));
    let artifact = format!("{target_dir}/retained_traces.json");
    std::fs::write(
        &artifact,
        serde_json::to_string_pretty(&json!({
            "index": index,
            "slow_trace": detail,
        }))
        .expect("artifact serialises"),
    )
    .expect("write retained_traces.json");

    paragraph_obs::set_store_enabled(false);
    store.reset();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Under full-queue shedding the debug surface must stay responsive —
/// it is served by the shard event loop, not the saturated workers —
/// and the shed request itself is retained with reason `shed`.
#[test]
fn debug_endpoints_respond_under_shedding() {
    let _guard = STORE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (dir, _ensemble) = build_model_dir("debugshed");
    let handle = start_gateway(
        &dir,
        GatewayConfig {
            shards: 1,
            service: ServiceConfig {
                workers: 1,
                queue_capacity: 1,
                max_batch: 1,
                cache_capacity: 0,
                ..ServiceConfig::default()
            },
            ..GatewayConfig::default()
        },
    );
    paragraph_obs::set_store_enabled(true);
    let store = paragraph_obs::trace_store();
    store.reset();
    store.set_keep_one_in(0);
    store.set_slow_threshold_us(f64::MAX);
    let service: Arc<Service> = handle.services()[0].clone();

    // Saturate: one slow job on the worker, one in the queue.
    let devices = saturating_chain_devices(&service, 7_000);
    let pending = fill_until_shed(&service, 7_000, devices);

    // An HTTP predict is shed 503 — and the debug surface still works.
    let mut c = HttpClient::connect(handle.addr());
    let r = c.post_json("/predict", &predict_body(1, NETLIST_A));
    assert_eq!(r.status, 503, "{:?}", r.json());
    let r = c.get("/debug/traces");
    assert_eq!(r.status, 200, "index must respond while shedding");
    let index = r.json();
    let shed_count = index["counters"]["retained_by_reason"]["shed"]
        .as_u64()
        .expect("shed counter");
    assert!(shed_count >= 1, "shed requests must be retained: {index:?}");
    let r = c.get("/debug/dashboard");
    assert_eq!(r.status, 200, "dashboard must respond while shedding");

    for call in pending {
        let _ = service.wait(call);
    }
    paragraph_obs::set_store_enabled(false);
    store.reset();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
