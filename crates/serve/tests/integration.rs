//! End-to-end test: start a one-shard gateway on an ephemeral port,
//! hammer it with concurrent JSON-lines clients mixing valid, malformed,
//! and past-deadline requests, and assert that served predictions are
//! bit-identical to direct in-process model predictions on both cache
//! paths. Also pins hot reload, including the refusal of an artifact
//! that does not compile.

mod common;

use std::path::Path;
use std::sync::Arc;

use common::{
    build_model_dir, direct_reference, predict_line, response_predictions, start_gateway,
    train_cap_model, LineClient, NETLIST_A, NETLIST_B,
};
use paragraph::SavedModel;
use paragraph_serve::{GatewayConfig, GatewayHandle, ModelRegistry, ServiceConfig, ENSEMBLE_KEY};
use serde_json::{json, Value};

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 24;

/// One shard, so every connection lands on the same service and its
/// counters see all traffic.
fn start_server(dir: &Path) -> GatewayHandle {
    start_gateway(
        dir,
        GatewayConfig {
            shards: 1,
            service: ServiceConfig {
                workers: 4,
                queue_capacity: 256,
                cache_capacity: 64,
                enable_debug_ops: true,
                ..ServiceConfig::default()
            },
            ..GatewayConfig::default()
        },
    )
}

#[test]
fn concurrent_clients_mixed_traffic() {
    let (dir, ensemble) = build_model_dir("it-mixed");
    let handle = start_server(&dir);
    let addr = handle.addr();
    let expected_a = Arc::new(direct_reference(&ensemble, NETLIST_A));
    let expected_b = Arc::new(direct_reference(&ensemble, NETLIST_B));
    assert!(
        expected_a.iter().any(|(_, v)| *v > 0.0),
        "reference predictions must be non-trivial"
    );

    // Warm the cache once so later identical requests can hit it, and
    // check the cached-path payload is bit-identical to the cold one.
    {
        let mut c = LineClient::connect(addr);
        let cold = c.roundtrip(&predict_line(9_000, NETLIST_A, None));
        assert_eq!(cold["ok"].as_bool(), Some(true), "{cold:?}");
        assert_eq!(cold["cached"].as_bool(), Some(false));
        let warm = c.roundtrip(&predict_line(9_001, NETLIST_A, None));
        assert_eq!(warm["cached"].as_bool(), Some(true));
        assert_eq!(
            cold["result"], warm["result"],
            "cache must serve identical payloads"
        );
        assert_eq!(response_predictions(&cold), *expected_a);
    }

    let threads: Vec<_> = (0..CLIENTS)
        .map(|client_id| {
            let expected_a = expected_a.clone();
            let expected_b = expected_b.clone();
            std::thread::spawn(move || {
                let mut client = LineClient::connect(addr);
                let mut predictions_checked = 0_usize;
                for i in 0..REQUESTS_PER_CLIENT {
                    let id = (client_id * 1000 + i) as u64;
                    match i % 8 {
                        0 | 1 => {
                            let (netlist, expected) = if i % 16 < 8 {
                                (NETLIST_A, &expected_a)
                            } else {
                                (NETLIST_B, &expected_b)
                            };
                            let r = client.roundtrip(&predict_line(id, netlist, None));
                            assert_eq!(r["ok"].as_bool(), Some(true), "{r:?}");
                            assert_eq!(r["id"].as_u64(), Some(id));
                            assert_eq!(
                                response_predictions(&r),
                                **expected,
                                "served prediction differs from direct predict"
                            );
                            predictions_checked += 1;
                        }
                        2 => {
                            // Malformed JSON: structured error, connection stays up.
                            let r = client.roundtrip("this is not json {{{");
                            assert_eq!(r["ok"].as_bool(), Some(false));
                            assert_eq!(r["error"]["code"].as_str(), Some("bad_request"));
                        }
                        3 => {
                            // Unknown op.
                            let r = client.roundtrip(&format!(
                                r#"{{"op": "frobnicate", "id": {id}}}"#
                            ));
                            assert_eq!(r["error"]["code"].as_str(), Some("bad_request"));
                            assert_eq!(r["id"].as_u64(), Some(id), "id salvaged on errors");
                        }
                        4 => {
                            // Past-deadline request.
                            let r = client.roundtrip(&format!(
                                r#"{{"op": "predict", "id": {id}, "netlist": "{NL_A_ESCAPED}", "deadline_ms": 0}}"#
                            ));
                            assert_eq!(r["ok"].as_bool(), Some(false));
                            assert_eq!(
                                r["error"]["code"].as_str(),
                                Some("deadline_exceeded"),
                                "{r:?}"
                            );
                        }
                        5 => {
                            // Unparseable netlist.
                            let r = client.roundtrip(&format!(
                                r#"{{"op": "predict", "id": {id}, "netlist": "m broken\n.end\n"}}"#
                            ));
                            assert_eq!(r["ok"].as_bool(), Some(false));
                            assert_eq!(r["error"]["code"].as_str(), Some("invalid_netlist"));
                        }
                        6 => {
                            let r = client.roundtrip(&format!(
                                r#"{{"op": "stats", "id": {id}, "netlist": "{NL_A_ESCAPED}"}}"#
                            ));
                            assert_eq!(r["ok"].as_bool(), Some(true), "{r:?}");
                            assert!(r["result"]["devices"].as_u64().unwrap() >= 2);
                        }
                        _ => {
                            let r = client.roundtrip(&format!(r#"{{"op": "health", "id": {id}}}"#));
                            assert_eq!(r["ok"].as_bool(), Some(true));
                            let models = r["result"]["models"].as_array().unwrap();
                            assert!(models
                                .iter()
                                .any(|m| m.as_str() == Some(ENSEMBLE_KEY)));
                        }
                    }
                }
                predictions_checked
            })
        })
        .collect();

    let total_checked: usize = threads
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .sum();
    assert!(
        total_checked >= CLIENTS * 4,
        "predictions exercised: {total_checked}"
    );

    // Panic isolation: a worker panic returns a structured internal
    // error, and the pool keeps serving afterwards.
    {
        let mut c = LineClient::connect(addr);
        let r = c.roundtrip(r#"{"op": "debug_panic", "id": 7777}"#);
        assert_eq!(r["ok"].as_bool(), Some(false));
        assert_eq!(r["error"]["code"].as_str(), Some("internal"));
        assert!(r["error"]["message"].as_str().unwrap().contains("panicked"));
        let after = c.roundtrip(&predict_line(7_778, NETLIST_B, None));
        assert_eq!(
            after["ok"].as_bool(),
            Some(true),
            "pool died after a panic: {after:?}"
        );
        assert_eq!(response_predictions(&after), *expected_b);
    }

    // Metrics: counts, histogram buckets, queue depth, cache hit rate.
    {
        let mut c = LineClient::connect(addr);
        let r = c.roundtrip(r#"{"op": "metrics", "id": 8888}"#);
        assert_eq!(r["ok"].as_bool(), Some(true));
        let m = &r["result"]["metrics"];
        let endpoints = m["endpoints"].as_array().unwrap();
        let predict = endpoints
            .iter()
            .find(|e| e["op"].as_str() == Some("predict"))
            .expect("predict endpoint");
        let requests = predict["requests"].as_u64().unwrap();
        assert!(
            requests >= (CLIENTS * 4) as u64,
            "predict requests: {requests}"
        );
        let bucket_sum: u64 = predict["latency_buckets"]
            .as_array()
            .unwrap()
            .iter()
            .map(|b| b["count"].as_u64().unwrap())
            .sum();
        assert_eq!(bucket_sum, requests, "histogram must cover every request");
        assert!(
            predict["errors"].as_u64().unwrap() >= 1,
            "deadline errors recorded"
        );
        assert!(m["queue_depth"].as_u64().is_some() || m["queue_depth"].as_f64().is_some());
        assert!(m["bad_lines"].as_u64().unwrap() >= CLIENTS as u64);
        let cache = &m["cache"];
        assert!(
            cache["hits"].as_u64().unwrap() > 0,
            "repeated identical requests must hit"
        );
        assert!(cache["hit_rate"].as_f64().unwrap() > 0.0);
        assert!(r["result"]["prometheus"]
            .as_str()
            .unwrap()
            .contains("paragraph_requests_total"));
    }

    // In-process API serves the same bit-identical payloads as TCP.
    {
        let line = predict_line(12_345, NETLIST_A, None);
        let response: Value =
            serde_json::from_str(&handle.services()[0].handle_line(&line)).unwrap();
        assert_eq!(response["ok"].as_bool(), Some(true));
        assert_eq!(response_predictions(&response), *expected_a);
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hot_reload_swaps_registry() {
    let (dir, _ensemble) = build_model_dir("it-reload");
    let handle = start_server(&dir);
    let service = &handle.services()[0];
    let mut c = LineClient::connect(handle.addr());

    let r = c.roundtrip(r#"{"op": "reload", "id": 1}"#);
    assert_eq!(r["ok"].as_bool(), Some(true), "{r:?}");
    assert_eq!(r["result"]["models"].as_u64(), Some(2));
    assert_eq!(r["result"]["ensemble"].as_bool(), Some(true));

    // Add a third range member on disk; reload must pick it up.
    let model = train_cap_model(100e-15);
    std::fs::write(
        dir.join("cap_100f.json"),
        SavedModel::from_model(&model).to_json(),
    )
    .unwrap();
    let r = c.roundtrip(r#"{"op": "reload", "id": 2}"#);
    assert_eq!(r["result"]["models"].as_u64(), Some(3), "{r:?}");

    // An int8-pinned artifact with a weight of 1e39 parses (the weight
    // reads as f32 infinity) but cannot be packed at int8: `open` and
    // `reload` must fail with the compile error's text, and the old
    // snapshot keeps serving.
    let mut saved = SavedModel::from_model(&train_cap_model(1e-12));
    saved.precision = Some("int8".to_owned());
    let mut overflow: Value = serde_json::from_str(&saved.to_json()).unwrap();
    overflow["params"][0][3][0] = json!(1e39);
    let overflow = serde_json::to_string(&overflow).unwrap();
    let compile_error = SavedModel::from_json(&overflow)
        .and_then(SavedModel::into_model)
        .expect("the artifact itself loads")
        .compile()
        .expect_err("an infinite weight cannot be packed at int8")
        .to_string();
    assert!(compile_error.contains("int8"), "{compile_error}");
    std::fs::write(dir.join("cap_overflow.json"), overflow).unwrap();
    let err = ModelRegistry::open(&dir).expect_err("open must refuse the artifact");
    assert!(err.to_string().contains(&compile_error), "{err}");
    let r = c.roundtrip(r#"{"op": "reload", "id": 3}"#);
    assert_eq!(r["ok"].as_bool(), Some(false), "{r:?}");
    assert_eq!(r["error"]["code"].as_str(), Some("internal"));
    let message = r["error"]["message"].as_str().unwrap();
    assert!(message.contains(&compile_error), "{message}");
    assert_eq!(service.registry().current().models.len(), 3);
    let r = c.roundtrip(&predict_line(4, NETLIST_B, None));
    assert_eq!(r["ok"].as_bool(), Some(true), "{r:?}");
    assert_eq!(r["result"]["members"].as_u64(), Some(3));
    std::fs::remove_file(dir.join("cap_overflow.json")).unwrap();

    // An artifact pinned to a tier the executor does not have is
    // refused the same way, never quietly loaded at f32.
    saved.precision = Some("f16".to_owned());
    std::fs::write(dir.join("cap_f16.json"), saved.to_json()).unwrap();
    let err = ModelRegistry::open(&dir).expect_err("open must refuse the f16 pin");
    assert!(err.to_string().contains("unknown precision 'f16'"), "{err}");
    let r = c.roundtrip(r#"{"op": "reload", "id": 5}"#);
    assert_eq!(r["ok"].as_bool(), Some(false), "{r:?}");
    let message = r["error"]["message"].as_str().unwrap();
    assert!(message.contains("unknown precision 'f16'"), "{message}");
    assert_eq!(service.registry().current().models.len(), 3);
    let r = c.roundtrip(&predict_line(6, NETLIST_B, None));
    assert_eq!(r["ok"].as_bool(), Some(true), "{r:?}");
    assert_eq!(r["result"]["members"].as_u64(), Some(3));
    std::fs::remove_file(dir.join("cap_f16.json")).unwrap();

    // A corrupt snapshot must fail the reload and keep the old registry.
    std::fs::write(dir.join("broken.json"), "{not a model").unwrap();
    let r = c.roundtrip(r#"{"op": "reload", "id": 7}"#);
    assert_eq!(r["ok"].as_bool(), Some(false));
    assert_eq!(r["error"]["code"].as_str(), Some("internal"));
    assert_eq!(
        service.registry().current().models.len(),
        3,
        "old snapshot retained"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `NETLIST_A` with `\n` escaped for embedding in JSON string literals.
const NL_A_ESCAPED: &str = "mp o i vdd vdd pch\\nmn o i vss vss nch\\n.end\\n";
