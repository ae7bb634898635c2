//! Continuous micro-batching: the admission window must gather
//! concurrent requests into one batch, surface its timings and metrics,
//! never trade a deadline for batch occupancy, carry every member's
//! trace across the pool threads that run the batch, and leave the
//! served predictions bit-identical to an unwindowed gateway.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{
    build_model_dir, direct_reference, predict_line, response_predictions, test_service_config,
    LineClient, NETLIST_A, NETLIST_B,
};
use paragraph_serve::{GatewayConfig, ModelRegistry, Service, ServiceConfig, Submitted};
use serde_json::Value;

/// Distinct single-cap netlists so concurrent requests never collide in
/// the prediction cache yet resolve to the same model (one batch group).
fn netlist_variant(i: usize) -> String {
    format!(
        "mp z a vdd vdd pch nf=2\nmn z a vss vss nch\nc1 z vss {}f\n.end\n",
        i + 1
    )
}

fn debug_predict_line(id: u64, netlist: &str) -> String {
    let escaped = netlist.replace('\n', "\\n");
    format!(r#"{{"op": "predict", "id": {id}, "debug": true, "netlist": "{escaped}"}}"#)
}

/// Four clients firing together against a single-shard gateway with a
/// generous window must land in one batch (the window closes early at
/// `max_batch`), each response reporting the shared batch, its
/// `window_wait_us`, `graph_build_us` and `inference_us` stages, and the
/// ensemble member Algorithm 2 picked.
#[test]
fn admission_window_batches_concurrent_requests() {
    let (dir, _ensemble) = build_model_dir("window-batch");
    let config = GatewayConfig {
        shards: 1,
        service: ServiceConfig {
            workers: 2,
            max_batch: 4,
            batch_window: Duration::from_secs(2),
            ..test_service_config()
        },
        ..GatewayConfig::default()
    };
    let gateway = common::start_gateway(&dir, config);
    let addr = gateway.addr();

    let responses: Vec<Value> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                scope.spawn(move || {
                    let mut client = LineClient::connect(addr);
                    client.roundtrip(&debug_predict_line(i as u64, &netlist_variant(i)))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, response) in responses.iter().enumerate() {
        assert!(
            response["result"]["predictions"].as_array().is_some(),
            "request {i} failed: {response:?}"
        );
        assert_eq!(
            response["debug"]["batched"].as_u64(),
            Some(4),
            "request {i} was not in the 4-wide batch: {:?}",
            response["debug"]
        );
        for stage in ["window_wait_us", "graph_build_us", "inference_us"] {
            assert!(
                response["debug"]["stages"][stage].as_f64().is_some(),
                "request {i} is missing the {stage} stage: {:?}",
                response["debug"]
            );
        }
        assert!(
            response["debug"]["member_max_v"].as_f64().is_some(),
            "request {i} is missing its Algorithm-2 member: {:?}",
            response["debug"]
        );
    }

    // The batching families render through the shard-labeled exposition.
    let mut http = common::HttpClient::connect(addr);
    let metrics = http.get("/metrics");
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8(metrics.body).unwrap();
    for family in [
        "paragraph_serve_batch_size_bucket",
        "paragraph_serve_batches_formed_total",
        "paragraph_serve_window_admitted_jobs_total",
    ] {
        assert!(
            text.contains(family),
            "missing {family} in gateway metrics:\n{text}"
        );
    }
    let snapshot = http.get("/metrics.json").json();
    let formed: u64 = snapshot["shards"]
        .as_array()
        .unwrap()
        .iter()
        .filter_map(|s| s["batching"]["batches_formed"].as_u64())
        .sum();
    assert!(formed >= 1, "no batch recorded in {snapshot:?}");

    gateway.shutdown();
}

/// With the trace store on and every request kept, each request served
/// in a batch has every forward of that batch in its retained trace:
/// one per circuit and ensemble member, whichever pool thread ran it.
#[test]
fn batched_forwards_reach_every_member_trace() {
    let (dir, ensemble) = build_model_dir("window-spans");
    let registry = Arc::new(ModelRegistry::open(&dir).unwrap());
    let service = Service::new(
        registry,
        ServiceConfig {
            workers: 1,
            max_batch: 4,
            batch_window: Duration::from_secs(2),
            cache_capacity: 0,
            ..ServiceConfig::default()
        },
    );
    let was_enabled = paragraph_obs::store_enabled();
    paragraph_obs::set_store_enabled(true);
    let store = paragraph_obs::trace_store();
    store.set_keep_one_in(1);

    let pending: Vec<_> = (0..4)
        .map(
            |i| match service.submit_line(&debug_predict_line(i as u64, &netlist_variant(i))) {
                Submitted::Pending(call) => call,
                Submitted::Done(response) => panic!("a predict answered inline: {response:?}"),
            },
        )
        .collect();
    let responses: Vec<Value> = pending.into_iter().map(|p| service.wait(p)).collect();
    let forwards = 4 * ensemble.members().len();
    for (i, response) in responses.iter().enumerate() {
        assert_eq!(
            response["debug"]["batched"].as_u64(),
            Some(4),
            "request {i} was not in the 4-wide batch: {response:?}"
        );
        let request_id = response["debug"]["request_id"]
            .as_str()
            .expect("request id");
        let trace = store
            .get(request_id)
            .unwrap_or_else(|| panic!("{request_id} was not retained"));
        assert_eq!(trace.dropped_spans, 0, "{request_id}");
        let seen = trace
            .spans
            .iter()
            .filter(|span| span.name == "executor_forward")
            .count();
        assert_eq!(
            seen, forwards,
            "{request_id} holds {seen} of its batch's {forwards} forwards"
        );
    }
    paragraph_obs::set_store_enabled(was_enabled);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A lone request under a window far longer than its deadline budget
/// must still succeed: the latency-budget guard closes the window after
/// at most half the remaining deadline, leaving the other half for
/// inference.
#[test]
fn window_never_spends_a_deadline() {
    let (dir, _ensemble) = build_model_dir("window-deadline");
    let registry = Arc::new(ModelRegistry::open(&dir).unwrap());
    let service = Service::new(
        registry,
        ServiceConfig {
            workers: 1,
            max_batch: 8,
            batch_window: Duration::from_secs(10),
            cache_capacity: 0,
            ..ServiceConfig::default()
        },
    );

    let escaped = NETLIST_B.replace('\n', "\\n");
    let line =
        format!(r#"{{"op": "predict", "id": 1, "deadline_ms": 400, "netlist": "{escaped}"}}"#);
    let started = Instant::now();
    let response = match service.submit_line(&line) {
        Submitted::Done(v) => v,
        Submitted::Pending(call) => service.wait(call),
    };
    let elapsed = started.elapsed();
    assert!(
        response["result"]["predictions"].as_array().is_some(),
        "window starved the deadline: {response:?}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "lone windowed request took {elapsed:?} — budget guard did not close the window"
    );
}

/// Window-on gateways (1 and 4 shards) must serve byte-identical
/// predictions to a window-off gateway and to the direct in-process
/// reference.
#[test]
fn windowed_predictions_bitwise_match_unwindowed() {
    let (dir, ensemble) = build_model_dir("window-parity");
    let reference_a = direct_reference(&ensemble, NETLIST_A);
    let reference_b = direct_reference(&ensemble, NETLIST_B);

    for (label, shards, window) in [
        ("window off", 1, Duration::ZERO),
        ("1 shard windowed", 1, Duration::from_micros(200)),
        ("4 shards windowed", 4, Duration::from_micros(200)),
    ] {
        let config = GatewayConfig {
            shards,
            service: ServiceConfig {
                batch_window: window,
                ..test_service_config()
            },
            ..GatewayConfig::default()
        };
        let gateway = common::start_gateway(&dir, config);
        let mut client = LineClient::connect(gateway.addr());
        for (netlist, reference) in [(NETLIST_A, &reference_a), (NETLIST_B, &reference_b)] {
            let response = client.roundtrip(&predict_line(1, netlist, None));
            let served = response_predictions(&response);
            assert_eq!(
                served.len(),
                reference.len(),
                "{label}: prediction count drifted"
            );
            for ((sn, sv), (rn, rv)) in served.iter().zip(reference) {
                assert_eq!(sn, rn, "{label}: net order drifted");
                assert_eq!(
                    sv.to_bits(),
                    rv.to_bits(),
                    "{label}: prediction for {sn} drifted ({sv} vs {rv})"
                );
            }
        }
        gateway.shutdown();
    }
}
