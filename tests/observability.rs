//! Observability acceptance tests, spanning `paragraph-obs` and the
//! training stack:
//!
//! 1. a pinned-seed training run with tracing enabled writes a valid
//!    Chrome-trace `trace.json` (schema-checked field by field),
//! 2. instrumentation never changes the math — model parameters from an
//!    enabled run are bitwise identical to an uninstrumented run, and
//! 3. a run with tracing *and* the event log enabled is still bitwise
//!    identical (parameters and predictions), and flushes a
//!    schema-valid `events.jsonl` sample, and
//! 4. disabled instrumentation stays within 2% of the matmul it guards.

use std::sync::Mutex;
use std::time::Instant;

use paragraph::prelude::*;
use paragraph_layout::LayoutConfig;
use paragraph_netlist::parse_spice;
use serde_json::Value;

/// Serialises tests that toggle the process-wide trace flag.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn dataset() -> Vec<PreparedCircuit> {
    let sources = [
        ("a", "mp o i vdd vdd pch nf=2\nmn o i vss vss nch\nr1 o f 10k\n.end\n"),
        (
            "b",
            "mp1 x i vdd vdd pch nf=4\nmn1 x i vss vss nch nf=2\nmp2 y x vdd vdd pch\nmn2 y x vss vss nch\n.end\n",
        ),
        ("c", "mn1 d1 g1 s1 vss nch nfin=8\nmn2 d2 g1 d1 vss nch nfin=4\nc1 d2 vss 20f\n.end\n"),
    ];
    let mut prepared: Vec<PreparedCircuit> = sources
        .iter()
        .map(|(name, src)| {
            let c = parse_spice(src).unwrap().flatten().unwrap();
            PreparedCircuit::new(*name, c, &LayoutConfig::default())
        })
        .collect();
    let norm = fit_norm(&prepared);
    normalize_circuits(&mut prepared, &norm);
    prepared
}

/// Trains the pinned-seed quick model.
fn train_model(prepared: &[PreparedCircuit]) -> TargetModel {
    let norm = fit_norm(prepared);
    let mut fit = FitConfig::quick(GnnKind::ParaGraph);
    fit.epochs = 8;
    fit.seed = 11;
    let (model, loss) = TargetModel::train(prepared, Target::Cap, None, fit, &norm);
    assert!(loss.is_finite());
    model
}

fn param_bits(model: &TargetModel) -> Vec<(String, usize, usize, Vec<u32>)> {
    model
        .gnn()
        .params()
        .export()
        .into_iter()
        .map(|(name, r, c, data)| (name, r, c, data.iter().map(|v| v.to_bits()).collect()))
        .collect()
}

/// Trains the pinned-seed quick model and returns its parameters as
/// exact bit patterns.
fn train_param_bits(prepared: &[PreparedCircuit]) -> Vec<(String, usize, usize, Vec<u32>)> {
    param_bits(&train_model(prepared))
}

/// Per-circuit predictions as exact bit patterns.
fn predict_bits(model: &TargetModel, prepared: &[PreparedCircuit]) -> Vec<Vec<Option<u64>>> {
    prepared
        .iter()
        .map(|pc| {
            model
                .predict_circuit(&pc.circuit)
                .into_iter()
                .map(|p| p.map(f64::to_bits))
                .collect()
        })
        .collect()
}

#[test]
fn traced_training_writes_schema_valid_chrome_trace() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prepared = dataset();

    paragraph_obs::take_events(); // drop leftovers from other tests
    paragraph_obs::set_enabled(true);
    let _ = train_param_bits(&prepared);
    paragraph_obs::set_enabled(false);

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/target/trace.json");
    let written = paragraph_obs::write_trace(path).expect("trace written");
    assert!(written > 0, "traced training produced no events");

    let body = std::fs::read_to_string(path).unwrap();
    let doc: Value = serde_json::from_str(&body).expect("trace.json parses as JSON");
    let events = doc["traceEvents"].as_array().expect("traceEvents array");
    assert_eq!(events.len(), written);
    let mut names = std::collections::BTreeSet::new();
    for e in events {
        assert_eq!(e["ph"].as_str(), Some("X"), "complete events only: {e:?}");
        assert_eq!(e["cat"].as_str(), Some("paragraph"));
        let name = e["name"].as_str().expect("string name");
        names.insert(name.to_owned());
        assert!(e["ts"].as_f64().expect("numeric ts") >= 0.0);
        assert!(e["dur"].as_f64().expect("numeric dur") >= 0.0);
        assert!(e["pid"].as_u64().is_some());
        assert!(e["tid"].as_u64().is_some());
        assert!(e["args"].as_object().is_some(), "args must be an object");
    }
    // The span hierarchy wired through the stack must actually appear.
    for expected in [
        "train_target",
        "epoch",
        "train_step",
        "tape_backward",
        "matmul",
    ] {
        assert!(
            names.contains(expected),
            "span '{expected}' missing from {names:?}"
        );
    }
}

#[test]
fn tracing_does_not_change_trained_parameters() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prepared = dataset();

    paragraph_obs::set_enabled(false);
    let plain = train_param_bits(&prepared);

    paragraph_obs::set_enabled(true);
    let traced = train_param_bits(&prepared);
    paragraph_obs::set_enabled(false);
    paragraph_obs::take_events(); // leave no buffered events behind

    assert_eq!(plain.len(), traced.len());
    for ((n_a, r_a, c_a, bits_a), (n_b, r_b, c_b, bits_b)) in plain.iter().zip(&traced) {
        assert_eq!(n_a, n_b);
        assert_eq!((r_a, c_a), (r_b, c_b), "{n_a}: shape changed");
        assert_eq!(bits_a, bits_b, "{n_a}: parameters not bitwise identical");
    }
}

/// Tracing *and* the event log on at once: trained parameters and every
/// prediction stay bitwise identical to the quiet run, and the buffered
/// event records flush to a schema-valid JSONL sample (the file CI
/// uploads as an artifact).
#[test]
fn traced_and_evented_run_is_bitwise_identical_and_flushes_jsonl() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prepared = dataset();

    paragraph_obs::set_enabled(false);
    paragraph_obs::set_events_enabled(false);
    let quiet_model = train_model(&prepared);
    let quiet_params = param_bits(&quiet_model);
    let quiet_preds = predict_bits(&quiet_model, &prepared);

    paragraph_obs::take_events();
    let _ = paragraph_obs::take_event_lines();
    paragraph_obs::set_enabled(true);
    paragraph_obs::set_events_enabled(true);
    // `recording` is false when the `trace` feature is compiled out;
    // the bitwise assertions below still run in that configuration.
    let probe = paragraph_obs::Event::new("train_run");
    let recording = probe.is_recording();
    probe.str_field("suite", "observability").emit();
    let loud_model = train_model(&prepared);
    let loud_preds = predict_bits(&loud_model, &prepared);
    paragraph_obs::Event::new("train_run_done")
        .u64_field("params", quiet_params.len() as u64)
        .bool_field("ok", true)
        .emit();
    paragraph_obs::set_events_enabled(false);
    paragraph_obs::set_enabled(false);
    paragraph_obs::take_events();

    assert_eq!(quiet_params, param_bits(&loud_model));
    assert_eq!(
        quiet_preds, loud_preds,
        "event log must not perturb predictions"
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/target/events.jsonl");
    let _ = std::fs::remove_file(path);
    let written = paragraph_obs::write_events(path).expect("events flushed");
    if recording {
        assert!(written >= 2, "expected the two probe events, got {written}");
        let body = std::fs::read_to_string(path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        // A fresh file opens with one header line carrying the shared
        // span/event epoch, then one JSONL line per record.
        assert_eq!(lines.len(), written + 1, "header plus one line per record");
        assert!(
            lines[0].contains("\"kind\":\"events_header\""),
            "first line must be the epoch header: {}",
            lines[0]
        );
        assert!(
            lines[0].contains("\"epoch_unix_ns\""),
            "header must carry the shared epoch: {}",
            lines[0]
        );
        for line in &lines {
            let v: Value = serde_json::from_str(line).expect("event line parses");
            let obj = v.as_object().expect("event is a JSON object");
            assert!(obj.get("ts_us").and_then(Value::as_f64).is_some(), "{line}");
            assert!(obj.get("kind").and_then(Value::as_str).is_some(), "{line}");
        }
        assert!(
            lines.iter().any(|l| l.contains("\"kind\":\"train_run\"")),
            "probe event missing from sample"
        );
    }
}

/// The tail-sampled trace store must never perturb the math: every
/// prediction from a run with the store on (context entered, spans
/// collected, trace retained) is bitwise identical to the quiet run —
/// even with span *tracing* off, where the store is the only collector.
#[test]
fn trace_store_does_not_perturb_predictions() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prepared = dataset();

    paragraph_obs::set_enabled(false);
    paragraph_obs::set_store_enabled(false);
    let model = train_model(&prepared);
    let quiet_preds = predict_bits(&model, &prepared);

    paragraph_obs::set_store_enabled(true);
    let store = paragraph_obs::trace_store();
    store.reset();
    store.set_keep_one_in(1); // retain everything: maximal bookkeeping
    store.begin("obs-parity", None);
    let stored_preds = {
        let ctx = paragraph_obs::SpanContext::request("obs-parity", None);
        let _ctx = ctx.enter();
        let _span = paragraph_obs::span!("parity_probe");
        predict_bits(&model, &prepared)
    };
    let reason = store.complete(paragraph_obs::RequestRecord::new("obs-parity", "predict"));
    paragraph_obs::set_store_enabled(false);

    assert_eq!(
        quiet_preds, stored_preds,
        "trace store must not perturb predictions"
    );
    if paragraph_obs::Event::new("probe").is_recording() {
        // Only meaningful with the `trace` feature compiled in.
        assert_eq!(reason, Some(paragraph_obs::RetainReason::Sampled));
        let retained = store.get("obs-parity").expect("trace retained");
        assert!(
            retained.spans.iter().any(|s| s.name == "parity_probe"),
            "store-only collection lost the probe span: {:?}",
            retained.spans
        );
    }
    store.reset();
}

/// Nanoseconds per call of `f`, over `iters` calls.
fn ns_per_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        f(i);
    }
    start.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// The observability budget: a disabled span, a disabled event, and an
/// enabled trace store's not-retained request cycle each cost at most
/// 2% of the 256x256 matmul a span guards. The enabled paths are probed
/// first, so a broken feature gate cannot pass as free.
#[test]
fn disabled_instrumentation_stays_within_two_percent_of_a_matmul() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    paragraph_obs::set_enabled(true);
    drop(paragraph_obs::span!("overhead_probe"));
    let probe = paragraph_obs::take_events();
    paragraph_obs::set_events_enabled(true);
    paragraph_obs::Event::new("overhead_probe").emit();
    let probe_lines = paragraph_obs::take_event_lines();
    assert!(
        probe.iter().any(|e| e.name == "overhead_probe"),
        "enabled span did not record; the overhead measurement is invalid"
    );
    assert!(
        probe_lines
            .iter()
            .any(|l| l.contains("\"kind\":\"overhead_probe\"")),
        "enabled event did not record; the overhead measurement is invalid"
    );

    // A disabled span carries an arg whose closure must not run; a
    // disabled event attaches one field of each type.
    paragraph_obs::set_enabled(false);
    let span_ns = ns_per_call(5_000_000, |i| {
        let _g = paragraph_obs::span!("overhead_noop", i = i);
        std::hint::black_box(i);
    });
    paragraph_obs::set_events_enabled(false);
    let event_ns = ns_per_call(5_000_000, |i| {
        paragraph_obs::Event::new("overhead_noop")
            .str_field("op", "overhead")
            .u64_field("i", i as u64)
            .f64_field("latency_us", 1.5)
            .bool_field("ok", true)
            .emit();
        std::hint::black_box(i);
    });

    // One request the tail sampler drops: begin, enter the context,
    // one span, complete. Ids are prebuilt so formatting is not timed;
    // fewer cycles suffice, as each takes the store mutex twice.
    paragraph_obs::set_store_enabled(true);
    let store = paragraph_obs::trace_store();
    store.reset();
    store.set_keep_one_in(0);
    store.set_slow_threshold_us(f64::MAX);
    let mut ids = (0..200_000)
        .map(|i| format!("overhead-{i}"))
        .collect::<Vec<_>>()
        .into_iter();
    let store_ns = ns_per_call(ids.len(), |_| {
        let record =
            paragraph_obs::RequestRecord::new(ids.next().expect("an id per cycle"), "predict");
        store.begin(&record.request_id, None);
        {
            let ctx = paragraph_obs::SpanContext::request(&record.request_id, None);
            let _ctx = ctx.enter();
            let _g = paragraph_obs::span!("overhead_store_span");
        }
        std::hint::black_box(store.complete(record));
    });
    assert_eq!(
        store.counters().retained_total(),
        0,
        "a cycle retained its trace; the not-retained path went unmeasured"
    );
    paragraph_obs::set_store_enabled(false);
    store.reset();

    let n = 256;
    let mut rng = paragraph_tensor::init_rng(1);
    let mut p = paragraph_tensor::ParamSet::new();
    let a = p.add_xavier("a", n, n, &mut rng);
    let b = p.add_xavier("b", n, n, &mut rng);
    let matmul_ns = ns_per_call(20, |_| {
        std::hint::black_box(p.value(a).matmul(p.value(b)));
    });
    let pct = |ns: f64| ns / matmul_ns * 100.0;
    println!(
        "disabled span {span_ns:.2} ns ({:.4}%), disabled event {event_ns:.2} ns ({:.4}%), \
         store not-retained cycle {store_ns:.0} ns ({:.4}%) vs {n}x{n} matmul {:.1} us",
        pct(span_ns),
        pct(event_ns),
        pct(store_ns),
        matmul_ns / 1e3
    );
    assert!(
        pct(span_ns) <= 2.0,
        "disabled span {span_ns:.1} ns exceeds 2% of a {n}x{n} matmul"
    );
    assert!(
        pct(event_ns) <= 2.0,
        "disabled event {event_ns:.1} ns exceeds 2% of a {n}x{n} matmul"
    );
    assert!(
        pct(store_ns) <= 2.0,
        "store not-retained cycle {store_ns:.1} ns exceeds 2% of a {n}x{n} matmul"
    );
}
