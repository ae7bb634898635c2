//! The exact-repeat index in front of the canonical cache key, through
//! `Service::handle_line`:
//!
//! * a deck that differs only in formatting still hits the canonical
//!   key after parse, with a byte-identical `result`, while an electrical
//!   edit or another model key misses;
//! * every predict lookup counts exactly one hit or one miss, across
//!   exact repeats, variants, misses and a reload;
//! * a stream of repeats, variants and misses leaves the drift monitor,
//!   and each request's `ood` verdict, exactly as a reference monitor
//!   fed every request's parsed rows;
//! * in process, a hit (whose result is parsed from the cached text)
//!   equals the miss's `Value` but for `cached`.

mod common;

use std::sync::Arc;

use common::{build_model_dir, NETLIST_A};
use paragraph::raw_feature_rows;
use paragraph_netlist::parse_spice;
use paragraph_obs::Registry;
use paragraph_serve::{
    DriftConfig, DriftMonitor, ModelRegistry, Request, Service, ServiceConfig, Submitted,
};
use serde_json::{json, Value};

const BASE: &str = "mp o i vdd vdd pch nf=2\nmn o i vss vss nch\nc1 o vss 1f\n.end\n";

/// Decks that flatten to `BASE`'s circuit.
const VARIANTS: [&str; 5] = [
    // comments
    "* an inverter\nmp o i vdd vdd pch nf=2 $ pull-up\nmn o i vss vss nch ; pull-down\nc1 o vss 1f\n.end\n",
    // blank lines
    "\nmp o i vdd vdd pch nf=2\n\n\nmn o i vss vss nch\nc1 o vss 1f\n\n.end\n",
    // letter case
    "MP O I VDD VDD PCH NF=2\nMn o I vss VSS nch\nC1 O vss 1F\n.END\n",
    // spacing
    "mp  o i\tvdd vdd   pch nf=2\n  mn o i vss vss nch\nc1 o vss 1f   \n.end\n",
    // `+` continuations
    "mp o i vdd vdd\n+ pch\n+ nf=2\nmn o i vss vss nch\nc1 o vss\n+ 1f\n.end\n",
];

/// `BASE` with one value changed.
const EDITED: &str = "mp o i vdd vdd pch nf=3\nmn o i vss vss nch\nc1 o vss 1f\n.end\n";

fn service(dir: &std::path::Path, workers: usize) -> Service {
    let registry = Arc::new(ModelRegistry::open(dir).unwrap());
    Service::new(
        registry,
        ServiceConfig {
            workers,
            ..common::test_service_config()
        },
    )
}

fn call(service: &Service, line: &str) -> Value {
    serde_json::from_str(&service.handle_line(line)).unwrap()
}

/// A predict line carrying `netlist` JSON-escaped (tabs included).
fn predict_line(id: u64, netlist: &str, model: Option<&str>) -> String {
    let mut request = json!({"op": "predict", "id": id, "netlist": netlist});
    if let Some(model) = model {
        request["model"] = json!(model);
    }
    serde_json::to_string(&request).unwrap()
}

/// A predict's `cached` flag and its `result` rendered as sent.
fn predict(service: &Service, netlist: &str, model: Option<&str>) -> (bool, String) {
    let response = call(service, &predict_line(1, netlist, model));
    assert_eq!(response["ok"].as_bool(), Some(true), "{response:?}");
    let cached = response["cached"].as_bool().expect("cached flag");
    (cached, serde_json::to_string(&response["result"]).unwrap())
}

fn lookups(service: &Service) -> u64 {
    service.cache().hits() + service.cache().misses()
}

#[test]
fn formatting_variants_hit_the_canonical_key() {
    let (dir, _) = build_model_dir("repeat-variants");
    let svc = service(&dir, 1);
    let (cached, fill) = predict(&svc, BASE, None);
    assert!(!cached, "first sighting misses");
    for deck in [BASE].iter().chain(&VARIANTS) {
        // First sighting of a variant (after parse), then its exact
        // repeat (from the index): both answer the fill's bytes.
        for _ in 0..2 {
            let (cached, result) = predict(&svc, deck, None);
            assert!(cached, "{deck:?} missed");
            assert_eq!(result, fill, "{deck:?}");
        }
    }
    let (cached, _) = predict(&svc, EDITED, None);
    assert!(!cached, "an electrical edit is a new circuit");
    let (cached, single) = predict(&svc, BASE, Some("cap_1f"));
    assert!(!cached, "the same text under another model key misses");
    assert_ne!(single, fill);
    assert_eq!(svc.cache().len(), 3, "entries count stored results");
    let _ = std::fs::remove_dir_all(dir);
}

/// `Service::call` and `submit_line` + `wait` answer an exact repeat
/// and a formatting variant's first sighting with the miss's `Value`.
#[test]
fn in_process_hits_equal_the_miss_value() {
    let (dir, _) = build_model_dir("repeat-in-process");
    let svc = service(&dir, 1);
    let call = |line: &str| svc.call(Request::parse(line).unwrap());
    let submit_and_wait = |line: &str| match svc.submit_line(line) {
        Submitted::Pending(pending) => svc.wait(pending),
        Submitted::Done(response) => panic!("a predict answered inline: {response:?}"),
    };
    let miss = call(&predict_line(1, BASE, None));
    assert_eq!(miss["cached"].as_bool(), Some(false), "{miss:?}");
    let mut expected = miss.clone();
    expected["cached"] = json!(true);
    for (api, variant) in [("call", VARIANTS[2]), ("submit_line + wait", VARIANTS[3])] {
        for (deck, path) in [(BASE, "exact repeat"), (variant, "canonical key")] {
            let line = predict_line(1, deck, None);
            let hits = svc.cache().hits();
            let hit = if api == "call" {
                call(&line)
            } else {
                submit_and_wait(&line)
            };
            assert_eq!(hit, expected, "{api}, {path}");
            assert_eq!(svc.cache().hits(), hits + 1, "{api}, {path}");
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn every_predict_lookup_counts_one_hit_or_miss() {
    let (dir, _) = build_model_dir("repeat-counters");
    let svc = service(&dir, 2);
    let mut expected = (0, 0);
    let mut send = |svc: &Service, deck: &str, model: Option<&str>, hit: bool| {
        let (cached, _) = predict(svc, deck, model);
        assert_eq!(cached, hit, "{deck:?} under {model:?}");
        if hit {
            expected.0 += 1;
        } else {
            expected.1 += 1;
        }
        assert_eq!((svc.cache().hits(), svc.cache().misses()), expected);
    };
    send(&svc, BASE, None, false);
    send(&svc, BASE, None, true);
    send(&svc, VARIANTS[2], None, true);
    send(&svc, VARIANTS[2], None, true);
    send(&svc, EDITED, None, false);
    send(&svc, EDITED, Some("cap_10f"), false);
    send(&svc, EDITED, Some("cap_10f"), true);
    // Requests that never reach a lookup count nothing.
    let before = lookups(&svc);
    let bad = call(&svc, &predict_line(2, "m1 only two\n", None));
    assert_eq!(bad["error"]["code"].as_str(), Some("invalid_netlist"));
    let unknown = call(&svc, &predict_line(3, BASE, Some("nope")));
    assert_eq!(unknown["error"]["code"].as_str(), Some("unknown_model"));
    let bad_unknown = call(&svc, &predict_line(4, "m1 only two\n", Some("nope")));
    assert_eq!(
        bad_unknown["error"]["code"].as_str(),
        Some("invalid_netlist"),
        "a bad netlist reports before an unknown model"
    );
    assert_eq!(lookups(&svc), before);
    // A reload clears the results and the index alike.
    let reload = call(&svc, r#"{"op": "reload", "id": 5}"#);
    assert_eq!(reload["ok"].as_bool(), Some(true), "{reload:?}");
    assert_eq!(svc.cache().len(), 0);
    send(&svc, BASE, None, false);
    send(&svc, VARIANTS[0], None, true);
    send(&svc, BASE, None, true);
    assert_eq!(svc.cache().len(), 1);
    let _ = std::fs::remove_dir_all(dir);
}

/// One subcircuit spelled with its ports in two orders. Both decks
/// flatten to the same `write_flat_spice` text, but ports resolve before
/// the child's devices, so their nets are numbered in opposite orders:
/// their feature rows differ in order while their canonical key agrees.
const PORTS_PQ: &str =
    ".subckt sub p q\nm1 q p vss vss nch\nc1 p vss 1f\n.ends\nx0 a b sub\n.end\n";
const PORTS_QP: &str =
    ".subckt sub q p\nm1 q p vss vss nch\nc1 p vss 1f\n.ends\nx0 b a sub\n.end\n";

/// A deck far from the training circuit (the drift monitor's OOD path).
fn wide_deck() -> String {
    let mut s = String::new();
    for i in 0..24 {
        s.push_str(&format!("mn d{i} g vss vss nch w=50u l=5u nf=8\n"));
    }
    s.push_str(".end\n");
    s
}

/// `(model, netlist)` in the drift parity stream's order: 256 requests
/// and more, so every window wraps. The training circuit itself is in
/// distribution; everything else here is not. The stream ends with two
/// repeats of `PORTS_QP`, so a window of three net values holds one
/// value of the first and both of the second: it tells `PORTS_QP`'s net
/// order from `PORTS_PQ`'s.
fn drift_stream() -> Vec<(Option<&'static str>, String)> {
    let wide = wide_deck();
    let mut stream = vec![
        (None, BASE.to_owned()),
        (None, BASE.to_owned()),
        (None, VARIANTS[1].to_owned()),
        (None, PORTS_PQ.to_owned()),
        (None, PORTS_QP.to_owned()),
        (None, PORTS_QP.to_owned()),
        (None, PORTS_PQ.to_owned()),
        (None, wide.clone()),
        (Some("nope"), EDITED.to_owned()),
        (None, EDITED.to_owned()),
        (Some("cap_1f"), BASE.to_owned()),
    ];
    for i in 0..DriftConfig::default().window {
        let deck = match i % 6 {
            0 => &wide,
            1 => BASE,
            2 => PORTS_QP,
            3 => VARIANTS[i % VARIANTS.len()],
            4 => NETLIST_A,
            _ => PORTS_PQ,
        };
        stream.push((None, deck.to_owned()));
    }
    stream.push((None, PORTS_QP.to_owned()));
    stream.push((None, PORTS_QP.to_owned()));
    stream
}

/// The drift metric lines of a Prometheus render.
fn drift_lines(text: &str) -> Vec<&str> {
    text.lines()
        .filter(|l| {
            l.contains("paragraph_serve_feature_window") || l.contains("paragraph_serve_drift_z")
        })
        .collect()
}

/// Sends the drift stream through a one-worker service whose drift
/// windows hold `window` values, checking each request's `ood` verdict
/// and then the monitor's whole state against a reference monitor fed
/// every request's parsed rows.
fn assert_drift_parity(dir: &std::path::Path, window: usize) {
    let drift_config = DriftConfig {
        window,
        ..DriftConfig::default()
    };
    let registry = Arc::new(ModelRegistry::open(dir).unwrap());
    let svc = Service::new(
        registry,
        ServiceConfig {
            workers: 1,
            drift: drift_config.clone(),
            ..common::test_service_config()
        },
    );
    let reference_registry = Registry::new();
    let reference = DriftMonitor::new(&reference_registry, drift_config);
    let baseline = svc
        .registry()
        .current()
        .ensemble
        .as_ref()
        .and_then(|e| e.members().iter().find_map(|m| m.baseline.clone()));
    assert!(baseline.is_some(), "the trained members carry baselines");
    reference.set_baseline(&reference_registry, baseline);

    let stream = drift_stream();
    let (mut hits, mut oods) = (0, 0);
    for (i, (model, deck)) in stream.iter().enumerate() {
        let before = svc.cache().hits();
        let mut request: Value =
            serde_json::from_str(&predict_line(i as u64, deck, *model)).unwrap();
        request["debug"] = json!(true);
        let response = call(&svc, &serde_json::to_string(&request).unwrap());
        let circuit = parse_spice(deck).unwrap().flatten().unwrap();
        let ood = reference.observe(&raw_feature_rows(&circuit));
        if response["ok"].as_bool() == Some(true) {
            hits += u64::from(svc.cache().hits() > before);
            assert_eq!(response["debug"]["ood"].as_bool(), Some(ood), "request {i}");
        } else {
            assert_eq!(response["error"]["code"].as_str(), Some("unknown_model"));
        }
        oods += u64::from(ood);
    }
    assert!(hits > 200, "the stream is mostly repeats: {hits} hits");
    assert!(
        oods > 0 && oods < stream.len() as u64,
        "{oods} OOD requests"
    );

    let drift = svc.drift();
    let bits = |z: Vec<(String, f64)>| {
        z.into_iter()
            .map(|(name, v)| (name, v.to_bits()))
            .collect::<Vec<_>>()
    };
    let label = format!("window {window}");
    assert_eq!(
        bits(drift.z_scores()),
        bits(reference.z_scores()),
        "{label}"
    );
    assert_eq!(drift.ood_requests_total(), reference.ood_requests_total());
    assert_eq!(drift.ood_requests_total(), oods);
    assert_eq!(
        drift.ood_fraction().to_bits(),
        reference.ood_fraction().to_bits(),
        "{label}"
    );
    let served = svc.metrics().render(svc.cache());
    let expected = reference_registry.render_prometheus();
    assert!(!drift_lines(&expected).is_empty());
    assert_eq!(drift_lines(&served), drift_lines(&expected), "{label}");
}

#[test]
fn repeats_leave_the_drift_monitor_as_parsing_does() {
    let (dir, _) = build_model_dir("repeat-drift");
    for window in [3, DriftConfig::default().window] {
        assert_drift_parity(&dir, window);
    }
    let _ = std::fs::remove_dir_all(dir);
}
