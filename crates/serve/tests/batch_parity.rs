//! Batched predict parity: when an admission window gathers several
//! predict jobs into one batch, every request must be answered with
//! exactly the payload an unbatched service produces, at every
//! precision: f32, int8 with the calibration table derived at training,
//! and int8 with none, where each site scales by its live max-abs.

use std::sync::Arc;
use std::time::Duration;

use paragraph::{
    fit_norm, normalize_circuits, FitConfig, GnnKind, Precision, PreparedCircuit, Target,
    TargetModel,
};
use paragraph_layout::LayoutConfig;
use paragraph_netlist::parse_spice;
use paragraph_serve::{LoadedModels, ModelRegistry, Service, ServiceConfig};
use serde_json::{json, Value};

const NETLISTS: [&str; 4] = [
    "mp o i vdd vdd pch\nmn o i vss vss nch\n.end\n",
    "mp z a vdd vdd pch nf=2\nmn z a vss vss nch\nc1 z vss 1f\n.end\n",
    "mn1 d g s vss nch nfin=4\nr1 d o 2k\n.end\n",
    "mp1 q b vdd vdd pch\nmn1 q b vss vss nch\nmp2 w q vdd vdd pch\nmn2 w q vss vss nch\n.end\n",
];

/// A service over the two-member GCN ensemble at `precision`, its
/// members' calibration tables dropped unless `calibrated`. With
/// `window`, one worker holds a long admission window that closes when
/// the four requests are in; without, every job runs alone.
fn service(precision: Precision, calibrated: bool, window: bool) -> Arc<Service> {
    let circuit = parse_spice(NETLISTS[0]).unwrap().flatten().unwrap();
    let mut train = vec![PreparedCircuit::new(
        "seed",
        circuit,
        &LayoutConfig::default(),
    )];
    let norm = fit_norm(&train);
    normalize_circuits(&mut train, &norm);
    let members: Vec<(String, TargetModel)> = [("cap_1f", 1e-15), ("cap_10f", 10e-15)]
        .iter()
        .map(|(name, max_v)| {
            let mut fit = FitConfig::quick(GnnKind::Gcn);
            fit.epochs = 2;
            fit.embed_dim = 4;
            fit.layers = 1;
            let mut model = TargetModel::train(&train, Target::Cap, Some(*max_v), fit, &norm).0;
            assert!(model.calibration.is_some(), "training derives a table");
            // Pinned, so a process-wide PARAGRAPH_PRECISION override
            // (the quantized CI job) cannot reroute an arm.
            model.precision = Some(precision);
            if !calibrated {
                model.calibration = None;
            }
            (name.to_string(), model)
        })
        .collect();
    let snapshot = LoadedModels::from_models(members).unwrap();
    let registry = Arc::new(ModelRegistry::from_snapshot(snapshot));
    let config = ServiceConfig {
        // One worker, so the window collects every job; caching off so
        // every request takes the compute path.
        workers: 1,
        cache_capacity: 0,
        max_batch: if window { NETLISTS.len() } else { 1 },
        batch_window: if window {
            Duration::from_secs(5)
        } else {
            Duration::ZERO
        },
        ..ServiceConfig::default()
    };
    Arc::new(Service::new(registry, config))
}

fn predict_line(id: usize, netlist: &str) -> String {
    serde_json::to_string(&json!({"op": "predict", "id": id, "netlist": netlist, "debug": true}))
        .unwrap()
}

#[test]
fn batched_service_matches_unbatched_at_every_precision() {
    for (precision, calibrated) in [
        (Precision::F32, true),
        (Precision::Int8, true),
        (Precision::Int8, false),
    ] {
        let arm = format!("{precision}, calibrated: {calibrated}");
        let unbatched = service(precision, calibrated, false);
        let batched = service(precision, calibrated, true);

        // Reference payloads from the unbatched service.
        let reference: Vec<Value> = NETLISTS
            .iter()
            .enumerate()
            .map(|(i, nl)| {
                let r: Value =
                    serde_json::from_str(&unbatched.handle_line(&predict_line(i, nl))).unwrap();
                assert_eq!(r["ok"].as_bool(), Some(true), "{arm}: {r:?}");
                assert_eq!(r["debug"]["batched"], Value::Null, "{arm}: {r:?}");
                r["result"].clone()
            })
            .collect();

        // Fire all four at the windowed service concurrently; the window
        // gathers them into one batch. A few rounds cover different
        // arrival orders.
        for round in 0..3 {
            let threads: Vec<_> = NETLISTS
                .iter()
                .enumerate()
                .map(|(i, nl)| {
                    let svc = batched.clone();
                    let line = predict_line(round * 10 + i, nl);
                    std::thread::spawn(move || {
                        let r: Value = serde_json::from_str(&svc.handle_line(&line)).unwrap();
                        (i, r)
                    })
                })
                .collect();
            for t in threads {
                let (i, r) = t.join().unwrap();
                assert_eq!(r["ok"].as_bool(), Some(true), "{arm}: {r:?}");
                assert_eq!(
                    r["debug"]["batched"].as_u64(),
                    Some(NETLISTS.len() as u64),
                    "{arm}: request {i} was not in the four-wide batch: {r:?}"
                );
                assert_eq!(
                    r["result"], reference[i],
                    "{arm}: batched response {i} drifted from unbatched"
                );
            }
        }
    }
}
