//! Golden regression test: a pinned-seed quick training run must keep
//! producing the same evaluation metrics (R² / MAE / MAPE per target)
//! as the checked-in golden file, within a tight tolerance.
//!
//! Training here is fully sequential and seeded, so drift means a real
//! change to the numerics — an op rewrite, an initialisation change, an
//! accidental reordering of a reduction. When the change is intentional,
//! refresh the golden with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_metrics
//! ```

use std::sync::Arc;

use paragraph::prelude::*;
use paragraph::{edge_type_name, Precision, NUM_EDGE_TYPES};
use paragraph_circuitgen::{
    compose_chip, FAMILY_ANALOG, FAMILY_DAC, FAMILY_IO, FAMILY_PMU, FAMILY_REF,
};
use paragraph_layout::LayoutConfig;
use paragraph_netlist::{parse_spice, Circuit};
use serde_json::{json, Value};

/// Relative tolerance for golden float comparisons. The run is
/// deterministic on one platform; the slack only absorbs cross-platform
/// libm differences.
const REL_TOL: f64 = 1e-4;

/// Pinned-golden tolerance for the int8 executor path. That run is just
/// as deterministic as the f32 one on a single platform, but
/// quantization amplifies cross-platform libm slack, so the pin is
/// looser — and it doubles as the accuracy contract: int8 metrics may
/// not drift more than 1e-2 relative from their pinned values.
const INT8_REL_TOL: f64 = 1e-2;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics.json");

/// Pinned mini-dataset: deterministic hand-shaped circuits (no RNG
/// anywhere on the data path).
fn dataset(n: usize, salt: usize) -> Vec<PreparedCircuit> {
    (0..n)
        .map(|i| {
            let k = salt + i;
            let src = format!(
                "mp{i} o{i} i{i} vdd vdd pch nf={}\n\
                 mn{i} o{i} i{i} vss vss nch nfin={}\n\
                 mp{i}b p{i} o{i} vdd vdd pch nf={}\n\
                 mn{i}b p{i} o{i} vss vss nch\n\
                 r{i} p{i} f{i} {}k\nc{i} f{i} vss {}f\n.end\n",
                1 + k % 4,
                1 + k % 8,
                1 + (k / 2) % 3,
                1 + k % 9,
                5 + k % 17,
            );
            let c = parse_spice(&src).unwrap().flatten().unwrap();
            PreparedCircuit::new(format!("g{salt}_{i}"), c, &LayoutConfig::default())
        })
        .collect()
}

fn golden_run() -> Value {
    let mut train = dataset(5, 3);
    let mut test = dataset(3, 40);
    let norm = fit_norm(&train);
    normalize_circuits(&mut train, &norm);
    normalize_circuits(&mut test, &norm);

    let mut targets = serde_json::Map::new();
    for target in [Target::Cap, Target::Sa] {
        let mut fit = FitConfig::quick(GnnKind::ParaGraph);
        fit.epochs = 12;
        fit.seed = 7;
        let (mut model, loss) = TargetModel::train(&train, target, None, fit, &norm);
        assert!(loss.is_finite(), "{}: training diverged", target.name());
        // Pin the golden run to f32 so `PARAGRAPH_PRECISION` in the
        // environment (e.g. the quantized CI job) cannot perturb the
        // reference numbers. The int8 clone is taken *before* the first
        // prediction: the compile cache is copied by clone, so a clone
        // made after evaluation would keep serving f32.
        model.precision = Some(Precision::F32);
        let mut int8 = model.clone();
        int8.precision = Some(Precision::Int8);
        let qs = evaluate_model(&int8, &test, None).summary();
        let s = evaluate_model(&model, &test, None).summary();
        targets.insert(
            target.name(),
            json!({
                "r2": s.r2,
                "mae": s.mae,
                "mape": s.mape,
                "count": s.count,
                "quantized": {
                    "int8": { "r2": qs.r2, "mae": qs.mae, "mape": qs.mape },
                },
            }),
        );
    }
    let mut root = serde_json::Map::new();
    root.insert("targets", Value::Object(targets));
    Value::Object(root)
}

fn assert_close_tol(name: &str, actual: f64, golden: f64, tol: f64) {
    let scale = golden.abs().max(1e-12);
    let rel = (actual - golden).abs() / scale;
    assert!(
        rel <= tol,
        "{name}: actual {actual} vs golden {golden} (rel err {rel:.3e} > {tol:.0e}); \
         run with UPDATE_GOLDEN=1 if the change is intentional"
    );
}

fn assert_close(name: &str, actual: f64, golden: f64) {
    assert_close_tol(name, actual, golden, REL_TOL);
}

/// The autograd tape's CAP predictions for `circuit`, laid out per net
/// like `predict_circuit`'s: the same graph build, normalisation and
/// unscaling, with the forward pass run by `model.gnn()` on the tape.
fn tape_predictions(model: &TargetModel, circuit: &Circuit) -> Vec<Option<f64>> {
    let mut cg = build_graph(circuit);
    cg.normalize(&model.norm);
    let nodes = Arc::new(cg.net_nodes());
    let mut scores = model.gnn().predict(&cg.graph, &nodes).into_iter();
    cg.net_node
        .iter()
        .map(|node| {
            node.map(|_| {
                let score = scores.next().expect("one score per net node");
                model.target.unscale_with(model.max_value, score)
            })
        })
        .collect()
}

/// The compiled tape-free executor must reproduce the tape's circuit
/// predictions bit-for-bit on a trained model — same contract the
/// `paragraph-exec` parity suite pins on raw graphs, here checked
/// through the full `predict_circuit` pipeline (graph build, feature
/// normalisation, unscaling), with the tape as the oracle.
///
/// Besides the hand-built inverter chains (where nearly every node
/// touches every edge type), the inputs include generated chips from
/// several families, so the executor's per-edge-type views cover sparse
/// types — thick-gate, diode and BJT terminals among them — and every
/// ParaGraph variant (two heads, each ablation) runs over them.
#[test]
fn executor_path_is_bitwise_identical_to_tape() {
    let mut train = dataset(4, 11);
    let norm = fit_norm(&train);
    normalize_circuits(&mut train, &norm);

    let mut circuits: Vec<Circuit> = dataset(2, 60).into_iter().map(|pc| pc.circuit).collect();
    for (i, (name, family)) in [
        ("io", FAMILY_IO),
        ("ref", FAMILY_REF),
        ("analog", FAMILY_ANALOG),
        ("dac", FAMILY_DAC),
        ("pmu", FAMILY_PMU),
    ]
    .into_iter()
    .enumerate()
    {
        circuits.push(compose_chip(name, 31 + i as u64, family, 5));
    }
    let exercised: Vec<String> = (0..NUM_EDGE_TYPES)
        .filter(|&t| {
            circuits
                .iter()
                .any(|c| !build_graph(c).graph.edges(t).is_empty())
        })
        .map(edge_type_name)
        .collect();
    assert!(
        exercised.len() >= 15,
        "only {} edge types exercised: {exercised:?}",
        exercised.len()
    );
    for terminal in ["thick", "diode", "bjt"] {
        assert!(
            exercised.iter().any(|name| name.contains(terminal)),
            "no {terminal} edge type exercised: {exercised:?}"
        );
    }

    let mut fits: Vec<(String, FitConfig)> = GnnKind::all()
        .into_iter()
        .map(|kind| (kind.name().to_string(), FitConfig::quick(kind)))
        .collect();
    for variant in [
        "heads2",
        "ablate_attention",
        "ablate_edge_types",
        "ablate_concat",
    ] {
        let mut fit = FitConfig::quick(GnnKind::ParaGraph);
        match variant {
            "heads2" => fit.attention_heads = 2,
            "ablate_attention" => fit.ablate_attention = true,
            "ablate_edge_types" => fit.ablate_edge_types = true,
            _ => fit.ablate_concat = true,
        }
        fits.push((format!("ParaGraph/{variant}"), fit));
    }

    for (name, mut fit) in fits {
        fit.epochs = 4;
        fit.seed = 7;
        let (mut model, _) = TargetModel::train(&train, Target::Cap, None, fit, &norm);
        // The bitwise contract only holds at f32; pin it so a
        // process-wide PARAGRAPH_PRECISION override (the quantized CI
        // job) cannot reroute this test through a quantized path.
        model.precision = Some(Precision::F32);
        for circuit in &circuits {
            let tape = tape_predictions(&model, circuit);
            let exec = model.predict_circuit(circuit);
            assert_eq!(tape.len(), exec.len());
            for (i, (t, e)) in tape.iter().zip(&exec).enumerate() {
                match (t, e) {
                    (Some(t), Some(e)) => assert_eq!(
                        t.to_bits(),
                        e.to_bits(),
                        "{name} on {}: net {i} differs (tape {t:?} vs executor {e:?})",
                        circuit.name
                    ),
                    (None, None) => {}
                    other => panic!("{name}: net {i} presence differs: {other:?}"),
                }
            }
        }
    }
}

#[test]
fn pinned_seed_metrics_match_golden() {
    let actual = golden_run();
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN_PATH, serde_json::to_string_pretty(&actual).unwrap()).unwrap();
        println!("golden refreshed at {GOLDEN_PATH}");
        return;
    }
    let golden: Value = serde_json::from_str(
        &std::fs::read_to_string(GOLDEN_PATH)
            .unwrap_or_else(|e| panic!("no golden at {GOLDEN_PATH} ({e}); run UPDATE_GOLDEN=1")),
    )
    .expect("golden parses");

    let golden_targets = golden["targets"].as_object().expect("targets object");
    let actual_targets = actual["targets"].as_object().unwrap();
    assert_eq!(
        golden_targets.len(),
        actual_targets.len(),
        "target set changed; refresh the golden"
    );
    for (name, g) in golden_targets.iter() {
        let a = actual_targets
            .get(name)
            .unwrap_or_else(|| panic!("target {name} missing from run"));
        assert_eq!(
            a["count"].as_u64(),
            g["count"].as_u64(),
            "{name}: evaluation point count changed"
        );
        for metric in ["r2", "mae", "mape"] {
            assert_close(
                &format!("{name}.{metric}"),
                a[metric].as_f64().unwrap(),
                g[metric].as_f64().unwrap(),
            );
        }
        // Int8 pins: same metrics, looser tolerance (the drift
        // contract for the int8 executor tier).
        let gq = g["quantized"]["int8"]
            .as_object()
            .unwrap_or_else(|| panic!("{name}: golden missing quantized.int8"));
        let aq = &a["quantized"]["int8"];
        for metric in ["r2", "mae", "mape"] {
            assert_close_tol(
                &format!("{name}.quantized.int8.{metric}"),
                aq[metric].as_f64().unwrap(),
                gq.get(metric).and_then(Value::as_f64).unwrap(),
                INT8_REL_TOL,
            );
        }
    }
}
