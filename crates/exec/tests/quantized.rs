//! Quantized-path contracts: int8 compiled predictions track the f32
//! reference within the documented tolerances (with and without a
//! calibration table), calibration tables plug back into compilation,
//! the arena pool bounds its retention, and compile errors name the
//! offending model/layer.

use std::sync::Arc;

use paragraph_exec::{Calibration, CompileError, CompiledModel, Precision, MAX_POOLED_ARENAS};
use paragraph_gnn::{GnnKind, GnnModel, GraphSchema, HeteroGraph, ModelConfig};
use paragraph_tensor::Tensor;

fn schema() -> GraphSchema {
    GraphSchema {
        node_feat_dims: vec![3, 5],
        num_edge_types: 2,
    }
}

fn graph(n: usize, seed: u64) -> HeteroGraph {
    let schema = schema();
    let types: Vec<u16> = (0..n).map(|i| (i % 2) as u16).collect();
    let mut g = HeteroGraph::new(&schema, types);
    let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(13);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f32 / (1u64 << 53) as f32 * 4.0 - 2.0
    };
    let n0 = n.div_ceil(2);
    let n1 = n / 2;
    g.set_features(0, Tensor::from_fn(n0, 3, |_, _| next()));
    g.set_features(1, Tensor::from_fn(n1, 5, |_, _| next()));
    let src: Vec<u32> = (0..n as u32).collect();
    let dst0: Vec<u32> = (0..n).map(|i| ((i * 7 + 2) % n) as u32).collect();
    let dst1: Vec<u32> = (0..n).map(|i| ((i * 3 + 5) % n) as u32).collect();
    g.set_edges(0, src.clone(), dst0);
    g.set_edges(1, src, dst1);
    g.validate().unwrap();
    g
}

fn model(kind: GnnKind) -> GnnModel {
    let mut cfg = ModelConfig::new(kind);
    cfg.embed_dim = 16;
    cfg.layers = 2;
    cfg.fc_layers = 2;
    GnnModel::new(cfg, &schema())
}

/// Max absolute error normalised by the reference output scale
/// (max |want|) — the same scale-relative contract the golden-metric
/// tolerances pin, and robust to individual near-zero outputs.
fn max_rel_err(got: &[f32], want: &[f32]) -> f32 {
    let scale = want.iter().fold(1e-6_f32, |m, v| m.max(v.abs()));
    got.iter()
        .zip(want)
        .map(|(&g, &w)| (g - w).abs() / scale)
        .fold(0.0, f32::max)
}

/// `Precision::ALL` lists every tier once: each parses back from its
/// name, trimmed and in any case, and no other name parses (an artifact
/// pinned to a retired or unknown tier must fail to load).
#[test]
fn precision_parse_accepts_exactly_the_listed_tiers() {
    for p in Precision::ALL {
        assert_eq!(Precision::parse(p.name()), Some(p));
        let loud = format!(" {} ", p.name().to_ascii_uppercase());
        assert_eq!(Precision::parse(&loud), Some(p));
        assert_eq!(Precision::ALL[p as usize], p);
    }
    for name in ["f16", "bf16", "int4", ""] {
        assert_eq!(Precision::parse(name), None, "{name:?}");
    }
}

#[test]
fn int8_predictions_track_f32_with_dynamic_scales() {
    let g = graph(24, 11);
    let nodes: Vec<u32> = (0..24).collect();
    for kind in GnnKind::all() {
        let m = model(kind);
        let f32_exec = CompiledModel::compile(&m).unwrap();
        let int8_exec = CompiledModel::compile_with(&m, Precision::Int8, None).unwrap();
        let want = f32_exec.predict(&g, &nodes);
        let got = int8_exec.predict(&g, &nodes);
        let err = max_rel_err(&got, &want);
        eprintln!("{}: int8 scale-relative error {err}", kind.name());
        assert!(
            err < 0.05,
            "{}: int8 scale-relative error {err} exceeds 5e-2",
            kind.name()
        );
    }
}

#[test]
fn calibrated_int8_agrees_with_dynamic_on_calibration_graphs() {
    // Calibration records the f32 run's activation maxima; the int8
    // model's own activations drift slightly after the first quantized
    // layer, so static and dynamic scales are close but not equal — the
    // predictions must agree within the int8 tolerance.
    let g = graph(24, 3);
    let nodes: Vec<u32> = (0..24).collect();
    let m = model(GnnKind::ParaGraph);
    let f32_exec = CompiledModel::compile(&m).unwrap();
    let calib = f32_exec.calibrate(&[(&g, nodes.clone())]);
    assert_eq!(calib.sites().len(), f32_exec.calibration_sites());
    assert!(calib.sites().iter().all(|&v| v >= 0.0));

    let dynamic = CompiledModel::compile_with(&m, Precision::Int8, None).unwrap();
    let calibrated = CompiledModel::compile_with(&m, Precision::Int8, Some(&calib)).unwrap();
    let a = dynamic.predict(&g, &nodes);
    let b = calibrated.predict(&g, &nodes);
    let err = max_rel_err(&b, &a);
    eprintln!("calibrated-vs-dynamic int8 scale-relative error {err}");
    assert!(err < 0.08, "calibrated/dynamic int8 disagree by {err}");
}

#[test]
fn calibrated_int8_stays_accurate_on_unseen_graphs() {
    let m = model(GnnKind::ParaGraph);
    let f32_exec = CompiledModel::compile(&m).unwrap();
    let calib_graphs: Vec<HeteroGraph> = (0..4).map(|s| graph(20, 100 + s)).collect();
    let samples: Vec<(&HeteroGraph, Vec<u32>)> = calib_graphs
        .iter()
        .map(|g| (g, (0..20).collect()))
        .collect();
    let calib = f32_exec.calibrate(&samples);
    let int8_exec = CompiledModel::compile_with(&m, Precision::Int8, Some(&calib)).unwrap();

    let g = graph(28, 999);
    let nodes: Vec<u32> = (0..28).collect();
    let want = f32_exec.predict(&g, &nodes);
    let got = int8_exec.predict(&g, &nodes);
    let err = max_rel_err(&got, &want);
    eprintln!("calibrated int8 unseen-graph scale-relative error {err}");
    assert!(
        err < 0.05,
        "calibrated int8 scale-relative error {err} exceeds 5e-2"
    );
}

#[test]
fn quantized_predictions_are_deterministic_across_reuse() {
    let g = graph(24, 5);
    let nodes: Vec<u32> = (0..24).collect();
    let m = model(GnnKind::ParaGraph);
    let int8_exec = CompiledModel::compile_with(&m, Precision::Int8, None).unwrap();
    let baseline: Vec<u32> = int8_exec
        .predict(&g, &nodes)
        .iter()
        .map(|v| v.to_bits())
        .collect();
    for _ in 0..50 {
        let bits: Vec<u32> = int8_exec
            .predict(&g, &nodes)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(
            baseline, bits,
            "int8 predictions drifted across arena reuse"
        );
    }
}

#[test]
fn calibrated_int8_batch_is_bitwise_identical_to_sequential() {
    // With a calibration table every activation scale is static, the
    // int8 GEMM accumulates exactly in i32, and quantization is
    // per-element — so a block-diagonal batch computes bit-for-bit the
    // same values as per-graph requests. (Dynamic scales would not:
    // merging buffers changes their max-abs.)
    let m = model(GnnKind::ParaGraph);
    let f32_exec = CompiledModel::compile(&m).unwrap();
    let graphs: Vec<HeteroGraph> = (0..3).map(|s| graph(16, 40 + s)).collect();
    let samples: Vec<(&HeteroGraph, Vec<u32>)> =
        graphs.iter().map(|g| (g, (0..16).collect())).collect();
    let calib = f32_exec.calibrate(&samples);
    let int8_exec = CompiledModel::compile_with(&m, Precision::Int8, Some(&calib)).unwrap();
    let refs: Vec<&HeteroGraph> = graphs.iter().collect();
    let nodes: Vec<Vec<u32>> = (0..3).map(|_| (0..16).collect()).collect();
    let batched = int8_exec.predict_batch(&refs, &nodes);
    for (i, g) in graphs.iter().enumerate() {
        let single = int8_exec.predict(g, &nodes[i]);
        let batch_bits: Vec<u32> = batched[i].iter().map(|v| v.to_bits()).collect();
        let single_bits: Vec<u32> = single.iter().map(|v| v.to_bits()).collect();
        assert_eq!(batch_bits, single_bits, "graph {i}: batched int8 drift");
    }
}

#[test]
fn mixed_precision_models_share_tape_reference() {
    // The f32 compiled path must remain bitwise identical to the tape
    // regardless of other precisions existing in the process.
    let g = graph(20, 21);
    let nodes: Vec<u32> = (0..20).collect();
    let m = model(GnnKind::ParaGraph);
    let _ = CompiledModel::compile_with(&m, Precision::Int8, None).unwrap();
    let f32_exec = CompiledModel::compile(&m).unwrap();
    assert_eq!(f32_exec.precision(), Precision::F32);
    let tape = m.predict(&g, &Arc::new(nodes.clone()));
    let exec = f32_exec.predict(&g, &nodes);
    let tape_bits: Vec<u32> = tape.iter().map(|v| v.to_bits()).collect();
    let exec_bits: Vec<u32> = exec.iter().map(|v| v.to_bits()).collect();
    assert_eq!(tape_bits, exec_bits);
}

#[test]
fn arena_pool_retention_is_bounded() {
    let g = graph(12, 1);
    let nodes: Vec<u32> = vec![0, 3, 7];
    let m = model(GnnKind::Gcn);
    let exec = CompiledModel::compile(&m).unwrap();
    // Drive far more arenas through checkin than the cap by holding
    // many checkouts open simultaneously via nested predictions — the
    // simplest way without threads is to exercise checkin directly
    // through repeated predicts after seeding the pool past the cap.
    let pool = exec.pool();
    let arenas: Vec<_> = (0..MAX_POOLED_ARENAS + 10)
        .map(|_| pool.checkout())
        .collect();
    for a in arenas {
        pool.checkin(a);
    }
    assert_eq!(
        pool.pooled(),
        MAX_POOLED_ARENAS,
        "checkin retained more than MAX_POOLED_ARENAS arenas"
    );
    // The pool still serves requests normally at the cap.
    let out = exec.predict(&g, &nodes);
    assert_eq!(out.len(), nodes.len());
    assert!(pool.pooled() <= MAX_POOLED_ARENAS);
}

#[test]
fn compile_errors_name_model_and_layer() {
    // Wrong calibration size → InvalidConfig naming the kind.
    let m = model(GnnKind::ParaGraph);
    let bad = Calibration::from_sites(vec![1.0; 3]);
    let err = CompiledModel::compile_with(&m, Precision::Int8, Some(&bad)).unwrap_err();
    match &err {
        CompileError::InvalidConfig { kind, detail } => {
            assert_eq!(*kind, GnnKind::ParaGraph);
            assert!(detail.contains("calibration"));
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    let msg = err.to_string();
    assert!(
        msg.contains("ParaGraph"),
        "Display should name the kind: {msg}"
    );

    // Display for layer-scoped errors names the layer index.
    let shape_err = CompileError::UnsupportedShape {
        kind: GnnKind::Gat,
        layer: 1,
        detail: "GAT head weight must be F x F/heads".into(),
    };
    let msg = shape_err.to_string();
    assert!(
        msg.contains("layer 1"),
        "Display should name the layer: {msg}"
    );
    assert!(msg.contains("GAT"), "Display should name the kind: {msg}");

    let missing = CompileError::MissingParam {
        kind: GnnKind::Gcn,
        layer: 0,
        param: "w",
    };
    assert!(missing.to_string().contains("missing parameter w"));

    let prec = CompileError::UnsupportedPrecision {
        kind: GnnKind::Rgcn,
        precision: Precision::Int8,
        detail: "layer weight contains non-finite values".into(),
    };
    let msg = prec.to_string();
    assert!(
        msg.contains("int8"),
        "Display should name the precision: {msg}"
    );
    assert!(msg.contains("non-finite"), "{msg}");
}

#[test]
fn non_finite_weights_refuse_quantization() {
    let mut cfg = ModelConfig::new(GnnKind::Gcn);
    cfg.embed_dim = 8;
    cfg.layers = 1;
    cfg.fc_layers = 1;
    let mut m = GnnModel::new(cfg, &schema());
    let id = m.params().iter().next().unwrap().0;
    m.params_mut().value_mut(id).as_mut_slice()[0] = f32::NAN;
    assert!(
        CompiledModel::compile(&m).is_ok(),
        "f32 compile accepts any values"
    );
    let err = CompiledModel::compile_with(&m, Precision::Int8, None).unwrap_err();
    assert!(matches!(err, CompileError::UnsupportedPrecision { .. }));
}
