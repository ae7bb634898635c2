//! Bitwise parity: the compiled executor must reproduce the tape
//! forward exactly — same bits, not just same values — for every
//! `GnnKind`, single graphs and `GraphBatch` merges, SIMD and portable
//! matmul paths alike.
//!
//! SIMD coverage comes from the embedding width: the AVX2 dense kernels
//! engage only when the output column count is a multiple of 8 (up to
//! 64), so `embed_dim = 8` exercises them (on AVX2 hardware) while
//! `embed_dim = 12` forces the portable path. Both must match the tape,
//! which dispatches through the identical kernels.

use std::sync::Arc;

use paragraph_exec::{CompiledModel, Precision};
use paragraph_gnn::{GnnKind, GnnModel, GraphBatch, GraphSchema, HeteroGraph, ModelConfig};
use paragraph_tensor::Tensor;

/// Deterministic pseudo-random stream (no external RNG needed).
struct Lcg(u64);

impl Lcg {
    fn next_f32(&mut self) -> f32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as f32 / (1u64 << 31) as f32) - 0.5
    }

    fn next_in(&mut self, n: usize) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as u32
    }
}

/// A small heterogeneous graph with two node types, three edge types,
/// and dense-ish random topology.
fn build_graph(seed: u64, nodes: usize) -> (GraphSchema, HeteroGraph) {
    let schema = GraphSchema {
        node_feat_dims: vec![3, 5],
        num_edge_types: 3,
    };
    let mut rng = Lcg(seed);
    let types: Vec<u16> = (0..nodes).map(|i| (i % 2) as u16).collect();
    let mut g = HeteroGraph::new(&schema, types.clone());
    for t in 0..2u16 {
        let count = types.iter().filter(|&&x| x == t).count();
        let dim = schema.node_feat_dims[t as usize];
        let feats = Tensor::from_fn(count, dim, |_, _| rng.next_f32());
        g.set_features(t, feats);
    }
    for et in 0..3 {
        let edges = nodes * 2;
        let mut src = Vec::with_capacity(edges);
        let mut dst = Vec::with_capacity(edges);
        for _ in 0..edges {
            src.push(rng.next_in(nodes));
            dst.push(rng.next_in(nodes));
        }
        g.set_edges(et, src, dst);
    }
    g.validate().unwrap();
    (schema, g)
}

fn query_nodes(nodes: usize, seed: u64) -> Vec<u32> {
    let mut rng = Lcg(seed);
    (0..nodes / 2).map(|_| rng.next_in(nodes)).collect()
}

fn assert_bitwise_eq(tape: &[f32], exec: &[f32], label: &str) {
    assert_eq!(tape.len(), exec.len(), "{label}: length mismatch");
    for (i, (a, b)) in tape.iter().zip(exec.iter()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label}: prediction {i} differs (tape {a:?} vs executor {b:?})"
        );
    }
}

fn check_parity(cfg: ModelConfig, label: &str) {
    let (schema, graph) = build_graph(7, 40);
    let model = GnnModel::new(cfg, &schema);
    let compiled = CompiledModel::compile(&model).expect("model should compile");

    let nodes = query_nodes(40, 99);
    let tape = model.predict(&graph, &Arc::new(nodes.clone()));
    let exec = compiled.predict(&graph, &nodes);
    assert_bitwise_eq(&tape, &exec, label);
}

#[test]
fn all_kinds_bitwise_parity_avx2_width() {
    for kind in GnnKind::all() {
        let mut cfg = ModelConfig::new(kind);
        cfg.embed_dim = 8; // multiple of 8 -> AVX2 dense path where supported
        cfg.layers = 3;
        cfg.fc_layers = 3;
        check_parity(cfg, kind.name());
    }
}

#[test]
fn all_kinds_bitwise_parity_portable_width() {
    for kind in GnnKind::all() {
        let mut cfg = ModelConfig::new(kind);
        cfg.embed_dim = 12; // not a multiple of 8 -> portable matmul rows
        cfg.layers = 2;
        cfg.fc_layers = 2;
        check_parity(cfg, kind.name());
    }
}

#[test]
fn multi_head_attention_parity() {
    for kind in [GnnKind::Gat, GnnKind::ParaGraph] {
        let mut cfg = ModelConfig::new(kind);
        cfg.embed_dim = 8;
        cfg.layers = 2;
        cfg.fc_layers = 2;
        cfg.attention_heads = 2;
        check_parity(cfg, &format!("{} 2 heads", kind.name()));
    }
}

#[test]
fn paragraph_ablations_parity() {
    for (att, et, cat) in [
        (true, false, false),
        (false, true, false),
        (false, false, true),
        (true, true, true),
    ] {
        let mut cfg = ModelConfig::new(GnnKind::ParaGraph);
        cfg.embed_dim = 8;
        cfg.layers = 2;
        cfg.fc_layers = 2;
        cfg.ablate_attention = att;
        cfg.ablate_edge_types = et;
        cfg.ablate_concat = cat;
        check_parity(cfg, &format!("ablations a={att} e={et} c={cat}"));
    }
}

#[test]
fn uncertainty_head_parity() {
    let mut cfg = ModelConfig::new(GnnKind::ParaGraph);
    cfg.embed_dim = 8;
    cfg.layers = 2;
    cfg.fc_layers = 2;
    cfg.uncertainty_head = true;
    check_parity(cfg, "uncertainty head");
}

#[test]
fn empty_edge_types_parity() {
    // Edge type 1 empty; GCN/GAT union still populated, RGCN/ParaGraph
    // must skip the empty relation exactly like the tape does.
    let schema = GraphSchema {
        node_feat_dims: vec![2],
        num_edge_types: 2,
    };
    let mut g = HeteroGraph::new(&schema, vec![0; 6]);
    g.set_features(0, Tensor::from_fn(6, 2, |i, j| (i + j) as f32 * 0.3 - 0.5));
    g.set_edges(0, vec![0, 1, 2, 3], vec![1, 2, 3, 4]);
    g.validate().unwrap();

    let nodes = vec![0u32, 2, 5];
    for kind in GnnKind::all() {
        let mut cfg = ModelConfig::new(kind);
        cfg.embed_dim = 8;
        cfg.layers = 2;
        cfg.fc_layers = 2;
        let model = GnnModel::new(cfg, &schema);
        let compiled = CompiledModel::compile(&model).unwrap();
        let tape = model.predict(&g, &Arc::new(nodes.clone()));
        let exec = compiled.predict(&g, &nodes);
        assert_bitwise_eq(&tape, &exec, kind.name());
    }
}

#[test]
fn graph_batch_parity() {
    // Executor over a block-diagonal merged graph must match the tape
    // over the same merged graph, and predict_batch must match
    // per-graph tape predictions.
    let (schema, g1) = build_graph(11, 24);
    let (_, g2) = build_graph(23, 30);
    let (_, g3) = build_graph(31, 18);
    let graphs = [&g1, &g2, &g3];
    let batch = GraphBatch::new(&graphs);

    for kind in GnnKind::all() {
        let mut cfg = ModelConfig::new(kind);
        cfg.embed_dim = 8;
        cfg.layers = 2;
        cfg.fc_layers = 2;
        let model = GnnModel::new(cfg, &schema);
        let compiled = CompiledModel::compile(&model).unwrap();

        // Merged-graph parity.
        let locals: Vec<Vec<u32>> =
            vec![query_nodes(24, 1), query_nodes(30, 2), query_nodes(18, 3)];
        let mut merged = Vec::new();
        for (gi, local) in locals.iter().enumerate() {
            merged.extend(local.iter().map(|&v| batch.global_node(gi, v)));
        }
        let tape = model.predict(batch.graph(), &Arc::new(merged.clone()));
        let exec = compiled.predict(batch.graph(), &merged);
        assert_bitwise_eq(&tape, &exec, &format!("{} merged", kind.name()));

        // predict_batch splits match per-graph positions in the flat
        // merged prediction.
        let split = compiled.predict_batch(&graphs, &locals);
        let flat: Vec<f32> = split.iter().flatten().copied().collect();
        assert_bitwise_eq(&exec, &flat, &format!("{} split", kind.name()));
    }
}

/// Largest per-graph relative error, with an absolute floor so
/// near-zero outputs don't dominate.
fn max_rel_err(got: &[f32], want: &[f32]) -> f32 {
    assert_eq!(got.len(), want.len());
    got.iter()
        .zip(want)
        .map(|(g, w)| (g - w).abs() / w.abs().max(0.05))
        .fold(0.0, f32::max)
}

/// Batched prediction (one block-diagonal pass, in-place batch reuse)
/// must match per-graph sequential prediction at the same precision:
/// bitwise at f32 and at calibrated int8 (every kernel — the
/// reduced-precision `_fast` aggregation and attention kernels included
/// — is row/segment independent and the union CSR sort is stable),
/// within a golden tolerance at uncalibrated int8 (its dynamic max-abs
/// activation scale spans the whole merged buffer, so it is
/// batch-dependent). The calibration covers all eight members, so a
/// site its table leaves at 0 is all-zero in every member and the live
/// max-abs fallback there cannot depend on the batch.
#[test]
fn batched_matches_sequential_across_sizes_and_precisions() {
    const MAX_BATCH: usize = 8;
    let members: Vec<(GraphSchema, HeteroGraph)> = (0..MAX_BATCH)
        .map(|i| build_graph(41 + i as u64 * 7, 16 + (i % 4) * 6))
        .collect();
    let schema = members[0].0.clone();
    let locals: Vec<Vec<u32>> = members
        .iter()
        .enumerate()
        .map(|(i, (_, g))| query_nodes(g.num_nodes(), 100 + i as u64))
        .collect();

    let mut cfg = ModelConfig::new(GnnKind::ParaGraph);
    cfg.embed_dim = 8;
    cfg.layers = 2;
    cfg.fc_layers = 2;
    let model = GnnModel::new(cfg, &schema);
    let f32_exec = CompiledModel::compile(&model).unwrap();
    let samples: Vec<(&HeteroGraph, Vec<u32>)> = members
        .iter()
        .zip(&locals)
        .map(|((_, g), l)| (g, l.clone()))
        .collect();
    let calib = f32_exec.calibrate(&samples);
    let tiers = [
        ("f32", f32_exec, true),
        (
            "int8",
            CompiledModel::compile_with(&model, Precision::Int8, None).unwrap(),
            false,
        ),
        (
            "calibrated int8",
            CompiledModel::compile_with(&model, Precision::Int8, Some(&calib)).unwrap(),
            true,
        ),
    ];

    for (tier, compiled, bitwise) in &tiers {
        for size in 1..=MAX_BATCH {
            let graphs: Vec<&HeteroGraph> = members[..size].iter().map(|(_, g)| g).collect();
            let sequential: Vec<Vec<f32>> = graphs
                .iter()
                .zip(&locals[..size])
                .map(|(g, local)| compiled.predict(g, local))
                .collect();
            let batched = compiled.predict_batch(&graphs, &locals[..size]);
            assert_eq!(batched.len(), size);
            for (gi, (got, want)) in batched.iter().zip(&sequential).enumerate() {
                let label = format!("{tier} size {size} graph {gi}");
                if *bitwise {
                    assert_bitwise_eq(want, got, &label);
                } else {
                    // Uncalibrated int8 quantizes activations against
                    // the merged buffer's max-abs, so the scale (and
                    // hence rounding) shifts with batch composition.
                    let err = max_rel_err(got, want);
                    assert!(err < 0.25, "{label}: batched int8 drifts by {err}");
                }
            }
        }
    }
}

/// Calibrated int8 activation scales are site-indexed (independent of
/// batch contents), so the calibrated batched path must be bitwise
/// equal to the sequential calibrated predictions.
#[test]
fn batched_calibrated_int8_matches_sequential() {
    let members: Vec<(GraphSchema, HeteroGraph)> =
        (0..4).map(|i| build_graph(61 + i * 13, 20)).collect();
    let schema = members[0].0.clone();
    let locals: Vec<Vec<u32>> = (0..4).map(|i| query_nodes(20, 200 + i)).collect();

    let mut cfg = ModelConfig::new(GnnKind::ParaGraph);
    cfg.embed_dim = 8;
    cfg.layers = 2;
    cfg.fc_layers = 2;
    let model = GnnModel::new(cfg, &schema);
    let f32_exec = CompiledModel::compile(&model).unwrap();
    let samples: Vec<(&HeteroGraph, Vec<u32>)> = members
        .iter()
        .zip(&locals)
        .map(|((_, g), l)| (g, l.clone()))
        .collect();
    let calib = f32_exec.calibrate(&samples);
    let int8 = CompiledModel::compile_with(&model, Precision::Int8, Some(&calib)).unwrap();

    let graphs: Vec<&HeteroGraph> = members.iter().map(|(_, g)| g).collect();
    let batched = int8.predict_batch(&graphs, &locals);
    for (gi, (g, local)) in graphs.iter().zip(&locals).enumerate() {
        let want = int8.predict(g, local);
        assert_bitwise_eq(&want, &batched[gi], &format!("calibrated int8 graph {gi}"));
    }
}

#[test]
fn predict_into_reuses_output_vector() {
    let (schema, graph) = build_graph(5, 20);
    let mut cfg = ModelConfig::new(GnnKind::ParaGraph);
    cfg.embed_dim = 8;
    cfg.layers = 2;
    cfg.fc_layers = 2;
    let model = GnnModel::new(cfg, &schema);
    let compiled = CompiledModel::compile(&model).unwrap();
    let nodes = query_nodes(20, 4);
    let expect = compiled.predict(&graph, &nodes);
    let mut out = Vec::new();
    for _ in 0..3 {
        compiled.predict_into(&graph, &nodes, &mut out);
        assert_bitwise_eq(&expect, &out, "predict_into");
    }
}
