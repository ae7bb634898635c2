//! Fused-kernel vs composed-primitive equivalence.
//!
//! Every layer now runs on the fused `attend_aggregate` / `spmm_mean` /
//! `spmm_norm` tape ops over compiled [`paragraph_gnn::GraphPlan`]s. The
//! `paragraph_gnn::reference` module keeps the original
//! gather/scatter/softmax chains alive; these tests pin the two paths
//! together — forwards, gradients, and tape size — across all five model
//! kinds, multi-head attention, an empty edge type, and isolated nodes.

use std::sync::Arc;

use paragraph_gnn::{reference, GnnKind, GnnModel, GraphSchema, HeteroGraph, ModelConfig};
use paragraph_tensor::{Tape, Tensor};

fn schema() -> GraphSchema {
    GraphSchema {
        node_feat_dims: vec![3, 2],
        // Edge type 2 stays empty in every graph below.
        num_edge_types: 3,
    }
}

/// 7 nodes (types 0,0,0,0,1,1,1), node 6 isolated, edge type 2 empty.
fn graph() -> HeteroGraph {
    let s = schema();
    let mut g = HeteroGraph::new(&s, vec![0, 0, 0, 0, 1, 1, 1]);
    g.set_features(
        0,
        Tensor::from_fn(4, 3, |i, j| ((i * 3 + j) % 7) as f32 * 0.3 - 0.8),
    );
    g.set_features(1, Tensor::from_fn(3, 2, |i, j| (i + 2 * j) as f32 * 0.25));
    g.set_edges(0, vec![0, 1, 2, 3, 0], vec![4, 4, 5, 5, 5]);
    g.set_edges(1, vec![4, 5, 4], vec![0, 2, 3]);
    g.validate().unwrap();
    g
}

fn model(kind: GnnKind, heads: usize) -> GnnModel {
    let mut cfg = ModelConfig::new(kind);
    cfg.embed_dim = 8;
    cfg.layers = 2;
    cfg.fc_layers = 2;
    cfg.attention_heads = heads;
    GnnModel::new(cfg, &schema())
}

fn max_rel(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs() / x.abs().max(y.abs()).max(1.0))
        .fold(0.0, f32::max)
}

fn fused_embed(m: &GnnModel, g: &HeteroGraph) -> (Tensor, usize) {
    let mut tape = Tape::new();
    let h = m.embed(&mut tape, g);
    (tape.value(h).clone(), tape.len())
}

fn composed_embed(m: &GnnModel, g: &HeteroGraph) -> (Tensor, usize) {
    let mut tape = Tape::new();
    let h = reference::embed(m, &mut tape, g);
    (tape.value(h).clone(), tape.len())
}

#[test]
fn mean_and_norm_kinds_are_bitwise_identical() {
    // GCN / GraphSage / RGCN use spmm_norm / spmm_mean, whose accumulation
    // order matches the composed scatter chains exactly.
    for kind in [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Rgcn] {
        let g = graph();
        let m = model(kind, 1);
        let (fused, _) = fused_embed(&m, &g);
        let (composed, _) = composed_embed(&m, &g);
        assert_eq!(fused.shape(), composed.shape());
        let same = fused
            .as_slice()
            .iter()
            .zip(composed.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "{}: fused drifted from composed", kind.name());
    }
}

#[test]
fn attention_kinds_match_within_tolerance() {
    // attend_aggregate computes each score as two F-length dots instead of
    // one 2F-length dot, so agreement is to rounding, not bitwise.
    for kind in [GnnKind::Gat, GnnKind::ParaGraph] {
        for heads in [1, 2] {
            let g = graph();
            let m = model(kind, heads);
            let (fused, _) = fused_embed(&m, &g);
            let (composed, _) = composed_embed(&m, &g);
            assert_eq!(fused.shape(), composed.shape());
            let rel = max_rel(fused.as_slice(), composed.as_slice());
            assert!(rel <= 1e-5, "{} heads={heads}: rel err {rel}", kind.name());
        }
    }
}

#[test]
fn gradients_match_the_composed_path() {
    let nodes = Arc::new(vec![4_u32, 5, 6]);
    let target = Tensor::from_col(&[0.3, -0.2, 0.1]);
    for kind in GnnKind::all() {
        let g = graph();
        let m = model(kind, 2);

        let mut fused_tape = Tape::new();
        let pred = m.predict_nodes(&mut fused_tape, &g, &nodes);
        let t = fused_tape.constant(target.clone());
        let loss = fused_tape.mse_loss(pred, t);
        let fused_grads = fused_tape.backward(loss).param_grads(&fused_tape);

        let mut ref_tape = Tape::new();
        let pred = reference::predict_nodes(&m, &mut ref_tape, &g, &nodes);
        let t = ref_tape.constant(target.clone());
        let loss = ref_tape.mse_loss(pred, t);
        let ref_grads = ref_tape.backward(loss).param_grads(&ref_tape);

        assert_eq!(fused_grads.len(), ref_grads.len(), "{}", kind.name());
        for ((fid, fg), (rid, rg)) in fused_grads.iter().zip(&ref_grads) {
            assert_eq!(fid, rid);
            let rel = max_rel(fg.as_slice(), rg.as_slice());
            assert!(
                rel <= 1e-4,
                "{} param {:?}: grad rel err {rel}",
                kind.name(),
                fid
            );
        }
    }
}

#[test]
fn isolated_nodes_get_zero_aggregate() {
    // Node 6 has no in-edges: attention/mean aggregation must contribute
    // exactly zero there (not NaN from an empty softmax), matching the
    // composed path.
    for kind in GnnKind::all() {
        let g = graph();
        let m = model(kind, 2);
        let (fused, _) = fused_embed(&m, &g);
        let row = fused.as_slice();
        assert!(
            row.iter().all(|v| v.is_finite()),
            "{}: non-finite embedding",
            kind.name()
        );
    }
}

#[test]
fn fused_tapes_are_pinned_and_smaller() {
    // Tape length is a proxy for per-layer op count: if a layer silently
    // de-fuses back into gather/scatter chains, these counts jump. Update
    // deliberately when the architecture changes.
    let expected = [
        (GnnKind::Gcn, 23),
        (GnnKind::GraphSage, 27),
        (GnnKind::Rgcn, 45),
        (GnnKind::Gat, 35),
        (GnnKind::ParaGraph, 77),
    ];
    for (kind, want) in expected {
        let g = graph();
        let m = model(kind, 2);
        let (_, fused_len) = fused_embed(&m, &g);
        let (_, composed_len) = composed_embed(&m, &g);
        assert_eq!(
            fused_len,
            want,
            "{}: fused tape length changed (composed = {composed_len})",
            kind.name()
        );
        assert!(
            fused_len < composed_len,
            "{}: fused tape ({fused_len}) not smaller than composed ({composed_len})",
            kind.name()
        );
    }
}
