//! Composed-primitive reference implementations of every layer.
//!
//! These replicate, op for op, the pre-fusion forward passes (each
//! aggregation spelled out as `gather_rows` → `matmul` → `concat_cols` →
//! score `matmul` → `leaky_relu` → `segment_softmax` →
//! `mul_col_broadcast` → `scatter_add_rows`). They read the *same*
//! parameters as a [`GnnModel`], so the equivalence tests can pit the
//! fused kernels against the exact chains they replaced — numerically
//! and in tape-node count.
//!
//! Not a production path: the fused ops in [`GnnModel::embed`] are the
//! hot path; this module exists so de-fusing or numeric drift is caught.

use std::sync::Arc;

use paragraph_tensor::{ParamId, Tape, Tensor, Var};

use crate::graph::{EdgeList, HeteroGraph};
use crate::model::{GnnKind, GnnModel, LayerParams};

/// Composed-primitive version of [`GnnModel::embed`].
pub fn embed(model: &GnnModel, tape: &mut Tape, graph: &HeteroGraph) -> Var {
    let n = graph.num_nodes();
    let f = model.config.embed_dim;
    // Per-type input projection with per-call feature clones, as the
    // pre-fusion code did.
    let mut h = tape.constant(Tensor::zeros(n, f));
    for t in 0..graph.num_node_types() {
        let idx = graph.nodes_of_type(t as u16);
        if idx.is_empty() {
            continue;
        }
        let x = tape.constant(graph.features(t as u16).clone());
        let w = tape.param(&model.params, model.in_proj[t]);
        let proj = tape.matmul(x, w);
        let scattered = tape.scatter_add_rows(proj, idx.clone(), n);
        h = tape.add(h, scattered);
    }
    for layer in &model.layers {
        h = match model.config.kind {
            GnnKind::Gcn => gcn_layer(model, tape, graph, h, layer),
            GnnKind::GraphSage => sage_layer(model, tape, graph, h, layer),
            GnnKind::Rgcn => rgcn_layer(model, tape, graph, h, layer),
            GnnKind::Gat => gat_layer(model, tape, graph, h, layer),
            GnnKind::ParaGraph => paragraph_layer(model, tape, graph, h, layer),
        };
    }
    h
}

/// Composed-primitive version of [`GnnModel::predict_nodes`].
pub fn predict_nodes(
    model: &GnnModel,
    tape: &mut Tape,
    graph: &HeteroGraph,
    nodes: &Arc<Vec<u32>>,
) -> Var {
    let h = embed(model, tape, graph);
    let mut z = tape.gather_rows(h, nodes.clone());
    for (k, (w, b)) in model.head.iter().enumerate() {
        let wv = tape.param(&model.params, *w);
        let bv = tape.param(&model.params, *b);
        z = tape.matmul(z, wv);
        z = tape.add_bias(z, bv);
        if k + 1 < model.head.len() {
            z = tape.relu(z);
        }
    }
    z
}

fn union(graph: &HeteroGraph) -> EdgeList {
    if let Some(u) = graph.cached_union() {
        return u.clone();
    }
    let mut src = Vec::with_capacity(graph.num_edges());
    let mut dst = Vec::with_capacity(graph.num_edges());
    for t in 0..graph.num_edge_types() {
        let e = graph.edges(t);
        src.extend_from_slice(&e.src);
        dst.extend_from_slice(&e.dst);
    }
    EdgeList::new(src, dst)
}

fn gcn_layer(
    model: &GnnModel,
    tape: &mut Tape,
    graph: &HeteroGraph,
    h: Var,
    lp: &LayerParams,
) -> Var {
    let n = graph.num_nodes();
    let edges = union(graph);
    let din = graph.in_degrees(&edges);
    let dout = graph.out_degrees(&edges);
    let norm: Vec<f32> = edges
        .src
        .iter()
        .zip(edges.dst.iter())
        .map(|(&s, &d)| 1.0 / (dout[s as usize].max(1.0) * din[d as usize].max(1.0)).sqrt())
        .collect();
    let msg = tape.gather_rows(h, edges.src.clone());
    let norm_col = tape.constant(Tensor::from_col(&norm));
    let msg = tape.mul_col_broadcast(msg, norm_col);
    let agg = tape.scatter_add_rows(msg, edges.dst.clone(), n);
    let w = tape.param(&model.params, lp.w.expect("gcn has w"));
    let b = tape.param(&model.params, lp.b);
    let z = tape.matmul(agg, w);
    let z = tape.add_bias(z, b);
    tape.relu(z)
}

fn sage_layer(
    model: &GnnModel,
    tape: &mut Tape,
    graph: &HeteroGraph,
    h: Var,
    lp: &LayerParams,
) -> Var {
    let n = graph.num_nodes();
    let edges = union(graph);
    let din = graph.in_degrees(&edges);
    let msg = tape.gather_rows(h, edges.src.clone());
    let agg = tape.scatter_add_rows(msg, edges.dst.clone(), n);
    let inv: Vec<f32> = din.iter().map(|&d| 1.0 / d.max(1.0)).collect();
    let inv_col = tape.constant(Tensor::from_col(&inv));
    let mean = tape.mul_col_broadcast(agg, inv_col);
    let cat = tape.concat_cols(h, mean);
    let w = tape.param(&model.params, lp.w.expect("sage has w"));
    let b = tape.param(&model.params, lp.b);
    let z = tape.matmul(cat, w);
    let z = tape.add_bias(z, b);
    let z = tape.relu(z);
    tape.row_l2_normalize(z)
}

fn rgcn_layer(
    model: &GnnModel,
    tape: &mut Tape,
    graph: &HeteroGraph,
    h: Var,
    lp: &LayerParams,
) -> Var {
    let n = graph.num_nodes();
    let w_self = tape.param(&model.params, lp.w_self.expect("rgcn has w_self"));
    let mut acc = tape.matmul(h, w_self);
    for t in 0..model.num_edge_types {
        let edges = graph.edges(t);
        if edges.is_empty() {
            continue;
        }
        let din = graph.in_degrees(edges);
        let msg = tape.gather_rows(h, edges.src.clone());
        let agg = tape.scatter_add_rows(msg, edges.dst.clone(), n);
        let inv: Vec<f32> = din.iter().map(|&d| 1.0 / d.max(1.0)).collect();
        let inv_col = tape.constant(Tensor::from_col(&inv));
        let mean = tape.mul_col_broadcast(agg, inv_col);
        let w_r = tape.param(&model.params, lp.w_type[t]);
        let z = tape.matmul(mean, w_r);
        acc = tape.add(acc, z);
    }
    let b = tape.param(&model.params, lp.b);
    let z = tape.add_bias(acc, b);
    tape.relu(z)
}

fn gat_layer(
    model: &GnnModel,
    tape: &mut Tape,
    graph: &HeteroGraph,
    h: Var,
    lp: &LayerParams,
) -> Var {
    let n = graph.num_nodes();
    let edges = union(graph);
    let heads = model.config.attention_heads.max(1);
    let mut agg: Option<Var> = None;
    for k in 0..heads {
        let w = tape.param(&model.params, lp.w_type[k]);
        let z = tape.matmul(h, w);
        let head = attention_aggregate(model, tape, &edges, z, lp.a_type[k], n);
        agg = Some(match agg {
            Some(prev) => tape.concat_cols(prev, head),
            None => head,
        });
    }
    let agg = agg.expect("at least one head");
    let b = tape.param(&model.params, lp.b);
    let z = tape.add_bias(agg, b);
    tape.relu(z)
}

fn paragraph_layer(
    model: &GnnModel,
    tape: &mut Tape,
    graph: &HeteroGraph,
    h: Var,
    lp: &LayerParams,
) -> Var {
    let n = graph.num_nodes();
    let f = model.config.embed_dim;
    let mut agg = tape.constant(Tensor::zeros(n, f));
    if model.config.ablate_edge_types {
        let edges = union(graph);
        if !edges.is_empty() {
            let heads = model.config.attention_heads.max(1);
            let mut h_t: Option<Var> = None;
            for k in 0..heads {
                let w_t = tape.param(&model.params, lp.w_type[k]);
                let z = tape.matmul(h, w_t);
                let head = if model.config.ablate_attention {
                    mean_aggregate(tape, graph, &edges, z, n)
                } else {
                    attention_aggregate(model, tape, &edges, z, lp.a_type[k], n)
                };
                h_t = Some(match h_t {
                    Some(prev) => tape.concat_cols(prev, head),
                    None => head,
                });
            }
            agg = tape.add(agg, h_t.expect("head output"));
        }
    } else {
        let heads = model.config.attention_heads.max(1);
        for t in 0..model.num_edge_types {
            let edges = graph.edges(t);
            if edges.is_empty() {
                continue;
            }
            let mut h_t: Option<Var> = None;
            for k in 0..heads {
                let w_t = tape.param(&model.params, lp.w_type[t * heads + k]);
                let z = tape.matmul(h, w_t);
                let head = if model.config.ablate_attention {
                    mean_aggregate(tape, graph, edges, z, n)
                } else {
                    attention_aggregate(model, tape, edges, z, lp.a_type[t * heads + k], n)
                };
                h_t = Some(match h_t {
                    Some(prev) => tape.concat_cols(prev, head),
                    None => head,
                });
            }
            agg = tape.add(agg, h_t.expect("head output"));
        }
    }
    let w = tape.param(&model.params, lp.w.expect("paragraph has w"));
    let b = tape.param(&model.params, lp.b);
    let pre = if model.config.ablate_concat {
        let summed = tape.add(h, agg);
        tape.matmul(summed, w)
    } else {
        let cat = tape.concat_cols(h, agg);
        tape.matmul(cat, w)
    };
    let z = tape.add_bias(pre, b);
    tape.relu(z)
}

fn attention_aggregate(
    model: &GnnModel,
    tape: &mut Tape,
    edges: &EdgeList,
    z: Var,
    a: ParamId,
    n: usize,
) -> Var {
    let zs = tape.gather_rows(z, edges.src.clone());
    let zd = tape.gather_rows(z, edges.dst.clone());
    let cat = tape.concat_cols(zd, zs);
    let av = tape.param(&model.params, a);
    let scores = tape.matmul(cat, av);
    let scores = tape.leaky_relu(scores, model.config.leaky_slope);
    let att = tape.segment_softmax(scores, edges.dst.clone(), n);
    let weighted = tape.mul_col_broadcast(zs, att);
    tape.scatter_add_rows(weighted, edges.dst.clone(), n)
}

fn mean_aggregate(tape: &mut Tape, graph: &HeteroGraph, edges: &EdgeList, z: Var, n: usize) -> Var {
    let zs = tape.gather_rows(z, edges.src.clone());
    let agg = tape.scatter_add_rows(zs, edges.dst.clone(), n);
    let din = graph.in_degrees(edges);
    let inv: Vec<f32> = din.iter().map(|&d| 1.0 / d.max(1.0)).collect();
    let inv_col = tape.constant(Tensor::from_col(&inv));
    tape.mul_col_broadcast(agg, inv_col)
}
