//! Neighbourhood sampling for mini-batch training (the GraphSage
//! mechanism the paper's model builds on).
//!
//! The paper trains full-batch, but its largest circuits (t4: ≈ 500 k
//! devices) only fit a 16 GB V100 because the graph is sparse; at larger
//! scale the standard remedy is to train on sampled L-hop neighbourhoods
//! of the labelled nodes. [`sample_subgraph`] extracts such a
//! neighbourhood as a self-contained [`HeteroGraph`].
//!
//! For aggregation schemes that only normalise over *incoming* edges
//! (GraphSage mean, RGCN mean, GAT / ParaGraph per-destination attention),
//! an unlimited-fanout sample of depth ≥ the model's layer count
//! reproduces the full-graph embeddings of the seed nodes exactly; GCN's
//! symmetric degree normalisation additionally depends on out-degrees and
//! is only approximate under sampling.

use std::collections::HashMap;

use paragraph_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::graph::{GraphSchema, HeteroGraph};

/// Sampling parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleConfig {
    /// Neighbourhood depth (should be ≥ the model's layer count).
    pub hops: usize,
    /// Maximum in-neighbours kept per node per edge type and hop
    /// (`usize::MAX` = keep all).
    pub fanout: usize,
    /// Seed for neighbour selection.
    pub seed: u64,
}

impl Default for SampleConfig {
    fn default() -> Self {
        Self {
            hops: 5,
            fanout: usize::MAX,
            seed: 0,
        }
    }
}

/// A sampled neighbourhood: an induced graph plus the mapping back to the
/// parent graph.
#[derive(Debug, Clone)]
pub struct Subsample {
    /// The sampled graph (features copied from the parent).
    pub graph: HeteroGraph,
    /// For each subgraph node, its id in the parent graph.
    pub parent_of: Vec<u32>,
    /// Subgraph ids of the seed nodes, in input order.
    pub seeds: Vec<u32>,
}

/// Extracts the sampled `hops`-deep incoming neighbourhood of `seeds`.
///
/// # Panics
///
/// Panics if any seed is out of range.
pub fn sample_subgraph(
    graph: &HeteroGraph,
    schema: &GraphSchema,
    seeds: &[u32],
    config: SampleConfig,
) -> Subsample {
    let n = graph.num_nodes();
    for &s in seeds {
        assert!((s as usize) < n, "seed {s} out of range");
    }
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Incoming adjacency per edge type.
    let mut in_adj: Vec<HashMap<u32, Vec<u32>>> = Vec::with_capacity(graph.num_edge_types());
    for t in 0..graph.num_edge_types() {
        let e = graph.edges(t);
        let mut adj: HashMap<u32, Vec<u32>> = HashMap::new();
        for (&s, &d) in e.src.iter().zip(e.dst.iter()) {
            adj.entry(d).or_default().push(s);
        }
        in_adj.push(adj);
    }

    // BFS with per-hop fanout; record which (src, dst, type) edges are
    // kept.
    let mut selected: Vec<bool> = vec![false; n];
    let mut kept_edges: Vec<(u32, u32, usize)> = Vec::new();
    let mut frontier: Vec<u32> = Vec::new();
    for &s in seeds {
        if !selected[s as usize] {
            selected[s as usize] = true;
            frontier.push(s);
        }
    }
    for _ in 0..config.hops {
        let mut next = Vec::new();
        for &node in &frontier {
            for (t, adj) in in_adj.iter().enumerate() {
                let Some(neigh) = adj.get(&node) else {
                    continue;
                };
                let take = neigh.len().min(config.fanout);
                // Deterministic partial Fisher-Yates over a scratch copy.
                let mut pool = neigh.clone();
                for k in 0..take {
                    let j = rng.random_range(k..pool.len());
                    pool.swap(k, j);
                    let src = pool[k];
                    kept_edges.push((src, node, t));
                    if !selected[src as usize] {
                        selected[src as usize] = true;
                        next.push(src);
                    }
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }

    // Compact node numbering.
    let mut new_id: Vec<u32> = vec![u32::MAX; n];
    let mut parent_of: Vec<u32> = Vec::new();
    for (i, &sel) in selected.iter().enumerate() {
        if sel {
            new_id[i] = parent_of.len() as u32;
            parent_of.push(i as u32);
        }
    }

    // Build the induced graph.
    let node_types: Vec<u16> = parent_of
        .iter()
        .map(|&p| graph.node_type(p as usize))
        .collect();
    let mut sub = HeteroGraph::new(schema, node_types);
    // Features: gather the parent's per-type rows for selected nodes.
    for t in 0..schema.num_node_types() {
        let sub_nodes = sub.nodes_of_type(t as u16).clone();
        if sub_nodes.is_empty() {
            continue;
        }
        let parent_feats = graph.features(t as u16);
        let parent_nodes = graph.nodes_of_type(t as u16);
        // Parent row index per parent node id.
        let row_of: HashMap<u32, usize> = parent_nodes
            .iter()
            .enumerate()
            .map(|(row, &node)| (node, row))
            .collect();
        let mut feats = Tensor::zeros(sub_nodes.len(), schema.node_feat_dims[t]);
        for (i, &sn) in sub_nodes.iter().enumerate() {
            let parent = parent_of[sn as usize];
            let row = row_of[&parent];
            feats.row_mut(i).copy_from_slice(parent_feats.row(row));
        }
        sub.set_features(t as u16, feats);
    }
    // Edges (dedup: a node reached at several hops may re-sample the same
    // in-edge).
    let mut per_type: Vec<Vec<(u32, u32)>> = vec![Vec::new(); graph.num_edge_types()];
    kept_edges.sort_unstable();
    kept_edges.dedup();
    for (src, dst, t) in kept_edges {
        per_type[t].push((new_id[src as usize], new_id[dst as usize]));
    }
    for (t, pairs) in per_type.into_iter().enumerate() {
        let (src, dst): (Vec<u32>, Vec<u32>) = pairs.into_iter().unzip();
        sub.set_edges(t, src, dst);
    }

    let seeds = seeds.iter().map(|&s| new_id[s as usize]).collect();
    Subsample {
        graph: sub,
        parent_of,
        seeds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{GnnKind, GnnModel, ModelConfig};

    /// A two-type chain graph: 0 -> 1 -> 2 -> ... (type alternating).
    fn chain(n: usize) -> (GraphSchema, HeteroGraph) {
        let schema = GraphSchema {
            node_feat_dims: vec![1, 1],
            num_edge_types: 2,
        };
        let types: Vec<u16> = (0..n).map(|i| (i % 2) as u16).collect();
        let mut g = HeteroGraph::new(&schema, types);
        for t in 0..2 {
            let count = g.nodes_of_type(t as u16).len();
            let vals: Vec<f32> = (0..count).map(|i| i as f32 * 0.1 + t as f32).collect();
            g.set_features(t as u16, Tensor::from_col(&vals));
        }
        let src: Vec<u32> = (0..n as u32 - 1).collect();
        let dst: Vec<u32> = (1..n as u32).collect();
        g.set_edges(0, src.clone(), dst.clone());
        g.set_edges(1, dst, src);
        (schema, g)
    }

    #[test]
    fn subgraph_contains_seeds_and_neighbourhood() {
        let (schema, g) = chain(10);
        let sub = sample_subgraph(
            &g,
            &schema,
            &[5],
            SampleConfig {
                hops: 2,
                fanout: usize::MAX,
                seed: 1,
            },
        );
        sub.graph.validate().unwrap();
        assert_eq!(sub.seeds.len(), 1);
        // 2 hops in both directions along the chain: nodes 3..=7.
        assert_eq!(sub.graph.num_nodes(), 5);
        let parents: Vec<u32> = sub.parent_of.clone();
        for p in [3, 4, 5, 6, 7] {
            assert!(parents.contains(&p), "{parents:?}");
        }
    }

    #[test]
    fn unlimited_fanout_preserves_seed_embeddings() {
        // For in-degree-normalised models, the L-hop full-fanout sample
        // reproduces full-graph seed embeddings bit for bit: on a chain
        // the sample keeps each destination's in-edges in the parent's
        // order. GCN is left out: its coefficient reads the source's
        // out-degree, which no number of in-hops captures.
        let (schema, g) = chain(12);
        for kind in [
            GnnKind::GraphSage,
            GnnKind::ParaGraph,
            GnnKind::Rgcn,
            GnnKind::Gat,
        ] {
            let mut cfg = ModelConfig::new(kind);
            cfg.embed_dim = 8;
            cfg.layers = 3;
            let model = GnnModel::new(cfg, &schema);
            let full = model.embeddings(&g);
            let sub = sample_subgraph(
                &g,
                &schema,
                &[6],
                SampleConfig {
                    hops: 3,
                    fanout: usize::MAX,
                    seed: 0,
                },
            );
            let sub_emb = model.embeddings(&sub.graph);
            let seed_sub = sub.seeds[0] as usize;
            for j in 0..8 {
                let a = full.at(6, j);
                let b = sub_emb.at(seed_sub, j);
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{}: dim {j}: {a} vs {b}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn fanout_limits_subgraph_size() {
        // A star: many sources into one hub.
        let schema = GraphSchema {
            node_feat_dims: vec![1],
            num_edge_types: 1,
        };
        let n = 50;
        let mut g = HeteroGraph::new(&schema, vec![0; n]);
        g.set_features(0, Tensor::from_col(&vec![1.0; n]));
        let src: Vec<u32> = (1..n as u32).collect();
        let dst: Vec<u32> = vec![0; n - 1];
        g.set_edges(0, src, dst);
        let sub = sample_subgraph(
            &g,
            &schema,
            &[0],
            SampleConfig {
                hops: 1,
                fanout: 5,
                seed: 3,
            },
        );
        assert_eq!(sub.graph.num_nodes(), 6); // hub + 5 sampled sources
        assert_eq!(sub.graph.num_edges(), 5);
    }

    #[test]
    fn sampling_is_deterministic() {
        let (schema, g) = chain(20);
        let cfg = SampleConfig {
            hops: 3,
            fanout: 1,
            seed: 9,
        };
        let a = sample_subgraph(&g, &schema, &[10], cfg);
        let b = sample_subgraph(&g, &schema, &[10], cfg);
        assert_eq!(a.parent_of, b.parent_of);
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_seed_panics() {
        let (schema, g) = chain(4);
        let _ = sample_subgraph(&g, &schema, &[99], SampleConfig::default());
    }
}
