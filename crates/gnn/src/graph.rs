//! Heterogeneous graph representation for message-passing networks.
//!
//! Matches the paper's §II-B formulation: a node set with a node-type
//! mapping, and a directed edge set partitioned by edge type. Node features
//! are stored per node type (each type has its own feature dimension, as in
//! Table II).

use std::sync::{Arc, OnceLock};

use paragraph_tensor::Tensor;

use crate::plan::GraphPlan;

/// Edges of one relation/edge type.
#[derive(Debug, Clone)]
pub struct EdgeList {
    /// Source node (global id) per edge.
    pub src: Arc<Vec<u32>>,
    /// Destination node (global id) per edge.
    pub dst: Arc<Vec<u32>>,
}

impl EdgeList {
    /// Creates an edge list.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` lengths differ.
    pub fn new(src: Vec<u32>, dst: Vec<u32>) -> Self {
        assert_eq!(src.len(), dst.len(), "src/dst length mismatch");
        Self {
            src: Arc::new(src),
            dst: Arc::new(dst),
        }
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// Whether there are no edges.
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }
}

/// Static schema shared by all graphs a model is trained on: per-node-type
/// input feature widths plus the number of edge types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphSchema {
    /// Input feature dimension of each node type.
    pub node_feat_dims: Vec<usize>,
    /// Number of edge types.
    pub num_edge_types: usize,
}

impl GraphSchema {
    /// Number of node types.
    pub fn num_node_types(&self) -> usize {
        self.node_feat_dims.len()
    }
}

/// A heterogeneous graph instance.
///
/// # Examples
///
/// ```
/// use paragraph_gnn::{GraphSchema, HeteroGraph};
/// use paragraph_tensor::Tensor;
///
/// let schema = GraphSchema { node_feat_dims: vec![1, 2], num_edge_types: 2 };
/// // Node 0 is type 0; nodes 1 and 2 are type 1.
/// let mut g = HeteroGraph::new(&schema, vec![0, 1, 1]);
/// g.set_features(0, Tensor::from_rows(&[&[1.0]]));
/// g.set_features(1, Tensor::from_rows(&[&[0.1, 0.2], &[0.3, 0.4]]));
/// g.set_edges(0, vec![0, 0], vec![1, 2]); // type-0 edges 0->1, 0->2
/// g.set_edges(1, vec![1, 2], vec![0, 0]); // reverse relation
/// g.validate().unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct HeteroGraph {
    num_nodes: usize,
    node_type: Vec<u16>,
    /// Global node ids per type; row `i` of `features[t]` describes node
    /// `nodes_of_type[t][i]`.
    nodes_of_type: Vec<Arc<Vec<u32>>>,
    /// Arc-backed so tapes can record the feature matrices as shared
    /// constants without copying them each forward pass.
    features: Vec<Arc<Tensor>>,
    edges: Vec<EdgeList>,
    union_edges: Option<EdgeList>,
    /// Compiled message plan, built lazily on first use and shared (via
    /// `Arc`) across layers, epochs and graph clones. Reset whenever the
    /// edges change.
    plan: OnceLock<Arc<GraphPlan>>,
}

impl HeteroGraph {
    /// Creates a graph whose node `i` has type `node_type[i]`.
    ///
    /// Feature matrices start empty (`n_t x feat_dim`) and edge lists start
    /// empty; fill them with [`HeteroGraph::set_features`] and
    /// [`HeteroGraph::set_edges`].
    pub fn new(schema: &GraphSchema, node_type: Vec<u16>) -> Self {
        let num_nodes = node_type.len();
        let mut nodes_of_type: Vec<Vec<u32>> = vec![Vec::new(); schema.num_node_types()];
        for (i, &t) in node_type.iter().enumerate() {
            assert!(
                (t as usize) < schema.num_node_types(),
                "node type {t} out of range"
            );
            nodes_of_type[t as usize].push(i as u32);
        }
        let features = schema
            .node_feat_dims
            .iter()
            .enumerate()
            .map(|(t, &d)| Arc::new(Tensor::zeros(nodes_of_type[t].len(), d)))
            .collect();
        Self {
            num_nodes,
            node_type,
            nodes_of_type: nodes_of_type.into_iter().map(Arc::new).collect(),
            features,
            edges: (0..schema.num_edge_types)
                .map(|_| EdgeList::new(vec![], vec![]))
                .collect(),
            union_edges: None,
            plan: OnceLock::new(),
        }
    }

    /// Total node count.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of node types.
    pub fn num_node_types(&self) -> usize {
        self.nodes_of_type.len()
    }

    /// Number of edge types.
    pub fn num_edge_types(&self) -> usize {
        self.edges.len()
    }

    /// Total directed edge count across all types.
    pub fn num_edges(&self) -> usize {
        self.edges.iter().map(EdgeList::len).sum()
    }

    /// Type of node `i`.
    pub fn node_type(&self, i: usize) -> u16 {
        self.node_type[i]
    }

    /// Global ids of all nodes of `node_type`.
    pub fn nodes_of_type(&self, node_type: u16) -> &Arc<Vec<u32>> {
        &self.nodes_of_type[node_type as usize]
    }

    /// Input features of `node_type` (`n_t x d_t`).
    pub fn features(&self, node_type: u16) -> &Tensor {
        self.features[node_type as usize].as_ref()
    }

    /// Shared handle to the features of `node_type`, for recording on a
    /// tape via `Tape::constant_shared` without copying.
    pub fn features_shared(&self, node_type: u16) -> &Arc<Tensor> {
        &self.features[node_type as usize]
    }

    /// Replaces the features of `node_type`.
    ///
    /// # Panics
    ///
    /// Panics if the row count does not match the number of nodes of that
    /// type.
    pub fn set_features(&mut self, node_type: u16, features: Tensor) {
        let expected = self.nodes_of_type[node_type as usize].len();
        assert_eq!(
            features.rows(),
            expected,
            "type {node_type} has {expected} nodes"
        );
        self.features[node_type as usize] = Arc::new(features);
    }

    /// Replaces the edges of `edge_type`.
    pub fn set_edges(&mut self, edge_type: usize, src: Vec<u32>, dst: Vec<u32>) {
        self.edges[edge_type] = EdgeList::new(src, dst);
        self.union_edges = None;
        self.plan = OnceLock::new();
    }

    /// Rebuilds the node set in place: node `i` gets the `i`th type from
    /// `types`, and the per-type partitions are recomputed, reusing
    /// uniquely-owned storage (a shared partition vector is replaced).
    /// Feature tensors are *not* resized — the caller must refill every
    /// type with [`HeteroGraph::refill_features`] before the graph is
    /// consistent again.
    pub(crate) fn reset_nodes(&mut self, num_node_types: usize, types: impl Iterator<Item = u16>) {
        self.node_type.clear();
        self.node_type.extend(types);
        self.num_nodes = self.node_type.len();
        self.nodes_of_type.truncate(num_node_types);
        while self.nodes_of_type.len() < num_node_types {
            self.nodes_of_type.push(Arc::new(Vec::new()));
        }
        self.features.truncate(num_node_types);
        while self.features.len() < num_node_types {
            self.features.push(Arc::new(Tensor::zeros(0, 0)));
        }
        for arc in &mut self.nodes_of_type {
            if let Some(v) = Arc::get_mut(arc) {
                v.clear();
            } else {
                *arc = Arc::new(Vec::new());
            }
        }
        for (i, &t) in self.node_type.iter().enumerate() {
            assert!((t as usize) < num_node_types, "node type {t} out of range");
            Arc::get_mut(&mut self.nodes_of_type[t as usize])
                .expect("partition made unique above")
                .push(i as u32);
        }
    }

    /// Replaces the features of `node_type` in place: `fill` pushes
    /// exactly `rows * cols` row-major values into the (cleared, but
    /// capacity-retaining) buffer of the existing tensor. Allocation-free
    /// at steady state when the tensor is uniquely owned and large
    /// enough; a shared tensor is replaced by a fresh one.
    ///
    /// # Panics
    ///
    /// Panics if `rows` does not match the node count of that type or
    /// `fill` produces the wrong number of values.
    pub(crate) fn refill_features(
        &mut self,
        node_type: u16,
        rows: usize,
        cols: usize,
        fill: impl FnOnce(&mut Vec<f32>),
    ) {
        let expected = self.nodes_of_type[node_type as usize].len();
        assert_eq!(rows, expected, "type {node_type} has {expected} nodes");
        let arc = &mut self.features[node_type as usize];
        if let Some(tensor) = Arc::get_mut(arc) {
            tensor.refill(rows, cols, fill);
        } else {
            let mut data = Vec::with_capacity(rows * cols);
            fill(&mut data);
            *arc = Arc::new(Tensor::from_vec(rows, cols, data));
        }
    }

    /// Replaces the edges of `edge_type` in place: `fill` receives the
    /// cleared (capacity-retaining) src/dst buffers and must leave them
    /// at equal lengths. Does *not* invalidate the cached plan — the
    /// caller is responsible for installing a matching plan via
    /// [`HeteroGraph::install_plan`] (the batch assembler rebuilds one
    /// in place) or clearing it with [`HeteroGraph::take_plan`].
    pub(crate) fn refill_edges(
        &mut self,
        edge_type: usize,
        fill: impl FnOnce(&mut Vec<u32>, &mut Vec<u32>),
    ) {
        let e = &mut self.edges[edge_type];
        let unique = Arc::get_mut(&mut e.src).is_some() && Arc::get_mut(&mut e.dst).is_some();
        if unique {
            let src = Arc::get_mut(&mut e.src).expect("checked unique");
            src.clear();
            let dst = Arc::get_mut(&mut e.dst).expect("checked unique");
            dst.clear();
            fill(src, dst);
            assert_eq!(src.len(), dst.len(), "src/dst length mismatch");
        } else {
            let mut src = Vec::new();
            let mut dst = Vec::new();
            fill(&mut src, &mut dst);
            *e = EdgeList::new(src, dst);
        }
        self.union_edges = None;
    }

    /// Removes and returns the cached plan, leaving the lock unset.
    pub(crate) fn take_plan(&mut self) -> Option<Arc<GraphPlan>> {
        self.plan.take()
    }

    /// Installs an externally (re)built plan so [`HeteroGraph::plan`]
    /// serves it without compiling one. The plan must describe this
    /// graph's current topology.
    pub(crate) fn install_plan(&mut self, plan: Arc<GraphPlan>) {
        self.plan = OnceLock::new();
        let _ = self.plan.set(plan);
    }

    /// The compiled message plan for this graph, built on first use and
    /// cached. Cloning the graph shares the already-built plan; mutating
    /// edges invalidates it.
    pub fn plan(&self) -> Arc<GraphPlan> {
        self.plan
            .get_or_init(|| Arc::new(GraphPlan::build(self)))
            .clone()
    }

    /// Edges of one type.
    pub fn edges(&self, edge_type: usize) -> &EdgeList {
        &self.edges[edge_type]
    }

    /// All edges merged into a single homogeneous list (used by GCN /
    /// GraphSage / GAT, which ignore edge types). Computed on first use.
    pub fn union_edges(&mut self) -> &EdgeList {
        if self.union_edges.is_none() {
            let mut src = Vec::with_capacity(self.num_edges());
            let mut dst = Vec::with_capacity(self.num_edges());
            for e in &self.edges {
                src.extend_from_slice(&e.src);
                dst.extend_from_slice(&e.dst);
            }
            self.union_edges = Some(EdgeList::new(src, dst));
        }
        self.union_edges.as_ref().expect("just set")
    }

    /// The cached union edge list, if [`HeteroGraph::union_edges`] has been
    /// called since the last edge mutation.
    pub fn cached_union(&self) -> Option<&EdgeList> {
        self.union_edges.as_ref()
    }

    /// In-degree of every node over the given edge list.
    pub fn in_degrees(&self, edges: &EdgeList) -> Vec<f32> {
        let mut deg = vec![0.0_f32; self.num_nodes];
        for &d in edges.dst.iter() {
            deg[d as usize] += 1.0;
        }
        deg
    }

    /// Out-degree of every node over the given edge list.
    pub fn out_degrees(&self, edges: &EdgeList) -> Vec<f32> {
        let mut deg = vec![0.0_f32; self.num_nodes];
        for &s in edges.src.iter() {
            deg[s as usize] += 1.0;
        }
        deg
    }

    /// Checks feature shapes and edge index bounds.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        for (t, feats) in self.features.iter().enumerate() {
            if feats.rows() != self.nodes_of_type[t].len() {
                return Err(format!(
                    "type {t}: {} feature rows for {} nodes",
                    feats.rows(),
                    self.nodes_of_type[t].len()
                ));
            }
        }
        for (et, e) in self.edges.iter().enumerate() {
            for (&s, &d) in e.src.iter().zip(e.dst.iter()) {
                if s as usize >= self.num_nodes || d as usize >= self.num_nodes {
                    return Err(format!("edge type {et}: index out of bounds"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (GraphSchema, HeteroGraph) {
        let schema = GraphSchema {
            node_feat_dims: vec![2, 3],
            num_edge_types: 2,
        };
        let mut g = HeteroGraph::new(&schema, vec![0, 1, 0, 1]);
        g.set_features(0, Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        g.set_features(1, Tensor::from_rows(&[&[0.1, 0.2, 0.3], &[0.4, 0.5, 0.6]]));
        g.set_edges(0, vec![0, 2], vec![1, 3]);
        g.set_edges(1, vec![1, 3], vec![0, 2]);
        (schema, g)
    }

    #[test]
    fn nodes_are_partitioned_by_type() {
        let (_, g) = tiny();
        assert_eq!(g.nodes_of_type(0).as_slice(), &[0, 2]);
        assert_eq!(g.nodes_of_type(1).as_slice(), &[1, 3]);
        assert_eq!(g.node_type(3), 1);
    }

    #[test]
    fn union_edges_merge_all_types() {
        let (_, mut g) = tiny();
        assert_eq!(g.num_edges(), 4);
        let u = g.union_edges().clone();
        assert_eq!(u.len(), 4);
        assert_eq!(u.src.as_slice(), &[0, 2, 1, 3]);
    }

    #[test]
    fn degrees_count_correctly() {
        let (_, mut g) = tiny();
        let u = g.union_edges().clone();
        let din = g.in_degrees(&u);
        assert_eq!(din, vec![1.0, 1.0, 1.0, 1.0]);
        let dout = g.out_degrees(&u);
        assert_eq!(dout, vec![1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn validate_catches_out_of_bounds() {
        let (_, mut g) = tiny();
        g.set_edges(0, vec![9], vec![0]);
        assert!(g.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "has 2 nodes")]
    fn set_features_checks_rows() {
        let (_, mut g) = tiny();
        g.set_features(0, Tensor::zeros(3, 2));
    }

    #[test]
    fn set_edges_invalidates_cached_plan() {
        let (_, mut g) = tiny();
        let before = g.plan();
        assert_eq!(before.union().num_edges(), 4);
        g.set_edges(0, vec![0], vec![3]);
        let after = g.plan();
        assert!(
            !Arc::ptr_eq(&before, &after),
            "stale GraphPlan reused after set_edges"
        );
        assert_eq!(after.union().num_edges(), 3);
        assert_eq!(after.view(0).plan().num_edges(), 1);
    }

    #[test]
    fn cloned_graph_does_not_share_stale_plan() {
        // The derived Clone copies the OnceLock's *contents*, so right
        // after cloning both graphs hand out the same Arc — that is fine
        // while the edges are identical. Mutating the clone must rebuild
        // its plan without disturbing the original's.
        let (_, g) = tiny();
        let original_plan = g.plan();
        let mut g2 = g.clone();
        assert!(Arc::ptr_eq(&original_plan, &g2.plan()));

        g2.set_edges(1, vec![0, 1, 2], vec![1, 2, 3]);
        let p2 = g2.plan();
        assert!(
            !Arc::ptr_eq(&original_plan, &p2),
            "clone reused the shared pre-mutation plan"
        );
        assert_eq!(p2.view(1).plan().num_edges(), 3);
        // The original still sees its own (unchanged) topology.
        assert!(Arc::ptr_eq(&original_plan, &g.plan()));
        assert_eq!(g.plan().view(1).plan().num_edges(), 2);
    }

    #[test]
    fn mutating_original_after_clone_keeps_clone_intact() {
        let (_, mut g) = tiny();
        let _ = g.plan();
        let g2 = g.clone();
        let clone_plan = g2.plan();

        g.set_edges(0, vec![], vec![]);
        assert_eq!(g.plan().union().num_edges(), 2);
        // The clone's plan is untouched by the original's mutation.
        assert!(Arc::ptr_eq(&clone_plan, &g2.plan()));
        assert_eq!(g2.plan().union().num_edges(), 4);
    }

    #[test]
    fn empty_edge_type_is_fine() {
        let schema = GraphSchema {
            node_feat_dims: vec![1],
            num_edge_types: 3,
        };
        let g = HeteroGraph::new(&schema, vec![0, 0]);
        g.validate().unwrap();
        assert_eq!(g.num_edges(), 0);
    }
}
