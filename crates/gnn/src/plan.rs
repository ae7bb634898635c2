//! Per-graph compiled message plans.
//!
//! A [`GraphPlan`] bundles a [`CsrPlan`] for the type-union edge list
//! (used by the homogeneous GCN / GraphSage / GAT layers), the GCN
//! symmetric-norm coefficients over that union, and a compact
//! [`EdgeView`] of each edge type and of the union (used by the RGCN and
//! ParaGraph layers, on the tape and in the compiled executor). It is
//! built once per [`HeteroGraph`](crate::HeteroGraph) (lazily, via
//! [`HeteroGraph::plan`](crate::HeteroGraph::plan)) and shared behind an
//! `Arc` across every layer, epoch and ensemble member — the degree
//! counting, destination sorting and normalisation that every layer call
//! used to re-derive from COO now happens exactly once.

use std::sync::{Arc, OnceLock};

use paragraph_tensor::CsrPlan;

use crate::graph::HeteroGraph;

/// Reusable buffers for the union COO concatenation and the edge-view
/// renumbering a plan (re)compilation needs. Owned by whoever rebuilds
/// plans repeatedly (the batch assembler) so a rebuild stops allocating
/// once the buffers reach steady-state capacity.
#[derive(Debug, Default, Clone)]
pub struct PlanScratch {
    src: Vec<u32>,
    dst: Vec<u32>,
    view: ViewScratch,
}

/// Renumbering buffers for [`EdgeView::rebuild`].
#[derive(Debug, Default, Clone)]
struct ViewScratch {
    /// Endpoint marks, then the local id of each global node within the
    /// view being built (only the entries of that view's rows are
    /// meaningful).
    local: Vec<u32>,
    src: Vec<u32>,
    dst: Vec<u32>,
}

impl PlanScratch {
    /// Shrinks each buffer's excess capacity down to `cap` elements.
    pub fn shrink_excess(&mut self, cap: usize) {
        let view = &mut self.view;
        for v in [
            &mut self.src,
            &mut self.dst,
            &mut view.local,
            &mut view.src,
            &mut view.dst,
        ] {
            if v.capacity() > cap {
                v.shrink_to(cap);
            }
        }
    }
}

/// The rows one edge list touches, with its edges renumbered over them.
///
/// `rows` lists, ascending, every node that is the source or the
/// destination of at least one edge; `plan` compiles the same edges, in
/// the same order, over local ids — node `rows[i]` is local node `i`. A
/// message along these edges only ever reads and writes these rows, so
/// a kernel run over the compact plan needs `rows.len()` rows of input
/// instead of the whole graph's. Local ids ascend with global ids and
/// the CSR sort is stable, so every destination sees its incoming edges
/// in the same order as in the full-graph plan: a row-independent
/// kernel computes each touched row exactly as it would over the full
/// plan.
#[derive(Debug, Clone)]
pub struct EdgeView {
    /// Shared, like the plan, so a tape records the view's gather and
    /// scatter indices without copying them.
    pub(crate) rows: Arc<Vec<u32>>,
    pub(crate) plan: Arc<CsrPlan>,
}

impl EdgeView {
    /// The view of an empty edge list. Every empty view shares one
    /// process-wide pair of buffers, so it costs no allocation.
    fn empty() -> Self {
        static EMPTY: OnceLock<EdgeView> = OnceLock::new();
        EMPTY
            .get_or_init(|| EdgeView {
                rows: Arc::new(Vec::new()),
                plan: CsrPlan::shared(&[], &[], 0),
            })
            .clone()
    }

    /// Recompiles the view of the edge list `src -> dst` over `n` nodes.
    /// Buffers this view holds alone are reused in place; a shared
    /// buffer (a tape still holding it, or the empty view's) is left to
    /// its other holders and replaced.
    fn rebuild(&mut self, n: usize, src: &[u32], dst: &[u32], scratch: &mut ViewScratch) {
        if Arc::get_mut(&mut self.rows).is_none() {
            if src.is_empty() {
                *self = Self::empty();
                return;
            }
            self.rows = Arc::new(Vec::new());
        }
        let rows = Arc::get_mut(&mut self.rows).expect("just made unique");
        // Mark every endpoint, then number the marked rows in order.
        let local = &mut scratch.local;
        local.clear();
        local.resize(n, 0);
        for &v in src.iter().chain(dst) {
            local[v as usize] = 1;
        }
        rows.clear();
        rows.extend((0..n as u32).filter(|&v| local[v as usize] != 0));
        for (i, &v) in rows.iter().enumerate() {
            local[v as usize] = i as u32;
        }
        scratch.src.clear();
        scratch.src.extend(src.iter().map(|&v| local[v as usize]));
        scratch.dst.clear();
        scratch.dst.extend(dst.iter().map(|&v| local[v as usize]));
        let m = rows.len();
        match Arc::get_mut(&mut self.plan) {
            Some(plan) => plan.rebuild(&scratch.src, &scratch.dst, m),
            None => self.plan = CsrPlan::shared(&scratch.src, &scratch.dst, m),
        }
    }

    fn shrink_excess(&mut self, cap: usize) {
        if let Some(rows) = Arc::get_mut(&mut self.rows) {
            if rows.capacity() > cap {
                rows.shrink_to(cap);
            }
        }
        if let Some(plan) = Arc::get_mut(&mut self.plan) {
            plan.shrink_excess(cap);
        }
    }

    /// Global ids of the touched rows, ascending; local node `i` is
    /// `rows()[i]`.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// The edges over local ids.
    pub fn plan(&self) -> &CsrPlan {
        &self.plan
    }
}

/// Compiled CSR plans for every edge view of one graph.
#[derive(Debug)]
pub struct GraphPlan {
    /// Compact view of each edge type.
    views: Vec<EdgeView>,
    union: Arc<CsrPlan>,
    union_view: EdgeView,
    /// GCN symmetric-norm coefficients `1/sqrt(dout(s)·din(d))` (degrees
    /// floored at 1) per union edge, in the union plan's
    /// destination-sorted order.
    union_gcn_coeff: Arc<Vec<f32>>,
}

impl GraphPlan {
    /// Compiles all edge lists of `graph`.
    pub fn build(graph: &HeteroGraph) -> Self {
        let mut plan = Self {
            views: Vec::new(),
            union: Arc::new(CsrPlan::new(&[], &[], 0)),
            union_view: EdgeView::empty(),
            union_gcn_coeff: Arc::new(Vec::new()),
        };
        plan.rebuild(graph, &mut PlanScratch::default());
        plan
    }

    /// Recompiles every plan in place for `graph`'s current topology.
    /// CSR and edge-view buffers are reused whenever this plan's `Arc`s
    /// are uniquely held (a shared one falls back to a fresh
    /// compilation — the old holder keeps seeing the old topology).
    /// `scratch` carries the union COO concatenation and view
    /// renumbering buffers between calls; at steady-state capacity a
    /// rebuild performs no heap allocation.
    pub fn rebuild(&mut self, graph: &HeteroGraph, scratch: &mut PlanScratch) {
        let n = graph.num_nodes();
        self.views
            .resize_with(graph.num_edge_types(), EdgeView::empty);
        for (t, view) in self.views.iter_mut().enumerate() {
            let e = graph.edges(t);
            view.rebuild(n, &e.src, &e.dst, &mut scratch.view);
        }
        // Union edges in edge-type order, matching
        // `HeteroGraph::union_edges`.
        scratch.src.clear();
        scratch.dst.clear();
        for t in 0..graph.num_edge_types() {
            let e = graph.edges(t);
            scratch.src.extend_from_slice(&e.src);
            scratch.dst.extend_from_slice(&e.dst);
        }
        if let Some(u) = Arc::get_mut(&mut self.union) {
            u.rebuild(&scratch.src, &scratch.dst, n);
        } else {
            self.union = CsrPlan::shared(&scratch.src, &scratch.dst, n);
        }
        self.union_view
            .rebuild(n, &scratch.src, &scratch.dst, &mut scratch.view);
        let union = &self.union;
        if Arc::get_mut(&mut self.union_gcn_coeff).is_none() {
            self.union_gcn_coeff = Arc::new(Vec::new());
        }
        let coeff = Arc::get_mut(&mut self.union_gcn_coeff).expect("just made unique");
        coeff.clear();
        coeff.extend((0..union.num_edges()).map(|ei| {
            let s = union.sorted_src()[ei] as usize;
            let d = union.sorted_dst()[ei] as usize;
            1.0 / (union.out_degree()[s].max(1.0) * union.in_degree()[d].max(1.0)).sqrt()
        }));
    }

    /// Caps the capacity every uniquely-held internal buffer retains at
    /// `cap` elements, so one oversized batch does not pin its
    /// high-water memory across later small rebuilds.
    pub fn shrink_excess(&mut self, cap: usize) {
        for view in self.views.iter_mut().chain([&mut self.union_view]) {
            view.shrink_excess(cap);
        }
        if let Some(u) = Arc::get_mut(&mut self.union) {
            u.shrink_excess(cap);
        }
        if let Some(c) = Arc::get_mut(&mut self.union_gcn_coeff) {
            if c.capacity() > cap {
                c.shrink_to(cap);
            }
        }
    }

    /// The compact view of one edge type.
    pub fn view(&self, t: usize) -> &EdgeView {
        &self.views[t]
    }

    /// The plan for the union of all edge types.
    pub fn union(&self) -> &Arc<CsrPlan> {
        &self.union
    }

    /// The compact view of the union of all edge types.
    pub fn union_view(&self) -> &EdgeView {
        &self.union_view
    }

    /// GCN symmetric-norm coefficients for the union plan, in its
    /// destination-sorted edge order.
    pub fn union_gcn_coeff(&self) -> &Arc<Vec<f32>> {
        &self.union_gcn_coeff
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphSchema;
    use paragraph_tensor::Tensor;

    fn graph() -> HeteroGraph {
        let schema = GraphSchema {
            node_feat_dims: vec![2],
            num_edge_types: 2,
        };
        let mut g = HeteroGraph::new(&schema, vec![0, 0, 0, 0]);
        g.set_features(0, Tensor::from_fn(4, 2, |i, j| (i + j) as f32));
        g.set_edges(0, vec![0, 1], vec![1, 2]);
        g.set_edges(1, vec![2, 3], vec![0, 0]);
        g
    }

    #[test]
    fn union_merges_types_in_order() {
        let g = graph();
        let plan = g.plan();
        assert_eq!(plan.view(0).plan().num_edges(), 2);
        assert_eq!(plan.view(1).plan().num_edges(), 2);
        assert_eq!(plan.union().num_edges(), 4);
        assert_eq!(plan.union().in_degree(), &[2.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn gcn_coefficients_use_floored_degrees() {
        let g = graph();
        let plan = g.plan();
        let u = plan.union();
        for ei in 0..u.num_edges() {
            let s = u.sorted_src()[ei] as usize;
            let d = u.sorted_dst()[ei] as usize;
            let expect = 1.0 / (u.out_degree()[s].max(1.0) * u.in_degree()[d].max(1.0)).sqrt();
            assert_eq!(plan.union_gcn_coeff()[ei], expect);
        }
    }

    #[test]
    fn views_renumber_touched_rows_in_order() {
        let g = graph();
        let plan = g.plan();
        // Type 0: 0 -> 1, 1 -> 2 touches rows 0..=2.
        let v0 = plan.view(0);
        assert_eq!(v0.rows(), &[0, 1, 2]);
        assert_eq!(v0.plan(), &CsrPlan::new(&[0, 1], &[1, 2], 3));
        // Type 1: 2 -> 0, 3 -> 0 skips row 1; local ids 0, 1, 2 stand
        // for rows 0, 2, 3, and both edges keep their order into 0.
        let v1 = plan.view(1);
        assert_eq!(v1.rows(), &[0, 2, 3]);
        assert_eq!(v1.plan(), &CsrPlan::new(&[1, 2], &[0, 0], 3));
        assert_eq!(plan.union_view().rows(), &[0, 1, 2, 3]);
        assert_eq!(
            plan.union_view().plan().sorted_src(),
            plan.union().sorted_src()
        );
    }

    #[test]
    fn plan_is_cached_and_invalidated_on_edge_change() {
        let mut g = graph();
        let p1 = g.plan();
        let p2 = g.plan();
        assert!(Arc::ptr_eq(&p1, &p2), "plan must be built once");
        // Clones share the compiled plan.
        let clone = g.clone();
        assert!(Arc::ptr_eq(&p1, &clone.plan()));
        // Edge mutation rebuilds.
        g.set_edges(0, vec![3], vec![2]);
        let p3 = g.plan();
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert_eq!(p3.union().num_edges(), 3);
    }
}
