//! GNN models: GCN, GraphSage, RGCN, GAT, and ParaGraph (Algorithm 1).
//!
//! All five models share the same skeleton the paper uses for a fair
//! comparison: a per-node-type input projection into a common `F`-dim
//! space (Algorithm 1 lines 1–2 — also applied to the homogeneous models,
//! as §V notes), `L` message-passing layers, and a fully-connected
//! regression head. They differ only in the aggregation step, per Table
//! III.

use std::sync::Arc;

use paragraph_tensor::{init_rng, CsrPlan, ParamId, ParamSet, Tape, Tensor, Var};

use crate::graph::HeteroGraph;
use crate::plan::EdgeView;

/// Which aggregation scheme a model uses (paper Table III + Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GnnKind {
    /// Kipf & Welling graph convolution (symmetric-normalised mean).
    Gcn,
    /// GraphSage: mean aggregation + concat skip + L2 normalisation.
    GraphSage,
    /// Relational GCN: per-edge-type weights, mean aggregation, self loop.
    Rgcn,
    /// Graph attention network: additive attention over a homogeneous
    /// neighbourhood.
    Gat,
    /// The paper's model: per-edge-type attention aggregation summed over
    /// types, concatenated with the previous embedding (Algorithm 1).
    ParaGraph,
}

impl GnnKind {
    /// All kinds, in the order the paper's Figure 6 lists the GNNs.
    pub fn all() -> [GnnKind; 5] {
        [
            GnnKind::Gcn,
            GnnKind::GraphSage,
            GnnKind::Rgcn,
            GnnKind::Gat,
            GnnKind::ParaGraph,
        ]
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            GnnKind::Gcn => "GCN",
            GnnKind::GraphSage => "GraphSage",
            GnnKind::Rgcn => "RGCN",
            GnnKind::Gat => "GAT",
            GnnKind::ParaGraph => "ParaGraph",
        }
    }
}

/// Hyper-parameters (defaults follow the paper's §V settings).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Aggregation scheme.
    pub kind: GnnKind,
    /// Embedding width `F` (paper: 32).
    pub embed_dim: usize,
    /// Message-passing depth `L` (paper: 5, found by sweep).
    pub layers: usize,
    /// FC head depth (paper: 4 for capacitance, 2 for device parameters).
    pub fc_layers: usize,
    /// Negative slope of the attention LeakyReLU.
    pub leaky_slope: f32,
    /// Parameter-init seed.
    pub seed: u64,
    /// ParaGraph ablation: replace per-destination attention with a plain
    /// mean aggregator (ignored by other kinds).
    pub ablate_attention: bool,
    /// ParaGraph ablation: collapse all edge types into one weight matrix
    /// (ignored by other kinds).
    pub ablate_edge_types: bool,
    /// ParaGraph ablation: replace the GraphSage-style concat skip with a
    /// plain sum (ignored by other kinds).
    pub ablate_concat: bool,
    /// Attention heads for GAT / ParaGraph (the paper used 1, limited by
    /// GPU memory, and expected more heads to help). Heads split the
    /// embedding dimension; must divide `embed_dim`.
    pub attention_heads: usize,
    /// When set, the FC head outputs `(mean, log-variance)` and the model
    /// can be trained with a Gaussian negative-log-likelihood, yielding
    /// per-node confidence (an extension beyond the paper).
    pub uncertainty_head: bool,
}

impl ModelConfig {
    /// Paper defaults for a given model kind.
    pub fn new(kind: GnnKind) -> Self {
        Self {
            kind,
            embed_dim: 32,
            layers: 5,
            fc_layers: 4,
            leaky_slope: 0.2,
            seed: 1,
            ablate_attention: false,
            ablate_edge_types: false,
            ablate_concat: false,
            attention_heads: 1,
            uncertainty_head: false,
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct LayerParams {
    /// Per-edge-type weight matrices (ParaGraph, RGCN).
    pub(crate) w_type: Vec<ParamId>,
    /// Per-edge-type attention vectors (ParaGraph).
    pub(crate) a_type: Vec<ParamId>,
    /// Shared weight (GCN, GraphSage, GAT; ParaGraph's concat weight).
    pub(crate) w: Option<ParamId>,
    /// Self-loop weight (RGCN).
    pub(crate) w_self: Option<ParamId>,
    /// Bias.
    pub(crate) b: ParamId,
}

/// Read-only view of one message-passing layer's resolved parameter
/// tensors, as walked by the compiled inference executor.
///
/// Which fields are populated depends on [`GnnKind`], mirroring
/// [`LayerParams`]: `w_type`/`a_type` for per-edge-type (or per-head)
/// weights, `w` for the shared weight, `w_self` for RGCN's self loop.
#[derive(Debug)]
pub struct LayerSpec<'a> {
    /// Per-edge-type (ParaGraph, RGCN) or per-head (GAT) weight matrices.
    pub w_type: Vec<&'a Tensor>,
    /// Per-edge-type / per-head attention vectors (GAT, ParaGraph).
    pub a_type: Vec<&'a Tensor>,
    /// Shared weight (GCN, GraphSage; ParaGraph's concat weight).
    pub w: Option<&'a Tensor>,
    /// Self-loop weight (RGCN).
    pub w_self: Option<&'a Tensor>,
    /// Bias row (`1 x F`).
    pub b: &'a Tensor,
}

/// A trainable GNN regressor over [`HeteroGraph`]s with a fixed schema.
///
/// # Examples
///
/// ```
/// use paragraph_gnn::{GnnKind, GnnModel, GraphSchema, ModelConfig};
///
/// let schema = GraphSchema { node_feat_dims: vec![1, 4], num_edge_types: 2 };
/// let model = GnnModel::new(ModelConfig::new(GnnKind::ParaGraph), &schema);
/// assert!(model.params().num_scalars() > 1000);
/// ```
#[derive(Debug, Clone)]
pub struct GnnModel {
    pub(crate) config: ModelConfig,
    pub(crate) num_edge_types: usize,
    pub(crate) params: ParamSet,
    pub(crate) in_proj: Vec<ParamId>,
    pub(crate) layers: Vec<LayerParams>,
    pub(crate) head: Vec<(ParamId, ParamId)>,
}

impl GnnModel {
    /// Initialises parameters (Xavier) for the given schema.
    pub fn new(config: ModelConfig, schema: &crate::graph::GraphSchema) -> Self {
        let mut rng = init_rng(config.seed);
        let mut params = ParamSet::new();
        let f = config.embed_dim;

        let in_proj = schema
            .node_feat_dims
            .iter()
            .enumerate()
            .map(|(t, &d)| params.add_xavier(format!("in_proj.{t}"), d, f, &mut rng))
            .collect();

        let ne = schema.num_edge_types;
        let layers = (0..config.layers)
            .map(|l| {
                let mut w_type = Vec::new();
                let mut a_type = Vec::new();
                let mut w = None;
                let mut w_self = None;
                match config.kind {
                    GnnKind::Gcn => {
                        w = Some(params.add_xavier(format!("layer{l}.w"), f, f, &mut rng));
                    }
                    GnnKind::GraphSage => {
                        w = Some(params.add_xavier(format!("layer{l}.w"), 2 * f, f, &mut rng));
                    }
                    GnnKind::Rgcn => {
                        for t in 0..ne {
                            w_type.push(params.add_xavier(
                                format!("layer{l}.w_type{t}"),
                                f,
                                f,
                                &mut rng,
                            ));
                        }
                        w_self =
                            Some(params.add_xavier(format!("layer{l}.w_self"), f, f, &mut rng));
                    }
                    GnnKind::Gat => {
                        let heads = config.attention_heads.max(1);
                        let fh = f / heads;
                        assert_eq!(f % heads, 0, "heads must divide embed_dim");
                        for k in 0..heads {
                            w_type.push(params.add_xavier(
                                format!("layer{l}.w_h{k}"),
                                f,
                                fh,
                                &mut rng,
                            ));
                            a_type.push(params.add_xavier(
                                format!("layer{l}.a_h{k}"),
                                2 * fh,
                                1,
                                &mut rng,
                            ));
                        }
                    }
                    GnnKind::ParaGraph => {
                        let groups = if config.ablate_edge_types { 1 } else { ne };
                        let heads = config.attention_heads.max(1);
                        let fh = f / heads;
                        assert_eq!(f % heads, 0, "heads must divide embed_dim");
                        for t in 0..groups {
                            for k in 0..heads {
                                w_type.push(params.add_xavier(
                                    format!("layer{l}.w_type{t}_h{k}"),
                                    f,
                                    fh,
                                    &mut rng,
                                ));
                                if !config.ablate_attention {
                                    a_type.push(params.add_xavier(
                                        format!("layer{l}.a_type{t}_h{k}"),
                                        2 * fh,
                                        1,
                                        &mut rng,
                                    ));
                                }
                            }
                        }
                        let w_in = if config.ablate_concat { f } else { 2 * f };
                        w = Some(params.add_xavier(format!("layer{l}.w"), w_in, f, &mut rng));
                    }
                }
                let b = params.add_bias(format!("layer{l}.b"), f);
                LayerParams {
                    w_type,
                    a_type,
                    w,
                    w_self,
                    b,
                }
            })
            .collect();

        let head_out = if config.uncertainty_head { 2 } else { 1 };
        let head = (0..config.fc_layers)
            .map(|k| {
                let out = if k + 1 == config.fc_layers {
                    head_out
                } else {
                    f
                };
                let w = params.add_xavier(format!("head{k}.w"), f, out, &mut rng);
                let b = params.add_bias(format!("head{k}.b"), out);
                (w, b)
            })
            .collect();

        Self {
            config,
            num_edge_types: ne,
            params,
            in_proj,
            layers,
            head,
        }
    }

    /// The model's hyper-parameters.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Trainable parameters.
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// Mutable access for optimizers.
    pub fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }

    /// Number of edge types the model was initialised for.
    pub fn num_edge_types(&self) -> usize {
        self.num_edge_types
    }

    /// Per-node-type input projection matrices, indexed by node type.
    pub fn input_projections(&self) -> Vec<&Tensor> {
        self.in_proj
            .iter()
            .map(|&id| self.params.value(id))
            .collect()
    }

    /// Resolved parameter tensors of every message-passing layer, in
    /// execution order. This is the read-only view the compiled executor
    /// (`paragraph-exec`) walks so it dispatches the exact weights the
    /// tape forward uses.
    pub fn layer_specs(&self) -> Vec<LayerSpec<'_>> {
        self.layers
            .iter()
            .map(|l| LayerSpec {
                w_type: l.w_type.iter().map(|&id| self.params.value(id)).collect(),
                a_type: l.a_type.iter().map(|&id| self.params.value(id)).collect(),
                w: l.w.map(|id| self.params.value(id)),
                w_self: l.w_self.map(|id| self.params.value(id)),
                b: self.params.value(l.b),
            })
            .collect()
    }

    /// `(weight, bias)` tensors of the FC regression head, in order.
    pub fn head_specs(&self) -> Vec<(&Tensor, &Tensor)> {
        self.head
            .iter()
            .map(|&(w, b)| (self.params.value(w), self.params.value(b)))
            .collect()
    }

    /// Algorithm 1 lines 1-2: per-type projection into the common
    /// feature space. Shared by [`GnnModel::embed`] and
    /// [`GnnModel::attention_weights`] so the two cannot drift. Feature
    /// matrices are recorded as shared constants — no copies per call.
    pub(crate) fn input_projection(&self, tape: &mut Tape, graph: &HeteroGraph) -> Var {
        let n = graph.num_nodes();
        let f = self.config.embed_dim;
        let mut h = tape.constant(Tensor::zeros(n, f));
        for t in 0..graph.num_node_types() {
            let idx = graph.nodes_of_type(t as u16);
            if idx.is_empty() {
                continue;
            }
            let x = tape.constant_shared(graph.features_shared(t as u16).clone());
            let w = tape.param(&self.params, self.in_proj[t]);
            let proj = tape.matmul(x, w);
            let scattered = tape.scatter_add_rows(proj, idx.clone(), n);
            h = tape.add(h, scattered);
        }
        h
    }

    /// Computes the final node embedding matrix (`N x F`), Algorithm 1.
    pub fn embed(&self, tape: &mut Tape, graph: &HeteroGraph) -> Var {
        let mut h = self.input_projection(tape, graph);
        for layer in &self.layers {
            h = match self.config.kind {
                GnnKind::Gcn => self.gcn_layer(tape, graph, h, layer),
                GnnKind::GraphSage => self.sage_layer(tape, graph, h, layer),
                GnnKind::Rgcn => self.rgcn_layer(tape, graph, h, layer),
                GnnKind::Gat => self.gat_layer(tape, graph, h, layer),
                GnnKind::ParaGraph => self.paragraph_layer(tape, graph, h, layer),
            };
        }
        h
    }

    /// Predicts a scalar per node in `nodes` (global ids): embedding
    /// followed by the FC head.
    pub fn predict_nodes(
        &self,
        tape: &mut Tape,
        graph: &HeteroGraph,
        nodes: &Arc<Vec<u32>>,
    ) -> Var {
        let h = self.embed(tape, graph);
        let mut z = tape.gather_rows(h, nodes.clone());
        for (k, (w, b)) in self.head.iter().enumerate() {
            let wv = tape.param(&self.params, *w);
            let bv = tape.param(&self.params, *b);
            z = tape.matmul(z, wv);
            z = tape.add_bias(z, bv);
            if k + 1 < self.head.len() {
                z = tape.relu(z);
            }
        }
        z
    }

    /// Convenience inference: returns plain predictions for `nodes`.
    ///
    /// For uncertainty-headed models this returns the mean column.
    pub fn predict(&self, graph: &HeteroGraph, nodes: &Arc<Vec<u32>>) -> Vec<f32> {
        let mut tape = Tape::new();
        let out = self.predict_nodes(&mut tape, graph, nodes);
        let v = tape.value(out);
        (0..v.rows()).map(|i| v.at(i, 0)).collect()
    }

    /// Splits an uncertainty head's output into `(mean, log_variance)`
    /// columns.
    ///
    /// # Panics
    ///
    /// Panics if the model has no uncertainty head.
    pub fn split_uncertain(&self, tape: &mut Tape, out: Var) -> (Var, Var) {
        assert!(
            self.config.uncertainty_head,
            "model has no uncertainty head"
        );
        let pick_mu = tape.constant(Tensor::from_rows(&[&[1.0], &[0.0]]));
        let pick_s = tape.constant(Tensor::from_rows(&[&[0.0], &[1.0]]));
        let mu = tape.matmul(out, pick_mu);
        let log_var = tape.matmul(out, pick_s);
        (mu, log_var)
    }

    /// Gaussian negative log-likelihood for an uncertainty-headed model:
    /// `mean(0.5 exp(-s)(mu - y)^2 + 0.5 s)` (constants dropped).
    pub fn nll_loss(&self, tape: &mut Tape, out: Var, target: Var) -> Var {
        let (mu, log_var) = self.split_uncertain(tape, out);
        let d = tape.sub(mu, target);
        let d2 = tape.square(d);
        let neg_s = tape.scale(log_var, -1.0);
        let precision = tape.exp(neg_s);
        let weighted = tape.mul(d2, precision);
        let total = tape.add(weighted, log_var);
        let half = tape.scale(total, 0.5);
        tape.mean_all(half)
    }

    /// Inference with confidence: `(mean, sigma)` per node in training
    /// space.
    pub fn predict_uncertain(&self, graph: &HeteroGraph, nodes: &Arc<Vec<u32>>) -> Vec<(f32, f32)> {
        let mut tape = Tape::new();
        let out = self.predict_nodes(&mut tape, graph, nodes);
        let v = tape.value(out);
        (0..v.rows())
            .map(|i| (v.at(i, 0), (0.5 * v.at(i, 1)).exp()))
            .collect()
    }

    /// Computes node embeddings without gradients (e.g. for t-SNE).
    pub fn embeddings(&self, graph: &HeteroGraph) -> Tensor {
        let mut tape = Tape::new();
        let h = self.embed(&mut tape, graph);
        tape.value(h).clone()
    }

    /// Learned attention weights of the *first* ParaGraph layer, per edge
    /// type: `result[t][e]` is the softmax weight edge `e` of type `t`
    /// contributes to its destination (weights over a destination's
    /// incoming type-`t` edges sum to 1).
    ///
    /// The paper (§III) notes that "analyzing the learned attentional
    /// weights may also help model interpretability"; this is the hook for
    /// that analysis. Only head 0 is reported under multi-head attention.
    ///
    /// # Panics
    ///
    /// Panics if the model is not a ParaGraph model or attention was
    /// ablated away.
    pub fn attention_weights(&self, graph: &HeteroGraph) -> Vec<Vec<f32>> {
        assert_eq!(
            self.config.kind,
            GnnKind::ParaGraph,
            "ParaGraph models only"
        );
        assert!(!self.config.ablate_attention, "attention is ablated");
        let heads = self.config.attention_heads.max(1);
        let mut tape = Tape::new();

        // Input projection (Algorithm 1 lines 1-2) and the per-type view
        // projection are the *same* code paths as `embed`, and
        // `attention_probabilities` is the same kernel the fused layer op
        // runs, so this inspection view cannot drift from what training
        // computes. A view keeps its edge list's order, so the weights
        // come back in the type's COO order.
        let h = self.input_projection(&mut tape, graph);
        let plan = graph.plan();

        let lp = &self.layers[0];
        let mut out = Vec::with_capacity(self.num_edge_types);
        for t in 0..self.num_edge_types {
            let view = plan.view(t);
            if view.plan.num_edges() == 0 || self.config.ablate_edge_types {
                out.push(Vec::new());
                continue;
            }
            let z = self.view_projection(&mut tape, view, h, lp.w_type[t * heads]);
            out.push(paragraph_tensor::attention_probabilities(
                tape.value(z),
                self.params.value(lp.a_type[t * heads]),
                &view.plan,
                self.config.leaky_slope,
            ));
        }
        out
    }

    // --- layer implementations ---------------------------------------

    /// `h' = relu(b + sum_j (1/c_ij) W h_j)` with symmetric degree norm.
    fn gcn_layer(&self, tape: &mut Tape, graph: &HeteroGraph, h: Var, lp: &LayerParams) -> Var {
        let plan = graph.plan();
        let agg = tape.spmm_norm(h, plan.union().clone(), plan.union_gcn_coeff().clone());
        let w = tape.param(&self.params, lp.w.expect("gcn has w"));
        let b = tape.param(&self.params, lp.b);
        let z = tape.matmul(agg, w);
        let z = tape.add_bias(z, b);
        tape.relu(z)
    }

    /// GraphSage: mean aggregation, concat skip, L2 row normalisation.
    fn sage_layer(&self, tape: &mut Tape, graph: &HeteroGraph, h: Var, lp: &LayerParams) -> Var {
        let plan = graph.plan();
        let mean = tape.spmm_mean(h, plan.union().clone());
        let cat = tape.concat_cols(h, mean);
        let w = tape.param(&self.params, lp.w.expect("sage has w"));
        let b = tape.param(&self.params, lp.b);
        let z = tape.matmul(cat, w);
        let z = tape.add_bias(z, b);
        let z = tape.relu(z);
        tape.row_l2_normalize(z)
    }

    /// RGCN: per-relation mean aggregation with relation weights + self
    /// loop.
    ///
    /// Each relation runs over its compact [`EdgeView`], as in
    /// [`Self::paragraph_layer`]: the mean and its product cover only the
    /// rows the relation touches, and are scattered back to `n` rows.
    fn rgcn_layer(&self, tape: &mut Tape, graph: &HeteroGraph, h: Var, lp: &LayerParams) -> Var {
        let n = graph.num_nodes();
        let plan = graph.plan();
        let w_self = tape.param(&self.params, lp.w_self.expect("rgcn has w_self"));
        let mut acc = tape.matmul(h, w_self);
        for t in 0..self.num_edge_types {
            let view = plan.view(t);
            if view.plan.num_edges() == 0 {
                continue;
            }
            let x = tape.gather_rows(h, view.rows.clone());
            let mean = tape.spmm_mean(x, view.plan.clone());
            let w_r = tape.param(&self.params, lp.w_type[t]);
            let z = tape.matmul(mean, w_r);
            let msg = tape.scatter_add_rows(z, view.rows.clone(), n);
            acc = tape.add(acc, msg);
        }
        let b = tape.param(&self.params, lp.b);
        let z = tape.add_bias(acc, b);
        tape.relu(z)
    }

    /// GAT: additive attention over the homogeneous neighbourhood;
    /// multiple heads split the embedding dimension and concatenate.
    fn gat_layer(&self, tape: &mut Tape, graph: &HeteroGraph, h: Var, lp: &LayerParams) -> Var {
        let plan = graph.plan();
        let heads = self.config.attention_heads.max(1);
        let mut agg: Option<Var> = None;
        for k in 0..heads {
            let w = tape.param(&self.params, lp.w_type[k]);
            let z = tape.matmul(h, w);
            let head = self.attention_aggregate(tape, plan.union(), z, lp.a_type[k]);
            agg = Some(match agg {
                Some(prev) => tape.concat_cols(prev, head),
                None => head,
            });
        }
        let agg = agg.expect("at least one head");
        let b = tape.param(&self.params, lp.b);
        let z = tape.add_bias(agg, b);
        tape.relu(z)
    }

    /// ParaGraph (Algorithm 1 lines 4-10): per-edge-type attention
    /// aggregation, summed over edge types, concatenated with the previous
    /// embedding.
    ///
    /// Each edge type runs over its compact [`EdgeView`]: only the rows
    /// the type touches are projected and attended, and the messages are
    /// scattered back to `n` rows. Projection and attention are
    /// row-local, and a row the view skips would only have added exact
    /// zeros, so values and gradients are bitwise those of the full-row
    /// layer.
    fn paragraph_layer(
        &self,
        tape: &mut Tape,
        graph: &HeteroGraph,
        h: Var,
        lp: &LayerParams,
    ) -> Var {
        let n = graph.num_nodes();
        let f = self.config.embed_dim;
        let plan = graph.plan();
        let heads = self.config.attention_heads.max(1);
        let mut agg = tape.constant(Tensor::zeros(n, f));
        // The edge-type ablation runs one weight/attention group over the
        // union graph.
        let groups = if self.config.ablate_edge_types {
            1
        } else {
            self.num_edge_types
        };
        for t in 0..groups {
            let view = if self.config.ablate_edge_types {
                plan.union_view()
            } else {
                plan.view(t)
            };
            if view.plan.num_edges() == 0 {
                continue;
            }
            let mut h_t: Option<Var> = None;
            for k in 0..heads {
                let p = t * heads + k;
                let z = self.view_projection(tape, view, h, lp.w_type[p]);
                let head = if self.config.ablate_attention {
                    tape.spmm_mean(z, view.plan.clone())
                } else {
                    self.attention_aggregate(tape, &view.plan, z, lp.a_type[p])
                };
                h_t = Some(match h_t {
                    Some(prev) => tape.concat_cols(prev, head),
                    None => head,
                });
            }
            let msg = tape.scatter_add_rows(h_t.expect("head output"), view.rows.clone(), n);
            agg = tape.add(agg, msg); // line 9: sum over types
        }
        // Line 10: sigma(W concat(h, agg) + b) — or a plain sum under the
        // concat ablation.
        let w = tape.param(&self.params, lp.w.expect("paragraph has w"));
        let b = tape.param(&self.params, lp.b);
        let pre = if self.config.ablate_concat {
            let summed = tape.add(h, agg);
            tape.matmul(summed, w)
        } else {
            let cat = tape.concat_cols(h, agg);
            tape.matmul(cat, w)
        };
        let z = tape.add_bias(pre, b);
        tape.relu(z)
    }

    /// `h[rows]·w`: the projection of the rows `view` touches.
    ///
    /// Every head gathers its own copy of the rows, so `h`'s gradient
    /// takes each head's contribution in turn, as it would from a
    /// full-row product per head.
    fn view_projection(&self, tape: &mut Tape, view: &EdgeView, h: Var, w: ParamId) -> Var {
        let x = tape.gather_rows(h, view.rows.clone());
        let w = tape.param(&self.params, w);
        tape.matmul(x, w)
    }

    /// Shared GAT-style attention: one fused op computes the scores
    /// `a^T (z_dst ‖ z_src)`, the per-destination softmax, and the
    /// weighted scatter-sum.
    fn attention_aggregate(&self, tape: &mut Tape, plan: &Arc<CsrPlan>, z: Var, a: ParamId) -> Var {
        let av = tape.param(&self.params, a);
        tape.attend_aggregate(z, av, plan.clone(), self.config.leaky_slope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphSchema;

    fn tiny_graph() -> (GraphSchema, HeteroGraph) {
        let schema = GraphSchema {
            node_feat_dims: vec![1, 3],
            num_edge_types: 2,
        };
        let mut g = HeteroGraph::new(&schema, vec![0, 1, 0, 1, 0]);
        g.set_features(0, Tensor::from_rows(&[&[2.0], &[1.0], &[3.0]]));
        g.set_features(1, Tensor::from_rows(&[&[0.1, 0.2, 0.3], &[0.4, 0.5, 0.6]]));
        g.set_edges(0, vec![0, 2, 4], vec![1, 3, 1]);
        g.set_edges(1, vec![1, 3, 1], vec![0, 2, 4]);
        g.validate().unwrap();
        (schema, g)
    }

    #[test]
    fn all_models_produce_finite_embeddings() {
        let (schema, graph) = tiny_graph();
        for kind in GnnKind::all() {
            let mut cfg = ModelConfig::new(kind);
            cfg.embed_dim = 8;
            cfg.layers = 2;
            let model = GnnModel::new(cfg, &schema);
            let emb = model.embeddings(&graph);
            assert_eq!(emb.shape(), (5, 8), "{}", kind.name());
            assert!(emb.all_finite(), "{}", kind.name());
        }
    }

    #[test]
    fn predictions_have_one_per_node() {
        let (schema, graph) = tiny_graph();
        let mut cfg = ModelConfig::new(GnnKind::ParaGraph);
        cfg.embed_dim = 8;
        cfg.layers = 2;
        cfg.fc_layers = 2;
        let model = GnnModel::new(cfg, &schema);
        let nodes = Arc::new(vec![1_u32, 3]);
        let preds = model.predict(&graph, &nodes);
        assert_eq!(preds.len(), 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let (schema, graph) = tiny_graph();
        let make = || {
            let mut cfg = ModelConfig::new(GnnKind::Gat);
            cfg.embed_dim = 8;
            cfg.layers = 2;
            cfg.seed = 5;
            GnnModel::new(cfg, &schema).embeddings(&graph)
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn different_kinds_give_different_outputs() {
        let (schema, graph) = tiny_graph();
        let emb = |kind| {
            let mut cfg = ModelConfig::new(kind);
            cfg.embed_dim = 8;
            cfg.layers = 2;
            GnnModel::new(cfg, &schema).embeddings(&graph)
        };
        assert_ne!(emb(GnnKind::Gcn), emb(GnnKind::ParaGraph));
        assert_ne!(emb(GnnKind::GraphSage), emb(GnnKind::Rgcn));
    }

    #[test]
    fn gradients_flow_to_input_projection() {
        let (schema, graph) = tiny_graph();
        let mut cfg = ModelConfig::new(GnnKind::ParaGraph);
        cfg.embed_dim = 8;
        cfg.layers = 2;
        cfg.fc_layers = 2;
        let model = GnnModel::new(cfg, &schema);
        let mut tape = Tape::new();
        let nodes = Arc::new(vec![1_u32, 3]);
        let pred = model.predict_nodes(&mut tape, &graph, &nodes);
        let target = tape.constant(Tensor::from_col(&[1.0, -1.0]));
        let loss = tape.mse_loss(pred, target);
        let grads = tape.backward(loss);
        let pg = grads.param_grads(&tape);
        // At least the input projections and the head must receive grads.
        let in_proj0 = model.params().find("in_proj.0").unwrap();
        assert!(pg
            .iter()
            .any(|(id, g)| *id == in_proj0 && g.max_abs() > 0.0));
        let head0 = model.params().find("head0.w").unwrap();
        assert!(pg.iter().any(|(id, g)| *id == head0 && g.max_abs() > 0.0));
    }

    #[test]
    fn empty_edge_types_are_skipped() {
        let schema = GraphSchema {
            node_feat_dims: vec![2],
            num_edge_types: 4,
        };
        let mut g = HeteroGraph::new(&schema, vec![0, 0]);
        g.set_features(0, Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]));
        g.set_edges(0, vec![0], vec![1]); // types 1-3 stay empty
        for kind in GnnKind::all() {
            let mut cfg = ModelConfig::new(kind);
            cfg.embed_dim = 4;
            cfg.layers = 1;
            let model = GnnModel::new(cfg, &schema);
            let emb = model.embeddings(&g);
            assert!(emb.all_finite());
        }
    }
}

#[cfg(test)]
mod multihead_tests {
    use super::*;
    use crate::graph::GraphSchema;
    use crate::train::{GraphTask, TrainConfig, Trainer};
    use paragraph_tensor::Tensor;

    fn graph() -> (GraphSchema, HeteroGraph) {
        let schema = GraphSchema {
            node_feat_dims: vec![2],
            num_edge_types: 2,
        };
        let mut g = HeteroGraph::new(&schema, vec![0; 6]);
        g.set_features(0, Tensor::from_fn(6, 2, |i, j| (i + j) as f32 * 0.2));
        g.set_edges(0, vec![0, 1, 2, 3, 4], vec![1, 2, 3, 4, 5]);
        g.set_edges(1, vec![1, 2, 3, 4, 5], vec![0, 1, 2, 3, 4]);
        (schema, g)
    }

    #[test]
    fn multihead_shapes_are_preserved() {
        let (schema, g) = graph();
        for kind in [GnnKind::Gat, GnnKind::ParaGraph] {
            for heads in [1, 2, 4] {
                let mut cfg = ModelConfig::new(kind);
                cfg.embed_dim = 8;
                cfg.layers = 2;
                cfg.attention_heads = heads;
                let model = GnnModel::new(cfg, &schema);
                let emb = model.embeddings(&g);
                assert_eq!(emb.shape(), (6, 8), "{} x{heads}", kind.name());
                assert!(emb.all_finite());
            }
        }
    }

    #[test]
    fn head_count_changes_output() {
        let (schema, g) = graph();
        let emb = |heads| {
            let mut cfg = ModelConfig::new(GnnKind::ParaGraph);
            cfg.embed_dim = 8;
            cfg.layers = 1;
            cfg.attention_heads = heads;
            GnnModel::new(cfg, &schema).embeddings(&g)
        };
        assert_ne!(emb(1), emb(2));
    }

    #[test]
    fn multihead_models_train() {
        let (schema, g) = graph();
        let labels = Tensor::from_col(&[0.1, 0.4, 0.2, 0.9, 0.5, 0.3]);
        let task = GraphTask::new(g, (0..6).collect(), labels);
        let mut cfg = ModelConfig::new(GnnKind::ParaGraph);
        cfg.embed_dim = 8;
        cfg.layers = 2;
        cfg.fc_layers = 2;
        cfg.attention_heads = 2;
        let mut model = GnnModel::new(cfg, &schema);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 40,
            ..TrainConfig::default()
        });
        let history = trainer.fit(&mut model, &[task]);
        assert!(history.last().unwrap().loss < history.first().unwrap().loss);
    }

    #[test]
    #[should_panic(expected = "heads must divide embed_dim")]
    fn heads_must_divide_dim() {
        let (schema, _) = graph();
        let mut cfg = ModelConfig::new(GnnKind::Gat);
        cfg.embed_dim = 8;
        cfg.attention_heads = 3;
        let _ = GnnModel::new(cfg, &schema);
    }
}

#[cfg(test)]
mod attention_tests {
    use super::*;
    use crate::graph::GraphSchema;

    fn graph() -> (GraphSchema, HeteroGraph) {
        let schema = GraphSchema {
            node_feat_dims: vec![2],
            num_edge_types: 2,
        };
        let mut g = HeteroGraph::new(&schema, vec![0; 5]);
        g.set_features(0, Tensor::from_fn(5, 2, |i, j| (i * 2 + j) as f32 * 0.3));
        // Node 0 receives three type-0 edges; node 1 receives one.
        g.set_edges(0, vec![1, 2, 3, 4], vec![0, 0, 0, 1]);
        g.set_edges(1, vec![0], vec![2]);
        (schema, g)
    }

    #[test]
    fn attention_sums_to_one_per_destination() {
        let (schema, g) = graph();
        let mut cfg = ModelConfig::new(GnnKind::ParaGraph);
        cfg.embed_dim = 8;
        cfg.layers = 2;
        let model = GnnModel::new(cfg, &schema);
        let att = model.attention_weights(&g);
        assert_eq!(att.len(), 2);
        // Type 0: dst 0 gets edges 0..3, dst 1 gets edge 3.
        let sum0: f32 = att[0][..3].iter().sum();
        assert!((sum0 - 1.0).abs() < 1e-5, "{:?}", att[0]);
        assert!((att[0][3] - 1.0).abs() < 1e-5);
        // Type 1: single edge -> weight 1.
        assert!((att[1][0] - 1.0).abs() < 1e-5);
    }

    /// The view-based weights are bitwise the full-row computation
    /// `attention_probabilities(h·W_t, a_t, P_t)`, with `P_t` type t's
    /// edges compiled over the whole graph.
    #[test]
    fn attention_weights_match_full_row_probabilities_bitwise() {
        let schema = GraphSchema {
            node_feat_dims: vec![2],
            num_edge_types: 3,
        };
        // Node 5 is isolated, node 4 only sends, type 2 has no edges.
        let mut g = HeteroGraph::new(&schema, vec![0; 6]);
        g.set_features(
            0,
            Tensor::from_fn(6, 2, |i, j| (i * 2 + j) as f32 * 0.3 - 0.7),
        );
        g.set_edges(0, vec![1, 2, 3, 4], vec![0, 0, 0, 1]);
        g.set_edges(1, vec![0], vec![2]);
        let mut cfg = ModelConfig::new(GnnKind::ParaGraph);
        cfg.embed_dim = 8;
        cfg.layers = 1;
        let model = GnnModel::new(cfg, &schema);
        let att = model.attention_weights(&g);

        let mut tape = Tape::new();
        let h = model.input_projection(&mut tape, &g);
        let lp = &model.layers[0];
        for (t, got) in att.iter().enumerate() {
            let e = g.edges(t);
            if e.src.is_empty() {
                assert!(got.is_empty(), "type {t}");
                continue;
            }
            let tp = CsrPlan::new(&e.src, &e.dst, g.num_nodes());
            let z = tape.value(h).matmul(model.params.value(lp.w_type[t]));
            let want = paragraph_tensor::attention_probabilities(
                &z,
                model.params.value(lp.a_type[t]),
                &tp,
                model.config.leaky_slope,
            );
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(&want), "type {t}");
        }
    }

    #[test]
    #[should_panic(expected = "ParaGraph models only")]
    fn attention_requires_paragraph() {
        let (schema, g) = graph();
        let mut cfg = ModelConfig::new(GnnKind::Gcn);
        cfg.embed_dim = 8;
        cfg.layers = 1;
        let model = GnnModel::new(cfg, &schema);
        let _ = model.attention_weights(&g);
    }

    #[test]
    fn empty_edge_types_report_empty() {
        let schema = GraphSchema {
            node_feat_dims: vec![1],
            num_edge_types: 3,
        };
        let mut g = HeteroGraph::new(&schema, vec![0, 0]);
        g.set_features(0, Tensor::from_col(&[0.5, -0.5]));
        g.set_edges(0, vec![0], vec![1]);
        let mut cfg = ModelConfig::new(GnnKind::ParaGraph);
        cfg.embed_dim = 4;
        cfg.layers = 1;
        let model = GnnModel::new(cfg, &schema);
        let att = model.attention_weights(&g);
        assert_eq!(att[0].len(), 1);
        assert!(att[1].is_empty() && att[2].is_empty());
    }
}

#[cfg(test)]
mod uncertainty_tests {
    use super::*;
    use crate::graph::GraphSchema;
    use crate::train::GraphTask;
    use paragraph_tensor::Adam;

    /// Nodes with feature 0 have noisy labels, feature 1 clean labels; the
    /// NLL-trained model must learn higher sigma for the noisy group.
    #[test]
    fn nll_training_learns_heteroscedastic_sigma() {
        let schema = GraphSchema {
            node_feat_dims: vec![1],
            num_edge_types: 1,
        };
        let n = 60_usize;
        let mut g = HeteroGraph::new(&schema, vec![0; n]);
        let mut feats = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let noisy = i % 2 == 0;
            feats.push(if noisy { 0.0 } else { 1.0 });
            // "noise" is deterministic but spread: alternates around 0.5.
            let wiggle = ((i / 2) % 5) as f32 * 0.25 - 0.5;
            labels.push(if noisy { 0.5 + wiggle } else { 0.5 });
        }
        g.set_features(0, Tensor::from_col(&feats));
        g.set_edges(0, vec![], vec![]);
        let task = GraphTask::new(
            g.clone(),
            (0..n as u32).collect(),
            Tensor::from_col(&labels),
        );

        let mut cfg = ModelConfig::new(GnnKind::ParaGraph);
        cfg.embed_dim = 8;
        cfg.layers = 1;
        cfg.fc_layers = 2;
        cfg.uncertainty_head = true;
        let mut model = GnnModel::new(cfg, &schema);
        let mut opt = Adam::new(0.02);
        for _ in 0..300 {
            let mut tape = Tape::new();
            let out = model.predict_nodes(&mut tape, &task.graph, &task.nodes);
            let t = tape.constant(task.labels.clone());
            let loss = model.nll_loss(&mut tape, out, t);
            let grads = tape.backward(loss);
            let pg = grads.param_grads(&tape);
            opt.step(model.params_mut(), &pg);
        }
        let preds = model.predict_uncertain(&g, &task.nodes);
        let sigma_noisy: f32 =
            preds.iter().step_by(2).map(|(_, s)| s).sum::<f32>() / (n / 2) as f32;
        let sigma_clean: f32 =
            preds.iter().skip(1).step_by(2).map(|(_, s)| s).sum::<f32>() / (n / 2) as f32;
        assert!(
            sigma_noisy > 2.0 * sigma_clean,
            "noisy sigma {sigma_noisy} !>> clean sigma {sigma_clean}"
        );
        // Means converge to 0.5 for both groups.
        for (mu, _) in &preds {
            assert!((mu - 0.5).abs() < 0.3, "mu = {mu}");
        }
    }

    #[test]
    #[should_panic(expected = "no uncertainty head")]
    fn split_requires_uncertainty_head() {
        let schema = GraphSchema {
            node_feat_dims: vec![1],
            num_edge_types: 1,
        };
        let mut cfg = ModelConfig::new(GnnKind::Gcn);
        cfg.embed_dim = 4;
        cfg.layers = 1;
        let model = GnnModel::new(cfg, &schema);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(2, 2));
        let _ = model.split_uncertain(&mut tape, x);
    }

    #[test]
    fn uncertainty_head_shapes() {
        let schema = GraphSchema {
            node_feat_dims: vec![1],
            num_edge_types: 1,
        };
        let mut g = HeteroGraph::new(&schema, vec![0, 0, 0]);
        g.set_features(0, Tensor::from_col(&[0.1, 0.2, 0.3]));
        g.set_edges(0, vec![0, 1], vec![1, 2]);
        let mut cfg = ModelConfig::new(GnnKind::GraphSage);
        cfg.embed_dim = 4;
        cfg.layers = 1;
        cfg.fc_layers = 2;
        cfg.uncertainty_head = true;
        let model = GnnModel::new(cfg, &schema);
        let preds = model.predict_uncertain(&g, &Arc::new(vec![0, 2]));
        assert_eq!(preds.len(), 2);
        assert!(preds.iter().all(|(m, s)| m.is_finite() && *s > 0.0));
    }
}
