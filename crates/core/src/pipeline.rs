//! End-to-end pipeline: circuits -> layout truth -> graphs -> trained
//! models -> physical-unit predictions.
//!
//! One model is trained per `(GNN kind, target)` pair, as in the paper;
//! the classical baselines (linear regression and the XGBoost stand-in)
//! train on node features alone.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use paragraph_exec::{Calibration, CompileError, CompiledModel, Precision};
use paragraph_gnn::{GnnModel, GraphTask, HeteroGraph, ModelConfig, TrainConfig, Trainer};
use paragraph_layout::{extract, LayoutConfig, LayoutTruth};
use paragraph_ml::{Gbt, GbtConfig, LinearRegression};
use paragraph_netlist::Circuit;
use paragraph_tensor::Tensor;
use paragraph_tensor::{Adam, Tape};

pub use paragraph_gnn::GnnKind;

use crate::baseline::BaselineStats;
use crate::features::FeatureNorm;
use crate::graphbuild::{build_graph, circuit_schema, CircuitGraph};
use crate::targets::{target_labels, Target, TargetLabels};

/// A circuit with its synthesised layout truth and graph, ready for
/// training or evaluation.
#[derive(Debug, Clone)]
pub struct PreparedCircuit {
    /// Circuit name (e.g. `t3`, `e1`).
    pub name: String,
    /// The flat schematic.
    pub circuit: Circuit,
    /// Extracted ground truth.
    pub truth: LayoutTruth,
    /// The heterogeneous graph (normalised in place by
    /// [`normalize_circuits`]).
    pub graph: CircuitGraph,
}

impl PreparedCircuit {
    /// Builds layout truth and graph for a named circuit.
    pub fn new(name: impl Into<String>, circuit: Circuit, layout: &LayoutConfig) -> Self {
        let truth = extract(&circuit, layout);
        let graph = build_graph(&circuit);
        Self {
            name: name.into(),
            circuit,
            truth,
            graph,
        }
    }

    /// Labels of `target` on this circuit.
    pub fn labels(&self, target: Target, max_value: Option<f64>) -> TargetLabels {
        target_labels(&self.circuit, &self.graph, &self.truth, target, max_value)
    }
}

/// Prepares a batch of named circuits.
pub fn prepare_circuits(
    circuits: impl IntoIterator<Item = (String, Circuit)>,
    layout: &LayoutConfig,
) -> Vec<PreparedCircuit> {
    circuits
        .into_iter()
        .map(|(name, c)| PreparedCircuit::new(name, c, layout))
        .collect()
}

/// Fits feature normalisation over the training circuits.
pub fn fit_norm(train: &[PreparedCircuit]) -> FeatureNorm {
    let num_types = circuit_schema().num_node_types();
    let mut rows: Vec<Vec<Vec<f32>>> = vec![Vec::new(); num_types];
    for pc in train {
        for (t, type_rows) in pc.graph.raw_features().iter().enumerate() {
            rows[t].extend(type_rows.iter().cloned());
        }
    }
    FeatureNorm::fit(&rows)
}

/// Applies `norm` to every circuit's graph features.
pub fn normalize_circuits(circuits: &mut [PreparedCircuit], norm: &FeatureNorm) {
    for pc in circuits {
        pc.graph.normalize(norm);
    }
}

/// GNN training configuration (paper defaults, scaled-down epochs).
#[derive(Debug, Clone, PartialEq)]
pub struct FitConfig {
    /// Model kind.
    pub kind: GnnKind,
    /// Embedding width `F` (paper: 32).
    pub embed_dim: usize,
    /// Message-passing depth `L` (paper: 5).
    pub layers: usize,
    /// Training epochs (paper: 300; scaled-down default).
    pub epochs: usize,
    /// Adam learning rate (paper: 0.01).
    pub lr: f32,
    /// Seed for parameter init.
    pub seed: u64,
    /// ParaGraph ablation: mean aggregation instead of attention.
    pub ablate_attention: bool,
    /// ParaGraph ablation: one weight matrix for all edge types.
    pub ablate_edge_types: bool,
    /// ParaGraph ablation: sum skip instead of concat.
    pub ablate_concat: bool,
    /// Attention heads for GAT/ParaGraph (paper used 1; extension).
    pub attention_heads: usize,
    /// Train with a Gaussian NLL and a `(mean, log-variance)` head,
    /// enabling per-node confidence (extension beyond the paper).
    pub uncertainty: bool,
    /// Fold this many training circuits into each block-diagonal
    /// [`paragraph_gnn::GraphBatch`] per optimizer step (1 = per-graph
    /// steps, the paper's schedule).
    pub graphs_per_batch: usize,
}

impl FitConfig {
    /// Paper-default hyper-parameters for `kind` with a laptop-scale epoch
    /// count.
    pub fn new(kind: GnnKind) -> Self {
        Self {
            kind,
            embed_dim: 32,
            layers: 5,
            epochs: 50,
            lr: 0.01,
            seed: 1,
            ablate_attention: false,
            ablate_edge_types: false,
            ablate_concat: false,
            attention_heads: 1,
            uncertainty: false,
            graphs_per_batch: 1,
        }
    }

    /// Small/fast settings for tests and examples.
    pub fn quick(kind: GnnKind) -> Self {
        Self {
            embed_dim: 16,
            layers: 3,
            epochs: 25,
            ..Self::new(kind)
        }
    }
}

/// Process-wide precision default: `u8::MAX` = not yet initialised
/// (read `PARAGRAPH_PRECISION` lazily), else a [`Precision`]
/// discriminant.
static PRECISION_DEFAULT: AtomicU8 = AtomicU8::new(u8::MAX);

/// Sets the process-wide compiled-path precision for models whose own
/// `precision` field is `None`. Used by the CLI's `--precision` flag;
/// overrides any `PARAGRAPH_PRECISION` env value.
pub fn set_precision_default(precision: Precision) {
    PRECISION_DEFAULT.store(precision as u8, Ordering::Relaxed);
}

/// The process-wide compiled-path precision: whatever
/// [`set_precision_default`] stored, else the `PARAGRAPH_PRECISION`
/// environment variable (`f32`/`int8`), else [`Precision::F32`].
pub fn precision_default() -> Precision {
    let stored = PRECISION_DEFAULT.load(Ordering::Relaxed);
    if let Some(&precision) = Precision::ALL.get(usize::from(stored)) {
        return precision;
    }
    let precision = std::env::var("PARAGRAPH_PRECISION")
        .ok()
        .and_then(|v| Precision::parse(&v))
        .unwrap_or(Precision::F32);
    set_precision_default(precision);
    precision
}

/// A trained per-target GNN model plus everything needed to apply it to a
/// fresh schematic.
#[derive(Debug, Clone)]
pub struct TargetModel {
    /// The predicted quantity.
    pub target: Target,
    /// Maximum physical label used in training (the ensemble's `max_v`).
    pub max_value: Option<f64>,
    /// Fit settings.
    pub fit: FitConfig,
    /// Feature normalisation (from the training set).
    pub norm: FeatureNorm,
    /// Training-set feature statistics and label range, captured at
    /// training time for serve-side drift monitoring. `None` on models
    /// restored from artifacts that predate baseline capture.
    pub baseline: Option<BaselineStats>,
    /// Numeric precision for the compiled path. `None` follows the
    /// process-wide default ([`precision_default`] /
    /// `PARAGRAPH_PRECISION`); a pinned value wins over the default, so
    /// accuracy-critical models can stay [`Precision::F32`] while the
    /// rest of a registry runs quantized.
    pub precision: Option<Precision>,
    /// Per-activation-site maxima captured at training time over
    /// synthetic graphs spanning the baseline feature ranges — the
    /// static int8 activation scales. `None` on artifacts predating
    /// calibration capture (int8 then falls back to dynamic scales).
    pub calibration: Option<Vec<f32>>,
    pub(crate) model: GnnModel,
    /// The compiled executor, once [`TargetModel::compile`] ran (`Err`
    /// keeps the reason compilation failed). A clone of a compiled model
    /// shares its executor, which is sound because the executor
    /// snapshots the parameters.
    pub(crate) compiled: OnceLock<Result<Arc<CompiledModel>, CompileError>>,
}

/// What a `predict_circuits` call returns per circuit: one value per
/// net (net targets) or device (device targets), `None` where the
/// target does not apply.
pub type CircuitPredictions = Vec<Vec<Option<f64>>>;

/// Wall-clock breakdown of one [`TargetModel::predict_circuits`] or
/// [`crate::CapEnsemble::predict_circuits`] call, split at the stage
/// boundary the serving layer reports: graph construction +
/// normalisation vs the GNN forward pass (including unscale/scatter).
/// The circuits of a call run their steps concurrently, so each stage
/// is the longest any one circuit spent in it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PredictProfile {
    /// Time spent building and normalising the circuit graph, µs.
    pub graph_build_us: f64,
    /// Time spent in the forward pass and prediction scatter, µs.
    pub inference_us: f64,
}

/// Runs `step` on every circuit on the [`paragraph_runtime::global`]
/// pool, in the caller's span context. Returns the results in circuit
/// order and, per stage, the longest time any one step spent in it; a
/// lone circuit runs inline. Steps share nothing, so each result is the
/// one `step` gives that circuit alone.
pub(crate) fn map_circuits<R: Send>(
    circuits: &[&Circuit],
    step: impl Fn(&Circuit) -> (R, PredictProfile) + Sync,
) -> (Vec<R>, PredictProfile) {
    let steps = if let [circuit] = circuits {
        vec![step(circuit)]
    } else {
        // Each step takes exactly the caller's span context, none
        // included: its spans reach the caller's traces wherever it
        // runs, and never those of a thread that helps while it waits.
        let ctx = paragraph_obs::SpanContext::current();
        paragraph_runtime::global().map(circuits, |_, circuit| {
            let _ctx = paragraph_obs::SpanContext::enter_exactly(ctx.as_ref());
            step(circuit)
        })
    };
    let mut longest = PredictProfile::default();
    let results = steps
        .into_iter()
        .map(|(result, profile)| {
            longest.graph_build_us = longest.graph_build_us.max(profile.graph_build_us);
            longest.inference_us = longest.inference_us.max(profile.inference_us);
            result
        })
        .collect();
    (results, longest)
}

impl TargetModel {
    /// Trains a model for `target` on the prepared (already normalised)
    /// training circuits. Returns the model and the final epoch loss.
    pub fn train(
        train: &[PreparedCircuit],
        target: Target,
        max_value: Option<f64>,
        fit: FitConfig,
        norm: &FeatureNorm,
    ) -> (Self, f32) {
        let _span = paragraph_obs::span!(
            "train_target",
            target = target.name(),
            kind = fit.kind.name(),
        );
        let mut config = ModelConfig::new(fit.kind);
        config.embed_dim = fit.embed_dim;
        config.layers = fit.layers;
        config.fc_layers = target.fc_layers();
        config.seed = fit.seed;
        config.ablate_attention = fit.ablate_attention;
        config.ablate_edge_types = fit.ablate_edge_types;
        config.ablate_concat = fit.ablate_concat;
        config.attention_heads = fit.attention_heads;
        config.uncertainty_head = fit.uncertainty;
        let mut model = GnnModel::new(config, &circuit_schema());

        let tasks: Vec<GraphTask> = train
            .iter()
            .filter_map(|pc| {
                let labels = pc.labels(target, max_value);
                if labels.is_empty() {
                    return None;
                }
                Some(GraphTask::new(
                    pc.graph.graph.clone(),
                    labels.nodes.clone(),
                    Tensor::from_col(&labels.scaled),
                ))
            })
            .collect();
        let final_loss = if fit.uncertainty {
            // Gaussian-NLL loop (Trainer covers the MSE case only).
            let tasks = paragraph_gnn::batch_tasks(&tasks, fit.graphs_per_batch);
            let mut opt = Adam::new(fit.lr);
            let mut last = f32::NAN;
            for epoch in 0..fit.epochs {
                opt.lr = fit.lr * 0.98_f32.powi(epoch as i32);
                let mut total = 0.0;
                for task in &tasks {
                    let mut tape = Tape::new();
                    let out = model.predict_nodes(&mut tape, &task.graph, &task.nodes);
                    let t = tape.constant(task.labels.clone());
                    let loss = model.nll_loss(&mut tape, out, t);
                    total += tape.value(loss).item();
                    let grads = tape.backward(loss);
                    opt.step(model.params_mut(), &grads.param_grads(&tape));
                }
                last = total / tasks.len().max(1) as f32;
            }
            last
        } else {
            let mut trainer = Trainer::new(TrainConfig {
                epochs: fit.epochs,
                lr: fit.lr,
                lr_decay: 0.98,
                loss_target: None,
                graphs_per_batch: fit.graphs_per_batch,
            });
            let history = trainer.fit(&mut model, &tasks);
            history.last().map(|h| h.loss).unwrap_or(f32::NAN)
        };
        paragraph_obs::global()
            .counter(
                "paragraph_core_models_trained_total",
                &[("kind", fit.kind.name()), ("target", &target.name())],
            )
            .inc();
        let baseline = Some(BaselineStats::compute(train, target, max_value));
        let calibration = derive_calibration(&model, norm, baseline.as_ref());
        (
            Self {
                target,
                max_value,
                fit,
                norm: clone_norm(norm),
                baseline,
                precision: None,
                calibration,
                model,
                compiled: OnceLock::new(),
            },
            final_loss,
        )
    }

    /// Trains like [`TargetModel::train`] but evaluates on `validation`
    /// after every epoch and returns the parameters of the best epoch
    /// (early stopping with patience). Returns the model and the best
    /// validation R².
    ///
    /// # Panics
    ///
    /// Panics if `patience` is zero.
    pub fn train_with_validation(
        train: &[PreparedCircuit],
        validation: &[PreparedCircuit],
        target: Target,
        max_value: Option<f64>,
        fit: FitConfig,
        norm: &FeatureNorm,
        patience: usize,
    ) -> (Self, f64) {
        assert!(patience > 0, "patience must be positive");
        assert!(!fit.uncertainty, "validation loop supports MSE models");
        let _span = paragraph_obs::span!(
            "train_with_validation",
            target = target.name(),
            kind = fit.kind.name(),
        );
        let mut config = ModelConfig::new(fit.kind);
        config.embed_dim = fit.embed_dim;
        config.layers = fit.layers;
        config.fc_layers = target.fc_layers();
        config.seed = fit.seed;
        config.attention_heads = fit.attention_heads;
        let mut gnn = GnnModel::new(config, &circuit_schema());
        let tasks: Vec<GraphTask> = train
            .iter()
            .filter_map(|pc| {
                let labels = pc.labels(target, max_value);
                (!labels.is_empty()).then(|| {
                    GraphTask::new(
                        pc.graph.graph.clone(),
                        labels.nodes.clone(),
                        Tensor::from_col(&labels.scaled),
                    )
                })
            })
            .collect();

        let tasks = paragraph_gnn::batch_tasks(&tasks, fit.graphs_per_batch);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 1,
            lr: fit.lr,
            lr_decay: 1.0,
            loss_target: None,
            graphs_per_batch: 1,
        });
        let mut best_r2 = f64::NEG_INFINITY;
        let mut best_params = gnn.params().export();
        let mut since_best = 0;
        for _epoch in 0..fit.epochs {
            for task in &tasks {
                trainer.step(&mut gnn, task);
            }
            // Validation R² in scaled space.
            let probe = Self {
                target,
                max_value,
                fit: fit.clone(),
                norm: clone_norm(norm),
                baseline: None, // per-epoch probe: skip the stats pass
                // f32 is bitwise equal to the tape, so the probe scores
                // what training sees whatever the process default is.
                precision: Some(Precision::F32),
                calibration: None,
                model: gnn.clone(),
                compiled: OnceLock::new(),
            };
            let r2 = evaluate_model(&probe, validation, max_value).summary().r2;
            if r2 > best_r2 {
                best_r2 = r2;
                best_params = gnn.params().export();
                since_best = 0;
            } else {
                since_best += 1;
                if since_best >= patience {
                    break;
                }
            }
        }
        gnn.params_mut().import(&best_params).expect("own snapshot");
        let baseline = Some(BaselineStats::compute(train, target, max_value));
        let calibration = derive_calibration(&gnn, norm, baseline.as_ref());
        (
            Self {
                target,
                max_value,
                fit,
                norm: clone_norm(norm),
                baseline,
                precision: None,
                calibration,
                model: gnn,
                compiled: OnceLock::new(),
            },
            best_r2,
        )
    }

    /// Predicts physical-unit values for the labelled nodes of a prepared
    /// circuit; returns `(node, prediction)` pairs.
    pub fn predict_nodes(&self, pc: &PreparedCircuit, nodes: Vec<u32>) -> Vec<(u32, f64)> {
        let scores = self.predict_scores(&pc.graph.graph, &nodes);
        nodes
            .into_iter()
            .zip(scores)
            .map(|(n, p)| (n, self.target.unscale_with(self.max_value, p)))
            .collect()
    }

    /// Predicts this model's target for every applicable node of a fresh
    /// schematic (graph built and normalised internally). For `CAP` the
    /// result is indexed by net id (`None` on rails); for device targets
    /// by device id (`None` on non-MOSFETs). The single result of
    /// [`TargetModel::predict_circuits`] on `[circuit]`.
    pub fn predict_circuit(&self, circuit: &Circuit) -> Vec<Option<f64>> {
        let (mut preds, _) = self.predict_circuits(&[circuit]);
        preds.pop().expect("one prediction per circuit")
    }

    /// Number of trainable scalars in the underlying GNN.
    pub fn param_count(&self) -> usize {
        self.model.params().num_scalars()
    }

    /// Same as [`TargetModel::predict_circuit`] but reusing an existing
    /// normalised graph.
    pub fn predict_graph(&self, circuit: &Circuit, cg: &CircuitGraph) -> Vec<Option<f64>> {
        let nodes = self.query_nodes(circuit, cg);
        let scores = self.predict_scores(&cg.graph, &nodes);
        self.scatter_predictions(circuit, cg, &scores)
    }

    /// Predicts every applicable node of several fresh schematics, laid
    /// out per circuit like [`TargetModel::predict_circuit`], with the
    /// wall-clock split between building and normalising the graphs and
    /// the forward pass. Each circuit is one step on the
    /// [`paragraph_runtime::global`] pool: build and normalise its
    /// graph, run a one-member forward on the executor's pooled batch
    /// scratch, scatter. No circuit sees another's rows, so each answer
    /// is exactly its lone answer at every precision.
    pub fn predict_circuits(&self, circuits: &[&Circuit]) -> (CircuitPredictions, PredictProfile) {
        map_circuits(circuits, |c| self.predict_one(c))
    }

    /// One circuit's [`TargetModel::predict_circuits`] step. The pooled
    /// batch scratch rebuilds the graph and its message plan in place,
    /// so a warmed step allocates no plan of its own.
    fn predict_one(&self, circuit: &Circuit) -> (Vec<Option<f64>>, PredictProfile) {
        let started = Instant::now();
        let mut cg = build_graph(circuit);
        cg.normalize(&self.norm);
        let graph_build_us = elapsed_us(started);
        let started = Instant::now();
        let nodes = self.query_nodes(circuit, &cg);
        let mut scores = Vec::new();
        if !nodes.is_empty() {
            self.executor().predict_batch_into(
                &[&cg.graph],
                std::slice::from_ref(&nodes),
                &mut scores,
            );
        }
        let preds = self.scatter_predictions(circuit, &cg, &scores);
        let profile = PredictProfile {
            graph_build_us,
            inference_us: elapsed_us(started),
        };
        (preds, profile)
    }

    /// Global ids of the nodes this model's target applies to.
    fn query_nodes(&self, circuit: &Circuit, cg: &CircuitGraph) -> Vec<u32> {
        if self.target.on_nets() {
            cg.net_nodes()
        } else {
            circuit
                .devices()
                .iter()
                .enumerate()
                .filter(|(_, d)| d.kind.is_mosfet())
                .map(|(i, _)| cg.device_node[i])
                .collect()
        }
    }

    /// Unscales `scores` (the predictions for [`Self::query_nodes`], in
    /// its order) to physical units and lays them out per net (for net
    /// targets) or per device (for device targets), `None` where the
    /// target does not apply. The query nodes follow net or device
    /// order, so a running cursor places every score.
    fn scatter_predictions(
        &self,
        circuit: &Circuit,
        cg: &CircuitGraph,
        scores: &[f32],
    ) -> Vec<Option<f64>> {
        let mut unscaled = scores
            .iter()
            .map(|&p| self.target.unscale_with(self.max_value, p));
        let mut next = || unscaled.next().expect("a score per query node");
        let preds = if self.target.on_nets() {
            cg.net_node.iter().map(|n| n.map(|_| next())).collect()
        } else {
            circuit
                .devices()
                .iter()
                .map(|d| d.kind.is_mosfet().then(&mut next))
                .collect()
        };
        assert!(unscaled.next().is_none(), "a query node per score");
        preds
    }

    /// Predicts `(physical mean, log-space sigma)` per labelled node of a
    /// prepared circuit — only for models trained with
    /// [`FitConfig::uncertainty`]. Sigma is in the training (scaled)
    /// space: for log-trained targets, a sigma of 0.3 means roughly a
    /// x2 / ÷2 one-sigma band around the mean.
    ///
    /// # Panics
    ///
    /// Panics if the model has no uncertainty head.
    pub fn predict_nodes_uncertain(
        &self,
        pc: &PreparedCircuit,
        nodes: Vec<u32>,
    ) -> Vec<(u32, f64, f64)> {
        if nodes.is_empty() {
            return Vec::new();
        }
        let nodes_arc = std::sync::Arc::new(nodes);
        let preds = self.model.predict_uncertain(&pc.graph.graph, &nodes_arc);
        nodes_arc
            .iter()
            .zip(preds)
            .map(|(&n, (mu, sigma))| {
                (
                    n,
                    self.target.unscale_with(self.max_value, mu),
                    sigma as f64,
                )
            })
            .collect()
    }

    /// Final node embeddings of a prepared circuit (`N x F`), e.g. for
    /// t-SNE (Figure 8).
    pub fn embeddings(&self, pc: &PreparedCircuit) -> Tensor {
        self.model.embeddings(&pc.graph.graph)
    }

    /// The underlying GNN (for parameter export, and as the autograd
    /// tape reference the executor is checked against).
    pub fn gnn(&self) -> &GnnModel {
        &self.model
    }

    /// Compiles this model's executor at its effective precision, passing
    /// the cached calibration table along for int8 activation scales.
    /// Compiles once: later calls return the first outcome, and every
    /// prediction runs on the compiled executor. The serving registry
    /// calls this when it loads a model, so a model that does not
    /// compile fails the load instead of a request.
    ///
    /// # Errors
    ///
    /// Returns the [`CompileError`] when the model's shapes are
    /// inconsistent, a parameter or calibration site is missing, or a
    /// weight is not finite at int8.
    pub fn compile(&self) -> Result<&CompiledModel, CompileError> {
        self.compiled
            .get_or_init(|| {
                let calibration = self
                    .calibration
                    .as_ref()
                    .map(|sites| Calibration::from_sites(sites.clone()));
                CompiledModel::compile_with(
                    &self.model,
                    self.effective_precision(),
                    calibration.as_ref(),
                )
                .map(Arc::new)
            })
            .as_deref()
            .map_err(Clone::clone)
    }

    /// The compiled executor.
    ///
    /// # Panics
    ///
    /// Panics with the [`CompileError`] if the model does not compile.
    fn executor(&self) -> &CompiledModel {
        self.compile().unwrap_or_else(|e| {
            panic!(
                "{}/{} does not compile: {e}",
                self.fit.kind.name(),
                self.target.name()
            )
        })
    }

    /// This model's effective compiled-path precision: its own
    /// `precision` field, or the process-wide default
    /// ([`precision_default`] / `PARAGRAPH_PRECISION`).
    pub fn effective_precision(&self) -> Precision {
        self.precision.unwrap_or_else(precision_default)
    }

    /// Scaled-space forward pass on the compiled executor. At
    /// [`Precision::F32`] it is bitwise identical to the autograd tape
    /// (pinned by the `paragraph-exec` parity suite and the
    /// golden-metrics tests); at reduced precision it tracks the tape
    /// within the documented quantization tolerances instead.
    fn predict_scores(&self, graph: &HeteroGraph, nodes: &[u32]) -> Vec<f32> {
        if nodes.is_empty() {
            return Vec::new();
        }
        self.executor().predict(graph, nodes)
    }
}

/// Microseconds elapsed since `started`.
pub(crate) fn elapsed_us(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e6
}

fn clone_norm(norm: &FeatureNorm) -> FeatureNorm {
    FeatureNorm {
        mean: norm.mean.clone(),
        std: norm.std.clone(),
    }
}

/// Rows of synthetic raw features per node type in the calibration
/// workload: the observed minimum, maximum, midpoint, and a per-feature
/// spread point.
const CALIBRATION_ROWS_PER_TYPE: usize = 4;

/// Derives the int8 activation-calibration table for a freshly trained
/// model: builds a small synthetic graph whose raw features span the
/// training baseline's per-feature `[min, max]` ranges (normalised
/// exactly like live traffic) with every edge type wired, compiles the
/// model at f32, and records the per-site activation maxima.
///
/// Returns `None` when no baseline was captured or the model does not
/// compile — int8 then falls back to dynamic per-buffer scales.
pub(crate) fn derive_calibration(
    model: &GnnModel,
    norm: &FeatureNorm,
    baseline: Option<&BaselineStats>,
) -> Option<Vec<f32>> {
    let baseline = baseline?;
    let schema = circuit_schema();
    let num_types = schema.node_feat_dims.len();
    let mut types = Vec::with_capacity(num_types * CALIBRATION_ROWS_PER_TYPE);
    for t in 0..num_types {
        types.extend(std::iter::repeat_n(t as u16, CALIBRATION_ROWS_PER_TYPE));
    }
    let mut graph = HeteroGraph::new(&schema, types);
    for t in 0..num_types {
        let d = schema.node_feat_dims[t];
        let mut rows = Vec::with_capacity(CALIBRATION_ROWS_PER_TYPE);
        for r in 0..CALIBRATION_ROWS_PER_TYPE {
            let mut row = vec![0.0_f32; d];
            for (f, v) in row.iter_mut().enumerate() {
                let lo = baseline
                    .min
                    .get(t)
                    .and_then(|m| m.get(f))
                    .copied()
                    .unwrap_or(0.0) as f32;
                let hi = baseline
                    .max
                    .get(t)
                    .and_then(|m| m.get(f))
                    .copied()
                    .unwrap_or(0.0) as f32;
                *v = match r {
                    0 => lo,
                    1 => hi,
                    2 => 0.5 * (lo + hi),
                    _ => lo + (hi - lo) * ((f + 1) as f32 / (d + 1) as f32),
                };
            }
            norm.apply(t as u16, &mut row);
            rows.push(row);
        }
        let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
        graph.set_features(t as u16, Tensor::from_rows(&refs));
    }
    let n = (num_types * CALIBRATION_ROWS_PER_TYPE) as u32;
    for e in 0..schema.num_edge_types {
        let src: Vec<u32> = (0..n).collect();
        let dst: Vec<u32> = (0..n).map(|i| (i + 1 + e as u32) % n).collect();
        graph.set_edges(e, src, dst);
    }
    graph.validate().ok()?;
    let exec = CompiledModel::compile(model).ok()?;
    let nodes: Vec<u32> = (0..n).collect();
    Some(exec.calibrate(&[(&graph, nodes)]).sites().to_vec())
}

/// One independent training run for [`train_models`]: a `(target,
/// max_value, fit)` triple, mirroring [`TargetModel::train`]'s
/// arguments.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    /// The predicted quantity.
    pub target: Target,
    /// Upper capacitance bound (the ensemble's `max_v`), if any.
    pub max_value: Option<f64>,
    /// Fit settings for this run.
    pub fit: FitConfig,
}

impl TrainSpec {
    /// Creates a spec without a `max_value` bound.
    pub fn new(target: Target, fit: FitConfig) -> Self {
        Self {
            target,
            max_value: None,
            fit,
        }
    }
}

/// Trains every spec's model concurrently on the shared
/// [`paragraph_runtime::global`] worker pool — one pool job per
/// `(kind, target)` model, so independent models (e.g. the paper's 16+
/// per-experiment runs, or the four ensemble members) no longer train
/// one after another.
///
/// Results are returned **in spec order** regardless of which run
/// finishes first, and each run is bit-identical to calling
/// [`TargetModel::train`] with the same arguments sequentially: the
/// runs share no mutable state, only the read-only training circuits.
pub fn train_models(
    train: &[PreparedCircuit],
    specs: &[TrainSpec],
    norm: &FeatureNorm,
) -> Vec<(TargetModel, f32)> {
    paragraph_runtime::global().map(specs, |_, spec| {
        TargetModel::train(train, spec.target, spec.max_value, spec.fit.clone(), norm)
    })
}

/// `(prediction, truth)` pairs in both training (log) space and physical
/// units.
#[derive(Debug, Clone, Default)]
pub struct EvalPairs {
    /// Log-space pairs.
    pub scaled: Vec<(f64, f64)>,
    /// Physical-unit pairs.
    pub physical: Vec<(f64, f64)>,
}

impl EvalPairs {
    /// R² in log space, MAE and MAPE in physical units — the paper's
    /// metric convention for Figure 6.
    pub fn summary(&self) -> EvalSummary {
        let (ps, ts): (Vec<f64>, Vec<f64>) = self.scaled.iter().cloned().unzip();
        let (pp, tp): (Vec<f64>, Vec<f64>) = self.physical.iter().cloned().unzip();
        EvalSummary {
            r2: paragraph_ml::r_squared(&ps, &ts),
            mae: paragraph_ml::mae(&pp, &tp),
            mape: paragraph_ml::mape(&pp, &tp),
            count: self.scaled.len(),
        }
    }
}

/// Headline metrics of one evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalSummary {
    /// R² in the scaled (log) space.
    pub r2: f64,
    /// Mean absolute error in physical units.
    pub mae: f64,
    /// Mean absolute percentage error (physical), percent.
    pub mape: f64,
    /// Number of evaluated points.
    pub count: usize,
}

/// Evaluates a trained model on test circuits over nodes with labels
/// `<= eval_max` (the paper evaluates range models within their range).
pub fn evaluate_model(
    model: &TargetModel,
    test: &[PreparedCircuit],
    eval_max: Option<f64>,
) -> EvalPairs {
    let mut pairs = EvalPairs::default();
    for pc in test {
        let labels = pc.labels(model.target, eval_max);
        if labels.is_empty() {
            continue;
        }
        let preds = model.predict_nodes(pc, labels.nodes.clone());
        for ((_, pred), (scaled_t, phys_t)) in
            preds.iter().zip(labels.scaled.iter().zip(&labels.physical))
        {
            pairs.scaled.push((
                model.target.scale_with(model.max_value, *pred) as f64,
                *scaled_t as f64,
            ));
            pairs.physical.push((*pred, *phys_t));
        }
    }
    pairs
}

// ---------------------------------------------------------------------
// Classical baselines (node features only, as in the paper's Figure 6)
// ---------------------------------------------------------------------

/// Which classical model a baseline uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaselineKind {
    /// Ordinary least squares.
    Linear,
    /// Gradient-boosted trees (XGBoost stand-in).
    Xgb,
}

impl BaselineKind {
    /// Display name matching the paper's Figure 6.
    pub fn name(self) -> &'static str {
        match self {
            BaselineKind::Linear => "Linear",
            BaselineKind::Xgb => "XGB",
        }
    }
}

/// A trained classical baseline for one target.
#[derive(Debug, Clone)]
pub struct BaselineModel {
    /// The predicted quantity.
    pub target: Target,
    /// Model flavour.
    pub kind: BaselineKind,
    /// Maximum physical label used in training.
    pub max_value: Option<f64>,
    linear: Option<LinearRegression>,
    gbt: Option<Gbt>,
}

/// Node-feature rows for the labelled nodes of a circuit. Device targets
/// get the transistor features; the net target gets the fanout feature
/// (padded to the transistor width so both transistor flavours share one
/// model).
fn baseline_features(pc: &PreparedCircuit, labels: &TargetLabels) -> Vec<Vec<f64>> {
    let g = &pc.graph.graph;
    labels
        .nodes
        .iter()
        .map(|&node| {
            let t = g.node_type(node as usize);
            let idx = g
                .nodes_of_type(t)
                .binary_search(&node)
                .expect("node in its type list");
            let row = g.features(t).row(idx);
            let mut out: Vec<f64> = row.iter().map(|&v| v as f64).collect();
            out.resize(4, 0.0); // common width across node types
            out
        })
        .collect()
}

impl BaselineModel {
    /// Trains on the labelled nodes of the training circuits (in log
    /// space, like the GNNs).
    pub fn train(
        train: &[PreparedCircuit],
        target: Target,
        max_value: Option<f64>,
        kind: BaselineKind,
    ) -> Self {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for pc in train {
            let labels = pc.labels(target, max_value);
            x.extend(baseline_features(pc, &labels));
            y.extend(labels.scaled.iter().map(|&v| v as f64));
        }
        let (linear, gbt) = match kind {
            BaselineKind::Linear => (
                Some(LinearRegression::fit(&x, &y, 1e-6).expect("solvable normal equations")),
                None,
            ),
            BaselineKind::Xgb => (None, Some(Gbt::fit(&x, &y, GbtConfig::default()))),
        };
        Self {
            target,
            kind,
            max_value,
            linear,
            gbt,
        }
    }

    /// Evaluates on test circuits, mirroring [`evaluate_model`].
    ///
    /// Evaluation labels are scaled with *this model's* training range so
    /// scaled-space metrics are apples-to-apples against the GNNs.
    pub fn evaluate(&self, test: &[PreparedCircuit], eval_max: Option<f64>) -> EvalPairs {
        let mut pairs = EvalPairs::default();
        for pc in test {
            let mut labels = pc.labels(self.target, eval_max);
            if labels.is_empty() {
                continue;
            }
            // Re-scale labels with the model's own range.
            for (s, phys) in labels.scaled.iter_mut().zip(&labels.physical) {
                *s = self.target.scale_with(self.max_value, *phys);
            }
            let x = baseline_features(pc, &labels);
            let preds_scaled = match self.kind {
                BaselineKind::Linear => self.linear.as_ref().expect("fitted").predict(&x),
                BaselineKind::Xgb => self.gbt.as_ref().expect("fitted").predict(&x),
            };
            for (p, (s, phys)) in preds_scaled
                .iter()
                .zip(labels.scaled.iter().zip(&labels.physical))
            {
                pairs.scaled.push((*p, *s as f64));
                pairs
                    .physical
                    .push((self.target.unscale_with(self.max_value, *p as f32), *phys));
            }
        }
        pairs
    }

    /// Predicts physical values for the labelled nodes of one circuit,
    /// returned as `(node, value)` pairs.
    pub fn predict_labelled(&self, pc: &PreparedCircuit) -> Vec<(u32, f64)> {
        let labels = pc.labels(self.target, None);
        let x = baseline_features(pc, &labels);
        let preds = match self.kind {
            BaselineKind::Linear => self.linear.as_ref().expect("fitted").predict(&x),
            BaselineKind::Xgb => self.gbt.as_ref().expect("fitted").predict(&x),
        };
        labels
            .nodes
            .iter()
            .zip(preds)
            .map(|(&n, p)| (n, self.target.unscale_with(self.max_value, p as f32)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragraph_netlist::parse_spice;

    fn tiny_dataset() -> Vec<PreparedCircuit> {
        // A few small, different circuits.
        let sources = [
            ("a", "mp o i vdd vdd pch nf=2\nmn o i vss vss nch\nr1 o f 10k\n.end\n"),
            (
                "b",
                "mp1 x i vdd vdd pch nf=4\nmn1 x i vss vss nch nf=2\nmp2 y x vdd vdd pch\nmn2 y x vss vss nch\n.end\n",
            ),
            ("c", "mn1 d1 g1 s1 vss nch nfin=8\nmn2 d2 g1 d1 vss nch nfin=4\nc1 d2 vss 20f\n.end\n"),
        ];
        let mut prepared: Vec<PreparedCircuit> = sources
            .iter()
            .map(|(name, src)| {
                let c = parse_spice(src).unwrap().flatten().unwrap();
                PreparedCircuit::new(*name, c, &LayoutConfig::default())
            })
            .collect();
        let norm = fit_norm(&prepared);
        normalize_circuits(&mut prepared, &norm);
        prepared
    }

    #[test]
    fn training_reduces_loss_and_predicts_positive_caps() {
        let prepared = tiny_dataset();
        let norm = FeatureNorm::identity();
        let (model, loss) = TargetModel::train(
            &prepared,
            Target::Cap,
            None,
            FitConfig::quick(GnnKind::ParaGraph),
            &norm,
        );
        assert!(loss.is_finite());
        let caps = model.predict_graph(&prepared[0].circuit, &prepared[0].graph);
        let signal_preds: Vec<f64> = caps.into_iter().flatten().collect();
        assert_eq!(signal_preds.len(), 3); // signal nets i, o, f
        assert!(signal_preds.iter().all(|&c| c > 0.0));
    }

    #[test]
    fn evaluate_produces_pairs() {
        let prepared = tiny_dataset();
        let norm = FeatureNorm::identity();
        let (model, _) = TargetModel::train(
            &prepared[..2],
            Target::Sa,
            None,
            FitConfig::quick(GnnKind::GraphSage),
            &norm,
        );
        let pairs = evaluate_model(&model, &prepared[2..], None);
        assert_eq!(pairs.scaled.len(), 2); // two mosfets in circuit c
        let s = pairs.summary();
        assert!(s.mae >= 0.0 && s.count == 2);
    }

    #[test]
    fn baselines_train_and_evaluate() {
        let prepared = tiny_dataset();
        for kind in [BaselineKind::Linear, BaselineKind::Xgb] {
            let model = BaselineModel::train(&prepared[..2], Target::Cap, None, kind);
            let pairs = model.evaluate(&prepared[2..], None);
            assert!(!pairs.scaled.is_empty(), "{}", kind.name());
            assert!(pairs.physical.iter().all(|(p, _)| *p > 0.0));
        }
    }

    /// `predict_circuits` runs each circuit's own one-member batch
    /// forward on the pool; every per-circuit answer must equal
    /// `predict_graph` (the executor's single-graph `predict` path, the
    /// one the ensemble takes) float for float, for net and device
    /// targets alike, and at int8 without a calibration table, where
    /// each site scales by its live max-abs.
    #[test]
    fn batched_circuit_prediction_matches_sequential() {
        let prepared = tiny_dataset();
        let norm = FeatureNorm::identity();
        let circuits: Vec<&paragraph_netlist::Circuit> =
            prepared.iter().map(|pc| &pc.circuit).collect();
        for (target, kind, uncalibrated_int8) in [
            (Target::Cap, GnnKind::ParaGraph, false),
            (Target::Sa, GnnKind::Gcn, false),
            (Target::Cap, GnnKind::ParaGraph, true),
        ] {
            let mut fit = FitConfig::quick(kind);
            fit.epochs = 3;
            let (mut model, _) = TargetModel::train(&prepared, target, None, fit, &norm);
            if uncalibrated_int8 {
                model.precision = Some(Precision::Int8);
                model.calibration = None;
            }
            let label = format!(
                "{} {} at {}",
                kind.name(),
                target.name(),
                model.effective_precision()
            );
            let (batched, profile) = model.predict_circuits(&circuits);
            assert_eq!(batched.len(), circuits.len());
            assert!(profile.graph_build_us > 0.0 && profile.inference_us > 0.0);
            for (pc, got) in prepared.iter().zip(&batched) {
                let mut cg = build_graph(&pc.circuit);
                cg.normalize(&model.norm);
                let lone = model.predict_graph(&pc.circuit, &cg);
                assert_eq!(&lone, got, "{label} on {}", pc.name);
            }
        }
        // Degenerate widths: nothing in, nothing out; one circuit takes
        // the lone-graph path, which equals predicting its graph.
        let mut fit = FitConfig::quick(GnnKind::Gcn);
        fit.epochs = 1;
        let (model, _) = TargetModel::train(&prepared, Target::Cap, None, fit, &norm);
        assert!(model.predict_circuits(&[]).0.is_empty());
        let (one, _) = model.predict_circuits(&[&prepared[0].circuit]);
        let mut cg = build_graph(&prepared[0].circuit);
        cg.normalize(&norm);
        assert_eq!(one, vec![model.predict_graph(&prepared[0].circuit, &cg)]);
    }

    /// Training with `graphs_per_batch > 1` must still learn (the loss
    /// schedule changes, so only convergence is asserted, not parity).
    #[test]
    fn batched_training_converges() {
        let prepared = tiny_dataset();
        let norm = FeatureNorm::identity();
        let mut fit = FitConfig::quick(GnnKind::ParaGraph);
        fit.graphs_per_batch = 3;
        let (model, loss) = TargetModel::train(&prepared, Target::Cap, None, fit, &norm);
        assert!(loss.is_finite());
        let caps = model.predict_graph(&prepared[0].circuit, &prepared[0].graph);
        assert!(caps.into_iter().flatten().all(|c| c > 0.0));
    }

    #[test]
    fn norm_fitting_covers_types_present() {
        let prepared = tiny_dataset();
        let norm = fit_norm(&prepared);
        // Net features were normalised with real stats.
        assert_ne!(norm.std[0], vec![1.0]);
    }
}

#[cfg(test)]
mod validation_tests {
    use super::*;
    use paragraph_layout::LayoutConfig;
    use paragraph_netlist::parse_spice;

    fn circuits(n: usize, seed: u64) -> Vec<PreparedCircuit> {
        (0..n)
            .map(|i| {
                let src = format!(
                    "mp{i} o{i} i{i} vdd vdd pch nf={}\nmn{i} o{i} i{i} vss vss nch nfin={}\nr{i} o{i} f{i} 10k\n",
                    1 + (seed as usize + i) % 4,
                    1 + (seed as usize + i) % 8,
                );
                let c = parse_spice(&format!("{src}.end\n")).unwrap().flatten().unwrap();
                PreparedCircuit::new(format!("v{i}"), c, &LayoutConfig::default())
            })
            .collect()
    }

    #[test]
    fn validation_training_returns_best_epoch() {
        let mut train = circuits(3, 1);
        let mut val = circuits(2, 9);
        let norm = fit_norm(&train);
        normalize_circuits(&mut train, &norm);
        normalize_circuits(&mut val, &norm);
        let mut fit = FitConfig::quick(GnnKind::ParaGraph);
        fit.epochs = 10;
        let (mut model, best_r2) =
            TargetModel::train_with_validation(&train, &val, Target::Sa, None, fit, &norm, 3);
        assert!(best_r2.is_finite());
        // The per-epoch probes score at f32, so the equality below only
        // holds at f32 — pin it so a process-wide PARAGRAPH_PRECISION
        // override (the quantized CI job) cannot reroute the final
        // evaluation through a quantized path.
        model.precision = Some(Precision::F32);
        // The returned model's validation R² equals the reported best.
        let again = evaluate_model(&model, &val, None).summary().r2;
        assert!((again - best_r2).abs() < 1e-6, "{again} vs {best_r2}");
    }

    #[test]
    #[should_panic(expected = "patience must be positive")]
    fn zero_patience_rejected() {
        let train = circuits(1, 2);
        let norm = fit_norm(&train);
        let fit = FitConfig::quick(GnnKind::Gcn);
        let _ = TargetModel::train_with_validation(&train, &train, Target::Sa, None, fit, &norm, 0);
    }
}
