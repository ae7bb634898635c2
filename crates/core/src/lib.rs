//! # ParaGraph
//!
//! A from-scratch Rust reproduction of **"ParaGraph: Layout Parasitics and
//! Device Parameter Prediction using Graph Neural Networks"** (Ren, Kokai,
//! Turner, Ku — DAC 2020).
//!
//! Given only a schematic, ParaGraph predicts post-layout quantities:
//!
//! * net parasitic capacitance (`CAP`), and
//! * transistor layout parameters (`SA`/`DA`/`SP`/`DP` diffusion geometry
//!   and `LDE1..8` layout-dependent effects),
//!
//! by converting the circuit into a heterogeneous graph (devices *and*
//! nets are nodes; edge types encode device terminals — [`build_graph`]),
//! training a custom GNN combining GraphSage concatenation, RGCN
//! per-edge-type weights, and GAT attention
//! ([`paragraph_gnn::GnnKind::ParaGraph`], the paper's Algorithm 1), and
//! recovering accuracy across six decades of capacitance with an ensemble
//! of range-limited models ([`CapEnsemble`], Algorithm 2).
//!
//! # Quickstart
//!
//! ```
//! use paragraph::{
//!     fit_norm, normalize_circuits, FitConfig, GnnKind, PreparedCircuit, Target, TargetModel,
//! };
//! use paragraph_layout::LayoutConfig;
//! use paragraph_netlist::parse_spice;
//!
//! // 1. A (tiny) training circuit with synthesised layout ground truth.
//! let circuit = parse_spice("mp o i vdd vdd pch\nmn o i vss vss nch\n.end\n")?
//!     .flatten()?;
//! let mut train = vec![PreparedCircuit::new("demo", circuit, &LayoutConfig::default())];
//! let norm = fit_norm(&train);
//! normalize_circuits(&mut train, &norm);
//!
//! // 2. Train a capacitance model (scaled-down settings).
//! let mut fit = FitConfig::quick(GnnKind::ParaGraph);
//! fit.epochs = 3;
//! let (model, _loss) = TargetModel::train(&train, Target::Cap, None, fit, &norm);
//!
//! // 3. Predict parasitics for a new schematic.
//! let fresh = parse_spice("mp z a vdd vdd pch\nmn z a vss vss nch\n.end\n")?.flatten()?;
//! let caps = model.predict_circuit(&fresh);
//! let z = fresh.find_net("z").unwrap();
//! assert!(caps[z.0 as usize].unwrap() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Crate layout
//!
//! The substrates live in sibling crates: [`paragraph_tensor`] (autograd),
//! [`paragraph_gnn`] (models), [`paragraph_netlist`] (schematics),
//! [`paragraph_layout`] (ground-truth synthesis), [`paragraph_ml`]
//! (baselines + metrics).

#![warn(missing_docs)]

mod baseline;
mod ensemble;
mod features;
mod graphbuild;
mod persist;
mod pipeline;
mod targets;

pub use baseline::BaselineStats;
pub use ensemble::{CapEnsemble, EnsembleError, PAPER_MAX_V};
pub use features::{device_features, net_features, FeatureNorm, NodeType};
pub use graphbuild::{
    build_graph, circuit_schema, edge_type, edge_type_name, raw_feature_rows, CircuitGraph,
    TerminalClass, EDGE_CLASSES, NUM_EDGE_TYPES,
};
pub use paragraph_exec::{CompileError, Precision};
/// The shared worker pool that [`TargetModel::predict_circuits`] and
/// [`CapEnsemble::predict_circuits`] fan out on, for embedders that
/// spread their own per-circuit work over the same threads.
pub use paragraph_runtime as runtime;
pub use persist::{LoadModelError, SavedModel};
pub use pipeline::{
    evaluate_model, fit_norm, normalize_circuits, precision_default, prepare_circuits,
    set_precision_default, train_models, BaselineKind, BaselineModel, CircuitPredictions,
    EvalPairs, EvalSummary, FitConfig, GnnKind, PredictProfile, PreparedCircuit, TargetModel,
    TrainSpec,
};
pub use targets::{label_node_types, target_labels, Target, TargetLabels};

/// Commonly used items.
pub mod prelude {
    pub use crate::{
        build_graph, evaluate_model, fit_norm, normalize_circuits, train_models, CapEnsemble,
        FitConfig, GnnKind, PreparedCircuit, Target, TargetModel, TrainSpec,
    };
}
