//! Heterogeneous graph neural networks for the ParaGraph reproduction.
//!
//! Implements all five models the paper compares (Table III + Algorithm 1)
//! over [`HeteroGraph`]s, using the [`paragraph_tensor`] autograd engine:
//!
//! * [`GnnKind::Gcn`] — symmetric-normalised graph convolution;
//! * [`GnnKind::GraphSage`] — mean aggregation + concat skip + L2 norm;
//! * [`GnnKind::Rgcn`] — per-relation weights and self loop;
//! * [`GnnKind::Gat`] — additive attention;
//! * [`GnnKind::ParaGraph`] — the paper's model: per-edge-type attention,
//!   summed over types, concatenated with the previous embedding.
//!
//! # Examples
//!
//! ```
//! use paragraph_gnn::{GnnKind, GnnModel, GraphSchema, HeteroGraph, ModelConfig};
//! use paragraph_tensor::Tensor;
//!
//! let schema = GraphSchema { node_feat_dims: vec![1], num_edge_types: 1 };
//! let mut g = HeteroGraph::new(&schema, vec![0, 0]);
//! g.set_features(0, Tensor::from_col(&[1.0, 2.0]));
//! g.set_edges(0, vec![0, 1], vec![1, 0]);
//!
//! let mut cfg = ModelConfig::new(GnnKind::ParaGraph);
//! cfg.embed_dim = 8;
//! cfg.layers = 2;
//! let model = GnnModel::new(cfg, &schema);
//! let emb = model.embeddings(&g);
//! assert_eq!(emb.shape(), (2, 8));
//! ```

#![warn(missing_docs)]

mod batch;
mod graph;
mod model;
mod plan;
pub mod reference;
mod sample;
mod train;

pub use batch::{batch_tasks, GraphBatch};
pub use graph::{EdgeList, GraphSchema, HeteroGraph};
pub use model::{GnnKind, GnnModel, LayerSpec, ModelConfig};
pub use plan::{EdgeView, GraphPlan};
pub use sample::{sample_subgraph, SampleConfig, Subsample};
pub use train::{evaluate, EpochStats, GraphTask, TrainConfig, Trainer};
