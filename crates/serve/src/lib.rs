//! # paragraph-serve
//!
//! A std-only concurrent inference service for ParaGraph models: load a
//! directory of trained [`paragraph::SavedModel`] snapshots, then answer
//! `predict`/`stats`/`erc` requests over HTTP/1.1 or the JSON-lines
//! protocol on one TCP port, or through the in-process [`Service`] API.
//!
//! The moving parts:
//!
//! * [`ModelRegistry`] — loads, validates and compiles snapshots (a
//!   model that does not compile is a load error), assembles
//!   capacitance-range members into a [`paragraph::CapEnsemble`], and
//!   hot-reloads atomically (in-flight requests keep their snapshot).
//! * [`Service`] — a fixed worker pool (`std::thread` + `std::sync::mpsc`)
//!   behind a bounded queue: backpressure via `overloaded` rejections,
//!   per-request deadlines, and per-request panic isolation.
//! * [`PredictionCache`] — LRU cache keyed by model and a content hash of
//!   the flattened netlist. It stores each result as rendered JSON text,
//!   which a hit splices into its [`Envelope`] byte for byte.
//! * [`Metrics`] — atomic counters, fixed-bucket latency histograms,
//!   rolling p50/p95/p99 latency quantiles, queue-depth gauge, and
//!   cache hit rate, served via the `metrics` op.
//! * [`DriftMonitor`] — compares rolling windows of incoming circuit
//!   features against the training baselines stored in each model
//!   artifact; out-of-distribution traffic degrades the `health` op.
//! * [`Gateway`] — the network front end: N thread-per-core shards,
//!   each with its own [`Service`], speaking HTTP/1.1 keep-alive and
//!   JSON-lines on one port via first-byte protocol sniffing.
//!
//! See `docs/serving.md` in the repository root for the wire protocol.
//!
//! ```
//! use std::sync::Arc;
//! use paragraph_serve::{LoadedModels, ModelRegistry, Service, ServiceConfig};
//!
//! // Empty registry: control-plane ops still work.
//! let registry = Arc::new(ModelRegistry::from_snapshot(LoadedModels::default()));
//! let service = Service::new(registry, ServiceConfig::default());
//! let response = service.handle_line(r#"{"op": "health", "id": 1}"#);
//! assert!(response.contains("\"ok\":true"));
//! ```

#![warn(missing_docs)]

mod cache;
mod drift;
mod gateway;
mod metrics;
mod protocol;
mod registry;
mod service;

pub use cache::{fnv1a, PredictionCache};
pub use drift::{DriftConfig, DriftMonitor};
pub use gateway::{BackoffConfig, Gateway, GatewayConfig, GatewayHandle};
pub use metrics::{Metrics, BATCH_SIZE_BUCKETS, LATENCY_BUCKETS_US, ROLLING_WINDOW};
pub use protocol::{
    error_response, ok_response, Envelope, ErrorCode, Op, PredictEnvelope, Request, ServeError,
};
pub use registry::{
    LoadedModels, ModelRef, ModelRegistry, RegistryError, ReloadReport, ENSEMBLE_KEY,
};
pub use service::{PendingCall, Service, ServiceConfig, Submitted};
