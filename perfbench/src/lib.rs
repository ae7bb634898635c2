//! Seeded end-to-end and per-layer benchmark of the ParaGraph system.
//!
//! Four workloads drive the program through its real entry points —
//! the HTTP gateway, an in-process `Service`, and `Trainer::step` — and
//! check every answer. With tracing off a run reports the end-to-end
//! metrics; a traced run replays the same op stream on one thread and
//! times each call into a layer's public functions from here. See
//! `README.md` in this directory.

pub mod alloc;
pub mod check;
pub mod env;
pub mod fixtures;
pub mod http;
pub mod replay;
pub mod report;
pub mod serving;
pub mod stats;
pub mod stream;
pub mod training;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20_200_720;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct circuits through the gateway to the f32 ensemble.
    EnsembleMiss,
    /// A cached working set through the gateway to the f32 ensemble.
    EnsembleHit,
    /// Bursts of 8 small circuits to an in-process int8 service.
    Int8Burst8,
    /// `Trainer::step` on a paper-dims ParaGraph CAP model.
    TrainStep,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::EnsembleMiss,
        Workload::EnsembleHit,
        Workload::Int8Burst8,
        Workload::TrainStep,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EnsembleMiss => "ensemble_miss",
            Workload::EnsembleHit => "ensemble_hit",
            Workload::Int8Burst8 => "int8_burst8",
            Workload::TrainStep => "train_step",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Nominal ops per second on a 2-thread x86-64 host: sizes the fixed
    /// op sequence so the timed phase lasts about `--seconds` there. The
    /// op count depends only on `--seconds`, never on measured speed.
    fn nominal_rate(self) -> f64 {
        match self {
            Workload::EnsembleMiss => 110.0,
            Workload::EnsembleHit => 300.0,
            Workload::Int8Burst8 => 600.0,
            Workload::TrainStep => 25.0,
        }
    }
}

/// How much work one run does.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Ops in the timed phase.
    pub ops: usize,
    /// Untimed ops before it.
    pub warmup: usize,
    /// Cold starts timed for `setup_s` (median reported): half of them
    /// before the timed phase and half after it, so they sample the
    /// host at two different times.
    pub setup_reps: usize,
    /// Ops whose answers are checked against an in-process reference
    /// (every op is checked for `ok`; hits are all checked bytewise).
    pub check_sample: usize,
    /// Ops the traced replay times.
    pub replay_ops: usize,
    /// Equal-op segments the timed phase is split into. Throughput is
    /// the upper quartile of the segments' rates and latency the lower
    /// quartile of their percentiles: other tenants of a shared host
    /// slow it for seconds at a time, and these quartiles move only when
    /// contention covers more than three quarters of the phase, or a
    /// quiet spell more than a quarter. Every workload lays its op
    /// stream out so that each segment carries the same mix of circuits.
    pub segments: usize,
}

impl Plan {
    /// The plan of a `--seconds` run.
    pub fn for_seconds(workload: Workload, seconds: u64) -> Self {
        let ops = (seconds as f64 * workload.nominal_rate()).round().max(8.0) as usize;
        Self {
            ops,
            warmup: 16,
            setup_reps: 10,
            check_sample: 48,
            replay_ops: match workload {
                Workload::EnsembleMiss => 48,
                Workload::EnsembleHit => 192,
                Workload::Int8Burst8 => 256,
                Workload::TrainStep => 36,
            },
            segments: 16,
        }
    }

    /// The timed op count rounded up to whole segments of whole `unit`s
    /// (a burst, a pass over a working set, an epoch).
    pub fn ops_in(&self, unit: usize) -> usize {
        let chunk = unit.max(1) * self.segments.max(1);
        self.ops.div_ceil(chunk).max(1) * chunk
    }

    /// A few ops of everything, for tests.
    pub fn smoke() -> Self {
        Self {
            ops: 16,
            warmup: 2,
            setup_reps: 2,
            check_sample: 4,
            replay_ops: 8,
            segments: 2,
        }
    }
}

/// One run's inputs.
#[derive(Debug, Clone)]
pub struct RunCtx {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the request streams and the training split.
    pub seed: u64,
    /// Amount of work.
    pub plan: Plan,
    /// Run the traced per-layer replay after the end-to-end phase.
    pub trace: bool,
    /// Scratch directory for model artifacts (removed by the caller).
    pub work: PathBuf,
}

/// The timed phase of a run.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// Ops sent.
    pub ops: usize,
    /// Ops that failed: transport errors, non-ok or wrong answers.
    pub failed: usize,
    /// Per-op latency, ms, in order of completion.
    pub latencies_ms: Vec<f64>,
    /// Per-op completion time from the phase start, s, ascending.
    pub done_s: Vec<f64>,
    /// Wall time of the whole phase, s.
    pub wall_s: f64,
    /// Heap allocations during the phase (whole process).
    pub allocs: u64,
}

impl Timed {
    /// A phase of `ops` ops from `(completion s, latency ms)` pairs in
    /// any order.
    pub fn from_ops(mut done: Vec<(f64, f64)>, wall_s: f64, allocs: u64) -> Self {
        done.sort_by(|a, b| a.0.total_cmp(&b.0));
        Self {
            ops: done.len(),
            failed: 0,
            latencies_ms: done.iter().map(|d| d.1).collect(),
            done_s: done.iter().map(|d| d.0).collect(),
            wall_s,
            allocs,
        }
    }
}

/// Workload shape per op, for the sanity record.
#[derive(Debug, Clone, Default)]
pub struct Shape {
    /// Mean devices per op (0 for training steps).
    pub devices: f64,
    /// Mean graph nodes per op.
    pub nodes: f64,
    /// Mean graph edges per op.
    pub edges: f64,
    /// Mean non-empty edge types per op.
    pub edge_types: f64,
    /// Edge types that carried an edge in any op.
    pub exercised: Vec<usize>,
}

impl Shape {
    /// Folds in one op's graph `weight` times.
    pub fn add(&mut self, devices: usize, graph: &paragraph_gnn::HeteroGraph, weight: f64) {
        let used: Vec<usize> = (0..graph.num_edge_types())
            .filter(|&t| !graph.edges(t).is_empty())
            .collect();
        self.devices += devices as f64 * weight;
        self.nodes += graph.num_nodes() as f64 * weight;
        self.edges += graph.num_edges() as f64 * weight;
        self.edge_types += used.len() as f64 * weight;
        for t in used {
            if !self.exercised.contains(&t) {
                self.exercised.push(t);
            }
        }
    }

    /// Divides the sums by the op count.
    pub fn per_op(mut self, ops: usize) -> Self {
        let n = ops.max(1) as f64;
        self.devices /= n;
        self.nodes /= n;
        self.edges /= n;
        self.edge_types /= n;
        self.exercised.sort_unstable();
        self
    }
}

/// Service-side counters over the timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    /// Cache hits ÷ lookups.
    pub cache_hit_ratio: f64,
    /// Jobs ÷ batches formed (0 when no forward pass ran).
    pub batch_size_mean: f64,
}

/// Everything one run produced.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// The timed phase.
    pub timed: Timed,
    /// Each cold start's duration, s.
    pub setup_s: Vec<f64>,
    /// Per-op workload shape.
    pub shape: Shape,
    /// Fingerprint and size of the model artifacts served.
    pub artifacts: Option<(u64, usize)>,
    /// Answers compared with an in-process reference.
    pub checked: usize,
    /// Failed checks, described.
    pub problems: Vec<String>,
    /// Service counters over the timed phase (serving workloads).
    pub service: Option<ServiceStats>,
    /// Per-layer metrics of the traced replay.
    pub layers: BTreeMap<&'static str, f64>,
}

/// Starts `reps` servers (or training sets) one after another with
/// `start`, dropping each before the next starts; returns how long each
/// start took, s.
///
/// # Errors
///
/// The first failed start.
pub fn cold_starts<T>(
    reps: usize,
    mut start: impl FnMut() -> Result<T, String>,
) -> Result<Vec<f64>, String> {
    (0..reps)
        .map(|_| {
            let began = Instant::now();
            let started = start()?;
            let secs = began.elapsed().as_secs_f64();
            drop(started);
            Ok(secs)
        })
        .collect()
}

/// Runs one workload.
///
/// # Errors
///
/// When the benchmark cannot set up (fixtures, server start); failed or
/// wrong answers are reported in the [`Run`] instead.
pub fn run(ctx: &RunCtx) -> Result<Run, String> {
    match ctx.workload {
        Workload::EnsembleMiss | Workload::EnsembleHit => serving::gateway_workload(ctx),
        Workload::Int8Burst8 => serving::int8_burst8(ctx),
        Workload::TrainStep => training::train_step(ctx),
    }
}
