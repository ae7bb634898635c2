//! Tape-free compiled inference executor with preallocated arenas.
//!
//! Training needs the autograd [`paragraph_tensor::Tape`]; serving does
//! not. This crate compiles a trained [`GnnModel`] into a
//! [`CompiledModel`]: a validated snapshot of the model's parameter
//! tensors plus a fixed per-[`GnnKind`] op sequence
//! (embed → fused message passing → FC readout) executed directly over
//! raw `f32` buffers — no tape nodes, no per-op `Tensor` intermediates.
//!
//! At [`Precision::F32`] (the default) all numerical work dispatches
//! into [`paragraph_tensor::kernels`], the *same* into-buffer kernels
//! the tape forwards call (including the AVX2 dense paths), so executor
//! predictions are **bitwise identical** to `GnnModel::predict` for
//! every kind — the parity suite in `tests/parity.rs` pins this, and
//! `docs/performance.md` documents the contract.
//!
//! [`CompiledModel::compile_with`] additionally offers
//! [`Precision::Int8`], which trades that bitwise contract for
//! throughput (accuracy is then pinned by tolerance instead — see the
//! golden-metrics suite): weights prepacked per-output-channel into
//! interleaved int8 row pairs, activations quantized per call against a
//! [`Calibration`] range (or a dynamic max-abs fallback), products
//! accumulated exactly in `i32` through the 16-lane AVX2 `madd` GEMM.
//!
//! Buffers live in an [`Arena`]: a set of grow-only scratch vectors sized
//! on first use for a (model, graph-shape) pair and reused verbatim on
//! subsequent requests — zero steady-state heap allocation (asserted by
//! the counting-allocator test in `tests/arena_reuse.rs`). A
//! [`CompiledModel`] owns an arena pool, so concurrent serve workers can
//! call [`CompiledModel::predict`] on a shared handle and each request
//! checks out its own arena.
//!
//! [`GraphBatch`] block-diagonal inputs need no special casing — a
//! batch's merged graph *is* a [`HeteroGraph`] — and
//! [`CompiledModel::predict_batch`] wraps the batching end-to-end.

#![warn(missing_docs)]

use std::fmt;
use std::sync::Mutex;

use paragraph_gnn::{GnnKind, GnnModel, GraphBatch, HeteroGraph};
use paragraph_tensor::{kernels, quant, QuantMatrix, Tensor};

/// Numeric representation of a compiled model's weights.
///
/// `F32` keeps the tape path's bitwise-parity contract; `Int8`
/// relaxes it to a tolerance-based accuracy contract in exchange for
/// throughput (see `docs/performance.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Full f32 weights — bitwise identical to the tape path.
    #[default]
    F32,
    /// Symmetric int8 weights (per-output-channel scales) with exact
    /// i32 accumulation and baseline-calibrated activation ranges.
    Int8,
}

impl Precision {
    /// Every tier, in declaration order: `Precision::ALL[p as usize]`
    /// is `p`, so per-tier tables index by the discriminant.
    pub const ALL: [Self; 2] = [Self::F32, Self::Int8];

    /// Flag-style name (`f32`, `int8`).
    pub fn name(self) -> &'static str {
        match self {
            Self::F32 => "f32",
            Self::Int8 => "int8",
        }
    }

    /// Parses the `--precision` flag / `PARAGRAPH_PRECISION` env
    /// values: a [`Precision::name`], trimmed and case-insensitive.
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        Self::ALL
            .into_iter()
            .find(|p| p.name().eq_ignore_ascii_case(s))
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a model could not be compiled for tape-free execution.
///
/// Compilation validates every shape the executor will rely on, so a
/// `CompiledModel` can run without per-request checks; anything
/// inconsistent is reported here instead. The variants are structured
/// so the serving layer can say *why* it refused to load a model.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// A model-level configuration inconsistency (dimensions, head
    /// widths, calibration table size).
    InvalidConfig {
        /// The aggregation scheme of the offending model.
        kind: GnnKind,
        /// What was inconsistent.
        detail: String,
    },
    /// A message-passing layer parameter had an unsupported shape.
    UnsupportedShape {
        /// The aggregation scheme of the offending model.
        kind: GnnKind,
        /// Zero-based index of the offending layer.
        layer: usize,
        /// Which shape was wrong, and how.
        detail: String,
    },
    /// A required layer parameter was absent.
    MissingParam {
        /// The aggregation scheme of the offending model.
        kind: GnnKind,
        /// Zero-based index of the offending layer.
        layer: usize,
        /// Name of the missing parameter.
        param: &'static str,
    },
    /// The requested reduced precision cannot be applied to this model
    /// (e.g. non-finite weights cannot be quantized).
    UnsupportedPrecision {
        /// The aggregation scheme of the offending model.
        kind: GnnKind,
        /// The precision that was requested.
        precision: Precision,
        /// Why the weights cannot be packed.
        detail: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidConfig { kind, detail } => {
                write!(f, "executor compile error: {} model: {detail}", kind.name())
            }
            Self::UnsupportedShape {
                kind,
                layer,
                detail,
            } => write!(
                f,
                "executor compile error: {} model, layer {layer}: {detail}",
                kind.name()
            ),
            Self::MissingParam { kind, layer, param } => write!(
                f,
                "executor compile error: {} model, layer {layer}: missing parameter {param}",
                kind.name()
            ),
            Self::UnsupportedPrecision {
                kind,
                precision,
                detail,
            } => write!(
                f,
                "executor compile error: {} model: cannot pack weights as {precision}: {detail}",
                kind.name()
            ),
        }
    }
}

impl std::error::Error for CompileError {}

/// Per-activation-site maximum-magnitude table driving int8 activation
/// scales.
///
/// Sites are laid out `[feat(T) | h(L) | agg(L) | cat(L) | g(H)]` for a
/// model with `T` node types, `L` message-passing layers and `H` head
/// stages — one entry per distinct matmul *input* in the fixed op
/// sequence. Produced by [`CompiledModel::calibrate`] over
/// representative graphs (the core pipeline synthesises them from the
/// artifact's `BaselineStats`) and cached in the saved artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    sites: Vec<f32>,
}

impl Calibration {
    /// Wraps a previously captured site table (e.g. from an artifact).
    pub fn from_sites(sites: Vec<f32>) -> Self {
        Self { sites }
    }

    /// The per-site maximum magnitudes, in the documented layout.
    pub fn sites(&self) -> &[f32] {
        &self.sites
    }
}

/// One message-passing layer's owned parameter snapshot.
#[derive(Debug, Clone)]
struct CompiledLayer {
    w_type: Vec<Packed>,
    a_type: Vec<Tensor>,
    w: Option<Packed>,
    w_self: Option<Packed>,
    b: Tensor,
}

/// A weight matrix in the compiled model's chosen representation.
#[derive(Debug, Clone)]
enum Packed {
    F32(Tensor),
    Int8(QuantMatrix),
}

impl Packed {
    /// Packs `t` for `precision`, verifying the values are finite when
    /// a reduced representation is requested.
    fn pack(
        t: &Tensor,
        precision: Precision,
        kind: GnnKind,
        what: &str,
    ) -> Result<Self, CompileError> {
        if precision != Precision::F32 && !t.as_slice().iter().all(|v| v.is_finite()) {
            return Err(CompileError::UnsupportedPrecision {
                kind,
                precision,
                detail: format!("{what} contains non-finite values"),
            });
        }
        Ok(match precision {
            Precision::F32 => Self::F32(t.clone()),
            Precision::Int8 => Self::Int8(QuantMatrix::quantize(t.as_slice(), t.rows(), t.cols())),
        })
    }
}

/// Preallocated scratch buffers for one in-flight request.
///
/// Every vector is grow-only: the first request over a given
/// (model, graph-shape) pair sizes it, later requests reuse the storage
/// untouched. Zeroing a reused buffer with `fill(0.0)` is bit-identical
/// to the fresh `Tensor::zeros` the tape path starts from.
#[derive(Debug, Default)]
pub struct Arena {
    h: Vec<f32>,
    h2: Vec<f32>,
    agg: Vec<f32>,
    ht: Vec<f32>,
    cat: Vec<f32>,
    sum: Vec<f32>,
    t1: Vec<f32>,
    t2: Vec<f32>,
    g1: Vec<f32>,
    g2: Vec<f32>,
    attn: AttendScratch,
    /// Quantized-activation scratch for the int8 GEMM path.
    qa: kernels::Q8Prepared,
}

/// Per-head buffers of [`CompiledModel::attention_head`].
#[derive(Debug, Default)]
struct AttendScratch {
    z: Vec<f32>,
    zd: Vec<f32>,
    zs: Vec<f32>,
    raw: Vec<f32>,
    alpha: Vec<f32>,
    /// The head's output rows.
    hh: Vec<f32>,
}

impl AttendScratch {
    /// Grows the row-sized buffers for heads of up to `rows` rows of
    /// width `fh` (the edge-sized ones grow with each plan).
    fn reserve(&mut self, rows: usize, fh: usize) {
        ensure(&mut self.z, rows * fh);
        ensure(&mut self.hh, rows * fh);
        ensure(&mut self.zd, rows);
        ensure(&mut self.zs, rows);
    }
}

/// Grows `v` to at least `len` and returns the exact-length slice.
fn ensure(v: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if v.len() < len {
        v.resize(len, 0.0);
    }
    &mut v[..len]
}

/// Raises calibration site `site` to the max-abs of `a` when
/// calibrating.
fn record(calib: Option<&mut [f32]>, site: usize, a: &[f32]) {
    if let Some(sites) = calib {
        sites[site] = sites[site].max(quant::max_abs(a));
    }
}

/// Dense product `out = a @ w` (`m x k` by `k x n`) in `w`'s
/// representation. `scale` is the int8 activation scale (unused
/// otherwise). `prepared` asserts that `qa` already holds `a` quantized
/// at `scale` — sibling heads projecting the same rows share one
/// preparation. Every arm computes each output row from its input row
/// alone, so projecting a subset of rows yields exactly those rows of
/// the full product.
#[allow(clippy::too_many_arguments)]
fn project(
    w: &Packed,
    a: &[f32],
    scale: f32,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    qa: &mut kernels::Q8Prepared,
    prepared: bool,
) {
    match w {
        Packed::F32(t) => kernels::matmul(a, t.as_slice(), out, m, k, n),
        Packed::Int8(q) => {
            if !prepared {
                qa.prepare(a, scale, m, k);
            }
            debug_assert_eq!((qa.rows(), qa.inner()), (m, k), "stale int8 preparation");
            kernels::matmul_q8_prepared(qa, scale, q, out, n);
        }
    }
}

/// Most arenas [`ArenaPool::checkin`] will retain for reuse; arenas
/// returned beyond this high-water count are dropped so a one-off
/// concurrency burst does not pin its peak scratch memory forever.
pub const MAX_POOLED_ARENAS: usize = 32;

/// A checkout/checkin pool of [`Arena`]s.
///
/// Shared by all clones of a serve worker's model handle: each
/// concurrent request pops an arena (or starts a fresh one on first
/// use), runs, and pushes it back. In steady state the pool holds as
/// many warmed arenas as the peak concurrency (bounded by
/// [`MAX_POOLED_ARENAS`]), and checkout/checkin is a mutex-guarded
/// pointer move — no allocation.
#[derive(Debug, Default)]
pub struct ArenaPool {
    arenas: Mutex<Vec<Arena>>,
}

impl ArenaPool {
    /// Takes a (possibly warmed) arena out of the pool.
    pub fn checkout(&self) -> Arena {
        self.arenas.lock().unwrap().pop().unwrap_or_default()
    }

    /// Returns an arena for reuse by later requests. Arenas beyond
    /// [`MAX_POOLED_ARENAS`] are dropped instead of retained.
    pub fn checkin(&self, arena: Arena) {
        let mut arenas = self.arenas.lock().unwrap();
        if arenas.len() < MAX_POOLED_ARENAS {
            arenas.push(arena);
        }
    }

    /// Number of arenas currently retained for reuse.
    pub fn pooled(&self) -> usize {
        self.arenas.lock().unwrap().len()
    }
}

/// Preallocated batch-assembly scratch for one in-flight batched
/// request: the block-diagonal [`GraphBatch`] (rebuilt in place per
/// call) and the merged global-node-id gather buffer. Like [`Arena`],
/// every buffer is grow-only and reused verbatim across batches.
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// Reused union graph; `None` until the first batch warms it.
    batch: Option<GraphBatch>,
    /// Query nodes remapped to union-global ids, in member order.
    merged: Vec<u32>,
}

/// A checkout/checkin pool of [`BatchScratch`], mirroring [`ArenaPool`]
/// (same [`MAX_POOLED_ARENAS`] retention cap): concurrent batched
/// requests on a shared model handle each check out their own
/// assembly scratch, so batches never contend on buffers.
#[derive(Debug, Default)]
struct BatchPool {
    slots: Mutex<Vec<BatchScratch>>,
}

impl BatchPool {
    fn checkout(&self) -> BatchScratch {
        self.slots.lock().unwrap().pop().unwrap_or_default()
    }

    fn checkin(&self, scratch: BatchScratch) {
        let mut slots = self.slots.lock().unwrap();
        if slots.len() < MAX_POOLED_ARENAS {
            slots.push(scratch);
        }
    }
}

/// A trained model compiled for tape-free inference.
///
/// Built once with [`CompiledModel::compile`] (f32) or
/// [`CompiledModel::compile_with`] (choosing a [`Precision`]); cheap to
/// share behind an `Arc`. The parameter tensors are snapshotted
/// (cloned, and packed for the chosen precision) at compile time, so a
/// `CompiledModel` stays self-consistent even if the source model is
/// later mutated by training.
#[derive(Debug)]
pub struct CompiledModel {
    kind: GnnKind,
    f: usize,
    heads: usize,
    slope: f32,
    ablate_attention: bool,
    ablate_edge_types: bool,
    ablate_concat: bool,
    num_edge_types: usize,
    precision: Precision,
    calibration: Option<Vec<f32>>,
    in_proj: Vec<Packed>,
    layers: Vec<CompiledLayer>,
    head: Vec<(Tensor, Tensor)>,
    pool: ArenaPool,
    batch_pool: BatchPool,
}

impl CompiledModel {
    /// Validates and snapshots `model` into an f32 execution plan —
    /// bitwise identical to the tape path.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] naming the first inconsistent shape or
    /// missing parameter.
    pub fn compile(model: &GnnModel) -> Result<Self, CompileError> {
        Self::compile_with(model, Precision::F32, None)
    }

    /// Validates and snapshots `model`, packing weights for
    /// `precision`. For [`Precision::Int8`], `calibration` supplies the
    /// activation ranges (sites the table does not cover — and the
    /// no-table case — fall back to per-call dynamic max-abs scales).
    /// The FC head stays f32 at every precision: its matrices are tiny,
    /// and the regression output is most error-sensitive there.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] naming the first inconsistent shape,
    /// missing parameter, or unpackable weight.
    pub fn compile_with(
        model: &GnnModel,
        precision: Precision,
        calibration: Option<&Calibration>,
    ) -> Result<Self, CompileError> {
        let cfg = model.config();
        let kind = cfg.kind;
        let f = cfg.embed_dim;
        let heads = cfg.attention_heads.max(1);
        let invalid = |detail: String| CompileError::InvalidConfig { kind, detail };
        if f == 0 {
            return Err(invalid("embed_dim must be positive".into()));
        }
        if !f.is_multiple_of(heads) {
            return Err(invalid(format!(
                "attention heads ({heads}) must divide embed_dim ({f})"
            )));
        }
        let fh = f / heads;
        let ne = model.num_edge_types();

        let mut in_proj = Vec::new();
        for (t, w) in model.input_projections().into_iter().enumerate() {
            if w.cols() != f {
                return Err(invalid(format!(
                    "in_proj.{t} projects to {} columns, expected {f}",
                    w.cols()
                )));
            }
            in_proj.push(Packed::pack(w, precision, kind, "input projection")?);
        }

        let mut layers = Vec::with_capacity(model.layer_specs().len());
        for (l, spec) in model.layer_specs().iter().enumerate() {
            let check = |cond: bool, msg: &str| -> Result<(), CompileError> {
                if cond {
                    Ok(())
                } else {
                    Err(CompileError::UnsupportedShape {
                        kind,
                        layer: l,
                        detail: msg.to_string(),
                    })
                }
            };
            let missing = |param: &'static str| CompileError::MissingParam {
                kind,
                layer: l,
                param,
            };
            check(spec.b.shape() == (1, f), "bias must be 1 x F")?;
            match cfg.kind {
                GnnKind::Gcn => {
                    let w = spec.w.ok_or_else(|| missing("w"))?;
                    check(w.shape() == (f, f), "GCN weight must be F x F")?;
                }
                GnnKind::GraphSage => {
                    let w = spec.w.ok_or_else(|| missing("w"))?;
                    check(w.shape() == (2 * f, f), "GraphSage weight must be 2F x F")?;
                }
                GnnKind::Rgcn => {
                    let ws = spec.w_self.ok_or_else(|| missing("w_self"))?;
                    check(ws.shape() == (f, f), "RGCN self weight must be F x F")?;
                    check(
                        spec.w_type.len() == ne,
                        "RGCN needs one weight per edge type",
                    )?;
                    for w in &spec.w_type {
                        check(w.shape() == (f, f), "RGCN relation weight must be F x F")?;
                    }
                }
                GnnKind::Gat => {
                    check(spec.w_type.len() == heads, "GAT needs one weight per head")?;
                    check(
                        spec.a_type.len() == heads,
                        "GAT needs one attention vector per head",
                    )?;
                    for w in &spec.w_type {
                        check(w.shape() == (f, fh), "GAT head weight must be F x F/heads")?;
                    }
                    for a in &spec.a_type {
                        check(
                            a.shape() == (2 * fh, 1),
                            "GAT attention vector must be 2F/heads x 1",
                        )?;
                    }
                }
                GnnKind::ParaGraph => {
                    let groups = if cfg.ablate_edge_types { 1 } else { ne };
                    check(
                        spec.w_type.len() == groups * heads,
                        "ParaGraph needs one weight per (edge type, head)",
                    )?;
                    if !cfg.ablate_attention {
                        check(
                            spec.a_type.len() == groups * heads,
                            "ParaGraph needs one attention vector per (edge type, head)",
                        )?;
                        for a in &spec.a_type {
                            check(
                                a.shape() == (2 * fh, 1),
                                "ParaGraph attention vector must be 2F/heads x 1",
                            )?;
                        }
                    }
                    for w in &spec.w_type {
                        check(
                            w.shape() == (f, fh),
                            "ParaGraph type weight must be F x F/heads",
                        )?;
                    }
                    let w_in = if cfg.ablate_concat { f } else { 2 * f };
                    let w = spec.w.ok_or_else(|| missing("w"))?;
                    check(
                        w.shape() == (w_in, f),
                        "ParaGraph concat weight has the wrong shape",
                    )?;
                }
            }
            let pack = |t: &Tensor, what: &str| Packed::pack(t, precision, kind, what);
            layers.push(CompiledLayer {
                w_type: spec
                    .w_type
                    .iter()
                    .map(|&t| pack(t, "layer weight"))
                    .collect::<Result<_, _>>()?,
                a_type: spec.a_type.iter().map(|&t| t.clone()).collect(),
                w: spec.w.map(|t| pack(t, "layer weight")).transpose()?,
                w_self: spec.w_self.map(|t| pack(t, "self weight")).transpose()?,
                b: spec.b.clone(),
            });
        }

        let head_specs = model.head_specs();
        let mut width = f;
        for (k, (w, b)) in head_specs.iter().enumerate() {
            if w.rows() != width {
                return Err(invalid(format!(
                    "head stage {k}: weight expects {} inputs, previous layer yields {width}",
                    w.rows()
                )));
            }
            if b.shape() != (1, w.cols()) {
                return Err(invalid(format!(
                    "head stage {k}: bias must be 1 x {}",
                    w.cols()
                )));
            }
            width = w.cols();
        }
        if width == 0 {
            return Err(invalid("head output width must be positive".into()));
        }
        let head: Vec<(Tensor, Tensor)> = head_specs
            .into_iter()
            .map(|(w, b)| (w.clone(), b.clone()))
            .collect();

        let num_sites = in_proj.len() + 3 * layers.len() + head.len();
        let calibration = match calibration {
            None => None,
            Some(c) => {
                if c.sites().len() != num_sites {
                    return Err(invalid(format!(
                        "calibration table has {} sites, model needs {num_sites}",
                        c.sites().len()
                    )));
                }
                Some(c.sites().to_vec())
            }
        };

        Ok(Self {
            kind: cfg.kind,
            f,
            heads,
            slope: cfg.leaky_slope,
            ablate_attention: cfg.ablate_attention,
            ablate_edge_types: cfg.ablate_edge_types,
            ablate_concat: cfg.ablate_concat,
            num_edge_types: ne,
            precision,
            calibration,
            in_proj,
            layers,
            head,
            pool: ArenaPool::default(),
            batch_pool: BatchPool::default(),
        })
    }

    /// Embedding width `F`.
    pub fn embed_dim(&self) -> usize {
        self.f
    }

    /// The aggregation scheme this model was compiled from.
    pub fn kind(&self) -> GnnKind {
        self.kind
    }

    /// The numeric representation this model was compiled at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Length of this model's calibration site table
    /// (`T + 3L + H` — see [`Calibration`]).
    pub fn calibration_sites(&self) -> usize {
        self.in_proj.len() + 3 * self.layers.len() + self.head.len()
    }

    /// The arena pool backing this model's predict paths.
    pub fn pool(&self) -> &ArenaPool {
        &self.pool
    }

    fn site_feat(&self, t: usize) -> usize {
        t
    }

    fn site_h(&self, l: usize) -> usize {
        self.in_proj.len() + l
    }

    fn site_agg(&self, l: usize) -> usize {
        self.in_proj.len() + self.layers.len() + l
    }

    fn site_cat(&self, l: usize) -> usize {
        self.in_proj.len() + 2 * self.layers.len() + l
    }

    fn site_g(&self, s: usize) -> usize {
        self.in_proj.len() + 3 * self.layers.len() + s
    }

    /// Records per-site activation maxima by running the (f32) model
    /// over representative `(graph, query nodes)` samples.
    ///
    /// # Panics
    ///
    /// Panics if this model was not compiled at [`Precision::F32`] —
    /// calibration must measure the exact ranges quantization will see.
    pub fn calibrate(&self, samples: &[(&HeteroGraph, Vec<u32>)]) -> Calibration {
        assert_eq!(
            self.precision,
            Precision::F32,
            "calibration runs on an f32-compiled model"
        );
        let mut sites = vec![0.0_f32; self.calibration_sites()];
        let mut out = Vec::new();
        for (graph, nodes) in samples {
            let mut arena = self.pool.checkout();
            self.run(graph, nodes, &mut arena, &mut out, Some(&mut sites));
            self.pool.checkin(arena);
        }
        Calibration::from_sites(sites)
    }

    /// Predicts a scalar per node in `nodes` (global ids), exactly like
    /// `GnnModel::predict` — bit for bit at [`Precision::F32`], within
    /// the documented tolerance at reduced precision — without building
    /// a tape. For uncertainty-headed models this is the mean column.
    pub fn predict(&self, graph: &HeteroGraph, nodes: &[u32]) -> Vec<f32> {
        let mut out = Vec::new();
        self.predict_into(graph, nodes, &mut out);
        out
    }

    /// Like [`CompiledModel::predict`], writing into a caller-owned
    /// vector (cleared first). With a warmed arena pool, a pre-built
    /// graph plan, and `out` at capacity, a call performs **zero** heap
    /// allocations.
    pub fn predict_into(&self, graph: &HeteroGraph, nodes: &[u32], out: &mut Vec<f32>) {
        let _span = paragraph_obs::span!("executor_forward", nodes = nodes.len());
        let mut arena = self.pool.checkout();
        self.run(graph, nodes, &mut arena, out, None);
        self.pool.checkin(arena);
    }

    /// Batched prediction over independent graphs: block-diagonal merge
    /// via [`GraphBatch`], one executor pass, then per-graph splits.
    /// `nodes[i]` holds graph-local node ids for `graphs[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `graphs` is empty, the schemas differ, or
    /// `nodes.len() != graphs.len()`.
    pub fn predict_batch(&self, graphs: &[&HeteroGraph], nodes: &[Vec<u32>]) -> Vec<Vec<f32>> {
        let mut flat = Vec::new();
        self.predict_batch_into(graphs, nodes, &mut flat);
        let mut split = Vec::with_capacity(graphs.len());
        let mut at = 0;
        for local in nodes {
            split.push(flat[at..at + local.len()].to_vec());
            at += local.len();
        }
        split
    }

    /// Like [`CompiledModel::predict_batch`], writing the concatenated
    /// per-graph scores (member order, `nodes[i].len()` scores each)
    /// into a caller-owned vector (cleared first).
    ///
    /// The block-diagonal merge reuses pooled [`BatchScratch`] buffers
    /// — the union graph, its compiled plan, and the node-id gather are
    /// all rebuilt in place — so with a warmed pool a batched call
    /// performs **zero** heap allocations at any precision, same as the
    /// single-graph [`CompiledModel::predict_into`] path.
    ///
    /// # Panics
    ///
    /// Panics if `graphs` is empty, the schemas differ, or
    /// `nodes.len() != graphs.len()`.
    pub fn predict_batch_into(
        &self,
        graphs: &[&HeteroGraph],
        nodes: &[Vec<u32>],
        out: &mut Vec<f32>,
    ) {
        assert_eq!(graphs.len(), nodes.len(), "one node list per graph");
        let _span = paragraph_obs::span!("executor_forward", graphs = graphs.len());
        let mut scratch = self.batch_pool.checkout();
        match &mut scratch.batch {
            Some(b) => b.assemble(graphs),
            None => scratch.batch = Some(GraphBatch::new(graphs)),
        }
        let BatchScratch { batch, merged } = &mut scratch;
        let batch = batch.as_ref().expect("assembled above");
        merged.clear();
        for (g, local) in nodes.iter().enumerate() {
            merged.extend(local.iter().map(|&v| batch.global_node(g, v)));
        }
        let mut arena = self.pool.checkout();
        self.run(batch.graph(), merged, &mut arena, out, None);
        self.pool.checkin(arena);
        self.batch_pool.checkin(scratch);
    }

    /// Activation scale for an int8 matmul input: calibrated site
    /// maximum when available (and non-zero — a site the calibration
    /// graphs never exercised falls back to the live buffer), dynamic
    /// max-abs otherwise. Zero, and nothing scanned, unless this model
    /// runs at [`Precision::Int8`].
    fn act_scale(&self, site: usize, a: &[f32]) -> f32 {
        if self.precision != Precision::Int8 {
            return 0.0;
        }
        let calibrated = self.calibration.as_ref().map(|c| c[site]).unwrap_or(0.0);
        let max = if calibrated > 0.0 {
            calibrated
        } else {
            quant::max_abs(a)
        };
        max / 127.0
    }

    /// Precision-dispatched dense product `out = a @ w`, recording the
    /// input's magnitude into `calib` when calibrating. The f32 arm is
    /// exactly [`kernels::matmul`] — the bitwise-parity path.
    #[allow(clippy::too_many_arguments)]
    fn mm(
        &self,
        w: &Packed,
        site: usize,
        a: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        qa: &mut kernels::Q8Prepared,
        calib: Option<&mut [f32]>,
    ) {
        record(calib, site, a);
        project(w, a, self.act_scale(site, a), out, m, k, n, qa, false);
    }

    /// Segment-mean dispatch: the widened-SIMD variant on the
    /// reduced-precision path, the tape-identical kernel at f32.
    fn spmm_mean(&self, h: &[f32], f: usize, tp: &paragraph_tensor::CsrPlan, out: &mut [f32]) {
        if self.precision == Precision::F32 {
            kernels::spmm_mean(h, f, tp, out);
        } else {
            kernels::spmm_mean_fast(h, f, tp, out);
        }
    }

    /// The full fixed op sequence: embed → L message-passing layers →
    /// gather → FC head → column-0 extraction. `calib`, when present,
    /// receives per-site max-abs updates (f32 calibration runs only).
    fn run(
        &self,
        graph: &HeteroGraph,
        nodes: &[u32],
        arena: &mut Arena,
        out: &mut Vec<f32>,
        mut calib: Option<&mut [f32]>,
    ) {
        let n = graph.num_nodes();
        let f = self.f;
        let plan = graph.plan();

        // --- input projection (Algorithm 1 lines 1-2) ------------------
        // Node types partition the node set, so scattering each type's
        // projection straight into the zeroed `h` accumulates exactly
        // like the tape's add-chain of per-type scatters.
        let h = ensure(&mut arena.h, n * f);
        h.fill(0.0);
        for t in 0..graph.num_node_types() {
            let idx = graph.nodes_of_type(t as u16);
            if idx.is_empty() {
                continue;
            }
            let x = graph.features(t as u16);
            let w = &self.in_proj[t];
            let proj = ensure(&mut arena.t1, idx.len() * f);
            self.mm(
                w,
                self.site_feat(t),
                x.as_slice(),
                proj,
                idx.len(),
                x.cols(),
                f,
                &mut arena.qa,
                calib.as_deref_mut(),
            );
            kernels::scatter_add_rows(proj, f, idx, &mut arena.h[..n * f]);
        }

        // --- message-passing layers ------------------------------------
        for (l, layer) in self.layers.iter().enumerate() {
            match self.kind {
                GnnKind::Gcn => {
                    let tp = plan.union();
                    let agg = ensure(&mut arena.agg, n * f);
                    agg.fill(0.0);
                    kernels::spmm_norm(&arena.h[..n * f], f, tp, plan.union_gcn_coeff(), agg);
                    let w = layer.w.as_ref().expect("validated at compile");
                    let h2 = ensure(&mut arena.h2, n * f);
                    self.mm(
                        w,
                        self.site_agg(l),
                        &arena.agg[..n * f],
                        h2,
                        n,
                        f,
                        f,
                        &mut arena.qa,
                        calib.as_deref_mut(),
                    );
                    let h2 = &mut arena.h2[..n * f];
                    kernels::add_bias(h2, layer.b.as_slice());
                    kernels::relu(h2);
                }
                GnnKind::GraphSage => {
                    let tp = plan.union();
                    let agg = ensure(&mut arena.agg, n * f);
                    agg.fill(0.0);
                    self.spmm_mean(&arena.h[..n * f], f, tp, agg);
                    let cat = ensure(&mut arena.cat, n * 2 * f);
                    kernels::concat_cols(&arena.h[..n * f], f, &arena.agg[..n * f], f, cat, n);
                    let w = layer.w.as_ref().expect("validated at compile");
                    let h2 = ensure(&mut arena.h2, n * f);
                    self.mm(
                        w,
                        self.site_cat(l),
                        &arena.cat[..n * 2 * f],
                        h2,
                        n,
                        2 * f,
                        f,
                        &mut arena.qa,
                        calib.as_deref_mut(),
                    );
                    let h2 = &mut arena.h2[..n * f];
                    kernels::add_bias(h2, layer.b.as_slice());
                    kernels::relu(h2);
                    kernels::row_l2_normalize(h2, f);
                }
                GnnKind::Rgcn => {
                    let w_self = layer.w_self.as_ref().expect("validated at compile");
                    let h2 = ensure(&mut arena.h2, n * f);
                    self.mm(
                        w_self,
                        self.site_h(l),
                        &arena.h[..n * f],
                        h2,
                        n,
                        f,
                        f,
                        &mut arena.qa,
                        calib.as_deref_mut(),
                    );
                    // Each relation's mean and product cover only the
                    // rows its edge view touches, as on the tape.
                    for t in 0..self.num_edge_types {
                        let view = plan.view(t);
                        let (rows, tp) = (view.rows(), view.plan());
                        if tp.num_edges() == 0 {
                            continue;
                        }
                        let m = rows.len();
                        let x = ensure(&mut arena.t1, m * f);
                        kernels::gather_rows(&arena.h[..n * f], f, rows, x);
                        let agg = ensure(&mut arena.agg, m * f);
                        agg.fill(0.0);
                        self.spmm_mean(&arena.t1[..m * f], f, tp, agg);
                        let t2 = ensure(&mut arena.t2, m * f);
                        self.mm(
                            &layer.w_type[t],
                            self.site_agg(l),
                            &arena.agg[..m * f],
                            t2,
                            m,
                            f,
                            f,
                            &mut arena.qa,
                            calib.as_deref_mut(),
                        );
                        kernels::scatter_add_rows(
                            &arena.t2[..m * f],
                            f,
                            rows,
                            &mut arena.h2[..n * f],
                        );
                    }
                    let h2 = &mut arena.h2[..n * f];
                    kernels::add_bias(h2, layer.b.as_slice());
                    kernels::relu(h2);
                }
                GnnKind::Gat => {
                    let tp = plan.union();
                    let fh = f / self.heads;
                    let h = &arena.h[..n * f];
                    record(calib.as_deref_mut(), self.site_h(l), h);
                    let scale = self.act_scale(self.site_h(l), h);
                    ensure(&mut arena.h2, n * f);
                    for k in 0..self.heads {
                        self.attention_head(
                            &layer.w_type[k],
                            Some(&layer.a_type[k]),
                            tp,
                            &arena.h[..n * f],
                            fh,
                            scale,
                            &mut arena.attn,
                            &mut arena.qa,
                            false,
                            k > 0,
                        );
                        if self.heads == 1 {
                            // The concat is the identity: the head output
                            // buffer becomes the layer output (pointer
                            // swap, no copy).
                            std::mem::swap(&mut arena.h2, &mut arena.attn.hh);
                        } else {
                            // Concatenate heads: head k owns columns
                            // [k*fh, (k+1)*fh), copied exactly like the
                            // tape's concat_cols.
                            for i in 0..n {
                                arena.h2[i * f + k * fh..i * f + (k + 1) * fh]
                                    .copy_from_slice(&arena.attn.hh[i * fh..(i + 1) * fh]);
                            }
                        }
                    }
                    let h2 = &mut arena.h2[..n * f];
                    kernels::add_bias(h2, layer.b.as_slice());
                    kernels::relu(h2);
                }
                GnnKind::ParaGraph => {
                    let fh = f / self.heads;
                    ensure(&mut arena.agg, n * f).fill(0.0);
                    // A type-t message only moves along type-t edges, so
                    // each group projects and attends just the rows its
                    // edge view touches; any other row would only add
                    // +0.0 into `agg`. The int8 scale and the calibration
                    // maximum still come from the whole `h`, as a
                    // full-row projection reads them.
                    let h = &arena.h[..n * f];
                    record(calib.as_deref_mut(), self.site_h(l), h);
                    let scale = self.act_scale(self.site_h(l), h);
                    // No view has more than n rows: size the view buffers
                    // once rather than regrowing them view by view. A
                    // view's rows of `h` are gathered into `h2`, free
                    // until the layer output overwrites it.
                    ensure(&mut arena.h2, n * f);
                    if self.heads > 1 {
                        ensure(&mut arena.ht, n * f);
                    }
                    arena.attn.reserve(n, fh);
                    // Reduced precision, real attention, one head: the
                    // attend kernel adds straight onto the view's `agg`
                    // rows (gathered into the head output, then copied
                    // back), the add order of that path.
                    let fuse = self.precision != Precision::F32
                        && !self.ablate_attention
                        && self.heads == 1;
                    let groups = if self.ablate_edge_types {
                        1
                    } else {
                        self.num_edge_types
                    };
                    for t in 0..groups {
                        let view = if self.ablate_edge_types {
                            plan.union_view()
                        } else {
                            plan.view(t)
                        };
                        let (rows, tp) = (view.rows(), view.plan());
                        if tp.num_edges() == 0 {
                            continue;
                        }
                        let m = rows.len();
                        kernels::gather_rows(&arena.h[..n * f], f, rows, &mut arena.h2[..m * f]);
                        if fuse {
                            let hh = &mut arena.attn.hh[..m * f];
                            kernels::gather_rows(&arena.agg[..n * f], f, rows, hh);
                        }
                        for k in 0..self.heads {
                            let pi = t * self.heads + k;
                            self.attention_head(
                                &layer.w_type[pi],
                                (!self.ablate_attention).then(|| &layer.a_type[pi]),
                                tp,
                                &arena.h2[..m * f],
                                fh,
                                scale,
                                &mut arena.attn,
                                &mut arena.qa,
                                fuse,
                                k > 0,
                            );
                            if self.heads > 1 {
                                // Head k owns columns [k*fh, (k+1)*fh).
                                for i in 0..m {
                                    arena.ht[i * f + k * fh..i * f + (k + 1) * fh]
                                        .copy_from_slice(&arena.attn.hh[i * fh..(i + 1) * fh]);
                                }
                            }
                        }
                        let msg = if self.heads == 1 {
                            &arena.attn.hh[..m * f]
                        } else {
                            &arena.ht[..m * f]
                        };
                        let agg = &mut arena.agg[..n * f];
                        if fuse {
                            for (i, &r) in rows.iter().enumerate() {
                                let r = r as usize;
                                agg[r * f..(r + 1) * f].copy_from_slice(&msg[i * f..(i + 1) * f]);
                            }
                        } else {
                            // Algorithm 1 line 9: sum over edge types.
                            kernels::scatter_add_rows(msg, f, rows, agg);
                        }
                    }
                    // Line 10: W (h ‖ agg) + b — or a plain sum under the
                    // concat ablation.
                    let w = layer.w.as_ref().expect("validated at compile");
                    let h2 = ensure(&mut arena.h2, n * f);
                    if self.ablate_concat {
                        let sum = ensure(&mut arena.sum, n * f);
                        sum.copy_from_slice(&arena.h[..n * f]);
                        for (o, &v) in sum.iter_mut().zip(arena.agg[..n * f].iter()) {
                            *o += v;
                        }
                        self.mm(
                            w,
                            self.site_cat(l),
                            &arena.sum[..n * f],
                            h2,
                            n,
                            f,
                            f,
                            &mut arena.qa,
                            calib.as_deref_mut(),
                        );
                    } else {
                        let cat = ensure(&mut arena.cat, n * 2 * f);
                        kernels::concat_cols(&arena.h[..n * f], f, &arena.agg[..n * f], f, cat, n);
                        self.mm(
                            w,
                            self.site_cat(l),
                            &arena.cat[..n * 2 * f],
                            h2,
                            n,
                            2 * f,
                            f,
                            &mut arena.qa,
                            calib.as_deref_mut(),
                        );
                    }
                    let h2 = &mut arena.h2[..n * f];
                    kernels::add_bias(h2, layer.b.as_slice());
                    kernels::relu(h2);
                }
            }
            std::mem::swap(&mut arena.h, &mut arena.h2);
        }

        // --- readout: gather + FC head ---------------------------------
        let m = nodes.len();
        let mut width = f;
        let g1 = ensure(&mut arena.g1, m * width);
        kernels::gather_rows(&arena.h[..n * f], f, nodes, g1);
        for (s, (w, b)) in self.head.iter().enumerate() {
            let next = b.cols();
            let g1 = &arena.g1[..m * width];
            record(calib.as_deref_mut(), self.site_g(s), g1);
            let g2 = ensure(&mut arena.g2, m * next);
            kernels::matmul(g1, w.as_slice(), g2, m, width, next);
            kernels::add_bias(g2, b.as_slice());
            if s + 1 < self.head.len() {
                kernels::relu(g2);
            }
            std::mem::swap(&mut arena.g1, &mut arena.g2);
            width = next;
        }

        out.clear();
        out.reserve(m);
        for i in 0..m {
            out.push(arena.g1[i * width]);
        }
    }

    /// One attention (or ablated-mean) head over the `tp.num_nodes()`
    /// rows of `x`: `z = x W`, then either the fused attend pipeline or a
    /// plain segment mean, into `s.hh`. With `accumulate` (reduced
    /// precision and real attention only) `s.hh` already holds a running
    /// sum the attend kernel adds onto instead of a zeroed buffer.
    /// `scale` and `prepared` are passed through to [`project`].
    #[allow(clippy::too_many_arguments)]
    fn attention_head(
        &self,
        w: &Packed,
        a: Option<&Tensor>,
        tp: &paragraph_tensor::CsrPlan,
        x: &[f32],
        fh: usize,
        scale: f32,
        s: &mut AttendScratch,
        qa: &mut kernels::Q8Prepared,
        accumulate: bool,
        prepared: bool,
    ) {
        debug_assert!(
            !(accumulate && (self.precision == Precision::F32 || a.is_none())),
            "the fused-accumulate path changes float add order; \
             the bitwise f32 contract forbids it"
        );
        let m = tp.num_nodes();
        let z = ensure(&mut s.z, m * fh);
        project(w, x, scale, z, m, self.f, fh, qa, prepared);
        let z = &s.z[..m * fh];
        let hh = ensure(&mut s.hh, m * fh);
        if !accumulate {
            hh.fill(0.0);
        }
        let Some(a) = a else {
            self.spmm_mean(z, fh, tp, hh);
            return;
        };
        let e = tp.num_edges();
        let (zd, zs) = (ensure(&mut s.zd, m), ensure(&mut s.zs, m));
        let (raw, alpha) = (ensure(&mut s.raw, e), ensure(&mut s.alpha, e));
        if self.precision == Precision::F32 {
            kernels::attend_scores(z, fh, a.as_slice(), tp, self.slope, zd, zs, raw, alpha);
            kernels::attend_apply(z, fh, tp, alpha, hh);
        } else {
            kernels::attend_scores_fast(z, fh, a.as_slice(), tp, self.slope, zd, zs, raw, alpha);
            kernels::attend_apply_fast(z, fh, tp, alpha, hh);
        }
    }
}
