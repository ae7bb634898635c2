//! Reverse-mode automatic differentiation over [`Tensor`] values.
//!
//! A [`Tape`] records every operation of a forward pass; [`Tape::backward`]
//! then walks the recorded nodes in reverse, accumulating gradients.
//! The op set is exactly what heterogeneous message-passing networks need:
//! dense linear algebra plus `gather` / `scatter-add` / per-segment softmax
//! for edge-indexed message passing.
//!
//! # Examples
//!
//! ```
//! use paragraph_tensor::{ParamSet, Tape, Tensor};
//!
//! let mut params = ParamSet::new();
//! let w = params.add("w", Tensor::from_rows(&[&[2.0]]));
//! let mut tape = Tape::new();
//! let x = tape.constant(Tensor::from_rows(&[&[3.0]]));
//! let wv = tape.param(&params, w);
//! let y = tape.matmul(x, wv);
//! let grads = tape.backward(y);
//! // dy/dw = x = 3.
//! assert_eq!(grads.for_param(&tape, w).unwrap().item(), 3.0);
//! ```

use std::sync::Arc;

use crate::kernels;
use crate::kernels::{l2, L2_EPS};
use crate::params::{ParamId, ParamSet};
use crate::plan::CsrPlan;
use crate::tensor::{par_rows_by_work, Tensor};

/// Handle to a value recorded on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

#[derive(Debug, Clone)]
enum Op {
    Leaf {
        param: Option<ParamId>,
    },
    MatMul(Var, Var),
    Add(Var, Var),
    AddBias(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    AddScalar(Var),
    ConcatCols(Var, Var),
    Relu(Var),
    LeakyRelu(Var, f32),
    Sigmoid(Var),
    Tanh(Var),
    Square(Var),
    Exp(Var),
    GatherRows(Var, Arc<Vec<u32>>),
    ScatterAddRows(Var, Arc<Vec<u32>>, usize),
    SegmentSoftmax(Var, Arc<Vec<u32>>, usize),
    MulColBroadcast(Var, Var),
    RowL2Normalize(Var),
    MeanAll(Var),
    SumAll(Var),
    SliceRows(Var, usize, usize),
    AttendAggregate {
        z: Var,
        a: Var,
        plan: Arc<CsrPlan>,
        slope: f32,
    },
    SpmmMean(Var, Arc<CsrPlan>),
    SpmmNorm(Var, Arc<CsrPlan>, Arc<Vec<f32>>),
}

impl Op {
    /// Stable dispatch name, used as the `op` label on the
    /// backward-pass timing metrics.
    fn kind_name(&self) -> &'static str {
        match self {
            Op::Leaf { .. } => "leaf",
            Op::MatMul(..) => "matmul",
            Op::Add(..) => "add",
            Op::AddBias(..) => "add_bias",
            Op::Sub(..) => "sub",
            Op::Mul(..) => "mul",
            Op::Scale(..) => "scale",
            Op::AddScalar(..) => "add_scalar",
            Op::ConcatCols(..) => "concat_cols",
            Op::Relu(..) => "relu",
            Op::LeakyRelu(..) => "leaky_relu",
            Op::Sigmoid(..) => "sigmoid",
            Op::Tanh(..) => "tanh",
            Op::Square(..) => "square",
            Op::Exp(..) => "exp",
            Op::GatherRows(..) => "gather_rows",
            Op::ScatterAddRows(..) => "scatter_add_rows",
            Op::SegmentSoftmax(..) => "segment_softmax",
            Op::MulColBroadcast(..) => "mul_col_broadcast",
            Op::RowL2Normalize(..) => "row_l2_normalize",
            Op::MeanAll(..) => "mean_all",
            Op::SumAll(..) => "sum_all",
            Op::SliceRows(..) => "slice_rows",
            Op::AttendAggregate { .. } => "attend_aggregate",
            Op::SpmmMean(..) => "spmm_mean",
            Op::SpmmNorm(..) => "spmm_norm",
        }
    }
}

#[derive(Debug)]
struct Node {
    value: Value,
    op: Op,
}

/// A node's value: owned by the tape, or shared with the caller so
/// graph-resident constants (feature matrices reused across epochs and
/// ensemble members) are recorded without copying.
#[derive(Debug)]
enum Value {
    Owned(Tensor),
    Shared(Arc<Tensor>),
}

impl std::ops::Deref for Value {
    type Target = Tensor;

    fn deref(&self) -> &Tensor {
        match self {
            Value::Owned(t) => t,
            Value::Shared(t) => t,
        }
    }
}

/// Records a forward pass and computes gradients via [`Tape::backward`].
#[derive(Debug, Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

/// Gradients produced by [`Tape::backward`], indexed by [`Var`].
#[derive(Debug)]
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// Gradient of the loss w.r.t. `var`, if `var` influenced the loss.
    pub fn for_var(&self, var: Var) -> Option<&Tensor> {
        self.grads.get(var.0).and_then(|g| g.as_ref())
    }

    /// Gradient for the leaf that was created from parameter `id`.
    ///
    /// Returns `None` if the parameter was never used on this tape or did not
    /// influence the loss. When the same parameter was recorded as several
    /// leaves, the gradients are summed.
    pub fn for_param(&self, tape: &Tape, id: ParamId) -> Option<Tensor> {
        let mut acc: Option<Tensor> = None;
        for (node, grad) in tape.nodes.iter().zip(self.grads.iter()) {
            if let Op::Leaf { param: Some(p) } = node.op {
                if p == id {
                    if let Some(g) = grad {
                        match &mut acc {
                            Some(a) => a.add_scaled(g, 1.0),
                            None => acc = Some(g.clone()),
                        }
                    }
                }
            }
        }
        acc
    }

    /// Iterates over `(ParamId, gradient)` for every parameter leaf that
    /// received a gradient, summing duplicates.
    pub fn param_grads(&self, tape: &Tape) -> Vec<(ParamId, Tensor)> {
        let mut out: Vec<(ParamId, Tensor)> = Vec::new();
        for (node, grad) in tape.nodes.iter().zip(self.grads.iter()) {
            if let (Op::Leaf { param: Some(p) }, Some(g)) = (&node.op, grad) {
                if let Some(entry) = out.iter_mut().find(|(id, _)| id == p) {
                    entry.1.add_scaled(g, 1.0);
                } else {
                    out.push((*p, g.clone()));
                }
            }
        }
        out
    }
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape has no recorded nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The current value of `var`.
    pub fn value(&self, var: Var) -> &Tensor {
        &self.nodes[var.0].value
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        self.record(Value::Owned(value), op)
    }

    fn record(&mut self, value: Value, op: Op) -> Var {
        debug_assert!(value.all_finite(), "non-finite value produced by {op:?}");
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    /// Records a constant input (gradient is computed but not associated
    /// with any parameter).
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf { param: None })
    }

    /// Records a shared constant without copying the tensor.
    ///
    /// The `Arc` is cloned, not the data — this is how per-graph feature
    /// matrices are fed to every epoch's tape with zero copies.
    pub fn constant_shared(&mut self, value: Arc<Tensor>) -> Var {
        self.record(Value::Shared(value), Op::Leaf { param: None })
    }

    /// Records a leaf for parameter `id`, copying its current value from
    /// `params`.
    pub fn param(&mut self, params: &ParamSet, id: ParamId) -> Var {
        self.push(params.value(id).clone(), Op::Leaf { param: Some(id) })
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        self.push(v, Op::MatMul(a, b))
    }

    /// Elementwise sum of two same-shape values.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).add(self.value(b));
        self.push(v, Op::Add(a, b))
    }

    /// Adds a `1 x F` bias row to every row of an `N x F` value.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 x F` with matching `F`.
    pub fn add_bias(&mut self, a: Var, bias: Var) -> Var {
        let (_, f) = self.value(a).shape();
        assert_eq!(self.value(bias).shape(), (1, f), "bias must be 1x{f}");
        let mut v = self.value(a).clone();
        kernels::add_bias(v.as_mut_slice(), self.nodes[bias.0].value.row(0));
        self.push(v, Op::AddBias(a, bias))
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).sub(self.value(b));
        self.push(v, Op::Sub(a, b))
    }

    /// Hadamard product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).mul(self.value(b));
        self.push(v, Op::Mul(a, b))
    }

    /// Multiplies by a scalar constant.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let v = self.value(a).scale(s);
        self.push(v, Op::Scale(a, s))
    }

    /// Adds a scalar constant elementwise.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let v = self.value(a).map(|x| x + s);
        self.push(v, Op::AddScalar(a))
    }

    /// Concatenates columns: `(N x F1, N x F2) -> N x (F1+F2)`.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).hstack(self.value(b));
        self.push(v, Op::ConcatCols(a, b))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let mut v = self.value(a).clone();
        kernels::relu(v.as_mut_slice());
        self.push(v, Op::Relu(a))
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&mut self, a: Var, alpha: f32) -> Var {
        let v = self.value(a).map(|x| if x >= 0.0 { x } else { alpha * x });
        self.push(v, Op::LeakyRelu(a, alpha))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(v, Op::Sigmoid(a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f32::tanh);
        self.push(v, Op::Tanh(a))
    }

    /// Elementwise square.
    pub fn square(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x * x);
        self.push(v, Op::Square(a))
    }

    /// Elementwise exponential (inputs clamped to 30 to stay finite).
    pub fn exp(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x.min(30.0).exp());
        self.push(v, Op::Exp(a))
    }

    /// Gathers rows: `out[e, :] = a[index[e], :]`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn gather_rows(&mut self, a: Var, index: Arc<Vec<u32>>) -> Var {
        let src = self.value(a);
        let f = src.cols();
        let mut out = Tensor::zeros(index.len(), f);
        kernels::gather_rows(src.as_slice(), f, &index, out.as_mut_slice());
        self.push(out, Op::GatherRows(a, index))
    }

    /// Scatter-add rows: `out[index[e], :] += a[e, :]`, output has
    /// `num_rows` rows.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= num_rows` or `a.rows() != index.len()`.
    pub fn scatter_add_rows(&mut self, a: Var, index: Arc<Vec<u32>>, num_rows: usize) -> Var {
        let src = self.value(a);
        assert_eq!(src.rows(), index.len(), "scatter rows/index mismatch");
        let f = src.cols();
        let mut out = Tensor::zeros(num_rows, f);
        kernels::scatter_add_rows(src.as_slice(), f, &index, out.as_mut_slice());
        self.push(out, Op::ScatterAddRows(a, index, num_rows))
    }

    /// Softmax over groups of rows sharing a segment id.
    ///
    /// `a` must be an `E x 1` column of scores; rows with equal
    /// `segments[e]` form one softmax group. Used for per-destination
    /// attention normalisation in GAT / ParaGraph layers.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not a column vector or ids exceed `num_segments`.
    pub fn segment_softmax(&mut self, a: Var, segments: Arc<Vec<u32>>, num_segments: usize) -> Var {
        let src = self.value(a);
        assert_eq!(src.cols(), 1, "segment_softmax expects an E x 1 column");
        assert_eq!(src.rows(), segments.len(), "segment ids/rows mismatch");
        let out = segment_softmax_forward(src, &segments, num_segments);
        self.push(out, Op::SegmentSoftmax(a, segments, num_segments))
    }

    /// Broadcast-multiplies each row of `a` (`E x F`) by the matching entry
    /// of column `w` (`E x 1`).
    ///
    /// # Panics
    ///
    /// Panics if shapes do not line up.
    pub fn mul_col_broadcast(&mut self, a: Var, w: Var) -> Var {
        let x = self.value(a);
        let c = self.value(w);
        assert_eq!(c.cols(), 1, "broadcast weight must be a column");
        assert_eq!(x.rows(), c.rows(), "broadcast row mismatch");
        let mut out = x.clone();
        for e in 0..out.rows() {
            let wv = c.at(e, 0);
            for v in out.row_mut(e) {
                *v *= wv;
            }
        }
        self.push(out, Op::MulColBroadcast(a, w))
    }

    /// L2-normalises each row (rows with norm below `1e-12` pass through).
    pub fn row_l2_normalize(&mut self, a: Var) -> Var {
        let mut out = self.value(a).clone();
        let cols = out.cols();
        kernels::row_l2_normalize(out.as_mut_slice(), cols);
        self.push(out, Op::RowL2Normalize(a))
    }

    /// Mean of all elements as a `1 x 1` scalar.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.value(a).mean());
        self.push(v, Op::MeanAll(a))
    }

    /// Sum of all elements as a `1 x 1` scalar.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.value(a).sum());
        self.push(v, Op::SumAll(a))
    }

    /// Takes rows `start..end` of `a`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice_rows(&mut self, a: Var, start: usize, end: usize) -> Var {
        let x = self.value(a);
        assert!(start <= end && end <= x.rows(), "slice_rows out of bounds");
        let mut out = Tensor::zeros(end - start, x.cols());
        for i in start..end {
            out.row_mut(i - start).copy_from_slice(x.row(i));
        }
        self.push(out, Op::SliceRows(a, start, end))
    }

    /// Fused attention aggregation over a compiled [`CsrPlan`].
    ///
    /// Computes, in one tape node, what previously took eight:
    /// per-edge attention scores `leaky_relu(z[dst]·a_dst + z[src]·a_src)`,
    /// a per-destination segment softmax, and the attention-weighted
    /// scatter `out[d] = Σ_e α_e · z[src_e]`. `z` is `N x F`; `a` is the
    /// `2F x 1` attention vector (destination half first, matching the
    /// composed `concat_cols(z[dst], z[src]) @ a` ordering).
    ///
    /// No `E x 2F` concat buffer is materialised: scores come from two
    /// `F`-length dot products per node. The backward pass is
    /// hand-written and recomputes the softmax from the recorded inputs.
    ///
    /// # Panics
    ///
    /// Panics if `z` does not cover `plan.num_nodes()` rows or `a` is not
    /// `2F x 1`.
    pub fn attend_aggregate(&mut self, z: Var, a: Var, plan: Arc<CsrPlan>, slope: f32) -> Var {
        let zv = self.value(z);
        let (n, f) = zv.shape();
        assert_eq!(n, plan.num_nodes(), "attend_aggregate node-count mismatch");
        assert_eq!(
            self.value(a).shape(),
            (2 * f, 1),
            "attention vector must be {}x1",
            2 * f
        );
        if paragraph_obs::enabled() {
            paragraph_obs::global()
                .counter(
                    "paragraph_tensor_fused_ops_total",
                    &[("op", "attend_aggregate")],
                )
                .inc();
        }
        let _span = paragraph_obs::span!("attend_aggregate", nodes = n, edges = plan.num_edges());
        let av = self.value(a);
        let (_, alpha) = attend_scores(zv, av, &plan, slope);
        let mut out = Tensor::zeros(n, f);
        kernels::attend_apply(
            self.value(z).as_slice(),
            f,
            &plan,
            &alpha,
            out.as_mut_slice(),
        );
        self.push(out, Op::AttendAggregate { z, a, plan, slope })
    }

    /// Fused segment-mean aggregation: `out[d] = (Σ_e h[src_e]) / deg(d)`
    /// over a compiled [`CsrPlan`] (degree floored at 1).
    ///
    /// Replaces the composed `gather_rows` → `scatter_add_rows` →
    /// `mul_col_broadcast` chain bit-for-bit: the plan's stable
    /// destination sort preserves the original per-destination
    /// accumulation order, and the inverse degree multiplies the
    /// completed sum exactly like the broadcast did.
    ///
    /// # Panics
    ///
    /// Panics if `h` does not cover `plan.num_nodes()` rows.
    pub fn spmm_mean(&mut self, h: Var, plan: Arc<CsrPlan>) -> Var {
        let hv = self.value(h);
        let (n, f) = hv.shape();
        assert_eq!(n, plan.num_nodes(), "spmm_mean node-count mismatch");
        if paragraph_obs::enabled() {
            paragraph_obs::global()
                .counter("paragraph_tensor_fused_ops_total", &[("op", "spmm_mean")])
                .inc();
        }
        let _span = paragraph_obs::span!("spmm_mean", nodes = n, edges = plan.num_edges());
        let mut out = Tensor::zeros(n, f);
        kernels::spmm_mean(hv.as_slice(), f, &plan, out.as_mut_slice());
        self.push(out, Op::SpmmMean(h, plan))
    }

    /// Fused per-edge-weighted aggregation:
    /// `out[d] = Σ_e coeff_e · h[src_e]` with `coeff` given in the plan's
    /// destination-sorted edge order (e.g. GCN symmetric-norm
    /// coefficients).
    ///
    /// Bit-for-bit replacement for `gather_rows` → `mul_col_broadcast` →
    /// `scatter_add_rows` with per-edge weights.
    ///
    /// # Panics
    ///
    /// Panics if `h` does not cover `plan.num_nodes()` rows or
    /// `coeff.len() != plan.num_edges()`.
    pub fn spmm_norm(&mut self, h: Var, plan: Arc<CsrPlan>, coeff: Arc<Vec<f32>>) -> Var {
        let hv = self.value(h);
        let (n, f) = hv.shape();
        assert_eq!(n, plan.num_nodes(), "spmm_norm node-count mismatch");
        assert_eq!(
            coeff.len(),
            plan.num_edges(),
            "spmm_norm coefficient/edge count mismatch"
        );
        if paragraph_obs::enabled() {
            paragraph_obs::global()
                .counter("paragraph_tensor_fused_ops_total", &[("op", "spmm_norm")])
                .inc();
        }
        let _span = paragraph_obs::span!("spmm_norm", nodes = n, edges = plan.num_edges());
        let mut out = Tensor::zeros(n, f);
        kernels::spmm_norm(hv.as_slice(), f, &plan, &coeff, out.as_mut_slice());
        self.push(out, Op::SpmmNorm(h, plan, coeff))
    }

    /// Mean-squared-error loss between two same-shape values, as a scalar.
    pub fn mse_loss(&mut self, pred: Var, target: Var) -> Var {
        let d = self.sub(pred, target);
        let sq = self.square(d);
        self.mean_all(sq)
    }

    /// Runs reverse-mode differentiation from `loss` (which must be `1 x 1`)
    /// and returns the gradient of every recorded node.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a scalar.
    pub fn backward(&self, loss: Var) -> Gradients {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward() needs a scalar loss"
        );
        // Per-op dispatch timing is only measured while tracing is on
        // (a clock read per node is too hot for the default path); the
        // gradient math is identical either way.
        let traced = paragraph_obs::enabled();
        let _span = paragraph_obs::span!("tape_backward", ops = self.nodes.len());
        let mut op_timing: Vec<(&'static str, f64, u64)> = Vec::new();
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        grads[loss.0] = Some(Tensor::scalar(1.0));

        for idx in (0..=loss.0).rev() {
            let Some(g) = grads[idx].take() else { continue };
            let started = traced.then(std::time::Instant::now);
            self.accumulate(idx, &g, &mut grads);
            if let Some(started) = started {
                let us = started.elapsed().as_secs_f64() * 1e6;
                let name = self.nodes[idx].op.kind_name();
                match op_timing.iter_mut().find(|(n, ..)| *n == name) {
                    Some((_, total, count)) => {
                        *total += us;
                        *count += 1;
                    }
                    None => op_timing.push((name, us, 1)),
                }
            }
            grads[idx] = Some(g);
        }
        let registry = paragraph_obs::global();
        for (name, us, count) in op_timing {
            registry
                .counter("paragraph_tensor_backward_ops_total", &[("op", name)])
                .add(count);
            registry
                .counter("paragraph_tensor_backward_op_us_total", &[("op", name)])
                .add(us as u64);
        }
        Gradients { grads }
    }

    fn accumulate(&self, idx: usize, g: &Tensor, grads: &mut [Option<Tensor>]) {
        let add_to = |grads: &mut [Option<Tensor>], var: Var, delta: Tensor| match &mut grads[var.0]
        {
            Some(existing) => existing.add_scaled(&delta, 1.0),
            slot @ None => *slot = Some(delta),
        };
        match &self.nodes[idx].op {
            Op::Leaf { .. } => {}
            Op::MatMul(a, b) => {
                // ∂a = g @ bᵀ runs the accumulate kernel on a transposed
                // copy of `b` (in model code a weight of at most 2F x F);
                // each element still sums its terms in ascending order
                // from +0.0, as a row-dot loop would. ∂b = aᵀ @ g reads
                // `a` transposed in place.
                let av = self.value(*a);
                let bv = self.value(*b);
                add_to(grads, *a, g.matmul(&bv.transpose()));
                add_to(grads, *b, av.matmul_tn(g));
            }
            Op::Add(a, b) => {
                add_to(grads, *a, g.clone());
                add_to(grads, *b, g.clone());
            }
            Op::AddBias(a, bias) => {
                add_to(grads, *a, g.clone());
                add_to(grads, *bias, g.col_sum());
            }
            Op::Sub(a, b) => {
                add_to(grads, *a, g.clone());
                add_to(grads, *b, g.scale(-1.0));
            }
            Op::Mul(a, b) => {
                let av = self.value(*a).clone();
                let bv = self.value(*b).clone();
                add_to(grads, *a, g.mul(&bv));
                add_to(grads, *b, g.mul(&av));
            }
            Op::Scale(a, s) => add_to(grads, *a, g.scale(*s)),
            Op::AddScalar(a) => add_to(grads, *a, g.clone()),
            Op::ConcatCols(a, b) => {
                let fa = self.value(*a).cols();
                let (n, ftot) = g.shape();
                let mut ga = Tensor::zeros(n, fa);
                let mut gb = Tensor::zeros(n, ftot - fa);
                for i in 0..n {
                    ga.row_mut(i).copy_from_slice(&g.row(i)[..fa]);
                    gb.row_mut(i).copy_from_slice(&g.row(i)[fa..]);
                }
                add_to(grads, *a, ga);
                add_to(grads, *b, gb);
            }
            Op::Relu(a) => {
                let x = self.value(*a);
                add_to(
                    grads,
                    *a,
                    g.zip_map(x, |gv, xv| if xv > 0.0 { gv } else { 0.0 }),
                );
            }
            Op::LeakyRelu(a, alpha) => {
                let x = self.value(*a);
                let alpha = *alpha;
                add_to(
                    grads,
                    *a,
                    g.zip_map(x, |gv, xv| if xv >= 0.0 { gv } else { alpha * gv }),
                );
            }
            Op::Sigmoid(a) => {
                let y = &self.nodes[idx].value;
                add_to(grads, *a, g.zip_map(y, |gv, yv| gv * yv * (1.0 - yv)));
            }
            Op::Tanh(a) => {
                let y = &self.nodes[idx].value;
                add_to(grads, *a, g.zip_map(y, |gv, yv| gv * (1.0 - yv * yv)));
            }
            Op::Square(a) => {
                let x = self.value(*a);
                add_to(grads, *a, g.zip_map(x, |gv, xv| 2.0 * gv * xv));
            }
            Op::Exp(a) => {
                let y = &self.nodes[idx].value;
                let x = self.value(*a);
                // d exp(min(x, 30)) / dx = y for x < 30, 0 beyond the clamp.
                let mut ga = g.zip_map(y, |gv, yv| gv * yv);
                for (o, &xv) in ga.as_mut_slice().iter_mut().zip(x.as_slice()) {
                    if xv >= 30.0 {
                        *o = 0.0;
                    }
                }
                add_to(grads, *a, ga);
            }
            Op::GatherRows(a, index) => {
                let (n, f) = self.value(*a).shape();
                let mut ga = Tensor::zeros(n, f);
                for (e, &i) in index.iter().enumerate() {
                    let row = g.row(e);
                    for (o, v) in ga.row_mut(i as usize).iter_mut().zip(row.iter()) {
                        *o += v;
                    }
                }
                add_to(grads, *a, ga);
            }
            Op::ScatterAddRows(a, index, _n) => {
                let f = g.cols();
                let mut ga = Tensor::zeros(index.len(), f);
                for (e, &i) in index.iter().enumerate() {
                    ga.row_mut(e).copy_from_slice(g.row(i as usize));
                }
                add_to(grads, *a, ga);
            }
            Op::SegmentSoftmax(a, segments, num_segments) => {
                let y = &self.nodes[idx].value;
                // For each segment s: grad_e = y_e * (g_e - sum_{e' in s} g_e' y_e').
                let mut dot = vec![0.0_f32; *num_segments];
                for (e, &s) in segments.iter().enumerate() {
                    dot[s as usize] += g.at(e, 0) * y.at(e, 0);
                }
                let mut ga = Tensor::zeros(y.rows(), 1);
                for (e, &s) in segments.iter().enumerate() {
                    ga.set(e, 0, y.at(e, 0) * (g.at(e, 0) - dot[s as usize]));
                }
                add_to(grads, *a, ga);
            }
            Op::MulColBroadcast(a, w) => {
                let x = self.value(*a);
                let c = self.value(*w);
                let mut ga = g.clone();
                let mut gw = Tensor::zeros(c.rows(), 1);
                for e in 0..g.rows() {
                    let wv = c.at(e, 0);
                    let mut acc = 0.0;
                    for (j, gv) in ga.row_mut(e).iter_mut().enumerate() {
                        acc += *gv * x.at(e, j);
                        *gv *= wv;
                    }
                    gw.set(e, 0, acc);
                }
                add_to(grads, *a, ga);
                add_to(grads, *w, gw);
            }
            Op::RowL2Normalize(a) => {
                let x = self.value(*a);
                let y = &self.nodes[idx].value;
                let mut ga = Tensor::zeros(x.rows(), x.cols());
                for i in 0..x.rows() {
                    let norm = l2(x.row(i));
                    if norm > L2_EPS {
                        let gy = g.row(i);
                        let yr = y.row(i);
                        let dot: f32 = gy.iter().zip(yr.iter()).map(|(a, b)| a * b).sum();
                        for (j, o) in ga.row_mut(i).iter_mut().enumerate() {
                            *o = (gy[j] - yr[j] * dot) / norm;
                        }
                    } else {
                        ga.row_mut(i).copy_from_slice(g.row(i));
                    }
                }
                add_to(grads, *a, ga);
            }
            Op::MeanAll(a) => {
                let (n, f) = self.value(*a).shape();
                let scale = g.item() / (n * f).max(1) as f32;
                add_to(grads, *a, Tensor::filled(n, f, scale));
            }
            Op::SumAll(a) => {
                let (n, f) = self.value(*a).shape();
                add_to(grads, *a, Tensor::filled(n, f, g.item()));
            }
            Op::SliceRows(a, start, end) => {
                let (n, f) = self.value(*a).shape();
                let mut ga = Tensor::zeros(n, f);
                for i in *start..*end {
                    ga.row_mut(i).copy_from_slice(g.row(i - start));
                }
                add_to(grads, *a, ga);
            }
            Op::AttendAggregate { z, a, plan, slope } => {
                let (gz, ga) =
                    attend_aggregate_backward(g, self.value(*z), self.value(*a), plan, *slope);
                add_to(grads, *z, gz);
                add_to(grads, *a, ga);
            }
            Op::SpmmMean(h, plan) => {
                let (n, f) = self.value(*h).shape();
                let mut gh = Tensor::zeros(n, f);
                let work = plan.num_edges().saturating_mul(f);
                par_rows_by_work(n, f, work, gh.as_mut_slice(), |chunk, s0, s1| {
                    let dst = plan.sorted_dst();
                    let inv = plan.inv_in_degree();
                    for s in s0..s1 {
                        let row = &mut chunk[(s - s0) * f..(s - s0 + 1) * f];
                        for &ei in plan.edges_from(s) {
                            let d = dst[ei as usize] as usize;
                            let w = inv[d];
                            for (o, &v) in row.iter_mut().zip(g.row(d)) {
                                *o += w * v;
                            }
                        }
                    }
                });
                add_to(grads, *h, gh);
            }
            Op::SpmmNorm(h, plan, coeff) => {
                let (n, f) = self.value(*h).shape();
                let mut gh = Tensor::zeros(n, f);
                let work = plan.num_edges().saturating_mul(f);
                par_rows_by_work(n, f, work, gh.as_mut_slice(), |chunk, s0, s1| {
                    let dst = plan.sorted_dst();
                    for s in s0..s1 {
                        let row = &mut chunk[(s - s0) * f..(s - s0 + 1) * f];
                        for &ei in plan.edges_from(s) {
                            let w = coeff[ei as usize];
                            let d = dst[ei as usize] as usize;
                            for (o, &v) in row.iter_mut().zip(g.row(d)) {
                                *o += w * v;
                            }
                        }
                    }
                });
                add_to(grads, *h, gh);
            }
        }
    }
}

fn segment_softmax_forward(src: &Tensor, segments: &[u32], num_segments: usize) -> Tensor {
    let mut max = vec![f32::NEG_INFINITY; num_segments];
    for (e, &s) in segments.iter().enumerate() {
        let s = s as usize;
        assert!(s < num_segments, "segment id {s} out of range");
        max[s] = max[s].max(src.at(e, 0));
    }
    let mut out = Tensor::zeros(src.rows(), 1);
    let mut denom = vec![0.0_f32; num_segments];
    for (e, &s) in segments.iter().enumerate() {
        let v = (src.at(e, 0) - max[s as usize]).exp();
        out.set(e, 0, v);
        denom[s as usize] += v;
    }
    for (e, &s) in segments.iter().enumerate() {
        let d = denom[s as usize];
        if d > 0.0 {
            out.set(e, 0, out.at(e, 0) / d);
        }
    }
    out
}

/// Per-edge attention scores and softmax weights in the plan's
/// destination-sorted order.
///
/// Returns `(raw, alpha)` where `raw[e] = z[dst_e]·a_dst + z[src_e]·a_src`
/// (pre-activation, needed for the leaky-ReLU backward) and `alpha` is the
/// per-destination softmax of `leaky_relu(raw)`. Shared by the fused
/// forward, its backward recomputation, and [`attention_probabilities`] so
/// the inspection path cannot drift from the training path.
fn attend_scores(z: &Tensor, a: &Tensor, plan: &CsrPlan, slope: f32) -> (Vec<f32>, Vec<f32>) {
    let (n, f) = z.shape();
    let e = plan.num_edges();
    let mut zd_dot = vec![0.0_f32; n];
    let mut zs_dot = vec![0.0_f32; n];
    let mut raw = vec![0.0_f32; e];
    let mut alpha = vec![0.0_f32; e];
    kernels::attend_scores(
        z.as_slice(),
        f,
        a.as_slice(),
        plan,
        slope,
        &mut zd_dot,
        &mut zs_dot,
        &mut raw,
        &mut alpha,
    );
    (raw, alpha)
}

/// Attention softmax weights in the **original COO edge order** for a
/// projected feature matrix `z` and attention vector `a` (`2F x 1`,
/// destination half first).
///
/// This is the exact forward computation of [`Tape::attend_aggregate`]
/// exposed for inspection APIs (e.g. `GnnModel::attention_weights`).
pub fn attention_probabilities(z: &Tensor, a: &Tensor, plan: &CsrPlan, slope: f32) -> Vec<f32> {
    let (n, f) = z.shape();
    assert_eq!(n, plan.num_nodes(), "attention node-count mismatch");
    assert_eq!(
        a.shape(),
        (2 * f, 1),
        "attention vector must be {}x1",
        2 * f
    );
    let (_, alpha) = attend_scores(z, a, plan, slope);
    let mut out = vec![0.0_f32; plan.num_edges()];
    for (i, &p) in plan.perm().iter().enumerate() {
        out[p as usize] = alpha[i];
    }
    out
}

/// Hand-written backward for [`Tape::attend_aggregate`]; returns
/// `(grad_z, grad_a)`. See `docs/performance.md` for the derivation.
fn attend_aggregate_backward(
    g: &Tensor,
    zv: &Tensor,
    av: &Tensor,
    plan: &CsrPlan,
    slope: f32,
) -> (Tensor, Tensor) {
    let (n, f) = zv.shape();
    let e = plan.num_edges();
    let (raw, alpha) = attend_scores(zv, av, plan, slope);
    let a_dst = &av.as_slice()[..f];
    let a_src = &av.as_slice()[f..];
    let offsets = plan.dst_offsets();

    // Phase 1 — parallel over destination segments: per-edge score
    // gradients dt (through softmax and leaky) plus the per-destination
    // dot-half gradient dzd_dot[d] = Σ_seg dt. Both buffers chunk at
    // segment boundaries, so writes stay disjoint per worker.
    let mut dt = vec![0.0_f32; e];
    let mut dzd_dot = vec![0.0_f32; n];
    let phase1 = |dt_chunk: &mut [f32], dzd_chunk: &mut [f32], d0: usize, d1: usize| {
        let base = offsets[d0] as usize;
        for d in d0..d1 {
            let gr = g.row(d);
            let seg = offsets[d] as usize..offsets[d + 1] as usize;
            // dL/dα_e = g[d] · z[src_e]; the segment dot is the softmax
            // backward's shared term.
            let mut seg_dot = 0.0_f32;
            for ei in seg.clone() {
                let zr = zv.row(plan.sorted_src()[ei] as usize);
                let da: f32 = gr.iter().zip(zr.iter()).map(|(x, y)| x * y).sum();
                dt_chunk[ei - base] = da;
                seg_dot += da * alpha[ei];
            }
            let mut acc = 0.0_f32;
            for ei in seg {
                let mut v = alpha[ei] * (dt_chunk[ei - base] - seg_dot);
                if raw[ei] < 0.0 {
                    v *= slope;
                }
                dt_chunk[ei - base] = v;
                acc += v;
            }
            dzd_chunk[d - d0] = acc;
        }
    };
    let ranges = par_chunk_ranges(n, e.saturating_mul(f));
    if ranges.len() == 1 {
        phase1(&mut dt, &mut dzd_dot, 0, n);
    } else {
        paragraph_runtime::global().scope(|scope| {
            let mut dt_rest = &mut dt[..];
            let mut dzd_rest = &mut dzd_dot[..];
            for &(d0, d1) in &ranges {
                let e0 = offsets[d0] as usize;
                let e1 = offsets[d1] as usize;
                let (dt_head, dt_tail) = dt_rest.split_at_mut(e1 - e0);
                dt_rest = dt_tail;
                let (dzd_head, dzd_tail) = dzd_rest.split_at_mut(d1 - d0);
                dzd_rest = dzd_tail;
                let phase1 = &phase1;
                scope.spawn(move || phase1(dt_head, dzd_head, d0, d1));
            }
        });
    }

    // Phase 2 — parallel over source rows: z picks up the weighted
    // message gradient Σ α_e g[dst_e] plus both score-path halves.
    // dzs_dot[s] = Σ_{e from s} dt_e is folded into the same pass.
    let mut gz = Tensor::zeros(n, f);
    let work = e.saturating_mul(f).saturating_add(n.saturating_mul(f));
    par_rows_by_work(n, f, work, gz.as_mut_slice(), |chunk, s0, s1| {
        let dst = plan.sorted_dst();
        for s in s0..s1 {
            let row = &mut chunk[(s - s0) * f..(s - s0 + 1) * f];
            let mut dzs = 0.0_f32;
            for &ei in plan.edges_from(s) {
                let ei = ei as usize;
                let w = alpha[ei];
                for (o, &v) in row.iter_mut().zip(g.row(dst[ei] as usize)) {
                    *o += w * v;
                }
                dzs += dt[ei];
            }
            let zdd = dzd_dot[s];
            for (j, o) in row.iter_mut().enumerate() {
                *o += zdd * a_dst[j] + dzs * a_src[j];
            }
        }
    });

    // Phase 3 — sequential O(N·F): the attention-vector gradient
    // a_dst_grad = Σ_n dzd_dot[n]·z[n], a_src_grad analogously.
    let mut dzs_dot = vec![0.0_f32; n];
    for (s, o) in dzs_dot.iter_mut().enumerate() {
        for &ei in plan.edges_from(s) {
            *o += dt[ei as usize];
        }
    }
    let mut ga = Tensor::zeros(2 * f, 1);
    {
        let gs = ga.as_mut_slice();
        for i in 0..n {
            let zr = zv.row(i);
            let wd = dzd_dot[i];
            let ws = dzs_dot[i];
            for (j, &zj) in zr.iter().enumerate() {
                gs[j] += wd * zj;
                gs[f + j] += ws * zj;
            }
        }
    }
    (gz, ga)
}

/// Node-index ranges for chunking destination segments across the pool,
/// mirroring the thresholds of [`par_rows_by_work`]. A single range
/// means "run inline".
fn par_chunk_ranges(n: usize, work: usize) -> Vec<(usize, usize)> {
    let pool = paragraph_runtime::global();
    let threads = if work >= crate::tensor::PAR_FLOP_THRESHOLD {
        pool.threads().min(8)
    } else {
        1
    };
    if threads <= 1 || n < 2 * threads {
        return vec![(0, n)];
    }
    let chunk = n.div_ceil(threads);
    let mut ranges = Vec::new();
    let mut start = 0;
    while start < n {
        let end = (start + chunk).min(n);
        ranges.push((start, end));
        start = end;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_gradient() {
        // y = sum(W x); dy/dW = x^T replicated.
        let mut params = ParamSet::new();
        let w = params.add("w", Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let mut tape = Tape::new();
        let wv = tape.param(&params, w);
        let x = tape.constant(Tensor::from_col(&[5.0, 7.0]));
        let y = tape.matmul(wv, x);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        let gw = grads.for_param(&tape, w).unwrap();
        assert_eq!(gw, Tensor::from_rows(&[&[5.0, 7.0], &[5.0, 7.0]]));
    }

    #[test]
    fn mse_gradient_is_scaled_residual() {
        let mut tape = Tape::new();
        let p = tape.constant(Tensor::from_col(&[1.0, 2.0]));
        let t = tape.constant(Tensor::from_col(&[0.0, 0.0]));
        let loss = tape.mse_loss(p, t);
        assert!((tape.value(loss).item() - 2.5).abs() < 1e-6);
        let grads = tape.backward(loss);
        let gp = grads.for_var(p).unwrap();
        // d/dp mean((p-t)^2) = 2(p-t)/n.
        assert_eq!(gp, &Tensor::from_col(&[1.0, 2.0]));
    }

    #[test]
    fn segment_softmax_sums_to_one_per_segment() {
        let mut tape = Tape::new();
        let scores = tape.constant(Tensor::from_col(&[0.3, -1.0, 2.0, 0.5, 0.5]));
        let segs = Arc::new(vec![0_u32, 0, 1, 1, 1]);
        let sm = tape.segment_softmax(scores, segs.clone(), 2);
        let y = tape.value(sm);
        let s0 = y.at(0, 0) + y.at(1, 0);
        let s1 = y.at(2, 0) + y.at(3, 0) + y.at(4, 0);
        assert!((s0 - 1.0).abs() < 1e-6);
        assert!((s1 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn gather_scatter_are_adjoint() {
        // <scatter(x), y> == <x, gather(y)> for matching indices.
        let idx = Arc::new(vec![2_u32, 0, 2]);
        let x = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let y = Tensor::from_rows(&[&[1.0, -1.0], &[0.5, 0.5], &[2.0, 1.0]]);

        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let sc = tape.scatter_add_rows(xv, idx.clone(), 3);
        let lhs: f32 = tape
            .value(sc)
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(a, b)| a * b)
            .sum();

        let mut tape2 = Tape::new();
        let yv = tape2.constant(y);
        let ga = tape2.gather_rows(yv, idx);
        let rhs: f32 = tape2
            .value(ga)
            .as_slice()
            .iter()
            .zip(x.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-5);
    }

    #[test]
    fn concat_cols_backward_splits() {
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::ones(2, 2));
        let b = tape.constant(Tensor::ones(2, 3));
        let c = tape.concat_cols(a, b);
        assert_eq!(tape.value(c).shape(), (2, 5));
        let loss = tape.sum_all(c);
        let grads = tape.backward(loss);
        assert_eq!(grads.for_var(a).unwrap().shape(), (2, 2));
        assert_eq!(grads.for_var(b).unwrap().shape(), (2, 3));
    }

    #[test]
    fn param_used_twice_sums_gradients() {
        let mut params = ParamSet::new();
        let w = params.add("w", Tensor::scalar(3.0));
        let mut tape = Tape::new();
        let w1 = tape.param(&params, w);
        let w2 = tape.param(&params, w);
        let y = tape.mul(w1, w2); // y = w^2 -> dy/dw = 2w = 6
        let grads = tape.backward(y);
        assert_eq!(grads.for_param(&tape, w).unwrap().item(), 6.0);
    }

    #[test]
    fn row_l2_normalize_unit_rows() {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_rows(&[&[3.0, 4.0], &[0.0, 0.0]]));
        let y = tape.row_l2_normalize(x);
        let v = tape.value(y);
        assert!((v.at(0, 0) - 0.6).abs() < 1e-6);
        assert!((v.at(0, 1) - 0.8).abs() < 1e-6);
        // Zero rows pass through untouched.
        assert_eq!(v.at(1, 0), 0.0);
    }

    /// `∂a = g·bᵀ` of a recorded product equals, bit for bit, a scalar
    /// row-dot loop that sums every term (zeros included) from +0.0 in
    /// ascending order — on every dispatch path of the accumulate kernel.
    #[test]
    fn matmul_left_gradient_is_bitwise_row_dot() {
        // (m, k, n): a is m x k, b is k x n, so ∂a has k columns.
        let shapes = [
            (5, 32, 7),     // 4 whole AVX2 lane blocks
            (9, 64, 16),    // 8 blocks, all accumulators resident
            (6, 136, 12),   // tiled columns: 64 + 64 + 8
            (7, 12, 5),     // portable path (12 % 8 != 0)
            (1024, 64, 32), // pooled: m·n·k = 2^21
        ];
        let fill = |rows: usize, cols: usize, salt: usize| {
            Tensor::from_fn(rows, cols, |i, j| match (i * 7 + j * 3 + salt) % 11 {
                0 => 0.0,
                1 => -0.0,
                r => (r as f32 - 5.5) * 0.37 + (i % 5) as f32 * 0.013,
            })
        };
        for (m, k, n) in shapes {
            let (av, bv, gv) = (fill(m, k, 1), fill(k, n, 2), fill(m, n, 3));
            let mut tape = Tape::new();
            let a = tape.constant(av);
            let b = tape.constant(bv.clone());
            let c = tape.matmul(a, b);
            // sum(c ⊙ g) feeds exactly g (signed zeros included) into c.
            let g = tape.constant(gv.clone());
            let weighted = tape.mul(c, g);
            let loss = tape.sum_all(weighted);
            let grads = tape.backward(loss);
            let got = grads.for_var(a).unwrap();
            assert_eq!(got.shape(), (m, k));
            for i in 0..m {
                for j in 0..k {
                    let mut acc = 0.0f32;
                    for (&g_v, &b_v) in gv.row(i).iter().zip(bv.row(j)) {
                        acc += g_v * b_v;
                    }
                    assert_eq!(
                        got.at(i, j).to_bits(),
                        acc.to_bits(),
                        "{m}x{k}x{n}: element ({i}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "needs a scalar loss")]
    fn backward_requires_scalar() {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(2, 2));
        let _ = tape.backward(x);
    }
}

#[cfg(test)]
mod exp_tests {
    use super::*;

    #[test]
    fn exp_forward_and_gradient() {
        let mut params = ParamSet::new();
        let w = params.add("w", Tensor::from_col(&[0.0, 1.0, -1.0]));
        let mut tape = Tape::new();
        let wv = tape.param(&params, w);
        let y = tape.exp(wv);
        assert!((tape.value(y).at(1, 0) - std::f32::consts::E).abs() < 1e-5);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        let g = grads.for_param(&tape, w).unwrap();
        // d/dx sum exp(x) = exp(x).
        for i in 0..3 {
            assert!((g.at(i, 0) - tape.value(y).at(i, 0)).abs() < 1e-5);
        }
    }

    #[test]
    fn exp_clamps_large_inputs() {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::scalar(1000.0));
        let y = tape.exp(x);
        assert!(tape.value(y).item().is_finite());
    }
}

#[cfg(test)]
mod fused_tests {
    use super::*;

    /// Deterministic pseudo-random fill (no RNG dependency in this crate).
    fn pseudo(rows: usize, cols: usize, salt: u64) -> Tensor {
        Tensor::from_fn(rows, cols, |i, j| {
            let h = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(j as u64)
                .wrapping_mul(1442695040888963407)
                .wrapping_add(salt);
            ((h >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
    }

    fn test_edges() -> (Vec<u32>, Vec<u32>, usize) {
        // 6 nodes, node 5 isolated; node 0 has a 3-edge segment.
        let src = vec![1u32, 2, 3, 0, 4, 0, 2];
        let dst = vec![0u32, 0, 0, 1, 1, 2, 3];
        (src, dst, 6)
    }

    /// Composed-primitive attention aggregation — the exact pre-fusion
    /// 8-op chain from the ParaGraph/GAT layers.
    fn composed_attend(
        tape: &mut Tape,
        z: Var,
        a: Var,
        src: &Arc<Vec<u32>>,
        dst: &Arc<Vec<u32>>,
        n: usize,
        slope: f32,
    ) -> Var {
        let zs = tape.gather_rows(z, src.clone());
        let zd = tape.gather_rows(z, dst.clone());
        let cat = tape.concat_cols(zd, zs);
        let scores = tape.matmul(cat, a);
        let scores = tape.leaky_relu(scores, slope);
        let att = tape.segment_softmax(scores, dst.clone(), n);
        let weighted = tape.mul_col_broadcast(zs, att);
        tape.scatter_add_rows(weighted, dst.clone(), n)
    }

    fn max_rel_diff(a: &Tensor, b: &Tensor) -> f32 {
        assert_eq!(a.shape(), b.shape());
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| (x - y).abs() / x.abs().max(y.abs()).max(1.0))
            .fold(0.0, f32::max)
    }

    #[test]
    fn attend_aggregate_matches_composed_forward_and_gradient() {
        let (src, dst, n) = test_edges();
        let f = 5;
        let plan = CsrPlan::shared(&src, &dst, n);
        let src = Arc::new(src);
        let dst = Arc::new(dst);
        let mut params = ParamSet::new();
        let zp = params.add("z", pseudo(n, f, 11));
        let ap = params.add("a", pseudo(2 * f, 1, 23));

        let mut fused = Tape::new();
        let z = fused.param(&params, zp);
        let a = fused.param(&params, ap);
        let out_f = fused.attend_aggregate(z, a, plan, 0.2);

        let mut composed = Tape::new();
        let zc = composed.param(&params, zp);
        let ac = composed.param(&params, ap);
        let out_c = composed_attend(&mut composed, zc, ac, &src, &dst, n, 0.2);

        assert!(
            max_rel_diff(fused.value(out_f), composed.value(out_c)) < 1e-5,
            "fused forward deviates from composed"
        );

        // Same downstream loss on both tapes -> parameter gradients agree.
        let t = pseudo(n, f, 37);
        let tf = fused.constant(t.clone());
        let loss_f = fused.mse_loss(out_f, tf);
        let gf = fused.backward(loss_f);
        let tc = composed.constant(t);
        let loss_c = composed.mse_loss(out_c, tc);
        let gc = composed.backward(loss_c);
        for id in [zp, ap] {
            let a = gf.for_param(&fused, id).unwrap();
            let b = gc.for_param(&composed, id).unwrap();
            assert!(
                max_rel_diff(&a, &b) < 1e-5,
                "fused gradient deviates from composed"
            );
        }
    }

    #[test]
    fn spmm_mean_is_bitwise_composed() {
        let (src, dst, n) = test_edges();
        let f = 4;
        let plan = CsrPlan::shared(&src, &dst, n);
        let h = pseudo(n, f, 5);

        let mut fused = Tape::new();
        let hv = fused.constant(h.clone());
        let out_f = fused.spmm_mean(hv, plan.clone());

        let mut composed = Tape::new();
        let hc = composed.constant(h);
        let src = Arc::new(src);
        let dst = Arc::new(dst);
        let gathered = composed.gather_rows(hc, src);
        let summed = composed.scatter_add_rows(gathered, dst, n);
        let inv = Tensor::from_col(plan.inv_in_degree());
        let invv = composed.constant(inv);
        let out_c = composed.mul_col_broadcast(summed, invv);

        assert_eq!(
            fused.value(out_f).as_slice(),
            composed.value(out_c).as_slice(),
            "spmm_mean must be bit-identical to the composed chain"
        );
        // Isolated node stays zero.
        assert!(fused.value(out_f).row(5).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn spmm_norm_is_bitwise_composed() {
        let (src, dst, n) = test_edges();
        let f = 4;
        let plan = CsrPlan::shared(&src, &dst, n);
        let h = pseudo(n, f, 29);
        // GCN-style symmetric-norm coefficients, in sorted edge order for
        // the fused op and original order for the composed chain.
        let coeff_sorted: Vec<f32> = (0..plan.num_edges())
            .map(|ei| {
                let s = plan.sorted_src()[ei] as usize;
                let d = plan.sorted_dst()[ei] as usize;
                1.0 / (plan.out_degree()[s].max(1.0) * plan.in_degree()[d].max(1.0)).sqrt()
            })
            .collect();
        let mut coeff_orig = vec![0.0_f32; plan.num_edges()];
        for (i, &p) in plan.perm().iter().enumerate() {
            coeff_orig[p as usize] = coeff_sorted[i];
        }

        let mut fused = Tape::new();
        let hv = fused.constant(h.clone());
        let out_f = fused.spmm_norm(hv, plan, Arc::new(coeff_sorted));

        let mut composed = Tape::new();
        let hc = composed.constant(h);
        let src = Arc::new(src);
        let dst = Arc::new(dst);
        let gathered = composed.gather_rows(hc, src);
        let cv = composed.constant(Tensor::from_col(&coeff_orig));
        let weighted = composed.mul_col_broadcast(gathered, cv);
        let out_c = composed.scatter_add_rows(weighted, dst, n);

        assert_eq!(
            fused.value(out_f).as_slice(),
            composed.value(out_c).as_slice(),
            "spmm_norm must be bit-identical to the composed chain"
        );
    }

    #[test]
    fn attention_probabilities_match_composed_softmax() {
        let (src, dst, n) = test_edges();
        let f = 3;
        let plan = CsrPlan::shared(&src, &dst, n);
        let z = pseudo(n, f, 41);
        let a = pseudo(2 * f, 1, 43);
        let probs = attention_probabilities(&z, &a, &plan, 0.2);

        let mut tape = Tape::new();
        let zv = tape.constant(z);
        let av = tape.constant(a);
        let srcv = Arc::new(src);
        let dstv = Arc::new(dst);
        let zs = tape.gather_rows(zv, srcv);
        let zd = tape.gather_rows(zv, dstv.clone());
        let cat = tape.concat_cols(zd, zs);
        let scores = tape.matmul(cat, av);
        let scores = tape.leaky_relu(scores, 0.2);
        let att = tape.segment_softmax(scores, dstv, n);
        for (e, &p) in probs.iter().enumerate() {
            assert!(
                (p - tape.value(att).at(e, 0)).abs() < 1e-6,
                "edge {e}: {p} vs {}",
                tape.value(att).at(e, 0)
            );
        }
    }

    #[test]
    fn fused_ops_on_empty_edge_list_return_zeros() {
        let n = 4;
        let f = 3;
        let plan = CsrPlan::shared(&[], &[], n);
        let mut tape = Tape::new();
        let z = tape.constant(pseudo(n, f, 3));
        let a = tape.constant(pseudo(2 * f, 1, 7));
        let att = tape.attend_aggregate(z, a, plan.clone(), 0.2);
        let mean = tape.spmm_mean(z, plan.clone());
        let norm = tape.spmm_norm(z, plan, Arc::new(Vec::new()));
        for out in [att, mean, norm] {
            assert!(tape.value(out).as_slice().iter().all(|&v| v == 0.0));
        }
        // Backward through an empty aggregation must still produce
        // (zero) gradients without panicking.
        let loss = tape.mean_all(att);
        let grads = tape.backward(loss);
        assert!(grads
            .for_var(z)
            .unwrap()
            .as_slice()
            .iter()
            .all(|&v| v == 0.0));
    }

    /// The fused kernels must be bitwise deterministic regardless of how
    /// the pool splits the work: each output row is written by exactly
    /// one worker with a fixed per-element accumulation order. This test
    /// builds a graph big enough to cross the parallel threshold and
    /// checks the pooled result against a hand-rolled sequential loop.
    #[test]
    fn parallel_fused_ops_match_sequential_reference_bitwise() {
        let n = 3000;
        let f = 64;
        // 12 stride edges per node: e = 12n = 36k, so e * f ≈ 2.3M
        // crosses PAR_FLOP_THRESHOLD and the kernels take the pooled
        // path on multi-core hosts.
        let mut src = Vec::new();
        let mut dst = Vec::new();
        for i in 0..n as u32 {
            for s in [1u32, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31] {
                src.push((i + s) % n as u32);
                dst.push(i);
            }
        }
        let plan = CsrPlan::shared(&src, &dst, n);
        let h = pseudo(n, f, 51);

        let mut tape = Tape::new();
        let hv = tape.constant(h.clone());
        let out = tape.spmm_mean(hv, plan.clone());

        let mut expect = Tensor::zeros(n, f);
        for d in 0..n {
            for ei in plan.edges_into(d) {
                let s = plan.sorted_src()[ei] as usize;
                for j in 0..f {
                    let v = expect.at(d, j) + h.at(s, j);
                    expect.set(d, j, v);
                }
            }
            let w = plan.inv_in_degree()[d];
            for j in 0..f {
                let v = expect.at(d, j) * w;
                expect.set(d, j, v);
            }
        }
        assert_eq!(
            tape.value(out).as_slice(),
            expect.as_slice(),
            "pooled spmm_mean deviates from sequential reference"
        );

        // Same check for the attention kernel's weighted scatter.
        let a = pseudo(2 * f, 1, 53);
        let av = tape.constant(a.clone());
        let att = tape.attend_aggregate(hv, av, plan.clone(), 0.2);
        let probs_sorted = {
            let mut sorted = vec![0.0_f32; plan.num_edges()];
            let orig = attention_probabilities(&h, &a, &plan, 0.2);
            for (i, &p) in plan.perm().iter().enumerate() {
                sorted[i] = orig[p as usize];
            }
            sorted
        };
        let mut expect = Tensor::zeros(n, f);
        for d in 0..n {
            for ei in plan.edges_into(d) {
                let s = plan.sorted_src()[ei] as usize;
                let w = probs_sorted[ei];
                for j in 0..f {
                    let v = expect.at(d, j) + w * h.at(s, j);
                    expect.set(d, j, v);
                }
            }
        }
        assert_eq!(
            tape.value(att).as_slice(),
            expect.as_slice(),
            "pooled attend_aggregate deviates from sequential reference"
        );
    }

    #[test]
    fn constant_shared_does_not_copy() {
        let t = Arc::new(pseudo(4, 4, 9));
        let mut tape = Tape::new();
        let v = tape.constant_shared(t.clone());
        assert!(std::ptr::eq(tape.value(v), t.as_ref()));
    }
}
