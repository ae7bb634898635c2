//! Dense 2-D `f32` tensors and reverse-mode automatic differentiation.
//!
//! This crate is the numerical substrate of the ParaGraph reproduction. It
//! deliberately covers only what heterogeneous graph neural networks need:
//!
//! * [`Tensor`] — a dense row-major matrix with (optionally threaded)
//!   matrix multiplication;
//! * [`Tape`] / [`Var`] — a tape-based autograd engine whose op set includes
//!   `gather_rows`, `scatter_add_rows` and `segment_softmax` for
//!   edge-indexed message passing;
//! * [`ParamSet`] — named trainable tensors with Xavier initialisation and
//!   export/import for checkpoints;
//! * [`Adam`] / [`Sgd`] — optimizers;
//! * [`gradcheck`] — finite-difference verification used heavily in tests.
//!
//! # Examples
//!
//! Train `y = w * x` to fit a line:
//!
//! ```
//! use paragraph_tensor::{Adam, ParamSet, Tape, Tensor};
//!
//! let mut params = ParamSet::new();
//! let w = params.add("w", Tensor::scalar(0.0));
//! let mut opt = Adam::new(0.1);
//! for _ in 0..200 {
//!     let mut tape = Tape::new();
//!     let wv = tape.param(&params, w);
//!     let x = tape.constant(Tensor::from_col(&[1.0, 2.0, 3.0]));
//!     let pred = tape.matmul(x, wv);
//!     let target = tape.constant(Tensor::from_col(&[2.0, 4.0, 6.0]));
//!     let loss = tape.mse_loss(pred, target);
//!     let grads = tape.backward(loss);
//!     opt.step(&mut params, &grads.param_grads(&tape));
//! }
//! assert!((params.value(w).item() - 2.0).abs() < 1e-2);
//! ```

#![warn(missing_docs)]

pub mod gradcheck;
pub mod kernels;
mod optim;
mod params;
mod plan;
pub mod quant;
mod tape;
mod tensor;

pub use optim::{Adam, Sgd};
pub use params::{init_rng, ParamId, ParamSet};
pub use plan::CsrPlan;
pub use quant::QuantMatrix;
pub use tape::{attention_probabilities, Gradients, Tape, Var};
pub use tensor::Tensor;
