//! # ratatouille-tensor
//!
//! A small, dependency-light CPU tensor library with reverse-mode automatic
//! differentiation. It is the numerical substrate for the Ratatouille
//! reproduction: the paper fine-tunes LSTM and GPT-2 language models with
//! PyTorch/HuggingFace on GPU; this crate provides the equivalent
//! functionality from scratch in Rust at laptop scale.
//!
//! ## Layers
//!
//! * [`Tensor`] — an immutable, contiguous, row-major n-d array value
//!   type with cheap clones (shared storage), generic over a sealed
//!   [`Element`] storage dtype (`f32` by default; [`F16`] and `i8` are
//!   inference-only storage formats — see [`dtype`] and [`ops::quant`]).
//! * Pure functional ops on [`Tensor`] (`matmul`, elementwise math,
//!   reductions, softmax, layer norm, embedding lookup, …).
//! * [`Var`] — a node in a dynamically-built computation graph. Calling ops
//!   on `Var`s records the graph; [`Var::backward`] runs reverse-mode
//!   autodiff and accumulates gradients into leaf variables.
//! * [`optim`] — the Adam / AdamW optimizer, global-norm gradient
//!   clipping and the warmup-cosine learning-rate schedule.
//! * [`serialize`] — a compact binary format for named tensor collections
//!   (checkpoints), with integrity checking.
//! * [`par`] — scoped-thread data parallelism used by the heavy kernels;
//!   the worker count is a process-wide runtime setting so benchmarks can
//!   sweep it (this stands in for the paper's CPU-vs-A100 comparison).
//!
//! ## Conventions
//!
//! Shape errors are programming errors and panic with a descriptive message
//! (as in `ndarray`); fallible construction from untrusted input returns
//! [`TensorError`]. All randomness flows through caller-provided [`rand`]
//! RNGs so every experiment in the reproduction is seedable.
//!
//! ## Example
//!
//! ```
//! use ratatouille_tensor::{Tensor, Var};
//!
//! // y = sum((a.b) * 3), da = 3*b, db = 3*a
//! let a = Var::leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
//! let b = Var::leaf(Tensor::from_vec(vec![4.0, 5.0], &[2]).unwrap());
//! let y = a.mul(&b).scale(3.0).sum();
//! y.backward();
//! assert_eq!(a.grad().unwrap().data(), &[12.0, 15.0]);
//! assert_eq!(b.grad().unwrap().data(), &[3.0, 6.0]);
//! ```
#![warn(missing_docs)]


pub mod autograd;
pub mod dtype;
pub mod error;
pub mod init;
pub mod ops;
pub mod optim;
pub mod par;
pub mod serialize;
pub mod shape;
pub mod tensor;
pub mod var_ops;

pub use autograd::Var;
pub use dtype::{DType, Element, F16};
pub use error::TensorError;
pub use serialize::TensorMap;
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
