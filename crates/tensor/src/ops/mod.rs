//! Pure functional operations on [`crate::Tensor`] values.
//!
//! These are the forward kernels; the autograd layer in
//! [`crate::var_ops`] composes them with hand-written backward passes.
//! All kernels are shape-checked (panicking with descriptive messages on
//! programmer error) and, where the arithmetic intensity justifies it,
//! parallelized via [`crate::par`].

pub mod elementwise;
pub mod matmul;
pub mod nn;
pub mod quant;
pub mod reduce;
pub mod simd;

pub use elementwise::*;
pub use matmul::*;
pub use nn::*;
pub use quant::{dequantize, qmatmul_transb, quantize_per_row, to_f16, to_f32, QuantizedMatrix};
pub use reduce::*;
pub use simd::{axpy, axpy_f16, dot, dot_f16, RunSpan};
