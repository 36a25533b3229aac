//! Pure functional operations on [`crate::Tensor`] values.
//!
//! These are the forward kernels; the autograd layer in
//! [`crate::var_ops`] composes them with hand-written backward passes.
//! All kernels are shape-checked (panicking with descriptive messages on
//! programmer error) and, where the arithmetic intensity justifies it,
//! parallelized via [`crate::par`].

use std::ops::Range;

use crate::recycle;

pub(crate) mod attention;
pub mod elementwise;
pub mod libm;
pub mod matmul;
pub mod nn;
pub mod quant;
pub mod reduce;
pub mod simd;

pub use elementwise::*;
pub use matmul::*;
pub use nn::*;
pub use quant::{dequantize, qmatmul_transb, quantize_per_row, QuantizedMatrix};
pub use reduce::*;
pub use simd::{axpy, axpy_f16, dot, dot_f16, RunSpan};

/// A `rows × row_len` buffer filled by `kernel(row_range, out)`, where
/// `out` holds exactly the rows of `row_range` and one row costs
/// `row_macs` (a multiple of one of `par`'s per-element costs). `kernel`
/// writes every element of `out`: the buffer comes from
/// [`recycle::take`], so what it holds before is unspecified.
///
/// Above `par`'s work gate the rows are cut into contiguous ranges across
/// the pool; below it `kernel` runs once, inline, over all of them — the
/// serial path is the same closure. Every kernel handed in here computes
/// an output row from its inputs alone, in the order the serial loop did,
/// so where the cut falls never changes a bit.
pub(crate) fn fill_rows<F>(rows: usize, row_len: usize, row_macs: usize, kernel: F) -> Vec<f32>
where
    F: Fn(Range<usize>, &mut [f32]) + Sync,
{
    fill_buffer(recycle::take(rows * row_len), rows, row_len, row_macs, kernel)
}

/// [`fill_rows`] for a kernel that accumulates into `out`, which starts
/// zeroed.
pub(crate) fn fill_rows_zeroed<F>(rows: usize, row_len: usize, row_macs: usize, kernel: F) -> Vec<f32>
where
    F: Fn(Range<usize>, &mut [f32]) + Sync,
{
    fill_buffer(recycle::zeroed(rows * row_len), rows, row_len, row_macs, kernel)
}

fn fill_buffer<F>(mut out: Vec<f32>, rows: usize, row_len: usize, row_macs: usize, kernel: F) -> Vec<f32>
where
    F: Fn(Range<usize>, &mut [f32]) + Sync,
{
    // SAFETY(disjoint: out[rows] — each task is handed only the rows of its own range)
    crate::par::parallel_rows_mut(&mut out, rows, row_len, row_macs, kernel);
    out
}

/// A shape read as rows of its last axis: `(rows, row_len)`. A rank-0
/// tensor is one row of one element.
pub(crate) fn last_axis_rows(dims: &[usize]) -> (usize, usize) {
    let row_len = dims.last().copied().unwrap_or(1);
    let numel: usize = dims.iter().product();
    (numel.checked_div(row_len).unwrap_or(0), row_len)
}
