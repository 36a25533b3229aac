//! Reduction kernels — plus the blessed scalar accumulation helpers.
//!
//! Everything that reduces floats in a result-affecting crate must either
//! live in this directory or route through the re-exported
//! `ratatouille_util::accum` helpers below (`xlint`: `float-reduction-order`).

use super::fill_rows;
use crate::par::COPY_MACS;
use crate::shape::Shape;
use crate::tensor::Tensor;

pub use ratatouille_util::accum::{max_abs_f32, sum_f32};

/// Sum of all elements, as a rank-0 tensor.
pub fn sum_all(t: &Tensor) -> Tensor {
    Tensor::scalar(t.data().iter().sum())
}

/// Mean of all elements, as a rank-0 tensor. Returns 0 for empty tensors.
pub fn mean_all(t: &Tensor) -> Tensor {
    let n = t.numel();
    if n == 0 {
        return Tensor::scalar(0.0);
    }
    Tensor::scalar(t.data().iter().sum::<f32>() / n as f32)
}

/// Reduce `t` down to a trailing-suffix shape by summing over the leading
/// dimensions. Inverse of trailing broadcast — used to compute gradients of
/// broadcast ops (e.g. a bias of shape `[D]` added into `[B,T,D]`).
///
/// # Panics
/// Panics if `target` is not a trailing suffix of `t`'s shape.
pub fn sum_to_trailing(t: &Tensor, target: &[usize]) -> Tensor {
    let tgt = Shape(target.to_vec());
    assert!(
        t.shape().is_trailing_broadcast_of(&tgt),
        "sum_to_trailing: {} is not a trailing suffix of {}",
        tgt,
        t.shape()
    );
    let tail = tgt.numel().max(1);
    let rows = t.numel() / tail;
    let src = t.data();
    // Cut by output column; each column adds its rows in ascending order
    // from 0.0, the order the serial `out[i % tail] += v` sweep used.
    let out = fill_rows(tail, 1, rows * COPY_MACS, |cols, out| {
        for row in src.chunks_exact(tail) {
            for (o, &v) in out.iter_mut().zip(&row[cols.clone()]) {
                *o += v;
            }
        }
    });
    Tensor::from_parts(tgt, out)
}

/// Index of the maximum element along the last axis, per row.
/// Ties resolve to the lowest index.
pub fn argmax_last(t: &Tensor) -> Vec<usize> {
    assert!(t.rank() >= 1, "argmax_last requires rank >= 1");
    let d = *t.dims().last().unwrap();
    assert!(d > 0, "argmax_last: empty last axis");
    let rows = t.numel() / d;
    let mut out = Vec::with_capacity(rows);
    for r in 0..rows {
        let row = &t.data()[r * d..(r + 1) * d];
        let mut best = 0usize;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        out.push(best);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(sum_all(&t).item(), 10.0);
        assert_eq!(mean_all(&t).item(), 2.5);
    }

    #[test]
    fn sum_to_trailing_bias_grad() {
        // grad of [2,3] broadcast over [D=3] bias
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0, 10.0, 20.0, 30.0], &[2, 3]).unwrap();
        let r = sum_to_trailing(&g, &[3]);
        assert_eq!(r.data(), &[11.0, 22.0, 33.0]);
    }

    #[test]
    fn sum_to_trailing_scalar() {
        let g = Tensor::ones(&[4, 5]);
        let r = sum_to_trailing(&g, &[]);
        assert_eq!(r.item(), 20.0);
    }

    #[test]
    fn argmax_rows() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.5, 0.7, 0.2, 0.3], &[2, 3]).unwrap();
        assert_eq!(argmax_last(&t), vec![1, 0]);
    }

    #[test]
    fn argmax_tie_lowest_index() {
        let t = Tensor::from_vec(vec![1.0, 1.0, 1.0], &[3]).unwrap();
        assert_eq!(argmax_last(&t), vec![0]);
    }
}
