//! Neural-network-specific forward kernels: softmax family, layer norm,
//! embedding lookup, cross-entropy, slicing.

use crate::shape::Shape;
use crate::tensor::Tensor;

/// Numerically stable softmax over the last axis.
pub fn softmax_last(t: &Tensor) -> Tensor {
    assert!(t.rank() >= 1, "softmax_last requires rank >= 1");
    let d = *t.dims().last().unwrap();
    assert!(d > 0, "softmax_last: empty last axis");
    let rows = t.numel() / d;
    let mut out = vec![0.0f32; t.numel()];
    for r in 0..rows {
        let row = &t.data()[r * d..(r + 1) * d];
        let o = &mut out[r * d..(r + 1) * d];
        softmax_row(row, o);
    }
    Tensor::from_parts(t.shape().clone(), out)
}

/// Softmax of a single row into `out`.
#[inline]
pub fn softmax_row(row: &[f32], out: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for (o, &v) in out.iter_mut().zip(row) {
        let e = (v - max).exp();
        *o = e;
        sum += e;
    }
    let inv = 1.0 / sum;
    for o in out.iter_mut() {
        *o *= inv;
    }
}

/// Softmax over the last axis of square `[.., T, T]` score matrices with a
/// causal mask: position `(i, j)` with `j > i` receives zero probability.
///
/// This is the attention-weights kernel for autoregressive transformers.
pub fn causal_masked_softmax(t: &Tensor) -> Tensor {
    assert!(t.rank() >= 2, "causal_masked_softmax requires rank >= 2");
    let tt = *t.dims().last().unwrap();
    assert_eq!(
        t.dims()[t.rank() - 2],
        tt,
        "causal_masked_softmax: trailing matrix must be square, got {}",
        t.shape()
    );
    let mats = t.numel() / (tt * tt);
    let mut out = vec![0.0f32; t.numel()];
    for m in 0..mats {
        for i in 0..tt {
            let base = m * tt * tt + i * tt;
            let row = &t.data()[base..base + i + 1]; // only j <= i
            let o = &mut out[base..base + i + 1];
            softmax_row(row, o);
            // out[base + i+1 ..] stays 0 (future positions masked)
        }
    }
    Tensor::from_parts(t.shape().clone(), out)
}

/// Layer normalization over the last axis with affine parameters, returning
/// `(out, mean, rstd)`; the saved statistics feed the backward pass.
///
/// `gamma`/`beta` must be rank-1 of the last-axis length.
pub fn layer_norm(t: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> (Tensor, Tensor, Tensor) {
    let d = *t.dims().last().expect("layer_norm requires rank >= 1");
    assert_eq!(gamma.dims(), &[d], "layer_norm: gamma must be [{d}]");
    assert_eq!(beta.dims(), &[d], "layer_norm: beta must be [{d}]");
    let rows = t.numel() / d;
    let mut out = vec![0.0f32; t.numel()];
    let mut means = vec![0.0f32; rows];
    let mut rstds = vec![0.0f32; rows];
    let (g, b) = (gamma.data(), beta.data());
    for r in 0..rows {
        let row = &t.data()[r * d..(r + 1) * d];
        let mean = row.iter().sum::<f32>() / d as f32;
        let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
        let rstd = 1.0 / (var + eps).sqrt();
        means[r] = mean;
        rstds[r] = rstd;
        for (j, (o, &v)) in out[r * d..(r + 1) * d].iter_mut().zip(row).enumerate() {
            *o = (v - mean) * rstd * g[j] + b[j];
        }
    }
    let lead: Vec<usize> = t.dims()[..t.rank() - 1].to_vec();
    (
        Tensor::from_parts(t.shape().clone(), out),
        Tensor::from_parts(Shape(lead.clone()), means),
        Tensor::from_parts(Shape(lead), rstds),
    )
}

/// Embedding lookup: gather rows of `table: [V, D]` at `ids` → `[N, D]`.
///
/// # Panics
/// Panics if any id is out of vocabulary.
pub fn embedding(table: &Tensor, ids: &[usize]) -> Tensor {
    assert_eq!(table.rank(), 2, "embedding table must be rank-2");
    let (v, d) = (table.dims()[0], table.dims()[1]);
    let mut out = Vec::with_capacity(ids.len() * d);
    for &id in ids {
        assert!(id < v, "embedding: id {id} out of vocabulary (V={v})");
        out.extend_from_slice(&table.data()[id * d..(id + 1) * d]);
    }
    Tensor::from_parts(Shape(vec![ids.len(), d]), out)
}

/// Mean cross-entropy of `logits: [N, V]` against integer `targets` (len N),
/// with targets equal to `ignore_index` skipped (used for padding).
///
/// Returns `(loss, probs)` where `probs: [N, V]` is the softmax of the
/// logits (reused by the backward pass: `dlogits = (probs - onehot)/N_kept`).
pub fn cross_entropy(logits: &Tensor, targets: &[usize], ignore_index: usize) -> (f32, Tensor) {
    assert_eq!(logits.rank(), 2, "cross_entropy: logits must be [N, V]");
    let (n, v) = (logits.dims()[0], logits.dims()[1]);
    assert_eq!(targets.len(), n, "cross_entropy: {n} logit rows vs {} targets", targets.len());
    let mut probs = vec![0.0f32; n * v];
    let mut loss = 0.0f64;
    let mut kept = 0usize;
    for r in 0..n {
        let row = &logits.data()[r * v..(r + 1) * v];
        let p = &mut probs[r * v..(r + 1) * v];
        softmax_row(row, p);
        let t = targets[r];
        if t == ignore_index {
            continue;
        }
        assert!(t < v, "cross_entropy: target {t} out of vocab {v}");
        loss += -(p[t].max(1e-12) as f64).ln();
        kept += 1;
    }
    let loss = if kept == 0 { 0.0 } else { (loss / kept as f64) as f32 };
    (loss, Tensor::from_parts(Shape(vec![n, v]), probs))
}

/// Slice `len` elements starting at `start` along `axis` (copying).
pub fn narrow(t: &Tensor, axis: usize, start: usize, len: usize) -> Tensor {
    assert!(axis < t.rank(), "narrow: axis {axis} out of rank {}", t.rank());
    let dims = t.dims();
    assert!(
        start + len <= dims[axis],
        "narrow: [{start}, {}) out of dim {} (size {})",
        start + len,
        axis,
        dims[axis]
    );
    let outer: usize = dims[..axis].iter().product();
    let inner: usize = dims[axis + 1..].iter().product();
    let mut out_dims = dims.to_vec();
    out_dims[axis] = len;
    let mut out = Vec::with_capacity(outer * len * inner);
    let src = t.data();
    for o in 0..outer {
        let base = o * dims[axis] * inner + start * inner;
        out.extend_from_slice(&src[base..base + len * inner]);
    }
    Tensor::from_parts(Shape(out_dims), out)
}

/// Inverse of [`narrow`] for gradients: place `grad` into a zero tensor of
/// shape `full_dims` at `start` along `axis`.
pub fn pad_narrow_grad(grad: &Tensor, full_dims: &[usize], axis: usize, start: usize) -> Tensor {
    let len = grad.dims()[axis];
    let outer: usize = full_dims[..axis].iter().product();
    let inner: usize = full_dims[axis + 1..].iter().product();
    let mut out = vec![0.0f32; full_dims.iter().product()];
    let g = grad.data();
    for o in 0..outer {
        let dst_base = o * full_dims[axis] * inner + start * inner;
        let src_base = o * len * inner;
        out[dst_base..dst_base + len * inner]
            .copy_from_slice(&g[src_base..src_base + len * inner]);
    }
    Tensor::from_parts(Shape(full_dims.to_vec()), out)
}

/// Concatenate tensors along `axis`. All other dims must match.
pub fn concat(parts: &[&Tensor], axis: usize) -> Tensor {
    assert!(!parts.is_empty(), "concat: no tensors");
    let rank = parts[0].rank();
    assert!(axis < rank, "concat: axis out of rank");
    let mut out_dims = parts[0].dims().to_vec();
    let mut axis_total = 0usize;
    for p in parts {
        assert_eq!(p.rank(), rank, "concat: rank mismatch");
        for (d, (&a, &b)) in p.dims().iter().zip(parts[0].dims()).enumerate() {
            if d != axis {
                assert_eq!(a, b, "concat: dim {d} mismatch");
            }
        }
        axis_total += p.dims()[axis];
    }
    out_dims[axis] = axis_total;
    let outer: usize = out_dims[..axis].iter().product();
    let inner: usize = out_dims[axis + 1..].iter().product();
    let mut out = Vec::with_capacity(out_dims.iter().product());
    for o in 0..outer {
        for p in parts {
            let pa = p.dims()[axis];
            let base = o * pa * inner;
            out.extend_from_slice(&p.data()[base..base + pa * inner]);
        }
    }
    Tensor::from_parts(Shape(out_dims), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let s = softmax_last(&t);
        for r in 0..2 {
            let sum: f32 = s.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // larger logit -> larger prob
        assert!(s.at(&[0, 2]) > s.at(&[0, 1]));
    }

    #[test]
    fn softmax_is_shift_stable() {
        let a = Tensor::from_vec(vec![1000.0, 1001.0, 1002.0], &[3]).unwrap();
        let s = softmax_last(&a);
        assert!(!s.has_non_finite());
        let b = softmax_last(&Tensor::from_vec(vec![0.0, 1.0, 2.0], &[3]).unwrap());
        assert!(s.allclose(&b, 1e-5));
    }

    #[test]
    fn causal_mask_zeroes_future() {
        let t = Tensor::ones(&[1, 3, 3]);
        let s = causal_masked_softmax(&t);
        // row 0: only position 0 allowed
        assert_eq!(s.at(&[0, 0, 0]), 1.0);
        assert_eq!(s.at(&[0, 0, 1]), 0.0);
        assert_eq!(s.at(&[0, 0, 2]), 0.0);
        // row 1: uniform over first two
        assert!((s.at(&[0, 1, 0]) - 0.5).abs() < 1e-6);
        assert!((s.at(&[0, 1, 1]) - 0.5).abs() < 1e-6);
        assert_eq!(s.at(&[0, 1, 2]), 0.0);
        // row 2: uniform over all three
        assert!((s.at(&[0, 2, 2]) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn layer_norm_normalizes() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]).unwrap();
        let g = Tensor::ones(&[4]);
        let b = Tensor::zeros(&[4]);
        let (o, mean, rstd) = layer_norm(&t, &g, &b, 1e-5);
        assert!((mean.item() - 2.5).abs() < 1e-6);
        let m: f32 = o.data().iter().sum::<f32>() / 4.0;
        let v: f32 = o.data().iter().map(|&x| (x - m) * (x - m)).sum::<f32>() / 4.0;
        assert!(m.abs() < 1e-5);
        assert!((v - 1.0).abs() < 1e-3);
        assert!(rstd.item() > 0.0);
    }

    #[test]
    fn layer_norm_affine() {
        let t = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let g = Tensor::from_vec(vec![2.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap();
        let (o, _, _) = layer_norm(&t, &g, &b, 1e-5);
        // normalized is approximately [-1, 1] => affine: [-1, 3]
        assert!((o.data()[0] + 1.0).abs() < 1e-2);
        assert!((o.data()[1] - 3.0).abs() < 1e-2);
    }

    #[test]
    fn embedding_gathers_rows() {
        let table = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[3, 2]).unwrap();
        let e = embedding(&table, &[2, 0, 2]);
        assert_eq!(e.dims(), &[3, 2]);
        assert_eq!(e.data(), &[4.0, 5.0, 0.0, 1.0, 4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn embedding_oov_panics() {
        let table = Tensor::zeros(&[3, 2]);
        embedding(&table, &[3]);
    }

    #[test]
    fn cross_entropy_perfect_prediction_near_zero() {
        // logits hugely favoring the target
        let logits = Tensor::from_vec(vec![100.0, 0.0, 0.0, 0.0, 100.0, 0.0], &[2, 3]).unwrap();
        let (loss, probs) = cross_entropy(&logits, &[0, 1], usize::MAX);
        assert!(loss < 1e-4, "loss {loss}");
        assert!((probs.at(&[0, 0]) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn cross_entropy_uniform_is_ln_v() {
        let logits = Tensor::zeros(&[1, 4]);
        let (loss, _) = cross_entropy(&logits, &[2], usize::MAX);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_ignores_padding() {
        let logits = Tensor::zeros(&[2, 4]);
        let pad = 999;
        let (loss, _) = cross_entropy(&logits, &[1, pad], pad);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
        // all ignored -> zero loss, no NaN
        let (loss2, _) = cross_entropy(&logits, &[pad, pad], pad);
        assert_eq!(loss2, 0.0);
    }

    #[test]
    fn narrow_and_pad_roundtrip() {
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 4]).unwrap();
        let n = narrow(&t, 2, 1, 2);
        assert_eq!(n.dims(), &[2, 3, 2]);
        assert_eq!(n.at(&[0, 0, 0]), 1.0);
        assert_eq!(n.at(&[1, 2, 1]), 22.0);
        let padded = pad_narrow_grad(&n, &[2, 3, 4], 2, 1);
        assert_eq!(padded.at(&[0, 0, 0]), 0.0);
        assert_eq!(padded.at(&[0, 0, 1]), 1.0);
        assert_eq!(padded.at(&[1, 2, 3]), 0.0);
    }

    #[test]
    fn narrow_axis0() {
        let t = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[3, 2]).unwrap();
        let n = narrow(&t, 0, 1, 2);
        assert_eq!(n.dims(), &[2, 2]);
        assert_eq!(n.data(), &[2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn concat_axis1() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 5.0, 6.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 7.0], &[2, 1]).unwrap();
        let c = concat(&[&a, &b], 1);
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.data(), &[1.0, 2.0, 3.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn concat_then_narrow_recovers_parts() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[1, 2]).unwrap();
        let c = concat(&[&a, &b], 0);
        assert_eq!(narrow(&c, 0, 0, 1), a);
        assert_eq!(narrow(&c, 0, 1, 1), b);
    }
}
