//! Neural-network-specific kernels: softmax family, layer norm,
//! embedding lookup, cross-entropy, slicing, and the backward passes of
//! the row kernels.
//!
//! The row kernels and copies here are closures over a range of rows that
//! [`fill_rows`] spreads across the pool above `par`'s work gate (rows are
//! independent; column reductions run by column, rows ascending), so
//! results are the same bits at any thread count.

use super::{fill_rows, fill_rows_zeroed, last_axis_rows, libm};
use crate::par::{COPY_MACS, EXP_MACS, STREAM_MACS};
use crate::recycle;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Numerically stable softmax over the last axis.
pub fn softmax_last(t: &Tensor) -> Tensor {
    assert!(t.rank() >= 1, "softmax_last requires rank >= 1");
    let (rows, d) = last_axis_rows(t.dims());
    assert!(d > 0, "softmax_last: empty last axis");
    let src = t.data();
    let out = fill_rows(rows, d, d * EXP_MACS, |r, out| {
        for (o, row) in out.chunks_exact_mut(d).zip(src[r.start * d..r.end * d].chunks_exact(d)) {
            softmax_row(row, o);
        }
    });
    Tensor::from_parts(t.shape().clone(), out)
}

/// Softmax Jacobian-vector product over the last axis:
/// `dx = p ⊙ (dy − rowsum(dy ⊙ p))`, given the softmax output `p`.
pub(crate) fn softmax_backward(dy: &Tensor, p: &Tensor) -> Tensor {
    let (rows, d) = last_axis_rows(p.dims());
    let (pd, dyd) = (p.data(), dy.data());
    let dx = fill_rows(rows, d, d * EXP_MACS, |r, out| {
        let span = r.start * d..r.end * d;
        let by_row = out.chunks_exact_mut(d).zip(pd[span.clone()].chunks_exact(d)).zip(dyd[span].chunks_exact(d));
        for ((o, prow), dyrow) in by_row {
            let dot = super::sum_f32(prow.iter().zip(dyrow).map(|(&a, &b)| a * b));
            for j in 0..d {
                o[j] = prow[j] * (dyrow[j] - dot);
            }
        }
    });
    Tensor::from_parts(p.shape().clone(), dx)
}

/// Softmax of a single row into `out` (the same length).
///
/// The exps run 8 at a time ([`libm::exp_in_place`]); the max, the
/// running sum in index order and the normalisation are scalar, so every
/// element is `expf(v − max) · (1 / Σ)` with the sum's rounding fixed.
#[inline]
pub fn softmax_row(row: &[f32], out: &mut [f32]) {
    debug_assert_eq!(row.len(), out.len(), "softmax_row: input and output lengths differ");
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for (o, &v) in out.iter_mut().zip(row) {
        *o = v - max;
    }
    libm::exp_in_place(out);
    let mut sum = 0.0f32;
    for &e in out.iter() {
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
/// The attention-weights kernel of the tests' reference chain; training
/// runs the same `softmax_row` per row inside the fused attention kernel.
#[cfg(test)]
pub(crate) fn causal_masked_softmax(t: &Tensor) -> Tensor {
    assert!(t.rank() >= 2, "causal_masked_softmax requires rank >= 2");
    let tt = *t.dims().last().unwrap();
    assert_eq!(
        t.dims()[t.rank() - 2],
        tt,
        "causal_masked_softmax: trailing matrix must be square, got {}",
        t.shape()
    );
    let (rows, _) = last_axis_rows(t.dims());
    let src = t.data();
    let out = fill_rows(rows, tt, tt * EXP_MACS, |r, out| {
        let by_row = out.chunks_exact_mut(tt).zip(src[r.start * tt..r.end * tt].chunks_exact(tt));
        for (row, (o, s)) in r.zip(by_row) {
            // Row `i` of its matrix sees only `j <= i`; the rest of `o`
            // is 0 (future positions masked).
            let i = row % tt;
            softmax_row(&s[..=i], &mut o[..=i]);
            o[i + 1..].fill(0.0);
        }
    });
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
    let (rows, _) = last_axis_rows(t.dims());
    let src = t.data();
    // Two passes by row: each row's `[mean, rstd]`, then the normalized
    // row from them.
    let stats = fill_rows(rows, 2, d * EXP_MACS, |r, out| {
        for (st, row) in out.chunks_exact_mut(2).zip(src[r.start * d..r.end * d].chunks_exact(d)) {
            let mean = row.iter().sum::<f32>() / d as f32;
            let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            st[0] = mean;
            st[1] = 1.0 / (var + eps).sqrt();
        }
    });
    let (g, b) = (gamma.data(), beta.data());
    let out = fill_rows(rows, d, d * STREAM_MACS, |r, out| {
        let by_row = out.chunks_exact_mut(d).zip(src[r.start * d..r.end * d].chunks_exact(d));
        for ((o, row), st) in by_row.zip(stats[2 * r.start..2 * r.end].chunks_exact(2)) {
            let (mean, rstd) = (st[0], st[1]);
            for (j, (o, &v)) in o.iter_mut().zip(row).enumerate() {
                *o = (v - mean) * rstd * g[j] + b[j];
            }
        }
    });
    let (means, rstds) = stats.chunks_exact(2).map(|st| (st[0], st[1])).unzip();
    let lead: Vec<usize> = t.dims()[..t.rank() - 1].to_vec();
    (
        Tensor::from_parts(t.shape().clone(), out),
        Tensor::from_parts(Shape(lead.clone()), means),
        Tensor::from_parts(Shape(lead), rstds),
    )
}

/// The backward pass of [`layer_norm`]: `(dx, dgamma, dbeta)` from the
/// input `x`, `gamma`, the saved per-row `mean`/`rstd` and the output
/// gradient `dy`.
pub(crate) fn layer_norm_backward(
    x: &Tensor,
    gamma: &Tensor,
    mean: &Tensor,
    rstd: &Tensor,
    dy: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let (rows, d) = last_axis_rows(x.dims());
    let (xd, gd, md, rd, dyd) = (x.data(), gamma.data(), mean.data(), rstd.data(), dy.data());
    // dx by row: x̂ and the two row means the dx formula needs.
    let dx = fill_rows(rows, d, d * EXP_MACS, |r, out| {
        let span = r.start * d..r.end * d;
        let by_row = out.chunks_exact_mut(d).zip(xd[span.clone()].chunks_exact(d)).zip(dyd[span].chunks_exact(d));
        for (row, ((o, xrow), dyrow)) in r.zip(by_row) {
            let (mu, rs) = (md[row], rd[row]);
            let mut mean_dxhat = 0.0f32;
            let mut mean_dxhat_xhat = 0.0f32;
            for j in 0..d {
                let xhat = (xrow[j] - mu) * rs;
                let dxhat = dyrow[j] * gd[j];
                mean_dxhat += dxhat;
                mean_dxhat_xhat += dxhat * xhat;
            }
            mean_dxhat /= d as f32;
            mean_dxhat_xhat /= d as f32;
            for j in 0..d {
                let xhat = (xrow[j] - mu) * rs;
                let dxhat = dyrow[j] * gd[j];
                o[j] = rs * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat);
            }
        }
    });
    // dgamma and dbeta by column as `[d, 2]`: each column adds its rows in
    // ascending order from 0.0.
    let dparams = fill_rows_zeroed(d, 2, rows * STREAM_MACS, |cols, out| {
        let by_row = xd.chunks_exact(d).zip(dyd.chunks_exact(d)).zip(md.iter().zip(rd));
        for ((xrow, dyrow), (&mu, &rs)) in by_row {
            for (j, acc) in cols.clone().zip(out.chunks_exact_mut(2)) {
                let xhat = (xrow[j] - mu) * rs;
                acc[0] += dyrow[j] * xhat;
                acc[1] += dyrow[j];
            }
        }
    });
    let (dgamma, dbeta) = dparams.chunks_exact(2).map(|p| (p[0], p[1])).unzip();
    (
        Tensor::from_parts(x.shape().clone(), dx),
        Tensor::from_parts(Shape(vec![d]), dgamma),
        Tensor::from_parts(Shape(vec![d]), dbeta),
    )
}

/// Embedding lookup: gather rows of `table: [V, D]` at `ids` → `[N, D]`.
///
/// # Panics
/// Panics if any id is out of vocabulary.
pub fn embedding(table: &Tensor, ids: &[usize]) -> Tensor {
    assert_eq!(table.rank(), 2, "embedding table must be rank-2");
    let (v, d) = (table.dims()[0], table.dims()[1]);
    let mut out = recycle::take(ids.len() * d);
    for (i, &id) in ids.iter().enumerate() {
        assert!(id < v, "embedding: id {id} out of vocabulary (V={v})");
        out[i * d..(i + 1) * d].copy_from_slice(&table.data()[id * d..(id + 1) * d]);
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
    let probs = softmax_last(logits);
    let mut loss = 0.0f64;
    let mut kept = 0usize;
    for (p, &t) in probs.data().chunks_exact(v).zip(targets) {
        if t == ignore_index {
            continue;
        }
        assert!(t < v, "cross_entropy: target {t} out of vocab {v}");
        loss += -(p[t].max(1e-12) as f64).ln();
        kept += 1;
    }
    let loss = if kept == 0 { 0.0 } else { (loss / kept as f64) as f32 };
    (loss, probs)
}

/// The backward pass of [`cross_entropy`]: `(probs − onehot) · scale` by
/// row, with rows whose target is `ignore_index` zero.
pub(crate) fn cross_entropy_backward(probs: &Tensor, targets: &[usize], ignore_index: usize, scale: f32) -> Tensor {
    let (n, v) = (probs.dims()[0], probs.dims()[1]);
    let pd = probs.data();
    let dl = fill_rows(n, v, v * STREAM_MACS, |r, out| {
        let by_row = out.chunks_exact_mut(v).zip(pd[r.start * v..r.end * v].chunks_exact(v));
        for ((o, p), &t) in by_row.zip(&targets[r]) {
            if t == ignore_index {
                o.fill(0.0);
                continue;
            }
            o.copy_from_slice(p);
            o[t] -= 1.0;
            for x in o.iter_mut() {
                *x *= scale;
            }
        }
    });
    Tensor::from_parts(Shape(vec![n, v]), dl)
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
    let (src, run, src_row) = (t.data(), len * inner, dims[axis] * inner);
    // One row per index of the axes before `axis`: a contiguous run.
    let out = fill_rows(outer, run, run * COPY_MACS, |r, out| {
        for (k, o) in r.enumerate() {
            let base = o * src_row + start * inner;
            out[k * run..(k + 1) * run].copy_from_slice(&src[base..base + run]);
        }
    });
    Tensor::from_parts(Shape(out_dims), out)
}

/// Inverse of [`narrow`] for gradients: place `grad` into a zero tensor of
/// shape `full_dims` at `start` along `axis`.
pub fn pad_narrow_grad(grad: &Tensor, full_dims: &[usize], axis: usize, start: usize) -> Tensor {
    let len = grad.dims()[axis];
    let outer: usize = full_dims[..axis].iter().product();
    let inner: usize = full_dims[axis + 1..].iter().product();
    let (g, run, dst_row) = (grad.data(), len * inner, full_dims[axis] * inner);
    // One row per index of the axes before `axis`, zero outside the run.
    let out = fill_rows(outer, dst_row, dst_row * COPY_MACS, |r, out| {
        for (k, o) in r.enumerate() {
            let (before, rest) = out[k * dst_row..(k + 1) * dst_row].split_at_mut(start * inner);
            let (run_dst, after) = rest.split_at_mut(run);
            before.fill(0.0);
            run_dst.copy_from_slice(&g[o * run..(o + 1) * run]);
            after.fill(0.0);
        }
    });
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
    let mut out = recycle::take(out_dims.iter().product());
    let mut at = 0;
    for o in 0..outer {
        for p in parts {
            let len = p.dims()[axis] * inner;
            out[at..at + len].copy_from_slice(&p.data()[o * len..(o + 1) * len]);
            at += len;
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

    /// Every element of `softmax_row` equals the scalar loop's — `expf(v −
    /// max)` one at a time, summed in index order — in whichever lane or
    /// padded tail it lands, at widths around the 8-lane group and at
    /// decode's attention widths, with values that send lanes to the
    /// scalar `expf` (`v − max ≤ −88`, `-inf`) between ordinary ones.
    #[test]
    fn softmax_row_equals_the_scalar_loop_in_every_lane() {
        fn scalar(row: &[f32], out: &mut [f32]) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for (o, &v) in out.iter_mut().zip(row) {
                let e = libm::expf(v - max);
                *o = e;
                sum += e;
            }
            for o in out.iter_mut() {
                *o *= 1.0 / sum;
            }
        }
        let specials = [-90.0, -104.0, -103.5, f32::NEG_INFINITY, 88.5, -0.0];
        for w in [1usize, 7, 8, 9, 13, 164, 256] {
            for nan in [false, true] {
                let row: Vec<f32> = (0..w)
                    .map(|i| match i % 6 {
                        4 => specials[i / 6 % specials.len()],
                        _ if nan && i == w / 2 => f32::NAN,
                        _ => (i as f32 * 0.618).sin() * 9.0,
                    })
                    .collect();
                let (mut got, mut want) = (vec![0.0; w], vec![0.0; w]);
                softmax_row(&row, &mut got);
                scalar(&row, &mut want);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
                assert_eq!(bits(&got), bits(&want), "width {w}, NaN {nan}");
            }
        }
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
