//! Elementwise unary and binary kernels.
//!
//! Each is one closure over a range of rows (the last axis) that
//! [`fill_rows`] runs across the pool above `par`'s work gate and once,
//! inline, below it; every output element is its own inputs' expression,
//! so results are the same bits at any thread count.
//!
//! The `tanh`-bound ops (`tanh`, `gelu`, `gelu_backward`) take their
//! `tanh`, and `exp` and `sigmoid` their `exp`, from [`super::libm`], 8
//! lanes at a time on AVX2 hosts and element by element otherwise, with
//! the same bits either way.

use super::libm::{exp_in_place, tanhf};
use super::{fill_rows, last_axis_rows};
use crate::par::{EXP_MACS, STREAM_MACS};
use crate::tensor::Tensor;

/// Apply `f` to every element.
pub fn map(t: &Tensor, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
    map_at(t, STREAM_MACS, f)
}

/// [`map`] at a stated per-element cost.
fn map_at(t: &Tensor, elem_macs: usize, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
    map_rows(t, elem_macs, |src, out| {
        for (o, &v) in out.iter_mut().zip(src) {
            *o = f(v);
        }
    })
}

/// [`map_at`] a run of rows at a time: `kernel(src, out)` fills `out`
/// from the same rows of `t`.
fn map_rows(t: &Tensor, elem_macs: usize, kernel: impl Fn(&[f32], &mut [f32]) + Sync) -> Tensor {
    let (rows, w) = last_axis_rows(t.dims());
    let src = t.data();
    let data = fill_rows(rows, w, w * elem_macs, |r, out| kernel(&src[r.start * w..r.end * w], out));
    Tensor::from_parts(t.shape().clone(), data)
}

/// Elementwise binary op on same-shape tensors.
///
/// # Panics
/// Panics if shapes differ.
pub fn zip(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
    zip_rows(a, b, STREAM_MACS, |x, y, out| {
        for ((o, &x), &y) in out.iter_mut().zip(x).zip(y) {
            *o = f(x, y);
        }
    })
}

/// [`zip`] a run of rows at a time, at a stated per-element cost:
/// `kernel(a_rows, b_rows, out)`.
fn zip_rows(a: &Tensor, b: &Tensor, elem_macs: usize, kernel: impl Fn(&[f32], &[f32], &mut [f32]) + Sync) -> Tensor {
    assert_eq!(
        a.shape(),
        b.shape(),
        "zip: shape mismatch {} vs {}",
        a.shape(),
        b.shape()
    );
    let (rows, w) = last_axis_rows(a.dims());
    let (ad, bd) = (a.data(), b.data());
    let data = fill_rows(rows, w, w * elem_macs, |r, out| {
        let span = r.start * w..r.end * w;
        kernel(&ad[span.clone()], &bd[span], out)
    });
    Tensor::from_parts(a.shape().clone(), data)
}

/// `a + b` (same shape).
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    zip(a, b, |x, y| x + y)
}

/// `a - b` (same shape).
pub fn sub(a: &Tensor, b: &Tensor) -> Tensor {
    zip(a, b, |x, y| x - y)
}

/// `a * b` elementwise (same shape).
pub fn mul(a: &Tensor, b: &Tensor) -> Tensor {
    zip(a, b, |x, y| x * y)
}

/// `a + b` where `b`'s shape is a trailing suffix of `a`'s
/// (e.g. `[B,T,D] + [D]`, `[N,D] + [D]`).
///
/// # Panics
/// Panics if `b` is not a trailing broadcast of `a`.
pub fn add_broadcast(a: &Tensor, b: &Tensor) -> Tensor {
    broadcast_zip(a, b, |x, y| x + y)
}

/// `a * b` with trailing broadcast (see [`add_broadcast`]).
pub fn mul_broadcast(a: &Tensor, b: &Tensor) -> Tensor {
    broadcast_zip(a, b, |x, y| x * y)
}

/// Generic trailing-broadcast binary op: `a` is read as rows of `b`'s
/// size, each paired element for element with `b`.
pub fn broadcast_zip(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
    assert!(
        a.shape().is_trailing_broadcast_of(b.shape()),
        "broadcast_zip: {} cannot broadcast over {}",
        b.shape(),
        a.shape()
    );
    let bn = b.numel().max(1);
    let (ad, bd) = (a.data(), b.data());
    let data = fill_rows(a.numel() / bn, bn, bn * STREAM_MACS, |r, out| {
        let by_row = out.chunks_exact_mut(bn).zip(ad[r.start * bn..r.end * bn].chunks_exact(bn));
        for (o_row, a_row) in by_row {
            for ((o, &x), &y) in o_row.iter_mut().zip(a_row).zip(bd) {
                *o = f(x, y);
            }
        }
    });
    Tensor::from_parts(a.shape().clone(), data)
}

/// Multiply by a scalar.
pub fn scale(t: &Tensor, s: f32) -> Tensor {
    map(t, |v| v * s)
}

/// Add a scalar.
pub fn add_scalar(t: &Tensor, s: f32) -> Tensor {
    map(t, |v| v + s)
}

/// Negation.
pub fn neg(t: &Tensor) -> Tensor {
    map(t, |v| -v)
}

/// Natural exponential.
pub fn exp(t: &Tensor) -> Tensor {
    map_rows(t, EXP_MACS, |src, out| {
        out.copy_from_slice(src);
        exp_in_place(out);
    })
}

/// Natural log.
pub fn ln(t: &Tensor) -> Tensor {
    map_at(t, EXP_MACS, f32::ln)
}

/// Hyperbolic tangent.
pub fn tanh(t: &Tensor) -> Tensor {
    map_rows(t, EXP_MACS, |src, out| TanhOp::Tanh.apply(src, out))
}

/// Logistic sigmoid `1 / (1 + e^-x)`.
pub fn sigmoid(t: &Tensor) -> Tensor {
    map_rows(t, EXP_MACS, |src, out| {
        for (o, &v) in out.iter_mut().zip(src) {
            *o = -v;
        }
        exp_in_place(out);
        for o in out.iter_mut() {
            *o = 1.0 / (1.0 + *o);
        }
    })
}

/// GELU with the tanh approximation used by GPT-2.
pub fn gelu(t: &Tensor) -> Tensor {
    map_rows(t, EXP_MACS, |src, out| TanhOp::Gelu.apply(src, out))
}

/// The gradient through [`gelu`]: `g ⊙ gelu'(x)`.
pub(crate) fn gelu_backward(g: &Tensor, x: &Tensor) -> Tensor {
    zip_rows(g, x, EXP_MACS, |gs, xs, out| {
        TanhOp::GeluGrad.apply(xs, out);
        for (o, &gv) in out.iter_mut().zip(gs) {
            *o = gv * *o;
        }
    })
}

/// GELU's `sqrt(2/π)`.
const GELU_C: f32 = 0.797_884_6;
/// GELU's cubic coefficient.
const GELU_A: f32 = 0.044_715;

/// GPT-2's tanh-approximate GELU on a single value.
#[inline]
pub fn gelu_scalar(x: f32) -> f32 {
    0.5 * x * (1.0 + tanhf(GELU_C * (x + GELU_A * x * x * x)))
}

/// GELU via a rational `tanh` approximation — the quantized-inference
/// variant of [`gelu`].
///
/// Once the matmuls are int8, the exact [`gelu`] is a visible share of
/// the MLP even 8 lanes wide (≈ 3.8 ns per element, against ≈ 1.5 ns
/// here); [`tanh_fast`] is a 13-multiply polynomial ratio accurate to a
/// few ULP, which is far below int8 quantization error. Only the
/// quantized decode path uses this — f32 training and decode keep the
/// exact [`gelu`] so their numerics are untouched.
pub fn gelu_fast(t: &Tensor) -> Tensor {
    map(t, gelu_fast_scalar)
}

/// [`gelu_scalar`] with [`tanh_fast`] substituted for the exact `tanh`.
#[inline]
pub fn gelu_fast_scalar(x: f32) -> f32 {
    0.5 * x * (1.0 + tanh_fast(GELU_C * (x + GELU_A * x * x * x)))
}

/// Fast `tanh` as the ratio of two odd/even polynomials (the classic
/// single-precision Padé fit), exact to within a few ULP on all of `f32`.
/// Deterministic: pure multiplies/divide, no table lookups.
#[inline]
pub fn tanh_fast(x: f32) -> f32 {
    // Saturate first: beyond |x| = 7.90531 the f32 tanh is ±1 exactly,
    // and the polynomial is only a valid fit inside that interval.
    let x = x.clamp(-7.905_31, 7.905_31);
    let x2 = x * x;
    let p = 4.893_524_6e-3
        + x2 * (6.372_619_3e-4
            + x2 * (1.485_722_4e-5
                + x2 * (5.122_297e-8
                    + x2 * (-8.604_672e-11 + x2 * (2.000_188e-13 + x2 * -2.760_768_5e-16)))));
    let q = 4.893_525_3e-3 + x2 * (2.268_434_6e-3 + x2 * (1.185_347e-4 + x2 * 1.198_258_4e-6));
    x * p / q
}

/// Derivative of [`gelu_scalar`] with respect to its input.
#[inline]
fn gelu_grad_scalar(x: f32) -> f32 {
    let x3 = GELU_A * x * x * x;
    let u = GELU_C * (x + x3);
    let t = tanhf(u);
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * GELU_C * (1.0 + 3.0 * GELU_A * x * x)
}

/// The `tanh`-bound elementwise functions, each one `tanh` with a few
/// multiplies and adds around it.
#[derive(Debug, Clone, Copy)]
enum TanhOp {
    Tanh,
    Gelu,
    GeluGrad,
}

impl TanhOp {
    fn scalar(self, x: f32) -> f32 {
        match self {
            TanhOp::Tanh => tanhf(x),
            TanhOp::Gelu => gelu_scalar(x),
            TanhOp::GeluGrad => gelu_grad_scalar(x),
        }
    }

    /// `out[i] = self(src[i])`: 8 lanes at a time with AVX2, the tail and
    /// other hosts one [`Self::scalar`] at a time.
    fn apply(self, src: &[f32], out: &mut [f32]) {
        assert_eq!(src.len(), out.len(), "{self:?}: input and output lengths differ");
        #[cfg(target_arch = "x86_64")]
        if super::simd::use_avx2_fma() {
            // SAFETY(invariant: `use_avx2_fma()` just returned true)
            // `apply_avx`'s one precondition; it reads and writes through
            // the slices' own 8-element chunks.
            unsafe { self.apply_avx(src, out) };
            return;
        }
        for (o, &x) in out.iter_mut().zip(src) {
            *o = self.scalar(x);
        }
    }

    // SAFETY(invariant: unsafe solely for `#[target_feature]` — caller-verified AVX2)
    // Every load and store is one whole `chunks_exact(8)` chunk of `src`
    // or `out`, unaligned.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn apply_avx(self, src: &[f32], out: &mut [f32]) {
        use std::arch::x86_64::*;
        let mut outs = out.chunks_exact_mut(8);
        let mut srcs = src.chunks_exact(8);
        for (o, x) in (&mut outs).zip(&mut srcs) {
            _mm256_storeu_ps(o.as_mut_ptr(), self.lanes(_mm256_loadu_ps(x.as_ptr())));
        }
        for (o, &x) in outs.into_remainder().iter_mut().zip(srcs.remainder()) {
            *o = self.scalar(x);
        }
    }

    /// [`Self::scalar`] on eight lanes: the same operations in the same
    /// order, each rounded on its own (no FMA), around [`super::libm::tanh8`].
    // SAFETY(invariant: unsafe solely for `#[target_feature]` — register-only, called from `apply_avx`)
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn lanes(self, x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
        use super::libm::tanh8;
        use std::arch::x86_64::*;
        let f = _mm256_set1_ps;
        let (add, sub, mul) = (_mm256_add_ps, _mm256_sub_ps, _mm256_mul_ps);
        // GELU's `tanh` argument, `C·(x + A·x³)`.
        let u = mul(f(GELU_C), add(x, mul(mul(mul(f(GELU_A), x), x), x)));
        match self {
            TanhOp::Tanh => tanh8(x),
            TanhOp::Gelu => mul(mul(f(0.5), x), add(f(1.0), tanh8(u))),
            TanhOp::GeluGrad => {
                let t = tanh8(u);
                let sech2 = sub(f(1.0), mul(t, t));
                let slope = add(f(1.0), mul(mul(f(3.0 * GELU_A), x), x));
                add(mul(f(0.5), add(f(1.0), t)), mul(mul(mul(mul(f(0.5), x), sech2), f(GELU_C)), slope))
            }
        }
    }
}

/// Square root.
pub fn sqrt(t: &Tensor) -> Tensor {
    map(t, f32::sqrt)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), &[v.len()]).unwrap()
    }

    #[test]
    fn binary_ops() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[4.0, 5.0, 6.0]);
        assert_eq!(add(&a, &b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(sub(&b, &a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(mul(&a, &b).data(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn binary_shape_mismatch_panics() {
        add(&t(&[1.0]), &t(&[1.0, 2.0]));
    }

    #[test]
    fn broadcast_add_rows() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = t(&[10.0, 20.0, 30.0]);
        let c = add_broadcast(&a, &b);
        assert_eq!(c.data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    #[should_panic(expected = "cannot broadcast")]
    fn broadcast_wrong_suffix_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2]);
        add_broadcast(&a, &b);
    }

    #[test]
    fn activations_reference_values() {
        let x = t(&[0.0]);
        assert_eq!(sigmoid(&x).data()[0], 0.5);
        assert_eq!(tanh(&x).data()[0], 0.0);
        // GELU(0) = 0, GELU(x) ≈ x for large x, ≈ 0 for very negative x.
        assert_eq!(gelu(&x).data()[0], 0.0);
        assert!((gelu(&t(&[10.0])).data()[0] - 10.0).abs() < 1e-4);
        assert!(gelu(&t(&[-10.0])).data()[0].abs() < 1e-4);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-3.0f32, -1.0, -0.1, 0.0, 0.5, 2.0, 4.0] {
            let h = 1e-3;
            let fd = (gelu_scalar(x + h) - gelu_scalar(x - h)) / (2.0 * h);
            let an = gelu_grad_scalar(x);
            assert!(
                (fd - an).abs() < 1e-2,
                "gelu'({x}) fd={fd} analytic={an}"
            );
        }
    }

    /// Every element of the `tanh`-bound ops equals its scalar expression
    /// in whichever lane or tail position it lands: three rows at widths
    /// around the 8-lane chunk, with values in every branch of `tanh`
    /// (zero, tiny, saturated, infinite, NaN) between the ordinary ones.
    #[test]
    fn tanh_ops_equal_their_scalar_expressions_in_every_lane() {
        let specials = [0.0, -0.0, 1e-30, -3e-20, 7.7, -9.0, 30.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for w in [1usize, 7, 8, 9, 13, 512] {
            let x: Vec<f32> = (0..3 * w)
                .map(|i| if i % 5 == 2 { specials[i / 5 % specials.len()] } else { (i as f32 * 0.618).sin() * 6.0 })
                .collect();
            let g: Vec<f32> = (0..3 * w).map(|i| (i as f32 * 0.37).cos()).collect();
            let (xt, gt) = (Tensor::from_vec(x.clone(), &[3, w]).unwrap(), Tensor::from_vec(g.clone(), &[3, w]).unwrap());
            let each = |f: &dyn Fn(usize) -> f32| bits(&(0..3 * w).map(f).collect::<Vec<f32>>());
            assert_eq!(bits(tanh(&xt).data()), each(&|i| tanhf(x[i])), "tanh at width {w}");
            assert_eq!(bits(gelu(&xt).data()), each(&|i| gelu_scalar(x[i])), "gelu at width {w}");
            assert_eq!(
                bits(gelu_backward(&gt, &xt).data()),
                each(&|i| g[i] * gelu_grad_scalar(x[i])),
                "gelu_backward at width {w}"
            );
        }
    }

    /// `exp` and `sigmoid` equal their scalar expressions over `expf` in
    /// every lane and tail position, edge lanes (`|x| ≥ 88`, `±inf`, NaN)
    /// included.
    #[test]
    fn exp_ops_equal_their_scalar_expressions_in_every_lane() {
        use super::super::libm::expf;
        let specials = [0.0, -0.0, 88.5, -95.0, -103.5, -110.0, 100.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for w in [1usize, 7, 8, 9, 13, 512] {
            let x: Vec<f32> = (0..3 * w)
                .map(|i| if i % 5 == 2 { specials[i / 5 % specials.len()] } else { (i as f32 * 0.618).sin() * 20.0 })
                .collect();
            let xt = Tensor::from_vec(x.clone(), &[3, w]).unwrap();
            assert_eq!(bits(exp(&xt).data()), bits(&x.iter().map(|&v| expf(v)).collect::<Vec<f32>>()), "exp at width {w}");
            let want: Vec<f32> = x.iter().map(|&v| 1.0 / (1.0 + expf(-v))).collect();
            assert_eq!(bits(sigmoid(&xt).data()), bits(&want), "sigmoid at width {w}");
        }
    }

    #[test]
    fn scalar_ops() {
        let a = t(&[1.0, -2.0]);
        assert_eq!(scale(&a, 2.0).data(), &[2.0, -4.0]);
        assert_eq!(add_scalar(&a, 1.0).data(), &[2.0, -1.0]);
        assert_eq!(neg(&a).data(), &[-1.0, 2.0]);
    }

    #[test]
    fn tanh_fast_tracks_libm_to_a_few_ulp() {
        for i in -4000..=4000 {
            let x = i as f32 * 2.5e-3; // dense grid over [-10, 10]
            let exact = tanhf(x);
            let fast = tanh_fast(x);
            assert!(
                (exact - fast).abs() <= 2e-7 + exact.abs() * 4.0 * f32::EPSILON,
                "tanh_fast({x}) = {fast}, tanhf = {exact}"
            );
        }
        // saturation: within a few ULP of ±1 well past the clamp point,
        // and odd symmetry / exact zero at the origin
        assert!((tanh_fast(50.0) - 1.0).abs() <= 2e-7);
        assert_eq!(tanh_fast(50.0), -tanh_fast(-50.0));
        assert_eq!(tanh_fast(0.0), 0.0);
    }

    #[test]
    fn gelu_fast_tracks_exact_gelu() {
        for i in -800..=800 {
            let x = i as f32 * 1e-2;
            let d = (gelu_scalar(x) - gelu_fast_scalar(x)).abs();
            assert!(d <= 1e-6 + x.abs() * 1e-6, "gelu mismatch at {x}: {d}");
        }
    }
}
