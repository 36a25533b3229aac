//! Differentiable operations on [`Var`].
//!
//! Each op computes its forward value with the pure kernels in
//! [`crate::ops`] and registers a backward closure that maps the node's
//! output gradient to per-parent input gradients. The closures capture the
//! (immutable, cheaply-clonable) tensors they need, and only those: the
//! graph links parents without their values, so whatever a closure does
//! not capture is freed when the forward code drops its handle.
//!
//! Every op here is validated against central finite differences in the
//! test module at the bottom of this file.

use crate::autograd::Var;
use crate::ops;
use crate::par::STREAM_MACS;
use crate::recycle;
use crate::shape::Shape;
use crate::tensor::Tensor;

impl Var {
    // ------------------------------------------------------------------
    // Arithmetic
    // ------------------------------------------------------------------

    /// Elementwise addition (same shape).
    pub fn add(&self, other: &Var) -> Var {
        let out = ops::add(&self.value(), &other.value());
        Var::from_op(out, &[self, other], Box::new(|g| {
            vec![g.clone(), g.clone()]
        }))
    }

    /// Elementwise subtraction (same shape).
    pub fn sub(&self, other: &Var) -> Var {
        let out = ops::sub(&self.value(), &other.value());
        Var::from_op(out, &[self, other], Box::new(|g| {
            vec![g.clone(), ops::neg(g)]
        }))
    }

    /// Elementwise multiplication (same shape).
    pub fn mul(&self, other: &Var) -> Var {
        let (a, b) = (self.value(), other.value());
        let out = ops::mul(&a, &b);
        Var::from_op(out, &[self, other], Box::new(move |g| {
            vec![ops::mul(g, &b), ops::mul(g, &a)]
        }))
    }

    /// Add a trailing-broadcast operand, e.g. `[B,T,D] + [D]` (bias).
    pub fn add_broadcast(&self, other: &Var) -> Var {
        let b_dims = other.dims();
        let out = ops::add_broadcast(&self.value(), &other.value());
        Var::from_op(out, &[self, other], Box::new(move |g| {
            vec![g.clone(), ops::sum_to_trailing(g, &b_dims)]
        }))
    }

    /// Multiply by a trailing-broadcast operand.
    pub fn mul_broadcast(&self, other: &Var) -> Var {
        let (a, b) = (self.value(), other.value());
        let b_dims = other.dims();
        let out = ops::mul_broadcast(&a, &b);
        Var::from_op(out, &[self, other], Box::new(move |g| {
            let da = ops::mul_broadcast(g, &b);
            let db = ops::sum_to_trailing(&ops::mul(g, &a), &b_dims);
            vec![da, db]
        }))
    }

    /// Multiply by a scalar.
    pub fn scale(&self, s: f32) -> Var {
        let out = ops::scale(&self.value(), s);
        Var::from_op(out, &[self], Box::new(move |g| vec![ops::scale(g, s)]))
    }

    /// Add a scalar.
    pub fn add_scalar(&self, s: f32) -> Var {
        let out = ops::add_scalar(&self.value(), s);
        Var::from_op(out, &[self], Box::new(|g| vec![g.clone()]))
    }

    /// Negation.
    pub fn neg(&self) -> Var {
        self.scale(-1.0)
    }

    // ------------------------------------------------------------------
    // Matrix products
    // ------------------------------------------------------------------

    /// 2-D matrix multiply: `[M,K] @ [K,N]` → `[M,N]`.
    pub fn matmul(&self, other: &Var) -> Var {
        let (a, b) = (self.value(), other.value());
        let out = ops::matmul(&a, &b);
        Var::from_op(out, &[self, other], Box::new(move |g| {
            vec![ops::matmul_transb(g, &b), ops::matmul_transa(&a, g)]
        }))
    }

    /// 2-D `A @ Bᵀ`: `[M,K] @ [N,K]` → `[M,N]`.
    ///
    /// Used for weight-tied language-model heads (`logits = x @ Eᵀ`).
    pub fn matmul_transb(&self, other: &Var) -> Var {
        let (a, b) = (self.value(), other.value());
        let out = ops::matmul_transb(&a, &b);
        Var::from_op(out, &[self, other], Box::new(move |g| {
            // dA = dC @ B ; dB[n,k] = Σ_m dC[m,n]·A[m,k] = dCᵀ @ A
            vec![ops::matmul(g, &b), ops::matmul_transa(g, &a)]
        }))
    }

    /// Causal multi-head self-attention over packed projection rows:
    /// `self` is `qkv [B·T, 3D]` (`q | k | v` per row, `batch` rows of `T`
    /// positions, `D = heads · dh`) and the result is the context
    /// `[B·T, D]`, heads side by side.
    ///
    /// Each position attends to its causal prefix, or to itself and the
    /// `window − 1` positions before it; the scores are scaled by `1/√dh`.
    /// With `p > 0` the attention weights take inverted dropout: one
    /// [`KeepMask`] of `B·H·T·T` bits drawn from `rng`, in `[B·H, T, T]`
    /// order. One fused kernel per direction ([`ops::attention`]); what the
    /// node keeps for backward is `qkv`, the softmax output and the mask.
    pub fn causal_attention(
        &self,
        batch: usize,
        heads: usize,
        window: Option<usize>,
        p: f32,
        rng: &mut impl ratatouille_util::rng::Rng,
    ) -> Var {
        self.causal_attention_in(crate::par::num_threads(), batch, heads, window, p, rng)
    }

    /// [`Var::causal_attention`] with its matrices cut into at most
    /// `lanes` pool tasks.
    fn causal_attention_in(
        &self,
        lanes: usize,
        batch: usize,
        heads: usize,
        window: Option<usize>,
        p: f32,
        rng: &mut impl ratatouille_util::rng::Rng,
    ) -> Var {
        assert!((0.0..1.0).contains(&p), "attention dropout p must be in [0,1), got {p}");
        let dims = self.dims();
        assert!(dims.len() == 2 && dims[1] % (3 * heads) == 0, "causal_attention: {dims:?} is not [B·T, 3·heads·dh]");
        assert!(batch > 0 && dims[0] % batch == 0, "causal_attention: {} rows are not {batch} batch rows", dims[0]);
        assert!(window != Some(0), "causal_attention: the window must hold the position itself");
        let t = dims[0] / batch;
        let shape = ops::attention::Attention { batch, t, heads, dh: dims[1] / (3 * heads), window, lanes };
        let (keep, scale) = (1.0 - p, 1.0 / (1.0 - p));
        let mask = (p > 0.0).then(|| KeepMask::draw(batch * heads * t * t, keep, rng));
        let qkv = self.value();
        let (ctx, probs) = shape.forward(qkv.data(), mask.as_ref().map(|m| m.attention(scale)));
        let out = Tensor::from_parts(Shape(vec![batch * t, heads * shape.dh]), ctx);
        // A tensor, so the node's drop hands the buffer back to `recycle`.
        let probs = Tensor::from_parts(Shape(vec![probs.len()]), probs);
        Var::from_op(out, &[self], Box::new(move |g| {
            let dqkv = shape.backward(qkv.data(), probs.data(), mask.as_ref().map(|m| m.attention(scale)), g.data());
            vec![Tensor::from_parts(qkv.shape().clone(), dqkv)]
        }))
    }

    // ------------------------------------------------------------------
    // Activations & pointwise nonlinearities
    // ------------------------------------------------------------------

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Var {
        let out = ops::tanh(&self.value());
        let saved = out.clone();
        Var::from_op(out, &[self], Box::new(move |g| {
            vec![ops::zip(g, &saved, |gv, t| gv * (1.0 - t * t))]
        }))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        let out = ops::sigmoid(&self.value());
        let saved = out.clone();
        Var::from_op(out, &[self], Box::new(move |g| {
            vec![ops::zip(g, &saved, |gv, s| gv * s * (1.0 - s))]
        }))
    }

    /// GPT-2's tanh-approximate GELU.
    pub fn gelu(&self) -> Var {
        let x = self.value();
        let out = ops::gelu(&x);
        Var::from_op(out, &[self], Box::new(move |g| {
            vec![ops::gelu_backward(g, &x)]
        }))
    }

    /// Natural exponential.
    pub fn exp(&self) -> Var {
        let out = ops::exp(&self.value());
        let saved = out.clone();
        Var::from_op(out, &[self], Box::new(move |g| {
            vec![ops::mul(g, &saved)]
        }))
    }

    /// Natural logarithm.
    pub fn ln(&self) -> Var {
        let x = self.value();
        let out = ops::ln(&x);
        Var::from_op(out, &[self], Box::new(move |g| {
            vec![ops::zip(g, &x, |gv, xv| gv / xv)]
        }))
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements (scalar output).
    pub fn sum(&self) -> Var {
        let dims = self.dims();
        let out = ops::sum_all(&self.value());
        Var::from_op(out, &[self], Box::new(move |g| {
            vec![Tensor::full(&dims, g.item())]
        }))
    }

    /// Mean of all elements (scalar output).
    pub fn mean(&self) -> Var {
        let dims = self.dims();
        let n: usize = dims.iter().product::<usize>().max(1);
        let out = ops::mean_all(&self.value());
        Var::from_op(out, &[self], Box::new(move |g| {
            vec![Tensor::full(&dims, g.item() / n as f32)]
        }))
    }

    // ------------------------------------------------------------------
    // Softmax family
    // ------------------------------------------------------------------

    /// Softmax over the last axis.
    pub fn softmax_last(&self) -> Var {
        let p = ops::softmax_last(&self.value());
        let saved = p.clone();
        Var::from_op(p, &[self], Box::new(move |g| {
            vec![ops::softmax_backward(g, &saved)]
        }))
    }

    // ------------------------------------------------------------------
    // Normalization
    // ------------------------------------------------------------------

    /// Layer normalization over the last axis with affine `gamma`/`beta`.
    pub fn layer_norm(&self, gamma: &Var, beta: &Var, eps: f32) -> Var {
        let x = self.value();
        let g = gamma.value();
        let (out, mean, rstd) = ops::layer_norm(&x, &g, &beta.value(), eps);
        Var::from_op(
            out,
            &[self, gamma, beta],
            Box::new(move |dy| {
                let (dx, dgamma, dbeta) = ops::layer_norm_backward(&x, &g, &mean, &rstd, dy);
                vec![dx, dgamma, dbeta]
            }),
        )
    }

    // ------------------------------------------------------------------
    // Embedding & loss
    // ------------------------------------------------------------------

    /// Embedding lookup: `self` is the `[V,D]` table; gathers `ids` → `[N,D]`.
    pub fn embedding(&self, ids: &[usize]) -> Var {
        let table = self.value();
        let (v, d) = (table.dims()[0], table.dims()[1]);
        let out = ops::embedding(&table, ids);
        let ids: Vec<usize> = ids.to_vec();
        Var::from_op(out, &[self], Box::new(move |g| {
            let mut dt = recycle::zeroed(v * d);
            for (row, &id) in ids.iter().enumerate() {
                let src = &g.data()[row * d..(row + 1) * d];
                let dst = &mut dt[id * d..(id + 1) * d];
                for (o, &s) in dst.iter_mut().zip(src) {
                    *o += s;
                }
            }
            vec![Tensor::from_parts(Shape(vec![v, d]), dt)]
        }))
    }

    /// Mean token-level cross-entropy of `self` (logits `[N,V]`) against
    /// integer targets; rows whose target equals `ignore_index` are skipped.
    /// Returns a scalar loss node.
    pub fn cross_entropy(&self, targets: &[usize], ignore_index: usize) -> Var {
        let (loss, probs) = ops::cross_entropy(&self.value(), targets, ignore_index);
        let targets: Vec<usize> = targets.to_vec();
        let kept = targets.iter().filter(|&&t| t != ignore_index).count().max(1);
        Var::from_op(
            Tensor::scalar(loss),
            &[self],
            Box::new(move |g| {
                let scale = g.item() / kept as f32;
                vec![ops::cross_entropy_backward(&probs, &targets, ignore_index, scale)]
            }),
        )
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Reshape (element count preserved; zero-copy forward).
    pub fn reshape(&self, dims: &[usize]) -> Var {
        let in_dims = self.dims();
        let out = self.value().reshape(dims);
        Var::from_op(out, &[self], Box::new(move |g| {
            vec![g.reshape(&in_dims)]
        }))
    }

    /// Permute axes.
    pub fn permute(&self, axes: &[usize]) -> Var {
        let out = ops::permute(&self.value(), axes);
        // Inverse permutation for the backward pass.
        let mut inv = vec![0usize; axes.len()];
        for (i, &a) in axes.iter().enumerate() {
            inv[a] = i;
        }
        Var::from_op(out, &[self], Box::new(move |g| {
            vec![ops::permute(g, &inv)]
        }))
    }

    /// Slice `len` elements from `start` along `axis`.
    pub fn narrow(&self, axis: usize, start: usize, len: usize) -> Var {
        let full_dims = self.dims();
        let out = ops::narrow(&self.value(), axis, start, len);
        Var::from_op(out, &[self], Box::new(move |g| {
            vec![ops::pad_narrow_grad(g, &full_dims, axis, start)]
        }))
    }

    /// Concatenate along `axis`.
    pub fn concat(parts: &[Var], axis: usize) -> Var {
        assert!(!parts.is_empty(), "Var::concat: empty input");
        let values: Vec<Tensor> = parts.iter().map(|p| p.value()).collect();
        let refs: Vec<&Tensor> = values.iter().collect();
        let out = ops::concat(&refs, axis);
        let sizes: Vec<usize> = values.iter().map(|v| v.dims()[axis]).collect();
        Var::from_op(out, &parts.iter().collect::<Vec<_>>(), Box::new(move |g| {
            let mut grads = Vec::with_capacity(sizes.len());
            let mut off = 0;
            for &s in &sizes {
                grads.push(ops::narrow(g, axis, off, s));
                off += s;
            }
            grads
        }))
    }

    /// Inverted dropout with keep-probability `1 - p`; identity when
    /// `p == 0`. The mask is drawn from `rng` so training is reproducible.
    ///
    /// Element `i` takes the `i`-th `next_u64` and is kept when that
    /// draw's top 24 bits are below `⌈keep·2²⁴⌉` — the same answer as
    /// `rng.random::<f32>() < keep`, which is those 24 bits times 2⁻²⁴,
    /// exactly. The mask is one bit per element; forward and backward
    /// each multiply by `1/keep` or `0.0` in one row-parallel pass.
    pub fn dropout(&self, p: f32, rng: &mut impl ratatouille_util::rng::RngExt) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1), got {p}");
        if p == 0.0 {
            return self.clone();
        }
        let keep = 1.0 - p;
        let scale = 1.0 / keep;
        let x = self.value();
        let mask = KeepMask::draw(x.numel(), keep, rng);
        let out = mask.apply(&x, scale);
        Var::from_op(out, &[self], Box::new(move |g| vec![mask.apply(g, scale)]))
    }
}

/// A dropout mask, one bit per element: bit `i % 64` of word `i / 64`
/// is set where element `i` is kept.
struct KeepMask(Vec<u64>);

impl KeepMask {
    /// Draw `n` keep decisions, one `next_u64` each, in element order.
    /// Each word is built in a register and stored once.
    fn draw(n: usize, keep: f32, rng: &mut impl ratatouille_util::rng::Rng) -> KeepMask {
        // `keep·2²⁴` is exact in f64, and a 24-bit integer `u` has
        // `u·2⁻²⁴ < keep` exactly when `u < ⌈keep·2²⁴⌉`.
        let cut = (f64::from(keep) * f64::from(1u32 << 24)).ceil() as u64;
        let words = (0..n.div_ceil(64))
            .map(|w| {
                let mut word = 0u64;
                for bit in 0..(n - 64 * w).min(64) {
                    word |= u64::from(rng.next_u64() >> 40 < cut) << bit;
                }
                word
            })
            .collect();
        KeepMask(words)
    }

    /// The mask as the attention kernels read it, kept weights times `scale`.
    fn attention(&self, scale: f32) -> ops::attention::Dropout<'_> {
        ops::attention::Dropout { keep: &self.0, scale }
    }

    /// `t · scale` where an element is kept and `t · 0.0` where it is
    /// dropped (so a dropped `±inf` or NaN stays NaN, as a multiply by an
    /// `f32` mask left it).
    fn apply(&self, t: &Tensor, scale: f32) -> Tensor {
        let (rows, w) = ops::last_axis_rows(t.dims());
        let src = t.data();
        let data = ops::fill_rows(rows, w, w * STREAM_MACS, |r, out| {
            for (i, o) in (r.start * w..).zip(out) {
                let kept = self.0[i / 64] >> (i % 64) & 1 == 1;
                *o = src[i] * if kept { scale } else { 0.0 };
            }
        });
        Tensor::from_parts(t.shape().clone(), data)
    }
}

/// Dropout as first written — an `f32` mask, `ops::mul` to apply it and
/// `ops::mul` again in backward — kept as the oracle the packed mask must
/// match bit for bit: forward output, gradient, and the RNG's next draw.
#[cfg(test)]
mod dropout_reference {
    use ratatouille_util::proptest::prelude::*;
    use ratatouille_util::rng::{Rng, RngExt, SeedableRng, StdRng};

    use super::*;

    fn dropout(x: &Var, p: f32, rng: &mut impl RngExt) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1), got {p}");
        if p == 0.0 {
            return x.clone();
        }
        let keep = 1.0 - p;
        let xv = x.value();
        let mask: Vec<f32> = (0..xv.numel())
            .map(|_| if rng.random::<f32>() < keep { 1.0 / keep } else { 0.0 })
            .collect();
        let mask = Tensor::from_vec(mask, xv.dims()).unwrap();
        let out = ops::mul(&xv, &mask);
        Var::from_op(out, &[x], Box::new(move |g| vec![ops::mul(g, &mask)]))
    }

    /// Up to one word, one word and a bit over, several rows' worth of
    /// odd length, and one attention site of `train_medium` (`[16,256,256]`).
    const SIZES: [usize; 6] = [1, 63, 64, 65, 4097, 16 * 256 * 256];
    const PS: [f32; 4] = [1e-7, 0.1, 0.5, 0.9];
    const SPECIALS: [f32; 8] =
        [0.0, -0.0, 1e-40, -1e-40, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1.5];

    /// `n` values from `seed`, `share` quarters of them drawn from
    /// [`SPECIALS`] and the rest uniform in `[-2, 2)`. Multiples of 256
    /// are laid out as rows of 256, so the row-parallel pass splits them.
    fn tensor(n: usize, seed: u64, share: u32) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..n)
            .map(|_| {
                if rng.below(4) < share as usize {
                    SPECIALS[rng.below(SPECIALS.len())]
                } else {
                    rng.random_range(-2.0f32..2.0)
                }
            })
            .collect();
        let dims = if n % 256 == 0 { vec![n / 256, 256] } else { vec![n] };
        Tensor::from_vec(data, &dims).unwrap()
    }

    /// Forward output and input gradient as bits, and the RNG's next draw.
    type Outcome = (Vec<u32>, Vec<u32>, u64);

    fn run<R: Rng>(drop: impl Fn(&Var, &mut R) -> Var, x: &Tensor, g: &Tensor, mut rng: R) -> Outcome {
        let bits = |t: Tensor| t.data().iter().map(|v| v.to_bits()).collect();
        let xv = Var::leaf(x.clone());
        let y = drop(&xv, &mut rng);
        y.backward_with(g.clone());
        (bits(y.value()), bits(xv.grad().unwrap()), rng.next_u64())
    }

    fn same_as_reference(x: &Tensor, g: &Tensor, p: f32, rng: impl Rng + Clone) -> Result<(), String> {
        let packed = run(|v, r| v.dropout(p, r), x, g, rng.clone());
        let oracle = run(|v, r| dropout(v, p, r), x, g, rng);
        let first_diff = |a: &[u32], b: &[u32]| a.iter().zip(b).position(|(x, y)| x != y);
        let n = x.numel();
        prop_assert_eq!(first_diff(&packed.0, &oracle.0), None, "forward, n {} p {}", n, p);
        prop_assert_eq!(first_diff(&packed.1, &oracle.1), None, "gradient, n {} p {}", n, p);
        prop_assert_eq!(packed.2, oracle.2, "next draw, n {} p {}", n, p);
        Ok(())
    }

    proptest! {
        cases = 48;

        /// Bit for bit on every size, rate and input mix.
        #[test]
        fn packed_dropout_matches_reference(
            size in 0usize..SIZES.len(),
            rate in 0usize..PS.len(),
            seed in any::<u64>(),
            share in 0u32..5,
        ) {
            let (x, g) = (tensor(SIZES[size], seed, share), tensor(SIZES[size], !seed, share));
            same_as_reference(&x, &g, PS[rate], StdRng::seed_from_u64(seed))?;
        }
    }

    /// Replays a fixed list of draws.
    #[derive(Clone)]
    struct Script(Vec<u64>, usize);

    impl Rng for Script {
        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            self.0[(self.1 - 1) % self.0.len()]
        }
    }

    /// Draws whose 24 bits sit one below, at and one above `keep·2²⁴`
    /// (low bits set and clear), where a threshold off by one would keep
    /// or drop the wrong element; the random property meets these rarely.
    #[test]
    fn keep_threshold_matches_float_compare_at_the_boundary() {
        for p in PS.into_iter().chain([1.0 / 3.0, 0.3, 0.999_999_9, f32::EPSILON]) {
            let edge = (f64::from(1.0 - p) * f64::from(1u32 << 24)) as u64;
            let draws: Vec<u64> = (edge.saturating_sub(1)..=(edge + 1).min((1 << 24) - 1))
                .flat_map(|u| [u << 40, u << 40 | ((1 << 40) - 1)])
                .collect();
            let n = draws.len();
            let x = tensor(n, 1, 2);
            same_as_reference(&x, &tensor(n, 2, 2), p, Script(draws, 0)).unwrap();
        }
    }
}

/// Training attention as an op chain, before it was fused: slices and
/// permutes of the packed rows, the causal scores product, `scale`, an
/// additive window mask, the causal softmax, dropout, the causal context
/// product and a permute back, each its own graph node. Kept as the oracle
/// [`Var::causal_attention`] must match bit for bit: context, input
/// gradient and the RNG's next draw.
#[cfg(test)]
pub(crate) mod attention_reference {
    use ratatouille_util::proptest::prelude::*;
    use ratatouille_util::rng::{Rng, RngExt, SeedableRng, StdRng};

    use super::*;

    impl Var {
        /// Causal attention scores `Q @ Kᵀ`: `[B,T,D] @ [B,T,D]ᵀ` → `[B,T,T]`,
        /// on and below the diagonal only (`+0` above it). Backward reads
        /// the output gradient on and below the diagonal only too.
        pub(crate) fn bmm_transb_causal(&self, other: &Var) -> Var {
            let (q, k) = (self.value(), other.value());
            let out = ops::bmm_transb_causal(&q, &k);
            Var::from_op(out, &[self, other], Box::new(move |g| {
                vec![ops::bmm_causal(g, &k), ops::bmm_transa_causal(g, &q)]
            }))
        }

        /// Causal attention context `P @ V`: `[B,T,T] @ [B,T,D]` → `[B,T,D]`
        /// for weights `P` that are zero above the diagonal.
        pub(crate) fn bmm_causal(&self, other: &Var) -> Var {
            let (p, v) = (self.value(), other.value());
            let out = ops::bmm_causal(&p, &v);
            Var::from_op(out, &[self, other], Box::new(move |g| {
                vec![ops::bmm_transb_causal(g, &v), ops::bmm_transa_causal(&p, g)]
            }))
        }

        /// Causally-masked softmax over trailing `[T,T]` score matrices.
        pub(crate) fn causal_masked_softmax(&self) -> Var {
            let p = ops::causal_masked_softmax(&self.value());
            let saved = p.clone();
            Var::from_op(p, &[self], Box::new(move |g| vec![ops::softmax_backward(g, &saved)]))
        }
    }

    /// Additive mask `[BH, T, T]`: 0 inside the causal window, -1e9 outside.
    pub(crate) fn window_mask(bh: usize, t: usize, window: usize) -> Tensor {
        let mut m = vec![0.0f32; bh * t * t];
        for b in 0..bh {
            for i in 0..t {
                for j in 0..t {
                    if j + window <= i {
                        m[b * t * t + i * t + j] = -1e9;
                    }
                }
            }
        }
        Tensor::from_vec(m, &[bh, t, t]).expect("mask shape")
    }

    /// The chain `Block::forward` ran before the fused op.
    pub(crate) fn attention(qkv: &Var, b: usize, heads: usize, window: Option<usize>, p: f32, rng: &mut impl RngExt) -> Var {
        let (t, d) = (qkv.dims()[0] / b, qkv.dims()[1] / 3);
        let dh = d / heads;
        let split = |start: usize| -> Var {
            qkv.narrow(1, start, d)
                .reshape(&[b, t, heads, dh])
                .permute(&[0, 2, 1, 3])
                .reshape(&[b * heads, t, dh])
        };
        let (q, k, v) = (split(0), split(d), split(2 * d));
        let mut scores = q.bmm_transb_causal(&k).scale(1.0 / (dh as f32).sqrt());
        if let Some(w) = window {
            scores = scores.add(&Var::constant(window_mask(b * heads, t, w)));
        }
        let mut weights = scores.causal_masked_softmax();
        if p > 0.0 {
            weights = weights.dropout(p, rng);
        }
        weights
            .bmm_causal(&v)
            .reshape(&[b, heads, t, dh])
            .permute(&[0, 2, 1, 3])
            .reshape(&[b * t, d])
    }

    #[test]
    fn window_mask_shape() {
        let m = window_mask(1, 4, 2);
        // row i=3: j=0,1 outside (j + 2 <= 3), j=2,3 inside
        assert_eq!(m.at(&[0, 3, 0]), -1e9);
        assert_eq!(m.at(&[0, 3, 1]), -1e9);
        assert_eq!(m.at(&[0, 3, 2]), 0.0);
        assert_eq!(m.at(&[0, 3, 3]), 0.0);
        // row 0 sees itself
        assert_eq!(m.at(&[0, 0, 0]), 0.0);
    }

    /// Values that exercise signed zeros, subnormals and large magnitudes.
    const SPECIALS: [f32; 8] = [0.0, -0.0, 1e-40, -1e-40, 1e4, -2.5e4, 3e-39, 1.5];

    /// `n` values from `seed`, `share` eighths of them from [`SPECIALS`],
    /// the rest uniform in `[-2, 2)`.
    fn values(n: usize, seed: u64, share: usize) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| if rng.below(8) < share { SPECIALS[rng.below(SPECIALS.len())] } else { rng.random_range(-2.0f32..2.0) })
            .collect()
    }

    /// Context and input gradient as bits, and the RNG's next draw.
    type Outcome = (Vec<u32>, Vec<u32>, u64);

    fn run(attn: impl Fn(&Var, &mut StdRng) -> Var, qkv: &Tensor, g: &Tensor, seed: u64) -> Outcome {
        let bits = |t: Tensor| t.data().iter().map(|v| v.to_bits()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Var::leaf(qkv.clone());
        let y = attn(&x, &mut rng);
        y.backward_with(g.clone());
        (bits(y.value()), bits(x.grad().expect("qkv gradient")), rng.next_u64())
    }

    /// `B·heads` from 1 to 6 as (batch, heads).
    const SPLITS: [(usize, usize); 6] = [(1, 1), (1, 2), (3, 1), (2, 2), (5, 1), (3, 2)];
    const TS: [usize; 5] = [1, 2, 5, 17, 64];
    /// 8 and 24 run the context products one `axpy` per term, 32 as
    /// `4 × 16` tiles.
    const DHS: [usize; 3] = [8, 24, 32];
    const RATES: [f32; 3] = [0.0, 0.1, 0.5];

    proptest! {
        cases = 256;

        /// Bit for bit on every shape, window, rate and input mix, with
        /// the matrices cut into 1–3 lanes.
        #[test]
        fn fused_attention_matches_the_chain(
            shape in (0usize..SPLITS.len(), 0usize..TS.len(), 0usize..DHS.len()),
            mode in (0usize..65, 0usize..RATES.len(), any::<bool>(), 1usize..4),
            share in 0usize..4,
            seed in any::<u64>(),
        ) {
            let ((b, heads), t, dh) = (SPLITS[shape.0], TS[shape.1], DHS[shape.2]);
            let (window, rate, train, lanes) = mode;
            // 0 is no window; otherwise w ≤ T.
            let window = (window > 0).then(|| window.min(t));
            let p = if train { RATES[rate] } else { 0.0 };
            let d = heads * dh;
            let qkv = Tensor::from_vec(values(b * t * 3 * d, seed, share), &[b * t, 3 * d]).unwrap();
            let g = Tensor::from_vec(values(b * t * d, !seed, share), &[b * t, d]).unwrap();
            let fused = run(|x, r| x.causal_attention_in(lanes, b, heads, window, p, r), &qkv, &g, seed);
            let chain = run(|x, r| attention(x, b, heads, window, p, r), &qkv, &g, seed);
            let first_diff = |a: &[u32], c: &[u32]| a.iter().zip(c).position(|(x, y)| x != y);
            let case = format!("b {b} heads {heads} t {t} dh {dh} window {window:?} p {p} lanes {lanes}");
            prop_assert_eq!(first_diff(&fused.0, &chain.0), None, "context, {}", case);
            prop_assert_eq!(first_diff(&fused.1, &chain.1), None, "qkv gradient, {}", case);
            prop_assert_eq!(fused.2, chain.2, "next draw, {}", case);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratatouille_util::rng::StdRng;
    use ratatouille_util::rng::{RngExt, SeedableRng};

    /// Central finite-difference check: builds the graph with `f`, runs
    /// backward, and compares each input's gradient against a numeric
    /// estimate obtained by perturbing one element at a time.
    fn grad_check(inputs: &[(&str, Vec<f32>, Vec<usize>)], f: impl Fn(&[Var]) -> Var, tol: f32) {
        let vars: Vec<Var> = inputs
            .iter()
            .map(|(_, data, dims)| Var::leaf(Tensor::from_vec(data.clone(), dims).unwrap()))
            .collect();
        let loss = f(&vars);
        loss.backward();
        let h = 1e-2f32;
        for (vi, (name, data, dims)) in inputs.iter().enumerate() {
            let analytic = vars[vi]
                .grad()
                .unwrap_or_else(|| panic!("no grad for input `{name}`"));
            for ei in 0..data.len() {
                let mut plus = data.clone();
                plus[ei] += h;
                let mut minus = data.clone();
                minus[ei] -= h;
                let eval = |d: Vec<f32>| {
                    let vs: Vec<Var> = inputs
                        .iter()
                        .enumerate()
                        .map(|(j, (_, dd, ds))| {
                            let use_d = if j == vi { d.clone() } else { dd.clone() };
                            Var::leaf(Tensor::from_vec(use_d, ds).unwrap())
                        })
                        .collect();
                    f(&vs).value().item()
                };
                let fd = (eval(plus) - eval(minus)) / (2.0 * h);
                let an = analytic.data()[ei];
                assert!(
                    (fd - an).abs() <= tol * (1.0 + fd.abs().max(an.abs())),
                    "grad mismatch `{name}`[{ei}] (dims {dims:?}): fd={fd:.5} analytic={an:.5}"
                );
            }
        }
    }

    fn rng_data(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.random::<f32>() * 2.0 - 1.0).collect()
    }

    #[test]
    fn grad_add_sub_mul() {
        grad_check(
            &[
                ("a", rng_data(6, 1), vec![2, 3]),
                ("b", rng_data(6, 2), vec![2, 3]),
            ],
            |v| v[0].mul(&v[1]).add(&v[0]).sub(&v[1]).sum(),
            1e-2,
        );
    }

    #[test]
    fn grad_broadcast_ops() {
        grad_check(
            &[
                ("x", rng_data(12, 3), vec![2, 2, 3]),
                ("bias", rng_data(3, 4), vec![3]),
                ("scale", rng_data(3, 5), vec![3]),
            ],
            |v| v[0].add_broadcast(&v[1]).mul_broadcast(&v[2]).sum(),
            1e-2,
        );
    }

    #[test]
    fn grad_matmul() {
        grad_check(
            &[
                ("a", rng_data(6, 6), vec![2, 3]),
                ("b", rng_data(12, 7), vec![3, 4]),
            ],
            |v| v[0].matmul(&v[1]).sum(),
            1e-2,
        );
    }

    #[test]
    fn grad_matmul_transb_2d() {
        grad_check(
            &[
                ("x", rng_data(6, 61), vec![2, 3]),
                ("e", rng_data(12, 62), vec![4, 3]),
            ],
            |v| v[0].matmul_transb(&v[1]).sum(),
            1e-2,
        );
    }

    /// The causal context over a full (not lower-triangular) `P`: entries
    /// above the diagonal are never read, so their gradient is exactly 0,
    /// which the finite differences see too. The weights make every
    /// output's gradient distinct.
    #[test]
    fn grad_bmm_causal() {
        let w = Tensor::from_vec(rng_data(18, 96), &[2, 3, 3]).unwrap();
        grad_check(
            &[
                ("p", rng_data(18, 8), vec![2, 3, 3]),
                ("v", rng_data(18, 9), vec![2, 3, 3]),
            ],
            move |v| v[0].bmm_causal(&v[1]).mul(&Var::constant(w.clone())).sum(),
            1e-2,
        );
    }

    #[test]
    fn grad_bmm_transb_causal() {
        let w = Tensor::from_vec(rng_data(18, 95), &[2, 3, 3]).unwrap();
        grad_check(
            &[
                ("q", rng_data(12, 10), vec![2, 3, 2]),
                ("k", rng_data(12, 11), vec![2, 3, 2]),
            ],
            move |v| v[0].bmm_transb_causal(&v[1]).mul(&Var::constant(w.clone())).sum(),
            1e-2,
        );
    }

    /// The fused attention against finite differences, windowed, over two
    /// batch rows of two heads; the weights make every output's gradient
    /// distinct.
    #[test]
    fn grad_causal_attention() {
        let w = Tensor::from_vec(rng_data(24, 94), &[6, 4]).unwrap();
        grad_check(
            &[("qkv", rng_data(72, 93), vec![6, 12])],
            move |v| {
                let mut rng = StdRng::seed_from_u64(0);
                v[0].causal_attention(2, 2, Some(2), 0.0, &mut rng).mul(&Var::constant(w.clone())).sum()
            },
            2e-2,
        );
    }

    #[test]
    fn grad_activations() {
        for op in ["tanh", "sigmoid", "gelu", "exp"] {
            grad_check(
                &[("x", rng_data(6, 12), vec![6])],
                |v| {
                    let y = match op {
                        "tanh" => v[0].tanh(),
                        "sigmoid" => v[0].sigmoid(),
                        "gelu" => v[0].gelu(),
                        "exp" => v[0].exp(),
                        _ => unreachable!(),
                    };
                    y.sum()
                },
                2e-2,
            );
        }
    }

    #[test]
    fn grad_ln() {
        // keep inputs positive and away from zero
        let data: Vec<f32> = rng_data(5, 13).iter().map(|v| v.abs() + 0.5).collect();
        grad_check(&[("x", data, vec![5])], |v| v[0].ln().sum(), 2e-2);
    }

    #[test]
    fn grad_mean() {
        grad_check(&[("x", rng_data(8, 14), vec![2, 4])], |v| v[0].mean(), 1e-2);
    }

    #[test]
    fn grad_softmax_weighted() {
        // weight the softmax output so the gradient is non-trivial
        let w = Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.5], &[4]).unwrap();
        grad_check(
            &[("x", rng_data(8, 15), vec![2, 4])],
            move |v| {
                let p = v[0].softmax_last();
                p.mul_broadcast(&Var::constant(w.clone())).sum()
            },
            2e-2,
        );
    }

    #[test]
    fn grad_causal_softmax() {
        let w = Tensor::from_vec(rng_data(9, 99), &[1, 3, 3]).unwrap();
        grad_check(
            &[("x", rng_data(9, 16), vec![1, 3, 3])],
            move |v| {
                let p = v[0].causal_masked_softmax();
                p.mul(&Var::constant(w.clone())).sum()
            },
            2e-2,
        );
    }

    #[test]
    fn grad_layer_norm() {
        let w = Tensor::from_vec(rng_data(8, 98), &[2, 4]).unwrap();
        grad_check(
            &[
                ("x", rng_data(8, 17), vec![2, 4]),
                ("gamma", rng_data(4, 18).iter().map(|v| v + 1.5).collect(), vec![4]),
                ("beta", rng_data(4, 19), vec![4]),
            ],
            move |v| {
                v[0].layer_norm(&v[1], &v[2], 1e-5)
                    .mul(&Var::constant(w.clone()))
                    .sum()
            },
            5e-2,
        );
    }

    #[test]
    fn grad_embedding() {
        grad_check(
            &[("table", rng_data(8, 20), vec![4, 2])],
            |v| v[0].embedding(&[1, 3, 1]).sum(),
            1e-2,
        );
        // repeated ids must accumulate: rows 1 gathered twice → grad 2
        let table = Var::leaf(Tensor::zeros(&[4, 2]));
        table.embedding(&[1, 1]).sum().backward();
        let g = table.grad().unwrap();
        assert_eq!(g.at(&[1, 0]), 2.0);
        assert_eq!(g.at(&[0, 0]), 0.0);
    }

    #[test]
    fn grad_cross_entropy() {
        grad_check(
            &[("logits", rng_data(12, 21), vec![3, 4])],
            |v| v[0].cross_entropy(&[0, 2, 3], usize::MAX),
            2e-2,
        );
    }

    #[test]
    fn grad_cross_entropy_with_padding() {
        let pad = 999usize;
        grad_check(
            &[("logits", rng_data(12, 22), vec![3, 4])],
            move |v| v[0].cross_entropy(&[1, pad, 2], pad),
            2e-2,
        );
        // padded rows contribute exactly zero gradient
        let l = Var::leaf(Tensor::from_vec(rng_data(8, 23), &[2, 4]).unwrap());
        l.cross_entropy(&[pad, 1], pad).backward();
        let g = l.grad().unwrap();
        assert!(g.data()[..4].iter().all(|&v| v == 0.0));
        assert!(g.data()[4..].iter().any(|&v| v != 0.0));
    }

    #[test]
    fn grad_reshape_permute() {
        let w = Tensor::from_vec(rng_data(6, 97), &[3, 2]).unwrap();
        grad_check(
            &[("x", rng_data(6, 24), vec![2, 3])],
            move |v| {
                v[0].permute(&[1, 0])
                    .mul(&Var::constant(w.clone()))
                    .reshape(&[6])
                    .sum()
            },
            1e-2,
        );
    }

    #[test]
    fn grad_narrow_concat() {
        grad_check(
            &[
                ("a", rng_data(6, 25), vec![2, 3]),
                ("b", rng_data(4, 26), vec![2, 2]),
            ],
            |v| {
                let c = Var::concat(&[v[0].clone(), v[1].clone()], 1); // [2,5]
                c.narrow(1, 1, 3).mul(&c.narrow(1, 2, 3)).sum()
            },
            2e-2,
        );
    }

    #[test]
    fn dropout_zero_p_is_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        let x = Var::leaf(Tensor::ones(&[4]));
        let y = x.dropout(0.0, &mut rng);
        assert_eq!(y.value().data(), &[1.0; 4]);
    }

    #[test]
    fn dropout_preserves_expectation_and_masks_grad() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = Var::leaf(Tensor::ones(&[10_000]));
        let y = x.dropout(0.5, &mut rng);
        let mean = y.value().data().iter().sum::<f32>() / 10_000.0;
        assert!((mean - 1.0).abs() < 0.05, "inverted dropout mean {mean}");
        y.sum().backward();
        let g = x.grad().unwrap();
        // gradient is 2.0 where kept, 0.0 where dropped
        assert!(g.data().iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn lstm_like_composite_grad() {
        // One LSTM-ish gate computation: c' = f⊙c + i⊙g with gates from a
        // joint affine projection, checking composed slicing + activations.
        grad_check(
            &[
                ("x", rng_data(4, 30), vec![1, 4]),
                ("w", rng_data(32, 31), vec![4, 8]),
                ("c", rng_data(2, 32), vec![1, 2]),
            ],
            |v| {
                let z = v[0].matmul(&v[1]); // [1,8]
                let i = z.narrow(1, 0, 2).sigmoid();
                let f = z.narrow(1, 2, 2).sigmoid();
                let g = z.narrow(1, 4, 2).tanh();
                let o = z.narrow(1, 6, 2).sigmoid();
                let c2 = f.mul(&v[2]).add(&i.mul(&g));
                o.mul(&c2.tanh()).sum()
            },
            3e-2,
        );
    }
}
