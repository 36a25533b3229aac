//! Differentiable operations on [`Var`].
//!
//! Each op computes its forward value with the pure kernels in
//! [`crate::ops`] and registers a backward closure that maps the node's
//! output gradient to per-parent input gradients. The closures capture the
//! (immutable, cheaply-clonable) tensors they need.
//!
//! Every op here is validated against central finite differences in the
//! test module at the bottom of this file.

use crate::autograd::Var;
use crate::ops;
use crate::tensor::Tensor;

impl Var {
    // ------------------------------------------------------------------
    // Arithmetic
    // ------------------------------------------------------------------

    /// Elementwise addition (same shape).
    pub fn add(&self, other: &Var) -> Var {
        let out = ops::add(&self.value(), &other.value());
        Var::from_op(out, vec![self.clone(), other.clone()], Box::new(|g| {
            vec![g.clone(), g.clone()]
        }))
    }

    /// Elementwise subtraction (same shape).
    pub fn sub(&self, other: &Var) -> Var {
        let out = ops::sub(&self.value(), &other.value());
        Var::from_op(out, vec![self.clone(), other.clone()], Box::new(|g| {
            vec![g.clone(), ops::neg(g)]
        }))
    }

    /// Elementwise multiplication (same shape).
    pub fn mul(&self, other: &Var) -> Var {
        let (a, b) = (self.value(), other.value());
        let out = ops::mul(&a, &b);
        Var::from_op(out, vec![self.clone(), other.clone()], Box::new(move |g| {
            vec![ops::mul(g, &b), ops::mul(g, &a)]
        }))
    }

    /// Add a trailing-broadcast operand, e.g. `[B,T,D] + [D]` (bias).
    pub fn add_broadcast(&self, other: &Var) -> Var {
        let b_dims = other.dims();
        let out = ops::add_broadcast(&self.value(), &other.value());
        Var::from_op(out, vec![self.clone(), other.clone()], Box::new(move |g| {
            vec![g.clone(), ops::sum_to_trailing(g, &b_dims)]
        }))
    }

    /// Multiply by a trailing-broadcast operand.
    pub fn mul_broadcast(&self, other: &Var) -> Var {
        let (a, b) = (self.value(), other.value());
        let b_dims = other.dims();
        let out = ops::mul_broadcast(&a, &b);
        Var::from_op(out, vec![self.clone(), other.clone()], Box::new(move |g| {
            let da = ops::mul_broadcast(g, &b);
            let db = ops::sum_to_trailing(&ops::mul(g, &a), &b_dims);
            vec![da, db]
        }))
    }

    /// Multiply by a scalar.
    pub fn scale(&self, s: f32) -> Var {
        let out = ops::scale(&self.value(), s);
        Var::from_op(out, vec![self.clone()], Box::new(move |g| vec![ops::scale(g, s)]))
    }

    /// Add a scalar.
    pub fn add_scalar(&self, s: f32) -> Var {
        let out = ops::add_scalar(&self.value(), s);
        Var::from_op(out, vec![self.clone()], Box::new(|g| vec![g.clone()]))
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
        Var::from_op(out, vec![self.clone(), other.clone()], Box::new(move |g| {
            vec![ops::matmul_transb(g, &b), ops::matmul_transa(&a, g)]
        }))
    }

    /// 2-D `A @ Bᵀ`: `[M,K] @ [N,K]` → `[M,N]`.
    ///
    /// Used for weight-tied language-model heads (`logits = x @ Eᵀ`).
    pub fn matmul_transb(&self, other: &Var) -> Var {
        let (a, b) = (self.value(), other.value());
        let out = ops::matmul_transb(&a, &b);
        Var::from_op(out, vec![self.clone(), other.clone()], Box::new(move |g| {
            // dA = dC @ B ; dB[n,k] = Σ_m dC[m,n]·A[m,k] = dCᵀ @ A
            vec![ops::matmul(g, &b), ops::matmul_transa(g, &a)]
        }))
    }

    /// Batched matrix multiply: `[B,M,K] @ [B,K,N]` → `[B,M,N]`.
    pub fn bmm(&self, other: &Var) -> Var {
        let (a, b) = (self.value(), other.value());
        let out = ops::bmm(&a, &b);
        Var::from_op(out, vec![self.clone(), other.clone()], Box::new(move |g| {
            vec![ops::bmm_transb(g, &b), ops::bmm_transa(&a, g)]
        }))
    }

    /// Batched `A @ Bᵀ`: `[B,M,K] @ [B,N,K]` → `[B,M,N]`.
    ///
    /// The attention-scores product (`Q @ Kᵀ`).
    pub fn bmm_transb(&self, other: &Var) -> Var {
        let (a, b) = (self.value(), other.value());
        let out = ops::bmm_transb(&a, &b);
        Var::from_op(out, vec![self.clone(), other.clone()], Box::new(move |g| {
            // dA = dC @ B ; dB[n,k] = sum_m dC[m,n] A[m,k]
            vec![ops::bmm(g, &b), ops::bmm_transa(g, &a)]
        }))
    }

    // ------------------------------------------------------------------
    // Activations & pointwise nonlinearities
    // ------------------------------------------------------------------

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Var {
        let out = ops::tanh(&self.value());
        let saved = out.clone();
        Var::from_op(out, vec![self.clone()], Box::new(move |g| {
            vec![ops::zip(g, &saved, |gv, t| gv * (1.0 - t * t))]
        }))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        let out = ops::sigmoid(&self.value());
        let saved = out.clone();
        Var::from_op(out, vec![self.clone()], Box::new(move |g| {
            vec![ops::zip(g, &saved, |gv, s| gv * s * (1.0 - s))]
        }))
    }

    /// GPT-2's tanh-approximate GELU.
    pub fn gelu(&self) -> Var {
        let x = self.value();
        let out = ops::gelu(&x);
        Var::from_op(out, vec![self.clone()], Box::new(move |g| {
            vec![ops::gelu_backward(g, &x)]
        }))
    }

    /// Natural exponential.
    pub fn exp(&self) -> Var {
        let out = ops::exp(&self.value());
        let saved = out.clone();
        Var::from_op(out, vec![self.clone()], Box::new(move |g| {
            vec![ops::mul(g, &saved)]
        }))
    }

    /// Natural logarithm.
    pub fn ln(&self) -> Var {
        let x = self.value();
        let out = ops::ln(&x);
        Var::from_op(out, vec![self.clone()], Box::new(move |g| {
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
        Var::from_op(out, vec![self.clone()], Box::new(move |g| {
            vec![Tensor::full(&dims, g.item())]
        }))
    }

    /// Mean of all elements (scalar output).
    pub fn mean(&self) -> Var {
        let dims = self.dims();
        let n: usize = dims.iter().product::<usize>().max(1);
        let out = ops::mean_all(&self.value());
        Var::from_op(out, vec![self.clone()], Box::new(move |g| {
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
        Var::from_op(p, vec![self.clone()], Box::new(move |g| {
            vec![ops::softmax_backward(g, &saved)]
        }))
    }

    /// Causally-masked softmax over trailing `[T,T]` score matrices
    /// (attention weights for autoregressive decoding).
    pub fn causal_masked_softmax(&self) -> Var {
        let p = ops::causal_masked_softmax(&self.value());
        let saved = p.clone();
        Var::from_op(p, vec![self.clone()], Box::new(move |g| {
            // Masked entries have p = 0, so the shared formula yields
            // exactly 0 gradient there — no separate mask needed.
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
            vec![self.clone(), gamma.clone(), beta.clone()],
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
        Var::from_op(out, vec![self.clone()], Box::new(move |g| {
            let mut dt = vec![0.0f32; v * d];
            for (row, &id) in ids.iter().enumerate() {
                let src = &g.data()[row * d..(row + 1) * d];
                let dst = &mut dt[id * d..(id + 1) * d];
                for (o, &s) in dst.iter_mut().zip(src) {
                    *o += s;
                }
            }
            vec![Tensor::from_vec(dt, &[v, d]).unwrap()]
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
            vec![self.clone()],
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
        Var::from_op(out, vec![self.clone()], Box::new(move |g| {
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
        Var::from_op(out, vec![self.clone()], Box::new(move |g| {
            vec![ops::permute(g, &inv)]
        }))
    }

    /// Slice `len` elements from `start` along `axis`.
    pub fn narrow(&self, axis: usize, start: usize, len: usize) -> Var {
        let full_dims = self.dims();
        let out = ops::narrow(&self.value(), axis, start, len);
        Var::from_op(out, vec![self.clone()], Box::new(move |g| {
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
        Var::from_op(out, parts.to_vec(), Box::new(move |g| {
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
    pub fn dropout(&self, p: f32, rng: &mut impl ratatouille_util::rng::RngExt) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1), got {p}");
        if p == 0.0 {
            return self.clone();
        }
        let keep = 1.0 - p;
        let x = self.value();
        let mask: Vec<f32> = (0..x.numel())
            .map(|_| if rng.random::<f32>() < keep { 1.0 / keep } else { 0.0 })
            .collect();
        let mask = Tensor::from_vec(mask, x.dims()).unwrap();
        let out = ops::mul(&x, &mask);
        let saved = mask.clone();
        Var::from_op(out, vec![self.clone()], Box::new(move |g| {
            vec![ops::mul(g, &saved)]
        }))
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

    #[test]
    fn grad_bmm() {
        grad_check(
            &[
                ("a", rng_data(12, 8), vec![2, 2, 3]),
                ("b", rng_data(12, 9), vec![2, 3, 2]),
            ],
            |v| v[0].bmm(&v[1]).sum(),
            1e-2,
        );
    }

    #[test]
    fn grad_bmm_transb() {
        grad_check(
            &[
                ("q", rng_data(12, 10), vec![2, 2, 3]),
                ("k", rng_data(12, 11), vec![2, 2, 3]),
            ],
            |v| v[0].bmm_transb(&v[1]).sum(),
            1e-2,
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
