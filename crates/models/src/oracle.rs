//! The differential oracle: a deliberately naive GPT-2 forward that every
//! optimized route to the logits is checked against.
//!
//! [`Naive`] is written for reading, not speed. Its matmul is a triple
//! loop, and every row attends over its whole history, recomputed from the
//! embeddings on every call. There is no KV store, no `par`, no SIMD and no
//! `Linear`. It is generic over its scalar ([`Scalar`]), with only the
//! `f32` instance so far, whose `exp` and `tanh` are `ops::libm`'s
//! transcriptions.
//!
//! **Where the bits must agree.** Every optimized output here is one of
//! two kinds of chain (DESIGN §4b), and the oracle spells out both:
//! * the `matmul` family (the projections, the attention context) keeps
//!   one ascending chain per output from `+0`: a fused multiply-add per
//!   term on AVX2+FMA hosts, a multiply then an add elsewhere ([`fma`]);
//! * the `dot` family (the attention scores, the tied LM head) reduces
//!   through `simd::dot`'s fixed tree, which [`dot`] replays in scalar
//!   code: two 8-lane chains on AVX2+FMA hosts, four scalar chains and a
//!   tail elsewhere.
//!
//! Softmax, layer norm, GELU and the residual adds are scalar code in the
//! optimized crates too, written here in the same order. So every route
//! must match the oracle bit for bit, and the tests assert exactly that.
//! The fixture widths are multiples of 16, so no kernel takes a
//! non-fused tail lane.

use std::ops::{Add, Div, Mul, Sub};

use ratatouille_tensor::{ops, Tensor, Var};
use ratatouille_util::proptest::prelude::*;
use ratatouille_util::rng::{RngExt, SeedableRng, StdRng};

use crate::batch::BatchStepModel;
use crate::gpt2::{Gpt2Config, Gpt2Lm};
use crate::kv_block::{BlockConfig, BlockPool, PrefixCache, SeqKv};
use crate::lm::{Batch, InferenceModel, LanguageModel};
use crate::transformer::{BatchScratch, Block};

/// The arithmetic the naive forward needs.
pub(crate) trait Scalar:
    Copy + PartialOrd + Add<Output = Self> + Sub<Output = Self> + Mul<Output = Self> + Div<Output = Self>
{
    /// The scalar nearest to an `f32` parameter or constant.
    fn of(x: f32) -> Self;
    /// `self · a + b` with one rounding.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// `eˣ`.
    fn exp(self) -> Self;
    /// `tanh x`.
    fn tanh(self) -> Self;
    /// `√x`.
    fn sqrt(self) -> Self;
}

impl Scalar for f32 {
    fn of(x: f32) -> Self {
        x
    }

    fn mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }

    fn exp(self) -> Self {
        ops::libm::expf(self)
    }

    fn tanh(self) -> Self {
        // A one-element tensor takes the scalar `tanhf` transcription.
        ops::tanh(&Tensor::scalar(self)).item()
    }

    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
}

/// Whether this host runs the 8-lane FMA kernels (the optimized crates'
/// own probe is private to them).
fn fused() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// One step of a `matmul`-family chain: `acc + a·b`.
fn fma<S: Scalar>(acc: S, a: S, b: S) -> S {
    if fused() {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// `simd::dot`'s reduction, replayed one scalar at a time.
fn dot<S: Scalar>(a: &[S], b: &[S]) -> S {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    let zero = S::of(0.0);
    if fused() {
        // 8-lane chunk `c` feeds chain `c & 1`; then `acc0 + acc1`, the low
        // half plus the high half, lanes `(0 + 2) + (1 + 3)`, and the tail
        // one multiply and one add at a time.
        let mut acc = [[zero; 8]; 2];
        let whole = n / 8 * 8;
        for (c, i) in (0..whole).step_by(8).enumerate() {
            for l in 0..8 {
                acc[c & 1][l] = a[i + l].mul_add(b[i + l], acc[c & 1][l]);
            }
        }
        let s: Vec<S> = (0..8).map(|l| acc[0][l] + acc[1][l]).collect();
        let h: Vec<S> = (0..4).map(|l| s[l] + s[l + 4]).collect();
        let mut total = (h[0] + h[2]) + (h[1] + h[3]);
        for i in whole..n {
            total = total + a[i] * b[i];
        }
        total
    } else {
        let mut acc = [zero; 4];
        let whole = n / 4 * 4;
        for i in (0..whole).step_by(4) {
            for l in 0..4 {
                acc[l] = acc[l] + a[i + l] * b[i + l];
            }
        }
        let mut tail = zero;
        for i in whole..n {
            tail = tail + a[i] * b[i];
        }
        ((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail
    }
}

/// `x [m, k] @ w [k, n] + bias`: one ascending chain per output from
/// `+0`, then the bias.
fn linear<S: Scalar>(x: &[S], w: &[S], bias: &[S], k: usize) -> Vec<S> {
    let n = bias.len();
    let mut out = Vec::with_capacity(x.len() / k * n);
    for row in x.chunks_exact(k) {
        for j in 0..n {
            let mut acc = S::of(0.0);
            for kk in 0..k {
                acc = fma(acc, row[kk], w[kk * n + j]);
            }
            out.push(acc + bias[j]);
        }
    }
    out
}

/// Layer norm over rows of `g.len()`: mean, biased variance, `1/√(var + ε)`.
fn layer_norm<S: Scalar>(x: &[S], g: &[S], b: &[S]) -> Vec<S> {
    let d = g.len();
    let n = S::of(d as f32);
    let mut out = Vec::with_capacity(x.len());
    for row in x.chunks_exact(d) {
        let mut sum = S::of(0.0);
        for &v in row {
            sum = sum + v;
        }
        let mean = sum / n;
        let mut sq = S::of(0.0);
        for &v in row {
            sq = sq + (v - mean) * (v - mean);
        }
        let rstd = S::of(1.0) / (sq / n + S::of(1e-5)).sqrt();
        out.extend(row.iter().zip(g.iter().zip(b)).map(|(&v, (&g, &b))| (v - mean) * rstd * g + b));
    }
    out
}

/// GPT-2's tanh-approximate GELU.
fn gelu<S: Scalar>(x: S) -> S {
    let inner = S::of(0.797_884_6) * (x + S::of(0.044_715) * x * x * x);
    S::of(0.5) * x * (S::of(1.0) + inner.tanh())
}

/// `exp(v − max) · (1 / Σ)`, the sum in index order.
fn softmax<S: Scalar>(scores: &[S]) -> Vec<S> {
    let mut max = S::of(f32::NEG_INFINITY);
    for &s in scores {
        if s > max {
            max = s;
        }
    }
    let e: Vec<S> = scores.iter().map(|&s| (s - max).exp()).collect();
    let mut sum = S::of(0.0);
    for &v in &e {
        sum = sum + v;
    }
    let inv = S::of(1.0) / sum;
    e.into_iter().map(|v| v * inv).collect()
}

/// One block's parameters, copied out of the model.
struct NaiveBlock<S> {
    ln1: (Vec<S>, Vec<S>),
    qkv: (Vec<S>, Vec<S>),
    o: (Vec<S>, Vec<S>),
    ln2: (Vec<S>, Vec<S>),
    up: (Vec<S>, Vec<S>),
    down: (Vec<S>, Vec<S>),
}

/// The naive GPT-2: the model's parameters and config, nothing else.
pub(crate) struct Naive<S> {
    cfg: Gpt2Config,
    wte: Vec<S>,
    wpe: Vec<S>,
    blocks: Vec<NaiveBlock<S>>,
    lnf: (Vec<S>, Vec<S>),
}

/// A model parameter by name.
fn param(model: &Gpt2Lm, name: &str) -> Var {
    let found = model.named_parameters().into_iter().find(|(n, _)| n == name);
    found.unwrap_or_else(|| panic!("no parameter `{name}`")).1
}

impl<S: Scalar> Naive<S> {
    pub(crate) fn new(model: &Gpt2Lm) -> Self {
        let get = |name: &str| -> Vec<S> { param(model, name).value().data().iter().map(|&x| S::of(x)).collect() };
        let pair = |i: usize, w: &str, b: &str| (get(&format!("block{i}.{w}")), get(&format!("block{i}.{b}")));
        let cfg = model.config().clone();
        Naive {
            wte: get("wte"),
            wpe: get("wpe"),
            blocks: (0..cfg.n_layers)
                .map(|i| NaiveBlock {
                    ln1: pair(i, "ln1_g", "ln1_b"),
                    qkv: pair(i, "w_qkv", "b_qkv"),
                    o: pair(i, "w_o", "b_o"),
                    ln2: pair(i, "ln2_g", "ln2_b"),
                    up: pair(i, "w_up", "b_up"),
                    down: pair(i, "w_down", "b_down"),
                })
                .collect(),
            lnf: (get("lnf_g"), get("lnf_b")),
            cfg,
        }
    }

    /// The logits `[V]` after each token of `tokens`, every row computed
    /// from scratch over its whole history. Positions past `max_t` read
    /// the last learned position, as decoding does.
    pub(crate) fn logits(&self, tokens: &[u32]) -> Vec<Vec<S>> {
        let cfg = &self.cfg;
        let (d, heads) = (cfg.d_model, cfg.n_heads);
        let dh = d / heads;
        let mut x = Vec::with_capacity(tokens.len() * d);
        for (pos, &tok) in tokens.iter().enumerate() {
            let (te, pe) = (tok as usize * d, pos.min(cfg.max_t - 1) * d);
            x.extend((0..d).map(|j| self.wte[te + j] + self.wpe[pe + j]));
        }
        let scale = S::of(1.0) / S::of(dh as f32).sqrt();
        for (layer, blk) in self.blocks.iter().enumerate() {
            let window = cfg.local_window.filter(|_| layer % 2 == 1);
            let ln = layer_norm(&x, &blk.ln1.0, &blk.ln1.1);
            let qkv = linear(&ln, &blk.qkv.0, &blk.qkv.1, d);
            let at = |row: usize, part: usize, h: usize| &qkv[row * 3 * d + part * d + h * dh..][..dh];
            let mut ctx = vec![S::of(0.0); tokens.len() * d];
            for i in 0..tokens.len() {
                let start = window.map_or(0, |w| (i + 1).saturating_sub(w));
                for h in 0..heads {
                    let scores: Vec<S> = (start..=i).map(|j| dot(at(i, 0, h), at(j, 1, h)) * scale).collect();
                    let out = &mut ctx[i * d + h * dh..][..dh];
                    for (p, j) in softmax(&scores).into_iter().zip(start..=i) {
                        for (o, &v) in out.iter_mut().zip(at(j, 2, h)) {
                            *o = fma(*o, p, v);
                        }
                    }
                }
            }
            let attn = linear(&ctx, &blk.o.0, &blk.o.1, d);
            let x1: Vec<S> = x.iter().zip(&attn).map(|(&a, &b)| a + b).collect();
            let ln2 = layer_norm(&x1, &blk.ln2.0, &blk.ln2.1);
            let up: Vec<S> = linear(&ln2, &blk.up.0, &blk.up.1, d).into_iter().map(gelu).collect();
            let down = linear(&up, &blk.down.0, &blk.down.1, cfg.d_ff);
            x = x1.iter().zip(&down).map(|(&a, &b)| a + b).collect();
        }
        let ln = layer_norm(&x, &self.lnf.0, &self.lnf.1);
        ln.chunks_exact(d)
            .map(|row| self.wte.chunks_exact(d).map(|e| dot(row, e)).collect())
            .collect()
    }
}

/// An untrained GPT-2 from `cfg` whose biases and layer-norm parameters
/// are nonzero, so a route that applies a bias or a gain in a different
/// place cannot hide behind a zero bias or a unit gain.
fn biased(cfg: Gpt2Config, salt: u64) -> Gpt2Lm {
    let model = Gpt2Lm::new(cfg);
    let mut rng = StdRng::seed_from_u64(salt);
    for (_, p) in model.named_parameters() {
        let v = p.value();
        if v.dims().len() == 1 {
            let data = v.data().iter().map(|&x| x + rng.random::<f32>() * 0.4 - 0.2).collect();
            p.set_value(Tensor::from_vec(data, v.dims()).expect("same shape"));
        }
    }
    model
}

/// Plain GPT-2 at `dh = 16`, or GPT-Neo (odd layers attend to the
/// trailing 5 positions) at `dh = 8`. Every width is a multiple of 16, so
/// the model is batch-ready.
fn fixture(windowed: bool, seed: u64) -> Gpt2Lm {
    biased(
        Gpt2Config {
            name: if windowed { "oracle-neo" } else { "oracle-gpt2" }.into(),
            vocab: 40,
            d_model: 32,
            n_heads: if windowed { 4 } else { 2 },
            n_layers: 2,
            d_ff: 64,
            max_t: 24,
            local_window: windowed.then_some(5),
            dropout: 0.1,
            seed,
        },
        seed ^ 0xB1A5,
    )
}

fn tokens(rng: &mut StdRng, n: usize, vocab: usize) -> Vec<u32> {
    (0..n).map(|_| rng.below(vocab) as u32).collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Every row of `got` equals the oracle's row at the same position.
fn same_rows(route: &str, got: &[Vec<f32>], want: &[Vec<f32>]) -> Result<(), String> {
    prop_assert_eq!(got.len(), want.len(), "{}: row count", route);
    for (pos, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(bits(g), bits(w), "{}: logits at position {}", route, pos);
    }
    Ok(())
}

/// The solo `TokenStream`: one pool block of `max_t` tokens, a second one
/// past it.
fn solo_stream(model: &Gpt2Lm, toks: &[u32]) -> Vec<Vec<f32>> {
    let mut s = model.start_stream();
    toks.iter().map(|&t| s.push(t).to_vec()).collect()
}

/// `batch_step` over a pool of `block_tokens`-token blocks, lane `i`
/// joining at step `i`, so each step mixes positions. Returns each lane's
/// logits by position.
fn batched(model: &Gpt2Lm, lanes: &[Vec<u32>], block_tokens: usize) -> Vec<Vec<Vec<f32>>> {
    let cfg = model.config();
    let blocks: usize = lanes.iter().map(|l| l.len().div_ceil(block_tokens)).sum();
    let mut pool = BlockPool::new(BlockConfig { layers: cfg.n_layers, d: cfg.d_model, block_tokens, num_blocks: blocks });
    let mut seqs: Vec<SeqKv> = lanes
        .iter()
        .map(|l| {
            let mut s = SeqKv::new();
            s.reserve_for(&mut pool, l.len()).expect("pool sized for every lane");
            s
        })
        .collect();
    let mut out = vec![Vec::new(); lanes.len()];
    let mut scratch = BatchScratch::new();
    let steps = (0..lanes.len()).map(|i| i + lanes[i].len()).max().unwrap_or(0);
    for step in 0..steps {
        let live: Vec<usize> = (0..lanes.len()).filter(|&i| step >= i && step - i < lanes[i].len()).collect();
        let toks: Vec<u32> = live.iter().map(|&i| lanes[i][step - i]).collect();
        let mut refs: Vec<&mut SeqKv> = seqs.iter_mut().enumerate().filter(|(i, _)| live.contains(i)).map(|(_, s)| s).collect();
        for s in refs.iter_mut() {
            s.prepare_write(&mut pool).expect("reserved");
        }
        let logits = model.batch_step(&toks, &mut pool, &mut refs, &mut scratch);
        for s in refs.iter_mut() {
            s.commit();
        }
        for (&i, l) in live.iter().zip(logits) {
            out[i].push(l.to_vec());
        }
    }
    out
}

/// A sequence that adopts another's registered prefix blocks, then
/// decodes its own tail: the tail's logits by position, from `shared` on.
fn adopted(model: &Gpt2Lm, first: &[u32], second: &[u32]) -> (usize, Vec<Vec<f32>>) {
    let cfg = model.config();
    let bt = 4;
    let num_blocks = 2 * first.len().max(second.len()).div_ceil(bt);
    let mut pool = BlockPool::new(BlockConfig { layers: cfg.n_layers, d: cfg.d_model, block_tokens: bt, num_blocks });
    let mut scratch = BatchScratch::new();
    let mut feed = |pool: &mut BlockPool, seq: &mut SeqKv, toks: &[u32]| -> Vec<Vec<f32>> {
        toks.iter()
            .map(|&t| {
                seq.prepare_write(pool).expect("reserved");
                let l = model.batch_step(&[t], pool, &mut [&mut *seq], &mut scratch);
                seq.commit();
                l[0].to_vec()
            })
            .collect()
    };
    let mut a = SeqKv::new();
    a.reserve_for(&mut pool, first.len()).expect("pool sized for the first");
    feed(&mut pool, &mut a, first);
    let mut cache = PrefixCache::new(2);
    cache.insert(&mut pool, first, &a);
    let hit = cache.lookup(&mut pool, second, second.len() - 1);
    let mut b = SeqKv::new();
    b.adopt_shared(&pool, hit.blocks);
    b.reserve_for(&mut pool, second.len()).expect("pool sized for the second");
    (hit.tokens, feed(&mut pool, &mut b, &second[hit.tokens..]))
}

/// The training forward (`Gpt2Lm::forward_logits` at `train = false`),
/// spelled out over the model's own parameters and `Block::forward`:
/// `[B·T, V]` rows. The caller checks that its cross-entropy is
/// `forward_loss`'s to the bit, so this is that route and not a copy
/// of it.
fn training_logits(model: &Gpt2Lm, batch: &Batch) -> Tensor {
    let cfg = model.config();
    let (b, t, d) = (batch.batch_size(), batch.seq_len(), cfg.d_model);
    let p = |name: String| param(model, &name);
    let mut rng = StdRng::seed_from_u64(0);
    let tok = p("wte".into()).embedding(&batch.flat_inputs());
    let positions: Vec<usize> = (0..b).flat_map(|_| 0..t).collect();
    let mut x = tok.add(&p("wpe".into()).embedding(&positions)).reshape(&[b, t, d]);
    for i in 0..cfg.n_layers {
        let q = |n: &str| p(format!("block{i}.{n}"));
        let blk = Block {
            ln1_g: q("ln1_g"),
            ln1_b: q("ln1_b"),
            w_qkv: q("w_qkv"),
            b_qkv: q("b_qkv"),
            w_o: q("w_o"),
            b_o: q("b_o"),
            ln2_g: q("ln2_g"),
            ln2_b: q("ln2_b"),
            w_up: q("w_up"),
            b_up: q("b_up"),
            w_down: q("w_down"),
            b_down: q("b_down"),
        };
        let window = cfg.local_window.filter(|_| i % 2 == 1);
        x = blk.forward(&x, cfg.n_heads, window, cfg.dropout, false, &mut rng);
    }
    let ln = x.reshape(&[b * t, d]).layer_norm(&p("lnf_g".into()), &p("lnf_b".into()), 1e-5);
    let logits = ln.matmul_transb(&p("wte".into()));
    let loss = logits.cross_entropy(&batch.flat_targets(), batch.pad_id as usize).value().item();
    let real = model.forward_loss(batch, false, &mut rng).value().item();
    assert_eq!(loss.to_bits(), real.to_bits(), "the spelled-out forward is not forward_logits");
    logits.value()
}

/// Every route of one fixture against the oracle.
fn routes_match_oracle(windowed: bool, seed: u64) -> Result<(), String> {
    let model = fixture(windowed, seed);
    let oracle = Naive::<f32>::new(&model);
    let cfg = model.config().clone();
    let mut rng = StdRng::seed_from_u64(seed);

    // A solo stream past max_t: one max_t block, then a second.
    let long = tokens(&mut rng, cfg.max_t + 9, cfg.vocab);
    let want = oracle.logits(&long);
    same_rows("solo stream", &solo_stream(&model, &long), &want)?;

    // batch_step at B ∈ {1, 3, 8} over 16-token blocks; lane 0 is the
    // long sequence, so 16-token blocks meet the solo stream's one block.
    let mut lanes = vec![long];
    lanes.extend((1..8).map(|i| tokens(&mut rng, 3 + 2 * i, cfg.vocab)));
    let wants: Vec<Vec<Vec<f32>>> = std::iter::once(want).chain(lanes[1..].iter().map(|l| oracle.logits(l))).collect();
    for b in [1, 3, 8] {
        for (lane, got) in batched(&model, &lanes[..b], 16).iter().enumerate() {
            same_rows(&format!("batch_step B={b} lane {lane}"), got, &wants[lane])?;
        }
    }

    // Prefix adoption: two shared 4-token blocks, then a divergent tail.
    let first = tokens(&mut rng, 11, cfg.vocab);
    let mut second = first[..8].to_vec();
    second.extend(tokens(&mut rng, 5, cfg.vocab));
    let (shared, got) = adopted(&model, &first, &second);
    prop_assert_eq!(shared, 8, "the second sequence adopted no prefix");
    same_rows("prefix adoption", &got, &oracle.logits(&second)[shared..])?;

    // The training forward: one full max_t batch of three (the packed
    // GEMMs) and one short row (the decode-sized ones).
    for (b, t) in [(3, cfg.max_t), (1, 5)] {
        let inputs: Vec<Vec<u32>> = (0..b).map(|_| tokens(&mut rng, t, cfg.vocab)).collect();
        let batch = Batch { targets: inputs.clone(), inputs, pad_id: 0 };
        let logits = training_logits(&model, &batch);
        let got: Vec<Vec<f32>> = logits.data().chunks_exact(cfg.vocab).map(<[f32]>::to_vec).collect();
        let want: Vec<Vec<f32>> = batch.inputs.iter().flat_map(|row| oracle.logits(row)).collect();
        same_rows(&format!("training forward B={b} T={t}"), &got, &want)?;
    }
    Ok(())
}

proptest! {
    cases = 24;

    /// Solo stream, `batch_step` at B ∈ {1, 3, 8}, 16-token blocks against
    /// one `max_t` block, decode past `max_t`, prefix adoption and the
    /// training forward, for GPT-2 and a windowed GPT-Neo: all bit for bit
    /// the naive forward's logits.
    #[test]
    fn every_route_matches_the_naive_forward(seed in any::<u64>()) {
        routes_match_oracle(false, seed)?;
        routes_match_oracle(true, seed)?;
    }
}
