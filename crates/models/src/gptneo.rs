//! GPT-Neo-style language model — the paper's stated future work
//! ("we intend to use GPT-Neo which is built on similar architecture of
//! GPT-3").
//!
//! GPT-Neo's architectural signature vs GPT-2 is **alternating global and
//! local (windowed) causal attention**: even layers attend to the full
//! prefix, odd layers only to a sliding window of the last `window`
//! positions. This reproduction implements exactly that on top of the
//! shared [`Block`] parameters, reusing GPT-2's embeddings and head.

use ratatouille_util::rng::StdRng;
use ratatouille_util::rng::SeedableRng;
use ratatouille_tensor::ops::{qmatmul_transb, quantize_per_row, QuantizedMatrix};
use ratatouille_tensor::{init, ops, DType, Tensor, Var, F16};

use crate::lm::{Batch, InferenceModel, LanguageModel, TokenStream};
use crate::transformer::{Block, DecodeScratch, KvCache, QuantBlock};

/// GPT-Neo hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GptNeoConfig {
    /// Model display name.
    pub name: String,
    /// Vocabulary size.
    pub vocab: usize,
    /// Residual width.
    pub d_model: usize,
    /// Attention heads.
    pub n_heads: usize,
    /// Transformer blocks (alternating global/local attention).
    pub n_layers: usize,
    /// MLP inner width.
    pub d_ff: usize,
    /// Maximum context length.
    pub max_t: usize,
    /// Local-attention window (odd layers).
    pub window: usize,
    /// Dropout rate during training.
    pub dropout: f32,
    /// Initialization seed.
    pub seed: u64,
}

impl GptNeoConfig {
    /// A CPU-scaled tier comparable to [`crate::gpt2::Gpt2Config::medium`]
    /// (same depth/width) but with GPT-Neo's alternating local attention.
    pub fn small(vocab: usize) -> Self {
        GptNeoConfig {
            name: "GPT-Neo (future work)".into(),
            vocab,
            d_model: 128,
            n_heads: 4,
            n_layers: 4,
            d_ff: 512,
            max_t: 192,
            window: 64,
            dropout: 0.1,
            seed: 0x0E0,
        }
    }
}

/// The GPT-Neo model.
pub struct GptNeoLm {
    config: GptNeoConfig,
    wte: Var,
    wpe: Var,
    blocks: Vec<Block>,
    lnf_g: Var,
    lnf_b: Var,
}

impl GptNeoLm {
    /// Initialize from a config.
    pub fn new(config: GptNeoConfig) -> Self {
        assert_eq!(config.d_model % config.n_heads, 0);
        assert!(config.window >= 1, "window must be positive");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let wte = Var::leaf(init::randn(&mut rng, &[config.vocab, config.d_model], 0.02));
        let wpe = Var::leaf(init::randn(&mut rng, &[config.max_t, config.d_model], 0.01));
        let blocks = (0..config.n_layers)
            .map(|_| Block::new(&mut rng, config.d_model, config.d_ff, config.n_layers))
            .collect();
        GptNeoLm {
            lnf_g: Var::leaf(Tensor::ones(&[config.d_model])),
            lnf_b: Var::leaf(Tensor::zeros(&[config.d_model])),
            config,
            wte,
            wpe,
            blocks,
        }
    }

    /// The config this model was built with.
    pub fn config(&self) -> &GptNeoConfig {
        &self.config
    }

    /// Is layer `i` a local-attention layer? (GPT-Neo alternates,
    /// starting global.)
    pub fn is_local_layer(&self, i: usize) -> bool {
        i % 2 == 1
    }

    /// Snapshot this model into an int8 weight-quantized inference-only
    /// copy. Unlike the f32 stream (which recomputes the full forward per
    /// token), the quantized variant decodes incrementally with per-layer
    /// f16 KV caches; local layers attend through a trailing window of
    /// cached positions, matching the training-time window mask.
    pub fn quantize(&self) -> QuantGptNeoLm {
        let wte = self.wte.value();
        QuantGptNeoLm {
            name: format!("{} [int8]", self.config.name),
            wte_q: quantize_per_row(&wte),
            wte,
            wpe: self.wpe.value(),
            blocks: self.blocks.iter().map(QuantBlock::from_block).collect(),
            lnf_g: self.lnf_g.value(),
            lnf_b: self.lnf_b.value(),
            config: self.config.clone(),
        }
    }

    /// Block forward with windowed causal attention (pre-LN). Equivalent
    /// to [`Block::forward`] but masks scores outside the window before
    /// the softmax.
    fn forward_local(
        &self,
        blk: &Block,
        x: &Var,
        train: bool,
        rng: &mut StdRng,
    ) -> Var {
        let (b, t, d) = (x.dims()[0], x.dims()[1], x.dims()[2]);
        let heads = self.config.n_heads;
        let dh = d / heads;
        let ln = x.reshape(&[b * t, d]).layer_norm(&blk.ln1_g, &blk.ln1_b, 1e-5);
        let qkv = ln.matmul(&blk.w_qkv).add_broadcast(&blk.b_qkv);
        let split = |start: usize| -> Var {
            qkv.narrow(1, start, d)
                .reshape(&[b, t, heads, dh])
                .permute(&[0, 2, 1, 3])
                .reshape(&[b * heads, t, dh])
        };
        let q = split(0);
        let k = split(d);
        let v = split(2 * d);
        let scores = q.bmm_transb(&k).scale(1.0 / (dh as f32).sqrt());
        // window mask: add -inf (large negative) outside [i-window+1, i]
        let masked = scores.add(&Var::constant(window_mask(
            b * heads,
            t,
            self.config.window,
        )));
        let mut weights = masked.causal_masked_softmax();
        if train && self.config.dropout > 0.0 {
            weights = weights.dropout(self.config.dropout, rng);
        }
        let ctx = weights
            .bmm(&v)
            .reshape(&[b, heads, t, dh])
            .permute(&[0, 2, 1, 3])
            .reshape(&[b * t, d]);
        let mut attn_out = ctx.matmul(&blk.w_o).add_broadcast(&blk.b_o);
        if train && self.config.dropout > 0.0 {
            attn_out = attn_out.dropout(self.config.dropout, rng);
        }
        let x1 = x.reshape(&[b * t, d]).add(&attn_out);
        let ln2 = x1.layer_norm(&blk.ln2_g, &blk.ln2_b, 1e-5);
        let mut mlp = ln2
            .matmul(&blk.w_up)
            .add_broadcast(&blk.b_up)
            .gelu()
            .matmul(&blk.w_down)
            .add_broadcast(&blk.b_down);
        if train && self.config.dropout > 0.0 {
            mlp = mlp.dropout(self.config.dropout, rng);
        }
        x1.add(&mlp).reshape(&[b, t, d])
    }
}

/// Additive mask `[BH, T, T]`: 0 inside the causal window, -1e9 outside.
fn window_mask(bh: usize, t: usize, window: usize) -> Tensor {
    let mut m = vec![0.0f32; bh * t * t];
    for b in 0..bh {
        for i in 0..t {
            for j in 0..t {
                let outside = j + window <= i; // j < i - window + 1
                if outside {
                    m[b * t * t + i * t + j] = -1e9;
                }
            }
        }
    }
    Tensor::from_vec(m, &[bh, t, t]).expect("mask shape")
}

impl InferenceModel for GptNeoLm {
    fn name(&self) -> &str {
        &self.config.name
    }

    fn vocab_size(&self) -> usize {
        self.config.vocab
    }

    fn max_context(&self) -> usize {
        self.config.max_t
    }

    fn start_stream(&self) -> Box<dyn TokenStream + '_> {
        Box::new(GptNeoStream {
            model: self,
            history: Vec::new(),
        })
    }
}

impl LanguageModel for GptNeoLm {
    fn parameters(&self) -> Vec<Var> {
        self.named_parameters().into_iter().map(|(_, v)| v).collect()
    }

    fn named_parameters(&self) -> Vec<(String, Var)> {
        let mut out = vec![
            ("wte".to_string(), self.wte.clone()),
            ("wpe".to_string(), self.wpe.clone()),
        ];
        for (i, b) in self.blocks.iter().enumerate() {
            out.extend(b.named_parameters(&format!("block{i}")));
        }
        out.push(("lnf_g".to_string(), self.lnf_g.clone()));
        out.push(("lnf_b".to_string(), self.lnf_b.clone()));
        out
    }

    fn forward_loss(&self, batch: &Batch, train: bool, rng: &mut StdRng) -> Var {
        batch.assert_well_formed();
        let (b, t, d) = (batch.batch_size(), batch.seq_len(), self.config.d_model);
        assert!(t <= self.config.max_t, "sequence {t} > max context");
        let tok = self.wte.embedding(&batch.flat_inputs());
        let positions: Vec<usize> = (0..b).flat_map(|_| 0..t).collect();
        let pos = self.wpe.embedding(&positions);
        let mut x = tok.add(&pos);
        if train && self.config.dropout > 0.0 {
            x = x.dropout(self.config.dropout, rng);
        }
        let mut x = x.reshape(&[b, t, d]);
        for (i, blk) in self.blocks.iter().enumerate() {
            x = if self.is_local_layer(i) {
                self.forward_local(blk, &x, train, rng)
            } else {
                blk.forward(&x, self.config.n_heads, self.config.dropout, train, rng)
            };
        }
        let flat = x.reshape(&[b * t, d]).layer_norm(&self.lnf_g, &self.lnf_b, 1e-5);
        flat.matmul_transb(&self.wte)
            .cross_entropy(&batch.flat_targets(), batch.pad_id as usize)
    }

    fn quantized(&self) -> Option<Box<dyn InferenceModel>> {
        Some(Box::new(self.quantize()))
    }
}

/// An int8 weight-quantized, inference-only GPT-Neo.
///
/// Built via [`GptNeoLm::quantize`]. Holds plain tensors, not `Var`s, so
/// it cannot be trained. Decoding is incremental (per-layer [`F16`] KV
/// caches); odd layers attend only to the trailing
/// [`GptNeoConfig::window`] cached positions.
pub struct QuantGptNeoLm {
    name: String,
    config: GptNeoConfig,
    /// f32 token embedding `[V, D]`.
    wte: Tensor,
    /// The tied LM head, quantized `[V, D]` output-major.
    wte_q: QuantizedMatrix,
    /// f32 position embedding `[max_t, D]`.
    wpe: Tensor,
    blocks: Vec<QuantBlock>,
    lnf_g: Tensor,
    lnf_b: Tensor,
}

impl QuantGptNeoLm {
    /// The config of the f32 model this was quantized from.
    pub fn config(&self) -> &GptNeoConfig {
        &self.config
    }
}

impl InferenceModel for QuantGptNeoLm {
    fn name(&self) -> &str {
        &self.name
    }

    fn vocab_size(&self) -> usize {
        self.config.vocab
    }

    fn max_context(&self) -> usize {
        self.config.max_t
    }

    fn dtype(&self) -> DType {
        DType::I8
    }

    fn start_stream(&self) -> Box<dyn TokenStream + '_> {
        Box::new(QuantGptNeoStream {
            model: self,
            caches: (0..self.config.n_layers)
                .map(|_| KvCache::with_capacity(self.config.d_model, self.config.max_t))
                .collect(),
            scratch: DecodeScratch::new(),
            pos: 0,
        })
    }
}

/// Incremental decoding state for the quantized GPT-Neo: one f16 KV cache
/// per block plus the shared attention scratch.
struct QuantGptNeoStream<'m> {
    model: &'m QuantGptNeoLm,
    caches: Vec<KvCache<F16>>,
    scratch: DecodeScratch,
    pos: usize,
}

impl TokenStream for QuantGptNeoStream<'_> {
    fn push(&mut self, token: u32) -> Tensor {
        let m = self.model;
        let d = m.config.d_model;
        assert!((token as usize) < m.config.vocab, "token out of vocab");
        let pos_idx = self.pos.min(m.config.max_t - 1);
        let tok = ops::embedding(&m.wte, &[token as usize]).reshape(&[d]);
        let pos = ops::embedding(&m.wpe, &[pos_idx]).reshape(&[d]);
        let mut x = ops::add(&tok, &pos);
        for (i, (blk, cache)) in m.blocks.iter().zip(&mut self.caches).enumerate() {
            let window = if i % 2 == 1 {
                Some(m.config.window)
            } else {
                None
            };
            x = blk.forward_incremental(&x, m.config.n_heads, cache, &mut self.scratch, window);
        }
        self.pos += 1;
        let (ln, _, _) = ops::layer_norm(&x.reshape(&[1, d]), &m.lnf_g, &m.lnf_b, 1e-5);
        qmatmul_transb(&ln, &m.wte_q).reshape(&[m.config.vocab])
    }

    fn position(&self) -> usize {
        self.pos
    }
}

/// Incremental decoding by recomputation over the (window-bounded)
/// history. Simpler than a per-layer KV cache and exact: local layers
/// only ever need the last `window` positions, so the recompute cost is
/// bounded.
struct GptNeoStream<'m> {
    model: &'m GptNeoLm,
    history: Vec<u32>,
}

impl TokenStream for GptNeoStream<'_> {
    fn push(&mut self, token: u32) -> Tensor {
        let m = self.model;
        assert!((token as usize) < m.config.vocab, "token out of vocab");
        self.history.push(token);
        // bound recomputation to the model's max context
        let start = self.history.len().saturating_sub(m.config.max_t);
        let ctx = &self.history[start..];
        let batch = Batch {
            inputs: vec![ctx.to_vec()],
            targets: vec![vec![0; ctx.len()]],
            pad_id: u32::MAX, // never matches: loss unused
        };
        // run the forward for logits only (via a throwaway rng; dropout off)
        let mut rng = StdRng::seed_from_u64(0);
        let t = ctx.len();
        let d = m.config.d_model;
        let tok = ops::embedding(&m.wte.value(), &batch.flat_inputs());
        let positions: Vec<usize> = (0..t).collect();
        let pos = ops::embedding(&m.wpe.value(), &positions);
        let x = Var::constant(ops::add(&tok, &pos).reshape(&[1, t, d]));
        let mut x = x;
        for (i, blk) in m.blocks.iter().enumerate() {
            x = if m.is_local_layer(i) {
                m.forward_local(blk, &x, false, &mut rng)
            } else {
                blk.forward(&x, m.config.n_heads, 0.0, false, &mut rng)
            };
        }
        let flat = x
            .reshape(&[t, d])
            .layer_norm(
                &Var::constant(m.lnf_g.value()),
                &Var::constant(m.lnf_b.value()),
                1e-5,
            )
            .value();
        let last = ops::narrow(&flat, 0, t - 1, 1);
        ops::matmul_transb(&last, &m.wte.value()).reshape(&[m.config.vocab])
    }

    fn position(&self) -> usize {
        self.history.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratatouille_tensor::optim::{zero_grads, Adam, Optimizer};

    fn tiny() -> GptNeoLm {
        GptNeoLm::new(GptNeoConfig {
            name: "tiny-neo".into(),
            vocab: 16,
            d_model: 16,
            n_heads: 2,
            n_layers: 2,
            d_ff: 32,
            max_t: 16,
            window: 4,
            dropout: 0.0,
            seed: 9,
        })
    }

    fn toy_batch() -> Batch {
        let seq: Vec<u32> = (0..13).map(|i| 2 + (i % 4)).collect();
        Batch {
            inputs: vec![seq[..12].to_vec(); 2],
            targets: vec![seq[1..].to_vec(); 2],
            pad_id: 0,
        }
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

    #[test]
    fn learns_a_cycle() {
        let m = tiny();
        let params = m.parameters();
        let mut opt = Adam::new(0.01);
        let mut rng = StdRng::seed_from_u64(1);
        let mut last = f32::MAX;
        for _ in 0..100 {
            zero_grads(&params);
            let loss = m.forward_loss(&toy_batch(), true, &mut rng);
            last = loss.value().item();
            loss.backward();
            opt.step(&params);
        }
        assert!(last < 0.6, "cycle not learned: {last}");
    }

    #[test]
    fn local_attention_actually_masks_long_range() {
        // With window=1 every local layer sees only itself: perturbing a
        // distant past token must not change the current output *through
        // local layers*. We test the mask directly through forward_local.
        let m = GptNeoLm::new(GptNeoConfig {
            window: 1,
            ..tiny().config().clone()
        });
        let mut rng = StdRng::seed_from_u64(2);
        let base = init::randn(&mut rng, &[1, 6, 16], 1.0);
        let mut altered = base.to_vec();
        for v in altered[..16].iter_mut() {
            *v += 3.0; // perturb position 0 only
        }
        let altered = Tensor::from_vec(altered, &[1, 6, 16]).unwrap();
        let blk = &m.blocks[1];
        let y1 = m.forward_local(blk, &Var::constant(base), false, &mut rng).value();
        let y2 = m
            .forward_local(blk, &Var::constant(altered), false, &mut rng)
            .value();
        // last position (5) attends only to itself under window=1
        for j in 0..16 {
            assert!(
                (y1.at(&[0, 5, j]) - y2.at(&[0, 5, j])).abs() < 1e-5,
                "window mask leaked long-range information"
            );
        }
    }

    #[test]
    fn stream_matches_trained_cycle() {
        let m = tiny();
        let params = m.parameters();
        let mut opt = Adam::new(0.01);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..120 {
            zero_grads(&params);
            let loss = m.forward_loss(&toy_batch(), true, &mut rng);
            loss.backward();
            opt.step(&params);
        }
        let mut s = m.start_stream();
        s.push(2);
        s.push(3);
        let logits = s.push(4);
        assert_eq!(ops::argmax_last(&logits), vec![5]);
    }

    #[test]
    fn all_parameters_receive_gradients() {
        let m = tiny();
        let mut rng = StdRng::seed_from_u64(4);
        let loss = m.forward_loss(&toy_batch(), true, &mut rng);
        loss.backward();
        for (name, p) in m.named_parameters() {
            assert!(p.grad().is_some(), "no grad for {name}");
        }
    }

    #[test]
    fn quantized_stream_matches_trained_cycle() {
        // The quantized incremental path (f16 KV cache + windowed local
        // layers) must reproduce the f32 stream's prediction on a
        // confidently-learned cycle, past the local window boundary.
        let m = tiny();
        let params = m.parameters();
        let mut opt = Adam::new(0.01);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..120 {
            zero_grads(&params);
            let loss = m.forward_loss(&toy_batch(), true, &mut rng);
            loss.backward();
            opt.step(&params);
        }
        let q = m.quantize();
        assert_eq!(InferenceModel::dtype(&q), DType::I8);
        let mut s32 = m.start_stream();
        let mut sq = InferenceModel::start_stream(&q);
        // run past the window (4) so local layers actually truncate
        for i in 0..10 {
            let tok = 2 + (i % 4) as u32;
            let l32 = s32.push(tok);
            let lq = sq.push(tok);
            assert!(!lq.has_non_finite(), "NaN at position {i}");
            assert_eq!(
                ops::argmax_last(&l32),
                ops::argmax_last(&lq),
                "prediction diverged at position {i}"
            );
        }
    }
}
