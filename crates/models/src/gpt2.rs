//! The GPT-2 language model (Radford et al., 2019), from scratch:
//! learned token + position embeddings, a stack of pre-LN transformer
//! blocks, a final layer norm, and a weight-tied LM head.
//!
//! The paper fine-tunes HuggingFace's pre-trained DistilGPT2 and GPT-2
//! medium; with no offline pre-trained weights, this reproduction trains
//! the same architecture from scratch at two capacity tiers whose *ratio*
//! mirrors distil-vs-medium (see [`Gpt2Config::distil`] /
//! [`Gpt2Config::medium`]). What Table I compares is relative capacity on
//! the recipe task, which the tiers preserve.
//!
//! GPT-Neo — the paper's stated future work ("we intend to use GPT-Neo
//! which is built on similar architecture of GPT-3") — is the same model
//! with one more config field: [`Gpt2Config::local_window`] makes the odd
//! layers attend to a sliding window instead of the full prefix
//! ([`Gpt2Config::neo_small`]).
//!
//! Decoding, solo or batched, f32 or int8, is one function
//! ([`DecodeWeights::logits`]) over one per-block step body
//! ([`DecodeBlock::decode_step`]) and one KV store ([`BlockPool`]).

use std::sync::Arc;

use ratatouille_util::rng::StdRng;
use ratatouille_util::rng::SeedableRng;
use ratatouille_tensor::ops::{qmatmul_transb, quantize_per_row, QuantizedMatrix};
use ratatouille_tensor::{init, ops, DType, Element, Tensor, Var, F16};

use crate::batch::{BatchStepModel, ModelDims};
use crate::kv_block::{BlockConfig, BlockPool, SeqKv};
use crate::lm::{Batch, InferenceModel, LanguageModel, TokenStream};
use crate::transformer::{BatchScratch, Block, DecodeBlock, Linear, PagedKv};

/// GPT-2 hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Gpt2Config {
    /// Model display name (Table I row).
    pub name: String,
    /// Vocabulary size.
    pub vocab: usize,
    /// Residual width.
    pub d_model: usize,
    /// Attention heads.
    pub n_heads: usize,
    /// Transformer blocks.
    pub n_layers: usize,
    /// MLP inner width.
    pub d_ff: usize,
    /// Maximum context length (learned positions).
    pub max_t: usize,
    /// GPT-Neo's alternating attention: odd layers attend only to the
    /// trailing `local_window` positions, even layers to the full prefix.
    /// `None` is plain GPT-2 (every layer global).
    pub local_window: Option<usize>,
    /// Dropout rate during training.
    pub dropout: f32,
    /// Initialization seed.
    pub seed: u64,
}

impl Gpt2Config {
    /// The "DistilGPT2" tier: half the layers of the bigger tier, narrow
    /// width (HF's distilgpt2 is 6 layers of GPT-2's 12 at d=768; here
    /// scaled to CPU).
    pub fn distil(vocab: usize) -> Self {
        Gpt2Config {
            name: "DistilGPT2".into(),
            vocab,
            d_model: 64,
            n_heads: 2,
            n_layers: 2,
            d_ff: 256,
            max_t: 256,
            local_window: None,
            dropout: 0.1,
            seed: 0xD157,
        }
    }

    /// The "GPT-2 medium" tier: deeper and wider (HF's gpt2-medium is 24
    /// layers at d=1024; here scaled to CPU, keeping the capacity ratio).
    pub fn medium(vocab: usize) -> Self {
        Gpt2Config {
            name: "GPT-2 medium".into(),
            vocab,
            d_model: 128,
            n_heads: 4,
            n_layers: 4,
            d_ff: 512,
            max_t: 256,
            local_window: None,
            dropout: 0.1,
            seed: 0x6127,
        }
    }

    /// The GPT-Neo tier: [`Gpt2Config::medium`]'s depth and width with
    /// alternating global / 64-token local attention.
    pub fn neo_small(vocab: usize) -> Self {
        Gpt2Config {
            name: "GPT-Neo (future work)".into(),
            max_t: 192,
            local_window: Some(64),
            seed: 0x0E0,
            ..Self::medium(vocab)
        }
    }

    /// The attention window of `layer` (GPT-Neo alternates, starting
    /// global); `None` = the full prefix.
    fn layer_window(&self, layer: usize) -> Option<usize> {
        self.local_window.filter(|_| layer % 2 == 1)
    }
}

/// The GPT-2 model.
pub struct Gpt2Lm {
    config: Gpt2Config,
    /// Token embedding `[V, D]` — also the (tied) unembedding.
    wte: Var,
    /// Position embedding `[max_t, D]`.
    wpe: Var,
    blocks: Vec<Block>,
    /// Final layer-norm gain `[D]`.
    lnf_g: Var,
    /// Final layer-norm bias `[D]`.
    lnf_b: Var,
}

impl Gpt2Lm {
    /// Initialize from a config (GPT-2's N(0, 0.02) scheme).
    pub fn new(config: Gpt2Config) -> Self {
        assert_eq!(
            config.d_model % config.n_heads,
            0,
            "d_model must divide evenly into heads"
        );
        assert_ne!(config.local_window, Some(0), "window must be positive");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let wte = Var::leaf(init::randn(&mut rng, &[config.vocab, config.d_model], 0.02));
        let wpe = Var::leaf(init::randn(&mut rng, &[config.max_t, config.d_model], 0.01));
        let blocks = (0..config.n_layers)
            .map(|_| Block::new(&mut rng, config.d_model, config.d_ff, config.n_layers))
            .collect();
        Gpt2Lm {
            lnf_g: Var::leaf(Tensor::ones(&[config.d_model])),
            lnf_b: Var::leaf(Tensor::zeros(&[config.d_model])),
            config,
            wte,
            wpe,
            blocks,
        }
    }

    /// The config this model was built with.
    pub fn config(&self) -> &Gpt2Config {
        &self.config
    }

    /// Snapshot this model into an int8 weight-quantized inference-only
    /// copy. Weights are quantized per output row; embeddings, layer
    /// norms and biases stay f32; the decode KV rows are stored as f16.
    pub fn quantize(&self) -> QuantGpt2Lm {
        QuantGpt2Lm {
            name: format!("{} [int8]", self.config.name),
            config: self.config.clone(),
            weights: Arc::new(self.decode_weights(DType::I8)),
        }
    }

    /// The current parameters as a decode weight set: `Arc` clones for
    /// [`DType::F32`] (cheap enough to take per stream and per batch
    /// step, so decoding always sees the latest training step), int8
    /// copies of every projection and of the tied head for [`DType::I8`].
    fn decode_weights(&self, dtype: DType) -> DecodeWeights {
        let int8 = dtype == DType::I8;
        let linear = if int8 { Linear::int8 } else { Linear::f32 };
        let wte = self.wte.value();
        DecodeWeights {
            // wte is [V, D]: for the tied head each vocab row is already
            // an output row, so it quantizes without a transpose.
            head_q: int8.then(|| quantize_per_row(&wte)),
            wte,
            wpe: self.wpe.value(),
            blocks: self.blocks.iter().map(|b| DecodeBlock::new(b, linear)).collect(),
            lnf_g: self.lnf_g.value(),
            lnf_b: self.lnf_b.value(),
        }
    }

    /// Differentiable logits for a batch: `[B*T, V]`.
    fn forward_logits(&self, batch: &Batch, train: bool, rng: &mut StdRng) -> Var {
        let (b, t, d) = (batch.batch_size(), batch.seq_len(), self.config.d_model);
        assert!(
            t <= self.config.max_t,
            "sequence {t} exceeds max context {}",
            self.config.max_t
        );
        let tok = self.wte.embedding(&batch.flat_inputs()); // [B*T, D]
        let positions: Vec<usize> = (0..b).flat_map(|_| 0..t).collect();
        let pos = self.wpe.embedding(&positions); // [B*T, D]
        let mut x = tok.add(&pos);
        if train && self.config.dropout > 0.0 {
            x = x.dropout(self.config.dropout, rng);
        }
        let mut x = x.reshape(&[b, t, d]);
        for (i, blk) in self.blocks.iter().enumerate() {
            let window = self.config.layer_window(i);
            x = blk.forward(&x, self.config.n_heads, window, self.config.dropout, train, rng);
        }
        let flat = x
            .reshape(&[b * t, d])
            .layer_norm(&self.lnf_g, &self.lnf_b, 1e-5);
        flat.matmul_transb(&self.wte) // tied head: [B*T, V]
    }
}

/// Everything a decode step reads, as plain tensors — no `Var`, so a
/// weight set cannot be trained, which is how the "training stays f32"
/// rule is enforced by construction.
struct DecodeWeights {
    /// f32 token embedding `[V, D]` (the lookup gathers single rows —
    /// quantizing it would save no meaningful time and cost accuracy);
    /// with f32 weights also the tied LM head.
    wte: Tensor,
    /// f32 position embedding `[max_t, D]`.
    wpe: Tensor,
    blocks: Vec<DecodeBlock>,
    lnf_g: Tensor,
    lnf_b: Tensor,
    /// The tied LM head quantized `[V, D]` output-major, when the weights
    /// are int8.
    head_q: Option<QuantizedMatrix>,
}

impl DecodeWeights {
    /// One decode step: feed `tokens[i]` at `positions[i]` and return the
    /// next-token logits `[B, V]`. K/V rows go to, and attention reads
    /// from, `kv`.
    fn logits<E: Element>(
        &self,
        cfg: &Gpt2Config,
        tokens: &[u32],
        positions: &[usize],
        kv: &mut PagedKv<'_, '_, E>,
    ) -> Tensor {
        let d = cfg.d_model;
        // Stacked token + position embeddings, [B, D]. Positions clamp to
        // the last learned slot so generation can exceed max_t: the KV
        // store keeps full history (degrades gracefully rather than
        // panicking mid-recipe).
        let mut x = Vec::with_capacity(tokens.len() * d);
        for (&tok, &pos) in tokens.iter().zip(positions) {
            assert!((tok as usize) < cfg.vocab, "token {tok} out of vocab");
            let pos = pos.min(cfg.max_t - 1);
            let te = &self.wte.data()[tok as usize * d..(tok as usize + 1) * d];
            let pe = &self.wpe.data()[pos * d..(pos + 1) * d];
            x.extend(te.iter().zip(pe).map(|(&t, &p)| t + p));
        }
        // xlint: allow(transitive-panic-in-request-path): each token appends exactly `d` floats, so the buffer is `b * d` by construction
        let mut x = Tensor::from_vec(x, &[tokens.len(), d]).expect("embeddings are [B, D]");
        for (layer, blk) in self.blocks.iter().enumerate() {
            x = blk.decode_step(&x, cfg.n_heads, layer, cfg.layer_window(layer), kv);
        }
        let (ln, _, _) = ops::layer_norm(&x, &self.lnf_g, &self.lnf_b, 1e-5);
        match &self.head_q {
            None => ops::matmul_transb(&ln, &self.wte),
            Some(head) => qmatmul_transb(&ln, head),
        }
    }

    /// Begin a solo stream over these weights, its K/V rows stored as
    /// `E`.
    fn stream<E: Element>(self: Arc<Self>, cfg: &Gpt2Config) -> Gpt2Stream<'_, E> {
        Gpt2Stream {
            config: cfg,
            // Nothing is allocated until the first push.
            pool: BlockPool::new(BlockConfig {
                layers: cfg.n_layers,
                d: cfg.d_model,
                block_tokens: cfg.max_t,
                num_blocks: 0,
            }),
            seq: SeqKv::new(),
            scratch: BatchScratch::new(),
            weights: self,
        }
    }
}

impl InferenceModel for Gpt2Lm {
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
        Box::new(Arc::new(self.decode_weights(DType::F32)).stream::<f32>(&self.config))
    }

    fn batch_model(&self) -> Option<&dyn BatchStepModel> {
        self.batch_ready().then_some(self as &dyn BatchStepModel)
    }
}

impl BatchStepModel for Gpt2Lm {
    fn dims(&self) -> ModelDims {
        ModelDims {
            layers: self.config.n_layers,
            d_model: self.config.d_model,
        }
    }

    fn name(&self) -> &str {
        &self.config.name
    }

    /// Batch invariance needs every batched-GEMM output width divisible
    /// by the microkernel width `NR = 16`: the row-accumulate kernel
    /// (`M = 1` and the `M % 4` rows left over), the `4 × 16` tile over raw
    /// weight rows (the decode batch) and the packed path then run
    /// identical per-element accumulation chains, so a row's bits don't
    /// depend on how many rows ride along. The
    /// GEMMs here are `x@W_qkv` (`N = 3D`), `ctx@W_o` (`N = D`),
    /// `ln@W_up` (`N = F`) and `up@W_down` (`N = D`); the LM head is a
    /// `matmul_transb` (independent dots, invariant for any `V`).
    fn batch_ready(&self) -> bool {
        self.config.d_model % 16 == 0 && self.config.d_ff % 16 == 0
    }

    fn batch_step(
        &self,
        tokens: &[u32],
        pool: &mut BlockPool,
        seqs: &mut [&mut SeqKv],
        scratch: &mut BatchScratch,
    ) -> Vec<Tensor> {
        debug_assert_eq!(tokens.len(), seqs.len());
        let positions: Vec<usize> = seqs.iter().map(|s| s.len()).collect();
        let mut kv = PagedKv { pool, seqs, scratch };
        let logits = self.decode_weights(DType::F32).logits(&self.config, tokens, &positions, &mut kv);
        let v = self.config.vocab;
        logits
            .data()
            .chunks_exact(v)
            .map(|row| {
                Tensor::from_vec(row.to_vec(), &[v])
                    // xlint: allow(transitive-panic-in-request-path): the chunk is exactly `v` floats, matching the declared shape
                    .expect("logits row is [V]")
            })
            .collect()
    }
}

impl LanguageModel for Gpt2Lm {
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
        let logits = self.forward_logits(batch, train, rng);
        logits.cross_entropy(&batch.flat_targets(), batch.pad_id as usize)
    }

    fn quantized(&self) -> Option<Box<dyn InferenceModel>> {
        Some(Box::new(self.quantize()))
    }
}

/// An int8 weight-quantized, inference-only GPT-2 (or GPT-Neo).
///
/// Built from a trained [`Gpt2Lm`] via [`Gpt2Lm::quantize`]: the int8
/// weight set under the f32 model's config. Decoding uses the int8 GEMM
/// for all projections and [`F16`] K/V rows. It offers no `batch_model()`
/// yet: [`BatchStepModel`] and the engine that drives it name the f32
/// pool.
pub struct QuantGpt2Lm {
    name: String,
    config: Gpt2Config,
    weights: Arc<DecodeWeights>,
}

impl QuantGpt2Lm {
    /// The config of the f32 model this was quantized from.
    pub fn config(&self) -> &Gpt2Config {
        &self.config
    }
}

impl InferenceModel for QuantGpt2Lm {
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
        Box::new(self.weights.clone().stream::<F16>(&self.config))
    }
}

/// Incremental decoding state for either dtype: a weight set plus a
/// private [`BlockPool`] (`E = f32` under f32 weights, [`F16`] under
/// int8) whose block is the config's whole context — one block per layer
/// lane, so each layer's rows are contiguous and attention reads them as
/// one run — and the one sequence in it, a batch of one.
struct Gpt2Stream<'m, E: Element> {
    config: &'m Gpt2Config,
    weights: Arc<DecodeWeights>,
    pool: BlockPool<E>,
    seq: SeqKv,
    scratch: BatchScratch,
}

impl<E: Element> TokenStream for Gpt2Stream<'_, E> {
    fn push(&mut self, token: u32) -> Tensor {
        let pos = self.seq.len();
        if pos == self.seq.capacity() {
            // The first token, or the sequence has outlived `max_t`: the
            // pool gains the block the sequence then takes.
            self.pool.grow(1);
            // xlint: allow(transitive-panic-in-request-path): `pos == capacity` needs exactly one more block and `grow(1)` just added a free one, so the reservation cannot run out
            self.seq.reserve_for(&mut self.pool, pos + 1).expect("the pool just grew by a block");
        }
        // xlint: allow(transitive-panic-in-request-path): a solo stream never shares a block (no prefix adoption here), so preparing its tail never needs a copy and cannot fail
        self.seq.prepare_write(&mut self.pool).expect("an unshared tail block is never copied");
        let mut kv = PagedKv {
            pool: &mut self.pool,
            seqs: &mut [&mut self.seq],
            scratch: &mut self.scratch,
        };
        let logits = self
            .weights
            .logits(self.config, &[token], &[pos], &mut kv)
            .reshape(&[self.config.vocab]);
        self.seq.commit();
        logits
    }

    fn position(&self) -> usize {
        self.seq.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratatouille_tensor::optim::{zero_grads, Adam};

    fn tiny() -> Gpt2Lm {
        Gpt2Lm::new(Gpt2Config {
            name: "tiny-gpt".into(),
            vocab: 16,
            d_model: 16,
            n_heads: 2,
            n_layers: 2,
            d_ff: 32,
            max_t: 16,
            local_window: None,
            dropout: 0.0,
            seed: 5,
        })
    }

    /// The same shape with GPT-Neo's alternating local attention.
    fn tiny_neo() -> Gpt2Lm {
        Gpt2Lm::new(Gpt2Config {
            name: "tiny-neo".into(),
            local_window: Some(4),
            seed: 9,
            ..tiny().config
        })
    }

    /// Train `m` on the 2,3,4,5 cycle until it predicts it confidently.
    fn train_cycle(m: &Gpt2Lm, steps: usize, seed: u64) -> f32 {
        let params = m.parameters();
        let mut opt = Adam::new(0.01);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut last = f32::MAX;
        for _ in 0..steps {
            zero_grads(&params);
            let loss = m.forward_loss(&toy_batch(), true, &mut rng);
            last = loss.value().item();
            loss.backward();
            opt.step(&params);
        }
        last
    }

    fn toy_batch() -> Batch {
        let seq: Vec<u32> = (0..13).map(|i| 2 + (i % 4)).collect();
        Batch {
            inputs: vec![seq[..12].to_vec(); 3],
            targets: vec![seq[1..].to_vec(); 3],
            pad_id: 0,
        }
    }

    #[test]
    fn loss_starts_near_uniform() {
        let m = tiny();
        let mut rng = StdRng::seed_from_u64(0);
        let loss = m.forward_loss(&toy_batch(), false, &mut rng).value().item();
        assert!((loss - (16f32).ln()).abs() < 0.8, "loss {loss}");
    }

    #[test]
    fn learns_a_cycle() {
        let last = train_cycle(&tiny(), 80, 1);
        assert!(last < 0.5, "cycle not learned: {last}");
        let last = train_cycle(&tiny_neo(), 100, 1);
        assert!(last < 0.6, "cycle not learned through local layers: {last}");
    }

    #[test]
    fn stream_matches_trained_cycle() {
        for (m, steps, seed) in [(tiny(), 100, 2), (tiny_neo(), 120, 3)] {
            train_cycle(&m, steps, seed);
            // cycle 2,3,4,5,2,3,…: after pushing 2,3,4 next must be 5
            let mut s = m.start_stream();
            s.push(2);
            s.push(3);
            let logits = s.push(4);
            assert_eq!(ops::argmax_last(&logits), vec![5], "{}", m.config.name);
            assert_eq!(s.position(), 3);
        }
    }

    #[test]
    fn all_parameters_receive_gradients() {
        for m in [tiny(), tiny_neo()] {
            let mut rng = StdRng::seed_from_u64(3);
            let loss = m.forward_loss(&toy_batch(), true, &mut rng);
            loss.backward();
            for (name, p) in m.named_parameters() {
                assert!(p.grad().is_some(), "no gradient for `{name}`");
            }
        }
    }

    #[test]
    fn stream_survives_beyond_max_context() {
        let m = tiny();
        let mut s = m.start_stream();
        for i in 0..40 {
            let l = s.push(2 + (i % 4) as u32);
            assert!(!l.has_non_finite(), "NaN at position {i}");
        }
        assert_eq!(s.position(), 40);
    }

    #[test]
    fn quantized_stream_matches_trained_cycle() {
        // The int8 model (f16 K/V rows, windowed local layers for the Neo
        // config) must preserve the f32 stream's confidently-learned
        // predictions — run past the window (4) so local layers actually
        // truncate.
        for (m, steps, seed) in [(tiny(), 100, 2), (tiny_neo(), 120, 3)] {
            train_cycle(&m, steps, seed);
            let q = m.quantize();
            assert_eq!(InferenceModel::name(&q), format!("{} [int8]", m.config.name));
            assert_eq!(InferenceModel::dtype(&q), DType::I8);
            assert!(q.batch_model().is_none(), "the engine names the f32 pool");
            let mut s32 = m.start_stream();
            let mut sq = InferenceModel::start_stream(&q);
            for i in 0..10 {
                let tok = 2 + (i % 4) as u32;
                let l32 = s32.push(tok);
                let lq = sq.push(tok);
                assert!(!lq.has_non_finite(), "NaN at position {i}");
                assert_eq!(
                    ops::argmax_last(&l32),
                    ops::argmax_last(&lq),
                    "{}: prediction diverged at position {i}",
                    m.config.name
                );
            }
            // via the LanguageModel hook the same variant is reachable
            let via_hook = LanguageModel::quantized(&m).expect("gpt2 offers int8");
            assert_eq!(via_hook.dtype(), DType::I8);
        }
    }

    /// The windowed-decode oracle: with an 8-token local window and a
    /// 40-token history, the incremental stream (windowed KV reads) must
    /// reproduce the last row of the differentiable full forward (window
    /// mask) — within float noise for f32, within the int8 budget for the
    /// quantized model.
    #[test]
    fn windowed_stream_matches_full_forward() {
        let m = Gpt2Lm::new(Gpt2Config {
            max_t: 48,
            local_window: Some(8),
            ..tiny().config
        });
        train_cycle(&m, 30, 4); // off the zero-bias, unit-gain init
        let history: Vec<u32> = (0..40u32).map(|i| (i * 7 + 3) % 16).collect();
        let batch = Batch {
            inputs: vec![history.clone()],
            targets: vec![history.clone()],
            pad_id: 0,
        };
        let full = m.forward_logits(&batch, false, &mut StdRng::seed_from_u64(0)).value();
        let oracle = &full.data()[39 * 16..];
        let q = m.quantize();
        for (model, budget) in [(&m as &dyn InferenceModel, 1e-4), (&q as &dyn InferenceModel, 0.05)] {
            let mut s = model.start_stream();
            let last = history.iter().map(|&t| s.push(t)).last().expect("40 pushes");
            for (j, (a, b)) in oracle.iter().zip(last.data()).enumerate() {
                assert!(
                    (a - b).abs() < budget,
                    "{}: logit {j} full={a} stream={b}",
                    model.name()
                );
            }
        }
    }

    /// A stream's block is its whole context: within `max_t` the arena is
    /// allocated once, on the first push, and never moves; past `max_t`
    /// the stream takes a second block and keeps decoding.
    #[test]
    fn stream_within_max_t_never_moves_its_arena() {
        let m = tiny();
        let max_t = m.config.max_t;
        let mut s = m.quantize().weights.clone().stream::<F16>(&m.config);
        assert_eq!(s.pool.config().num_blocks, 0, "start_stream allocated the arena up front");
        let row0 = |s: &Gpt2Stream<'_, F16>| s.seq.layer_view(&s.pool, 0, 1).k_row(0).as_ptr();
        s.push(2);
        let arena = row0(&s);
        for i in 1..max_t {
            s.push(2 + (i % 4) as u32);
            assert_eq!(row0(&s), arena, "push {i} moved the arena");
        }
        assert_eq!((s.pool.config().num_blocks, s.seq.table().len()), (1, 1));
        s.push(3);
        assert_eq!((s.pool.config().num_blocks, s.seq.table().len()), (2, 2));
        assert_eq!(s.position(), max_t + 1);
    }

    #[test]
    fn neo_small_is_batch_ready() {
        // The one KV store honours windows, so GPT-Neo batches like GPT-2.
        assert!(Gpt2Lm::new(Gpt2Config::neo_small(64)).batch_model().is_some());
        assert!(tiny_neo().batch_model().is_some());
    }

    #[test]
    fn quantized_stream_is_deterministic() {
        let m = tiny();
        let q = m.quantize();
        let run = || {
            let mut s = InferenceModel::start_stream(&q);
            let mut bits = Vec::new();
            for i in 0..8 {
                let l = s.push(2 + (i % 4) as u32);
                bits.extend(l.data().iter().map(|v| v.to_bits()));
            }
            bits
        };
        assert_eq!(run(), run(), "quantized decode must be reproducible");
    }

    #[test]
    fn num_params_scales_with_tier() {
        let distil = Gpt2Lm::new(Gpt2Config::distil(500));
        let medium = Gpt2Lm::new(Gpt2Config::medium(500));
        assert!(
            medium.num_params() > 2 * distil.num_params(),
            "medium {} vs distil {}",
            medium.num_params(),
            distil.num_params()
        );
    }

    #[test]
    #[should_panic(expected = "exceeds max context")]
    fn overlong_batch_rejected() {
        let m = tiny();
        let mut rng = StdRng::seed_from_u64(0);
        let long = Batch {
            inputs: vec![vec![1; 32]],
            targets: vec![vec![1; 32]],
            pad_id: 0,
        };
        let _ = m.forward_loss(&long, false, &mut rng);
    }
}
