//! Pre-LN transformer blocks with causal multi-head self-attention —
//! the GPT-2 building block (Radford et al., 2019).
//!
//! One parameter set ([`Block`]) has two forwards:
//! * the differentiable training forward over [`Var`] graphs
//!   ([`Block::forward`]), with an optional local attention window
//!   (GPT-Neo's odd layers);
//! * one pure-tensor decode step over `x: [B, D]`
//!   ([`DecodeBlock::decode_step`]) for O(T) per-token generation (the
//!   paper's complaint about RecipeGPT was generation latency — the KV
//!   cache is the fix). The step varies in exactly one place, the
//!   weights' dtype ([`Linear`]: f32 | int8); K/V rows always live in a
//!   [`BlockPool`] ([`PagedKv`]), whose element follows that dtype.

use ratatouille_util::rng::StdRng;
use ratatouille_tensor::ops::{qmatmul_transb, quantize_per_row, QuantizedMatrix, RunSpan};
use ratatouille_tensor::{init, ops, Element, Tensor, Var};

use crate::kv_block::{BlockPool, SeqKv, SeqLayerKv};

/// One transformer block's parameters.
pub struct Block {
    /// Pre-attention layer-norm gain `[D]`.
    pub ln1_g: Var,
    /// Pre-attention layer-norm bias `[D]`.
    pub ln1_b: Var,
    /// Joint QKV projection `[D, 3D]`.
    pub w_qkv: Var,
    /// QKV bias `[3D]`.
    pub b_qkv: Var,
    /// Attention output projection `[D, D]`.
    pub w_o: Var,
    /// Attention output bias `[D]`.
    pub b_o: Var,
    /// Pre-MLP layer-norm gain `[D]`.
    pub ln2_g: Var,
    /// Pre-MLP layer-norm bias `[D]`.
    pub ln2_b: Var,
    /// MLP up-projection `[D, F]`.
    pub w_up: Var,
    /// MLP up bias `[F]`.
    pub b_up: Var,
    /// MLP down-projection `[F, D]`.
    pub w_down: Var,
    /// MLP down bias `[D]`.
    pub b_down: Var,
}

impl Block {
    /// GPT-2 initialization: N(0, 0.02), residual projections scaled by
    /// `1/sqrt(2·n_layers)`.
    pub fn new(rng: &mut StdRng, d: usize, d_ff: usize, n_layers: usize) -> Self {
        let resid_scale = 1.0 / ((2 * n_layers) as f32).sqrt();
        Block {
            ln1_g: Var::leaf(Tensor::ones(&[d])),
            ln1_b: Var::leaf(Tensor::zeros(&[d])),
            w_qkv: Var::leaf(init::randn(rng, &[d, 3 * d], 0.02)),
            b_qkv: Var::leaf(Tensor::zeros(&[3 * d])),
            w_o: Var::leaf(init::randn(rng, &[d, d], 0.02 * resid_scale)),
            b_o: Var::leaf(Tensor::zeros(&[d])),
            ln2_g: Var::leaf(Tensor::ones(&[d])),
            ln2_b: Var::leaf(Tensor::zeros(&[d])),
            w_up: Var::leaf(init::randn(rng, &[d, d_ff], 0.02)),
            b_up: Var::leaf(Tensor::zeros(&[d_ff])),
            w_down: Var::leaf(init::randn(rng, &[d_ff, d], 0.02 * resid_scale)),
            b_down: Var::leaf(Tensor::zeros(&[d])),
        }
    }

    /// Named parameters with a `prefix`.
    pub fn named_parameters(&self, prefix: &str) -> Vec<(String, Var)> {
        [
            ("ln1_g", &self.ln1_g),
            ("ln1_b", &self.ln1_b),
            ("w_qkv", &self.w_qkv),
            ("b_qkv", &self.b_qkv),
            ("w_o", &self.w_o),
            ("b_o", &self.b_o),
            ("ln2_g", &self.ln2_g),
            ("ln2_b", &self.ln2_b),
            ("w_up", &self.w_up),
            ("b_up", &self.b_up),
            ("w_down", &self.w_down),
            ("b_down", &self.b_down),
        ]
        .into_iter()
        .map(|(n, v)| (format!("{prefix}.{n}"), v.clone()))
        .collect()
    }

    /// Differentiable forward: `x [B, T, D]` → `[B, T, D]`.
    ///
    /// `window` limits each position's attention to itself and the
    /// `window - 1` positions before it (GPT-Neo local layers); `None`
    /// is full causal attention. Attention is one fused op
    /// ([`Var::causal_attention`]) over the packed `qkv` rows.
    pub fn forward(
        &self,
        x: &Var,
        heads: usize,
        window: Option<usize>,
        dropout: f32,
        train: bool,
        rng: &mut StdRng,
    ) -> Var {
        let (b, t, d) = (x.dims()[0], x.dims()[1], x.dims()[2]);
        assert_eq!(d % heads, 0, "d_model {d} not divisible by heads {heads}");

        // --- attention sublayer (pre-LN) ---
        let ln = x
            .reshape(&[b * t, d])
            .layer_norm(&self.ln1_g, &self.ln1_b, 1e-5);
        let qkv = ln.matmul(&self.w_qkv).add_broadcast(&self.b_qkv); // [B*T, 3D]
        let p = if train { dropout } else { 0.0 };
        let ctx = qkv.causal_attention(b, heads, window, p, rng); // [B*T, D]
        let mut attn_out = ctx.matmul(&self.w_o).add_broadcast(&self.b_o);
        if train && dropout > 0.0 {
            attn_out = attn_out.dropout(dropout, rng);
        }
        let x1 = x.reshape(&[b * t, d]).add(&attn_out);

        // --- MLP sublayer (pre-LN) ---
        let ln2 = x1.layer_norm(&self.ln2_g, &self.ln2_b, 1e-5);
        let mut mlp = ln2
            .matmul(&self.w_up)
            .add_broadcast(&self.b_up)
            .gelu()
            .matmul(&self.w_down)
            .add_broadcast(&self.b_down);
        if train && dropout > 0.0 {
            mlp = mlp.dropout(dropout, rng);
        }
        x1.add(&mlp).reshape(&[b, t, d])
    }
}

/// A decode-time projection `x [B, in]` → f32 `[B, out]` plus bias, over
/// either weight representation. Biases stay f32 in both — they are tiny
/// and precision-critical.
pub(crate) struct Linear {
    w: Weight,
    b: Tensor,
}

enum Weight {
    /// The trained parameter itself, `[in, out]` (an `Arc` clone), through
    /// `ops::matmul`.
    F32(Tensor),
    /// Quantized once per output row (symmetric, scale = `max_abs / 127`)
    /// and stored output-major `[out, in]`, so through `qmatmul_transb`
    /// each output element is one int8 row dot against the f32 activation
    /// row.
    Int8(QuantizedMatrix),
}

impl Linear {
    /// Share a trained f32 weight and bias.
    pub(crate) fn f32(w: &Var, b: &Var) -> Self {
        Linear { w: Weight::F32(w.value()), b: b.value() }
    }

    /// Quantize a trained weight to int8 (training stores `[in, out]`; the
    /// quantized copy is transposed to output-major).
    pub(crate) fn int8(w: &Var, b: &Var) -> Self {
        Linear {
            w: Weight::Int8(quantize_per_row(&ops::transpose2d(&w.value()))),
            b: b.value(),
        }
    }

    fn forward(&self, x: &Tensor) -> Tensor {
        let y = match &self.w {
            Weight::F32(w) => ops::matmul(x, w),
            Weight::Int8(w) => qmatmul_transb(x, w),
        };
        ops::add_broadcast(&y, &self.b)
    }
}

/// One block's decode-time weights: layer norms as plain tensors, the
/// four projections as [`Linear`]s. Built from a trained [`Block`] per
/// dtype; holds no `Var`, so it cannot be trained.
pub(crate) struct DecodeBlock {
    ln1_g: Tensor,
    ln1_b: Tensor,
    qkv: Linear,
    o: Linear,
    ln2_g: Tensor,
    ln2_b: Tensor,
    up: Linear,
    down: Linear,
}

impl DecodeBlock {
    /// Snapshot `block` with `linear` ([`Linear::f32`] or
    /// [`Linear::int8`]) applied to each of its four projections.
    pub(crate) fn new(block: &Block, linear: fn(&Var, &Var) -> Linear) -> Self {
        DecodeBlock {
            ln1_g: block.ln1_g.value(),
            ln1_b: block.ln1_b.value(),
            qkv: linear(&block.w_qkv, &block.b_qkv),
            o: linear(&block.w_o, &block.b_o),
            ln2_g: block.ln2_g.value(),
            ln2_b: block.ln2_b.value(),
            up: linear(&block.w_up, &block.b_up),
            down: linear(&block.w_down, &block.b_down),
        }
    }

    /// The decode step: one new token for each of `B` sequences.
    ///
    /// `x` is `[B, D]` (row `i` is sequence `i`'s residual stream); `kv`
    /// stores the new K/V rows of `layer` and attends, over the trailing
    /// `window` positions if the layer is local. Every op here —
    /// `layer_norm`, the four projections, the per-sequence attention —
    /// computes each output row independently of the batch's other rows
    /// (DESIGN §10's batch-invariance argument), which is what makes a
    /// sequence's token stream identical solo or batched.
    pub(crate) fn decode_step<E: Element>(
        &self,
        x: &Tensor,
        heads: usize,
        layer: usize,
        window: Option<usize>,
        kv: &mut PagedKv<'_, '_, E>,
    ) -> Tensor {
        let (b, d) = (x.dims()[0], x.dims()[1]);

        let (ln, _, _) = ops::layer_norm(x, &self.ln1_g, &self.ln1_b, 1e-5);
        let qkv = self.qkv.forward(&ln);
        let mut ctx = vec![0.0; b * d];
        kv.attend(layer, window, qkv.data(), heads, d / heads, &mut ctx);
        // xlint: allow(transitive-panic-in-request-path): `ctx` is built as exactly `b * d` floats two lines up; the shape cannot mismatch
        let ctx = Tensor::from_vec(ctx, &[b, d]).expect("ctx is [B, D]");
        let x1 = ops::add(x, &self.o.forward(&ctx));

        let (ln2, _, _) = ops::layer_norm(&x1, &self.ln2_g, &self.ln2_b, 1e-5);
        let up = self.up.forward(&ln2);
        // Int8 weights take `gelu_fast`: a few-ULP tanh approximation, far
        // below the quantization error already accepted with them. f32
        // weights keep the exact `gelu`, the one the training forward uses.
        let up = match self.up.w {
            Weight::F32(_) => ops::gelu(&up),
            Weight::Int8(_) => ops::gelu_fast(&up),
        };
        ops::add(&x1, &self.down.forward(&up))
    }
}

/// Where a decode step's K/V rows live: row `i`'s K/V land in
/// `seqs[i]`'s blocks of `pool`, and the `B` attention lanes run as one
/// [`attend_batch`]. A solo stream is `B = 1` over its private pool.
///
/// Every `seqs[i]` must have a writable slot prepared for this step
/// ([`SeqKv::prepare_write`]); the row written here becomes readable at
/// position `seqs[i].len()` (committed by the caller after all layers
/// ran).
pub(crate) struct PagedKv<'a, 's, E: Element> {
    pub(crate) pool: &'a mut BlockPool<E>,
    pub(crate) seqs: &'a mut [&'s mut SeqKv],
    pub(crate) scratch: &'a mut BatchScratch,
}

impl<E: Element> PagedKv<'_, '_, E> {
    /// Store this step's K and V rows for `layer` and attend. `qkv` is
    /// `[B, 3D]` row-major (`q | k | v` per row, `D = heads · dh`); row
    /// `i`'s context vector lands in `ctx[i·D..(i+1)·D]`.
    fn attend(&mut self, layer: usize, window: Option<usize>, qkv: &[f32], heads: usize, dh: usize, ctx: &mut [f32]) {
        let d = heads * dh;
        let rows = || qkv.chunks_exact(3 * d);
        for (seq, row) in self.seqs.iter().zip(rows()) {
            seq.write(self.pool, layer, &row[d..2 * d], &row[2 * d..]);
        }
        // All K/V writes for this step are in; reborrow the pool shared
        // so every sequence's read-only layer view (including the
        // just-written row at position len) can cross worker threads.
        let pool: &BlockPool<E> = self.pool;
        let seats = self.scratch.seats(self.seqs.len());
        let mut slots: Vec<AttnSlot<'_, E>> = self
            .seqs
            .iter()
            .zip(rows())
            .zip(seats.iter_mut().zip(ctx.chunks_exact_mut(d)))
            .map(|((seq, row), (scratch, out))| AttnSlot {
                q: &row[..d],
                // The just-written row participates: reader length len + 1.
                view: seq.layer_view(pool, layer, seq.len() + 1),
                scratch,
                out,
            })
            .collect();
        attend_batch(&mut slots, heads, dh, window);
    }
}

/// The fused incremental-attention kernel, generic over the cache
/// element.
///
/// Scores `q` (the current position's f32 query, all heads concatenated)
/// against cached positions `start..len`, softmaxes per head, and
/// accumulates the context vector into `scratch.ctx`. `start` is 0 for
/// full causal attention; local-attention layers (GPT-Neo) pass
/// `len - window` so each position only attends to the trailing window.
///
/// Both passes walk the cache in storage-contiguous runs
/// ([`SeqLayerKv::k_run`]) and hand each whole run — all heads — to the
/// dtype's run kernel ([`Element::score_run`] /
/// [`Element::accumulate_run`]): one SIMD frame per run instead of one
/// out-of-line dot or axpy per (position, head), and one block-table
/// lookup per block instead of per position. The run kernels replay the
/// per-position/per-head accumulation chain of the row-at-a-time loop it
/// replaced (kept as the unit tests' oracle) operation for operation, so
/// the results are bit-identical whatever the block size — run iteration
/// changes address arithmetic and which independent chains are in flight
/// together, never reduction order (DESIGN §10). For `E = f32` that
/// chain is exactly the `ops::dot` / `ops::axpy` one the pre-generic
/// code ran, so the f32 decode path is bit-identical to what it was.
pub(crate) fn attend<E: Element>(
    q: &[f32],
    heads: usize,
    dh: usize,
    start: usize,
    cache: &SeqLayerKv<'_, E>,
    scratch: &mut DecodeScratch,
) {
    let scale = 1.0 / (dh as f32).sqrt();
    let t = cache.len();
    debug_assert!(start < t, "attention window must cover the current token");
    let tw = t - start;
    let d = heads * dh;
    scratch.resize(heads, tw, d);
    let span = |pos: usize| RunSpan {
        heads,
        stride: tw,
        rel: pos - start,
    };
    // Score pass: one sweep over the K cache; each cached row is read
    // once, all heads scored against it.
    let mut pos = start;
    while pos < t {
        let run = cache.k_run(pos, t);
        debug_assert!(!run.is_empty() && run.len() % d == 0);
        E::score_run(q, run, span(pos), scale, &mut scratch.scores);
        pos += run.len() / d;
    }
    for h in 0..heads {
        ops::softmax_row(
            &scratch.scores[h * tw..(h + 1) * tw],
            &mut scratch.probs[h * tw..(h + 1) * tw],
        );
    }
    // Context pass: one sweep over the V cache.
    scratch.ctx.fill(0.0);
    let mut pos = start;
    while pos < t {
        let run = cache.v_run(pos, t);
        E::accumulate_run(&scratch.probs, run, span(pos), &mut scratch.ctx);
        pos += run.len() / d;
    }
}

/// One sequence's slice of the batched attention phase: its query row,
/// its (shared, read-only) layer view of the block pool, its private
/// scratch seat, and the `[D]` slice of the batch context buffer its
/// result lands in. Slots borrow disjoint data, so a `&mut [AttnSlot]`
/// can be scattered across worker threads.
pub(crate) struct AttnSlot<'a, E: Element> {
    pub(crate) q: &'a [f32],
    pub(crate) view: SeqLayerKv<'a, E>,
    pub(crate) scratch: &'a mut DecodeScratch,
    pub(crate) out: &'a mut [f32],
}

/// Execute the attention phase for a batch of prepared slots, each lane
/// over its trailing `window` positions (`None` = its full prefix).
///
/// The slots fan across the persistent worker pool once the lanes carry
/// enough arithmetic to pay for a launch (`par`'s work gate; below it
/// they run in order on the caller) — task `i` is always sequence `i`,
/// the chunk→worker mapping is deterministic, and each task runs its
/// sequence's positions strictly in order, so parallelism lives *across*
/// sequences only and every sequence's reduction order is fixed
/// regardless of batch composition or thread count (DESIGN §10); a solo
/// stream's single lane always runs on the caller.
pub(crate) fn attend_batch<E: Element>(slots: &mut [AttnSlot<'_, E>], heads: usize, dh: usize, window: Option<usize>) {
    let start = |slot: &AttnSlot<'_, E>| window.map_or(0, |w| slot.view.len().saturating_sub(w));
    // A lane's work is its score plus context pass, `2·t·d`
    // multiply-accumulates over the `t` positions it reads; the mean lane
    // is what `par` gates the fan-out on.
    let positions: usize = slots.iter().map(|s| s.view.len() - start(s)).sum();
    let lane_macs = 2 * positions * heads * dh / slots.len().max(1);
    // SAFETY(disjoint: slots[i] — each task owns one `AttnSlot` and writes only its own `out`/`scratch`)
    ratatouille_tensor::par::scatter_mut(slots, lane_macs, |_, slot| {
        attend(slot.q, heads, dh, start(slot), &slot.view, slot.scratch);
        slot.out.copy_from_slice(&slot.scratch.ctx);
    });
}

/// Reusable buffers for [`attend`]: the attention scores/probs
/// (`[heads * t]`) and the context vector (`[d]`). One instance lives in
/// each batch lane (shared across layers, which run sequentially), so
/// the attention inner loop performs zero heap allocations per token.
#[derive(Debug, Clone, Default)]
pub struct DecodeScratch {
    scores: Vec<f32>,
    probs: Vec<f32>,
    ctx: Vec<f32>,
}

impl DecodeScratch {
    fn resize(&mut self, heads: usize, t: usize, d: usize) {
        self.scores.resize(heads * t, 0.0);
        self.probs.resize(heads * t, 0.0);
        self.ctx.resize(d, 0.0);
    }
}

/// The decode scratch arena: one [`DecodeScratch`] *seat* per batch lane
/// (a solo stream has one). Each attention task owns its seat exclusively
/// — scratch ownership is what lets the sweep run lanes concurrently
/// without any sharing.
///
/// The arena grows to the high-water batch size and is then reused; seats
/// keep their identity across steps, so lane `i`'s scratch capacity
/// survives sequence turnover.
#[derive(Debug, Default)]
pub struct BatchScratch {
    seats: Vec<DecodeScratch>,
}

impl BatchScratch {
    /// A fresh arena; everything grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The first `b` scratch seats, growing the arena if the batch is
    /// the largest seen so far.
    fn seats(&mut self, b: usize) -> &mut [DecodeScratch] {
        if self.seats.len() < b {
            self.seats.resize_with(b, DecodeScratch::default);
        }
        &mut self.seats[..b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv_block::BlockConfig;
    use ratatouille_tensor::F16;
    use ratatouille_util::rng::SeedableRng;

    #[test]
    fn forward_shape_preserved() {
        let mut rng = StdRng::seed_from_u64(0);
        let block = Block::new(&mut rng, 16, 32, 2);
        let x = Var::constant(init::randn(&mut rng, &[2, 5, 16], 1.0));
        let y = block.forward(&x, 4, None, 0.0, false, &mut rng);
        assert_eq!(y.dims(), vec![2, 5, 16]);
        assert!(!y.value().has_non_finite());
    }

    #[test]
    fn causality_holds() {
        // Changing a future token must not change earlier outputs.
        let mut rng = StdRng::seed_from_u64(1);
        let block = Block::new(&mut rng, 8, 16, 1);
        let base = init::randn(&mut rng, &[1, 4, 8], 1.0);
        let mut altered = base.to_vec();
        for v in altered[3 * 8..].iter_mut() {
            *v += 5.0; // perturb only position 3
        }
        let altered = Tensor::from_vec(altered, &[1, 4, 8]).unwrap();
        let y1 = block
            .forward(&Var::constant(base), 2, None, 0.0, false, &mut rng)
            .value();
        let y2 = block
            .forward(&Var::constant(altered), 2, None, 0.0, false, &mut rng)
            .value();
        // positions 0..3 identical, position 3 differs
        for i in 0..3 * 8 {
            assert!(
                (y1.data()[i] - y2.data()[i]).abs() < 1e-5,
                "position {} leaked future info",
                i / 8
            );
        }
        let diff: f32 = (0..8)
            .map(|j| (y1.data()[3 * 8 + j] - y2.data()[3 * 8 + j]).abs())
            .sum();
        assert!(diff > 1e-3, "perturbation had no effect at its own position");
    }

    /// Push `xs` one at a time through one block's decode step, a batch
    /// of one over a fresh single-layer pool of 4-token blocks, with the
    /// given window.
    fn decode<E: Element>(blk: &DecodeBlock, heads: usize, window: Option<usize>, xs: &[Tensor]) -> Vec<Tensor> {
        let d = xs[0].numel();
        let mut pool = BlockPool::<E>::new(BlockConfig { layers: 1, d, block_tokens: 4, num_blocks: 2 });
        let mut seq = SeqKv::new();
        seq.reserve_for(&mut pool, xs.len()).expect("pool sized for xs");
        let mut scratch = BatchScratch::new();
        let mut out = Vec::new();
        for x in xs {
            seq.prepare_write(&mut pool).expect("reserved");
            let mut kv = PagedKv { pool: &mut pool, seqs: &mut [&mut seq], scratch: &mut scratch };
            out.push(blk.decode_step(&x.reshape(&[1, d]), heads, 0, window, &mut kv));
            seq.commit();
        }
        assert_eq!(seq.len(), xs.len());
        out
    }

    #[test]
    fn incremental_matches_full_forward() {
        // Full and windowed: the decode step's trailing window must be
        // the training forward's window mask.
        let mut rng = StdRng::seed_from_u64(2);
        let d = 16;
        let block = Block::new(&mut rng, d, 32, 1);
        // random 6-token sequence
        let xs: Vec<Tensor> = (0..6).map(|_| init::randn(&mut rng, &[d], 1.0)).collect();
        let mut flat = Vec::new();
        for x in &xs {
            flat.extend_from_slice(x.data());
        }
        let full_in = Tensor::from_vec(flat, &[1, 6, d]).unwrap();
        for window in [None, Some(3)] {
            let full_out = block
                .forward(&Var::constant(full_in.clone()), 4, window, 0.0, false, &mut rng)
                .value();
            let incs = decode::<f32>(&DecodeBlock::new(&block, Linear::f32), 4, window, &xs);
            for (i, inc) in incs.iter().enumerate() {
                for j in 0..d {
                    let a = full_out.data()[i * d + j];
                    let b = inc.data()[j];
                    assert!(
                        (a - b).abs() < 1e-4,
                        "window {window:?}: mismatch at pos {i} dim {j}: full={a} inc={b}"
                    );
                }
            }
        }
    }

    #[test]
    fn quantized_incremental_tracks_f32_block() {
        // int8 weights + f16 KV cache should stay close to the f32 path;
        // the residual stream keeps the error small and bounded.
        let mut rng = StdRng::seed_from_u64(7);
        let d = 16;
        let block = Block::new(&mut rng, d, 32, 1);
        let xs: Vec<Tensor> = (0..6).map(|_| init::randn(&mut rng, &[d], 1.0)).collect();
        let y32 = decode::<f32>(&DecodeBlock::new(&block, Linear::f32), 4, None, &xs);
        let yq = decode::<F16>(&DecodeBlock::new(&block, Linear::int8), 4, None, &xs);
        for (i, (y32, yq)) in y32.iter().zip(&yq).enumerate() {
            for j in 0..d {
                let (a, b) = (y32.data()[j], yq.data()[j]);
                assert!(
                    (a - b).abs() < 0.05,
                    "pos {i} dim {j} diverged: f32={a} int8={b}"
                );
            }
        }
    }

    #[test]
    fn quant_block_window_limits_attention() {
        // With a window of 1 each position attends only to itself, so the
        // output must differ from full attention once history exists —
        // and stay finite.
        let mut rng = StdRng::seed_from_u64(8);
        let d = 8;
        let qblock = DecodeBlock::new(&Block::new(&mut rng, d, 32, 1), Linear::int8);
        let xs: Vec<Tensor> = (0..3).map(|_| init::randn(&mut rng, &[d], 1.0)).collect();
        let full = decode::<F16>(&qblock, 2, None, &xs);
        let windowed = decode::<F16>(&qblock, 2, Some(1), &xs);
        assert_eq!(full[0], windowed[0], "first token has no history");
        assert!(!windowed[2].has_non_finite());
        assert_ne!(full[2], windowed[2], "window had no effect");
    }

    #[test]
    fn local_attention_actually_masks_long_range() {
        // With window=1 a local layer sees only the current position:
        // perturbing a distant past token must not change its output.
        let mut rng = StdRng::seed_from_u64(2);
        let block = Block::new(&mut rng, 16, 32, 2);
        let base = init::randn(&mut rng, &[1, 6, 16], 1.0);
        let mut altered = base.to_vec();
        for v in altered[..16].iter_mut() {
            *v += 3.0; // perturb position 0 only
        }
        let altered = Tensor::from_vec(altered, &[1, 6, 16]).unwrap();
        let y1 = block.forward(&Var::constant(base), 2, Some(1), 0.0, false, &mut rng).value();
        let y2 = block.forward(&Var::constant(altered), 2, Some(1), 0.0, false, &mut rng).value();
        // last position (5) attends only to itself under window=1
        for j in 0..16 {
            assert!(
                (y1.at(&[0, 5, j]) - y2.at(&[0, 5, j])).abs() < 1e-5,
                "window mask leaked long-range information"
            );
        }
    }

    /// Deterministic pseudo-random floats in about ±1.5.
    fn noise(n: usize, salt: u64) -> Vec<f32> {
        use ratatouille_util::rng::RngExt;
        let mut rng = StdRng::seed_from_u64(salt);
        (0..n).map(|_| rng.random::<f32>() * 3.0 - 1.5).collect()
    }

    /// The row-at-a-time attention loop `attend`'s run kernels replaced,
    /// kept verbatim as the reference implementation: `attend` and
    /// `attend_batch` must match it bit for bit.
    fn attend_by_row<E: Element>(
        q: &[f32],
        heads: usize,
        dh: usize,
        start: usize,
        cache: &SeqLayerKv<'_, E>,
        scratch: &mut DecodeScratch,
    ) {
        let scale = 1.0 / (dh as f32).sqrt();
        let t = cache.len();
        debug_assert!(start < t, "attention window must cover the current token");
        let tw = t - start;
        scratch.resize(heads, tw, heads * dh);
        for pos in start..t {
            let k_row = cache.k_row(pos);
            for h in 0..heads {
                scratch.scores[h * tw + (pos - start)] =
                    E::dot_with_f32(&q[h * dh..(h + 1) * dh], &k_row[h * dh..(h + 1) * dh])
                        * scale;
            }
        }
        for h in 0..heads {
            ops::softmax_row(
                &scratch.scores[h * tw..(h + 1) * tw],
                &mut scratch.probs[h * tw..(h + 1) * tw],
            );
        }
        scratch.ctx.fill(0.0);
        for pos in start..t {
            let v_row = cache.v_row(pos);
            for h in 0..heads {
                E::axpy_into_f32(
                    scratch.probs[h * tw + (pos - start)],
                    &v_row[h * dh..(h + 1) * dh],
                    &mut scratch.ctx[h * dh..(h + 1) * dh],
                );
            }
        }
    }

    fn scratch_bits(s: &DecodeScratch) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        (bits(&s.scores), bits(&s.probs), bits(&s.ctx))
    }

    /// A two-layer pool of `block_tokens`-sized blocks holding one
    /// sequence of `t` noise rows (the same f32 rows whatever `E` and the
    /// geometry, narrowed on write).
    fn noise_seq<E: Element>(d: usize, t: usize, block_tokens: usize, salt: u64) -> (BlockPool<E>, SeqKv) {
        let mut pool = BlockPool::new(BlockConfig { layers: 2, d, block_tokens, num_blocks: t.div_ceil(block_tokens) });
        let mut seq = SeqKv::new();
        seq.reserve_for(&mut pool, t).expect("pool sized for t");
        for pos in 0..t {
            seq.prepare_write(&mut pool).expect("reserved");
            for layer in 0..2 {
                let salt = salt + 4 * pos as u64 + 2 * layer as u64;
                seq.write(&mut pool, layer, &noise(d, salt), &noise(d, salt + 1));
            }
            seq.commit();
        }
        (pool, seq)
    }

    /// `attend` (run kernels) against the row-at-a-time oracle over one
    /// sequence of element `E`, at each window start: scores,
    /// probabilities and context must agree bit for bit.
    fn assert_attend_matches_oracle<E: Element>(heads: usize, dh: usize, t: usize, bt: usize, starts: [usize; 2], salt: u64) {
        let (pool, seq) = noise_seq::<E>(heads * dh, t, bt, salt);
        let q = noise(heads * dh, salt ^ 0xA77E);
        let view = seq.layer_view(&pool, 1, t);
        for start in starts {
            let (mut fused, mut oracle) = (DecodeScratch::default(), DecodeScratch::default());
            attend(&q, heads, dh, start, &view, &mut fused);
            attend_by_row(&q, heads, dh, start, &view, &mut oracle);
            assert_eq!(
                scratch_bits(&fused),
                scratch_bits(&oracle),
                "{:?} heads {heads} dh {dh} t {t} block {bt} start {start}",
                E::DTYPE
            );
        }
    }

    ratatouille_util::proptest! {
        cases = 64;

        /// f32 and f16 pools, full and windowed attention, at every run
        /// geometry a caller uses: single-row runs, runs ending mid-block,
        /// the engine's 16-token blocks, and a solo stream's one run (the
        /// block is the whole context).
        #[test]
        fn attend_matches_row_oracle_over_block_pools(
            hi in 0usize..4, di in 0usize..5, t in 1usize..40, window in 1usize..40, salt in 0u64..1 << 20
        ) {
            let (heads, dh) = ([1, 2, 4, 8][hi], [8, 16, 20, 32, 64][di]);
            let starts = [0, t.saturating_sub(window)];
            for bt in [1, 3, 16, t] {
                assert_attend_matches_oracle::<f32>(heads, dh, t, bt, starts, salt);
                assert_attend_matches_oracle::<F16>(heads, dh, t, bt, starts, salt);
            }
        }
    }

    /// The batched attention phase above `par`'s launch gate (8 lanes of
    /// 2·t·d = 2^18 multiply-accumulates): the lanes really fan out, and
    /// at every thread count the context rows are what the row-at-a-time
    /// oracle computes lane by lane over the same pooled caches.
    #[test]
    fn attend_batch_fans_out_without_changing_a_bit() {
        let (heads, dh, t, lanes) = (8, 32, 512, 8);
        let d = heads * dh;
        let mut pool = BlockPool::<f32>::new(BlockConfig { layers: 1, d, block_tokens: 16, num_blocks: lanes * t / 16 });
        let seqs: Vec<SeqKv> = (0..lanes)
            .map(|lane| {
                let mut seq = SeqKv::new();
                seq.reserve_for(&mut pool, t).expect("pool sized for the batch");
                for pos in 0..t {
                    seq.prepare_write(&mut pool).expect("reserved");
                    let salt = (lane * t + pos) as u64 * 2;
                    seq.write(&mut pool, 0, &noise(d, salt), &noise(d, salt + 1));
                    seq.commit();
                }
                seq
            })
            .collect();
        let qs: Vec<Vec<f32>> = (0..lanes).map(|lane| noise(d, 0xBEEF + lane as u64)).collect();
        let bits = |ctx: &[f32]| ctx.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();

        let mut oracle = Vec::new();
        for (seq, q) in seqs.iter().zip(&qs) {
            let mut scratch = DecodeScratch::default();
            attend_by_row(q, heads, dh, 0, &seq.layer_view(&pool, 0, t), &mut scratch);
            oracle.extend(bits(&scratch.ctx));
        }

        let sweep = |threads: usize| -> Vec<u32> {
            ratatouille_tensor::par::set_num_threads(threads);
            let mut scratch = BatchScratch::new();
            let mut ctx = vec![0.0f32; lanes * d];
            let mut slots: Vec<AttnSlot<'_, f32>> = seqs
                .iter()
                .zip(&qs)
                .zip(scratch.seats(lanes).iter_mut().zip(ctx.chunks_exact_mut(d)))
                .map(|((seq, q), (scratch, out))| AttnSlot { q, view: seq.layer_view(&pool, 0, t), scratch, out })
                .collect();
            attend_batch(&mut slots, heads, dh, None);
            drop(slots);
            ratatouille_tensor::par::set_num_threads(0);
            bits(&ctx)
        };
        let launches = obs::static_counter!("tensor_pool_launches_total").get();
        for threads in [1, 2, 3, 4, 7] {
            assert_eq!(sweep(threads), oracle, "sweep at {threads} threads");
        }
        assert!(
            obs::static_counter!("tensor_pool_launches_total").get() >= launches + 4,
            "the sweep never left the caller thread"
        );
    }

    #[test]
    fn block_is_trainable() {
        // Single block + mean target: gradients reach every parameter.
        let mut rng = StdRng::seed_from_u64(3);
        let block = Block::new(&mut rng, 8, 16, 1);
        let x = Var::leaf(init::randn(&mut rng, &[1, 3, 8], 1.0));
        let y = block.forward(&x, 2, None, 0.0, true, &mut rng);
        y.mean().backward();
        for (name, p) in block.named_parameters("blk") {
            assert!(p.grad().is_some(), "no grad for {name}");
        }
        assert!(x.grad().is_some());
    }

    #[test]
    fn dropout_changes_training_forward_only() {
        let mut rng1 = StdRng::seed_from_u64(4);
        let block = Block::new(&mut rng1, 8, 16, 1);
        let x = Var::constant(init::randn(&mut rng1, &[1, 3, 8], 1.0));
        let mut ra = StdRng::seed_from_u64(10);
        let mut rb = StdRng::seed_from_u64(11);
        let eval_a = block.forward(&x, 2, None, 0.5, false, &mut ra).value();
        let eval_b = block.forward(&x, 2, None, 0.5, false, &mut rb).value();
        assert!(eval_a.allclose(&eval_b, 1e-6), "eval forward must be deterministic");
        let train_a = block.forward(&x, 2, None, 0.5, true, &mut ra).value();
        assert!(!train_a.allclose(&eval_a, 1e-6), "dropout should perturb training");
    }
}
