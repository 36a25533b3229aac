//! Pre-LN transformer blocks with causal multi-head self-attention —
//! the GPT-2 building block (Radford et al., 2019).
//!
//! Both paths are implemented:
//! * the differentiable training forward over [`Var`] graphs;
//! * a pure-tensor incremental forward with a per-layer KV cache for
//!   O(T) per-token generation (the paper's complaint about RecipeGPT
//!   was generation latency — the cache is the fix).

use ratatouille_util::rng::StdRng;
use ratatouille_tensor::ops::{qmatmul_transb, quantize_per_row, QuantizedMatrix, RunSpan};
use ratatouille_tensor::{init, ops, Element, Tensor, Var, F16};

use crate::kv_block::{BlockPool, SeqKv};

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
    pub fn forward(
        &self,
        x: &Var,
        heads: usize,
        dropout: f32,
        train: bool,
        rng: &mut StdRng,
    ) -> Var {
        let (b, t, d) = (x.dims()[0], x.dims()[1], x.dims()[2]);
        assert_eq!(d % heads, 0, "d_model {d} not divisible by heads {heads}");
        let dh = d / heads;

        // --- attention sublayer (pre-LN) ---
        let ln = x
            .reshape(&[b * t, d])
            .layer_norm(&self.ln1_g, &self.ln1_b, 1e-5);
        let qkv = ln.matmul(&self.w_qkv).add_broadcast(&self.b_qkv); // [B*T, 3D]
        let split = |start: usize| -> Var {
            qkv.narrow(1, start, d)
                .reshape(&[b, t, heads, dh])
                .permute(&[0, 2, 1, 3])
                .reshape(&[b * heads, t, dh])
        };
        let q = split(0);
        let k = split(d);
        let v = split(2 * d);
        let scores = q.bmm_transb(&k).scale(1.0 / (dh as f32).sqrt()); // [B*H, T, T]
        let mut weights = scores.causal_masked_softmax();
        if train && dropout > 0.0 {
            weights = weights.dropout(dropout, rng);
        }
        let ctx = weights
            .bmm(&v) // [B*H, T, Dh]
            .reshape(&[b, heads, t, dh])
            .permute(&[0, 2, 1, 3])
            .reshape(&[b * t, d]);
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

    /// Incremental pure-tensor forward for one new token.
    ///
    /// `x: [D]` is the token's current representation; `cache` holds the
    /// previously-computed K and V rows for this layer and is appended to.
    /// `scratch` carries the per-stream score/prob/context buffers so the
    /// attention inner loop allocates nothing per generated token.
    pub fn forward_incremental<E: Element>(
        &self,
        x: &Tensor,
        heads: usize,
        cache: &mut KvCache<E>,
        scratch: &mut DecodeScratch,
    ) -> Tensor {
        let d = x.numel();
        let dh = d / heads;
        let x_row = x.reshape(&[1, d]);

        let (ln, _, _) = ops::layer_norm(&x_row, &self.ln1_g.value(), &self.ln1_b.value(), 1e-5);
        let qkv = ops::add_broadcast(&ops::matmul(&ln, &self.w_qkv.value()), &self.b_qkv.value());
        let qkv_d = qkv.data();
        let q = &qkv_d[..d];
        cache.push_slices(&qkv_d[d..2 * d], &qkv_d[2 * d..3 * d]);

        let scale = 1.0 / (dh as f32).sqrt();
        attend(q, heads, dh, 0, cache, scratch, scale);
        // attn = ctx @ W_o + b_o, streamed row-wise through W_o so the
        // context vector never round-trips through a temporary tensor.
        let w_o = self.w_o.value();
        let wod = w_o.data();
        scratch.attn.clear();
        scratch.attn.extend_from_slice(self.b_o.value().data());
        for (i, &c) in scratch.ctx.iter().enumerate() {
            ops::axpy(c, &wod[i * d..(i + 1) * d], &mut scratch.attn);
        }
        let x1_vec: Vec<f32> = x_row
            .data()
            .iter()
            .zip(&scratch.attn)
            .map(|(&xv, &av)| xv + av)
            .collect();
        let x1 = Tensor::from_vec(x1_vec, &[1, d]).unwrap();

        let (ln2, _, _) = ops::layer_norm(&x1, &self.ln2_g.value(), &self.ln2_b.value(), 1e-5);
        let up = ops::gelu(&ops::add_broadcast(
            &ops::matmul(&ln2, &self.w_up.value()),
            &self.b_up.value(),
        ));
        let mlp = ops::add_broadcast(&ops::matmul(&up, &self.w_down.value()), &self.b_down.value());
        ops::add(&x1, &mlp).reshape(&[d])
    }

    /// Batched incremental forward: one new token for each of `B`
    /// sequences at once, K/V landing in the block pool.
    ///
    /// `x` is `[B, D]` (row `i` is sequence `i`'s residual stream);
    /// `seqs[i]` must have a writable slot prepared for this step
    /// ([`SeqKv::prepare_write`]), and the row written here becomes
    /// readable at position `seqs[i].len()` (committed by the caller
    /// after all layers ran).
    ///
    /// Every op in this path — `layer_norm`, the three GEMMs, the
    /// per-sequence [`attend`] — computes each output row independently
    /// of the batch's other rows (DESIGN §10's batch-invariance
    /// argument), which is what makes a sequence's token stream
    /// identical solo or batched.
    pub fn forward_incremental_batch(
        &self,
        x: &Tensor,
        heads: usize,
        layer: usize,
        pool: &mut BlockPool,
        seqs: &mut [&mut SeqKv],
        scratch: &mut BatchScratch,
    ) -> Tensor {
        let (b, d) = (x.dims()[0], x.dims()[1]);
        debug_assert_eq!(b, seqs.len());
        let dh = d / heads;

        let (ln, _, _) = ops::layer_norm(x, &self.ln1_g.value(), &self.ln1_b.value(), 1e-5);
        let qkv = ops::add_broadcast(&ops::matmul(&ln, &self.w_qkv.value()), &self.b_qkv.value());
        let qkv_d = qkv.data();
        for (i, seq) in seqs.iter().enumerate() {
            let row = &qkv_d[i * 3 * d..(i + 1) * 3 * d];
            seq.write(pool, layer, &row[d..2 * d], &row[2 * d..3 * d]);
        }

        // All K/V writes for this step are in; reborrow the pool shared
        // so every sequence's read-only layer view (including the
        // just-written row at position len) can cross worker threads.
        let pool: &BlockPool = pool;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut ctx = std::mem::take(&mut scratch.ctx);
        ctx.clear();
        ctx.resize(b * d, 0.0);
        {
            let seats = scratch.seats(b);
            let mut slots: Vec<AttnSlot<'_>> = Vec::with_capacity(b);
            let mut ctx_tail: &mut [f32] = &mut ctx;
            for ((i, seq), seat) in seqs.iter().enumerate().zip(seats.iter_mut()) {
                let (out, rest) = ctx_tail.split_at_mut(d);
                ctx_tail = rest;
                slots.push(AttnSlot {
                    q: &qkv_d[i * 3 * d..i * 3 * d + d],
                    // The just-written row participates: reader length
                    // len + 1.
                    view: seq.layer_view(pool, layer, seq.len() + 1),
                    scratch: seat,
                    out,
                });
            }
            attend_batch(&mut slots, heads, dh, scale);
        }
        // xlint: allow(transitive-panic-in-request-path): `ctx` is built as exactly `b * d` floats in this function; the shape cannot mismatch
        let ctx = Tensor::from_vec(ctx, &[b, d]).expect("ctx is [B, D]");
        let attn = ops::add_broadcast(&ops::matmul(&ctx, &self.w_o.value()), &self.b_o.value());
        // Round the ctx buffer back into the arena for the next layer
        // (sole owner here, so this is a move, not a copy).
        scratch.ctx = ctx.into_vec();
        let x1 = ops::add(x, &attn);

        let (ln2, _, _) = ops::layer_norm(&x1, &self.ln2_g.value(), &self.ln2_b.value(), 1e-5);
        let up = ops::gelu(&ops::add_broadcast(
            &ops::matmul(&ln2, &self.w_up.value()),
            &self.b_up.value(),
        ));
        let mlp = ops::add_broadcast(&ops::matmul(&up, &self.w_down.value()), &self.b_down.value());
        ops::add(&x1, &mlp)
    }

}

/// Position-ordered read access to one layer's cached K/V rows.
///
/// The attention kernel [`attend`] is generic over this, so the same
/// inner loops serve the contiguous per-stream [`KvCache`] and the
/// block-allocated [`crate::kv_block::SeqLayerKv`] view of the batched
/// pool — storage layout changes, numerics cannot.
pub trait KvRows {
    /// Cache storage dtype.
    type Elem: Element;

    /// Number of readable positions.
    fn len(&self) -> usize;

    /// Whether no positions are readable.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cached K row of `pos`.
    fn k_row(&self, pos: usize) -> &[Self::Elem];

    /// The cached V row of `pos`.
    fn v_row(&self, pos: usize) -> &[Self::Elem];

    /// The longest storage-contiguous run of K rows starting at `pos`
    /// and not reaching past `end`, as one flat `[n * d]` slice.
    ///
    /// [`attend`] walks the cache run-by-run so the inner loop is a
    /// plain `chunks_exact` over contiguous memory instead of a
    /// `k_row` call (with its block-table div/mod) per position. The
    /// default is the degenerate single-row run, which is always
    /// correct; contiguous stores override it with bigger runs.
    fn k_run(&self, pos: usize, end: usize) -> &[Self::Elem] {
        debug_assert!(pos < end && end <= self.len());
        self.k_row(pos)
    }

    /// The V-side counterpart of [`KvRows::k_run`].
    fn v_run(&self, pos: usize, end: usize) -> &[Self::Elem] {
        debug_assert!(pos < end && end <= self.len());
        self.v_row(pos)
    }
}

impl<E: Element> KvRows for KvCache<E> {
    type Elem = E;

    fn len(&self) -> usize {
        self.len
    }

    fn k_row(&self, pos: usize) -> &[E] {
        KvCache::k_row(self, pos)
    }

    fn v_row(&self, pos: usize) -> &[E] {
        KvCache::v_row(self, pos)
    }

    // The flat [T, D] buffers are fully contiguous: the whole remaining
    // window is one run.
    fn k_run(&self, pos: usize, end: usize) -> &[E] {
        &self.k[pos * self.d..end * self.d]
    }

    fn v_run(&self, pos: usize, end: usize) -> &[E] {
        &self.v[pos * self.d..end * self.d]
    }
}

/// The fused incremental-attention kernel, generic over the KV-cache
/// storage (see [`KvRows`]) and its dtype.
///
/// Scores `q` (the current position's f32 query, all heads concatenated)
/// against cached positions `start..len`, softmaxes per head, and
/// accumulates the context vector into `scratch.ctx`. `start` is 0 for
/// full causal attention; local-attention layers (GPT-Neo) pass
/// `len - window` so each position only attends to the trailing window.
///
/// Both passes walk the cache in storage-contiguous runs
/// ([`KvRows::k_run`]) and hand each whole run — all heads — to the
/// dtype's run kernel ([`Element::score_run`] /
/// [`Element::accumulate_run`]): one SIMD frame per run instead of one
/// out-of-line dot or axpy per (position, head), and for block-pooled
/// caches one block-table lookup per block instead of per position. The
/// run kernels replay the per-position/per-head accumulation chain of
/// the row-at-a-time loop ([`attend_by_row`]) operation for operation, so
/// the results are bit-identical — run iteration changes address
/// arithmetic and which independent chains are in flight together, never
/// reduction order (DESIGN §10). For `E = f32` that chain is exactly the
/// `ops::dot` / `ops::axpy` one the pre-generic code ran, so the f32
/// decode path is bit-identical to what it was.
pub(crate) fn attend<C: KvRows>(
    q: &[f32],
    heads: usize,
    dh: usize,
    start: usize,
    cache: &C,
    scratch: &mut DecodeScratch,
    scale: f32,
) {
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
        C::Elem::score_run(q, run, span(pos), scale, &mut scratch.scores);
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
        C::Elem::accumulate_run(&scratch.probs, run, span(pos), &mut scratch.ctx);
        pos += run.len() / d;
    }
}

/// The pre-sweep row-at-a-time attention loop, kept verbatim as the
/// reference implementation: [`AttentionMode::Serial`] runs it so the
/// paged-attention benches compare against the real PR 7 baseline, and
/// the unit tests pin `attend` bit-identical to it over block-pooled
/// caches.
pub(crate) fn attend_by_row<C: KvRows>(
    q: &[f32],
    heads: usize,
    dh: usize,
    start: usize,
    cache: &C,
    scratch: &mut DecodeScratch,
    scale: f32,
) {
    let t = cache.len();
    debug_assert!(start < t, "attention window must cover the current token");
    let tw = t - start;
    scratch.resize(heads, tw, heads * dh);
    for pos in start..t {
        let k_row = cache.k_row(pos);
        for h in 0..heads {
            scratch.scores[h * tw + (pos - start)] =
                C::Elem::dot_with_f32(&q[h * dh..(h + 1) * dh], &k_row[h * dh..(h + 1) * dh])
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
            C::Elem::axpy_into_f32(
                scratch.probs[h * tw + (pos - start)],
                &v_row[h * dh..(h + 1) * dh],
                &mut scratch.ctx[h * dh..(h + 1) * dh],
            );
        }
    }
}

/// How [`Block::forward_incremental_batch`] executes the per-sequence
/// attention phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttentionMode {
    /// The paged-attention sweep: all `B` sequences' [`attend`] calls
    /// dispatched as independent tasks on the persistent worker pool
    /// (`tensor::par::scatter_mut`), run-based inner loops. The default.
    Sweep,
    /// The PR 7 baseline: `B` serial [`attend_by_row`] calls on the
    /// caller thread. Kept for A/B benchmarking and as the determinism
    /// reference — both modes produce bit-identical streams.
    Serial,
}

/// Process-wide attention-mode knob, mirroring `par::set_num_threads`: a
/// programmatic setter (never an environment read — xlint's
/// forbidden-nondeterminism rule) that benches and smoke tests flip to
/// A/B the sweep against the serial baseline. 0 = Sweep, 1 = Serial.
static ATTENTION_MODE: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(0);

/// Select the attention execution mode for subsequent batched steps.
///
/// Mode only changes *scheduling*, never numerics: the determinism
/// contract (DESIGN §10) guarantees identical token streams under either
/// mode, which `batched_smoke` asserts in CI.
pub fn set_attention_mode(mode: AttentionMode) {
    let v = match mode {
        AttentionMode::Sweep => 0,
        AttentionMode::Serial => 1,
    };
    ATTENTION_MODE.store(v, std::sync::atomic::Ordering::Relaxed);
}

/// The currently selected [`AttentionMode`].
pub fn attention_mode() -> AttentionMode {
    match ATTENTION_MODE.load(std::sync::atomic::Ordering::Relaxed) {
        1 => AttentionMode::Serial,
        _ => AttentionMode::Sweep,
    }
}

/// One sequence's slice of the batched attention phase: its query row,
/// its (shared, read-only) layer view of the block pool, its private
/// scratch seat, and the `[D]` slice of the batch context buffer its
/// result lands in. Slots borrow disjoint data, so a `&mut [AttnSlot]`
/// can be scattered across worker threads.
pub(crate) struct AttnSlot<'a> {
    pub(crate) q: &'a [f32],
    pub(crate) view: crate::kv_block::SeqLayerKv<'a>,
    pub(crate) scratch: &'a mut DecodeScratch,
    pub(crate) out: &'a mut [f32],
}

/// Execute the attention phase for a batch of prepared slots.
///
/// [`AttentionMode::Sweep`] fans the slots across the persistent worker
/// pool once the lanes carry enough arithmetic to pay for a launch
/// (`par`'s work gate; below it they run in order on the caller) — task
/// `i` is always sequence `i`, the chunk→worker mapping is
/// deterministic, and each task runs its sequence's positions strictly
/// in order, so parallelism lives *across* sequences only and every
/// sequence's reduction order is fixed regardless of batch composition
/// or thread count (DESIGN §10). Wall time lands in the `attend_ns`
/// histogram either way, so `/metrics` shows attention's share of a
/// decode step.
pub(crate) fn attend_batch(slots: &mut [AttnSlot<'_>], heads: usize, dh: usize, scale: f32) {
    let start = obs::Clock::now();
    match attention_mode() {
        AttentionMode::Sweep => {
            // A lane's work is its score plus context pass, `2·t·d`
            // multiply-accumulates; the mean lane is what `par` gates the
            // fan-out on.
            let positions: usize = slots.iter().map(|s| s.view.len()).sum();
            let lane_macs = 2 * positions * heads * dh / slots.len().max(1);
            // SAFETY(disjoint: slots[i] — each task owns one `AttnSlot` and writes only its own `out`/`scratch`)
            ratatouille_tensor::par::scatter_mut(slots, lane_macs, |_, slot| {
                attend(slot.q, heads, dh, 0, &slot.view, slot.scratch, scale);
                slot.out.copy_from_slice(&slot.scratch.ctx);
            });
        }
        AttentionMode::Serial => {
            for slot in slots.iter_mut() {
                attend_by_row(slot.q, heads, dh, 0, &slot.view, slot.scratch, scale);
                slot.out.copy_from_slice(&slot.scratch.ctx);
            }
        }
    }
    obs::static_histogram!("attend_ns").observe(start.elapsed_ns());
}

/// An int8 weight-quantized transformer block for inference.
///
/// Each weight matrix is quantized once (per output row, symmetric,
/// scale = `max_abs / 127`) and stored output-major so the decode matmul
/// is a row-wise int8 dot against the f32 activation row. Layer norms and
/// biases stay f32 — they are tiny and precision-critical. The KV cache
/// for quantized decode stores [`F16`], halving cache memory traffic.
pub struct QuantBlock {
    ln1_g: Tensor,
    ln1_b: Tensor,
    /// QKV projection, quantized `[3D, D]` (output-major).
    w_qkv: QuantizedMatrix,
    b_qkv: Tensor,
    /// Attention output projection, quantized `[D, D]` (output-major).
    w_o: QuantizedMatrix,
    b_o: Tensor,
    ln2_g: Tensor,
    ln2_b: Tensor,
    /// MLP up-projection, quantized `[F, D]` (output-major).
    w_up: QuantizedMatrix,
    b_up: Tensor,
    /// MLP down-projection, quantized `[D, F]` (output-major).
    w_down: QuantizedMatrix,
    b_down: Tensor,
}

impl QuantBlock {
    /// Quantize an f32 [`Block`]'s weights. Weight matrices are stored
    /// `[in, out]` for training; the quantized copies are transposed to
    /// output-major `[out, in]` so each output element is one int8 row dot.
    pub fn from_block(block: &Block) -> Self {
        let q = |w: &Var| quantize_per_row(&ops::transpose2d(&w.value()));
        QuantBlock {
            ln1_g: block.ln1_g.value(),
            ln1_b: block.ln1_b.value(),
            w_qkv: q(&block.w_qkv),
            b_qkv: block.b_qkv.value(),
            w_o: q(&block.w_o),
            b_o: block.b_o.value(),
            ln2_g: block.ln2_g.value(),
            ln2_b: block.ln2_b.value(),
            w_up: q(&block.w_up),
            b_up: block.b_up.value(),
            w_down: q(&block.w_down),
            b_down: block.b_down.value(),
        }
    }

    /// Incremental quantized forward for one new token (mirrors
    /// [`Block::forward_incremental`]).
    ///
    /// `window` limits attention to the trailing `window` positions
    /// (GPT-Neo local layers); `None` is full causal attention.
    pub fn forward_incremental(
        &self,
        x: &Tensor,
        heads: usize,
        cache: &mut KvCache<F16>,
        scratch: &mut DecodeScratch,
        window: Option<usize>,
    ) -> Tensor {
        let d = x.numel();
        let dh = d / heads;
        let x_row = x.reshape(&[1, d]);

        let (ln, _, _) = ops::layer_norm(&x_row, &self.ln1_g, &self.ln1_b, 1e-5);
        let qkv = ops::add_broadcast(&qmatmul_transb(&ln, &self.w_qkv), &self.b_qkv);
        let qkv_d = qkv.data();
        let q = &qkv_d[..d];
        cache.push_slices(&qkv_d[d..2 * d], &qkv_d[2 * d..3 * d]);

        let t = cache.len();
        let start = window.map_or(0, |w| t.saturating_sub(w));
        let scale = 1.0 / (dh as f32).sqrt();
        attend(q, heads, dh, start, cache, scratch, scale);

        let ctx_row = Tensor::from_vec(scratch.ctx.clone(), &[1, d]).expect("ctx is [d]");
        let attn = ops::add_broadcast(&qmatmul_transb(&ctx_row, &self.w_o), &self.b_o);
        let x1 = ops::add(&x_row, &attn);

        let (ln2, _, _) = ops::layer_norm(&x1, &self.ln2_g, &self.ln2_b, 1e-5);
        // `gelu_fast`: a few-ULP tanh approximation, far below the int8
        // quantization error already accepted on this path. The f32 block
        // keeps the exact `gelu`, so f32 decode numerics are untouched.
        let up = ops::gelu_fast(&ops::add_broadcast(
            &qmatmul_transb(&ln2, &self.w_up),
            &self.b_up,
        ));
        let mlp = ops::add_broadcast(&qmatmul_transb(&up, &self.w_down), &self.b_down);
        ops::add(&x1, &mlp).reshape(&[d])
    }
}

/// Reusable per-stream buffers for [`Block::forward_incremental`]: the
/// attention scores/probs (`[heads * t]`), the context vector (`[d]`) and
/// the projected attention output (`[d]`). One instance lives in each
/// decode stream and is shared across layers (layers run sequentially),
/// so the per-token attention loop performs zero heap allocations.
#[derive(Debug, Clone, Default)]
pub struct DecodeScratch {
    scores: Vec<f32>,
    probs: Vec<f32>,
    ctx: Vec<f32>,
    attn: Vec<f32>,
}

impl DecodeScratch {
    /// A fresh scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    fn resize(&mut self, heads: usize, t: usize, d: usize) {
        self.scores.resize(heads * t, 0.0);
        self.probs.resize(heads * t, 0.0);
        self.ctx.resize(d, 0.0);
        self.attn.reserve(d);
    }
}

/// The batched-decode scratch arena: one [`DecodeScratch`] *seat* per
/// batch lane (each attention task owns its seat exclusively — scratch
/// ownership is what lets the sweep run lanes concurrently without any
/// sharing), plus the `[B, D]` context and embedding staging buffers the
/// engine round-trips through [`crate::Tensor`]s so a steady-state decode
/// step performs no per-step allocations for them.
///
/// Buffers grow to the high-water batch size and are then reused; seats
/// keep their identity across steps, so lane `i`'s scratch capacity
/// survives sequence turnover.
#[derive(Debug, Default)]
pub struct BatchScratch {
    seats: Vec<DecodeScratch>,
    pub(crate) ctx: Vec<f32>,
    pub(crate) x: Vec<f32>,
}

impl BatchScratch {
    /// A fresh arena; everything grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The first `b` scratch seats, growing the arena if the batch is
    /// the largest seen so far.
    pub(crate) fn seats(&mut self, b: usize) -> &mut [DecodeScratch] {
        if self.seats.len() < b {
            self.seats.resize_with(b, DecodeScratch::new);
        }
        &mut self.seats[..b]
    }
}

/// Per-layer key/value cache for incremental decoding: flat row-major
/// `[T, D]` buffers that grow as tokens are pushed.
///
/// Generic over the storage dtype: the f32 decode path uses the default
/// `KvCache<f32>` (rows stored verbatim, bit-identical to the pre-generic
/// cache); quantized decode uses `KvCache<F16>`, which narrows each
/// incoming row element with round-to-nearest-even and halves cache
/// memory. New rows always arrive as f32 (the block computes in f32).
#[derive(Debug, Clone, Default)]
pub struct KvCache<E: Element = f32> {
    k: Vec<E>,
    v: Vec<E>,
    d: usize,
    len: usize,
}

impl<E: Element> KvCache<E> {
    /// An empty cache for width-`d` keys/values with room for `rows`
    /// positions — a stream's context budget, so decoding never pays a
    /// `Vec` doubling (a copy of the whole cache) mid-recipe. Pushing past
    /// `rows` still works; it grows like any `Vec`.
    pub fn with_capacity(d: usize, rows: usize) -> Self {
        KvCache {
            k: Vec::with_capacity(rows * d),
            v: Vec::with_capacity(rows * d),
            d,
            len: 0,
        }
    }

    /// Number of cached positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn push_slices(&mut self, k_row: &[f32], v_row: &[f32]) {
        assert_eq!(k_row.len(), self.d);
        assert_eq!(v_row.len(), self.d);
        self.k.extend(k_row.iter().map(|&x| E::from_f32(x)));
        self.v.extend(v_row.iter().map(|&x| E::from_f32(x)));
        self.len += 1;
    }

    fn k_row(&self, pos: usize) -> &[E] {
        &self.k[pos * self.d..(pos + 1) * self.d]
    }

    fn v_row(&self, pos: usize) -> &[E] {
        &self.v[pos * self.d..(pos + 1) * self.d]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratatouille_util::rng::SeedableRng;

    #[test]
    fn forward_shape_preserved() {
        let mut rng = StdRng::seed_from_u64(0);
        let block = Block::new(&mut rng, 16, 32, 2);
        let x = Var::constant(init::randn(&mut rng, &[2, 5, 16], 1.0));
        let y = block.forward(&x, 4, 0.0, false, &mut rng);
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
            .forward(&Var::constant(base), 2, 0.0, false, &mut rng)
            .value();
        let y2 = block
            .forward(&Var::constant(altered), 2, 0.0, false, &mut rng)
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

    #[test]
    fn incremental_matches_full_forward() {
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
        let full_out = block
            .forward(&Var::constant(full_in), 4, 0.0, false, &mut rng)
            .value();

        let mut cache = KvCache::<f32>::with_capacity(d, 8);
        let mut scratch = DecodeScratch::new();
        for (i, x) in xs.iter().enumerate() {
            let inc = block.forward_incremental(x, 4, &mut cache, &mut scratch);
            for j in 0..d {
                let a = full_out.data()[i * d + j];
                let b = inc.data()[j];
                assert!(
                    (a - b).abs() < 1e-4,
                    "mismatch at pos {i} dim {j}: full={a} inc={b}"
                );
            }
        }
        assert_eq!(cache.len(), 6);
    }

    #[test]
    fn quantized_incremental_tracks_f32_block() {
        // int8 weights + f16 KV cache should stay close to the f32 path;
        // the residual stream keeps the error small and bounded.
        let mut rng = StdRng::seed_from_u64(7);
        let d = 16;
        let block = Block::new(&mut rng, d, 32, 1);
        let qblock = QuantBlock::from_block(&block);
        let mut c32 = KvCache::<f32>::with_capacity(d, 8);
        let mut cq = KvCache::<F16>::with_capacity(d, 8);
        let mut s32 = DecodeScratch::new();
        let mut sq = DecodeScratch::new();
        for i in 0..6 {
            let x = init::randn(&mut rng, &[d], 1.0);
            let y32 = block.forward_incremental(&x, 4, &mut c32, &mut s32);
            let yq = qblock.forward_incremental(&x, 4, &mut cq, &mut sq, None);
            for j in 0..d {
                let (a, b) = (y32.data()[j], yq.data()[j]);
                assert!(
                    (a - b).abs() < 0.05,
                    "pos {i} dim {j} diverged: f32={a} int8={b}"
                );
            }
        }
        assert_eq!(cq.len(), 6);
    }

    #[test]
    fn quant_block_window_limits_attention() {
        // With a window of 1 each position attends only to itself, so the
        // output must differ from full attention once history exists —
        // and stay finite.
        let mut rng = StdRng::seed_from_u64(8);
        let d = 8;
        let block = Block::new(&mut rng, d, 32, 1);
        let qblock = QuantBlock::from_block(&block);
        let xs: Vec<Tensor> = (0..3).map(|_| init::randn(&mut rng, &[d], 1.0)).collect();
        let run = |window: Option<usize>| {
            let mut cache = KvCache::<F16>::with_capacity(d, 8);
            let mut scratch = DecodeScratch::new();
            xs.iter()
                .map(|x| qblock.forward_incremental(x, 2, &mut cache, &mut scratch, window))
                .collect::<Vec<_>>()
        };
        let full = run(None);
        let windowed = run(Some(1));
        assert_eq!(full[0], windowed[0], "first token has no history");
        assert!(!windowed[2].has_non_finite());
        assert_ne!(full[2], windowed[2], "window had no effect");
    }

    /// Deterministic pseudo-random floats in about ±1.5.
    fn noise(n: usize, salt: u64) -> Vec<f32> {
        use ratatouille_util::rng::RngExt;
        let mut rng = StdRng::seed_from_u64(salt);
        (0..n).map(|_| rng.random::<f32>() * 3.0 - 1.5).collect()
    }

    fn scratch_bits(s: &DecodeScratch) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        (bits(&s.scores), bits(&s.probs), bits(&s.ctx))
    }

    /// `attend` (run kernels) against the row-at-a-time oracle over one
    /// cache, at a window start: scores, probabilities and context must
    /// agree bit for bit.
    fn assert_attend_matches_oracle<C: KvRows>(q: &[f32], heads: usize, dh: usize, start: usize, cache: &C) {
        let scale = 1.0 / (dh as f32).sqrt();
        let (mut fused, mut oracle) = (DecodeScratch::new(), DecodeScratch::new());
        attend(q, heads, dh, start, cache, &mut fused, scale);
        attend_by_row(q, heads, dh, start, cache, &mut oracle, scale);
        assert_eq!(
            scratch_bits(&fused),
            scratch_bits(&oracle),
            "heads {heads} dh {dh} t {} start {start}",
            cache.len()
        );
    }

    ratatouille_util::proptest! {
        cases = 64;

        /// Contiguous `KvCache` runs (one run per pass), f32 and f16
        /// storage, full and windowed attention.
        #[test]
        fn attend_matches_row_oracle_over_contiguous_caches(
            hi in 0usize..4, di in 0usize..5, t in 1usize..40, window in 1usize..40, salt in 0u64..1 << 20
        ) {
            let (heads, dh) = ([1, 2, 4, 8][hi], [8, 16, 20, 32, 64][di]);
            let d = heads * dh;
            let mut c32 = KvCache::<f32>::with_capacity(d, t);
            let mut c16 = KvCache::<F16>::with_capacity(d, t);
            for pos in 0..t {
                let (k, v) = (noise(d, salt + 2 * pos as u64), noise(d, salt + 2 * pos as u64 + 1));
                c32.push_slices(&k, &v);
                c16.push_slices(&k, &v);
            }
            let q = noise(d, salt ^ 0xA77E);
            for start in [0, t.saturating_sub(window)] {
                assert_attend_matches_oracle(&q, heads, dh, start, &c32);
                assert_attend_matches_oracle(&q, heads, dh, start, &c16);
            }
        }

        /// Block-pooled `SeqLayerKv` runs: every run ends at a block
        /// boundary, the last one mid-block.
        #[test]
        fn attend_matches_row_oracle_over_block_pooled_caches(
            hi in 0usize..4, di in 0usize..5, t in 1usize..40, bt in 1usize..9, window in 1usize..40, salt in 0u64..1 << 20
        ) {
            use crate::kv_block::BlockConfig;
            let (heads, dh) = ([1, 2, 4, 8][hi], [8, 16, 20, 32, 64][di]);
            let d = heads * dh;
            let mut pool = BlockPool::new(BlockConfig { layers: 2, d, block_tokens: bt, num_blocks: t.div_ceil(bt) });
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
            let q = noise(d, salt ^ 0xA77E);
            for start in [0, t.saturating_sub(window)] {
                assert_attend_matches_oracle(&q, heads, dh, start, &seq.layer_view(&pool, 1, t));
            }
        }
    }

    /// The batched attention phase above `par`'s launch gate (8 lanes of
    /// 2·t·d = 2^18 multiply-accumulates): the lanes really fan out, and
    /// the context rows are the serial oracle's at every thread count.
    #[test]
    fn attend_batch_fans_out_without_changing_a_bit() {
        use crate::kv_block::BlockConfig;
        let (heads, dh, t, lanes) = (8, 32, 512, 8);
        let d = heads * dh;
        let mut pool = BlockPool::new(BlockConfig { layers: 1, d, block_tokens: 16, num_blocks: lanes * t / 16 });
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
        let run = |mode: AttentionMode, threads: usize| -> Vec<u32> {
            set_attention_mode(mode);
            ratatouille_tensor::par::set_num_threads(threads);
            let mut scratch = BatchScratch::new();
            let mut ctx = vec![0.0f32; lanes * d];
            let mut slots: Vec<AttnSlot<'_>> = Vec::new();
            let mut ctx_tail: &mut [f32] = &mut ctx;
            for ((seq, q), seat) in seqs.iter().zip(&qs).zip(scratch.seats(lanes).iter_mut()) {
                let (out, rest) = ctx_tail.split_at_mut(d);
                ctx_tail = rest;
                slots.push(AttnSlot { q, view: seq.layer_view(&pool, 0, t), scratch: seat, out });
            }
            attend_batch(&mut slots, heads, dh, 1.0 / (dh as f32).sqrt());
            drop(slots);
            ratatouille_tensor::par::set_num_threads(0);
            set_attention_mode(AttentionMode::Sweep);
            ctx.iter().map(|x| x.to_bits()).collect()
        };
        let oracle = run(AttentionMode::Serial, 1);
        let launches = obs::static_counter!("tensor_pool_launches_total").get();
        for threads in [1, 2, 3, 4, 7] {
            assert_eq!(run(AttentionMode::Sweep, threads), oracle, "sweep at {threads} threads");
        }
        assert!(
            obs::static_counter!("tensor_pool_launches_total").get() >= launches + 4,
            "the sweep never left the caller thread"
        );
    }

    #[test]
    fn kv_cache_within_its_budget_never_reallocates() {
        let (d, rows) = (16, 40);
        let mut cache = KvCache::<F16>::with_capacity(d, rows);
        let (k0, v0) = (cache.k.as_ptr(), cache.v.as_ptr());
        for pos in 0..rows {
            cache.push_slices(&noise(d, pos as u64), &noise(d, 1000 + pos as u64));
        }
        assert_eq!((cache.k.as_ptr(), cache.v.as_ptr()), (k0, v0), "a push moved the cache");
        // Past the budget it still grows like any Vec.
        cache.push_slices(&noise(d, 1), &noise(d, 2));
        assert_eq!(cache.len(), rows + 1);
    }

    #[test]
    fn block_is_trainable() {
        // Single block + mean target: gradients reach every parameter.
        let mut rng = StdRng::seed_from_u64(3);
        let block = Block::new(&mut rng, 8, 16, 1);
        let x = Var::leaf(init::randn(&mut rng, &[1, 3, 8], 1.0));
        let y = block.forward(&x, 2, 0.0, true, &mut rng);
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
        let eval_a = block.forward(&x, 2, 0.5, false, &mut ra).value();
        let eval_b = block.forward(&x, 2, 0.5, false, &mut rb).value();
        assert!(eval_a.allclose(&eval_b, 1e-6), "eval forward must be deterministic");
        let train_a = block.forward(&x, 2, 0.5, true, &mut ra).value();
        assert!(!train_a.allclose(&eval_a, 1e-6), "dropout should perturb training");
    }
}
