//! Multi-sequence continuous-batching decode engine.
//!
//! [`BatchGenerator`] drives any [`BatchStepModel`] one *token step* at a
//! time: every step feeds one token for every active sequence through a
//! single batched forward (the `[B, D]` GEMMs of
//! `DecodeBlock::decode_step` replacing `B` separate GEMVs),
//! samples each sequence's next token with its own seeded RNG, retires
//! finished sequences immediately and leaves their pool blocks free for
//! the next admission. Prompts are *chunk-prefilled* — one prompt token
//! per step — so a newly admitted request never stalls the sequences
//! already decoding.
//!
//! ## The batch-determinism contract
//!
//! A sequence's token stream is **byte-identical** whether it decodes
//! solo or inside any batch composition, because
//!
//! 1. every batched op computes row `i` independently of rows `j ≠ i`
//!    (row-wise `layer_norm`/`add`/`gelu`, per-output-dot
//!    `matmul_transb`, and `matmul` whose per-element accumulation chain
//!    is the same in its row, raw-tile (decode-sized `M`) and packed
//!    paths whenever `N % 16 == 0` — which
//!    [`BatchStepModel::batch_ready`] gates on);
//! 2. attention reads only the sequence's own K/V blocks;
//! 3. sampling draws from a per-sequence RNG seeded at admission; and
//! 4. shared prefix blocks hold bit-for-bit the rows the sequence would
//!    have computed itself (same weights, same tokens, same positions,
//!    same kernels).
//!
//! `tests/batch_equivalence.rs` pins (1)–(4) end to end; the serving
//! integration test pins them over HTTP.

use ratatouille_util::rng::{SeedableRng, StdRng};
use ratatouille_tensor::Tensor;

use std::sync::Arc;

use crate::kv_block::{BlockConfig, BlockPool, PoolExhausted, PrefixCache, SeqKv};
use crate::sample::{select_token, SamplerConfig};
use crate::transformer::BatchScratch;

/// The shape facts the engine needs from a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelDims {
    /// Transformer layers (block-table depth).
    pub layers: usize,
    /// Residual width (K/V row width).
    pub d_model: usize,
}

/// A model that can decode a batch of sequences one token step at a
/// time against a [`BlockPool`]-backed KV cache.
///
/// Implemented by [`crate::gpt2::Gpt2Lm`]; discovered through
/// [`crate::lm::InferenceModel::batch_model`].
pub trait BatchStepModel {
    /// Layer count and width, for sizing the pool.
    fn dims(&self) -> ModelDims;

    /// Display name, labeling the engine's metrics (`{model="…"}`).
    /// Cardinality stays bounded because implementations come from the
    /// closed model registry.
    fn name(&self) -> &str;

    /// Whether this instance satisfies the batch-invariance preconditions
    /// (every GEMM `N` divisible by the pack width). When false the
    /// batched path must not be used — `batch_model()` returns `None`.
    fn batch_ready(&self) -> bool;

    /// One decode step: feed `tokens[i]` at `seqs[i]`'s next position and
    /// return each sequence's next-token logits as `[B]` tensors of
    /// `[V]`. Implementations must write K/V through the prepared slots
    /// and must **not** commit — the caller commits after consuming the
    /// logits.
    fn batch_step(
        &self,
        tokens: &[u32],
        pool: &mut BlockPool,
        seqs: &mut [&mut SeqKv],
        scratch: &mut BatchScratch,
    ) -> Vec<Tensor>;
}

/// Engine sizing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchEngineConfig {
    /// Tokens per KV block.
    pub block_tokens: usize,
    /// Total KV blocks in the arena.
    pub num_blocks: usize,
    /// Maximum concurrently decoding sequences.
    pub max_batch: usize,
    /// Maximum registered shared prefixes.
    pub prefix_cap: usize,
}

impl Default for BatchEngineConfig {
    fn default() -> Self {
        BatchEngineConfig {
            block_tokens: 16,
            num_blocks: 512,
            max_batch: 8,
            prefix_cap: 32,
        }
    }
}

/// Why an admission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The batch already holds `max_batch` sequences — retry next step.
    BatchFull,
    /// The block pool cannot cover the request's worst case — the 429
    /// path.
    PoolExhausted,
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::BatchFull => write!(f, "batch is full"),
            AdmitError::PoolExhausted => write!(f, "KV block pool exhausted"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// A request entering the batch.
#[derive(Debug, Clone)]
pub struct BatchRequest {
    /// Prompt token ids (non-empty).
    pub prompt: Vec<u32>,
    /// Per-request sampling configuration.
    pub sampler: SamplerConfig,
    /// Seed of the request's private sampling RNG — the "same seed, same
    /// output" half of the determinism contract.
    pub seed: u64,
}

/// A retired sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinishedSeq {
    /// The id [`BatchGenerator::admit`] returned.
    pub id: u64,
    /// Generated tokens (no prompt, no stop token).
    pub tokens: Vec<u32>,
}

/// One step's outcome.
#[derive(Debug, Default)]
pub struct StepOutcome {
    /// Sequences that ran this step (0 = engine idle).
    pub batch_size: usize,
    /// Sequences retired this step, in admission order.
    pub finished: Vec<FinishedSeq>,
}

struct GenState {
    id: u64,
    prompt: Vec<u32>,
    /// Prompt tokens already in the cache (starts at the shared-prefix
    /// length; the prompt is fed one token per step until caught up).
    fed: usize,
    seq: SeqKv,
    cfg: SamplerConfig,
    rng: StdRng,
    out: Vec<u32>,
    /// The token to feed next once the prompt is exhausted.
    last: u32,
    stopped: bool,
    registered: bool,
    /// Where TTFT counts from: the request's enqueue stamp when the
    /// caller supplied one, otherwise the admission stamp.
    origin_ns: u64,
    /// Set once the first sampled token has been attributed to TTFT.
    ttft_recorded: bool,
    /// The request's trace, if serving attached one. Recording is two
    /// relaxed/release stores per phase; `None` costs one branch.
    trace: Option<obs::reqtrace::TraceHandle>,
}

impl GenState {
    /// Append a phase record to the attached trace, if any.
    fn trace_record(&self, phase: obs::reqtrace::Phase, a: u32, b: u32) {
        if let Some(t) = &self.trace {
            t.record(phase, a, b);
        }
    }
}

/// The continuous-batching engine: owns the block pool, the prefix
/// cache and all per-sequence decode state; borrows the (non-`Send`)
/// model only for the duration of each [`BatchGenerator::step`].
pub struct BatchGenerator {
    pool: BlockPool,
    prefix: PrefixCache,
    active: Vec<GenState>,
    scratch: BatchScratch,
    /// This step's per-lane input tokens, reused across steps so the
    /// steady-state decode loop allocates nothing per token.
    feed: Vec<u32>,
    max_batch: usize,
    next_id: u64,
    /// Per-model labeled twins of the aggregate engine metrics, resolved
    /// once at construction (a per-step `format!` would defeat the
    /// registry's handle caching).
    batch_size_hist: Arc<obs::metrics::Histogram>,
    kv_hits: Arc<obs::metrics::Counter>,
    kv_misses: Arc<obs::metrics::Counter>,
    ttft_hist: Arc<obs::metrics::Histogram>,
}

impl BatchGenerator {
    /// Build an engine for `model`'s geometry.
    ///
    /// # Panics
    /// Panics if the model does not satisfy [`BatchStepModel::batch_ready`]
    /// (callers reach engines through `batch_model()`, which already
    /// filters).
    pub fn new(model: &dyn BatchStepModel, cfg: BatchEngineConfig) -> Self {
        assert!(model.batch_ready(), "model violates batch-invariance preconditions");
        let dims = model.dims();
        let pool = BlockPool::new(BlockConfig {
            layers: dims.layers,
            d: dims.d_model,
            block_tokens: cfg.block_tokens,
            num_blocks: cfg.num_blocks,
        });
        let labels = format!("{{model=\"{}\"}}", obs::metrics::label_value(model.name()));
        BatchGenerator {
            pool,
            prefix: PrefixCache::new(cfg.prefix_cap),
            active: Vec::new(),
            scratch: BatchScratch::new(),
            feed: Vec::new(),
            max_batch: cfg.max_batch.max(1),
            next_id: 0,
            batch_size_hist: obs::metrics::histogram(&format!("decode_batch_size{labels}")),
            kv_hits: obs::metrics::counter(&format!("decode_kv_hits_total{labels}")),
            kv_misses: obs::metrics::counter(&format!("decode_kv_misses_total{labels}")),
            ttft_hist: obs::metrics::histogram(&format!("ttft_ns{labels}")),
        }
    }

    /// Currently decoding sequences.
    pub fn active(&self) -> usize {
        self.active.len()
    }

    /// Free blocks in the pool (observability and tests).
    pub fn free_blocks(&self) -> usize {
        self.pool.free_blocks()
    }

    /// Whether another sequence can join the batch right now.
    pub fn has_slot(&self) -> bool {
        self.active.len() < self.max_batch
    }

    /// The configured concurrency ceiling.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Admit a request: share any cached prompt prefix, reserve the
    /// worst-case block count (so later steps cannot starve), and join
    /// the batch at the next step. Returns the sequence id.
    pub fn admit(&mut self, req: BatchRequest) -> Result<u64, AdmitError> {
        self.admit_traced(req, obs::reqtrace::TraceMeta::default())
    }

    /// [`Self::admit`] with request-trace metadata attached: a
    /// successful admission records an `Admit` phase carrying the
    /// KV-prefix hit/miss split, and TTFT for the sequence counts from
    /// `meta.enqueued_ns` (admission time if the caller left it 0).
    /// Refusals record nothing — the serving queue owns the
    /// requeue/reject phases, since only it knows which refusals are
    /// transient.
    pub fn admit_traced(
        &mut self,
        req: BatchRequest,
        meta: obs::reqtrace::TraceMeta,
    ) -> Result<u64, AdmitError> {
        assert!(!req.prompt.is_empty(), "batched generate requires a prompt");
        if self.active.len() >= self.max_batch {
            return Err(AdmitError::BatchFull);
        }
        // Share at most `prompt - 1` tokens: the last prompt position is
        // always computed because its logits seed generation.
        let hit = self
            .prefix
            .lookup(&mut self.pool, &req.prompt, req.prompt.len() - 1);
        let mut seq = SeqKv::new();
        let shared = hit.tokens;
        // Labeled twins of the aggregate hit/miss counters the lookup
        // itself bumps.
        self.kv_hits.add(shared as u64);
        self.kv_misses.add((req.prompt.len() - shared) as u64);
        if shared > 0 {
            seq.adopt_shared(&self.pool, hit.blocks);
        }
        // Worst case: every prompt position plus every sampled token
        // lands in the cache (the final sampled token never does, but one
        // slot of headroom keeps the arithmetic obviously safe).
        let total = req.prompt.len() + req.sampler.max_tokens;
        if seq.reserve_for(&mut self.pool, total).is_err() {
            seq.release_all(&mut self.pool);
            return Err(AdmitError::PoolExhausted);
        }
        let id = self.next_id;
        self.next_id += 1;
        meta.record(
            obs::reqtrace::Phase::Admit,
            shared as u32,
            (req.prompt.len() - shared) as u32,
        );
        let origin_ns = if meta.enqueued_ns != 0 {
            meta.enqueued_ns
        } else {
            obs::Clock::now().at_ns()
        };
        self.active.push(GenState {
            id,
            fed: shared,
            seq,
            cfg: req.sampler,
            rng: StdRng::seed_from_u64(req.seed),
            out: Vec::new(),
            last: 0,
            stopped: false,
            registered: false,
            origin_ns,
            ttft_recorded: false,
            trace: meta.trace,
            prompt: req.prompt,
        });
        Ok(id)
    }

    /// Run one token step over every active sequence. Finished sequences
    /// are retired (blocks released) before returning, so the next
    /// admission sees their capacity.
    pub fn step(&mut self, model: &dyn BatchStepModel) -> Result<StepOutcome, PoolExhausted> {
        if self.active.is_empty() {
            return Ok(StepOutcome::default());
        }
        let batch_size = self.active.len();
        obs::static_histogram!("decode_batch_size").observe(batch_size as u64);
        self.batch_size_hist.observe(batch_size as u64);

        self.feed.clear();
        self.feed.extend(self.active.iter().map(|g| {
            if g.fed < g.prompt.len() {
                g.prompt[g.fed]
            } else {
                g.last
            }
        }));
        {
            let mut seqs: Vec<&mut SeqKv> = self.active.iter_mut().map(|g| &mut g.seq).collect();
            for seq in seqs.iter_mut() {
                seq.prepare_write(&mut self.pool)?;
            }
            let logits = model.batch_step(&self.feed, &mut self.pool, &mut seqs, &mut self.scratch);
            debug_assert_eq!(logits.len(), batch_size);
            drop(seqs);

            for (g, l) in self.active.iter_mut().zip(logits) {
                g.seq.commit();
                if g.fed < g.prompt.len() {
                    g.trace_record(
                        obs::reqtrace::Phase::PrefillChunk,
                        g.fed as u32,
                        batch_size as u32,
                    );
                    g.fed += 1;
                }
                if g.fed < g.prompt.len() {
                    continue; // still prefilling; logits discarded
                }
                if !g.registered {
                    // The whole prompt is cached now: publish its full
                    // blocks for future same-pantry requests.
                    self.prefix.insert(&mut self.pool, &g.prompt, &g.seq);
                    g.registered = true;
                }
                let next = select_token(&l, &g.cfg, &mut g.rng);
                if !g.ttft_recorded {
                    g.ttft_recorded = true;
                    let ttft = obs::Clock::now().at_ns().saturating_sub(g.origin_ns);
                    obs::static_histogram!("ttft_ns").observe(ttft);
                    self.ttft_hist.observe(ttft);
                }
                if Some(next) == g.cfg.stop_token {
                    g.stopped = true; // retired below; stop token excluded
                } else {
                    g.out.push(next);
                    g.last = next;
                }
                g.trace_record(
                    obs::reqtrace::Phase::DecodeStep,
                    g.out.len() as u32,
                    batch_size as u32,
                );
            }
        }

        let mut finished = Vec::new();
        self.active.retain_mut(|g| {
            let done =
                g.fed >= g.prompt.len() && (g.stopped || g.out.len() >= g.cfg.max_tokens);
            if done {
                g.trace_record(obs::reqtrace::Phase::Retire, g.out.len() as u32, 0);
                g.seq.release_all(&mut self.pool);
                finished.push(FinishedSeq {
                    id: g.id,
                    tokens: std::mem::take(&mut g.out),
                });
            }
            !done
        });
        Ok(StepOutcome {
            batch_size,
            finished,
        })
    }

    /// Drive the engine until `id` finishes (test/bench convenience —
    /// serving interleaves admissions between steps instead). Other
    /// active sequences keep decoding alongside.
    pub fn run_to_completion(
        &mut self,
        model: &dyn BatchStepModel,
        id: u64,
    ) -> Result<Vec<u32>, PoolExhausted> {
        loop {
            let out = self.step(model)?;
            if let Some(f) = out.finished.into_iter().find(|f| f.id == id) {
                return Ok(f.tokens);
            }
            assert!(out.batch_size > 0, "sequence {id} is not active");
        }
    }
}
