//! The system under test. Every call into the repository's crates is in
//! this file, so a later change that renames an API used by the
//! benchmark needs a prior benchmark-only change touching nothing else.
//!
//! Nothing here adds a span, counter or switch to any crate: layers are
//! timed from outside, around their public functions.

use std::hint::black_box;
use std::io::Cursor;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use ratatouille::backend::weights_map;
use ratatouille::batch_backend::BatchModelBackend;
use ratatouille::eval::structure::validate_tagged_recipe;
use ratatouille::models::batch::{BatchEngineConfig, BatchGenerator, BatchRequest, BatchStepModel};
use ratatouille::models::data::Dataset;
use ratatouille::models::registry::{ModelKind, ModelSpec};
use ratatouille::models::sample::SamplerConfig;
use ratatouille::models::train::{TrainConfig, Trainer};
use ratatouille::models::{InferenceModel, TokenStream};
use ratatouille::pipeline::prompt_for;
use ratatouille::recipedb::ontology::INGREDIENTS;
use ratatouille::recipedb::{Corpus, Preprocessor};
use ratatouille::serving::api::{ApiServer, GeneratedRecipe, RecipeBackend, RecipeBackendFactory};
use ratatouille::serving::batch::{
    AdmitOutcome, BatchServerConfig, StepBackend, StepBackendFactory,
};
use ratatouille::serving::http::{parse_request, Request, Response, StatusCode};
use ratatouille::serving::json::Json;
use ratatouille::serving::router::Router;
use ratatouille::tensor::ops::{
    matmul, matmul_transa, matmul_transb, qmatmul_transb, quantize_per_row, QuantizedMatrix,
};
use ratatouille::tensor::{init, par, Tensor};
use ratatouille::tokenizers::{BpeTokenizer, Tokenizer};
use ratatouille::{Pipeline, PipelineConfig, TrainedModel};
use ratatouille_util::rng::{RngExt, SeedableRng, StdRng};

/// The model card every generate response must carry.
pub const MODEL_NAME: &str = "GPT-2 medium";
const KIND: ModelKind = ModelKind::Gpt2Medium;
/// The serving decode budget for BPE models (`generation_budget`, which is
/// crate-private); the verification pass replays through the factories
/// that read the real one, so a drift here shows as a mismatch.
const MAX_TOKENS: usize = 260;
/// Shipping default of the pooled server's bounded job queue.
const POOLED_QUEUE_CAP: usize = 32;

/// The frozen workspace PRNG, for making inputs.
pub struct Prng(StdRng);

impl Prng {
    pub fn new(seed: u64) -> Prng {
        Prng(StdRng::seed_from_u64(seed))
    }

    pub fn below(&mut self, n: usize) -> usize {
        self.0.below(n)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.0.random::<f64>()
    }
}

pub fn ingredient_names() -> Vec<&'static str> {
    INGREDIENTS.iter().map(|i| i.name).collect()
}

/// Batch slots of the engine under its shipping configuration.
pub fn max_batch() -> usize {
    BatchEngineConfig::default().max_batch
}

pub fn tensor_threads() -> usize {
    par::num_threads()
}

/// The program's own clock, to place its request timelines on the
/// benchmark's.
pub fn program_clock_ns() -> u64 {
    obs::Clock::now().at_ns()
}

/// The `/metrics` text, read in process (offline workloads have no server).
pub fn metrics_text() -> String {
    obs::metrics::render_prometheus()
}

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        sampler: PipelineConfig::reproduction().sampler,
        ..PipelineConfig::small()
    }
}

/// Corpus generation, split and preprocessing (300 recipes).
pub fn prepare() -> Pipeline {
    Pipeline::prepare(pipeline_config())
}

/// The training shape of both the fixture and `train_medium`: GPT-2
/// medium, batch 4 × 256 tokens. Five steps leave the model sampling
/// mostly full-length recipes with an occasional early end, which keeps
/// per-request work steady from seed to seed while the batch still
/// retires and admits at different steps.
fn train_config(steps: usize, seed: u64) -> TrainConfig {
    TrainConfig {
        steps,
        batch_size: 4,
        lr: 2e-3,
        warmup: 0,
        seed,
        ..TrainConfig::default()
    }
}
const FIXTURE_STEPS: usize = 5;

#[derive(Debug, Clone, PartialEq)]
pub struct Recipe {
    pub title: String,
    pub ingredients: Vec<String>,
    pub instructions: Vec<String>,
}

impl From<GeneratedRecipe> for Recipe {
    fn from(r: GeneratedRecipe) -> Recipe {
        Recipe {
            title: r.title,
            ingredients: r.ingredients,
            instructions: r.instructions,
        }
    }
}

/// Prepared data plus the trained model whose weights serve every
/// workload but `train_medium`.
pub struct Fixture {
    pipeline: Pipeline,
    trained: TrainedModel,
}

impl Fixture {
    pub fn build() -> Fixture {
        let pipeline = prepare();
        let trained = pipeline.train(
            KIND,
            Some(train_config(FIXTURE_STEPS, TrainConfig::default().seed)),
        );
        Fixture { pipeline, trained }
    }

    pub fn train_tokens_per_s(&self) -> f64 {
        self.trained.stats.tokens_per_sec
    }

    /// Output tokens of one recipe, counted by the benchmark with the
    /// fixture tokenizer rather than read from a program counter.
    pub fn count_tokens(&self, r: &Recipe) -> usize {
        let text = format!(
            "{} {} {}",
            r.title,
            r.ingredients.join(" "),
            r.instructions.join(" ")
        );
        self.trained.spec.tokenizer.encode(&text).len()
    }

    /// The replicated-worker server: `workers` solo replicas behind HTTP.
    pub fn boot_pooled(&self, workers: usize) -> Server {
        let server = ApiServer::start(
            "127.0.0.1:0",
            workers,
            POOLED_QUEUE_CAP,
            self.trained.backend_factory(),
        )
        .expect("pooled server boots on a loopback port");
        Server(server)
    }

    /// The continuous-batching server: one replica, shipping defaults.
    pub fn boot_batched(&self) -> Server {
        let server = ApiServer::start_batched(
            "127.0.0.1:0",
            BatchServerConfig::default(),
            self.step_factory(),
        )
        .expect("batched server boots on a loopback port");
        Server(server)
    }

    fn step_factory(&self) -> StepBackendFactory {
        self.trained
            .batched_factory(BatchEngineConfig::default())
            .expect("GPT-2 medium decodes in batches")
    }

    /// The batch engine driven directly, as the batched server's runner
    /// thread drives it.
    pub fn engine(&self) -> Engine {
        let cfg = BatchEngineConfig::default();
        let total_blocks = cfg.num_blocks;
        let backend = BatchModelBackend::from_weights(
            KIND,
            self.trained.spec.tokenizer.as_ref(),
            &weights_map(self.trained.spec.model.as_ref()),
            self.trained.sampler.clone(),
            cfg,
            MAX_TOKENS,
        )
        .expect("GPT-2 medium decodes in batches");
        Engine {
            backend,
            total_blocks,
        }
    }

    /// A fresh replica of the kind the pooled server's workers hold.
    pub fn solo_replica(&self) -> SoloReplica {
        SoloReplica((self.trained.backend_factory())(0))
    }

    /// A fresh replica of the kind the batched server's runner holds.
    pub fn batch_replica(&self) -> BatchReplica {
        BatchReplica((self.step_factory())())
    }
}

/// A running in-process server on a loopback port.
pub struct Server(ApiServer);

impl Server {
    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    pub fn stop(self) {
        self.0.stop();
    }
}

pub struct Engine {
    backend: BatchModelBackend,
    total_blocks: usize,
}

impl Engine {
    /// `None` when the engine refuses (batch full or KV pool exhausted).
    pub fn admit(&mut self, ingredients: &[String], seed: u64) -> Option<u64> {
        match self.backend.admit(ingredients, Some(seed)) {
            AdmitOutcome::Admitted(id) => Some(id),
            AdmitOutcome::BatchFull | AdmitOutcome::PoolExhausted => None,
        }
    }

    /// One token step for every active sequence; the recipes that
    /// finished in it.
    pub fn step(&mut self) -> Vec<(u64, Recipe)> {
        self.backend
            .step()
            .into_iter()
            .map(|(id, r)| (id, r.into()))
            .collect()
    }

    pub fn active(&self) -> usize {
        self.backend.active()
    }

    pub fn free_slots(&self) -> usize {
        self.backend.free_slots()
    }

    /// Share of the KV block pool currently reserved.
    pub fn blocks_reserved_share(&self) -> f64 {
        1.0 - self.backend.free_blocks() as f64 / self.total_blocks as f64
    }
}

pub struct SoloReplica(Box<dyn RecipeBackend>);

impl SoloReplica {
    pub fn generate(&mut self, ingredients: &[String], int8: bool, seed: u64) -> Recipe {
        self.0
            .generate_seeded(ingredients, if int8 { "int8" } else { "f32" }, Some(seed))
            .into()
    }
}

pub struct BatchReplica(Box<dyn StepBackend>);

impl BatchReplica {
    /// Decode one request as a batch of one.
    pub fn generate(&mut self, ingredients: &[String], seed: u64) -> Option<Recipe> {
        let AdmitOutcome::Admitted(id) = self.0.admit(ingredients, Some(seed)) else {
            return None;
        };
        while self.0.active() > 0 {
            if let Some((_, r)) = self.0.step().into_iter().find(|(fid, _)| *fid == id) {
                return Some(r.into());
            }
        }
        None
    }
}

/// `train_medium`: the model and dataset `Pipeline::train` would build,
/// stepped one optimizer step at a time so each step is an operation.
pub struct TrainLoop {
    spec: ModelSpec,
    dataset: Dataset,
}

impl TrainLoop {
    pub fn new(pipeline: &Pipeline) -> TrainLoop {
        let spec = ModelSpec::build(KIND, &pipeline.train_texts);
        let dataset = Dataset::from_documents(
            &pipeline.train_texts,
            spec.tokenizer.as_ref(),
            spec.block_size,
        );
        TrainLoop { spec, dataset }
    }

    /// One AdamW step on a batch drawn from `seed`; returns the loss and
    /// the number of real (unpadded) tokens trained on.
    pub fn step(&self, seed: u64) -> (f32, f64) {
        let stats = Trainer::new(
            self.spec.model.as_ref(),
            &self.dataset,
            train_config(1, seed),
        )
        .train();
        (stats.losses[0], stats.tokens_per_sec * stats.wall_secs)
    }
}

/// How a probe's median call time becomes its metric.
pub enum Scale {
    /// `seconds × factor` (a time per item).
    Time(f64),
    /// `work ÷ seconds` (a rate).
    Rate(f64),
}

/// One timed call into one layer's public functions. `run` returns the
/// time of the measured part only; anything it must rebuild between
/// calls stays outside that time.
pub struct Probe<'a> {
    pub metric: &'static str,
    pub unit: &'static str,
    pub iters: usize,
    pub scale: Scale,
    pub run: Box<dyn FnMut() -> Duration + 'a>,
}

fn timed<R>(f: impl FnOnce() -> R) -> Duration {
    let t = Instant::now();
    black_box(f());
    t.elapsed()
}

/// State the probes borrow: things too costly to rebuild per call.
pub struct ProbeCtx {
    corpus: Corpus,
    quant: Box<dyn InferenceModel>,
    pooled_factory: RecipeBackendFactory,
    step_factory: StepBackendFactory,
    pantries: Vec<Vec<String>>,
    doc_tokens: Vec<u32>,
}

impl ProbeCtx {
    pub fn new(fx: &Fixture) -> ProbeCtx {
        let names = ingredient_names();
        let mut rng = Prng::new(0x70_726f_6265);
        let pantries = (0..64)
            .map(|_| {
                (0..12)
                    .map(|_| names[rng.below(names.len())].to_string())
                    .collect()
            })
            .collect();
        ProbeCtx {
            corpus: Corpus::generate(pipeline_config().corpus),
            quant: fx
                .trained
                .spec
                .model
                .quantized()
                .expect("GPT-2 medium quantizes"),
            pooled_factory: fx.trained.backend_factory(),
            step_factory: fx.step_factory(),
            pantries,
            doc_tokens: fx
                .trained
                .spec
                .tokenizer
                .encode(&fx.pipeline.train_texts[0]),
        }
    }
}

fn sampler_without_stop(fx: &Fixture) -> SamplerConfig {
    SamplerConfig {
        max_tokens: MAX_TOKENS,
        stop_token: None,
        ..fx.trained.sampler.clone()
    }
}

/// A stream prefilled to 128 tokens of context, pushed one token per
/// call and restarted (outside the measured time) every 64 tokens.
fn decode_probe<'a>(
    model: &'a dyn InferenceModel,
    doc: &'a [u32],
) -> Box<dyn FnMut() -> Duration + 'a> {
    let mut stream: Option<Box<dyn TokenStream + 'a>> = None;
    Box::new(move || {
        if stream.as_ref().is_none_or(|s| s.position() >= 192) {
            let mut s = model.start_stream();
            for &t in doc.iter().cycle().take(128) {
                s.push(t);
            }
            stream = Some(s);
        }
        let s = stream.as_mut().expect("stream was just started");
        let token = doc[s.position() % doc.len()];
        timed(|| s.push(token))
    })
}

/// `b` sequences past their prefill, then one engine step per call.
fn batch_step_probe<'a>(
    fx: &'a Fixture,
    ctx: &'a ProbeCtx,
    b: usize,
) -> Box<dyn FnMut() -> Duration + 'a> {
    let bm = fx
        .trained
        .spec
        .model
        .batch_model()
        .expect("GPT-2 medium decodes in batches");
    let mut engine: Option<BatchGenerator> = None;
    Box::new(move || {
        let engine = engine.get_or_insert_with(|| {
            let mut e = BatchGenerator::new(bm, BatchEngineConfig::default());
            for (i, pantry) in ctx.pantries.iter().take(b).enumerate() {
                let prompt = fx.trained.spec.tokenizer.encode(&prompt_for(&pantry[..3]));
                e.admit(BatchRequest {
                    prompt,
                    sampler: sampler_without_stop(fx),
                    seed: i as u64,
                })
                .expect("an empty engine admits");
            }
            for _ in 0..40 {
                e.step(bm).expect("blocks were reserved at admission");
            }
            e
        });
        timed(|| engine.step(bm).expect("blocks were reserved at admission"))
    })
}

/// `BatchGenerator::admit` of a 12-ingredient prompt, either one whose
/// prefix an earlier sequence registered (`hit`) or a fresh one.
fn batch_admit_probe<'a>(
    fx: &'a Fixture,
    ctx: &'a ProbeCtx,
    hit: bool,
) -> Box<dyn FnMut() -> Duration + 'a> {
    let bm: &dyn BatchStepModel = fx
        .trained
        .spec
        .model
        .batch_model()
        .expect("GPT-2 medium decodes in batches");
    let encode = move |pantry: &[String]| fx.trained.spec.tokenizer.encode(&prompt_for(pantry));
    let mut engine: Option<BatchGenerator> = None;
    let mut next = 0usize;
    Box::new(move || {
        if engine.as_ref().is_none_or(|e| !e.has_slot()) {
            let mut e = BatchGenerator::new(bm, BatchEngineConfig::default());
            if hit {
                let prompt = encode(&ctx.pantries[0]);
                let feed = prompt.len() + 1;
                e.admit(BatchRequest {
                    prompt,
                    sampler: sampler_without_stop(fx),
                    seed: 0,
                })
                .expect("an empty engine admits");
                // The prefix registers once the whole prompt has been fed.
                for _ in 0..feed {
                    e.step(bm).expect("blocks were reserved at admission");
                }
            }
            engine = Some(e);
        }
        next += 1;
        let pantry = if hit {
            &ctx.pantries[0]
        } else {
            &ctx.pantries[next % ctx.pantries.len()]
        };
        let req = BatchRequest {
            prompt: encode(pantry),
            sampler: sampler_without_stop(fx),
            seed: next as u64,
        };
        let e = engine.as_mut().expect("engine was just built");
        timed(|| e.admit(req).expect("the engine has a slot"))
    })
}

fn canned_generate_json() -> Json {
    let lines: Vec<String> = (0..12)
        .map(|i| format!("{i} cups of ingredient number {i}"))
        .collect();
    let steps: Vec<String> = (0..8)
        .map(|i| format!("step {i}: mix, stir, season and simmer until done"))
        .collect();
    Json::object(vec![
        ("title", Json::string("a canned recipe for the benchmark")),
        ("ingredients", Json::string_array(&lines)),
        ("instructions", Json::string_array(&steps)),
        ("well_formed", Json::Bool(true)),
        ("model", Json::string(MODEL_NAME)),
        ("dtype", Json::string("f32")),
        ("latency_ms", Json::Number(71.25)),
    ])
}

/// Every layer probe, in report order.
pub fn probes<'a>(fx: &'a Fixture, ctx: &'a ProbeCtx) -> Vec<Probe<'a>> {
    let tok: &dyn Tokenizer = fx.trained.spec.tokenizer.as_ref();
    let model = fx.trained.spec.model.as_ref();
    let texts = &fx.pipeline.train_texts;
    let mut out: Vec<Probe<'a>> = Vec::new();
    let mut add = |metric, unit, iters, scale, run: Box<dyn FnMut() -> Duration + 'a>| {
        out.push(Probe {
            metric,
            unit,
            iters,
            scale,
            run,
        });
    };

    // recipedb
    let corpus_cfg = pipeline_config().corpus;
    add(
        "recipedb.corpus_generate_ms",
        "ms",
        3,
        Scale::Time(1e3),
        Box::new(move || timed(|| Corpus::generate(corpus_cfg.clone()))),
    );
    let pre_cfg = pipeline_config().preprocess;
    add(
        "recipedb.preprocess_ms",
        "ms",
        3,
        Scale::Time(1e3),
        Box::new(move || timed(|| Preprocessor::new(pre_cfg.clone()).run(&ctx.corpus.raw_records))),
    );

    // tokenizers
    add(
        "tokenizers.bpe_train_ms",
        "ms",
        2,
        Scale::Time(1e3),
        Box::new(move || timed(|| BpeTokenizer::train(texts, 384))),
    );
    let corpus_mb = texts.iter().map(String::len).sum::<usize>() as f64 / 1e6;
    add(
        "tokenizers.encode_mb_per_s",
        "MB/s",
        3,
        Scale::Rate(corpus_mb),
        Box::new(move || timed(|| texts.iter().map(|t| tok.encode(t).len()).sum::<usize>())),
    );
    let prompts: Vec<String> = ctx
        .pantries
        .iter()
        .take(16)
        .map(|p| prompt_for(&p[..4]))
        .collect();
    add(
        "tokenizers.encode_us_per_prompt",
        "us",
        20,
        Scale::Time(1e6 / 16.0),
        Box::new(move || timed(|| prompts.iter().map(|p| tok.encode(p).len()).sum::<usize>())),
    );
    add(
        "tokenizers.decode_us_per_recipe",
        "us",
        40,
        Scale::Time(1e6),
        Box::new(move || timed(|| tok.decode(&ctx.doc_tokens))),
    );

    // tensor: the decode and training GEMM shapes of GPT-2 medium
    // (d_model 128, d_ff 512, vocabulary 384 + specials).
    let mut rng = StdRng::seed_from_u64(0x7465_6e73);
    let row = init::randn(&mut rng, &[1, 128], 1.0);
    let rows8 = init::randn(&mut rng, &[8, 128], 1.0);
    let w_up = init::randn(&mut rng, &[128, 512], 0.02);
    let wte = init::randn(&mut rng, &[384, 128], 0.02);
    let w_up_q: QuantizedMatrix = quantize_per_row(&init::randn(&mut rng, &[512, 128], 0.02));
    let x = init::randn(&mut rng, &[1024, 128], 1.0);
    let dy = init::randn(&mut rng, &[1024, 512], 1.0);
    const REPS: usize = 16;
    let repeat = |f: &dyn Fn() -> Tensor| {
        timed(|| {
            (0..REPS).for_each(|_| {
                black_box(f());
            })
        })
    };
    let per_rep_us = || Scale::Time(1e6 / REPS as f64);
    {
        let (row, w_up) = (row.clone(), w_up.clone());
        add(
            "tensor.gemv_f32_us.128x512",
            "us",
            40,
            per_rep_us(),
            Box::new(move || repeat(&|| matmul(&row, &w_up))),
        );
    }
    {
        let row = row.clone();
        add(
            "tensor.lmhead_f32_us.128x384",
            "us",
            40,
            per_rep_us(),
            Box::new(move || repeat(&|| matmul_transb(&row, &wte))),
        );
    }
    {
        // Computed, not measured: bytes of weight, input and output one
        // GEMV must move, over the time it took.
        let gb = REPS as f64 * ((128 * 512 + 128 + 512) * 4) as f64 / 1e9;
        let (row, w_up) = (row.clone(), w_up.clone());
        add(
            "tensor.gemv_f32_gbps",
            "GB/s",
            40,
            Scale::Rate(gb),
            Box::new(move || repeat(&|| matmul(&row, &w_up))),
        );
    }
    {
        let row = row.clone();
        add(
            "tensor.gemv_i8_us.128x512",
            "us",
            40,
            per_rep_us(),
            Box::new(move || repeat(&|| qmatmul_transb(&row, &w_up_q))),
        );
    }
    add(
        "tensor.quantize_ms.medium",
        "ms",
        3,
        Scale::Time(1e3),
        Box::new(move || timed(|| model.quantized())),
    );
    {
        let w_up = w_up.clone();
        add(
            "tensor.gemm_b8_us.128x512",
            "us",
            40,
            per_rep_us(),
            Box::new(move || repeat(&|| matmul(&rows8, &w_up))),
        );
    }
    let gflop = 2.0 * 1024.0 * 128.0 * 512.0 / 1e9;
    {
        let x = x.clone();
        add(
            "tensor.gemm_train_gflops.1024x128x512",
            "GFLOP/s",
            8,
            Scale::Rate(gflop),
            Box::new(move || timed(|| matmul(&x, &w_up))),
        );
    }
    add(
        "tensor.gemm_transa_gflops.1024x128x512",
        "GFLOP/s",
        8,
        Scale::Rate(gflop),
        Box::new(move || timed(|| matmul_transa(&x, &dy))),
    );
    add(
        "tensor.pool_launch_us",
        "us",
        40,
        per_rep_us(),
        Box::new(|| {
            timed(|| {
                (0..REPS).for_each(|_| {
                    par::run_tasks(par::num_threads(), |i| {
                        black_box(i);
                    })
                })
            })
        }),
    );

    // models
    for (metric, n) in [("models.prefill_ms.p16", 16), ("models.prefill_ms.p64", 64)] {
        add(
            metric,
            "ms",
            6,
            Scale::Time(1e3),
            Box::new(move || {
                timed(|| {
                    let mut s = model.start_stream();
                    ctx.doc_tokens.iter().cycle().take(n).for_each(|&t| {
                        black_box(s.push(t));
                    });
                })
            }),
        );
    }
    add(
        "models.decode_token_us.f32",
        "us",
        48,
        Scale::Time(1e6),
        decode_probe(model, &ctx.doc_tokens),
    );
    add(
        "models.decode_token_us.int8",
        "us",
        48,
        Scale::Time(1e6),
        decode_probe(ctx.quant.as_ref(), &ctx.doc_tokens),
    );
    add(
        "models.batch_step_us.b1",
        "us",
        60,
        Scale::Time(1e6),
        batch_step_probe(fx, ctx, 1),
    );
    add(
        "models.batch_step_us.b4",
        "us",
        60,
        Scale::Time(1e6),
        batch_step_probe(fx, ctx, 4),
    );
    add(
        "models.batch_step_us.b8",
        "us",
        60,
        Scale::Time(1e6),
        batch_step_probe(fx, ctx, 8),
    );
    add(
        "models.batch_admit_us.hit",
        "us",
        14,
        Scale::Time(1e6),
        batch_admit_probe(fx, ctx, true),
    );
    add(
        "models.batch_admit_us.miss",
        "us",
        14,
        Scale::Time(1e6),
        batch_admit_probe(fx, ctx, false),
    );

    // serving, on canned bytes with no socket
    let body = canned_generate_json().to_string();
    let wire = format!(
        "POST /api/generate?dtype=int8 HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    add(
        "serving.http_parse_us",
        "us",
        40,
        per_rep_us(),
        Box::new(move || {
            timed(|| {
                (0..REPS).for_each(|_| {
                    black_box(parse_request(&mut Cursor::new(wire.as_bytes())).is_ok());
                })
            })
        }),
    );
    {
        let body = body.clone();
        add(
            "serving.json_parse_us",
            "us",
            40,
            per_rep_us(),
            Box::new(move || {
                timed(|| {
                    (0..REPS).for_each(|_| {
                        black_box(Json::parse(&body).is_ok());
                    })
                })
            }),
        );
    }
    add(
        "serving.json_render_us",
        "us",
        40,
        per_rep_us(),
        Box::new(|| {
            timed(|| {
                (0..REPS).for_each(|_| {
                    black_box(canned_generate_json().to_string());
                })
            })
        }),
    );
    let mut router = Router::new().route_prefix("GET", "/debug/requests/", |_| {
        Response::text(StatusCode::Ok, "detail")
    });
    for path in [
        "/",
        "/api/health",
        "/api/models",
        "/api/stats",
        "/healthz",
        "/metrics",
    ] {
        router = router.route("GET", path, |_| Response::text(StatusCode::Ok, "ok"));
    }
    let request = Request {
        method: "GET".into(),
        path: "/healthz".into(),
        query: String::new(),
        headers: vec![("host".into(), "127.0.0.1".into())],
        body: Vec::new(),
        trace: None,
    };
    add(
        "serving.router_dispatch_us",
        "us",
        40,
        per_rep_us(),
        Box::new(move || {
            timed(|| {
                (0..REPS).for_each(|_| {
                    black_box(router.dispatch(&request));
                })
            })
        }),
    );

    // ratatouille
    add(
        "ratatouille.backend_build_ms.pooled",
        "ms",
        3,
        Scale::Time(1e3),
        Box::new(move || timed(|| (ctx.pooled_factory)(0))),
    );
    add(
        "ratatouille.backend_build_ms.batched",
        "ms",
        3,
        Scale::Time(1e3),
        Box::new(move || timed(|| (ctx.step_factory)())),
    );
    for (metric, dtype) in [
        ("ratatouille.generate_solo_ms.f32", "f32"),
        ("ratatouille.generate_solo_ms.int8", "int8"),
    ] {
        let mut replica = (ctx.pooled_factory)(0);
        let mut next = 0u64;
        add(
            metric,
            "ms",
            4,
            Scale::Time(1e3),
            Box::new(move || {
                next += 1;
                let pantry = &ctx.pantries[next as usize][..4];
                timed(|| replica.generate_seeded(pantry, dtype, Some(next)))
            }),
        );
    }
    {
        let mut engine: Option<Engine> = None;
        let mut next = 0usize;
        add(
            "ratatouille.admit_us",
            "us",
            16,
            Scale::Time(1e6),
            Box::new(move || {
                if engine.as_ref().is_none_or(|e| e.free_slots() == 0) {
                    engine = Some(fx.engine());
                }
                next += 1;
                let pantry = &ctx.pantries[next % ctx.pantries.len()][..4];
                let e = engine.as_mut().expect("engine was just built");
                timed(|| e.admit(pantry, next as u64))
            }),
        );
    }

    // eval
    add(
        "eval.validate_us_per_recipe",
        "us",
        40,
        Scale::Time(1e6),
        Box::new(move || timed(|| validate_tagged_recipe(&texts[0]))),
    );

    // obs
    add(
        "obs.render_prometheus_us",
        "us",
        20,
        Scale::Time(1e6),
        Box::new(|| timed(obs::metrics::render_prometheus)),
    );
    let histogram = obs::metrics::histogram("loadbench_probe_ns");
    add(
        "obs.histogram_observe_ns",
        "ns",
        20,
        Scale::Time(1e9 / 1000.0),
        Box::new(move || timed(|| (0..1000u64).for_each(|v| histogram.observe(v * 37)))),
    );
    add(
        "obs.reqtrace_record_ns",
        "ns",
        20,
        Scale::Time(1e9 / 500.0),
        Box::new(|| {
            let trace = obs::reqtrace::begin();
            timed(|| (0..500u32).for_each(|i| trace.record(obs::reqtrace::Phase::DecodeStep, i, 1)))
        }),
    );
    out
}

/// What a `step()` that returns a finished recipe costs beyond one that
/// does not (decode of the token ids, validation, prompt bookkeeping), in
/// µs: the median, over a short run at batch 8, of each retiring step's
/// time minus that of the step just before it, which fed the same
/// sequences at all but the same context lengths.
pub fn retire_step_extra_us(fx: &Fixture, ctx: &ProbeCtx) -> f64 {
    let mut engine = fx.engine();
    let mut next = 0usize;
    let mut steps: Vec<(f64, bool)> = Vec::new();
    for _ in 0..600 {
        while engine.free_slots() > 0 {
            next += 1;
            let pantry = &ctx.pantries[next % ctx.pantries.len()][..4];
            engine
                .admit(pantry, next as u64)
                .expect("a free slot admits");
        }
        let t = Instant::now();
        let retired = !engine.step().is_empty();
        steps.push((t.elapsed().as_secs_f64() * 1e6, retired));
    }
    let extra: Vec<f64> = steps
        .windows(2)
        .filter(|w| w[1].1 && !w[0].1)
        .map(|w| w[1].0 - w[0].0)
        .collect();
    crate::stats::median(extra)
}
