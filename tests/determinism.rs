//! Golden determinism tests: the whole stack is a pure function of its
//! seeds.
//!
//! Reproducibility is the determinism layer's contract — every random
//! draw in the workspace flows through `ratatouille_util::rng::StdRng`
//! (xoshiro256** seeded via SplitMix64), so identical seeds must yield
//! byte-identical corpora, samples, training runs and checkpoints.
//! The frozen-literal tests also protect against the generator being
//! swapped or reseeded accidentally: they fail on any change to the
//! underlying bit stream, not just on intra-process nondeterminism.

use ratatouille::models::registry::ModelKind;
use ratatouille::models::train::TrainConfig;
use ratatouille::recipedb::corpus::{Corpus, CorpusConfig};
use ratatouille::tensor::serialize::TensorMap;
use ratatouille::tensor::{init, Tensor};
use ratatouille::{Pipeline, PipelineConfig};
use ratatouille_util::rng::{Rng, SeedableRng, StdRng};

fn tiny_corpus_config() -> CorpusConfig {
    CorpusConfig {
        num_recipes: 60,
        ..CorpusConfig::default()
    }
}

fn tiny_pipeline_config() -> PipelineConfig {
    let mut cfg = PipelineConfig::small();
    cfg.corpus.num_recipes = 80;
    cfg
}

fn tiny_train() -> TrainConfig {
    TrainConfig {
        steps: 3,
        batch_size: 2,
        ..Default::default()
    }
}

/// FNV-1a over a byte stream — a stable fingerprint for golden values.
fn fingerprint(parts: impl IntoIterator<Item = impl AsRef<[u8]>>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in part.as_ref() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The PRNG bit stream is frozen: seed 0 must produce these exact words
/// forever. Any change to the generator, its seeding, or its parameters
/// is a breaking change to every golden value in the repo.
#[test]
fn rng_golden_stream_is_frozen() {
    let mut rng = StdRng::seed_from_u64(0);
    let words: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
    assert_eq!(
        words,
        [
            11091344671253066420,
            13793997310169335082,
            1900383378846508768,
            7684712102626143532,
        ]
    );
}

/// Corpus generation is a pure function of its config.
#[test]
fn corpus_generation_twice_is_byte_identical() {
    let a = Corpus::generate(tiny_corpus_config());
    let b = Corpus::generate(tiny_corpus_config());
    let a_texts: Vec<String> = a.recipes.iter().map(|r| r.to_tagged_string()).collect();
    let b_texts: Vec<String> = b.recipes.iter().map(|r| r.to_tagged_string()).collect();
    assert_eq!(a_texts, b_texts);
    let raw = |c: &Corpus| -> Vec<String> { c.raw_records.iter().map(|r| r.text.clone()).collect() };
    assert_eq!(raw(&a), raw(&b));
}

/// Different corpus seeds must diverge (the seed is actually used).
#[test]
fn corpus_seed_changes_output() {
    let a = Corpus::generate(tiny_corpus_config());
    let b = Corpus::generate(CorpusConfig {
        seed: 43,
        ..tiny_corpus_config()
    });
    let a_texts: Vec<String> = a.recipes.iter().map(|r| r.to_tagged_string()).collect();
    let b_texts: Vec<String> = b.recipes.iter().map(|r| r.to_tagged_string()).collect();
    assert_ne!(a_texts, b_texts);
}

/// Fixed-seed sampling through a trained model is byte-identical across
/// repeated draws AND across independently prepared+trained pipelines.
#[test]
fn fixed_seed_sampling_is_byte_identical() {
    let ingredients: Vec<String> = vec!["flour".into(), "water".into()];

    let first = {
        let pipeline = Pipeline::prepare(tiny_pipeline_config());
        let trained = pipeline.train(ModelKind::WordLstm, Some(tiny_train()));
        (
            trained.generate_tagged(&ingredients, 7),
            trained.generate_tagged(&ingredients, 7),
            trained.generate_tagged(&ingredients, 8),
        )
    };
    // same seed, same trained model → identical bytes
    assert_eq!(first.0, first.1);
    // a different sampling seed must be able to diverge — compare whole
    // tagged outputs (they could theoretically coincide, but with a
    // 3-token prompt and dozens of sampled tokens, they don't for these
    // fixed seeds; if this ever fails the sampler is ignoring its rng)
    assert_ne!(first.0, first.2, "sampling seed is ignored");

    // an entirely separate process-independent rebuild reproduces it
    let second = {
        let pipeline = Pipeline::prepare(tiny_pipeline_config());
        let trained = pipeline.train(ModelKind::WordLstm, Some(tiny_train()));
        trained.generate_tagged(&ingredients, 7)
    };
    assert_eq!(first.0, second);
}

/// Training is deterministic end to end: two independent runs produce
/// byte-identical loss curves.
#[test]
fn training_twice_gives_identical_losses() {
    let run = || {
        let pipeline = Pipeline::prepare(tiny_pipeline_config());
        let trained = pipeline.train(ModelKind::CharLstm, Some(tiny_train()));
        trained.stats.losses.clone()
    };
    let (a, b) = (run(), run());
    assert!(!a.is_empty());
    assert_eq!(
        a.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        b.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        "losses differ bitwise: {a:?} vs {b:?}"
    );
}

/// Checkpoint serialization of identically seeded weights is
/// byte-identical (serialization itself adds no nondeterminism).
#[test]
fn seeded_checkpoint_bytes_are_identical() {
    let build = || {
        let mut rng = StdRng::seed_from_u64(99);
        let mut map = TensorMap::new();
        map.insert("embed", init::randn(&mut rng, &[16, 8], 0.2));
        map.insert("w_out", init::xavier_uniform(&mut rng, 8, 16));
        map.insert("bias", Tensor::zeros(&[16]));
        map.to_bytes()
    };
    let (a, b) = (build(), build());
    assert_eq!(a, b, "checkpoint bytes differ");
}

/// Golden fingerprint for the batched decode path: three greedy
/// sequences decoded *together* through the continuous-batching engine
/// hash to a frozen value — and each matches its solo decode bitwise.
/// This pins the whole batched chain (seeded init, blocked KV cache,
/// batched GEMMs, greedy argmax) in one number; any accumulation
/// reordering, KV layout change or scheduling drift breaks it.
#[test]
fn batched_decode_golden_fingerprint_is_frozen() {
    use ratatouille::models::batch::{BatchEngineConfig, BatchGenerator, BatchRequest};
    use ratatouille::models::gpt2::{Gpt2Config, Gpt2Lm};
    use ratatouille::models::lm::InferenceModel;
    use ratatouille::models::sample::SamplerConfig;

    let model = Gpt2Lm::new(Gpt2Config {
        name: "golden-batch".into(),
        vocab: 32,
        d_model: 16,
        n_heads: 2,
        n_layers: 2,
        d_ff: 32,
        max_t: 64,
        local_window: None,
        dropout: 0.0,
        seed: 1234,
    });
    let bm = model.batch_model().expect("16/32 widths are batch-ready");
    let cfg = SamplerConfig {
        max_tokens: 12,
        greedy: true, // no sampling ties → the stream is pure kernel output
        stop_token: None,
        ..SamplerConfig::default()
    };
    let prompts: [&[u32]; 3] = [&[3, 17, 9, 28, 1], &[11, 11, 4], &[25, 2, 30, 6]];

    let decode_together = || -> Vec<Vec<u32>> {
        let mut engine = BatchGenerator::new(
            bm,
            BatchEngineConfig {
                block_tokens: 4,
                num_blocks: 64,
                max_batch: 4,
                prefix_cap: 4,
            },
        );
        let ids: Vec<u64> = prompts
            .iter()
            .map(|p| {
                engine
                    .admit(BatchRequest {
                        prompt: p.to_vec(),
                        sampler: cfg.clone(),
                        seed: 0,
                    })
                    .expect("pool covers three tiny requests")
            })
            .collect();
        let mut out: Vec<Vec<u32>> = vec![Vec::new(); ids.len()];
        let mut done = 0;
        while done < ids.len() {
            for f in engine.step(bm).expect("reserved up front").finished {
                let slot = ids.iter().position(|&id| id == f.id).unwrap();
                out[slot] = f.tokens;
                done += 1;
            }
        }
        out
    };

    let batched = decode_together();
    // Batch composition must not matter: each stream equals its solo run.
    for (p, stream) in prompts.iter().zip(&batched) {
        let mut engine = BatchGenerator::new(bm, BatchEngineConfig::default());
        let id = engine
            .admit(BatchRequest {
                prompt: p.to_vec(),
                sampler: cfg.clone(),
                seed: 0,
            })
            .unwrap();
        let alone = engine.run_to_completion(bm, id).unwrap();
        assert_eq!(&alone, stream, "solo decode diverged from the batch");
    }

    let fp = fingerprint(
        batched
            .iter()
            .map(|s| s.iter().flat_map(|t| t.to_le_bytes()).collect::<Vec<u8>>()),
    );
    assert_eq!(
        fp, 0xe948_9989_2b3e_208f,
        "batched decode fingerprint changed: {fp:#x} — if intentional, refreeze"
    );
}

/// Golden fingerprint for the int8 solo decode path: a tiny seeded
/// GPT-2, quantized, decoded greedily for 24 tokens. Every parameter is
/// perturbed by up to ±0.5: that gives nonzero biases and layer-norm
/// offsets (an untrained model's are all zero/one, which hides
/// bias-ordering drift) and weights large enough that the greedy stream
/// follows its context instead of repeating one token. Frozen at the
/// commit before the decode paths were unified; thread count must not
/// matter.
#[test]
fn int8_solo_decode_golden_fingerprint_is_frozen() {
    use ratatouille::models::lm::LanguageModel;
    use ratatouille::models::sample::{generate, DecodeSeries, SamplerConfig};
    use ratatouille::tensor::par;
    use obs::reqtrace::TraceMeta;

    let model = solo_golden_model("golden-int8", 64, None);
    let int8 = model.quantized().expect("gpt2 offers int8");
    let cfg = SamplerConfig {
        max_tokens: 24,
        greedy: true,
        stop_token: None,
        ..SamplerConfig::default()
    };
    for threads in [1, 3] {
        par::set_num_threads(threads);
        let (meta, series) = (TraceMeta::default(), DecodeSeries::resolve(&*int8));
        let mut rng = StdRng::seed_from_u64(0);
        let tokens = generate(&*int8, &[3, 17, 9, 28, 1], &cfg, &mut rng, &meta, &series);
        par::set_num_threads(0);
        assert_eq!(tokens.len(), 24);
        let fp = fingerprint(tokens.iter().map(|t| t.to_le_bytes()));
        assert_eq!(
            fp, 0x4f4f_f83d_95a4_2999,
            "int8 solo decode fingerprint changed at {threads} threads: {fp:#x} ({tokens:?})"
        );
    }
}

/// The model and request of the three solo-stream goldens below: the
/// 16/32 golden shape with every parameter perturbed by up to ±0.5 (see
/// [`int8_solo_decode_golden_fingerprint_is_frozen`] for why), a 5-token
/// prompt and 40 sampled tokens, so the stream's context ends at 45.
fn solo_golden_model(name: &str, max_t: usize, local_window: Option<usize>) -> ratatouille::models::gpt2::Gpt2Lm {
    use ratatouille::models::gpt2::{Gpt2Config, Gpt2Lm};
    use ratatouille::models::lm::LanguageModel;
    use ratatouille_util::rng::RngExt;

    let model = Gpt2Lm::new(Gpt2Config {
        name: name.into(),
        vocab: 32,
        d_model: 16,
        n_heads: 2,
        n_layers: 2,
        d_ff: 32,
        max_t,
        local_window,
        dropout: 0.0,
        seed: 1234,
    });
    let mut rng = StdRng::seed_from_u64(4321);
    for (_, p) in model.named_parameters() {
        let v = p.value();
        let data = v.data().iter().map(|&x| x + rng.random::<f32>() - 0.5).collect();
        p.set_value(Tensor::from_vec(data, v.dims()).unwrap());
    }
    model
}

const SOLO_GOLDEN_PROMPT: [u32; 5] = [3, 17, 9, 28, 1];
const SOLO_GOLDEN_SEED: u64 = 77;

fn solo_golden_sampler() -> ratatouille::models::sample::SamplerConfig {
    ratatouille::models::sample::SamplerConfig {
        max_tokens: 40,
        temperature: 0.9,
        top_k: 0,
        top_p: 1.0,
        stop_token: None,
        greedy: false,
    }
}

/// Decode the golden request through `model`'s solo stream at 1 and 3
/// tensor threads and return the (thread-invariant) token stream.
fn solo_golden_tokens(model: &dyn ratatouille::models::lm::InferenceModel) -> Vec<u32> {
    use ratatouille::models::sample::{generate, DecodeSeries};
    use ratatouille::tensor::par;
    use obs::reqtrace::TraceMeta;

    let run = |threads: usize| {
        par::set_num_threads(threads);
        let mut rng = StdRng::seed_from_u64(SOLO_GOLDEN_SEED);
        let (meta, series) = (TraceMeta::default(), DecodeSeries::resolve(model));
        let cfg = solo_golden_sampler();
        let tokens = generate(model, &SOLO_GOLDEN_PROMPT, &cfg, &mut rng, &meta, &series);
        par::set_num_threads(0);
        tokens
    };
    let tokens = run(1);
    assert_eq!(tokens.len(), 40);
    assert_eq!(run(3), tokens, "{}: thread count changed the stream", model.name());
    tokens
}

fn token_fingerprint(tokens: &[u32]) -> u64 {
    fingerprint(tokens.iter().map(|t| t.to_le_bytes()))
}

/// Golden fingerprint for an f32 solo *sampled* stream that decodes
/// past `max_t` — the serving budget's everyday case (prompt + 260
/// tokens against `max_t = 256`): 45 positions against 16 learned ones,
/// so the KV store grows twice mid-recipe and positions clamp to the
/// last learned slot. Frozen at the commit before the KV stores were
/// unified.
#[test]
fn f32_solo_decode_past_max_t_golden_fingerprint_is_frozen() {
    let model = solo_golden_model("golden-f32-long", 16, None);
    let tokens = solo_golden_tokens(&model);
    let fp = token_fingerprint(&tokens);
    assert_eq!(
        fp, 0x16ae_534e_3ec1_339a,
        "f32 solo decode past max_t changed: {fp:#x} ({tokens:?})"
    );
}

/// The same stream through the int8 weight set (f16 K/V rows).
#[test]
fn int8_solo_decode_past_max_t_golden_fingerprint_is_frozen() {
    use ratatouille::models::lm::LanguageModel;

    let int8 = solo_golden_model("golden-int8-long", 16, None).quantized().expect("gpt2 offers int8");
    let tokens = solo_golden_tokens(&*int8);
    let fp = token_fingerprint(&tokens);
    assert_eq!(
        fp, 0x5043_914e_c8b3_d771,
        "int8 solo decode past max_t changed: {fp:#x} ({tokens:?})"
    );
}

/// Golden fingerprint for a GPT-Neo (`local_window`) solo stream whose
/// context (45) exceeds the window (8): the odd layer reads only the
/// trailing window for most of the recipe.
#[test]
fn windowed_solo_decode_golden_fingerprint_is_frozen() {
    let model = solo_golden_model("golden-neo", 64, Some(8));
    let tokens = solo_golden_tokens(&model);
    let fp = token_fingerprint(&tokens);
    assert_eq!(
        fp, 0x7aee_d84d_30ab_ee25,
        "windowed solo decode changed: {fp:#x} ({tokens:?})"
    );
}

/// Windowed configs batch: the golden request above decodes to the same
/// stream through the continuous-batching engine (16-token blocks, so
/// the local layer's window starts mid-block) as through the solo stream
/// (one block).
#[test]
fn windowed_golden_request_decodes_the_same_through_the_batch_engine() {
    use ratatouille::models::batch::{BatchEngineConfig, BatchGenerator, BatchRequest};
    use ratatouille::models::lm::InferenceModel;

    let model = solo_golden_model("golden-neo", 64, Some(8));
    let bm = model.batch_model().expect("a windowed config with 16/32 widths is batch-ready");
    let mut engine = BatchGenerator::new(bm, BatchEngineConfig::default());
    let id = engine
        .admit(BatchRequest {
            prompt: SOLO_GOLDEN_PROMPT.to_vec(),
            sampler: solo_golden_sampler(),
            seed: SOLO_GOLDEN_SEED,
        })
        .expect("the default pool covers one tiny request");
    let batched = engine.run_to_completion(bm, id).expect("reserved at admission");
    assert_eq!(batched, solo_golden_tokens(&model));
}

/// Golden fingerprint for GPT-2 training: two AdamW steps (dropout 0.1,
/// so the mask stream is pinned too; gradient clipping on) of a 2-layer,
/// d = 64, d_ff = 256 model over one 8 × 128-token batch with a padded
/// tail. The loss bits of both steps and every parameter's bits after
/// them hash to a frozen value at 1, 2 and 3 tensor threads. The shape
/// is wide enough that the pool really launches — the attention scores
/// alone are 8 · 2 · 128² elements — so this pins the parallel kernels
/// of the training step, not only their inline path.
#[test]
fn gpt2_training_golden_fingerprint_is_frozen() {
    assert_training_golden(None, 0x9cf9_59fa_a3f3_18c3);
}

/// The same two steps with GPT-Neo's attention (`neo_small`'s shape:
/// the odd layer attends over a trailing window, here 48 of 128
/// positions), so the window mask's path through the attention products
/// and their gradients is pinned too.
#[test]
fn windowed_training_golden_fingerprint_is_frozen() {
    assert_training_golden(Some(48), 0x4697_240f_f980_2b0d);
}

fn assert_training_golden(local_window: Option<usize>, golden: u64) {
    use ratatouille::models::gpt2::{Gpt2Config, Gpt2Lm};
    use ratatouille::models::lm::{Batch, LanguageModel};
    use ratatouille::tensor::optim::{clip_grad_norm, zero_grads, Adam};
    use ratatouille::tensor::par;
    use ratatouille_util::rng::RngExt;

    const VOCAB: u32 = 64;
    let (rows, t) = (8, 128);
    let mut rng = StdRng::seed_from_u64(2025);
    let mut batch = Batch { inputs: Vec::new(), targets: Vec::new(), pad_id: 0 };
    for r in 0..rows {
        let seq: Vec<u32> = (0..=t).map(|_| 1 + rng.random_range(0..VOCAB - 1)).collect();
        let mut targets = seq[1..].to_vec();
        if r == rows - 1 {
            targets[t - 20..].fill(0);
        }
        batch.inputs.push(seq[..t].to_vec());
        batch.targets.push(targets);
    }

    let train = |threads: usize| -> u64 {
        par::set_num_threads(threads);
        let model = Gpt2Lm::new(Gpt2Config {
            name: "golden-train".into(),
            vocab: VOCAB as usize,
            d_model: 64,
            n_heads: 2,
            n_layers: 2,
            d_ff: 256,
            max_t: t,
            local_window,
            dropout: 0.1,
            seed: 31,
        });
        let params = model.parameters();
        let mut opt = Adam::adamw(2e-3, 0.01);
        let mut drop_rng = StdRng::seed_from_u64(5);
        let mut bits = Vec::new();
        for _ in 0..2 {
            zero_grads(&params);
            let loss = model.forward_loss(&batch, true, &mut drop_rng);
            bits.extend(loss.value().item().to_bits().to_le_bytes());
            loss.backward();
            clip_grad_norm(&params, 1.0);
            opt.step(&params);
        }
        par::set_num_threads(0);
        for p in &params {
            bits.extend(p.value().data().iter().flat_map(|v| v.to_bits().to_le_bytes()));
        }
        fingerprint([bits])
    };

    let launches = obs::metrics::counter("tensor_pool_launches_total");
    let before = launches.get();
    for threads in [1, 2, 3] {
        let fp = train(threads);
        assert_eq!(
            fp, golden,
            "GPT-2 training fingerprint (window {local_window:?}) changed at {threads} threads: {fp:#x}"
        );
    }
    assert!(launches.get() > before, "the golden shape never launched the pool");
}

/// Golden corpus fingerprint: the seed-42, 60-recipe corpus hashes to a
/// frozen value. This pins the full chain — PRNG bit stream, grammar
/// sampling order, defect injection — in one number.
#[test]
fn corpus_golden_fingerprint_is_frozen() {
    let corpus = Corpus::generate(tiny_corpus_config());
    let fp = fingerprint(corpus.recipes.iter().map(|r| r.to_tagged_string()));
    assert_eq!(
        fp, 0x3751_b0ef_7398_66ff,
        "corpus fingerprint changed: {fp:#x} — if intentional, refreeze"
    );
}

/// The model tiers of the two pipeline goldens below: a transformer row
/// and an LSTM row, each trained on the tiny pipeline long enough to
/// emit some structure.
const PIPELINE_GOLDEN_KINDS: [ModelKind; 2] = [ModelKind::DistilGpt2, ModelKind::WordLstm];

fn pipeline_golden_train() -> TrainConfig {
    TrainConfig {
        steps: 40,
        batch_size: 4,
        ..Default::default()
    }
}

fn pipeline_golden_pantry() -> Vec<String> {
    vec!["flour".into(), "water".into(), "salt".into()]
}

/// Golden fingerprint for the train → generate → evaluate path of a
/// tiny pipeline: the `generate_tagged` bytes for a fixed pantry and
/// seed, and the bits of the Table-I report's BLEU, ROUGE-L,
/// structure-valid rate, quantity coverage and perplexity over three
/// held-out recipes. Generation latency is a wall-clock value and is
/// left out.
#[test]
fn pipeline_evaluation_golden_fingerprint_is_frozen() {
    let pipeline = Pipeline::prepare(tiny_pipeline_config());
    let goldens = [0xa76a_032e_2051_40b3u64, 0x4ab4_1759_eec7_562e];
    for (kind, golden) in PIPELINE_GOLDEN_KINDS.into_iter().zip(goldens) {
        let trained = pipeline.train(kind, Some(pipeline_golden_train()));
        let tagged = trained.generate_tagged(&pipeline_golden_pantry(), 5);
        let report = trained.evaluate(&pipeline.test_recipes, 3, 0, ratatouille::tensor::DType::F32);
        let metrics = [
            report.bleu,
            report.rouge_l,
            report.structure_valid_rate,
            report.quantity_coverage,
            report.perplexity,
        ];
        let fp = fingerprint(
            std::iter::once(tagged.into_bytes())
                .chain(metrics.iter().map(|m| m.to_bits().to_le_bytes().to_vec())),
        );
        assert_eq!(
            fp, golden,
            "{kind:?} pipeline golden changed: {fp:#x} (metrics {metrics:?})"
        );
    }
}

/// Offline generation and the served replica decode the same recipe for
/// a pinned seed: `generate_recipe` equals `generate_seeded(.., "f32",
/// Some(seed))` on a replica built from the trained weights.
#[test]
fn offline_generation_equals_served_generation() {
    let pipeline = Pipeline::prepare(tiny_pipeline_config());
    let pantry = pipeline_golden_pantry();
    for kind in PIPELINE_GOLDEN_KINDS {
        let trained = pipeline.train(kind, Some(pipeline_golden_train()));
        let mut replica = trained.backend_factory()(0);
        for seed in 0..4 {
            assert_eq!(
                trained.generate_recipe(&pantry, seed),
                replica.generate_seeded(&pantry, "f32", Some(seed)),
                "{kind:?} seed {seed}: offline and served f32 decode differ"
            );
        }
    }
}

/// Golden fingerprint of the three tokenizers on the small pipeline: the
/// BPE vocabulary in id order (384 merges, as the registry trains it),
/// then the BPE, char and word ids of every training text and of a few
/// prompts — a plain pantry, multi-byte UTF-8, a fraction, a tag glued to
/// a word and a `<` that starts no tag. The three share the tag splitter,
/// so this pins the splitter, BPE training and BPE encoding in one number.
#[test]
fn tokenizer_golden_fingerprint_is_frozen() {
    use ratatouille::pipeline::prompt_for;
    use ratatouille::tokenizers::{BpeTokenizer, CharTokenizer, Tokenizer, WordTokenizer};

    let pipeline = Pipeline::prepare(PipelineConfig::small());
    let texts = &pipeline.train_texts;
    let pantries: [&[&str]; 4] = [
        &["chicken", "garlic", "rice"],
        &["Crème Fraîche", "jalapeño", "漢字"],
        &["1/2 cup flour", "water  salt"],
        &["salt<NEXT_INPUT>pepper", "a < b", "<INGR"],
    ];
    let prompts: Vec<String> = pantries
        .iter()
        .map(|p| prompt_for(&p.iter().map(|s| s.to_string()).collect::<Vec<_>>()))
        .collect();

    let bpe = BpeTokenizer::train(texts, 384);
    let toks: [Box<dyn Tokenizer>; 3] = [
        Box::new(bpe.clone()),
        Box::new(CharTokenizer::train(texts)),
        Box::new(WordTokenizer::train(texts, 2)),
    ];
    let mut parts: Vec<Vec<u8>> = (0..bpe.vocab_size() as u32)
        .map(|id| bpe.decode(&[id]).into_bytes())
        .collect();
    for tok in &toks {
        parts.push((tok.vocab_size() as u64).to_le_bytes().to_vec());
        for text in texts.iter().chain(&prompts) {
            parts.push(tok.encode(text).iter().flat_map(|id| id.to_le_bytes()).collect());
        }
    }
    let fp = fingerprint(parts);
    assert_eq!(
        fp, 0xddd9_580b_f18b_3cb0,
        "tokenizer fingerprint changed: {fp:#x} — the vocabulary or the ids moved"
    );
}
