//! Training keeps its working set mapped, and gives it back at the
//! hand-off (`tensor::recycle`).
//!
//! Page faults, resident memory and the recycler's counters are all
//! process-wide, so this binary holds one test, whose three checks run
//! in a fixed order: no other test's allocations or faults mix in.
//! Linux only: the counters come from procfs.
#![cfg(target_os = "linux")]

use ratatouille::models::batch::{BatchEngineConfig, BatchGenerator, BatchRequest};
use ratatouille::models::data::Dataset;
use ratatouille::models::gpt2::{Gpt2Config, Gpt2Lm};
use ratatouille::models::lm::InferenceModel;
use ratatouille::models::registry::{ModelKind, ModelSpec};
use ratatouille::models::sample::{generate, DecodeSeries, SamplerConfig};
use ratatouille::models::train::{TrainConfig, Trainer};
use ratatouille::{Pipeline, PipelineConfig};
use ratatouille_tensor::recycle;
use ratatouille_util::rng::{SeedableRng, StdRng};

/// Minor page faults of the whole process so far (`/proc/self/stat`
/// field 10).
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
    // Fields after the parenthesised command name start at field 3.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    rest.split_whitespace().nth(10 - 3).and_then(|f| f.parse().ok()).expect("minflt field")
}

/// Resident memory now, in KiB (`/proc/self/status`'s `VmRSS`).
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).expect("VmRSS line");
    line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("VmRSS value")
}

/// loadbench's training shape: GPT-2 medium, batch 4 × 256 tokens.
fn one_step(seed: u64) -> TrainConfig {
    TrainConfig {
        steps: 1,
        batch_size: 4,
        lr: 2e-3,
        warmup: 0,
        seed,
        ..TrainConfig::default()
    }
}

fn pipeline() -> Pipeline {
    Pipeline::prepare(PipelineConfig::small())
}

#[test]
fn training_keeps_its_pages_until_the_hand_off_and_decode_never_touches_them() {
    let pipeline = pipeline();
    // First, as in every program that trains through `Pipeline::train`:
    // bare runs that leave the cache warm first shape this thread's heap,
    // and what `release` frees can then stay in the allocator.
    pipeline_train_releases_the_cache_before_it_hands_the_model_over(&pipeline);
    a_second_training_run_reuses_the_first_runs_pages(&pipeline);
    serving_decode_never_reaches_the_cache();
}

fn a_second_training_run_reuses_the_first_runs_pages(pipeline: &Pipeline) {
    let spec = ModelSpec::build(ModelKind::Gpt2Medium, &pipeline.train_texts);
    let dataset = Dataset::from_documents(&pipeline.train_texts, spec.tokenizer.as_ref(), spec.block_size);
    recycle::release();
    let run = |seed| {
        let before = minor_faults();
        Trainer::new(spec.model.as_ref(), &dataset, one_step(seed)).train();
        minor_faults() - before
    };
    let first = run(1);
    let warm = recycle::stats().cached_bytes;
    let second = run(2);
    eprintln!("faults: first run {first}, second run {second}; cache after the first {warm} B");
    assert!(warm > 16 << 20, "a run leaves its step buffers cached, got {warm} B");
    // What the second run still faults (13 % of the first here, 17 % when
    // this is the process's first training) is what stays below
    // `recycle::MIN_LEN`: the fresh `Adam` moments each
    // `Trainer::train` builds and the weight gradients, about 11 MB.
    assert!(second * 100 < first * 15, "second run faulted {second} pages, the first {first}");
    recycle::release();
    assert_eq!(recycle::stats().cached_bytes, 0);
}

fn pipeline_train_releases_the_cache_before_it_hands_the_model_over(pipeline: &Pipeline) {
    recycle::release();
    let before = vm_rss_kib();
    let trained = pipeline.train(ModelKind::Gpt2Medium, Some(TrainConfig { steps: 2, ..one_step(3) }));
    let after = vm_rss_kib();
    eprintln!("VmRSS before {before} KiB, after {after} KiB");
    assert_eq!(recycle::stats().cached_bytes, 0, "the cache outlived Pipeline::train");
    // The trained model's own weights stay (≈ 4 MB at this tier); the
    // step's working set (≈ 60 MB) must not.
    assert!(after < before + 12 * 1024, "VmRSS {before} → {after} KiB across Pipeline::train");
    drop(trained);
}

/// The fixture tokenizer's vocabulary size at `PipelineConfig::small()`.
const VOCAB: usize = 665;

fn serving_decode_never_reaches_the_cache() {
    let medium = Gpt2Lm::new(Gpt2Config::medium(VOCAB));
    let medium_q = medium.quantize();
    let sampler = |max_tokens| SamplerConfig { max_tokens, stop_token: None, ..SamplerConfig::default() };
    let counts = || {
        let s = recycle::stats();
        (s.hits, s.misses, s.returns)
    };
    let before = counts();

    // Solo decode, f32 and int8.
    for model in [&medium as &dyn InferenceModel, &medium_q] {
        let mut rng = StdRng::seed_from_u64(7);
        let (meta, series) = (obs::reqtrace::TraceMeta::default(), DecodeSeries::resolve(model));
        assert_eq!(generate(model, &[2, 3, 4], &sampler(24), &mut rng, &meta, &series).len(), 24);
    }

    // Eight lanes of 50-token pantry prompts, stepped to completion.
    let bm = medium.batch_model().expect("medium tier is batch-ready");
    let mut engine = BatchGenerator::new(
        bm,
        BatchEngineConfig { block_tokens: 16, num_blocks: 8 * 6, max_batch: 8, prefix_cap: 0 },
    );
    for i in 0..8u32 {
        let prompt = (0..50u32).map(|t| (3 + i * 13 + t) % VOCAB as u32).collect();
        engine.admit(BatchRequest { prompt, sampler: sampler(24), seed: i as u64 }).expect("pool sized for the batch");
    }
    let mut tokens = 0;
    while engine.active() > 0 {
        for f in engine.step(bm).expect("reserved at admission").finished {
            tokens += f.tokens.len();
        }
    }
    assert_eq!(tokens, 8 * 24, "a lane stopped early");
    assert_eq!(counts(), before, "a decode path took a buffer from, or gave one to, the cache");
}
