//! **T-paged** — the parallel paged-attention sweep across worker thread
//! counts, at the long contexts where attention dominates.
//!
//! Two views per model shape (distil `d=64/h=2` and medium `d=128/h=4`):
//!
//! * `attend_phase`: attention-phase time per decode step, isolated via
//!   the `attend_ns` histogram delta (`Timer::iter_custom`), so the
//!   comparison excludes the GEMMs around it. `sweepN` is the pool sweep
//!   at N worker threads — higher counts add cross-sequence parallelism
//!   on multi-core hosts.
//! * `long_context`: wall time for the same full decode (prefill via the
//!   shared-prefix cache, untimed), the end-to-end view.
//!
//! Streams are asserted byte-identical between the one-thread run and
//! every other thread count before anything is timed — a bench run that
//! broke determinism must fail loudly, not publish numbers.

use ratatouille_util::bench::{Bench, BenchmarkId, Throughput};
use ratatouille_util::{bench_group, bench_main};
use ratatouille::models::batch::{
    BatchEngineConfig, BatchGenerator, BatchRequest, BatchStepModel,
};
use ratatouille::models::gpt2::{Gpt2Config, Gpt2Lm};
use ratatouille::models::sample::SamplerConfig;
use ratatouille::models::InferenceModel;
use ratatouille::tensor::par;

const VOCAB: usize = 384;
/// Prompt length: 12 full 16-token KV blocks — long enough that the
/// attention phase, not prefill GEMMs, dominates each decode step.
const PROMPT: usize = 192;
/// Generated tokens per sequence per iteration.
const TOKENS: usize = 24;
const BATCH: usize = 8;

fn engine_cfg() -> BatchEngineConfig {
    BatchEngineConfig {
        block_tokens: 16,
        num_blocks: 512,
        max_batch: BATCH,
        prefix_cap: 8,
    }
}

fn request(seed: u64) -> BatchRequest {
    BatchRequest {
        // One shared pantry prompt: admissions after the first adopt the
        // cached prefix blocks, so the untimed prefill stays short.
        prompt: (0..PROMPT as u32).map(|t| (2 + t) % VOCAB as u32).collect(),
        sampler: SamplerConfig {
            max_tokens: TOKENS,
            greedy: true,
            stop_token: None,
            ..SamplerConfig::default()
        },
        seed,
    }
}

/// Admit a full batch, decode it to completion, and return the
/// concatenated streams plus the `attend_ns` spent in the decode phase
/// (the final `TOKENS` steps — every sequence shares one prompt and one
/// admission step, so the batch prefills in lockstep and those steps all
/// run attention at full context `T >= PROMPT`).
fn run_round(bm: &dyn BatchStepModel, engine: &mut BatchGenerator) -> (Vec<u32>, u64) {
    let attend_ns = obs::metrics::histogram("attend_ns");
    let ids: Vec<u64> = (0..BATCH)
        .map(|i| {
            engine
                .admit(request(i as u64))
                .expect("pool sized for the batch")
        })
        .collect();
    let mut streams: Vec<Option<Vec<u32>>> = vec![None; ids.len()];
    let mut marks = vec![attend_ns.sum()];
    while streams.iter().any(Option::is_none) {
        let out = engine.step(bm).expect("reserved at admission");
        marks.push(attend_ns.sum());
        for f in out.finished {
            let slot = ids.iter().position(|&id| id == f.id).expect("known id");
            streams[slot] = Some(f.tokens);
        }
    }
    let decode_ns = marks[marks.len() - 1] - marks[marks.len().saturating_sub(TOKENS + 1)];
    let flat = streams.into_iter().flat_map(Option::unwrap).collect();
    (flat, decode_ns)
}

struct Shape {
    label: &'static str,
    config: Gpt2Config,
}

fn shapes() -> Vec<Shape> {
    vec![
        Shape {
            label: "distil",
            config: Gpt2Config::distil(VOCAB),
        },
        Shape {
            label: "medium",
            config: Gpt2Config::medium(VOCAB),
        },
    ]
}

/// (row label, worker threads)
const MODES: &[(&str, usize)] = &[("sweep1", 1), ("sweep2", 2), ("sweep4", 4)];

fn bench_paged(c: &mut Bench) {
    for shape in shapes() {
        let model = Gpt2Lm::new(shape.config);
        let bm = model.batch_model().expect("gpt2 tiers are batch-ready");

        // Determinism gate first: every thread count reproduces the
        // one-thread streams byte for byte.
        par::set_num_threads(1);
        let mut engine = BatchGenerator::new(bm, engine_cfg());
        let (reference, _) = run_round(bm, &mut engine);
        assert_eq!(reference.len(), BATCH * TOKENS, "a sequence stopped early");
        for &(label, threads) in MODES {
            par::set_num_threads(threads);
            let (streams, _) = run_round(bm, &mut engine);
            assert_eq!(
                streams, reference,
                "{label} diverged from the one-thread run ({})",
                shape.label
            );
        }

        let mut group = c.benchmark_group(format!("attend_phase_{}", shape.label));
        group.sample_size(10);
        for &(label, threads) in MODES {
            par::set_num_threads(threads);
            let mut engine = BatchGenerator::new(bm, engine_cfg());
            run_round(bm, &mut engine); // warm the prefix cache, untimed
            group.throughput(Throughput::Elements((BATCH * TOKENS) as u64));
            group.bench_function(BenchmarkId::new(label, BATCH), |b| {
                b.iter_custom(|iters| {
                    (0..iters).map(|_| run_round(bm, &mut engine).1).sum()
                })
            });
        }
        group.finish();

        let mut group = c.benchmark_group(format!("long_context_{}", shape.label));
        group.sample_size(10);
        for &(label, threads) in MODES {
            par::set_num_threads(threads);
            let mut engine = BatchGenerator::new(bm, engine_cfg());
            run_round(bm, &mut engine); // warm, untimed
            group.throughput(Throughput::Elements((BATCH * TOKENS) as u64));
            group.bench_function(BenchmarkId::new(label, BATCH), |b| {
                b.iter(|| run_round(bm, &mut engine).0.len())
            });
        }
        group.finish();
    }

    // Restore the process default for anything running after this harness.
    par::set_num_threads(0);
}

bench_group!(benches, bench_paged);
bench_main!(benches);
