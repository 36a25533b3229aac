//! Exact counts on both sides of `tensor::par`'s work gate: a kernel
//! that carries a launch's worth of arithmetic wakes the pool once, and
//! decode of the served (medium) tier — solo in either weight dtype, or
//! eight lanes at the longest context any workload produces — never does.
//!
//! `tensor_pool_launches_total` is process-global, so this binary holds
//! exactly one `#[test]`: nothing else can bump the counter mid-check.
//! (Above the gate, `transformer.rs`'s
//! `attend_batch_fans_out_without_changing_a_bit` is the oracle.)

use ratatouille_models::batch::{BatchEngineConfig, BatchGenerator, BatchRequest};
use ratatouille_models::gpt2::{Gpt2Config, Gpt2Lm};
use ratatouille_models::lm::InferenceModel;
use ratatouille_models::sample::{generate, SamplerConfig};
use ratatouille_tensor::{ops, par, Tensor};
use ratatouille_util::rng::{SeedableRng, StdRng};

const VOCAB: usize = 384;
/// A 12-ingredient pantry prompt (loadbench's `offline_batch8_shared`).
const PROMPT: usize = 50;
/// `generation_budget` of the transformer tiers.
const BUDGET: usize = 260;

fn sampler(max_tokens: usize) -> SamplerConfig {
    SamplerConfig {
        max_tokens,
        stop_token: None,
        ..SamplerConfig::default()
    }
}

#[test]
fn served_decode_stays_under_the_launch_gate_and_a_big_matmul_crosses_it() {
    let launches = obs::metrics::counter("tensor_pool_launches_total");
    let inlined = obs::metrics::counter("tensor_pool_inline_total");
    // Two threads on any machine: the gate caps tasks at work / 2^20
    // MACs, so what stays inline at two stays inline at any count. (Not
    // restored: this test is the whole process.)
    par::set_num_threads(2);

    // Both sides of the gate, one kernel each.
    let n = 128;
    let a = Tensor::from_vec(vec![0.5f32; n * n], &[n, n]).expect("square tensor");
    let row = Tensor::from_vec(vec![0.5f32; n], &[1, n]).expect("row tensor");
    let (launched, elided) = (launches.get(), inlined.get());
    ops::matmul(&a, &a);
    assert_eq!(launches.get(), launched + 1, "a 2·2^20-MAC matmul must fan out");
    ops::matmul_transb(&row, &a);
    assert_eq!(launches.get(), launched + 1, "a decode-sized GEMV must stay inline");
    assert_eq!(inlined.get(), elided + 1, "the elided launch must be counted");

    // Solo decode, f32 and int8.
    let medium = Gpt2Lm::new(Gpt2Config::medium(VOCAB));
    let medium_q = medium.quantize();
    for model in [&medium as &dyn InferenceModel, &medium_q] {
        let before = launches.get();
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(generate(model, &[2, 3, 4], &sampler(40), &mut rng).len(), 40);
        assert_eq!(launches.get(), before, "solo decode of {} launched the pool", model.name());
    }

    // Batch of 8, unshared, to PROMPT + BUDGET positions per lane: the
    // m = 8 GEMMs and the eight attention lanes of every step.
    let bm = medium.batch_model().expect("medium tier is batch-ready");
    let mut engine = BatchGenerator::new(
        bm,
        BatchEngineConfig {
            block_tokens: 16,
            num_blocks: 8 * (PROMPT + BUDGET).div_ceil(16),
            max_batch: 8,
            prefix_cap: 0,
        },
    );
    let before = launches.get();
    for i in 0..8u32 {
        let prompt = (0..PROMPT as u32).map(|t| (3 + i * 13 + t) % VOCAB as u32).collect();
        let greedy = SamplerConfig { greedy: true, ..sampler(BUDGET) };
        engine
            .admit(BatchRequest { prompt, sampler: greedy, seed: i as u64 })
            .expect("pool sized for the batch");
    }
    let mut tokens = 0;
    while engine.active() > 0 {
        for f in engine.step(bm).expect("reserved at admission").finished {
            tokens += f.tokens.len();
        }
    }
    assert_eq!(tokens, 8 * BUDGET, "a lane stopped early");
    assert_eq!(
        launches.get(),
        before,
        "batch-8 decode of {} to {} context launched the pool",
        InferenceModel::name(&medium),
        PROMPT + BUDGET
    );
}
