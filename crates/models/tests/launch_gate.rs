//! Exact counts on both sides of `tensor::par`'s work gate: a kernel
//! that carries a launch's worth of arithmetic wakes the pool once —
//! a GEMM, or an elementwise op at a training shape — and decode of the
//! served (medium) tier — solo in either weight dtype, or eight lanes at
//! the longest context any workload produces — never does, while a
//! training step does.
//!
//! `tensor_pool_launches_total` is process-global, so this binary holds
//! exactly one `#[test]`: nothing else can bump the counter mid-check.
//! (Above the gate, `transformer.rs`'s
//! `attend_batch_fans_out_without_changing_a_bit` is the oracle.)

use ratatouille_models::batch::{BatchEngineConfig, BatchGenerator, BatchRequest};
use ratatouille_models::gpt2::{Gpt2Config, Gpt2Lm};
use ratatouille_models::lm::{Batch, InferenceModel, LanguageModel};
use ratatouille_models::sample::{generate, SamplerConfig};
use ratatouille_tensor::optim::Adam;
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
    // The batch-8 LM head, `[8, 128]` against the `[384, 128]` tied
    // embedding, runs through `matmul_transb`'s row-pair tile, inline.
    let hidden = Tensor::from_vec(vec![0.5f32; 8 * n], &[8, n]).expect("hidden rows");
    let wte = Tensor::from_vec(vec![0.5f32; VOCAB * n], &[VOCAB, n]).expect("embedding");
    ops::matmul_transb(&hidden, &wte);
    assert_eq!(launches.get(), launched + 1, "the batch-8 LM head must stay inline");
    assert_eq!(inlined.get(), elided + 2, "the elided launch must be counted");
    // The same for `gelu`, the costliest elementwise op per element: the
    // MLP activation of a training batch fans out, a batch-8 decode
    // step's stays inline.
    let mlp = |rows: usize| Tensor::from_vec(vec![0.5f32; rows * 512], &[rows, 512]).expect("mlp tensor");
    ops::gelu(&mlp(1024));
    assert_eq!(launches.get(), launched + 2, "a training-sized gelu must fan out");
    ops::gelu(&mlp(8));
    assert_eq!(launches.get(), launched + 2, "a decode-sized gelu must stay inline");

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

    // One optimizer step at the shape of `tests/determinism.rs`'s
    // training golden wakes the pool.
    let model = Gpt2Lm::new(Gpt2Config {
        name: "golden-train".into(),
        vocab: 64,
        d_model: 64,
        n_heads: 2,
        n_layers: 2,
        d_ff: 256,
        max_t: 128,
        local_window: None,
        dropout: 0.1,
        seed: 31,
    });
    let seq: Vec<u32> = (0..=128).map(|t| 1 + (t * 7) % 63).collect();
    let batch = Batch {
        inputs: vec![seq[..128].to_vec(); 8],
        targets: vec![seq[1..].to_vec(); 8],
        pad_id: 0,
    };
    let params = model.parameters();
    let before = launches.get();
    model.forward_loss(&batch, true, &mut StdRng::seed_from_u64(5)).backward();
    Adam::adamw(2e-3, 0.01).step(&params);
    assert!(launches.get() > before, "a training step never launched the pool");
}
