//! **Quantized-generation smoke check** — builds a GPT-2 tier, quantizes
//! it to int8, and verifies the contract the dtype-generic tensor core
//! promises: finite logits, run-to-run determinism, bit-identical decode
//! across thread counts, per-model/per-dtype labeled decode metrics in
//! the Prometheus exposition, and — an exact count, not a timing — that
//! solo decode of the served tier never wakes the tensor pool.
//!
//! Run by `scripts/ci.sh`; also useful standalone:
//!
//! ```text
//! cargo run --release -p ratatouille-bench --bin quantized_smoke
//! ```

use ratatouille_util::rng::{SeedableRng, StdRng};
use ratatouille::models::gpt2::{Gpt2Config, Gpt2Lm};
use ratatouille::models::sample::{generate, SamplerConfig};
use ratatouille::models::InferenceModel;
use ratatouille_tensor::par;

const VOCAB: usize = 384;

fn decode(model: &dyn InferenceModel, seed: u64) -> Vec<u32> {
    let cfg = SamplerConfig {
        max_tokens: 40,
        stop_token: None,
        ..SamplerConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    generate(model, &[2, 3, 4], &cfg, &mut rng)
}

fn main() {
    let model = Gpt2Lm::new(Gpt2Config::distil(VOCAB));
    let quant = model.quantize();
    eprintln!(
        "[quantized_smoke] {} -> {} ({})",
        model.name(),
        quant.name(),
        quant.dtype()
    );

    // 1. Both dtypes decode a full budget of in-vocab, finite tokens.
    let f32_tokens = decode(&model, 7);
    let int8_tokens = decode(&quant, 7);
    assert_eq!(f32_tokens.len(), 40, "f32 decode stopped early");
    assert_eq!(int8_tokens.len(), 40, "int8 decode stopped early");
    for &t in f32_tokens.iter().chain(&int8_tokens) {
        assert!((t as usize) < VOCAB, "token {t} outside vocab");
    }

    // 2. Same seed, same tokens — quantized decode is deterministic.
    assert_eq!(int8_tokens, decode(&quant, 7), "int8 decode not reproducible");

    // 3. Thread-count invariance: int8 accumulates in integers, so the
    //    token stream must be bit-identical at any pool width.
    for threads in [1usize, 4, 7] {
        par::set_num_threads(threads);
        let got = decode(&quant, 7);
        assert_eq!(
            got, int8_tokens,
            "int8 decode diverged at {threads} threads"
        );
    }
    par::set_num_threads(0);

    // 4. Launch gate: every kernel of a solo decode step of the served
    //    (medium) tier carries less work than a pool launch costs, so 40
    //    tokens in either dtype must leave the launch counter where it
    //    was, at the default thread count.
    let medium = Gpt2Lm::new(Gpt2Config::medium(VOCAB));
    let medium_q = medium.quantize();
    let launches = obs::metrics::counter("tensor_pool_launches_total");
    for (model, dtype) in [(&medium as &dyn InferenceModel, "f32"), (&medium_q, "int8")] {
        let before = launches.get();
        assert_eq!(decode(model, 7).len(), 40, "{dtype} medium decode stopped early");
        assert_eq!(
            launches.get(),
            before,
            "solo {dtype} decode of {} launched the tensor pool",
            model.name()
        );
    }

    // 5. Labeled decode metrics: one exposition carries both dtypes of
    //    the same model family, with bounded label values.
    let exposition = obs::metrics::render_prometheus();
    for probe in [
        "decode_token_ns_sum{model=\"distilgpt2\",dtype=\"f32\"}",
        "decode_token_ns_sum{model=\"distilgpt2-int8\",dtype=\"int8\"}",
        "decode_token_ns_bucket{model=\"distilgpt2-int8\",dtype=\"int8\",le=",
        "decode_tokens_total{model=\"distilgpt2\",dtype=\"f32\"}",
        "decode_tokens_total{model=\"distilgpt2-int8\",dtype=\"int8\"}",
    ] {
        assert!(
            exposition.contains(probe),
            "exposition missing `{probe}`\n---- /metrics ----\n{exposition}"
        );
    }

    println!(
        "[quantized_smoke] OK — int8 decode finite, deterministic, thread-invariant; solo decode launch-free; labeled metrics present"
    );
}
