//! The parallel paged-attention determinism contract, pinned at the
//! engine level: every batch composition's token streams are
//! **byte-identical** across worker thread counts {1, 2, 3, 4, 7}, the
//! one-thread run being the reference. (The kernel-level half — the
//! sweep against the row-at-a-time oracle over the same pooled caches —
//! lives in `transformer.rs`'s unit tests.)
//!
//! Thread count is a process-wide knob, so the whole matrix lives in one
//! `#[test]` — the harness cannot interleave another test of this binary
//! mid-sweep — and the knob is restored at the end.

mod common;

use ratatouille_models::batch::{BatchEngineConfig, BatchGenerator, BatchRequest};
use ratatouille_models::gpt2::Gpt2Lm;
use ratatouille_models::lm::InferenceModel;
use ratatouille_models::sample::SamplerConfig;
use ratatouille_tensor::par;

fn tiny() -> Gpt2Lm {
    common::tiny("tiny-paged", None)
}

fn engine_cfg(prefix_cap: usize) -> BatchEngineConfig {
    BatchEngineConfig {
        block_tokens: 4, // small so short prompts still span full blocks
        num_blocks: 96,
        max_batch: 8,
        prefix_cap,
    }
}

fn sampled(max_tokens: usize) -> SamplerConfig {
    SamplerConfig {
        max_tokens,
        temperature: 0.9,
        top_k: 0,
        top_p: 1.0,
        stop_token: None,
        greedy: false,
    }
}

fn req(prompt: &[u32], seed: u64, cfg: &SamplerConfig) -> BatchRequest {
    BatchRequest {
        prompt: prompt.to_vec(),
        sampler: cfg.clone(),
        seed,
    }
}

/// Admit `reqs` together into a fresh engine and decode all of them.
fn decode_together(model: &Gpt2Lm, prefix_cap: usize, reqs: &[BatchRequest]) -> Vec<Vec<u32>> {
    let bm = model.batch_model().expect("tiny config is batch-ready");
    let mut engine = BatchGenerator::new(bm, engine_cfg(prefix_cap));
    let ids: Vec<u64> = reqs
        .iter()
        .map(|r| engine.admit(r.clone()).expect("pool sized for the batch"))
        .collect();
    let mut out: Vec<Option<Vec<u32>>> = vec![None; ids.len()];
    while out.iter().any(Option::is_none) {
        let step = engine.step(bm).expect("reserved at admission");
        assert!(step.batch_size > 0, "engine idled with sequences pending");
        for f in step.finished {
            let slot = ids.iter().position(|&id| id == f.id).expect("known id");
            out[slot] = Some(f.tokens);
        }
    }
    out.into_iter().map(Option::unwrap).collect()
}

/// One pass over every batch composition the contract names. Returns all
/// produced streams (in a fixed order) and asserts the *internal* half of
/// the contract: batched, late-admitted and prefix-adopted streams all
/// equal their solo twins under the current thread count.
fn run_compositions(model: &Gpt2Lm, prompts: &[Vec<u32>], cfg: &SamplerConfig) -> Vec<Vec<u32>> {
    let bm = model.batch_model().expect("tiny config is batch-ready");
    let mut all = Vec::new();

    // Solo baselines, one engine each.
    let solos: Vec<Vec<u32>> = prompts
        .iter()
        .enumerate()
        .map(|(i, p)| decode_together(model, 0, &[req(p, 100 + i as u64, cfg)]).remove(0))
        .collect();

    // Batch-of-2 and batch-of-7.
    for batch in [2usize, 7] {
        let reqs: Vec<BatchRequest> = prompts[..batch]
            .iter()
            .enumerate()
            .map(|(i, p)| req(p, 100 + i as u64, cfg))
            .collect();
        let streams = decode_together(model, 0, &reqs);
        for (i, s) in streams.iter().enumerate() {
            assert_eq!(s, &solos[i], "request {i} diverged in a batch of {batch}");
        }
        all.extend(streams);
    }

    // Mid-decode admission: prompt 0 decodes alone past its prefill,
    // then prompt 1 joins the running batch.
    {
        let mut engine = BatchGenerator::new(bm, engine_cfg(0));
        let a = engine.admit(req(&prompts[0], 100, cfg)).expect("admit A");
        for _ in 0..8 {
            let out = engine.step(bm).expect("pool sized");
            assert!(out.finished.is_empty(), "A finished before B was admitted");
        }
        let b = engine.admit(req(&prompts[1], 101, cfg)).expect("admit B");
        let mut streams = [None, None];
        while streams.iter().any(Option::is_none) {
            for f in engine.step(bm).expect("pool sized").finished {
                if f.id == a {
                    streams[0] = Some(f.tokens);
                } else {
                    assert_eq!(f.id, b, "unknown sequence finished");
                    streams[1] = Some(f.tokens);
                }
            }
        }
        let [sa, sb] = streams.map(Option::unwrap);
        assert_eq!(sa, solos[0], "late arrival perturbed the running sequence");
        assert_eq!(sb, solos[1], "joining a running batch perturbed the arrival");
        all.push(sa);
        all.push(sb);
    }

    // Shared-prefix adoption: the same prompt twice through one engine;
    // the second admission decodes from adopted cached blocks.
    {
        let mut engine = BatchGenerator::new(bm, engine_cfg(8));
        let first = engine.admit(req(&prompts[0], 100, cfg)).expect("admit");
        let s1 = engine.run_to_completion(bm, first).expect("decode");
        let second = engine.admit(req(&prompts[0], 100, cfg)).expect("admit");
        let s2 = engine.run_to_completion(bm, second).expect("decode");
        assert_eq!(s1, solos[0], "prefix registration changed the stream");
        assert_eq!(s2, solos[0], "adopted prefix blocks changed the stream");
        all.push(s1);
        all.push(s2);
    }

    all.extend(solos);
    all
}

#[test]
fn streams_are_bit_identical_across_thread_counts_and_compositions() {
    let model = tiny();
    let cfg = sampled(12);
    // Seven prompts with distinct contents, lengths and seeds; lengths
    // straddle the 4-token block size so prefill crosses block bounds.
    let prompts: Vec<Vec<u32>> = (0..7u32)
        .map(|i| (0..(3 + i as usize)).map(|t| (2 + i + t as u32) % 16).collect())
        .collect();

    // Every thread count must reproduce the one-thread run byte for byte
    // — including counts exceeding the batch size (7 threads, batch 2).
    let mut reference = None;
    for threads in [1usize, 2, 3, 4, 7] {
        par::set_num_threads(threads);
        let got = run_compositions(&model, &prompts, &cfg);
        let reference = reference.get_or_insert_with(|| got.clone());
        assert_eq!(&got, reference, "streams diverged from the one-thread run at {threads} threads");
    }
    // Restore the process-wide default.
    par::set_num_threads(0);
}
