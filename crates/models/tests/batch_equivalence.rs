//! The batch-determinism contract, pinned at the engine level: a
//! sequence's token stream is **byte-identical** whether it decodes
//! solo, in a batch of 2, or in a batch of 7 — and whether its prompt
//! prefix came from the shared-prefix cache or was computed fresh — and
//! the solo `TokenStream` returns the logits of a batch of one. The
//! composition cases run on GPT-2 and on a GPT-Neo (`local_window`)
//! fixture whose contexts outgrow the window.
//!
//! Uses an untrained tiny GPT-2 (random but seeded weights, nonzero
//! biases — see `common::biased`): the contract is about kernels and
//! scheduling, not model quality, and an untrained model's logits are
//! just as sensitive to any accumulation reordering.

mod common;

use ratatouille_models::batch::{BatchEngineConfig, BatchGenerator, BatchRequest};
use ratatouille_models::gpt2::{Gpt2Config, Gpt2Lm};
use ratatouille_models::kv_block::{BlockConfig, BlockPool, SeqKv};
use ratatouille_models::lm::InferenceModel;
use ratatouille_models::sample::SamplerConfig;
use ratatouille_models::BatchScratch;

fn tiny() -> Gpt2Lm {
    common::tiny("tiny-batch", None)
}

/// GPT-2 and GPT-Neo with a 6-token window: shorter than every decoded
/// context, and not a multiple of the 4-token blocks, so a local layer's
/// first run starts mid-block.
fn tiny_and_windowed() -> [Gpt2Lm; 2] {
    [tiny(), common::tiny("tiny-batch-neo", Some(6))]
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

/// Decode one request alone (batch of 1) through a fresh engine.
fn solo(model: &Gpt2Lm, prompt: &[u32], seed: u64, cfg: &SamplerConfig) -> Vec<u32> {
    let bm = model.batch_model().expect("tiny config is batch-ready");
    let mut engine = BatchGenerator::new(bm, engine_cfg(0));
    let id = engine.admit(req(prompt, seed, cfg)).expect("admit solo");
    engine.run_to_completion(bm, id).expect("pool sized for solo")
}

#[test]
fn batch_of_2_and_7_match_solo_byte_for_byte() {
    for model in tiny_and_windowed() {
        batch_of_2_and_7_match_solo(&model);
    }
}

fn batch_of_2_and_7_match_solo(model: &Gpt2Lm) {
    let bm = model.batch_model().unwrap();
    let cfg = sampled(12);
    // Seven requests with distinct prompts, lengths and seeds; prompt
    // lengths straddle the block size so prefill crosses boundaries.
    let prompts: Vec<Vec<u32>> = (0..7u32)
        .map(|i| (0..(3 + i as usize)).map(|t| (2 + i + t as u32) % 16).collect())
        .collect();
    let solos: Vec<Vec<u32>> = prompts
        .iter()
        .enumerate()
        .map(|(i, p)| solo(model, p, 100 + i as u64, &cfg))
        .collect();

    for batch in [2usize, 7] {
        let mut engine = BatchGenerator::new(bm, engine_cfg(0));
        let ids: Vec<u64> = prompts[..batch]
            .iter()
            .enumerate()
            .map(|(i, p)| engine.admit(req(p, 100 + i as u64, &cfg)).expect("admit"))
            .collect();
        let mut got: Vec<Option<Vec<u32>>> = vec![None; batch];
        while got.iter().any(Option::is_none) {
            let out = engine.step(bm).expect("pool sized for batch");
            assert!(out.batch_size > 0, "engine idled with sequences pending");
            for f in out.finished {
                let slot = ids.iter().position(|&id| id == f.id).expect("known id");
                got[slot] = Some(f.tokens);
            }
        }
        for (i, tokens) in got.into_iter().enumerate() {
            assert_eq!(
                tokens.as_deref().map(|t| t.to_vec()),
                Some(solos[i].clone()),
                "{}: request {i} diverged from its solo stream in a batch of {batch}",
                bm.name()
            );
        }
    }
}

#[test]
fn mid_decode_admission_does_not_perturb_the_running_sequence() {
    for model in tiny_and_windowed() {
        mid_decode_admission_does_not_perturb(&model);
    }
}

fn mid_decode_admission_does_not_perturb(model: &Gpt2Lm) {
    let bm = model.batch_model().unwrap();
    let cfg = sampled(16);
    let a_prompt = [3u32, 7, 1, 9, 4];
    let b_prompt = [8u32, 8, 2];
    let a_solo = solo(model, &a_prompt, 11, &cfg);
    let b_solo = solo(model, &b_prompt, 22, &cfg);

    let mut engine = BatchGenerator::new(bm, engine_cfg(0));
    let a = engine.admit(req(&a_prompt, 11, &cfg)).unwrap();
    // A decodes alone past its prefill before B arrives mid-stream.
    for _ in 0..8 {
        let out = engine.step(bm).unwrap();
        assert!(out.finished.is_empty(), "A finished before B was admitted");
    }
    let b = engine.admit(req(&b_prompt, 22, &cfg)).unwrap();
    let mut streams = [None, None];
    while streams.iter().any(Option::is_none) {
        for f in engine.step(bm).unwrap().finished {
            if f.id == a {
                streams[0] = Some(f.tokens);
            } else if f.id == b {
                streams[1] = Some(f.tokens);
            }
        }
    }
    assert_eq!(streams[0].as_ref(), Some(&a_solo), "{}: late arrival perturbed A", bm.name());
    assert_eq!(streams[1].as_ref(), Some(&b_solo), "{}: joining a running batch perturbed B", bm.name());
}

#[test]
fn shared_prefix_blocks_reproduce_the_computed_stream() {
    for model in tiny_and_windowed() {
        shared_prefix_blocks_reproduce(&model);
    }
}

fn shared_prefix_blocks_reproduce(model: &Gpt2Lm) {
    let bm = model.batch_model().unwrap();
    let cfg = sampled(10);
    // 9-token prompt → 2 full 4-token blocks of shareable prefix.
    let prompt = [5u32, 1, 12, 3, 9, 0, 7, 2, 6];
    let expected = solo(model, &prompt, 77, &cfg);

    // Sharing OFF: baseline block consumption for the second admission.
    let mut off = BatchGenerator::new(bm, engine_cfg(0));
    let first = off.admit(req(&prompt, 77, &cfg)).unwrap();
    let off_first = off.run_to_completion(bm, first).unwrap();
    let free_before = off.free_blocks();
    let second = off.admit(req(&prompt, 77, &cfg)).unwrap();
    let alloc_off = free_before - off.free_blocks();
    let off_second = off.run_to_completion(bm, second).unwrap();

    // Sharing ON: the first run registers the prefix; the second adopts
    // its blocks instead of allocating fresh ones.
    let mut on = BatchGenerator::new(bm, engine_cfg(8));
    let first = on.admit(req(&prompt, 77, &cfg)).unwrap();
    let on_first = on.run_to_completion(bm, first).unwrap();
    let free_before = on.free_blocks();
    let second = on.admit(req(&prompt, 77, &cfg)).unwrap();
    let alloc_on = free_before - on.free_blocks();
    let on_second = on.run_to_completion(bm, second).unwrap();

    assert_eq!(off_first, expected);
    assert_eq!(off_second, expected);
    assert_eq!(on_first, expected, "prefix registration changed the stream");
    assert_eq!(
        on_second, expected,
        "decoding from adopted shared-prefix blocks changed the stream"
    );
    assert!(
        alloc_on < alloc_off,
        "prefix sharing saved no blocks (on: {alloc_on}, off: {alloc_off})"
    );
}

#[test]
fn trace_phase_sequence_is_deterministic_across_batch_compositions() {
    use obs::reqtrace::{begin, Phase, TraceHandle, TraceMeta};

    let model = tiny();
    let bm = model.batch_model().unwrap();
    let cfg = sampled(9);
    let prompt = [4u32, 9, 2, 7, 11, 1];

    // The phase kinds plus their composition-independent first argument
    // (prefill position, tokens-out, KV hit count). Timestamps and ids
    // are excluded by construction; the second argument carries the
    // batch size, which legitimately differs between compositions.
    fn shape(t: &TraceHandle) -> Vec<(Phase, u32)> {
        t.phases().iter().map(|p| (p.phase, p.a)).collect()
    }

    // Solo (batch of 1).
    let mut engine = BatchGenerator::new(bm, engine_cfg(0));
    let solo_trace = begin();
    let id = engine
        .admit_traced(
            req(&prompt, 55, &cfg),
            TraceMeta {
                enqueued_ns: 0,
                trace: Some(solo_trace.clone()),
            },
        )
        .expect("admit solo");
    engine.run_to_completion(bm, id).expect("pool sized for solo");

    // The same request inside a batch of 7 with distinct neighbours.
    let mut engine = BatchGenerator::new(bm, engine_cfg(0));
    let batched_trace = begin();
    let id = engine
        .admit_traced(
            req(&prompt, 55, &cfg),
            TraceMeta {
                enqueued_ns: 0,
                trace: Some(batched_trace.clone()),
            },
        )
        .expect("admit traced");
    for i in 0..6u32 {
        let p: Vec<u32> = (0..(3 + i as usize))
            .map(|t| (5 + i + t as u32) % 16)
            .collect();
        engine
            .admit(req(&p, 200 + i as u64, &cfg))
            .expect("admit neighbour");
    }
    engine.run_to_completion(bm, id).expect("pool sized for batch");

    let a = shape(&solo_trace);
    let b = shape(&batched_trace);
    // The lifecycle is fully present: accept (from begin), admit, one
    // prefill chunk per prompt token, every decode step, and retirement.
    assert_eq!(a.first().map(|(p, _)| *p), Some(Phase::Accept));
    assert_eq!(
        a.iter().filter(|(p, _)| *p == Phase::PrefillChunk).count(),
        prompt.len()
    );
    assert_eq!(
        a.iter().filter(|(p, _)| *p == Phase::DecodeStep).count(),
        cfg.max_tokens
    );
    assert_eq!(a.last().map(|(p, _)| *p), Some(Phase::Retire));
    assert_eq!(a, b, "trace phase sequence depends on batch composition");
}

#[test]
fn greedy_streams_are_identical_across_all_compositions() {
    let model = tiny();
    let bm = model.batch_model().unwrap();
    let cfg = SamplerConfig {
        max_tokens: 14,
        greedy: true,
        ..sampled(14)
    };
    let prompt = [2u32, 13, 4, 4, 10];
    let alone = solo(&model, &prompt, 0, &cfg);

    let mut engine = BatchGenerator::new(bm, engine_cfg(4));
    let ids: Vec<u64> = (0..5u64)
        .map(|s| engine.admit(req(&prompt, s, &cfg)).unwrap())
        .collect();
    let mut done = 0usize;
    while done < ids.len() {
        for f in engine.step(bm).unwrap().finished {
            assert_eq!(
                f.tokens, alone,
                "greedy decode must be seed- and batch-independent"
            );
            done += 1;
        }
    }
}

/// The solo stream and the batch engine are one step body over two KV
/// stores: `start_stream().push` must return bit for bit the logits of
/// `batch_step` with `B = 1`, nonzero biases included.
#[test]
fn solo_stream_equals_batch_of_one() {
    for (d_model, d_ff, n_heads) in [(16, 32, 2), (128, 512, 4)] {
        let model = common::biased(Gpt2Config {
            name: "solo-vs-b1".into(),
            vocab: 64,
            d_model,
            n_heads,
            n_layers: 2,
            d_ff,
            max_t: 64,
            local_window: None,
            dropout: 0.0,
            seed: 7,
        });
        let bm = model.batch_model().expect("widths divide the pack width");
        let mut pool = BlockPool::new(BlockConfig {
            layers: 2,
            d: d_model,
            block_tokens: 4,
            num_blocks: 8,
        });
        let mut seq = SeqKv::new();
        seq.reserve_for(&mut pool, 32).expect("pool covers 32 tokens");
        let mut scratch = BatchScratch::new();
        let mut stream = model.start_stream();
        for i in 0..32u32 {
            let token = (i * 7 + 3) % 64;
            let solo = stream.push(token);
            seq.prepare_write(&mut pool).expect("reserved");
            let batched = bm.batch_step(&[token], &mut pool, &mut [&mut seq], &mut scratch);
            seq.commit();
            let bits = |t: &ratatouille_tensor::Tensor| -> Vec<u32> {
                t.data().iter().map(|x| x.to_bits()).collect()
            };
            assert_eq!(
                bits(&solo),
                bits(&batched[0]),
                "d_model {d_model}: logits diverge at position {i}"
            );
        }
    }
}
