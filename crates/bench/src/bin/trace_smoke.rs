//! **Request-tracing smoke check** — two gates in one binary:
//!
//! 1. **Overhead**: decoding with per-step trace recording enabled must
//!    stay within 2% of the untraced baseline (best-of-5 each, same
//!    engine config, same seeds). The trace path is two atomic stores
//!    per phase record; anything slower is a regression.
//! 2. **End-to-end**: boots the batched server over a tiny untrained
//!    GPT-2, posts a generation, and asserts the full lifecycle is
//!    reconstructable over HTTP: `X-Trace-Id` on the response,
//!    `/debug/requests` listing the id, `/debug/requests/<id>` carrying
//!    accept → enqueue → admit → prefill → decode → retire → respond,
//!    and `/debug/trace?fmt=chrome` emitting loadable trace-event JSON.
//!
//! Run by `scripts/ci.sh`; also useful standalone:
//!
//! ```text
//! cargo run --release -p ratatouille-bench --bin trace_smoke
//! ```

use std::sync::Arc;

use obs::reqtrace::TraceMeta;
use ratatouille_models::batch::{BatchEngineConfig, BatchGenerator, BatchRequest};
use ratatouille_models::gpt2::{Gpt2Config, Gpt2Lm};
use ratatouille_models::sample::SamplerConfig;
use ratatouille_models::InferenceModel;
use ratatouille_serving::api::{ApiServer, GeneratedRecipe};
use ratatouille_serving::batch::{
    AdmitOutcome, BatchServerConfig, GenRequest, StepBackend, StepBackendFactory,
};
use ratatouille_serving::client::HttpClient;
use ratatouille_serving::json::Json;

const VOCAB: usize = 64;
const DECODE_TOKENS: usize = 8;

fn engine_cfg(max_batch: usize) -> BatchEngineConfig {
    BatchEngineConfig {
        block_tokens: 4,
        num_blocks: 128,
        max_batch,
        prefix_cap: 0,
    }
}

fn sampler(max_tokens: usize) -> SamplerConfig {
    SamplerConfig {
        max_tokens,
        greedy: false,
        stop_token: None,
        ..SamplerConfig::default()
    }
}

/// One full decode of 4 requests (8-token prompts, 64 generated tokens
/// each); returns wall nanoseconds for the step loop. When `traced`,
/// every request records every prefill chunk and decode step.
fn decode_run(model: &Gpt2Lm, traced: bool) -> u64 {
    let bm = model.batch_model().expect("distil tier is batch-ready");
    let mut engine = BatchGenerator::new(bm, engine_cfg(4));
    for seed in 0..4u64 {
        let prompt: Vec<u32> = (0..8u32).map(|t| (2 + seed as u32 + t) % VOCAB as u32).collect();
        let meta = if traced {
            TraceMeta {
                enqueued_ns: 0,
                trace: Some(obs::reqtrace::begin()),
            }
        } else {
            TraceMeta::default()
        };
        engine
            .admit_traced(
                BatchRequest {
                    prompt,
                    sampler: sampler(64),
                    seed,
                },
                meta,
            )
            .expect("admit");
    }
    let start = obs::Clock::now();
    while engine.active() > 0 {
        engine.step(bm).expect("admission reserved the worst case");
    }
    start.elapsed_ns()
}

fn overhead_gate(model: &Gpt2Lm) {
    // Warm both paths once (allocator, code paths), then best-of-5
    // interleaved so slow-machine drift hits both arms equally.
    decode_run(model, false);
    decode_run(model, true);
    let mut untraced = u64::MAX;
    let mut traced = u64::MAX;
    for _ in 0..5 {
        untraced = untraced.min(decode_run(model, false));
        traced = traced.min(decode_run(model, true));
    }
    let ratio = traced as f64 / untraced as f64;
    eprintln!(
        "[trace_smoke] decode overhead: untraced {untraced}ns, traced {traced}ns \
         (ratio {ratio:.4})"
    );
    if ratio > 1.02 {
        eprintln!("[trace_smoke] FAIL — tracing-enabled decode more than 2% over baseline");
        std::process::exit(1);
    }
}

/// Bin-local batched backend over an *untrained* tiny GPT-2: recipe
/// quality is irrelevant here — the gate is about the trace plumbing,
/// so prompts are just ingredient bytes folded into the vocab.
struct SmokeBackend {
    model: Gpt2Lm,
    engine: BatchGenerator,
}

impl SmokeBackend {
    fn new() -> SmokeBackend {
        let model = Gpt2Lm::new(Gpt2Config::distil(VOCAB));
        let engine = {
            let bm = model.batch_model().expect("distil tier is batch-ready");
            BatchGenerator::new(bm, engine_cfg(4))
        };
        SmokeBackend { model, engine }
    }
}

impl StepBackend for SmokeBackend {
    fn model_name(&self) -> String {
        "trace-smoke-gpt2".into()
    }

    fn admit_request(&mut self, req: &GenRequest) -> AdmitOutcome {
        let mut prompt: Vec<u32> = req
            .ingredients
            .iter()
            .flat_map(|s| s.bytes())
            .take(12)
            .map(|b| b as u32 % VOCAB as u32)
            .collect();
        if prompt.is_empty() {
            prompt = vec![2, 3];
        }
        match self.engine.admit_traced(
            BatchRequest {
                prompt,
                sampler: sampler(DECODE_TOKENS),
                seed: req.seed.unwrap_or(7),
            },
            req.meta.clone(),
        ) {
            Ok(id) => AdmitOutcome::Admitted(id),
            Err(ratatouille_models::batch::AdmitError::BatchFull) => AdmitOutcome::BatchFull,
            Err(ratatouille_models::batch::AdmitError::PoolExhausted) => {
                AdmitOutcome::PoolExhausted
            }
        }
    }

    fn step(&mut self) -> Vec<(u64, GeneratedRecipe)> {
        let Some(bm) = self.model.batch_model() else {
            return Vec::new();
        };
        let outcome = match self.engine.step(bm) {
            Ok(o) => o,
            Err(_) => return Vec::new(),
        };
        outcome
            .finished
            .into_iter()
            .map(|f| {
                (
                    f.id,
                    GeneratedRecipe {
                        title: format!("trace smoke {}", f.id),
                        ingredients: Vec::new(),
                        instructions: vec![format!("{} tokens decoded", f.tokens.len())],
                        well_formed: true,
                    },
                )
            })
            .collect()
    }

    fn active(&self) -> usize {
        self.engine.active()
    }

    fn free_slots(&self) -> usize {
        self.engine.max_batch().saturating_sub(self.engine.active())
    }
}

fn phase_names(timeline: &[Json]) -> Vec<String> {
    timeline
        .iter()
        .filter_map(|e| e.get("phase").and_then(Json::as_str).map(str::to_string))
        .collect()
}

fn http_gate() {
    let factory: StepBackendFactory =
        Arc::new(|| Box::new(SmokeBackend::new()) as Box<dyn StepBackend>);
    let server = ApiServer::start_batched("127.0.0.1:0", BatchServerConfig::default(), factory)
        .expect("server boot");
    let client = HttpClient::new(server.addr());

    // 1. Every response carries its trace id.
    let (status, headers, body) = client
        .post_json_with_headers(
            "/api/generate",
            r#"{"ingredients":["flour","water"],"seed":11}"#,
        )
        .expect("generate");
    assert_eq!(status, 200, "generate: {body}");
    let trace_id: u64 = headers
        .iter()
        .find(|(k, _)| k == "x-trace-id")
        .map(|(_, v)| v.parse().expect("numeric trace id"))
        .expect("response must carry X-Trace-Id");

    // 2. The completed-trace ring lists it.
    let (status, body) = client.get("/debug/requests").expect("debug requests");
    assert_eq!(status, 200, "/debug/requests: {body}");
    let listed = Json::parse(&body).expect("valid JSON");
    let ids: Vec<u64> = listed
        .get("requests")
        .and_then(Json::as_array)
        .expect("requests array")
        .iter()
        .filter_map(|r| r.get("id").and_then(Json::as_f64))
        .map(|id| id as u64)
        .collect();
    assert!(
        ids.contains(&trace_id),
        "trace {trace_id} missing from /debug/requests: {ids:?}"
    );

    // 3. The detail view reconstructs the full batched lifecycle.
    let (status, body) = client
        .get(&format!("/debug/requests/{trace_id}"))
        .expect("debug request detail");
    assert_eq!(status, 200, "/debug/requests/{trace_id}: {body}");
    let detail = Json::parse(&body).expect("valid JSON");
    let timeline = detail
        .get("timeline")
        .and_then(Json::as_array)
        .expect("timeline array");
    let names = phase_names(timeline);
    assert_eq!(names.first().map(String::as_str), Some("accept"), "{names:?}");
    assert_eq!(names.last().map(String::as_str), Some("respond"), "{names:?}");
    for required in ["enqueue", "admit", "prefill_chunk", "retire"] {
        assert!(
            names.iter().any(|n| n == required),
            "timeline missing `{required}`: {names:?}"
        );
    }
    let decode_steps = names.iter().filter(|n| n.as_str() == "decode_step").count();
    assert_eq!(
        decode_steps, DECODE_TOKENS,
        "one decode_step per generated token: {names:?}"
    );

    // 4. Unknown ids and malformed ids answer, not 500.
    let (status, _) = client.get("/debug/requests/999999999").expect("unknown id");
    assert_eq!(status, 404, "unknown trace id must 404");
    let (status, _) = client.get("/debug/requests/nope").expect("bad id");
    assert_eq!(status, 400, "non-numeric trace id must 400");

    // 5. The Chrome export is loadable trace-event JSON.
    let (status, body) = client.get("/debug/trace?fmt=chrome").expect("chrome trace");
    assert_eq!(status, 200, "/debug/trace: {body}");
    assert!(body.contains("\"ph\":\"X\""), "complete events expected: {body}");
    match Json::parse(&body) {
        Ok(Json::Array(events)) => assert!(!events.is_empty(), "no trace events"),
        other => panic!("chrome export must be a JSON array, got {other:?}"),
    }
    let (status, _) = client.get("/debug/trace?fmt=svg").expect("bad fmt");
    assert_eq!(status, 400, "unknown trace format must 400");

    println!(
        "[trace_smoke] OK — X-Trace-Id {trace_id}, {} phases on the timeline, \
         chrome export loadable",
        names.len()
    );
    server.stop();
}

fn main() {
    let model = Gpt2Lm::new(Gpt2Config::distil(VOCAB));
    overhead_gate(&model);
    http_gate();
}
