//! Serving-stack integration: trained model → engine replicas (`K × 1`)
//! → HTTP server → client → JSON → structured recipe — and the
//! continuous-batching shape (`1 × B`): trained model → engine → blocked
//! KV cache → byte-identical responses under concurrency.

use std::collections::BTreeSet;

use ratatouille::models::batch::{BatchEngineConfig, BatchGenerator, BatchRequest};
use ratatouille::models::gpt2::{Gpt2Config, Gpt2Lm};
use ratatouille::models::registry::ModelKind;
use ratatouille::models::sample::{generate, DecodeSeries, SamplerConfig};
use ratatouille::models::train::TrainConfig;
use ratatouille::models::InferenceModel;
use ratatouille::serving::api::ApiServer;
use ratatouille::serving::batch::BatchServerConfig;
use ratatouille::serving::client::HttpClient;
use ratatouille::serving::json::Json;
use ratatouille::tensor::{ops, par, Tensor};
use ratatouille::{Pipeline, PipelineConfig, TrainedModel};
use ratatouille_util::rng::{SeedableRng, StdRng};

fn trained_model() -> TrainedModel {
    let mut cfg = PipelineConfig::small();
    cfg.corpus.num_recipes = 80;
    let pipeline = Pipeline::prepare(cfg);
    pipeline.train(
        ModelKind::WordLstm,
        Some(TrainConfig {
            steps: 3,
            batch_size: 2,
            ..Default::default()
        }),
    )
}

#[test]
fn serve_generate_parse_roundtrip() {
    let trained = trained_model();
    let server = ApiServer::start("127.0.0.1:0", 2, 8, trained.backend_factory()).unwrap();
    let client = HttpClient::new(server.addr());

    // health
    let (status, body) = client.get("/api/health").unwrap();
    assert_eq!(status, 200);
    let health = Json::parse(&body).unwrap();
    assert_eq!(health.get("workers").unwrap().as_f64(), Some(2.0));

    // model card matches the trained model
    let (_, body) = client.get("/api/models").unwrap();
    assert!(body.contains("Word-level LSTM"), "{body}");

    // generation round trip
    let (status, body) = client
        .post_json("/api/generate", r#"{"ingredients":["flour","water"]}"#)
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let v = Json::parse(&body).unwrap();
    assert!(v.get("title").unwrap().as_str().is_some());
    assert!(v.get("latency_ms").unwrap().as_f64().unwrap() >= 0.0);
    assert!(v.get("well_formed").unwrap().as_bool().is_some());

    server.stop();
}

#[test]
fn concurrent_requests_hit_different_replicas() {
    let trained = trained_model();
    let server = ApiServer::start("127.0.0.1:0", 3, 16, trained.backend_factory()).unwrap();
    let addr = server.addr();
    let handles: Vec<_> = (0..6)
        .map(|_| {
            std::thread::spawn(move || {
                let client = HttpClient::new(addr);
                let (status, body) = client
                    .post_json("/api/generate", r#"{"ingredients":["rice","egg"]}"#)
                    .unwrap();
                assert_eq!(status, 200, "{body}");
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    server.stop();
}

#[test]
fn api_input_validation() {
    let trained = trained_model();
    let server = ApiServer::start("127.0.0.1:0", 1, 4, trained.backend_factory()).unwrap();
    let client = HttpClient::new(server.addr());
    for (body, expect) in [
        ("not json", 400),
        ("{}", 400),
        (r#"{"ingredients":[]}"#, 400),
        (r#"{"ingredients":[1,2,3]}"#, 400),
    ] {
        let (status, _) = client.post_json("/api/generate", body).unwrap();
        assert_eq!(status, expect, "body {body:?}");
    }
    let (status, _) = client.get("/api/generate").unwrap();
    assert_eq!(status, 405, "GET on POST route");
    server.stop();
}

#[test]
fn frontend_ships_with_server() {
    let trained = trained_model();
    let server = ApiServer::start("127.0.0.1:0", 1, 4, trained.backend_factory()).unwrap();
    let client = HttpClient::new(server.addr());
    let (status, body) = client.get("/").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("Ratatouille"));
    assert!(body.contains("/api/generate"));
    server.stop();
}

/// Send raw bytes and return the full response text (for requests the
/// structured client can't express: bad methods, oversized heads).
fn raw_request(addr: std::net::SocketAddr, bytes: &[u8]) -> String {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.write_all(bytes).unwrap();
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match s.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            // A reset after the response landed (the server may close with
            // request bytes still unread) is fine — keep what we got.
            Err(_) => break,
        }
    }
    String::from_utf8_lossy(&buf).into_owned()
}

#[test]
fn http_error_paths_map_to_the_right_status() {
    let trained = trained_model();
    let server = ApiServer::start("127.0.0.1:0", 1, 4, trained.backend_factory()).unwrap();
    let addr = server.addr();

    // oversized head (> 16 KiB of headers) → 413
    let mut big = b"GET /api/health HTTP/1.1\r\n".to_vec();
    big.extend_from_slice(format!("X-Pad: {}\r\n\r\n", "a".repeat(17 * 1024)).as_bytes());
    let resp = raw_request(addr, &big);
    assert!(resp.starts_with("HTTP/1.1 413 "), "{resp}");

    // unknown route → 404
    let resp = raw_request(addr, b"GET /no/such/route HTTP/1.1\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 404 "), "{resp}");

    // known route, wrong method → 405
    let resp = raw_request(addr, b"DELETE /api/generate HTTP/1.1\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 405 "), "{resp}");

    // malformed request line → 400
    let resp = raw_request(addr, b"NOT HTTP\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 400 "), "{resp}");

    server.stop();
}

/// The metric-name contract (DESIGN.md §8): every series a dashboard or
/// the docs name is on `/metrics` once its layer has run. Presence only —
/// the registry is process-wide and this binary's tests run in parallel.
const REQUIRED_SERIES: &[&str] = &[
    "http_requests_total",
    "http_connections_active",
    "http_handler_threads",
    "http_connections_rejected_total",
    "http_accept_errors_total",
    "decode_token_ns",
    "request_queue_wait_ns",
    "tensor_pool_queue_wait_ns",
    "tensor_pool_launches_total",
    "tensor_pool_inline_total",
    "generate_latency_ns",
    "decode_batch_size",
    "decode_kv_hits_total",
    // Labeled twins: model names come from the closed registry, dtypes
    // from the weight set. Histograms carry their labels on the
    // `_count`/`_sum`/`_bucket` lines.
    "decode_batch_size_count{model=\"distilgpt2\"}",
    "decode_kv_hits_total{model=\"distilgpt2\"}",
    "decode_kv_misses_total{model=\"distilgpt2\"}",
    "generate_latency_ns_count{model=\"word-level-lstm\"}",
    "decode_token_ns_sum{model=\"distilgpt2\",dtype=\"f32\"}",
    "decode_token_ns_sum{model=\"distilgpt2-int8\",dtype=\"int8\"}",
    "decode_token_ns_bucket{model=\"distilgpt2-int8\",dtype=\"int8\",le=",
];

/// The rows of DESIGN §8's "What is instrumented" table as
/// `(family, read by)`: the backticked name in the first column and the
/// third column's text.
fn documented_families() -> Vec<(String, String)> {
    let design = include_str!("../DESIGN.md");
    let table = design
        .split_once("**What is instrumented**")
        .expect("DESIGN §8 has the metric table")
        .1;
    table
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2) // the header and its separator
        .map(|row| {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            let cell = |i: usize| cells.get(i).copied().unwrap_or_default();
            (cell(1).trim_matches('`').to_string(), cell(3).to_string())
        })
        .collect()
}

/// What is wrong with `read_by`, the "read by" cell of `family`'s row,
/// if anything. Each backticked name outside parentheses is a reader: a
/// repository file that names the family, or `file::fn` when that file
/// also defines `fn`. A cell with no reader must open with
/// `fault counter:` and name the operator question instead.
fn reader_problem(family: &str, read_by: &str) -> Option<String> {
    let (mut depth, mut ticked, mut readers) = (0usize, None, Vec::new());
    for (i, c) in read_by.char_indices() {
        match (c, ticked) {
            ('`', None) => ticked = Some(i + 1),
            ('`', Some(start)) => {
                if depth == 0 {
                    readers.push(&read_by[start..i]);
                }
                ticked = None;
            }
            ('(', None) => depth += 1,
            (')', None) => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    if readers.is_empty() && !read_by.starts_with("fault counter:") {
        return Some(format!("`{family}` names no reader: {read_by:?}"));
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    for reader in readers {
        let (path, function) = match reader.split_once("::") {
            Some((path, function)) => (path, Some(function)),
            None => (reader, None),
        };
        let Ok(text) = std::fs::read_to_string(root.join(path)) else {
            return Some(format!("`{family}`: reader `{reader}`: no file {path}"));
        };
        if !text.contains(family) {
            return Some(format!("`{family}`: reader `{reader}` never names it"));
        }
        if let Some(f) = function {
            if !text.contains(&format!("fn {f}(")) && !text.contains(&format!("fn {f}<")) {
                return Some(format!("`{family}`: reader `{reader}`: {path} defines no `fn {f}`"));
            }
        }
    }
    None
}

/// The families a scrape declares with `# TYPE` lines.
fn rendered_families(metrics: &str) -> BTreeSet<String> {
    metrics
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE ")?.split(' ').next())
        .map(str::to_string)
        .collect()
}

#[test]
fn healthz_and_metrics_endpoints() {
    // Drive the layers a small LSTM server never reaches. The tensor
    // pool: a 2^21-MAC matmul is the smallest that fans out, and the pool
    // histograms only exist once something has.
    par::set_num_threads(2);
    let a = Tensor::from_vec(vec![0.5f32; 128 * 128], &[128, 128]).unwrap();
    ops::matmul(&a, &a);
    par::set_num_threads(0);
    // Batched decode, the same prompt twice so the second admission
    // adopts the first's blocks: batch size, KV hits and misses.
    let gpt2 = Gpt2Lm::new(Gpt2Config::distil(64));
    let bm = gpt2.batch_model().expect("distil tier is batch-ready");
    let sampler = SamplerConfig {
        max_tokens: 4,
        greedy: true,
        stop_token: None,
        ..SamplerConfig::default()
    };
    let mut engine = BatchGenerator::new(
        bm,
        BatchEngineConfig { block_tokens: 4, num_blocks: 64, max_batch: 2, prefix_cap: 2 },
    );
    for seed in 0..2 {
        let req = BatchRequest { prompt: vec![2, 3, 4, 5, 6], sampler: sampler.clone(), seed };
        let id = engine.admit(req).expect("admit");
        engine.run_to_completion(bm, id).expect("decode");
    }
    // Solo decode in each weight dtype: the per-model, per-dtype series.
    for model in [&gpt2 as &dyn InferenceModel, &gpt2.quantize()] {
        let (meta, series) = (obs::reqtrace::TraceMeta::default(), DecodeSeries::resolve(model));
        generate(model, &[2, 3, 4], &sampler, &mut StdRng::seed_from_u64(7), &meta, &series);
    }

    // Training that writes a checkpoint: the checkpoint-write histogram.
    let mut cfg = PipelineConfig::small();
    cfg.corpus.num_recipes = 80;
    let pipeline = Pipeline::prepare(cfg);
    let checkpoint = std::env::temp_dir().join(format!("healthz-{}.ckpt", std::process::id()));
    let trained = pipeline.train(
        ModelKind::WordLstm,
        Some(TrainConfig {
            steps: 3,
            batch_size: 2,
            checkpoint_path: Some(checkpoint.clone()),
            ..Default::default()
        }),
    );
    std::fs::remove_file(&checkpoint).expect("training wrote its checkpoint");

    let server = ApiServer::start("127.0.0.1:0", 1, 4, trained.backend_factory()).unwrap();
    let client = HttpClient::new(server.addr());

    let (status, body) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, "ok");

    // generate once so decode/serving histograms have samples in-process
    let (status, body) = client
        .post_json("/api/generate", r#"{"ingredients":["flour","water"]}"#)
        .unwrap();
    assert_eq!(status, 200, "{body}");

    let (status, metrics) = client.get("/metrics").unwrap();
    assert_eq!(status, 200);
    let missing: Vec<_> = REQUIRED_SERIES.iter().filter(|s| !metrics.contains(**s)).collect();
    assert!(missing.is_empty(), "missing {missing:?} in:\n{metrics}");
    // Prometheus text exposition shape
    assert!(metrics.contains("# TYPE generate_latency_ns histogram"), "{metrics}");
    assert!(metrics.contains("generate_latency_ns_bucket{le=\"+Inf\"}"), "{metrics}");
    assert!(metrics.contains("generate_latency_ns_sum"), "{metrics}");
    assert!(metrics.contains("generate_latency_ns_count"), "{metrics}");
    // Metric hygiene: the scrape and DESIGN §8's table name the same
    // families, in both directions, one row each, and every row names
    // its reader.
    let rows = documented_families();
    let documented: BTreeSet<String> = rows.iter().map(|(f, _)| f.clone()).collect();
    assert_eq!(documented.len(), rows.len(), "a family has two rows in DESIGN §8's table");
    let rendered = rendered_families(&metrics);
    let undocumented: Vec<_> = rendered.difference(&documented).collect();
    let unrendered: Vec<_> = documented.difference(&rendered).collect();
    assert!(
        undocumented.is_empty() && unrendered.is_empty(),
        "rendered but not in DESIGN §8's table: {undocumented:?}; \
         in the table but never rendered: {unrendered:?}"
    );
    let unread: Vec<_> = rows.iter().filter_map(|(f, r)| reader_problem(f, r)).collect();
    assert!(unread.is_empty(), "DESIGN §8's readers: {unread:#?}");

    server.stop();
}

// ---------------------------------------------------------------------
// Continuous batching over HTTP
// ---------------------------------------------------------------------

/// A small batch-capable model (GPT-2 family; LSTMs have no
/// batch-invariant decode path).
fn trained_gpt2() -> TrainedModel {
    let mut cfg = PipelineConfig::small();
    cfg.corpus.num_recipes = 60;
    let pipeline = Pipeline::prepare(cfg);
    pipeline.train(
        ModelKind::DistilGpt2,
        Some(TrainConfig {
            steps: 2,
            batch_size: 2,
            ..Default::default()
        }),
    )
}

/// Value of a single-sample metric line (`name value`); 0 when absent
/// (metrics register lazily on first touch).
fn metric_value(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Cumulative `decode_batch_size` samples with value ≤ 1 (buckets 0 and
/// 1 are exact; empty buckets are elided from the exposition).
fn batch_size_le1(metrics: &str) -> f64 {
    ["decode_batch_size_bucket{le=\"0\"}", "decode_batch_size_bucket{le=\"1\"}"]
        .iter()
        .map(|b| metric_value(metrics, b))
        .fold(0.0, f64::max) // buckets are cumulative: le="1" ⊇ le="0"
}

/// The recipe fields of a generate response (latency excluded — it is
/// the one legitimately nondeterministic field).
fn recipe_fields(body: &str) -> (String, Vec<String>, Vec<String>, bool) {
    let v = Json::parse(body).unwrap();
    (
        v.get("title").unwrap().as_str().unwrap().to_string(),
        v.get("ingredients").unwrap().as_string_vec(),
        v.get("instructions").unwrap().as_string_vec(),
        v.get("well_formed").unwrap().as_bool().unwrap(),
    )
}

/// The tentpole end to end: N concurrent seeded requests with shared
/// pantry prefixes coalesce into multi-sequence decode steps
/// (`decode_batch_size` p50 > 1), every response is byte-identical to
/// its solo replay, and the prefix cache serves real hits
/// (`decode_kv_hits_total` > 0).
#[test]
fn batched_server_coalesces_and_matches_solo_goldens() {
    let trained = trained_gpt2();
    let factory = trained
        .batched_factory(BatchEngineConfig {
            block_tokens: 4, // short pantry prompts still span full blocks
            num_blocks: 768,
            max_batch: 8,
            prefix_cap: 16,
        })
        .expect("gpt2 is batch-capable");
    let server =
        ApiServer::start_batched("127.0.0.1:0", BatchServerConfig::default(), factory).unwrap();
    let addr = server.addr();
    let client = HttpClient::new(addr);

    let (_, before) = client.get("/metrics").unwrap();

    // Phase 1: six concurrent seeded requests, two shared pantries.
    let pantries = [r#"["flour","water","salt"]"#, r#"["rice","egg"]"#];
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let body = format!(
                r#"{{"ingredients":{},"seed":{}}}"#,
                pantries[i % 2],
                1000 + i
            );
            std::thread::spawn(move || {
                let client = HttpClient::new(addr);
                let (status, resp) = client.post_json("/api/generate", &body).unwrap();
                assert_eq!(status, 200, "{resp}");
                (body, resp)
            })
        })
        .collect();
    let concurrent: Vec<(String, String)> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Phase 2: the requests genuinely shared decode steps.
    let (_, mid) = client.get("/metrics").unwrap();
    let steps = metric_value(&mid, "decode_batch_size_count")
        - metric_value(&before, "decode_batch_size_count");
    let solo_steps = batch_size_le1(&mid) - batch_size_le1(&before);
    assert!(steps > 0.0, "no batched decode steps recorded:\n{mid}");
    assert!(
        solo_steps * 2.0 < steps,
        "decode_batch_size p50 ≤ 1: {solo_steps} of {steps} steps ran solo"
    );

    // Phase 3: solo replays (one at a time) are byte-identical.
    let mut trace_id = String::new();
    for (body, resp) in &concurrent {
        let (status, headers, replay) =
            client.post_json_with_headers("/api/generate", body).unwrap();
        assert_eq!(status, 200, "{replay}");
        assert_eq!(
            recipe_fields(resp),
            recipe_fields(&replay),
            "batched response diverged from solo replay for {body}"
        );
        trace_id = headers
            .into_iter()
            .find_map(|(k, v)| (k == "x-trace-id").then_some(v))
            .expect("x-trace-id header on a traced response");
    }

    // ... and the last one's trace carries the batched lifecycle, which
    // the `K × 1` server (accept → enqueue → admit → respond) never shows.
    let (status, detail) = client.get(&format!("/debug/requests/{trace_id}")).unwrap();
    assert_eq!(status, 200, "{detail}");
    let detail = Json::parse(&detail).unwrap();
    let timeline = detail.get("timeline").and_then(Json::as_array).unwrap();
    fn phase(e: &Json) -> &str {
        e.get("phase").and_then(Json::as_str).unwrap()
    }
    let names: Vec<&str> = timeline.iter().map(phase).collect();
    assert_eq!(names.first(), Some(&"accept"), "{names:?}");
    assert_eq!(names.last(), Some(&"respond"), "{names:?}");
    for required in ["enqueue", "admit", "prefill_chunk", "retire"] {
        assert!(names.contains(&required), "no `{required}` in {names:?}");
    }
    // The handler opens the request's trace before the hand-off, so queue
    // wait is attributable: `enqueue` precedes the engine's `admit`.
    let at = |name: &str| names.iter().position(|&n| n == name);
    let (enqueue, admit) = (at("enqueue"), at("admit"));
    assert!(enqueue < admit, "`enqueue` at {enqueue:?} comes after `admit` at {admit:?}");
    // One decode_step per generated token, numbered in order; a recipe
    // that ends on its stop token has one more, which emits nothing.
    let arg = |name: &str, key: &str| -> Vec<usize> {
        timeline
            .iter()
            .filter(|e| phase(e) == name)
            .map(|e| e.get(key).and_then(Json::as_f64).unwrap() as usize)
            .collect()
    };
    let generated = arg("retire", "tokens_generated")[0];
    let mut expect: Vec<usize> = (1..=generated).collect();
    let steps = arg("decode_step", "tokens_out");
    if steps.len() > generated {
        expect.push(generated);
    }
    assert!(generated > 0 && steps == expect, "{generated} tokens from steps {steps:?}");

    // Phase 4: shared pantry prefixes hit the KV cache (the replays
    // decode against the prefixes phase 1 registered).
    let (_, after) = client.get("/metrics").unwrap();
    let hits = metric_value(&after, "decode_kv_hits_total")
        - metric_value(&before, "decode_kv_hits_total");
    assert!(hits > 0.0, "no shared-prefix KV hits:\n{after}");

    server.stop();
}

/// A pool too small for even one worst-case request is a definitive
/// capacity error: HTTP 429, not a hang and not a 500.
#[test]
fn batched_server_returns_429_when_the_kv_pool_cannot_fit_a_request() {
    let trained = trained_gpt2();
    let factory = trained
        .batched_factory(BatchEngineConfig {
            block_tokens: 4,
            num_blocks: 4, // 16 tokens of KV — far below prompt + budget
            max_batch: 2,
            prefix_cap: 4,
        })
        .expect("gpt2 is batch-capable");
    let server =
        ApiServer::start_batched("127.0.0.1:0", BatchServerConfig::default(), factory).unwrap();
    let client = HttpClient::new(server.addr());

    let (status, body) = client
        .post_json("/api/generate", r#"{"ingredients":["flour","water"],"seed":1}"#)
        .unwrap();
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("error"), "{body}");

    // The server stays healthy after rejecting.
    let (status, _) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);

    server.stop();
}

/// The connection bound sits above what the engine can hold: a burst of
/// exactly `queue_cap + slots` generates is answered by the engine (200,
/// its 429 or its queue's 503), never by the acceptor's connection 503.
#[test]
fn burst_of_engine_capacity_is_never_refused_by_the_connection_bound() {
    let (queue_cap, slots) = (24, 8);
    let trained = trained_gpt2();
    let factory = trained
        .batched_factory(BatchEngineConfig {
            block_tokens: 4,
            num_blocks: 768,
            max_batch: slots,
            prefix_cap: 16,
        })
        .expect("gpt2 is batch-capable");
    let server =
        ApiServer::start_batched("127.0.0.1:0", BatchServerConfig { queue_cap }, factory).unwrap();
    let addr = server.addr();
    let (_, before) = HttpClient::new(addr).get("/metrics").unwrap();

    let start = std::sync::Arc::new(std::sync::Barrier::new(queue_cap + slots));
    let clients: Vec<_> = (0..queue_cap + slots)
        .map(|i| {
            let start = std::sync::Arc::clone(&start);
            std::thread::spawn(move || {
                let body = format!(r#"{{"ingredients":["rice","egg"],"seed":{i}}}"#);
                start.wait();
                HttpClient::new(addr).post_json("/api/generate", &body).unwrap()
            })
        })
        .collect();
    for c in clients {
        let (status, body) = c.join().unwrap();
        assert!(matches!(status, 200 | 429 | 503), "{status}: {body}");
        assert!(!body.contains("connection limit"), "{status}: {body}");
    }

    let (_, after) = HttpClient::new(addr).get("/metrics").unwrap();
    let name = "http_connections_rejected_total";
    assert_eq!(metric_value(&after, name), metric_value(&before, name), "{after}");
    server.stop();
}
