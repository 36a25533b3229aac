//! **Observability smoke check** — boots the full serving stack, drives
//! every instrumented layer (pooled tensor kernels, training, decode,
//! HTTP), scrapes `GET /metrics`, and fails loudly if any required metric
//! family is missing from the Prometheus exposition.
//!
//! Run by `scripts/ci.sh`; also useful standalone:
//!
//! ```text
//! cargo run --release -p ratatouille-bench --bin metrics_smoke
//! ```

use ratatouille::models::batch::{BatchEngineConfig, BatchGenerator, BatchRequest};
use ratatouille::models::gpt2::{Gpt2Config, Gpt2Lm};
use ratatouille::models::registry::ModelKind;
use ratatouille::models::sample::SamplerConfig;
use ratatouille::models::train::TrainConfig;
use ratatouille::models::InferenceModel;
use ratatouille::serving::api::ApiServer;
use ratatouille::serving::client::HttpClient;
use ratatouille::{Pipeline, PipelineConfig};
use ratatouille_tensor::{ops, par, Tensor};

/// Metric families the ISSUE acceptance criteria require on `/metrics`.
const REQUIRED: &[&str] = &[
    "http_requests_total",
    "http_request_ns",
    "http_connections_active",
    "http_handler_threads",
    "http_connections_rejected_total",
    "http_accept_errors_total",
    "decode_token_ns",
    "request_queue_wait_ns",
    "serving_exec_ns",
    "tensor_pool_queue_wait_ns",
    "tensor_pool_launches_total",
    "tensor_pool_inline_total",
    "tensor_matmul_gflops",
    "train_tokens_per_sec",
    "generate_latency_ns",
    "attend_ns",
    "decode_batch_size",
    "decode_kv_hits_total",
];

/// Labeled series the per-model batch metrics must expose (inline-label
/// twins of the aggregates; the model name comes from the closed
/// registry, so cardinality stays bounded). Histograms render their
/// label set on the `_count`/`_sum`/`_bucket` lines, so probe `_count`.
const REQUIRED_LABELED: &[&str] = &[
    "decode_batch_size_count{model=\"distilgpt2\"}",
    "decode_kv_hits_total{model=\"distilgpt2\"}",
    "decode_kv_misses_total{model=\"distilgpt2\"}",
    "train_tokens_per_sec{model=\"word-level-lstm\"}",
    "generate_latency_ns_count{model=\"word-level-lstm\"}",
    "gpt2_push_ns_count{dtype=\"f32\"}",
    "gpt2_push_ns_count{dtype=\"int8\"}",
];

fn main() {
    // 1. Force a pooled matmul so the tensor worker-pool histograms have
    //    samples even on small serving models (which decode inline), and
    //    a decode-sized one the launch gate keeps inline, so both sides
    //    of the gate show on `/metrics`.
    par::set_num_threads(2);
    let n = 128;
    let a = Tensor::from_vec(vec![0.5f32; n * n], &[n, n]).expect("square tensor");
    let launches = obs::metrics::counter("tensor_pool_launches_total");
    let inlined = obs::metrics::counter("tensor_pool_inline_total");
    let (launched_before, inlined_before) = (launches.get(), inlined.get());
    let c = ops::matmul(&a, &a);
    assert_eq!(c.dims(), &[n, n]);
    assert_eq!(launches.get(), launched_before + 1, "2·2^20-MAC matmul must fan out");
    let row = Tensor::from_vec(vec![0.5f32; n], &[1, n]).expect("row tensor");
    let c = ops::matmul_transb(&row, &a);
    assert_eq!(c.dims(), &[1, n]);
    assert_eq!(launches.get(), launched_before + 1, "decode-sized GEMV must stay inline");
    assert_eq!(inlined.get(), inlined_before + 1, "the elided launch must be counted");
    par::set_num_threads(0);

    // 1b. One tiny batched decode so the paged-attention histogram and
    //     the per-model labeled batch metrics have samples.
    eprintln!("[metrics_smoke] batched decode for attend_ns + labeled batch metrics…");
    let gpt2 = Gpt2Lm::new(Gpt2Config::distil(64));
    let bm = gpt2.batch_model().expect("distil tier is batch-ready");
    let mut engine = BatchGenerator::new(
        bm,
        BatchEngineConfig {
            block_tokens: 4,
            num_blocks: 64,
            max_batch: 2,
            prefix_cap: 2,
        },
    );
    for seed in 0..2u64 {
        let id = engine
            .admit(BatchRequest {
                prompt: vec![2, 3, 4, 5, 6],
                sampler: SamplerConfig {
                    max_tokens: 4,
                    greedy: true,
                    stop_token: None,
                    ..SamplerConfig::default()
                },
                seed,
            })
            .expect("admit");
        engine.run_to_completion(bm, id).expect("decode");
    }
    assert!(
        obs::static_histogram!("attend_ns").count() > 0,
        "batched decode did not populate attend_ns"
    );
    // One solo push per weight dtype, for the per-dtype stream series.
    gpt2.start_stream().push(2);
    gpt2.quantize().start_stream().push(2);

    // 2. Train a tiny model (populates train_* metrics) and serve it.
    eprintln!("[metrics_smoke] training a tiny serving model…");
    let mut cfg = PipelineConfig::small();
    cfg.corpus.num_recipes = 80;
    let pipeline = Pipeline::prepare(cfg);
    let trained = pipeline.train(
        ModelKind::WordLstm,
        Some(TrainConfig {
            steps: 3,
            batch_size: 2,
            ..Default::default()
        }),
    );

    let server =
        ApiServer::start("127.0.0.1:0", 2, 8, trained.backend_factory()).expect("server boot");
    let client = HttpClient::new(server.addr());

    // 3. Drive the request path: liveness, one generation (populates the
    //    decode + serving-queue histograms), then scrape.
    let (status, body) = client.get("/healthz").expect("healthz");
    assert_eq!(status, 200, "healthz: {body}");
    assert_eq!(body, "ok", "healthz body");

    let (status, body) = client
        .post_json("/api/generate", r#"{"ingredients":["flour","water"]}"#)
        .expect("generate");
    assert_eq!(status, 200, "generate: {body}");

    let (status, metrics) = client.get("/metrics").expect("metrics scrape");
    assert_eq!(status, 200, "metrics status");

    let missing: Vec<&str> = REQUIRED
        .iter()
        .copied()
        .filter(|name| !metrics.contains(name))
        .collect();
    if !missing.is_empty() {
        eprintln!("---- /metrics exposition ----\n{metrics}\n----");
        eprintln!("[metrics_smoke] FAIL — missing metric families: {missing:?}");
        std::process::exit(1);
    }

    let missing_labeled: Vec<&str> = REQUIRED_LABELED
        .iter()
        .copied()
        .filter(|series| !metrics.contains(series))
        .collect();
    if !missing_labeled.is_empty() {
        eprintln!("---- /metrics exposition ----\n{metrics}\n----");
        eprintln!("[metrics_smoke] FAIL — missing labeled series: {missing_labeled:?}");
        std::process::exit(1);
    }

    // Histogram exposition shape: cumulative buckets + sum + count.
    for probe in ["http_request_ns_bucket{le=", "http_request_ns_sum", "http_request_ns_count"] {
        assert!(metrics.contains(probe), "exposition missing `{probe}`");
    }

    let families = metrics.matches("# TYPE ").count();
    println!("[metrics_smoke] OK — {families} metric families exposed, all required present");
    server.stop();
}
