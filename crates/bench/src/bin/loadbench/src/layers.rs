//! The per-layer side of a traced run: probes of single layers, and the
//! program's own `/metrics` series read as differences around a pass.

use std::collections::BTreeMap;
use std::net::SocketAddr;

use crate::prom::Scrape;
use crate::stats::median;
use crate::sut::{self, Fixture, ProbeCtx, Scale};

/// Every per-layer metric and its unit, in report order; the list in
/// `BENCHMARK.json` is this one. Layer = crate.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("recipedb.corpus_generate_ms", "ms"),
    ("recipedb.preprocess_ms", "ms"),
    ("tokenizers.bpe_train_ms", "ms"),
    ("tokenizers.encode_mb_per_s", "MB/s"),
    ("tokenizers.encode_us_per_prompt", "us"),
    ("tokenizers.decode_us_per_recipe", "us"),
    ("tensor.gemv_f32_us.128x512", "us"),
    ("tensor.lmhead_f32_us.128x384", "us"),
    ("tensor.gemv_f32_gbps", "GB/s"),
    ("tensor.gemv_i8_us.128x512", "us"),
    ("tensor.quantize_ms.medium", "ms"),
    ("tensor.gemm_b8_us.128x512", "us"),
    ("tensor.gemm_train_gflops.1024x128x512", "GFLOP/s"),
    ("tensor.gemm_transa_gflops.1024x128x512", "GFLOP/s"),
    ("tensor.pool_launch_us", "us"),
    ("tensor.matmul_busy_share", "share"),
    ("tensor.pool_queue_wait_p95_us", "us"),
    ("models.prefill_ms.p16", "ms"),
    ("models.prefill_ms.p64", "ms"),
    ("models.decode_token_us.f32", "us"),
    ("models.decode_token_us.int8", "us"),
    ("models.batch_step_us.b1", "us"),
    ("models.batch_step_us.b4", "us"),
    ("models.batch_step_us.b8", "us"),
    ("models.batch_admit_us.hit", "us"),
    ("models.batch_admit_us.miss", "us"),
    ("models.kv_hit_share", "share"),
    ("models.kv_blocks_peak_share", "share"),
    ("models.batch_occupancy", "share"),
    ("models.steps_per_recipe", "count"),
    ("models.train_step_mean_ms", "ms"),
    ("models.train_tokens_per_s", "tokens/s"),
    ("serving.http_parse_us", "us"),
    ("serving.json_parse_us", "us"),
    ("serving.json_render_us", "us"),
    ("serving.router_dispatch_us", "us"),
    ("serving.http_roundtrip_p50_ms", "ms"),
    ("serving.overhead_p50_ms", "ms"),
    ("serving.queue_wait_p50_ms", "ms"),
    ("serving.queue_wait_p95_ms", "ms"),
    ("serving.batch_size_mean", "count"),
    ("serving.rejected_share", "share"),
    ("ratatouille.backend_build_ms.pooled", "ms"),
    ("ratatouille.backend_build_ms.batched", "ms"),
    ("ratatouille.generate_solo_ms.f32", "ms"),
    ("ratatouille.generate_solo_ms.int8", "ms"),
    ("ratatouille.admit_us", "us"),
    ("ratatouille.retire_step_extra_us", "us"),
    ("eval.validate_us_per_recipe", "us"),
    ("obs.render_prometheus_us", "us"),
    ("obs.histogram_observe_ns", "ns"),
    ("obs.reqtrace_record_ns", "ns"),
    ("obs.trace_overhead_share", "share"),
    ("bench.generator_lag_p95_ms", "ms"),
    ("bench.client_cpu_share", "share"),
    ("bench.out_tokens_per_s", "tokens/s"),
    ("bench.unattributed_share", "share"),
];

pub type LayerValues = BTreeMap<&'static str, f64>;

/// Time each layer's public functions from outside; the median call of
/// each probe becomes its metric. `addr` is any booted server.
pub fn run_probes(fx: &Fixture, addr: SocketAddr, out: &mut LayerValues) {
    let ctx = ProbeCtx::new(fx);
    for mut probe in sut::probes(fx, &ctx) {
        (probe.run)(); // warm-up call, not counted
        let secs = median(
            (0..probe.iters)
                .map(|_| (probe.run)().as_secs_f64())
                .collect(),
        );
        let value = match probe.scale {
            Scale::Time(factor) => secs * factor,
            Scale::Rate(work) => work / secs.max(1e-12),
        };
        println!(
            "probe {:<44} {value:>12.4} {} n={}",
            probe.metric, probe.unit, probe.iters
        );
        out.insert(probe.metric, value);
    }
    out.insert(
        "ratatouille.retire_step_extra_us",
        sut::retire_step_extra_us(fx, &ctx),
    );
    out.insert(
        "serving.http_roundtrip_p50_ms",
        crate::served::healthz_roundtrip_p50_ms(addr),
    );
}

/// What the program's own series say about one pass: `delta` is the
/// `/metrics` reading after the pass minus the one before it.
pub fn from_delta(delta: &Scrape, wall_s: f64, completed: usize, out: &mut LayerValues) {
    let matmul_ns = delta.get("tensor_matmul_ns_sum") + delta.get("tensor_qmatmul_ns_sum");
    // Calls on several threads overlap, so this can exceed 1.
    out.insert("tensor.matmul_busy_share", matmul_ns / (wall_s * 1e9));
    out.insert(
        "tensor.pool_queue_wait_p95_us",
        delta.histogram_quantile("tensor_pool_queue_wait_ns", 0.95) / 1e3,
    );
    let hits = delta.sum_labeled("decode_kv_hits_total");
    let misses = delta.sum_labeled("decode_kv_misses_total");
    out.insert(
        "models.kv_hit_share",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    out.insert(
        "serving.queue_wait_p50_ms",
        delta.histogram_quantile("request_queue_wait_ns", 0.5) / 1e6,
    );
    out.insert(
        "serving.queue_wait_p95_ms",
        delta.histogram_quantile("request_queue_wait_ns", 0.95) / 1e6,
    );
    let batch_mean = delta.histogram_mean("decode_batch_size");
    out.insert("serving.batch_size_mean", batch_mean);
    // One `decode_batch_size` observation per engine step; the offline
    // driver overrides these two with its own exact counts.
    let steps = delta.get("decode_batch_size_count");
    out.insert(
        "models.batch_occupancy",
        batch_mean / sut::max_batch() as f64,
    );
    out.insert(
        "models.steps_per_recipe",
        if completed > 0 {
            steps / completed as f64
        } else {
            0.0
        },
    );
}
