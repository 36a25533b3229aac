//! **Serving throughput vs replica count** — the paper's scaling story
//! ("if load increase then developer only need to replicate the docker"),
//! measured on the real engine (`K × 1`) + HTTP path with a small LSTM
//! replica per engine thread.

use std::sync::Arc;

use ratatouille_util::bench::{Bench, BenchmarkId, Throughput};
use ratatouille_util::{bench_group, bench_main};
use ratatouille::backend::ModelBackend;
use ratatouille::models::registry::ModelKind;
use ratatouille::models::sample::SamplerConfig;
use ratatouille::recipedb::corpus::{Corpus, CorpusConfig};
use ratatouille::serving::api::{ApiServer, RecipeBackend, RecipeBackendFactory};
use ratatouille::serving::client::HttpClient;
use ratatouille::tokenizers::Tokenizer;
use ratatouille_tensor::serialize::TensorMap;

/// A factory of small, fast LSTM replicas (12-token budget keeps each
/// request ~1 ms so the pool/HTTP overhead is what's measured).
fn fast_factory() -> RecipeBackendFactory {
    let corpus = Corpus::generate(CorpusConfig {
        num_recipes: 60,
        ..CorpusConfig::default()
    });
    let texts: Vec<String> = corpus.recipes.iter().map(|r| r.to_tagged_string()).collect();
    let spec = ratatouille::models::registry::ModelSpec::build(ModelKind::WordLstm, &texts);
    let weights = ratatouille::backend::weights_map(spec.model.as_ref());
    let tokenizer: Arc<dyn Tokenizer> = Arc::from(spec.tokenizer.clone_box());
    let weights: Arc<TensorMap> = Arc::new(weights);
    Arc::new(move |wi| {
        let mut backend = ModelBackend::from_weights(
            ModelKind::WordLstm,
            tokenizer.as_ref(),
            &weights,
            SamplerConfig {
                max_tokens: 12,
                ..SamplerConfig::default()
            },
            wi as u64,
        );
        backend.set_max_tokens(12); // ~1 ms/request: measure pool+HTTP overhead
        Box::new(backend) as Box<dyn RecipeBackend>
    })
}

fn bench_workers(c: &mut Bench) {
    let factory = fast_factory();
    let mut group = c.benchmark_group("serving_throughput");
    group.sample_size(10);
    const BATCH: usize = 16;
    group.throughput(Throughput::Elements(BATCH as u64));
    for workers in [1usize, 2, 4] {
        let server = ApiServer::start("127.0.0.1:0", workers, 64, Arc::clone(&factory))
            .expect("server boot");
        let addr = server.addr();
        group.bench_function(BenchmarkId::new("workers", workers), |b| {
            b.iter(|| {
                // BATCH concurrent requests, measuring completion of all
                let handles: Vec<_> = (0..BATCH)
                    .map(|_| {
                        std::thread::spawn(move || {
                            let client = HttpClient::new(addr);
                            let (status, _body) = client
                                .post_json(
                                    "/api/generate",
                                    r#"{"ingredients":["flour","water"]}"#,
                                )
                                .expect("request");
                            assert_eq!(status, 200);
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().unwrap();
                }
            })
        });
        server.stop();
    }
    group.finish();
}

bench_group!(
    benches, bench_workers);
bench_main!(benches);
