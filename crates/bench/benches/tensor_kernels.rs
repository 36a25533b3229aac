//! Microbenchmarks of the tensor substrate's hot kernels — the operations
//! that dominate training wall-clock (and therefore the CPU-vs-parallel
//! experiment): matmul, softmax, layer norm, and a full autograd step.

use ratatouille_util::bench::{Bench, BenchmarkId, Throughput};
use ratatouille_util::{bench_group, bench_main};
use ratatouille_util::rng::StdRng;
use ratatouille_util::rng::SeedableRng;
use ratatouille_tensor::{init, ops, par, Var};

fn bench_matmul(c: &mut Bench) {
    let mut rng = StdRng::seed_from_u64(0);
    let mut group = c.benchmark_group("matmul");
    for &n in &[64usize, 128, 256] {
        let a = init::randn(&mut rng, &[n, n], 1.0);
        let b = init::randn(&mut rng, &[n, n], 1.0);
        group.throughput(Throughput::Elements((2 * n * n * n) as u64));
        group.bench_function(BenchmarkId::new("square", n), |bch| {
            bch.iter(|| ops::matmul(std::hint::black_box(&a), std::hint::black_box(&b)))
        });
    }
    group.finish();
}

fn bench_matmul_threads(c: &mut Bench) {
    let mut rng = StdRng::seed_from_u64(0);
    let n = 256;
    let a = init::randn(&mut rng, &[n, n], 1.0);
    let b = init::randn(&mut rng, &[n, n], 1.0);
    let mut group = c.benchmark_group("matmul_threads");
    for &threads in &[1usize, 2, 4, 8] {
        group.bench_function(BenchmarkId::new("256x256", threads), |bch| {
            par::set_num_threads(threads);
            bch.iter(|| ops::matmul(std::hint::black_box(&a), std::hint::black_box(&b)));
            par::set_num_threads(0);
        });
    }
    group.finish();
}

fn bench_softmax_layernorm(c: &mut Bench) {
    let mut rng = StdRng::seed_from_u64(1);
    let x = init::randn(&mut rng, &[64, 512], 1.0);
    let g = init::randn(&mut rng, &[512], 0.1);
    let beta = init::randn(&mut rng, &[512], 0.1);
    let scores = init::randn(&mut rng, &[8, 64, 64], 1.0);
    c.bench_function("softmax_last_64x512", |b| {
        b.iter(|| ops::softmax_last(std::hint::black_box(&x)))
    });
    c.bench_function("causal_masked_softmax_8x64x64", |b| {
        b.iter(|| ops::causal_masked_softmax(std::hint::black_box(&scores)))
    });
    c.bench_function("layer_norm_64x512", |b| {
        b.iter(|| ops::layer_norm(std::hint::black_box(&x), &g, &beta, 1e-5))
    });
}

fn bench_decode_gemv(c: &mut Bench) {
    // The per-token unembedding: [1, D] @ [V, D]^T — the single largest
    // matmul in the incremental decode path.
    let mut rng = StdRng::seed_from_u64(3);
    let x = init::randn(&mut rng, &[1, 128], 1.0);
    let w = init::randn(&mut rng, &[4096, 128], 0.02);
    c.bench_function("matmul_transb_decode_1x128x4096", |b| {
        b.iter(|| ops::matmul_transb(std::hint::black_box(&x), std::hint::black_box(&w)))
    });
}

fn bench_pool_launch(c: &mut Bench) {
    // Fixed cost of one parallel region on the persistent pool: dominates
    // small kernels, so it bounds how fine-grained parallelism can get.
    let mut group = c.benchmark_group("pool_launch");
    for &threads in &[2usize, 4] {
        group.bench_function(BenchmarkId::new("noop", threads), |bch| {
            par::set_num_threads(threads);
            bch.iter(|| {
                par::run_tasks(threads, |i| {
                    std::hint::black_box(i);
                })
            });
            par::set_num_threads(0);
        });
    }
    group.finish();
}

fn bench_autograd_step(c: &mut Bench) {
    // forward+backward through a 2-layer MLP: the autograd tape overhead
    let mut rng = StdRng::seed_from_u64(2);
    let w1 = Var::leaf(init::xavier_uniform(&mut rng, 128, 256));
    let w2 = Var::leaf(init::xavier_uniform(&mut rng, 256, 128));
    let x = Var::constant(init::randn(&mut rng, &[32, 128], 1.0));
    c.bench_function("mlp_forward_backward_32x128", |b| {
        b.iter(|| {
            w1.zero_grad();
            w2.zero_grad();
            let loss = x.matmul(&w1).gelu().matmul(&w2).mean();
            loss.backward();
            std::hint::black_box(w1.grad());
        })
    });
}

bench_group!(
    benches,
    bench_matmul,
    bench_matmul_threads,
    bench_softmax_layernorm,
    bench_decode_gemv,
    bench_pool_launch,
    bench_autograd_step
);
bench_main!(benches);
