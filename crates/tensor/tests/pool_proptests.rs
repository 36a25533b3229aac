//! Property tests for the persistent worker pool and the blocked matmul
//! family: for any shape and any thread count, pooled kernels must be
//! **bit-for-bit** identical to the single-threaded result, and the pool
//! must survive nested and repeated launches without deadlocking.
//!
//! These pin the determinism contract the golden tests in
//! `tests/determinism.rs` rely on: `set_num_threads` is a performance
//! knob, never a numerics knob.
//!
//! `par` only fans a kernel out once it carries enough arithmetic to pay
//! for a launch, so the random small shapes below mostly pin the inline
//! path; `kernels_bits_invariant_around_the_launch_gate` sweeps fixed
//! shapes from just under one task's worth of work to several tasks'
//! worth, where the chunking really changes with the thread count.

use ratatouille_util::proptest::prelude::*;
use ratatouille_util::rng::{Rng, RngExt, SeedableRng, StdRng};
use ratatouille_tensor::{ops, par, Tensor, Var};
use std::sync::{Mutex, MutexGuard};

/// `par::set_num_threads` is process-global and the test harness runs
/// tests concurrently, so every property that sweeps the knob serializes
/// on this lock (recovering it if a failing case poisoned it).
static THREAD_KNOB: Mutex<()> = Mutex::new(());

fn knob() -> MutexGuard<'static, ()> {
    THREAD_KNOB.lock().unwrap_or_else(|e| e.into_inner())
}

const SWEEP: [usize; 4] = [2, 3, 4, 7];

/// Per-index work that clears `par`'s launch gate whatever its value, so
/// the pool-mechanics properties really launch.
const HEAVY: usize = usize::MAX;

fn assert_bits_equal(serial: &Tensor, parallel: &Tensor, what: &str, threads: usize) {
    assert_eq!(serial.dims(), parallel.dims());
    for (i, (a, b)) in serial.data().iter().zip(parallel.data()).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "{what}: bit mismatch at {i} with {threads} threads: {a} vs {b}"
        );
    }
}

/// Random rank-2 operand pair for `A[m,k] @ B[k,n]`, spanning the
/// unpacked small-m path, the packed/blocked path, and row counts that
/// split unevenly across 2/3/4/7 workers.
fn mm_operands() -> impl Strategy<Value = (Tensor, Tensor)> {
    (1usize..40, 1usize..48, 1usize..40).prop_flat_map(|(m, k, n)| {
        (
            collection::vec(-4.0f32..4.0, m * k..=m * k),
            collection::vec(-4.0f32..4.0, k * n..=k * n),
        )
            .prop_map(move |(a, b)| {
                (
                    Tensor::from_vec(a, &[m, k]).unwrap(),
                    Tensor::from_vec(b, &[k, n]).unwrap(),
                )
            })
    })
}

proptest! {
    cases = 48;

    /// `matmul` is bit-identical for thread counts {2, 3, 4, 7} vs 1.
    #[test]
    fn matmul_bits_invariant_across_thread_counts((a, b) in mm_operands()) {
        let _g = knob();
        par::set_num_threads(1);
        let serial = ops::matmul(&a, &b);
        for &t in &SWEEP {
            par::set_num_threads(t);
            let parallel = ops::matmul(&a, &b);
            assert_bits_equal(&serial, &parallel, "matmul", t);
        }
        par::set_num_threads(0);
    }

    /// `matmul_transb` (including the m == 1 column-parallel decode path)
    /// is bit-identical across thread counts.
    #[test]
    fn matmul_transb_bits_invariant((a, b) in mm_operands()) {
        // reinterpret: a [m,k] @ (b' [n,k])ᵀ where b' is b reshaped
        let (k, n) = (b.dims()[0], b.dims()[1]);
        let bt = b.reshape(&[n, k]);
        let _g = knob();
        par::set_num_threads(1);
        let serial = ops::matmul_transb(&a, &bt);
        for &t in &SWEEP {
            par::set_num_threads(t);
            let parallel = ops::matmul_transb(&a, &bt);
            assert_bits_equal(&serial, &parallel, "matmul_transb", t);
        }
        par::set_num_threads(0);
    }

    /// `matmul_transa` is bit-identical across thread counts.
    #[test]
    fn matmul_transa_bits_invariant((a, b) in mm_operands()) {
        // reinterpret: (a' [k,m])ᵀ @ b [k,n] where a' is a reshaped
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let at = a.reshape(&[k, m]);
        let _g = knob();
        par::set_num_threads(1);
        let serial = ops::matmul_transa(&at, &b);
        for &t in &SWEEP {
            par::set_num_threads(t);
            let parallel = ops::matmul_transa(&at, &b);
            assert_bits_equal(&serial, &parallel, "matmul_transa", t);
        }
        par::set_num_threads(0);
    }

    /// The fused attention is bit-identical across thread counts, at head
    /// widths on both sides of the 16-wide tile, with and without a window.
    #[test]
    fn fused_attention_bits_invariant(
        bt in 1usize..4, heads in 1usize..3, t in 1usize..40, di in 0usize..6, window in 0usize..40, salt in 0u64..1 << 20
    ) {
        let window = (window > 0).then(|| window.min(t));
        assert_attention_bits_invariant(bt, heads, t, [1, 5, 8, 16, 32, 40][di], window, salt);
    }

    /// Repeated pool launches with varying lengths cover every index
    /// exactly once, at any thread count (pool reuse is leak/deadlock free).
    #[test]
    fn repeated_pool_launches_cover_exactly_once(len in 1usize..600, threads in 1usize..8) {
        let _g = knob();
        par::set_num_threads(threads);
        for _ in 0..4 {
            let mut hits = vec![0u8; len];
            par::parallel_rows_mut(&mut hits, len, 1, HEAVY, |range, chunk| {
                assert_eq!(range.len(), chunk.len());
                for h in chunk {
                    *h += 1;
                }
            });
            assert!(hits.iter().all(|&c| c == 1));
        }
        par::set_num_threads(0);
    }

    /// Nested launches (a parallel kernel called from inside a pool task)
    /// complete without deadlock and still cover every index once.
    #[test]
    fn nested_pool_launches_terminate(len in 2usize..300, threads in 2usize..8) {
        let _g = knob();
        par::set_num_threads(threads);
        let mut hits = vec![0u8; len];
        par::parallel_rows_mut(&mut hits, len, 1, HEAVY, |_, outer| {
            par::parallel_rows_mut(outer, outer.len(), 1, HEAVY, |_, inner| {
                for h in inner {
                    *h += 1;
                }
            });
        });
        assert!(hits.iter().all(|&c| c == 1));
        par::set_num_threads(0);
    }
}

/// The fused training attention (`Var::causal_attention`) at 2 and 3
/// threads against 1: the context, the gradient of the packed `qkv` rows
/// and the RNG's next draw, bit for bit. `(batch, heads, t, dh, window)`.
fn assert_attention_bits_invariant(batch: usize, heads: usize, t: usize, dh: usize, window: Option<usize>, salt: u64) {
    let mut rng = StdRng::seed_from_u64(salt);
    let d = heads * dh;
    let mut values = |n: usize| (0..n).map(|_| rng.random::<f32>() * 4.0 - 2.0).collect::<Vec<f32>>();
    let qkv = Tensor::from_vec(values(batch * t * 3 * d), &[batch * t, 3 * d]).unwrap();
    let g = Tensor::from_vec(values(batch * t * d), &[batch * t, d]).unwrap();
    let bits = |t: Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    let run = |threads: usize| {
        par::set_num_threads(threads);
        let mut rng = StdRng::seed_from_u64(salt ^ 0xD40);
        let x = Var::leaf(qkv.clone());
        let y = x.causal_attention(batch, heads, window, 0.1, &mut rng);
        y.backward_with(g.clone());
        (bits(y.value()), bits(x.grad().unwrap()), rng.next_u64())
    };
    let _g = knob();
    let serial = run(1);
    for threads in [2, 3] {
        assert!(run(threads) == serial, "attention [{batch}·{heads}, {t}, {dh}] window {window:?} changed at {threads} threads");
    }
    par::set_num_threads(0);
}

/// The fused attention at shapes whose work really fans out: lanes of
/// whole batch rows, a windowed call whose batch rows do not divide
/// evenly into three lanes, and one batch row cut into single matrices.
#[test]
fn fused_attention_bits_invariant_above_the_launch_gate() {
    let launches = obs::metrics::counter("tensor_pool_launches_total");
    let before = launches.get();
    assert_attention_bits_invariant(8, 2, 128, 32, None, 1);
    assert_attention_bits_invariant(4, 4, 96, 24, Some(40), 2);
    assert_attention_bits_invariant(1, 4, 128, 32, None, 3);
    assert!(launches.get() > before, "the fused attention never launched the pool");
}

/// A deep nested-launch chain (pool inside pool inside pool) and a
/// matmul launched from inside a pool task: the inline-when-nested rule
/// means neither can exhaust or deadlock the pool.
#[test]
fn deeply_nested_launches_and_kernels_survive() {
    let _g = knob();
    par::set_num_threads(4);
    let a = Tensor::from_vec((0..32 * 24).map(|i| (i % 11) as f32 * 0.3).collect(), &[32, 24])
        .unwrap();
    let b = Tensor::from_vec((0..24 * 20).map(|i| (i % 7) as f32 * 0.5).collect(), &[24, 20])
        .unwrap();
    par::set_num_threads(1);
    let expect = ops::matmul(&a, &b);
    par::set_num_threads(4);
    let mut done = [0u8; 8];
    par::parallel_rows_mut(&mut done, 8, 1, HEAVY, |_, chunk| {
        for d in chunk {
            // kernel launch from inside a pool task runs inline
            let c = ops::matmul(&a, &b);
            assert_bits_equal(&expect, &c, "nested matmul", 4);
            par::parallel_rows_mut(&mut [0u8; 16], 16, 1, HEAVY, |_, outer| {
                par::parallel_rows_mut(outer, outer.len(), 1, HEAVY, |_, _| {});
            });
            *d += 1;
        }
    });
    assert!(done.iter().all(|&d| d == 1));
    par::set_num_threads(0);
}

/// Deterministic operand of the given shape (values in about ±2).
fn operand(dims: &[usize], salt: usize) -> Tensor {
    let n: usize = dims.iter().product();
    let data = (0..n)
        .map(|i| ((i * 31 + salt * 17) % 257) as f32 * (4.0 / 257.0) - 2.0)
        .collect();
    Tensor::from_vec(data, dims).unwrap()
}

/// Every pooled kernel at shapes straddling the launch gate (about 2^20
/// multiply-accumulates per task): below it the call is inline at any
/// thread count, above it the number of chunks follows first the work
/// and then the thread count — and none of that may change a bit.
#[test]
fn kernels_bits_invariant_around_the_launch_gate() {
    let _g = knob();
    // (m, k, n): 0.5x, ~1x, 2x, 3x and 8x one task's worth of work.
    let gemm_shapes = [(64, 64, 128), (96, 128, 88), (128, 128, 128), (200, 96, 168), (256, 256, 128)];
    // Single-row decode shapes (column-parallel paths): 0.5x, 2x, 5x.
    let gemv_shapes = [(1, 128, 4096), (1, 256, 8192), (1, 160, 33_000)];
    for &(m, k, n) in gemm_shapes.iter().chain(&gemv_shapes) {
        let a = operand(&[m, k], 1);
        let b = operand(&[k, n], 2);
        let bt = operand(&[n, k], 3);
        let at = operand(&[k, m], 4);
        let q = ops::quantize_per_row(&bt);
        let run = || {
            (
                ops::matmul(&a, &b),
                ops::matmul_transb(&a, &bt),
                ops::matmul_transa(&at, &b),
                ops::qmatmul_transb(&a, &q),
                ops::quantize_per_row(&bt),
            )
        };
        par::set_num_threads(1);
        let serial = run();
        for &t in &SWEEP {
            par::set_num_threads(t);
            let parallel = run();
            let what = format!("{m}x{k}x{n}");
            assert_bits_equal(&serial.0, &parallel.0, &format!("matmul {what}"), t);
            assert_bits_equal(&serial.1, &parallel.1, &format!("matmul_transb {what}"), t);
            assert_bits_equal(&serial.2, &parallel.2, &format!("matmul_transa {what}"), t);
            assert_bits_equal(&serial.3, &parallel.3, &format!("qmatmul_transb {what}"), t);
            assert_eq!(serial.4.codes(), parallel.4.codes(), "quantize {what} at {t}");
        }
    }
    par::set_num_threads(0);
}
