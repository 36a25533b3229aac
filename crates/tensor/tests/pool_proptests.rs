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
use ratatouille_tensor::{ops, par, Tensor};
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

/// Random batched operands for the `bmm_*` family (shared inner dims).
fn bmm_operands() -> impl Strategy<Value = (usize, usize, usize, usize, Vec<f32>, Vec<f32>)> {
    (1usize..5, 1usize..12, 1usize..10, 1usize..12).prop_flat_map(|(b, m, k, n)| {
        (
            collection::vec(-3.0f32..3.0, b * m * k..=b * m * k),
            collection::vec(-3.0f32..3.0, b * k * n..=b * k * n),
        )
            .prop_map(move |(av, bv)| (b, m, k, n, av, bv))
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

    /// The three bmm variants are bit-identical across thread counts.
    #[test]
    fn bmm_family_bits_invariant((bt, m, k, n, av, bv) in bmm_operands()) {
        let a = Tensor::from_vec(av.clone(), &[bt, m, k]).unwrap();
        let b = Tensor::from_vec(bv.clone(), &[bt, k, n]).unwrap();
        let a_t = Tensor::from_vec(av, &[bt, k, m]).unwrap(); // for bmm_transa
        let b_t = Tensor::from_vec(bv, &[bt, n, k]).unwrap(); // for bmm_transb
        let _g = knob();
        par::set_num_threads(1);
        let s_plain = ops::bmm(&a, &b);
        let s_tb = ops::bmm_transb(&a, &b_t);
        let s_ta = ops::bmm_transa(&a_t, &b);
        for &t in &SWEEP {
            par::set_num_threads(t);
            assert_bits_equal(&s_plain, &ops::bmm(&a, &b), "bmm", t);
            assert_bits_equal(&s_tb, &ops::bmm_transb(&a, &b_t), "bmm_transb", t);
            assert_bits_equal(&s_ta, &ops::bmm_transa(&a_t, &b), "bmm_transa", t);
        }
        par::set_num_threads(0);
    }

    /// Repeated pool launches with varying lengths cover every index
    /// exactly once, at any thread count (pool reuse is leak/deadlock free).
    #[test]
    fn repeated_pool_launches_cover_exactly_once(len in 1usize..600, threads in 1usize..8) {
        let _g = knob();
        par::set_num_threads(threads);
        for _ in 0..4 {
            let hits = Mutex::new(vec![0u8; len]);
            par::parallel_chunks(len, HEAVY, |s, e, _| {
                let mut h = hits.lock().unwrap();
                for i in s..e {
                    h[i] += 1;
                }
            });
            assert!(hits.into_inner().unwrap().iter().all(|&c| c == 1));
        }
        par::set_num_threads(0);
    }

    /// Nested launches (a parallel kernel called from inside a pool task)
    /// complete without deadlock and still cover every index once.
    #[test]
    fn nested_pool_launches_terminate(len in 2usize..300, threads in 2usize..8) {
        let _g = knob();
        par::set_num_threads(threads);
        let hits = Mutex::new(vec![0u8; len]);
        par::parallel_chunks(len, HEAVY, |s, e, _| {
            par::parallel_chunks(e - s, HEAVY, |ns, ne, _| {
                let mut h = hits.lock().unwrap();
                for i in s + ns..s + ne {
                    h[i] += 1;
                }
            });
        });
        assert!(hits.into_inner().unwrap().iter().all(|&c| c == 1));
        par::set_num_threads(0);
    }
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
    let done = Mutex::new(0usize);
    par::parallel_chunks(8, HEAVY, |s, e, _| {
        for _ in s..e {
            // kernel launch from inside a pool task runs inline
            let c = ops::matmul(&a, &b);
            assert_bits_equal(&expect, &c, "nested matmul", 4);
            par::parallel_chunks(16, HEAVY, |ns, ne, _| {
                par::parallel_chunks(ne - ns, HEAVY, |_, _, _| {});
            });
            *done.lock().unwrap() += 1;
        }
    });
    assert_eq!(*done.lock().unwrap(), 8);
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
            assert_eq!(serial.4.codes().data(), parallel.4.codes().data(), "quantize {what} at {t}");
        }
    }
    // The bmm family over the fused (batch, m) row space: 0.5x and 4x.
    for &(bt, m, k, n) in &[(4, 64, 32, 64), (8, 128, 32, 128)] {
        let a = operand(&[bt, m, k], 5);
        let b = operand(&[bt, k, n], 6);
        let a_t = operand(&[bt, k, m], 7);
        let b_t = operand(&[bt, n, k], 8);
        let run = || (ops::bmm(&a, &b), ops::bmm_transb(&a, &b_t), ops::bmm_transa(&a_t, &b));
        par::set_num_threads(1);
        let serial = run();
        for &t in &SWEEP {
            par::set_num_threads(t);
            let parallel = run();
            assert_bits_equal(&serial.0, &parallel.0, "bmm", t);
            assert_bits_equal(&serial.1, &parallel.1, "bmm_transb", t);
            assert_bits_equal(&serial.2, &parallel.2, "bmm_transa", t);
        }
    }
    par::set_num_threads(0);
}
