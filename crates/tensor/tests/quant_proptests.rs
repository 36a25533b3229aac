//! Property tests for the int8/f16 quantization layer: round-trip error
//! bounds for `quantize_per_row`/`dequantize`, the int8 GEMM against an
//! f32 reference within the quantization error budget, and bit-for-bit
//! thread-count invariance of `qmatmul_transb` (the same determinism
//! contract `pool_proptests.rs` pins for the f32 kernels).

use ratatouille_util::proptest::prelude::*;
use ratatouille_tensor::{ops, par, Element, Tensor, F16};
use std::sync::{Mutex, MutexGuard};

/// `par::set_num_threads` is process-global and the test harness runs
/// tests concurrently, so every property that sweeps the knob serializes
/// on this lock (recovering it if a failing case poisoned it).
static THREAD_KNOB: Mutex<()> = Mutex::new(());

fn knob() -> MutexGuard<'static, ()> {
    THREAD_KNOB.lock().unwrap_or_else(|e| e.into_inner())
}

const SWEEP: [usize; 4] = [2, 3, 4, 7];

/// Random rank-2 weight matrix with rows spanning very different scales,
/// so per-row scaling actually matters.
fn weight_matrix() -> impl Strategy<Value = Tensor> {
    (1usize..24, 1usize..48).prop_flat_map(|(n, k)| {
        collection::vec(-8.0f32..8.0, n * k..=n * k)
            .prop_map(move |v| Tensor::from_vec(v, &[n, k]).unwrap())
    })
}

/// Random activation/weight pair for `a [m,k] @ wᵀ [k,n]`, with k large
/// enough to cross the AVX2 32-lane boundary in some cases.
fn gemm_operands() -> impl Strategy<Value = (Tensor, Tensor)> {
    (1usize..6, 1usize..80, 1usize..24).prop_flat_map(|(m, k, n)| {
        (
            collection::vec(-4.0f32..4.0, m * k..=m * k),
            collection::vec(-4.0f32..4.0, n * k..=n * k),
        )
            .prop_map(move |(a, w)| {
                (
                    Tensor::from_vec(a, &[m, k]).unwrap(),
                    Tensor::from_vec(w, &[n, k]).unwrap(),
                )
            })
    })
}

proptest! {
    cases = 48;

    /// Per-row symmetric quantization round-trips within half a
    /// quantization step: |x - dequant(quant(x))| <= (max_abs/127) / 2
    /// element-wise, and codes stay inside the [-127, 127] domain the
    /// AVX2 maddubs kernel requires.
    #[test]
    fn quantize_dequantize_roundtrip_bound(w in weight_matrix()) {
        let q = ops::quantize_per_row(&w);
        let back = ops::dequantize(&q);
        let (n, k) = (w.dims()[0], w.dims()[1]);
        prop_assert_eq!(back.dims(), &[n, k]);
        for r in 0..n {
            let row = &w.data()[r * k..(r + 1) * k];
            let max_abs = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            let step = if max_abs == 0.0 { 0.0 } else { max_abs / 127.0 };
            for c in 0..k {
                let code = q.codes()[r * k + c];
                prop_assert!((-127..=127).contains(&code), "code {} out of domain", code);
                let err = (row[c] - back.data()[r * k + c]).abs();
                prop_assert!(
                    err <= step * 0.5 + 1e-6,
                    "row {r} col {c}: err {err} > half-step {}",
                    step * 0.5
                );
            }
        }
    }

    /// All-zero rows quantize to scale 0 and dequantize back to exact
    /// zeros (no NaN from a 0/0 scale).
    #[test]
    fn zero_rows_roundtrip_exactly(n in 1usize..8, k in 1usize..32) {
        let w = Tensor::zeros(&[n, k]);
        let q = ops::quantize_per_row(&w);
        let back = ops::dequantize(&q);
        prop_assert!(back.data().iter().all(|&x| x == 0.0));
    }

    /// `qmatmul_transb` stays within the analytic quantization error
    /// budget of a plain f32 GEMM against the original weights. Both
    /// operands are quantized (weights at load, activations per row at
    /// call time), so with â = quant(a), ŵ = quant(w):
    ///
    /// ```text
    /// |âᵀŵ − aᵀw| ≤ Σ|a−â|·|ŵ| + Σ|a|·|w−ŵ|
    ///            ≤ k·(a_step/2)·(127·w_scale) + ‖a‖₁·(w_scale/2)
    /// ```
    #[test]
    fn int8_gemm_tracks_f32_reference((a, w) in gemm_operands()) {
        let q = ops::quantize_per_row(&w);
        let got = ops::qmatmul_transb(&a, &q);
        let exact = ops::matmul_transb(&a, &w);
        prop_assert_eq!(got.dims(), exact.dims());
        let k = a.dims()[1];
        let (m, n) = (got.dims()[0], got.dims()[1]);
        for r in 0..m {
            let row = &a.data()[r * k..(r + 1) * k];
            let a_l1: f32 = row.iter().map(|x| x.abs()).sum();
            let a_max = row.iter().fold(0.0f32, |mx, &x| mx.max(x.abs()));
            let a_half_step = a_max / 127.0 * 0.5;
            for c in 0..n {
                let w_scale = q.scales()[c];
                let budget = k as f32 * a_half_step * (127.0 * w_scale)
                    + a_l1 * w_scale * 0.5
                    + (4.0 * 8.0 * k as f32) * 16.0 * f32::EPSILON
                    + 1e-4;
                let err = (got.data()[r * n + c] - exact.data()[r * n + c]).abs();
                prop_assert!(
                    err <= budget,
                    "[{r},{c}]: quantization error {err} exceeds budget {budget}"
                );
            }
        }
    }

    /// `qmatmul_transb` is bit-identical for thread counts {2, 3, 4, 7}
    /// vs 1 — integer accumulation makes this exact, not approximate,
    /// covering both the m == 1 column-split decode path and the m > 1
    /// row-split path.
    #[test]
    fn qmatmul_bits_invariant_across_thread_counts((a, w) in gemm_operands()) {
        let q = ops::quantize_per_row(&w);
        let _g = knob();
        par::set_num_threads(1);
        let serial = ops::qmatmul_transb(&a, &q);
        for &t in &SWEEP {
            par::set_num_threads(t);
            let parallel = ops::qmatmul_transb(&a, &q);
            prop_assert_eq!(serial.dims(), parallel.dims());
            for (i, (x, y)) in serial.data().iter().zip(parallel.data()).enumerate() {
                prop_assert!(
                    x.to_bits() == y.to_bits(),
                    "qmatmul_transb: bit mismatch at {} with {} threads: {} vs {}",
                    i, t, x, y
                );
            }
        }
        par::set_num_threads(0);
    }

    /// f32 → f16 → f32 round-trip error is bounded by the f16 relative
    /// epsilon (2^-11) for normal values in a safe range.
    #[test]
    fn f16_roundtrip_bound(v in collection::vec(-1000.0f32..1000.0, 1..64)) {
        let back = v.iter().map(|&x| F16::from_f32(x).to_f32());
        for (i, (&x, y)) in v.iter().zip(back).enumerate() {
            let tol = x.abs() * (1.0 / 2048.0) + 1e-6;
            prop_assert!(
                (x - y).abs() <= tol,
                "elem {i}: f16 roundtrip {x} -> {y} exceeds tol {tol}"
            );
        }
    }
}

/// Quantizing twice is idempotent at the code level: codes and scales of
/// `quantize(dequantize(quantize(w)))` equal the first quantization.
#[test]
fn requantization_is_stable() {
    let w = Tensor::from_vec(
        (0..6 * 33).map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.13).collect(),
        &[6, 33],
    )
    .unwrap();
    let q1 = ops::quantize_per_row(&w);
    let q2 = ops::quantize_per_row(&ops::dequantize(&q1));
    assert_eq!(q1.codes(), q2.codes());
    for (a, b) in q1.scales().iter().zip(q2.scales()) {
        assert!((a - b).abs() <= a.abs() * 1e-6);
    }
}
