//! Quantization and dtype-conversion kernels: per-row symmetric int8
//! weight quantization and the int8×int8 GEMM the decode path runs on.
//!
//! ## Scheme
//!
//! Weights are quantized **once at load time**, per output row, to
//! symmetric int8 codes with one `f32` scale per row
//! (`w[n][k] ≈ q[n][k] * scale[n]`, `scale = max|w[n]| / 127`).
//! Activations stay `f32` end to end and are quantized **dynamically
//! inside the kernel**, one row at a time, with their own scale — so no
//! calibration pass is needed and accuracy follows each token's actual
//! activation range. The integer dot product is computed exactly (i16
//! pair-sums widened to i32), and the result is rescaled once:
//! `out[m][n] = a_scale[m] * w_scale[n] * Σ qa[m][k]·qw[n][k]`.
//!
//! ## Determinism
//!
//! Integer accumulation is associative, so the int8 GEMM is bit-identical
//! for *any* thread count and for the AVX2 vs portable kernels alike —
//! a stronger guarantee than the f32 path (which promises thread-count
//! invariance only, via fixed-order accumulation). The dynamic activation
//! quantization uses `round` (half away from zero) and is itself a pure
//! function of the input row.
//!
//! ## Overflow safety
//!
//! The AVX2 kernel uses `maddubs` (u8×i8 → i16 pair sums): with both
//! operands bounded by 127 the worst pair sum is `2·127·127 = 32258 <
//! i16::MAX`, so the saturating instruction never saturates. Pair sums are
//! widened via `madd` into i32 lanes; `K` would need to exceed ~1M before
//! an i32 lane could overflow, far beyond any model dimension here.

use std::fmt;

use crate::par;
use crate::recycle;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// A per-row symmetrically quantized weight matrix in output-major
/// `[N, K]` layout (row `n` holds the weights producing output `n`), as
/// consumed by [`qmatmul_transb`].
///
/// Built once at model-load time by [`quantize_per_row`]: the codes are a
/// row-major `[N, K]` buffer and the per-row scales ride alongside.
pub struct QuantizedMatrix {
    codes: Vec<i8>,
    scales: Vec<f32>,
    k: usize,
}

impl QuantizedMatrix {
    /// Output rows (`N`).
    pub fn n(&self) -> usize {
        self.scales.len()
    }

    /// Inner dimension (`K`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The int8 codes, row-major `[N, K]`.
    pub fn codes(&self) -> &[i8] {
        &self.codes
    }

    /// Per-output-row dequantization scales, length `N`.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }
}

impl fmt::Debug for QuantizedMatrix {
    /// The shape and the first codes and scales, like `Tensor`'s preview.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn preview<T: fmt::Debug>(f: &mut fmt::Formatter<'_>, items: &[T]) -> fmt::Result {
            const PREVIEW: usize = 8;
            write!(f, "{:?}", &items[..items.len().min(PREVIEW)])?;
            if items.len() > PREVIEW {
                write!(f, " … {} more", items.len() - PREVIEW)?;
            }
            Ok(())
        }
        write!(f, "QuantizedMatrix[{}, {}] codes ", self.n(), self.k)?;
        preview(f, &self.codes)?;
        write!(f, ", scales ")?;
        preview(f, &self.scales)
    }
}

/// Quantize an `f32` weight matrix `[N, K]` to per-row symmetric int8.
///
/// Each row is scaled by `max|row| / 127` and rounded half-away-from-zero;
/// an all-zero row gets scale 0 and all-zero codes. Rows are quantized in
/// parallel over the pool, but each row is a pure function of its input,
/// so the result is thread-count independent.
pub fn quantize_per_row(w: &Tensor) -> QuantizedMatrix {
    assert_eq!(w.rank(), 2, "quantize_per_row expects [N, K]");
    let (n, k) = (w.dims()[0], w.dims()[1]);
    let wd = w.data();
    let mut scales = vec![0.0f32; n];
    for (row, s) in scales.iter_mut().enumerate() {
        let amax =
            ratatouille_util::accum::max_abs_f32(wd[row * k..(row + 1) * k].iter().copied());
        *s = amax / 127.0;
    }
    let mut codes = vec![0i8; n * k];
    // SAFETY(disjoint: codes[range] — workers receive non-overlapping row chunks)
    par::parallel_rows_mut(&mut codes, n, k, k, |range, chunk| {
        for (i, row) in range.clone().enumerate() {
            let scale = scales[row];
            let inv = if scale > 0.0 { 1.0 / scale } else { 0.0 };
            let src = &wd[row * k..(row + 1) * k];
            let dst = &mut chunk[i * k..(i + 1) * k];
            for (d, &v) in dst.iter_mut().zip(src) {
                *d = (v * inv).round().clamp(-127.0, 127.0) as i8;
            }
        }
    });
    QuantizedMatrix { codes, scales, k }
}

/// Reconstruct the `f32` approximation of a quantized matrix (`[N, K]`).
pub fn dequantize(m: &QuantizedMatrix) -> Tensor {
    let (n, k) = (m.n(), m.k());
    let codes = &m.codes;
    let mut out = recycle::take(n * k);
    for row in 0..n {
        let s = m.scales[row];
        for col in 0..k {
            out[row * k + col] = codes[row * k + col] as f32 * s;
        }
    }
    Tensor::from_parts(Shape(vec![n, k]), out)
}

/// `a [M, K] × wᵀ [N, K] → [M, N]` with int8 weights: the quantized
/// counterpart of `matmul_transb`, used by the int8 decode path.
///
/// Activations are quantized dynamically per row (scale `max|row|/127`),
/// the inner product runs entirely in integers, and one `f32` rescale per
/// output element applies both scales. `m == 1` (single-token decode)
/// splits output columns across the pool; batched inputs split rows.
pub fn qmatmul_transb(a: &Tensor, w: &QuantizedMatrix) -> Tensor {
    assert_eq!(a.rank(), 2, "qmatmul_transb expects a [M, K] activation");
    let (m, k) = (a.dims()[0], a.dims()[1]);
    assert_eq!(
        k,
        w.k(),
        "qmatmul_transb: inner dims differ ({k} vs {})",
        w.k()
    );
    let n = w.n();
    let started = obs::Clock::now();
    let ad = a.data();
    let (codes, scales) = (&w.codes, &w.scales);

    // Quantize every activation row once, up front.
    let mut qa = vec![0i8; m * k];
    let mut a_scales = vec![0.0f32; m];
    for (row, s) in a_scales.iter_mut().enumerate() {
        *s = quantize_row_into(&ad[row * k..(row + 1) * k], &mut qa[row * k..(row + 1) * k]);
    }

    let mut out = recycle::take(m * n);
    if m == 1 {
        // Decode path: one activation row, split the output columns.
        let qrow = &qa[..k];
        let a_scale = a_scales[0];
        // SAFETY(disjoint: out[range] — column spans of the single output row never overlap)
        par::parallel_rows_mut(&mut out, n, 1, k, |range, chunk| {
            qgemv(qrow, codes, k, range.start, scales, a_scale, chunk);
        });
    } else {
        // SAFETY(disjoint: out[range] — workers receive non-overlapping row chunks)
        par::parallel_rows_mut(&mut out, m, n, k * n, |range, chunk| {
            for (i, row) in range.clone().enumerate() {
                let qrow = &qa[row * k..(row + 1) * k];
                let a_scale = a_scales[row];
                let dst = &mut chunk[i * n..(i + 1) * n];
                qgemv(qrow, codes, k, 0, scales, a_scale, dst);
            }
        });
    }
    obs::static_histogram!("tensor_qmatmul_ns").observe(started.elapsed_ns());
    Tensor::from_parts(Shape(vec![m, n]), out)
}

/// Quantize one activation row to symmetric int8, returning its scale.
fn quantize_row_into(src: &[f32], dst: &mut [i8]) -> f32 {
    let amax = ratatouille_util::accum::max_abs_f32(src.iter().copied());
    if amax == 0.0 {
        dst.fill(0);
        return 0.0;
    }
    let scale = amax / 127.0;
    let inv = 1.0 / scale;
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = (v * inv).round().clamp(-127.0, 127.0) as i8;
    }
    scale
}

/// Exact int8 dot product with runtime AVX2 dispatch. Integer addition is
/// associative, so the SIMD and portable paths return identical values.
///
/// One quantized activation row against a contiguous block of weight
/// columns: `out[i] = a_scale * scales[col0+i] * (qrow · codes[col0+i])`.
///
/// This is the int8 GEMM's whole inner sweep. It dispatches the AVX2
/// probe **once per block** and runs every column dot inside a single
/// `#[target_feature]` region, so the per-column dot inlines — calling
/// [`dot_i8`] per column instead costs an opaque function call plus an
/// atomic feature check per 128-element dot, which halves throughput at
/// transformer widths.
fn qgemv(qrow: &[i8], codes: &[i8], k: usize, col0: usize, scales: &[f32], a_scale: f32, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if crate::ops::simd::use_avx2() {
        // SAFETY(invariant: `use_avx2()` returned true on this host)
        // The one-time cpuid probe confirmed AVX2 — `qgemv_avx2`'s
        // `#[target_feature]` contract holds.
        unsafe { qgemv_avx2(qrow, codes, k, col0, scales, a_scale, out) };
        return;
    }
    for (i, o) in out.iter_mut().enumerate() {
        let col = col0 + i;
        let acc = dot_i8_portable(qrow, &codes[col * k..(col + 1) * k]);
        *o = a_scale * scales[col] * acc as f32;
    }
}

// SAFETY(invariant: unsafe solely for `#[target_feature]` — caller-verified AVX2)
// Callers must have verified AVX2 via `use_avx2()`. Slice indexing stays
// bounds-checked; the per-column `dot_i8_avx2` inlines here because this
// frame already has the `avx2` feature enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn qgemv_avx2(
    qrow: &[i8],
    codes: &[i8],
    k: usize,
    col0: usize,
    scales: &[f32],
    a_scale: f32,
    out: &mut [f32],
) {
    // Columns in pairs: one sweep over the activation row feeds two
    // weight columns, so each `|x|`/sign computation is shared and the
    // two integer accumulator chains overlap in the pipeline. Integer
    // adds are associative, so the pairing cannot change any result.
    let mut i = 0usize;
    while i + 2 <= out.len() {
        let col = col0 + i;
        // SAFETY(invariant: same-feature frame and both slices are exactly `k` long)
        // See the function-level comment; the column slices match `qrow`.
        let (a0, a1) = unsafe {
            dot2_i8_avx2(
                qrow,
                &codes[col * k..(col + 1) * k],
                &codes[(col + 1) * k..(col + 2) * k],
            )
        };
        out[i] = a_scale * scales[col] * a0 as f32;
        out[i + 1] = a_scale * scales[col + 1] * a1 as f32;
        i += 2;
    }
    if i < out.len() {
        let col = col0 + i;
        // SAFETY(invariant: as above — one trailing column)
        let acc = unsafe { dot_i8_avx2(qrow, &codes[col * k..(col + 1) * k]) };
        out[i] = a_scale * scales[col] * acc as f32;
    }
}

// Numerics: identical to two independent `dot_i8_avx2` calls — the
// shared `|x|`/sign-transfer operands are recomputed bit-identically and
// integer accumulation is exact in any order.
//
// SAFETY(invariant: unsafe solely for `#[target_feature]` — see `dot_i8_avx2`)
// The same bounds argument applies to both `y0` and `y1` (each `x.len()`
// long, guarded by `i + 32 <= n` and the scalar tail).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn dot2_i8_avx2(x: &[i8], y0: &[i8], y1: &[i8]) -> (i32, i32) {
    use std::arch::x86_64::*;
    let n = x.len();
    let (xp, y0p, y1p) = (x.as_ptr(), y0.as_ptr(), y1.as_ptr());
    let ones = _mm256_set1_epi16(1);
    let mut acc0 = _mm256_setzero_si256();
    let mut acc1 = _mm256_setzero_si256();
    let mut i = 0usize;
    while i + 32 <= n {
        let vx = _mm256_loadu_si256(xp.add(i) as *const __m256i);
        let ax = _mm256_sign_epi8(vx, vx); // |x| as u8 lanes, shared
        let v0 = _mm256_loadu_si256(y0p.add(i) as *const __m256i);
        let v1 = _mm256_loadu_si256(y1p.add(i) as *const __m256i);
        let p0 = _mm256_maddubs_epi16(ax, _mm256_sign_epi8(v0, vx));
        let p1 = _mm256_maddubs_epi16(ax, _mm256_sign_epi8(v1, vx));
        acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(p0, ones));
        acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(p1, ones));
        i += 32;
    }
    let hsum = |acc: __m256i| -> i32 {
        let lo = _mm256_castsi256_si128(acc);
        let hi = _mm256_extracti128_si256(acc, 1);
        let s = _mm_add_epi32(lo, hi);
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b0100_1110));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b1011_0001));
        _mm_cvtsi128_si32(s)
    };
    let (mut t0, mut t1) = (hsum(acc0), hsum(acc1));
    while i < n {
        let xv = *xp.add(i) as i32;
        t0 += xv * *y0p.add(i) as i32;
        t1 += xv * *y1p.add(i) as i32;
        i += 1;
    }
    (t0, t1)
}

/// Domain: operands must lie in `[-127, 127]` — the sign-transfer trick in
/// the AVX2 kernel cannot negate `-128`. Every quantizer in this module
/// clamps to that symmetric range.
///
/// Production code goes through [`qgemv`] (which amortizes the dispatch
/// over a whole column block); this single-dot wrapper remains as the
/// harness for the AVX2-vs-portable equivalence tests.
#[cfg(test)]
fn dot_i8(x: &[i8], y: &[i8]) -> i32 {
    debug_assert_eq!(x.len(), y.len());
    debug_assert!(x.iter().chain(y).all(|&v| v != i8::MIN));
    #[cfg(target_arch = "x86_64")]
    if crate::ops::simd::use_avx2() {
        // SAFETY(invariant: `use_avx2()` returned true and slice lengths are equal)
        // The one-time cpuid probe confirmed AVX2 — `dot_i8_avx2`'s
        // `#[target_feature]` contract holds. Equal slice lengths hold by
        // construction (both are K-length rows), checked by the
        // debug_assert above.
        return unsafe { dot_i8_avx2(x, y) };
    }
    dot_i8_portable(x, y)
}

fn dot_i8_portable(x: &[i8], y: &[i8]) -> i32 {
    let mut acc = 0i32;
    for (&a, &b) in x.iter().zip(y) {
        acc += a as i32 * b as i32;
    }
    acc
}

// Numerics: `maddubs` computes u8×i8 pair sums with i16 saturation; we
// feed it `|x|` (u8, ≤127) and `sign(x)·y` (i8, |·|≤127), so each pair sum
// is ≤ 2·127·127 = 32258 < i16::MAX — never saturates, and the product
// `|x|·(sign(x)·y) = x·y` is exact. `sign(x) == 0` zeroes both operands,
// matching `x == 0 ⇒ x·y == 0`.
//
// SAFETY(invariant: unsafe solely for `#[target_feature]` — caller-verified AVX2)
// All loads are unaligned (`loadu`) and every `x/y.as_ptr().add(i)` stays
// in bounds: `i + 32 <= n` guards the vector loop and `i < n` the scalar
// tail, with `x.len() == y.len() == n` guaranteed by the caller.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn dot_i8_avx2(x: &[i8], y: &[i8]) -> i32 {
    use std::arch::x86_64::*;
    let n = x.len();
    let (xp, yp) = (x.as_ptr(), y.as_ptr());
    let ones = _mm256_set1_epi16(1);
    let mut acc = _mm256_setzero_si256();
    let mut i = 0usize;
    while i + 32 <= n {
        let vx = _mm256_loadu_si256(xp.add(i) as *const __m256i);
        let vy = _mm256_loadu_si256(yp.add(i) as *const __m256i);
        let ax = _mm256_sign_epi8(vx, vx); // |x| as u8 lanes
        let sy = _mm256_sign_epi8(vy, vx); // y with x's sign transferred
        let pairs = _mm256_maddubs_epi16(ax, sy); // exact i16 pair sums
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, ones));
        i += 32;
    }
    // horizontal sum of the eight i32 lanes
    let lo = _mm256_castsi256_si128(acc);
    let hi = _mm256_extracti128_si256(acc, 1);
    let s = _mm_add_epi32(lo, hi);
    let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b0100_1110));
    let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b1011_0001));
    let mut total = _mm_cvtsi128_si32(s);
    while i < n {
        total += *xp.add(i) as i32 * *yp.add(i) as i32;
        i += 1;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    fn toy_matrix(n: usize, k: usize) -> Tensor {
        let data: Vec<f32> = (0..n * k)
            .map(|i| ((i * 37 + 11) % 97) as f32 * 0.07 - 3.2)
            .collect();
        Tensor::from_vec(data, &[n, k]).unwrap()
    }

    #[test]
    fn quantize_dequantize_bounded_error() {
        let w = toy_matrix(13, 40);
        let qm = quantize_per_row(&w);
        let back = dequantize(&qm);
        for row in 0..13 {
            let amax = ratatouille_util::accum::max_abs_f32(
                w.data()[row * 40..(row + 1) * 40].iter().copied(),
            );
            let bound = amax / 127.0 * 0.5 + 1e-6; // half a quantization step
            for col in 0..40 {
                let err = (w.at(&[row, col]) - back.at(&[row, col])).abs();
                assert!(err <= bound, "error {err} > bound {bound} at [{row},{col}]");
            }
        }
    }

    #[test]
    fn zero_row_quantizes_to_zero() {
        let w = Tensor::zeros(&[2, 8]);
        let qm = quantize_per_row(&w);
        assert_eq!(qm.scales(), &[0.0, 0.0]);
        assert!(qm.codes().iter().all(|&c| c == 0));
        assert_eq!(dequantize(&qm), w);
    }

    #[test]
    fn qmatmul_close_to_f32_reference() {
        let a = toy_matrix(3, 64);
        let w = toy_matrix(17, 64);
        let qm = quantize_per_row(&w);
        let exact = ops::matmul_transb(&a, &w);
        let quant = qmatmul_transb(&a, &qm);
        assert_eq!(quant.dims(), &[3, 17]);
        // Rigorous per-element bound: |a·w − â·ŵ| ≤ Σ_k |a_k|·εw + (|w_k|+εw)·εa
        // where ε is half a quantization step for the respective row.
        let half_step = |row: &[f32]| {
            ratatouille_util::accum::max_abs_f32(row.iter().copied()) / 127.0 * 0.5
        };
        for row in 0..3 {
            let arow = &a.data()[row * 64..(row + 1) * 64];
            let ea = half_step(arow);
            for col in 0..17 {
                let wrow = &w.data()[col * 64..(col + 1) * 64];
                let ew = half_step(wrow);
                let bound: f32 = arow
                    .iter()
                    .zip(wrow)
                    .map(|(&av, &wv)| av.abs() * ew + (wv.abs() + ew) * ea)
                    .sum::<f32>()
                    + 1e-4;
                let err = (quant.at(&[row, col]) - exact.at(&[row, col])).abs();
                assert!(err <= bound, "err {err} > bound {bound} at [{row},{col}]");
            }
        }
    }

    #[test]
    fn qmatmul_decode_row_matches_batched() {
        // The m == 1 column-split path must agree exactly with the row
        // path (same integer math, different scheduling).
        let a = toy_matrix(2, 48);
        let w = toy_matrix(9, 48);
        let qm = quantize_per_row(&w);
        let both = qmatmul_transb(&a, &qm);
        let row0 = qmatmul_transb(
            &Tensor::from_vec(a.data()[..48].to_vec(), &[1, 48]).unwrap(),
            &qm,
        );
        for col in 0..9 {
            assert_eq!(row0.at(&[0, col]).to_bits(), both.at(&[0, col]).to_bits());
        }
    }

    #[test]
    fn dot_i8_simd_matches_portable() {
        for len in [0, 1, 31, 32, 33, 64, 100, 257] {
            // full symmetric domain [-127, 127] (−128 is excluded by contract)
            let x: Vec<i8> = (0..len)
                .map(|i| (((i * 83 + 5) % 255) as i32 - 127) as i8)
                .collect();
            let y: Vec<i8> = (0..len)
                .map(|i| (((i * 29 + 170) % 255) as i32 - 127) as i8)
                .collect();
            assert_eq!(dot_i8(&x, &y), dot_i8_portable(&x, &y), "len {len}");
        }
    }
}
