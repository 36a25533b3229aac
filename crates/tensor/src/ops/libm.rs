//! `tanh` and `exp` as the workspace's own code: transcriptions of glibc
//! 2.36's single-precision `tanhf` (fdlibm's `s_tanhf.c`, with the
//! `s_expm1f.c` it calls) and `expf` (the `__expf_fma` variant of
//! `e_expf.c`), and an 8-lane AVX2 port of each.
//!
//! Every f32 `tanh` and `exp` in the tensor and models crates goes
//! through [`tanhf`]/[`tanh8`] or [`expf`]/[`exp8`], so the frozen
//! goldens are this code's bits rather than the host libm's. A libm that
//! shipped a different (say, correctly rounded) `tanhf` would otherwise
//! move them, and glibc's own `expf` is an ifunc with two bodies: the one
//! compiled with FMA on FMA hosts, the plain one elsewhere, which rounds
//! differently. Each transcription replays its C line for line — same
//! operations, same order, one rounding each, and for `expf` the four
//! fused multiply-adds GCC emitted as `f64::mul_add` — so it gives those
//! bits on every host: the ignored `*_matches_libm_on_every_input` tests
//! compare all 2³² inputs against the host's function on an FMA host with
//! glibc 2.36, and each 8-lane kernel against its transcription.
//!
//! [`tanh8`] computes every lane the scalar code would send through
//! `expm1f` (`2⁻⁵⁵ ≤ |x| < 22`) with each branch of the reduced
//! `expm1f` evaluated lane-wise and the results blended by `k`; lanes
//! outside that range (`±0`, tiny, saturated, `±inf`, NaN) are recomputed
//! by [`tanhf`]. Nothing in the `tanh` code uses FMA: each multiply and
//! add rounds on its own, as in the C.
//!
//! [`exp8`] widens its eight lanes to two 4-wide `f64` halves and runs
//! `expf`'s table-driven path in each (the table through a gather); lanes
//! with `|x| ≥ 88` — ±inf, NaN, overflow and the underflow branches — are
//! recomputed by [`expf`]. [`exp_in_place`] is the slice form every
//! caller uses.

/// fdlibm's `ln2_hi`: `ln 2` to 16 bits, so `k · ln2_hi` is exact.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
/// fdlibm's `ln2_lo`: `ln 2 − ln2_hi`.
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
/// fdlibm's `invln2`: `1 / ln 2`.
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
/// fdlibm's scaled `expm1` coefficients `Q1 … Q5`.
const Q: [f32; 5] = [
    f32::from_bits(0xbd08_8889),
    f32::from_bits(0x3ad0_0d01),
    f32::from_bits(0xb8a6_70cd),
    f32::from_bits(0x3686_7e54),
    f32::from_bits(0xb457_edbb),
];

/// `|x|`'s bit patterns where `tanhf`'s branches start: `2⁻⁵⁵` (below it
/// `tanh x = x·(1 + x)`), `1` (`expm1f(2|x|)` from here on, `expm1f(−2|x|)`
/// below) and `22` (from here on `±1`).
const TINY_BITS: u32 = 0x2400_0000;
const ONE_BITS: u32 = 0x3f80_0000;
const SATURATED_BITS: u32 = 0x41b0_0000;
/// `expm1f`'s own thresholds on `|x|`: `0.5·ln 2` (no reduction at or
/// below it), `1.5·ln 2` (`k = ±1` below it) and `2⁻²⁵` (below it
/// `expm1 x = x`).
const HALF_LN2_BITS: u32 = 0x3eb1_7218;
const THREE_HALVES_LN2_BITS: u32 = 0x3f85_1592;
const EXPM1_TINY_BITS: u32 = 0x3300_0000;

/// `tanh(x)` with glibc 2.36's `tanhf` bits.
pub(crate) fn tanhf(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    let negative = jx >> 31 != 0;
    if ix >= 0x7f80_0000 {
        // ±1 for ±inf; NaN propagates.
        return if negative { 1.0 / x - 1.0 } else { 1.0 / x + 1.0 };
    }
    let z = if ix >= SATURATED_BITS {
        // fdlibm's `one - tiny`, which rounds to 1.
        1.0
    } else if ix == 0 {
        return x;
    } else if ix < TINY_BITS {
        return x * (1.0 + x);
    } else if ix >= ONE_BITS {
        let t = expm1f(2.0 * x.abs());
        1.0 - 2.0 / (t + 2.0)
    } else {
        let t = expm1f(-2.0 * x.abs());
        -t / (t + 2.0)
    };
    if negative {
        -z
    } else {
        z
    }
}

/// `eˣ − 1` with glibc 2.36's `expm1f` bits, for the arguments [`tanhf`]
/// passes: `2⁻⁵⁴ ≤ |x| < 44`, and `x ≥ 2` when positive. Only the
/// branches those reach are transcribed: the original's overflow, `−1`
/// saturation and non-finite filters start at `|x| ≥ 27·ln 2` for
/// negative `x` and `x ≥ 88.7` for positive, and its `k = 1` branch needs
/// `0.35 < x < 1.04`.
fn expm1f(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    let positive = x.to_bits() >> 31 == 0;
    debug_assert!(hx < 0x4230_0000 && (!positive || x >= 2.0), "expm1f: {x} is outside tanhf's arguments");
    if hx < EXPM1_TINY_BITS {
        return x;
    }
    let (x, c, k) = if hx > HALF_LN2_BITS {
        let (hi, lo, k) = if hx < THREE_HALVES_LN2_BITS {
            if positive {
                (x - LN2_HI, LN2_LO, 1)
            } else {
                (x + LN2_HI, -LN2_LO, -1)
            }
        } else {
            let k = (INVLN2 * x + if positive { 0.5 } else { -0.5 }) as i32;
            let t = k as f32;
            (x - t * LN2_HI, t * LN2_LO, k)
        };
        let x = hi - lo;
        (x, (hi - x) - lo, k)
    } else {
        (x, 0.0, 0)
    };
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q[0] + hxs * (Q[1] + hxs * (Q[2] + hxs * (Q[3] + hxs * Q[4]))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    let e = (x * (e - c) - c) - hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    // `2ᵏ · y` by adding `k` to `y`'s exponent field.
    let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32));
    if k <= -2 || k > 56 {
        scale(1.0 - (e - x)) - 1.0
    } else if k < 23 {
        let t = f32::from_bits(ONE_BITS - (0x0100_0000 >> k)); // 1 − 2⁻ᵏ
        scale(t - (e - x))
    } else {
        let t = f32::from_bits(((0x7f - k) as u32) << 23); // 2⁻ᵏ
        scale(x - (e + t) + 1.0)
    }
}

/// [`tanhf`] on eight lanes: the same bits in every lane.
// SAFETY(invariant: unsafe solely for `#[target_feature]` — register-only, callers verified AVX2)
// Callers must have checked `simd::use_avx2_fma()`. Memory is touched
// only through the two local 8-float arrays the out-of-range lanes
// round-trip through.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
pub(crate) unsafe fn tanh8(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let f = _mm256_set1_ps;
    let i = |v: u32| _mm256_set1_epi32(v as i32);
    let bits = _mm256_castps_si256(x);
    let ix = _mm256_and_si256(bits, i(0x7fff_ffff));
    let sign = _mm256_castsi256_ps(_mm256_andnot_si256(i(0x7fff_ffff), bits));
    // `|x| ≥ 1` lanes take `expm1f(2|x|)`, the rest `expm1f(−2|x|)`.
    let big = _mm256_cmpgt_epi32(ix, i(ONE_BITS - 1));
    let twice = _mm256_mul_ps(f(2.0), _mm256_castsi256_ps(ix));
    let arg = _mm256_xor_ps(twice, _mm256_castsi256_ps(_mm256_andnot_si256(big, i(0x8000_0000))));
    let t = expm1_lanes(arg);
    let d = _mm256_add_ps(t, f(2.0));
    let z_big = _mm256_sub_ps(f(1.0), _mm256_div_ps(f(2.0), d));
    let z_small = _mm256_div_ps(_mm256_xor_ps(t, f(-0.0)), d);
    let z = _mm256_blendv_ps(z_small, z_big, _mm256_castsi256_ps(big));
    let y = _mm256_xor_ps(z, sign);
    let outside = _mm256_or_si256(
        _mm256_cmpgt_epi32(i(TINY_BITS), ix),
        _mm256_cmpgt_epi32(ix, i(SATURATED_BITS - 1)),
    );
    let patch = _mm256_movemask_ps(_mm256_castsi256_ps(outside));
    if patch == 0 {
        return y;
    }
    let (mut xs, mut ys) = ([0.0f32; 8], [0.0f32; 8]);
    _mm256_storeu_ps(xs.as_mut_ptr(), x);
    _mm256_storeu_ps(ys.as_mut_ptr(), y);
    for (lane, (out, &v)) in ys.iter_mut().zip(&xs).enumerate() {
        if patch >> lane & 1 != 0 {
            *out = tanhf(v);
        }
    }
    _mm256_loadu_ps(ys.as_ptr())
}

/// [`expm1f`] on eight lanes of its domain. The three reductions (none,
/// `k = ±1`, the rounded quotient) are one formula: `x − k·ln2_hi` and
/// `k·ln2_lo` are exact, and for `k = 0` give `x` and `+0`. Every result
/// branch is then computed in every lane and the lane's own `k` picks one.
// SAFETY(invariant: unsafe solely for `#[target_feature]` — register-only, called from AVX2 frames)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn expm1_lanes(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let f = _mm256_set1_ps;
    let i = |v: i32| _mm256_set1_epi32(v);
    let (add, sub, mul) = (_mm256_add_ps, _mm256_sub_ps, _mm256_mul_ps);
    let blend = |a: __m256, b: __m256, take_b: __m256i| _mm256_blendv_ps(a, b, _mm256_castsi256_ps(take_b));
    let bits = _mm256_castps_si256(x);
    let hx = _mm256_and_si256(bits, i(0x7fff_ffff));
    let half = _mm256_or_ps(f(0.5), _mm256_and_ps(x, f(-0.0))); // ±0.5, x's sign
    let quotient = _mm256_cvttps_epi32(add(mul(f(INVLN2), x), half));
    let unit = _mm256_sign_epi32(i(1), bits); // ±1, x's sign
    let k = _mm256_blendv_epi8(quotient, unit, _mm256_cmpgt_epi32(i(THREE_HALVES_LN2_BITS as i32), hx));
    let k = _mm256_and_si256(k, _mm256_cmpgt_epi32(hx, i(HALF_LN2_BITS as i32)));
    let kf = _mm256_cvtepi32_ps(k);
    let hi = sub(x, mul(kf, f(LN2_HI)));
    let lo = mul(kf, f(LN2_LO));
    let x = sub(hi, lo);
    let c = sub(sub(hi, x), lo);
    let hfx = mul(f(0.5), x);
    let hxs = mul(x, hfx);
    let mut poly = mul(hxs, f(Q[4]));
    for q in Q[..4].iter().rev() {
        poly = mul(hxs, add(f(*q), poly));
    }
    let r1 = add(f(1.0), poly);
    let t = sub(f(3.0), mul(r1, hfx));
    let e = mul(hxs, _mm256_div_ps(sub(r1, t), sub(f(6.0), mul(x, t))));
    let at_k0 = sub(x, sub(mul(x, e), hxs));
    let e = sub(sub(mul(x, sub(e, c)), c), hxs);
    let at_k_minus1 = sub(mul(f(0.5), sub(x, e)), f(0.5));
    let exponent = _mm256_slli_epi32(k, 23);
    let scale = |y: __m256| _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(y), exponent));
    let at_far = sub(scale(sub(f(1.0), sub(e, x))), f(1.0));
    // 1 − 2⁻ᵏ, then 2⁻ᵏ: the scalar code's `t` below and from `k = 23`.
    let t_below_23 = _mm256_castsi256_ps(_mm256_sub_epi32(i(ONE_BITS as i32), _mm256_srlv_epi32(i(0x0100_0000), k)));
    let below_23 = scale(sub(t_below_23, sub(e, x)));
    let t_from_23 = _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_sub_epi32(i(0x7f), k), 23));
    let from_23 = scale(add(sub(x, add(e, t_from_23)), f(1.0)));
    let mut y = blend(from_23, below_23, _mm256_cmpgt_epi32(i(23), k));
    let far = _mm256_or_si256(_mm256_cmpgt_epi32(k, i(56)), _mm256_cmpgt_epi32(i(-1), k));
    y = blend(y, at_far, far);
    y = blend(y, at_k_minus1, _mm256_cmpeq_epi32(k, i(-1)));
    y = blend(y, at_k0, _mm256_cmpeq_epi32(k, i(0)));
    _mm256_blendv_ps(y, _mm256_castsi256_ps(bits), _mm256_castsi256_ps(_mm256_cmpgt_epi32(i(EXPM1_TINY_BITS as i32), hx)))
}

/// `expf`'s table: `2^(i/32)` as `f64` bits, less `i << 47` so that
/// adding `k << 47` for `k ≡ i (mod 32)` gives `2^(k/32)`.
const EXP2_TABLE: [u64; 32] = [
    0x3ff0_0000_0000_0000, 0x3fef_d9b0_d315_8574, 0x3fef_b558_6cf9_890f, 0x3fef_9301_d012_5b51,
    0x3fef_72b8_3c7d_517b, 0x3fef_5487_3168_b9aa, 0x3fef_387a_6e75_6238, 0x3fef_1e9d_f51f_dee1,
    0x3fef_06fe_0a31_b715, 0x3fee_f1a7_373a_a9cb, 0x3fee_dea6_4c12_3422, 0x3fee_ce08_6061_892d,
    0x3fee_bfda_d536_2a27, 0x3fee_b42b_569d_4f82, 0x3fee_ab07_dd48_5429, 0x3fee_a47e_b03a_5585,
    0x3fee_a09e_667f_3bcd, 0x3fee_9f75_e8ec_5f74, 0x3fee_a114_73eb_0187, 0x3fee_a589_994c_ce13,
    0x3fee_ace5_422a_a0db, 0x3fee_b737_b0cd_c5e5, 0x3fee_c491_82a3_f090, 0x3fee_d503_b23e_255d,
    0x3fee_e89f_995a_d3ad, 0x3fee_ff76_f2fb_5e47, 0x3fef_199b_dd85_529c, 0x3fef_3720_dcef_9069,
    0x3fef_5818_dcfb_a487, 0x3fef_7c97_337b_9b5f, 0x3fef_a4af_a2a4_90da, 0x3fef_d076_5b6e_4540,
];
/// `32 / ln 2`: `x · INV_LN2_N = k + r` with `k` the table index plus 32
/// times the exponent.
const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `1.5 · 2⁵²`: adding it rounds to an integer held in the low mantissa bits.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// The cubic for `2^(r/32)`, highest power first (its constant term is 1).
const EXP_POLY: [f64; 3] = [
    f64::from_bits(0x3ebc_6af8_4b91_2394),
    f64::from_bits(0x3f2e_bfce_50fa_c4f3),
    f64::from_bits(0x3f96_2e42_ff0c_52d6),
];
/// `|x|`'s bits from 88 up (glibc's `top12(x) ≥ top12(88.0f)`, with the
/// low 20 bits of `88.0f` zero): ±inf, NaN and every lane that can
/// overflow or underflow.
const EXP_EDGE_BITS: u32 = 0x42b0_0000;
/// Above this `expf` overflows (`log 2¹²⁸ ≈ 88.72`).
const EXP_OVERFLOW: f32 = f32::from_bits(0x42b1_7217);
/// Below this it underflows to `+0` (`log 2⁻¹⁵⁰ ≈ −103.97`).
const EXP_UNDERFLOW: f32 = f32::from_bits(0xc2cf_f1b4);
/// Below this, down to [`EXP_UNDERFLOW`], glibc returns `__math_may_uflowf`'s
/// `0x1.4p-75 · 0x1.4p-75`, the least subnormal (`log 2⁻¹⁴⁹ ≈ −103.28`).
const EXP_MAY_UNDERFLOW: f32 = f32::from_bits(0xc2ce_8ecf);

/// `eˣ` with glibc 2.36's `__expf_fma` bits, on any host.
pub fn expf(x: f32) -> f32 {
    let bits = x.to_bits();
    if bits & 0x7fff_ffff >= EXP_EDGE_BITS {
        if bits == f32::NEG_INFINITY.to_bits() {
            return 0.0;
        }
        if bits & 0x7fff_ffff >= 0x7f80_0000 {
            return x + x; // +inf, or NaN quieted
        }
        if x > EXP_OVERFLOW {
            return f32::INFINITY; // `__math_oflowf`: 2⁹⁷ · 2⁹⁷
        }
        if x < EXP_UNDERFLOW {
            return 0.0; // `__math_uflowf`: 2⁻⁹⁵ · 2⁻⁹⁵
        }
        if x < EXP_MAY_UNDERFLOW {
            return f32::from_bits(1);
        }
    }
    let xd = f64::from(x);
    // `kd = round(x·32/ln 2)` through the shift, its integer in the low
    // bits of `ki`; `r` is the remainder, both off one fused product.
    let kd = INV_LN2_N.mul_add(xd, SHIFT);
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = INV_LN2_N.mul_add(xd, -kd);
    // `s = 2^(k/32)`: the table entry with `k / 32` added to its exponent.
    let s = f64::from_bits(EXP2_TABLE[(ki % 32) as usize].wrapping_add(ki << 47));
    let z = EXP_POLY[0].mul_add(r, EXP_POLY[1]);
    let r2 = r * r;
    let y = EXP_POLY[2].mul_add(r, 1.0);
    let y = z.mul_add(r2, y);
    (y * s) as f32
}

/// `xs[i] = expf(xs[i])` for every element, with [`expf`]'s bits: 8 lanes
/// at a time through [`exp8`] on AVX2+FMA hosts (a tail shorter than 8
/// padded into one more group), one [`expf`] at a time elsewhere.
pub fn exp_in_place(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if super::simd::use_avx2_fma() {
        // SAFETY(invariant: `use_avx2_fma()` just returned true)
        // `exp_in_place_avx`'s one precondition; it reads and writes
        // through whole 8-element chunks of `xs` or of a local array.
        unsafe { exp_in_place_avx(xs) };
        return;
    }
    for x in xs.iter_mut() {
        *x = expf(*x);
    }
}

// SAFETY(invariant: unsafe solely for `#[target_feature]` — caller-verified AVX2+FMA)
// Every load and store is one whole `chunks_exact_mut(8)` chunk of `xs`
// or the local 8-float `pad`, unaligned.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn exp_in_place_avx(xs: &mut [f32]) {
    use std::arch::x86_64::*;
    let mut chunks = xs.chunks_exact_mut(8);
    for c in &mut chunks {
        _mm256_storeu_ps(c.as_mut_ptr(), exp8(_mm256_loadu_ps(c.as_ptr())));
    }
    let tail = chunks.into_remainder();
    if !tail.is_empty() {
        let mut pad = [0.0f32; 8];
        pad[..tail.len()].copy_from_slice(tail);
        _mm256_storeu_ps(pad.as_mut_ptr(), exp8(_mm256_loadu_ps(pad.as_ptr())));
        tail.copy_from_slice(&pad[..tail.len()]);
    }
}

/// [`expf`] on eight lanes: the same bits in every lane.
// SAFETY(invariant: unsafe solely for `#[target_feature]` — register-only but for the table gather and the edge round trip)
// Callers must have checked `simd::use_avx2_fma()`. Memory is touched
// only by `exp4`'s gather, whose indices are masked to the table, and
// through the two local 8-float arrays the edge lanes round-trip through.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
pub(crate) unsafe fn exp8(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let lo = exp4(_mm256_cvtps_pd(_mm256_castps256_ps128(x)));
    let hi = exp4(_mm256_cvtps_pd(_mm256_extractf128_ps(x, 1)));
    let y = _mm256_insertf128_ps(_mm256_castps128_ps256(lo), hi, 1);
    let ix = _mm256_and_si256(_mm256_castps_si256(x), _mm256_set1_epi32(0x7fff_ffff));
    let edge = _mm256_cmpgt_epi32(ix, _mm256_set1_epi32(EXP_EDGE_BITS as i32 - 1));
    let patch = _mm256_movemask_ps(_mm256_castsi256_ps(edge));
    if patch == 0 {
        return y;
    }
    let (mut xs, mut ys) = ([0.0f32; 8], [0.0f32; 8]);
    _mm256_storeu_ps(xs.as_mut_ptr(), x);
    _mm256_storeu_ps(ys.as_mut_ptr(), y);
    for (lane, (out, &v)) in ys.iter_mut().zip(&xs).enumerate() {
        if patch >> lane & 1 != 0 {
            *out = expf(v);
        }
    }
    _mm256_loadu_ps(ys.as_ptr())
}

/// [`expf`]'s table-driven path on four lanes already widened to `f64`,
/// operation for operation, rounded back to `f32` at the end.
// SAFETY(invariant: unsafe solely for `#[target_feature]`; the gather reads `EXP2_TABLE[ki & 31]`, in bounds)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn exp4(xd: std::arch::x86_64::__m256d) -> std::arch::x86_64::__m128 {
    use std::arch::x86_64::*;
    let f = _mm256_set1_pd;
    let kd = _mm256_fmadd_pd(f(INV_LN2_N), xd, f(SHIFT));
    let ki = _mm256_castpd_si256(kd);
    let kd = _mm256_sub_pd(kd, f(SHIFT));
    let r = _mm256_fmsub_pd(f(INV_LN2_N), xd, kd);
    let index = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
    let t = _mm256_i64gather_epi64::<8>(EXP2_TABLE.as_ptr().cast(), index);
    let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
    let z = _mm256_fmadd_pd(f(EXP_POLY[0]), r, f(EXP_POLY[1]));
    let r2 = _mm256_mul_pd(r, r);
    let y = _mm256_fmadd_pd(f(EXP_POLY[2]), r, f(1.0));
    let y = _mm256_fmadd_pd(z, r2, y);
    _mm256_cvtpd_ps(_mm256_mul_pd(y, s))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`tanh8`] over `xs`, eight at a time (the last group padded).
    fn lanes(xs: &[f32]) -> Vec<f32> {
        let mut out = Vec::with_capacity(xs.len());
        for chunk in xs.chunks(8) {
            let mut v = [0.0f32; 8];
            v[..chunk.len()].copy_from_slice(chunk);
            #[cfg(target_arch = "x86_64")]
            if crate::ops::simd::use_avx2_fma() {
                // SAFETY(invariant: `use_avx2_fma()` just returned true)
                unsafe {
                    use std::arch::x86_64::*;
                    _mm256_storeu_ps(v.as_mut_ptr(), tanh8(_mm256_loadu_ps(v.as_ptr())));
                }
                out.extend_from_slice(&v[..chunk.len()]);
                continue;
            }
            out.extend(chunk.iter().map(|&x| tanhf(x)));
        }
        out
    }

    fn assert_lanes_match(xs: &[f32]) {
        for (&x, y) in xs.iter().zip(lanes(xs)) {
            assert_eq!(y.to_bits(), tanhf(x).to_bits(), "tanh8({x:e} = {:#010x})", x.to_bits());
        }
    }

    /// Every 251st bit pattern (prime, so the sweep walks every low-bit
    /// residue): signs, exponents, NaN payloads and the space between.
    #[test]
    fn tanh8_matches_the_transcription_on_a_strided_sweep() {
        let steps: Vec<u32> = (0..=u32::MAX / 251).collect();
        for block in steps.chunks(1 << 16) {
            let xs: Vec<f32> = block.iter().map(|&i| f32::from_bits(i * 251)).collect();
            assert_lanes_match(&xs);
        }
    }

    /// ±64 ulps around every threshold a branch turns on, both signs: the
    /// `|x|` ones of `tanhf`, and the `expm1f` ones mapped back through
    /// its argument `∓2|x|` — `0.5·ln 2`, `1.5·ln 2`, `2⁻²⁵`, and the
    /// first `x` where `k` reaches 23 and passes 56.
    #[test]
    fn tanh8_matches_the_transcription_at_every_branch_edge() {
        let k_edge = |k: f32| (k - 0.5) / INVLN2 / 2.0;
        let edges = [
            f32::from_bits(TINY_BITS),
            1.0,
            22.0,
            f32::from_bits(HALF_LN2_BITS) / 2.0,
            f32::from_bits(THREE_HALVES_LN2_BITS) / 2.0,
            f32::from_bits(EXPM1_TINY_BITS) / 2.0,
            k_edge(23.0),
            k_edge(57.0),
        ];
        let mut xs = vec![0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN, f32::MIN_POSITIVE];
        for edge in edges {
            for d in -64i32..=64 {
                let x = f32::from_bits(edge.to_bits().wrapping_add_signed(d));
                xs.extend([x, -x]);
            }
        }
        assert_lanes_match(&xs);
        // The `k` edges do fall inside the windows swept.
        let k_at = |edge: f32, d: i32| (INVLN2 * (2.0 * f32::from_bits(edge.to_bits().wrapping_add_signed(d))) + 0.5) as i32;
        assert_eq!((k_at(k_edge(23.0), -64), k_at(k_edge(23.0), 64)), (22, 23));
        assert_eq!((k_at(k_edge(57.0), -64), k_at(k_edge(57.0), 64)), (56, 57));
    }

    /// Runs `check` over all 2³² bit patterns in blocks of 2¹⁶, one share
    /// of them per available thread, and adds up the mismatches it counts.
    fn sweep_every_input(check: impl Fn(&[f32]) -> u64 + Sync) -> u64 {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let per = (1u64 << 32).div_ceil(threads);
        let check = &check;
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|w| {
                    s.spawn(move || {
                        let (start, end) = (w * per, ((w + 1) * per).min(1 << 32));
                        let mut bad = 0u64;
                        let mut xs = Vec::with_capacity(1 << 16);
                        for base in (start..end).step_by(1 << 16) {
                            xs.clear();
                            xs.extend((base..(base + (1 << 16)).min(end)).map(|b| f32::from_bits(b as u32)));
                            bad += check(&xs);
                        }
                        bad
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("sweep worker panicked")).sum()
        })
    }

    /// All 2³² inputs: the lanes against the transcription, and the
    /// transcription against the host's `tanhf`, which it reproduces on
    /// glibc 2.36 (a libm with other `tanhf` bits fails the second half
    /// without anything here being wrong). About a minute on 2 threads:
    /// `cargo test --release -p ratatouille-tensor -- --ignored tanhf_matches`.
    #[test]
    #[ignore]
    fn tanhf_matches_libm_on_every_input() {
        let bad = sweep_every_input(|xs| {
            let mut bad = 0;
            for (&x, y) in xs.iter().zip(lanes(xs)) {
                let (ours, libm) = (tanhf(x), x.tanh());
                if ours.to_bits() != libm.to_bits() || y.to_bits() != ours.to_bits() {
                    if bad < 8 {
                        eprintln!("x = {x:e} ({:#010x}): libm {libm:e}, tanhf {ours:e}, tanh8 {y:e}", x.to_bits());
                    }
                    bad += 1;
                }
            }
            bad
        });
        assert_eq!(bad, 0, "{bad} of 2^32 inputs differ");
    }

    /// [`exp_in_place`] over a copy of `xs`: [`exp8`] with a padded tail
    /// on AVX2+FMA hosts.
    fn exp_lanes(xs: &[f32]) -> Vec<f32> {
        let mut ys = xs.to_vec();
        exp_in_place(&mut ys);
        ys
    }

    fn assert_exp_lanes_match(xs: &[f32]) {
        for (&x, y) in xs.iter().zip(exp_lanes(xs)) {
            assert_eq!(y.to_bits(), expf(x).to_bits(), "exp8({x:e} = {:#010x})", x.to_bits());
        }
    }

    #[test]
    fn exp8_matches_the_transcription_on_a_strided_sweep() {
        let steps: Vec<u32> = (0..=u32::MAX / 251).collect();
        for block in steps.chunks(1 << 16) {
            let xs: Vec<f32> = block.iter().map(|&i| f32::from_bits(i * 251)).collect();
            assert_exp_lanes_match(&xs);
        }
    }

    /// ±64 ulps around every threshold a branch turns on: `|x| = 88`, where
    /// lanes leave for the scalar code (both signs), the overflow edge, and
    /// the two underflow edges; with ±0, ±inf and NaN among them.
    #[test]
    fn exp8_matches_the_transcription_at_every_branch_edge() {
        let mut xs = vec![0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN, f32::MIN_POSITIVE];
        for edge in [f32::from_bits(EXP_EDGE_BITS), -f32::from_bits(EXP_EDGE_BITS), EXP_OVERFLOW, EXP_UNDERFLOW, EXP_MAY_UNDERFLOW] {
            xs.extend((-64i32..=64).map(|d| f32::from_bits(edge.to_bits().wrapping_add_signed(d))));
        }
        assert_exp_lanes_match(&xs);
        // The specials' values, and every branch reached from the windows.
        let y = exp_lanes(&xs);
        assert_eq!((y[0], y[1], y[2], y[3]), (1.0, 1.0, f32::INFINITY, 0.0));
        assert!(y[4].is_nan() && y[5].is_nan());
        assert!(y.contains(&0.0) && y.contains(&f32::from_bits(1)) && y.contains(&f32::INFINITY));
        assert_eq!(f32::from_bits(EXP_EDGE_BITS), 88.0);
    }

    /// All 2³² inputs: the transcription against the host's `expf`, which
    /// it reproduces where glibc 2.36 picks `__expf_fma` (a host without
    /// FMA runs glibc's other body, and fails this half without anything
    /// here being wrong), and the lanes against the transcription:
    /// `cargo test --release -p ratatouille-tensor -- --ignored expf_matches`.
    #[test]
    #[ignore]
    fn expf_matches_libm_on_every_input() {
        let bad = sweep_every_input(|xs| {
            let mut bad = 0;
            for (&x, y) in xs.iter().zip(exp_lanes(xs)) {
                let (ours, libm) = (expf(x), x.exp());
                if ours.to_bits() != libm.to_bits() || y.to_bits() != ours.to_bits() {
                    if bad < 8 {
                        eprintln!("x = {x:e} ({:#010x}): libm {libm:e}, expf {ours:e}, exp8 {y:e}", x.to_bits());
                    }
                    bad += 1;
                }
            }
            bad
        });
        assert_eq!(bad, 0, "{bad} of 2^32 inputs differ");
    }
}
