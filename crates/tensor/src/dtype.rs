//! Element dtypes: the sealed [`Element`] trait for KV-cache rows and
//! the software [`F16`] half-precision storage type.
//!
//! [`crate::Tensor`] holds `f32`. The decode path's KV cache stores its
//! rows as an [`Element`], and the trait is **sealed** to exactly two
//! types: `f32` (under f32 weights) and [`F16`] (under int8 weights;
//! storage-only half precision, converted in software on load/store).
//! Int8 weight codes are a plain `Vec<i8>` inside
//! [`crate::ops::quant::QuantizedMatrix`], next to their per-row scales.
//!
//! Keeping the set closed is what lets the attention kernel be written
//! once, generic over the cache element, while each element keeps its
//! own SIMD path without trait objects.

use std::fmt;

use crate::ops::simd::RunSpan;

mod sealed {
    /// Private supertrait: only types named here may implement `Element`.
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for super::F16 {}
}

/// Runtime tag identifying a storage dtype.
///
/// Used for checkpoint section headers, metric labels and error messages.
/// The `name()` strings are stable public identifiers (they appear in
/// `/metrics` label values and in the `?dtype=` serving parameter).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum DType {
    /// 32-bit IEEE float — the training and default inference dtype.
    F32,
    /// 16-bit IEEE half float, software-converted storage.
    F16,
    /// 8-bit signed integer quantized codes (scales stored externally).
    I8,
}

impl DType {
    /// Stable lowercase identifier (`"f32"`, `"f16"`, `"int8"`).
    pub fn name(self) -> &'static str {
        match self {
            DType::F32 => "f32",
            DType::F16 => "f16",
            DType::I8 => "int8",
        }
    }

    /// Bytes per element in serialized form.
    pub fn size_bytes(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::F16 => 2,
            DType::I8 => 1,
        }
    }

    /// One-byte tag used in checkpoint entry headers.
    pub fn tag(self) -> u8 {
        match self {
            DType::F32 => 0,
            DType::F16 => 1,
            DType::I8 => 2,
        }
    }

    /// Inverse of [`DType::tag`]; `None` for unknown tags.
    pub fn from_tag(tag: u8) -> Option<DType> {
        match tag {
            0 => Some(DType::F32),
            1 => Some(DType::F16),
            2 => Some(DType::I8),
            _ => None,
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A KV-cache storage element.
///
/// Sealed: implemented for `f32` and [`F16`] only. Besides the
/// conversions, the trait carries the two decode-path inner loops that must
/// be dispatched per element (`f32`-query dot against a stored row, and
/// the attention context `axpy`) and their run-level forms (all heads
/// against a whole storage-contiguous run of cached rows), so the fused
/// incremental-attention kernel can be written once, generic over the
/// KV-cache element, while each element keeps its own SIMD path.
pub trait Element:
    sealed::Sealed + Copy + Send + Sync + Default + PartialEq + fmt::Debug + 'static
{
    /// Narrow an `f32` into this storage type (round-to-nearest-even for
    /// [`F16`]; identity for `f32`).
    fn from_f32(v: f32) -> Self;

    /// Widen to `f32` (exact).
    fn to_f32(self) -> f32;

    /// Dot product of an `f32` query row against a row stored in this
    /// dtype, with a fixed per-call reduction order (the decode attention
    /// score kernel).
    fn dot_with_f32(a: &[f32], b: &[Self]) -> f32;

    /// `y[j] += alpha * x[j].to_f32()` — the decode attention context
    /// update against a stored value row.
    fn axpy_into_f32(alpha: f32, x: &[Self], y: &mut [f32]);

    /// Score every head of the query `q` (`heads * dh` floats) against a
    /// storage-contiguous run of cached K rows:
    /// `scores[h * stride + rel + j] = dot_with_f32(q_h, row_j_h) * scale`.
    ///
    /// Bit-identical to that per-head loop
    /// ([`crate::ops::simd`]'s `score_run_by_head`), run as one SIMD frame
    /// per four rows instead of one call per (row, head).
    fn score_run(q: &[f32], run: &[Self], span: RunSpan, scale: f32, scores: &mut [f32]);

    /// Add a run of cached V rows into the context vector `ctx`
    /// (`heads * dh` floats), rows ascending:
    /// `axpy_into_f32(probs[h * stride + rel + j], row_j_h, ctx_h)`.
    ///
    /// Bit-identical to that per-head loop, like [`Element::score_run`].
    fn accumulate_run(probs: &[f32], run: &[Self], span: RunSpan, ctx: &mut [f32]);
}

impl Element for f32 {
    #[inline]
    fn from_f32(v: f32) -> Self {
        v
    }

    #[inline]
    fn to_f32(self) -> f32 {
        self
    }

    #[inline]
    fn dot_with_f32(a: &[f32], b: &[Self]) -> f32 {
        crate::ops::simd::dot(a, b)
    }

    #[inline]
    fn axpy_into_f32(alpha: f32, x: &[Self], y: &mut [f32]) {
        crate::ops::simd::axpy(alpha, x, y);
    }

    fn score_run(q: &[f32], run: &[Self], span: RunSpan, scale: f32, scores: &mut [f32]) {
        crate::ops::simd::score_run_f32(q, run, span, scale, scores);
    }

    fn accumulate_run(probs: &[f32], run: &[Self], span: RunSpan, ctx: &mut [f32]) {
        crate::ops::simd::accumulate_run_f32(probs, run, span, ctx);
    }
}

/// IEEE 754 binary16 storage, converted in software.
///
/// This is a *storage* type only: arithmetic always happens in `f32` after
/// widening. Conversion from `f32` uses round-to-nearest-even (matching
/// hardware `vcvtps2ph` with default rounding), so results are identical
/// whether the widening/narrowing runs through the scalar fallback or the
/// F16C fast path.
#[derive(Copy, Clone, Default, PartialEq, Eq)]
#[repr(transparent)]
pub struct F16(u16);

impl F16 {
    /// Reinterpret raw binary16 bits.
    #[inline]
    pub fn from_bits(bits: u16) -> F16 {
        F16(bits)
    }

    /// The raw binary16 bits.
    #[inline]
    pub fn to_bits(self) -> u16 {
        self.0
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}f16", self.to_f32())
    }
}

impl Element for F16 {
    #[inline]
    fn from_f32(v: f32) -> Self {
        F16(f32_to_f16_bits(v))
    }

    #[inline]
    fn to_f32(self) -> f32 {
        f16_bits_to_f32(self.0)
    }

    #[inline]
    fn dot_with_f32(a: &[f32], b: &[Self]) -> f32 {
        crate::ops::simd::dot_f16(a, b)
    }

    #[inline]
    fn axpy_into_f32(alpha: f32, x: &[Self], y: &mut [f32]) {
        crate::ops::simd::axpy_f16(alpha, x, y);
    }

    fn score_run(q: &[f32], run: &[Self], span: RunSpan, scale: f32, scores: &mut [f32]) {
        crate::ops::simd::score_run_f16(q, run, span, scale, scores);
    }

    fn accumulate_run(probs: &[f32], run: &[Self], span: RunSpan, ctx: &mut [f32]) {
        crate::ops::simd::accumulate_run_f16(probs, run, span, ctx);
    }
}

/// `f32` → binary16 bits with round-to-nearest-even; overflow saturates to
/// ±inf, values below the smallest subnormal flush to signed zero, NaN is
/// preserved as a quiet NaN.
pub(crate) fn f32_to_f16_bits(v: f32) -> u16 {
    let bits = v.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp_f32 = (bits >> 23) & 0xff;
    let mant = bits & 0x007f_ffff;
    if exp_f32 == 0xff {
        // inf / NaN: keep a quiet-NaN payload bit so NaN stays NaN
        let m = if mant == 0 {
            0
        } else {
            0x0200 | ((mant >> 13) as u16 & 0x03ff)
        };
        return sign | 0x7c00 | m;
    }
    let exp = exp_f32 as i32 - 127 + 15;
    if exp >= 0x1f {
        return sign | 0x7c00; // overflow → ±inf
    }
    if exp <= 0 {
        // subnormal range (or underflow to zero)
        if exp < -10 {
            return sign;
        }
        let m = mant | 0x0080_0000; // restore implicit leading bit
        let shift = (14 - exp) as u32; // 14..=24
        let half = m >> shift;
        let rem = m & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let rounded = if rem > halfway || (rem == halfway && (half & 1) == 1) {
            half + 1
        } else {
            half
        };
        return sign | rounded as u16;
    }
    // normal range: 13 mantissa bits are dropped, round-to-nearest-even;
    // a mantissa carry correctly increments the exponent (possibly to inf)
    let half = ((exp as u32) << 10) | (mant >> 13);
    let rem = mant & 0x1fff;
    let rounded = if rem > 0x1000 || (rem == 0x1000 && (half & 1) == 1) {
        half + 1
    } else {
        half
    };
    sign | rounded as u16
}

/// Binary16 bits → `f32` (exact: every finite f16 value is representable).
pub(crate) fn f16_bits_to_f32(h: u16) -> f32 {
    let negative = h & 0x8000 != 0;
    let exp = ((h >> 10) & 0x1f) as u32;
    let mant = (h & 0x03ff) as u32;
    let magnitude = if exp == 0 {
        // zero / subnormal: value is mant * 2^-24
        mant as f32 * f32::from_bits(0x3380_0000)
    } else if exp == 0x1f {
        if mant == 0 {
            f32::INFINITY
        } else {
            f32::NAN
        }
    } else {
        f32::from_bits(((exp + 112) << 23) | (mant << 13))
    };
    if negative {
        -magnitude
    } else {
        magnitude
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_f16_values() {
        assert_eq!(F16::from_f32(0.0).to_bits(), 0x0000);
        assert_eq!(F16::from_f32(-0.0).to_bits(), 0x8000);
        assert_eq!(F16::from_f32(1.0).to_bits(), 0x3c00);
        assert_eq!(F16::from_f32(-2.0).to_bits(), 0xc000);
        assert_eq!(F16::from_f32(65504.0).to_bits(), 0x7bff); // f16 max
        assert_eq!(F16::from_f32(f32::INFINITY).to_bits(), 0x7c00);
        assert_eq!(F16::from_f32(1e30).to_bits(), 0x7c00); // overflow → inf
        assert_eq!(F16::from_f32(6e-8).to_bits(), 0x0001); // smallest subnormal
        assert_eq!(F16::from_f32(1e-10).to_bits(), 0x0000); // underflow → 0
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn rounds_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next f16; the
        // even neighbor (1.0) wins.
        assert_eq!(F16::from_f32(1.0 + 2f32.powi(-11)).to_bits(), 0x3c00);
        // 1 + 3*2^-11 is halfway between two f16s whose lower one is odd,
        // so it rounds up.
        assert_eq!(F16::from_f32(1.0 + 3.0 * 2f32.powi(-11)).to_bits(), 0x3c02);
        // 65520 is halfway between f16 max and 2^16; ties-to-even → inf.
        assert_eq!(F16::from_f32(65520.0).to_bits(), 0x7c00);
    }

    #[test]
    fn f16_round_trip_is_exhaustively_exact() {
        // Every non-NaN f16 bit pattern must survive f16 → f32 → f16.
        for h in 0..=u16::MAX {
            let exp = (h >> 10) & 0x1f;
            let mant = h & 0x03ff;
            if exp == 0x1f && mant != 0 {
                continue; // NaN payloads are not preserved bit-exactly
            }
            let back = F16::from_f32(F16::from_bits(h).to_f32()).to_bits();
            assert_eq!(back, h, "round trip broke for bits {h:#06x}");
        }
    }

    #[test]
    fn dtype_tags_round_trip() {
        for d in [DType::F32, DType::F16, DType::I8] {
            assert_eq!(DType::from_tag(d.tag()), Some(d));
        }
        assert_eq!(DType::from_tag(9), None);
    }
}
