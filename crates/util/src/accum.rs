//! Blessed deterministic f32 accumulation helpers.
//!
//! DESIGN.md §4b pins bit-for-bit reproducibility of every
//! result-affecting float reduction. The heavy reductions live in the
//! `tensor/src/ops` kernels (which pin their own blocking and chain
//! order); everything else — softmax normalizers, sampling probability
//! sums, corpus statistics — must go through these helpers instead of
//! ad-hoc `iter().sum()` / `fold` calls, so there is exactly one place
//! where "what order do we add floats in" is decided. `xlint`'s
//! `float-reduction-order` rule enforces this.
//!
//! All helpers accumulate **sequentially, left to right** — the same
//! order as `Iterator::sum::<f32>()` — so routing an existing reduction
//! through them is bit-identical to what the call site did before; the
//! win is that the order is now a documented contract rather than an
//! accident of the call site.

/// Sequential left-to-right f32 sum (bit-identical to `iter().sum()`).
pub fn sum_f32<I: IntoIterator<Item = f32>>(xs: I) -> f32 {
    let mut acc = 0.0f32;
    for v in xs {
        acc += v;
    }
    acc
}

/// Maximum absolute value over an f32 stream, `0.0` for an empty one.
pub fn max_abs_f32<I: IntoIterator<Item = f32>>(xs: I) -> f32 {
    let mut m = 0.0f32;
    for v in xs {
        m = m.max(v.abs());
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_matches_iterator_sum_bitwise() {
        let xs: Vec<f32> = (0..1000).map(|i| ((i * 37) % 101) as f32 * 0.3 - 7.0).collect();
        let theirs: f32 = xs.iter().copied().sum();
        assert_eq!(sum_f32(xs.iter().copied()).to_bits(), theirs.to_bits());
    }

    #[test]
    fn max_abs_handles_empty() {
        assert_eq!(max_abs_f32([-3.0, 2.0]), 3.0);
        assert_eq!(max_abs_f32(std::iter::empty()), 0.0);
    }
}
