//! Weight initialization.
//!
//! The whitelisted `rand` crate ships only uniform sampling, so Gaussian
//! draws use the Box–Muller transform implemented here.

use ratatouille_util::rng::{Rng, RngExt};

use crate::tensor::Tensor;

/// One standard-normal sample via Box–Muller.
#[inline]
pub fn randn_scalar(rng: &mut impl Rng) -> f32 {
    // Guard against ln(0).
    let u1: f32 = rng.random::<f32>().max(1e-12);
    let u2: f32 = rng.random::<f32>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Tensor of i.i.d. `N(0, std²)` samples.
pub fn randn(rng: &mut impl Rng, dims: &[usize], std: f32) -> Tensor {
    let n: usize = dims.iter().product();
    let data = (0..n).map(|_| randn_scalar(rng) * std).collect();
    Tensor::from_vec(data, dims).expect("randn: invalid shape")
}

/// Tensor of i.i.d. `U(lo, hi)` samples.
pub fn uniform(rng: &mut impl Rng, dims: &[usize], lo: f32, hi: f32) -> Tensor {
    let n: usize = dims.iter().product();
    let data = (0..n).map(|_| rng.random::<f32>() * (hi - lo) + lo).collect();
    Tensor::from_vec(data, dims).expect("uniform: invalid shape")
}

/// Xavier/Glorot uniform init for a `[fan_in, fan_out]` weight matrix.
pub fn xavier_uniform(rng: &mut impl Rng, fan_in: usize, fan_out: usize) -> Tensor {
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(rng, &[fan_in, fan_out], -limit, limit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratatouille_util::rng::StdRng;
    use ratatouille_util::rng::SeedableRng;

    #[test]
    fn randn_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = randn(&mut rng, &[20_000], 1.0);
        let n = t.numel() as f32;
        let mean = t.data().iter().sum::<f32>() / n;
        let var = t.data().iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
        assert!(!t.has_non_finite());
    }

    #[test]
    fn uniform_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = uniform(&mut rng, &[1000], -0.5, 0.5);
        assert!(t.data().iter().all(|&v| (-0.5..0.5).contains(&v)));
    }

    #[test]
    fn xavier_limit() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = xavier_uniform(&mut rng, 100, 200);
        let limit = (6.0f32 / 300.0).sqrt();
        assert!(t.max_abs() <= limit);
        assert_eq!(t.dims(), &[100, 200]);
    }

    #[test]
    fn seeded_init_is_deterministic() {
        let a = randn(&mut StdRng::seed_from_u64(7), &[64], 0.02);
        let b = randn(&mut StdRng::seed_from_u64(7), &[64], 0.02);
        assert_eq!(a, b);
    }
}
