//! Perplexity: `exp(mean token NLL)` — the language-modeling metric the
//! Recipe1M+ line of work reports alongside BLEU.

/// Perplexity from per-token negative log-likelihoods (natural log).
///
/// Returns `f64::INFINITY` for empty input (no evidence) and propagates
/// infinite NLLs (a zero-probability token).
// Host libm's f64 `exp` reaches perplexity here until it is transcribed like
// `ops::libm::expf` (ROADMAP, "The same bits on every host").
#[allow(clippy::disallowed_methods)]
pub fn perplexity_from_nll(nlls: &[f32]) -> f64 {
    if nlls.is_empty() {
        return f64::INFINITY;
    }
    let mean = nlls.iter().map(|&v| v as f64).sum::<f64>() / nlls.len() as f64;
    mean.exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_reference() {
        // NLL of uniform over V outcomes is ln V per token.
        let v = 100usize;
        let nll = (v as f32).ln();
        let ppl = perplexity_from_nll(&[nll; 10]);
        assert!((ppl - v as f64).abs() < 0.01, "{ppl}");
    }

    #[test]
    fn certain_model_has_perplexity_one() {
        let ppl = perplexity_from_nll(&[0.0; 5]);
        assert!((ppl - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_is_infinite() {
        assert!(perplexity_from_nll(&[]).is_infinite());
    }

    #[test]
    fn lower_nll_means_lower_perplexity() {
        assert!(perplexity_from_nll(&[1.0; 8]) < perplexity_from_nll(&[2.0; 8]));
    }
}
