//! Aggregated evaluation reports (one row of Table I plus the
//! complementary metrics).

use std::fmt;

/// All metrics for one model on one evaluation set.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// Model name ("Char-level LSTM", "GPT-2 medium", …).
    pub model: String,
    /// Corpus BLEU against held-out references (Table I's column).
    pub bleu: f64,
    /// Mean ROUGE-L F1 against held-out references.
    pub rouge_l: f64,
    /// Mean fraction of prompt ingredients used by the generation.
    pub ingredient_coverage: f64,
    /// Token perplexity on held-out text. A property of the trained f32
    /// weights: an int8-decoded report carries the f32 model's value.
    pub perplexity: f64,
    /// Distinct-2 across generations.
    pub distinct_2: f64,
    /// Self-BLEU across generations.
    pub self_bleu: f64,
    /// Fraction of generations passing structural validation.
    pub structure_valid_rate: f64,
    /// Mean fraction of ingredient lines carrying quantities.
    pub quantity_coverage: f64,
    /// Fraction of generations that are verbatim training copies.
    pub copy_rate: f64,
    /// Mean per-recipe generation latency in milliseconds.
    pub gen_latency_ms: f64,
}

impl EvalReport {
    /// An empty report for `model` (all metrics zero / worst-case).
    pub fn new(model: impl Into<String>) -> Self {
        EvalReport {
            model: model.into(),
            bleu: 0.0,
            rouge_l: 0.0,
            ingredient_coverage: 0.0,
            perplexity: f64::INFINITY,
            distinct_2: 0.0,
            self_bleu: 0.0,
            structure_valid_rate: 0.0,
            quantity_coverage: 0.0,
            copy_rate: 0.0,
            gen_latency_ms: 0.0,
        }
    }
}

impl fmt::Display for EvalReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "model: {}", self.model)?;
        writeln!(f, "  BLEU:             {:.3}", self.bleu)?;
        writeln!(f, "  ROUGE-L:          {:.3}", self.rouge_l)?;
        writeln!(f, "  ingr coverage:    {:.1}%", self.ingredient_coverage * 100.0)?;
        writeln!(f, "  perplexity:       {:.2}", self.perplexity)?;
        writeln!(f, "  distinct-2:       {:.3}", self.distinct_2)?;
        writeln!(f, "  self-BLEU:        {:.3}", self.self_bleu)?;
        writeln!(f, "  structure valid:  {:.1}%", self.structure_valid_rate * 100.0)?;
        writeln!(f, "  qty coverage:     {:.1}%", self.quantity_coverage * 100.0)?;
        writeln!(f, "  copy rate:        {:.1}%", self.copy_rate * 100.0)?;
        writeln!(f, "  gen latency:      {:.1} ms", self.gen_latency_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_all_metrics() {
        let mut r = EvalReport::new("GPT-2 medium");
        r.bleu = 0.806;
        let s = r.to_string();
        assert!(s.contains("GPT-2 medium"));
        assert!(s.contains("0.806"));
        assert!(s.contains("perplexity"));
    }

    #[test]
    fn new_is_worst_case() {
        let r = EvalReport::new("x");
        assert_eq!(r.bleu, 0.0);
        assert!(r.perplexity.is_infinite());
    }
}
