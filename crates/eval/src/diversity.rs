//! Diversity metrics: distinct-n and self-BLEU.
//!
//! A model that copies one training recipe verbatim can score a high BLEU
//! while being useless as a *novel* recipe generator; these metrics make
//! that failure mode visible (used by the sampling-strategy ablation).

use ratatouille_util::collections::{det_set, DetSet};

use crate::bleu::sentence_bleu;

/// Distinct-n (Li et al., 2016): unique n-grams / total n-grams across a
/// set of generations. 1.0 = every n-gram unique; → 0 as text degenerates
/// into repetition.
pub fn distinct_n<S: AsRef<str>>(texts: &[S], n: usize) -> f64 {
    assert!(n >= 1, "n must be >= 1");
    let mut unique: DetSet<Vec<&str>> = det_set();
    let mut total = 0usize;
    for t in texts {
        let tokens: Vec<&str> = t.as_ref().split_whitespace().collect();
        if tokens.len() < n {
            continue;
        }
        for w in tokens.windows(n) {
            total += 1;
            unique.insert(w.to_vec());
        }
    }
    if total == 0 {
        0.0
    } else {
        unique.len() as f64 / total as f64
    }
}

/// Self-BLEU (Zhu et al., 2018): mean BLEU of each generation against all
/// the others. High self-BLEU = the model generates near-identical
/// outputs (mode collapse).
pub fn self_bleu<S: AsRef<str>>(texts: &[S]) -> f64 {
    if texts.len() < 2 {
        return 0.0;
    }
    let mut sum = 0.0;
    for (i, t) in texts.iter().enumerate() {
        let others: Vec<&str> = texts
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, o)| o.as_ref())
            .collect();
        // xlint: allow(float-reduction-order): f64 sum in corpus index order; iteration strategy is fixed
        sum += sentence_bleu(t.as_ref(), &others);
    }
    sum / texts.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_1_reference() {
        // "a b a" → unigrams a,b,a: 2 unique / 3 total
        let d = distinct_n(&["a b a"], 1);
        assert!((d - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn all_identical_has_low_distinct() {
        let texts = vec!["mix the dough"; 20];
        let d = distinct_n(&texts, 2);
        // 2 unique bigrams over 40 occurrences
        assert!(d <= 0.05 + 1e-9, "{d}");
    }

    #[test]
    fn all_unique_has_high_distinct() {
        let texts: Vec<String> = (0..20).map(|i| format!("token{i} word{i} item{i}")).collect();
        let d = distinct_n(&texts, 2);
        assert!((d - 1.0).abs() < 1e-9);
    }

    #[test]
    fn self_bleu_extremes() {
        let same = vec!["mix the flour and water well"; 5];
        assert!(self_bleu(&same) > 0.99);
        let diff = vec![
            "aa bb cc dd ee",
            "ff gg hh ii jj",
            "kk ll mm nn oo",
        ];
        assert!(self_bleu(&diff) < 0.05);
        assert_eq!(self_bleu(&["only one"]), 0.0);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(distinct_n(&Vec::<String>::new(), 2), 0.0);
    }
}
