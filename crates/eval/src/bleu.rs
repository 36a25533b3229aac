//! BLEU (Papineni et al., 2002) with Chen & Cherry (2014) smoothing —
//! the metric behind Table I.
//!
//! Implementation notes:
//! * modified n-gram precision with per-reference clipping;
//! * geometric mean over orders 1..=4 (configurable);
//! * brevity penalty `exp(1 - r/c)` with the closest-reference-length
//!   convention;
//! * smoothing method 1 (add-epsilon on zero counts) so short candidates
//!   do not collapse the geometric mean to zero.

use ratatouille_util::collections::{det_map, DetMap};

/// Default maximum n-gram order.
pub const DEFAULT_MAX_N: usize = 4;

/// Sentence BLEU-4 of whitespace-tokenized `candidate` against one or
/// more `references`. Returns a value in `[0, 1]`.
pub fn sentence_bleu(candidate: &str, references: &[&str]) -> f64 {
    let cand: Vec<&str> = candidate.split_whitespace().collect();
    let refs: Vec<Vec<&str>> = references
        .iter()
        .map(|r| r.split_whitespace().collect())
        .collect();
    bleu_tokens(&cand, &refs, DEFAULT_MAX_N)
}

/// Corpus BLEU: aggregates n-gram statistics over all candidate/reference
/// pairs before combining (the standard corpus-level formulation — not a
/// mean of sentence scores).
pub fn corpus_bleu(pairs: &[(&str, Vec<&str>)]) -> f64 {
    corpus_bleu_n(pairs, DEFAULT_MAX_N)
}

/// Corpus BLEU with an explicit maximum order.
pub fn corpus_bleu_n(pairs: &[(&str, Vec<&str>)], max_n: usize) -> f64 {
    assert!(max_n >= 1, "max_n must be >= 1");
    if pairs.is_empty() {
        return 0.0;
    }
    let mut matched = vec![0usize; max_n];
    let mut total = vec![0usize; max_n];
    let mut cand_len = 0usize;
    let mut ref_len = 0usize;
    for (cand, refs) in pairs {
        let cand: Vec<&str> = cand.split_whitespace().collect();
        let refs: Vec<Vec<&str>> = refs.iter().map(|r| r.split_whitespace().collect()).collect();
        cand_len += cand.len();
        ref_len += closest_ref_len(cand.len(), &refs);
        for n in 1..=max_n {
            let (m, t) = clipped_matches(&cand, &refs, n);
            matched[n - 1] += m;
            total[n - 1] += t;
        }
    }
    combine(&matched, &total, cand_len, ref_len)
}

/// Token-level sentence BLEU.
pub fn bleu_tokens(cand: &[&str], refs: &[Vec<&str>], max_n: usize) -> f64 {
    assert!(max_n >= 1, "max_n must be >= 1");
    if cand.is_empty() || refs.is_empty() {
        return 0.0;
    }
    let mut matched = vec![0usize; max_n];
    let mut total = vec![0usize; max_n];
    for n in 1..=max_n {
        let (m, t) = clipped_matches(cand, refs, n);
        matched[n - 1] = m;
        total[n - 1] = t;
    }
    combine(&matched, &total, cand.len(), closest_ref_len(cand.len(), refs))
}

/// Geometric mean of smoothed precisions × brevity penalty.
fn combine(matched: &[usize], total: &[usize], cand_len: usize, ref_len: usize) -> f64 {
    if cand_len == 0 {
        return 0.0;
    }
    let mut log_sum = 0.0f64;
    let mut orders = 0usize;
    for (m, t) in matched.iter().zip(total) {
        if *t == 0 {
            // candidate shorter than this order — skip (NLTK convention)
            continue;
        }
        orders += 1;
        // Chen–Cherry smoothing 1: epsilon on zero matches.
        let p = if *m == 0 {
            0.1 / *t as f64
        } else {
            *m as f64 / *t as f64
        };
        // xlint: allow(float-reduction-order): f64 sum over a fixed 4-order loop; the order never varies
        log_sum += p.ln();
    }
    if orders == 0 {
        return 0.0;
    }
    let geo = (log_sum / orders as f64).exp();
    let bp = if cand_len >= ref_len {
        1.0
    } else {
        (1.0 - ref_len as f64 / cand_len as f64).exp()
    };
    (geo * bp).clamp(0.0, 1.0)
}

/// Reference length closest to the candidate length (ties → shorter).
fn closest_ref_len(cand_len: usize, refs: &[Vec<&str>]) -> usize {
    refs.iter()
        .map(|r| r.len())
        .min_by_key(|&l| {
            let diff = l.abs_diff(cand_len);
            (diff, l)
        })
        .unwrap_or(0)
}

/// Clipped n-gram matches: `(matched, total)` for order `n`.
fn clipped_matches(cand: &[&str], refs: &[Vec<&str>], n: usize) -> (usize, usize) {
    if cand.len() < n {
        return (0, 0);
    }
    let cand_counts = ngram_counts(cand, n);
    // max reference count per n-gram across references
    let mut ref_max: DetMap<&[&str], usize> = det_map();
    for r in refs {
        if r.len() < n {
            continue;
        }
        for (gram, c) in ngram_counts(r, n) {
            let e = ref_max.entry(gram).or_insert(0);
            *e = (*e).max(c);
        }
    }
    let total: usize = cand.len() - n + 1;
    let matched: usize = cand_counts
        .iter()
        .map(|(gram, &c)| c.min(ref_max.get(gram).copied().unwrap_or(0)))
        .sum();
    (matched, total)
}

/// Count n-grams (as token-slice keys) in a token sequence.
fn ngram_counts<'a>(tokens: &'a [&'a str], n: usize) -> DetMap<&'a [&'a str], usize> {
    let mut counts = det_map();
    for w in tokens.windows(n) {
        *counts.entry(w).or_insert(0) += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_text_scores_one() {
        let s = "preheat the oven to 350 degrees and bake for 30 minutes";
        assert!((sentence_bleu(s, &[s]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_text_scores_near_zero() {
        let score = sentence_bleu("aa bb cc dd ee", &["vv ww xx yy zz"]);
        assert!(score < 0.05, "score {score}");
    }

    #[test]
    fn partial_overlap_is_between() {
        let cand = "mix the flour and sugar in a bowl";
        let reference = "mix the flour and water in a pot";
        let score = sentence_bleu(cand, &[reference]);
        assert!(score > 0.2 && score < 0.9, "score {score}");
    }

    #[test]
    fn clipping_penalizes_repetition() {
        // "the the the ..." must not get credit for each repeated "the".
        let score = sentence_bleu("the the the the the the the", &["the cat sat on the mat"]);
        assert!(score < 0.2, "score {score}");
    }

    #[test]
    fn brevity_penalty_applies() {
        let reference = "mix the flour and water until a smooth dough forms";
        let full = sentence_bleu(reference, &[reference]);
        let brief = sentence_bleu("mix the flour", &[reference]);
        assert!(brief < full);
        assert!(brief < 0.7, "short candidate must be penalized: {brief}");
    }

    #[test]
    fn multiple_references_take_best_overlap() {
        let cand = "simmer the soup for twenty minutes";
        let score_one = sentence_bleu(cand, &["boil the pasta until done"]);
        let score_two = sentence_bleu(
            cand,
            &["boil the pasta until done", "simmer the soup for thirty minutes"],
        );
        assert!(score_two > score_one);
    }

    #[test]
    fn bounded_zero_one() {
        for (c, r) in [
            ("a", "a"),
            ("a b", "b a"),
            ("", "a b c"),
            ("x y z", ""),
            ("a a a a", "a"),
        ] {
            let s = sentence_bleu(c, &[r]);
            assert!((0.0..=1.0).contains(&s), "bleu({c:?},{r:?}) = {s}");
        }
    }

    #[test]
    fn corpus_bleu_identical_is_one() {
        let pairs: Vec<(&str, Vec<&str>)> = vec![
            ("mix the dough well", vec!["mix the dough well"]),
            ("bake until golden brown", vec!["bake until golden brown"]),
        ];
        assert!((corpus_bleu(&pairs) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn corpus_bleu_pools_statistics() {
        // One perfect and one disjoint sentence: corpus BLEU pools counts,
        // so the result is not the mean of sentence scores.
        let pairs: Vec<(&str, Vec<&str>)> = vec![
            ("mix the dough well today", vec!["mix the dough well today"]),
            ("qq ww ee rr tt", vec!["aa ss dd ff gg"]),
        ];
        let c = corpus_bleu(&pairs);
        assert!(c > 0.0 && c < 1.0);
        let mean = (1.0 + sentence_bleu("qq ww ee rr tt", &["aa ss dd ff gg"])) / 2.0;
        assert!((c - mean).abs() > 0.01, "corpus {c} vs mean {mean}");
    }

    #[test]
    fn short_candidates_dont_collapse_to_zero() {
        // 3-token candidate has no 4-grams; smoothing/skipping must keep
        // the score positive when unigrams match.
        let s = sentence_bleu("mix the flour", &["mix the flour thoroughly now"]);
        assert!(s > 0.0);
    }

    #[test]
    fn empty_corpus_is_zero() {
        assert_eq!(corpus_bleu(&[]), 0.0);
    }

    #[test]
    fn bleu1_equals_unigram_precision_when_long() {
        let cand = "a b c d";
        let refs = ["a b x y"];
        let s = corpus_bleu_n(&[(cand, refs.to_vec())], 1);
        // 2 of 4 unigrams match, lengths equal → bp = 1
        assert!((s - 0.5).abs() < 1e-9, "{s}");
    }

    // ---- hand-computed reference scores ------------------------------
    //
    // Each test derives the expected value from the BLEU definition by
    // hand (precisions, smoothing, brevity penalty) and pins the
    // implementation to it exactly.

    #[test]
    fn handcomputed_bleu2_geometric_mean() {
        // cand "a b c x" vs ref "a b c d":
        //   p1 = 3/4 (a, b, c match), p2 = 2/3 ("a b", "b c" match)
        //   equal lengths → bp = 1
        //   BLEU-2 = sqrt(3/4 · 2/3) = sqrt(1/2)
        let s = corpus_bleu_n(&[("a b c x", vec!["a b c d"])], 2);
        let expected = (0.75f64 * (2.0 / 3.0)).sqrt();
        assert!((s - expected).abs() < 1e-12, "{s} vs {expected}");
        assert!((s - 0.707_106_781_186_547_5).abs() < 1e-12);
    }

    #[test]
    fn handcomputed_brevity_penalty_exact() {
        // cand "a b" vs ref "a b c d" at max_n = 1:
        //   p1 = 2/2 = 1, cand_len 2 < ref_len 4
        //   bp = exp(1 - 4/2) = e^-1
        let s = corpus_bleu_n(&[("a b", vec!["a b c d"])], 1);
        let expected = (-1.0f64).exp();
        assert!((s - expected).abs() < 1e-12, "{s} vs {expected}");
        assert!((s - 0.367_879_441_171_442_33).abs() < 1e-12);
    }

    #[test]
    fn handcomputed_zero_overlap_smoothing() {
        // cand "a b c" vs ref "x y z", default max_n = 4:
        //   no order matches anything; 4-grams don't exist (skipped),
        //   smoothing 1 gives p_n = 0.1/total:
        //   p1 = 0.1/3, p2 = 0.1/2, p3 = 0.1/1
        //   BLEU = cbrt(1/30 · 1/20 · 1/10) = cbrt(1/6000), bp = 1
        let s = sentence_bleu("a b c", &["x y z"]);
        let expected = (1.0f64 / 6000.0).cbrt();
        assert!((s - expected).abs() < 1e-12, "{s} vs {expected}");
        assert!((s - 0.055_032_120_814_910_444).abs() < 1e-9);
    }

    #[test]
    fn handcomputed_clipping_exact() {
        // cand "the the the" vs ref "the cat":
        //   p1 clipped to 1/3 (ref has one "the"), p2 = 0.1/2, p3 = 0.1/1,
        //   no 4-grams (skipped); cand_len 3 ≥ ref_len 2 → bp = 1
        //   BLEU = cbrt(1/3 · 1/20 · 1/10) = cbrt(1/600)
        let s = sentence_bleu("the the the", &["the cat"]);
        let expected = (1.0f64 / 600.0).cbrt();
        assert!((s - expected).abs() < 1e-12, "{s} vs {expected}");
        assert!((s - 0.118_563_110_149_668_78).abs() < 1e-9);
    }

    #[test]
    fn handcomputed_multi_reference_closest_length() {
        // cand "a b c d e f" vs refs "a b c" (len 3) and "d e f g h i j"
        // (len 7):
        //   p1 = 6/6, p2 = 4/5 (ab, bc, de, ef), p3 = 2/4 (abc, def),
        //   p4 = 0.1/3 (no 4-gram matches → smoothed)
        //   closest ref length to 6 is 7 → bp = exp(1 - 7/6) = e^(-1/6)
        let s = sentence_bleu("a b c d e f", &["a b c", "d e f g h i j"]);
        let expected = (1.0f64 * 0.8 * 0.5 * (0.1 / 3.0)).powf(0.25) * (-1.0f64 / 6.0).exp();
        assert!((s - expected).abs() < 1e-12, "{s} vs {expected}");
    }
}
