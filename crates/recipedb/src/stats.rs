//! Corpus statistics: the recipe-size distribution behind the paper's
//! 2σ/2000-character preprocessing decisions, plus ingredient frequency
//! accounting.

use ratatouille_util::accum::sum_f32;
use ratatouille_util::collections::{det_map, DetMap};

use crate::recipe::Recipe;

/// A fixed-width histogram over text lengths.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Inclusive lower bound of the first bucket.
    pub min: usize,
    /// Width of each bucket.
    pub bucket_width: usize,
    /// Counts per bucket.
    pub counts: Vec<usize>,
}

impl Histogram {
    /// Build a histogram of `values` with `buckets` equal-width buckets.
    pub fn build(values: &[usize], buckets: usize) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        if values.is_empty() {
            return Histogram {
                min: 0,
                bucket_width: 1,
                counts: vec![0; buckets],
            };
        }
        let min = *values.iter().min().unwrap();
        let max = *values.iter().max().unwrap();
        let width = ((max - min) / buckets + 1).max(1);
        let mut counts = vec![0usize; buckets];
        for &v in values {
            let b = ((v - min) / width).min(buckets - 1);
            counts[b] += 1;
        }
        Histogram {
            min,
            bucket_width: width,
            counts,
        }
    }

    /// Render as an ASCII bar chart (one line per bucket).
    pub fn render(&self, bar_width: usize) -> String {
        let max = self.counts.iter().copied().max().unwrap_or(1).max(1);
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let lo = self.min + i * self.bucket_width;
            let hi = lo + self.bucket_width - 1;
            let bar = "#".repeat(c * bar_width / max);
            out.push_str(&format!("{lo:>6}-{hi:<6} | {bar} {c}\n"));
        }
        out
    }
}

/// Summary statistics of a length distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LengthStats {
    /// Sample count.
    pub n: usize,
    /// Mean length.
    pub mean: f32,
    /// Standard deviation.
    pub std: f32,
    /// Minimum.
    pub min: usize,
    /// Maximum.
    pub max: usize,
    /// Fraction of samples within mean ± 2σ.
    pub within_2_sigma: f32,
}

/// Compute [`LengthStats`] for a set of texts.
pub fn length_stats<S: AsRef<str>>(texts: &[S]) -> LengthStats {
    if texts.is_empty() {
        return LengthStats {
            n: 0,
            mean: 0.0,
            std: 0.0,
            min: 0,
            max: 0,
            within_2_sigma: 0.0,
        };
    }
    let lens: Vec<usize> = texts.iter().map(|t| t.as_ref().len()).collect();
    let n = lens.len() as f32;
    let mean = lens.iter().sum::<usize>() as f32 / n;
    let var = sum_f32(lens.iter().map(|&l| {
        let d = l as f32 - mean;
        d * d
    })) / n;
    let std = var.sqrt();
    let lo = mean - 2.0 * std;
    let hi = mean + 2.0 * std;
    let within = lens
        .iter()
        .filter(|&&l| (l as f32) >= lo && (l as f32) <= hi)
        .count() as f32
        / n;
    LengthStats {
        n: lens.len(),
        mean,
        std,
        min: *lens.iter().min().unwrap(),
        max: *lens.iter().max().unwrap(),
        within_2_sigma: within,
    }
}

/// Ingredient usage counts over a recipe set, most frequent first.
pub fn ingredient_frequencies(recipes: &[&Recipe]) -> Vec<(String, usize)> {
    let mut counts: DetMap<&str, usize> = det_map();
    for r in recipes {
        for line in &r.ingredients {
            *counts.entry(line.name.as_str()).or_insert(0) += 1;
        }
    }
    let mut v: Vec<(String, usize)> = counts
        .into_iter()
        .map(|(k, c)| (k.to_string(), c))
        .collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Corpus, CorpusConfig};

    #[test]
    fn histogram_covers_all_values() {
        let values = vec![1, 5, 9, 9, 9, 20];
        let h = Histogram::build(&values, 4);
        assert_eq!(h.counts.iter().sum::<usize>(), values.len());
        let rendered = h.render(20);
        assert_eq!(rendered.lines().count(), 4);
    }

    #[test]
    fn histogram_empty_and_uniform() {
        let h = Histogram::build(&[], 3);
        assert_eq!(h.counts, vec![0, 0, 0]);
        let h = Histogram::build(&[7, 7, 7], 3);
        assert_eq!(h.counts.iter().sum::<usize>(), 3);
    }

    #[test]
    fn length_stats_reference() {
        let texts = ["aa", "aaaa", "aaaaaa"]; // lens 2,4,6
        let s = length_stats(&texts);
        assert_eq!(s.n, 3);
        assert!((s.mean - 4.0).abs() < 1e-5);
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 6);
        assert_eq!(s.within_2_sigma, 1.0);
    }

    #[test]
    fn corpus_lengths_are_long_tailed_but_mostly_within_2_sigma() {
        let c = Corpus::generate(CorpusConfig {
            num_recipes: 800,
            ..CorpusConfig::default()
        });
        let texts: Vec<String> = c.recipes.iter().map(|r| r.to_tagged_string()).collect();
        let s = length_stats(&texts);
        // The paper relies on ~95% of recipes falling within 2σ.
        assert!(s.within_2_sigma > 0.9, "within 2σ: {}", s.within_2_sigma);
        assert!(s.std > 0.0);
    }

    #[test]
    fn ingredient_frequencies_sorted_desc() {
        let c = Corpus::generate(CorpusConfig {
            num_recipes: 200,
            ..CorpusConfig::default()
        });
        let refs: Vec<&crate::recipe::Recipe> = c.recipes.iter().collect();
        let freqs = ingredient_frequencies(&refs);
        assert!(!freqs.is_empty());
        for w in freqs.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // Zipf head: top ingredient should be very common.
        assert!(freqs[0].1 > c.recipes.len() / 5);
    }
}
