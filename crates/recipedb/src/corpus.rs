//! Corpus generation: the raw "as scraped" dataset with injected defects
//! (Fig. 1), train/test splitting, and tagged-text rendering.

use ratatouille_util::rng::StdRng;
use ratatouille_util::rng::{RngExt, SeedableRng};

use crate::grammar::RecipeGenerator;
use crate::recipe::Recipe;

/// A raw-data defect the preprocessing pipeline must handle. RecipeDB's
/// web-scraped sources contain all of these (the paper: "the dataset is
/// unorganised and needed more manual preprocessing").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Defect {
    /// Exact duplicate of an earlier record.
    Duplicate,
    /// Record cut off mid-text (lost instructions tail).
    Truncated,
    /// Instructions section missing entirely.
    MissingInstructions,
    /// Title line missing.
    MissingTitle,
    /// Scraping artifacts embedded in the text ("!1", entity escapes…).
    NoiseArtifacts,
}

/// One record of the raw corpus: the text as "scraped", plus ground truth
/// about which recipe produced it and what defect (if any) was injected.
/// The ground truth is *not* visible to the preprocessing pipeline — tests
/// use it to verify the pipeline's decisions.
#[derive(Debug, Clone)]
pub struct RawRecord {
    /// The raw text form.
    pub text: String,
    /// Id of the source recipe.
    pub source_id: u64,
    /// Injected defect, if any.
    pub defect: Option<Defect>,
}

/// Configuration for corpus generation.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// RNG seed; the whole corpus is a pure function of this config.
    pub seed: u64,
    /// Number of base recipes to generate.
    pub num_recipes: usize,
    /// Probability a record is followed by a duplicate of itself.
    pub duplicate_rate: f64,
    /// Probability a record is truncated mid-text.
    pub truncated_rate: f64,
    /// Probability a record loses its instructions or title.
    pub incomplete_rate: f64,
    /// Probability scraping noise is injected.
    pub noise_rate: f64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            seed: 42,
            num_recipes: 2000,
            duplicate_rate: 0.05,
            truncated_rate: 0.03,
            incomplete_rate: 0.04,
            noise_rate: 0.05,
        }
    }
}

/// The generated corpus: clean structured recipes plus the defect-injected
/// raw records derived from them.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Clean structured recipes (the "database" view of RecipeDB).
    pub recipes: Vec<Recipe>,
    /// Raw textual records with injected defects (the "scraped" view).
    pub raw_records: Vec<RawRecord>,
    config: CorpusConfig,
}

impl Corpus {
    /// Generate a corpus from the config. Deterministic.
    pub fn generate(config: CorpusConfig) -> Self {
        let mut gen = RecipeGenerator::new(config.seed);
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_mul(0x9E37_79B9));
        let recipes: Vec<Recipe> = (0..config.num_recipes).map(|_| gen.generate()).collect();

        let mut raw_records = Vec::with_capacity(recipes.len() + recipes.len() / 10);
        for r in &recipes {
            let mut text = r.to_raw_string();
            let mut defect = None;
            if rng.random::<f64>() < config.incomplete_rate {
                if rng.random::<f64>() < 0.5 {
                    // drop the instructions paragraph (last line)
                    let without: Vec<&str> = text.lines().take(2).collect();
                    text = without.join("\n");
                    defect = Some(Defect::MissingInstructions);
                } else {
                    let without: Vec<&str> = text.lines().skip(1).collect();
                    text = without.join("\n");
                    defect = Some(Defect::MissingTitle);
                }
            } else if rng.random::<f64>() < config.truncated_rate {
                let keep = text.len() / 2 + rng.random_range(0..text.len() / 4);
                let cut = text
                    .char_indices()
                    .map(|(i, _)| i)
                    .take_while(|&i| i <= keep)
                    .last()
                    .unwrap_or(0);
                text.truncate(cut);
                defect = Some(Defect::Truncated);
            }
            if rng.random::<f64>() < config.noise_rate {
                let artifact = ["!1", "&nbsp;", "\\u00bd", "  <br/>"]
                    [rng.random_range(0..4usize)];
                text.push_str(artifact);
                defect = defect.or(Some(Defect::NoiseArtifacts));
            }
            raw_records.push(RawRecord {
                text,
                source_id: r.id,
                defect,
            });
            if rng.random::<f64>() < config.duplicate_rate {
                let last = raw_records.last().unwrap().clone();
                raw_records.push(RawRecord {
                    defect: Some(Defect::Duplicate),
                    ..last
                });
            }
        }
        Corpus {
            recipes,
            raw_records,
            config,
        }
    }

    /// The config this corpus was generated from.
    pub fn config(&self) -> &CorpusConfig {
        &self.config
    }

    /// Deterministic train/test split of the *clean* recipes: every
    /// `1/test_frac`-th recipe goes to test (interleaved, so both splits
    /// cover all regions and dish kinds).
    pub fn split(&self, test_frac: f64) -> (Vec<&Recipe>, Vec<&Recipe>) {
        assert!(
            (0.0..1.0).contains(&test_frac),
            "test_frac must be in [0,1), got {test_frac}"
        );
        if test_frac == 0.0 {
            return (self.recipes.iter().collect(), Vec::new());
        }
        let every = (1.0 / test_frac).round() as usize;
        let mut train = Vec::new();
        let mut test = Vec::new();
        for (i, r) in self.recipes.iter().enumerate() {
            if i % every == every - 1 {
                test.push(r);
            } else {
                train.push(r);
            }
        }
        (train, test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CorpusConfig {
        CorpusConfig {
            num_recipes: 300,
            ..CorpusConfig::default()
        }
    }

    #[test]
    fn deterministic() {
        let a = Corpus::generate(small());
        let b = Corpus::generate(small());
        assert_eq!(a.recipes, b.recipes);
        assert_eq!(a.raw_records.len(), b.raw_records.len());
        for (x, y) in a.raw_records.iter().zip(&b.raw_records) {
            assert_eq!(x.text, y.text);
            assert_eq!(x.defect, y.defect);
        }
    }

    #[test]
    fn defects_injected_at_roughly_configured_rates() {
        let c = Corpus::generate(CorpusConfig {
            num_recipes: 2000,
            ..CorpusConfig::default()
        });
        let count = |d: Defect| c.raw_records.iter().filter(|r| r.defect == Some(d)).count();
        let n = c.recipes.len() as f64;
        let dup = count(Defect::Duplicate) as f64 / n;
        assert!((0.02..0.09).contains(&dup), "dup rate {dup}");
        let incomplete =
            (count(Defect::MissingInstructions) + count(Defect::MissingTitle)) as f64 / n;
        assert!((0.015..0.08).contains(&incomplete), "incomplete rate {incomplete}");
        // most records are clean
        let clean = c.raw_records.iter().filter(|r| r.defect.is_none()).count() as f64
            / c.raw_records.len() as f64;
        assert!(clean > 0.8, "clean fraction {clean}");
    }

    #[test]
    fn duplicates_are_exact_copies() {
        let c = Corpus::generate(small());
        for (i, rec) in c.raw_records.iter().enumerate() {
            if rec.defect == Some(Defect::Duplicate) {
                assert!(i > 0);
                assert_eq!(rec.text, c.raw_records[i - 1].text);
            }
        }
    }

    #[test]
    fn split_is_disjoint_and_complete() {
        let c = Corpus::generate(small());
        let (train, test) = c.split(0.1);
        assert_eq!(train.len() + test.len(), c.recipes.len());
        assert!((test.len() as f64 / c.recipes.len() as f64 - 0.1).abs() < 0.02);
        let train_ids: std::collections::HashSet<u64> = train.iter().map(|r| r.id).collect();
        assert!(test.iter().all(|r| !train_ids.contains(&r.id)));
    }

    #[test]
    fn split_zero_test() {
        let c = Corpus::generate(small());
        let (train, test) = c.split(0.0);
        assert_eq!(train.len(), c.recipes.len());
        assert!(test.is_empty());
    }
}
