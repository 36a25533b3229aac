//! End-to-end pipeline configuration.

use ratatouille_models::sample::SamplerConfig;
use ratatouille_recipedb::{CorpusConfig, PreprocessConfig};

/// Everything the pipeline needs: corpus generation, preprocessing,
/// splitting and decoding defaults.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Synthetic-RecipeDB generation parameters.
    pub corpus: CorpusConfig,
    /// Preprocessing parameters (§III of the paper).
    pub preprocess: PreprocessConfig,
    /// Fraction of clean recipes held out for evaluation.
    pub test_frac: f64,
    /// Default decoding configuration.
    pub sampler: SamplerConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            corpus: CorpusConfig::default(),
            preprocess: PreprocessConfig::default(),
            test_frac: 0.1,
            sampler: SamplerConfig::default(),
        }
    }
}

impl PipelineConfig {
    /// A small configuration for tests and examples (hundreds of recipes,
    /// runs end-to-end in seconds).
    pub fn small() -> Self {
        PipelineConfig {
            corpus: CorpusConfig {
                num_recipes: 300,
                ..CorpusConfig::default()
            },
            ..Default::default()
        }
    }

    /// The full reproduction configuration used by the Table-I harness.
    ///
    /// Decoding is low-temperature nucleus sampling: BLEU-style reference
    /// matching rewards conservative decoding (the `ablation_sampling`
    /// bench quantifies the trade-off against diversity).
    pub fn reproduction() -> Self {
        PipelineConfig {
            corpus: CorpusConfig {
                num_recipes: 1500,
                ..CorpusConfig::default()
            },
            sampler: SamplerConfig {
                temperature: 0.7,
                top_k: 40,
                top_p: 0.9,
                ..SamplerConfig::default()
            },
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_size() {
        assert!(PipelineConfig::small().corpus.num_recipes < PipelineConfig::reproduction().corpus.num_recipes);
    }
}
