//! The four Table-I model configurations and the paper's §VII GPT-Neo
//! proposal, with their tokenizers and training budgets, behind one
//! constructor.

use ratatouille_tokenizers::{BpeTokenizer, CharTokenizer, Tokenizer, WordTokenizer};

use crate::gpt2::{Gpt2Config, Gpt2Lm};
use crate::lm::LanguageModel;
use crate::lstm::{LstmConfig, LstmLm};
use crate::train::TrainConfig;

/// The four rows of Table I, plus the GPT-Neo tier the paper names as
/// future work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Character-level LSTM baseline.
    CharLstm,
    /// Word-level LSTM baseline.
    WordLstm,
    /// DistilGPT2 tier.
    DistilGpt2,
    /// GPT-2 medium tier.
    Gpt2Medium,
    /// GPT-Neo (§VII future work): GPT-2 medium's width, depth, context
    /// and budget with alternating global / local attention. Not a
    /// Table-I row.
    GptNeo,
}

/// Table I's rows, in the paper's order.
pub const TABLE1_MODELS: &[ModelKind] = &[
    ModelKind::CharLstm,
    ModelKind::WordLstm,
    ModelKind::DistilGpt2,
    ModelKind::Gpt2Medium,
];

impl ModelKind {
    /// Table I row label.
    pub fn display_name(&self) -> &'static str {
        match self {
            ModelKind::CharLstm => "Char-level LSTM",
            ModelKind::WordLstm => "Word-level LSTM",
            ModelKind::DistilGpt2 => "DistilGPT2",
            ModelKind::Gpt2Medium => "GPT-2 medium",
            ModelKind::GptNeo => "GPT-Neo (future work)",
        }
    }

    /// The BLEU score the paper reports for this row (for EXPERIMENTS.md
    /// shape comparison, not as a target to hit numerically); `None` for
    /// GPT-Neo, which the paper did not train.
    pub fn paper_bleu(&self) -> Option<f64> {
        match self {
            ModelKind::CharLstm => Some(0.347),
            ModelKind::WordLstm => Some(0.412),
            ModelKind::DistilGpt2 => Some(0.442),
            ModelKind::Gpt2Medium => Some(0.806),
            ModelKind::GptNeo => None,
        }
    }

    /// The default training budget for this row, scaled so the whole
    /// table regenerates on a laptop CPU. Budgets favor the transformer
    /// tiers the way the paper's fine-tuning (pre-trained weights + A100
    /// hours) favored GPT-2; GPT-Neo gets GPT-2 medium's.
    pub fn default_train_config(&self) -> TrainConfig {
        let (steps, lr, warmup) = match self {
            ModelKind::CharLstm | ModelKind::WordLstm => (400, 3e-3, 30),
            ModelKind::DistilGpt2 => (500, 2e-3, 40),
            ModelKind::Gpt2Medium | ModelKind::GptNeo => (600, 1.5e-3, 60),
        };
        TrainConfig {
            steps,
            batch_size: 8,
            lr,
            warmup,
            ..Default::default()
        }
    }
}

/// Instantiate just the model for a row, given the tokenizer's vocabulary
/// size. Used both by [`ModelSpec::build`] and by serving workers that
/// rebuild a replica from checkpointed weights.
pub fn build_model(kind: ModelKind, vocab: usize) -> Box<dyn LanguageModel> {
    match kind {
        ModelKind::CharLstm => Box::new(LstmLm::new(LstmConfig::char_level(vocab))),
        ModelKind::WordLstm => Box::new(LstmLm::new(LstmConfig::word_level(vocab))),
        ModelKind::DistilGpt2 => Box::new(Gpt2Lm::new(Gpt2Config::distil(vocab))),
        ModelKind::Gpt2Medium => Box::new(Gpt2Lm::new(Gpt2Config::medium(vocab))),
        // neo_small's own context is 192, shorter than the 256-token
        // recipe-aligned training window; medium's context keeps the
        // comparison at equal width, depth and context.
        ModelKind::GptNeo => Box::new(Gpt2Lm::new(Gpt2Config {
            max_t: 256,
            ..Gpt2Config::neo_small(vocab)
        })),
    }
}

/// A model + its tokenizer + the block size it trains at.
pub struct ModelSpec {
    /// Which registry row this is.
    pub kind: ModelKind,
    /// The instantiated model.
    pub model: Box<dyn LanguageModel>,
    /// The tokenizer the model was built over.
    pub tokenizer: Box<dyn Tokenizer>,
    /// Training block size (sequence length).
    pub block_size: usize,
}

impl ModelSpec {
    /// Build a registry model over a training corpus (the tokenizer is
    /// trained/fit on the corpus first, then the model sized to its
    /// vocabulary).
    pub fn build(kind: ModelKind, corpus: &[String]) -> ModelSpec {
        let tokenizer: Box<dyn Tokenizer> = match kind {
            ModelKind::CharLstm => Box::new(CharTokenizer::train(corpus)),
            ModelKind::WordLstm => Box::new(WordTokenizer::train(corpus, 2)),
            ModelKind::DistilGpt2 | ModelKind::Gpt2Medium | ModelKind::GptNeo => {
                Box::new(BpeTokenizer::train(corpus, 384))
            }
        };
        let model = build_model(kind, tokenizer.vocab_size());
        let block_size = match kind {
            ModelKind::CharLstm => 256,
            ModelKind::WordLstm => 192,
            // transformers train on whole-recipe-aligned blocks: the
            // window must fit a full tagged recipe (~250 BPE tokens)
            ModelKind::DistilGpt2 | ModelKind::Gpt2Medium | ModelKind::GptNeo => 256,
        };
        ModelSpec {
            kind,
            model,
            tokenizer,
            block_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<String> {
        vec![
            "<RECIPE_START><TITLE_START> bread <TITLE_END><INGR_START> 2 cups flour <INGR_END><INSTR_START> mix well <NEXT_INSTR> bake <INSTR_END><RECIPE_END>".to_string();
            12
        ]
    }

    /// Every registry row: Table I's, then GPT-Neo.
    const ALL_MODELS: [ModelKind; 5] = [
        ModelKind::CharLstm,
        ModelKind::WordLstm,
        ModelKind::DistilGpt2,
        ModelKind::Gpt2Medium,
        ModelKind::GptNeo,
    ];

    #[test]
    fn every_row_builds() {
        for kind in ALL_MODELS {
            let spec = ModelSpec::build(kind, &corpus());
            assert_eq!(spec.model.name(), kind.display_name());
            assert!(spec.model.vocab_size() >= spec.tokenizer.vocab_size());
            assert!(spec.model.num_params() > 0);
        }
    }

    /// A training block longer than the model's context panics in the
    /// first forward pass (GPT-Neo's 192-token context once did, under a
    /// 256-token block).
    #[test]
    fn every_row_fits_its_block_in_its_context() {
        for kind in ALL_MODELS {
            let spec = ModelSpec::build(kind, &corpus());
            assert!(
                spec.block_size <= spec.model.max_context(),
                "{kind:?}: block {} > context {}",
                spec.block_size,
                spec.model.max_context()
            );
        }
    }

    #[test]
    fn paper_order_is_monotone() {
        let scores: Vec<f64> = TABLE1_MODELS
            .iter()
            .filter_map(|k| k.paper_bleu())
            .collect();
        assert_eq!(scores.len(), TABLE1_MODELS.len());
        for w in scores.windows(2) {
            assert!(w[0] < w[1], "Table I should be increasing");
        }
    }

    #[test]
    fn capacity_ordering_matches_paper() {
        let c = corpus();
        let distil = ModelSpec::build(ModelKind::DistilGpt2, &c);
        let medium = ModelSpec::build(ModelKind::Gpt2Medium, &c);
        assert!(medium.model.num_params() > distil.model.num_params());
    }

    #[test]
    fn train_budgets_favor_transformers() {
        let char_cfg = ModelKind::CharLstm.default_train_config();
        let med_cfg = ModelKind::Gpt2Medium.default_train_config();
        assert!(med_cfg.steps > char_cfg.steps);
    }
}
