//! The end-to-end pipeline: corpus → preprocess → train → generate →
//! evaluate (the paper's Fig. 3 flow, plus the Table-I evaluation loop).

use ratatouille_util::rng::StdRng;
use ratatouille_util::rng::SeedableRng;

use ratatouille_eval::bleu::corpus_bleu;
use ratatouille_eval::coverage::ingredient_coverage;
use ratatouille_eval::diversity::{distinct_n, self_bleu};
use ratatouille_eval::novelty::is_verbatim_copy;
use ratatouille_eval::perplexity::perplexity_from_nll;
use ratatouille_eval::report::EvalReport;
use ratatouille_eval::rouge::corpus_rouge_l;
use ratatouille_eval::structure::validate_tagged_recipe;
use ratatouille_models::data::Dataset;
use ratatouille_models::registry::{ModelKind, ModelSpec};
use ratatouille_models::sample::{generate, DecodeSeries, SamplerConfig};
use ratatouille_models::InferenceModel;
use ratatouille_models::train::{TrainConfig, TrainStats, Trainer};
use ratatouille_recipedb::{Corpus, PreprocessReport, Preprocessor, Recipe};
use ratatouille_serving::api::GeneratedRecipe;
use ratatouille_tensor::DType;
use ratatouille_tokenizers::{special, Tokenizer};

use crate::config::PipelineConfig;

/// Prepared data: preprocessed training texts plus a clean held-out
/// evaluation set (split at the *recipe* level before preprocessing, so
/// no test recipe leaks into the training stream).
pub struct Pipeline {
    /// The pipeline configuration.
    pub config: PipelineConfig,
    /// Preprocessed tagged training texts (Fig. 2 format).
    pub train_texts: Vec<String>,
    /// Held-out clean recipes for evaluation.
    pub test_recipes: Vec<Recipe>,
    /// Preprocessing accounting (Figs. 1→2).
    pub report: PreprocessReport,
}

impl Pipeline {
    /// Generate the corpus, split train/test, and preprocess the training
    /// half's raw records.
    pub fn prepare(config: PipelineConfig) -> Pipeline {
        let corpus = Corpus::generate(config.corpus.clone());
        let (train, test) = corpus.split(config.test_frac);
        let train_ids: std::collections::BTreeSet<u64> = train.iter().map(|r| r.id).collect();
        let train_raw: Vec<_> = corpus
            .raw_records
            .iter()
            .filter(|r| train_ids.contains(&r.source_id))
            .cloned()
            .collect();
        let (train_texts, report) = Preprocessor::new(config.preprocess.clone()).run(&train_raw);
        Pipeline {
            config,
            train_texts,
            test_recipes: test.into_iter().cloned().collect(),
            report,
        }
    }

    /// Build and train one registry model on the prepared data.
    /// `overrides` replaces the row's default training budget.
    pub fn train(&self, kind: ModelKind, overrides: Option<TrainConfig>) -> TrainedModel {
        let spec = ModelSpec::build(kind, &self.train_texts);
        let train_cfg = overrides.unwrap_or_else(|| kind.default_train_config());
        // LSTMs carry no positions: the concatenated stream (the paper's
        // "one long string") is fine and denser. Transformers learn
        // positions: train on recipe-aligned blocks so <RECIPE_START>
        // regularly appears at position 0 (where generation prompts start).
        let dataset = match kind {
            ModelKind::CharLstm | ModelKind::WordLstm => {
                Dataset::from_texts(&self.train_texts, spec.tokenizer.as_ref(), spec.block_size)
            }
            _ => Dataset::from_documents(&self.train_texts, spec.tokenizer.as_ref(), spec.block_size),
        };
        let stats = Trainer::new(spec.model.as_ref(), &dataset, train_cfg.clone()).train();
        TrainedModel {
            spec,
            stats,
            train_cfg,
            sampler: self.config.sampler.clone(),
            train_texts: self.train_texts.clone(),
        }
    }
}

/// A trained model ready for generation and evaluation.
pub struct TrainedModel {
    /// The model + tokenizer pair.
    pub spec: ModelSpec,
    /// Training statistics.
    pub stats: TrainStats,
    /// The budget it was trained with.
    pub train_cfg: TrainConfig,
    /// Default decoding configuration.
    pub sampler: SamplerConfig,
    /// The training texts (novelty/copy-rate checks need them).
    pub train_texts: Vec<String>,
}

/// The conditional-generation prompt (Fig. 3): the user's ingredient list
/// wrapped in input tags, ending at `<TITLE_START>` so the model continues
/// with title, quantified ingredient lines and instructions.
pub fn prompt_for(ingredients: &[String]) -> String {
    use special::*;
    let mut s = String::from(RECIPE_START);
    s.push_str(INPUT_START);
    for (i, ing) in ingredients.iter().enumerate() {
        if i > 0 {
            s.push_str(NEXT_INPUT);
        }
        s.push(' ');
        s.push_str(&ing.to_lowercase());
        s.push(' ');
    }
    s.push_str(INPUT_END);
    s.push_str(TITLE_START);
    s
}

/// Insert spaces around structural tags so whitespace tokenization treats
/// them as standalone tokens (used for BLEU and copy checks).
pub fn spaced_tags(text: &str) -> String {
    let mut out = text.to_string();
    for tag in special::ALL_SPECIAL_TAGS {
        out = out.replace(tag, &format!(" {tag} "));
    }
    special::collapse_spaces(&out)
}

impl TrainedModel {
    /// Generate the full tagged text for an ingredient list (prompt
    /// included). `seed` controls sampling.
    pub fn generate_tagged(&self, ingredients: &[String], seed: u64) -> String {
        self.decode(self.spec.model.as_ref(), ingredients, seed)
    }

    /// [`Self::generate_tagged`] with `decoder` in place of the trained
    /// f32 model — its int8 twin, for [`Self::evaluate`] at `DType::I8`.
    fn decode<M>(&self, decoder: &M, ingredients: &[String], seed: u64) -> String
    where
        M: InferenceModel + ?Sized,
    {
        let tokenizer = self.spec.tokenizer.as_ref();
        decode_tagged(
            decoder,
            &DecodeSeries::resolve(decoder),
            tokenizer,
            &sampler_for_request(&self.sampler, tokenizer, generation_budget(self.spec.kind)),
            ingredients,
            &mut StdRng::seed_from_u64(seed),
            &obs::reqtrace::TraceMeta::default(),
        )
    }

    /// Generate and parse into a structured recipe (Fig. 5).
    pub fn generate_recipe(&self, ingredients: &[String], seed: u64) -> GeneratedRecipe {
        recipe_from_tagged(&self.generate_tagged(ingredients, seed))
    }

    /// The Table-I evaluation: generate from each held-out recipe's
    /// ingredient prompt and score against the reference continuation.
    /// `max_recipes` caps evaluation cost; `seed` drives decoding.
    /// `dtype` picks the decoding weights, as serving's `?dtype=` does:
    /// `DType::I8` decodes with the int8 weight set; any other dtype, or
    /// a model with no int8 variant (the LSTMs), with the trained f32
    /// weights. Perplexity is always the f32 weights'.
    pub fn evaluate(
        &self,
        test: &[Recipe],
        max_recipes: usize,
        seed: u64,
        dtype: DType,
    ) -> EvalReport {
        let mut report = EvalReport::new(self.spec.model.name());
        let subset: Vec<&Recipe> = test.iter().take(max_recipes).collect();
        if subset.is_empty() {
            return report;
        }
        let quant = match dtype {
            DType::I8 => self.spec.model.quantized(),
            _ => None,
        };

        let mut candidates: Vec<String> = Vec::with_capacity(subset.len());
        let mut references: Vec<String> = Vec::with_capacity(subset.len());
        let mut valid = 0usize;
        let mut qty_cov = 0.0f64;
        let mut ingr_cov = 0.0f64;
        let mut copies = 0usize;
        let mut gen_secs = 0.0f64;
        let spaced_train: Vec<String> =
            self.train_texts.iter().map(|t| spaced_tags(t)).collect();

        for (i, recipe) in subset.iter().enumerate() {
            let ingredients: Vec<String> =
                recipe.ingredients.iter().map(|l| l.name.clone()).collect();
            let started = obs::Clock::now();
            let recipe_seed = seed ^ (i as u64);
            let tagged = match &quant {
                Some(q) => self.decode(q.as_ref(), &ingredients, recipe_seed),
                None => self.generate_tagged(&ingredients, recipe_seed),
            };
            gen_secs += started.elapsed_secs();

            // reference continuation: everything after <TITLE_START>
            let full_ref = recipe.to_tagged_string();
            let reference = full_ref
                .split_once(special::TITLE_START)
                .map(|(_, rest)| rest.to_string())
                .unwrap_or(full_ref);
            let candidate = tagged
                .split_once(special::TITLE_START)
                .map(|(_, rest)| rest.to_string())
                .unwrap_or_else(|| tagged.clone());

            let s = validate_tagged_recipe(&tagged);
            if s.valid {
                valid += 1;
            }
            qty_cov += s.quantity_coverage();
            let cov = ingredient_coverage(&ingredients, &s.ingredients, &s.instructions);
            ingr_cov += cov.in_ingredient_list.max(cov.in_instructions);
            if is_verbatim_copy(&spaced_tags(&tagged), &spaced_train) {
                copies += 1;
            }
            candidates.push(spaced_tags(&candidate));
            references.push(spaced_tags(&reference));
        }

        let pairs: Vec<(&str, Vec<&str>)> = candidates
            .iter()
            .zip(&references)
            .map(|(c, r)| (c.as_str(), vec![r.as_str()]))
            .collect();
        report.bleu = corpus_bleu(&pairs);
        let rouge_pairs: Vec<(&str, &str)> = candidates
            .iter()
            .zip(&references)
            .map(|(c, r)| (c.as_str(), r.as_str()))
            .collect();
        report.rouge_l = corpus_rouge_l(&rouge_pairs);
        report.ingredient_coverage = ingr_cov / subset.len() as f64;
        report.distinct_2 = distinct_n(&candidates, 2);
        report.self_bleu = self_bleu(&candidates);
        report.structure_valid_rate = valid as f64 / subset.len() as f64;
        report.quantity_coverage = qty_cov / subset.len() as f64;
        report.copy_rate = copies as f64 / subset.len() as f64;
        report.gen_latency_ms = gen_secs * 1000.0 / subset.len() as f64;
        // scale perplexity cost with the evaluation budget
        report.perplexity = self.test_perplexity(test, (subset.len() * 2).clamp(4, 32));
        report
    }

    /// Token perplexity on held-out recipes.
    pub fn test_perplexity(&self, test: &[Recipe], max_blocks: usize) -> f64 {
        let texts: Vec<String> = test.iter().map(|r| r.to_tagged_string()).collect();
        let ds = Dataset::from_texts(&texts, self.spec.tokenizer.as_ref(), self.spec.block_size);
        if ds.is_empty() {
            return f64::INFINITY;
        }
        let trainer = Trainer::new(
            self.spec.model.as_ref(),
            &ds,
            TrainConfig {
                steps: 0,
                ..Default::default()
            },
        );
        perplexity_from_nll(&trainer.token_nlls(max_blocks))
    }
}

/// Pantry → tagged recipe, the one decode behind offline generation,
/// evaluation and the solo serving replica: the prompt for
/// `ingredients`, decoded by `model` under `cfg` (a
/// [`sampler_for_request`]) into `model`'s `series`, tagged by
/// [`tag_continuation`].
pub(crate) fn decode_tagged<M: InferenceModel + ?Sized>(
    model: &M,
    series: &DecodeSeries,
    tokenizer: &dyn Tokenizer,
    cfg: &SamplerConfig,
    ingredients: &[String],
    rng: &mut StdRng,
    meta: &obs::reqtrace::TraceMeta,
) -> String {
    let prompt_text = prompt_for(ingredients);
    let prompt = tokenizer.encode(&prompt_text);
    let continuation = generate(model, &prompt, cfg, rng, meta, series);
    tag_continuation(prompt_text, &continuation, tokenizer)
}

/// The complete tagged generation: the prompt text, the decoded
/// continuation and the closing `<RECIPE_END>`.
pub(crate) fn tag_continuation(
    mut prompt_text: String,
    continuation: &[u32],
    tokenizer: &dyn Tokenizer,
) -> String {
    prompt_text.push_str(&tokenizer.decode(continuation));
    prompt_text.push_str(special::RECIPE_END);
    prompt_text
}

/// The sampler one request decodes under: the configured sampling
/// strategy, stopped at the tokenizer's end-of-recipe token or after
/// `max_tokens`.
pub(crate) fn sampler_for_request(
    base: &SamplerConfig,
    tokenizer: &dyn Tokenizer,
    max_tokens: usize,
) -> SamplerConfig {
    SamplerConfig {
        stop_token: Some(tokenizer.eos_id()),
        max_tokens,
        ..base.clone()
    }
}

/// Parse a complete tagged generation (prompt + continuation +
/// `<RECIPE_END>`) into the structured recipe the API returns.
pub(crate) fn recipe_from_tagged(tagged: &str) -> GeneratedRecipe {
    let report = validate_tagged_recipe(tagged);
    GeneratedRecipe {
        title: report.title.unwrap_or_else(|| "untitled recipe".into()),
        ingredients: report.ingredients,
        instructions: report.instructions,
        well_formed: report.valid,
    }
}

/// Generation budgets per row: char-level recipes need ~4–6× more tokens
/// than word/BPE ones.
pub(crate) fn generation_budget(kind: ModelKind) -> usize {
    match kind {
        ModelKind::CharLstm => 1100,
        ModelKind::WordLstm => 220,
        _ => 260,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_pipeline() -> Pipeline {
        let mut cfg = PipelineConfig::small();
        cfg.corpus.num_recipes = 120;
        Pipeline::prepare(cfg)
    }

    #[test]
    fn prepare_splits_without_leakage() {
        let p = tiny_pipeline();
        assert!(!p.train_texts.is_empty());
        assert!(!p.test_recipes.is_empty());
        // No test recipe's title should appear in a training text with its
        // exact tagged form.
        for r in p.test_recipes.iter().take(10) {
            let tagged = r.to_tagged_string();
            assert!(
                !p.train_texts.iter().any(|t| t.contains(&tagged)),
                "test recipe {} leaked into training stream",
                r.id
            );
        }
    }

    #[test]
    fn prompt_format() {
        let p = prompt_for(&["Flour".into(), "water".into()]);
        assert!(p.starts_with(special::RECIPE_START));
        assert!(p.ends_with(special::TITLE_START));
        assert!(p.contains(" flour "));
        assert!(p.contains(special::NEXT_INPUT));
    }

    #[test]
    fn spaced_tags_tokenize_cleanly() {
        let s = spaced_tags("<RECIPE_START><TITLE_START> pie <TITLE_END>");
        let toks: Vec<&str> = s.split_whitespace().collect();
        assert_eq!(
            toks,
            vec!["<RECIPE_START>", "<TITLE_START>", "pie", "<TITLE_END>"]
        );
    }

    #[test]
    fn train_and_generate_smoke() {
        let p = tiny_pipeline();
        // minuscule budget: this is a wiring test, not a quality test
        let trained = p.train(
            ModelKind::WordLstm,
            Some(TrainConfig {
                steps: 5,
                batch_size: 2,
                ..Default::default()
            }),
        );
        assert_eq!(trained.stats.steps_run, 5);
        let rec = trained.generate_recipe(&["flour".into(), "water".into()], 7);
        assert!(!rec.title.is_empty());
        // deterministic given seed
        let rec2 = trained.generate_recipe(&["flour".into(), "water".into()], 7);
        assert_eq!(rec, rec2);
        let rec3 = trained.generate_recipe(&["flour".into(), "water".into()], 8);
        // different seed usually differs (untrained model, high entropy)
        assert!(rec != rec3 || rec.instructions.is_empty());
    }

    #[test]
    fn evaluate_produces_bounded_metrics() {
        let p = tiny_pipeline();
        let trained = p.train(
            ModelKind::DistilGpt2,
            Some(TrainConfig {
                steps: 5,
                batch_size: 2,
                ..Default::default()
            }),
        );
        let report = trained.evaluate(&p.test_recipes, 3, 0, DType::F32);
        assert!((0.0..=1.0).contains(&report.bleu), "bleu {}", report.bleu);
        assert!((0.0..=1.0).contains(&report.structure_valid_rate));
        assert!((0.0..=1.0).contains(&report.copy_rate));
        assert!(report.perplexity > 1.0);
        assert!(report.gen_latency_ms > 0.0);
    }

    /// `evaluate` at `DType::I8` decodes each recipe as a served replica
    /// does at `?dtype=int8` for the same pinned seed.
    #[test]
    fn int8_evaluation_decode_equals_served_int8() {
        let p = tiny_pipeline();
        let trained = p.train(
            ModelKind::DistilGpt2,
            Some(TrainConfig {
                steps: 5,
                batch_size: 2,
                ..Default::default()
            }),
        );
        let int8 = trained.spec.model.quantized().expect("gpt2 offers int8");
        let mut replica = trained.backend_factory()(0);
        let pantry = vec!["flour".to_string(), "water".to_string()];
        for seed in 0..4 {
            assert_eq!(
                recipe_from_tagged(&trained.decode(int8.as_ref(), &pantry, seed)),
                replica.generate_seeded(&pantry, "int8", Some(seed)),
                "seed {seed}: offline and served int8 decode differ"
            );
        }
    }

    #[test]
    fn empty_test_set_gives_empty_report() {
        let p = tiny_pipeline();
        let trained = p.train(
            ModelKind::WordLstm,
            Some(TrainConfig {
                steps: 1,
                batch_size: 2,
                ..Default::default()
            }),
        );
        let report = trained.evaluate(&[], 10, 0, DType::F32);
        assert_eq!(report.bleu, 0.0);
    }
}
