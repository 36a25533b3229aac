//! Integration coverage for the recipe-aligned training path (the fix
//! that makes transformer conditional generation work) and the GPT-Neo
//! future-work extension, through the public crate surfaces.

use ratatouille_util::rng::StdRng;
use ratatouille_util::rng::SeedableRng;
use ratatouille::models::data::Dataset;
use ratatouille::models::gpt2::{Gpt2Config, Gpt2Lm};
use ratatouille::models::registry::{ModelKind, ModelSpec};
use ratatouille::models::train::{TrainConfig, Trainer};
use ratatouille::models::LanguageModel;
use ratatouille::tokenizers::special;
use ratatouille::{Pipeline, PipelineConfig};

fn tiny_pipeline() -> Pipeline {
    let mut cfg = PipelineConfig::small();
    cfg.corpus.num_recipes = 80;
    Pipeline::prepare(cfg)
}

#[test]
fn aligned_blocks_start_with_recipe_start() {
    let p = tiny_pipeline();
    let spec = ModelSpec::build(ModelKind::DistilGpt2, &p.train_texts);
    let ds = Dataset::from_documents(&p.train_texts, spec.tokenizer.as_ref(), spec.block_size);
    assert!(!ds.is_empty());
    let start_id = spec.tokenizer.special_id(special::RECIPE_START).unwrap();
    for (inp, _) in ds.iter_examples() {
        assert_eq!(inp[0], start_id, "aligned block must start a recipe");
    }
}

#[test]
fn aligned_blocks_fit_whole_recipes() {
    // Every tagged recipe must fit one aligned window — otherwise the
    // model never sees complete structure and can't close its tags.
    let p = tiny_pipeline();
    let spec = ModelSpec::build(ModelKind::Gpt2Medium, &p.train_texts);
    let window = spec.block_size + 1;
    let mut oversized = 0usize;
    for t in &p.train_texts {
        if spec.tokenizer.encode(t).len() > window {
            oversized += 1;
        }
    }
    let frac = oversized as f64 / p.train_texts.len() as f64;
    assert!(
        frac < 0.05,
        "{oversized}/{} recipes exceed the training window",
        p.train_texts.len()
    );
}

#[test]
fn gptneo_trains_through_the_standard_trainer() {
    let p = tiny_pipeline();
    let spec = ModelSpec::build(ModelKind::Gpt2Medium, &p.train_texts);
    let ds = Dataset::from_documents(&p.train_texts, spec.tokenizer.as_ref(), 128);
    let neo = Gpt2Lm::new(Gpt2Config {
        d_model: 32,
        n_heads: 2,
        n_layers: 2,
        d_ff: 64,
        max_t: 128,
        local_window: Some(32),
        ..Gpt2Config::neo_small(spec.tokenizer.vocab_size())
    });
    let stats = Trainer::new(
        &neo,
        &ds,
        TrainConfig {
            steps: 6,
            batch_size: 2,
            ..Default::default()
        },
    )
    .train();
    assert_eq!(stats.steps_run, 6);
    assert!(stats.losses.iter().all(|l| l.is_finite()));
    assert!(neo.num_params() > 0);
}

#[test]
fn models_with_256_context_accept_aligned_blocks() {
    // regression: context must be >= block size for the aligned path
    let p = tiny_pipeline();
    for kind in [ModelKind::DistilGpt2, ModelKind::Gpt2Medium] {
        let spec = ModelSpec::build(kind, &p.train_texts);
        assert!(spec.model.max_context() >= spec.block_size, "{kind:?}");
        let ds =
            Dataset::from_documents(&p.train_texts, spec.tokenizer.as_ref(), spec.block_size);
        let mut rng = StdRng::seed_from_u64(0);
        let batch = ds.sample_batch(2, &mut rng);
        // must not panic
        let loss = spec.model.forward_loss(&batch, false, &mut rng);
        assert!(loss.value().item().is_finite());
    }
}
