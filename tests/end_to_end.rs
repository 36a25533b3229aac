//! End-to-end integration: synthetic RecipeDB → preprocessing →
//! tokenizer → model training → conditional generation → evaluation.
//!
//! Budgets are intentionally tiny: these tests verify *wiring and
//! invariants*, not model quality (the bench harness owns quality).

use ratatouille::models::registry::{ModelKind, TABLE1_MODELS};
use ratatouille::models::train::TrainConfig;
use ratatouille::tensor::DType;
use ratatouille::tokenizers::special;
use ratatouille::{Pipeline, PipelineConfig};

fn tiny_config() -> PipelineConfig {
    let mut cfg = PipelineConfig::small();
    cfg.corpus.num_recipes = 100;
    cfg
}

fn tiny_train() -> TrainConfig {
    TrainConfig {
        steps: 4,
        batch_size: 2,
        ..Default::default()
    }
}

#[test]
fn full_flow_works_for_every_table1_model() {
    let pipeline = Pipeline::prepare(tiny_config());
    for &kind in TABLE1_MODELS {
        let trained = pipeline.train(kind, Some(tiny_train()));
        assert_eq!(trained.stats.steps_run, 4, "{kind:?}");
        assert!(
            trained.stats.losses.iter().all(|l| l.is_finite()),
            "{kind:?} diverged"
        );
        let recipe = trained.generate_recipe(&["flour".into(), "water".into()], 1);
        assert!(!recipe.title.is_empty(), "{kind:?} empty title");
    }
}

#[test]
fn generated_tagged_text_contains_prompt_structure() {
    let pipeline = Pipeline::prepare(tiny_config());
    let trained = pipeline.train(ModelKind::WordLstm, Some(tiny_train()));
    let tagged = trained.generate_tagged(&["salt".into(), "rice".into()], 9);
    assert!(tagged.starts_with(special::RECIPE_START));
    assert!(tagged.contains(special::INPUT_START));
    assert!(tagged.contains(" salt "));
    assert!(tagged.contains(" rice "));
    assert!(tagged.contains(special::TITLE_START));
    assert!(tagged.ends_with(special::RECIPE_END));
}

#[test]
fn evaluation_is_deterministic_given_seed() {
    let pipeline = Pipeline::prepare(tiny_config());
    let trained = pipeline.train(ModelKind::DistilGpt2, Some(tiny_train()));
    let a = trained.evaluate(&pipeline.test_recipes, 2, 5, DType::F32);
    let b = trained.evaluate(&pipeline.test_recipes, 2, 5, DType::F32);
    assert_eq!(a.bleu, b.bleu);
    assert_eq!(a.distinct_2, b.distinct_2);
}

#[test]
fn training_longer_helps() {
    // 40 steps must beat 2 steps on training loss — the most basic
    // "learning actually happens through the whole stack" check.
    let pipeline = Pipeline::prepare(tiny_config());
    let short = pipeline.train(
        ModelKind::WordLstm,
        Some(TrainConfig {
            steps: 2,
            batch_size: 4,
            ..Default::default()
        }),
    );
    let long = pipeline.train(
        ModelKind::WordLstm,
        Some(TrainConfig {
            steps: 40,
            batch_size: 4,
            ..Default::default()
        }),
    );
    assert!(
        long.stats.final_loss(5) < short.stats.final_loss(1),
        "long {} vs short {}",
        long.stats.final_loss(5),
        short.stats.final_loss(1)
    );
}

#[test]
fn preprocessing_report_is_consistent_with_output() {
    let pipeline = Pipeline::prepare(tiny_config());
    assert_eq!(pipeline.report.output_texts, pipeline.train_texts.len());
    assert!(pipeline.report.input_records >= pipeline.train_texts.len());
    for t in &pipeline.train_texts {
        assert!(t.len() <= 2000, "length cap violated: {}", t.len());
    }
}
