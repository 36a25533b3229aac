//! The reproduction harness: shared machinery for the per-table /
//! per-figure subcommands of the `experiments` binary in
//! `src/bin/experiments/`. (Speed is measured by the
//! stand-alone `loadbench` package under `src/bin/loadbench/`, which is
//! not part of this crate.)
//!
//! Every experiment is scale-switchable so the full table regenerates on
//! a laptop: `RATATOUILLE_SCALE=quick` (CI-sized), `standard` (default)
//! or `full` (the EXPERIMENTS.md numbers).

use ratatouille::models::registry::{ModelKind, TABLE1_MODELS};
use ratatouille::models::train::TrainConfig;
use ratatouille::tensor::DType;
use ratatouille::{Pipeline, PipelineConfig, TrainedModel};
use ratatouille_eval::report::EvalReport;

/// Experiment scale, from the `RATATOUILLE_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test sized: minutes of CPU total.
    Quick,
    /// Default: tens of minutes of CPU total.
    Standard,
    /// The EXPERIMENTS.md configuration.
    Full,
}

impl Scale {
    /// Read `RATATOUILLE_SCALE` through [`Scale::parse`]; unset is
    /// `standard`. Any other value exits the process with status 2,
    /// naming the accepted values, instead of running a sweep of another
    /// size.
    pub fn from_env() -> Scale {
        let Some(value) = std::env::var_os("RATATOUILLE_SCALE") else {
            return Scale::Standard;
        };
        Scale::parse(&value.to_string_lossy()).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    }

    /// `quick`, `standard` or `full`, in any case.
    pub fn parse(value: &str) -> Result<Scale, String> {
        match value.to_lowercase().as_str() {
            "quick" => Ok(Scale::Quick),
            "standard" => Ok(Scale::Standard),
            "full" => Ok(Scale::Full),
            _ => Err(format!(
                "RATATOUILLE_SCALE={value:?}: expected one of quick, standard, full"
            )),
        }
    }

    /// Corpus size at this scale.
    pub fn num_recipes(&self) -> usize {
        match self {
            Scale::Quick => 200,
            Scale::Standard => 600,
            Scale::Full => 1500,
        }
    }

    /// Training-step multiplier at this scale.
    pub fn step_factor(&self) -> f64 {
        match self {
            Scale::Quick => 0.15,
            Scale::Standard => 0.5,
            Scale::Full => 1.0,
        }
    }

    /// Held-out recipes evaluated per model.
    pub fn eval_recipes(&self) -> usize {
        match self {
            Scale::Quick => 8,
            Scale::Standard => 20,
            Scale::Full => 40,
        }
    }
}

/// The pipeline configuration for a scale.
pub fn pipeline_config(scale: Scale) -> PipelineConfig {
    let mut cfg = PipelineConfig::reproduction();
    cfg.corpus.num_recipes = scale.num_recipes();
    cfg
}

/// Scale a row's default training budget.
fn scaled_train_config(trained_default: TrainConfig, scale: Scale) -> TrainConfig {
    TrainConfig {
        steps: ((trained_default.steps as f64 * scale.step_factor()) as usize).max(20),
        warmup: ((trained_default.warmup as f64 * scale.step_factor()) as usize).max(5),
        ..trained_default
    }
}

/// One reproduced row of Table I (or of a comparison set beside it).
pub struct Table1Row {
    /// Which model.
    pub kind: ModelKind,
    /// Our measured metrics.
    pub report: EvalReport,
}

/// Train a registry row at its scaled default budget.
pub fn train_row(pipeline: &Pipeline, kind: ModelKind, scale: Scale) -> TrainedModel {
    let cfg = scaled_train_config(kind.default_train_config(), scale);
    eprintln!(
        "[bench] training {} ({} steps, batch {})…",
        kind.display_name(),
        cfg.steps,
        cfg.batch_size
    );
    let trained = pipeline.train(kind, Some(cfg));
    eprintln!(
        "[bench] {} trained in {:.1}s (final loss {:.3})",
        kind.display_name(),
        trained.stats.wall_secs,
        trained.stats.final_loss(10)
    );
    trained
}

/// Score a trained model on the pipeline's held-out recipes, decoding
/// with `dtype`'s weights: the one evaluation protocol behind every BLEU
/// the paper bins print.
pub fn score(trained: &TrainedModel, pipeline: &Pipeline, scale: Scale, dtype: DType) -> EvalReport {
    trained.evaluate(&pipeline.test_recipes, scale.eval_recipes(), 42, dtype)
}

/// Train and evaluate (f32) one registry row on a prepared pipeline.
pub fn run_row(pipeline: &Pipeline, kind: ModelKind, scale: Scale) -> (Table1Row, TrainedModel) {
    let trained = train_row(pipeline, kind, scale);
    let report = score(&trained, pipeline, scale, DType::F32);
    (Table1Row { kind, report }, trained)
}

/// Reproduce the whole of Table I.
pub fn run_table1(scale: Scale) -> Vec<Table1Row> {
    let pipeline = Pipeline::prepare(pipeline_config(scale));
    eprintln!(
        "[table1] corpus: {} training texts, {} test recipes",
        pipeline.train_texts.len(),
        pipeline.test_recipes.len()
    );
    TABLE1_MODELS
        .iter()
        .map(|&kind| run_row(&pipeline, kind, scale).0)
        .collect()
}

/// Render the reproduced table next to the paper's numbers ("-" where
/// the paper has none).
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>11} {:>10} {:>8} {:>8} {:>8} {:>7} {:>7} {:>9}\n",
        "Model", "paper BLEU", "ours BLEU", "ROUGE-L", "PPL", "cover%", "valid%", "copy%", "lat(ms)"
    ));
    out.push_str(&"-".repeat(98));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:<22} {:>11} {:>10.3} {:>8.3} {:>8.1} {:>8.1} {:>7.1} {:>7.1} {:>9.1}\n",
            r.kind.display_name(),
            r.kind.paper_bleu().map_or("-".to_string(), |b| format!("{b:.3}")),
            r.report.bleu,
            r.report.rouge_l,
            r.report.perplexity,
            r.report.ingredient_coverage * 100.0,
            r.report.structure_valid_rate * 100.0,
            r.report.copy_rate * 100.0,
            r.report.gen_latency_ms,
        ));
    }
    out
}

/// Does the reproduced table preserve the paper's shape? BLEU must rise
/// strictly in the paper's row order: char-LSTM < word-LSTM < DistilGPT2
/// < GPT-2 medium.
pub fn table1_shape_holds(rows: &[Table1Row]) -> bool {
    rows.len() == 4 && rows.windows(2).all(|w| w[0].report.bleu < w[1].report.bleu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parse_accepts_three_names_and_rejects_the_rest() {
        assert_eq!(Scale::parse("quick"), Ok(Scale::Quick));
        assert_eq!(Scale::parse("Standard"), Ok(Scale::Standard));
        assert_eq!(Scale::parse("FULL"), Ok(Scale::Full));
        for typo in ["quik", "", "standard ", "fast"] {
            let err = Scale::parse(typo).unwrap_err();
            assert!(err.contains("quick, standard, full"), "{typo:?}: {err}");
        }
    }

    #[test]
    fn scaled_config_respects_floor() {
        let base = TrainConfig {
            steps: 10,
            warmup: 2,
            ..Default::default()
        };
        let scaled = scaled_train_config(base, Scale::Quick);
        assert!(scaled.steps >= 20);
        assert!(scaled.warmup >= 5);
    }

    #[test]
    fn render_has_four_rows_header_and_divider() {
        let rows: Vec<Table1Row> = TABLE1_MODELS
            .iter()
            .map(|&kind| Table1Row {
                kind,
                report: EvalReport::new(kind.display_name()),
            })
            .collect();
        let s = render_table1(&rows);
        assert_eq!(s.lines().count(), 6);
        assert!(s.contains("GPT-2 medium"));
        assert!(s.contains("0.806"));
    }

    #[test]
    fn shape_check_logic() {
        let mk = |bleus: [f64; 4]| -> Vec<Table1Row> {
            TABLE1_MODELS
                .iter()
                .zip(bleus)
                .map(|(&kind, b)| {
                    let mut report = EvalReport::new("x");
                    report.bleu = b;
                    Table1Row { kind, report }
                })
                .collect()
        };
        assert!(table1_shape_holds(&mk([0.3, 0.4, 0.45, 0.8])));
        assert!(!table1_shape_holds(&mk([0.8, 0.4, 0.45, 0.3])));
        assert!(!table1_shape_holds(&mk([0.5, 0.4, 0.3, 0.45])));
        // medium best and distil above char, but char above word
        assert!(!table1_shape_holds(&mk([0.3, 0.2, 0.45, 0.8])));
        // ties are not an increase
        assert!(!table1_shape_holds(&mk([0.3, 0.4, 0.4, 0.8])));
    }
}
