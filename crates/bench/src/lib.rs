//! The reproduction harness: shared machinery for the per-table /
//! per-figure binaries in `src/bin/`. (Speed is measured by the
//! stand-alone `loadbench` package under `src/bin/loadbench/`, which is
//! not part of this crate.)
//!
//! Every experiment is scale-switchable so the full table regenerates on
//! a laptop: `RATATOUILLE_SCALE=quick` (CI-sized), `standard` (default)
//! or `full` (the EXPERIMENTS.md numbers).

use ratatouille::models::registry::{ModelKind, TABLE1_MODELS};
use ratatouille::models::train::TrainConfig;
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
    /// Read `RATATOUILLE_SCALE` (`quick` / `standard` / `full`; default
    /// `standard`).
    pub fn from_env() -> Scale {
        match std::env::var("RATATOUILLE_SCALE")
            .unwrap_or_default()
            .to_lowercase()
            .as_str()
        {
            "quick" => Scale::Quick,
            "full" => Scale::Full,
            _ => Scale::Standard,
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
pub fn scaled_train_config(trained_default: TrainConfig, scale: Scale) -> TrainConfig {
    TrainConfig {
        steps: ((trained_default.steps as f64 * scale.step_factor()) as usize).max(20),
        warmup: ((trained_default.warmup as f64 * scale.step_factor()) as usize).max(5),
        ..trained_default
    }
}

/// One reproduced row of Table I.
pub struct Table1Row {
    /// Which model.
    pub kind: ModelKind,
    /// Our measured metrics.
    pub report: EvalReport,
    /// The BLEU the paper reports.
    pub paper_bleu: f64,
    /// Training wall-clock (seconds).
    pub train_secs: f64,
}

/// Train and evaluate one Table-I row on a prepared pipeline.
pub fn run_row(pipeline: &Pipeline, kind: ModelKind, scale: Scale) -> (Table1Row, TrainedModel) {
    let spec_defaults =
        ratatouille::models::registry::ModelSpec::build(kind, &pipeline.train_texts)
            .default_train_config();
    let cfg = scaled_train_config(spec_defaults, scale);
    eprintln!(
        "[table1] training {} ({} steps, batch {})…",
        kind.display_name(),
        cfg.steps,
        cfg.batch_size
    );
    let trained = pipeline.train(kind, Some(cfg));
    let train_secs = trained.stats.wall_secs;
    eprintln!(
        "[table1] {} trained in {:.1}s (final loss {:.3}); evaluating…",
        kind.display_name(),
        train_secs,
        trained.stats.final_loss(10)
    );
    let report = trained.evaluate(&pipeline.test_recipes, scale.eval_recipes(), 42);
    (
        Table1Row {
            kind,
            report,
            paper_bleu: kind.paper_bleu(),
            train_secs,
        },
        trained,
    )
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

/// Render the reproduced table next to the paper's numbers.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<18} {:>11} {:>10} {:>8} {:>8} {:>8} {:>7} {:>7} {:>9}\n",
        "Model", "paper BLEU", "ours BLEU", "ROUGE-L", "PPL", "cover%", "valid%", "copy%", "lat(ms)"
    ));
    out.push_str(&"-".repeat(94));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:>11.3} {:>10.3} {:>8.3} {:>8.1} {:>8.1} {:>7.1} {:>7.1} {:>9.1}\n",
            r.kind.display_name(),
            r.paper_bleu,
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

/// Does the reproduced table preserve the paper's shape?
/// (monotone increase, transformer tier on top)
pub fn table1_shape_holds(rows: &[Table1Row]) -> bool {
    if rows.len() != 4 {
        return false;
    }
    let b: Vec<f64> = rows.iter().map(|r| r.report.bleu).collect();
    // the headline claims: GPT-2 medium best, LSTM baselines worst tier
    let medium_best = b[3] >= b[0] && b[3] >= b[1] && b[3] >= b[2];
    let transformer_beats_char = b[2] > b[0];
    medium_best && transformer_beats_char
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_defaults_standard() {
        // NB: tests run in parallel; avoid mutating the env here.
        assert_eq!(Scale::Quick.num_recipes() < Scale::Full.num_recipes(), true);
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
                paper_bleu: kind.paper_bleu(),
                train_secs: 0.0,
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
                    Table1Row {
                        kind,
                        report,
                        paper_bleu: kind.paper_bleu(),
                        train_secs: 0.0,
                    }
                })
                .collect()
        };
        assert!(table1_shape_holds(&mk([0.3, 0.4, 0.45, 0.8])));
        assert!(!table1_shape_holds(&mk([0.8, 0.4, 0.45, 0.3])));
        assert!(!table1_shape_holds(&mk([0.5, 0.4, 0.3, 0.45])));
    }
}
