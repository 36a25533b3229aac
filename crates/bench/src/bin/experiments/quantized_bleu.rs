//! **Quantized-vs-f32 BLEU delta** — does int8 weight quantization
//! preserve the Table-I quality ordering?
//!
//! Trains the two quantizable Table-I transformers (DistilGPT2 and GPT-2
//! medium) exactly as `table1_bleu` does, then scores the *same* test
//! prompts through the same evaluation with the f32 weights and with the
//! int8 weights, under identical seeds and sampler settings, so any BLEU
//! difference isolates the quantization effect. The f32 column equals
//! `table1_bleu`'s BLEU for the same model and scale.
//!
//! ```text
//! RATATOUILLE_SCALE=quick cargo run --release -p ratatouille-bench --bin experiments -- quantized_bleu
//! ```

use ratatouille::models::registry::ModelKind;
use ratatouille::tensor::DType;
use ratatouille::Pipeline;
use ratatouille_bench::{pipeline_config, run_row, score, Scale};

pub fn run() {
    let scale = Scale::from_env();
    let pipeline = Pipeline::prepare(pipeline_config(scale));
    let mut rows: Vec<(ModelKind, f64, f64)> = Vec::new();
    for kind in [ModelKind::DistilGpt2, ModelKind::Gpt2Medium] {
        let (row, trained) = run_row(&pipeline, kind, scale);
        let int8 = score(&trained, &pipeline, scale, DType::I8);
        rows.push((kind, row.report.bleu, int8.bleu));
    }

    println!(
        "QUANTIZED vs F32 DECODE — BLEU on {} held-out recipes\n",
        scale.eval_recipes()
    );
    println!(
        "{:<24} {:>12} {:>12} {:>10}",
        "model", "BLEU (f32)", "BLEU (int8)", "delta"
    );
    println!("{}", "-".repeat(62));
    for (kind, f32_bleu, int8_bleu) in &rows {
        println!(
            "{:<24} {:>12.3} {:>12.3} {:>+10.3}",
            kind.display_name(),
            f32_bleu,
            int8_bleu,
            int8_bleu - f32_bleu
        );
    }

    // Table-I ordering check: the f32 ranking must survive quantization.
    let (distil, medium) = (&rows[0], &rows[1]);
    println!(
        "\nmedium above distil — f32: {}, int8: {}; ordering preserved: {}",
        medium.1 > distil.1,
        medium.2 > distil.2,
        (medium.1 > distil.1) == (medium.2 > distil.2)
    );
}
