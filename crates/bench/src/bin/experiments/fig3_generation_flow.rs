//! **Fig. 3 reproduction** — "Flow diagram of recipe generation".
//!
//! Traces one request end-to-end, printing every stage of the paper's
//! flow: ingredient list → prompt construction → tokenization →
//! autoregressive decoding → tag-structured parse → structured recipe.
//!
//! ```text
//! RATATOUILLE_SCALE=quick cargo run --release -p ratatouille-bench --bin experiments -- fig3_generation_flow
//! ```

use ratatouille::models::registry::ModelKind;
use ratatouille::pipeline::prompt_for;
use ratatouille::Pipeline;
use ratatouille_bench::{pipeline_config, train_row, Scale};
use ratatouille_eval::structure::validate_tagged_recipe;

pub fn run() {
    let scale = Scale::from_env();
    eprintln!("[fig3] training GPT-2 medium at {scale:?} scale…");
    let pipeline = Pipeline::prepare(pipeline_config(scale));
    let trained = train_row(&pipeline, ModelKind::Gpt2Medium, scale);

    println!("FIG. 3 — FLOW DIAGRAM OF RECIPE GENERATION (traced)\n");

    let ingredients = vec!["chicken".to_string(), "garlic".to_string(), "ginger".to_string()];
    println!("stage 1 — user ingredient list:");
    println!("  {ingredients:?}\n");

    let prompt = prompt_for(&ingredients);
    println!("stage 2 — prompt construction (tagged input section):");
    println!("  {prompt}\n");

    let ids = trained.spec.tokenizer.encode(&prompt);
    println!(
        "stage 3 — tokenization ({} tokenizer, vocab {}):",
        trained.spec.tokenizer.name(),
        trained.spec.tokenizer.vocab_size()
    );
    println!("  {} prompt tokens: {:?}…\n", ids.len(), &ids[..ids.len().min(16)]);

    println!("stage 4 — autoregressive decoding (top-k/top-p, KV cache):");
    let started = std::time::Instant::now();
    let tagged = trained.generate_tagged(&ingredients, 7);
    let elapsed = started.elapsed();
    let new_tokens = trained.spec.tokenizer.encode(&tagged).len() - ids.len();
    println!(
        "  generated ~{} tokens in {:.0} ms ({:.1} tok/s)\n",
        new_tokens,
        elapsed.as_secs_f64() * 1000.0,
        new_tokens as f64 / elapsed.as_secs_f64()
    );

    println!("stage 5 — raw tagged output:");
    println!("  {tagged}\n");

    println!("stage 6 — structural parse:");
    let report = validate_tagged_recipe(&tagged);
    println!("  well-formed: {}", report.valid);
    if !report.errors.is_empty() {
        println!("  issues: {:?}", &report.errors[..report.errors.len().min(3)]);
    }
    println!("  title: {}", report.title.as_deref().unwrap_or("<none>"));
    println!("  ingredients ({}):", report.ingredients.len());
    for i in &report.ingredients {
        println!("    - {i}");
    }
    println!("  instructions ({}):", report.instructions.len());
    for (n, s) in report.instructions.iter().enumerate() {
        println!("    {}. {s}", n + 1);
    }
    println!(
        "\n  quantity coverage: {:.0}%",
        report.quantity_coverage() * 100.0
    );
}
