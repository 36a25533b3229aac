//! **Fig. 5 reproduction** — "Recipe Generated using GPT2 model".
//!
//! Trains the best Table-I model (GPT-2 medium), samples a recipe with
//! nucleus sampling, and pretty-prints it the way the web UI renders it:
//! title, quantified ingredient lines, numbered instructions.
//!
//! ```text
//! RATATOUILLE_SCALE=quick cargo run --release -p ratatouille-bench --bin experiments -- fig5_sample_recipe
//! ```

use ratatouille::models::registry::ModelKind;
use ratatouille::Pipeline;
use ratatouille_bench::{pipeline_config, train_row, Scale};
use ratatouille_eval::novelty::{is_verbatim_copy, novel_ngram_fraction};

pub fn run() {
    let scale = Scale::from_env();
    eprintln!("[fig5] training GPT-2 medium ({scale:?} scale)…");
    let pipeline = Pipeline::prepare(pipeline_config(scale));
    let trained = train_row(&pipeline, ModelKind::Gpt2Medium, scale);

    println!("FIG. 5 — RECIPE GENERATED USING THE GPT-2 MODEL\n");
    let ingredient_sets: &[&[&str]] = &[
        &["chicken", "garlic", "ginger", "soy sauce"],
        &["flour", "butter", "sugar", "egg"],
        &["lentils", "onion", "cumin", "turmeric"],
    ];
    for (i, set) in ingredient_sets.iter().enumerate() {
        let ingredients: Vec<String> = set.iter().map(|s| s.to_string()).collect();
        let recipe = trained.generate_recipe(&ingredients, 100 + i as u64);
        println!("═══ input ingredients: {} ═══", set.join(", "));
        println!("  {}", recipe.title.to_uppercase());
        println!("  Ingredients:");
        for line in &recipe.ingredients {
            println!("    • {line}");
        }
        println!("  Instructions:");
        for (n, s) in recipe.instructions.iter().enumerate() {
            println!("    {}. {s}", n + 1);
        }
        println!(
            "  well-formed: {}",
            if recipe.well_formed { "yes" } else { "no" }
        );

        // The paper's claim is *novel* recipe generation — check.
        let tagged = trained.generate_tagged(&ingredients, 100 + i as u64);
        let copy = is_verbatim_copy(&tagged, &trained.train_texts);
        let novelty = novel_ngram_fraction(&tagged, &trained.train_texts, 4);
        println!(
            "  novelty: verbatim copy of training data: {} · novel 4-grams: {:.0}%\n",
            if copy { "YES (!)" } else { "no" },
            novelty * 100.0
        );
    }
}
