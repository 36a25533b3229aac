//! **Fig. 2 reproduction** — "Dataset after preprocessing".
//!
//! Runs the full §III pipeline on the raw corpus, prints per-stage
//! accounting (the numbers behind "removing incomplete and redundant
//! recipes, fixing the length … to 2000 characters, 2σ, merging"), and a
//! sample record in the tagged training format.
//!
//! ```text
//! cargo run -p ratatouille-bench --bin experiments -- fig2_preprocessed
//! ```

use ratatouille::recipedb::corpus::{Corpus, CorpusConfig};
use ratatouille::recipedb::preprocess::{PreprocessConfig, Preprocessor};
use ratatouille::recipedb::stats::length_stats;

pub fn run() {
    let corpus = Corpus::generate(CorpusConfig {
        num_recipes: 1000,
        ..CorpusConfig::default()
    });
    let (texts, report) = Preprocessor::new(PreprocessConfig::default()).run(&corpus.raw_records);

    println!("FIG. 2 — DATASET AFTER PREPROCESSING\n");
    println!("--- pipeline accounting --------------------------------------");
    println!("raw records in:          {}", report.input_records);
    println!("noise-stripped:          {}", report.noise_stripped);
    println!("duplicates removed:      {}", report.duplicates_removed);
    println!("parse failures removed:  {}", report.parse_failures);
    println!("invalid removed:         {}", report.invalid_removed);
    println!("length-capped (2000ch):  {}", report.capped);
    println!("short records merged:    {}", report.merged);
    println!("2σ-filtered:             {}", report.sigma_filtered);
    println!("training texts out:      {}", report.output_texts);
    println!(
        "tagged length: mean={:.0} std={:.0}\n",
        report.mean_len, report.std_len
    );

    println!("--- sample tagged training record ----------------------------");
    let sample = texts.iter().min_by_key(|t| t.len()).expect("non-empty output");
    println!("{sample}\n");

    let stats = length_stats(&texts);
    println!("--- post-preprocessing size distribution ---------------------");
    println!(
        "n={} mean={:.0} std={:.0} min={} max={} within2σ={:.1}%",
        stats.n,
        stats.mean,
        stats.std,
        stats.min,
        stats.max,
        stats.within_2_sigma * 100.0
    );
    assert!(
        texts.iter().all(|t| t.len() <= 2000),
        "length cap violated"
    );
    println!("\nall texts ≤ 2000 chars: OK");
}
