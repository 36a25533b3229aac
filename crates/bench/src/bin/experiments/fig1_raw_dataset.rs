//! **Fig. 1 reproduction** — "Dataset before preprocessing".
//!
//! Prints raw "as scraped" records, including the defect classes the
//! preprocessing pipeline must handle (duplicates, truncations, missing
//! sections, scraping noise), plus the recipe-size distribution the
//! paper's 2000-character / 2σ decisions are based on.
//!
//! ```text
//! cargo run -p ratatouille-bench --bin experiments -- fig1_raw_dataset
//! ```

use ratatouille::recipedb::corpus::{Corpus, CorpusConfig, Defect};
use ratatouille::recipedb::stats::{length_stats, Histogram};

pub fn run() {
    let corpus = Corpus::generate(CorpusConfig {
        num_recipes: 1000,
        ..CorpusConfig::default()
    });

    println!("FIG. 1 — DATASET BEFORE PREPROCESSING (synthetic RecipeDB)\n");
    println!(
        "{} raw records generated from {} recipes\n",
        corpus.raw_records.len(),
        corpus.recipes.len()
    );

    // A clean record, as the paper's Fig. 1 shows.
    let clean = corpus
        .raw_records
        .iter()
        .find(|r| r.defect.is_none())
        .expect("corpus has clean records");
    println!("--- sample clean record -------------------------------------");
    println!("{}", clean.text);

    // One example of each defect class.
    for defect in [
        Defect::Duplicate,
        Defect::Truncated,
        Defect::MissingInstructions,
        Defect::MissingTitle,
        Defect::NoiseArtifacts,
    ] {
        if let Some(rec) = corpus.raw_records.iter().find(|r| r.defect == Some(defect)) {
            println!("--- sample defect: {defect:?} ---------------------------");
            let preview: String = rec.text.chars().take(300).collect();
            println!("{preview}");
            if rec.text.len() > 300 {
                println!("… [{} chars total]", rec.text.len());
            }
            println!();
        }
    }

    // Defect census.
    println!("--- defect census -------------------------------------------");
    for defect in [
        Defect::Duplicate,
        Defect::Truncated,
        Defect::MissingInstructions,
        Defect::MissingTitle,
        Defect::NoiseArtifacts,
    ] {
        let n = corpus
            .raw_records
            .iter()
            .filter(|r| r.defect == Some(defect))
            .count();
        println!("{defect:?}: {n}");
    }
    let clean_n = corpus.raw_records.iter().filter(|r| r.defect.is_none()).count();
    println!("Clean: {clean_n}\n");

    // Recipe-size distribution (the basis for the 2000-char cap and 2σ).
    let lens: Vec<usize> = corpus.raw_records.iter().map(|r| r.text.len()).collect();
    let texts: Vec<&str> = corpus.raw_records.iter().map(|r| r.text.as_str()).collect();
    let stats = length_stats(&texts);
    println!("--- raw recipe size distribution ----------------------------");
    println!(
        "n={} mean={:.0} std={:.0} min={} max={} within2σ={:.1}%",
        stats.n,
        stats.mean,
        stats.std,
        stats.min,
        stats.max,
        stats.within_2_sigma * 100.0
    );
    println!("{}", Histogram::build(&lens, 12).render(40));
}
