//! **Table I reproduction** — "Performance statistics of models".
//!
//! Trains all four rows (Char-LSTM, Word-LSTM, DistilGPT2, GPT-2 medium)
//! on the synthetic RecipeDB corpus and reports corpus BLEU against
//! held-out references, next to the paper's numbers.
//!
//! ```text
//! RATATOUILLE_SCALE=quick|standard|full cargo run --release -p ratatouille-bench --bin experiments -- table1_bleu
//! ```
//!
//! Expected shape (the reproduction claim): BLEU rises strictly down the
//! table, char-LSTM < word-LSTM < DistilGPT2 < GPT-2 medium — absolute
//! values differ from the paper because the substrate differs (see
//! EXPERIMENTS.md).

use ratatouille_bench::{render_table1, run_table1, table1_shape_holds, Scale};

pub fn run() {
    let scale = Scale::from_env();
    eprintln!("[table1] scale: {scale:?}");
    let started = std::time::Instant::now();
    let rows = run_table1(scale);
    println!("\nTABLE I — PERFORMANCE STATISTICS OF MODELS (reproduced)\n");
    println!("{}", render_table1(&rows));
    println!(
        "shape check (BLEU strictly rises: char-LSTM < word-LSTM < DistilGPT2 < GPT-2 medium): {}",
        if table1_shape_holds(&rows) { "HOLDS" } else { "VIOLATED" }
    );
    println!("total wall-clock: {:.1}s", started.elapsed().as_secs_f64());
}
