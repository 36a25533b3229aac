//! **§VII future work, implemented** — "For future work, we intend to use
//! GPT-Neo which is built on similar architecture of GPT-3."
//!
//! Trains GPT-Neo (alternating global/local attention) head-to-head with
//! GPT-2 medium at identical width/depth/context/budget and compares
//! Table-I metrics — the experiment the paper proposed but did not run.
//! Both rows go through `table1_bleu`'s train-and-score path, so the
//! GPT-2 medium row equals `table1_bleu`'s at the same scale.
//!
//! ```text
//! RATATOUILLE_SCALE=quick cargo run --release -p ratatouille-bench --bin experiments -- future_work_gptneo
//! ```

use ratatouille::models::gpt2::Gpt2Config;
use ratatouille::models::registry::ModelKind;
use ratatouille::Pipeline;
use ratatouille_bench::{pipeline_config, render_table1, run_row, Scale};

pub fn run() {
    let scale = Scale::from_env();
    let pipeline = Pipeline::prepare(pipeline_config(scale));
    let mut rows = Vec::new();
    let mut training = String::new();
    for kind in [ModelKind::Gpt2Medium, ModelKind::GptNeo] {
        let (row, trained) = run_row(&pipeline, kind, scale);
        training.push_str(&format!(
            "{:<22} {:>10} {:>12.3} {:>12.1}\n",
            kind.display_name(),
            trained.spec.model.num_params(),
            trained.stats.final_loss(10),
            trained.stats.wall_secs
        ));
        rows.push(row);
    }

    println!("FUTURE WORK — GPT-NEO vs GPT-2 MEDIUM (equal width/depth/context/budget)\n");
    println!("{}", render_table1(&rows));
    println!(
        "{:<22} {:>10} {:>12} {:>12}",
        "model", "params", "final loss", "train (s)"
    );
    println!("{}", "-".repeat(58));
    print!("{training}");
    println!(
        "\nlocal-attention layers see a {}-token window; at recipe lengths (≤256 tokens)\n\
         GPT-Neo should be roughly at parity — the paper's hoped-for gain comes from\n\
         pre-training scale, which no offline reproduction can supply.",
        Gpt2Config::neo_small(0).local_window.expect("neo_small is windowed")
    );
}
