//! **Ablation: decoding strategy** — greedy vs temperature vs top-k vs
//! top-p, trading BLEU against diversity/novelty.
//!
//! Not a paper table, but the design choice behind the web app's decoder
//! (DESIGN.md calls it out): the paper's goal is *novel* recipes, and
//! greedy decoding maximizes BLEU while collapsing diversity.
//!
//! ```text
//! RATATOUILLE_SCALE=quick cargo run --release -p ratatouille-bench --bin experiments -- ablation_sampling
//! ```

use ratatouille::models::registry::ModelKind;
use ratatouille::models::sample::SamplerConfig;
use ratatouille::tensor::DType;
use ratatouille::Pipeline;
use ratatouille_bench::{pipeline_config, score, train_row, Scale};

pub fn run() {
    let scale = Scale::from_env();
    eprintln!("[ablation_sampling] training GPT-2 medium ({scale:?})…");
    let pipeline = Pipeline::prepare(pipeline_config(scale));
    let mut trained = train_row(&pipeline, ModelKind::Gpt2Medium, scale);

    let strategies: Vec<(&str, SamplerConfig)> = vec![
        (
            "greedy",
            SamplerConfig {
                greedy: true,
                ..SamplerConfig::default()
            },
        ),
        (
            "temp=0.7",
            SamplerConfig {
                greedy: false,
                temperature: 0.7,
                top_k: 0,
                top_p: 1.0,
                ..SamplerConfig::default()
            },
        ),
        (
            "top-k=40",
            SamplerConfig {
                greedy: false,
                temperature: 1.0,
                top_k: 40,
                top_p: 1.0,
                ..SamplerConfig::default()
            },
        ),
        (
            "top-p=0.95",
            SamplerConfig {
                greedy: false,
                temperature: 0.9,
                top_k: 0,
                top_p: 0.95,
                ..SamplerConfig::default()
            },
        ),
    ];

    println!("ABLATION — DECODING STRATEGY (GPT-2 medium)\n");
    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>8} {:>8}",
        "strategy", "BLEU", "distinct2", "selfBLEU", "valid%", "copy%"
    );
    println!("{}", "-".repeat(62));
    for (name, sampler) in strategies {
        trained.sampler = sampler;
        let report = score(&trained, &pipeline, scale, DType::F32);
        println!(
            "{:<12} {:>8.3} {:>10.3} {:>10.3} {:>8.1} {:>8.1}",
            name,
            report.bleu,
            report.distinct_2,
            report.self_bleu,
            report.structure_valid_rate * 100.0,
            report.copy_rate * 100.0
        );
    }
    println!("\nexpected shape: greedy highest BLEU & self-BLEU (least diverse); top-p best balance");
}
