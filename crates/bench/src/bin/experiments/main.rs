//! `experiments` — one subcommand per paper artifact (Table I, Figs. 1–5,
//! the §V speedup claim, the §VII GPT-Neo run and the ablations).
//!
//! ```text
//! RATATOUILLE_SCALE=quick cargo run --release -p ratatouille-bench --bin experiments -- table1_bleu
//! cargo run --release -p ratatouille-bench --bin experiments -- --list
//! ```
//!
//! One artifact per process; `scripts/run_experiments.sh` runs them all.

mod ablation_preprocess;
mod ablation_sampling;
mod ablation_tokens;
mod fig1_raw_dataset;
mod fig2_preprocessed;
mod fig3_generation_flow;
mod fig4_web_generate;
mod fig5_sample_recipe;
mod future_work_gptneo;
mod quantized_bleu;
mod table1_bleu;
mod training_speedup;

const ARTIFACTS: &[(&str, fn())] = &[
    ("ablation_preprocess", ablation_preprocess::run),
    ("ablation_sampling", ablation_sampling::run),
    ("ablation_tokens", ablation_tokens::run),
    ("fig1_raw_dataset", fig1_raw_dataset::run),
    ("fig2_preprocessed", fig2_preprocessed::run),
    ("fig3_generation_flow", fig3_generation_flow::run),
    ("fig4_web_generate", fig4_web_generate::run),
    ("fig5_sample_recipe", fig5_sample_recipe::run),
    ("future_work_gptneo", future_work_gptneo::run),
    ("quantized_bleu", quantized_bleu::run),
    ("table1_bleu", table1_bleu::run),
    ("training_speedup", training_speedup::run),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [flag] if flag == "--list" => {
            for (name, _) in ARTIFACTS {
                println!("{name}");
            }
        }
        [name] => match ARTIFACTS.iter().find(|(n, _)| n == name) {
            Some((_, run)) => run(),
            None => usage(),
        },
        _ => usage(),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: experiments <artifact>   (RATATOUILLE_SCALE=quick|standard|full)\n\
         \x20      experiments --list      print the artifact names"
    );
    std::process::exit(2);
}
