//! The `ratatouille` command-line tool: train, generate, evaluate and
//! serve from one binary (hand-rolled arg parsing — no CLI deps on the
//! offline whitelist).
//!
//! ```text
//! ratatouille generate --ingredients chicken,garlic,rice [--model medium] [--steps 200]
//! ratatouille serve    [--workers 3] [--port 8080] [--model distil]
//! ratatouille eval     [--recipes 20] [--model medium]
//! ratatouille corpus   [--recipes 500]   # print preprocessing report
//! ```

use std::collections::BTreeMap;

use ratatouille::models::registry::ModelKind;
use ratatouille::serving::api::ApiServer;
use ratatouille::tensor::DType;
use ratatouille::{Pipeline, PipelineConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage_and_exit(None);
    };
    let flags = parse_flags(&args[1..]);
    match command.as_str() {
        "generate" => cmd_generate(&flags),
        "serve" => cmd_serve(&flags),
        "eval" => cmd_eval(&flags),
        "corpus" => cmd_corpus(&flags),
        "--help" | "-h" | "help" => usage_and_exit(None),
        other => usage_and_exit(Some(other)),
    }
}

fn usage_and_exit(unknown: Option<&str>) -> ! {
    if let Some(u) = unknown {
        eprintln!("unknown command `{u}`\n");
    }
    eprintln!(
        "ratatouille — novel recipe generation (ICDE 2022 reproduction)\n\n\
         USAGE:\n  ratatouille <command> [flags]\n\n\
         COMMANDS:\n\
         \x20 generate   train a model and generate a recipe\n\
         \x20 serve      boot the web application\n\
         \x20 eval       train and report evaluation metrics\n\
         \x20 corpus     generate + preprocess a corpus, print the report\n\n\
         FLAGS:\n\
         \x20 --ingredients a,b,c   (generate) ingredient prompt\n\
         \x20 --model KIND          char-lstm | word-lstm | distil | medium (default: medium)\n\
         \x20 --steps N             training steps (default: per-model budget)\n\
         \x20 --recipes N           corpus size (default 300) / eval count (default 10)\n\
         \x20 --workers N           (serve) replica count (default 2)\n\
         \x20 --port N              (serve) port (default: ephemeral)\n\
         \x20 --seed N              sampling seed (default 42)"
    );
    std::process::exit(if unknown.is_some() { 2 } else { 0 });
}

fn parse_flags(args: &[String]) -> BTreeMap<String, String> {
    let mut flags = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            let value = args.get(i + 1).cloned().unwrap_or_default();
            flags.insert(name.to_string(), value);
            i += 2;
        } else {
            eprintln!("ignoring stray argument `{}`", args[i]);
            i += 1;
        }
    }
    flags
}

fn model_kind(flags: &BTreeMap<String, String>) -> ModelKind {
    match flags.get("model").map(String::as_str) {
        Some("char-lstm") => ModelKind::CharLstm,
        Some("word-lstm") => ModelKind::WordLstm,
        Some("distil") => ModelKind::DistilGpt2,
        Some("medium") | None => ModelKind::Gpt2Medium,
        Some(other) => {
            eprintln!("unknown model `{other}`; expected char-lstm|word-lstm|distil|medium");
            std::process::exit(2);
        }
    }
}

fn num(flags: &BTreeMap<String, String>, key: &str, default: usize) -> usize {
    flags
        .get(key)
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("--{key} expects a number, got `{v}`");
                std::process::exit(2);
            })
        })
        .unwrap_or(default)
}

fn prepare(flags: &BTreeMap<String, String>) -> Pipeline {
    let mut cfg = PipelineConfig::reproduction();
    cfg.corpus.num_recipes = num(flags, "recipes", 300);
    eprintln!("preparing corpus ({} recipes)…", cfg.corpus.num_recipes);
    Pipeline::prepare(cfg)
}

fn train(pipeline: &Pipeline, flags: &BTreeMap<String, String>) -> ratatouille::TrainedModel {
    let kind = model_kind(flags);
    let mut train_cfg = kind.default_train_config();
    if let Some(steps) = flags.get("steps") {
        train_cfg.steps = steps.parse().unwrap_or(train_cfg.steps);
        train_cfg.warmup = (train_cfg.steps / 10).max(1);
    }
    train_cfg.log_every = (train_cfg.steps / 10).max(1);
    eprintln!("training {} for {} steps…", kind.display_name(), train_cfg.steps);
    pipeline.train(kind, Some(train_cfg))
}

fn cmd_generate(flags: &BTreeMap<String, String>) {
    let ingredients: Vec<String> = flags
        .get("ingredients")
        .map(|s| s.split(',').map(|x| x.trim().to_string()).collect())
        .unwrap_or_else(|| vec!["chicken".into(), "garlic".into(), "rice".into()]);
    let pipeline = prepare(flags);
    let trained = train(&pipeline, flags);
    let recipe = trained.generate_recipe(&ingredients, num(flags, "seed", 42) as u64);
    println!("\n=== {} ===", recipe.title);
    println!("Ingredients:");
    for l in &recipe.ingredients {
        println!("  • {l}");
    }
    println!("Instructions:");
    for (i, s) in recipe.instructions.iter().enumerate() {
        println!("  {}. {s}", i + 1);
    }
    println!(
        "\nwell-formed: {}",
        if recipe.well_formed { "yes" } else { "no" }
    );
}

fn cmd_serve(flags: &BTreeMap<String, String>) {
    let pipeline = prepare(flags);
    let trained = train(&pipeline, flags);
    let port = num(flags, "port", 0);
    let workers = num(flags, "workers", 2);
    let server = ApiServer::start(
        &format!("127.0.0.1:{port}"),
        workers,
        32,
        trained.backend_factory(),
    )
    .expect("failed to bind");
    println!("serving {} on http://{}/ (Ctrl+C to stop)", server.model_name(), server.addr());
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn cmd_eval(flags: &BTreeMap<String, String>) {
    let pipeline = prepare(flags);
    let trained = train(&pipeline, flags);
    let n = num(flags, "recipes", 10).min(pipeline.test_recipes.len());
    eprintln!("evaluating on {n} held-out recipes…");
    let report =
        trained.evaluate(&pipeline.test_recipes, n, num(flags, "seed", 42) as u64, DType::F32);
    println!("{report}");
}

fn cmd_corpus(flags: &BTreeMap<String, String>) {
    let pipeline = prepare(flags);
    let r = &pipeline.report;
    println!("raw records:        {}", r.input_records);
    println!("noise-stripped:     {}", r.noise_stripped);
    println!("duplicates removed: {}", r.duplicates_removed);
    println!("parse failures:     {}", r.parse_failures);
    println!("invalid removed:    {}", r.invalid_removed);
    println!("length-capped:      {}", r.capped);
    println!("merged:             {}", r.merged);
    println!("2σ-filtered:        {}", r.sigma_filtered);
    println!("training texts:     {}", r.output_texts);
    println!("mean length:        {:.0} chars (σ {:.0})", r.mean_len, r.std_len);
    println!("held-out recipes:   {}", pipeline.test_recipes.len());
}
