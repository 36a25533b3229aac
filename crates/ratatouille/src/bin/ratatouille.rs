//! The `ratatouille` command-line tool: train, generate, evaluate and
//! serve from one binary (hand-rolled arg parsing — no CLI deps on the
//! offline whitelist).
//!
//! ```text
//! ratatouille generate --ingredients chicken,garlic,rice [--model medium] [--steps 200]
//! ratatouille serve    [--workers 3] [--port 8080] [--model distil]
//! ratatouille eval     [--recipes 300] [--model medium]
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
    let run: fn(&Opts) = match command.as_str() {
        "generate" => cmd_generate,
        "serve" => cmd_serve,
        "eval" => cmd_eval,
        "corpus" => cmd_corpus,
        "--help" | "-h" | "help" => usage_and_exit(None),
        other => usage_and_exit(Some(other)),
    };
    run(&Opts::parse(&parse_flags(&args[1..])));
}

/// Held-out recipes `eval` scores, clamped to the test split.
const EVAL_RECIPES: usize = 10;

/// Every flag, checked before any corpus is built: a bad value exits 2
/// at once instead of after minutes of preparation or training.
struct Opts {
    kind: ModelKind,
    steps: Option<usize>,
    recipes: usize,
    seed: u64,
    workers: usize,
    port: usize,
    ingredients: Vec<String>,
}

impl Opts {
    fn parse(flags: &BTreeMap<String, String>) -> Opts {
        Opts {
            kind: model_kind(flags),
            steps: flags.contains_key("steps").then(|| num(flags, "steps", 0)),
            recipes: num(flags, "recipes", 300),
            seed: num(flags, "seed", 42) as u64,
            workers: num(flags, "workers", 2),
            port: num(flags, "port", 0),
            ingredients: flags
                .get("ingredients")
                .map(|s| s.split(',').map(|x| x.trim().to_string()).collect())
                .unwrap_or_else(|| vec!["chicken".into(), "garlic".into(), "rice".into()]),
        }
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
         \x20 --recipes N           corpus size (default 300; eval scores 10 held-out recipes)\n\
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

fn prepare(opts: &Opts) -> Pipeline {
    let mut cfg = PipelineConfig::reproduction();
    cfg.corpus.num_recipes = opts.recipes;
    eprintln!("preparing corpus ({} recipes)…", cfg.corpus.num_recipes);
    Pipeline::prepare(cfg)
}

fn train(pipeline: &Pipeline, opts: &Opts) -> ratatouille::TrainedModel {
    let kind = opts.kind;
    let mut train_cfg = kind.default_train_config();
    if let Some(steps) = opts.steps {
        train_cfg.steps = steps;
        train_cfg.warmup = (train_cfg.steps / 10).max(1);
    }
    train_cfg.log_every = (train_cfg.steps / 10).max(1);
    eprintln!("training {} for {} steps…", kind.display_name(), train_cfg.steps);
    pipeline.train(kind, Some(train_cfg))
}

fn cmd_generate(opts: &Opts) {
    let pipeline = prepare(opts);
    let trained = train(&pipeline, opts);
    let recipe = trained.generate_recipe(&opts.ingredients, opts.seed);
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

fn cmd_serve(opts: &Opts) {
    let pipeline = prepare(opts);
    let trained = train(&pipeline, opts);
    let server = ApiServer::start(
        &format!("127.0.0.1:{}", opts.port),
        opts.workers,
        32,
        trained.backend_factory(),
    )
    .expect("failed to bind");
    println!("serving {} on http://{}/ (Ctrl+C to stop)", server.model_name(), server.addr());
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn cmd_eval(opts: &Opts) {
    let pipeline = prepare(opts);
    let trained = train(&pipeline, opts);
    let n = EVAL_RECIPES.min(pipeline.test_recipes.len());
    eprintln!("evaluating on {n} held-out recipes…");
    let report = trained.evaluate(&pipeline.test_recipes, n, opts.seed, DType::F32);
    println!("{report}");
}

fn cmd_corpus(opts: &Opts) {
    let pipeline = prepare(opts);
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
