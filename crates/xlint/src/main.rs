//! `cargo run -p xlint` — lint the workspace, print diagnostics, exit
//! non-zero on any finding. `scripts/ci.sh` runs this before the build so
//! contract violations fail fast; `tests/xlint_gate.rs` enforces the same
//! thing under plain `cargo test`. `--rules` lists the catalogue.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--rules") {
        for r in xlint::rules::catalogue() {
            println!("{:<32} {}", r.id, r.summary);
        }
        for r in xlint::rules::workspace_rules() {
            println!("{:<32} [workspace] {}", r.id, r.summary);
        }
        return ExitCode::SUCCESS;
    }
    // Optional explicit root; otherwise walk up from the current directory
    // (cargo runs binaries from the workspace root).
    let start = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(PathBuf::from)
        .or_else(|| std::env::current_dir().ok())
        .unwrap_or_else(|| PathBuf::from("."));
    let Some(root) = xlint::find_workspace_root(&start) else {
        eprintln!("xlint: no workspace Cargo.toml found above {}", start.display());
        return ExitCode::FAILURE;
    };
    let diags = xlint::run_workspace(&root);
    for d in &diags {
        println!("{d}");
    }
    if diags.is_empty() {
        let n = xlint::rules::catalogue().len() + xlint::rules::workspace_rules().len();
        println!("xlint: workspace clean ({n} rules)");
        ExitCode::SUCCESS
    } else {
        eprintln!("xlint: {} violation(s)", diags.len());
        ExitCode::FAILURE
    }
}
