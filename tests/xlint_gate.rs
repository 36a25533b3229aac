//! Workspace lint gate: `cargo test` fails if any crate violates the
//! contract enforced by `crates/xlint`: SAFETY headers, float reduction
//! order, request-path panics, orphan `pub` items and suppression
//! hygiene.
//!
//! This is the same check `cargo run -p xlint` and `scripts/ci.sh` run;
//! wiring it into the test suite means tier-1 verification cannot pass
//! on a tree with unjustified violations. The path bans (default
//! hashers, raw clocks, env reads, libm `exp`/`tanh`) are clippy's, in
//! `clippy.toml`; only `scripts/ci.sh` runs them, not this test.

use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = xlint::find_workspace_root(manifest_dir)
        .expect("workspace root with [workspace] Cargo.toml above CARGO_MANIFEST_DIR");
    let diags = xlint::run_workspace(&root);
    assert!(
        diags.is_empty(),
        "xlint found {} violation(s); fix them or add a justified \
         `// xlint: allow(rule): reason` (see DESIGN.md §7):\n{}",
        diags.len(),
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
