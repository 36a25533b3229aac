//! Cross-crate panic-path fixture, serving half: a request handler that
//! calls into the models helper (fixtures/xcrate_models.rs). The unwrap
//! lives two hops away in the other crate — only the call-graph rule can
//! see it from here. Linted together via `lint_sources` under virtual
//! paths `crates/serving/src/fixture.rs` + `crates/models/src/fixture.rs`.

use ratatouille_models::fixture::decode_greedy;

fn handle_generate(prompt: &[u32]) -> Vec<u32> {
    decode_greedy(prompt, 16)
}

fn handle_healthz() -> &'static str {
    "ok"
}
