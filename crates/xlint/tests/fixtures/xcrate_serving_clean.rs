//! Clean twin of xcrate_serving.rs: the same cross-crate call into the
//! models helper, but the edge carries an `infallible()` justification on
//! the line above the call, so the panic-path traversal must cut the
//! subtree and report nothing.

use ratatouille_models::fixture::decode_greedy;

fn handle_generate(prompt: &[u32]) -> Vec<u32> {
    // xlint: infallible(decode_greedy): the fixture prompt is non-empty by construction, so `last()` always yields
    decode_greedy(prompt, 16)
}
