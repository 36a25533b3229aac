//! Parser golden test over a representative real workspace file.
//!
//! `crates/models/src/sample.rs` exercises most of the surface the
//! recursive-descent parser has to survive: doc comments, derive
//! attributes, a struct, a trait impl (`Default for SamplerConfig` — the
//! *self* type must win), a generic fn with a `?Sized` bound, closures,
//! for loops, compound float accumulation, method chains, macro calls
//! with paths, and a `#[cfg(test)]` module.
//!
//! Line anchors are derived from source markers (not hardcoded) so the
//! golden survives unrelated edits to the file; the item tree itself is
//! pinned exactly.

use xlint::parser::{self, FileAst};

fn golden() -> (&'static str, FileAst) {
    let src = include_str!("../../models/src/sample.rs");
    (src, parser::parse(&xlint::lexer::lex(src)))
}

/// 1-based line of the first source line containing `needle`.
fn line_of(src: &str, needle: &str) -> u32 {
    src.lines()
        .position(|l| l.contains(needle))
        .map(|i| i as u32 + 1)
        .unwrap_or_else(|| panic!("marker {needle:?} not found in sample.rs"))
}

#[test]
fn item_tree_matches_the_real_file() {
    let (_, ast) = golden();
    let displays: Vec<String> = ast.fns.iter().map(|f| f.display()).collect();
    assert_eq!(
        displays,
        vec![
            "SamplerConfig::default",
            "generate",
            "generate_traced",
            "metric_label",
            "select_token",
            "scale_logits",
            "top_k_of",
            "top_candidates",
            "rank_key",
            "sample_ranked",
            "logits",
            "greedy_picks_argmax",
            "top_k_restricts_support",
            "top_p_restricts_support",
            "low_temperature_approaches_greedy",
            "high_temperature_spreads_mass",
            "deterministic_given_seed",
            "rank_all",
            "top_candidates_by_comparator",
            "packed_key_top_k_matches_the_comparator_on_adversarial_rows",
            "select_token_by_full_sort",
            "nan_logits",
            "nan_logits_regression_seed_3",
            "nan_logit_zero_greedy_regression_seed_9",
            "metric_label_sanitizes",
            "generate_works_on_quantized_models",
            "generate_respects_stop_and_budget",
        ],
        "item tree drifted from crates/models/src/sample.rs"
    );
    for f in &ast.fns {
        assert!(f.end_line >= f.line, "inverted span on {}", f.display());
        assert!(!f.is_unsafe, "sample.rs has no unsafe fns");
        assert!(f.unsafe_lines.is_empty(), "sample.rs has no unsafe blocks");
    }
    // Everything from `logits` on lives inside the #[cfg(test)] module.
    for f in &ast.fns[10..] {
        assert_eq!(f.module, vec!["tests".to_string()], "{}", f.display());
    }
    // `impl Default for SamplerConfig` resolves to the *self* type.
    assert_eq!(ast.fns[0].self_type.as_deref(), Some("SamplerConfig"));
    assert_eq!(ast.fns[1].self_type, None, "generate is a free fn");
}

#[test]
fn use_map_covers_plain_and_braced_imports() {
    let (_, ast) = golden();
    let has = |path: &[&str]| {
        ast.uses
            .iter()
            .any(|u| u.iter().map(String::as_str).eq(path.iter().copied()))
    };
    assert!(has(&["ratatouille_util", "rng", "StdRng"]));
    assert!(
        has(&["ratatouille_tensor", "ops"]) && has(&["ratatouille_tensor", "Tensor"]),
        "brace group `ratatouille_tensor::{{ops, Tensor}}` must expand"
    );
    // `crate::`/`self::`/`super::` heads are stripped so the use map keys
    // on resolvable module paths.
    assert!(has(&["lm", "InferenceModel"]));
}

#[test]
fn generate_events_land_on_their_source_lines() {
    let (src, ast) = golden();
    let delegator = ast.fns.iter().find(|f| f.name == "generate").unwrap();
    assert_eq!(delegator.line, line_of(src, "pub fn generate<M: InferenceModel"));

    // The decode body (and so all the interesting events) lives in the
    // traced variant; `generate` is a thin untraced delegator.
    let generate = ast
        .fns
        .iter()
        .find(|f| f.name == "generate_traced")
        .unwrap();
    assert_eq!(
        generate.line,
        line_of(src, "pub fn generate_traced<M: InferenceModel")
    );

    let expect_line = line_of(src, "expect(\"logits available after prompt\")");
    assert!(
        generate
            .calls
            .iter()
            .any(|c| c.method && c.name() == "expect" && c.line == expect_line),
        "the `.expect()` sink must be visible as a method-call event"
    );

    let prefill_line = line_of(src, "\"decode_prefill_ns\"");
    assert!(
        generate
            .macros
            .iter()
            .any(|m| m.path.last().map(String::as_str) == Some("static_histogram")
                && m.line == prefill_line),
        "macro events must carry their `obs::` path and line"
    );

    for name in ["labels", "stream", "logits", "out"] {
        assert!(generate.binds(name), "generate must bind `{name}`");
    }
}

#[test]
fn float_accumulation_is_visible_with_its_binding_hint() {
    let (src, ast) = golden();
    let select = ast.fns.iter().find(|f| f.name == "sample_ranked").unwrap();
    let cum_line = line_of(src, "cum += p");
    let add = select
        .adds
        .iter()
        .find(|a| a.line == cum_line)
        .expect("`cum += p` must be recorded as a compound-add event");
    assert_eq!(add.lhs.as_deref(), Some("cum"));
    let cum = select
        .bindings
        .iter()
        .find(|b| b.name == "cum")
        .expect("`let mut cum = 0.0f32` must be recorded as a binding");
    assert!(
        cum.float_hint,
        "the 0.0f32 initializer must leave a float hint on the binding"
    );
}
