//! End-to-end fixture tests: each seeded fixture must produce exactly the
//! expected `(rule, line)` diagnostics, and the clean fixture none at all.
//!
//! Fixtures live under `tests/fixtures/` (excluded from `run_workspace`)
//! and are linted via `lint_source` under a virtual path chosen to put
//! them in the crate each rule targets.

fn diags(virtual_path: &str, src: &str) -> Vec<(&'static str, u32)> {
    xlint::lint_source(virtual_path, src)
        .into_iter()
        .map(|d| (d.rule, d.line))
        .collect()
}

/// Lint several fixture files as one virtual workspace (exercises the
/// cross-crate call-graph rules, which `lint_source` runs on one file).
fn workspace_diags(files: &[(&str, &str)]) -> Vec<xlint::Diagnostic> {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    xlint::lint_sources(&owned)
}

#[test]
fn unsafe_fixture_flags_uncommented_sites_only() {
    let src = include_str!("fixtures/unsafe_sites.rs");
    assert_eq!(
        diags("crates/tensor/src/fixture.rs", src),
        vec![
            ("unsafe-needs-safety-comment", 11),
            ("unsafe-needs-safety-comment", 18),
        ],
        "line 17 is covered by the SAFETY comment on 16; 11 and 18 are bare"
    );
}

#[test]
fn nondet_fixture_flags_clock_env_and_hashmap() {
    let src = include_str!("fixtures/nondet.rs");
    assert_eq!(
        diags("crates/recipedb/src/fixture.rs", src),
        vec![
            ("forbidden-nondeterminism", 2),
            ("forbidden-nondeterminism", 4),
            ("forbidden-nondeterminism", 5),
            ("obs-only-timing", 9),
            ("forbidden-nondeterminism", 15),
        ],
        "line 19 is suppressed with a reason; the cfg(test) mod is exempt"
    );
}

#[test]
fn nondet_fixture_is_clean_in_an_allowlisted_crate() {
    let src = include_str!("fixtures/nondet.rs");
    assert_eq!(
        diags("crates/bench/src/fixture.rs", src),
        vec![("allow-needs-justification", 18)],
        "bench is allowlisted for nondeterminism and raw timing, so both \
         rules stay quiet and the now-unused suppression is reported as stale"
    );
}

#[test]
fn timing_fixture_flags_raw_clocks_in_instrumented_crates_only() {
    let src = include_str!("fixtures/raw_timing.rs");
    assert_eq!(
        diags("crates/serving/src/fixture.rs", src),
        vec![("obs-only-timing", 4), ("obs-only-timing", 10)],
        "line 7 goes through obs::Clock and line 14 is suppressed; \
         the cfg(test) mod is exempt"
    );
    assert_eq!(
        diags("crates/obs/src/fixture.rs", src),
        vec![("allow-needs-justification", 13)],
        "obs is the clock authority: the rule stays quiet there and the \
         suppression goes stale"
    );
}

#[test]
fn panics_fixture_flags_unwrap_expect_and_panic() {
    let src = include_str!("fixtures/panics.rs");
    assert_eq!(
        diags("crates/serving/src/fixture.rs", src),
        vec![
            ("no-panic-in-request-path", 3),
            ("no-panic-in-request-path", 4),
            ("no-panic-in-request-path", 6),
        ],
        "unwrap_or_default and the cfg(test) mod must not be flagged"
    );
}

#[test]
fn panics_fixture_ignored_outside_serving() {
    let src = include_str!("fixtures/panics.rs");
    assert_eq!(
        diags("crates/tokenizers/src/fixture.rs", src),
        vec![],
        "no-panic-in-request-path only applies to crates/serving"
    );
}

#[test]
fn trace_gate_fixture_flags_untraced_handoffs_only() {
    let src = include_str!("fixtures/trace_gate.rs");
    assert_eq!(
        diags("crates/serving/src/fixture.rs", src),
        vec![
            ("trace-before-backend", 6),
            ("trace-before-backend", 17),
        ],
        "the traced handler, the non-handler worker, the span-free handler \
         and the cfg(test) mod must stay clean"
    );
    assert_eq!(
        diags("crates/models/src/fixture.rs", src),
        vec![],
        "trace-before-backend only applies to crates/serving"
    );
}

#[test]
fn float_fixture_flags_f32_reductions_only() {
    let src = include_str!("fixtures/float_sums.rs");
    assert_eq!(
        diags("crates/models/src/fixture.rs", src),
        vec![
            ("float-reduction-order", 4),
            ("float-reduction-order", 8),
        ],
        "usize/f64 turbofish sums and integer ranges must not be flagged"
    );
}

#[test]
fn allows_fixture_flags_every_bad_suppression() {
    let src = include_str!("fixtures/allows.rs");
    assert_eq!(
        diags("src/fixture.rs", src),
        vec![
            ("allow-needs-justification", 3),
            ("allow-needs-justification", 10),
            ("allow-needs-justification", 13),
            ("allow-needs-justification", 16),
            ("allow-needs-justification", 19),
        ],
        "the justified #[allow] on line 7 must pass"
    );
}

#[test]
fn disjoint_fixture_flags_every_bad_scatter_header() {
    let src = include_str!("fixtures/disjoint.rs");
    assert_eq!(
        diags("crates/tensor/src/fixture.rs", src),
        vec![
            ("unsafe-disjointness-contract", 6),
            ("unsafe-disjointness-contract", 11),
            ("unsafe-disjointness-contract", 16),
            ("unsafe-disjointness-contract", 21),
        ],
        "the structured headers on lines 25 and 31 must satisfy the contract"
    );
}

#[test]
fn accum_fixture_flags_float_loops_outside_blessed_kernels() {
    let src = include_str!("fixtures/accum.rs");
    assert_eq!(
        diags("crates/models/src/fixture.rs", src),
        vec![("accum-discipline", 8), ("accum-discipline", 16)],
        "integer loops and loop-free compound adds must stay clean"
    );
    assert_eq!(
        diags("crates/tensor/src/ops/fixture.rs", src),
        vec![],
        "tensor kernels are the blessed home for raw reduction loops"
    );
}

#[test]
fn cross_crate_unwrap_is_caught_from_the_request_handler() {
    let got = workspace_diags(&[
        (
            "crates/serving/src/fixture.rs",
            include_str!("fixtures/xcrate_serving.rs"),
        ),
        (
            "crates/models/src/fixture.rs",
            include_str!("fixtures/xcrate_models.rs"),
        ),
    ]);
    let shape: Vec<(&str, &str, u32)> = got
        .iter()
        .map(|d| (d.path.as_str(), d.rule, d.line))
        .collect();
    assert_eq!(
        shape,
        vec![
            ("crates/models/src/fixture.rs", "transitive-panic-in-request-path", 16),
            ("crates/models/src/fixture.rs", "transitive-panic-in-request-path", 21),
        ],
        "the unwrap two hops from handle_generate and the panic under \
         BatchGenerator::step must surface; `shaped`'s unwrap is unreachable"
    );
    assert!(
        got[0].msg.contains("handle_generate -> decode_greedy -> argmax"),
        "the diagnostic must name the shortest root path: {}",
        got[0].msg
    );
}

#[test]
fn infallible_edge_keeps_the_clean_twin_clean() {
    let got = workspace_diags(&[
        (
            "crates/serving/src/fixture.rs",
            include_str!("fixtures/xcrate_serving_clean.rs"),
        ),
        (
            "crates/models/src/fixture.rs",
            include_str!("fixtures/xcrate_models_clean.rs"),
        ),
    ]);
    assert!(
        got.is_empty(),
        "the justified infallible() edge must cut the only path to the \
         unwrap (and count as used, not stale), got:\n{}",
        got.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn orphan_fixture_flags_items_named_only_by_tests_strings_and_reexports() {
    let src = include_str!("fixtures/orphan.rs");
    assert_eq!(
        diags("crates/eval/src/fixture.rs", src),
        vec![("orphan-pub-item", 5), ("orphan-pub-item", 9), ("orphan-pub-item", 13)],
        "a unit test, a string literal, a comment and a `pub use` are not references"
    );
    let clean = include_str!("fixtures/orphan_clean.rs");
    assert_eq!(diags("crates/eval/src/fixture.rs", clean), vec![]);
    // a caller under `tests/` is a reference, even though every line of it is test code
    let caller = "fn t() { (tested_only(), quoted_only(), reexported()); }\n";
    let got = workspace_diags(&[("crates/eval/src/fixture.rs", src), ("crates/eval/tests/t.rs", caller)]);
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn orphan_suppression_is_honoured_only_with_a_reason() {
    let reasoned = "// xlint: allow(orphan-pub-item): called from generated code\npub fn kept() {}\n";
    assert_eq!(diags("crates/eval/src/x.rs", reasoned), vec![]);
    let bare = "// xlint: allow(orphan-pub-item)\npub fn kept() {}\n";
    assert_eq!(
        diags("crates/eval/src/x.rs", bare),
        vec![("allow-needs-justification", 1), ("orphan-pub-item", 2)]
    );
}

#[test]
fn clean_fixture_produces_no_diagnostics() {
    let src = include_str!("fixtures/clean.rs");
    let got = xlint::lint_source("crates/tokenizers/src/fixture.rs", src);
    assert!(
        got.is_empty(),
        "lexer-torture fixture must be clean, got:\n{}",
        got.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn diagnostic_display_is_path_line_rule_msg() {
    let src = include_str!("fixtures/panics.rs");
    let got = xlint::lint_source("crates/serving/src/fixture.rs", src);
    let first = got.first().expect("fixture has diagnostics").to_string();
    assert!(
        first.starts_with("crates/serving/src/fixture.rs:3: [no-panic-in-request-path] "),
        "diagnostic format changed: {first}"
    );
}
