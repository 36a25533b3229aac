//! The rule catalogue.
//!
//! Each per-file rule is a [`Rule`] value in [`catalogue`]: an id, a
//! scope predicate, a check against the file's tokens/AST, and whether
//! test code is exempt. Adding a rule is ~20 lines: write a `check_*`
//! function against [`FileCtx`], pick a scope helper, and append an
//! entry to `CATALOGUE` (DESIGN.md §7 walks through an example).
//! The two workspace rules need every file at once — the request-path
//! panic analysis lives in [`crate::callgraph`], `orphan-pub-item` at
//! the end of this module — and are listed in [`workspace_rules`] so
//! `--rules` and the suppression checker see them.

use crate::lexer::Tok;
use crate::parser::{is_float, stmt_mentions_float};
use crate::{callgraph, Diagnostic, FileCtx};

/// Rule id shared with the engine, which lints suppression comments.
pub const ALLOW_NEEDS_JUSTIFICATION: &str = "allow-needs-justification";

/// One lint rule.
pub struct Rule {
    /// Stable id used in diagnostics and `xlint: allow(...)` comments.
    pub id: &'static str,
    /// One-line description (shown by `xlint --rules`).
    pub summary: &'static str,
    /// Skip findings on test-only lines (`#[cfg(test)]`, `tests/`, …).
    pub skip_tests: bool,
    /// Does this rule run on this file at all?
    pub applies: fn(&FileCtx) -> bool,
    /// Emit diagnostics for this file.
    pub check: fn(&FileCtx, &mut Vec<Diagnostic>),
}

/// A workspace-scoped rule (documented here, executed by the engine over
/// every walked file).
pub struct WorkspaceRule {
    pub id: &'static str,
    pub summary: &'static str,
}

/// Crates whose outputs feed generations or metrics: ad-hoc float
/// reductions here silently break the §4b contract. (The path bans —
/// hashers, clocks, env, libm — are clippy's, in `clippy.toml`.)
const RESULT_AFFECTING: &[&str] = &["tensor", "models", "tokenizers", "eval", "recipedb"];

/// The blessed kernel directory: float reductions are *defined* here.
const BLESSED_KERNELS: &str = "crates/tensor/src/ops/";

fn everywhere(_ctx: &FileCtx) -> bool {
    true
}

fn result_affecting_outside_kernels(ctx: &FileCtx) -> bool {
    ctx.crate_name.as_deref().is_some_and(|c| RESULT_AFFECTING.contains(&c))
        && !ctx.path.starts_with(BLESSED_KERNELS)
}

/// The per-file catalogue, in diagnostic-id order.
pub fn catalogue() -> &'static [Rule] {
    &CATALOGUE
}

/// Workspace-scoped rules run by the engine over every walked file.
pub fn workspace_rules() -> &'static [WorkspaceRule] {
    &[
        WorkspaceRule {
            id: callgraph::TRANSITIVE_PANIC,
            summary: "panic!/unwrap()/expect() (all crates) and []-indexing (serving) reachable \
                      from any serving fn or BatchGenerator::step on the cross-crate call graph, \
                      with method calls resolved on their receivers' types",
        },
        WorkspaceRule {
            id: ORPHAN_PUB_ITEM,
            summary: "a `pub` fn/struct/enum/trait/type/const/static in library source whose \
                      name is an identifier token nowhere but definitions, `impl` headers, \
                      `pub use` re-exports and the unit tests of `crates/*/src`",
        },
    ]
}

/// Every rule id a suppression comment may legally name.
pub fn all_rule_ids() -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = catalogue().iter().map(|r| r.id).collect();
    ids.extend(workspace_rules().iter().map(|r| r.id));
    ids
}

static CATALOGUE: [Rule; 3] = [
    Rule {
        id: "unsafe-needs-safety-comment",
        summary: "every `unsafe` block/fn/impl must be immediately preceded by a structured \
                  `// SAFETY(disjoint: …)` or `// SAFETY(invariant: …)` header stating the \
                  invariant",
        skip_tests: false,
        applies: everywhere,
        check: check_unsafe_safety_comment,
    },
    Rule {
        id: "float-reduction-order",
        summary: "ad-hoc f32 sum()/fold() and float `+=` loops outside tensor/src/ops — use the \
                  order-pinned `ratatouille_util::accum` helpers so reduction order stays fixed",
        skip_tests: true,
        applies: result_affecting_outside_kernels,
        check: check_float_reduction,
    },
    Rule {
        id: ALLOW_NEEDS_JUSTIFICATION,
        summary: "#[allow(...)] attributes and `xlint: allow(...)` suppressions must carry a \
                  justification",
        skip_tests: false,
        applies: everywhere,
        check: check_allow_justified,
    },
];

/// Non-comment tokens, in order.
fn code<'c>(ctx: &'c FileCtx) -> Vec<&'c Tok> {
    ctx.toks.iter().filter(|t| !t.is_comment()).collect()
}

fn diag(ctx: &FileCtx, line: u32, rule: &'static str, msg: String) -> Diagnostic {
    Diagnostic {
        path: ctx.path.clone(),
        line,
        rule,
        msg,
    }
}

/// `toks[i..]` matches the identifier/punct sequence `pat`, where idents
/// are matched by name and `":"`-style entries by punctuation.
fn seq_matches(toks: &[&Tok], i: usize, pat: &[&str]) -> bool {
    if i + pat.len() > toks.len() {
        return false;
    }
    pat.iter().enumerate().all(|(k, p)| {
        let t = toks[i + k];
        match p.chars().next() {
            Some(c) if p.len() == 1 && !c.is_ascii_alphanumeric() => t.is_punct(c),
            _ => t.ident() == Some(*p),
        }
    })
}

// ---------------------------------------------------------------------------
// unsafe-needs-safety-comment
// ---------------------------------------------------------------------------

/// How far above an `unsafe` token the SAFETY header may sit
/// (attributes, visibility and multi-line comment bodies intervene).
const SAFETY_SCAN_LINES: u32 = 8;

/// A SAFETY comment found near a site.
enum Safety {
    /// Old prose form: `// SAFETY: …` — predates the structured headers.
    Legacy,
    /// `// SAFETY(kind: args)`; `closed` is false when the `)` is missing
    /// from the header line.
    Structured { kind: String, args: String, closed: bool },
}

fn parse_safety(text: &str) -> Option<Safety> {
    let t = text.trim_start();
    let rest = t.strip_prefix("SAFETY")?;
    if rest.starts_with(':') {
        return Some(Safety::Legacy);
    }
    let body = rest.strip_prefix('(')?;
    let (body, closed) = match body.rfind(')') {
        Some(p) => (&body[..p], true),
        None => (body, false),
    };
    let (kind, args) = match body.split_once(':') {
        Some((k, a)) => (k.trim().to_string(), a.trim().to_string()),
        None => (body.trim().to_string(), String::new()),
    };
    Some(Safety::Structured { kind, args, closed })
}

/// Find the SAFETY header nearest above `line` (or on it), within the
/// scan window, stopping at completed statements.
fn safety_near(ctx: &FileCtx, line: u32) -> Option<Safety> {
    if let Some(s) = ctx.comments_on(line).find_map(parse_safety) {
        return Some(s);
    }
    let mut l = line.saturating_sub(1);
    for _ in 0..SAFETY_SCAN_LINES {
        if l == 0 {
            break;
        }
        if let Some(s) = ctx.comments_on(l).find_map(parse_safety) {
            return Some(s);
        }
        if ctx.line_has_code(l) {
            // A completed statement/item above ends the search; a
            // continuation head (e.g. `let x =`) lets it keep climbing.
            if matches!(ctx.line_end_punct(l), Some(';') | Some('{') | Some('}')) {
                break;
            }
        }
        l -= 1;
    }
    None
}

fn check_unsafe_safety_comment(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    for t in code(ctx) {
        if t.ident() != Some("unsafe") {
            continue;
        }
        let msg = match safety_near(ctx, t.line) {
            None => {
                "`unsafe` without an immediately preceding `// SAFETY(…)` header stating the \
                 invariant: `SAFETY(disjoint: <ranges>)` for non-aliasing writes, \
                 `SAFETY(invariant: …)` for everything else (pointer validity/lifetime, cpuid \
                 gate, latch ordering, …)"
            }
            Some(Safety::Legacy) => {
                "legacy prose `// SAFETY:` comment; restate it as a structured \
                 `SAFETY(disjoint: <ranges>)` or `SAFETY(invariant: …)` header so the contract \
                 is machine-checkable"
            }
            Some(Safety::Structured { kind, args, closed }) => {
                if !closed || args.is_empty() || !matches!(kind.as_str(), "disjoint" | "invariant")
                {
                    "malformed SAFETY header; expected `SAFETY(disjoint: <ranges>)` or \
                     `SAFETY(invariant: <argument>)` with the `)` on the same comment line"
                } else {
                    continue;
                }
            }
        };
        out.push(diag(ctx, t.line, "unsafe-needs-safety-comment", msg.to_string()));
    }
}

// ---------------------------------------------------------------------------
// float-reduction-order: f32 `.sum()`/`.fold()` and float `+=` loops
// ---------------------------------------------------------------------------

fn check_float_reduction(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    const RULE: &str = "float-reduction-order";
    let toks = code(ctx);
    for i in 0..toks.len() {
        let Some(name @ ("sum" | "fold")) = toks.get(i + 1).and_then(|t| t.ident()) else {
            continue;
        };
        if !toks[i].is_punct('.') {
            continue;
        }
        // `.sum::<T>()` — the turbofish names the accumulator type.
        let is_f32 = if seq_matches(&toks, i + 2, &[":", ":", "<"]) {
            toks[i + 5..].iter().take_while(|t| !t.is_punct('(')).any(|t| is_float(t))
        } else {
            stmt_mentions_float(&toks, i)
        };
        if is_f32 {
            let msg = format!(
                "ad-hoc float `{name}` reduction outside the blessed kernels; use \
                 `ratatouille_util::accum::{{sum_f32, max_abs_f32}}` (re-exported at \
                 `ratatouille_tensor::ops::reduce`) so the accumulation order stays pinned"
            );
            out.push(diag(ctx, toks[i + 1].line, RULE, msg));
        }
    }
    for f in &ctx.ast.fns {
        for a in &f.adds {
            // Float evidence: the statement itself, or the accumulator
            // binding's declaration — that is how reductions hide behind
            // helper fns (the `+=` line looks typeless, the `let` not).
            let lhs_float =
                a.lhs.as_deref().is_some_and(|n| f.bindings.iter().any(|b| b.name == n && b.float_hint));
            if a.float_stmt || lhs_float {
                let msg = format!(
                    "float `+=` accumulation in a loop in `{}`; reduction order drifts with \
                     iteration strategy — use `ratatouille_util::accum` (order-pinned) or move \
                     the loop into the blessed kernels (`crates/tensor/src/ops/`)",
                    f.display()
                );
                out.push(diag(ctx, a.line, RULE, msg));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// orphan-pub-item (workspace rule: one identifier-occurrence index over
// every walked file, no call-graph resolution — so a name something else
// also uses, like `new` or `reset`, is never reported)
// ---------------------------------------------------------------------------

/// Workspace rule id: a `pub` item nothing outside unit tests names.
pub const ORPHAN_PUB_ITEM: &str = "orphan-pub-item";

/// Keywords whose following identifier is a definition, not a reference.
const ITEM_KEYWORDS: &[&str] =
    &["fn", "struct", "enum", "union", "trait", "type", "const", "static", "mod"];

/// Library source: only here are items checked, and only here do test
/// bodies not count as references. Bins (loadbench is one), `tests/`,
/// `benches/` and `examples/` are callers — every line of them counts.
fn library_source(path: &str) -> bool {
    path.contains("src/") && !path.contains("/bin/")
}

/// `orphan-pub-item`: one pass indexes every identifier that is a
/// reference and collects the checked definitions; a definition whose
/// name is not in the index is reported at its name token.
pub fn check_orphan_pub_items(ctxs: &[FileCtx], out: &mut Vec<Diagnostic>) {
    let mut referenced = std::collections::BTreeSet::new();
    let mut defs: Vec<(&FileCtx, &Tok, &str)> = Vec::new();
    for ctx in ctxs {
        let lib = library_source(&ctx.path);
        let toks = code(ctx);
        let ident = |k: usize| toks.get(k).and_then(|t| t.ident());
        let mut i = 0;
        while i < toks.len() {
            let (t, prev) = (toks[i], i.checked_sub(1).map(|k| toks[k]));
            i += 1;
            let Some(id) = t.ident() else { continue };
            let in_test = lib && ctx.is_test_line(t.line);
            if id == "pub" {
                // a bare `pub` (rustc's dead-code lint sees `pub(crate)`), then
                // maybe `const`/`unsafe`/`async` ahead of the item keyword
                let mut k = i;
                while matches!(ident(k), Some("const" | "unsafe" | "async"))
                    && matches!(ident(k + 1), Some("fn" | "unsafe" | "trait"))
                {
                    k += 1;
                }
                match ident(k) {
                    // a re-export names the item without using it
                    Some("use") => i += toks[i..].iter().take_while(|t| !t.is_punct(';')).count(),
                    Some(kind) if lib && !in_test && kind != "mod" && ITEM_KEYWORDS.contains(&kind) => {
                        defs.extend(toks.get(k + 1).map(|name| (ctx, *name, kind)));
                    }
                    _ => {}
                }
            } else if id == "impl"
                && prev.map_or(true, |p| p.ident() == Some("unsafe") || "{};]".chars().any(|c| p.is_punct(c)))
            {
                // `impl … {` header; an `impl Trait` *type* follows `:`, `(`, `>` or `,`
                i += toks[i..].iter().take_while(|t| !t.is_punct('{') && !t.is_punct(';')).count();
            } else if !in_test && !prev.and_then(|p| p.ident()).map_or(false, |p| ITEM_KEYWORDS.contains(&p)) {
                referenced.insert(id);
            }
        }
    }
    for (ctx, name, kind) in defs {
        let Some(id) = name.ident().filter(|id| !referenced.contains(id)) else { continue };
        let msg = format!(
            "`pub {kind} {id}` is named only by definitions, `impl` headers, `pub use` re-exports \
             and unit tests; delete it and the tests that exercise it"
        );
        out.push(diag(ctx, name.line, ORPHAN_PUB_ITEM, msg));
    }
}

// ---------------------------------------------------------------------------
// allow-needs-justification (attribute half; suppression comments are
// linted by the engine, which owns the used/unused bookkeeping)
// ---------------------------------------------------------------------------

fn check_allow_justified(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let toks = code(ctx);
    for i in 0..toks.len() {
        let hit = seq_matches(&toks, i, &["#", "[", "allow"])
            || seq_matches(&toks, i, &["#", "!", "[", "allow"]);
        if !hit {
            continue;
        }
        let line = toks[i].line;
        let justified = ctx.comments_on(line).any(|c| !c.is_empty())
            || (line > 1 && ctx.is_comment_only_line(line - 1));
        if !justified {
            out.push(diag(
                ctx,
                line,
                ALLOW_NEEDS_JUSTIFICATION,
                "`#[allow(...)]` without a justification; add a comment on the same or the \
                 previous line saying why the lint is wrong here"
                    .to_string(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{lint_source, lint_sources};

    fn rules_hit(path: &str, src: &str) -> Vec<(&'static str, u32)> {
        lint_source(path, src)
            .into_iter()
            .map(|d| (d.rule, d.line))
            .collect()
    }

    #[test]
    fn unsafe_without_safety_flagged() {
        let hits = rules_hit(
            "crates/tensor/src/x.rs",
            "fn f() {\n    let p = 0 as *const f32;\n    let _ = unsafe { *p };\n}\n",
        );
        assert_eq!(hits, vec![("unsafe-needs-safety-comment", 3)]);
    }

    #[test]
    fn unsafe_with_structured_safety_clean() {
        let src = "fn f(p: *const f32) -> f32 {\n    // SAFETY(invariant: caller guarantees p is valid)\n    unsafe { *p }\n}\n";
        assert!(rules_hit("crates/tensor/src/x.rs", src).is_empty());
        let disjoint = "fn f(out: &mut [f32]) {\n    // SAFETY(disjoint: out[a..b], one task per range)\n    unsafe { g(out) }\n}\n";
        assert!(rules_hit("crates/tensor/src/x.rs", disjoint).is_empty());
    }

    #[test]
    fn legacy_prose_safety_flagged_as_unstructured() {
        let src = "fn f(p: *const f32) -> f32 {\n    // SAFETY: caller guarantees p is valid\n    unsafe { *p }\n}\n";
        let hits = rules_hit("crates/tensor/src/x.rs", src);
        assert_eq!(hits, vec![("unsafe-needs-safety-comment", 3)]);
    }

    #[test]
    fn malformed_safety_header_flagged() {
        let src = "fn f(p: *const f32) -> f32 {\n    // SAFETY(disjoint: )\n    unsafe { *p }\n}\n";
        let hits = rules_hit("crates/tensor/src/x.rs", src);
        assert_eq!(hits, vec![("unsafe-needs-safety-comment", 3)]);
        let bad_kind = "fn f(p: *const f32) -> f32 {\n    // SAFETY(trust-me: it works)\n    unsafe { *p }\n}\n";
        assert_eq!(
            rules_hit("crates/tensor/src/x.rs", bad_kind),
            vec![("unsafe-needs-safety-comment", 3)]
        );
    }

    #[test]
    fn safety_climbs_past_attributes_and_continuations() {
        let src = "// SAFETY(invariant: feature gate checked by caller)\n#[target_feature(enable = \"avx2\")]\nunsafe fn g() {}\n\nfn h() {\n    // SAFETY(invariant: latch outlives the borrow)\n    let x: usize =\n        unsafe { core::mem::transmute(1usize) };\n    let _ = x;\n}\n";
        assert!(rules_hit("crates/tensor/src/x.rs", src).is_empty(), "{:?}", rules_hit("crates/tensor/src/x.rs", src));
    }

    #[test]
    fn consecutive_unsafe_impls_need_their_own_comments() {
        // `unsafe` inside comments, strings, raw strings and chars is not code
        let src = "/* outer /* nested `unsafe` */ still */\nconst S: &str = \"unsafe { x() }\";\n\
                   const R: &str = r#\"raw \"unsafe\" # \"#;\nconst C: char = 'u';\nstruct P;\n\
                   // SAFETY(invariant: single owner)\nunsafe impl Send for P {}\nunsafe impl Sync for P {}\n";
        assert_eq!(
            rules_hit("crates/tensor/src/x.rs", src),
            vec![("unsafe-needs-safety-comment", 8)]
        );
    }

    #[test]
    fn unwrap_or_default_not_flagged() {
        let src = "fn f(v: Option<u32>) -> u32 { v.unwrap_or_default() }\n";
        assert!(rules_hit("crates/serving/src/x.rs", src).is_empty());
    }

    #[test]
    fn float_sum_flagged_outside_kernels_only() {
        let src = "fn f(xs: &[f32]) -> f32 { xs.iter().sum::<f32>() }\n";
        assert_eq!(
            rules_hit("crates/models/src/x.rs", src),
            vec![("float-reduction-order", 1)]
        );
        assert!(rules_hit("crates/tensor/src/ops/reduce.rs", src).is_empty());
    }

    #[test]
    fn non_f32_turbofish_sums_not_flagged() {
        let src = "fn f(xs: &[usize]) -> f32 { xs.iter().sum::<usize>() as f32 }\n\
                   fn g(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n";
        assert!(rules_hit("crates/recipedb/src/x.rs", src).is_empty());
    }

    #[test]
    fn float_fold_flagged_via_literal() {
        let src = "fn f(xs: &[f32]) -> f32 { xs.iter().fold(0.0f32, |m, &v| m.max(v)) }\n";
        assert_eq!(
            rules_hit("crates/tensor/src/x.rs", src),
            vec![("float-reduction-order", 1)]
        );
    }

    #[test]
    fn integer_sum_without_float_context_clean() {
        let src = "fn f(xs: &[usize]) -> usize { xs.iter().sum() }\n";
        assert!(rules_hit("crates/models/src/x.rs", src).is_empty());
    }

    #[test]
    fn float_accum_loop_flagged() {
        let src = "fn dot(a: &[f32], b: &[f32]) -> f32 {\n    let mut acc = 0.0f32;\n    for i in 0..a.len() {\n        acc += a[i] * b[i];\n    }\n    acc\n}\n";
        assert_eq!(
            rules_hit("crates/models/src/x.rs", src),
            vec![("float-reduction-order", 4)]
        );
    }

    #[test]
    fn float_accum_hidden_behind_binding_flagged() {
        // the `+=` line itself is typeless; the hint rides on the binding
        let src = "fn total(rows: &[Vec<f32>]) -> f32 {\n    let mut t: f32 = Default::default();\n    for r in rows {\n        t += head(r);\n    }\n    t\n}\nfn head(r: &[f32]) -> f32 { r[0] }\n";
        assert_eq!(
            rules_hit("crates/models/src/x.rs", src),
            vec![("float-reduction-order", 4)]
        );
    }

    #[test]
    fn integer_and_loop_free_accum_clean() {
        let src = "fn count(xs: &[usize]) -> usize {\n    let mut n = 0usize;\n    for x in xs {\n        n += *x;\n    }\n    n\n}\n\
                   fn add(a: f32, b: f32) -> f32 {\n    let mut s = a;\n    s += b;\n    s\n}\n";
        assert!(rules_hit("crates/models/src/x.rs", src).is_empty());
    }

    #[test]
    fn accum_in_blessed_kernels_clean() {
        let src = "fn sum(xs: &[f32]) -> f32 {\n    let mut acc = 0.0f32;\n    for x in xs {\n        acc += *x;\n    }\n    acc\n}\n";
        assert!(rules_hit("crates/tensor/src/ops/reduce.rs", src).is_empty());
    }

    #[test]
    fn allow_attr_needs_comment() {
        let src = "#[allow(dead_code)]\nfn f() {}\n";
        assert_eq!(
            rules_hit("src/lib.rs", src),
            vec![("allow-needs-justification", 1)]
        );
        let ok = "// the harness keeps this symbol for downstream tests\n#[allow(dead_code)]\nfn f() {}\n";
        assert!(rules_hit("src/lib.rs", ok).is_empty());
        let trailing = "#[allow(dead_code)] // kept for the ffi surface\nfn f() {}\n";
        assert!(rules_hit("src/lib.rs", trailing).is_empty());
    }

    #[test]
    fn lookalikes_in_literals_and_comments_are_clean() {
        let src = "/* block /* nested */ with `HashMap::new()` inside */\n\
                   const A: &str = \"std::env::var(\\\"HOME\\\") and .unwrap() in a string\";\n\
                   const B: &str = r##\"raw: SystemTime::now() and \"#quotes\"# too\"##;\n\
                   const C: char = 'a';\nconst D: &[u8] = b\"panic!(\\\"no\\\")\";\n\
                   struct Holder<'a> { slice: &'a [f32] }\n\
                   impl<'a> Holder<'a> {\n    fn head(&self) -> f32 { let r#fn = self.slice.first().copied(); r#fn.unwrap_or(0.0) }\n}\n";
        assert!(rules_hit("crates/serving/src/x.rs", src).is_empty());
    }

    /// `pub` fns that only a unit test, a string literal (and a comment:
    /// quoted_only) or a `pub use` names.
    const ORPHANS: &str = "pub use self::reexported as alias;\n\npub fn tested_only() -> u32 { 1 }\n\n\
                           pub fn quoted_only() -> &'static str { \"quoted_only()\" }\n// quoted_only\npub fn reexported() {}\n\
                           #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert_eq!(super::tested_only(), 1); }\n}\n";

    #[test]
    fn orphans_are_items_named_only_by_tests_strings_and_reexports() {
        assert_eq!(
            rules_hit("crates/eval/src/x.rs", ORPHANS),
            vec![("orphan-pub-item", 3), ("orphan-pub-item", 5), ("orphan-pub-item", 7)]
        );
        // a sibling non-test fn, or a caller under `tests/`, is a reference
        let sibling = format!("{ORPHANS}fn sibling() {{ (tested_only(), quoted_only(), reexported()); }}\n");
        assert!(rules_hit("crates/eval/src/x.rs", &sibling).is_empty());
        let caller = "fn t() { (tested_only(), quoted_only(), reexported()); }\n";
        let files = [("crates/eval/src/x.rs", ORPHANS), ("crates/eval/tests/t.rs", caller)];
        let owned: Vec<(String, String)> = files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
        assert!(lint_sources(&owned).is_empty());
    }

    #[test]
    fn orphan_suppression_is_honoured_only_with_a_reason() {
        let reasoned = "// xlint: allow(orphan-pub-item): called from generated code\npub fn kept() {}\n";
        assert!(rules_hit("crates/eval/src/x.rs", reasoned).is_empty());
        let bare = "// xlint: allow(orphan-pub-item)\npub fn kept() {}\n";
        assert_eq!(
            rules_hit("crates/eval/src/x.rs", bare),
            vec![("allow-needs-justification", 1), ("orphan-pub-item", 2)]
        );
    }
}
