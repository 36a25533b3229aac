//! `xlint` — the in-repo workspace linter.
//!
//! Enforces the unsafe-soundness and determinism contract from DESIGN.md
//! (§4b, §7) with zero external dependencies: a small Rust lexer
//! ([`lexer`]), a recursive-descent item/event parser ([`parser`]), a
//! workspace module resolver and cross-crate call graph ([`callgraph`]),
//! a data-driven rule catalogue ([`rules`]), and an engine (this module)
//! that walks every `.rs` source in the workspace and produces
//! `file:line: [rule-id] message` diagnostics.
//!
//! Three entry points:
//! * [`run_workspace`] — lint the real tree (the `xlint` binary and the
//!   `tests/xlint_gate.rs` workspace test);
//! * [`lint_sources`] — lint a set of in-memory files under virtual
//!   paths, with the full cross-file analysis (call-graph fixture tests);
//! * [`lint_source`] — one-file convenience wrapper (the per-file
//!   fixture tests; the path decides which crate-scoped rules apply).
//!
//! ## Suppressions
//!
//! A diagnostic on line `L` is suppressed by a comment on line `L` or
//! `L-1` of the form:
//!
//! ```text
//! // xlint: allow(rule-id): why this is sound/deterministic here
//! ```
//!
//! The interprocedural panic analysis adds a second, *edge-scoped* form:
//!
//! ```text
//! // xlint: infallible(callee): why this call cannot panic
//! callee(args);
//! ```
//!
//! which removes the `caller → callee` edge from the reachability
//! traversal — suppressing the whole subtree behind a call that is
//! proven infallible, instead of annotating every sink below it.
//!
//! Suppressions are themselves linted (rule `allow-needs-justification`):
//! the rule id must exist, the reason must be non-empty, and the
//! suppression must actually match a diagnostic (or cut a traversed
//! edge) — stale ones fail the build.

pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod rules;

use lexer::TokKind;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// Rule id from the catalogue.
    pub rule: &'static str,
    /// Human-readable message.
    pub msg: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.msg)
    }
}

impl Diagnostic {
    /// Escape a string for a JSON output field.
    fn json_escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    /// Render as a JSON object (for `--emit=json`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"path\":\"{}\",\"line\":{},\"rule\":\"{}\",\"msg\":\"{}\"}}",
            Self::json_escape(&self.path),
            self.line,
            Self::json_escape(self.rule),
            Self::json_escape(&self.msg)
        )
    }
}

/// Render a diagnostic list as a JSON array (stable field order, one
/// object per line — CI annotators consume this).
pub fn to_json_report(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[\n");
    for (i, d) in diags.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&d.to_json());
        if i + 1 < diags.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out
}

/// What an `// xlint: …` comment suppresses.
#[derive(Debug, PartialEq)]
enum SuppKind {
    /// `allow(rule-id): reason` — silences a diagnostic on this/next line.
    Allow,
    /// `infallible(callee): reason` — cuts a call-graph edge on this/next
    /// line from the panic-reachability traversal.
    Infallible,
}

/// An inline `// xlint: …` suppression.
#[derive(Debug)]
struct Suppression {
    line: u32,
    kind: SuppKind,
    /// Rule id (`Allow`) or callee name (`Infallible`).
    target: String,
    reason: String,
    used: std::cell::Cell<bool>,
}

/// Everything a rule needs to know about one source file.
pub struct FileCtx {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// The `crates/<name>` the file belongs to, if any.
    pub crate_name: Option<String>,
    /// Lexed token stream (comments included).
    pub toks: Vec<lexer::Tok>,
    /// Parsed item tree and per-fn events.
    pub ast: parser::FileAst,
    /// `test_lines[l]` (1-based) — line is inside `#[cfg(test)]` /
    /// `#[test]` item bodies, or the whole file is test/bench/example code.
    test_lines: Vec<bool>,
    /// Last non-comment punctuation on each 1-based line, if the line's
    /// final code token is punctuation (used for statement boundaries).
    last_code_punct: Vec<Option<char>>,
    /// `has_code[l]` — line has at least one non-comment token.
    has_code: Vec<bool>,
    suppressions: Vec<Suppression>,
}

impl FileCtx {
    /// Build the per-file context for `src` under the (virtual) `path`.
    pub fn new(path: &str, src: &str) -> FileCtx {
        let toks = lexer::lex(src);
        let ast = parser::parse(&toks);
        let nlines = src.lines().count() + 2;
        let mut has_code = vec![false; nlines + 1];
        let mut last_code_punct: Vec<Option<char>> = vec![None; nlines + 1];
        for t in &toks {
            if t.is_comment() {
                continue;
            }
            let l = t.line as usize;
            if l < has_code.len() {
                has_code[l] = true;
                last_code_punct[l] = match t.kind {
                    TokKind::Punct(c) => Some(c),
                    _ => None,
                };
            }
        }
        let crate_name = path
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .map(|s| s.to_string());
        let mut ctx = FileCtx {
            path: path.to_string(),
            crate_name,
            toks,
            ast,
            test_lines: vec![false; nlines + 1],
            last_code_punct,
            has_code,
            suppressions: Vec::new(),
        };
        ctx.mark_test_regions(path);
        ctx.collect_suppressions();
        ctx
    }

    /// True when `line` is test-only code (exempt from rules that only
    /// guard production behaviour).
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_lines
            .get(line as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Comment texts that start on or span `line`.
    pub fn comments_on(&self, line: u32) -> impl Iterator<Item = &str> {
        self.toks.iter().filter_map(move |t| match &t.kind {
            TokKind::Comment { text, .. } if t.line <= line && t.end_line >= line => {
                Some(text.as_str())
            }
            _ => None,
        })
    }

    /// Last non-comment punctuation ending `line`, if any (statement
    /// boundary detection for comment-scan windows).
    pub fn line_end_punct(&self, line: u32) -> Option<char> {
        self.last_code_punct.get(line as usize).copied().flatten()
    }

    /// Whether `line` holds any non-comment token.
    pub fn line_has_code(&self, line: u32) -> bool {
        self.has_code.get(line as usize).copied().unwrap_or(false)
    }

    /// Whether `line` holds only comments/whitespace.
    fn is_comment_only_line(&self, line: u32) -> bool {
        let l = line as usize;
        l < self.has_code.len() && !self.has_code[l] && self.comments_on(line).next().is_some()
    }

    /// Is the call to `callee` on `line` covered by an
    /// `// xlint: infallible(callee): reason` on the same or previous
    /// line? Marks the suppression used (the traversal consults this
    /// exactly when it would otherwise walk the edge).
    pub(crate) fn edge_suppressed(&self, line: u32, callee: &str) -> bool {
        for s in &self.suppressions {
            if s.kind == SuppKind::Infallible
                && s.target == callee
                && !s.reason.is_empty()
                && (s.line == line || s.line + 1 == line)
            {
                s.used.set(true);
                return true;
            }
        }
        false
    }

    /// Mark lines inside `#[cfg(test)]` / `#[test]` item bodies, plus
    /// whole files living under `tests/`, `benches/` or `examples/`.
    fn mark_test_regions(&mut self, path: &str) {
        let is_test_path = path
            .split('/')
            .any(|seg| matches!(seg, "tests" | "benches" | "examples"));
        if is_test_path {
            for v in self.test_lines.iter_mut() {
                *v = true;
            }
            return;
        }
        // Find `#[cfg(test)]` or `#[test]` attributes; mark the brace span
        // of the item that follows.
        let toks = &self.toks;
        let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
        let mut marks: Vec<(u32, u32)> = Vec::new();
        let mut ci = 0usize;
        while ci + 1 < code.len() {
            let i = code[ci];
            if !(toks[i].is_punct('#') && toks[code[ci + 1]].is_punct('[')) {
                ci += 1;
                continue;
            }
            // scan the attribute body to its closing `]`
            let mut depth = 0usize;
            let mut cj = ci + 1;
            let mut attr_idents: Vec<&str> = Vec::new();
            while cj < code.len() {
                let t = &toks[code[cj]];
                if t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if let Some(id) = t.ident() {
                    attr_idents.push(id);
                }
                cj += 1;
            }
            let is_test_attr = attr_idents.first() == Some(&"test")
                || (attr_idents.first() == Some(&"cfg") && attr_idents.contains(&"test"));
            if !is_test_attr {
                ci = cj + 1;
                continue;
            }
            // find the item's opening brace (stop at `;` — e.g.
            // `#[cfg(test)] mod tests;` has no body here)
            let mut ck = cj + 1;
            let mut open = None;
            while ck < code.len() {
                let t = &toks[code[ck]];
                if t.is_punct('{') {
                    open = Some(ck);
                    break;
                }
                if t.is_punct(';') {
                    break;
                }
                ck += 1;
            }
            let Some(open) = open else {
                ci = cj + 1;
                continue;
            };
            // match braces to the item's closing brace
            let mut bdepth = 0usize;
            let mut cl = open;
            while cl < code.len() {
                let t = &toks[code[cl]];
                if t.is_punct('{') {
                    bdepth += 1;
                } else if t.is_punct('}') {
                    bdepth -= 1;
                    if bdepth == 0 {
                        break;
                    }
                }
                cl += 1;
            }
            let start_line = toks[i].line;
            let end_line = toks[code[cl.min(code.len() - 1)]].end_line;
            marks.push((start_line, end_line));
            ci = cj + 1;
        }
        for (s, e) in marks {
            for l in s..=e {
                if (l as usize) < self.test_lines.len() {
                    self.test_lines[l as usize] = true;
                }
            }
        }
    }

    /// Parse `// xlint: allow(rule): reason` and
    /// `// xlint: infallible(callee): reason` comments.
    fn collect_suppressions(&mut self) {
        let mut found = Vec::new();
        for t in &self.toks {
            let TokKind::Comment { text, .. } = &t.kind else {
                continue;
            };
            let Some(rest) = text.strip_prefix("xlint:") else {
                continue;
            };
            let rest = rest.trim();
            let (kind, body) = if let Some(r) = rest.strip_prefix("allow(") {
                (SuppKind::Allow, Some(r))
            } else if let Some(r) = rest.strip_prefix("infallible(") {
                (SuppKind::Infallible, Some(r))
            } else {
                // `xlint:` comment that isn't a known form — treat as a
                // malformed suppression so it gets reported
                (SuppKind::Allow, None)
            };
            let (target, reason) = match body.and_then(|r| r.split_once(')')) {
                Some((id, tail)) => {
                    let reason = tail.trim().strip_prefix(':').unwrap_or("").trim();
                    (id.trim().to_string(), reason.to_string())
                }
                None => (String::new(), String::new()),
            };
            found.push(Suppression {
                line: t.line,
                kind,
                target,
                reason,
                used: std::cell::Cell::new(false),
            });
        }
        self.suppressions = found;
    }
}

/// Lint a single source file under a virtual workspace-relative path.
/// The path determines crate-scoped rule applicability exactly as it
/// would on disk. Cross-file rules see a one-file workspace.
pub fn lint_source(path: &str, src: &str) -> Vec<Diagnostic> {
    lint_sources(&[(path.to_string(), src.to_string())])
}

/// Lint a set of sources as one workspace: per-file rules, then the
/// call-graph analysis across all of them, then suppression accounting.
pub fn lint_sources(files: &[(String, String)]) -> Vec<Diagnostic> {
    let ctxs: Vec<FileCtx> = files.iter().map(|(p, s)| FileCtx::new(p, s)).collect();
    let mut diags: Vec<Diagnostic> = Vec::new();

    // Per-file rules.
    for ctx in &ctxs {
        for rule in rules::catalogue() {
            if !(rule.applies)(ctx) {
                continue;
            }
            let mut found = Vec::new();
            (rule.check)(ctx, &mut found);
            for d in found {
                if rule.skip_tests && ctx.is_test_line(d.line) {
                    continue;
                }
                diags.push(d);
            }
        }
    }

    // Workspace rules over the cross-crate call graph. This is also
    // where `infallible()` suppressions get their used-marks.
    let graph = callgraph::build(&ctxs);
    callgraph::check_transitive_panics(&graph, &mut diags);
    rules::check_orphan_pub_items(&ctxs, &mut diags);

    // A serving-crate sink is reported by both the token rule and the
    // reachability rule; keep the local rule's diagnostic (it names the
    // concrete fix) and drop the transitive duplicate at the same site.
    let local_panics: std::collections::BTreeSet<(String, u32)> = diags
        .iter()
        .filter(|d| d.rule == "no-panic-in-request-path")
        .map(|d| (d.path.clone(), d.line))
        .collect();
    diags.retain(|d| {
        d.rule != callgraph::TRANSITIVE_PANIC
            || !local_panics.contains(&(d.path.clone(), d.line))
    });

    // Apply allow() suppressions: a matching comment on the same or the
    // previous line silences the diagnostic and marks itself used.
    let ctx_of = |path: &str| ctxs.iter().find(|c| c.path == path);
    diags.retain(|d| {
        let Some(ctx) = ctx_of(&d.path) else {
            return true;
        };
        for s in &ctx.suppressions {
            if s.kind == SuppKind::Allow
                && s.target == d.rule
                && !s.reason.is_empty()
                && (s.line == d.line || s.line + 1 == d.line)
            {
                s.used.set(true);
                return false;
            }
        }
        true
    });

    // Lint the suppressions themselves.
    let known: Vec<&str> = rules::all_rule_ids();
    for ctx in &ctxs {
        let path = &ctx.path;
        for s in &ctx.suppressions {
            let push = |diags: &mut Vec<Diagnostic>, msg: String| {
                diags.push(Diagnostic {
                    path: path.clone(),
                    line: s.line,
                    rule: rules::ALLOW_NEEDS_JUSTIFICATION,
                    msg,
                });
            };
            if s.target.is_empty() {
                push(
                    &mut diags,
                    "malformed xlint comment; expected `xlint: allow(rule-id): reason` or \
                     `xlint: infallible(callee): reason`"
                        .to_string(),
                );
                continue;
            }
            match s.kind {
                SuppKind::Allow => {
                    if !known.contains(&s.target.as_str()) {
                        push(&mut diags, format!("suppression names unknown rule `{}`", s.target));
                    } else if s.reason.is_empty() {
                        push(
                            &mut diags,
                            format!(
                                "suppression of `{}` needs a justification: `xlint: allow({}): reason`",
                                s.target, s.target
                            ),
                        );
                    } else if !s.used.get() {
                        push(
                            &mut diags,
                            format!(
                                "stale suppression: no `{}` diagnostic on this or the next line",
                                s.target
                            ),
                        );
                    }
                }
                SuppKind::Infallible => {
                    if s.reason.is_empty() {
                        push(
                            &mut diags,
                            format!(
                                "infallibility claim for `{}` needs a justification: \
                                 `xlint: infallible({}): reason`",
                                s.target, s.target
                            ),
                        );
                    } else if !s.used.get() {
                        push(
                            &mut diags,
                            format!(
                                "stale infallible() suppression: the panic-path traversal never \
                                 walked a `{}` call edge from this or the next line",
                                s.target
                            ),
                        );
                    }
                }
            }
        }
    }
    diags.sort_by(|a, b| (&a.path, a.line, a.rule, &a.msg).cmp(&(&b.path, b.line, b.rule, &b.msg)));
    diags
}

/// Directories never descended into during the workspace walk.
const SKIP_DIRS: &[&str] = &["target", ".git", "node_modules"];

/// Paths (workspace-relative prefixes) excluded from linting: the fixture
/// corpus exists to *contain* violations.
const SKIP_PREFIXES: &[&str] = &["crates/xlint/tests/fixtures"];

/// Find the workspace root by walking up from `start` until a directory
/// containing a `Cargo.toml` with a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        cur = dir.parent().map(|p| p.to_path_buf());
    }
    None
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut children: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    children.sort();
    for p in children {
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if p.is_dir() {
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            let rel = rel_path(&p, root);
            if SKIP_PREFIXES.iter().any(|s| rel.starts_with(s)) {
                continue;
            }
            walk(&p, root, out);
        } else if name.ends_with(".rs") {
            let rel = rel_path(&p, root);
            if SKIP_PREFIXES.iter().any(|s| rel.starts_with(s)) {
                continue;
            }
            out.push(p);
        }
    }
}

fn rel_path(p: &Path, root: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lint every `.rs` file in the workspace rooted at `root`. Diagnostics
/// come back sorted by (path, line).
pub fn run_workspace(root: &Path) -> Vec<Diagnostic> {
    let mut files = Vec::new();
    walk(root, root, &mut files);
    let mut sources: Vec<(String, String)> = Vec::new();
    for f in files {
        let Ok(src) = std::fs::read_to_string(&f) else {
            continue;
        };
        sources.push((rel_path(&f, root), src));
    }
    lint_sources(&sources)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_region_detection() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n";
        let ctx = FileCtx::new("crates/tensor/src/x.rs", src);
        assert!(!ctx.is_test_line(1));
        assert!(ctx.is_test_line(2));
        assert!(ctx.is_test_line(4));
        assert!(ctx.is_test_line(5));
    }

    #[test]
    fn test_paths_fully_exempt() {
        let ctx = FileCtx::new("crates/tensor/tests/proptests.rs", "fn x() {}\n");
        assert!(ctx.is_test_line(1));
    }

    #[test]
    fn suppression_silences_and_is_marked_used() {
        let src = "// xlint: allow(obs-only-timing): bootstrap shim predating the obs clock\n\
                   fn f() { let t = std::time::Instant::now(); let _ = t; }\n";
        let diags = lint_source("crates/models/src/x.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn suppression_without_reason_is_reported() {
        let src = "// xlint: allow(obs-only-timing)\n\
                   fn f() { let t = std::time::Instant::now(); let _ = t; }\n";
        let diags = lint_source("crates/models/src/x.rs", src);
        // the original diagnostic survives AND the suppression is flagged
        assert!(diags.iter().any(|d| d.rule == "obs-only-timing"));
        assert!(diags.iter().any(|d| d.rule == "allow-needs-justification"));
    }

    #[test]
    fn stale_suppression_is_reported() {
        let src = "// xlint: allow(forbidden-nondeterminism): no longer needed here\n\
                   fn f() {}\n";
        let diags = lint_source("crates/models/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "allow-needs-justification");
        assert!(diags[0].msg.contains("stale"));
    }

    #[test]
    fn unknown_rule_suppression_is_reported() {
        let src = "// xlint: allow(no-such-rule): whatever\nfn f() {}\n";
        let diags = lint_source("crates/models/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].msg.contains("unknown rule"));
    }

    #[test]
    fn transitive_rule_is_a_known_suppression_target() {
        // an allow() naming the workspace rule must not be "unknown"
        let src = "fn handle_x(v: &[u8]) -> u8 {\n    // xlint: allow(transitive-panic-in-request-path): v is length-checked by the router\n    v[0]\n}\n";
        let diags = lint_source("crates/serving/src/x.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn stale_infallible_is_reported() {
        let src = "// xlint: infallible(nothing_here): never traversed\nfn f() {}\n";
        let diags = lint_source("crates/models/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].msg.contains("stale infallible"), "{diags:?}");
    }

    #[test]
    fn infallible_without_reason_is_reported() {
        let files = vec![
            (
                "crates/serving/src/x.rs".to_string(),
                "use ratatouille_models::sample::go;\nfn handle_x() {\n    // xlint: infallible(go)\n    go();\n}\n"
                    .to_string(),
            ),
            (
                "crates/models/src/sample.rs".to_string(),
                "pub fn go() { panic!(\"x\"); }\n".to_string(),
            ),
        ];
        let diags = lint_sources(&files);
        // the claim is unjustified: edge not cut, sink reported, claim flagged
        assert!(diags.iter().any(|d| d.rule == "allow-needs-justification"
            && d.msg.contains("infallibility claim")));
        assert!(diags.iter().any(|d| d.rule == callgraph::TRANSITIVE_PANIC));
    }

    #[test]
    fn json_report_shape() {
        let d = Diagnostic {
            path: "crates/x/src/a.rs".into(),
            line: 3,
            rule: "obs-only-timing",
            msg: "say \"why\"".into(),
        };
        assert_eq!(
            d.to_json(),
            "{\"path\":\"crates/x/src/a.rs\",\"line\":3,\"rule\":\"obs-only-timing\",\"msg\":\"say \\\"why\\\"\"}"
        );
        let report = to_json_report(&[d]);
        assert!(report.starts_with("[\n") && report.ends_with(']'));
    }
}
