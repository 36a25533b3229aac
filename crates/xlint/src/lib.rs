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
//!   paths, with the full cross-file analysis;
//! * [`lint_source`] — one-file convenience wrapper (the path decides
//!   which crate-scoped rules apply).
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
//! Suppressions are themselves linted (rule `allow-needs-justification`):
//! the rule id must exist, the reason must be non-empty, and the
//! suppression must actually match a diagnostic — stale ones fail the
//! build.

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

/// An inline `// xlint: allow(rule-id): reason` suppression. A malformed
/// `xlint:` comment has an empty `rule`.
#[derive(Debug)]
struct Suppression {
    line: u32,
    rule: String,
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
    /// `test_lines[l]` (1-based) — line is inside a `#[cfg(test)]` /
    /// `#[test]` item, or the whole file is test/bench/example code.
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
        for t in toks.iter().filter(|t| !t.is_comment()) {
            let l = t.line as usize;
            if l < has_code.len() {
                has_code[l] = true;
                last_code_punct[l] = match t.kind {
                    TokKind::Punct(c) => Some(c),
                    _ => None,
                };
            }
        }
        // Whole files under `tests/`, `benches/` or `examples/`, else the
        // parser's `#[test]` / `#[cfg(test)]` item spans.
        let test_path = path.split('/').any(|seg| matches!(seg, "tests" | "benches" | "examples"));
        let mut test_lines = vec![test_path; nlines + 1];
        for &(s, e) in &ast.test_spans {
            test_lines[s as usize..=(e as usize).min(nlines)].fill(true);
        }
        let suppressions = toks.iter().filter_map(Suppression::parse).collect();
        FileCtx {
            path: path.to_string(),
            crate_name: path.strip_prefix("crates/").and_then(|r| r.split('/').next()).map(str::to_string),
            toks,
            ast,
            test_lines,
            last_code_punct,
            has_code,
            suppressions,
        }
    }

    /// True when `line` is test-only code (exempt from rules that only
    /// guard production behaviour).
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_lines.get(line as usize).copied().unwrap_or(false)
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
}

impl Suppression {
    /// Parse an `// xlint: …` comment token.
    fn parse(t: &lexer::Tok) -> Option<Suppression> {
        let TokKind::Comment { text, .. } = &t.kind else {
            return None;
        };
        let rest = text.strip_prefix("xlint:")?.trim();
        let (rule, reason) = match rest.strip_prefix("allow(").and_then(|r| r.split_once(')')) {
            Some((id, tail)) => (id.trim(), tail.trim().strip_prefix(':').unwrap_or("").trim()),
            None => ("", ""),
        };
        Some(Suppression {
            line: t.line,
            rule: rule.to_string(),
            reason: reason.to_string(),
            used: std::cell::Cell::new(false),
        })
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
            diags.extend(found.into_iter().filter(|d| !(rule.skip_tests && ctx.is_test_line(d.line))));
        }
    }

    // Workspace rules over the cross-crate call graph.
    callgraph::check_transitive_panics(&callgraph::build(&ctxs), &mut diags);
    rules::check_orphan_pub_items(&ctxs, &mut diags);

    // Apply allow() suppressions: a matching comment on the same or the
    // previous line silences the diagnostic and marks itself used.
    diags.retain(|d| {
        let Some(ctx) = ctxs.iter().find(|c| c.path == d.path) else {
            return true;
        };
        let hit = ctx.suppressions.iter().find(|s| {
            s.rule == d.rule && !s.reason.is_empty() && (s.line == d.line || s.line + 1 == d.line)
        });
        hit.map(|s| s.used.set(true)).is_none()
    });

    // Lint the suppressions themselves.
    let known: Vec<&str> = rules::all_rule_ids();
    for ctx in &ctxs {
        for s in &ctx.suppressions {
            let msg = if s.rule.is_empty() {
                "malformed xlint comment; expected `xlint: allow(rule-id): reason`".to_string()
            } else if !known.contains(&s.rule.as_str()) {
                format!("suppression names unknown rule `{}`", s.rule)
            } else if s.reason.is_empty() {
                format!(
                    "suppression of `{}` needs a justification: `xlint: allow({}): reason`",
                    s.rule, s.rule
                )
            } else if !s.used.get() {
                format!("stale suppression: no `{}` diagnostic on this or the next line", s.rule)
            } else {
                continue;
            };
            diags.push(Diagnostic {
                path: ctx.path.clone(),
                line: s.line,
                rule: rules::ALLOW_NEEDS_JUSTIFICATION,
                msg,
            });
        }
    }
    diags.sort_by(|a, b| (&a.path, a.line, a.rule, &a.msg).cmp(&(&b.path, b.line, b.rule, &b.msg)));
    diags
}

/// Directories never descended into during the workspace walk.
const SKIP_DIRS: &[&str] = &["target", ".git", "node_modules"];

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

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut children: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    children.sort();
    for p in children {
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if p.is_dir() {
            if !SKIP_DIRS.contains(&name) && !name.starts_with('.') {
                walk(&p, out);
            }
        } else if name.ends_with(".rs") {
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
    walk(root, &mut files);
    let sources: Vec<(String, String)> = files
        .iter()
        .filter_map(|f| Some((rel_path(f, root), std::fs::read_to_string(f).ok()?)))
        .collect();
    lint_sources(&sources)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hits(path: &str, src: &str) -> Vec<(&'static str, u32)> {
        lint_source(path, src).into_iter().map(|d| (d.rule, d.line)).collect()
    }

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
        // the original diagnostic survives AND the suppression is flagged
        assert_eq!(
            hits("crates/models/src/x.rs", src),
            vec![("allow-needs-justification", 1), ("obs-only-timing", 2)]
        );
    }

    #[test]
    fn stale_unknown_and_malformed_suppressions_are_reported() {
        let src = "// xlint: allow(forbidden-nondeterminism): no longer needed here\nfn f() {}\n\
                   // xlint: allow(no-such-rule): whatever\nfn g() {}\n\
                   // xlint: not-an-allow\nfn h() {}\n";
        let diags = lint_source("crates/models/src/x.rs", src);
        let msgs: Vec<(u32, &str)> = diags.iter().map(|d| (d.line, d.msg.as_str())).collect();
        assert_eq!(diags.len(), 3, "{msgs:?}");
        assert!(diags.iter().all(|d| d.rule == "allow-needs-justification"));
        assert!(msgs[0].1.contains("stale") && msgs[1].1.contains("unknown rule"));
        assert!(msgs[2].1.contains("malformed"));
    }

    #[test]
    fn a_suppression_goes_stale_where_its_rule_does_not_apply() {
        // bench is allowlisted for raw timing, so the allow matches nothing
        let src = "// xlint: allow(obs-only-timing): wall clock feeds a log line only\n\
                   fn logged() { let _ = std::time::Instant::now(); }\n";
        assert!(hits("crates/recipedb/src/x.rs", src).is_empty());
        assert_eq!(hits("crates/bench/src/x.rs", src), vec![("allow-needs-justification", 1)]);
    }

    #[test]
    fn transitive_rule_is_a_known_suppression_target() {
        // an allow() naming the workspace rule must not be "unknown"
        let src = "fn handle_x(v: &[u8]) -> u8 {\n    // xlint: allow(transitive-panic-in-request-path): v is length-checked by the router\n    v[0]\n}\n";
        let diags = lint_source("crates/serving/src/x.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn diagnostic_display_is_path_line_rule_msg() {
        let d = &lint_source("crates/serving/src/x.rs", "fn f() {\n    None::<u8>.unwrap();\n}\n")[0];
        assert!(
            d.to_string().starts_with("crates/serving/src/x.rs:2: [transitive-panic-in-request-path] "),
            "{d}"
        );
    }
}
