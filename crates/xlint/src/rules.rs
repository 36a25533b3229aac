//! The rule catalogue.
//!
//! Each per-file rule is a [`Rule`] value in [`catalogue`]: an id, a
//! scope predicate, a check against the file's tokens/AST, and whether
//! test code is exempt. Adding a rule is ~20 lines: write a `check_*`
//! function against [`FileCtx`], pick a scope helper, and append an
//! entry to `CATALOGUE` (DESIGN.md §7 walks through an example).
//! The interprocedural rule lives in [`crate::callgraph`] — it needs the
//! whole workspace, not one file — but is listed in
//! [`workspace_rules`] so `--rules` and the suppression checker see it.

use crate::lexer::{Tok, TokKind};
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
/// the call graph).
pub struct WorkspaceRule {
    pub id: &'static str,
    pub summary: &'static str,
}

/// Crates whose outputs feed generations or metrics: nondeterminism and
/// ad-hoc float reductions here silently break the §4b contract.
/// `bench` and `serving` are deliberately absent (timing is their job).
const RESULT_AFFECTING: &[&str] = &["tensor", "models", "tokenizers", "eval", "recipedb"];

/// Crates where every timing read must go through `obs::Clock`: the
/// result-affecting set plus the instrumented serving/pipeline layers.
/// `obs` (the clock authority), `util` and `bench` are the wall-clock
/// allowlist and stay off this list.
const OBS_TIMED: &[&str] = &[
    "tensor",
    "models",
    "tokenizers",
    "eval",
    "recipedb",
    "serving",
    "ratatouille",
];

/// The blessed kernel directory: float reductions are *defined* here.
const BLESSED_KERNELS: &str = "crates/tensor/src/ops/";

/// Raw-pointer scatter entry points: calling any of these splits one
/// allocation into concurrently-written parts, so the call site must
/// state the non-aliasing argument in a machine-checkable header.
const SCATTER_FNS: &[&str] = &["scatter_mut", "parallel_rows_mut", "from_raw_parts_mut"];

/// Backend hand-off methods: a serving handler calling one of these
/// gives the request away to the serving engine, so the request span
/// must already be open.
const BACKEND_ENTRY: &[&str] = &["submit"];

fn everywhere(_ctx: &FileCtx) -> bool {
    true
}

fn result_affecting(ctx: &FileCtx) -> bool {
    ctx.crate_name
        .as_deref()
        .map(|c| RESULT_AFFECTING.contains(&c))
        .unwrap_or(false)
}

fn result_affecting_outside_kernels(ctx: &FileCtx) -> bool {
    result_affecting(ctx) && !ctx.path.starts_with(BLESSED_KERNELS)
}

fn serving_crate(ctx: &FileCtx) -> bool {
    ctx.crate_name.as_deref() == Some("serving")
}

fn obs_timed(ctx: &FileCtx) -> bool {
    ctx.crate_name
        .as_deref()
        .map(|c| OBS_TIMED.contains(&c))
        .unwrap_or(false)
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
                      from the serving handlers or BatchGenerator::step on the cross-crate call \
                      graph — cut proven-infallible edges with `xlint: infallible(callee): reason`",
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

static CATALOGUE: [Rule; 9] = [
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
        id: "unsafe-disjointness-contract",
        summary: "raw-pointer scatter sites (scatter_mut / parallel_rows_mut / \
                  from_raw_parts_mut callers) must carry `// SAFETY(disjoint: <ranges>)` whose \
                  named bindings exist in scope",
        skip_tests: true,
        applies: everywhere,
        check: check_unsafe_disjointness,
    },
    Rule {
        id: "forbidden-nondeterminism",
        summary: "default-hasher maps and env-dependent branching are banned in \
                  result-affecting crates (tensor, models, tokenizers, eval, recipedb)",
        skip_tests: true,
        applies: result_affecting,
        check: check_forbidden_nondeterminism,
    },
    Rule {
        id: "obs-only-timing",
        summary: "raw wall clocks (`Instant::now`, `SystemTime`) are banned in instrumented \
                  crates — take stamps via `obs::Clock` so telemetry stays write-only",
        skip_tests: true,
        applies: obs_timed,
        check: check_obs_only_timing,
    },
    Rule {
        id: "no-panic-in-request-path",
        summary: "unwrap()/expect()/panic! are banned in `crates/serving` — map failures to \
                  4xx/5xx responses",
        skip_tests: true,
        applies: serving_crate,
        check: check_no_panic,
    },
    Rule {
        id: "trace-before-backend",
        summary: "serving `handle*` roots must record a request-trace phase \
                  (`record_phase`) before handing the request to the engine \
                  (`.submit()`) so queue wait is attributable per request",
        skip_tests: true,
        applies: serving_crate,
        check: check_trace_before_backend,
    },
    Rule {
        id: "float-reduction-order",
        summary: "ad-hoc f32 sum()/fold() outside tensor/src/ops — use the deterministic \
                  accumulation helpers so reduction order stays pinned",
        skip_tests: true,
        applies: result_affecting_outside_kernels,
        check: check_float_reduction,
    },
    Rule {
        id: "accum-discipline",
        summary: "f32/F16 `+=` loops outside util::accum and the blessed kernels drift with \
                  iteration order — route the reduction through the order-pinned helpers",
        skip_tests: true,
        applies: result_affecting_outside_kernels,
        check: check_accum_discipline,
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

// ---------------------------------------------------------------------------
// SAFETY headers (shared by unsafe-needs-safety-comment and
// unsafe-disjointness-contract)
// ---------------------------------------------------------------------------

/// How far above an `unsafe` token / scatter call the SAFETY header may
/// sit (attributes, visibility and multi-line comment bodies intervene).
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

// ---------------------------------------------------------------------------
// unsafe-needs-safety-comment
// ---------------------------------------------------------------------------

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
// unsafe-disjointness-contract
// ---------------------------------------------------------------------------

/// Split `args` on top-level commas (brackets/parens nest).
fn split_ranges(args: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    for (i, c) in args.char_indices() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            ',' if depth == 0 => {
                parts.push(args[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(args[start..].trim());
    parts
}

/// Leading identifier of a range expression (`parts[task]` → `parts`,
/// `&mut out[a..b]` → `out`).
fn leading_ident(range: &str) -> Option<&str> {
    let rest = range
        .trim_start_matches(|c: char| c == '&' || c == '*' || c == '(' || c.is_whitespace());
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    (end > 0 && !rest.as_bytes()[0].is_ascii_digit()).then(|| &rest[..end])
}

fn check_unsafe_disjointness(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    const RULE: &str = "unsafe-disjointness-contract";
    for f in &ctx.ast.fns {
        for c in &f.calls {
            if !SCATTER_FNS.contains(&c.name()) {
                continue;
            }
            match safety_near(ctx, c.line) {
                None => out.push(diag(
                    ctx,
                    c.line,
                    RULE,
                    format!(
                        "`{}` scatter site without a `// SAFETY(disjoint: <ranges>)` header \
                         naming the non-overlapping writes",
                        c.name()
                    ),
                )),
                Some(Safety::Legacy) => out.push(diag(
                    ctx,
                    c.line,
                    RULE,
                    format!(
                        "`{}` scatter site has a prose `SAFETY:` comment; restate the \
                         non-aliasing argument as `SAFETY(disjoint: <ranges>)` so the named \
                         bindings are checked against scope",
                        c.name()
                    ),
                )),
                Some(Safety::Structured { kind, args, closed }) => {
                    if kind != "disjoint" {
                        out.push(diag(
                            ctx,
                            c.line,
                            RULE,
                            format!(
                                "`{}` scatter site needs a `SAFETY(disjoint: …)` header, not \
                                 `SAFETY({kind}: …)` — name the ranges that never overlap",
                                c.name()
                            ),
                        ));
                        continue;
                    }
                    if !closed || args.is_empty() {
                        out.push(diag(
                            ctx,
                            c.line,
                            RULE,
                            "malformed `SAFETY(disjoint: …)` header; expected a comma-separated \
                             range list with the `)` on the same comment line"
                                .to_string(),
                        ));
                        continue;
                    }
                    for range in split_ranges(&args) {
                        match leading_ident(range) {
                            None => out.push(diag(
                                ctx,
                                c.line,
                                RULE,
                                format!(
                                    "disjointness range `{range}` does not start with a \
                                     binding name; write `<binding>[<range>]` per written part"
                                ),
                            )),
                            Some(id) => {
                                if !f.binds(id) {
                                    out.push(diag(
                                        ctx,
                                        c.line,
                                        RULE,
                                        format!(
                                            "disjointness range `{range}` names `{id}`, which \
                                             is not bound in `{}` — the header must reference \
                                             live bindings so it rots loudly",
                                            f.display()
                                        ),
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// forbidden-nondeterminism
// ---------------------------------------------------------------------------

/// `toks[i..]` matches the identifier/punct sequence `pat`, where idents
/// are matched by name and `":"`-style entries by punctuation.
fn seq_matches(toks: &[&Tok], i: usize, pat: &[&str]) -> bool {
    if i + pat.len() > toks.len() {
        return false;
    }
    pat.iter().enumerate().all(|(k, p)| {
        let t = toks[i + k];
        if p.len() == 1 && !p.chars().next().unwrap().is_ascii_alphanumeric() {
            t.is_punct(p.chars().next().unwrap())
        } else {
            t.ident() == Some(*p)
        }
    })
}

fn check_forbidden_nondeterminism(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let toks = code(ctx);
    let push = |out: &mut Vec<Diagnostic>, line: u32, what: &str, fix: &str| {
        out.push(diag(
            ctx,
            line,
            "forbidden-nondeterminism",
            format!("{what} is banned in result-affecting crates; {fix}"),
        ));
    };
    for i in 0..toks.len() {
        let line = toks[i].line;
        if seq_matches(&toks, i, &["env", ":", ":", "var"])
            || seq_matches(&toks, i, &["env", ":", ":", "vars"])
            || seq_matches(&toks, i, &["env", ":", ":", "var_os"])
            || seq_matches(&toks, i, &["env", "!"])
            || seq_matches(&toks, i, &["option_env", "!"])
        {
            push(out, line, "environment-dependent branching", "plumb configuration through typed options instead");
        } else if matches!(toks[i].ident(), Some("HashMap") | Some("HashSet")) {
            push(out, line, "`HashMap`/`HashSet` with the default (randomly seeded) hasher", "use `ratatouille_util::collections::{DetMap, DetSet}` for deterministic iteration order");
        }
    }
}

// ---------------------------------------------------------------------------
// obs-only-timing
// ---------------------------------------------------------------------------

fn check_obs_only_timing(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let toks = code(ctx);
    for i in 0..toks.len() {
        let line = toks[i].line;
        if toks[i].ident() == Some("SystemTime") {
            out.push(diag(
                ctx,
                line,
                "obs-only-timing",
                "`SystemTime` in an instrumented crate; take stamps via `obs::Clock::now()` \
                 so all timing flows through the write-only telemetry layer"
                    .to_string(),
            ));
        } else if seq_matches(&toks, i, &["Instant", ":", ":", "now"]) {
            out.push(diag(
                ctx,
                line,
                "obs-only-timing",
                "raw `Instant::now` in an instrumented crate; use `obs::Clock::now()` (and an \
                 obs histogram/span) so there is one timing idiom repo-wide"
                    .to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// no-panic-in-request-path (AST-mounted: only real call/macro events
// fire, so idents inside strings/macros-by-name no longer false-positive)
// ---------------------------------------------------------------------------

fn check_no_panic(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    for f in &ctx.ast.fns {
        for c in &f.calls {
            if c.method && matches!(c.name(), "unwrap" | "expect") {
                out.push(diag(
                    ctx,
                    c.line,
                    "no-panic-in-request-path",
                    format!(
                        "`.{}()` can take down a serving worker; map the failure to an error \
                         response (4xx/5xx) or propagate a `Result`",
                        c.name()
                    ),
                ));
            }
        }
        for m in &f.macros {
            if matches!(m.name(), "panic" | "unreachable" | "todo" | "unimplemented") {
                out.push(diag(
                    ctx,
                    m.line,
                    "no-panic-in-request-path",
                    format!("`{}!` in the serving path; return an error response instead", m.name()),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// trace-before-backend
// ---------------------------------------------------------------------------

fn check_trace_before_backend(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    for f in &ctx.ast.fns {
        if !f.name.starts_with("handle") {
            continue;
        }
        // Calls are in source order: a `record_phase` seen before the
        // first backend hand-off means the span is open in time.
        let mut span_open = false;
        for c in &f.calls {
            if c.name() == "record_phase" {
                span_open = true;
            } else if c.method && BACKEND_ENTRY.contains(&c.name()) {
                if !span_open {
                    out.push(diag(
                        ctx,
                        c.line,
                        "trace-before-backend",
                        format!(
                            "`{}` hands the request to a backend via `.{}()` without first \
                             recording a request-trace phase; record `Phase::Enqueue` on the \
                             request's trace (`obs::reqtrace::TraceSink::record_phase`) before \
                             the hand-off so queue wait shows up in `/debug/requests/<id>`",
                            f.display(),
                            c.name()
                        ),
                    ));
                }
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// float-reduction-order
// ---------------------------------------------------------------------------

fn check_float_reduction(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let toks = code(ctx);
    for i in 0..toks.len() {
        if !toks[i].is_punct('.')
            || !matches!(
                toks.get(i + 1).and_then(|t| t.ident()),
                Some("sum") | Some("fold")
            )
        {
            continue;
        }
        let name = toks[i + 1].ident().unwrap_or("");
        let line = toks[i + 1].line;
        // `.sum::<T>()` — the turbofish names the accumulator type.
        let mut j = i + 2;
        let mut turbofish_f32 = None;
        if seq_matches(&toks, j, &[":", ":", "<"]) {
            j += 3;
            let mut depth = 1usize;
            let mut saw_f32 = false;
            while j < toks.len() && depth > 0 {
                if toks[j].is_punct('<') {
                    depth += 1;
                } else if toks[j].is_punct('>') {
                    depth -= 1;
                } else if toks[j].ident() == Some("f32") {
                    saw_f32 = true;
                }
                j += 1;
            }
            turbofish_f32 = Some(saw_f32);
        }
        let is_f32 = match turbofish_f32 {
            Some(explicit) => explicit,
            None => statement_mentions_f32(&toks, i),
        };
        if is_f32 {
            out.push(diag(
                ctx,
                line,
                "float-reduction-order",
                format!(
                    "ad-hoc f32 `{name}` reduction outside the blessed kernels; use \
                     `ratatouille_util::accum::{{sum_f32, max_abs_f32}}` \
                     (re-exported at `ratatouille_tensor::ops::reduce`) so the \
                     accumulation order stays pinned"
                ),
            ));
        }
    }
}

/// Does the statement around token `i` mention `f32` or a float literal?
/// The statement span is bounded by `;`/`{`/`}` on both sides — close
/// enough for a lexical rule, and wrong only inside nested closures.
fn statement_mentions_f32(toks: &[&Tok], i: usize) -> bool {
    let boundary = |t: &Tok| t.is_punct(';') || t.is_punct('{') || t.is_punct('}');
    let start = (0..i).rev().find(|&k| boundary(toks[k])).map_or(0, |k| k + 1);
    let end = (i..toks.len())
        .find(|&k| boundary(toks[k]))
        .unwrap_or(toks.len());
    toks[start..end].iter().any(|t| {
        t.ident() == Some("f32") || matches!(t.kind, TokKind::Num { float: true })
    })
}

// ---------------------------------------------------------------------------
// accum-discipline
// ---------------------------------------------------------------------------

fn check_accum_discipline(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    for f in &ctx.ast.fns {
        for a in &f.adds {
            // Float evidence: the statement itself mentions f32/F16 or a
            // float literal, or the accumulator binding was declared with
            // one — that is how reductions hide behind helper fns (the
            // `+=` line looks typeless but the `let` above does not).
            let lhs_float = a
                .lhs
                .as_deref()
                .map(|n| f.bindings.iter().any(|b| b.name == n && b.float_hint))
                .unwrap_or(false);
            if !(a.float_stmt || lhs_float) {
                continue;
            }
            out.push(diag(
                ctx,
                a.line,
                "accum-discipline",
                format!(
                    "f32/F16 `+=` accumulation in a loop in `{}`; reduction order drifts with \
                     iteration strategy — use `ratatouille_util::accum` (order-pinned) or move \
                     the loop into the blessed kernels (`crates/tensor/src/ops/`)",
                    f.display()
                ),
            ));
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
    use crate::lint_source;

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
        let src = "struct P;\n// SAFETY(invariant: single owner)\nunsafe impl Send for P {}\nunsafe impl Sync for P {}\n";
        assert_eq!(
            rules_hit("crates/tensor/src/x.rs", src),
            vec![("unsafe-needs-safety-comment", 4)]
        );
    }

    #[test]
    fn scatter_site_without_disjoint_header_flagged() {
        let src = "fn f(parts: &mut [u8]) {\n    scatter_mut(parts, |i, p| { let _ = (i, p); });\n}\n";
        let hits = rules_hit("crates/models/src/x.rs", src);
        assert_eq!(hits, vec![("unsafe-disjointness-contract", 2)]);
    }

    #[test]
    fn scatter_site_with_disjoint_header_clean() {
        let src = "fn f(parts: &mut [u8]) {\n    // SAFETY(disjoint: parts[i] — one element per task index)\n    scatter_mut(parts, |i, p| { let _ = (i, p); });\n}\n";
        assert!(rules_hit("crates/models/src/x.rs", src).is_empty());
    }

    #[test]
    fn disjoint_header_with_unknown_binding_flagged() {
        let src = "fn f(parts: &mut [u8]) {\n    // SAFETY(disjoint: rows[0..4])\n    scatter_mut(parts, |i, p| { let _ = (i, p); });\n}\n";
        let hits = rules_hit("crates/models/src/x.rs", src);
        assert_eq!(hits, vec![("unsafe-disjointness-contract", 3)]);
    }

    #[test]
    fn disjoint_header_wrong_kind_flagged() {
        let src = "fn f(parts: &mut [u8]) {\n    // SAFETY(invariant: pool outlives tasks)\n    scatter_mut(parts, |i, p| { let _ = (i, p); });\n}\n";
        let hits = rules_hit("crates/models/src/x.rs", src);
        assert_eq!(hits, vec![("unsafe-disjointness-contract", 3)]);
    }

    #[test]
    fn disjoint_header_checks_closure_and_let_bindings() {
        let src = "fn f(buf: &mut [u8], n: usize) {\n    let (lo, hi) = buf.split_at_mut(n);\n    // SAFETY(disjoint: lo[..n], hi[n..])\n    parallel_rows_mut(lo, hi);\n}\n";
        assert!(rules_hit("crates/tensor/src/x.rs", src).is_empty());
    }

    #[test]
    fn nondeterminism_scoped_to_result_affecting_crates() {
        let src = "use std::collections::HashMap;\nfn f() -> HashMap<u32, u32> { HashMap::new() }\n";
        assert_eq!(rules_hit("crates/eval/src/x.rs", src).len(), 3);
        assert!(rules_hit("crates/serving/src/x.rs", src).is_empty());
        assert!(rules_hit("crates/bench/src/x.rs", src).is_empty());
        assert!(rules_hit("src/lib.rs", src).is_empty());
    }

    #[test]
    fn instant_now_flagged_but_import_alone_is_not() {
        assert!(rules_hit("crates/models/src/x.rs", "use std::time::Instant;\n").is_empty());
        let hits = rules_hit(
            "crates/models/src/x.rs",
            "fn f() -> std::time::Instant { std::time::Instant::now() }\n",
        );
        assert_eq!(hits, vec![("obs-only-timing", 1)]);
    }

    #[test]
    fn obs_only_timing_scoped_to_instrumented_crates() {
        let src = "fn f() -> u64 { std::time::Instant::now().elapsed().as_nanos() as u64 }\n";
        assert_eq!(
            rules_hit("crates/serving/src/x.rs", src),
            vec![("obs-only-timing", 1)]
        );
        assert_eq!(
            rules_hit("crates/ratatouille/src/x.rs", src),
            vec![("obs-only-timing", 1)]
        );
        // the wall-clock allowlist: obs (the clock authority), util, bench
        assert!(rules_hit("crates/obs/src/clock.rs", src).is_empty());
        assert!(rules_hit("crates/util/src/x.rs", src).is_empty());
        assert!(rules_hit("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn system_time_flagged_as_obs_only_timing() {
        let hits = rules_hit(
            "crates/eval/src/x.rs",
            "fn f() { let _ = std::time::SystemTime::now(); }\n",
        );
        assert_eq!(hits, vec![("obs-only-timing", 1)]);
    }

    #[test]
    fn env_branching_flagged() {
        let hits = rules_hit(
            "crates/tokenizers/src/x.rs",
            "fn f() -> bool { std::env::var(\"X\").is_ok() }\n",
        );
        assert_eq!(hits, vec![("forbidden-nondeterminism", 1)]);
    }

    #[test]
    fn test_code_exempt_from_nondeterminism() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let _ = std::env::var(\"TMPDIR\");\n    }\n}\n";
        assert!(rules_hit("crates/recipedb/src/x.rs", src).is_empty());
    }

    #[test]
    fn serving_panics_flagged() {
        let src = "fn handle() {\n    let v: Option<u32> = None;\n    let _ = v.unwrap();\n    let _ = v.expect(\"x\");\n    panic!(\"boom\");\n}\n";
        let hits = rules_hit("crates/serving/src/x.rs", src);
        assert_eq!(
            hits,
            vec![
                ("no-panic-in-request-path", 3),
                ("no-panic-in-request-path", 4),
                ("no-panic-in-request-path", 5),
            ]
        );
    }

    #[test]
    fn unwrap_or_default_not_flagged() {
        let src = "fn f(v: Option<u32>) -> u32 { v.unwrap_or_default() }\n";
        assert!(rules_hit("crates/serving/src/x.rs", src).is_empty());
    }

    #[test]
    fn untraced_backend_handoff_flagged() {
        let src = "fn handle_generate(engine: &Engine, job: Job) {\n    engine.submit(job);\n}\n";
        assert_eq!(
            rules_hit("crates/serving/src/x.rs", src),
            vec![("trace-before-backend", 2)]
        );
    }

    #[test]
    fn traced_backend_handoff_clean() {
        let src = "fn handle_generate(t: &Trace, engine: &Engine, job: Job) {\n    t.record_phase(Phase::Enqueue, 0, 0);\n    engine.submit(job);\n}\n";
        assert!(rules_hit("crates/serving/src/x.rs", src).is_empty());
    }

    #[test]
    fn trace_rule_only_covers_serving_handlers() {
        // Not a `handle*` root: the worker owns an already-open span.
        let worker = "fn run_worker(engine: &Engine, job: Job) {\n    engine.submit(job);\n}\n";
        assert!(rules_hit("crates/serving/src/x.rs", worker).is_empty());
        // Same source outside the serving crate: out of scope.
        let src = "fn handle_generate(engine: &Engine, job: Job) {\n    engine.submit(job);\n}\n";
        assert!(rules_hit("crates/models/src/x.rs", src).is_empty());
        // A handler with no backend hand-off has nothing to gate.
        let pure = "fn handle_health() -> Response {\n    render()\n}\n";
        assert!(rules_hit("crates/serving/src/x.rs", pure).is_empty());
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
    fn usize_sum_not_flagged() {
        let src = "fn f(xs: &[usize]) -> f32 { xs.iter().sum::<usize>() as f32 }\n";
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
            vec![("accum-discipline", 4)]
        );
    }

    #[test]
    fn float_accum_hidden_behind_binding_flagged() {
        // the `+=` line itself is typeless; the hint rides on the binding
        let src = "fn total(rows: &[Vec<f32>]) -> f32 {\n    let mut t: f32 = Default::default();\n    for r in rows {\n        t += head(r);\n    }\n    t\n}\nfn head(r: &[f32]) -> f32 { r[0] }\n";
        assert_eq!(
            rules_hit("crates/models/src/x.rs", src),
            vec![("accum-discipline", 4)]
        );
    }

    #[test]
    fn integer_accum_loop_clean() {
        let src = "fn count(xs: &[usize]) -> usize {\n    let mut n = 0usize;\n    for x in xs {\n        n += *x;\n    }\n    n\n}\n";
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
}
