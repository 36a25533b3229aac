//! A zero-dependency recursive-descent parser over the [`crate::lexer`]
//! token stream.
//!
//! This is *not* a Rust grammar — it is the minimum item/expression
//! structure the interprocedural rules need, extracted resiliently from
//! real code: the item tree (fns, impls, traits, mods), and per-function
//! event lists (calls, method calls, macro invocations, index
//! expressions, `unsafe` blocks, compound `+=` adds, bindings in scope).
//! Everything line-addressed, nothing type-checked. On token sequences
//! it does not understand the parser skips forward rather than failing,
//! so half-written or exotic code degrades to fewer events, never to a
//! crash — the same graceful-degradation contract as the lexer.

use crate::lexer::{Tok, TokKind};

/// The parsed shape of one source file.
#[derive(Debug, Default)]
pub struct FileAst {
    /// Every function in the file (free fns, inherent/trait methods,
    /// default trait bodies, nested fns), in source order.
    pub fns: Vec<FnDef>,
    /// `use` declarations, each as its full segment path. Brace groups
    /// are expanded: `use a::{b, c::d};` yields `[a, b]` and `[a, c, d]`.
    pub uses: Vec<Vec<String>>,
}

/// One function definition and the events inside its body.
#[derive(Debug, Default)]
pub struct FnDef {
    /// Function name (`step`, `handle_generate`, …).
    pub name: String,
    /// In-file module path (`["ops", "simd"]` for `mod ops { mod simd {`).
    pub module: Vec<String>,
    /// Enclosing `impl`/`trait` type name, if this is a method
    /// (`BatchGenerator` for `impl BatchGenerator { fn step … }`; the
    /// *self* type for trait impls: `impl Element for F16` → `F16`).
    pub self_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Last line of the body (or the signature, for bodyless decls).
    pub end_line: u32,
    /// Declared `unsafe fn`.
    pub is_unsafe: bool,
    /// Parameters, `let` bindings, `for`-loop variables and closure
    /// parameters — the names "in scope" for the disjointness contract.
    pub bindings: Vec<Binding>,
    /// Call expressions (`foo(…)`, `a::b::foo(…)`, `.foo(…)`).
    pub calls: Vec<CallEvent>,
    /// Macro invocations (`panic!`, `obs::static_histogram!`, …).
    pub macros: Vec<MacroEvent>,
    /// Lines with an index/slice expression (`x[i]`, `buf[a..b]`).
    pub index_lines: Vec<u32>,
    /// Lines opening an `unsafe { … }` block inside the body.
    pub unsafe_lines: Vec<u32>,
    /// Compound `+=` assignments inside loop bodies.
    pub adds: Vec<AddEvent>,
}

impl FnDef {
    /// Whether `name` is bound in this function's scope (param, `let`,
    /// loop variable or closure parameter).
    pub fn binds(&self, name: &str) -> bool {
        name == "self" || self.bindings.iter().any(|b| b.name == name)
    }

    /// Display path for diagnostics: `Type::name` or `name`.
    pub fn display(&self) -> String {
        match &self.self_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A name bound in a function body.
#[derive(Debug)]
pub struct Binding {
    pub name: String,
    pub line: u32,
    /// The declaring statement mentions `f32`/`F16` or a float literal —
    /// evidence the binding holds floating-point state.
    pub float_hint: bool,
}

/// One call expression.
#[derive(Debug)]
pub struct CallEvent {
    pub line: u32,
    /// Path segments; a bare `foo(…)` is `["foo"]`, `a::b::foo(…)` is
    /// `["a","b","foo"]`. Method calls carry the single method name.
    pub path: Vec<String>,
    /// True for `.name(…)` receiver calls.
    pub method: bool,
}

impl CallEvent {
    /// The called name (last path segment).
    pub fn name(&self) -> &str {
        self.path.last().map(String::as_str).unwrap_or("")
    }
}

/// One macro invocation (`name!` with optional module path).
#[derive(Debug)]
pub struct MacroEvent {
    pub line: u32,
    pub path: Vec<String>,
}

impl MacroEvent {
    /// The macro name (last path segment).
    pub fn name(&self) -> &str {
        self.path.last().map(String::as_str).unwrap_or("")
    }
}

/// One `lhs += rhs` inside a loop body.
#[derive(Debug)]
pub struct AddEvent {
    pub line: u32,
    /// Root identifier of the left-hand side (`acc` for `acc[i] += x`).
    pub lhs: Option<String>,
    /// The surrounding statement mentions `f32`/`F16` or a float literal.
    pub float_stmt: bool,
}

/// Keywords that can directly precede `(` / `[` without forming a call
/// or index expression.
const KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "in", "let", "fn", "impl", "trait",
    "where", "unsafe", "as", "move", "ref", "mut", "pub", "use", "mod", "struct", "enum", "union",
    "type", "const", "static", "break", "continue", "dyn", "box", "await", "async", "yield",
    "extern", "crate", "super", "self", "Self", "true", "false",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Parse a token stream (comments are ignored) into a [`FileAst`].
pub fn parse(toks: &[Tok]) -> FileAst {
    let code: Vec<&Tok> = toks.iter().filter(|t| !t.is_comment()).collect();
    let mut p = Parser {
        t: code,
        i: 0,
        out: FileAst::default(),
    };
    let mut module = Vec::new();
    p.items(&mut module, None);
    p.out
}

struct Parser<'a> {
    t: Vec<&'a Tok>,
    i: usize,
    out: FileAst,
}

impl<'a> Parser<'a> {
    fn peek(&self, k: usize) -> Option<&'a Tok> {
        self.t.get(self.i + k).copied()
    }

    fn ident_at(&self, k: usize) -> Option<&'a str> {
        self.peek(k).and_then(|t| t.ident())
    }

    fn punct_at(&self, k: usize, c: char) -> bool {
        self.peek(k).map_or(false, |t| t.is_punct(c))
    }

    fn line(&self) -> u32 {
        self.peek(0).map_or(0, |t| t.line)
    }

    /// Skip a balanced `open … close` group starting at the current
    /// token (which must be `open`); no-op otherwise.
    fn skip_balanced(&mut self, open: char, close: char) {
        if !self.punct_at(0, open) {
            return;
        }
        let mut depth = 0usize;
        while self.i < self.t.len() {
            if self.punct_at(0, open) {
                depth += 1;
            } else if self.punct_at(0, close) {
                depth -= 1;
                if depth == 0 {
                    self.i += 1;
                    return;
                }
            }
            self.i += 1;
        }
    }

    /// Skip to just past the next `;` at brace depth 0 (items like
    /// `use …;`, `const X: T = expr;`, `struct T(…);`).
    fn skip_to_semi(&mut self) {
        let mut brace = 0usize;
        while self.i < self.t.len() {
            if self.punct_at(0, '{') {
                brace += 1;
            } else if self.punct_at(0, '}') {
                if brace == 0 {
                    return; // unbalanced: let the caller see the `}`
                }
                brace -= 1;
            } else if self.punct_at(0, ';') && brace == 0 {
                self.i += 1;
                return;
            }
            self.i += 1;
        }
    }

    /// Item loop for one `{ … }` scope (file top level, `mod`, `impl`,
    /// `trait` bodies). Stops at the closing `}` (not consumed) or EOF.
    fn items(&mut self, module: &mut Vec<String>, self_type: Option<&str>) {
        let mut is_unsafe = false;
        while self.i < self.t.len() {
            if self.punct_at(0, '}') {
                return;
            }
            if self.punct_at(0, '#') {
                // attribute: `#[…]` / `#![…]`
                self.i += 1;
                if self.punct_at(0, '!') {
                    self.i += 1;
                }
                self.skip_balanced('[', ']');
                continue;
            }
            let Some(word) = self.ident_at(0) else {
                self.i += 1;
                continue;
            };
            match word {
                "pub" => {
                    self.i += 1;
                    self.skip_balanced('(', ')'); // pub(crate) etc.
                }
                "const" if self.ident_at(1) == Some("fn") => self.i += 1,
                "async" | "default" => self.i += 1,
                "extern" => {
                    // `extern "C" fn` modifier or `extern crate x;`
                    self.i += 1;
                    if self.peek(0).map_or(false, |t| t.kind == TokKind::Str) {
                        self.i += 1;
                    }
                    if self.ident_at(0) == Some("crate") {
                        self.skip_to_semi();
                    }
                }
                "unsafe" if self.ident_at(1) == Some("fn") || self.ident_at(1) == Some("impl") => {
                    is_unsafe = true;
                    self.i += 1;
                }
                "mod" => {
                    self.i += 1;
                    let name = self.ident_at(0).unwrap_or("").to_string();
                    self.i += 1;
                    if self.punct_at(0, '{') {
                        self.i += 1;
                        module.push(name);
                        self.items(module, self_type);
                        module.pop();
                        if self.punct_at(0, '}') {
                            self.i += 1;
                        }
                    } else {
                        self.skip_to_semi();
                    }
                }
                "impl" => {
                    self.i += 1;
                    let ty = self.impl_header();
                    if self.punct_at(0, '{') {
                        self.i += 1;
                        self.items(module, ty.as_deref());
                        if self.punct_at(0, '}') {
                            self.i += 1;
                        }
                    }
                    is_unsafe = false;
                }
                "trait" => {
                    self.i += 1;
                    let name = self.ident_at(0).map(str::to_string);
                    // skip to the body brace (supertraits, generics, where)
                    while self.i < self.t.len()
                        && !self.punct_at(0, '{')
                        && !self.punct_at(0, ';')
                    {
                        self.i += 1;
                    }
                    if self.punct_at(0, '{') {
                        self.i += 1;
                        self.items(module, name.as_deref());
                        if self.punct_at(0, '}') {
                            self.i += 1;
                        }
                    }
                }
                "fn" => {
                    self.function(module, self_type, is_unsafe);
                    is_unsafe = false;
                }
                "use" => {
                    let start = self.i + 1;
                    self.skip_to_semi();
                    let end = self.i.saturating_sub(1).min(self.t.len());
                    self.record_use(start, end);
                }
                "struct" | "enum" | "union" => {
                    self.i += 1;
                    // name, generics, then either `{…}`, `(…);` or `;`
                    while self.i < self.t.len() {
                        if self.punct_at(0, '{') {
                            self.skip_balanced('{', '}');
                            break;
                        }
                        if self.punct_at(0, ';') {
                            self.i += 1;
                            break;
                        }
                        if self.punct_at(0, '(') {
                            self.skip_balanced('(', ')');
                            continue;
                        }
                        self.i += 1;
                    }
                }
                "static" | "type" | "const" => self.skip_to_semi(),
                "macro_rules" => {
                    self.i += 1; // macro_rules
                    if self.punct_at(0, '!') {
                        self.i += 1;
                    }
                    self.i += 1; // name
                    if self.punct_at(0, '{') {
                        self.skip_balanced('{', '}');
                    }
                }
                _ => {
                    // Item-level macro invocation (`thread_local! { … }`,
                    // `static_assertions!(…);`): skip the delimited body so
                    // its closing brace is not mistaken for the end of this
                    // scope. Anything else advances one token (resilience).
                    self.i += 1;
                    while self.punct_at(0, ':') && self.punct_at(1, ':') {
                        self.i += 2;
                        if self.ident_at(0).is_some() {
                            self.i += 1;
                        }
                    }
                    if self.punct_at(0, '!') {
                        self.i += 1;
                        if self.punct_at(0, '{') {
                            self.skip_balanced('{', '}');
                        } else if self.punct_at(0, '(') {
                            self.skip_balanced('(', ')');
                        } else if self.punct_at(0, '[') {
                            self.skip_balanced('[', ']');
                        }
                    }
                }
            }
        }
    }

    /// After the `impl` keyword: skip generics, read the (self) type
    /// name. For `impl Trait for Type`, the self type wins.
    fn impl_header(&mut self) -> Option<String> {
        if self.punct_at(0, '<') {
            self.skip_angle();
        }
        let first = self.type_path();
        if self.ident_at(0) == Some("for") {
            self.i += 1;
            let second = self.type_path();
            self.skip_to_body_brace();
            return second.or(first);
        }
        self.skip_to_body_brace();
        first
    }

    /// Read a type path (`a::b::Type<…>`), returning the base type name
    /// (last path segment before any generics).
    fn type_path(&mut self) -> Option<String> {
        let mut last = None;
        while self.i < self.t.len() {
            if let Some(id) = self.ident_at(0) {
                if id == "for" || is_keyword(id) && id != "Self" {
                    break;
                }
                last = Some(id.to_string());
                self.i += 1;
                if self.punct_at(0, ':') && self.punct_at(1, ':') {
                    self.i += 2;
                    continue;
                }
                if self.punct_at(0, '<') {
                    self.skip_angle();
                }
                break;
            } else if self.punct_at(0, '&') || self.punct_at(0, '*') {
                self.i += 1; // reference/pointer sigils before the type
            } else if self.peek(0).map_or(false, |t| matches!(t.kind, TokKind::Lifetime(_))) {
                self.i += 1;
            } else {
                break;
            }
        }
        last
    }

    /// Skip a balanced `< … >` generic group (`>>` arrives as two `>`).
    fn skip_angle(&mut self) {
        let mut depth = 0usize;
        while self.i < self.t.len() {
            if self.punct_at(0, '<') {
                depth += 1;
            } else if self.punct_at(0, '>') {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    self.i += 1;
                    return;
                }
            } else if self.punct_at(0, '(') {
                self.skip_balanced('(', ')');
                continue;
            } else if self.punct_at(0, '{') || self.punct_at(0, ';') {
                return; // malformed; bail before eating a body
            }
            self.i += 1;
        }
    }

    /// Skip the rest of an impl/trait header (where clauses) up to the
    /// body `{` (not consumed).
    fn skip_to_body_brace(&mut self) {
        while self.i < self.t.len() && !self.punct_at(0, '{') && !self.punct_at(0, ';') {
            if self.punct_at(0, '<') {
                self.skip_angle();
                continue;
            }
            self.i += 1;
        }
    }

    /// Expand one `use` declaration (tokens `[start, end)`) into full
    /// paths, handling one level of `{a, b::c}` groups.
    fn record_use(&mut self, start: usize, end: usize) {
        let mut prefix: Vec<String> = Vec::new();
        let mut k = start;
        let mut group_base: Option<Vec<String>> = None;
        let mut alias_next = false;
        while k < end {
            let t = self.t[k];
            if let Some(id) = t.ident() {
                if id == "as" {
                    alias_next = true; // `use x as y` — keep the target path
                } else if !alias_next && id != "crate" && id != "self" && id != "super" {
                    prefix.push(id.to_string());
                }
            } else if t.is_punct('{') {
                group_base = Some(prefix.clone());
            } else if t.is_punct(',') || t.is_punct('}') {
                if !prefix.is_empty() {
                    self.out.uses.push(prefix.clone());
                }
                prefix = group_base.clone().unwrap_or_default();
                alias_next = false;
            } else if t.is_punct('*') {
                prefix.clear(); // glob: nothing nameable
            }
            k += 1;
        }
        if !prefix.is_empty() {
            self.out.uses.push(prefix);
        }
    }

    /// Parse `fn name …` starting at the `fn` keyword.
    fn function(&mut self, module: &[String], self_type: Option<&str>, is_unsafe: bool) {
        let fn_line = self.line();
        self.i += 1; // `fn`
        let name = self.ident_at(0).unwrap_or("").to_string();
        self.i += 1;
        let mut f = FnDef {
            name,
            module: module.to_vec(),
            self_type: self_type.map(str::to_string),
            line: fn_line,
            end_line: fn_line,
            is_unsafe,
            ..FnDef::default()
        };
        if self.punct_at(0, '<') {
            self.skip_angle();
        }
        if self.punct_at(0, '(') {
            self.params(&mut f);
        }
        // return type / where clause, up to the body `{` or a `;`
        while self.i < self.t.len() && !self.punct_at(0, '{') && !self.punct_at(0, ';') {
            if self.punct_at(0, '<') {
                self.skip_angle();
                continue;
            }
            if self.punct_at(0, '(') {
                self.skip_balanced('(', ')');
                continue;
            }
            self.i += 1;
        }
        if self.punct_at(0, ';') {
            self.i += 1; // bodyless trait decl
            f.end_line = self.t.get(self.i.saturating_sub(1)).map_or(fn_line, |t| t.line);
            self.out.fns.push(f);
            return;
        }
        if self.punct_at(0, '{') {
            self.i += 1;
            self.body(&mut f);
        }
        self.out.fns.push(f);
    }

    /// Parameter list: record binding names and float hints.
    fn params(&mut self, f: &mut FnDef) {
        self.i += 1; // `(`
        let mut depth = 1usize;
        let mut seen_colon = false;
        let mut names: Vec<(String, u32)> = Vec::new();
        let mut float = false;
        while self.i < self.t.len() && depth > 0 {
            let t = self.t[self.i];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if t.is_punct('<') && depth == 1 {
                self.skip_angle();
                continue;
            } else if depth == 1 && t.is_punct(',') {
                for (n, l) in names.drain(..) {
                    f.bindings.push(Binding { name: n, line: l, float_hint: float });
                }
                seen_colon = false;
                float = false;
            } else if depth == 1 && t.is_punct(':') {
                seen_colon = true;
            } else if let Some(id) = t.ident() {
                if seen_colon {
                    if id == "f32" || id == "f64" || id == "F16" {
                        float = true;
                    }
                } else if id == "self" {
                    names.push(("self".to_string(), t.line));
                } else if !is_keyword(id) {
                    names.push((id.to_string(), t.line));
                }
            }
            self.i += 1;
        }
        for (n, l) in names {
            f.bindings.push(Binding { name: n, line: l, float_hint: float });
        }
    }

    /// Walk a function body collecting events. Starts just past the
    /// opening `{` (depth 1); consumes through the matching `}`.
    fn body(&mut self, f: &mut FnDef) {
        let mut depth = 1usize;
        // Brace depths at which loop bodies opened.
        let mut loops: Vec<usize> = Vec::new();
        let mut pending_loop = false;
        while self.i < self.t.len() && depth > 0 {
            let t = self.t[self.i];
            match &t.kind {
                TokKind::Punct('{') => {
                    depth += 1;
                    if pending_loop {
                        loops.push(depth);
                        pending_loop = false;
                    }
                    self.i += 1;
                }
                TokKind::Punct('}') => {
                    if loops.last() == Some(&depth) {
                        loops.pop();
                    }
                    depth -= 1;
                    f.end_line = t.line;
                    self.i += 1;
                }
                TokKind::Punct('#') => {
                    self.i += 1;
                    if self.punct_at(0, '!') {
                        self.i += 1;
                    }
                    self.skip_balanced('[', ']');
                }
                TokKind::Punct('(') => {
                    self.call_at_paren(f);
                    self.i += 1;
                }
                TokKind::Punct('[') => {
                    self.index_at_bracket(f);
                    self.i += 1;
                }
                TokKind::Punct('+') if self.punct_at(1, '=') => {
                    self.compound_add(f, &loops);
                    self.i += 2;
                }
                TokKind::Punct('|') => {
                    self.maybe_closure_params(f);
                }
                TokKind::Ident(id) => {
                    match id.as_str() {
                        "fn" => {
                            // nested fn: its own def, events attach to it
                            self.function(&f.module.clone(), f.self_type.as_deref(), false);
                        }
                        "for" | "while" | "loop" => {
                            pending_loop = true;
                            if id == "for" {
                                // loop variable(s): idents up to `in`
                                let mut k = 1;
                                while let Some(w) = self.ident_at(k) {
                                    if w == "in" {
                                        break;
                                    }
                                    if !is_keyword(w) {
                                        f.bindings.push(Binding {
                                            name: w.to_string(),
                                            line: t.line,
                                            float_hint: false,
                                        });
                                    }
                                    k += 1;
                                    while self.punct_at(k, ',')
                                        || self.punct_at(k, '(')
                                        || self.punct_at(k, ')')
                                        || self.punct_at(k, '&')
                                    {
                                        k += 1;
                                    }
                                }
                            }
                            self.i += 1;
                        }
                        "let" => {
                            self.let_binding(f);
                        }
                        "unsafe" => {
                            if self.punct_at(1, '{') {
                                f.unsafe_lines.push(t.line);
                            }
                            self.i += 1;
                        }
                        _ => {
                            // macro invocation `path!`?
                            if self.punct_at(1, '!') && !self.punct_at(2, '=') {
                                let path = self.path_ending_at(self.i);
                                f.macros.push(MacroEvent { line: t.line, path });
                                self.i += 2; // ident + `!`; args scan on
                            } else {
                                self.i += 1;
                            }
                        }
                    }
                }
                _ => self.i += 1,
            }
        }
    }

    /// At a `(`: record a call event if the preceding tokens form a
    /// callee path or a `.method` receiver call.
    fn call_at_paren(&mut self, f: &mut FnDef) {
        let line = self.line();
        let Some(prev) = (self.i >= 1).then(|| self.t[self.i - 1]) else {
            return;
        };
        let Some(id) = prev.ident() else {
            return;
        };
        if is_keyword(id) && id != "Self" && id != "self" {
            return;
        }
        let path = self.path_ending_at(self.i - 1);
        if path.is_empty() {
            return;
        }
        // `.name(` → method call (path reduced to the method name)
        let before = self.i - 1 - (path.len() * 2 - 1).min(self.i - 1);
        let method = self.i >= 2 && self.t[self.i - 2].is_punct('.');
        if method {
            f.calls.push(CallEvent { line, path: vec![id.to_string()], method: true });
        } else {
            let _ = before;
            f.calls.push(CallEvent { line, path, method: false });
        }
    }

    /// Collect the `a :: b :: name` path whose last segment is the ident
    /// at token index `end` (inclusive), walking backwards.
    fn path_ending_at(&self, end: usize) -> Vec<String> {
        let mut segs: Vec<String> = Vec::new();
        let mut k = end;
        loop {
            let Some(id) = self.t.get(k).and_then(|t| t.ident()) else {
                break;
            };
            segs.push(id.to_string());
            if k >= 2 && self.t[k - 1].is_punct(':') && self.t[k - 2].is_punct(':') {
                if k >= 3 {
                    k -= 3;
                    // generic turbofish `Foo::<T>::bar` — give up cleanly
                    if self.t[k].ident().is_none() {
                        break;
                    }
                    continue;
                }
            }
            break;
        }
        segs.reverse();
        segs
    }

    /// At a `[`: record an index expression when the bracket is in
    /// postfix position (previous token ends an expression).
    fn index_at_bracket(&mut self, f: &mut FnDef) {
        let line = self.line();
        let Some(prev) = (self.i >= 1).then(|| self.t[self.i - 1]) else {
            return;
        };
        let postfix = match &prev.kind {
            TokKind::Ident(id) => !is_keyword(id) || id == "self",
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('?') => true,
            _ => false,
        };
        if !postfix {
            return;
        }
        // `x[..]` is the full-range slice — it cannot panic; skip it.
        if self.punct_at(1, '.') && self.punct_at(2, '.') && self.punct_at(3, ']') {
            return;
        }
        f.index_lines.push(line);
    }

    /// At `+ =`: record a compound add if inside a loop body.
    fn compound_add(&mut self, f: &mut FnDef, loops: &[usize]) {
        if loops.is_empty() {
            return;
        }
        let line = self.line();
        // Walk back over the lvalue (`a.b[i]`, `chunk[i * w + c]`) to its
        // root identifier.
        let mut k = self.i;
        let mut bracket = 0usize;
        let mut lhs = None;
        while k > 0 {
            k -= 1;
            let t = self.t[k];
            match &t.kind {
                TokKind::Punct(']') => bracket += 1,
                TokKind::Punct('[') => {
                    if bracket == 0 {
                        break;
                    }
                    bracket -= 1;
                }
                TokKind::Ident(id) if bracket == 0 => {
                    if is_keyword(id) && id != "self" {
                        break;
                    }
                    lhs = Some(id.to_string());
                    if !(k >= 1 && (self.t[k - 1].is_punct('.') || self.t[k - 1].is_punct(':'))) {
                        break;
                    }
                    k -= 1; // continue past `.` / `::`
                }
                TokKind::Punct('.') | TokKind::Punct(':') if bracket == 0 => {}
                _ if bracket > 0 => {}
                _ => break,
            }
        }
        let float_stmt = self.stmt_mentions_float(self.i);
        f.adds.push(AddEvent { line, lhs, float_stmt });
    }

    /// Does the statement around token `i` mention `f32`/`F16` or a
    /// float literal? Bounded by `;`/`{`/`}` on both sides.
    fn stmt_mentions_float(&self, i: usize) -> bool {
        let boundary =
            |t: &Tok| t.is_punct(';') || t.is_punct('{') || t.is_punct('}');
        let start = (0..i).rev().find(|&k| boundary(self.t[k])).map_or(0, |k| k + 1);
        let end = (i..self.t.len())
            .find(|&k| boundary(self.t[k]))
            .unwrap_or(self.t.len());
        self.t[start..end].iter().any(|t| match &t.kind {
            TokKind::Ident(id) => id == "f32" || id == "f64" || id == "F16",
            TokKind::Num { float } => *float,
            _ => false,
        })
    }

    /// `let` statement: record pattern bindings with a float hint from
    /// the rest of the statement.
    fn let_binding(&mut self, f: &mut FnDef) {
        let line = self.line();
        self.i += 1; // `let`
        let mut names: Vec<String> = Vec::new();
        // pattern: idents until `=`, `;` or `:` type annotation
        let mut depth = 0usize;
        while self.i < self.t.len() {
            let t = self.t[self.i];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && (t.is_punct('=') || t.is_punct(';') || t.is_punct(':')) {
                break;
            } else if let Some(id) = t.ident() {
                // `let Some(x)` / `let Ok(v)`: constructor names start
                // uppercase and are not bindings; `mut`/`ref` skipped.
                if !is_keyword(id) && !id.chars().next().map_or(false, |c| c.is_uppercase()) {
                    names.push(id.to_string());
                }
            } else if t.is_punct('{') {
                break; // struct pattern: too clever; bail
            }
            self.i += 1;
        }
        let float = self.stmt_mentions_float(self.i);
        for n in names {
            f.bindings.push(Binding { name: n, line, float_hint: float });
        }
    }

    /// At a `|`: if it opens a closure parameter list (`|a, b: T|`),
    /// record the parameters as bindings. Conservative: bails on
    /// anything that does not look like a simple parameter list.
    fn maybe_closure_params(&mut self, f: &mut FnDef) {
        // `||` — empty closure params
        if self.punct_at(1, '|') {
            self.i += 2;
            return;
        }
        let start_ok = self.i == 0
            || matches!(
                &self.t[self.i - 1].kind,
                TokKind::Punct('(') | TokKind::Punct(',') | TokKind::Punct('=') | TokKind::Punct('{')
            )
            || self.t[self.i - 1].ident() == Some("move");
        if !start_ok {
            self.i += 1;
            return;
        }
        let mut k = self.i + 1;
        let mut names: Vec<(String, u32)> = Vec::new();
        let mut in_type = false;
        while k < self.t.len() && k < self.i + 24 {
            let t = self.t[k];
            if t.is_punct('|') {
                for (n, l) in names {
                    f.bindings.push(Binding { name: n, line: l, float_hint: false });
                }
                self.i = k + 1;
                return;
            }
            match &t.kind {
                TokKind::Ident(id) => {
                    if !in_type && !is_keyword(id) {
                        names.push((id.to_string(), t.line));
                    }
                }
                TokKind::Punct(':') => in_type = true,
                TokKind::Punct(',') => in_type = false,
                TokKind::Punct('&') | TokKind::Punct('(') | TokKind::Punct(')')
                | TokKind::Punct('_') => {}
                TokKind::Lifetime(_) => {}
                _ => {
                    self.i += 1;
                    return; // not a closure param list
                }
            }
            k += 1;
        }
        self.i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ast(src: &str) -> FileAst {
        parse(&lex(src))
    }

    #[test]
    fn item_level_macro_body_does_not_end_the_scope() {
        let a = ast(
            "thread_local! {\n    static W: Cell<bool> = const { Cell::new(false) };\n}\n\
             fn after() { g(); }\n\
             mod inner {\n    obs::declare_metrics!(a, b);\n    fn nested() {}\n}\n",
        );
        let names: Vec<&str> = a.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["after", "nested"],
            "a `thread_local!`-style brace body must not swallow the rest of the file"
        );
        assert_eq!(a.fns[1].module, vec!["inner".to_string()]);
    }

    #[test]
    fn free_fn_and_method() {
        let a = ast("fn f() { g(); }\nimpl Foo { fn m(&self) { self.h(); } }\n");
        assert_eq!(a.fns.len(), 2);
        assert_eq!(a.fns[0].name, "f");
        assert_eq!(a.fns[0].calls.len(), 1);
        assert_eq!(a.fns[0].calls[0].path, vec!["g"]);
        assert_eq!(a.fns[1].self_type.as_deref(), Some("Foo"));
        assert!(a.fns[1].calls[0].method);
        assert_eq!(a.fns[1].calls[0].name(), "h");
    }

    #[test]
    fn trait_impl_self_type_is_the_type() {
        let a = ast("impl KvRows for KvCache<E> { fn len(&self) -> usize { 0 } }\n");
        assert_eq!(a.fns[0].self_type.as_deref(), Some("KvCache"));
    }

    #[test]
    fn path_calls_and_macros() {
        let a = ast("fn f() { a::b::g(1); obs::static_histogram!(\"x\").observe(1); panic!(\"no\"); }\n");
        let f = &a.fns[0];
        assert!(f.calls.iter().any(|c| c.path == vec!["a", "b", "g"]));
        assert!(f.macros.iter().any(|m| m.path == vec!["obs", "static_histogram"]));
        assert!(f.macros.iter().any(|m| m.name() == "panic"));
    }

    #[test]
    fn index_detection() {
        let a = ast(
            "fn f(v: &[u32], i: usize) -> u32 {\n    let a = [1, 2];\n    let _ = &v[..];\n    v[i] + a[0]\n}\n",
        );
        // `[1, 2]` literal and `[..]` full-range excluded; v[i] and a[0] hit
        assert_eq!(a.fns[0].index_lines, vec![4, 4]);
    }

    #[test]
    fn loops_and_compound_adds() {
        let a = ast(
            "fn f(xs: &[f32]) -> f32 {\n    let mut acc = 0.0f32;\n    for x in xs {\n        acc += *x;\n    }\n    acc\n}\nfn g() -> usize { let mut n = 0; n += 1; n }\n",
        );
        let f = &a.fns[0];
        assert_eq!(f.adds.len(), 1, "{:?}", f.adds);
        assert_eq!(f.adds[0].lhs.as_deref(), Some("acc"));
        assert!(f.binds("acc") && f.binds("x") && f.binds("xs"));
        let acc = f.bindings.iter().find(|b| b.name == "acc").unwrap();
        assert!(acc.float_hint, "0.0f32 initializer should set the hint");
        // g's += is outside any loop
        assert!(a.fns[1].adds.is_empty());
    }

    #[test]
    fn closure_params_bound() {
        let a = ast("fn f(s: &mut [u8]) { run(|i, part| { part[i] = 0; }); }\n");
        assert!(a.fns[0].binds("part") && a.fns[0].binds("i"));
    }

    #[test]
    fn unsafe_blocks_and_fns() {
        let a = ast("unsafe fn k() {}\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n");
        assert!(a.fns[0].is_unsafe);
        assert_eq!(a.fns[1].unsafe_lines, vec![2]);
    }

    #[test]
    fn nested_modules_and_uses() {
        let a = ast(
            "use ratatouille_tensor::par::{scatter_mut, run_tasks};\nuse crate::kv_block::SeqKv;\nmod inner { pub fn deep() {} }\n",
        );
        assert!(a.uses.contains(&vec![
            "ratatouille_tensor".to_string(),
            "par".to_string(),
            "scatter_mut".to_string()
        ]));
        assert!(a.uses.contains(&vec![
            "ratatouille_tensor".to_string(),
            "par".to_string(),
            "run_tasks".to_string()
        ]));
        assert!(a.uses.contains(&vec!["kv_block".to_string(), "SeqKv".to_string()]));
        assert_eq!(a.fns[0].module, vec!["inner"]);
    }

    #[test]
    fn generics_and_where_clauses_survive() {
        let a = ast(
            "pub fn scatter<T, F>(slots: &mut [T], f: F)\nwhere\n    T: Send,\n    F: Fn(usize, &mut T) + Sync,\n{\n    f(0, &mut slots[0]);\n}\n",
        );
        assert_eq!(a.fns[0].name, "scatter");
        assert!(a.fns[0].binds("slots") && a.fns[0].binds("f"));
        assert_eq!(a.fns[0].index_lines, vec![6]);
    }

    #[test]
    fn bodyless_trait_methods() {
        let a = ast("trait T { fn a(&self); fn b(&self) { self.a(); } }\n");
        assert_eq!(a.fns.len(), 2);
        assert_eq!(a.fns[0].name, "a");
        assert!(a.fns[1].calls.iter().any(|c| c.name() == "a"));
    }
}
