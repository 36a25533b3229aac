//! A zero-dependency recursive-descent parser over the [`crate::lexer`]
//! token stream.
//!
//! This is *not* a Rust grammar — it is the minimum item/expression
//! structure the rules need, extracted resiliently from real code: the
//! item tree (fns, impls, traits, mods, `macro_rules!` bodies), struct
//! field types, the spans of `#[test]`/`#[cfg(test)]` items, and
//! per-function event lists (calls with their receivers, macro
//! invocations, index expressions, compound `+=` adds, bindings with their
//! written types). Types are read as the source spells them, never
//! inferred. On token sequences it does not understand the parser skips
//! forward rather than failing, so half-written or exotic code degrades to
//! fewer events, never to a crash — the same graceful-degradation contract
//! as the lexer.

use crate::lexer::{Tok, TokKind};

/// The parsed shape of one source file.
#[derive(Debug, Default)]
pub struct FileAst {
    /// Every function in the file (free fns, inherent/trait methods,
    /// default trait bodies, nested fns) and every `macro_rules!` body.
    pub fns: Vec<FnDef>,
    /// `use` declarations, each as its full segment path. Brace groups
    /// are expanded: `use a::{b, c::d};` yields `[a, b]` and `[a, c, d]`.
    pub uses: Vec<Vec<String>>,
    /// Field types as written: `(struct, field, type)` for a named
    /// struct field, `(struct, "0", type)` for a tuple struct's,
    /// `(enum, "Variant.0", type)` / `(enum, "Variant.name", type)` for a
    /// variant's payload, and `("", NAME, type)` for a static or const.
    pub fields: Vec<(String, String, Ty)>,
    /// Line spans (inclusive) of `#[test]` and `#[cfg(test)]` items.
    pub test_spans: Vec<(u32, u32)>,
}

/// A type as far as the source text spells it.
#[derive(Debug, Clone, PartialEq)]
pub enum Ty {
    /// Not written down: an untyped `let`, a `for` or closure binding, an
    /// unbounded generic, the result of a workspace call.
    Unknown,
    /// A named type's last path segment, with `&`, `Box`, `Arc` and `Rc`
    /// peeled off. Tuples and fn pointers are `Named("")`, which names
    /// no workspace type.
    Named(String),
    /// `dyn A + B`, `impl A + B`, or a generic parameter bounded by `A + B`.
    Traits(Vec<String>),
    /// A slice, array, `Vec` or `VecDeque` of the element type.
    Seq(Box<Ty>),
}

/// One function definition (or `macro_rules!` body) and its events.
#[derive(Debug, Default)]
pub struct FnDef {
    /// Function name (`step`, `handle_generate`, …) or macro name.
    pub name: String,
    /// In-file module path (`["ops", "simd"]` for `mod ops { mod simd {`).
    pub module: Vec<String>,
    /// Enclosing `impl` self type (`impl Element for F16` → `F16`), or
    /// the trait itself for a method declared in `trait T { … }`.
    pub self_type: Option<String>,
    /// The trait an `impl Trait for Type` method implements, or the
    /// trait a `trait T { … }` method belongs to.
    pub trait_name: Option<String>,
    /// A `macro_rules!` body: its events are those of every expansion.
    pub is_macro: bool,
    /// 1-based line of the `fn` (or `macro_rules`) keyword.
    pub line: u32,
    /// Parameters, `let` bindings, `for`-loop variables and closure
    /// parameters, in source order.
    pub bindings: Vec<Binding>,
    /// Call expressions (`foo(…)`, `a::b::foo(…)`, `.foo(…)`).
    pub calls: Vec<CallEvent>,
    /// Macro invocations (`panic!`, `obs::static_histogram!`, …).
    pub macros: Vec<MacroEvent>,
    /// Lines with an index/slice expression (`x[i]`, `buf[a..b]`).
    pub index_lines: Vec<u32>,
    /// Compound `+=` assignments inside loop bodies.
    pub adds: Vec<AddEvent>,
}

impl FnDef {
    /// Display path for diagnostics: `Type::name`, `name!` or `name`.
    pub fn display(&self) -> String {
        match &self.self_type {
            _ if self.is_macro => format!("{}!", self.name),
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A name bound in a function body.
#[derive(Debug)]
pub struct Binding {
    pub name: String,
    /// The declaring statement holds float evidence (`f32`, `F16`, a
    /// float literal): the binding holds floating-point state.
    pub float_hint: bool,
    /// What the binding holds, as a receiver would read it: its written
    /// type (`x: T`), a `Type::ctor(…)` initialiser's type, or — for a
    /// name inside `Enum::Variant(…)` — that variant's payload field.
    pub val: Recv,
}

/// One call expression.
#[derive(Debug)]
pub struct CallEvent {
    pub line: u32,
    /// Path segments; a bare `foo(…)` is `["foo"]`, `a::b::foo(…)` is
    /// `["a","b","foo"]`. Method calls carry the single method name.
    pub path: Vec<String>,
    /// The receiver of a `.name(…)` method call; `None` for a path call.
    pub recv: Option<Recv>,
    /// Token index of the call's `(`, which links a chained receiver to
    /// the call that produced it.
    paren: usize,
}

impl CallEvent {
    /// The called name (last path segment).
    pub fn name(&self) -> &str {
        self.path.last().map(String::as_str).unwrap_or("")
    }
}

/// A method call's receiver: a root and the steps taken from it
/// (`self.qkv.forward(…)` has root `self` and steps `[Field("qkv")]`).
#[derive(Debug, Clone)]
pub struct Recv {
    pub root: Root,
    pub steps: Vec<Step>,
}

impl Recv {
    fn of(ty: Ty) -> Recv {
        Recv { root: Root::Ty(ty), steps: Vec::new() }
    }
}

/// One step from a receiver's root: `.field` or `[index]`.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    Field(String),
    Index,
}

/// Where a receiver starts.
#[derive(Debug, Clone)]
pub enum Root {
    /// `self`, a binding or a `Type::ctor(…)` call: its type.
    Ty(Ty),
    /// The result of `calls[i]` of the same fn (a method chain).
    Call(usize),
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
    /// The surrounding statement mentions a float type or literal.
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

fn is_upper(s: &str) -> bool {
    s.starts_with(|c: char| c.is_ascii_uppercase())
}

/// Float evidence: the `f32`/`F16` types whose reductions the
/// order-pinned `util::accum` helpers own, or a float literal.
pub fn is_float(t: &Tok) -> bool {
    match &t.kind {
        TokKind::Ident(id) => matches!(id.as_str(), "f32" | "F16"),
        TokKind::Num { float, .. } => *float,
        _ => false,
    }
}

/// Does the statement around token `i` hold float evidence? The span is
/// bounded by `;`/`{`/`}` on both sides — close enough for a lexical
/// rule, and wrong only inside nested closures.
pub fn stmt_mentions_float(toks: &[&Tok], i: usize) -> bool {
    let boundary = |t: &Tok| t.is_punct(';') || t.is_punct('{') || t.is_punct('}');
    let start = (0..i).rev().find(|&k| boundary(toks[k])).map_or(0, |k| k + 1);
    let end = (i..toks.len()).find(|&k| boundary(toks[k])).unwrap_or(toks.len());
    toks[start..end].iter().any(|t| is_float(t))
}

/// Parse a token stream (comments are ignored) into a [`FileAst`].
pub fn parse(toks: &[Tok]) -> FileAst {
    let code: Vec<&Tok> = toks.iter().filter(|t| !t.is_comment()).collect();
    let mut p = Parser { t: code, i: 0, out: FileAst::default() };
    p.items(&Scope::default());
    p.out
}

/// Generic parameters in scope, each with its trait bounds.
type Generics = Vec<(String, Vec<String>)>;

/// What an item inherits from the items around it.
#[derive(Clone, Default)]
struct Scope {
    module: Vec<String>,
    self_type: Option<String>,
    trait_name: Option<String>,
    generics: Generics,
}

impl Scope {
    fn self_ty(&self) -> Ty {
        self.self_type.clone().map_or(Ty::Unknown, Ty::Named)
    }

    /// The type a `Type::ctor(…)` or `Self::ctor(…)` call constructs.
    fn ctor(&self, path: &[String]) -> Ty {
        match path.len().checked_sub(2).map(|k| path[k].as_str()) {
            Some("Self") => self.self_ty(),
            Some(t) if is_upper(t) => Ty::Named(t.to_string()),
            _ => Ty::Unknown,
        }
    }
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

    /// Is token `k` (absolute index) the punctuation `c`?
    fn is(&self, k: usize, c: char) -> bool {
        self.t.get(k).is_some_and(|t| t.is_punct(c))
    }

    /// Does a lone `.` (not half of a `..`) precede token `k`?
    fn after_dot(&self, k: usize) -> bool {
        k >= 1 && self.is(k - 1, '.') && !(k >= 2 && self.is(k - 2, '.'))
    }

    /// Is token `k` a lone `:` (not half of a `::`)?
    fn is_colon(&self, k: usize) -> bool {
        self.is(k, ':') && !self.is(k + 1, ':') && !(k > 0 && self.is(k - 1, ':'))
    }

    fn line(&self) -> u32 {
        self.peek(0).map_or(0, |t| t.line)
    }

    fn eat(&mut self, c: char) {
        if self.punct_at(0, c) {
            self.i += 1;
        }
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

    /// Skip a balanced `< … >` generic group (`>>` arrives as two `>`;
    /// the `>` of a `->` does not close anything).
    fn skip_angle(&mut self) {
        let mut depth = 0usize;
        while self.i < self.t.len() {
            if self.punct_at(0, '<') {
                depth += 1;
            } else if self.punct_at(0, '>') && !(self.i > 0 && self.is(self.i - 1, '-')) {
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

    /// Split tokens `[k, end)` on `sep` at bracket depth 0.
    fn split_top(&self, k: usize, end: usize, sep: char) -> Vec<(usize, usize)> {
        let (mut out, mut depth, mut start) = (Vec::new(), 0i32, k);
        for j in k..end {
            match self.t[j].kind {
                TokKind::Punct('<' | '(' | '[' | '{') => depth += 1,
                TokKind::Punct('>') if !self.is(j.wrapping_sub(1), '-') => depth -= 1,
                TokKind::Punct(')' | ']' | '}') => depth -= 1,
                TokKind::Punct(c) if c == sep && depth == 0 => {
                    out.push((start, j));
                    start = j + 1;
                }
                _ => {}
            }
        }
        if start < end {
            out.push((start, end));
        }
        out
    }

    /// Item loop for one `{ … }` scope (file top level, `mod`, `impl`,
    /// `trait` bodies). Stops at the closing `}` (not consumed) or EOF.
    fn items(&mut self, scope: &Scope) {
        // Line of a `#[test]`/`#[cfg(test)]` waiting for its item.
        let mut test_attr: Option<u32> = None;
        while self.i < self.t.len() {
            if self.punct_at(0, '}') {
                return;
            }
            if self.punct_at(0, '#') {
                // attribute: `#[…]` / `#![…]`
                let line = self.line();
                self.i += 1;
                self.eat('!');
                let start = self.i;
                self.skip_balanced('[', ']');
                let ids: Vec<&str> = self.t[start..self.i].iter().filter_map(|t| t.ident()).collect();
                if ids.first() == Some(&"test") || (ids.first() == Some(&"cfg") && ids.contains(&"test"))
                {
                    test_attr.get_or_insert(line);
                }
                continue;
            }
            let Some(word) = self.ident_at(0) else {
                self.i += 1;
                continue;
            };
            match word {
                // Modifiers: the item they qualify follows.
                "pub" => {
                    self.i += 1;
                    self.skip_balanced('(', ')'); // pub(crate) etc.
                    continue;
                }
                "const" if self.ident_at(1) == Some("fn") => {
                    self.i += 1;
                    continue;
                }
                "async" | "default" | "unsafe" => {
                    self.i += 1;
                    continue;
                }
                "extern" => {
                    // `extern "C" fn` modifier or `extern crate x;`
                    self.i += 1;
                    if self.peek(0).map_or(false, |t| t.kind == TokKind::Str) {
                        self.i += 1;
                    }
                    if self.ident_at(0) != Some("crate") {
                        continue;
                    }
                    self.skip_to_semi();
                }
                "mod" => {
                    let name = self.ident_at(1).unwrap_or("").to_string();
                    self.i += 2;
                    if self.punct_at(0, '{') {
                        self.i += 1;
                        let mut inner = scope.clone();
                        inner.module.push(name);
                        self.items(&inner);
                        self.eat('}');
                    } else {
                        self.skip_to_semi();
                    }
                }
                "impl" => {
                    self.i += 1;
                    let mut inner = Scope { module: scope.module.clone(), ..Scope::default() };
                    if self.punct_at(0, '<') {
                        self.generics(&mut inner.generics);
                    }
                    // `impl Trait for Type`: the self type wins.
                    let first = self.type_path();
                    inner.self_type = first.clone();
                    if self.ident_at(0) == Some("for") {
                        self.i += 1;
                        inner.self_type = self.type_path().or(first.clone());
                        inner.trait_name = first;
                    }
                    self.where_clause(&mut inner.generics);
                    if self.punct_at(0, '{') {
                        self.i += 1;
                        self.items(&inner);
                        self.eat('}');
                    }
                }
                "trait" => {
                    let name = self.ident_at(1).map(str::to_string);
                    self.i += 2;
                    let mut inner = Scope {
                        module: scope.module.clone(),
                        self_type: name.clone(),
                        trait_name: name,
                        generics: Generics::new(),
                    };
                    if self.punct_at(0, '<') {
                        self.generics(&mut inner.generics);
                    }
                    self.where_clause(&mut inner.generics); // supertraits too
                    if self.punct_at(0, '{') {
                        self.i += 1;
                        self.items(&inner);
                        self.eat('}');
                    }
                }
                "fn" => self.function(scope),
                "use" => {
                    let start = self.i + 1;
                    self.skip_to_semi();
                    let end = self.i.saturating_sub(1).min(self.t.len());
                    self.record_use(start, end);
                }
                "struct" | "enum" | "union" => {
                    let name = self.ident_at(1).unwrap_or("").to_string();
                    self.i += 2;
                    let mut inner = Scope { self_type: Some(name.clone()), ..Scope::default() };
                    if self.punct_at(0, '<') {
                        self.generics(&mut inner.generics);
                    }
                    if word == "struct" && self.punct_at(0, '(') {
                        self.tuple_fields(&name, "", self.i, &inner);
                    }
                    self.where_clause(&mut inner.generics); // skips a tuple body
                    if word != "union" && self.punct_at(0, '{') {
                        self.fields(&name, word == "enum", &inner);
                    } else {
                        self.skip_balanced('{', '}');
                        self.eat(';');
                    }
                }
                "static" | "const" => {
                    // a field of the crate namespace `""`
                    let k = self.i + 1 + usize::from(self.ident_at(1) == Some("mut"));
                    if let (Some(name), true) = (self.t.get(k).and_then(|t| t.ident()), self.is_colon(k + 1)) {
                        let ty = self.ty_at(k + 2, scope);
                        self.out.fields.push((String::new(), name.to_string(), ty));
                    }
                    self.skip_to_semi();
                }
                "type" => self.skip_to_semi(),
                "macro_rules" => {
                    let mut f = FnDef {
                        name: self.ident_at(2).unwrap_or("").to_string(),
                        module: scope.module.clone(),
                        is_macro: true,
                        line: self.line(),
                        ..FnDef::default()
                    };
                    self.i += 3; // `macro_rules ! name`
                    if self.punct_at(0, '{') {
                        self.i += 1;
                        self.body(&mut f, scope);
                        self.out.fns.push(f);
                    } else {
                        self.skip_balanced('(', ')');
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
            if let Some(start) = test_attr.take() {
                let end = self.t[self.i.saturating_sub(1).min(self.t.len() - 1)].line;
                self.out.test_spans.push((start, end));
            }
        }
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

    /// The type written at token `k`, up to wherever it ends.
    fn ty_at(&self, mut k: usize, scope: &Scope) -> Ty {
        while let Some(t) = self.t.get(k) {
            let sigil = t.is_punct('&') || t.is_punct('*') || matches!(t.ident(), Some("mut" | "const"));
            if !(sigil || matches!(t.kind, TokKind::Lifetime(_))) {
                break;
            }
            k += 1;
        }
        let Some(mut name) = self.t.get(k).and_then(|t| t.ident()) else {
            return match self.is(k, '[') {
                true => Ty::Seq(Box::new(self.ty_at(k + 1, scope))),
                false => Ty::Named(String::new()), // tuple
            };
        };
        match name {
            "dyn" | "impl" => return Ty::Traits(self.bounds(k + 1, self.type_end(k + 1))),
            "Self" => return scope.self_ty(),
            _ if is_keyword(name) => return Ty::Named(String::new()), // fn pointer
            _ => {}
        }
        while self.is(k + 1, ':') && self.is(k + 2, ':') {
            match self.t.get(k + 3).and_then(|t| t.ident()) {
                Some(next) => (name, k) = (next, k + 3),
                None => break,
            }
        }
        if let Some((_, bounds)) = scope.generics.iter().find(|(g, _)| g == name) {
            return if bounds.is_empty() { Ty::Unknown } else { Ty::Traits(bounds.clone()) };
        }
        match name {
            "Box" | "Arc" | "Rc" if self.is(k + 1, '<') => return self.ty_at(k + 2, scope),
            "Vec" | "VecDeque" if self.is(k + 1, '<') => return Ty::Seq(Box::new(self.ty_at(k + 2, scope))),
            _ => {}
        }
        Ty::Named(name.to_string())
    }

    /// Index just past a type that starts at `k`: the first `,`, `=`,
    /// `;` or brace at depth 0, or the bracket that closes around it.
    fn type_end(&self, mut k: usize) -> usize {
        let mut depth = 0usize;
        while let Some(t) = self.t.get(k) {
            match t.kind {
                TokKind::Punct('<' | '(' | '[') => depth += 1,
                TokKind::Punct('>') if self.is(k.wrapping_sub(1), '-') => {}
                TokKind::Punct('>' | ')' | ']') if depth == 0 => break,
                TokKind::Punct('>' | ')' | ']') => depth -= 1,
                TokKind::Punct(',' | '=' | ';' | '{' | '}') if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        k
    }

    /// `A + B<…> + 'a + ?Sized` in tokens `[k, end)` → `[A, B, Sized]`:
    /// each bound's last path segment before its generics.
    fn bounds(&self, k: usize, end: usize) -> Vec<String> {
        let stop = |t: &Tok| t.is_punct('<') || t.is_punct('(') || t.is_punct('>');
        self.split_top(k, end, '+')
            .into_iter()
            .filter_map(|(s, e)| {
                let path = self.t[s..e].iter().take_while(|t| !stop(t));
                path.filter_map(|t| t.ident()).last().map(str::to_string)
            })
            .collect()
    }

    /// Read `Name: Bound + …` entries, separated by top-level commas in
    /// tokens `[k, end)`, into `g`. Lifetimes, `const` params and
    /// predicates on anything but a bare name are skipped.
    fn bounds_into(&self, k: usize, end: usize, g: &mut Generics) {
        for (s, e) in self.split_top(k, end, ',') {
            let Some(name) = self.t[s].ident().filter(|n| *n != "const") else {
                continue;
            };
            let bounds = match self.is_colon(s + 1) {
                true => self.bounds(s + 2, e),
                false if e == s + 1 => Vec::new(),
                false => continue,
            };
            match g.iter_mut().find(|(n, _)| n == name) {
                Some((_, b)) => b.extend(bounds),
                None => g.push((name.to_string(), bounds)),
            }
        }
    }

    /// At a `<`: read the generic parameter list into `g`.
    fn generics(&mut self, g: &mut Generics) {
        let start = self.i + 1;
        self.skip_angle();
        self.bounds_into(start, self.i.saturating_sub(1), g);
    }

    /// Skip the rest of a header (return type, supertraits, a tuple
    /// struct's body) up to its `{` or `;` (not consumed), reading any
    /// `where` predicates into `g`.
    fn where_clause(&mut self, g: &mut Generics) {
        let start = self.i;
        while self.i < self.t.len() && !self.punct_at(0, '{') && !self.punct_at(0, ';') {
            if self.punct_at(0, '<') {
                self.skip_angle();
            } else if self.punct_at(0, '(') {
                self.skip_balanced('(', ')');
            } else {
                self.i += 1;
            }
        }
        if let Some(w) = (start..self.i).find(|&k| self.t[k].ident() == Some("where")) {
            self.bounds_into(w + 1, self.i, g);
        }
    }

    /// At a struct's or enum's `{`: record each named field's type, and
    /// each variant's payload as fields `Variant.0` or `Variant.name`.
    fn fields(&mut self, owner: &str, is_enum: bool, scope: &Scope) {
        let open = self.i;
        self.skip_balanced('{', '}');
        let close = self.i - 1;
        if !is_enum {
            return self.named_fields(owner, "", open + 1, close, scope);
        }
        for (s, e) in self.split_top(open + 1, close, ',') {
            let mut k = s;
            while self.is(k, '#') {
                k = self.close_of(k + 1) + 1; // a variant's attribute
            }
            let Some(variant) = self.t.get(k).filter(|_| k < e).and_then(|t| t.ident()) else {
                continue;
            };
            if self.is(k + 1, '(') {
                self.tuple_fields(owner, &format!("{variant}."), k + 1, scope);
            } else if self.is(k + 1, '{') {
                self.named_fields(owner, &format!("{variant}."), k + 2, self.close_of(k + 1), scope);
            }
        }
    }

    /// The `(A, pub B)` fields opening at `open`, recorded as `prefix` +
    /// position.
    fn tuple_fields(&mut self, owner: &str, prefix: &str, open: usize, scope: &Scope) {
        for (i, (mut k, _)) in self.split_top(open + 1, self.close_of(open), ',').into_iter().enumerate() {
            if self.t[k].ident() == Some("pub") {
                k += 1;
                if self.is(k, '(') {
                    k = self.close_of(k) + 1; // `pub(crate)`
                }
            }
            let ty = self.ty_at(k, scope);
            self.out.fields.push((owner.to_string(), format!("{prefix}{i}"), ty));
        }
    }

    /// `name: Type` fields in tokens `[start, end)`, recorded as
    /// `prefix` + name.
    fn named_fields(&mut self, owner: &str, prefix: &str, start: usize, end: usize, scope: &Scope) {
        for (s, e) in self.split_top(start, end, ',') {
            let Some(c) = (s + 1..e).find(|&k| self.is_colon(k)) else {
                continue;
            };
            if let Some(field) = self.t[c - 1].ident() {
                let ty = self.ty_at(c + 1, scope);
                self.out.fields.push((owner.to_string(), format!("{prefix}{field}"), ty));
            }
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
    fn function(&mut self, scope: &Scope) {
        let mut f = FnDef {
            name: self.ident_at(1).unwrap_or("").to_string(),
            module: scope.module.clone(),
            self_type: scope.self_type.clone(),
            trait_name: scope.trait_name.clone(),
            line: self.line(),
            ..FnDef::default()
        };
        self.i += 2; // `fn name`
        let mut scope = scope.clone();
        if self.punct_at(0, '<') {
            self.generics(&mut scope.generics);
        }
        // The params are typed after the `where` clause is read.
        let open = self.i;
        self.skip_balanced('(', ')');
        let close = self.i.saturating_sub(1);
        self.where_clause(&mut scope.generics);
        if self.is(open, '(') {
            self.params(&mut f, open + 1, close, &scope);
        }
        if self.punct_at(0, '{') {
            self.i += 1;
            self.body(&mut f, &scope);
        } else {
            self.eat(';'); // bodyless trait decl
        }
        self.out.fns.push(f);
    }

    /// The parameter list in tokens `[start, end)`: bindings with their
    /// types and float hints.
    fn params(&mut self, f: &mut FnDef, start: usize, end: usize, scope: &Scope) {
        for (s, e) in self.split_top(start, end, ',') {
            let Some(colon) = (s..e).find(|&k| self.is_colon(k)) else {
                continue; // `self`, `&mut self`
            };
            let names: Vec<&str> =
                self.t[s..colon].iter().filter_map(|t| t.ident()).filter(|id| !is_keyword(id)).collect();
            let float_hint = self.t[colon..e].iter().any(|t| is_float(t));
            let ty = if names.len() == 1 { self.ty_at(colon + 1, scope) } else { Ty::Unknown };
            for name in names {
                f.bindings.push(Binding { name: name.to_string(), float_hint, val: Recv::of(ty.clone()) });
            }
        }
    }

    /// Walk a function body collecting events. Starts just past the
    /// opening `{` (depth 1); consumes through the matching `}`.
    fn body(&mut self, f: &mut FnDef, scope: &Scope) {
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
                    self.i += 1;
                }
                TokKind::Punct('#') => {
                    self.i += 1;
                    self.eat('!');
                    self.skip_balanced('[', ']');
                }
                TokKind::Punct('(') => {
                    self.call_at_paren(f, scope);
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
                        // nested fn: its own def, events attach to it
                        "fn" => self.function(scope),
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
                                            float_hint: false,
                                            val: Recv::of(Ty::Unknown),
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
                        "let" => self.let_binding(f, scope),
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
    /// callee path (`f(`, `a::f(`) or a `.method(` receiver call.
    fn call_at_paren(&mut self, f: &mut FnDef, scope: &Scope) {
        let Some(k) = self.i.checked_sub(1) else {
            return;
        };
        let Some(id) = self.t[k].ident() else {
            return;
        };
        if is_keyword(id) && id != "Self" && id != "self" {
            return;
        }
        let method = self.after_dot(k);
        let (path, recv) = match method {
            true => (vec![id.to_string()], Some(self.receiver(f, k - 1, scope))),
            false => (self.path_ending_at(k), None),
        };
        if let (false, Ty::Named(owner)) = (method || !is_upper(id), scope.ctor(&path)) {
            self.variant_bindings(f, &owner, id);
        }
        f.calls.push(CallEvent { line: self.line(), path, recv, paren: self.i });
    }

    /// At the `(` of `Enum::Variant(a, b)`: bind each lone name to its
    /// payload field. In a pattern that is the binding's type; in an
    /// expression the name already holds a value of that type.
    fn variant_bindings(&self, f: &mut FnDef, owner: &str, variant: &str) {
        for (i, (s, e)) in self.split_top(self.i + 1, self.close_of(self.i), ',').into_iter().enumerate() {
            let seg = &self.t[s..e];
            let names: Vec<&str> = seg.iter().filter_map(|t| t.ident()).filter(|id| !is_keyword(id)).collect();
            if names.len() == 1 && seg.iter().all(|t| t.ident().is_some() || t.is_punct('&')) {
                let step = Step::Field(format!("{variant}.{i}"));
                let val = Recv { root: Root::Ty(Ty::Named(owner.to_string())), steps: vec![step] };
                f.bindings.push(Binding { name: names[0].to_string(), float_hint: false, val });
            }
        }
    }

    /// The receiver expression that ends just before the `.` at `dot`.
    fn receiver(&self, f: &FnDef, mut dot: usize, scope: &Scope) -> Recv {
        let mut steps = Vec::new();
        let mut recv = loop {
            let Some(k) = dot.checked_sub(1) else {
                break Recv::of(Ty::Unknown);
            };
            match &self.t[k].kind {
                TokKind::Ident(id) | TokKind::Num { text: id, .. } if self.after_dot(k) => {
                    steps.push(Step::Field(id.clone()));
                    dot = k - 1;
                }
                TokKind::Punct(']') => {
                    steps.push(Step::Index);
                    dot = self.open_of(k);
                }
                TokKind::Ident(id) if id == "self" => break Recv::of(scope.self_ty()),
                TokKind::Ident(id) if !self.is(k.wrapping_sub(1), ':') => {
                    match f.bindings.iter().rev().find(|b| b.name == *id) {
                        Some(b) => break b.val.clone(),
                        // an unbound SCREAMING_CASE name is a static or const
                        None if !id.chars().any(|c| c.is_ascii_lowercase()) => {
                            let steps = vec![Step::Field(id.clone())];
                            break Recv { root: Root::Ty(Ty::Named(String::new())), steps };
                        }
                        None => break Recv::of(Ty::Unknown),
                    }
                }
                TokKind::Punct(')') => {
                    let open = self.open_of(k);
                    break match f.calls.iter().rposition(|c| c.paren == open) {
                        Some(i) if f.calls[i].recv.is_some() => Recv { root: Root::Call(i), steps: Vec::new() },
                        Some(i) => match scope.ctor(&f.calls[i].path) {
                            Ty::Unknown => Recv { root: Root::Call(i), steps: Vec::new() },
                            ty => Recv::of(ty),
                        },
                        None => Recv::of(Ty::Unknown),
                    };
                }
                _ => break Recv::of(Ty::Unknown),
            }
        };
        recv.steps.extend(steps.into_iter().rev());
        recv
    }

    /// Index of the bracket opening the one that closes at `k`.
    fn open_of(&self, mut k: usize) -> usize {
        let mut depth = 0usize;
        loop {
            match self.t[k].kind {
                TokKind::Punct(')' | ']' | '}') => depth += 1,
                TokKind::Punct('(' | '[' | '{') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return k;
                    }
                }
                _ => {}
            }
            if k == 0 {
                return 0;
            }
            k -= 1;
        }
    }

    /// Index of the bracket closing the one that opens at `k`.
    fn close_of(&self, k: usize) -> usize {
        let mut depth = 0usize;
        for j in k..self.t.len() {
            match self.t[j].kind {
                TokKind::Punct('(' | '[' | '{') => depth += 1,
                TokKind::Punct(')' | ']' | '}') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return j;
                    }
                }
                _ => {}
            }
        }
        self.t.len()
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
            if k >= 3 && self.is(k - 1, ':') && self.is(k - 2, ':') {
                k -= 3;
                // generic turbofish `Foo::<T>::bar` — give up cleanly
                if self.t[k].ident().is_none() {
                    break;
                }
                continue;
            }
            break;
        }
        segs.reverse();
        segs
    }

    /// At a `[`: record an index expression when the bracket is in
    /// postfix position (previous token ends an expression).
    fn index_at_bracket(&mut self, f: &mut FnDef) {
        let Some(prev) = (self.i >= 1).then(|| self.t[self.i - 1]) else {
            return;
        };
        let postfix = match &prev.kind {
            TokKind::Ident(id) => !is_keyword(id) || id == "self",
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('?') => true,
            _ => false,
        };
        // `x[..]` is the full-range slice — it cannot panic; skip it.
        let full_range = self.punct_at(1, '.') && self.punct_at(2, '.') && self.punct_at(3, ']');
        if postfix && !full_range {
            f.index_lines.push(self.line());
        }
    }

    /// At `+ =`: record a compound add if inside a loop body.
    fn compound_add(&mut self, f: &mut FnDef, loops: &[usize]) {
        if loops.is_empty() {
            return;
        }
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
        let float_stmt = stmt_mentions_float(&self.t, self.i);
        f.adds.push(AddEvent { line: self.line(), lhs, float_stmt });
    }

    /// `let` statement: record pattern bindings with a float hint from
    /// the rest of the statement and, for a single name, the written type
    /// or the `Type::ctor(…)` initialiser's type.
    fn let_binding(&mut self, f: &mut FnDef, scope: &Scope) {
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
                if !is_keyword(id) && !is_upper(id) {
                    names.push(id.to_string());
                }
            } else if t.is_punct('{') {
                break; // struct pattern: too clever; bail
            }
            self.i += 1;
        }
        let float_hint = stmt_mentions_float(&self.t, self.i);
        let ty = match names.len() {
            1 if self.is_colon(self.i) => self.ty_at(self.i + 1, scope),
            1 if self.punct_at(0, '=') => {
                // `Type::ctor(`: walk the path forward to its `(`
                let mut k = self.i + 1;
                while self.is(k + 1, ':') && self.is(k + 2, ':') {
                    k += 3;
                }
                match self.is(k + 1, '(') {
                    true => scope.ctor(&self.path_ending_at(k)),
                    false => Ty::Unknown,
                }
            }
            _ => Ty::Unknown,
        };
        for name in names {
            f.bindings.push(Binding { name, float_hint, val: Recv::of(ty.clone()) });
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
        let mut names: Vec<String> = Vec::new();
        let mut in_type = false;
        while k < self.t.len() && k < self.i + 24 {
            let t = self.t[k];
            if t.is_punct('|') {
                for name in names {
                    f.bindings.push(Binding { name, float_hint: false, val: Recv::of(Ty::Unknown) });
                }
                self.i = k + 1;
                return;
            }
            match &t.kind {
                TokKind::Ident(id) => {
                    if !in_type && !is_keyword(id) {
                        names.push(id.to_string());
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

    fn binds(f: &FnDef, name: &str) -> bool {
        f.bindings.iter().any(|b| b.name == name)
    }

    /// The type a binding was declared with (no steps from its root).
    fn ty_of<'f>(f: &'f FnDef, name: &str) -> &'f Ty {
        let b = f.bindings.iter().rev().find(|b| b.name == name).unwrap();
        match (&b.val.root, b.val.steps.is_empty()) {
            (Root::Ty(t), true) => t,
            _ => panic!("`{name}` is not a typed binding: {:?}", b.val),
        }
    }

    fn seq(t: Ty) -> Ty {
        Ty::Seq(Box::new(t))
    }

    fn named(s: &str) -> Ty {
        Ty::Named(s.to_string())
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
        assert_eq!(a.fns[0].self_type, None);
        assert_eq!(a.fns[0].calls.len(), 1);
        assert_eq!(a.fns[0].calls[0].path, vec!["g"]);
        assert_eq!(a.fns[1].self_type.as_deref(), Some("Foo"));
        assert!(a.fns[1].calls[0].recv.is_some());
        assert_eq!(a.fns[1].calls[0].name(), "h");
    }

    #[test]
    fn trait_impl_self_type_is_the_type() {
        let a = ast(
            "impl KvRows for KvCache<E> { fn len(&self) -> usize { 0 } }\n\
             impl Default for SamplerConfig { fn default() -> Self { todo!() } }\n\
             trait T { fn a(&self); }\n",
        );
        assert_eq!(a.fns[0].self_type.as_deref(), Some("KvCache"));
        assert_eq!(a.fns[0].trait_name.as_deref(), Some("KvRows"));
        assert_eq!(a.fns[1].self_type.as_deref(), Some("SamplerConfig"));
        assert_eq!((a.fns[2].self_type.as_deref(), a.fns[2].trait_name.as_deref()), (Some("T"), Some("T")));
    }

    #[test]
    fn path_calls_and_macros() {
        let a = ast(
            "fn f() {\n    a::b::g(1);\n    obs::static_histogram!(\"x\").observe(1);\n    panic!(\"no\");\n    \
             v.expect(\"set\");\n}\n",
        );
        let f = &a.fns[0];
        assert!(f.calls.iter().any(|c| c.path == vec!["a", "b", "g"] && c.line == 2));
        assert!(f.macros.iter().any(|m| m.path == vec!["obs", "static_histogram"] && m.line == 3));
        assert!(f.macros.iter().any(|m| m.name() == "panic" && m.line == 4));
        assert!(f.calls.iter().any(|c| c.recv.is_some() && c.name() == "expect" && c.line == 5));
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
        assert!(binds(f, "acc") && binds(f, "x") && binds(f, "xs"));
        let acc = f.bindings.iter().find(|b| b.name == "acc").unwrap();
        assert!(acc.float_hint, "0.0f32 initializer should set the hint");
        // g's += is outside any loop
        assert!(a.fns[1].adds.is_empty());
    }

    #[test]
    fn closure_params_bound() {
        let a = ast("fn f(s: &mut [u8]) { run(|i, part| { part[i] = 0; }); }\n");
        assert!(binds(&a.fns[0], "part") && binds(&a.fns[0], "i"));
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
            "pub fn scatter<T, F>(slots: &mut [T], f: F)\nwhere\n    T: Send,\n    F: Fn(usize, &mut T) + Sync,\n{\n    f(0, &mut slots[0]);\n}\n\
             fn sample<M: InferenceModel + ?Sized>(m: &mut M) {}\n",
        );
        assert_eq!(a.fns[0].name, "scatter");
        assert!(binds(&a.fns[0], "slots") && binds(&a.fns[0], "f"));
        assert_eq!(a.fns[0].index_lines, vec![6]);
        assert_eq!(ty_of(&a.fns[0], "f"), &Ty::Traits(vec!["Fn".into(), "Sync".into()]));
        assert_eq!(ty_of(&a.fns[0], "slots"), &seq(Ty::Traits(vec!["Send".into()])));
        assert_eq!(ty_of(&a.fns[1], "m"), &Ty::Traits(vec!["InferenceModel".into(), "Sized".into()]));
    }

    #[test]
    fn bodyless_trait_methods() {
        let a = ast("trait T { fn a(&self); fn b(&self) { self.a(); } }\n");
        assert_eq!(a.fns.len(), 2);
        assert_eq!(a.fns[0].name, "a");
        assert!(a.fns[1].calls.iter().any(|c| c.name() == "a"));
    }

    #[test]
    fn written_types_of_params_lets_and_fields() {
        let a = ast(
            "struct Block { qkv: Linear, pub backend: Box<dyn StepBackend + Send>, rows: Vec<f32> }\n\
             enum Metric { Counter(Arc<Counter>), #[default] Gauge { g: Gauge }, Empty }\n\
             impl<B: Backend> Block {\n    fn f(&self, b: &B, d: &mut dyn StepBackend, n: Arc<Pool>, s: Self) {\n        \
             let x = Tensor::zeros(4);\n        let y: Option<u8> = None;\n        let z = make();\n        \
             for w in d.items() {}\n    }\n}\n",
        );
        let field = |f: &str| &a.fields.iter().find(|(s, n, _)| s == "Block" && n == f).unwrap().2;
        assert_eq!(field("qkv"), &named("Linear"));
        assert_eq!(field("backend"), &Ty::Traits(vec!["StepBackend".into(), "Send".into()]));
        assert_eq!(field("rows"), &seq(named("f32")));
        let variant = |f: &str| &a.fields.iter().find(|(s, n, _)| s == "Metric" && n == f).unwrap().2;
        assert_eq!((variant("Counter.0"), variant("Gauge.g")), (&named("Counter"), &named("Gauge")));
        let f = &a.fns[0];
        assert_eq!(ty_of(f, "b"), &Ty::Traits(vec!["Backend".into()]));
        assert_eq!(ty_of(f, "d"), &Ty::Traits(vec!["StepBackend".into()]));
        assert_eq!(ty_of(f, "n"), &named("Pool"));
        assert_eq!(ty_of(f, "s"), &named("Block"));
        assert_eq!(ty_of(f, "x"), &named("Tensor"));
        assert_eq!(ty_of(f, "y"), &named("Option"));
        assert_eq!(ty_of(f, "z"), &Ty::Unknown);
        assert_eq!(ty_of(f, "w"), &Ty::Unknown);
    }

    #[test]
    fn receivers_are_roots_with_steps_and_chains() {
        let a = ast(
            "impl Block {\n    fn f(&self, xs: &[f32]) {\n        self.qkv.forward(1);\n        \
             xs.iter().map(|x| x).sum();\n        Tensor::new().reshape();\n        \
             match m { Metric::Histogram(h) => h.buckets[i].load(), _ => {} }\n    }\n}\n",
        );
        let calls = &a.fns[0].calls;
        let recv = |name: &str| calls.iter().find(|c| c.name() == name).unwrap().recv.as_ref().unwrap();
        let fwd = recv("forward");
        assert!(matches!(&fwd.root, Root::Ty(t) if *t == named("Block")));
        assert_eq!(fwd.steps, vec![Step::Field("qkv".into())]);
        let load = recv("load");
        assert!(matches!(&load.root, Root::Ty(t) if *t == named("Metric")), "{load:?}");
        let steps = ["Histogram.0", "buckets"].map(|f| Step::Field(f.into()));
        assert_eq!(load.steps, [&steps[..], &[Step::Index]].concat());
        assert!(matches!(&recv("iter").root, Root::Ty(t) if *t == seq(named("f32"))));
        let map = calls.iter().position(|c| c.name() == "map").unwrap();
        assert!(matches!(recv("sum").root, Root::Call(i) if i == map));
        assert!(matches!(&recv("reshape").root, Root::Ty(t) if *t == named("Tensor")));
    }

    #[test]
    fn macro_rules_bodies_are_fns_and_test_items_are_spans() {
        let a = ast(
            "#[macro_export]\nmacro_rules! hist {\n    ($n:expr) => {{ $crate::metrics::histogram($n) }};\n}\n\
             fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n#[test]\nfn t() {}\n",
        );
        assert_eq!(a.fns[0].display(), "hist!");
        assert_eq!(a.fns[0].calls[0].path, vec!["crate", "metrics", "histogram"]);
        assert_eq!(a.test_spans, vec![(6, 9), (10, 11)]);
    }
}
