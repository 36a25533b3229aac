//! A small Rust lexer — just enough structure for line-accurate lint rules.
//!
//! Produces a flat token stream with start/end line numbers. The goal is
//! never full parsing: rules match short token sequences (`Instant :: now`,
//! `. unwrap (`) and reason about per-line layout (comments vs. code), so
//! the lexer's one hard job is classifying text correctly: line and nested
//! block comments, string / raw-string / byte-string / char literals, and
//! the `'a'` char vs `'a` lifetime ambiguity. Anything inside a literal or
//! comment must never look like code to a rule.

/// One lexed token.
#[derive(Debug, Clone, PartialEq)]
pub struct Tok {
    /// 1-based line the token starts on.
    pub line: u32,
    /// 1-based line the token ends on (multi-line strings/comments).
    pub end_line: u32,
    pub kind: TokKind,
}

/// Token classification.
#[derive(Debug, Clone, PartialEq)]
pub enum TokKind {
    /// Identifier or keyword (includes raw identifiers, prefix stripped).
    Ident(String),
    /// A lifetime such as `'a` or `'static` (name without the quote).
    Lifetime(String),
    /// Numeric literal (its source text); `float` is true for obvious
    /// f32/f64 literals.
    Num { float: bool, text: String },
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Char or byte-char literal (`'x'`, `b'\n'`).
    Char,
    /// Comment. `line` is true for `//…`, false for `/*…*/`; `doc` marks
    /// `///`, `//!`, `/**`, `/*!`. `text` is the trimmed comment body.
    Comment { line: bool, doc: bool, text: String },
    /// Any other single punctuation character.
    Punct(char),
}

impl Tok {
    /// True for a comment token.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::Comment { .. })
    }

    /// The identifier text, if this is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c >= 0x80
}

fn is_ident_cont(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80
}

/// Lex `src` into tokens. Never fails: unterminated literals are closed at
/// end of input (the linter must degrade gracefully on half-written code).
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer {
        b: src.as_bytes(),
        src,
        i: 0,
        line: 1,
        toks: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    b: &'a [u8],
    src: &'a str,
    i: usize,
    line: u32,
    toks: Vec<Tok>,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Tok> {
        while self.i < self.b.len() {
            let c = self.b[self.i];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                c if c.is_ascii_whitespace() => self.i += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string(),
                b'\'' => self.char_or_lifetime(),
                c if is_ident_start(c) => self.ident_or_prefixed_literal(),
                c if c.is_ascii_digit() => self.number(),
                c => {
                    self.push1(TokKind::Punct(c as char));
                    self.i += 1;
                }
            }
        }
        self.toks
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.b.get(self.i + ahead).copied()
    }

    fn push1(&mut self, kind: TokKind) {
        self.toks.push(Tok {
            line: self.line,
            end_line: self.line,
            kind,
        });
    }

    fn push_span(&mut self, start_line: u32, kind: TokKind) {
        self.toks.push(Tok {
            line: start_line,
            end_line: self.line,
            kind,
        });
    }

    fn line_comment(&mut self) {
        let start = self.i;
        while self.i < self.b.len() && self.b[self.i] != b'\n' {
            self.i += 1;
        }
        let raw = &self.src[start..self.i];
        let (doc, body) = if let Some(r) = raw.strip_prefix("///") {
            // `////…` dividers are plain comments, not docs
            (!r.starts_with('/'), r)
        } else if let Some(r) = raw.strip_prefix("//!") {
            (true, r)
        } else {
            (false, &raw[2..])
        };
        self.push1(TokKind::Comment {
            line: true,
            doc,
            text: body.trim().to_string(),
        });
    }

    fn block_comment(&mut self) {
        let start_line = self.line;
        let start = self.i;
        self.i += 2; // consume `/*`
        let doc = matches!(self.peek(0), Some(b'*') | Some(b'!'))
            // `/**/` and `/***/`-style dividers are not doc comments
            && self.peek(1) != Some(b'/');
        let mut depth = 1usize;
        while self.i < self.b.len() && depth > 0 {
            match (self.b[self.i], self.peek(1)) {
                (b'/', Some(b'*')) => {
                    depth += 1;
                    self.i += 2;
                }
                (b'*', Some(b'/')) => {
                    depth -= 1;
                    self.i += 2;
                }
                (b'\n', _) => {
                    self.line += 1;
                    self.i += 1;
                }
                _ => self.i += 1,
            }
        }
        let raw = &self.src[start..self.i];
        let body = raw
            .trim_start_matches('/')
            .trim_start_matches('*')
            .trim_start_matches('!')
            .trim_end_matches('/')
            .trim_end_matches('*');
        self.push_span(
            start_line,
            TokKind::Comment {
                line: false,
                doc,
                text: body.trim().to_string(),
            },
        );
    }

    /// A `"…"` string starting at `self.i`. Handles `\` escapes and
    /// embedded newlines, including the newline of a `\` line continuation.
    fn string(&mut self) {
        let start_line = self.line;
        self.i += 1; // opening quote
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'\\' => {
                    if self.peek(1) == Some(b'\n') {
                        self.line += 1;
                    }
                    self.i += 2;
                }
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b'"' => {
                    self.i += 1;
                    break;
                }
                _ => self.i += 1,
            }
        }
        self.push_span(start_line, TokKind::Str);
    }

    /// A raw string starting at the `#`s or `"` (prefix `r`/`br` already
    /// consumed). `hashes` is the number of `#`s before the opening quote.
    fn raw_string(&mut self, hashes: usize) {
        let start_line = self.line;
        self.i += hashes + 1; // `#…#` then `"`
        'scan: while self.i < self.b.len() {
            match self.b[self.i] {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b'"' => {
                    // closing quote must be followed by `hashes` #s
                    if (1..=hashes).all(|k| self.peek(k) == Some(b'#')) {
                        self.i += 1 + hashes;
                        break 'scan;
                    }
                    self.i += 1;
                }
                _ => self.i += 1,
            }
        }
        self.push_span(start_line, TokKind::Str);
    }

    /// `'` — either a char literal (`'x'`, `'\n'`) or a lifetime (`'a`).
    fn char_or_lifetime(&mut self) {
        match self.peek(1) {
            Some(b'\\') => {
                // escaped char literal (`'\n'`, `'\''`, `'\\'`, `'\u{..}'`):
                // past the escaped byte, scan to the closing quote
                self.i += 3;
                while self.i < self.b.len() && !matches!(self.b[self.i], b'\'' | b'\n') {
                    self.i += 1;
                }
                if self.b.get(self.i) == Some(&b'\'') {
                    self.i += 1;
                }
                self.push1(TokKind::Char);
            }
            Some(c) if is_ident_cont(c) => {
                // `'a'` is a char; `'a` / `'static` is a lifetime. Scan the
                // identifier run and look for a closing quote.
                let mut k = self.i + 1;
                while k < self.b.len() && is_ident_cont(self.b[k]) {
                    k += 1;
                }
                if self.b.get(k) == Some(&b'\'') {
                    self.i = k + 1;
                    self.push1(TokKind::Char);
                } else {
                    let name = self.src[self.i + 1..k].to_string();
                    self.i = k;
                    self.push1(TokKind::Lifetime(name));
                }
            }
            Some(_) => {
                // punctuation char literal like `'('`
                let mut k = self.i + 1;
                while k < self.b.len() && self.b[k] != b'\'' && self.b[k] != b'\n' {
                    k += 1;
                }
                // a newline is left for `run` to count
                self.i = if self.b.get(k) == Some(&b'\'') { k + 1 } else { k };
                self.push1(TokKind::Char);
            }
            None => {
                self.i += 1;
                self.push1(TokKind::Punct('\''));
            }
        }
    }

    /// Identifier, or one of the literal prefixes `r"` `r#"` `b"` `br"`
    /// `b'` — plus raw identifiers `r#name`.
    fn ident_or_prefixed_literal(&mut self) {
        let start = self.i;
        let mut k = self.i;
        while k < self.b.len() && is_ident_cont(self.b[k]) {
            k += 1;
        }
        let word = &self.src[start..k];
        let next = self.b.get(k).copied();
        match (word, next) {
            ("r" | "b" | "br" | "rb", Some(b'"')) => {
                self.i = k;
                if word.contains('r') {
                    self.raw_string(0);
                } else {
                    self.string();
                }
            }
            ("r" | "br", Some(b'#')) => {
                // count hashes; a `"` after them means raw string, anything
                // else means raw identifier (`r#fn`)
                let mut h = 0usize;
                while self.b.get(k + h) == Some(&b'#') {
                    h += 1;
                }
                if self.b.get(k + h) == Some(&b'"') {
                    self.i = k;
                    self.raw_string(h);
                } else {
                    // raw identifier: token is the name without `r#`
                    let mut j = k + 1;
                    while j < self.b.len() && is_ident_cont(self.b[j]) {
                        j += 1;
                    }
                    let name = self.src[k + 1..j].to_string();
                    self.i = j;
                    self.push1(TokKind::Ident(name));
                }
            }
            ("b", Some(b'\'')) => {
                self.i = k;
                self.char_or_lifetime();
            }
            _ => {
                self.i = k;
                self.push1(TokKind::Ident(word.to_string()));
            }
        }
    }

    fn number(&mut self) {
        let start = self.i;
        let mut float = false;
        while self.i < self.b.len() {
            let c = self.b[self.i];
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.i += 1;
            } else if c == b'.' {
                // `1..n` range or `1.max(2)` method call — the dot belongs
                // to the range/call, not the number
                match self.peek(1) {
                    Some(d) if d.is_ascii_digit() => {
                        float = true;
                        self.i += 1;
                    }
                    Some(d) if is_ident_start(d) || d == b'.' => break,
                    _ => {
                        // trailing-dot float like `1.`
                        float = true;
                        self.i += 1;
                    }
                }
            } else if (c == b'+' || c == b'-')
                && matches!(self.b.get(self.i - 1), Some(b'e') | Some(b'E'))
                && self.src[start..self.i].chars().next().map_or(false, |f| f.is_ascii_digit())
                && (float || self.src[start..self.i].contains(['e', 'E']))
            {
                // exponent sign inside `1e-3`
                self.i += 1;
            } else {
                break;
            }
        }
        let text = &self.src[start..self.i];
        if text.ends_with("f32") || text.ends_with("f64") {
            float = true;
        } else if !float {
            // Scientific notation: a digit, then `e`/`E`, optional sign,
            // digits to the end. (A plain `contains('e')` would tag every
            // `0usize`/`3else` — "usize" has an `e` in it.)
            let b = text.as_bytes();
            if let Some(k) = b.iter().position(|&c| c == b'e' || c == b'E') {
                let mantissa_ok = k > 0 && b[k - 1].is_ascii_digit();
                let exp = match b.get(k + 1) {
                    Some(b'+') | Some(b'-') => &b[k + 2..],
                    _ => &b[k + 1..],
                };
                if mantissa_ok && !exp.is_empty() && exp.iter().all(|c| c.is_ascii_digit()) {
                    float = true;
                }
            }
        }
        // hex/binary/octal literals can contain `e` — never floats
        if text.starts_with("0x") || text.starts_with("0b") || text.starts_with("0o") {
            float = false;
        }
        self.push1(TokKind::Num { float, text: text.to_string() });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokKind> {
        lex(src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_and_puncts() {
        assert_eq!(
            kinds("let x = y;"),
            vec![
                TokKind::Ident("let".into()),
                TokKind::Ident("x".into()),
                TokKind::Punct('='),
                TokKind::Ident("y".into()),
                TokKind::Punct(';'),
            ]
        );
    }

    #[test]
    fn nested_block_comment() {
        let toks = lex("/* outer /* inner */ still comment */ code");
        assert_eq!(toks.len(), 2);
        assert!(toks[0].is_comment());
        assert_eq!(toks[1].ident(), Some("code"));
    }

    #[test]
    fn raw_string_with_fake_unsafe() {
        let toks = lex(r####"let s = r#"unsafe { /* not code " */ }"#; next"####);
        let idents: Vec<_> = toks.iter().filter_map(|t| t.ident()).collect();
        assert_eq!(idents, vec!["let", "s", "next"]);
        assert!(toks.iter().any(|t| t.kind == TokKind::Str));
    }

    #[test]
    fn char_vs_lifetime() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'a'; let n = '\\n'; }");
        let lifetimes = toks
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Lifetime(_)))
            .count();
        let chars = toks.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 2);
    }

    #[test]
    fn byte_and_raw_literals() {
        let toks = lex(r#"let a = b"bytes"; let c = b'x'; let r = br"raw";"#);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 2);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 1);
    }

    #[test]
    fn raw_identifier() {
        let toks = lex("let r#fn = 1;");
        assert!(toks.iter().any(|t| t.ident() == Some("fn")));
    }

    #[test]
    fn multiline_string_tracks_lines() {
        let toks = lex("let s = \"line1\nline2\";\nlet t = 1;");
        let s = toks.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert_eq!((s.line, s.end_line), (1, 2));
        let t = toks.iter().find(|t| t.ident() == Some("t")).unwrap();
        assert_eq!(t.line, 3);
        // a `\` line continuation ends its line too
        let toks = lex("let s = \"a \\\n   b\";\nlet t = 1;");
        let s = toks.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert_eq!((s.line, s.end_line), (1, 2));
        let t = toks.iter().find(|t| t.ident() == Some("t")).unwrap();
        assert_eq!(t.line, 3);
        // an escaped backslash or quote closes its char literal
        let toks = lex("let a = b'\\\\';\nlet b = '\\'';\nlet t = 1;");
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 2);
        let t = toks.iter().find(|t| t.ident() == Some("t")).unwrap();
        assert_eq!(t.line, 3);
    }

    #[test]
    fn float_detection() {
        let toks = lex("let a = 1.5; let b = 2; let c = 3.0f32; let d = 1e-3; let r = 0..10;\nlet n = 0usize; let m = 4e2; let h = 0xDEAD;");
        let floats: Vec<bool> = toks
            .iter()
            .filter_map(|t| match t.kind {
                TokKind::Num { float, .. } => Some(float),
                _ => None,
            })
            .collect();
        assert_eq!(floats, vec![true, false, true, true, false, false, false, true, false]);
    }

    #[test]
    fn doc_comments_flagged() {
        let toks = lex("/// doc\n//! inner\n// plain\nx");
        let docs: Vec<bool> = toks
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Comment { doc, .. } => Some(*doc),
                _ => None,
            })
            .collect();
        assert_eq!(docs, vec![true, true, false]);
    }

    #[test]
    fn unsafe_in_string_is_not_code() {
        let toks = lex(r#"let msg = "unsafe { code }";"#);
        assert!(!toks.iter().any(|t| t.ident() == Some("unsafe")));
    }
}
