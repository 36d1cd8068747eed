//! A minimal Rust lexer: just enough token structure to lint reliably.
//!
//! The lexer understands every construct that could hide a false match
//! from a text-based scan — line and (nested) block comments, string and
//! byte-string literals with escapes, raw strings with hash fences, char
//! literals versus lifetimes, raw identifiers, and the float-versus-
//! integer distinction (`1..2`, `1.max(2)`, `1e-6`, `0x1f`, `1f64`) —
//! while ignoring everything a linter does not need (keywords, operator
//! precedence, syntax trees).

/// A significant token with its 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub line: u32,
}

#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword (`foo`, `unsafe`). Raw identifiers
    /// (`r#unsafe`) are marked `raw` so rules can skip them.
    Ident { name: String, raw: bool },
    /// `'a`, `'static`, `'_`.
    Lifetime,
    /// Integer literal, including hex/octal/binary and suffixed forms.
    Int,
    /// Float literal (`1.5`, `1.`, `1e-6`, `1f64`).
    Float,
    /// Any string-like literal: `"…"`, `b"…"`, `c"…"`, `r#"…"#`, `br"…"`.
    Str,
    /// Char or byte-char literal: `'a'`, `'\u{1F600}'`, `b'\n'`.
    Char,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// Any other single punctuation character.
    Punct(char),
}

impl Token {
    pub fn is_ident(&self, name: &str) -> bool {
        matches!(&self.kind, TokenKind::Ident { name: n, raw: false } if n == name)
    }

    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

/// A comment (line or block) with its 1-based starting line.
#[derive(Debug, Clone)]
pub struct Comment {
    pub line: u32,
    /// Text after `//` (line) or between `/*` and `*/` (block).
    pub text: String,
    /// Index of the first token after the comment.
    pub next_token: usize,
}

pub struct LexOutput {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

/// Tokenizes `src`. Unterminated constructs are closed at end of input —
/// the linter degrades gracefully on malformed files instead of failing.
pub fn lex(src: &str) -> LexOutput {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        tokens: Vec::new(),
        comments: Vec::new(),
    }
    .run()
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    tokens: Vec<Token>,
    comments: Vec<Comment>,
}

impl Lexer {
    fn peek(&self, n: usize) -> Option<char> {
        self.chars.get(self.pos + n).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(ch) = c {
            self.pos += 1;
            if ch == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn run(mut self) -> LexOutput {
        while let Some(c) = self.peek(0) {
            if c.is_whitespace() {
                self.bump();
            } else if c == '/' && self.peek(1) == Some('/') {
                self.line_comment();
            } else if c == '/' && self.peek(1) == Some('*') {
                self.block_comment();
            } else if c == '"' {
                self.string(self.line);
            } else if c == '\'' {
                self.char_or_lifetime();
            } else if c.is_ascii_digit() {
                self.number();
            } else if is_ident_start(c) {
                if !self.raw_or_prefixed_literal() {
                    self.ident(false);
                }
            } else {
                let line = self.line;
                self.bump();
                let kind = match c {
                    '=' if self.peek(0) == Some('=') => {
                        self.bump();
                        TokenKind::EqEq
                    }
                    '!' if self.peek(0) == Some('=') => {
                        self.bump();
                        TokenKind::Ne
                    }
                    _ => TokenKind::Punct(c),
                };
                self.tokens.push(Token { kind, line });
            }
        }
        LexOutput {
            tokens: self.tokens,
            comments: self.comments,
        }
    }

    fn line_comment(&mut self) {
        let line = self.line;
        self.bump();
        self.bump();
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.comments.push(Comment {
            line,
            text,
            next_token: self.tokens.len(),
        });
    }

    fn block_comment(&mut self) {
        let line = self.line;
        self.bump();
        self.bump();
        let mut depth = 1usize;
        let mut text = String::new();
        while depth > 0 {
            match self.peek(0) {
                None => break,
                Some('/') if self.peek(1) == Some('*') => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                Some('*') if self.peek(1) == Some('/') => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                Some(c) => {
                    if depth == 1 {
                        text.push(c);
                    }
                    self.bump();
                }
            }
        }
        self.comments.push(Comment {
            line,
            text,
            next_token: self.tokens.len(),
        });
    }

    /// Consumes a `"…"` literal whose opening quote is at the cursor.
    fn string(&mut self, line: u32) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
        self.tokens.push(Token {
            kind: TokenKind::Str,
            line,
        });
    }

    /// Handles `r#ident`, `r"…"`, `r#"…"#`, `b"…"`, `br"…"`, `c"…"`,
    /// `cr"…"`, and `b'…'`. Returns false if the cursor is a plain
    /// identifier after all (e.g. `break`, or `r` used as a variable).
    fn raw_or_prefixed_literal(&mut self) -> bool {
        let line = self.line;
        let Some(c0) = self.peek(0) else { return false };
        // r#ident — raw identifier (but r#" is a raw string, checked below).
        if c0 == 'r' && self.peek(1) == Some('#') {
            if let Some(c2) = self.peek(2) {
                if is_ident_start(c2) {
                    self.bump();
                    self.bump();
                    self.ident(true);
                    return true;
                }
            }
        }
        let (plen, raw) = match c0 {
            'r' => (1usize, true),
            'b' | 'c' if self.peek(1) == Some('r') => (2, true),
            'b' | 'c' => (1, false),
            _ => return false,
        };
        if raw {
            let mut i = plen;
            while self.peek(i) == Some('#') {
                i += 1;
            }
            if self.peek(i) != Some('"') {
                return false;
            }
            let hashes = i - plen;
            for _ in 0..=i {
                self.bump(); // prefix, hash fence, opening quote
            }
            self.raw_string_body(hashes, line);
            return true;
        }
        match self.peek(plen) {
            Some('"') => {
                for _ in 0..plen {
                    self.bump();
                }
                self.string(line);
                true
            }
            Some('\'') if c0 == 'b' => {
                for _ in 0..plen {
                    self.bump();
                }
                self.char_or_lifetime();
                true
            }
            _ => false,
        }
    }

    fn raw_string_body(&mut self, hashes: usize, line: u32) {
        loop {
            match self.bump() {
                None => break,
                Some('"') => {
                    let mut n = 0;
                    while n < hashes && self.peek(0) == Some('#') {
                        self.bump();
                        n += 1;
                    }
                    if n == hashes {
                        break;
                    }
                }
                Some(_) => {}
            }
        }
        self.tokens.push(Token {
            kind: TokenKind::Str,
            line,
        });
    }

    /// Disambiguates `'a'` (char) from `'a` (lifetime): a quote followed
    /// by an identifier char is a lifetime unless the char after that is
    /// the closing quote.
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        self.bump(); // opening quote
        match self.peek(0) {
            Some('\\') => {
                self.bump();
                if let Some(e) = self.bump() {
                    if e == 'u' && self.peek(0) == Some('{') {
                        while let Some(c) = self.bump() {
                            if c == '}' {
                                break;
                            }
                        }
                    }
                }
                if self.peek(0) == Some('\'') {
                    self.bump();
                }
                self.tokens.push(Token {
                    kind: TokenKind::Char,
                    line,
                });
            }
            Some(c) if is_ident_start(c) && self.peek(1) != Some('\'') => {
                self.bump();
                while matches!(self.peek(0), Some(c) if is_ident_continue(c)) {
                    self.bump();
                }
                self.tokens.push(Token {
                    kind: TokenKind::Lifetime,
                    line,
                });
            }
            Some(_) => {
                self.bump();
                if self.peek(0) == Some('\'') {
                    self.bump();
                }
                self.tokens.push(Token {
                    kind: TokenKind::Char,
                    line,
                });
            }
            None => {}
        }
    }

    fn number(&mut self) {
        let line = self.line;
        if self.peek(0) == Some('0') && matches!(self.peek(1), Some('x' | 'o' | 'b')) {
            self.bump();
            self.bump();
            while matches!(self.peek(0), Some(c) if c.is_ascii_alphanumeric() || c == '_') {
                self.bump();
            }
            self.tokens.push(Token {
                kind: TokenKind::Int,
                line,
            });
            return;
        }
        while matches!(self.peek(0), Some(c) if c.is_ascii_digit() || c == '_') {
            self.bump();
        }
        let mut float = false;
        if self.peek(0) == Some('.') {
            match self.peek(1) {
                Some(c) if c.is_ascii_digit() => {
                    self.bump();
                    while matches!(self.peek(0), Some(c) if c.is_ascii_digit() || c == '_') {
                        self.bump();
                    }
                    float = true;
                }
                Some('.') => {}                    // range: `1..2`
                Some(c) if is_ident_start(c) => {} // method call: `1.max(2)`
                _ => {
                    // trailing-dot float: `1.`
                    self.bump();
                    float = true;
                }
            }
        }
        if matches!(self.peek(0), Some('e' | 'E')) {
            let exp = match self.peek(1) {
                Some(c) if c.is_ascii_digit() => true,
                Some('+') | Some('-') => {
                    matches!(self.peek(2), Some(c) if c.is_ascii_digit())
                }
                _ => false,
            };
            if exp {
                self.bump();
                if matches!(self.peek(0), Some('+' | '-')) {
                    self.bump();
                }
                while matches!(self.peek(0), Some(c) if c.is_ascii_digit() || c == '_') {
                    self.bump();
                }
                float = true;
            }
        }
        let mut suffix = String::new();
        while matches!(self.peek(0), Some(c) if is_ident_continue(c)) {
            if let Some(c) = self.bump() {
                suffix.push(c);
            }
        }
        if suffix == "f32" || suffix == "f64" {
            float = true;
        }
        self.tokens.push(Token {
            kind: if float {
                TokenKind::Float
            } else {
                TokenKind::Int
            },
            line,
        });
    }

    fn ident(&mut self, raw: bool) {
        let line = self.line;
        let mut name = String::new();
        while matches!(self.peek(0), Some(c) if is_ident_continue(c)) {
            if let Some(c) = self.bump() {
                name.push(c);
            }
        }
        self.tokens.push(Token {
            kind: TokenKind::Ident { name, raw },
            line,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).tokens.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn comments_do_not_emit_tokens() {
        let out = lex("a // panic!\n/* .unwrap() /* nested */ */ b");
        assert_eq!(out.tokens.len(), 2);
        assert!(out.tokens[0].is_ident("a"));
        assert!(out.tokens[1].is_ident("b"));
        assert_eq!(out.comments.len(), 2);
        assert_eq!(out.comments[0].text, " panic!");
    }

    #[test]
    fn strings_swallow_lint_bait() {
        for src in [
            r#"let s = "call .unwrap() now";"#,
            r##"let s = r#"panic!("embedded ""quote"")"#;"##,
            r#"let s = b"todo!()";"#,
            r#"let s = br"dbg!()";"#,
        ] {
            let toks = kinds(src);
            assert!(
                toks.iter().all(|k| !matches!(
                    k,
                    TokenKind::Ident { name, .. }
                        if name == "unwrap" || name == "panic" || name == "todo" || name == "dbg"
                )),
                "leaked ident from {src}: {toks:?}"
            );
            assert!(toks.contains(&TokenKind::Str), "no Str token in {src}");
        }
    }

    #[test]
    fn escaped_quote_does_not_end_string() {
        let toks = kinds(r#""a\"b" x"#);
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0], TokenKind::Str);
    }

    #[test]
    fn char_vs_lifetime() {
        assert_eq!(kinds("'a'"), vec![TokenKind::Char]);
        assert_eq!(kinds("'\\''"), vec![TokenKind::Char]);
        assert_eq!(kinds("'\\u{1F600}'"), vec![TokenKind::Char]);
        assert_eq!(kinds("b'x'"), vec![TokenKind::Char]);
        let toks = kinds("&'a str");
        assert_eq!(
            toks,
            vec![
                TokenKind::Punct('&'),
                TokenKind::Lifetime,
                TokenKind::Ident {
                    name: "str".into(),
                    raw: false
                }
            ]
        );
        assert_eq!(kinds("'_")[0], TokenKind::Lifetime);
        assert_eq!(kinds("'_'")[0], TokenKind::Char);
    }

    #[test]
    fn raw_identifiers_are_marked() {
        let toks = kinds("r#unsafe");
        assert_eq!(
            toks,
            vec![TokenKind::Ident {
                name: "unsafe".into(),
                raw: true
            }]
        );
    }

    #[test]
    fn numbers_int_vs_float() {
        assert_eq!(kinds("1"), vec![TokenKind::Int]);
        assert_eq!(kinds("1.5"), vec![TokenKind::Float]);
        assert_eq!(kinds("1."), vec![TokenKind::Float]);
        assert_eq!(kinds("1e-6"), vec![TokenKind::Float]);
        assert_eq!(kinds("1.5e+3"), vec![TokenKind::Float]);
        assert_eq!(kinds("1f64"), vec![TokenKind::Float]);
        assert_eq!(kinds("1u32"), vec![TokenKind::Int]);
        assert_eq!(kinds("0x1f"), vec![TokenKind::Int]);
        assert_eq!(kinds("0b1010"), vec![TokenKind::Int]);
        assert_eq!(kinds("1_000_000"), vec![TokenKind::Int]);
        // `1..2` is int, range, int — not a float.
        assert_eq!(
            kinds("1..2"),
            vec![
                TokenKind::Int,
                TokenKind::Punct('.'),
                TokenKind::Punct('.'),
                TokenKind::Int
            ]
        );
        // `1.max(2)` is a method call on an integer.
        assert_eq!(kinds("1.max(2)")[0], TokenKind::Int);
    }

    #[test]
    fn comparison_operators_merge() {
        assert_eq!(kinds("a == b")[1], TokenKind::EqEq);
        assert_eq!(kinds("a != b")[1], TokenKind::Ne);
        // `<=` must not absorb into a stray EqEq.
        let toks = kinds("a <= b");
        assert_eq!(toks[1], TokenKind::Punct('<'));
        assert_eq!(toks[2], TokenKind::Punct('='));
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let out = lex("let a = \"x\ny\";\n/* b\nc */\nfoo");
        let foo = out
            .tokens
            .iter()
            .find(|t| t.is_ident("foo"))
            .map(|t| t.line);
        assert_eq!(foo, Some(5));
    }
}
