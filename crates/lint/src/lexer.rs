//! A hand-rolled Rust lexer, sufficient for rule matching.
//!
//! The rules in this crate never need a full parse — they pattern-match on
//! token shapes (`.unwrap()` is `Punct('.') Ident("unwrap") Punct('(')
//! Punct(')')`) — but they *do* need lexing to be exact, because the
//! difference between a finding and a false positive is precisely the
//! difference between the identifier `unwrap` and the same nine characters
//! inside a string literal, a doc comment, or a `r#"…"#` raw string. The
//! lexer therefore handles the full set of Rust token ambiguities that
//! matter for that distinction:
//!
//! * string literals: plain, byte, raw (`r"…"`, `r#"…"#` with any number of
//!   hashes) and raw-byte, with escape handling in the non-raw forms;
//! * comments: line, **nested** block comments (`/* /* */ */` is one
//!   comment), and doc comments (`///`, `//!`, `/** */`) — all dropped from
//!   the token stream so their contents can never match a rule;
//! * `'a'` char literals vs `'a` lifetimes, using the same lookahead rule
//!   as rustc: a quote followed by an identifier not closed by another
//!   quote is a lifetime;
//! * numeric literals with underscores, type suffixes, and hex/octal/binary
//!   prefixes.
//!
//! Every token carries its 1-based line and column for diagnostics.

/// What a [`Token`] is. Only identifiers carry their text: the rules need
/// to know that a region is a literal or a lifetime, never its value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `unwrap`, `r#match` → `match`).
    Ident(String),
    /// A lifetime such as `'a`.
    Lifetime,
    /// A character or byte literal such as `'x'`, `'\n'` or `b'{'`.
    CharLit,
    /// Any string literal form: plain, byte, raw or raw-byte.
    StrLit,
    /// An integer literal (`0`, `1_000`, `0xff`, `7u8`).
    IntLit,
    /// A float literal (`1.5`, `1e-3`, `2.0f32`).
    FloatLit,
    /// A single punctuation character (`.`, `(`, `{`, `#`, …). Multi-char
    /// operators arrive as consecutive tokens, which is all the rules need.
    Punct(char),
}

/// One lexed token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token kind and payload.
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column (in characters).
    pub col: u32,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// `true` when this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

/// Lexes `source` into tokens, dropping comments and whitespace.
///
/// The lexer never fails: malformed input (an unterminated string, a stray
/// byte) degrades to best-effort tokens rather than an error, because a
/// lint pass must keep walking the rest of the workspace even if one file
/// confuses it — the compiler, not the linter, owns syntax errors.
pub fn lex(source: &str) -> Vec<Token> {
    Lexer::new(source).run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    tokens: Vec<Token>,
}

impl Lexer {
    fn new(source: &str) -> Self {
        Lexer {
            chars: source.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
            tokens: Vec::new(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokenKind, line: u32, col: u32) {
        self.tokens.push(Token { kind, line, col });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            let (line, col) = (self.line, self.col);
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string_lit(line, col),
                'r' if matches!(self.peek(1), Some('"' | '#')) && self.raw_string_ahead(1) => {
                    self.bump();
                    self.raw_string_lit(line, col);
                }
                'b' if self.peek(1) == Some('"') => {
                    self.bump();
                    self.string_lit(line, col);
                }
                'b' if self.peek(1) == Some('\'') => {
                    self.bump();
                    self.bump();
                    self.char_lit_body(line, col);
                }
                'b' if self.peek(1) == Some('r') && self.raw_string_ahead(2) => {
                    self.bump();
                    self.bump();
                    self.raw_string_lit(line, col);
                }
                '\'' => self.quote(line, col),
                c if c.is_ascii_digit() => self.number(line, col),
                c if c == '_' || c.is_alphabetic() => self.ident(line, col),
                c => {
                    self.bump();
                    self.push(TokenKind::Punct(c), line, col);
                }
            }
        }
        self.tokens
    }

    /// Whether `r`/`br` at the current position starts a raw string (as
    /// opposed to an identifier such as `r#match` raw identifiers or plain
    /// `radius`): `r` followed by `"` or by hashes then `"`.
    fn raw_string_ahead(&self, from: usize) -> bool {
        let mut i = from;
        while self.peek(i) == Some('#') {
            i += 1;
        }
        self.peek(i) == Some('"')
    }

    fn line_comment(&mut self) {
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            self.bump();
        }
    }

    fn block_comment(&mut self) {
        // Consume the opening `/*`, then track nesting depth: Rust block
        // comments nest, so `/* /* */ */` is one comment.
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some('*'), Some('/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
    }

    fn string_lit(&mut self, line: u32, col: u32) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '"' => break,
                '\\' => {
                    self.bump(); // the escaped character, a quote included
                }
                _ => {}
            }
        }
        self.push(TokenKind::StrLit, line, col);
    }

    /// Lexes a raw string with the leading `r`/`br` already consumed.
    fn raw_string_lit(&mut self, line: u32, col: u32) {
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        'outer: while let Some(c) = self.peek(0) {
            if c == '"' {
                // A closing quote must be followed by exactly `hashes`
                // hashes; otherwise the quote is part of the content.
                let mut matched = 0usize;
                while matched < hashes && self.peek(1 + matched) == Some('#') {
                    matched += 1;
                }
                if matched == hashes {
                    self.bump();
                    for _ in 0..hashes {
                        self.bump();
                    }
                    break 'outer;
                }
            }
            self.bump();
        }
        self.push(TokenKind::StrLit, line, col);
    }

    /// Disambiguates `'a'` (char literal) from `'a` (lifetime) at a `'`.
    fn quote(&mut self, line: u32, col: u32) {
        self.bump(); // the quote
        match self.peek(0) {
            // `'\n'`, `'\''` … — always a char literal.
            Some('\\') => self.char_lit_body(line, col),
            Some(c) if c == '_' || c.is_alphanumeric() => {
                // `'a'` is a char literal; `'a` / `'static` (identifier not
                // closed by a quote) is a lifetime. Scan the identifier and
                // look at what follows.
                let mut len = 0usize;
                while matches!(self.peek(len), Some(c) if c == '_' || c.is_alphanumeric()) {
                    len += 1;
                }
                if len == 1 && self.peek(1) == Some('\'') {
                    self.char_lit_body(line, col);
                } else {
                    for _ in 0..len {
                        self.bump();
                    }
                    self.push(TokenKind::Lifetime, line, col);
                }
            }
            // `'(' …: a char literal of punctuation, e.g. `'{'`.
            Some(_) => self.char_lit_body(line, col),
            None => self.push(TokenKind::Punct('\''), line, col),
        }
    }

    /// Consumes a char literal body up to and including the closing quote
    /// (the opening quote is already consumed).
    fn char_lit_body(&mut self, line: u32, col: u32) {
        while let Some(c) = self.peek(0) {
            match c {
                '\\' => {
                    self.bump();
                    self.bump();
                }
                '\'' => {
                    self.bump();
                    break;
                }
                _ => {
                    self.bump();
                }
            }
        }
        self.push(TokenKind::CharLit, line, col);
    }

    fn number(&mut self, line: u32, col: u32) {
        let mut is_float = false;
        // Hex/octal/binary prefix.
        if self.peek(0) == Some('0') && matches!(self.peek(1), Some('x' | 'o' | 'b')) {
            self.bump();
            self.bump();
            while matches!(self.peek(0), Some(c) if c.is_ascii_alphanumeric() || c == '_') {
                self.bump();
            }
            self.push(TokenKind::IntLit, line, col);
            return;
        }
        while let Some(c) = self.peek(0) {
            match c {
                c if c.is_ascii_digit() || c == '_' => {
                    self.bump();
                }
                // A dot is part of the number only when followed by a digit
                // or standing alone (`1.`), not in `1.max(2)` or `0..n`.
                '.' if !is_float && self.peek(1).is_none_or(|n| !n.is_alphabetic() && n != '.') => {
                    is_float = true;
                    self.bump();
                }
                'e' | 'E' if matches!(self.peek(1), Some(c) if c.is_ascii_digit() || c == '+' || c == '-') =>
                {
                    is_float = true;
                    self.bump();
                    self.bump();
                }
                // Type suffix (`1u32`, `1.0f32`).
                c if c.is_alphabetic() => {
                    while matches!(self.peek(0), Some(c) if c.is_ascii_alphanumeric() || c == '_') {
                        self.bump();
                    }
                    break;
                }
                _ => break,
            }
        }
        let kind = if is_float {
            TokenKind::FloatLit
        } else {
            TokenKind::IntLit
        };
        self.push(kind, line, col);
    }

    fn ident(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        // Raw identifier prefix `r#name` — strip the prefix so rules see
        // the plain name.
        if self.peek(0) == Some('r') && self.peek(1) == Some('#') {
            self.bump();
            self.bump();
        }
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Ident(text), line, col);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(source: &str) -> Vec<String> {
        lex(source)
            .into_iter()
            .filter_map(|t| match t.kind {
                TokenKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn basic_method_call_shape() {
        let tokens = lex("x.unwrap()");
        let kinds: Vec<_> = tokens.iter().map(|t| &t.kind).collect();
        assert_eq!(
            kinds,
            vec![
                &TokenKind::Ident("x".into()),
                &TokenKind::Punct('.'),
                &TokenKind::Ident("unwrap".into()),
                &TokenKind::Punct('('),
                &TokenKind::Punct(')'),
            ]
        );
    }

    #[test]
    fn unwrap_inside_string_literal_is_a_string() {
        let tokens = lex(r#"let s = "please .unwrap() me";"#);
        assert!(!idents(r#"let s = "please .unwrap() me";"#).contains(&"unwrap".to_string()));
        assert!(tokens.iter().any(|t| t.kind == TokenKind::StrLit));
    }

    #[test]
    fn unwrap_inside_raw_string_with_hashes_is_a_string() {
        let src = r###"let s = r#"quotes " and .unwrap() and "# done"#;"###;
        // The raw string ends at `"#`, so `done` is an identifier but the
        // first `.unwrap()` is not.
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap".to_string()), "{ids:?}");
    }

    #[test]
    fn raw_string_with_two_hashes() {
        let src = r####"x(r##"a "# b .unwrap()"##)"####;
        assert!(!idents(src).contains(&"unwrap".to_string()));
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        assert!(!idents(r#"f(b"panic!()")"#).contains(&"panic".to_string()));
        let src = r###"f(br#"expect("x")"#)"###;
        assert!(!idents(src).contains(&"expect".to_string()));
    }

    #[test]
    fn nested_block_comments_are_dropped() {
        let src = "a /* outer /* inner .unwrap() */ still comment */ b";
        assert_eq!(idents(src), vec!["a", "b"]);
    }

    #[test]
    fn line_and_doc_comments_are_dropped() {
        let src = "/// call .unwrap() here\n//! or .expect(\"x\")\n// panic!()\nfn ok() {}";
        let ids = idents(src);
        assert_eq!(ids, vec!["fn", "ok"]);
    }

    #[test]
    fn block_doc_comments_are_dropped() {
        let src = "/** docs with .unwrap() */ fn f() {}";
        assert_eq!(idents(src), vec!["fn", "f"]);
    }

    #[test]
    fn char_literal_vs_lifetime() {
        // 'a' is a char literal; 'a in a generic list is a lifetime.
        let tokens = lex("let c = 'a'; fn f<'a>(x: &'a str) {}");
        let chars = tokens
            .iter()
            .filter(|t| t.kind == TokenKind::CharLit)
            .count();
        let lifetimes = tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        assert_eq!(chars, 1);
        assert_eq!(lifetimes, 2);
        assert_eq!(
            idents("fn f<'a>(x: &'a str) {}"),
            vec!["fn", "f", "x", "str"]
        );
    }

    #[test]
    fn static_lifetime_and_escaped_chars() {
        let tokens = lex(r"let s: &'static str = x; let q = '\''; let n = '\n';");
        let lifetimes = tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 1);
        assert!(!idents(r"let s: &'static str = x;").contains(&"static".to_string()));
        let chars = tokens
            .iter()
            .filter(|t| t.kind == TokenKind::CharLit)
            .count();
        assert_eq!(chars, 2);
    }

    #[test]
    fn punctuation_char_literal() {
        let tokens = lex("m.insert('{', 1)");
        assert_eq!(
            tokens
                .iter()
                .filter(|t| t.kind == TokenKind::CharLit)
                .count(),
            1
        );
        // The brace inside the char literal must not unbalance anything.
        assert!(!tokens.iter().any(|t| t.is_punct('{')));
    }

    #[test]
    fn byte_char_literal() {
        let tokens = lex("self.expect_byte(b'{')?");
        assert_eq!(
            tokens
                .iter()
                .filter(|t| t.kind == TokenKind::CharLit)
                .count(),
            1
        );
    }

    #[test]
    fn numbers_with_suffixes_and_ranges() {
        let kinds: Vec<_> = lex("0..n; 1_000u64; 0xff; 1.5e-3; x.0")
            .into_iter()
            .map(|t| t.kind)
            .collect();
        let count = |kind: TokenKind| kinds.iter().filter(|k| **k == kind).count();
        assert_eq!(
            (count(TokenKind::IntLit), count(TokenKind::FloatLit)),
            (4, 1)
        );
        assert_eq!(count(TokenKind::Punct('.')), 3, "{kinds:?}");
        // `x.0` is ident, dot, int — a tuple index, not a float.
        assert_eq!(kinds.last(), Some(&TokenKind::IntLit));
    }

    #[test]
    fn method_call_on_int_literal_is_not_a_float() {
        let ids = idents("1.max(2)");
        assert_eq!(ids, vec!["max"]);
    }

    #[test]
    fn raw_identifier_is_stripped() {
        assert_eq!(idents("r#match"), vec!["match"]);
    }

    #[test]
    fn positions_are_one_based() {
        let tokens = lex("a\n  b");
        assert_eq!((tokens[0].line, tokens[0].col), (1, 1));
        assert_eq!((tokens[1].line, tokens[1].col), (2, 3));
    }

    #[test]
    fn unterminated_string_does_not_hang() {
        let tokens = lex("let s = \"oops");
        assert_eq!(tokens.last().map(|t| &t.kind), Some(&TokenKind::StrLit));
    }
}
