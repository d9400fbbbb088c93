//! Hand-written Rust lexer for the lint pass.
//!
//! In the spirit of the `dblayout-sql` lexer: a flat token stream with
//! source lines, built by hand over the raw bytes. It is **not** a full
//! Rust front-end — it only needs to be faithful enough that rule matching
//! never confuses code with non-code. Concretely that means strings (plain,
//! raw `r#"…"#`, byte), char literals vs. lifetimes (`'a'` vs. `'a`),
//! nested block comments, raw identifiers (`r#fn`), and numeric literals
//! with underscores/suffixes all lex correctly. Comments are collected on a
//! side channel (they carry suppression directives, see
//! [`crate::suppress`]); they never appear in the main token stream, so a
//! rule can match `.unwrap()` without tripping over `// .unwrap()` in a
//! doc comment or a `".unwrap()"` string literal.

/// What a token is, with just enough payload for rule matching.
#[derive(Debug, Clone, PartialEq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `lock`, `unwrap`, ...).
    Ident(String),
    /// Lifetime such as `'a` or `'_` (leading quote stripped).
    Lifetime(String),
    /// Integer literal (original text).
    Int(String),
    /// Floating-point literal (original text): has a fractional part, an
    /// exponent, or an `f32`/`f64` suffix.
    Float(String),
    /// String literal of any flavor (contents dropped).
    Str,
    /// Char or byte literal (contents dropped).
    Char,
    /// Punctuation. Multi-character operators that matter to the rules are
    /// pre-joined: `==` `!=` `<=` `>=` `::` `->` `=>` `..` `..=` `&&` `||`.
    Punct(String),
}

/// A token with its 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Tok {
    /// What was lexed.
    pub kind: TokKind,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// Whether `t` is the punctuation `s`.
pub(crate) fn is_punct(t: &Tok, s: &str) -> bool {
    matches!(&t.kind, TokKind::Punct(p) if p == s)
}

/// Whether `t` is the identifier `s`.
pub(crate) fn is_ident(t: &Tok, s: &str) -> bool {
    matches!(&t.kind, TokKind::Ident(i) if i == s)
}

/// The identifier text of `t`, if it is one.
pub(crate) fn ident_text(t: &Tok) -> Option<&str> {
    match &t.kind {
        TokKind::Ident(s) => Some(s),
        _ => None,
    }
}

/// A comment, collected out-of-band for suppression parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct Comment {
    /// Comment text without the `//` / `/*` markers, trimmed.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Whether any non-whitespace token precedes the comment on its line
    /// (a trailing comment suppresses its own line; a standalone comment
    /// suppresses the next).
    pub trailing: bool,
}

/// A lex failure with its source line.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    /// What went wrong.
    pub message: String,
    /// 1-based line.
    pub line: u32,
}

impl std::fmt::Display for LexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// Token stream plus the comment side channel.
#[derive(Debug, Clone)]
pub struct LexOutput {
    /// Code tokens in source order.
    pub toks: Vec<Tok>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    /// Whether a code token has been emitted on the current line (drives
    /// [`Comment::trailing`]).
    code_on_line: bool,
}

impl<'a> Lexer<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.code_on_line = false;
        }
        Some(b)
    }

    fn err(&self, message: impl Into<String>) -> LexError {
        LexError {
            message: message.into(),
            line: self.line,
        }
    }

    fn take_while(&mut self, pred: impl Fn(u8) -> bool) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b) if pred(b)) {
            self.bump();
        }
        self.pos - start
    }

    fn text_since(&self, start: usize) -> String {
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }

    fn lex_line_comment(&mut self) -> Comment {
        let line = self.line;
        let trailing = self.code_on_line;
        self.bump();
        self.bump(); // the `//`
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b != b'\n') {
            self.bump();
        }
        Comment {
            text: self.text_since(start).trim().to_string(),
            line,
            trailing,
        }
    }

    fn lex_block_comment(&mut self) -> Result<Comment, LexError> {
        let line = self.line;
        let trailing = self.code_on_line;
        self.bump();
        self.bump(); // the `/*`
        let start = self.pos;
        let mut depth = 1usize;
        loop {
            match (self.peek(), self.peek_at(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    if depth == 0 {
                        let text = self.text_since(start).trim().to_string();
                        self.bump();
                        self.bump();
                        return Ok(Comment {
                            text,
                            line,
                            trailing,
                        });
                    }
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => return Err(self.err("unterminated block comment")),
            }
        }
    }

    /// Consumes a plain `"…"` string body (opening quote already consumed).
    fn lex_string_body(&mut self) -> Result<(), LexError> {
        loop {
            match self.bump() {
                Some(b'"') => return Ok(()),
                Some(b'\\') => {
                    self.bump(); // whatever is escaped, including `"` and `\`
                }
                Some(_) => {}
                None => return Err(self.err("unterminated string literal")),
            }
        }
    }

    /// Consumes a raw string starting at `r`/`br` (already past the prefix,
    /// positioned on `#`s or the opening quote).
    fn lex_raw_string_body(&mut self) -> Result<(), LexError> {
        let mut hashes = 0usize;
        while self.peek() == Some(b'#') {
            hashes += 1;
            self.bump();
        }
        if self.bump() != Some(b'"') {
            return Err(self.err("malformed raw string opener"));
        }
        loop {
            match self.bump() {
                Some(b'"') => {
                    let mut seen = 0usize;
                    while seen < hashes && self.peek() == Some(b'#') {
                        seen += 1;
                        self.bump();
                    }
                    if seen == hashes {
                        return Ok(());
                    }
                }
                Some(_) => {}
                None => return Err(self.err("unterminated raw string literal")),
            }
        }
    }

    /// Consumes a char/byte-char body (opening `'` already consumed).
    fn lex_char_body(&mut self) -> Result<(), LexError> {
        match self.bump() {
            Some(b'\\') => {
                match self.bump() {
                    Some(b'u') => {
                        // `\u{…}`
                        if self.peek() == Some(b'{') {
                            while matches!(self.bump(), Some(b) if b != b'}') {}
                        }
                    }
                    Some(_) => {}
                    None => return Err(self.err("unterminated char literal")),
                }
            }
            Some(b'\'') => return Err(self.err("empty char literal")),
            Some(_) => {}
            None => return Err(self.err("unterminated char literal")),
        }
        if self.bump() != Some(b'\'') {
            return Err(self.err("unterminated char literal"));
        }
        Ok(())
    }

    fn lex_number(&mut self) -> Tok {
        let line = self.line;
        let start = self.pos;
        let mut is_float = false;
        let radix_prefix = self.peek() == Some(b'0')
            && matches!(
                self.peek_at(1),
                Some(b'x') | Some(b'X') | Some(b'b') | Some(b'B') | Some(b'o') | Some(b'O')
            );
        if radix_prefix {
            self.bump();
            self.bump();
            self.take_while(|b| b.is_ascii_alphanumeric() || b == b'_');
        } else {
            self.take_while(|b| b.is_ascii_digit() || b == b'_');
            // Fractional part — but not `..` (range) and not `.method()`.
            if self.peek() == Some(b'.') && matches!(self.peek_at(1), Some(b) if b.is_ascii_digit())
            {
                is_float = true;
                self.bump();
                self.take_while(|b| b.is_ascii_digit() || b == b'_');
            } else if self.peek() == Some(b'.')
                && !matches!(self.peek_at(1), Some(b) if b == b'.' || is_ident_start(b))
            {
                // Trailing-dot float (`1.`, `1.,`, `(1.)`): rustc keeps the
                // dot in the number token when neither `..` (range) nor an
                // identifier (`1.max(2)` method-call split) follows.
                is_float = true;
                self.bump();
            }
            // Exponent, only when a digit (or signed digit) follows.
            if matches!(self.peek(), Some(b'e') | Some(b'E')) {
                let mut look = 1;
                if matches!(self.peek_at(1), Some(b'+') | Some(b'-')) {
                    look = 2;
                }
                if matches!(self.peek_at(look), Some(b) if b.is_ascii_digit()) {
                    is_float = true;
                    self.bump();
                    if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                        self.bump();
                    }
                    self.take_while(|b| b.is_ascii_digit() || b == b'_');
                }
            }
            // Type suffix (`u64`, `f64`, `usize`, ...), directly attached.
            let suffix_start = self.pos;
            self.take_while(|b| b.is_ascii_alphanumeric() || b == b'_');
            let suffix = self.text_since(suffix_start);
            if suffix == "f32" || suffix == "f64" {
                is_float = true;
            }
        }
        let text = self.text_since(start);
        Tok {
            kind: if is_float {
                TokKind::Float(text)
            } else {
                TokKind::Int(text)
            },
            line,
        }
    }

    fn lex_punct(&mut self) -> Tok {
        let line = self.line;
        let a = self.bump().unwrap_or(b' ') as char;
        let joined = |lexer: &Self, next: char| lexer.peek() == Some(next as u8);
        let two = |lexer: &mut Self, s: &str| {
            lexer.bump();
            Tok {
                kind: TokKind::Punct(s.to_string()),
                line,
            }
        };
        match a {
            '=' if joined(self, '=') => two(self, "=="),
            '=' if joined(self, '>') => two(self, "=>"),
            '!' if joined(self, '=') => two(self, "!="),
            '<' if joined(self, '=') => two(self, "<="),
            '>' if joined(self, '=') => two(self, ">="),
            ':' if joined(self, ':') => two(self, "::"),
            '-' if joined(self, '>') => two(self, "->"),
            '&' if joined(self, '&') => two(self, "&&"),
            '|' if joined(self, '|') => two(self, "||"),
            '.' if joined(self, '.') => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Tok {
                        kind: TokKind::Punct("..=".to_string()),
                        line,
                    }
                } else {
                    Tok {
                        kind: TokKind::Punct("..".to_string()),
                        line,
                    }
                }
            }
            other => Tok {
                kind: TokKind::Punct(other.to_string()),
                line,
            },
        }
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_cont(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Tokenizes Rust source into code tokens plus a comment side channel.
pub fn lex(src: &str) -> Result<LexOutput, LexError> {
    let mut lexer = Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        code_on_line: false,
    };
    let mut toks = Vec::new();
    let mut comments = Vec::new();
    loop {
        match lexer.peek() {
            None => break,
            Some(b) if b.is_ascii_whitespace() => {
                lexer.bump();
            }
            Some(b'/') if lexer.peek_at(1) == Some(b'/') => {
                comments.push(lexer.lex_line_comment());
            }
            Some(b'/') if lexer.peek_at(1) == Some(b'*') => {
                comments.push(lexer.lex_block_comment()?);
            }
            Some(b'r') | Some(b'b') => {
                let line = lexer.line;
                let start = lexer.pos;
                let first = lexer.bump().unwrap_or(b'r');
                match (first, lexer.peek()) {
                    // Raw string `r"…"` / `r#"…"#`.
                    (b'r', Some(b'"')) | (b'r', Some(b'#'))
                        if first == b'r'
                            && (lexer.peek() == Some(b'"')
                                || raw_string_follows(lexer.src, lexer.pos)) =>
                    {
                        lexer.lex_raw_string_body()?;
                        toks.push(Tok {
                            kind: TokKind::Str,
                            line,
                        });
                        lexer.code_on_line = true;
                    }
                    // Byte string `b"…"`, raw byte string `br"…"`.
                    (b'b', Some(b'"')) => {
                        lexer.bump();
                        lexer.lex_string_body()?;
                        toks.push(Tok {
                            kind: TokKind::Str,
                            line,
                        });
                        lexer.code_on_line = true;
                    }
                    (b'b', Some(b'r')) if matches!(lexer.peek_at(1), Some(b'"') | Some(b'#')) => {
                        lexer.bump();
                        lexer.lex_raw_string_body()?;
                        toks.push(Tok {
                            kind: TokKind::Str,
                            line,
                        });
                        lexer.code_on_line = true;
                    }
                    // Byte char `b'…'`.
                    (b'b', Some(b'\'')) => {
                        lexer.bump();
                        lexer.lex_char_body()?;
                        toks.push(Tok {
                            kind: TokKind::Char,
                            line,
                        });
                        lexer.code_on_line = true;
                    }
                    // Raw identifier `r#ident`.
                    (b'r', Some(b'#')) if matches!(lexer.peek_at(1), Some(b) if is_ident_start(b)) =>
                    {
                        lexer.bump();
                        lexer.take_while(is_ident_cont);
                        let text = lexer.text_since(start + 2);
                        toks.push(Tok {
                            kind: TokKind::Ident(text),
                            line,
                        });
                        lexer.code_on_line = true;
                    }
                    // Plain identifier starting with `r`/`b`.
                    _ => {
                        lexer.take_while(is_ident_cont);
                        toks.push(Tok {
                            kind: TokKind::Ident(lexer.text_since(start)),
                            line,
                        });
                        lexer.code_on_line = true;
                    }
                }
            }
            Some(b'"') => {
                let line = lexer.line;
                lexer.bump();
                lexer.lex_string_body()?;
                toks.push(Tok {
                    kind: TokKind::Str,
                    line,
                });
                lexer.code_on_line = true;
            }
            Some(b'\'') => {
                let line = lexer.line;
                // Lifetime when an identifier follows and is NOT closed by
                // another quote (`'a` vs. `'a'`).
                let is_lifetime = matches!(lexer.peek_at(1), Some(b) if is_ident_start(b)) && {
                    let mut look = 2;
                    while matches!(lexer.src.get(lexer.pos + look), Some(&b) if is_ident_cont(b)) {
                        look += 1;
                    }
                    lexer.src.get(lexer.pos + look) != Some(&b'\'')
                };
                lexer.bump();
                if is_lifetime {
                    let start = lexer.pos;
                    lexer.take_while(is_ident_cont);
                    toks.push(Tok {
                        kind: TokKind::Lifetime(lexer.text_since(start)),
                        line,
                    });
                } else {
                    lexer.lex_char_body()?;
                    toks.push(Tok {
                        kind: TokKind::Char,
                        line,
                    });
                }
                lexer.code_on_line = true;
            }
            Some(b) if b.is_ascii_digit() => {
                toks.push(lexer.lex_number());
                lexer.code_on_line = true;
            }
            Some(b) if is_ident_start(b) => {
                let line = lexer.line;
                let start = lexer.pos;
                lexer.take_while(is_ident_cont);
                toks.push(Tok {
                    kind: TokKind::Ident(lexer.text_since(start)),
                    line,
                });
                lexer.code_on_line = true;
            }
            Some(_) => {
                toks.push(lexer.lex_punct());
                lexer.code_on_line = true;
            }
        }
    }
    Ok(LexOutput { toks, comments })
}

/// Whether `src[pos..]` looks like `#…#"` — the hash run of a raw string
/// opener (distinguishes `r#"…"#` from the raw identifier `r#ident`).
fn raw_string_follows(src: &[u8], mut pos: usize) -> bool {
    while src.get(pos) == Some(&b'#') {
        pos += 1;
    }
    src.get(pos) == Some(&b'"')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokKind> {
        lex(src).unwrap().toks.into_iter().map(|t| t.kind).collect()
    }

    fn idents(src: &str) -> Vec<String> {
        kinds(src)
            .into_iter()
            .filter_map(|k| match k {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_hide_their_contents() {
        // `.unwrap()` inside a string must not produce an `unwrap` ident.
        assert_eq!(idents(r#"let s = ".unwrap()";"#), vec!["let", "s"]);
        assert_eq!(idents(r##"let s = r#".unwrap()"#;"##), vec!["let", "s"]);
        assert_eq!(idents(r#"let s = b".unwrap()";"#), vec!["let", "s"]);
    }

    #[test]
    fn comments_go_to_the_side_channel() {
        let out = lex("let x = 1; // trailing .unwrap()\n// standalone\nlet y = 2;").unwrap();
        assert!(!out
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Ident("unwrap".into())));
        assert_eq!(out.comments.len(), 2);
        assert!(out.comments[0].trailing);
        assert_eq!(out.comments[0].line, 1);
        assert!(!out.comments[1].trailing);
        assert_eq!(out.comments[1].line, 2);
    }

    #[test]
    fn nested_block_comments() {
        let out = lex("/* outer /* inner */ still */ fn x() {}").unwrap();
        assert_eq!(out.comments.len(), 1);
        assert_eq!(idents("/* a /* b */ c */ fn x() {}"), vec!["fn", "x"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        assert_eq!(
            kinds("'a 'static '_"),
            vec![
                TokKind::Lifetime("a".into()),
                TokKind::Lifetime("static".into()),
                TokKind::Lifetime("_".into()),
            ]
        );
        assert_eq!(kinds("'a'"), vec![TokKind::Char]);
        assert_eq!(kinds(r"'\''"), vec![TokKind::Char]);
        assert_eq!(kinds(r"'\u{1F600}'"), vec![TokKind::Char]);
        assert_eq!(kinds("b'+'"), vec![TokKind::Char]);
    }

    #[test]
    fn numbers_with_underscores_and_suffixes() {
        assert_eq!(
            kinds("0xcbf2_9ce4 1_000u64 2.5 1e3 3f64 7"),
            vec![
                TokKind::Int("0xcbf2_9ce4".into()),
                TokKind::Int("1_000u64".into()),
                TokKind::Float("2.5".into()),
                TokKind::Float("1e3".into()),
                TokKind::Float("3f64".into()),
                TokKind::Int("7".into()),
            ]
        );
    }

    #[test]
    fn trailing_dot_floats() {
        // `1.` is a float in Rust when neither `..` nor an identifier
        // follows; `1..2` stays a range and `1.max(2)` stays an int plus a
        // method call (the rustc split).
        assert_eq!(
            kinds("let x = 1.;"),
            vec![
                TokKind::Ident("let".into()),
                TokKind::Ident("x".into()),
                TokKind::Punct("=".into()),
                TokKind::Float("1.".into()),
                TokKind::Punct(";".into()),
            ]
        );
        assert_eq!(kinds("(2.)")[1], TokKind::Float("2.".into()));
        assert_eq!(
            kinds("1.max(2)")[..3],
            [
                TokKind::Int("1".into()),
                TokKind::Punct(".".into()),
                TokKind::Ident("max".into()),
            ]
        );
        // Tuple-field chains keep rustc's token-level behavior: `x.0.1`
        // lexes the `0.1` as one float token (the parser-side split is a
        // rustc hack this lexer does not replicate).
        assert_eq!(kinds("x.0.1")[2], TokKind::Float("0.1".into()));
    }

    #[test]
    fn ranges_do_not_eat_floats() {
        assert_eq!(
            kinds("0..n 1..=k"),
            vec![
                TokKind::Int("0".into()),
                TokKind::Punct("..".into()),
                TokKind::Ident("n".into()),
                TokKind::Int("1".into()),
                TokKind::Punct("..=".into()),
                TokKind::Ident("k".into()),
            ]
        );
    }

    #[test]
    fn joined_operators() {
        assert_eq!(
            kinds("a == b != c :: d -> e => f"),
            vec![
                TokKind::Ident("a".into()),
                TokKind::Punct("==".into()),
                TokKind::Ident("b".into()),
                TokKind::Punct("!=".into()),
                TokKind::Ident("c".into()),
                TokKind::Punct("::".into()),
                TokKind::Ident("d".into()),
                TokKind::Punct("->".into()),
                TokKind::Ident("e".into()),
                TokKind::Punct("=>".into()),
                TokKind::Ident("f".into()),
            ]
        );
    }

    #[test]
    fn raw_identifier() {
        assert_eq!(idents("r#fn r#match plain"), vec!["fn", "match", "plain"]);
    }

    #[test]
    fn unterminated_inputs_error() {
        assert!(lex("\"never closed").is_err());
        assert!(lex("/* never closed").is_err());
        // `'x` at EOF is a lifetime, not an unterminated char literal.
        assert!(matches!(
            lex("'x").unwrap().toks[0].kind,
            TokKind::Lifetime(_)
        ));
    }

    #[test]
    fn lines_are_tracked() {
        let out = lex("fn a() {\n  b()\n}\n").unwrap();
        let b = out
            .toks
            .iter()
            .find(|t| t.kind == TokKind::Ident("b".into()))
            .unwrap();
        assert_eq!(b.line, 2);
    }
}
