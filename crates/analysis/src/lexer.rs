//! A lightweight Rust lexer — just enough token structure for the
//! invariant rules in [`crate::rules`].
//!
//! The scanner understands the lexical shapes that would otherwise
//! produce false matches in a text grep: line and block comments
//! (captured, with line numbers — they carry the lint directives),
//! string / raw-string / byte-string / char literals (skipped, so an
//! `"unwrap()"` inside a fixture string is invisible to the rules),
//! lifetimes vs char literals, and numbers. Everything else becomes an
//! identifier or single-character punctuation token tagged with its
//! line and the brace depth it sits at.
//!
//! It deliberately does **not** parse: no expressions, no items, no
//! macro expansion. The rules work on token patterns plus the brace
//! depth, which is exactly the level of ambition a repo-local lint can
//! keep sound.

/// What a token is; contents are kept only where a rule needs them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident(String),
    /// One punctuation character (`.`, `(`, `!`, …).
    Punct(char),
    /// String/char/number literal (contents irrelevant to the rules).
    Literal,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    /// 1-based source line.
    pub line: u32,
    /// Brace depth *before* this token (`{` itself sits at the outer
    /// depth; the matching `}` at the inner one minus the pop).
    pub depth: u32,
}

impl Tok {
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(name) => Some(name),
            _ => None,
        }
    }

    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokKind::Punct(ch)
    }
}

/// One comment (line or block), with its text and starting line —
/// `lint:` directives and `ordering:` justifications live here.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment text without the `//` / `/*` framing.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
}

/// The lexed view of one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Tok>,
    pub comments: Vec<Comment>,
}

/// Lexes `source`; never fails — unterminated constructs simply run to
/// end of input (the compiler is the authority on well-formedness; the
/// lint only needs to stay in sync on the happy path).
pub fn lex(source: &str) -> Lexed {
    Lexer {
        chars: source.chars().collect(),
        at: 0,
        line: 1,
        depth: 0,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    at: usize,
    line: u32,
    depth: u32,
    out: Lexed,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.at + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let ch = self.peek(0)?;
        self.at += 1;
        if ch == '\n' {
            self.line += 1;
        }
        Some(ch)
    }

    fn run(mut self) -> Lexed {
        while let Some(ch) = self.peek(0) {
            match ch {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(),
                '\'' => self.char_or_lifetime(),
                c if c.is_ascii_digit() => self.number(),
                c if c == '_' || c.is_alphabetic() => self.ident(),
                c => {
                    let line = self.line;
                    let depth = self.depth;
                    self.bump();
                    if c == '{' {
                        self.depth += 1;
                    } else if c == '}' {
                        self.depth = self.depth.saturating_sub(1);
                    }
                    self.push(TokKind::Punct(c), line, depth);
                }
            }
        }
        self.out
    }

    fn push(&mut self, kind: TokKind, line: u32, depth: u32) {
        self.out.tokens.push(Tok { kind, line, depth });
    }

    fn line_comment(&mut self) {
        let line = self.line;
        self.bump();
        self.bump(); // the `//`
                     // Doc commments (`///`, `//!`) are comments too.
        let mut text = String::new();
        while let Some(ch) = self.peek(0) {
            if ch == '\n' {
                break;
            }
            text.push(ch);
            self.bump();
        }
        self.out.comments.push(Comment { text, line });
    }

    fn block_comment(&mut self) {
        let line = self.line;
        self.bump();
        self.bump(); // the `/*`
        let mut text = String::new();
        let mut nesting = 1u32;
        while let Some(ch) = self.peek(0) {
            if ch == '/' && self.peek(1) == Some('*') {
                nesting += 1;
                self.bump();
                self.bump();
                text.push_str("/*");
            } else if ch == '*' && self.peek(1) == Some('/') {
                nesting -= 1;
                self.bump();
                self.bump();
                if nesting == 0 {
                    break;
                }
                text.push_str("*/");
            } else {
                text.push(ch);
                self.bump();
            }
        }
        self.out.comments.push(Comment { text, line });
    }

    /// A plain `"…"` string (escapes honoured); the opening quote is
    /// current.
    fn string(&mut self) {
        let line = self.line;
        let depth = self.depth;
        self.bump();
        while let Some(ch) = self.bump() {
            match ch {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
        self.push(TokKind::Literal, line, depth);
    }

    /// A `r"…"` / `r#"…"#` raw string; `self.at` is on the `r` (or the
    /// `b` of `br`), already consumed by the caller — here the position
    /// is on the first `#` or `"`.
    fn raw_string(&mut self, line: u32, depth: u32) {
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        'scan: while let Some(ch) = self.bump() {
            if ch == '"' {
                for ahead in 0..hashes {
                    if self.peek(ahead) != Some('#') {
                        continue 'scan;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
        }
        self.push(TokKind::Literal, line, depth);
    }

    /// `'c'` (char literal) vs `'label` / `'lifetime`.
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        let depth = self.depth;
        // A char literal closes with `'` after one (possibly escaped)
        // char; a lifetime never has a closing quote.
        let is_char = match self.peek(1) {
            Some('\\') => true,
            Some(_) => self.peek(2) == Some('\''),
            None => false,
        };
        self.bump(); // the `'`
        if is_char {
            while let Some(ch) = self.bump() {
                match ch {
                    '\\' => {
                        self.bump();
                    }
                    '\'' => break,
                    _ => {}
                }
            }
            self.push(TokKind::Literal, line, depth);
        } else {
            // Lifetime or loop label: consume the identifier, emit
            // nothing (no rule cares).
            while let Some(ch) = self.peek(0) {
                if ch == '_' || ch.is_alphanumeric() {
                    self.bump();
                } else {
                    break;
                }
            }
        }
    }

    fn number(&mut self) {
        let line = self.line;
        let depth = self.depth;
        let mut text = String::new();
        while let Some(ch) = self.peek(0) {
            // Good enough for ints, floats, suffixes and hex/oct/bin;
            // `1.0e-3` loses its `-` (two tokens) which no rule minds.
            if ch == '_' || ch == '.' || ch.is_alphanumeric() {
                // A method call on a literal (`0..n`, `1.max(x)`) must
                // not swallow the dots: stop at `..` and at `.ident`.
                if ch == '.' {
                    match self.peek(1) {
                        Some(next) if next.is_ascii_digit() => {}
                        _ => break,
                    }
                }
                text.push(ch);
                self.bump();
            } else {
                break;
            }
        }
        // Numeric index literals matter to the shard-order rule, so
        // numbers keep their text as identifiers would.
        self.push(TokKind::Ident(text), line, depth);
    }

    fn ident(&mut self) {
        let line = self.line;
        let depth = self.depth;
        let mut name = String::new();
        while let Some(ch) = self.peek(0) {
            if ch == '_' || ch.is_alphanumeric() {
                name.push(ch);
                self.bump();
            } else {
                break;
            }
        }
        // Raw/byte string prefixes: `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`.
        if matches!(name.as_str(), "r" | "b" | "br" | "rb")
            && matches!(self.peek(0), Some('"') | Some('#'))
        {
            // Only a prefix when a quote actually follows the hashes.
            let mut ahead = 0usize;
            while self.peek(ahead) == Some('#') {
                ahead += 1;
            }
            if self.peek(ahead) == Some('"') {
                self.raw_string(line, depth);
                return;
            }
        }
        self.push(TokKind::Ident(name), line, depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_owned))
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_their_contents() {
        let src = r##"
            let a = "x.unwrap()"; // tail .unwrap() note
            let b = r#"also .expect("hidden")"#;
            /* block .lock() */
            call();
        "##;
        let names = idents(src);
        assert!(!names.contains(&"unwrap".to_owned()));
        assert!(!names.contains(&"expect".to_owned()));
        assert!(names.contains(&"call".to_owned()));
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert!(lexed.comments[0].text.contains("unwrap"));
        assert!(lexed.comments[1].text.contains(".lock()"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let c = '\\''; let d = 'x'; loop { break; } }";
        let lexed = lex(src);
        // No stray quote-confusion: the fn body still lexes and the
        // two char literals appear.
        let lits = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Literal)
            .count();
        assert_eq!(lits, 2);
        assert!(idents(src).contains(&"loop".to_owned()));
    }

    #[test]
    fn depth_tracks_braces() {
        let lexed = lex("a { b { c } d } e");
        let depth_of = |name: &str| {
            lexed
                .tokens
                .iter()
                .find(|t| t.ident() == Some(name))
                .unwrap()
                .depth
        };
        assert_eq!(depth_of("a"), 0);
        assert_eq!(depth_of("b"), 1);
        assert_eq!(depth_of("c"), 2);
        assert_eq!(depth_of("d"), 1);
        assert_eq!(depth_of("e"), 0);
    }

    #[test]
    fn numbers_stop_at_method_dots_and_ranges() {
        let names = idents("for i in 0..n { 1.max(x); 2.5f64; }");
        assert!(names.contains(&"0".to_owned()));
        assert!(names.contains(&"1".to_owned()));
        assert!(names.contains(&"max".to_owned()));
        assert!(names.contains(&"2.5f64".to_owned()));
    }

    #[test]
    fn lines_are_one_based_and_advance() {
        let lexed = lex("a\nb\n\nc");
        let lines: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }
}
