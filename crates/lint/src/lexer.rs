//! A minimal Rust lexer producing a flat token stream with spans.
//!
//! This is not a full grammar — the rules in [`crate::rules`] only need
//! identifier/punctuation sequences with accurate line/column positions,
//! comments classified (doc vs. plain), and string/char literals opaque so
//! their contents never look like code. Raw strings, nested block
//! comments, lifetimes, and byte literals are handled; everything else is
//! a single-character punctuation token.

/// What a token is, at the granularity the rules care about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `HashMap`, `unwrap`, …).
    Ident,
    /// Single punctuation character (`.`, `:`, `{`, `+`, …).
    Punct,
    /// Numeric literal, consumed with its suffix (`0x7f`, `1_000u64`).
    Num,
    /// String literal of any flavor (`"…"`, `r#"…"#`, `b"…"`), opaque.
    Str,
    /// Character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// Outer doc comment (`/// …` or `/** … */`).
    DocOuter,
    /// Inner doc comment (`//! …` or `/*! … */`).
    DocInner,
}

/// One token: kind, source text, and 1-based position of its first byte.
#[derive(Clone, Debug)]
pub struct Token<'a> {
    /// Classification.
    pub kind: TokKind,
    /// The exact source slice.
    pub text: &'a str,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column (in characters).
    pub col: u32,
}

/// Lexes `src` into tokens. Never fails: on malformed input (unterminated
/// string, stray byte) the lexer degrades to single-character punctuation
/// tokens rather than erroring, which is the right behavior for a linter
/// running over code rustc already accepted.
pub fn lex(src: &str) -> Vec<Token<'_>> {
    Lexer {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    out: Vec<Token<'a>>,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

impl<'a> Lexer<'a> {
    fn peek(&self, ahead: usize) -> u8 {
        *self.bytes.get(self.pos + ahead).unwrap_or(&0)
    }

    /// Advances one byte, maintaining line/col. Multi-byte UTF-8
    /// continuation bytes do not advance the column. A no-op at end of
    /// input so multi-byte consumers (`\\` escapes near EOF) can never
    /// push the cursor past the buffer and slice out of bounds.
    fn bump(&mut self) {
        if self.pos >= self.bytes.len() {
            return;
        }
        let b = self.peek(0);
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else if (b & 0xC0) != 0x80 {
            self.col += 1;
        }
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn emit(&mut self, kind: TokKind, start: usize, line: u32, col: u32) {
        self.out.push(Token {
            kind,
            text: &self.src[start..self.pos],
            line,
            col,
        });
    }

    fn run(mut self) -> Vec<Token<'a>> {
        while self.pos < self.bytes.len() {
            let (start, line, col) = (self.pos, self.line, self.col);
            let b = self.peek(0);
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => self.bump(),
                b'/' if self.peek(1) == b'/' => self.line_comment(start, line, col),
                b'/' if self.peek(1) == b'*' => self.block_comment(start, line, col),
                b'r' | b'b' => {
                    if !self.raw_or_byte_literal(start, line, col) {
                        self.ident(start, line, col);
                    }
                }
                b'"' => {
                    self.string_literal();
                    self.emit(TokKind::Str, start, line, col);
                }
                b'\'' => self.char_or_lifetime(start, line, col),
                b'0'..=b'9' => {
                    self.number();
                    self.emit(TokKind::Num, start, line, col);
                }
                _ if is_ident_start(b) => self.ident(start, line, col),
                _ => {
                    self.bump();
                    self.emit(TokKind::Punct, start, line, col);
                }
            }
        }
        self.out
    }

    fn ident(&mut self, start: usize, line: u32, col: u32) {
        while is_ident_continue(self.peek(0)) && self.pos < self.bytes.len() {
            self.bump();
        }
        self.emit(TokKind::Ident, start, line, col);
    }

    fn line_comment(&mut self, start: usize, line: u32, col: u32) {
        while self.pos < self.bytes.len() && self.peek(0) != b'\n' {
            self.bump();
        }
        let text = &self.src[start..self.pos];
        if text.starts_with("///") && !text.starts_with("////") {
            self.emit(TokKind::DocOuter, start, line, col);
        } else if text.starts_with("//!") {
            self.emit(TokKind::DocInner, start, line, col);
        }
    }

    fn block_comment(&mut self, start: usize, line: u32, col: u32) {
        self.bump_n(2);
        let mut depth = 1usize;
        while self.pos < self.bytes.len() && depth > 0 {
            if self.peek(0) == b'/' && self.peek(1) == b'*' {
                depth += 1;
                self.bump_n(2);
            } else if self.peek(0) == b'*' && self.peek(1) == b'/' {
                depth -= 1;
                self.bump_n(2);
            } else {
                self.bump();
            }
        }
        let text = &self.src[start..self.pos];
        if text.starts_with("/**") && !text.starts_with("/***") && text.len() > 5 {
            self.emit(TokKind::DocOuter, start, line, col);
        } else if text.starts_with("/*!") {
            self.emit(TokKind::DocInner, start, line, col);
        }
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, and `b'…'`. Returns
    /// false when the `r`/`b` at the cursor is just an identifier start.
    fn raw_or_byte_literal(&mut self, start: usize, line: u32, col: u32) -> bool {
        let mut ahead = 1;
        if self.peek(0) == b'b' && self.peek(1) == b'r' {
            ahead = 2;
        }
        if self.peek(0) == b'b' && self.peek(1) == b'\'' {
            self.bump();
            self.char_body();
            self.emit(TokKind::Char, start, line, col);
            return true;
        }
        let mut hashes = 0;
        while self.peek(ahead + hashes) == b'#' {
            hashes += 1;
        }
        if self.peek(ahead + hashes) != b'"' {
            return false;
        }
        if ahead == 1 && self.peek(0) == b'b' && hashes == 0 {
            // b"…" — plain byte string.
            self.bump();
            self.string_literal();
            self.emit(TokKind::Str, start, line, col);
            return true;
        }
        if self.peek(ahead - 1) != b'r' && !(ahead == 1 && self.peek(0) == b'b') {
            return false;
        }
        // Raw string: skip prefix, hashes, opening quote; scan for `"#…#`.
        self.bump_n(ahead + hashes + 1);
        loop {
            if self.pos >= self.bytes.len() {
                break;
            }
            if self.peek(0) == b'"' {
                let mut closing = 0;
                while closing < hashes && self.peek(1 + closing) == b'#' {
                    closing += 1;
                }
                if closing == hashes {
                    self.bump_n(1 + hashes);
                    break;
                }
            }
            self.bump();
        }
        self.emit(TokKind::Str, start, line, col);
        true
    }

    /// Consumes a `"…"` body (cursor on the opening quote).
    fn string_literal(&mut self) {
        self.bump();
        while self.pos < self.bytes.len() {
            match self.peek(0) {
                b'\\' => self.bump_n(2),
                b'"' => {
                    self.bump();
                    break;
                }
                _ => self.bump(),
            }
        }
    }

    /// Consumes a `'…'` body (cursor on the opening quote).
    fn char_body(&mut self) {
        self.bump();
        while self.pos < self.bytes.len() {
            match self.peek(0) {
                b'\\' => self.bump_n(2),
                b'\'' => {
                    self.bump();
                    break;
                }
                _ => self.bump(),
            }
        }
    }

    fn char_or_lifetime(&mut self, start: usize, line: u32, col: u32) {
        // 'x' / '\n' → char; 'ident (no closing quote soon) → lifetime.
        let next = self.peek(1);
        if next == b'\\' || (self.peek(2) == b'\'' && next != b'\'') {
            self.char_body();
            self.emit(TokKind::Char, start, line, col);
        } else if is_ident_start(next) {
            self.bump();
            while is_ident_continue(self.peek(0)) {
                self.bump();
            }
            self.emit(TokKind::Lifetime, start, line, col);
        } else {
            self.char_body();
            self.emit(TokKind::Char, start, line, col);
        }
    }

    fn number(&mut self) {
        while self.pos < self.bytes.len() {
            let b = self.peek(0);
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.bump();
            } else if b == b'.' && self.peek(1).is_ascii_digit() {
                // `1.5` continues the number; `1..n` does not.
                self.bump();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .iter()
            .map(|t| (t.kind, t.text.to_string()))
            .collect()
    }

    #[test]
    fn idents_and_puncts_with_positions() {
        let l = lex("fn main() {\n  x.unwrap();\n}");
        let unwrap = l.iter().find(|t| t.text == "unwrap");
        let unwrap = unwrap.as_ref();
        assert_eq!(unwrap.map(|t| t.line), Some(2));
        assert_eq!(unwrap.map(|t| t.col), Some(5));
    }

    #[test]
    fn strings_hide_code() {
        let toks = kinds("let s = \"x.unwrap()\"; let r = r#\"SystemTime\"# ;");
        assert!(toks.iter().all(|(_, t)| t != "unwrap"));
        assert!(toks.iter().all(|(_, t)| t != "SystemTime"));
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Str).count(), 2);
    }

    #[test]
    fn doc_comments_classified() {
        let toks = kinds("/// outer\npub fn f() {}\n//! inner\n// plain");
        assert_eq!(toks[0].0, TokKind::DocOuter);
        assert!(toks.iter().any(|(k, _)| *k == TokKind::DocInner));
        assert!(toks.iter().all(|(_, t)| !t.contains("plain")));
    }

    #[test]
    fn lifetimes_vs_chars() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::Lifetime).count(),
            2
        );
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 2);
    }

    #[test]
    fn trailing_escape_at_eof_does_not_panic() {
        // Regression: `\` as the final byte of a string/char body used to
        // push the cursor past the buffer and panic slicing the token.
        lex("let s = \"abc\\");
        lex("let c = '\\");
        lex("let b = b\"x\\");
        lex("let r = r#\"unterminated");
        lex("/* unterminated block *");
    }

    #[test]
    fn numbers_consume_suffixes() {
        let toks = kinds("let x = 0x7fu64 + 1_000 + 1.5e3;");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Num && t == "0x7fu64"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Num && t == "1.5e3"));
    }
}
