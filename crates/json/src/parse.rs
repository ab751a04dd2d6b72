//! Recursive-descent JSON parser (RFC 8259) with positioned errors.

use std::fmt;

use crate::number::Number;
use crate::value::{Map, Value};

/// Maximum nesting depth of arrays/objects. Exceeding it yields
/// [`ErrorKind::DepthLimit`] instead of blowing the stack — CDN edge
/// parsers face adversarial bodies, so the limit is load-bearing.
pub const MAX_DEPTH: usize = 128;

/// What went wrong while parsing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// Input ended in the middle of a value.
    UnexpectedEof,
    /// A byte that cannot start or continue the expected production.
    UnexpectedChar(char),
    /// Nesting exceeded [`MAX_DEPTH`].
    DepthLimit,
    /// Numeric literal was malformed or out of range.
    InvalidNumber,
    /// String contained an invalid escape or control character.
    InvalidString,
    /// A `\uXXXX` escape did not form a valid scalar (bad hex or lone
    /// surrogate).
    InvalidUnicodeEscape,
    /// Valid JSON value followed by trailing non-whitespace.
    TrailingData,
}

/// Parse error with byte offset and 1-based line/column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error {
    /// The error category.
    pub kind: ErrorKind,
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number (in bytes from the line start).
    pub column: usize,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match &self.kind {
            ErrorKind::UnexpectedEof => "unexpected end of input".to_owned(),
            ErrorKind::UnexpectedChar(c) => format!("unexpected character {c:?}"),
            ErrorKind::DepthLimit => "nesting depth limit exceeded".to_owned(),
            ErrorKind::InvalidNumber => "invalid number literal".to_owned(),
            ErrorKind::InvalidString => "invalid string literal".to_owned(),
            ErrorKind::InvalidUnicodeEscape => "invalid \\u escape".to_owned(),
            ErrorKind::TrailingData => "trailing data after value".to_owned(),
        };
        write!(f, "{what} at line {} column {}", self.line, self.column)
    }
}

impl std::error::Error for Error {}

/// Parses `input`, nested at most [`MAX_DEPTH`] deep.
pub fn parse(input: &str) -> Result<Value, Error> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        input,
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error(ErrorKind::TrailingData));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, kind: ErrorKind) -> Error {
        let consumed = &self.input[..self.pos.min(self.input.len())];
        let line = consumed.bytes().filter(|&b| b == b'\n').count() + 1;
        let column = self.pos - consumed.rfind('\n').map_or(0, |i| i + 1) + 1;
        Error {
            kind,
            offset: self.pos,
            line,
            column,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_literal(&mut self, literal: &str, value: Value) -> Result<Value, Error> {
        if self.input[self.pos..].starts_with(literal) {
            self.pos += literal.len();
            Ok(value)
        } else {
            // Point at the first diverging character for a precise error.
            match self.peek() {
                Some(b) => Err(self.error(ErrorKind::UnexpectedChar(b as char))),
                None => Err(self.error(ErrorKind::UnexpectedEof)),
            }
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(self.error(ErrorKind::DepthLimit));
        }
        match self.peek() {
            None => Err(self.error(ErrorKind::UnexpectedEof)),
            Some(b'n') => self.expect_literal("null", Value::Null),
            Some(b't') => self.expect_literal("true", Value::Bool(true)),
            Some(b'f') => self.expect_literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(self.error(ErrorKind::UnexpectedChar(b as char))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, Error> {
        self.bump(); // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.bump();
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(items)),
                Some(b) => {
                    self.pos -= 1;
                    return Err(self.error(ErrorKind::UnexpectedChar(b as char)));
                }
                None => return Err(self.error(ErrorKind::UnexpectedEof)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, Error> {
        self.bump(); // '{'
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.bump();
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return match self.peek() {
                    Some(b) => Err(self.error(ErrorKind::UnexpectedChar(b as char))),
                    None => Err(self.error(ErrorKind::UnexpectedEof)),
                };
            }
            let key = self.string()?;
            self.skip_ws();
            match self.bump() {
                Some(b':') => {}
                Some(b) => {
                    self.pos -= 1;
                    return Err(self.error(ErrorKind::UnexpectedChar(b as char)));
                }
                None => return Err(self.error(ErrorKind::UnexpectedEof)),
            }
            self.skip_ws();
            let value = self.value(depth + 1)?;
            // RFC 8259 leaves duplicate-key behaviour implementation-defined;
            // we keep the last value, matching serde_json.
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Object(map)),
                Some(b) => {
                    self.pos -= 1;
                    return Err(self.error(ErrorKind::UnexpectedChar(b as char)));
                }
                None => return Err(self.error(ErrorKind::UnexpectedEof)),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.bump(); // opening quote
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes at once.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(&self.input[start..self.pos]);
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => out.push(self.unicode_escape()?),
                    Some(_) => {
                        self.pos -= 1;
                        return Err(self.error(ErrorKind::InvalidString));
                    }
                    None => return Err(self.error(ErrorKind::UnexpectedEof)),
                },
                Some(b) if b < 0x20 => {
                    self.pos -= 1;
                    return Err(self.error(ErrorKind::InvalidString));
                }
                Some(_) => unreachable!("fast path consumed plain bytes"),
                None => return Err(self.error(ErrorKind::UnexpectedEof)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, Error> {
        let mut v: u16 = 0;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.error(ErrorKind::UnexpectedEof))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.error(ErrorKind::InvalidUnicodeEscape))?;
            v = (v << 4) | digit as u16;
        }
        Ok(v)
    }

    fn unicode_escape(&mut self) -> Result<char, Error> {
        let first = self.hex4()?;
        if (0xD800..=0xDBFF).contains(&first) {
            // High surrogate: must be followed by \uDC00..=\uDFFF.
            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                return Err(self.error(ErrorKind::InvalidUnicodeEscape));
            }
            let second = self.hex4()?;
            if !(0xDC00..=0xDFFF).contains(&second) {
                return Err(self.error(ErrorKind::InvalidUnicodeEscape));
            }
            let scalar =
                0x10000 + ((u32::from(first) - 0xD800) << 10) + (u32::from(second) - 0xDC00);
            char::from_u32(scalar).ok_or_else(|| self.error(ErrorKind::InvalidUnicodeEscape))
        } else if (0xDC00..=0xDFFF).contains(&first) {
            Err(self.error(ErrorKind::InvalidUnicodeEscape))
        } else {
            char::from_u32(u32::from(first))
                .ok_or_else(|| self.error(ErrorKind::InvalidUnicodeEscape))
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.bump();
        }
        // Integer part: either a single 0, or 1-9 followed by digits.
        match self.bump() {
            Some(b'0') => {}
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.bump();
                }
            }
            _ => {
                self.pos = start;
                return Err(self.error(ErrorKind::InvalidNumber));
            }
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.bump();
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error(ErrorKind::InvalidNumber));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.bump();
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.bump();
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error(ErrorKind::InvalidNumber));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.bump();
            }
        }
        let text = &self.input[start..self.pos];
        let number = if is_float {
            let f: f64 = text
                .parse()
                .map_err(|_| self.error(ErrorKind::InvalidNumber))?;
            Number::from_f64(f).ok_or_else(|| self.error(ErrorKind::InvalidNumber))?
        } else if let Ok(i) = text.parse::<i64>() {
            Number::from(i)
        } else if let Ok(u) = text.parse::<u64>() {
            Number::from(u)
        } else {
            // Integer overflowing u64: fall back to float, as serde_json's
            // default (arbitrary_precision off) does.
            let f: f64 = text
                .parse()
                .map_err(|_| self.error(ErrorKind::InvalidNumber))?;
            Number::from_f64(f).ok_or_else(|| self.error(ErrorKind::InvalidNumber))?
        };
        Ok(Value::Number(number))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap().as_i64(), Some(42));
        assert_eq!(parse("-7").unwrap().as_i64(), Some(-7));
        assert_eq!(parse("2.5").unwrap().as_f64(), Some(2.5));
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(parse(r#""hi""#).unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": [true, null]}], "c": "x"}"#).unwrap();
        assert_eq!(v.pointer("/a/1/b/0").unwrap(), &Value::Bool(true));
        assert!(v.pointer("/a/1/b/1").unwrap().is_null());
    }

    #[test]
    fn whitespace_everywhere() {
        let v = parse(" \t\r\n { \"a\" : [ 1 , 2 ] } \n").unwrap();
        assert_eq!(v.pointer("/a/1").unwrap().as_i64(), Some(2));
    }

    #[test]
    fn string_escapes() {
        let v = parse(r#""a\"b\\c\/d\b\f\n\r\t""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c/d\u{8}\u{c}\n\r\t"));
    }

    #[test]
    fn unicode_escapes_including_surrogate_pairs() {
        assert_eq!(parse(r#""A""#).unwrap().as_str(), Some("A"));
        assert_eq!(parse(r#""é""#).unwrap().as_str(), Some("é"));
        // U+1F600 as surrogate pair.
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("😀"));
    }

    #[test]
    fn lone_surrogates_rejected() {
        assert_eq!(
            parse(r#""\ud83d""#).unwrap_err().kind,
            ErrorKind::InvalidUnicodeEscape
        );
        assert_eq!(
            parse(r#""\ude00""#).unwrap_err().kind,
            ErrorKind::InvalidUnicodeEscape
        );
        assert_eq!(
            parse(r#""\ud83dx""#).unwrap_err().kind,
            ErrorKind::InvalidUnicodeEscape
        );
    }

    #[test]
    fn rejects_malformed_numbers() {
        for bad in ["01", "1.", ".5", "1e", "1e+", "-", "+1", "0x10", "1.2.3"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn rejects_control_chars_in_strings() {
        assert_eq!(
            parse("\"a\nb\"").unwrap_err().kind,
            ErrorKind::InvalidString
        );
    }

    #[test]
    fn rejects_trailing_data_and_eof() {
        assert_eq!(parse("1 2").unwrap_err().kind, ErrorKind::TrailingData);
        assert_eq!(parse("[1,").unwrap_err().kind, ErrorKind::UnexpectedEof);
        assert_eq!(parse(r#"{"a""#).unwrap_err().kind, ErrorKind::UnexpectedEof);
        assert_eq!(parse("").unwrap_err().kind, ErrorKind::UnexpectedEof);
    }

    #[test]
    fn rejects_trailing_commas_and_bare_words() {
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a":1,}"#).is_err());
        assert!(parse("nul").is_err());
        assert!(parse("truth").is_err());
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert_eq!(parse(&deep).unwrap_err().kind, ErrorKind::DepthLimit);
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(parse(&ok).is_ok());
        // Nesting levels 0..=MAX_DEPTH parse; one more does not.
        let at_limit = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse(&at_limit).is_ok());
        let just_over = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert_eq!(parse(&just_over).unwrap_err().kind, ErrorKind::DepthLimit);
    }

    #[test]
    fn error_positions_are_line_and_column_accurate() {
        let err = parse("{\n  \"a\": @\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.column, 8);
        assert_eq!(err.offset, 9);
        assert_eq!(err.kind, ErrorKind::UnexpectedChar('@'));
    }

    #[test]
    fn duplicate_keys_keep_last_value() {
        let v = parse(r#"{"a": 1, "a": 2}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_i64(), Some(2));
        assert_eq!(v.as_object().unwrap().iter().count(), 1);
    }

    #[test]
    fn huge_integers_fall_back_to_float() {
        let v = parse("18446744073709551616").unwrap(); // u64::MAX + 1
        assert_eq!(v.as_u64(), None);
        assert!(v.as_f64().unwrap() > 1.8e19);
    }

    #[test]
    fn u64_range_integers_preserved() {
        let v = parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }
}
