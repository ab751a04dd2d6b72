//! Minimal JSON emission for manifests and snapshots.
//!
//! `jcdn-obs` is dependency-free (it sits below `jcdn-json` in the crate
//! graph), so it carries its own ~hundred-line writer: objects with
//! already-ordered keys, string escaping per RFC 8259, and integers only —
//! every value the observability layer emits is a count, a microsecond
//! reading, or a label.

/// Appends `s` to `out` as a JSON string literal (quotes included).
pub(crate) fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// An object writer that tracks comma placement. Keys are emitted in call
/// order; callers iterate `BTreeMap`s so the order is deterministic.
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Opens `{` on `out`.
    pub fn begin(out: &'a mut String) -> ObjectWriter<'a> {
        out.push('{');
        ObjectWriter { out, first: true }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        push_string(self.out, key);
        self.out.push(':');
    }

    /// Writes `"key": <integer>`.
    pub fn field_u64(&mut self, key: &str, value: u64) {
        self.key(key);
        self.out.push_str(&value.to_string());
    }

    /// Writes `"key": "<value>"` with escaping.
    pub fn field_str(&mut self, key: &str, value: &str) {
        self.key(key);
        push_string(self.out, value);
    }

    /// Writes `"key": <already-serialized JSON>`. The caller vouches that
    /// `raw` is valid JSON (a nested object or array it just built).
    pub fn field_raw(&mut self, key: &str, raw: &str) {
        self.key(key);
        self.out.push_str(raw);
    }

    /// Closes the object with `}`.
    pub fn end(self) {
        self.out.push('}');
    }
}

/// Serializes an iterator of `(key, integer)` pairs as one JSON object.
/// Callers pass `BTreeMap` iterators, so key order is deterministic.
pub fn object_of_u64<'k>(pairs: impl Iterator<Item = (&'k str, u64)>) -> String {
    let mut out = String::new();
    let mut w = ObjectWriter::begin(&mut out);
    for (k, v) in pairs {
        w.field_u64(k, v);
    }
    w.end();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_control_and_quote_characters() {
        let mut out = String::new();
        push_string(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn object_writer_places_commas() {
        let mut out = String::new();
        let mut w = ObjectWriter::begin(&mut out);
        w.field_u64("a", 1);
        w.field_str("b", "x");
        w.field_raw("c", "{}");
        w.end();
        assert_eq!(out, "{\"a\":1,\"b\":\"x\",\"c\":{}}");
    }

    #[test]
    fn empty_object() {
        let mut out = String::new();
        ObjectWriter::begin(&mut out).end();
        assert_eq!(out, "{}");
    }
}
