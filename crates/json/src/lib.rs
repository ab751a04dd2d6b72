//! # jcdn-json — minimal JSON substrate
//!
//! A small, dependency-free JSON implementation used throughout the jcdn
//! workspace. The paper this workspace reproduces (*Characterizing JSON
//! Traffic Patterns on a CDN*, IMC '19) studies `application/json` traffic;
//! the synthetic workload generator emits real JSON bodies (e.g. the manifest
//! pattern of Table 1) and the prefetcher parses them, so the workspace
//! carries its own JSON model rather than an external dependency.
//!
//! The crate provides:
//!
//! * [`Value`] — an owned JSON document tree ([`Value::Object`] preserves
//!   insertion order, which keeps generated manifests deterministic),
//! * [`parse`] / [`parse_with`] — a recursive-descent parser with
//!   position-tracked errors and a configurable depth limit,
//! * [`to_string`] / [`to_string_pretty`] — serializers that round-trip
//!   every value produced by the parser,
//! * [`pointer`][Value::pointer] — RFC 6901 JSON Pointer lookup, used by the
//!   manifest prefetcher to pull URL references out of response bodies.
//!
//! ## Example
//!
//! ```
//! use jcdn_json::{parse, Value};
//!
//! let doc = parse(r#"{"article_id": 1234, "image_url": "news.example/image1234.jpg"}"#)
//!     .expect("valid JSON");
//! assert_eq!(doc.get("article_id").and_then(Value::as_i64), Some(1234));
//! assert_eq!(
//!     doc.pointer("/image_url").and_then(Value::as_str),
//!     Some("news.example/image1234.jpg"),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod number;
mod parse;
mod ser;
mod value;

pub use number::Number;
pub use parse::{parse, parse_with, Error, ErrorKind, ParseOptions};
pub use ser::{to_string, to_string_pretty};
pub use value::{Map, Value};

/// Extracts every string in `value` that looks like a URL or URL path.
///
/// This is the primitive behind *manifest prefetching* (Table 1 of the
/// paper): a JSON manifest response references follow-up objects either by
/// absolute URL (`"news_example.com/image1234.jpg"`) or by a rooted path
/// (`"/article/1234"`). The walk is depth-first and preserves document
/// order, so the result order matches the order an application would issue
/// the follow-up requests in.
///
/// A string is considered URL-like when it
///
/// * starts with `http://`, `https://`, or `//`, or
/// * starts with `/` and has at least one more character, or
/// * contains a `.` before the first `/` and no whitespace (host-relative
///   references such as `cdn.example.com/v1/data.json`).
pub fn extract_url_refs(value: &Value) -> Vec<&str> {
    fn looks_like_url(s: &str) -> bool {
        if s.is_empty() || s.chars().any(char::is_whitespace) {
            return false;
        }
        if s.starts_with("http://") || s.starts_with("https://") || s.starts_with("//") {
            return true;
        }
        if s.starts_with('/') {
            return s.len() > 1;
        }
        // Host-relative: a dot in the authority part followed by a path.
        match s.find('/') {
            Some(slash) if slash > 0 => s[..slash].contains('.'),
            _ => false,
        }
    }

    fn walk<'v>(value: &'v Value, out: &mut Vec<&'v str>) {
        match value {
            Value::String(s) if looks_like_url(s) => {
                out.push(s);
            }
            Value::Array(items) => {
                for item in items {
                    walk(item, out);
                }
            }
            Value::Object(map) => {
                for (_, v) in map.iter() {
                    walk(v, out);
                }
            }
            _ => {}
        }
    }

    let mut out = Vec::new();
    walk(value, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_manifest_refs_in_document_order() {
        let doc = parse(
            r#"[
                {"article_id": 1234,
                 "article_title": "Lorem Ipsum",
                 "image_url": "news_example.com/image1234.jpg"},
                {"article_id": 5678,
                 "video": "/video/5678.mp4"}
            ]"#,
        )
        .unwrap();
        assert_eq!(
            extract_url_refs(&doc),
            vec!["news_example.com/image1234.jpg", "/video/5678.mp4"],
        );
    }

    #[test]
    fn plain_strings_are_not_urls() {
        let doc = parse(r#"{"title": "Lorem ipsum dolor", "id": "1234", "slash": "/"}"#).unwrap();
        assert!(extract_url_refs(&doc).is_empty());
    }

    #[test]
    fn absolute_and_protocol_relative_urls() {
        let doc = parse(
            r#"{"a": "https://api.example.com/v2/items",
                "b": "//cdn.example.net/x.js",
                "c": "http://example.org"}"#,
        )
        .unwrap();
        assert_eq!(extract_url_refs(&doc).len(), 3);
    }
}
