//! URL argument clustering (Klotski-style).
//!
//! §5.2 of the paper evaluates its n-gram predictor on both raw URLs and
//! *clustered* URLs, "using clustering similar to URL argument clustering in
//! \[13\]" (Klotski, NSDI '15). The idea: URLs that differ only in
//! client-specific identifiers (`/article/1234` vs `/article/5678`,
//! `?user=ab12…` vs `?user=cd34…`) denote the same *application step* and
//! should map to the same key, revealing general object dependencies.
//!
//! [`Clusterer`] rewrites each path segment and query value through a set of
//! token rules; anything identifier-like becomes a placeholder.

use crate::Url;

/// The placeholder classes a token can be rewritten to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenClass {
    /// Decimal digits only (`1234`) → `{id}`.
    NumericId,
    /// UUID shape (8-4-4-4-12 hex) → `{uuid}`.
    Uuid,
    /// Long hex string (≥ 8 chars) → `{hex}`.
    Hex,
    /// Long mixed alphanumeric token (≥ 10 chars with both letters and
    /// digits) → `{token}`.
    Token,
    /// Signed decimal number with a fraction (`40.7128`, `-74.0060`) →
    /// `{coord}`. Geo coordinates in telemetry URLs are the paper's example
    /// of unique client information.
    Coordinate,
    /// Anything else is kept verbatim.
    Literal,
}

impl TokenClass {
    /// The placeholder text for this class (`None` for literals).
    pub(crate) fn placeholder(self) -> Option<&'static str> {
        match self {
            TokenClass::NumericId => Some("{id}"),
            TokenClass::Uuid => Some("{uuid}"),
            TokenClass::Hex => Some("{hex}"),
            TokenClass::Token => Some("{token}"),
            TokenClass::Coordinate => Some("{coord}"),
            TokenClass::Literal => None,
        }
    }
}

/// Classifies one token (a path segment or a query value).
pub(crate) fn classify_token(token: &str) -> TokenClass {
    if token.is_empty() {
        return TokenClass::Literal;
    }
    // Strip a common file extension before classifying: `image1234.jpg`
    // clusters on its stem.
    let stem = token;

    if stem.bytes().all(|b| b.is_ascii_digit()) {
        return TokenClass::NumericId;
    }
    if is_uuid(stem) {
        return TokenClass::Uuid;
    }
    if is_coordinate(stem) {
        return TokenClass::Coordinate;
    }
    if stem.len() >= 8 && stem.bytes().all(|b| b.is_ascii_hexdigit()) {
        return TokenClass::Hex;
    }
    let has_digit = stem.bytes().any(|b| b.is_ascii_digit());
    let has_alpha = stem.bytes().any(|b| b.is_ascii_alphabetic());
    let plain = stem
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_');
    if stem.len() >= 10 && has_digit && has_alpha && plain {
        return TokenClass::Token;
    }
    TokenClass::Literal
}

fn is_uuid(s: &str) -> bool {
    let bytes = s.as_bytes();
    if bytes.len() != 36 {
        return false;
    }
    for (i, &b) in bytes.iter().enumerate() {
        match i {
            8 | 13 | 18 | 23 => {
                if b != b'-' {
                    return false;
                }
            }
            _ => {
                if !b.is_ascii_hexdigit() {
                    return false;
                }
            }
        }
    }
    true
}

fn is_coordinate(s: &str) -> bool {
    let body = s.strip_prefix('-').unwrap_or(s);
    let Some((int, frac)) = body.split_once('.') else {
        return false;
    };
    !int.is_empty()
        && !frac.is_empty()
        && int.bytes().all(|b| b.is_ascii_digit())
        && frac.bytes().all(|b| b.is_ascii_digit())
}

/// Rewrites URLs into cluster keys.
///
/// Construction is cheap; the type exists (rather than a free function) so
/// policies can be tuned per-experiment.
#[derive(Clone, Debug)]
pub struct Clusterer {
    /// Also replace file-name stems: `image1234.jpg` → `image{id}.jpg`.
    /// Enabled by default — manifest-referenced media share one key.
    pub cluster_file_stems: bool,
    /// Drop query parameters entirely instead of clustering their values.
    /// Disabled by default (the paper clusters values, keeping the keys).
    pub drop_query: bool,
}

impl Default for Clusterer {
    fn default() -> Self {
        Clusterer {
            cluster_file_stems: true,
            drop_query: false,
        }
    }
}

impl Clusterer {
    /// Produces the cluster key for `url`: host + clustered path +
    /// clustered query (keys kept, identifier-like values replaced).
    pub fn cluster(&self, url: &Url) -> String {
        let mut out = String::with_capacity(url.path().len() + url.host().len() + 16);
        out.push_str(url.host());
        let path = url.path();
        if path == "/" {
            out.push('/');
        } else {
            for segment in path.split('/').skip(1) {
                out.push('/');
                out.push_str(&self.cluster_segment(segment));
            }
        }
        if !self.drop_query && !url.query_pairs().is_empty() {
            for (i, (key, value)) in url.query_pairs().iter().enumerate() {
                out.push(if i == 0 { '?' } else { '&' });
                out.push_str(key);
                if let Some(value) = value {
                    out.push('=');
                    match classify_token(value).placeholder() {
                        Some(ph) => out.push_str(ph),
                        None => out.push_str(value),
                    }
                }
            }
        }
        out
    }

    fn cluster_segment(&self, segment: &str) -> String {
        if let Some(ph) = classify_token(segment).placeholder() {
            return ph.to_owned();
        }
        if self.cluster_file_stems {
            if let Some((stem, ext)) = segment.rsplit_once('.') {
                if !ext.is_empty()
                    && ext.len() <= 5
                    && ext.bytes().all(|b| b.is_ascii_alphanumeric())
                {
                    if let Some(ph) = classify_token(stem).placeholder() {
                        return format!("{ph}.{ext}");
                    }
                    // `image1234` → `image{id}`: trailing digit run after a
                    // literal stem is still an identifier.
                    if let Some(rewritten) = cluster_trailing_digits(stem) {
                        return format!("{rewritten}.{ext}");
                    }
                }
            }
            if let Some(rewritten) = cluster_trailing_digits(segment) {
                return rewritten;
            }
        }
        segment.to_owned()
    }
}

/// `image1234` → `image{id}` when a literal prefix ends in ≥2 digits.
fn cluster_trailing_digits(s: &str) -> Option<String> {
    let digits = s.bytes().rev().take_while(|b| b.is_ascii_digit()).count();
    if digits >= 2 && digits < s.len() {
        Some(format!("{}{{id}}", &s[..s.len() - digits]))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> String {
        Clusterer::default().cluster(&Url::parse(s).unwrap())
    }

    #[test]
    fn numeric_path_segments_cluster() {
        assert_eq!(
            key("https://news.example/article/1234"),
            "news.example/article/{id}"
        );
        assert_eq!(
            key("https://news.example/article/5678"),
            "news.example/article/{id}"
        );
    }

    #[test]
    fn uuid_and_hex_segments() {
        assert_eq!(
            key("https://api.example/u/550e8400-e29b-41d4-a716-446655440000/feed"),
            "api.example/u/{uuid}/feed"
        );
        assert_eq!(
            key("https://api.example/s/deadbeef00"),
            "api.example/s/{hex}"
        );
    }

    #[test]
    fn mixed_tokens_and_short_words_survive() {
        assert_eq!(key("https://a.example/k/ab12cd34ef99"), "a.example/k/{hex}");
        assert_eq!(
            key("https://a.example/k/session9x8y7z6w5v"),
            "a.example/k/{token}"
        );
        assert_eq!(key("https://a.example/v2/items"), "a.example/v2/items");
        assert_eq!(key("https://a.example/api/news"), "a.example/api/news");
    }

    #[test]
    fn coordinates_cluster() {
        assert_eq!(
            key("https://t.example/report?lat=40.7128&lon=-74.0060"),
            "t.example/report?lat={coord}&lon={coord}"
        );
    }

    #[test]
    fn query_values_cluster_but_keys_remain() {
        assert_eq!(
            key("https://a.example/p?user=123456&page=2&sort=asc"),
            "a.example/p?user={id}&page={id}&sort=asc"
        );
        assert_eq!(key("https://a.example/p?flag"), "a.example/p?flag");
    }

    #[test]
    fn file_stems_cluster() {
        assert_eq!(
            key("https://img.example/image1234.jpg"),
            "img.example/image{id}.jpg"
        );
        assert_eq!(
            key("https://img.example/video9.mp4"),
            "img.example/video9.mp4" // single trailing digit: kept
        );
    }

    #[test]
    fn drop_query_mode() {
        let c = Clusterer {
            drop_query: true,
            ..Clusterer::default()
        };
        let url = Url::parse("https://a.example/p?user=123").unwrap();
        assert_eq!(c.cluster(&url), "a.example/p");
    }

    #[test]
    fn root_path() {
        assert_eq!(key("https://a.example/"), "a.example/");
    }

    #[test]
    fn classify_token_edges() {
        assert_eq!(classify_token(""), TokenClass::Literal);
        assert_eq!(classify_token("0"), TokenClass::NumericId);
        assert_eq!(classify_token("abcdef"), TokenClass::Literal); // hex but < 8
        assert_eq!(classify_token("abcdef12"), TokenClass::Hex);
        assert_eq!(classify_token("1.5"), TokenClass::Coordinate);
        assert_eq!(classify_token("-1.5"), TokenClass::Coordinate);
        assert_eq!(classify_token("1."), TokenClass::Literal);
        assert_eq!(classify_token(".5"), TokenClass::Literal);
        assert_eq!(
            classify_token("550e8400-e29b-41d4-a716-446655440000"),
            TokenClass::Uuid
        );
    }

    #[test]
    fn identical_cluster_for_same_app_step_different_clients() {
        // The property Table 3 relies on: two clients' URLs for the same
        // step share a key.
        let a = key("https://game.example/score/9912?player=p1q2r3s4t5u6");
        let b = key("https://game.example/score/17?player=z9y8x7w6v5u4");
        assert_eq!(a, b);
    }
}
