//! Permissive HTTP URL parsing.

use std::fmt;

use crate::url::Url;

/// Why a URL string failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseUrlError {
    /// Empty input.
    Empty,
    /// A scheme other than `http`/`https`.
    UnsupportedScheme(String),
    /// `scheme://` with nothing after it.
    MissingHost,
    /// Port was present but not a valid `u16`.
    InvalidPort(String),
    /// Whitespace or control characters in the input.
    IllegalCharacter(char),
}

impl fmt::Display for ParseUrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseUrlError::Empty => write!(f, "empty URL"),
            ParseUrlError::UnsupportedScheme(s) => write!(f, "unsupported scheme {s:?}"),
            ParseUrlError::MissingHost => write!(f, "missing host after scheme"),
            ParseUrlError::InvalidPort(p) => write!(f, "invalid port {p:?}"),
            ParseUrlError::IllegalCharacter(c) => write!(f, "illegal character {c:?} in URL"),
        }
    }
}

impl std::error::Error for ParseUrlError {}

/// Parses the URL shapes found in CDN logs and JSON manifest bodies:
///
/// * absolute — `https://host[:port]/path?query#fragment`
/// * protocol-relative — `//host/path`
/// * host-relative — `host.tld/path` (a dot before the first `/`)
/// * rooted path — `/path?query` (host left empty, resolved via
///   [`Url::join`])
pub(crate) fn parse_url(input: &str) -> Result<Url, ParseUrlError> {
    if input.is_empty() {
        return Err(ParseUrlError::Empty);
    }
    if let Some(c) = input
        .chars()
        .find(|c| c.is_whitespace() || (*c as u32) < 0x20)
    {
        return Err(ParseUrlError::IllegalCharacter(c));
    }

    let (scheme, rest) = if let Some(rest) = strip_scheme(input, "https") {
        (Some("https".to_owned()), rest)
    } else if let Some(rest) = strip_scheme(input, "http") {
        (Some("http".to_owned()), rest)
    } else if let Some(rest) = input.strip_prefix("//") {
        (None, rest)
    } else if let Some((candidate, _)) = input.split_once("://") {
        return Err(ParseUrlError::UnsupportedScheme(candidate.to_owned()));
    } else {
        // No scheme: decide between rooted path and host-relative.
        if input.starts_with('/') {
            let (path, query, fragment) = split_path_query_fragment(input);
            return Ok(Url {
                scheme: None,
                host: String::new(),
                port: None,
                path: normalize_path(path),
                query: parse_query(query),
                fragment: fragment.map(str::to_owned),
            });
        }
        let host_end = input.find('/').unwrap_or(input.len());
        if !input[..host_end].contains('.') {
            // Not recognizably a host — treat as a bare relative path.
            let (path, query, fragment) = split_path_query_fragment(input);
            return Ok(Url {
                scheme: None,
                host: String::new(),
                port: None,
                path: normalize_path(&format!("/{path}")),
                query: parse_query(query),
                fragment: fragment.map(str::to_owned),
            });
        }
        (None, input)
    };

    // `rest` is authority[/path...]
    let authority_end = rest.find(['/', '?', '#']).unwrap_or(rest.len());
    let authority = &rest[..authority_end];
    if authority.is_empty() {
        return Err(ParseUrlError::MissingHost);
    }
    let (host, port) = match authority.rsplit_once(':') {
        Some((h, p)) if !p.is_empty() && p.bytes().all(|b| b.is_ascii_digit()) => {
            let port: u16 = p
                .parse()
                .map_err(|_| ParseUrlError::InvalidPort(p.to_owned()))?;
            (h.to_owned(), Some(port))
        }
        Some((_, p)) if p.bytes().all(|b| b.is_ascii_digit()) => {
            return Err(ParseUrlError::InvalidPort(p.to_owned()));
        }
        _ => (authority.to_owned(), None),
    };

    let (path, query, fragment) = split_path_query_fragment(&rest[authority_end..]);
    Ok(Url {
        scheme,
        host,
        port,
        path: normalize_path(path),
        query: parse_query(query),
        fragment: fragment.map(str::to_owned),
    })
}

fn strip_scheme<'a>(input: &'a str, scheme: &str) -> Option<&'a str> {
    let rest = input.strip_prefix(scheme)?;
    rest.strip_prefix("://")
}

/// Splits `/path?query#fragment` into its three raw parts.
fn split_path_query_fragment(input: &str) -> (&str, Option<&str>, Option<&str>) {
    let (before_fragment, fragment) = match input.split_once('#') {
        Some((b, f)) => (b, Some(f)),
        None => (input, None),
    };
    let (path, query) = match before_fragment.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (before_fragment, None),
    };
    (path, query, fragment)
}

fn normalize_path(path: &str) -> String {
    if path.is_empty() {
        "/".to_owned()
    } else if path.starts_with('/') {
        path.to_owned()
    } else {
        format!("/{path}")
    }
}

fn parse_query(query: Option<&str>) -> Vec<(String, Option<String>)> {
    let Some(query) = query else {
        return Vec::new();
    };
    if query.is_empty() {
        return Vec::new();
    }
    query
        .split('&')
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_owned(), Some(v.to_owned())),
            None => (pair.to_owned(), None),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Url {
        Url::parse(s).unwrap_or_else(|e| panic!("{s:?} should parse: {e}"))
    }

    #[test]
    fn absolute_url_full_form() {
        let u = parse("https://api.example.com:8443/v1/items?a=1&b=2#top");
        assert_eq!(u.scheme.as_deref(), Some("https"));
        assert_eq!(u.host(), "api.example.com");
        assert_eq!(u.port, Some(8443));
        assert_eq!(u.path(), "/v1/items");
        assert_eq!(u.query[1], ("b".to_owned(), Some("2".to_owned())));
        assert_eq!(u.fragment.as_deref(), Some("top"));
    }

    #[test]
    fn display_round_trips() {
        for s in [
            "https://h.example/",
            "http://h.example/a/b?x=1&y#f",
            "//h.example/p",
            "h.example/p?q=2",
            "/just/a/path?k",
            "https://h.example:80/",
        ] {
            let u = parse(s);
            let reparsed = parse(&u.to_string());
            assert_eq!(u, reparsed, "round-trip of {s}");
        }
    }

    #[test]
    fn bare_host_gets_root_path() {
        let u = parse("https://example.com");
        assert_eq!(u.path(), "/");
        assert_eq!(u.to_string(), "https://example.com/");
    }

    #[test]
    fn protocol_relative() {
        let u = parse("//cdn.example.net/lib.js");
        assert_eq!(u.scheme, None);
        assert_eq!(u.host(), "cdn.example.net");
        assert_eq!(u.path(), "/lib.js");
    }

    #[test]
    fn host_relative_requires_dot() {
        let u = parse("news.example.com/stories");
        assert_eq!(u.host(), "news.example.com");
        assert_eq!(u.path(), "/stories");

        // No dot before the slash: treated as a relative path.
        let u = parse("stories/today");
        assert_eq!(u.host(), "");
        assert_eq!(u.path(), "/stories/today");
    }

    #[test]
    fn rooted_path() {
        let u = parse("/article/1234?ref=push");
        assert_eq!(u.host(), "");
        assert_eq!(u.path(), "/article/1234");
        assert_eq!(u.query, [("ref".to_owned(), Some("push".to_owned()))]);
    }

    #[test]
    fn query_shapes() {
        let u = parse("https://h.example/p?plain&empty=&pair=v");
        assert_eq!(
            u.query_pairs(),
            &[
                ("plain".to_owned(), None),
                ("empty".to_owned(), Some(String::new())),
                ("pair".to_owned(), Some("v".to_owned())),
            ]
        );
        // '?' with nothing after it produces an empty query.
        let u = parse("https://h.example/p?");
        assert!(u.query_pairs().is_empty());
    }

    #[test]
    fn error_cases() {
        assert_eq!(Url::parse(""), Err(ParseUrlError::Empty));
        assert_eq!(
            Url::parse("ftp://example.com/x"),
            Err(ParseUrlError::UnsupportedScheme("ftp".to_owned()))
        );
        assert_eq!(Url::parse("https://"), Err(ParseUrlError::MissingHost));
        assert_eq!(
            Url::parse("https://h.example:99999/"),
            Err(ParseUrlError::InvalidPort("99999".to_owned()))
        );
        assert_eq!(
            Url::parse("https://h.example/a b"),
            Err(ParseUrlError::IllegalCharacter(' '))
        );
    }

    #[test]
    fn ipv4_host_with_port() {
        let u = parse("http://10.0.0.1:8080/health");
        assert_eq!(u.host(), "10.0.0.1");
        assert_eq!(u.port, Some(8080));
    }

    #[test]
    fn colon_in_path_does_not_confuse_port() {
        let u = parse("https://h.example/a:b/c");
        assert_eq!(u.port, None);
        assert_eq!(u.path(), "/a:b/c");
    }
}
