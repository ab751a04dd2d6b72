//! The parsed URL type.

use std::fmt;

/// A parsed HTTP(S) URL.
///
/// Designed for CDN log analysis rather than full WHATWG conformance: no
/// userinfo, no IDNA, no percent-decoding (logs carry URLs verbatim and the
/// n-gram model must see exactly the bytes the client sent). The canonical
/// string form returned by [`Display`][fmt::Display] re-parses to an equal
/// value.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Url {
    pub(crate) scheme: Option<String>,
    pub(crate) host: String,
    pub(crate) port: Option<u16>,
    /// Always starts with `/` (an empty input path becomes `/`).
    pub(crate) path: String,
    /// Raw key/value pairs in order of appearance; a key without `=` has a
    /// `None` value (`?flag` vs `?flag=`).
    pub(crate) query: Vec<(String, Option<String>)>,
    pub(crate) fragment: Option<String>,
}

impl Url {
    /// Parses a URL string. See [`crate::ParseUrlError`] for failure modes.
    pub fn parse(input: &str) -> Result<Self, crate::ParseUrlError> {
        crate::parse::parse_url(input)
    }

    /// Builder entry point: an `https` URL on `host` with path `/`.
    pub fn for_host(host: impl Into<String>) -> Self {
        Url {
            scheme: Some("https".to_owned()),
            host: host.into(),
            port: None,
            path: "/".to_owned(),
            query: Vec::new(),
            fragment: None,
        }
    }

    /// Returns a copy with the given path (a leading `/` is added when
    /// missing).
    pub fn with_path(mut self, path: impl Into<String>) -> Self {
        let path = path.into();
        self.path = if path.starts_with('/') {
            path
        } else {
            format!("/{path}")
        };
        self
    }

    /// Returns a copy with `key=value` appended to the query.
    pub fn with_query_param(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.query.push((key.into(), Some(value.into())));
        self
    }

    /// The scheme (`http`/`https`), if the URL carried one.
    pub fn scheme(&self) -> Option<&str> {
        self.scheme.as_deref()
    }

    /// The host (authority without port). Empty for rooted-path URLs.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The explicit port, if any.
    pub fn port(&self) -> Option<u16> {
        self.port
    }

    /// The path, always starting with `/`.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Path segments between `/` separators, excluding empty leading one.
    ///
    /// `/a/b/` yields `["a", "b", ""]` — the trailing empty segment
    /// distinguishes directory-style URLs, which matters for clustering.
    pub fn path_segments(&self) -> impl Iterator<Item = &str> {
        let mut path = &self.path[..];
        if let Some(stripped) = path.strip_prefix('/') {
            path = stripped;
        }
        path.split('/').filter(move |_| !path.is_empty())
    }

    /// Raw query pairs in order of appearance.
    pub fn query_pairs(&self) -> &[(String, Option<String>)] {
        &self.query
    }

    /// First value of query parameter `key`, if present with a value.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The fragment (without `#`), if any.
    pub fn fragment(&self) -> Option<&str> {
        self.fragment.as_deref()
    }

    /// Host plus path plus query — the object identity used throughout the
    /// paper (scheme and fragment do not distinguish cached objects).
    pub fn object_key(&self) -> String {
        let mut out = String::with_capacity(self.host.len() + self.path.len() + 16);
        out.push_str(&self.host);
        out.push_str(&self.path);
        push_query(&mut out, &self.query);
        out
    }

    /// Resolves `reference` against this URL, for following manifest
    /// references: absolute references replace everything, protocol-relative
    /// keep the scheme, rooted paths keep the authority, and host-relative
    /// references (`host/path`) are treated as absolute with this URL's
    /// scheme.
    pub fn join(&self, reference: &str) -> Result<Url, crate::ParseUrlError> {
        let mut resolved = Url::parse(reference)?;
        if resolved.host.is_empty() {
            resolved.host = self.host.clone();
            resolved.port = self.port;
        }
        if resolved.scheme.is_none() {
            resolved.scheme = self.scheme.clone();
        }
        Ok(resolved)
    }
}

pub(crate) fn push_query(out: &mut String, query: &[(String, Option<String>)]) {
    for (i, (k, v)) in query.iter().enumerate() {
        out.push(if i == 0 { '?' } else { '&' });
        out.push_str(k);
        if let Some(v) = v {
            out.push('=');
            out.push_str(v);
        }
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(scheme) = &self.scheme {
            write!(f, "{scheme}://")?;
        }
        f.write_str(&self.host)?;
        if let Some(port) = self.port {
            write!(f, ":{port}")?;
        }
        f.write_str(&self.path)?;
        let mut q = String::new();
        push_query(&mut q, &self.query);
        f.write_str(&q)?;
        if let Some(fragment) = &self.fragment {
            write!(f, "#{fragment}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_canonical_urls() {
        let url = Url::for_host("api.example.com")
            .with_path("v1/items")
            .with_query_param("page", "2");
        assert_eq!(url.to_string(), "https://api.example.com/v1/items?page=2");
    }

    #[test]
    fn object_key_strips_scheme_and_fragment() {
        let url = Url::parse("https://h.example/a/b?x=1#frag").unwrap();
        assert_eq!(url.object_key(), "h.example/a/b?x=1");
    }

    #[test]
    fn path_segments() {
        let url = Url::parse("https://h.example/a/b/c").unwrap();
        let segs: Vec<_> = url.path_segments().collect();
        assert_eq!(segs, vec!["a", "b", "c"]);

        let root = Url::parse("https://h.example/").unwrap();
        assert_eq!(root.path_segments().count(), 0);

        let trailing = Url::parse("https://h.example/a/").unwrap();
        let segs: Vec<_> = trailing.path_segments().collect();
        assert_eq!(segs, vec!["a", ""]);
    }

    #[test]
    fn query_param_lookup() {
        let url = Url::parse("https://h.example/p?a=1&b&c=&a=2").unwrap();
        assert_eq!(url.query_param("a"), Some("1"));
        assert_eq!(url.query_param("b"), None); // present but valueless
        assert_eq!(url.query_param("c"), Some(""));
        assert_eq!(url.query_pairs().len(), 4);
    }

    #[test]
    fn join_rooted_path_keeps_authority() {
        let base = Url::parse("https://news.example:8443/stories").unwrap();
        let joined = base.join("/article/1234").unwrap();
        assert_eq!(joined.to_string(), "https://news.example:8443/article/1234");
    }

    #[test]
    fn join_host_relative_gets_scheme() {
        let base = Url::parse("https://news.example/stories").unwrap();
        let joined = base.join("cdn.example.net/image1234.jpg").unwrap();
        assert_eq!(joined.to_string(), "https://cdn.example.net/image1234.jpg");
    }

    #[test]
    fn join_absolute_replaces_everything() {
        let base = Url::parse("https://a.example/x").unwrap();
        let joined = base.join("http://b.example/y?z=1").unwrap();
        assert_eq!(joined.to_string(), "http://b.example/y?z=1");
    }
}
