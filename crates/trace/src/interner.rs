//! Shared string interner for URL and user-agent tables.
//!
//! [`Trace`](crate::Trace) and [`ShardedTrace`](crate::ShardedTrace) both
//! resolve [`UrlId`]/[`UaId`] through an `Interner`. Strings are stored as
//! `Arc<str>` so the id→string table and the string→id index share one
//! allocation per distinct string (a miss costs exactly one copy of the
//! input plus a refcount bump).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::record::{UaId, UrlId};
use crate::trace::host_of_url;

/// An interning table overflowed its 32-bit id space.
///
/// Ids travel in records as `u32`; a trace with more than `u32::MAX`
/// distinct URLs (or UAs) cannot be represented. The fallible
/// `try_intern_*` methods surface this as an error instead of panicking so
/// ingest paths (e.g. the codec decoding untrusted payloads) can reject the
/// input cleanly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InternError {
    /// The URL table is full.
    TooManyUrls,
    /// The user-agent table is full.
    TooManyUas,
}

impl fmt::Display for InternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InternError::TooManyUrls => write!(f, "more than u32::MAX distinct URLs"),
            InternError::TooManyUas => write!(f, "more than u32::MAX distinct user agents"),
        }
    }
}

impl std::error::Error for InternError {}

/// Deduplicating string tables mapping URLs ⇄ [`UrlId`] and UAs ⇄ [`UaId`].
#[derive(Clone, Debug, Default)]
pub struct Interner {
    urls: Vec<Arc<str>>,
    url_index: HashMap<Arc<str>, UrlId>,
    uas: Vec<Arc<str>>,
    ua_index: HashMap<Arc<str>, UaId>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Interns a URL, returning an error when the id space is exhausted.
    pub(crate) fn try_intern_url(&mut self, url: &str) -> Result<UrlId, InternError> {
        if let Some(&id) = self.url_index.get(url) {
            return Ok(id);
        }
        let id = UrlId(u32::try_from(self.urls.len()).map_err(|_| InternError::TooManyUrls)?);
        let shared: Arc<str> = Arc::from(url);
        self.urls.push(Arc::clone(&shared));
        self.url_index.insert(shared, id);
        Ok(id)
    }

    /// Interns a user agent, returning an error when the id space is
    /// exhausted.
    pub(crate) fn try_intern_ua(&mut self, ua: &str) -> Result<UaId, InternError> {
        if let Some(&id) = self.ua_index.get(ua) {
            return Ok(id);
        }
        let id = UaId(u32::try_from(self.uas.len()).map_err(|_| InternError::TooManyUas)?);
        let shared: Arc<str> = Arc::from(ua);
        self.uas.push(Arc::clone(&shared));
        self.ua_index.insert(shared, id);
        Ok(id)
    }

    /// Interns a URL. Panics only in the astronomically unlikely case of
    /// id-space exhaustion; use `try_intern_url` on
    /// untrusted input.
    #[expect(
        clippy::expect_used,
        reason = "documented panicking twin of try_intern_url for trusted input"
    )]
    pub fn intern_url(&mut self, url: &str) -> UrlId {
        self.try_intern_url(url).expect("URL id space exhausted")
    }

    /// Interns a user agent; panicking twin of
    /// `try_intern_ua`.
    #[expect(
        clippy::expect_used,
        reason = "documented panicking twin of try_intern_ua for trusted input"
    )]
    pub fn intern_ua(&mut self, ua: &str) -> UaId {
        self.try_intern_ua(ua).expect("UA id space exhausted")
    }

    /// Resolves a URL id.
    pub fn url(&self, id: UrlId) -> &str {
        &self.urls[id.index()]
    }

    /// Resolves a UA id.
    pub(crate) fn ua(&self, id: UaId) -> &str {
        &self.uas[id.index()]
    }

    /// Looks up the id of an already-interned URL.
    pub(crate) fn find_url(&self, url: &str) -> Option<UrlId> {
        self.url_index.get(url).copied()
    }

    /// All interned URLs, indexed by `UrlId`.
    pub fn url_table(&self) -> &[Arc<str>] {
        &self.urls
    }

    /// All interned UAs, indexed by `UaId`.
    pub fn ua_table(&self) -> &[Arc<str>] {
        &self.uas
    }

    /// Number of distinct URLs.
    pub(crate) fn url_count(&self) -> usize {
        self.urls.len()
    }

    /// Number of distinct user agents.
    pub(crate) fn ua_count(&self) -> usize {
        self.uas.len()
    }

    /// The host part of an interned URL (no allocation).
    pub fn host_of(&self, id: UrlId) -> &str {
        host_of_url(self.url(id))
    }
}

/// Every interned URL's host, resolved once: a dense host id per
/// [`UrlId`] and the host string per host id. Hosts are numbered in order
/// of their first URL, and two URLs share a host id exactly when
/// [`Interner::host_of`] gives them the same host, so analyses can tally
/// per-domain counts in arrays instead of parsing URLs per record.
#[derive(Clone, Debug)]
pub struct HostTable<'i> {
    url_hosts: Vec<usize>,
    hosts: Vec<&'i str>,
}

impl<'i> HostTable<'i> {
    /// Resolves the host of every URL in `interner`.
    pub fn build(interner: &'i Interner) -> Self {
        let mut ids: HashMap<&'i str, usize> = HashMap::new();
        let mut hosts = Vec::new();
        let url_hosts = interner
            .url_table()
            .iter()
            .map(|url| {
                let host = host_of_url(url);
                *ids.entry(host).or_insert_with(|| {
                    hosts.push(host);
                    hosts.len() - 1
                })
            })
            .collect();
        HostTable { url_hosts, hosts }
    }

    /// The host id of a URL, an index into [`hosts`][Self::hosts].
    pub fn host_id(&self, url: UrlId) -> usize {
        self.url_hosts[url.index()]
    }

    /// The distinct hosts, indexed by host id.
    pub fn hosts(&self) -> &[&'i str] {
        &self.hosts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates_and_resolves() {
        let mut i = Interner::new();
        let a = i.intern_url("https://h.example/a");
        let b = i.intern_url("https://h.example/b");
        assert_eq!(i.intern_url("https://h.example/a"), a);
        assert_ne!(a, b);
        assert_eq!(i.url_count(), 2);
        assert_eq!(i.url(a), "https://h.example/a");
        assert_eq!(i.find_url("https://h.example/b"), Some(b));
        assert_eq!(i.find_url("https://h.example/c"), None);
        let ua = i.intern_ua("okhttp/3.12.1");
        assert_eq!(i.ua(ua), "okhttp/3.12.1");
    }

    #[test]
    fn table_and_index_share_one_allocation() {
        let mut i = Interner::new();
        let id = i.intern_url("https://h.example/shared");
        let in_table = &i.url_table()[id.0 as usize];
        // Two handles: one in the table, one keyed in the index.
        assert_eq!(Arc::strong_count(in_table), 2);
    }

    #[test]
    fn try_intern_is_fallible_not_panicking() {
        let mut i = Interner::new();
        assert!(i.try_intern_url("https://h.example/x").is_ok());
        assert!(i.try_intern_ua("curl/8.0").is_ok());
        // The error type exists and formats; actually exhausting 2^32 ids
        // in a test is impractical.
        assert_eq!(
            InternError::TooManyUrls.to_string(),
            "more than u32::MAX distinct URLs"
        );
        assert_eq!(
            InternError::TooManyUas.to_string(),
            "more than u32::MAX distinct user agents"
        );
    }
}
