//! URL ↔ token interning, with optional clustering.

use std::collections::HashMap;

use jcdn_url::cluster::Clusterer;
use jcdn_url::Url;

/// How URLs are canonicalized before interning.
#[derive(Clone, Debug, Default)]
enum VocabMode {
    /// Use the URL string verbatim (Table 3's "Actual URLs" column).
    #[default]
    Raw,
    /// Map each URL through the Klotski-style clusterer first (Table 3's
    /// "Clustered URLs" column). URLs that fail to parse fall back to the
    /// raw string.
    Clustered(Clusterer),
}

/// An interning table from canonicalized URL strings to dense `u32` tokens.
#[derive(Clone, Debug, Default)]
pub struct Vocab {
    mode: VocabMode,
    index: HashMap<String, u32>,
}

impl Vocab {
    /// A raw (non-clustering) vocabulary.
    pub fn raw() -> Self {
        Vocab::default()
    }

    /// A clustering vocabulary with the default clusterer.
    pub fn clustered() -> Self {
        Vocab {
            mode: VocabMode::Clustered(Clusterer::default()),
            ..Vocab::default()
        }
    }

    /// Canonicalizes a URL per the mode (cluster key or verbatim).
    pub fn canonicalize(&self, url: &str) -> String {
        match &self.mode {
            VocabMode::Raw => url.to_owned(),
            VocabMode::Clustered(clusterer) => match Url::parse(url) {
                Ok(parsed) => clusterer.cluster(&parsed),
                Err(_) => url.to_owned(),
            },
        }
    }

    /// Interns a URL, returning its token.
    pub fn intern(&mut self, url: &str) -> u32 {
        let key = self.canonicalize(url);
        if let Some(&tok) = self.index.get(&key) {
            return tok;
        }
        #[expect(
            clippy::expect_used,
            reason = "id-space exhaustion (2^32 interned strings) has no recovery path"
        )]
        let tok = u32::try_from(self.index.len()).expect("vocabulary overflow");
        self.index.insert(key, tok);
        tok
    }

    /// Looks up a URL without inserting.
    pub fn get(&self, url: &str) -> Option<u32> {
        self.index.get(&self.canonicalize(url)).copied()
    }

    /// Number of distinct tokens.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no tokens have been interned.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_mode_distinguishes_ids() {
        let mut v = Vocab::raw();
        let a = v.intern("https://h.example/article/1");
        let b = v.intern("https://h.example/article/2");
        assert_ne!(a, b);
        assert_eq!(v.len(), 2);
        assert_eq!(v.get("https://h.example/article/1"), Some(a));
    }

    #[test]
    fn clustered_mode_merges_ids() {
        let mut v = Vocab::clustered();
        let a = v.intern("https://h.example/article/1");
        let b = v.intern("https://h.example/article/2");
        assert_eq!(a, b);
        assert_eq!(v.len(), 1);
        assert_eq!(
            v.canonicalize("https://h.example/article/1"),
            "h.example/article/{id}"
        );
    }

    #[test]
    fn clustered_mode_falls_back_on_unparseable() {
        let mut v = Vocab::clustered();
        assert_eq!(v.canonicalize("not a url at all"), "not a url at all");
        let a = v.intern("not a url at all");
        assert_eq!(v.get("not a url at all"), Some(a));
    }

    #[test]
    fn get_does_not_insert() {
        let mut v = Vocab::raw();
        assert_eq!(v.get("https://h.example/x"), None);
        let tok = v.intern("https://h.example/x");
        assert_eq!(v.get("https://h.example/x"), Some(tok));
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn interning_is_idempotent() {
        let mut v = Vocab::raw();
        let a = v.intern("https://h.example/x");
        let b = v.intern("https://h.example/x");
        assert_eq!(a, b);
        assert_eq!(v.len(), 1);
    }
}
