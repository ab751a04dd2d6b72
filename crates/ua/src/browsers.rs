//! Browser identification database.
//!
//! Stand-in for the public browser user-agent database the paper cites
//! (\[11\], useragentstring.com): "to separate between browser and
//! non-browser traffic, we use a database of browser user agents since
//! browsers use well-formed user-agent strings."

/// Major browser families recognized by the database.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BrowserFamily {
    /// Google Chrome / Chromium.
    Chrome,
    /// Apple Safari (including iOS WebKit browsers).
    Safari,
    /// Mozilla Firefox.
    Firefox,
    /// Microsoft Edge.
    Edge,
    /// Opera.
    Opera,
    /// Samsung Internet.
    SamsungInternet,
    /// Android WebView (embedded browser inside a native app).
    AndroidWebView,
}

/// One rule in the browser database: `token` must appear, every entry of
/// `absent` must not. Order matters — first match wins — because browser UA
/// strings embed each other's tokens (every Chrome UA contains "Safari",
/// Edge contains "Chrome", etc.).
pub struct BrowserRule {
    /// Substring that identifies the family.
    pub token: &'static str,
    /// Substrings whose presence vetoes this rule.
    pub absent: &'static [&'static str],
    /// The family this rule detects.
    pub family: BrowserFamily,
}

/// The ordered browser rule set.
///
/// A UA is browser traffic iff some rule matches **and** it carries the
/// `Mozilla/` preamble that real browsers send; library HTTP stacks that
/// spoof single tokens ("okhttp", "CFNetwork") never carry the full
/// well-formed preamble.
pub fn browser_db() -> &'static [BrowserRule] {
    const DB: &[BrowserRule] = &[
        BrowserRule {
            token: "Edg/",
            absent: &[],
            family: BrowserFamily::Edge,
        },
        BrowserRule {
            token: "Edge/",
            absent: &[],
            family: BrowserFamily::Edge,
        },
        BrowserRule {
            token: "OPR/",
            absent: &[],
            family: BrowserFamily::Opera,
        },
        BrowserRule {
            token: "Opera",
            absent: &[],
            family: BrowserFamily::Opera,
        },
        BrowserRule {
            token: "SamsungBrowser/",
            absent: &[],
            family: BrowserFamily::SamsungInternet,
        },
        BrowserRule {
            token: "Firefox/",
            absent: &["Seamonkey/"],
            family: BrowserFamily::Firefox,
        },
        BrowserRule {
            token: "; wv)",
            absent: &[],
            family: BrowserFamily::AndroidWebView,
        },
        BrowserRule {
            token: "Chrome/",
            absent: &["Chromium/"],
            family: BrowserFamily::Chrome,
        },
        BrowserRule {
            token: "Chromium/",
            absent: &[],
            family: BrowserFamily::Chrome,
        },
        BrowserRule {
            token: "Safari/",
            absent: &["Chrome/", "Chromium/"],
            family: BrowserFamily::Safari,
        },
    ];
    DB
}

/// Looks up the browser family for a UA string, requiring the well-formed
/// `Mozilla/` preamble.
pub(crate) fn detect_browser(ua: &str) -> Option<BrowserFamily> {
    if !ua.starts_with("Mozilla/") {
        return None;
    }
    for rule in browser_db() {
        if ua.contains(rule.token) && rule.absent.iter().all(|a| !ua.contains(a)) {
            return Some(rule.family);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHROME_WIN: &str = "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 \
         (KHTML, like Gecko) Chrome/74.0.3729.131 Safari/537.36";
    const SAFARI_IOS: &str = "Mozilla/5.0 (iPhone; CPU iPhone OS 12_4 like Mac OS X) \
         AppleWebKit/605.1.15 (KHTML, like Gecko) Version/12.1.2 Mobile/15E148 Safari/604.1";
    const EDGE_WIN: &str = "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 \
         (KHTML, like Gecko) Chrome/74.0.3729.131 Safari/537.36 Edg/74.1.96.24";
    const FIREFOX_LINUX: &str =
        "Mozilla/5.0 (X11; Linux x86_64; rv:66.0) Gecko/20100101 Firefox/66.0";
    const WEBVIEW: &str =
        "Mozilla/5.0 (Linux; Android 9; SM-G960F Build/PPR1; wv) AppleWebKit/537.36 \
         (KHTML, like Gecko) Version/4.0 Chrome/74.0.3729.136 Mobile Safari/537.36";

    #[test]
    fn token_priority_resolves_embedded_tokens() {
        assert_eq!(detect_browser(CHROME_WIN), Some(BrowserFamily::Chrome));
        assert_eq!(detect_browser(SAFARI_IOS), Some(BrowserFamily::Safari));
        assert_eq!(detect_browser(EDGE_WIN), Some(BrowserFamily::Edge));
        assert_eq!(detect_browser(FIREFOX_LINUX), Some(BrowserFamily::Firefox));
        assert_eq!(detect_browser(WEBVIEW), Some(BrowserFamily::AndroidWebView));
    }

    #[test]
    fn non_browser_stacks_are_rejected() {
        assert_eq!(detect_browser("okhttp/3.12.1"), None);
        assert_eq!(detect_browser("NewsApp/3.2.1 (iPhone; iOS 12.4)"), None);
        assert_eq!(detect_browser("python-requests/2.21.0"), None);
        assert_eq!(detect_browser("curl/7.64.0"), None);
        assert_eq!(detect_browser(""), None);
    }

    #[test]
    fn spoofed_token_without_preamble_is_rejected() {
        assert_eq!(detect_browser("MyBot Chrome/74.0"), None);
    }
}
