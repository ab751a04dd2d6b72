//! The per-request log record and its field vocabulary.

use std::fmt;

use crate::time::SimTime;

/// Anonymized client identity: the paper identifies a client by a *hashed
/// IP + user-agent pair* (§5.1). The IP hash is stored here; the UA travels
/// separately as a [`UaId`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub u64);

/// Interned user-agent string index within a [`crate::Trace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UaId(pub u32);

impl UaId {
    /// The id as a table index.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interned URL index within a [`crate::Trace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UrlId(pub u32);

impl UrlId {
    /// The id as a table index.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// HTTP request method.
///
/// The paper's request-type taxonomy needs only the GET/POST distinction
/// (downloads vs. uploads, §3.2), but logs carry the rest too.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Method {
    /// Download (the paper: 84% of JSON requests).
    Get,
    /// Upload (96% of the non-GET remainder).
    Post,
    /// Metadata probe.
    Head,
    /// Idempotent upload.
    Put,
    /// Deletion.
    Delete,
}

impl Method {
    /// True for methods the paper counts as downloads.
    pub fn is_download(self) -> bool {
        matches!(self, Method::Get | Method::Head)
    }

    /// True for methods the paper counts as uploads.
    pub fn is_upload(self) -> bool {
        matches!(self, Method::Post | Method::Put)
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Head => "HEAD",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
        })
    }
}

/// Response content type, from the HTTP `Content-Type` (mime) header.
///
/// The paper filters on `application/json`; the trend analysis (Figure 1)
/// also tracks HTML, CSS, and JavaScript.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MimeType {
    /// `application/json`.
    Json,
    /// `text/html`.
    Html,
    /// `text/css`.
    Css,
    /// `application/javascript` / `text/javascript`.
    JavaScript,
    /// `image/*`.
    Image,
    /// `video/*`.
    Video,
    /// Everything else.
    Other,
}

impl MimeType {
    /// Canonical header value.
    pub(crate) fn as_header(self) -> &'static str {
        match self {
            MimeType::Json => "application/json",
            MimeType::Html => "text/html",
            MimeType::Css => "text/css",
            MimeType::JavaScript => "application/javascript",
            MimeType::Image => "image/jpeg",
            MimeType::Video => "video/mp4",
            MimeType::Other => "application/octet-stream",
        }
    }
}

impl fmt::Display for MimeType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_header())
    }
}

/// How the CDN edge cache handled the request ("object caching
/// information" in the log schema).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CacheStatus {
    /// Served from edge cache.
    Hit,
    /// Cacheable, but fetched from origin (cold or expired).
    Miss,
    /// Customer configuration marks the object uncacheable; tunneled to
    /// origin. The paper: 55% of JSON traffic.
    NotCacheable,
}

impl CacheStatus {
    /// True when the customer configuration allows caching this object.
    pub fn is_cacheable(self) -> bool {
        !matches!(self, CacheStatus::NotCacheable)
    }
}

/// Resilience annotations on a log record, packed as a bit set.
///
/// Real edge logs mark how a response was produced when the origin was
/// unhealthy; the fault-injection subsystem (`cdnsim::fault`) sets these so
/// availability analyses can separate end-user failures from retried or
/// gracefully degraded responses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordFlags(u8);

impl RecordFlags {
    /// No annotations.
    pub const NONE: RecordFlags = RecordFlags(0);
    /// The edge answered with an expired cache entry (stale-if-error).
    pub const SERVED_STALE: RecordFlags = RecordFlags(1);
    /// The request rode an already in-flight origin fetch for the same
    /// object instead of issuing its own.
    pub const COALESCED: RecordFlags = RecordFlags(1 << 1);
    /// This attempt failed and a retry was scheduled; a later record with a
    /// higher retry count continues the request.
    pub const RETRIED: RecordFlags = RecordFlags(1 << 2);
    /// Answered from the negative cache (a recent origin 5xx for this
    /// object), without contacting the origin.
    pub const NEG_CACHED: RecordFlags = RecordFlags(1 << 3);

    /// All bits that are currently defined. Codec v4 packs flags two per
    /// byte, so a new flag past bit 3 needs a codec version bump first.
    const ALL: u8 = 0b1111;

    /// Reconstructs flags from their wire byte; unknown bits are an error.
    pub fn from_bits(bits: u8) -> Option<RecordFlags> {
        (bits & !Self::ALL == 0).then_some(RecordFlags(bits))
    }

    /// The wire byte.
    pub(crate) fn bits(self) -> u8 {
        self.0
    }

    /// True when every bit of `other` is set in `self`.
    pub fn contains(self, other: RecordFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Returns `self` with the bits of `other` added.
    #[must_use]
    pub fn with(self, other: RecordFlags) -> RecordFlags {
        RecordFlags(self.0 | other.0)
    }

    /// Adds the bits of `other` in place.
    pub fn insert(&mut self, other: RecordFlags) {
        self.0 |= other.0;
    }
}

impl fmt::Display for RecordFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (flag, name) in [
            (RecordFlags::SERVED_STALE, "stale"),
            (RecordFlags::COALESCED, "coalesced"),
            (RecordFlags::RETRIED, "retried"),
            (RecordFlags::NEG_CACHED, "neg-cached"),
        ] {
            if self.contains(flag) {
                if !first {
                    f.write_str(",")?;
                }
                f.write_str(name)?;
                first = false;
            }
        }
        if first {
            f.write_str("-")?;
        }
        Ok(())
    }
}

/// One edge-server request log line (§3.1 field list, plus the resilience
/// columns real CDN logs carry: status, retry attempt, and degradation
/// flags).
// `Ord` compares fields in declaration order — `time` first — so a full
// sort doubles as a canonical, insertion-order-independent time sort
// (see `Trace::sort_canonical`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct LogRecord {
    /// Request arrival time at the edge.
    pub time: SimTime,
    /// Hashed client IP.
    pub client: ClientId,
    /// Interned user-agent (None ⇒ header absent).
    pub ua: Option<UaId>,
    /// Interned request URL.
    pub url: UrlId,
    /// HTTP method.
    pub method: Method,
    /// Response content type.
    pub mime: MimeType,
    /// HTTP response status.
    pub status: u16,
    /// Response body size in bytes.
    pub response_bytes: u64,
    /// Edge cache disposition.
    pub cache: CacheStatus,
    /// Which attempt of the logical request this record is (0 = first try).
    pub retries: u8,
    /// Resilience annotations (stale serve, coalesced fetch, …).
    pub flags: RecordFlags,
}

impl LogRecord {
    /// True when the response was an error (HTTP 5xx).
    pub fn is_error(&self) -> bool {
        self.status >= 500
    }

    /// True when this attempt failed *and* no retry follows it — i.e. the
    /// failure reached the end user.
    pub fn is_end_user_failure(&self) -> bool {
        self.is_error() && !self.flags.contains(RecordFlags::RETRIED)
    }
}

// Codec v4 stores record flags in a nibble; this fails to compile if a
// fifth flag bit is ever defined without widening that column.
const _: () = assert!(RecordFlags::ALL <= 0x0F);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_taxonomy() {
        assert!(Method::Get.is_download());
        assert!(Method::Head.is_download());
        assert!(Method::Post.is_upload());
        assert!(Method::Put.is_upload());
        assert!(!Method::Get.is_upload());
        assert!(!Method::Delete.is_download());
    }

    #[test]
    fn canonical_headers() {
        assert_eq!(MimeType::Json.as_header(), "application/json");
        assert_eq!(MimeType::Html.as_header(), "text/html");
        assert_eq!(MimeType::Css.as_header(), "text/css");
        assert_eq!(MimeType::JavaScript.as_header(), "application/javascript");
    }

    #[test]
    fn record_flags_round_trip_bits() {
        let mut flags = RecordFlags::NONE;
        flags.insert(RecordFlags::SERVED_STALE);
        flags.insert(RecordFlags::RETRIED);
        assert!(flags.contains(RecordFlags::SERVED_STALE));
        assert!(flags.contains(RecordFlags::RETRIED));
        assert!(!flags.contains(RecordFlags::COALESCED));
        assert_eq!(RecordFlags::from_bits(flags.bits()), Some(flags));
        assert_eq!(RecordFlags::from_bits(0xF0), None, "unknown bits rejected");
        assert_eq!(flags.to_string(), "stale,retried");
        assert_eq!(RecordFlags::NONE.to_string(), "-");
    }

    #[test]
    fn cache_status_predicates() {
        assert!(CacheStatus::Hit.is_cacheable());
        assert!(CacheStatus::Miss.is_cacheable());
        assert!(!CacheStatus::NotCacheable.is_cacheable());
    }
}
