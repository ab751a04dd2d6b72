//! The trace container with string interning.

use std::sync::Arc;

use crate::interner::Interner;
use crate::record::{LogRecord, UaId, UrlId};
use crate::stream::RecordStream;
use crate::time::SimTime;

/// An in-memory collection of [`LogRecord`]s with interned URL and
/// user-agent strings.
///
/// Interning matters: the short-term dataset in the paper has 25M logs over
/// ~5K domains — URLs and UAs repeat constantly. Records store 4-byte ids;
/// the tables resolve them back to strings.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    interner: Interner,
    records: Vec<LogRecord>,
}

/// A record with its interned strings resolved.
#[derive(Clone, Copy, Debug)]
pub struct RecordView<'t> {
    /// The raw record.
    pub record: &'t LogRecord,
    /// The request URL.
    pub url: &'t str,
    /// The user-agent header, when present.
    pub ua: Option<&'t str>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Builds a trace from an interner and records produced against it.
    pub fn from_parts(interner: Interner, records: Vec<LogRecord>) -> Self {
        Trace { interner, records }
    }

    /// Splits the trace into its interner and record vector.
    pub fn into_parts(self) -> (Interner, Vec<LogRecord>) {
        (self.interner, self.records)
    }

    /// The string tables backing this trace's ids.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Interns a URL string, returning its id.
    pub fn intern_url(&mut self, url: &str) -> UrlId {
        self.interner.intern_url(url)
    }

    /// Interns a user-agent string, returning its id.
    pub fn intern_ua(&mut self, ua: &str) -> UaId {
        self.interner.intern_ua(ua)
    }

    /// Appends a record. The record's ids must have been produced by this
    /// trace's `intern_*` methods.
    pub fn push(&mut self, record: LogRecord) {
        debug_assert!(
            record.url.index() < self.interner.url_count(),
            "foreign UrlId"
        );
        debug_assert!(
            record
                .ua
                .is_none_or(|ua| ua.index() < self.interner.ua_count()),
            "foreign UaId"
        );
        self.records.push(record);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records in insertion order (or time order after
    /// [`sort_by_time`][Trace::sort_by_time]).
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// A streaming view over this trace's records and tables.
    pub fn stream(&self) -> RecordStream<'_> {
        RecordStream::new(&self.interner, vec![&self.records])
    }

    /// Resolves a URL id.
    pub fn url(&self, id: UrlId) -> &str {
        self.interner.url(id)
    }

    /// Resolves a UA id.
    pub(crate) fn ua(&self, id: UaId) -> &str {
        self.interner.ua(id)
    }

    /// Looks up the id of an already-interned URL.
    pub fn find_url(&self, url: &str) -> Option<UrlId> {
        self.interner.find_url(url)
    }

    /// All interned URLs, indexed by `UrlId`.
    pub fn url_table(&self) -> &[Arc<str>] {
        self.interner.url_table()
    }

    /// All interned UAs, indexed by `UaId`.
    pub fn ua_table(&self) -> &[Arc<str>] {
        self.interner.ua_table()
    }

    /// Number of distinct URLs.
    pub fn url_count(&self) -> usize {
        self.interner.url_count()
    }

    /// Number of distinct user agents.
    pub fn ua_count(&self) -> usize {
        self.interner.ua_count()
    }

    /// Resolves one record's strings.
    pub(crate) fn view<'t>(&'t self, record: &'t LogRecord) -> RecordView<'t> {
        RecordView {
            record,
            url: self.url(record.url),
            ua: record.ua.map(|id| self.ua(id)),
        }
    }

    /// Iterates resolved records.
    pub fn iter(&self) -> impl Iterator<Item = RecordView<'_>> {
        self.records.iter().map(move |r| self.view(r))
    }

    /// Sorts records by timestamp (stable, so same-time records keep
    /// insertion order).
    pub fn sort_by_time(&mut self) {
        self.records.sort_by_key(|r| r.time);
    }

    /// Sorts records by the full field order (time first). Unlike
    /// [`sort_by_time`][Trace::sort_by_time] this yields one canonical
    /// permutation for any input order of the same record multiset, which
    /// is what makes sharded pipeline output reproducible regardless of
    /// worker count.
    ///
    /// A log that is already time-sorted (as a per-edge simulator log is)
    /// only has its runs of equal-time records sorted: `Ord` compares
    /// `time` first, so that is the same permutation at a fraction of the
    /// cost.
    pub fn sort_canonical(&mut self) {
        if self.records.is_sorted_by_key(|r| r.time) {
            for run in self.records.chunk_by_mut(|a, b| a.time == b.time) {
                run.sort_unstable();
            }
        } else {
            self.records.sort_unstable();
        }
    }

    /// Earliest and latest record times, or `None` when empty.
    pub(crate) fn time_span(&self) -> Option<(SimTime, SimTime)> {
        let first = self.records.iter().map(|r| r.time).min()?;
        let last = self.records.iter().map(|r| r.time).max()?;
        Some((first, last))
    }

    /// Appends all records of `other`, re-interning its strings into this
    /// trace's tables. Used to combine captures from multiple vantage
    /// points into one dataset (the paper's long-term dataset pools three
    /// Seattle vantage points). Call [`sort_by_time`][Trace::sort_by_time]
    /// afterwards if a chronological view is needed.
    pub fn merge(&mut self, other: &Trace) {
        let url_map: Vec<UrlId> = other
            .url_table()
            .iter()
            .map(|url| self.intern_url(url))
            .collect();
        let ua_map: Vec<UaId> = other
            .ua_table()
            .iter()
            .map(|ua| self.intern_ua(ua))
            .collect();
        self.records.reserve(other.len());
        for r in other.records() {
            let mut record = *r;
            record.url = url_map[r.url.index()];
            record.ua = r.ua.map(|ua| ua_map[ua.index()]);
            self.records.push(record);
        }
    }

    /// Retains only records matching the predicate (tables are left
    /// untouched — ids stay valid).
    pub fn retain(&mut self, mut predicate: impl FnMut(&LogRecord) -> bool) {
        self.records.retain(|r| predicate(r));
    }
}

/// Extracts the host part of a URL string without full parsing.
pub(crate) fn host_of_url(url: &str) -> &str {
    let rest = url
        .strip_prefix("https://")
        .or_else(|| url.strip_prefix("http://"))
        .or_else(|| url.strip_prefix("//"))
        .unwrap_or(url);
    let end = rest.find(['/', '?', '#']).unwrap_or(rest.len());
    let authority = &rest[..end];
    // Strip a port.
    match authority.rsplit_once(':') {
        Some((host, port)) if !port.is_empty() && port.bytes().all(|b| b.is_ascii_digit()) => host,
        _ => authority,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{CacheStatus, ClientId, Method, MimeType, RecordFlags};

    fn record(trace: &mut Trace, t: u64, url: &str) -> LogRecord {
        let url = trace.intern_url(url);
        LogRecord {
            time: SimTime::from_secs(t),
            client: ClientId(1),
            ua: None,
            url,
            method: Method::Get,
            mime: MimeType::Json,
            status: 200,
            response_bytes: 100,
            cache: CacheStatus::Hit,
            retries: 0,
            flags: RecordFlags::NONE,
        }
    }

    #[test]
    fn interning_deduplicates() {
        let mut t = Trace::new();
        let a = t.intern_url("https://h.example/a");
        let b = t.intern_url("https://h.example/b");
        let a2 = t.intern_url("https://h.example/a");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.url_count(), 2);
        assert_eq!(t.url(a), "https://h.example/a");
        assert_eq!(t.find_url("https://h.example/b"), Some(b));
        assert_eq!(t.find_url("https://h.example/c"), None);
    }

    #[test]
    fn view_resolves_strings() {
        let mut t = Trace::new();
        let ua = t.intern_ua("okhttp/3.12.1");
        let mut r = record(&mut t, 1, "https://h.example/x");
        r.ua = Some(ua);
        t.push(r);
        let v = t.iter().next().unwrap();
        assert_eq!(v.url, "https://h.example/x");
        assert_eq!(v.ua, Some("okhttp/3.12.1"));
    }

    #[test]
    fn sort_and_time_span() {
        let mut t = Trace::new();
        let r3 = record(&mut t, 3, "https://h.example/3");
        let r1 = record(&mut t, 1, "https://h.example/1");
        let r2 = record(&mut t, 2, "https://h.example/2");
        t.push(r3);
        t.push(r1);
        t.push(r2);
        t.sort_by_time();
        let times: Vec<u64> = t.records().iter().map(|r| r.time.as_secs()).collect();
        assert_eq!(times, vec![1, 2, 3]);
        assert_eq!(
            t.time_span(),
            Some((SimTime::from_secs(1), SimTime::from_secs(3)))
        );
        assert_eq!(Trace::new().time_span(), None);
    }

    #[test]
    fn canonical_sort_is_order_insensitive() {
        let build = |order: &[usize]| {
            let mut t = Trace::new();
            let mut rs = Vec::new();
            for i in 0..6u64 {
                // Duplicate timestamps so plain time sorting would depend
                // on insertion order.
                let mut r = record(&mut t, i / 2, &format!("https://h.example/{i}"));
                r.client = ClientId(i % 3);
                rs.push(r);
            }
            for &i in order {
                t.push(rs[i]);
            }
            t.sort_canonical();
            t.records().to_vec()
        };
        let a = build(&[0, 1, 2, 3, 4, 5]);
        let b = build(&[5, 3, 1, 4, 2, 0]);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].time <= w[1].time));
    }

    /// Records with few distinct times (so ties are common) and fields
    /// that tell the tied records apart, in the generated order.
    fn tied_records(raw: &[(u64, u64, u8, u16)]) -> Vec<LogRecord> {
        let mut t = Trace::new();
        raw.iter()
            .map(|&(time, client, url, status)| {
                let mut r = record(&mut t, time, &format!("https://h.example/{url}"));
                r.client = ClientId(client);
                r.status = status;
                r
            })
            .collect()
    }

    /// Runs `sort_canonical` on `records` and checks it against a full
    /// `sort_unstable`.
    fn assert_canonical_is_full_sort(records: Vec<LogRecord>) {
        let mut expected = records.clone();
        expected.sort_unstable();
        let mut t = Trace::from_parts(Interner::new(), records);
        t.sort_canonical();
        assert_eq!(t.records(), expected.as_slice());
    }

    proptest::proptest! {
        #[test]
        fn canonical_sort_of_time_sorted_records_sorts_their_ties(
            raw in proptest::collection::vec(
                (0u64..12, 0u64..4, 0u8..4, proptest::arbitrary::any::<u16>()),
                0..300,
            ),
        ) {
            // A stable time sort keeps the generated order inside each run
            // of equal times: the fast path's input.
            let mut records = tied_records(&raw);
            records.sort_by_key(|r| r.time);
            assert_canonical_is_full_sort(records);
        }

        #[test]
        fn canonical_sort_of_shuffled_records_is_a_full_sort(
            raw in proptest::collection::vec(
                (0u64..12, 0u64..4, 0u8..4, proptest::arbitrary::any::<u16>()),
                2..300,
            ),
        ) {
            let mut records = tied_records(&raw);
            // Guarantee one time descent, so the fallback path runs.
            let last = records.len() - 1;
            records[0].time = SimTime::from_secs(12);
            records[last].time = SimTime::ZERO;
            assert_canonical_is_full_sort(records);
        }
    }

    #[test]
    fn host_extraction() {
        assert_eq!(host_of_url("https://a.example:8443/x/y"), "a.example");
        assert_eq!(host_of_url("http://b.example/"), "b.example");
        assert_eq!(host_of_url("//c.example?q=1"), "c.example");
        assert_eq!(host_of_url("d.example/path"), "d.example");
        assert_eq!(host_of_url("e.example"), "e.example");
    }

    #[test]
    fn merge_reinterns_and_preserves_records() {
        let mut a = Trace::new();
        let shared_a = record(&mut a, 1, "https://shared.example/x");
        a.push(shared_a);

        let mut b = Trace::new();
        let ua = b.intern_ua("okhttp/3.12.1");
        let mut rb = record(&mut b, 2, "https://only-b.example/y");
        rb.ua = Some(ua);
        b.push(rb);
        let shared_b = record(&mut b, 3, "https://shared.example/x");
        b.push(shared_b);

        a.merge(&b);
        assert_eq!(a.len(), 3);
        // The shared URL deduplicates; only-b's URL is added.
        assert_eq!(a.url_count(), 2);
        assert_eq!(a.ua_count(), 1);
        let views: Vec<_> = a.iter().collect();
        assert_eq!(views[1].url, "https://only-b.example/y");
        assert_eq!(views[1].ua, Some("okhttp/3.12.1"));
        assert_eq!(views[2].url, "https://shared.example/x");
        // Both records of the shared URL resolve to the same id.
        assert_eq!(a.records()[0].url, a.records()[2].url);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Trace::new();
        let r = record(&mut a, 1, "https://a.example/x");
        a.push(r);
        let before = a.records().to_vec();
        a.merge(&Trace::new());
        assert_eq!(a.records(), before.as_slice());
    }

    #[test]
    fn retain_filters_records() {
        let mut t = Trace::new();
        for i in 0..10 {
            let r = record(&mut t, i, &format!("https://h.example/{i}"));
            t.push(r);
        }
        t.retain(|r| r.time.as_secs() % 2 == 0);
        assert_eq!(t.len(), 5);
        // Tables are untouched.
        assert_eq!(t.url_count(), 10);
    }

    #[test]
    fn parts_round_trip() {
        let mut t = Trace::new();
        let r = record(&mut t, 1, "https://a.example/x");
        t.push(r);
        let (interner, records) = t.into_parts();
        let t2 = Trace::from_parts(interner, records);
        assert_eq!(t2.len(), 1);
        assert_eq!(t2.url(t2.records()[0].url), "https://a.example/x");
    }
}
