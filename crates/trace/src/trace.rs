//! The trace container: interned strings plus time-partitioned record
//! shards.

use std::sync::Arc;

use crate::interner::Interner;
use crate::record::{LogRecord, UaId, UrlId};
use crate::time::SimTime;

/// An in-memory collection of [`LogRecord`]s with interned URL and
/// user-agent strings, held as one or more record shards behind one
/// [`Interner`].
///
/// Interning matters: the short-term dataset in the paper has 25M logs over
/// ~5K domains — URLs and UAs repeat constantly. Records store 4-byte ids;
/// the tables resolve them back to strings.
///
/// Shards are consecutive runs of the record sequence. A built or
/// simulated trace is one shard, a decoded file keeps one shard per frame,
/// and [`from_trace`][Trace::from_trace] cuts N contiguous time
/// partitions. Every shard resolves ids through the one interner, so
/// per-shard analyses run in parallel and merge without id remapping, and
/// [`records`][Trace::records] reads every shard in order: the same
/// sequence at any shard count. The codec writes one frame per shard.
#[derive(Clone, Debug)]
pub struct Trace {
    interner: Interner,
    shards: Vec<Vec<LogRecord>>,
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

impl Default for Trace {
    /// An empty trace of one empty shard.
    fn default() -> Self {
        Trace::from_parts(Interner::new(), vec![Vec::new()])
    }
}

impl Trace {
    /// Creates an empty trace of one empty shard.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Builds a trace from an interner and record shards produced against
    /// it, in record order.
    pub fn from_parts(interner: Interner, shards: Vec<Vec<LogRecord>>) -> Self {
        Trace { interner, shards }
    }

    /// Splits the trace into its interner and record shards.
    pub fn into_parts(self) -> (Interner, Vec<Vec<LogRecord>>) {
        (self.interner, self.shards)
    }

    /// Re-cuts a trace into exactly `shard_count` contiguous time
    /// partitions of `⌈n / shard_count⌉` records each, the last ones
    /// shorter or empty when the records run out (3 records into 8 shards
    /// give 3 one-record shards, then 5 empty ones). Records are
    /// canonically sorted first (linear when they already are), so the
    /// result is the same for any prior record order or shard cut of the
    /// same multiset. A one-shard trace's records are copied once, into
    /// shards allocated to exactly their length; several shards are
    /// gathered first. `shard_count` is clamped to at least 1.
    pub fn from_trace(mut trace: Trace, shard_count: usize) -> Self {
        let records = trace.one_shard();
        records.sort_unstable();
        let per_shard = records.len().div_ceil(shard_count.max(1)).max(1);
        let mut shards: Vec<Vec<LogRecord>> = records
            .chunks(per_shard)
            .map(<[LogRecord]>::to_vec)
            .collect();
        shards.resize_with(shard_count.max(1), Vec::new);
        Trace::from_parts(trace.interner, shards)
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

    /// Appends a record to the last shard. The record's ids must have been
    /// produced by this trace's `intern_*` methods.
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
        match self.shards.last_mut() {
            Some(shard) => shard.push(record),
            None => self.shards.push(vec![record]),
        }
    }

    /// Number of records, over every shard.
    pub fn len(&self) -> usize {
        self.shards.iter().map(Vec::len).sum()
    }

    /// True when no shard holds a record.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(Vec::is_empty)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The records of shard `i`.
    pub fn shard_records(&self, i: usize) -> &[LogRecord] {
        &self.shards[i]
    }

    /// Every record, shard by shard, in insertion order (or time order
    /// after [`sort_by_time`][Trace::sort_by_time]).
    pub fn records(&self) -> impl Iterator<Item = &LogRecord> {
        self.shards.iter().flatten()
    }

    /// Resolves a URL id.
    pub fn url(&self, id: UrlId) -> &str {
        self.interner.url(id)
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

    /// Iterates resolved records, shard by shard.
    pub fn iter(&self) -> impl Iterator<Item = RecordView<'_>> {
        self.records().map(move |record| RecordView {
            record,
            url: self.url(record.url),
            ua: record.ua.map(|id| self.interner.ua(id)),
        })
    }

    /// The records as one shard: several shards are gathered, in order,
    /// into one.
    fn one_shard(&mut self) -> &mut Vec<LogRecord> {
        if self.shards.len() != 1 {
            self.shards = vec![std::mem::take(&mut self.shards).concat()];
        }
        &mut self.shards[0]
    }

    /// Sorts records by timestamp (stable, so same-time records keep
    /// insertion order), gathering them into one shard.
    pub fn sort_by_time(&mut self) {
        self.one_shard().sort_by_key(|r| r.time);
    }

    /// Sorts records by the full field order (time first), gathering them
    /// into one shard. Unlike [`sort_by_time`][Trace::sort_by_time] this
    /// yields one canonical permutation for any input order of the same
    /// record multiset, which is what makes sharded pipeline output
    /// reproducible regardless of worker count.
    ///
    /// A log that is already time-sorted (as a per-edge simulator log is)
    /// only has its runs of equal-time records sorted: `Ord` compares
    /// `time` first, so that is the same permutation at a fraction of the
    /// cost.
    pub fn sort_canonical(&mut self) {
        let records = self.one_shard();
        if records.is_sorted_by_key(|r| r.time) {
            for run in records.chunk_by_mut(|a, b| a.time == b.time) {
                run.sort_unstable();
            }
        } else {
            records.sort_unstable();
        }
    }

    /// Earliest and latest record times, or `None` when empty.
    pub(crate) fn time_span(&self) -> Option<(SimTime, SimTime)> {
        let first = self.records().map(|r| r.time).min()?;
        let last = self.records().map(|r| r.time).max()?;
        Some((first, last))
    }

    /// Appends all records of `other` to the last shard, re-interning its
    /// strings into this trace's tables. Used to combine captures from
    /// multiple vantage points into one dataset (the paper's long-term
    /// dataset pools three Seattle vantage points). Call
    /// [`sort_by_time`][Trace::sort_by_time] afterwards if a chronological
    /// view is needed.
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
        for r in other.records() {
            self.push(LogRecord {
                url: url_map[r.url.index()],
                ua: r.ua.map(|ua| ua_map[ua.index()]),
                ..*r
            });
        }
    }

    /// Retains only records matching the predicate, shard by shard (tables
    /// are left untouched — ids stay valid).
    pub fn retain(&mut self, mut predicate: impl FnMut(&LogRecord) -> bool) {
        for shard in &mut self.shards {
            shard.retain(|r| predicate(r));
        }
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

    /// Every record, in [`Trace::records`] order.
    fn flat(t: &Trace) -> Vec<LogRecord> {
        t.records().copied().collect()
    }

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
        let times: Vec<u64> = t.records().map(|r| r.time.as_secs()).collect();
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
            flat(&t)
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
        let mut t = Trace::from_parts(Interner::new(), vec![records]);
        t.sort_canonical();
        assert_eq!(flat(&t), expected);
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
        let records = flat(&a);
        assert_eq!(records[0].url, records[2].url);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Trace::new();
        let r = record(&mut a, 1, "https://a.example/x");
        a.push(r);
        let before = flat(&a);
        a.merge(&Trace::new());
        assert_eq!(flat(&a), before);
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
        let (interner, shards) = t.into_parts();
        let t2 = Trace::from_parts(interner, shards);
        assert_eq!(t2.len(), 1);
        assert_eq!(t2.url(flat(&t2)[0].url), "https://a.example/x");
    }

    /// `n` records, 13 ms apart, over seven URLs and five clients.
    fn trace(n: u64) -> Trace {
        let mut t = Trace::new();
        for i in 0..n {
            let mut r = record(&mut t, 0, &format!("https://h.example/{}", i % 7));
            r.time = SimTime::from_millis(i * 13);
            r.client = ClientId(i % 5);
            r.response_bytes = i;
            t.push(r);
        }
        t
    }

    #[test]
    fn built_and_empty_traces_are_one_shard() {
        assert_eq!(Trace::new().shard_count(), 1);
        assert!(Trace::new().shard_records(0).is_empty());
        assert_eq!(trace(5).shard_count(), 1);
        // A trace with no shard at all (a zero-frame file) grows one on push.
        let mut t = Trace::from_parts(Interner::new(), Vec::new());
        assert!(t.is_empty());
        let r = record(&mut t, 1, "https://h.example/x");
        t.push(r);
        assert_eq!(t.shard_count(), 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn records_read_every_shard_in_order() {
        let whole = trace(6);
        let (interner, mut shards) = whole.clone().into_parts();
        let tail = shards[0].split_off(2);
        shards.extend([Vec::new(), tail, Vec::new()]);
        let cut = Trace::from_parts(interner, shards);
        assert_eq!(cut.shard_count(), 4);
        assert_eq!(cut.len(), 6);
        assert_eq!(flat(&cut), flat(&whole));
        let urls: Vec<&str> = cut.iter().map(|v| v.url).collect();
        let expected: Vec<&str> = whole.iter().map(|v| v.url).collect();
        assert_eq!(urls, expected);
    }

    #[test]
    fn recutting_preserves_records_for_any_shard_count() {
        let reference = flat(&trace(103));
        for shards in [1, 2, 3, 8, 64, 103, 200] {
            let sharded = Trace::from_trace(trace(103), shards);
            assert_eq!(sharded.len(), 103, "{shards} shards");
            assert_eq!(flat(&sharded), reference, "{shards} shards");
            // Re-cutting a cut trace gives the same records too.
            let recut = Trace::from_trace(sharded, 5);
            assert_eq!(flat(&recut), reference, "{shards} shards, re-cut");
        }
    }

    #[test]
    fn shards_are_contiguous_time_ranges() {
        let sharded = Trace::from_trace(trace(100), 4);
        assert_eq!(sharded.shard_count(), 4);
        let mut prev_last: Option<SimTime> = None;
        for i in 0..sharded.shard_count() {
            let shard = sharded.shard_records(i);
            assert!(!shard.is_empty());
            assert!(shard.windows(2).all(|w| w[0].time <= w[1].time));
            if let Some(last) = prev_last {
                assert!(
                    last <= shard[0].time,
                    "shard {i} starts before shard {}",
                    i - 1
                );
            }
            prev_last = shard.last().map(|r| r.time);
        }
    }

    #[test]
    fn shards_hold_exactly_their_records() {
        // The shard count is exact even when the records run out first:
        // ⌈98 / 30⌉ = 4 records per shard fill 25 shards and leave 5 empty.
        for (records, shards) in [(103, 8), (100, 4), (98, 30), (3, 8), (1, 1), (0, 8)] {
            let sharded = Trace::from_trace(trace(records), shards);
            assert_eq!(sharded.shard_count(), shards, "{records} into {shards}");
            for (i, shard) in sharded.shards.iter().enumerate() {
                assert_eq!(
                    shard.capacity(),
                    shard.len(),
                    "{records} records into {shards}: shard {i}"
                );
            }
        }
    }

    #[test]
    fn empty_and_tiny_traces_shard_cleanly() {
        let sharded = Trace::from_trace(Trace::new(), 8);
        assert!(sharded.is_empty());
        assert_eq!(sharded.shard_count(), 8);

        let sharded = Trace::from_trace(trace(3), 8);
        assert_eq!(sharded.len(), 3);
        assert_eq!(flat(&sharded).len(), 3);
    }

    #[test]
    fn sorting_and_merging_gather_shards_into_one() {
        let cut = Trace::from_trace(trace(20), 4);
        let mut sorted = cut.clone();
        sorted.sort_canonical();
        assert_eq!(sorted.shard_count(), 1);
        assert_eq!(flat(&sorted), flat(&cut));

        let mut merged = Trace::new();
        merged.merge(&cut);
        assert_eq!(merged.shard_count(), 1);
        assert_eq!(flat(&merged), flat(&cut));

        let mut kept = cut;
        kept.retain(|r| r.client == ClientId(0));
        assert_eq!(kept.shard_count(), 4, "retain keeps the cut");
        assert_eq!(kept.len(), 4);
    }
}
