//! Streaming record access decoupled from trace storage.
//!
//! Analyses used to take `&Trace` and index into its tables directly, which
//! tied every consumer to the monolithic container. A [`RecordStream`] is a
//! borrowed view — an [`Interner`] plus one or more record slices — so the
//! same analysis code runs over a whole [`Trace`](crate::Trace), a single
//! shard of a [`ShardedTrace`](crate::ShardedTrace), or any ad-hoc record
//! subset, without copying records. It is also what the codec and the
//! store write: one frame per slice (see [`crate::codec::encode`]).

use crate::interner::Interner;
use crate::record::{LogRecord, UaId, UrlId};
use crate::trace::RecordView;

/// A read-only stream of records resolved against a shared interner.
#[derive(Clone, Debug)]
pub struct RecordStream<'t> {
    interner: &'t Interner,
    slices: Vec<&'t [LogRecord]>,
}

impl<'t> RecordStream<'t> {
    /// Builds a stream over `slices`, resolved against `interner`. Records
    /// must have been interned against that interner.
    pub fn new(interner: &'t Interner, slices: Vec<&'t [LogRecord]>) -> Self {
        RecordStream { interner, slices }
    }

    /// Total number of records across all slices.
    pub fn len(&self) -> usize {
        self.slices.iter().map(|s| s.len()).sum()
    }

    /// True when the stream yields no records.
    pub fn is_empty(&self) -> bool {
        self.slices.iter().all(|s| s.is_empty())
    }

    /// Iterates the raw records in slice order.
    pub fn iter(&self) -> impl Iterator<Item = &'t LogRecord> + '_ {
        self.slices.iter().flat_map(|s| s.iter())
    }

    /// Iterates records with their strings resolved.
    pub fn views(&self) -> impl Iterator<Item = RecordView<'t>> + '_ {
        self.iter().map(move |record| RecordView {
            record,
            url: self.interner.url(record.url),
            ua: record.ua.map(|id| self.interner.ua(id)),
        })
    }

    /// The interner backing this stream's ids.
    pub fn interner(&self) -> &'t Interner {
        self.interner
    }

    /// One single-slice stream per slice, in order: one per shard of
    /// `sharded.stream()`, one for `trace.stream()`. Analyses accumulate a
    /// partial per slice.
    pub fn slices(&self) -> Vec<RecordStream<'t>> {
        self.slices
            .iter()
            .map(|&slice| RecordStream::new(self.interner, vec![slice]))
            .collect()
    }

    /// The record slices, in order (the codec writes one frame per slice).
    pub(crate) fn raw_slices(&self) -> &[&'t [LogRecord]] {
        &self.slices
    }

    /// Resolves a URL id.
    pub fn url(&self, id: UrlId) -> &'t str {
        self.interner.url(id)
    }

    /// Resolves a UA id.
    pub fn ua(&self, id: UaId) -> &'t str {
        self.interner.ua(id)
    }

    /// Number of distinct URLs in the backing tables.
    pub fn url_count(&self) -> usize {
        self.interner.url_count()
    }

    /// Number of distinct UAs in the backing tables.
    pub fn ua_count(&self) -> usize {
        self.interner.ua_count()
    }
}

#[cfg(test)]
mod tests {
    use crate::record::{CacheStatus, ClientId, Method, MimeType, RecordFlags};
    use crate::time::SimTime;
    use crate::trace::Trace;

    fn sample() -> Trace {
        let mut t = Trace::new();
        let ua = t.intern_ua("curl/8.0");
        for i in 0..6u64 {
            let url = t.intern_url(&format!("https://h{}.example/o/{i}", i % 2));
            t.push(crate::LogRecord {
                time: SimTime::from_secs(i),
                client: ClientId(i),
                ua: (i % 2 == 0).then_some(ua),
                url,
                method: Method::Get,
                mime: MimeType::Json,
                status: 200,
                response_bytes: i * 10,
                cache: CacheStatus::Hit,
                retries: 0,
                flags: RecordFlags::NONE,
            });
        }
        t
    }

    #[test]
    fn stream_matches_trace_iteration() {
        let t = sample();
        let s = t.stream();
        assert_eq!(s.len(), t.len());
        assert!(!s.is_empty());
        let from_stream: Vec<_> = s.iter().copied().collect();
        assert_eq!(from_stream.as_slice(), t.records());
        let urls: Vec<&str> = s.views().map(|v| v.url).collect();
        let expected: Vec<&str> = t.iter().map(|v| v.url).collect();
        assert_eq!(urls, expected);
    }

    #[test]
    fn multi_slice_stream_concatenates() {
        let t = sample();
        let (head, tail) = t.records().split_at(2);
        let s = crate::RecordStream::new(t.interner(), vec![head, tail]);
        assert_eq!(s.len(), t.len());
        let all: Vec<_> = s.iter().copied().collect();
        assert_eq!(all.as_slice(), t.records());
        let lens: Vec<usize> = s.slices().iter().map(|slice| slice.len()).collect();
        assert_eq!(lens, [2, 4]);
    }

    #[test]
    fn empty_stream() {
        let t = Trace::new();
        let s = t.stream();
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }
}
