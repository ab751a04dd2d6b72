//! Windowed §4 partials: per-window request rate, mime/method mix, and
//! top-URL churn over the simulated timeline — the rolling counterpart of
//! the run-to-completion accumulators in [`crate::characterize`].
//!
//! The design mirrors the sharded pipeline's mergeable-partials
//! discipline, with one addition: **interior-window retirement**. A
//! [`SeriesPartial`] accumulates per-bucket tallies (including a
//! URL-count map, the expensive part) for one slice's records, then
//! closes every window that lies strictly inside the slice's time range:
//! the URL map collapses to its top-K list and is dropped. The slices of
//! a time-sorted stream (the shards of a `ShardedTrace`, say) are
//! contiguous time partitions, so an interior window can never receive
//! records from another slice — closing it early is exact. Only the
//! boundary windows (first and last touched by the slice) stay live,
//! carrying full URL maps into the merge, where neighbor slices' boundary
//! maps union exactly. The result: per-window rows byte-identical across
//! slicings and thread counts, with per-slice memory bounded by the
//! boundary windows instead of the whole run.
//!
//! Churn is the share of a window's top URLs absent from the previous
//! window's top list, in per-mille (integer arithmetic, so the output
//! stays exactly reproducible). The first emitted window has no
//! predecessor and serializes `"churn_pml":null`.

use std::collections::BTreeMap;

use jcdn_obs::json;
use jcdn_obs::timeseries::WindowSpec;
use jcdn_trace::{Interner, LogRecord, Method, MimeType, RecordFlags, RecordStream};

/// Number of top URLs tracked per window.
pub const TOP_URLS: usize = 5;

/// Mime classes in emission order, paired with their row labels.
const MIME_LABELS: [&str; 7] = ["json", "html", "css", "js", "image", "video", "other"];

/// Method classes in emission order, paired with their row labels.
const METHOD_LABELS: [&str; 5] = ["GET", "POST", "HEAD", "PUT", "DELETE"];

fn mime_index(mime: MimeType) -> usize {
    match mime {
        MimeType::Json => 0,
        MimeType::Html => 1,
        MimeType::Css => 2,
        MimeType::JavaScript => 3,
        MimeType::Image => 4,
        MimeType::Video => 5,
        MimeType::Other => 6,
    }
}

fn method_index(method: Method) -> usize {
    match method {
        Method::Get => 0,
        Method::Post => 1,
        Method::Head => 2,
        Method::Put => 3,
        Method::Delete => 4,
    }
}

/// Scalar per-window tallies (everything except the URL map).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct WindowStats {
    requests: u64,
    errors: u64,
    retries: u64,
    failures: u64,
    bytes: u64,
    mime: [u64; 7],
    method: [u64; 5],
}

impl WindowStats {
    fn observe(&mut self, record: &LogRecord) {
        self.requests += 1;
        if record.is_error() {
            self.errors += 1;
        }
        if record.retries > 0 || record.flags.contains(RecordFlags::RETRIED) {
            self.retries += 1;
        }
        if record.is_end_user_failure() {
            self.failures += 1;
        }
        self.bytes += record.response_bytes;
        self.mime[mime_index(record.mime)] += 1;
        self.method[method_index(record.method)] += 1;
    }

    fn merge(&mut self, other: &WindowStats) {
        self.requests += other.requests;
        self.errors += other.errors;
        self.retries += other.retries;
        self.failures += other.failures;
        self.bytes += other.bytes;
        for (dst, src) in self.mime.iter_mut().zip(other.mime.iter()) {
            *dst += src;
        }
        for (dst, src) in self.method.iter_mut().zip(other.method.iter()) {
            *dst += src;
        }
    }
}

/// One live base bucket: scalar tallies plus the full URL-count map.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct BucketTally {
    stats: WindowStats,
    /// Requests per interned URL id (the retirement target: interior
    /// windows collapse this to a top-K list and drop it).
    urls: BTreeMap<u32, u64>,
}

impl BucketTally {
    fn merge(&mut self, other: &BucketTally) {
        self.stats.merge(&other.stats);
        for (&url, &count) in &other.urls {
            *self.urls.entry(url).or_default() += count;
        }
    }
}

/// A window closed early: stats snapshot plus the collapsed top-K list
/// (`(count, url)`, count-descending then url-ascending).
#[derive(Clone, Debug, PartialEq, Eq)]
struct ClosedWindow {
    stats: WindowStats,
    top: Vec<(u64, u32)>,
}

/// Reduces a URL-count map to its top-K `(count, url)` list: count
/// descending, url id ascending on ties — a total order, so the list is
/// independent of accumulation order.
fn top_k(urls: &BTreeMap<u32, u64>, k: usize) -> Vec<(u64, u32)> {
    let mut entries: Vec<(u64, u32)> = urls.iter().map(|(&u, &c)| (c, u)).collect();
    entries.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    entries.truncate(k);
    entries
}

/// Per-slice windowed §4 state. Accumulate one slice's stream, let the
/// pipeline merge partials in slice order, then
/// [`finalize`][SeriesPartial::finalize] into a [`SeriesReport`].
#[derive(Clone, Debug)]
pub struct SeriesPartial {
    spec: WindowSpec,
    /// Live buckets still carrying full URL maps (shard-boundary windows
    /// plus anything not yet retired).
    live: BTreeMap<u64, BucketTally>,
    /// Windows closed by interior retirement, exact by construction.
    closed: BTreeMap<u64, ClosedWindow>,
}

impl SeriesPartial {
    /// An empty partial tracking [`TOP_URLS`] URLs per window.
    pub fn new(spec: WindowSpec) -> SeriesPartial {
        SeriesPartial {
            spec,
            live: BTreeMap::new(),
            closed: BTreeMap::new(),
        }
    }

    /// The window shape.
    pub fn spec(&self) -> &WindowSpec {
        &self.spec
    }

    /// Folds one record stream into the per-bucket tallies, then retires
    /// every window strictly interior to the stream's time range (exact
    /// for contiguous time partitions — see the module docs).
    pub fn accumulate(&mut self, stream: &RecordStream<'_>) {
        for record in stream.iter() {
            let bucket = self.spec.bucket_of(record.time.as_micros());
            let tally = self.live.entry(bucket).or_default();
            tally.stats.observe(record);
            *tally.urls.entry(record.url.0).or_default() += 1;
        }
        self.retire_interior();
    }

    /// Closes windows whose every covered bucket lies strictly between
    /// this partial's first and last touched buckets, and drops buckets
    /// no unclosed window still needs.
    fn retire_interior(&mut self) {
        let (Some(&lo), Some(&hi)) = (self.live.keys().next(), self.live.keys().next_back()) else {
            return;
        };
        let per = self.spec.buckets_per_window();
        // Window w covers buckets [w, w + per). Interior ⇔ w > lo and
        // w + per - 1 < hi.
        let first = lo + 1;
        let last = hi.saturating_sub(per); // w + per - 1 < hi ⇔ w ≤ hi - per
        let interior = self
            .spec
            .windows_covering(self.live.keys().copied())
            .skip_while(|&w| w < first)
            .take_while(|&w| w <= last);
        for w in interior {
            if let Some(window) = self.close_window(w) {
                self.closed.insert(w, window);
            }
        }
        if first <= last {
            // Unclosed low windows (w ≤ lo) still need buckets up to
            // lo + per - 1; unclosed high windows (w > last) need buckets
            // from last + 1 on. Every bucket in between is covered only by
            // closed windows, so it can go.
            let drop_from = lo + per;
            self.live.retain(|&b, _| b < drop_from || b > last);
        }
    }

    /// Builds the closed form of window `w` from live buckets, when any
    /// covered bucket holds data.
    fn close_window(&self, w: u64) -> Option<ClosedWindow> {
        let hi = w.saturating_add(self.spec.buckets_per_window());
        let mut stats = WindowStats::default();
        let mut urls: BTreeMap<u32, u64> = BTreeMap::new();
        let mut any = false;
        for (_, tally) in self.live.range(w..hi) {
            stats.merge(&tally.stats);
            for (&url, &count) in &tally.urls {
                *urls.entry(url).or_default() += count;
            }
            any = true;
        }
        any.then(|| ClosedWindow {
            stats,
            top: top_k(&urls, TOP_URLS),
        })
    }

    /// Merges another slice's partial: closed windows land on disjoint
    /// indexes for contiguous slices (defensively, a collision merges
    /// stats and re-merges top lists deterministically); live boundary
    /// buckets union exactly.
    pub fn merge(&mut self, other: &SeriesPartial) {
        for (&w, theirs) in &other.closed {
            match self.closed.get_mut(&w) {
                None => {
                    self.closed.insert(w, theirs.clone());
                }
                Some(mine) => {
                    mine.stats.merge(&theirs.stats);
                    let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
                    for &(c, u) in mine.top.iter().chain(theirs.top.iter()) {
                        *counts.entry(u).or_default() += c;
                    }
                    mine.top = top_k(&counts, TOP_URLS);
                }
            }
        }
        for (&b, tally) in &other.live {
            self.live.entry(b).or_default().merge(tally);
        }
    }

    /// Closes every remaining window, resolves top URLs against
    /// `interner`, and computes churn between consecutive emitted
    /// windows. Integer arithmetic throughout — the rows serialize
    /// byte-identically for identical record sets.
    pub fn finalize(mut self, interner: &Interner) -> SeriesReport {
        // Candidate windows: everything already closed plus every window
        // overlapping a live bucket.
        let mut windows: Vec<u64> = self.closed.keys().copied().collect();
        for w in self.spec.windows_covering(self.live.keys().copied()) {
            if !self.closed.contains_key(&w) {
                if let Some(cw) = self.close_window(w) {
                    self.closed.insert(w, cw);
                    windows.push(w);
                }
            }
        }
        windows.sort_unstable();
        windows.dedup();

        let mut rows = Vec::with_capacity(windows.len());
        let mut prev_top: Option<Vec<u32>> = None;
        for w in windows {
            let Some(closed) = self.closed.get(&w) else {
                continue;
            };
            let top_ids: Vec<u32> = closed.top.iter().map(|&(_, u)| u).collect();
            let churn_pml = match (&prev_top, top_ids.is_empty()) {
                (Some(prev), false) => {
                    let new = top_ids.iter().filter(|u| !prev.contains(u)).count() as u64;
                    Some(new * 1000 / top_ids.len() as u64)
                }
                _ => None,
            };
            rows.push(SeriesRow {
                window: w,
                start_us: self.spec.window_start_us(w),
                end_us: self.spec.window_end_us(w),
                requests: closed.stats.requests,
                errors: closed.stats.errors,
                retries: closed.stats.retries,
                failures: closed.stats.failures,
                bytes: closed.stats.bytes,
                mime: closed.stats.mime,
                method: closed.stats.method,
                top_urls: closed
                    .top
                    .iter()
                    .map(|&(count, u)| (interner.url(jcdn_trace::UrlId(u)).to_string(), count))
                    .collect(),
                churn_pml,
            });
            prev_top = Some(top_ids);
        }
        SeriesReport {
            spec: self.spec,
            rows,
        }
    }
}

/// One emitted §4 window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeriesRow {
    /// Window index (`start_us / slide_us`).
    pub window: u64,
    /// Window start on the simulated timeline, µs.
    pub start_us: u64,
    /// Exclusive window end, µs.
    pub end_us: u64,
    /// Request records arriving in the window (attempts, like §4 totals).
    pub requests: u64,
    /// HTTP 5xx records.
    pub errors: u64,
    /// Retry attempts (a record that is a retry, or scheduled one).
    pub retries: u64,
    /// End-user failures (5xx with no retry after it).
    pub failures: u64,
    /// Response bytes served.
    pub bytes: u64,
    /// Requests per mime class, `MIME_LABELS` order.
    pub mime: [u64; 7],
    /// Requests per method, `METHOD_LABELS` order.
    pub method: [u64; 5],
    /// Top URLs by request count: `(url, count)`, count-descending.
    pub top_urls: Vec<(String, u64)>,
    /// Share of `top_urls` absent from the previous window's list, in
    /// per-mille. `None` for the first emitted window.
    pub churn_pml: Option<u64>,
}

impl SeriesRow {
    /// Requests per simulated second, floored (integer, for display).
    pub fn rate_per_sec(&self) -> u64 {
        let width_us = self.end_us.saturating_sub(self.start_us).max(1);
        self.requests.saturating_mul(1_000_000) / width_us
    }

    /// Serializes as one canonical JSONL line (no trailing newline),
    /// tagged `"stream":"section4"`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut w = json::ObjectWriter::begin(&mut out);
        w.field_str("stream", "section4");
        w.field_u64("window", self.window);
        w.field_u64("start_us", self.start_us);
        w.field_u64("end_us", self.end_us);
        w.field_u64("requests", self.requests);
        w.field_u64("errors", self.errors);
        w.field_u64("retries", self.retries);
        w.field_u64("failures", self.failures);
        w.field_u64("bytes", self.bytes);
        let mime = json::object_of_u64(
            MIME_LABELS
                .iter()
                .zip(self.mime.iter())
                .filter(|(_, &n)| n > 0)
                .map(|(&l, &n)| (l, n)),
        );
        w.field_raw("mime", &mime);
        let method = json::object_of_u64(
            METHOD_LABELS
                .iter()
                .zip(self.method.iter())
                .filter(|(_, &n)| n > 0)
                .map(|(&l, &n)| (l, n)),
        );
        w.field_raw("method", &method);
        let mut urls = String::from("[");
        for (i, (url, count)) in self.top_urls.iter().enumerate() {
            if i > 0 {
                urls.push(',');
            }
            let mut one = String::new();
            let mut uw = json::ObjectWriter::begin(&mut one);
            uw.field_str("url", url);
            uw.field_u64("requests", *count);
            uw.end();
            urls.push_str(&one);
        }
        urls.push(']');
        w.field_raw("top_urls", &urls);
        match self.churn_pml {
            Some(pml) => w.field_u64("churn_pml", pml),
            None => w.field_raw("churn_pml", "null"),
        }
        w.end();
        out
    }
}

/// The windowed §4 report: one row per non-empty window, in time order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeriesReport {
    /// The window shape the rows were computed under.
    pub spec: WindowSpec,
    /// Non-empty windows in index order.
    pub rows: Vec<SeriesRow>,
}

impl SeriesReport {
    /// The series of a record stream: one [`SeriesPartial`] per slice on
    /// a `threads`-wide pool, merged in slice order. Several slices must
    /// be cut from time-sorted records, as a sharded trace's shards are;
    /// the rows are then byte-identical for any slicing and thread count.
    pub fn compute(records: &RecordStream<'_>, threads: usize, spec: WindowSpec) -> SeriesReport {
        let slices = records.slices();
        let partials =
            jcdn_exec::scatter_gather_labeled("series.shards", slices.len(), threads, |i| {
                let mut partial = SeriesPartial::new(spec);
                partial.accumulate(&slices[i]);
                partial
            });
        let mut total = SeriesPartial::new(spec);
        for partial in &partials {
            total.merge(partial);
        }
        total.finalize(records.interner())
    }

    /// Serializes every row as canonical JSONL, newline-terminated.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            out.push_str(&row.to_jsonl());
            out.push('\n');
        }
        out
    }

    /// The busiest window, by request count (ties to the earlier window).
    pub fn peak(&self) -> Option<&SeriesRow> {
        self.rows.iter().reduce(|best, row| {
            if row.requests > best.requests {
                row
            } else {
                best
            }
        })
    }

    /// Mean top-URL churn across rows that have one, in per-mille.
    pub fn mean_churn_pml(&self) -> Option<u64> {
        let churns: Vec<u64> = self.rows.iter().filter_map(|r| r.churn_pml).collect();
        if churns.is_empty() {
            return None;
        }
        Some(churns.iter().sum::<u64>() / churns.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcdn_trace::{CacheStatus, ClientId, ShardedTrace, SimTime, Trace};

    fn spec(s: &str) -> WindowSpec {
        match WindowSpec::parse(s) {
            Ok(spec) => spec,
            Err(e) => unreachable!("bad test spec {s}: {e}"),
        }
    }

    fn sample_trace(records: usize) -> Trace {
        let mut t = Trace::new();
        let urls: Vec<_> = (0..7)
            .map(|i| t.intern_url(&format!("https://api.example/o/{i}")))
            .collect();
        for i in 0..records as u64 {
            t.push(LogRecord {
                time: SimTime::from_micros(i * 7_000_000), // one per 7s
                client: ClientId(i % 5),
                ua: None,
                url: urls[(i % 7) as usize],
                method: if i % 4 == 0 {
                    Method::Post
                } else {
                    Method::Get
                },
                mime: if i % 3 == 0 {
                    MimeType::Json
                } else {
                    MimeType::Html
                },
                status: if i % 11 == 0 { 503 } else { 200 },
                response_bytes: 100 + i,
                cache: CacheStatus::Hit,
                retries: 0,
                flags: RecordFlags::NONE,
            });
        }
        t
    }

    fn series_of(trace: &Trace, shards: usize, s: &str) -> SeriesReport {
        let sharded = ShardedTrace::from_trace(trace.clone(), shards);
        SeriesReport::compute(&sharded.stream(), 1, spec(s))
    }

    #[test]
    fn rows_partition_the_trace() {
        let trace = sample_trace(120);
        let report = series_of(&trace, 1, "1m");
        let total: u64 = report.rows.iter().map(|r| r.requests).sum();
        assert_eq!(total, trace.len() as u64);
        let mime_total: u64 = report.rows.iter().flat_map(|r| r.mime.iter()).sum();
        assert_eq!(mime_total, trace.len() as u64);
        assert!(report.rows.windows(2).all(|w| w[0].window < w[1].window));
        assert_eq!(report.rows[0].churn_pml, None, "first row has no churn");
    }

    #[test]
    fn sharded_series_is_byte_identical_to_single_shard() {
        let trace = sample_trace(200);
        for s in ["1m", "2m/1m", "5m"] {
            let single = series_of(&trace, 1, s);
            for shards in [2, 4, 8] {
                let sharded = series_of(&trace, shards, s);
                assert_eq!(
                    single.to_jsonl(),
                    sharded.to_jsonl(),
                    "spec {s}, {shards} shards"
                );
            }
        }
    }

    #[test]
    fn interior_retirement_drops_buckets() {
        let trace = sample_trace(300);
        let mut partial = SeriesPartial::new(spec("1m"));
        partial.accumulate(&trace.stream());
        assert!(
            !partial.closed.is_empty(),
            "interior windows must close and retire their URL maps"
        );
        // The live set holds only the boundary neighborhoods.
        assert!(partial.live.len() <= 2);
    }

    #[test]
    fn far_apart_records_cost_their_rows_not_their_span() {
        // Three records 2^40 µs apart under 1 µs windows: the middle one's
        // window is interior, and 2^41 empty windows lie between them.
        let mut t = Trace::new();
        let url = t.intern_url("https://x/a");
        for i in 0..3u64 {
            t.push(LogRecord {
                time: SimTime::from_micros(i << 40),
                client: ClientId(0),
                ua: None,
                url,
                method: Method::Get,
                mime: MimeType::Json,
                status: 200,
                response_bytes: 1,
                cache: CacheStatus::Hit,
                retries: 0,
                flags: RecordFlags::NONE,
            });
        }
        let report = series_of(&t, 1, "1us");
        let windows: Vec<u64> = report.rows.iter().map(|r| r.window).collect();
        assert_eq!(windows, vec![0, 1 << 40, 2 << 40]);
    }

    #[test]
    fn churn_reflects_top_url_turnover() {
        let mut t = Trace::new();
        let a = t.intern_url("https://x/a");
        let b = t.intern_url("https://x/b");
        for (time_s, url) in [(0u64, a), (1, a), (70, b), (71, b)] {
            t.push(LogRecord {
                time: SimTime::from_secs(time_s),
                client: ClientId(0),
                ua: None,
                url,
                method: Method::Get,
                mime: MimeType::Json,
                status: 200,
                response_bytes: 1,
                cache: CacheStatus::Hit,
                retries: 0,
                flags: RecordFlags::NONE,
            });
        }
        let report = series_of(&t, 1, "1m");
        assert_eq!(report.rows.len(), 2);
        // Window 1's only top URL (b) is new: 1000‰ churn.
        assert_eq!(report.rows[1].churn_pml, Some(1000));
        assert_eq!(report.rows[0].top_urls[0].0, "https://x/a");
        assert_eq!(report.peak().map(|r| r.window), Some(0));
    }

    #[test]
    fn jsonl_rows_are_canonical() {
        let trace = sample_trace(10);
        let report = series_of(&trace, 1, "1m");
        let line = report.rows[0].to_jsonl();
        assert!(line.starts_with("{\"stream\":\"section4\",\"window\":0,"));
        assert!(line.contains("\"mime\":{"));
        assert!(line.contains("\"top_urls\":[{\"url\":"));
    }
}
