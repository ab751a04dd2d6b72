//! Sim-clock-driven windowed metrics: tumbling and sliding windows over
//! the simulated timeline.
//!
//! A [`WindowedCounters`] is the time-series sibling of
//! [`MetricsSnapshot`]: the same mergeable-partials discipline (counters
//! add, merge is associative and commutative, serialization is
//! BTreeMap-ordered), except every increment carries a **simulated
//! timestamp** and lands in the base bucket covering it. Because bucket
//! assignment depends only on the record's sim time — never on which
//! shard or thread processed it — per-window counters are byte-identical
//! across shard and thread counts, exactly like the run totals.
//!
//! Window semantics:
//!
//! * A [`WindowSpec`] has a *width* and a *slide*, both in simulated
//!   microseconds. `slide == width` is a **tumbling** window; `slide <
//!   width` (with `width % slide == 0`) is a **sliding** window.
//! * State is always stored as *base buckets* of `slide` width. A
//!   sliding window's row is the merge of the `width / slide`
//!   consecutive buckets it covers, computed at emission time. Storing
//!   only base buckets keeps merge trivially associative: merging two
//!   partials is a bucket-index merge-join.
//! * Buckets exist only once something non-zero lands in them, so an
//!   idle stretch of simulated time costs nothing and produces no rows:
//!   [`WindowSpec::windows_covering`] walks the occupied buckets, never
//!   the empty windows between them.

use std::collections::BTreeMap;
use std::fmt;

use crate::json;
use crate::metrics::MetricsSnapshot;

/// Microseconds per second, the base of the duration grammar.
const US_PER_SECOND: u64 = 1_000_000;

/// Duration suffixes accepted by [`WindowSpec::parse`], largest first so
/// [`format_duration_us`] renders the most compact exact unit.
const UNITS: [(&str, u64); 6] = [
    ("d", 86_400 * US_PER_SECOND),
    ("h", 3_600 * US_PER_SECOND),
    ("m", 60 * US_PER_SECOND),
    ("s", US_PER_SECOND),
    ("ms", 1_000),
    ("us", 1),
];

/// Renders a microsecond duration in its largest exact unit (`60s` →
/// `"1m"`, `1500ms` stays `"1500ms"`).
pub fn format_duration_us(us: u64) -> String {
    for (suffix, scale) in UNITS {
        if us >= scale && us.is_multiple_of(scale) {
            return format!("{}{}", us / scale, suffix);
        }
    }
    format!("{us}us")
}

/// Parses a duration like `"60s"`, `"5m"`, `"250ms"` into microseconds.
pub fn parse_duration_us(s: &str) -> Result<u64, WindowSpecError> {
    let s = s.trim();
    // Longest-suffix match first so "5ms" is not read as "5m" + "s".
    for (suffix, scale) in [("us", 1), ("ms", 1_000)] {
        if let Some(digits) = s.strip_suffix(suffix) {
            return finish_duration(s, digits, scale);
        }
    }
    for (suffix, scale) in UNITS {
        if let Some(digits) = s.strip_suffix(suffix) {
            return finish_duration(s, digits, scale);
        }
    }
    Err(WindowSpecError::BadDuration(s.to_string()))
}

fn finish_duration(whole: &str, digits: &str, scale: u64) -> Result<u64, WindowSpecError> {
    let n: u64 = digits
        .parse()
        .map_err(|_| WindowSpecError::BadDuration(whole.to_string()))?;
    let us = n
        .checked_mul(scale)
        .ok_or_else(|| WindowSpecError::BadDuration(whole.to_string()))?;
    if us == 0 {
        return Err(WindowSpecError::ZeroWidth);
    }
    Ok(us)
}

/// Why a window specification was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WindowSpecError {
    /// A duration string did not parse (`"60x"`, `"-5s"`, overflow).
    BadDuration(String),
    /// Width or slide was zero.
    ZeroWidth,
    /// Slide exceeds width, or width is not a multiple of slide.
    BadSlide {
        /// Window width, µs.
        width_us: u64,
        /// Window slide, µs.
        slide_us: u64,
    },
}

impl fmt::Display for WindowSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WindowSpecError::BadDuration(s) => {
                write!(f, "bad duration {s:?} (expected e.g. 60s, 5m, 250ms)")
            }
            WindowSpecError::ZeroWidth => write!(f, "window width and slide must be non-zero"),
            WindowSpecError::BadSlide { width_us, slide_us } => write!(
                f,
                "window width ({}) must be a positive multiple of slide ({})",
                format_duration_us(*width_us),
                format_duration_us(*slide_us)
            ),
        }
    }
}

impl std::error::Error for WindowSpecError {}

/// A window shape on the simulated timeline: width and slide in
/// simulated microseconds. Tumbling when `slide == width`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowSpec {
    width_us: u64,
    slide_us: u64,
}

impl WindowSpec {
    /// A tumbling window of `width_us` microseconds.
    pub fn tumbling(width_us: u64) -> Result<WindowSpec, WindowSpecError> {
        WindowSpec::sliding(width_us, width_us)
    }

    /// A sliding window: `width_us` wide, advancing by `slide_us`.
    /// Requires `0 < slide_us <= width_us` and `width_us % slide_us == 0`.
    pub fn sliding(width_us: u64, slide_us: u64) -> Result<WindowSpec, WindowSpecError> {
        if width_us == 0 || slide_us == 0 {
            return Err(WindowSpecError::ZeroWidth);
        }
        if slide_us > width_us || !width_us.is_multiple_of(slide_us) {
            return Err(WindowSpecError::BadSlide { width_us, slide_us });
        }
        Ok(WindowSpec { width_us, slide_us })
    }

    /// Parses `"60s"` (tumbling) or `"5m/1m"` (width/slide sliding).
    pub fn parse(s: &str) -> Result<WindowSpec, WindowSpecError> {
        match s.split_once('/') {
            None => WindowSpec::tumbling(parse_duration_us(s)?),
            Some((width, slide)) => {
                WindowSpec::sliding(parse_duration_us(width)?, parse_duration_us(slide)?)
            }
        }
    }

    /// Window width, µs.
    pub fn width_us(&self) -> u64 {
        self.width_us
    }

    /// Window slide (bucket width), µs.
    pub fn slide_us(&self) -> u64 {
        self.slide_us
    }

    /// True when the window tumbles (`slide == width`).
    pub fn is_tumbling(&self) -> bool {
        self.slide_us == self.width_us
    }

    /// Number of base buckets one window covers (`width / slide`).
    pub fn buckets_per_window(&self) -> u64 {
        self.width_us / self.slide_us
    }

    /// The base-bucket index covering simulated time `t_us`.
    pub fn bucket_of(&self, t_us: u64) -> u64 {
        t_us / self.slide_us
    }

    /// Start of window `index` on the simulated timeline, µs (saturating).
    pub fn window_start_us(&self, index: u64) -> u64 {
        index.saturating_mul(self.slide_us)
    }

    /// Exclusive end of window `index`, µs (saturating). A window starts
    /// at its index times the slide and spans one full width.
    pub fn window_end_us(&self, index: u64) -> u64 {
        self.window_start_us(index).saturating_add(self.width_us)
    }

    /// The windows that cover at least one of `buckets` (ascending base-
    /// bucket indices), in index order and once each. Window `w` covers
    /// buckets `w .. w + width/slide`, so bucket `b` lies in windows
    /// `b + 1 - width/slide ..= b`. The cost is one step per window
    /// yielded, however far apart the buckets lie.
    pub fn windows_covering(
        &self,
        buckets: impl IntoIterator<Item = u64>,
    ) -> impl Iterator<Item = u64> {
        let reach = self.buckets_per_window() - 1;
        // First window not yet yielded: a bucket's windows start past the
        // previous bucket's, so none repeats.
        let mut next = 0;
        buckets.into_iter().flat_map(move |b| {
            let first = b.saturating_sub(reach).max(next);
            next = b.saturating_add(1);
            first..=b
        })
    }
}

impl fmt::Display for WindowSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_tumbling() {
            f.write_str(&format_duration_us(self.width_us))
        } else {
            write!(
                f,
                "{}/{}",
                format_duration_us(self.width_us),
                format_duration_us(self.slide_us)
            )
        }
    }
}

impl std::str::FromStr for WindowSpec {
    type Err = WindowSpecError;

    fn from_str(s: &str) -> Result<WindowSpec, WindowSpecError> {
        WindowSpec::parse(s)
    }
}

/// One emitted window: its index, simulated time bounds, and the merged
/// counters of every base bucket it covers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowRow {
    /// Window index (`start_us / slide_us`).
    pub window: u64,
    /// Window start on the simulated timeline, µs.
    pub start_us: u64,
    /// Exclusive window end, µs.
    pub end_us: u64,
    /// Counters accumulated inside the window.
    pub counters: MetricsSnapshot,
}

impl WindowRow {
    /// Serializes the row as one canonical JSONL line (no trailing
    /// newline): fixed key order, integers only, counters in BTreeMap
    /// order. `stream` tags which series the row belongs to (`"sim"`,
    /// `"section4"`, `"workload"`), so multiple series can share a file.
    pub fn to_jsonl(&self, stream: &str) -> String {
        let mut out = String::new();
        let mut w = json::ObjectWriter::begin(&mut out);
        w.field_str("stream", stream);
        w.field_u64("window", self.window);
        w.field_u64("start_us", self.start_us);
        w.field_u64("end_us", self.end_us);
        w.field_raw("counters", &self.counters.counters_json());
        w.end();
        out
    }
}

/// Windowed counters: a [`MetricsSnapshot`] per base bucket of the
/// simulated timeline. See the module docs for the window semantics and
/// the determinism argument.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowedCounters {
    spec: WindowSpec,
    /// Base buckets, keyed by bucket index. Created lazily on first
    /// non-zero increment.
    buckets: BTreeMap<u64, MetricsSnapshot>,
}

impl WindowedCounters {
    /// An empty series with the given window shape.
    pub fn new(spec: WindowSpec) -> WindowedCounters {
        WindowedCounters {
            spec,
            buckets: BTreeMap::new(),
        }
    }

    /// The window shape.
    pub fn spec(&self) -> &WindowSpec {
        &self.spec
    }

    /// True when no bucket holds anything.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Adds `by` to counter `name` in the bucket covering simulated time
    /// `t_us`. Zero increments create no bucket and no key, matching
    /// [`MetricsSnapshot::inc`].
    pub fn inc(&mut self, t_us: u64, name: &str, by: u64) {
        if by > 0 {
            self.buckets
                .entry(self.spec.bucket_of(t_us))
                .or_default()
                .inc(name, by);
        }
    }

    /// Merges a pre-built snapshot into bucket `bucket`: how bulk
    /// producers (per-edge tallies in `cdnsim`) fold a whole bucket in
    /// one call instead of re-keying every increment.
    pub fn merge_bucket(&mut self, bucket: u64, snapshot: &MetricsSnapshot) {
        if !snapshot.is_empty() {
            self.buckets.entry(bucket).or_default().merge(snapshot);
        }
    }

    /// Merges another partial into `self`, bucket-index-wise. Associative
    /// and commutative because [`MetricsSnapshot::merge`] is; the
    /// `timeseries_properties` suite holds it to that.
    pub fn merge(&mut self, other: &WindowedCounters) {
        for (&bucket, snapshot) in &other.buckets {
            self.buckets.entry(bucket).or_default().merge(snapshot);
        }
    }

    /// Iterates non-empty base buckets in index order.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, &MetricsSnapshot)> {
        self.buckets.iter().map(|(&i, s)| (i, s))
    }

    /// Folds every bucket into one run-total snapshot.
    pub fn total(&self) -> MetricsSnapshot {
        let mut total = MetricsSnapshot::new();
        for snapshot in self.buckets.values() {
            total.merge(snapshot);
        }
        total
    }

    /// The merged row for window `index`, when any covered bucket holds
    /// data: the merge of buckets `index .. index + width/slide`.
    fn window_row(&self, index: u64) -> Option<WindowRow> {
        let hi = index.saturating_add(self.spec.buckets_per_window());
        let mut counters = MetricsSnapshot::new();
        let mut any = false;
        for (_, snapshot) in self.buckets.range(index..hi) {
            counters.merge(snapshot);
            any = true;
        }
        any.then(|| WindowRow {
            window: index,
            start_us: self.spec.window_start_us(index),
            end_us: self.spec.window_end_us(index),
            counters,
        })
    }

    /// Every window that overlaps at least one non-empty bucket, in index
    /// order. Deterministic: depends only on bucket contents, never on
    /// accumulation or merge order.
    pub fn rows(&self) -> Vec<WindowRow> {
        self.spec
            .windows_covering(self.buckets.keys().copied())
            .filter_map(|w| self.window_row(w))
            .collect()
    }

    /// Serializes [`rows`][Self::rows] as canonical JSONL lines tagged
    /// with `stream`, one per line, newline-terminated.
    pub fn to_jsonl(&self, stream: &str) -> String {
        let mut out = String::new();
        for row in self.rows() {
            out.push_str(&row.to_jsonl(stream));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(s: &str) -> WindowSpec {
        match WindowSpec::parse(s) {
            Ok(spec) => spec,
            Err(e) => unreachable!("bad test spec {s}: {e}"),
        }
    }

    #[test]
    fn durations_parse_and_render() {
        assert_eq!(parse_duration_us("60s"), Ok(60 * US_PER_SECOND));
        assert_eq!(parse_duration_us("5m"), Ok(300 * US_PER_SECOND));
        assert_eq!(parse_duration_us("250ms"), Ok(250_000));
        assert_eq!(parse_duration_us("7us"), Ok(7));
        assert_eq!(parse_duration_us("1h"), Ok(3_600 * US_PER_SECOND));
        assert!(parse_duration_us("0s").is_err());
        assert!(parse_duration_us("5x").is_err());
        assert!(parse_duration_us("-5s").is_err());
        assert_eq!(format_duration_us(60 * US_PER_SECOND), "1m");
        assert_eq!(format_duration_us(1_500), "1500us");
        assert_eq!(format_duration_us(250_000), "250ms");
    }

    #[test]
    fn specs_parse_tumbling_and_sliding() {
        let t = spec("60s");
        assert!(t.is_tumbling());
        assert_eq!(t.buckets_per_window(), 1);
        assert_eq!(t.to_string(), "1m");

        let s = spec("5m/1m");
        assert!(!s.is_tumbling());
        assert_eq!(s.buckets_per_window(), 5);
        assert_eq!(s.to_string(), "5m/1m");

        assert!(WindowSpec::parse("1m/7s").is_err(), "width % slide != 0");
        assert!(WindowSpec::parse("1m/2m").is_err(), "slide > width");
    }

    #[test]
    fn increments_land_in_sim_time_buckets() {
        let mut w = WindowedCounters::new(spec("1m"));
        w.inc(0, "req", 1);
        w.inc(59_999_999, "req", 1);
        w.inc(60_000_000, "req", 5);
        w.inc(61_000_000, "other", 0); // zero: no bucket, no key
        let rows = w.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].window, 0);
        assert_eq!(rows[0].counters.counter("req"), 2);
        assert_eq!(rows[1].window, 1);
        assert_eq!(rows[1].start_us, 60_000_000);
        assert_eq!(rows[1].end_us, 120_000_000);
        assert_eq!(rows[1].counters.counter("req"), 5);
    }

    #[test]
    fn sliding_rows_merge_covered_buckets() {
        let mut w = WindowedCounters::new(spec("2m/1m"));
        w.inc(30_000_000, "req", 1); // bucket 0
        w.inc(90_000_000, "req", 2); // bucket 1
        w.inc(210_000_000, "req", 4); // bucket 3
        let rows = w.rows();
        let by_window: BTreeMap<u64, u64> = rows
            .iter()
            .map(|r| (r.window, r.counters.counter("req")))
            .collect();
        // Window w covers buckets [w, w+2).
        assert_eq!(by_window.get(&0), Some(&3));
        assert_eq!(by_window.get(&1), Some(&2));
        assert_eq!(by_window.get(&2), Some(&4), "bucket 3 via window 2..4");
        assert_eq!(by_window.get(&3), Some(&4));
        // Window 2 has no data in buckets 2..4 only if bucket 3 empty —
        // it is not; but window 4+ has nothing.
        assert!(!by_window.contains_key(&4));
    }

    #[test]
    fn merge_is_bucketwise_and_matches_single_writer() {
        let s = spec("1m");
        let mut all = WindowedCounters::new(s);
        let mut a = WindowedCounters::new(s);
        let mut b = WindowedCounters::new(s);
        for (t, n) in [(10u64, 1u64), (61_000_000, 2), (190_000_000, 3)] {
            all.inc(t, "req", n);
            if t < 100_000_000 {
                a.inc(t, "req", n);
            } else {
                b.inc(t, "req", n);
            }
        }
        let mut merged = WindowedCounters::new(s);
        merged.merge(&b);
        merged.merge(&a);
        assert_eq!(merged, all);
        assert_eq!(merged.to_jsonl("sim"), all.to_jsonl("sim"));
        assert_eq!(merged.total().counter("req"), 6);
    }

    #[test]
    fn windows_covering_yields_each_covering_window_once() {
        let sliding = spec("3m/1m");
        let got: Vec<u64> = sliding.windows_covering([0, 1, 7]).collect();
        assert_eq!(got, vec![0, 1, 5, 6, 7]);
        let tumbling = spec("1m");
        let got: Vec<u64> = tumbling.windows_covering([2, 9]).collect();
        assert_eq!(got, vec![2, 9]);
    }

    #[test]
    fn far_apart_buckets_cost_their_rows_not_their_span() {
        // 2^40 one-µs windows lie between the two increments; only the
        // two occupied ones may be visited.
        let mut w = WindowedCounters::new(spec("1us"));
        w.inc(0, "req", 1);
        w.inc(1 << 40, "req", 2);
        let rows = w.rows();
        assert_eq!(
            rows.iter().map(|r| r.window).collect::<Vec<_>>(),
            vec![0, 1 << 40]
        );
    }

    #[test]
    fn jsonl_is_canonical() {
        let mut w = WindowedCounters::new(spec("1m"));
        w.inc(5, "b", 2);
        w.inc(5, "a", 1);
        assert_eq!(
            w.to_jsonl("sim"),
            "{\"stream\":\"sim\",\"window\":0,\"start_us\":0,\"end_us\":60000000,\
             \"counters\":{\"a\":1,\"b\":2}}\n"
        );
    }
}
