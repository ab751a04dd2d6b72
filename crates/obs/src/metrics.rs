//! Mergeable metrics: counters, gauges, and fixed-bucket histograms.
//!
//! The shape mirrors the workspace's existing partial-statistics idiom
//! (`SimStats::merge`, `PartialReport::merge`): a [`MetricsSnapshot`] is a
//! *value* accumulated by one shard/edge/worker and merged in any order
//! into the run total. Merging is associative and commutative — counters
//! add, gauges take the maximum (they record high-water marks), histogram
//! buckets add — so parallel runs aggregate deterministically.
//!
//! The determinism contract covers **counters only**: they count events of
//! the seeded computation and must be byte-identical across shard and
//! thread counts. Gauges and histograms may carry scheduling-dependent
//! perf data (queue depths, task latencies) and are serialized under the
//! manifest's non-deterministic `"perf"` section.

use std::collections::BTreeMap;

use jcdn_json::{Map, Value};

/// Number of exponential histogram buckets. Bucket `i` holds values whose
/// bit length is `i` (`0` lands in bucket 0, `1` in bucket 1, `2..=3` in
/// bucket 2, …), so bucket 23 starts at ~4.2M — plenty for microsecond
/// latencies and byte counts alike; larger values clamp into the last
/// bucket.
pub const HISTOGRAM_BUCKETS: usize = 24;

/// A fixed-bucket exponential histogram (power-of-two bucket edges).
/// Merging adds bucket-wise, so shard histograms pool exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Records one value.
    pub fn observe(&mut self, value: u64) {
        let bits = (u64::BITS - value.leading_zeros()) as usize;
        let bucket = bits.min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observed value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Upper edge of the bucket containing quantile `q` (0.0–1.0): a
    /// bucket-resolution approximation, good enough for summary lines.
    pub(crate) fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Bucket i holds values of bit length i: its upper edge is
                // 2^i - 1 (bucket 0 holds only zero). The final bucket is
                // open-ended; its only honest bound is the observed max.
                return Some(match i {
                    0 => 0,
                    _ if i == HISTOGRAM_BUCKETS - 1 => self.max,
                    _ => (1u64 << i) - 1,
                });
            }
        }
        Some(self.max)
    }

    /// Iterates every bucket as `(inclusive upper-edge label, count)` in
    /// edge order, empty buckets included — the raw material for the JSON
    /// form and for cumulative Prometheus exposition ([`crate::export`]).
    pub(crate) fn buckets(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, &n)| (BUCKET_LABELS[i], n))
    }

    /// Adds `other` bucket-wise (associative, commutative).
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The histogram as a JSON object (count/sum/max plus non-empty
    /// buckets).
    pub fn to_json(&self) -> Value {
        let buckets = self.buckets().filter(|&(_, n)| n > 0);
        Value::Object(Map::from_iter([
            ("count", Value::from(self.count)),
            ("sum", Value::from(self.sum)),
            ("max", Value::from(self.max)),
            ("buckets", u64_object(buckets)),
        ]))
    }
}

/// A JSON object of `(key, integer)` pairs, in iteration order. Callers
/// pass `BTreeMap` iterators or fixed label tables, so key order is
/// deterministic.
fn u64_object<'k>(pairs: impl Iterator<Item = (&'k str, u64)>) -> Value {
    Value::Object(pairs.map(|(k, v)| (k, Value::from(v))).collect())
}

/// Bucket labels: the inclusive upper edge of each bucket, as a string.
const BUCKET_LABELS: [&str; HISTOGRAM_BUCKETS] = [
    "0", "1", "3", "7", "15", "31", "63", "127", "255", "511", "1023", "2047", "4095", "8191",
    "16383", "32767", "65535", "131071", "262143", "524287", "1048575", "2097151", "4194303",
    "inf",
];

/// A mergeable metrics registry snapshot: named counters, gauges, and
/// histograms. See the module docs for the determinism split.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Formats a metric key with labels: `key("sim.hits", &[("edge", 3)])` →
/// `"sim.hits{edge=3}"`. Labels render in the given order; pass them
/// pre-sorted when building keys from multiple call sites.
pub fn key(name: &str, labels: &[(&str, u64)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + labels.len() * 8);
    out.push_str(name);
    out.push('{');
    for (i, (label, value)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(label);
        out.push('=');
        out.push_str(&value.to_string());
    }
    out.push('}');
    out
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    /// True when nothing has been recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Adds `by` to counter `name`. Counters are part of the determinism
    /// contract: increment them only from seed-driven events.
    pub fn inc(&mut self, name: &str, by: u64) {
        if by > 0 {
            *self.counters.entry(name.to_string()).or_default() += by;
        }
    }

    /// Raises gauge `name` to `value` if larger (high-water-mark
    /// semantics; merge takes the max). Gauges are perf data, excluded
    /// from the determinism contract.
    pub fn gauge_max(&mut self, name: &str, value: u64) {
        let slot = self.gauges.entry(name.to_string()).or_default();
        *slot = (*slot).max(value);
    }

    /// Records `value` into histogram `name`. Histograms are perf data,
    /// excluded from the determinism contract.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Merges an already-built histogram into the one registered under
    /// `name` (bucket counts pool exactly).
    pub(crate) fn merge_histogram(&mut self, name: &str, hist: &Histogram) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(hist);
    }

    /// Current value of counter `name` (0 when absent); tests read values
    /// back through it.
    #[cfg(test)]
    pub(crate) fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of gauge `name`, when set.
    #[cfg(test)]
    fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// The histogram registered under `name`, when present.
    #[cfg(test)]
    fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterates gauges in key order.
    pub(crate) fn gauges(&self) -> impl Iterator<Item = (&str, u64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterates histograms in key order.
    pub(crate) fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, h)| (k.as_str(), h))
    }

    /// Sum of all counters whose key starts with `prefix` — how per-edge
    /// label fan-outs roll up (`sim.hits{edge=0}` + `sim.hits{edge=1}`…).
    pub fn counter_prefix_sum(&self, prefix: &str) -> u64 {
        self.counters
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, &v)| v)
            .sum()
    }

    /// Adds `other` into `self`: counters add, gauges max, histogram
    /// buckets add. Associative and commutative (the `metrics_properties`
    /// suite holds it to that), so shard snapshots merge in any order.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_default() += value;
        }
        for (name, value) in &other.gauges {
            let slot = self.gauges.entry(name.clone()).or_default();
            *slot = (*slot).max(*value);
        }
        for (name, hist) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(hist);
        }
    }

    /// The deterministic counter section as a JSON object: keys in
    /// BTreeMap order, integers only. Identical across same-seed runs
    /// regardless of shard/thread count — the `obs_invariance` suite and
    /// the manifest's `"counters"` section both rest on this.
    pub fn counters_json(&self) -> Value {
        u64_object(self.counters())
    }

    /// The non-deterministic perf section (gauges + histograms) as a JSON
    /// object.
    pub fn perf_json(&self) -> Value {
        let histograms = self.histograms().map(|(name, hist)| (name, hist.to_json()));
        Value::Object(Map::from_iter([
            ("gauges", u64_object(self.gauges())),
            ("histograms", Value::Object(histograms.collect())),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_query() {
        let mut m = MetricsSnapshot::new();
        m.inc("a", 2);
        m.inc("a", 3);
        m.inc("b", 0); // no-op: zero increments create no key
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("b"), 0);
        assert_eq!(jcdn_json::to_string(&m.counters_json()), "{\"a\":5}");
    }

    #[test]
    fn gauges_keep_the_high_water_mark() {
        let mut m = MetricsSnapshot::new();
        m.gauge_max("depth", 4);
        m.gauge_max("depth", 2);
        assert_eq!(m.gauge("depth"), Some(4));
    }

    #[test]
    fn merge_adds_counters_and_maxes_gauges() {
        let mut a = MetricsSnapshot::new();
        a.inc("x", 1);
        a.gauge_max("g", 5);
        a.observe("h", 100);
        let mut b = MetricsSnapshot::new();
        b.inc("x", 2);
        b.inc("y", 7);
        b.gauge_max("g", 3);
        b.observe("h", 1000);
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.counter("y"), 7);
        assert_eq!(a.gauge("g"), Some(5));
        let h = a.histogram("h").expect("merged histogram");
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 1100);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 1_000_000, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max(), u64::MAX);
        // p50 of 7 values (rank 4) lands in the bucket of value 3.
        assert_eq!(h.quantile_upper_bound(0.5), Some(3));
        assert_eq!(h.quantile_upper_bound(1.0), Some(u64::MAX));
        assert_eq!(Histogram::default().quantile_upper_bound(0.5), None);
    }

    #[test]
    fn keys_render_labels_in_order() {
        assert_eq!(key("sim.hits", &[]), "sim.hits");
        assert_eq!(
            key("sim.hits", &[("edge", 3), ("tier", 1)]),
            "sim.hits{edge=3,tier=1}"
        );
    }

    #[test]
    fn prefix_sum_rolls_up_labeled_counters() {
        let mut m = MetricsSnapshot::new();
        m.inc(&key("sim.hits", &[("edge", 0)]), 2);
        m.inc(&key("sim.hits", &[("edge", 1)]), 3);
        m.inc("sim.misses{edge=0}", 9);
        assert_eq!(m.counter_prefix_sum("sim.hits"), 5);
    }
}
