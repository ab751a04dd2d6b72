//! Run manifests: the structured artifact every CLI command emits.
//!
//! A [`RunManifest`] is one run's observability record, split along the
//! crate's determinism boundary:
//!
//! * the **`"counters"` section** serializes the deterministic
//!   [`MetricsSnapshot`] counters — byte-identical across same-seed runs
//!   and across shard/thread counts (the acceptance test diffs it);
//! * the **`"perf"` section** carries everything wall-clock: total run
//!   time, per-phase span attribution, worker-pool reports, perf gauges
//!   and histograms, and peak RSS from `/proc/self/status`.
//!
//! The CLI writes the JSON with `--obs-out <path>` and prints the human
//! summary on stderr at `--obs summary|full` ([`ObsLevel`]).

use std::collections::BTreeMap;

use jcdn_json::{Map, Value};

use crate::clock::Stopwatch;
use crate::metrics::MetricsSnapshot;
use crate::pool::PoolReport;
use crate::span::{self, PhaseStat};

/// Manifest schema version, bumped when the JSON layout changes shape.
pub const MANIFEST_VERSION: u32 = 1;

/// How much observability output the user asked for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ObsLevel {
    /// No stderr summary, no pool logging (the default).
    #[default]
    Off,
    /// Counter totals and phase timings on stderr, pool summary lines on.
    Summary,
    /// Everything `Summary` prints plus every counter and pool report.
    Full,
}

impl std::str::FromStr for ObsLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<ObsLevel, String> {
        match s {
            "off" => Ok(ObsLevel::Off),
            "summary" => Ok(ObsLevel::Summary),
            "full" => Ok(ObsLevel::Full),
            other => Err(format!("--obs: expected off|summary|full, got {other:?}")),
        }
    }
}

/// Peak resident set size in KiB, from `/proc/self/status` (`VmHWM`).
/// `None` off Linux (the read is compiled out rather than attempted and
/// failed) or when the field is missing. Non-deterministic — perf
/// section only; a `None` here sets the `obs.rss_unavailable` perf gauge
/// at [`RunManifest::finish`] so manifests stay honest instead of
/// carrying a silent zero.
pub fn peak_rss_kb() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                return rest.trim().trim_end_matches("kB").trim().parse().ok();
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// One run's observability record. Build with [`RunManifest::start`],
/// accumulate counters into [`RunManifest::metrics`], then
/// [`RunManifest::finish`] to capture spans, pool reports, and RSS.
#[derive(Clone, Debug)]
pub struct RunManifest {
    /// The subcommand that ran (`"generate"`, `"characterize"`, …).
    pub command: String,
    /// Run parameters worth reproducing the run from (seed, preset,
    /// shards, threads, paths), in insertion-independent key order.
    pub params: BTreeMap<String, String>,
    /// Trace codec version in play.
    pub codec_version: u16,
    /// FNV-1a digest of the fault plan (hex), when the run had one.
    pub fault_digest: Option<String>,
    /// The deterministic counters plus any perf gauges/histograms filed
    /// by instrumented code.
    pub metrics: MetricsSnapshot,
    /// Per-phase wall-time attribution, captured at [`finish`][Self::finish].
    pub phases: BTreeMap<String, PhaseStat>,
    /// Worker-pool reports, captured at [`finish`][Self::finish].
    pub pools: Vec<PoolReport>,
    /// The raw spans drained from the ring at [`finish`][Self::finish],
    /// kept so exports (chrome trace) can run after the ring is reset.
    pub spans: Vec<span::SpanRecord>,
    /// Spans evicted from the ring before capture.
    pub spans_dropped: u64,
    /// Pool reports dropped by the sink before capture.
    pub pools_dropped: u64,
    /// Peak RSS (KiB), when readable.
    pub peak_rss_kb: Option<u64>,
    /// End-to-end wall time of the command, µs.
    pub wall_us: u64,
    stopwatch: Stopwatch,
}

impl RunManifest {
    /// Starts a manifest for `command`: resets the span ring and pool sink
    /// (so this run's perf data is its own) and starts the run stopwatch.
    pub fn start(command: &str) -> RunManifest {
        span::reset();
        crate::pool::reset();
        RunManifest {
            command: command.to_string(),
            params: BTreeMap::new(),
            codec_version: 0,
            fault_digest: None,
            metrics: MetricsSnapshot::new(),
            phases: BTreeMap::new(),
            pools: Vec::new(),
            spans: Vec::new(),
            spans_dropped: 0,
            pools_dropped: 0,
            peak_rss_kb: None,
            wall_us: 0,
            stopwatch: Stopwatch::start(),
        }
    }

    /// Records one reproduction parameter (seed, preset, shard count, …).
    pub fn param(&mut self, key: &str, value: impl ToString) {
        self.params.insert(key.to_string(), value.to_string());
    }

    /// Captures the perf side: stops the run clock, drains the span ring
    /// into phase timings (keeping the raw spans for chrome-trace
    /// export), drains the pool sink, folds pool perf into the metrics
    /// gauges, and reads peak RSS. Ring eviction and an unreadable RSS
    /// both surface as perf gauges (`obs.spans_dropped`,
    /// `obs.rss_unavailable`) so the manifest records its own blind
    /// spots.
    pub fn finish(&mut self) {
        self.wall_us = self.stopwatch.elapsed_us();
        let (spans, spans_dropped) = span::drain();
        self.phases = span::phase_timings(&spans);
        self.spans = spans;
        self.spans_dropped = spans_dropped;
        if spans_dropped > 0 {
            self.metrics.gauge_max("obs.spans_dropped", spans_dropped);
        }
        let (pools, pools_dropped) = crate::pool::drain();
        for pool in &pools {
            pool.record_into(&mut self.metrics);
        }
        self.pools = pools;
        self.pools_dropped = pools_dropped;
        self.peak_rss_kb = peak_rss_kb();
        if self.peak_rss_kb.is_none() {
            self.metrics.gauge_max("obs.rss_unavailable", 1);
        }
    }

    /// Renders the manifest metrics in the Prometheus text exposition
    /// format (`--obs-prom`): see `crate::export::prometheus_text`.
    pub fn prometheus_text(&self) -> String {
        crate::export::prometheus_text(&self.metrics)
    }

    /// The captured spans as a chrome-trace JSON object (`--obs-trace`),
    /// with the ring's eviction count in the footer: see
    /// `crate::export::chrome_trace`.
    pub fn chrome_trace_json(&self) -> Value {
        crate::export::chrome_trace(&self.spans, self.spans_dropped)
    }

    /// The deterministic counter section, exactly as embedded in
    /// [`to_json`][Self::to_json]. Identical across same-seed runs for any
    /// shard/thread count.
    pub fn counters_json(&self) -> Value {
        self.metrics.counters_json()
    }

    /// The whole manifest as a JSON object: header fields, the
    /// deterministic `"counters"` section, then the non-deterministic
    /// `"perf"` section. `--obs-out` writes it with `jcdn_json::to_string`.
    pub fn to_json(&self) -> Value {
        let params = self
            .params
            .iter()
            .map(|(key, value)| (key.as_str(), Value::from(value.as_str())));
        let phases = self.phases.iter().map(|(name, stat)| {
            let stat = Map::from_iter([
                ("count", Value::from(stat.count)),
                ("total_us", Value::from(stat.total_us)),
                ("max_us", Value::from(stat.max_us)),
            ]);
            (name.as_str(), Value::Object(stat))
        });
        let perf = Map::from_iter([
            ("wall_us", Value::from(self.wall_us)),
            (
                "peak_rss_kb",
                self.peak_rss_kb.map_or(Value::Null, Value::from),
            ),
            ("phases", Value::Object(phases.collect())),
            (
                "pools",
                Value::Array(self.pools.iter().map(PoolReport::to_json).collect()),
            ),
            ("spans_dropped", Value::from(self.spans_dropped)),
            ("pools_dropped", Value::from(self.pools_dropped)),
            ("metrics", self.metrics.perf_json()),
        ]);
        Value::Object(Map::from_iter([
            ("manifest_version", Value::from(MANIFEST_VERSION)),
            ("command", Value::from(self.command.as_str())),
            ("params", Value::Object(params.collect())),
            ("codec_version", Value::from(u32::from(self.codec_version))),
            (
                "fault_digest",
                self.fault_digest
                    .as_deref()
                    .map_or(Value::Null, Value::from),
            ),
            ("counters", self.counters_json()),
            ("perf", Value::Object(perf)),
        ]))
    }

    /// The human summary printed to stderr at `--obs summary|full`.
    /// `full` appends every counter and pool report.
    pub fn summary_text(&self, level: ObsLevel) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "obs[{}]: {} counters, wall {}ms",
            self.command,
            self.metrics.counters().count(),
            self.wall_us / 1000
        ));
        if let Some(kb) = self.peak_rss_kb {
            out.push_str(&format!(", peak RSS {}MiB", kb / 1024));
        }
        out.push('\n');
        for (name, stat) in &self.phases {
            out.push_str(&format!(
                "  phase {name}: {}ms over {} span(s)\n",
                stat.total_us / 1000,
                stat.count
            ));
        }
        if level == ObsLevel::Full {
            for (name, value) in self.metrics.counters() {
                out.push_str(&format!("  counter {name} = {value}\n"));
            }
            for pool in &self.pools {
                out.push_str(&format!("  {}\n", pool.summary_line()));
            }
        }
        if self.spans_dropped > 0 || self.pools_dropped > 0 {
            out.push_str(&format!(
                "  (ring overflow: {} span(s), {} pool report(s) dropped)\n",
                self.spans_dropped, self.pools_dropped
            ));
        }
        out.truncate(out.trim_end().len());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_level_parses() {
        assert_eq!("off".parse::<ObsLevel>().unwrap(), ObsLevel::Off);
        assert_eq!("summary".parse::<ObsLevel>().unwrap(), ObsLevel::Summary);
        assert_eq!("full".parse::<ObsLevel>().unwrap(), ObsLevel::Full);
        assert!("verbose".parse::<ObsLevel>().is_err());
    }

    #[test]
    fn manifest_json_sections_split_determinism() {
        let mut m = RunManifest::start("generate");
        m.param("seed", 42u64);
        m.codec_version = 3;
        m.metrics.inc("sim.hits{edge=0}", 7);
        m.metrics.gauge_max("pool.x.depth", 3);
        m.finish();
        let json = jcdn_json::to_string(&m.to_json());
        assert!(
            json.contains("\"counters\":{\"sim.hits{edge=0}\":7}"),
            "{json}"
        );
        // The gauge lives under perf, not counters.
        assert!(m.counters_json().get("pool.x.depth").is_none());
        assert!(json.contains("\"perf\":{"), "{json}");
        assert!(json.contains("\"params\":{\"seed\":\"42\"}"), "{json}");
    }

    #[test]
    fn counter_section_ignores_wall_time() {
        let mut a = RunManifest::start("x");
        a.metrics.inc("n", 1);
        a.finish();
        let mut b = RunManifest::start("x");
        b.metrics.inc("n", 1);
        b.finish();
        // Wall times differ; the counter sections are byte-identical.
        assert_eq!(a.counters_json(), b.counters_json());
    }

    #[test]
    fn peak_rss_reads_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_kb().unwrap_or(0) > 0);
        }
    }
}
