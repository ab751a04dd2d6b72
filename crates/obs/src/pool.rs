//! Worker-pool observability: the reports `jcdn-exec`'s fan-outs file
//! after every run.
//!
//! Before this module existed the pool was silent: a starved worker
//! looked exactly like healthy parallelism. A [`PoolReport`] captures
//! what actually happened — per-worker task counts (starvation shows as
//! zeros), busy and wall time, and a task-latency histogram. All of it is
//! scheduling-dependent perf data, so it flows into the manifest's
//! `"perf"` section, never into counters.
//!
//! Reports land in a process-global sink (bounded, like the span ring)
//! that the CLI drains into the run manifest. Optional summary-line
//! logging is gated on [`set_logging`], which the CLI wires to
//! `--obs summary|full` — the default stays quiet so library users and
//! tests see no stderr chatter.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::json;
use crate::metrics::{Histogram, MetricsSnapshot};

/// Maximum buffered reports; older reports are dropped (counted) past it.
pub const SINK_CAPACITY: usize = 1024;

/// What one `jcdn-exec` fan-out did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolReport {
    /// Call-site label (`"workload.generate"`, `"sim.edges"`, …).
    pub label: String,
    /// Items scattered.
    pub items: u64,
    /// Workers that ran the pool pass, the calling thread among them (1 =
    /// the items ran in order on the caller); a retry pass counts as one
    /// more.
    pub workers: u64,
    /// Tasks each worker completed, indexed by worker. A zero entry is a
    /// starved worker: it never won a single job against its siblings.
    pub worker_tasks: Vec<u64>,
    /// Summed task wall time across workers, µs.
    pub busy_us: u64,
    /// End-to-end wall time of the fan-out, µs.
    pub wall_us: u64,
    /// Panics caught at the pool's unwind boundary (a retried-and-
    /// recovered item counts 1; a quarantined item counts both attempts).
    pub task_panics: u64,
    /// Per-task wall-time histogram (µs).
    pub task_latency_us: Histogram,
}

impl PoolReport {
    /// Fraction of worker wall-time capacity spent on tasks (1.0 = every
    /// worker busy for the whole fan-out).
    pub fn utilization(&self) -> Option<f64> {
        let capacity = self.wall_us.saturating_mul(self.workers.max(1));
        (capacity > 0).then(|| self.busy_us as f64 / capacity as f64)
    }

    /// Workers that completed zero tasks.
    pub fn starved_workers(&self) -> u64 {
        self.worker_tasks.iter().filter(|&&t| t == 0).count() as u64
    }

    /// One-line human summary (the "stop staying silent" line).
    pub fn summary_line(&self) -> String {
        let util = self
            .utilization()
            .map(|u| format!("{:.0}%", u * 100.0))
            .unwrap_or_else(|| "-".to_string());
        let p99 = self
            .task_latency_us
            .quantile_upper_bound(0.99)
            .map(|v| format!("{v}µs"))
            .unwrap_or_else(|| "-".to_string());
        let mut line = format!(
            "pool {}: {} items on {} workers in {}µs (util {util}, task p99 ≤ {p99})",
            self.label, self.items, self.workers, self.wall_us
        );
        let starved = self.starved_workers();
        if starved > 0 && self.items >= self.workers {
            line.push_str(&format!(", {starved} starved worker(s)"));
        }
        if self.task_panics > 0 {
            line.push_str(&format!(", {} caught panic(s)", self.task_panics));
        }
        line
    }

    /// Folds this report into a snapshot's perf channels (gauges and
    /// histograms keyed by the pool label).
    pub fn record_into(&self, snapshot: &mut MetricsSnapshot) {
        let prefix = format!("pool.{}", self.label);
        snapshot.gauge_max(&format!("{prefix}.workers"), self.workers);
        snapshot.gauge_max(&format!("{prefix}.starved_workers"), self.starved_workers());
        snapshot.merge_histogram(&format!("{prefix}.task_us"), &self.task_latency_us);
    }

    /// Serializes as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut w = json::ObjectWriter::begin(&mut out);
        w.field_str("label", &self.label);
        w.field_u64("items", self.items);
        w.field_u64("workers", self.workers);
        let tasks = format!(
            "[{}]",
            self.worker_tasks
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        w.field_raw("worker_tasks", &tasks);
        w.field_u64("starved_workers", self.starved_workers());
        w.field_u64("busy_us", self.busy_us);
        w.field_u64("wall_us", self.wall_us);
        w.field_u64("task_panics", self.task_panics);
        w.field_raw("task_latency_us", &self.task_latency_us.to_json());
        w.end();
        out
    }
}

struct Sink {
    reports: Vec<PoolReport>,
    dropped: u64,
}

static SINK: Mutex<Option<Sink>> = Mutex::new(None);
static LOGGING: AtomicBool = AtomicBool::new(false);

/// Enables or disables the per-fan-out stderr summary line (wired to
/// `--obs summary|full` by the CLI; off by default).
pub fn set_logging(enabled: bool) {
    LOGGING.store(enabled, Ordering::Relaxed);
}

/// Whether summary-line logging is on.
pub fn logging_enabled() -> bool {
    LOGGING.load(Ordering::Relaxed)
}

/// Files a report into the global sink (and logs its summary line when
/// logging is enabled). Called by `jcdn-exec` after every fan-out.
pub fn record(report: PoolReport) {
    if logging_enabled() {
        eprintln!("{}", report.summary_line());
    }
    let mut guard = SINK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let sink = guard.get_or_insert_with(|| Sink {
        reports: Vec::new(),
        dropped: 0,
    });
    if sink.reports.len() < SINK_CAPACITY {
        sink.reports.push(report);
    } else {
        sink.dropped += 1;
    }
}

/// Drains all filed reports (in filing order) plus the overflow count,
/// resetting the sink.
pub fn drain() -> (Vec<PoolReport>, u64) {
    let mut guard = SINK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    match guard.as_mut() {
        None => (Vec::new(), 0),
        Some(sink) => {
            let reports = std::mem::take(&mut sink.reports);
            let dropped = sink.dropped;
            sink.dropped = 0;
            (reports, dropped)
        }
    }
}

/// Discards all filed reports.
pub fn reset() {
    let _ = drain();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PoolReport {
        let mut hist = Histogram::default();
        hist.observe(10);
        hist.observe(1000);
        PoolReport {
            label: "test.pool".into(),
            items: 8,
            workers: 4,
            worker_tasks: vec![3, 5, 0, 0],
            busy_us: 800,
            wall_us: 400,
            task_panics: 0,
            task_latency_us: hist,
        }
    }

    #[test]
    fn starvation_and_utilization() {
        let report = sample();
        assert_eq!(report.starved_workers(), 2);
        let util = report.utilization().expect("nonzero wall");
        assert!((util - 0.5).abs() < 1e-9, "util {util}");
        let line = report.summary_line();
        assert!(line.contains("2 starved"), "{line}");
    }

    #[test]
    fn json_carries_worker_tasks() {
        let json = sample().to_json();
        assert!(json.contains("\"worker_tasks\":[3,5,0,0]"), "{json}");
        assert!(json.contains("\"label\":\"test.pool\""), "{json}");
    }
}
