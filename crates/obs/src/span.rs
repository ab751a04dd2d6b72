//! Lightweight span tracing with a ring-buffer recorder.
//!
//! A span is one timed region of the pipeline: `span!("simulate.edge",
//! edge = 3)` starts a wall-clock stopwatch and records `(name, start,
//! duration)` into a process-global ring buffer when the guard drops.
//! Spans carry **wall-clock time and nothing else** — they are perf data,
//! aggregated into the `"perf"` section of a run manifest and excluded
//! from the determinism contract (see the crate docs).
//!
//! The recorder is a fixed-capacity ring: recording is O(1), never
//! allocates past the cap, and overflow evicts the oldest span while
//! counting how many were dropped, so a pathologically chatty phase can't
//! balloon memory. Aggregation (`phase_timings`) folds the buffer into
//! per-name totals for the manifest.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::clock::{monotonic_us, Stopwatch};

/// Ring capacity. Per-shard pipelines emit a handful of spans per stage;
/// 4096 holds hundreds of shards' worth before eviction starts.
pub const RING_CAPACITY: usize = 4096;

/// One completed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name, plus rendered labels when the [`span!`](crate::span!)
    /// call had any (`"simulate.edge{edge=3}"`).
    pub name: String,
    /// Start, µs since the process clock epoch.
    pub start_us: u64,
    /// Wall-clock duration in µs.
    pub duration_us: u64,
}

#[derive(Default)]
struct Ring {
    spans: Vec<SpanRecord>,
    /// Index of the oldest record once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl Ring {
    /// Appends `record`; once full, overwrites the oldest and counts it
    /// as dropped.
    fn push(&mut self, record: SpanRecord) {
        if self.spans.len() < RING_CAPACITY {
            self.spans.push(record);
        } else {
            self.spans[self.head] = record;
            self.head = (self.head + 1) % RING_CAPACITY;
            self.dropped += 1;
        }
    }

    /// Takes every record, oldest first, and the dropped count, leaving
    /// the ring empty.
    fn take(&mut self) -> (Vec<SpanRecord>, u64) {
        let mut spans = std::mem::take(&mut self.spans);
        spans.rotate_left(self.head);
        let dropped = self.dropped;
        self.head = 0;
        self.dropped = 0;
        (spans, dropped)
    }
}

static RING: Mutex<Option<Ring>> = Mutex::new(None);

fn with_ring<R>(f: impl FnOnce(&mut Ring) -> R) -> R {
    let mut guard = RING
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    f(guard.get_or_insert_with(Ring::default))
}

/// Records a completed span. Called by [`SpanGuard::drop`]; callers that
/// measure time themselves (e.g. around an FFI boundary) may call it
/// directly.
pub(crate) fn record(name: String, start_us: u64, duration_us: u64) {
    with_ring(|ring| {
        ring.push(SpanRecord {
            name,
            start_us,
            duration_us,
        });
    });
}

/// Drains and returns every recorded span in record order, plus the count
/// of spans the ring evicted. Resets the recorder.
pub fn drain() -> (Vec<SpanRecord>, u64) {
    with_ring(Ring::take)
}

/// Discards all recorded spans (start-of-command hygiene, so one CLI run's
/// manifest never carries a previous run's timings in tests).
pub fn reset() {
    let _ = drain();
}

/// Aggregated wall time for one span name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Number of spans with this name.
    pub count: u64,
    /// Summed wall time, µs.
    pub total_us: u64,
    /// Longest single span, µs.
    pub max_us: u64,
}

/// Folds a drained span list into per-name wall-time attribution, in name
/// order. Phase timings are wall-clock perf data — deterministic keys,
/// non-deterministic values.
pub(crate) fn phase_timings(spans: &[SpanRecord]) -> BTreeMap<String, PhaseStat> {
    let mut phases: BTreeMap<String, PhaseStat> = BTreeMap::new();
    for span in spans {
        let stat = phases.entry(span.name.clone()).or_default();
        stat.count += 1;
        stat.total_us += span.duration_us;
        stat.max_us = stat.max_us.max(span.duration_us);
    }
    phases
}

/// An in-flight span: records itself into the global ring when dropped.
/// Construct via [`span!`](crate::span!) or [`SpanGuard::enter`].
#[derive(Debug)]
pub struct SpanGuard {
    name: String,
    start_us: u64,
    stopwatch: Stopwatch,
}

impl SpanGuard {
    /// Starts a span with an already-rendered name.
    pub fn enter(name: String) -> SpanGuard {
        SpanGuard {
            name,
            start_us: monotonic_us(),
            stopwatch: Stopwatch::start(),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        record(
            std::mem::take(&mut self.name),
            self.start_us,
            self.stopwatch.elapsed_us(),
        );
    }
}

/// Opens a span that records wall time into the global ring buffer when
/// the returned guard drops:
///
/// ```
/// let _span = jcdn_obs::span!("workload.generate");
/// // ... timed work ...
/// drop(_span);
/// let (spans, _) = jcdn_obs::span::drain();
/// assert_eq!(spans.last().unwrap().name, "workload.generate");
/// ```
///
/// Labels render into the name: `span!("simulate.edge", edge = 3)` records
/// as `simulate.edge{edge=3}`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter(($name).to_string())
    };
    ($name:expr, $($label:ident = $value:expr),+ $(,)?) => {
        $crate::span::SpanGuard::enter($crate::metrics::key(
            $name,
            &[$((stringify!($label), ($value) as u64)),+],
        ))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The ring is process-global and `cargo test` runs tests on threads;
    // every assertion here filters to names unique to its own test.
    #[test]
    fn spans_record_on_drop_with_labels() {
        {
            let _a = crate::span!("test.span.outer");
            let _b = crate::span!("test.span.inner", edge = 3, shard = 1);
        }
        let (spans, _) = drain();
        let names: Vec<&str> = spans
            .iter()
            .map(|s| s.name.as_str())
            .filter(|n| n.starts_with("test.span."))
            .collect();
        assert!(names.contains(&"test.span.inner{edge=3,shard=1}"));
        assert!(names.contains(&"test.span.outer"));
    }

    #[test]
    fn phase_timings_aggregate_by_name() {
        let spans = vec![
            SpanRecord {
                name: "p".into(),
                start_us: 0,
                duration_us: 10,
            },
            SpanRecord {
                name: "p".into(),
                start_us: 5,
                duration_us: 30,
            },
            SpanRecord {
                name: "q".into(),
                start_us: 9,
                duration_us: 1,
            },
        ];
        let phases = phase_timings(&spans);
        assert_eq!(phases["p"].count, 2);
        assert_eq!(phases["p"].total_us, 40);
        assert_eq!(phases["p"].max_us, 30);
        assert_eq!(phases["q"].count, 1);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut ring = Ring::default();
        for i in 0..(RING_CAPACITY + 10) {
            ring.push(SpanRecord {
                name: format!("s{i}"),
                start_us: i as u64,
                duration_us: 1,
            });
        }
        assert_eq!(ring.spans.len(), RING_CAPACITY);
        assert_eq!(ring.dropped, 10);
        // A wrapped ring drains oldest first: s10 .. s{CAP+9}, in order.
        let (spans, dropped) = ring.take();
        assert_eq!(dropped, 10);
        assert_eq!(spans.len(), RING_CAPACITY);
        for (i, span) in spans.iter().enumerate() {
            assert_eq!(span.name, format!("s{}", i + 10));
        }
        // Taking resets the ring.
        assert_eq!(ring.take(), (Vec::new(), 0));
    }
}
