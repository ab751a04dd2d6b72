//! The wall-clock boundary: the only module in the workspace that reads
//! `Instant::now`.
//!
//! Everything this module produces is **non-deterministic by
//! construction** and must stay out of seed-reproducible output: timings
//! flow into span records, pool reports, and the `"perf"` section of a
//! [`crate::RunManifest`], never into [`crate::MetricsSnapshot`] counters.
//! `clippy.toml` bans `Instant::now` everywhere; this module's `#[expect]`
//! is the single exemption, so any other clock read in the tree fails
//! clippy.

#![expect(
    clippy::disallowed_methods,
    reason = "the workspace's one sanctioned wall-clock reader; its readings stay in the perf section"
)]

use std::sync::OnceLock;
use std::time::Instant;

/// The process epoch: the first time anything asked for the clock.
/// Monotonic microsecond readings are relative to this instant, so they
/// are small, comparable within one process, and meaningless across
/// processes — which is the point.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Microseconds elapsed since the process epoch (first clock use).
/// Monotonic within one process; never comparable across processes.
pub fn monotonic_us() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(Instant::now().duration_since(epoch).as_micros()).unwrap_or(u64::MAX)
}

/// A started wall-clock timer. The one sanctioned way to measure elapsed
/// real time outside this crate.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Stopwatch {
        // Touch the epoch so `monotonic_us` readings taken later share a
        // base that predates this stopwatch.
        EPOCH.get_or_init(Instant::now);
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Microseconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_us();
        let b = sw.elapsed_us();
        assert!(b >= a);
    }

    #[test]
    fn monotonic_us_never_goes_backwards() {
        let a = monotonic_us();
        let b = monotonic_us();
        assert!(b >= a);
    }
}
