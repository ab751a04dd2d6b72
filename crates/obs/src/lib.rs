//! # jcdn-obs — deterministic metrics, span tracing, and run manifests
//!
//! The workspace's determinism contract says: same seed, same output,
//! bit-for-bit, for any shard or thread count. Observability naturally
//! pulls against that — wall-clock timings differ between runs by
//! definition. This crate resolves the tension by **segregating the two
//! kinds of signal** instead of mixing them:
//!
//! * **Counters** ([`MetricsSnapshot`]) are event counts driven purely by
//!   the (seeded) computation: cache hits per edge, retries, decoded and
//!   dropped codec records. They are part of the determinism contract —
//!   `merge` is associative and commutative, serialization is
//!   BTreeMap-ordered, and the `obs_invariance` suite holds the counter
//!   section of a [`RunManifest`] byte-identical across shard counts.
//! * **Perf data** (span timings, pool utilization, worker task counts,
//!   peak RSS) is explicitly non-deterministic. It lives in
//!   separate gauge/histogram/span channels, is serialized under a
//!   distinct `"perf"` manifest section, and is never compared across
//!   runs by tests.
//!
//! The crate is also the **single owner of the wall clock**: `Instant::now`
//! appears in this workspace only inside [`clock`], which carries the one
//! `#[expect]` for clippy's `disallowed_methods` ban (see `clippy.toml`).
//! Everything else measures time through [`clock::Stopwatch`] or the
//! [`span!`] macro, so the ban on ambient time holds everywhere it matters.
//!
//! Modules:
//!
//! * [`clock`] — the wall-clock boundary ([`clock::Stopwatch`]).
//! * [`metrics`] — mergeable counters/gauges/histograms with fixed
//!   buckets, mirroring the `SimStats`/`PartialReport` merge idiom.
//! * [`span`](mod@span) — lightweight span tracing into a global ring
//!   buffer with per-phase wall-time attribution.
//! * [`pool`] — worker-pool reports (queue depth, starvation, task
//!   latency) recorded by `jcdn-exec`.
//! * [`manifest`] — the [`RunManifest`] every CLI command emits, with its
//!   deterministic counter section and non-deterministic perf section.
//! * [`timeseries`] — sim-clock-driven windowed counters (tumbling and
//!   sliding windows with deterministic bucket retirement), the
//!   time-series extension of the same mergeable-partials discipline.
//! * [`export`] — Prometheus text exposition and chrome-trace dumps of
//!   the span ring.
//!
//! `jcdn-obs` has zero dependencies (it sits below every crate in the hot
//! path), so JSON emission is hand-rolled in [`json`].

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod clock;
pub mod export;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod pool;
pub mod span;
pub mod timeseries;

pub use manifest::{ObsLevel, RunManifest};
pub use metrics::{Histogram, MetricsSnapshot};
pub use pool::PoolReport;
pub use span::SpanGuard;
pub use timeseries::{WindowRow, WindowSpec, WindowedCounters};
