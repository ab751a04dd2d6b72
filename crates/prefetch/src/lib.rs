//! # jcdn-prefetch — the optimizations §5 of the paper proposes
//!
//! The paper stops at *suggesting* optimizations; this crate builds them on
//! top of the simulator so their effect can be measured:
//!
//! * [`NgramPrefetcher`] — "a JSON request prediction system can be used by
//!   CDNs to perform prefetching for cacheable requests" (§5.2): a backoff
//!   n-gram model trained on a previous trace predicts each client's next
//!   requests and warms the edge cache.
//! * [`ManifestPrefetcher`] — Table 1's pattern directly: when a manifest
//!   JSON body passes through the edge, parse it (with `jcdn-json`) and
//!   prefetch the objects it references — the JSON analogue of HTML-driven
//!   server push.
//! * [`DeprioritizePolicy`] — "CDN operators can deprioritize machine-to-
//!   machine traffic as it is not human-triggered" (§5.1/§7): periodic
//!   flows are served at lower priority.
//! * [`anomaly`] — "periodic information can also be used for anomaly
//!   detection when an object is requested at a different period … detect
//!   when a highly unlikely object is requested": sequence- and
//!   period-deviation detectors over traces.
//! * [`lead_time`] — the interarrival-aware analysis §5.2 leaves as future
//!   work: how much time a prefetcher actually has between trigger and
//!   demand request.
//! * [`eval`] — A/B harnesses that run the simulator with and without a
//!   policy and report hit-ratio and latency deltas.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod anomaly;
mod depri;
pub mod eval;
pub mod lead_time;
mod manifest;
mod ngram_prefetch;

pub use depri::DeprioritizePolicy;
pub use manifest::ManifestPrefetcher;
pub use ngram_prefetch::NgramPrefetcher;
