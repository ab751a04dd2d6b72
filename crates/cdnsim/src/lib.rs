//! # jcdn-cdnsim — a discrete-event CDN edge/origin simulator
//!
//! The paper's data comes from Akamai edge servers: requests arrive from
//! clients, are served from an edge cache when the customer configuration
//! allows and the object is resident, and are otherwise fetched from (or
//! tunneled to) the customer origin. This crate simulates that path and
//! emits the request logs (§3.1 schema) the analysis pipeline consumes.
//!
//! Design follows the event-driven, explicit-time style of embedded network
//! stacks (smoltcp): a single [`SimTime`] clock advanced by a binary-heap
//! event queue; no wall clock, no threads, no async — request handling is
//! CPU-bound and deterministic given (workload, config).
//!
//! Components:
//!
//! * [`cache::PolicyCache`] — byte-capacity edge cache with per-entry TTL
//!   and a pluggable [`policy::EvictionPolicy`] (LRU, LFU, SLRU, TinyLFU,
//!   S3-FIFO — see [`policy::PolicyKind`]),
//! * [`hierarchy::CacheHierarchy`] — declarative N-level edge → regional →
//!   origin-shield topology with per-tier capacity/policy and
//!   leave-copy-everywhere / copy-down placement,
//! * [`LatencyModel`] — client↔edge and edge↔origin delays,
//! * edge service queues with two priority classes, which the
//!   deprioritization experiment (§5.1's proposed optimization) exercises,
//! * a pluggable [`Policy`] hook consulted on every request — the prefetch
//!   and deprioritization engines in `jcdn-prefetch` implement it.
//!
//! * a fault-injection plan ([`fault::FaultPlan`]) with client retries and
//!   edge graceful degradation ([`fault::ResilienceConfig`]) for
//!   availability experiments: origin outages, degraded origins, bursty
//!   errors, edge flaps, serve-stale, negative caching, coalescing.
//!
//! ## Example
//!
//! ```
//! use jcdn_workload::{build, WorkloadConfig};
//! use jcdn_cdnsim::{run_default, SimConfig};
//!
//! let workload = build(&WorkloadConfig::tiny(42).scaled(0.1));
//! let output = run_default(&workload, &SimConfig::default());
//! // Failed attempts are retried as fresh events, so the trace holds one
//! // record per attempt: the original events plus every retry issued.
//! assert_eq!(
//!     output.trace.len() as u64,
//!     workload.events.len() as u64 + output.stats.retries_issued,
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod cache;
pub mod fault;
pub mod hierarchy;
mod latency;
pub mod policy;
mod sim;

pub use fault::{
    EdgeFlap, ErrorBursts, FaultPlan, OriginDegradation, OriginOutage, ResilienceConfig, Window,
};
pub use hierarchy::{CacheHierarchy, Placement, TierSpec};
pub use latency::LatencyModel;
pub use policy::PolicyKind;
pub use sim::{
    run, run_default, run_sharded, NoopPolicy, Policy, PolicyOutcome, Priority, RequestCtx,
    SimConfig, SimOutput, SimStats,
};

// Re-exported for implementors of [`Policy`].
pub use jcdn_trace::{SimDuration, SimTime};
