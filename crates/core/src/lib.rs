//! # jcdn-core — the IMC '19 JSON-traffic analysis pipeline
//!
//! This crate is the paper's primary contribution rebuilt as a library: the
//! traffic taxonomy (Figure 2) and the three studies that run over CDN
//! request logs:
//!
//! * [`characterize`] — §4: traffic-source breakdown (Figure 3), request
//!   types, response sizes and cacheability, and the per-industry domain
//!   cacheability heatmap (Figure 4), plus the JSON:HTML ratio series
//!   (Figure 1),
//! * [`periodicity`] — §5.1: object/client-object flow periodicity with
//!   permutation-thresholded detection (Figures 5 and 6),
//! * [`prediction`] — §5.2: backoff n-gram next-request prediction on raw
//!   and clustered URLs (Table 3),
//! * [`pipeline`] — the sharded scatter–gather characterization pipeline:
//!   per-shard partial reports merged exactly into one
//!   [`pipeline::CharacterizationReport`],
//! * [`dataset`] — glue that generates a synthetic dataset (workload →
//!   CDN simulation → trace) in one call,
//! * [`report`] — plain-text table/figure rendering used by the `repro`
//!   harness and the examples.
//!
//! The input everywhere is a [`jcdn_trace::Trace`] — whether it came from
//! the bundled simulator or (in principle) from real edge logs decoded via
//! `jcdn-trace`'s codecs.
//!
//! ## Example: characterize a small synthetic dataset
//!
//! ```
//! use jcdn_core::dataset;
//! use jcdn_core::characterize::TrafficSourceBreakdown;
//! use jcdn_workload::WorkloadConfig;
//!
//! let data = dataset::simulate(&WorkloadConfig::tiny(1).scaled(0.2));
//! let sources = TrafficSourceBreakdown::compute(&data.trace);
//! // Mobile dominates JSON traffic, as in Figure 3.
//! assert!(sources.request_share(jcdn_ua::DeviceType::Mobile) > 0.3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

/// The paper's measured quantities (§3–§4) as mergeable report sections.
pub mod characterize;
/// Dataset assembly: synthetic workloads rendered into analyzable traces.
pub mod dataset;
/// Request-interval periodicity detection over object flows (§5.2).
pub mod periodicity;
/// The sharded scatter–gather analysis pipeline and its partial reports.
pub mod pipeline;
/// Next-request prediction experiments (§6).
pub mod prediction;
/// Text report rendering: tables, percentages, and section layout.
pub mod report;
/// Windowed §4 partials: per-window rates, mix, and top-URL churn.
pub mod series;
/// The JSON traffic taxonomy (§3.2): request classes and their shares.
pub mod taxonomy;
