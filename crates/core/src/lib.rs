//! # jcdn-core — the IMC '19 JSON-traffic analysis pipeline
//!
//! This crate is the paper's primary contribution rebuilt as a library: the
//! traffic taxonomy (Figure 2) and the three studies that run over CDN
//! request logs:
//!
//! * [`characterize`] — §4: traffic-source breakdown (Figure 3), request
//!   types, response sizes and cacheability, and the per-industry domain
//!   cacheability heatmap (Figure 4), plus the trace's JSON:HTML request
//!   mix,
//! * [`periodicity`] — §5.1: object/client-object flow periodicity with
//!   permutation-thresholded detection (Figures 5 and 6),
//! * [`prediction`] — §5.2: backoff n-gram next-request prediction on raw
//!   and clustered URLs (Table 3),
//! * [`pipeline`] — the scatter–gather characterization pipeline:
//!   per-shard partial reports merged exactly into one
//!   [`pipeline::CharacterizationReport`],
//! * [`dataset`] — glue that generates a synthetic dataset (workload →
//!   CDN simulation → trace) in one call,
//! * [`report`] — plain-text table/figure rendering used by the `repro`
//!   harness and the examples.
//!
//! The input is a [`jcdn_trace::Trace`], whether it came from the bundled
//! simulator (one shard) or (in principle) from real edge logs decoded via
//! `jcdn-trace`'s codecs (one shard per frame). The §4 report and its
//! series accumulate one partial per shard.
//!
//! ## Example: characterize a small synthetic dataset
//!
//! ```
//! use jcdn_core::characterize::TokenCategoryProvider;
//! use jcdn_core::dataset;
//! use jcdn_core::pipeline::CharacterizationReport;
//! use jcdn_workload::WorkloadConfig;
//!
//! let data = dataset::simulate(&WorkloadConfig::tiny(1).scaled(0.2));
//! let report = CharacterizationReport::compute(&data.trace, &TokenCategoryProvider, 1);
//! // Mobile dominates JSON traffic, as in Figure 3.
//! assert!(report.sources.request_share(jcdn_ua::DeviceType::Mobile) > 0.3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod characterize;
pub mod dataset;
pub mod periodicity;
pub mod pipeline;
pub mod prediction;
pub mod report;
pub mod series;
pub mod taxonomy;
