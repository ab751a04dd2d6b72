//! # jcdn-bench — reproduction experiments
//!
//! One function per table/figure of the paper (see `DESIGN.md`'s experiment
//! index). The `repro` binary prints paper-vs-measured comparisons. Speed
//! is measured by the repository benchmark, `perfbench/` (see
//! `BENCHMARK.json`); eviction-policy hit rates are checked by jcdn-cdnsim's
//! `tests/policy_hit_rates.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod experiments;

use jcdn_core::dataset::{simulate, Dataset};
use jcdn_workload::WorkloadConfig;

/// Shared experiment context: both datasets, simulated once.
pub struct Context {
    /// The short-term dataset (whole network, 10 simulated minutes).
    pub short_term: Dataset,
    /// The long-term dataset (three vantage points, 24 simulated hours).
    pub long_term: Dataset,
    /// The volume scale relative to the default configs.
    pub scale: f64,
}

impl Context {
    /// Simulates both datasets at `scale` of the default volume.
    pub fn new(seed: u64, scale: f64) -> Self {
        Context {
            short_term: simulate(&WorkloadConfig::short_term(seed).scaled(scale)),
            long_term: simulate(&WorkloadConfig::long_term(seed ^ 0x1001).scaled(scale)),
            scale,
        }
    }
}
