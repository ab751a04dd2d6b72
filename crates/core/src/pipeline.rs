//! Sharded characterization pipeline: scatter per-shard accumulation over
//! a worker pool, gather, and merge into one exact report.
//!
//! [`CharacterizationReport`] bundles every §4 breakdown. Three entry
//! points produce one:
//!
//! * [`CharacterizationReport::compute`] — single pass over a [`Trace`],
//! * [`CharacterizationReport::compute_sharded`] — per-shard partials of a
//!   [`ShardedTrace`], accumulated on a
//!   [`jcdn_exec::scatter_gather_labeled`] pool and merged in shard order,
//! * the manual route: build the tables below,
//!   [`accumulate`](crate::pipeline::PartialReport::accumulate) partials
//!   yourself, [`merge`](crate::pipeline::PartialReport::merge) them, then
//!   [`finalize`](crate::pipeline::PartialReport::finalize).
//!
//! Every route first builds the report's shared tables once: the
//! [`UaClassTable`](crate::characterize::UaClassTable) and the
//! [`HostCategoryTable`](crate::characterize::HostCategoryTable). Each
//! partial then comes from one pass over its records that tallies per UA
//! and per host in plain arrays. Because every accumulator merge is exact
//! (integer counts, pooled order statistics, per-domain counts bucketed
//! only at finalize), all three routes yield identical reports for the
//! same records — for any shard count and thread count. The
//! `shard_invariance` integration test holds the pipeline to that.

use jcdn_trace::{MimeType, RecordFlags, RecordStream, ShardedTrace, Trace};

use crate::characterize::{
    AvailabilityBreakdown, CacheabilityHeatmap, CategoryProvider, ContentMix, DomainCacheability,
    HostCategoryTable, RequestTypeBreakdown, ResponseTypeBreakdown, TrafficSourceBreakdown,
    UaClassTable,
};
use crate::taxonomy::RequestType;

/// Default bucket count for the cacheability heatmap (Figure 4 uses ten
/// 10%-wide cells).
pub const HEATMAP_BUCKETS: usize = 10;

/// Partial characterization state for one record subset. Merge partials
/// with [`merge`][Self::merge], then [`finalize`][Self::finalize] into a
/// [`CharacterizationReport`].
#[derive(Clone, Debug, Default)]
pub struct PartialReport {
    /// Figure 3 traffic sources (request counters only until finalize).
    pub sources: TrafficSourceBreakdown,
    /// GET/POST split.
    pub requests: RequestTypeBreakdown,
    /// Cacheability counters and size samples.
    pub responses: ResponseTypeBreakdown,
    /// Per-domain cacheable/total counts (bucketed at finalize).
    pub domains: DomainCacheability,
    /// Availability and resilience counters.
    pub availability: AvailabilityBreakdown,
    /// JSON/HTML request counts.
    pub mix: ContentMix,
}

impl PartialReport {
    /// Folds one record stream into every accumulator in a single pass.
    /// JSON requests are tallied per UA slot and logical requests per host
    /// id in plain arrays; those tallies reach the breakdowns' maps once
    /// per call, not once per record. Size samples are recorded in stream
    /// order.
    pub fn accumulate(
        &mut self,
        stream: &RecordStream<'_>,
        classes: &UaClassTable,
        hosts: &HostCategoryTable<'_>,
    ) {
        let mut json_per_ua = vec![0u64; classes.slots().len()];
        // (end-user failures, logical requests) per host id.
        let mut logical_per_host = vec![(0u64, 0u64); hosts.host_count()];
        let domains = &mut self.domains.per_domain;
        domains.resize(hosts.host_count(), (0, 0));
        let availability = &mut self.availability;
        for r in stream.iter() {
            let host = hosts.host_id(r.url);
            let failed = r.status >= 500;
            availability.attempts += 1;
            if failed {
                availability.attempt_failures += 1;
            }
            if r.flags.contains(RecordFlags::SERVED_STALE) {
                availability.stale_serves += 1;
            }
            if r.flags.contains(RecordFlags::NEG_CACHED) {
                availability.neg_cached += 1;
            }
            if r.flags.contains(RecordFlags::COALESCED) {
                availability.coalesced += 1;
            }
            // Final attempts are the logical requests; a failed final
            // attempt is an end-user failure.
            if r.flags.contains(RecordFlags::RETRIED) {
                availability.retried_attempts += 1;
            } else {
                let logical = &mut logical_per_host[host];
                logical.0 += u64::from(failed);
                logical.1 += 1;
            }
            match r.mime {
                MimeType::Json => {
                    json_per_ua[classes.slot(r.ua)] += 1;
                    match RequestType::from_method(r.method) {
                        RequestType::Download => self.requests.downloads += 1,
                        RequestType::Upload => self.requests.uploads += 1,
                        RequestType::Other => self.requests.other += 1,
                    }
                    let cacheable = r.cache.is_cacheable();
                    self.responses.json_total += 1;
                    if !cacheable {
                        self.responses.json_uncacheable += 1;
                    }
                    self.responses.json_sizes.record(r.response_bytes as f64);
                    let domain = &mut domains[host];
                    domain.0 += u64::from(cacheable);
                    domain.1 += 1;
                    self.mix.json += 1;
                }
                MimeType::Html => {
                    self.responses.html_sizes.record(r.response_bytes as f64);
                    self.mix.html += 1;
                }
                _ => {}
            }
        }
        self.sources.count_requests(&json_per_ua, classes);
        self.availability.count_logical(&logical_per_host, hosts);
    }

    /// Adds `other`'s partial state into `self` (associative, exact).
    pub fn merge(&mut self, other: &PartialReport) {
        self.sources.merge(&other.sources);
        self.requests.merge(&other.requests);
        self.responses.merge(&other.responses);
        self.domains.merge(&other.domains);
        self.availability.merge(&other.availability);
        self.mix.merge(&other.mix);
    }

    /// Runs the once-per-report steps (distinct-UA counts from the shared
    /// table, heatmap bucketing) and produces the final report.
    pub fn finalize(
        mut self,
        classes: &UaClassTable,
        hosts: &HostCategoryTable<'_>,
        heatmap_buckets: usize,
    ) -> CharacterizationReport {
        self.sources.count_ua_strings(classes);
        let heatmap = self.domains.finalize(hosts, heatmap_buckets);
        CharacterizationReport {
            sources: self.sources,
            requests: self.requests,
            responses: self.responses,
            heatmap,
            availability: self.availability,
            mix: self.mix,
        }
    }
}

/// Every §4 breakdown of one trace, computed in a single pass or merged
/// from per-shard partials — identically either way.
#[derive(Clone, Debug)]
pub struct CharacterizationReport {
    /// Figure 3: JSON traffic by device type / browser share.
    pub sources: TrafficSourceBreakdown,
    /// GET/POST split.
    pub requests: RequestTypeBreakdown,
    /// Cacheability share and JSON-vs-HTML size quantiles.
    pub responses: ResponseTypeBreakdown,
    /// Figure 4: per-industry domain cacheability heatmap.
    pub heatmap: CacheabilityHeatmap,
    /// Availability under faults.
    pub availability: AvailabilityBreakdown,
    /// Figure 1: JSON/HTML request mix.
    pub mix: ContentMix,
}

impl CharacterizationReport {
    /// Single-pass characterization of a whole trace.
    pub fn compute(trace: &Trace, provider: &dyn CategoryProvider) -> Self {
        Self::single_pass(trace, provider, HEATMAP_BUCKETS)
    }

    /// [`compute`][Self::compute] with `heatmap_buckets` heatmap columns.
    pub(crate) fn single_pass(
        trace: &Trace,
        provider: &dyn CategoryProvider,
        heatmap_buckets: usize,
    ) -> Self {
        let classes = UaClassTable::build(trace.interner());
        let hosts = HostCategoryTable::build(trace.interner(), provider);
        let mut partial = PartialReport::default();
        partial.accumulate(&trace.stream(), &classes, &hosts);
        partial.finalize(&classes, &hosts, heatmap_buckets)
    }

    /// Characterizes a sharded trace: one partial per shard, accumulated
    /// on a `threads`-wide [`jcdn_exec::scatter_gather_labeled`] pool,
    /// merged in shard order, finalized once. `threads <= 1` runs
    /// sequentially.
    pub fn compute_sharded(
        sharded: &ShardedTrace,
        provider: &(dyn CategoryProvider + Sync),
        threads: usize,
    ) -> Self {
        Self::compute_shards(sharded, provider, |accumulate| {
            let shards = sharded.shard_count();
            jcdn_exec::scatter_gather_labeled("characterize.shards", shards, threads, accumulate)
                .into_iter()
                .map(Some)
                .collect()
        })
    }

    /// Like [`compute_sharded`][Self::compute_sharded] but panic-isolated:
    /// a shard whose accumulation panics (after the pool's one sequential
    /// retry) is dropped from the merge instead of aborting the process,
    /// and its index is reported in [`ExecHealth::quarantined`]. With no
    /// quarantined shards the report is bit-identical to
    /// `compute_sharded`'s; with some it is the exact report of the
    /// surviving shards — callers must surface the partial-result fact.
    pub fn compute_sharded_isolated(
        sharded: &ShardedTrace,
        provider: &(dyn CategoryProvider + Sync),
        threads: usize,
    ) -> (Self, ExecHealth) {
        let mut health = ExecHealth::default();
        let report = Self::compute_shards(sharded, provider, |accumulate| {
            let shards = sharded.shard_count();
            let gathered = jcdn_exec::scatter_gather_isolated(
                "characterize.shards",
                shards,
                threads,
                accumulate,
            );
            health = ExecHealth {
                task_panics: gathered.task_panics,
                quarantined: gathered.quarantined,
            };
            gathered.results
        });
        (report, health)
    }

    /// The sharded route: `gather` fans `accumulate` (one shard index to
    /// its [`PartialReport`]) out over the shards; the partials it returns
    /// merge in shard order, skipping `None` (quarantined) slots, and
    /// finalize once.
    fn compute_shards(
        sharded: &ShardedTrace,
        provider: &(dyn CategoryProvider + Sync),
        gather: impl FnOnce(&(dyn Fn(usize) -> PartialReport + Sync)) -> Vec<Option<PartialReport>>,
    ) -> Self {
        let classes = UaClassTable::build(sharded.interner());
        let hosts = HostCategoryTable::build(sharded.interner(), provider);
        let accumulate_span = jcdn_obs::span!("characterize.accumulate");
        let partials = gather(&|i| {
            let mut partial = PartialReport::default();
            partial.accumulate(&sharded.shard_stream(i), &classes, &hosts);
            partial
        });
        drop(accumulate_span);
        let _merge_span = jcdn_obs::span!("characterize.merge");
        let mut total = PartialReport::default();
        for partial in partials.iter().flatten() {
            total.merge(partial);
        }
        total.finalize(&classes, &hosts, HEATMAP_BUCKETS)
    }

    /// The JSON:HTML request-count ratio, when the trace has HTML traffic.
    pub fn json_html_ratio(&self) -> Option<f64> {
        self.mix.ratio()
    }
}

/// Worker-pool health from a panic-isolated characterization: how many
/// task panics were caught, and which shards (if any) contributed nothing
/// to the report because they failed both attempts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecHealth {
    /// Panics caught at the pool's unwind boundary (recovered or not).
    pub task_panics: u64,
    /// Shard indices excluded from the merged report.
    pub quarantined: Vec<usize>,
}

impl ExecHealth {
    /// Whether every shard contributed to the report.
    pub fn is_complete(&self) -> bool {
        self.quarantined.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::TokenCategoryProvider;
    use jcdn_workload::WorkloadConfig;

    fn sample_trace() -> Trace {
        let data = crate::dataset::simulate(&WorkloadConfig::tiny(7).scaled(0.3));
        data.trace
    }

    #[test]
    fn sharded_report_matches_single_pass_for_any_shard_and_thread_count() {
        let whole = sample_trace();
        let single = CharacterizationReport::compute(&whole, &TokenCategoryProvider);

        for shard_count in [1usize, 2, 8] {
            for threads in [1usize, 4] {
                let sharded = ShardedTrace::from_trace(sample_trace(), shard_count);
                let report = CharacterizationReport::compute_sharded(
                    &sharded,
                    &TokenCategoryProvider,
                    threads,
                );

                assert_eq!(report.sources, single.sources, "{shard_count}x{threads}");
                assert_eq!(report.requests, single.requests, "{shard_count}x{threads}");
                assert_eq!(report.heatmap, single.heatmap, "{shard_count}x{threads}");
                assert_eq!(
                    report.availability, single.availability,
                    "{shard_count}x{threads}"
                );
                assert_eq!(report.mix, single.mix, "{shard_count}x{threads}");
                assert_eq!(report.responses.json_total, single.responses.json_total);
                let mut merged = report.responses.clone();
                let mut pooled = single.responses.clone();
                for q in [0.25, 0.5, 0.75, 0.95] {
                    assert_eq!(
                        merged.json_sizes.quantile(q),
                        pooled.json_sizes.quantile(q),
                        "{shard_count}x{threads} q={q}"
                    );
                }
            }
        }
    }

    #[test]
    fn isolated_route_matches_plain_sharded_route() {
        // With no panics in play the isolated pool must be a drop-in:
        // same partials, same merge order, same report.
        let sharded = ShardedTrace::from_trace(sample_trace(), 4);
        let plain = CharacterizationReport::compute_sharded(&sharded, &TokenCategoryProvider, 2);
        let (isolated, health) =
            CharacterizationReport::compute_sharded_isolated(&sharded, &TokenCategoryProvider, 2);
        assert!(health.is_complete());
        assert_eq!(health.task_panics, 0);
        assert_eq!(isolated.sources, plain.sources);
        assert_eq!(isolated.requests, plain.requests);
        assert_eq!(isolated.heatmap, plain.heatmap);
        assert_eq!(isolated.availability, plain.availability);
        assert_eq!(isolated.mix, plain.mix);
    }

    #[test]
    fn empty_trace_reports_cleanly() {
        let report = CharacterizationReport::compute(&Trace::new(), &TokenCategoryProvider);
        assert_eq!(report.sources.total, 0);
        assert_eq!(report.requests.total(), 0);
        assert!(report.json_html_ratio().is_none());
        assert_eq!(report.availability.end_user_error_rate(), 0.0);
    }
}
