//! The characterization pipeline: scatter per-slice accumulation over
//! a worker pool, gather, and merge into one exact report.
//!
//! [`CharacterizationReport`] bundles every §4 breakdown.
//! [`CharacterizationReport::compute`] reads a [`RecordStream`]: one
//! partial per slice, accumulated on a
//! [`jcdn_exec::scatter_gather_labeled`] pool and merged in slice order.
//! `trace.stream()` is one slice, `sharded.stream()` one per shard.
//! [`compute_isolated`](CharacterizationReport::compute_isolated) is the
//! same route with panicking slices quarantined.
//!
//! Both routes first build the report's shared tables once: the
//! [`UaClassTable`] and the [`HostCategoryTable`]. Each
//! partial then comes from one pass over its records that tallies per UA
//! and per host in plain arrays. Because every accumulator merge is exact
//! (integer counts, pooled order statistics, per-domain counts bucketed
//! only at finalize), both routes yield identical reports for the same
//! records — for any slicing and thread count. The `shard_invariance` and
//! `characterize_reference` integration tests hold the pipeline to that.

use jcdn_trace::{MimeType, RecordFlags, RecordStream, ShardedTrace};

use crate::characterize::{
    AvailabilityBreakdown, CacheabilityHeatmap, CategoryProvider, ContentMix, DomainCacheability,
    HostCategoryTable, RequestTypeBreakdown, ResponseTypeBreakdown, TrafficSourceBreakdown,
    UaClassTable,
};
use crate::taxonomy::RequestType;

/// Partial characterization state for one record subset. Merge partials
/// with `merge`, then `finalize` into a
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
    pub(crate) fn accumulate(
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
    pub(crate) fn merge(&mut self, other: &PartialReport) {
        self.sources.merge(&other.sources);
        self.requests.merge(&other.requests);
        self.responses.merge(&other.responses);
        self.domains.merge(&other.domains);
        self.availability.merge(&other.availability);
        self.mix.merge(&other.mix);
    }

    /// Runs the once-per-report steps (distinct-UA counts from the shared
    /// table, heatmap bucketing) and produces the final report.
    pub(crate) fn finalize(
        mut self,
        classes: &UaClassTable,
        hosts: &HostCategoryTable<'_>,
    ) -> CharacterizationReport {
        self.sources.count_ua_strings(classes);
        let heatmap = self.domains.finalize(hosts);
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

/// Every §4 breakdown of one record stream, merged from per-slice
/// partials — identically for any slicing.
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
    /// Characterizes a record stream: one partial per slice, accumulated
    /// on a `threads`-wide [`jcdn_exec::scatter_gather_labeled`] pool,
    /// merged in slice order, finalized once. `threads <= 1` runs
    /// sequentially.
    pub fn compute(
        records: &RecordStream<'_>,
        provider: &(dyn CategoryProvider + Sync),
        threads: usize,
    ) -> Self {
        Self::compute_slices(records, provider, |slices, accumulate| {
            jcdn_exec::scatter_gather_labeled("characterize.shards", slices, threads, accumulate)
                .into_iter()
                .map(Some)
                .collect()
        })
    }

    /// Like [`compute`][Self::compute] but panic-isolated: a slice whose
    /// accumulation panics (after the pool's one sequential retry) is
    /// dropped from the merge instead of aborting the process, and its
    /// index is reported in [`ExecHealth::quarantined`]. With no
    /// quarantined slices the report is bit-identical to `compute`'s; with
    /// some it is the exact report of the surviving slices — callers must
    /// surface the partial-result fact.
    pub fn compute_isolated(
        records: &RecordStream<'_>,
        provider: &(dyn CategoryProvider + Sync),
        threads: usize,
    ) -> (Self, ExecHealth) {
        let mut health = ExecHealth::default();
        let report = Self::compute_slices(records, provider, |slices, accumulate| {
            let gathered = jcdn_exec::scatter_gather_isolated(
                "characterize.shards",
                slices,
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

    /// [`compute`][Self::compute] over a sharded trace's stream. It exists
    /// because the repository benchmark (`perfbench`) calls it by this
    /// name.
    pub fn compute_sharded(
        sharded: &ShardedTrace,
        provider: &(dyn CategoryProvider + Sync),
        threads: usize,
    ) -> Self {
        Self::compute(&sharded.stream(), provider, threads)
    }

    /// The shared route: `gather` fans `accumulate` (one slice index to
    /// its [`PartialReport`]) out over the stream's slices; the partials
    /// it returns merge in slice order, skipping `None` (quarantined)
    /// slots, and finalize once.
    fn compute_slices(
        records: &RecordStream<'_>,
        provider: &(dyn CategoryProvider + Sync),
        gather: impl FnOnce(
            usize,
            &(dyn Fn(usize) -> PartialReport + Sync),
        ) -> Vec<Option<PartialReport>>,
    ) -> Self {
        let classes = UaClassTable::build(records.interner());
        let hosts = HostCategoryTable::build(records.interner(), provider);
        let slices = records.slices();
        let accumulate_span = jcdn_obs::span!("characterize.accumulate");
        let partials = gather(slices.len(), &|i| {
            let mut partial = PartialReport::default();
            partial.accumulate(&slices[i], &classes, &hosts);
            partial
        });
        drop(accumulate_span);
        let _merge_span = jcdn_obs::span!("characterize.merge");
        let mut total = PartialReport::default();
        for partial in partials.iter().flatten() {
            total.merge(partial);
        }
        total.finalize(&classes, &hosts)
    }
}

/// Worker-pool health from a panic-isolated characterization: how many
/// task panics were caught, and which slices (if any) contributed nothing
/// to the report because they failed both attempts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecHealth {
    /// Panics caught at the pool's unwind boundary (recovered or not).
    pub task_panics: u64,
    /// Slice indices (shard indices, for a sharded trace's stream)
    /// excluded from the merged report.
    pub quarantined: Vec<usize>,
}

impl ExecHealth {
    /// Whether every slice contributed to the report.
    pub fn is_complete(&self) -> bool {
        self.quarantined.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::TokenCategoryProvider;
    use jcdn_trace::Trace;
    use jcdn_workload::WorkloadConfig;

    fn sample_trace() -> Trace {
        let data = crate::dataset::simulate(&WorkloadConfig::tiny(7).scaled(0.3));
        data.trace
    }

    #[test]
    fn sharded_report_matches_one_slice_for_any_shard_and_thread_count() {
        let whole = sample_trace();
        let single = CharacterizationReport::compute(&whole.stream(), &TokenCategoryProvider, 1);

        for shard_count in [1usize, 2, 8] {
            for threads in [1usize, 4] {
                let sharded = ShardedTrace::from_trace(sample_trace(), shard_count);
                let report = CharacterizationReport::compute(
                    &sharded.stream(),
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
        let plain = CharacterizationReport::compute(&sharded.stream(), &TokenCategoryProvider, 2);
        let (isolated, health) =
            CharacterizationReport::compute_isolated(&sharded.stream(), &TokenCategoryProvider, 2);
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
        let report =
            CharacterizationReport::compute(&Trace::new().stream(), &TokenCategoryProvider, 1);
        assert_eq!(report.sources.total, 0);
        assert_eq!(report.requests.total(), 0);
        assert!(report.mix.ratio().is_none());
        assert_eq!(report.availability.end_user_error_rate(), 0.0);
    }
}
