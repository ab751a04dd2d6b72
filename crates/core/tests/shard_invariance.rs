//! End-to-end shard-invariance properties: the sharded pipeline (parallel
//! generate → shard-framed codec → scatter–gather characterize) produces
//! results identical to the single-shard, single-thread pipeline for any
//! shard count, thread count, and seed.
//!
//! The CI matrix exercises specific shard counts by setting
//! `JCDN_TEST_SHARDS`; without it every test covers {1, 2, 8}.

use jcdn_cdnsim::SimConfig;
use jcdn_core::characterize::TokenCategoryProvider;
use jcdn_core::dataset::{simulate_workload_parallel, Dataset};
use jcdn_core::pipeline::CharacterizationReport;
use jcdn_trace::codec::{decode, encode};
use jcdn_trace::{LogRecord, Trace};
use jcdn_workload::{build_parallel, WorkloadConfig};
use proptest::prelude::*;

/// Shard counts under test: `JCDN_TEST_SHARDS` (comma-separated) when the
/// CI matrix sets it, `{1, 2, 8}` otherwise.
fn shard_counts() -> Vec<usize> {
    match std::env::var("JCDN_TEST_SHARDS") {
        Ok(raw) => raw
            .split(',')
            .map(|part| part.trim().parse().expect("JCDN_TEST_SHARDS: bad count"))
            .collect(),
        Err(_) => vec![1, 2, 8],
    }
}

fn generate(seed: u64, threads: usize) -> Dataset {
    let config = WorkloadConfig::tiny(seed).scaled(0.25);
    let workload = build_parallel(&config, threads);
    let sim = SimConfig {
        edges: 4,
        ..SimConfig::default()
    };
    simulate_workload_parallel(workload, &sim, threads)
}

/// Every record of `data`'s trace, over all its shards, in order.
fn records(data: &Dataset) -> Vec<LogRecord> {
    data.trace.records().copied().collect()
}

/// Reference report: the simulated trace, one shard, one thread.
fn baseline_report(data: &Dataset) -> CharacterizationReport {
    CharacterizationReport::compute(&data.trace, &TokenCategoryProvider, 1)
}

fn assert_reports_equal(
    seed: u64,
    shards: usize,
    a: &CharacterizationReport,
    b: &CharacterizationReport,
) {
    let ctx = format!("seed {seed}, {shards} shards");
    assert_eq!(a.sources, b.sources, "traffic sources diverged ({ctx})");
    assert_eq!(a.requests, b.requests, "request types diverged ({ctx})");
    assert_eq!(a.heatmap, b.heatmap, "heatmap diverged ({ctx})");
    assert_eq!(
        a.availability, b.availability,
        "availability diverged ({ctx})"
    );
    assert_eq!(a.mix, b.mix, "content mix diverged ({ctx})");
    // Response sizes carry quantile pools; compare through the query API.
    let mut left = a.responses.clone();
    let mut right = b.responses.clone();
    assert_eq!(
        left.uncacheable_share(),
        right.uncacheable_share(),
        "uncacheable share diverged ({ctx})"
    );
    for q in [0.1, 0.5, 0.75, 0.99] {
        assert_eq!(
            left.json_smaller_than_html_at(q),
            right.json_smaller_than_html_at(q),
            "size quantile p{q} diverged ({ctx})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // The whole pipeline — generate in parallel, frame into shards,
    // round-trip through codec v3, characterize with a worker pool —
    // matches the sequential single-shard run for any seed.
    #[test]
    fn sharded_pipeline_matches_sequential(seed in 0u64..1000) {
        let baseline = generate(seed, 1);
        let expected = baseline_report(&baseline);

        for shards in shard_counts() {
            for threads in [1usize, 4] {
                let data = generate(seed, threads);
                prop_assert_eq!(
                    records(&data),
                    records(&baseline),
                    "trace diverged at seed {} with {} threads",
                    seed,
                    threads
                );
                let sharded = Trace::from_trace(data.trace, shards);
                let bytes = encode(&sharded, threads).expect("traces are canonical-sorted");
                let decoded = decode(&bytes, threads).expect("own encoding decodes");
                prop_assert_eq!(decoded.shard_count(), sharded.shard_count());
                let report =
                    CharacterizationReport::compute(&decoded, &TokenCategoryProvider, threads);
                assert_reports_equal(seed, shards, &report, &expected);
            }
        }
    }
}

/// The cache-hierarchy leg of the CI matrix: a 3-tier hierarchy (edge +
/// two shared tiers) with non-LRU policies must go through the lockstep
/// parallel driver — `run_sharded` no longer falls back to sequential
/// when shared tiers exist — and produce byte-identical records and
/// observability counters at every `JCDN_TEST_SHARDS` leg (the shard
/// counts double as simulator thread counts here).
#[test]
fn ci_matrix_hierarchy_agrees_with_sequential() {
    use jcdn_cdnsim::{CacheHierarchy, Placement, PolicyKind, TierSpec};

    let sim = SimConfig {
        edges: 4,
        hierarchy: Some(CacheHierarchy {
            edge: TierSpec::lru("edge", 16 << 20).with_policy(PolicyKind::TinyLfu),
            shared: vec![
                TierSpec::lru("regional", 64 << 20).with_policy(PolicyKind::S3Fifo),
                TierSpec::lru("shield", 256 << 20).with_policy(PolicyKind::Slru),
            ],
            placement: Placement::CopyDown,
            sync_interval: CacheHierarchy::DEFAULT_SYNC_INTERVAL,
        }),
        ..SimConfig::default()
    };
    let config = WorkloadConfig::tiny(7).scaled(0.25);
    let workload = build_parallel(&config, 2);
    let baseline = simulate_workload_parallel(workload.clone(), &sim, 1);
    assert!(
        !baseline.stats.tier_hits.is_empty(),
        "hierarchy runs must produce per-tier counters"
    );
    for threads in shard_counts() {
        let data = simulate_workload_parallel(workload.clone(), &sim, threads);
        assert_eq!(
            records(&data),
            records(&baseline),
            "hierarchy trace diverged at {threads} thread(s)"
        );
        assert_eq!(
            data.stats.tier_hits, baseline.stats.tier_hits,
            "tier hits diverged at {threads} thread(s)"
        );
        assert_eq!(
            data.stats.tier_misses, baseline.stats.tier_misses,
            "tier misses diverged at {threads} thread(s)"
        );
        assert_eq!(
            data.metrics.counters_json(),
            baseline.metrics.counters_json(),
            "obs counters diverged at {threads} thread(s)"
        );
    }
}

/// Fixed-seed variant so the CI matrix (JCDN_TEST_SHARDS=1 vs 8) gets a
/// deterministic, directly comparable run in both legs.
#[test]
fn ci_matrix_shard_counts_agree_with_baseline() {
    let data = generate(99, 2);
    let expected = baseline_report(&data);
    for shards in shard_counts() {
        let sharded = Trace::from_trace(data.trace.clone(), shards);
        let report = CharacterizationReport::compute(&sharded, &TokenCategoryProvider, 2);
        assert_reports_equal(99, shards, &report, &expected);
    }
}
