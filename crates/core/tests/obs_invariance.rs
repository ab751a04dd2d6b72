//! Observability counters are part of the determinism contract: the
//! simulator's per-edge counter snapshot must serialize byte-identically
//! for any shard/thread count (mirroring `shard_invariance.rs`), while
//! the perf side (gauges, histograms, pool reports) is explicitly allowed
//! to differ run to run.
//!
//! The CI matrix exercises specific shard counts by setting
//! `JCDN_TEST_SHARDS`; without it every test covers {1, 2, 8}.

use jcdn_cdnsim::{ErrorBursts, FaultPlan, SimConfig};
use jcdn_core::dataset::{simulate_workload_parallel, Dataset};
use jcdn_core::series::SeriesReport;
use jcdn_obs::timeseries::WindowSpec;
use jcdn_obs::RunManifest;
use jcdn_trace::{RecordStream, ShardedTrace};
use jcdn_workload::{build_parallel, WorkloadConfig};

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

/// 2% of origin attempts fail, each independently: exercises the retry
/// and origin-error counters too.
fn iid_errors() -> FaultPlan {
    FaultPlan {
        errors: Some(ErrorBursts {
            quiet_error_fraction: 0.02,
            burst_error_fraction: 0.02,
            enter_burst: 0.0,
            exit_burst: 1.0,
        }),
        ..FaultPlan::default()
    }
}

fn generate(seed: u64, threads: usize) -> Dataset {
    let config = WorkloadConfig::tiny(seed).scaled(0.25);
    let workload = build_parallel(&config, threads);
    let sim = SimConfig {
        edges: 4,
        fault: iid_errors(),
        ..SimConfig::default()
    };
    simulate_workload_parallel(workload, &sim, threads)
}

fn window() -> WindowSpec {
    match WindowSpec::parse("1m") {
        Ok(spec) => spec,
        Err(e) => unreachable!("static spec: {e}"),
    }
}

/// `generate` with per-window sim counters enabled.
fn generate_windowed(seed: u64, threads: usize) -> Dataset {
    let config = WorkloadConfig::tiny(seed).scaled(0.25);
    let workload = build_parallel(&config, threads);
    let sim = SimConfig {
        edges: 4,
        fault: iid_errors(),
        window: Some(window()),
        ..SimConfig::default()
    };
    simulate_workload_parallel(workload, &sim, threads)
}

#[test]
fn counter_section_is_byte_identical_across_thread_counts() {
    let baseline = generate(7, 1);
    let expected = jcdn_json::to_string(&baseline.metrics.counters_json());
    assert!(
        expected.contains("sim.requests{edge="),
        "baseline counters populated: {expected}"
    );
    for threads in shard_counts() {
        let data = generate(7, threads.max(1));
        assert_eq!(
            jcdn_json::to_string(&data.metrics.counters_json()),
            expected,
            "{threads} threads diverged"
        );
    }
}

#[test]
fn counter_section_is_byte_identical_across_same_seed_runs() {
    let a = generate(11, 2);
    let b = generate(11, 2);
    assert_eq!(a.metrics.counters_json(), b.metrics.counters_json());
}

#[test]
fn windowed_sim_series_is_byte_identical_across_thread_counts() {
    let baseline = generate_windowed(7, 1);
    let expected = match &baseline.series {
        Some(series) => series.to_jsonl("sim"),
        None => unreachable!("window configured, series must be present"),
    };
    assert!(
        expected.contains("\"stream\":\"sim\"") && expected.contains("sim.requests{edge="),
        "baseline series populated: {expected}"
    );
    for threads in shard_counts() {
        let data = generate_windowed(7, threads.max(1));
        let rendered = match &data.series {
            Some(series) => series.to_jsonl("sim"),
            None => unreachable!("window configured, series must be present"),
        };
        assert_eq!(rendered, expected, "{threads} threads diverged");
    }
}

#[test]
fn windowed_section4_series_is_byte_identical_across_shard_and_thread_counts() {
    let trace = generate(7, 2).trace;
    let expected = SeriesReport::compute(&trace.stream(), 1, window()).to_jsonl();
    assert!(
        expected.contains("\"stream\":\"section4\""),
        "baseline rows populated"
    );
    // The same time-sorted records cut at uneven points, one slice empty.
    let records = trace.records();
    let (a, b) = (records.len() / 7, records.len() * 3 / 5);
    let uneven = RecordStream::new(
        trace.interner(),
        vec![&records[..a], &records[a..a], &records[a..b], &records[b..]],
    );
    for threads in [1usize, 4] {
        let rendered = SeriesReport::compute(&uneven, threads, window()).to_jsonl();
        assert_eq!(rendered, expected, "uneven slices x {threads} threads");
    }
    for shards in shard_counts() {
        for threads in [1usize, 4] {
            let sharded = ShardedTrace::from_trace(trace.clone(), shards.max(1));
            let rendered = SeriesReport::compute(&sharded.stream(), threads, window()).to_jsonl();
            assert_eq!(rendered, expected, "{shards} shards x {threads} threads");
        }
    }
}

#[test]
fn window_row_totals_match_run_totals() {
    // The windowed sim series partitions the run totals: summing every
    // bucket must reproduce the flat counter section exactly (modulo the
    // cache-occupancy keys, which are state gauges rather than windowed
    // events).
    let data = generate_windowed(11, 2);
    let Some(series) = &data.series else {
        unreachable!("window configured, series must be present");
    };
    let windowed = jcdn_json::to_string(&series.total().counters_json());
    let flat: String = jcdn_json::to_string(&data.metrics.counters_json())
        .split(',')
        .filter(|part| !part.contains("cache.evic"))
        .collect::<Vec<_>>()
        .join(",");
    assert_eq!(windowed, flat);
}

#[test]
fn manifests_with_identical_counters_may_differ_only_in_perf() {
    // Two manifests built from same-seed runs: counter sections equal
    // byte for byte even though the perf sections (wall time, pools)
    // legitimately differ.
    let mut first = RunManifest::start("test");
    first.metrics.merge(&generate(13, 4).metrics);
    first.finish();

    let mut second = RunManifest::start("test");
    second.metrics.merge(&generate(13, 1).metrics);
    second.finish();

    assert_eq!(first.counters_json(), second.counters_json());
    // The full JSON still embeds the identical counter section verbatim.
    assert_eq!(
        first.to_json().get("counters"),
        Some(&first.counters_json())
    );
    assert_eq!(
        second.to_json().get("counters"),
        Some(&first.counters_json())
    );
}

#[test]
fn section4_rows_are_pinned() {
    use jcdn_core::series::SeriesRow;
    let row = |window: u64, churn_pml: Option<u64>| SeriesRow {
        window,
        start_us: window * 60_000_000,
        end_us: (window + 1) * 60_000_000,
        requests: 12,
        errors: 2,
        retries: 1,
        failures: 1,
        bytes: 4_096,
        mime: [9, 0, 0, 1, 2, 0, 0],
        method: [10, 2, 0, 0, 0],
        top_urls: vec![
            ("https://news-0.example/api/v2/stories/0".to_string(), 7),
            ("https://x.example/q?a=\"1\"&b=\\".to_string(), 3),
        ],
        churn_pml,
    };
    let report = SeriesReport {
        spec: window(),
        rows: vec![row(0, None), row(1, Some(500))],
    };
    let line = |window: u64, churn: &str| {
        format!(
            concat!(
                r#"{{"stream":"section4","window":{},"start_us":{},"end_us":{},"#,
                r#""requests":12,"errors":2,"retries":1,"failures":1,"bytes":4096,"#,
                r#""mime":{{"json":9,"js":1,"image":2}},"method":{{"GET":10,"POST":2}},"#,
                r#""top_urls":[{{"url":"https://news-0.example/api/v2/stories/0","requests":7}},"#,
                r#"{{"url":"https://x.example/q?a=\"1\"&b=\\","requests":3}}],"#,
                r#""churn_pml":{}}}"#,
                "\n"
            ),
            window,
            window * 60_000_000,
            (window + 1) * 60_000_000,
            churn
        )
    };
    assert_eq!(report.to_jsonl(), line(0, "null") + &line(1, "500"));
}
