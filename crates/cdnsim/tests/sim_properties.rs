//! Property tests over the simulator: conservation laws that must hold for
//! any seed and any topology.

use jcdn_cdnsim::{
    run_default, CacheHierarchy, ErrorBursts, FaultPlan, OriginOutage, ResilienceConfig, SimConfig,
    SimDuration, Window,
};
use jcdn_trace::codec::encode;
use jcdn_trace::{CacheStatus, RecordFlags};
use jcdn_workload::{build, WorkloadConfig};
use proptest::prelude::*;

/// A plan that knocks out domain 0's origin for the whole run and makes
/// errors bursty — exercises every resilience path at once.
fn stress_plan() -> FaultPlan {
    FaultPlan {
        outages: vec![OriginOutage {
            domain: 0,
            window: Window::from_secs(0, 100_000),
        }],
        errors: Some(ErrorBursts {
            quiet_error_fraction: 0.002,
            burst_error_fraction: 0.25,
            enter_burst: 0.01,
            exit_burst: 0.2,
        }),
        ..FaultPlan::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn conservation_laws_hold(seed in any::<u64>(), edges in 1usize..6, parent in any::<bool>()) {
        let workload = build(&WorkloadConfig::tiny(seed).scaled(0.2));
        let config = SimConfig {
            edges,
            hierarchy: parent.then(|| CacheHierarchy::with_parent(SimConfig::default().cache_capacity, 1 << 28)),
            ..SimConfig::default()
        };
        let out = run_default(&workload, &config);
        let stats = &out.stats;

        // Every attempt becomes exactly one log record: the workload events
        // plus the retries that failed attempts re-queued.
        prop_assert_eq!(
            out.trace.len() as u64,
            workload.events.len() as u64 + stats.retries_issued
        );
        prop_assert_eq!(stats.requests, workload.events.len() as u64 + stats.retries_issued);
        prop_assert_eq!(stats.logical_requests() as usize, workload.events.len());

        // The three dispositions partition the requests.
        prop_assert_eq!(stats.hits + stats.misses + stats.not_cacheable, stats.requests);

        // JSON counters are consistent subsets.
        prop_assert!(stats.json_requests <= stats.requests);
        prop_assert_eq!(
            stats.json_hits + stats.json_misses + stats.json_not_cacheable,
            stats.json_requests
        );

        // Parent-tier counters only exist with a parent, and partition the
        // edge misses.
        if parent {
            prop_assert_eq!(stats.parent_hits() + stats.parent_misses(), stats.misses);
        } else {
            prop_assert_eq!(stats.parent_hits(), 0);
            prop_assert_eq!(stats.parent_misses(), 0);
        }

        // Latency summaries cover every request.
        prop_assert_eq!(
            stats.latency_normal.count() + stats.latency_depri.count(),
            stats.requests
        );

        // The trace's cache statuses tally with the stats.
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut nostore = 0u64;
        for r in out.trace.records() {
            match r.cache {
                CacheStatus::Hit => hits += 1,
                CacheStatus::Miss => misses += 1,
                CacheStatus::NotCacheable => nostore += 1,
            }
        }
        prop_assert_eq!(hits, stats.hits);
        prop_assert_eq!(misses, stats.misses);
        prop_assert_eq!(nostore, stats.not_cacheable);
    }

    #[test]
    fn edge_count_never_loses_requests(seed in any::<u64>()) {
        let workload = build(&WorkloadConfig::tiny(seed).scaled(0.1));
        for edges in [1usize, 3, 7] {
            let out = run_default(
                &workload,
                &SimConfig {
                    edges,
                    ..SimConfig::default()
                },
            );
            prop_assert_eq!(out.stats.logical_requests() as usize, workload.events.len());
        }
    }

    #[test]
    fn retry_counts_never_exceed_the_budget(seed in any::<u64>(), budget in 0u8..4) {
        let workload = build(&WorkloadConfig::tiny(seed).scaled(0.2));
        let config = SimConfig {
            fault: stress_plan(),
            resilience: ResilienceConfig {
                retry_budget: budget,
                ..ResilienceConfig::default()
            },
            ..SimConfig::default()
        };
        let out = run_default(&workload, &config);
        for r in out.trace.records() {
            prop_assert!(r.retries <= budget, "record retries {} > budget {budget}", r.retries);
            // Any non-final attempt carries the RETRIED marker and failed.
            if r.flags.contains(RecordFlags::RETRIED) {
                prop_assert!(r.status >= 500);
            }
        }
        let max_seen = out.trace.records().iter().map(|r| r.retries).max().unwrap_or(0);
        prop_assert!(u64::from(max_seen) <= out.stats.retries_issued);
    }

    #[test]
    fn identical_seed_and_fault_plan_give_byte_identical_traces(seed in any::<u64>()) {
        let workload = build(&WorkloadConfig::tiny(seed).scaled(0.2));
        let config = SimConfig {
            fault: stress_plan(),
            ..SimConfig::default()
        };
        let a = run_default(&workload, &config);
        let b = run_default(&workload, &config);
        prop_assert_eq!(encode(&a.trace), encode(&b.trace));
        prop_assert_eq!(a.stats.requests, b.stats.requests);
        prop_assert_eq!(a.stats.end_user_failures, b.stats.end_user_failures);
        prop_assert_eq!(a.stats.stale_serves, b.stats.stale_serves);
    }

    #[test]
    fn serve_stale_requires_a_grace_window(seed in any::<u64>()) {
        let workload = build(&WorkloadConfig::tiny(seed).scaled(0.2));
        // Zero grace: stale rescue is impossible, no record may carry the flag.
        let no_grace = run_default(
            &workload,
            &SimConfig {
                fault: stress_plan(),
                resilience: ResilienceConfig {
                    stale_grace: SimDuration::ZERO,
                    ..ResilienceConfig::default()
                },
                ..SimConfig::default()
            },
        );
        prop_assert_eq!(no_grace.stats.stale_serves, 0);
        for r in no_grace.trace.records() {
            prop_assert!(!r.flags.contains(RecordFlags::SERVED_STALE));
        }

        // With a grace window, every stale serve is a 200 logged as a hit.
        let graced = run_default(
            &workload,
            &SimConfig {
                fault: stress_plan(),
                ..SimConfig::default()
            },
        );
        let mut stale_records = 0u64;
        for r in graced.trace.records() {
            if r.flags.contains(RecordFlags::SERVED_STALE) {
                stale_records += 1;
                prop_assert_eq!(r.status, 200);
                prop_assert_eq!(r.cache, CacheStatus::Hit);
            }
        }
        prop_assert_eq!(stale_records, graced.stats.stale_serves);
    }
}
