//! Pins the exact output of the generate path — `build_parallel` →
//! `simulate_workload_parallel` → `ShardedTrace::from_trace` → codec v4 —
//! to fixed digests, at several thread counts.
//!
//! The shard-invariance suites compare thread counts with each other, so a
//! change that shifts the output the same way at every width (a reordered
//! RNG draw, a different tie-break in a merge) passes them. These digests
//! catch that: they were taken from the implementation this suite was
//! written against, and any change to the events, the object URLs, the
//! simulator's integer counters, its metrics snapshot, its windowed series
//! or the encoded shard bytes fails here.

use jcdn::cdnsim::{
    CacheHierarchy, FaultPlan, OriginDegradation, OriginOutage, Placement, PolicyKind,
    ResilienceConfig, SimConfig, SimDuration, SimStats, TierSpec, Window,
};
use jcdn::core::dataset::simulate_workload_parallel;
use jcdn::obs::timeseries::WindowSpec;
use jcdn::trace::codec::encode_sharded_parallel;
use jcdn::trace::ShardedTrace;
use jcdn::workload::{build_parallel, Workload, WorkloadConfig};

/// FNV-1a, 64-bit: a stable digest that does not depend on std's hasher.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Digests of one run: workload events and object URLs, the `SimStats`
/// integer counters, the sim metrics snapshot (with the windowed series
/// when the run has one), and the 8-shard v4 bytes.
#[derive(Debug, PartialEq, Eq)]
struct Digests {
    workload: u64,
    stats: u64,
    metrics: u64,
    v4: u64,
}

fn workload_digest(w: &Workload) -> u64 {
    let mut h = Fnv::new();
    h.u64(w.events.len() as u64);
    for e in &w.events {
        h.u64(e.time.as_micros());
        h.u64(u64::from(e.client));
        h.u64(u64::from(e.object));
        h.u64(e.method as u64);
    }
    h.u64(w.objects.len() as u64);
    for o in &w.objects {
        h.bytes(o.url.as_bytes());
        h.bytes(&[0]);
    }
    h.0
}

fn stats_digest(s: &SimStats) -> u64 {
    let mut h = Fnv::new();
    for v in [
        s.requests,
        s.hits,
        s.misses,
        s.not_cacheable,
        s.origin_fetches,
        s.prefetch_issued,
        s.prefetch_completed,
        s.prefetch_useful,
        s.bytes_cache,
        s.bytes_origin,
        s.json_requests,
        s.json_hits,
        s.json_misses,
        s.json_not_cacheable,
        s.latency_normal.count(),
        s.latency_depri.count(),
        s.retries_issued,
        s.end_user_failures,
        s.stale_serves,
        s.neg_cache_serves,
        s.coalesced_waits,
        s.origin_errors,
    ] {
        h.u64(v);
    }
    for tier in [&s.tier_hits, &s.tier_misses] {
        h.u64(tier.len() as u64);
        for &v in tier.iter() {
            h.u64(v);
        }
    }
    h.0
}

fn run(config: &WorkloadConfig, sim: &SimConfig, threads: usize) -> Digests {
    let workload = build_parallel(config, threads);
    let workload_digest = workload_digest(&workload);
    let data = simulate_workload_parallel(workload, sim, threads);
    // Retried attempts add records: the log must outnumber the events.
    assert!(data.stats.retries_issued > 0, "config exercises no retries");
    let mut metrics = Fnv::new();
    metrics.bytes(jcdn::json::to_string(&data.metrics.counters_json()).as_bytes());
    metrics.bytes(jcdn::json::to_string(&data.metrics.perf_json()).as_bytes());
    if let Some(series) = &data.series {
        metrics.bytes(series.to_jsonl("sim").as_bytes());
    }
    let stats = stats_digest(&data.stats);
    let sharded = ShardedTrace::from_trace(data.trace, 8);
    let encoded = encode_sharded_parallel(&sharded, threads).expect("own trace encodes");
    let mut v4 = Fnv::new();
    v4.bytes(&encoded);
    Digests {
        workload: workload_digest,
        stats,
        metrics: metrics.0,
        v4: v4.0,
    }
}

fn assert_pinned(config: WorkloadConfig, sim: &SimConfig, pinned: Digests) {
    for threads in [1, 2, 3] {
        assert_eq!(
            run(&config, sim, threads),
            pinned,
            "{} (seed {}) at {threads} thread(s)",
            config.name,
            config.seed
        );
    }
}

#[test]
fn tiny_output_is_pinned() {
    assert_pinned(
        WorkloadConfig::tiny(11),
        &SimConfig::default(),
        Digests {
            workload: 0x0a4d_9d8c_3dff_08bf,
            stats: 0x5a0a_d831_24e5_3733,
            metrics: 0xebd8_fd60_4716_899e,
            v4: 0x815d_73bc_743b_e1cf,
        },
    );
}

#[test]
fn short_term_output_is_pinned() {
    assert_pinned(
        WorkloadConfig::short_term(12).scaled(0.05),
        &SimConfig::default(),
        Digests {
            workload: 0x4d8b_38b9_66aa_1270,
            stats: 0x7e32_bc5f_0435_9b27,
            metrics: 0x3a90_5f70_e6f0_dedf,
            v4: 0x90dc_5d39_1569_7bc3,
        },
    );
}

#[test]
fn long_term_output_is_pinned() {
    assert_pinned(
        WorkloadConfig::long_term(13).scaled(0.05),
        &SimConfig::default(),
        Digests {
            workload: 0x343c_1c1e_05d7_1a42,
            stats: 0xafd4_e9fe_e068_a2ea,
            metrics: 0xf090_0fb9_a852_6759,
            v4: 0xd9df_70f0_82fb_bd7f,
        },
    );
}

/// A three-tier hierarchy (LRU edge, TinyLFU regional, S3-FIFO shield), an
/// origin outage and a degradation, serve-stale and negative caching, and a
/// 60 s window: the counters the default config leaves at zero.
fn tiered_faulted_windowed() -> SimConfig {
    let mut hierarchy = CacheHierarchy::single(4 << 20);
    hierarchy.shared = vec![
        TierSpec::lru("regional", 16 << 20).with_policy(PolicyKind::TinyLfu),
        TierSpec::lru("shield", 64 << 20).with_policy(PolicyKind::S3Fifo),
    ];
    SimConfig {
        hierarchy: Some(hierarchy),
        fault: FaultPlan {
            outages: vec![OriginOutage {
                domain: 0,
                window: Window::from_secs(60, 600),
            }],
            degradations: vec![OriginDegradation {
                domain: 1,
                window: Window::from_secs(30, 900),
                latency_factor: 50.0,
            }],
            ..FaultPlan::default()
        },
        resilience: ResilienceConfig {
            stale_grace: SimDuration::from_secs(300),
            negative_ttl: SimDuration::from_secs(30),
            ..ResilienceConfig::default()
        },
        window: WindowSpec::parse("60s").ok(),
        ..SimConfig::default()
    }
}

#[test]
fn tiered_faulted_windowed_output_is_pinned() {
    let config = WorkloadConfig::tiny(42).scaled(0.25);
    let sim = tiered_faulted_windowed();
    let data = simulate_workload_parallel(build_parallel(&config, 1), &sim, 1);
    assert!(
        data.stats.parent_hits() > 0,
        "config exercises no tier hits"
    );
    assert!(
        data.stats.stale_serves > 0,
        "config exercises no stale serves"
    );
    assert!(
        data.stats.neg_cache_serves > 0,
        "config exercises no negative-cache serves"
    );
    let windows = data.series.as_ref().map_or(0, |s| s.buckets().count());
    assert!(windows >= 2, "config spans {windows} window(s)");
    assert_pinned(
        config,
        &sim,
        Digests {
            workload: 0x59f0_87b4_87e4_9594,
            stats: 0x69cc_6b19_15e6_8aed,
            metrics: 0x7d06_ecb7_16c4_b6e0,
            v4: 0x2a8a_41f6_4dc3_9e02,
        },
    );
}

/// The same run under leave-copy-down: an origin fetch fills only the
/// shield, and each tier hit copies the object one level closer to the
/// client. The digests above pin only leave-copy-everywhere.
#[test]
fn tiered_faulted_windowed_copy_down_output_is_pinned() {
    let config = WorkloadConfig::tiny(42).scaled(0.25);
    let mut sim = tiered_faulted_windowed();
    if let Some(hierarchy) = &mut sim.hierarchy {
        hierarchy.placement = Placement::CopyDown;
    }
    let data = simulate_workload_parallel(build_parallel(&config, 1), &sim, 1);
    assert!(
        data.stats.tier_hits.iter().all(|&hits| hits > 0),
        "config leaves a tier without hits: {:?}",
        data.stats.tier_hits
    );
    assert_pinned(
        config,
        &sim,
        Digests {
            workload: 0x59f0_87b4_87e4_9594,
            stats: 0xf7f8_cd5a_0ba5_7d73,
            metrics: 0x14f8_aa20_3d1b_458f,
            v4: 0xae18_3ea1_eaf8_fcfe,
        },
    );
}
