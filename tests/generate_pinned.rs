//! Pins the exact output of the generate path — `build_parallel` →
//! `simulate_workload_parallel` → `ShardedTrace::from_trace` → codec v4 —
//! to fixed digests, at several thread counts.
//!
//! The shard-invariance suites compare thread counts with each other, so a
//! change that shifts the output the same way at every width (a reordered
//! RNG draw, a different tie-break in a merge) passes them. These digests
//! catch that: they were taken from the implementation this suite was
//! written against, and any change to the events, the object URLs, the
//! simulator's integer counters, its metrics snapshot or the encoded shard
//! bytes fails here.

use jcdn::cdnsim::{SimConfig, SimStats};
use jcdn::core::dataset::simulate_workload_parallel;
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
/// integer counters, the sim metrics snapshot, and the 8-shard v4 bytes.
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

fn run(config: &WorkloadConfig, threads: usize) -> Digests {
    let workload = build_parallel(config, threads);
    let workload_digest = workload_digest(&workload);
    let data = simulate_workload_parallel(workload, &SimConfig::default(), threads);
    // Retried attempts add records: the log must outnumber the events.
    assert!(data.stats.retries_issued > 0, "config exercises no retries");
    let mut metrics = Fnv::new();
    metrics.bytes(data.metrics.counters_json().as_bytes());
    metrics.bytes(data.metrics.perf_json().as_bytes());
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

fn assert_pinned(config: WorkloadConfig, pinned: Digests) {
    for threads in [1, 2, 3] {
        assert_eq!(
            run(&config, threads),
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
        Digests {
            workload: 0x343c_1c1e_05d7_1a42,
            stats: 0xafd4_e9fe_e068_a2ea,
            metrics: 0xf090_0fb9_a852_6759,
            v4: 0xd9df_70f0_82fb_bd7f,
        },
    );
}
