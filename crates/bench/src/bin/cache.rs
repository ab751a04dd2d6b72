//! Emits `BENCH_cache.json`: per-eviction-policy get/insert throughput
//! and hit rate on a deterministic Zipf trace.
//!
//! ```sh
//! cargo run --release -p jcdn-bench --bin cache                 # 2M ops
//! cargo run --release -p jcdn-bench --bin cache -- --ops 100000 # quick look
//! cargo run --release -p jcdn-bench --bin cache -- --out BENCH_cache.json
//! ```
//!
//! Every policy sees the *same* access sequence (seeded Zipf over a fixed
//! object universe, log-normal-ish mixed sizes), so hit rates are directly
//! comparable across policies and across runs. The committed artifact is
//! a reference shape, not a CI gate: ops/sec moves with hardware, hit
//! rates do not.

use std::process::ExitCode;

use jcdn_cdnsim::cache::PolicyCache;
use jcdn_cdnsim::PolicyKind;
use jcdn_obs::clock::Stopwatch;
use jcdn_obs::json::ObjectWriter;
use jcdn_obs::manifest::peak_rss_kb;
use jcdn_trace::{SimDuration, SimTime};

/// One pre-drawn access: object id, response size, arrival time.
struct Access {
    object: u32,
    size: u64,
    time: SimTime,
}

fn main() -> ExitCode {
    let mut ops = 2_000_000usize;
    let mut objects = 100_000usize;
    let mut alpha = 0.9f64;
    let mut seed = 2019u64;
    let mut capacity = 64u64 << 20;
    let mut out = String::from("BENCH_cache.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--ops" => ops = parse(&value("--ops"), "--ops"),
            "--objects" => objects = parse(&value("--objects"), "--objects"),
            "--alpha" => alpha = parse(&value("--alpha"), "--alpha"),
            "--seed" => seed = parse(&value("--seed"), "--seed"),
            "--capacity" => capacity = parse(&value("--capacity"), "--capacity"),
            "--out" => out = value("--out"),
            other => {
                eprintln!("unknown argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    if ops == 0 || objects == 0 || capacity == 0 {
        eprintln!("--ops, --objects and --capacity must be positive");
        return ExitCode::from(2);
    }

    eprintln!(
        "cache bench: {ops} ops over {objects} objects (Zipf {alpha}), \
         capacity {capacity} bytes"
    );
    let trace = zipf_trace(ops, objects, alpha, seed);
    let footprint: u64 = {
        // Distinct-object footprint, for the summary line.
        let mut sizes = vec![0u64; objects];
        for a in &trace {
            sizes[a.object as usize] = a.size;
        }
        sizes.iter().sum()
    };
    eprintln!(
        "trace footprint: {footprint} bytes across touched objects \
         ({:.1}x capacity)",
        footprint as f64 / capacity as f64
    );

    let ttl = SimDuration::from_secs(86_400);
    let mut body = String::new();
    let mut w = ObjectWriter::begin(&mut body);
    w.field_str("benchmark", "eviction-policy-cache");
    w.field_u64("ops", ops as u64);
    w.field_u64("objects", objects as u64);
    w.field_raw("zipf_alpha", &format!("{alpha}"));
    w.field_u64("seed", seed);
    w.field_u64("capacity_bytes", capacity);
    w.field_u64("footprint_bytes", footprint);
    for policy in PolicyKind::ALL {
        // The same fixed policy seed the simulator would derive for a
        // single shared tier; any constant works, it only has to be stable.
        let mut cache: PolicyCache<u32> = PolicyCache::with_policy(capacity, policy, 0xBE7C);
        let clock = Stopwatch::start();
        let mut hits = 0u64;
        let mut inserts = 0u64;
        for access in &trace {
            if cache.get(access.object, access.time) {
                hits += 1;
            } else {
                inserts += 1;
                cache.insert(access.object, access.size, ttl, access.time, false);
            }
        }
        let elapsed_us = clock.elapsed_us().max(1);
        let ops_per_sec = (ops as u64).saturating_mul(1_000_000) / elapsed_us;
        let mut sub = String::new();
        let mut pw = ObjectWriter::begin(&mut sub);
        pw.field_u64("elapsed_us", elapsed_us);
        pw.field_u64("ops_per_sec", ops_per_sec);
        pw.field_u64("hits", hits);
        pw.field_u64("inserts", inserts);
        pw.field_raw("hit_rate", &format!("{:.4}", hits as f64 / ops as f64));
        pw.field_u64("evictions", cache.stats().evictions);
        pw.field_u64("resident_objects", cache.len() as u64);
        pw.end();
        w.field_raw(policy.label(), &sub);
        eprintln!(
            "  {:<8} {:>9} ops/s  hit rate {:.1}%  ({} evictions)",
            policy.label(),
            ops_per_sec,
            100.0 * hits as f64 / ops as f64,
            cache.stats().evictions
        );
    }
    match peak_rss_kb() {
        Some(kb) => w.field_u64("peak_rss_kb", kb),
        None => w.field_raw("peak_rss_kb", "null"),
    }
    w.end();

    if let Err(e) = std::fs::write(&out, &body) {
        eprintln!("{out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out}");
    ExitCode::SUCCESS
}

/// Draws the shared access sequence: Zipf(`alpha`) object popularity over
/// a fixed universe, a per-object size from a skewed three-bucket mix
/// (many small JSON-ish bodies, some mid-size pages, a few large blobs),
/// and microsecond-spaced arrival times. SplitMix64 throughout — the
/// sequence depends only on the arguments.
fn zipf_trace(ops: usize, objects: usize, alpha: f64, seed: u64) -> Vec<Access> {
    let mut cum = Vec::with_capacity(objects);
    let mut total = 0.0f64;
    for i in 0..objects {
        total += 1.0 / ((i + 1) as f64).powf(alpha);
        cum.push(total);
    }
    for c in &mut cum {
        *c /= total;
    }
    // Object ids are shuffled so popularity rank is decoupled from id
    // order (S3-FIFO and TinyLFU hash ids; adjacency would be unrealistic).
    let mut ids: Vec<u32> = (0..objects as u32).collect();
    let mut state = seed ^ 0x5EED_CAC4;
    for i in (1..ids.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        ids.swap(i, j);
    }
    let size_of = |id: u32| {
        let h = hash64(u64::from(id) ^ seed);
        match h % 100 {
            0..=69 => 500 + h % 3_500,     // ~70%: small JSON-ish
            70..=94 => 8_000 + h % 56_000, // ~25%: pages/scripts
            _ => 400_000 + h % 1_600_000,  // ~5%: large blobs
        }
    };
    (0..ops)
        .map(|i| {
            let u = to_f64(splitmix(&mut state));
            let rank = cum.partition_point(|&c| c < u).min(objects - 1);
            let object = ids[rank];
            Access {
                object,
                size: size_of(object),
                time: SimTime::from_micros(i as u64 * 50),
            }
        })
        .collect()
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    hash64(*state)
}

fn hash64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn to_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

fn parse<T: std::str::FromStr>(raw: &str, what: &str) -> T {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{what}: cannot parse {raw:?}");
        std::process::exit(2)
    })
}
