//! `jcdn characterize` — the §4 analyses over a trace file.
//!
//! Robustness contract: the read is tolerant (a damaged file analyzes
//! what survived), shard accumulation is panic-isolated (a shard whose
//! task panics twice is quarantined, not fatal), and `--resume` falls
//! back to the staged shards of an unfinished `generate` run when the
//! final file does not exist. Whenever any of that loses input, the
//! report is printed with an explicit footer and the command exits with
//! code 3 (completed with salvage) instead of 0.

use std::path::Path;

use jcdn_core::characterize::TokenCategoryProvider;
use jcdn_core::pipeline::{CharacterizationReport, ExecHealth};
use jcdn_core::report::{availability_section, pct, TextTable};
use jcdn_trace::codec::DecodeStats;
use jcdn_trace::Trace;
use jcdn_ua::DeviceType;
use jcdn_workload::IndustryCategory;

use crate::args::Args;
use crate::cache_args;
use crate::commands::{load_trace_tolerant, record_decode_stats, Outcome};
use crate::obs_args;

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut obs = obs_args::begin("characterize", args)?;
    let path = args.positional("trace path")?;
    let threads = args.count("threads")?;

    // The file's own shard frames are the default partitioning; --shards
    // re-partitions (e.g. a v1/v2 single-frame file analyzed on 8 threads).
    // The read is tolerant: a damaged file analyzes what survived, with
    // the loss counted and surfaced instead of silently aborting the run.
    let (mut trace, decode_stats, shards_missing) =
        read_input(path, args.switch("resume"), threads)?;
    let shards: usize = args.number("shards")?; // 0 = keep the file's framing
    if shards > 0 && shards != trace.shard_count() {
        trace = Trace::from_trace(trace, shards);
    }
    obs.manifest.param("trace", path);
    obs.manifest.param("shards", trace.shard_count());
    obs.manifest.param("threads", threads);
    obs.manifest.codec_version = jcdn_trace::codec::VERSION;
    record_decode_stats(&mut obs.manifest.metrics, &decode_stats);
    obs.manifest
        .metrics
        .inc("store.shards_missing", shards_missing);
    let (report, health) =
        CharacterizationReport::compute_isolated(&trace, &TokenCategoryProvider, threads);
    obs.manifest
        .metrics
        .inc("exec.task_panics", health.task_panics);
    obs.manifest
        .metrics
        .inc("exec.shards_quarantined", health.quarantined.len() as u64);

    let sources = &report.sources;
    let mut table = TextTable::new(&["Device", "Requests", "UA strings"]);
    for device in DeviceType::ALL {
        table.row(&[
            device.to_string(),
            pct(sources.request_share(device)),
            pct(sources.ua_share(device)),
        ]);
    }
    println!("traffic source (JSON requests):\n{}", table.render());
    println!("non-browser: {}\n", pct(sources.non_browser_share()));

    let requests = &report.requests;
    println!(
        "request type: GET {}   POST-of-rest {}",
        pct(requests.download_share()),
        pct(requests.upload_share_of_rest())
    );

    let mut responses = report.responses.clone();
    println!("uncacheable JSON: {}", pct(responses.uncacheable_share()));
    for q in [0.5, 0.75] {
        if let Some(gap) = responses.json_smaller_than_html_at(q) {
            println!(
                "JSON smaller than HTML at p{}: {}",
                (q * 100.0) as u32,
                pct(gap)
            );
        }
    }
    if let Some(ratio) = report.mix.ratio() {
        println!("JSON:HTML request ratio: {ratio:.2}x");
    }

    let heatmap = &report.heatmap;
    let mut table = TextTable::new(&["Industry", "Never", "Always", "Mean cacheable"]);
    for category in IndustryCategory::ALL {
        let Some(row) = heatmap.rows.get(&category) else {
            continue;
        };
        let total: u64 = row.iter().sum();
        table.row(&[
            category.label().to_string(),
            pct(row[0] as f64 / total.max(1) as f64),
            pct(row[9] as f64 / total.max(1) as f64),
            heatmap.row_mean(category).map(pct).unwrap_or_default(),
        ]);
    }
    println!("\ncacheability by industry:\n{}", table.render());
    println!(
        "domains never cacheable: {}   always: {}   uncategorized: {}",
        pct(heatmap.never_cacheable_share()),
        pct(heatmap.always_cacheable_share()),
        heatmap.uncategorized
    );

    // Windowed §4 series: per-window rates, mix, and top-URL churn over
    // the simulated timeline. Deterministic — the JSONL stream and the
    // ts.* counters are part of the manifest's counter section.
    if let Some(spec) = obs.window {
        let series = jcdn_core::series::SeriesReport::compute(&trace, threads, spec);
        obs.manifest.param("window", spec);
        obs.manifest
            .metrics
            .inc("ts.windows.section4", series.rows.len() as u64);
        println!(
            "\ntime series ({spec} windows): {} window(s)",
            series.rows.len()
        );
        if let Some(peak) = series.peak() {
            println!(
                "  peak window #{}: {} requests ({} req/s)",
                peak.window,
                peak.requests,
                peak.rate_per_sec()
            );
        }
        if let Some(churn) = series.mean_churn_pml() {
            println!("  mean top-URL churn: {}.{}%", churn / 10, churn % 10);
        }
        obs.push_series(&series.to_jsonl());
    }

    println!("\n{}", availability_section(&report.availability));
    // What-if cache replay: feed the recorded requests through a
    // hypothetical hierarchy and report where each one would have been
    // served. Extends the availability section with per-tier hit rates.
    if let Some(h) = cache_args::hierarchy(args)? {
        obs.manifest.param("cache", cache_args::describe(&h));
        println!("what-if cache hierarchy: {}", cache_args::describe(&h));
        print!("{}", replay_hierarchy(&trace, &h));
    }
    let salvage = print_salvage_footer(&decode_stats, shards_missing, &health);
    obs.finish()?;
    Ok(if salvage {
        Outcome::Salvaged
    } else {
        Outcome::Clean
    })
}

/// Replays the trace's cacheable requests through a hypothetical cache
/// hierarchy (a single logical edge in front of the shared tiers) and
/// renders where each request would have been served. The trace's shards
/// are contiguous time partitions, so reading them in order preserves
/// request order; the replay is fully deterministic (policy seeds are
/// fixed, no RNG streams are involved).
fn replay_hierarchy(trace: &Trace, h: &jcdn_cdnsim::CacheHierarchy) -> String {
    use jcdn_cdnsim::cache::PolicyCache;
    use jcdn_trace::{CacheStatus, SimDuration};

    // Recorded traces carry no TTLs, so entries live until evicted.
    let ttl = SimDuration::from_secs(u64::MAX / 4_000_000);
    let specs: Vec<&jcdn_cdnsim::TierSpec> = std::iter::once(&h.edge).chain(&h.shared).collect();
    let mut caches: Vec<PolicyCache> = specs
        .iter()
        .enumerate()
        .map(|(i, t)| PolicyCache::with_policy(t.capacity, t.policy, 0x007E_91A7 ^ i as u64))
        .collect();
    let levels = caches.len();
    let mut lookups = vec![0u64; levels];
    let mut hits = vec![0u64; levels];
    let mut origin = 0u64;
    let mut cacheable = 0u64;
    for record in trace.records() {
        if record.cache == CacheStatus::NotCacheable {
            continue;
        }
        cacheable += 1;
        let now = record.time;
        let object = record.url.0;
        let size = record.response_bytes.max(1);
        // Level `levels` is the origin.
        let served = (0..levels)
            .find(|&level| {
                lookups[level] += 1;
                let hit = caches[level].get(object, now);
                hits[level] += u64::from(hit);
                hit
            })
            .unwrap_or_else(|| {
                origin += 1;
                levels
            });
        for level in h.placement.fill(served) {
            caches[level].insert(object, size, ttl, now, false);
        }
    }

    let mut table = TextTable::new(&["Level", "Policy", "Lookups", "Hits", "Hit rate"]);
    for (level, (spec, cache)) in specs.iter().zip(&caches).enumerate() {
        let rate = match lookups[level] {
            0 => "-".to_string(),
            n => pct(hits[level] as f64 / n as f64),
        };
        table.row(&[
            spec.name.clone(),
            cache.policy_name().to_string(),
            lookups[level].to_string(),
            hits[level].to_string(),
            rate,
        ]);
    }
    let mut out = table.render();
    out.push_str(&format!(
        "origin fetches: {origin} of {cacheable} cacheable requests ({})\n",
        match cacheable {
            0 => "-".to_string(),
            n => pct(origin as f64 / n as f64),
        }
    ));
    out
}

/// Loads the input: the final trace file, or — with `--resume`, when the
/// final file is absent — whatever an unfinished `generate` run staged.
/// Returns the trace, the decode tallies, and the count of shard slots
/// with no usable data.
fn read_input(
    path: &str,
    resume: bool,
    threads: usize,
) -> Result<(Trace, DecodeStats, u64), String> {
    let p = Path::new(path);
    if resume && !p.exists() {
        let (trace, stats) = jcdn_trace::store::read_staged(p).map_err(|e| {
            format!("{path}: {e} (no final file, and the staging area is unusable)")
        })?;
        eprintln!(
            "resume: final file absent; analyzing {} of {} staged shard(s)",
            stats.shard_count as u64 - stats.shards_missing,
            stats.shard_count
        );
        return Ok((trace, stats.decode, stats.shards_missing));
    }
    let (trace, stats) = load_trace_tolerant(path, threads)?;
    Ok((trace, stats, 0))
}

/// Prints the explicit partial-result footer when anything was lost on
/// the way to the report; returns whether the run salvaged.
fn print_salvage_footer(decode: &DecodeStats, shards_missing: u64, health: &ExecHealth) -> bool {
    let dirty = !decode.is_clean() || shards_missing > 0 || !health.is_complete();
    if !decode.is_clean() {
        let offset = decode
            .first_error_offset
            .map(|o| format!("; first error at byte {o}"))
            .unwrap_or_default();
        println!(
            "\ndecode: dropped {} record(s) ({} CRC-failed frame(s), {} truncated \
             frame(s), {} header-damaged frame(s){offset}; {} decoded)",
            decode.records_dropped,
            decode.frames_crc_failed,
            decode.frames_truncated,
            decode.frames_header_damaged,
            decode.records_decoded
        );
    }
    if shards_missing > 0 {
        println!(
            "store: {shards_missing} staged shard(s) missing or damaged, analyzed without them"
        );
    }
    if !health.is_complete() {
        let list: Vec<String> = health.quarantined.iter().map(usize::to_string).collect();
        println!(
            "exec: quarantined shard(s) [{}] after {} caught panic(s); report excludes them",
            list.join(", "),
            health.task_panics
        );
    }
    if dirty {
        println!("partial result: the numbers above cover exactly the surviving input");
    }
    dirty
}
