//! `jcdn generate` — build a workload, simulate the CDN, write the trace.
//!
//! The trace reaches disk through the crash-safe store
//! ([`jcdn_trace::store`]): each shard frame is committed durably to a
//! staging area with a shard index before the final file is assembled by
//! concatenation. `--resume` reuses whatever a killed run already
//! committed (verified against the index, and only when the generation
//! parameters match) and recomputes the rest — producing a final file
//! byte-identical to an uninterrupted run's.

use std::path::Path;

use jcdn_cdnsim::SimConfig;
use jcdn_core::dataset::simulate_workload_parallel;
use jcdn_trace::store::StoreWriter;
use jcdn_trace::ShardedTrace;
use jcdn_workload::{build_parallel, WorkloadConfig};

use crate::args::Args;
use crate::cache_args;
use crate::commands::Outcome;
use crate::fault_args;
use crate::obs_args;

pub fn run(argv: &[String]) -> Result<Outcome, String> {
    let mut allowed = vec![
        "preset", "seed", "scale", "out", "edges", "shards", "threads",
    ];
    allowed.extend_from_slice(fault_args::FAULT_FLAGS);
    allowed.extend_from_slice(cache_args::CACHE_FLAGS);
    allowed.extend_from_slice(obs_args::OBS_FLAGS);
    let args = Args::parse_with_switches(argv, &allowed, &["resume"])?;
    let mut obs = obs_args::begin("generate", &args)?;
    let seed: u64 = args.number("seed", 42)?;
    let scale: f64 = args.number("scale", 1.0)?;
    if !(scale > 0.0 && scale.is_finite()) {
        return Err("--scale must be positive".into());
    }
    let preset = args.get_or("preset", "tiny");
    let out = args.require("out")?;
    let shards: usize = args.number("shards", 1usize)?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let threads = crate::commands::parse_threads(&args)?;
    let edges: usize = args.number("edges", 3usize)?;
    if edges == 0 {
        return Err("--edges must be at least 1".into());
    }
    let resume = args.switch("resume");

    // The digest ties staged shards to the parameters that produced them,
    // so a resume never splices shards from a different run. Everything
    // that changes the trace bytes is in; --threads and --out are not.
    let digest = params_digest(&args, preset, seed, scale, edges, shards);
    let writer = StoreWriter::open(Path::new(out), shards, digest, resume, jcdn_chaos::handle())
        .map_err(|e| format!("{out}: {e}"))?;
    if writer.already_complete() {
        eprintln!("{out} is already complete for these parameters; nothing to do (--resume)");
        obs.manifest.param("out", out);
        obs.manifest.metrics.inc("store.resume_noop", 1);
        obs.finish()?;
        return Ok(Outcome::Clean);
    }
    let mut writer = writer;

    let config = match preset {
        "short" => WorkloadConfig::short_term(seed),
        "long" => WorkloadConfig::long_term(seed),
        "tiny" => WorkloadConfig::tiny(seed),
        other => return Err(format!("unknown preset {other:?} (short|long|tiny)")),
    }
    .scaled(scale);

    eprintln!(
        "generating `{}` (~{} events, {} clients, {} domains)...",
        config.name, config.target_events, config.clients, config.domains
    );
    // Fault windows may name domains, so the workload is built before the
    // simulator configuration is finalized. Thread count never changes the
    // output — generation and simulation are shard-invariant by design.
    let workload = build_parallel(&config, threads);
    let sim = SimConfig {
        edges,
        fault: fault_args::fault_plan(&args, &workload)?,
        resilience: fault_args::resilience(&args)?,
        hierarchy: cache_args::hierarchy(&args)?,
        window: obs.window,
        ..SimConfig::default()
    };

    // The workload's own event series (scheduled arrivals per window) is
    // captured before the workload moves into the simulator.
    let workload_series = obs.window.map(|spec| workload.event_series(spec));
    let data = simulate_workload_parallel(workload, &sim, threads);
    // Series streams in fixed order (workload, then sim) so the JSONL
    // file is deterministic. Window counts are deterministic counters.
    if let Some(series) = &workload_series {
        obs.manifest
            .metrics
            .inc("ts.windows.workload", series.rows().len() as u64);
        obs.push_series(&series.to_jsonl("workload"));
    }
    if let Some(series) = &data.series {
        obs.manifest
            .metrics
            .inc("ts.windows.sim", series.rows().len() as u64);
        obs.push_series(&series.to_jsonl("sim"));
    }
    if let Some(spec) = &obs.window {
        obs.manifest.param("window", spec);
    }
    // Reproduction parameters + the simulator's deterministic counters.
    obs.manifest.param("preset", preset);
    obs.manifest.param("seed", seed);
    obs.manifest.param("scale", scale);
    obs.manifest.param("edges", edges);
    obs.manifest.param("shards", shards);
    obs.manifest.param("threads", threads);
    obs.manifest.param("out", out);
    if let Some(h) = &sim.hierarchy {
        obs.manifest.param("cache", cache_args::describe(h));
    }
    obs.manifest.codec_version = jcdn_trace::codec::VERSION;
    if !sim.fault.is_empty() {
        obs.manifest.fault_digest = Some(format!(
            "{:016x}",
            jcdn_obs::manifest::fnv1a64(format!("{:?}", sim.fault).as_bytes())
        ));
    }
    obs.manifest.metrics.merge(&data.metrics);
    let (records, urls, uas) = (
        data.trace.len(),
        data.trace.url_count(),
        data.trace.ua_count(),
    );
    let summary_row = data.summary().table_row();
    // One frame per shard. A single shard is the trace's own record order,
    // borrowed — byte-identical to `codec::write_file` of the trace.
    let sharded;
    let (stream, frames) = if shards > 1 {
        sharded = ShardedTrace::from_trace(data.trace, shards);
        (sharded.stream(), format!(" in {shards} shard frames"))
    } else {
        (data.trace.stream(), String::new())
    };
    writer
        .write(&stream, threads)
        .map_err(|e| format!("{out}: {e}"))?;
    eprintln!("wrote {records} records{frames} ({urls} distinct URLs, {uas} UAs) to {out}");
    obs.manifest
        .metrics
        .inc("store.shards_reused", writer.shards_reused());
    if writer.shards_reused() > 0 {
        eprintln!(
            "resume: reused {} committed shard(s) from the interrupted run",
            writer.shards_reused()
        );
    }
    writer.finalize().map_err(|e| format!("{out}: {e}"))?;
    if !sim.fault.is_empty() {
        eprintln!(
            "faults: {} end-user failures ({} origin errors, {} retries, \
             {} stale serves)",
            data.stats.end_user_failures,
            data.stats.origin_errors,
            data.stats.retries_issued,
            data.stats.stale_serves
        );
    }
    if let Some(h) = &sim.hierarchy {
        eprintln!("cache: {}", cache_args::describe(h));
        if let Some(tiers) = jcdn_core::report::tier_section(&data.stats) {
            eprint!("{tiers}");
        }
    }
    println!("{summary_row}");
    obs.finish()?;
    Ok(Outcome::Clean)
}

/// FNV-1a digest over everything that determines the trace bytes: codec
/// version, preset, seed, scale, edges, shard count, and any fault or
/// resilience flags. `--threads` and `--out` are deliberately excluded —
/// neither changes the output.
fn params_digest(
    args: &Args,
    preset: &str,
    seed: u64,
    scale: f64,
    edges: usize,
    shards: usize,
) -> u64 {
    let mut spec = format!(
        "v{};preset={preset};seed={seed};scale={scale};edges={edges};shards={shards}",
        jcdn_trace::codec::VERSION
    );
    for &flag in fault_args::FAULT_FLAGS {
        if let Some(value) = args.maybe(flag) {
            spec.push_str(&format!(";{flag}={value}"));
        }
    }
    // Cache topology changes latencies, statuses, and retries — i.e. the
    // trace bytes — so it is part of the digest too.
    for &flag in cache_args::CACHE_FLAGS {
        if let Some(value) = args.maybe(flag) {
            spec.push_str(&format!(";{flag}={value}"));
        }
    }
    jcdn_trace::fnv1a(spec.as_bytes())
}
