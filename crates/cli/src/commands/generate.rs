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
use jcdn_trace::Trace;
use jcdn_workload::{build_parallel, WorkloadConfig};

use crate::args::{self, Args};
use crate::cache_args;
use crate::commands::Outcome;
use crate::fault_args;
use crate::obs_args;

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut obs = obs_args::begin("generate", args)?;
    let seed: u64 = args.number("seed")?;
    let scale: f64 = args.number("scale")?;
    if !(scale > 0.0 && scale.is_finite()) {
        return Err("--scale must be positive".into());
    }
    let preset = args.value("preset")?;
    let out = args.value("out")?;
    let shards = args.count("shards")?;
    let threads = args.count("threads")?;
    let edges = args.count("edges")?;
    let resume = args.switch("resume");

    // The digest ties staged shards to the parameters that produced them,
    // so a resume never splices shards from a different run. Everything
    // that changes the trace bytes is in; --threads and --out are not.
    let digest = params_digest(args, preset, seed, scale, edges, shards);
    // Opening only reads: the store touches `out` at its first write, so
    // a flag rejected below leaves an interrupted run as it was.
    let mut writer =
        StoreWriter::open(Path::new(out), shards, digest, resume, jcdn_chaos::handle());
    if writer.already_complete() {
        eprintln!("{out} is already complete for these parameters; nothing to do (--resume)");
        obs.manifest.param("out", out);
        obs.manifest.metrics.inc("store.resume_noop", 1);
        obs.finish()?;
        return Ok(Outcome::Clean);
    }

    let config = match preset {
        "short" => WorkloadConfig::short_term(seed),
        "long" => WorkloadConfig::long_term(seed),
        "tiny" => WorkloadConfig::tiny(seed),
        other => return Err(format!("unknown preset {other:?} (short|long|tiny)")),
    }
    .scaled(scale);
    // Every flag is checked before the workload is built; only the domain
    // names of fault windows wait for it.
    let faults = fault_args::faults(args, edges)?;
    let resilience = fault_args::resilience(args)?;
    let hierarchy = cache_args::hierarchy(args)?;

    eprintln!(
        "generating `{}` (~{} events, {} clients, {} domains)...",
        config.name, config.target_events, config.clients, config.domains
    );
    // Thread count never changes the output — generation and simulation
    // are shard-invariant by design.
    let workload = build_parallel(&config, threads);
    let sim = SimConfig {
        edges,
        fault: faults.resolve(&workload)?,
        resilience,
        hierarchy,
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
            jcdn_trace::fnv1a(format!("{:?}", sim.fault).as_bytes())
        ));
    }
    obs.manifest.metrics.merge(&data.metrics);
    let (records, urls, uas) = (
        data.trace.len(),
        data.trace.url_count(),
        data.trace.ua_count(),
    );
    let summary_row = data.summary().table_row();
    // One frame per shard. A single shard is the simulated trace as it
    // is — byte-identical to `codec::write_file` of the trace.
    let (trace, frames) = if shards > 1 {
        (
            Trace::from_trace(data.trace, shards),
            format!(" in {shards} shard frames"),
        )
    } else {
        (data.trace, String::new())
    };
    writer
        .write(&trace, threads)
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
/// version, preset, seed, scale, edges, shard count, and the fault,
/// resilience and cache flags as typed (a table default never enters it).
/// `--threads` and `--out` are deliberately excluded — neither changes the
/// output.
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
    // Every fault flag, then every cache flag: cache topology changes
    // latencies, statuses, and retries — i.e. the trace bytes — too.
    for &args::Flag(name, ..) in args::FAULTS.1.iter().chain(args::CACHE.1) {
        if let Some(value) = args.maybe(name) {
            spec.push_str(&format!(";{name}={value}"));
        }
    }
    jcdn_trace::fnv1a(spec.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &str) -> Args {
        let argv: Vec<String> = argv.split_whitespace().map(str::to_owned).collect();
        Args::parse(&argv, args::command("generate").unwrap()).unwrap()
    }

    /// `--resume` reuses a staging directory only when its digest matches,
    /// so the digest of a given flag set must never move.
    #[test]
    fn params_digest_is_pinned() {
        let every_fault_and_cache_flag = parse(
            "--outage news-3.example:60:120,1:0:30 --degrade 1:10:20:8.5 --flap 2:100:200 \
             --error-burst 0.001:0.3:0.02:0.2 --retries 5 --stale-grace 30 --negative-ttl 0 \
             --origin-timeout 1.5 --resilience off --cache-tier edge:4M,regional:16M,shield:64M \
             --cache-policy edge:lru,regional:tinylfu,shield:s3fifo --cache-placement copy-down \
             --cache-sync 0.5 --seed 7 --obs summary --threads 4",
        );
        let digest = params_digest(&every_fault_and_cache_flag, "tiny", 7, 0.25, 3, 8);
        assert_eq!(digest, 0x54ab_9ce1_35f7_2cf9);
        // None of them: a table default (`--resilience on`) must stay out.
        let none = parse("--seed 7 --threads 4");
        assert_eq!(
            params_digest(&none, "tiny", 42, 1.0, 3, 1),
            0xd2bd_7848_6ab2_519b
        );
    }
}
