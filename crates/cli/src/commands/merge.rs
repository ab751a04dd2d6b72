//! `jcdn merge` — combine several trace files into one.

use std::path::Path;

use jcdn_trace::codec::{self, DecodeStats};

use crate::args::Args;
use crate::commands::{load_trace_tolerant, record_decode_stats, Outcome};
use crate::obs_args;

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut obs = obs_args::begin("merge", args)?;
    let out = args.value("out")?;
    let threads = args.count("threads")?;
    let inputs = args.positionals();
    if inputs.len() < 2 {
        return Err("merge needs at least two input traces".into());
    }
    // Inputs load tolerantly: one damaged file costs its corrupt records,
    // not the whole merge — with the loss counted and reported below.
    // Stats are kept per input because `first_error_offset` is an offset
    // into that input's buffer; a minimum across files is meaningless.
    let mut decode_stats = DecodeStats::default();
    let mut damaged: Vec<(&str, DecodeStats)> = Vec::new();
    let mut merged = jcdn_trace::Trace::new();
    for path in inputs {
        let (next, stats) = load_trace_tolerant(path, threads)?;
        decode_stats.merge(&stats);
        if !stats.is_clean() {
            damaged.push((path, stats));
        }
        merged.merge(&next.into_trace());
    }
    merged.sort_canonical();
    codec::write_file(&merged.stream(), Path::new(out)).map_err(|e| format!("{out}: {e}"))?;
    eprintln!(
        "merged {} traces into {out} ({} records, {} URLs)",
        inputs.len(),
        merged.len(),
        merged.url_count()
    );
    if !decode_stats.is_clean() {
        eprintln!(
            "decode: dropped {} record(s) ({} CRC-failed, {} truncated, {} header-damaged \
             frame(s)) across the inputs ({} decoded)",
            decode_stats.records_dropped,
            decode_stats.frames_crc_failed,
            decode_stats.frames_truncated,
            decode_stats.frames_header_damaged,
            decode_stats.records_decoded
        );
        for (path, stats) in &damaged {
            match stats.first_error_offset {
                Some(at) => eprintln!(
                    "decode: {path}: first error at byte {at}, {} record(s) dropped",
                    stats.records_dropped
                ),
                None => eprintln!(
                    "decode: {path}: {} record(s) dropped",
                    stats.records_dropped
                ),
            }
        }
    }
    obs.manifest.param("out", out);
    obs.manifest.param("inputs", inputs.len());
    obs.manifest.param("threads", threads);
    obs.manifest.codec_version = codec::VERSION;
    record_decode_stats(&mut obs.manifest.metrics, &decode_stats);
    obs.manifest
        .metrics
        .inc("merge.records", merged.len() as u64);
    obs.finish()?;
    Ok(if decode_stats.is_clean() {
        Outcome::Clean
    } else {
        Outcome::Salvaged
    })
}
