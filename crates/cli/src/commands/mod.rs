//! The subcommand implementations.

pub mod characterize;
pub mod export;
pub mod generate;
pub mod inspect;
pub mod merge;
pub mod obs;
pub mod periodicity;
pub mod predict;
pub mod trend;

use jcdn_obs::MetricsSnapshot;
use jcdn_trace::codec::{self, DecodeStats};
use jcdn_trace::Trace;

/// How a command finished. `Clean` maps to exit code 0; `Salvaged` maps
/// to exit code 3 — the command completed and printed a report, but part
/// of the input was lost (dropped frames/records, missing staged shards,
/// quarantined worker tasks), so the output covers only what survived.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Output is complete.
    Clean,
    /// Output is the exact analysis of a salvaged subset.
    Salvaged,
}

/// Loads a binary trace file with a readable error, decoding shard
/// frames on up to `threads` workers into one shard each. Any damage is
/// an error.
pub fn load_trace(path: &str, threads: usize) -> Result<Trace, String> {
    let data = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    codec::decode(&data, threads).map_err(|e| format!("{path}: {e}"))
}

/// Loads a binary trace file tolerantly: a damaged payload yields what
/// could be salvaged plus the drop tallies (see
/// [`jcdn_trace::codec::decode_tolerant`]).
pub fn load_trace_tolerant(path: &str, threads: usize) -> Result<(Trace, DecodeStats), String> {
    let data = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    codec::decode_tolerant(&data, threads).map_err(|e| format!("{path}: {e}"))
}

/// Records a tolerant decode's tallies as the `codec.*` manifest
/// counters. A clean decode adds no drop keys (`inc` by 0 creates none).
pub fn record_decode_stats(metrics: &mut MetricsSnapshot, stats: &DecodeStats) {
    metrics.inc("codec.records.decoded", stats.records_decoded);
    metrics.inc("codec.records.dropped", stats.records_dropped);
    metrics.inc("codec.frames.crc_failed", stats.frames_crc_failed);
    metrics.inc("codec.frames.truncated", stats.frames_truncated);
    metrics.inc("codec.frames.header_damaged", stats.frames_header_damaged);
}
