//! # jcdn-trace — CDN request-log schema, containers, codecs, and flows
//!
//! §3.1 of the paper describes the raw material of the study: per-request
//! logs from CDN edge servers carrying "the time of the request, object
//! caching information, a client IP address that is hashed for anonymity,
//! and select HTTP request and response header information including
//! user-agent, mime type, and object URL". This crate is that schema plus
//! the machinery around it:
//!
//! * [`SimTime`] / [`SimDuration`] — explicit simulated time in
//!   microseconds. No wall clock anywhere (smoltcp-style): the simulator
//!   advances time, the analysis reads it.
//! * [`LogRecord`] — one request log line; [`Trace`] — the one trace
//!   container: records in time-partitioned shards behind one
//!   [`Interner`], which interns user-agent and URL strings so
//!   multi-million-record traces stay compact. A built or simulated trace
//!   is one shard, a decoded file keeps one shard per frame, and
//!   analyses fan out over the shards and merge without id remapping.
//! * [`Interner`] — the shared string tables, with [`HostTable`] resolving
//!   each URL's host once.
//! * [`codec`] — a versioned binary codec (via `bytes`) with per-shard
//!   CRC-protected frames, and a JSONL exporter for interop.
//! * [`summary::DatasetSummary`] — the Table 2 roll-up (log count,
//!   duration, domain count, …).
//! * [`flows`] — object flows and client-object flows as defined in §5.1,
//!   with the paper's ≥10-requests / ≥10-clients filters.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]

pub mod codec;
pub mod compat;
pub mod flows;
mod interner;
mod record;
pub mod store;
pub mod summary;
mod time;
mod trace;

pub use interner::{HostTable, InternError, Interner};
pub use record::{CacheStatus, ClientId, LogRecord, Method, MimeType, RecordFlags, UaId, UrlId};
pub use time::{SimDuration, SimTime};
pub use trace::{RecordView, Trace};

/// [`Trace`], under the name the repository benchmark (`perfbench`) uses
/// for a trace cut into shards.
pub type ShardedTrace = Trace;

/// Stable 64-bit FNV-1a hash, used to anonymize client IPs and to split
/// clients into train/test sets deterministically.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv1a_differs_on_inputs() {
        assert_ne!(fnv1a(b"10.0.0.1"), fnv1a(b"10.0.0.2"));
    }
}
