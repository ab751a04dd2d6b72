//! Frozen encoders for historical codec versions 1–3.
//!
//! The live encoder in [`crate::codec`] always writes the current version;
//! these writers reproduce the retired on-disk layouts byte for byte so
//! the cross-version fixture suite (and anything that needs a legacy
//! payload) does not depend on bytes that the main codec can no longer
//! produce. They are
//! **frozen**: the layouts below must never change, because committed
//! fixture files assert byte equality against them.
//!
//! Layout recap (see `codec.rs` history for the originals):
//!
//! - **v1** — magic, version, url/ua tables, record-count varint, then an
//!   undelimited record stream. Records carry no retry/flags bytes.
//! - **v2** — v1 plus a `retries` byte and a `flags` byte per record.
//! - **v3** — v2's record layout wrapped in per-shard frames:
//!   `payload_len u32 LE | record-count varint | crc32 u32 LE | payload`,
//!   preceded by a shard-count varint. The time-delta base resets to 0 at
//!   every frame start.

// Lengths meet arithmetic here, and every version dispatch must name
// each version (DESIGN.md §11).
#![warn(
    clippy::arithmetic_side_effects,
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]

use crate::codec::{
    cache_tag, crc32, encode_tables_versioned, len_u64, method_tag, mime_tag, put_varint, zigzag,
    EncodeError, Version,
};
use crate::record::LogRecord;
use crate::trace::Trace;
use bytes::{BufMut, Bytes, BytesMut};

/// Writes one record in the legacy row-major layout. `version` selects
/// whether the v2 resilience bytes (retries, flags) are present.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "sorted times below the 2^63 µs cap make t - prev ≥ 0"
)]
fn put_record(buf: &mut BytesMut, r: &LogRecord, prev_time: &mut i64, version: Version) {
    // The time axis caps at 2^63 µs (~292k simulated years).
    let t = r.time.as_micros().cast_signed();
    put_varint(buf, zigzag(t - *prev_time));
    *prev_time = t;
    put_varint(buf, r.client.0);
    put_varint(buf, r.ua.map_or(0, |ua| u64::from(ua.0) + 1));
    put_varint(buf, u64::from(r.url.0));
    buf.put_u8(method_tag(r.method));
    buf.put_u8(mime_tag(r.mime));
    buf.put_u8(cache_tag(r.cache));
    match version {
        Version::V1 => {}
        Version::V2 | Version::V3 | Version::V4 => {
            buf.put_u8(r.retries);
            buf.put_u8(r.flags.bits());
        }
    }
    put_varint(buf, u64::from(r.status));
    put_varint(buf, r.response_bytes);
}

/// Rejects out-of-order records exactly like the live encoder, so legacy
/// payloads satisfy the same sortedness contract.
fn check_sorted(trace: &Trace) -> Result<(), EncodeError> {
    let mut prev = None;
    for (index, r) in trace.records().enumerate() {
        if let Some(prev) = prev.filter(|&prev| r.time < prev) {
            return Err(EncodeError::OutOfOrder {
                index,
                prev,
                next: r.time,
            });
        }
        prev = Some(r.time);
    }
    Ok(())
}

/// Encodes a trace in the undelimited v1/v2 stream layout.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "a capacity hint from an in-memory record count"
)]
fn encode_stream(trace: &Trace, version: Version) -> Result<Bytes, EncodeError> {
    check_sorted(trace)?;
    let mut buf = BytesMut::with_capacity(trace.len() * 16 + 1024);
    buf.put_slice(&encode_tables_versioned(trace.interner(), version));
    put_varint(&mut buf, len_u64(trace.len()));
    let mut prev_time = 0i64;
    for r in trace.records() {
        put_record(&mut buf, r, &mut prev_time, version);
    }
    Ok(buf.freeze())
}

/// Encodes a trace in the retired version-1 layout (no retry/flags bytes;
/// those fields are lost, which is why v1 equivalence checks zero them).
pub fn encode_v1(trace: &Trace) -> Result<Bytes, EncodeError> {
    encode_stream(trace, Version::V1)
}

/// Encodes a trace in the retired version-2 layout (undelimited record
/// stream carrying the full record, no frames or CRC).
pub fn encode_v2(trace: &Trace) -> Result<Bytes, EncodeError> {
    encode_stream(trace, Version::V2)
}

/// Encodes a trace in the retired version-3 framed layout, one frame per
/// shard.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "capacity hints from in-memory shard lengths"
)]
pub fn encode_v3(trace: &Trace) -> Result<Bytes, EncodeError> {
    check_sorted(trace)?;
    let mut buf = BytesMut::with_capacity(trace.len() * 16 + 1024);
    buf.put_slice(&encode_tables_versioned(trace.interner(), Version::V3));
    put_varint(&mut buf, len_u64(trace.shard_count()));
    for shard_idx in 0..trace.shard_count() {
        let shard = trace.shard_records(shard_idx);
        let mut payload = BytesMut::with_capacity(shard.len() * 16 + 16);
        let mut prev_time = 0i64;
        for r in shard {
            put_record(&mut payload, r, &mut prev_time, Version::V3);
        }
        let payload = payload.freeze();
        let payload_len = u32::try_from(payload.len()).map_err(|_| EncodeError::FrameTooLarge {
            shard: shard_idx,
            bytes: payload.len(),
        })?;
        buf.put_u32_le(payload_len);
        put_varint(&mut buf, len_u64(shard.len()));
        buf.put_u32_le(crc32(&payload));
        buf.put_slice(&payload);
    }
    Ok(buf.freeze())
}

#[cfg(test)]
#[expect(
    clippy::arithmetic_side_effects,
    reason = "offsets and sizes of small hand-built test payloads"
)]
mod tests {
    use super::*;
    use crate::codec::{decode, decode_tolerant};
    use crate::record::RecordFlags;
    use crate::time::SimTime;
    use crate::{CacheStatus, ClientId, Method, MimeType};

    fn sample(n: u64) -> Trace {
        let mut t = Trace::new();
        let ua = t.intern_ua("curl/8.0");
        let u = t.intern_url("https://h.example/x");
        for i in 0..n {
            t.push(LogRecord {
                time: SimTime::from_millis(i * 7),
                client: ClientId(i % 3),
                ua: (i % 2 == 0).then_some(ua),
                url: u,
                method: Method::Get,
                mime: MimeType::Json,
                status: 200,
                response_bytes: i,
                cache: CacheStatus::Hit,
                retries: (i % 3) as u8,
                flags: if i % 5 == 0 {
                    RecordFlags::RETRIED
                } else {
                    RecordFlags::NONE
                },
            });
        }
        t
    }

    #[test]
    fn legacy_encodes_decode_to_the_same_records() {
        let t = sample(40);
        let records = |bytes: Bytes| -> Vec<LogRecord> {
            decode(&bytes, 1).unwrap().records().copied().collect()
        };
        let expect: Vec<LogRecord> = t.records().copied().collect();
        assert_eq!(records(encode_v2(&t).unwrap()), expect);
        assert_eq!(records(encode_v3(&t).unwrap()), expect);
        // v1 loses the resilience fields; everything else survives.
        let mut expect = expect;
        for r in &mut expect {
            r.retries = 0;
            r.flags = RecordFlags::NONE;
        }
        assert_eq!(records(encode_v1(&t).unwrap()), expect);
    }

    #[test]
    fn sharded_v3_preserves_shard_boundaries() {
        let sharded = Trace::from_trace(sample(40), 4);
        let decoded = decode(&encode_v3(&sharded).unwrap(), 1).unwrap();
        assert_eq!(decoded.shard_count(), 4);
        for i in 0..4 {
            assert_eq!(decoded.shard_records(i), sharded.shard_records(i));
        }
    }

    #[test]
    fn legacy_encoders_reject_unsorted_records() {
        let mut t = Trace::new();
        let u = t.intern_url("https://h.example/x");
        for &time in &[5u64, 1] {
            t.push(LogRecord {
                time: SimTime::from_secs(time),
                client: ClientId(0),
                ua: None,
                url: u,
                method: Method::Get,
                mime: MimeType::Json,
                status: 200,
                response_bytes: 1,
                cache: CacheStatus::Hit,
                retries: 0,
                flags: RecordFlags::NONE,
            });
        }
        for err in [
            encode_v1(&t).unwrap_err(),
            encode_v2(&t).unwrap_err(),
            encode_v3(&t).unwrap_err(),
        ] {
            assert!(matches!(err, EncodeError::OutOfOrder { index: 1, .. }));
        }
    }

    #[test]
    fn inflated_v3_frame_count_does_not_over_report_drops() {
        // Regression: a corrupted v3 record-count varint sits *outside*
        // the frame CRC, so the tolerant decoder must clamp the claimed
        // loss to what the payload could physically hold instead of
        // echoing the inflated number.
        let sharded = Trace::from_trace(sample(10), 2);
        let encoded = encode_v3(&sharded).unwrap();
        let mut data = encoded.to_vec();
        // tables: 4 magic + 2 version + 1 url count + 1 len + 19 url
        //         + 1 ua count + 1 len + 8 ua = 37; shard varint at 37;
        // frame 0 payload_len at 38..42, record count at 42.
        assert_eq!(data[42], 5, "frame 0 claims 5 records");
        data[42] = 7; // inflate the unprotected count
        let encoded_records = sharded.len() as u64;
        let (_, stats) = decode_tolerant(&data, 1).unwrap();
        assert_eq!(stats.frames_header_damaged, 1);
        assert!(!stats.is_clean());
        assert!(
            stats.records_decoded + stats.records_dropped <= encoded_records,
            "over-counted: {stats:?}"
        );
    }
}
