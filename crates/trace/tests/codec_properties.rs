//! Property tests: the binary codec round-trips arbitrary traces and never
//! panics on corrupted input.

use jcdn_trace::codec::{decode, decode_tolerant, encode, EncodeError};
use jcdn_trace::{CacheStatus, ClientId, LogRecord, Method, MimeType, RecordFlags, SimTime, Trace};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RawRecord {
    time_us: u64,
    client: u64,
    ua: Option<u8>,
    url: u8,
    method: u8,
    mime: u8,
    cache: u8,
    status: u16,
    bytes: u64,
    retries: u8,
    flags: u8,
}

fn arb_record() -> impl Strategy<Value = RawRecord> {
    (
        any::<u64>(),
        any::<u64>(),
        prop::option::of(0u8..5),
        0u8..8,
        0u8..5,
        0u8..7,
        0u8..3,
        any::<u16>(),
        any::<u64>(),
        any::<u8>(),
        0u8..16,
    )
        .prop_map(
            |(time_us, client, ua, url, method, mime, cache, status, bytes, retries, flags)| {
                RawRecord {
                    // Keep times within i64 so delta encoding stays exact.
                    time_us: time_us % (i64::MAX as u64),
                    client,
                    ua,
                    url,
                    method,
                    mime,
                    cache,
                    status,
                    bytes,
                    retries,
                    flags,
                }
            },
        )
}

/// Builds a time-sorted trace (the codec's precondition) from raw records.
fn build_trace(records: &[RawRecord]) -> Trace {
    let mut records = records.to_vec();
    records.sort_by_key(|r| r.time_us);
    let mut t = Trace::new();
    let urls: Vec<_> = (0..8)
        .map(|i| t.intern_url(&format!("https://h{i}.example/obj/{i}")))
        .collect();
    let uas: Vec<_> = (0..5)
        .map(|i| t.intern_ua(&format!("agent-{i}/1.0")))
        .collect();
    for r in &records {
        t.push(LogRecord {
            time: SimTime::from_micros(r.time_us),
            client: ClientId(r.client),
            ua: r.ua.map(|i| uas[i as usize]),
            url: urls[r.url as usize],
            method: match r.method {
                0 => Method::Get,
                1 => Method::Post,
                2 => Method::Head,
                3 => Method::Put,
                _ => Method::Delete,
            },
            mime: match r.mime {
                0 => MimeType::Json,
                1 => MimeType::Html,
                2 => MimeType::Css,
                3 => MimeType::JavaScript,
                4 => MimeType::Image,
                5 => MimeType::Video,
                _ => MimeType::Other,
            },
            status: r.status,
            response_bytes: r.bytes,
            cache: match r.cache {
                0 => CacheStatus::Hit,
                1 => CacheStatus::Miss,
                _ => CacheStatus::NotCacheable,
            },
            retries: r.retries,
            flags: RecordFlags::from_bits(r.flags).expect("arb flags stay within defined bits"),
        });
    }
    t
}

/// Independent version-1 encoder (the format before the retry/flags bytes),
/// so the decoder's backward compatibility is exercised against arbitrary
/// traces and not just one hand-written sample.
fn encode_v1(t: &Trace) -> Vec<u8> {
    fn put_varint(out: &mut Vec<u8>, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                out.push(byte);
                return;
            }
            out.push(byte | 0x80);
        }
    }
    fn put_string(out: &mut Vec<u8>, s: &str) {
        put_varint(out, s.len() as u64);
        out.extend_from_slice(s.as_bytes());
    }
    let zigzag = |v: i64| ((v << 1) ^ (v >> 63)) as u64;

    let mut out = Vec::new();
    out.extend_from_slice(b"JCDN");
    out.extend_from_slice(&1u16.to_le_bytes());
    put_varint(&mut out, t.url_table().len() as u64);
    for url in t.url_table() {
        put_string(&mut out, url);
    }
    put_varint(&mut out, t.ua_table().len() as u64);
    for ua in t.ua_table() {
        put_string(&mut out, ua);
    }
    put_varint(&mut out, t.len() as u64);
    let mut prev_time: i64 = 0;
    for r in t.records() {
        let time = r.time.as_micros() as i64;
        put_varint(&mut out, zigzag(time - prev_time));
        prev_time = time;
        put_varint(&mut out, r.client.0);
        put_varint(&mut out, r.ua.map_or(0, |ua| u64::from(ua.0) + 1));
        put_varint(&mut out, u64::from(r.url.0));
        out.push(match r.method {
            Method::Get => 0,
            Method::Post => 1,
            Method::Head => 2,
            Method::Put => 3,
            Method::Delete => 4,
        });
        out.push(match r.mime {
            MimeType::Json => 0,
            MimeType::Html => 1,
            MimeType::Css => 2,
            MimeType::JavaScript => 3,
            MimeType::Image => 4,
            MimeType::Video => 5,
            MimeType::Other => 6,
        });
        out.push(match r.cache {
            CacheStatus::Hit => 0,
            CacheStatus::Miss => 1,
            CacheStatus::NotCacheable => 2,
        });
        put_varint(&mut out, u64::from(r.status));
        put_varint(&mut out, r.response_bytes);
    }
    out
}

proptest! {
    #[test]
    fn arbitrary_traces_round_trip(records in prop::collection::vec(arb_record(), 0..200)) {
        let t = build_trace(&records);
        let encoded = encode(&t, 1).expect("sorted traces encode");
        let decoded = decode(&encoded, 1).expect("round trip");
        prop_assert!(decoded.records().eq(t.records()));
        prop_assert_eq!(decoded.url_table(), t.url_table());
        prop_assert_eq!(decoded.ua_table(), t.ua_table());
    }

    #[test]
    fn sharded_traces_round_trip_for_any_shard_count(
        records in prop::collection::vec(arb_record(), 0..200),
        shard_count in 1usize..12,
    ) {
        let reference = build_trace(&records);
        let sharded = Trace::from_trace(build_trace(&records), shard_count);
        let encoded = encode(&sharded, 1).expect("sorted shards encode");
        let decoded = decode(&encoded, 1).expect("sharded round trip");
        prop_assert_eq!(decoded.shard_count(), sharded.shard_count());
        for i in 0..decoded.shard_count() {
            prop_assert_eq!(decoded.shard_records(i), sharded.shard_records(i));
        }
        // The decoded shards read in order give the canonical record order.
        let mut flat = reference;
        flat.sort_canonical();
        prop_assert!(decoded.records().eq(flat.records()));
    }

    #[test]
    fn out_of_order_traces_are_rejected(
        records in prop::collection::vec(arb_record(), 2..50),
    ) {
        let mut t = build_trace(&records);
        let mut reversed: Vec<LogRecord> = t.records().copied().collect();
        reversed.reverse();
        // Only meaningful when at least two distinct timestamps exist.
        if reversed.first().map(|r| r.time) != reversed.last().map(|r| r.time) {
            t.retain(|_| false);
            let t = Trace::from_parts(t.into_parts().0, vec![reversed]);
            prop_assert!(matches!(
                encode(&t, 1),
                Err(EncodeError::OutOfOrder { .. })
            ));
        }
    }

    #[test]
    fn version_1_payloads_decode_with_default_resilience_fields(
        records in prop::collection::vec(arb_record(), 0..100),
    ) {
        let t = build_trace(&records);
        let decoded = decode(&encode_v1(&t), 1).expect("v1 payload decodes");
        prop_assert_eq!(decoded.len(), t.len());
        prop_assert_eq!(decoded.url_table(), t.url_table());
        for (d, orig) in decoded.records().zip(t.records()) {
            prop_assert_eq!(d.retries, 0, "v1 records decode with zero retries");
            prop_assert_eq!(d.flags, RecordFlags::NONE, "v1 records decode with empty flags");
            prop_assert_eq!(
                LogRecord { retries: orig.retries, flags: orig.flags, ..*d },
                *orig,
                "all pre-existing fields survive"
            );
        }
    }

    #[test]
    fn decoder_never_panics_on_random_bytes(data in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode(&data, 1);
    }

    #[test]
    fn decoder_never_panics_on_bit_flipped_valid_traces(
        records in prop::collection::vec(arb_record(), 1..50),
        flip_at in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let t = build_trace(&records);
        let mut data = encode(&t, 1).expect("sorted traces encode").to_vec();
        let idx = flip_at.index(data.len());
        data[idx] ^= 1 << flip_bit;
        let _ = decode(&data, 1); // may fail, must not panic
    }

    // The crash-safety contract for the tolerant reader: arbitrary
    // single-byte corruption of a valid sharded payload never panics and
    // never invents records — whatever survives is a subset of what was
    // encoded, and the stats account for the loss.
    #[test]
    fn tolerant_decode_of_bit_flipped_shards_never_over_returns(
        records in prop::collection::vec(arb_record(), 1..80),
        shards in 1usize..6,
        flip_at in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let sharded = Trace::from_trace(build_trace(&records), shards);
        let encoded_records = sharded.len();
        let mut data = encode(&sharded, 1).expect("sorted shards encode").to_vec();
        let idx = flip_at.index(data.len());
        data[idx] ^= 1 << flip_bit;
        // May fail outright (header/table damage), must not panic; on
        // success the surviving records and the drop tally partition the
        // encoded set — nothing is duplicated or fabricated.
        if let Ok((survived, stats)) = decode_tolerant(&data, 1) {
            prop_assert!(survived.len() <= encoded_records, "over-returned records");
            prop_assert_eq!(stats.records_decoded, survived.len() as u64);
            prop_assert!(
                stats.records_decoded + stats.records_dropped <= encoded_records as u64,
                "decoded + dropped exceeds what was encoded"
            );
            if !stats.is_clean() {
                prop_assert!(stats.first_error_offset.is_some());
            }
        }
    }

    #[test]
    fn tolerant_decode_of_truncated_shards_never_panics_or_over_returns(
        records in prop::collection::vec(arb_record(), 1..80),
        shards in 1usize..6,
        cut_at in any::<prop::sample::Index>(),
    ) {
        let sharded = Trace::from_trace(build_trace(&records), shards);
        let encoded_records = sharded.len();
        let mut data = encode(&sharded, 1).expect("sorted shards encode").to_vec();
        data.truncate(cut_at.index(data.len()));
        if let Ok((survived, stats)) = decode_tolerant(&data, 1) {
            prop_assert!(survived.len() <= encoded_records, "over-returned records");
            prop_assert_eq!(stats.records_decoded, survived.len() as u64);
            prop_assert!(
                stats.records_decoded + stats.records_dropped <= encoded_records as u64,
                "decoded + dropped exceeds what was encoded"
            );
        }
    }
}

/// 2^40 as an overlong ten-byte LEB128 varint, as a forger may write it.
const FORGED_VARINT: [u8; 10] = [0x80, 0x80, 0x80, 0x80, 0x80, 0xA0, 0x80, 0x80, 0x80, 0x00];

/// Single mutations of every committed v1–v4 fixture — a cut at every
/// offset, the forged varint spliced in at every offset, and one flipped
/// bit in every byte (cycling through the bit positions) — decode without
/// panicking, and the tolerant tallies never claim more than the mutated
/// bytes could hold: a record takes at least 7 bytes in any version, and a
/// frame at least 8.
#[test]
fn mutated_fixtures_never_over_report() {
    for version in 1..=4 {
        let path = format!(
            "{}/tests/fixtures/v{version}.jcdn",
            env!("CARGO_MANIFEST_DIR")
        );
        let fixture = std::fs::read(&path).expect("committed fixture reads");
        let check = |data: &[u8], mutation: &str| {
            let _ = decode(data, 1); // may fail, must not panic
            if let Ok((_, stats)) = decode_tolerant(data, 1) {
                let len = data.len() as u64;
                assert!(
                    stats.records_decoded + stats.records_dropped <= len / 7,
                    "v{version}, {mutation}: records exceed {len} bytes: {stats:?}"
                );
                assert!(
                    stats.frames_dropped() <= len / 8,
                    "v{version}, {mutation}: frames exceed {len} bytes: {stats:?}"
                );
            }
        };
        for at in 0..=fixture.len() {
            check(&fixture[..at], &format!("cut at {at}"));
            let mut spliced = fixture.clone();
            spliced.splice(at..at, FORGED_VARINT);
            check(&spliced, &format!("varint spliced at {at}"));
        }
        for at in 0..fixture.len() {
            let bit = at % 8;
            let mut flipped = fixture.clone();
            flipped[at] ^= 1 << bit;
            check(&flipped, &format!("bit {bit} flipped at {at}"));
        }
    }
}
