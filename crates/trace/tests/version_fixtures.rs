//! Cross-version fixture suite.
//!
//! `tests/fixtures/v{1,2,3,4}.jcdn` are committed encodes of one fixed
//! trace, one file per on-disk format version. The tests assert two
//! invariants that CI must never let rot:
//!
//! 1. **Byte stability** — the frozen legacy encoders ([`jcdn_trace::compat`])
//!    and the live v4 encoder still produce exactly the committed bytes,
//!    so old files on disk stay readable by construction.
//! 2. **Decode equivalence** — every fixture decodes to the same records
//!    (v1 modulo its missing retry/flags fields) and the same shard
//!    boundaries where the format has them.
//!
//! To regenerate after an *intentional* format change (a new version —
//! never a change to a frozen layout), run:
//! `JCDN_WRITE_FIXTURES=1 cargo test -p jcdn-trace --test version_fixtures`

use std::path::PathBuf;

use bytes::Bytes;
use jcdn_trace::codec::{decode, encode};
use jcdn_trace::{
    compat, CacheStatus, ClientId, LogRecord, Method, MimeType, RecordFlags, SimTime, Trace,
};

/// The fixture trace: deterministic, covers every method/mime/cache
/// variant, UA gaps, retries, flags, multi-byte deltas, and duplicate
/// statuses (to exercise the v4 dictionary).
fn fixture_trace() -> Trace {
    let mut t = Trace::new();
    let uas = [
        t.intern_ua("okhttp/3.12.1"),
        t.intern_ua("Mozilla/5.0 (fixture)"),
    ];
    let urls = [
        t.intern_url("https://api.example/items/1"),
        t.intern_url("https://api.example/items/2?page=2"),
        t.intern_url("https://cdn.example/static/app.js"),
    ];
    let methods = [
        Method::Get,
        Method::Post,
        Method::Head,
        Method::Put,
        Method::Delete,
    ];
    let mimes = [
        MimeType::Json,
        MimeType::Html,
        MimeType::Css,
        MimeType::JavaScript,
        MimeType::Image,
        MimeType::Video,
        MimeType::Other,
    ];
    let statuses = [200u16, 200, 304, 404, 500, 200, 503];
    for i in 0..96u64 {
        let iu = i as usize;
        t.push(LogRecord {
            time: SimTime::from_millis(i * i * 3),
            client: ClientId(i % 11 * 7919),
            ua: (i % 3 != 1).then_some(uas[iu % 2]),
            url: urls[iu % 3],
            method: methods[iu % 5],
            mime: mimes[iu % 7],
            status: statuses[iu % 7],
            response_bytes: i * 131 % 10_000,
            cache: match i % 3 {
                0 => CacheStatus::Hit,
                1 => CacheStatus::Miss,
                _ => CacheStatus::NotCacheable,
            },
            retries: (i % 13 == 0) as u8 * 2,
            flags: if i % 7 == 0 {
                RecordFlags::SERVED_STALE.with(RecordFlags::RETRIED)
            } else {
                RecordFlags::NONE
            },
        });
    }
    t
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Compares `encoded` against the committed fixture — or rewrites the
/// fixture when `JCDN_WRITE_FIXTURES=1` — and returns the committed bytes.
fn check_fixture(name: &str, encoded: &Bytes) -> Bytes {
    let path = fixture_path(name);
    if std::env::var_os("JCDN_WRITE_FIXTURES").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, encoded).unwrap();
    }
    let committed = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (run with JCDN_WRITE_FIXTURES=1?)", path.display()));
    assert_eq!(
        &committed[..],
        &encoded[..],
        "{name}: encoder drifted from the committed bytes"
    );
    Bytes::from(committed)
}

#[test]
fn fixtures_are_byte_stable_and_decode_equivalently() {
    let t = fixture_trace();
    let sharded = Trace::from_trace(t.clone(), 4);

    let v1 = check_fixture("v1.jcdn", &compat::encode_v1(&t).unwrap());
    let v2 = check_fixture("v2.jcdn", &compat::encode_v2(&t).unwrap());
    let v3 = check_fixture("v3.jcdn", &compat::encode_v3(&sharded).unwrap());
    let v4 = check_fixture("v4.jcdn", &encode(&sharded, 1).unwrap());

    // v1 lacks retry/flags; everything else must match field for field.
    let mut v1_expect: Vec<LogRecord> = t.records().copied().collect();
    for r in &mut v1_expect {
        r.retries = 0;
        r.flags = RecordFlags::NONE;
    }
    let d1 = decode(&v1, 1).unwrap();
    assert_eq!(d1.shard_count(), 1);
    assert_eq!(d1.shard_records(0), v1_expect.as_slice());

    let d2 = decode(&v2, 1).unwrap();
    assert_eq!(d2.shard_count(), 1);
    assert!(d2.records().eq(t.records()));

    // v3 and v4 carry shard boundaries; both must reproduce them and
    // decode to identical traces.
    let d3 = decode(&v3, 1).unwrap();
    let d4 = decode(&v4, 1).unwrap();
    for d in [&d3, &d4] {
        assert_eq!(d.shard_count(), sharded.shard_count());
        for i in 0..sharded.shard_count() {
            assert_eq!(d.shard_records(i), sharded.shard_records(i));
        }
        assert_eq!(d.interner().url_table(), sharded.interner().url_table());
        assert_eq!(d.interner().ua_table(), sharded.interner().ua_table());
    }
}
