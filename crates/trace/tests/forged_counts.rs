//! Forged counts: a record, shard or table count that the bytes cannot
//! back must drive neither a reservation nor a tally. A counting global
//! allocator records the largest single allocation each decode makes on
//! the calling thread (at one thread the exec pool runs inline).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use jcdn_trace::codec::{decode, decode_tolerant, DecodeStats};

struct Counting;

thread_local! {
    /// Largest allocation this thread made since the last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with` fails only while the thread tears down, when nothing is
    // measured.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees carry over; the bookkeeping only reads sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`, and the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`; returns its result and the largest single allocation it
/// made on this thread.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// 2^40 as a LEB128 varint.
const TWO_POW_40: [u8; 6] = [0x80, 0x80, 0x80, 0x80, 0x80, 0x20];

fn header(version: u16) -> Vec<u8> {
    let mut out = b"JCDN".to_vec();
    out.extend_from_slice(&version.to_le_bytes());
    out
}

/// Empty string tables, then a count of 2^40 and nothing else: a record
/// count in v1/v2, a shard count in v3/v4 (14 bytes).
fn forged_stream_count(version: u16) -> Vec<u8> {
    let mut out = header(version);
    out.extend_from_slice(&[0, 0]);
    out.extend_from_slice(&TWO_POW_40);
    out
}

/// One v3 frame with an empty payload, a bad CRC and a record claim of
/// 2^40 (23 bytes).
fn forged_v3_claim() -> Vec<u8> {
    let mut out = header(3);
    out.extend_from_slice(&[0, 0, 1]);
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&TWO_POW_40);
    out.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
    out
}

/// A URL table (`ua == false`) or UA table claiming 2^40 strings.
fn forged_table_count(ua: bool) -> Vec<u8> {
    let mut out = header(4);
    if ua {
        out.push(0);
    }
    out.extend_from_slice(&TWO_POW_40);
    out
}

/// Asserts no tally exceeds what `len` bytes could hold: a record takes
/// at least 7 bytes in any version, and a frame at least 8.
fn assert_within_bytes(stats: &DecodeStats, len: usize) {
    let len = len as u64;
    assert!(
        stats.records_decoded + stats.records_dropped <= len / 7,
        "records exceed {len} bytes: {stats:?}"
    );
    assert!(
        stats.frames_dropped() <= len / 8,
        "frames exceed {len} bytes: {stats:?}"
    );
}

const ALLOCATION_LIMIT: usize = 1024;

/// Decodes `bytes` strictly and tolerantly at one thread, checks both
/// stay under the allocation limit, and returns the tolerant tallies.
fn decode_both(name: &str, bytes: &[u8]) -> Result<DecodeStats, String> {
    // Every fan-out with work files a report into jcdn-obs's process-wide
    // sink, whose first push reserves room for four reports (~1.2 KiB)
    // whatever the input. One unmeasured decode makes that reservation,
    // and this file's few fan-outs never outgrow it.
    let _ = decode_tolerant(bytes, 1);
    let (strict, largest) = largest_allocation(|| decode(bytes, 1));
    assert!(
        strict.is_err(),
        "{name}: strict decode accepted a forged count"
    );
    assert!(
        largest <= ALLOCATION_LIMIT,
        "{name}: strict decode allocated {largest} bytes at once"
    );
    let (tolerant, largest) = largest_allocation(|| decode_tolerant(bytes, 1));
    assert!(
        largest <= ALLOCATION_LIMIT,
        "{name}: tolerant decode allocated {largest} bytes at once"
    );
    tolerant
        .map(|(_, stats)| stats)
        .map_err(|e| format!("{name}: {e}"))
}

#[test]
fn forged_counts_allocate_little_and_tally_only_what_the_bytes_hold() {
    for version in 1..=4u16 {
        let bytes = forged_stream_count(version);
        let stats = decode_both(&format!("v{version} stream count"), &bytes)
            .expect("the tables are intact");
        assert_within_bytes(&stats, bytes.len());
        let expected = DecodeStats {
            frames_header_damaged: 1,
            first_error_offset: Some(14),
            ..DecodeStats::default()
        };
        assert_eq!(stats, expected, "v{version}");
    }

    let bytes = forged_v3_claim();
    let stats = decode_both("v3 frame claim", &bytes).expect("the tables are intact");
    assert_within_bytes(&stats, bytes.len());
    assert_eq!(stats.frames_crc_failed, 1);
    assert_eq!(stats.records_dropped, 0, "an empty payload holds no record");

    for ua in [false, true] {
        let name = if ua {
            "UA table count"
        } else {
            "URL table count"
        };
        assert!(
            decode_both(name, &forged_table_count(ua)).is_err(),
            "{name}: truncated tables are a hard error"
        );
    }
}
