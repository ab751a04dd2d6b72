//! Trace serialization: a compact versioned binary format and JSONL.
//!
//! The binary format exists so multi-million-record synthetic traces can be
//! written once and re-analyzed cheaply; JSONL exists for interop with
//! external tooling (and is, fittingly for this paper, JSON).
//!
//! Version 4 layout (integers little-endian or LEB128 varint):
//!
//! ```text
//! magic  b"JCDN"            4 bytes
//! version u16               (currently 4)
//! url table: varint count, then per string: varint len + UTF-8 bytes
//! ua  table: same
//! shard count: varint
//! shard frames, each:
//!   body length    u32 LE   (descriptor + columns)
//!   descriptor crc u32 LE   (CRC-32 of the descriptor bytes)
//!   descriptor:
//!     record count varint
//!     9 × (column length varint, column crc u32 LE), in column order
//!   columns, concatenated in order (n = record count):
//!     0 times    n varints: zigzag(delta µs); the delta base resets to 0
//!                at every frame start
//!     1 clients  group-varint64: per 4 values one control byte (2-bit
//!                width codes → {1,2,4,8} bytes), then the values LE
//!     2 uas      group-varint32 (widths {1,2,3,4}) of 0 = absent,
//!                else UaId + 1
//!     3 urls     group-varint32 of UrlId
//!     4 mmc      n bytes: method << 5 | mime << 2 | cache
//!     5 flags    ⌈n/2⌉ bytes: two RecordFlags nibbles per byte, record
//!                i in byte i/2, even i in the low nibble
//!     6 retries  sparse exceptions: varint count, then per nonzero
//!                retry: varint index delta (first is absolute; later
//!                deltas must be ≥ 1), u8 value
//!     7 statuses varint dict length, dict entries u16 LE in first-
//!                appearance order, then n indices (u8 if the dict has
//!                ≤ 256 entries, else u16 LE)
//!     8 bytes    n varints: response sizes
//! ```
//!
//! A trailing group-varint group with fewer than 4 values still writes one
//! control byte; the decoder knows `n`, and unused control slots code 0.
//!
//! Columnar frames let the decoder bulk-read each field into a pre-sized
//! vector instead of re-dispatching per record, and the whole decode
//! borrows from the input buffer — no intermediate copies. The
//! CRC-protected descriptor means a flipped record count or column length
//! is always *detected* (the v3 frame header was unprotected, so an
//! inflated count could silently skew salvage accounting), and per-column
//! CRCs localize payload damage. Length-prefixed frames let a reader hand
//! whole shards to worker threads without parsing records; [`encode`]
//! writes one frame per slice of its [`RecordStream`], and both it and
//! [`decode`] / [`decode_tolerant`] fan frames out on the `jcdn-exec`
//! pool, with output identical at any thread count.
//!
//! Older payloads still decode: version 3 (framed, per-record
//! interleaved fields), version 2 (unframed record stream) and version 1
//! (v2 minus the retry/flags bytes) — the last two into a single shard.
//! Frozen encoders for those versions live in [`crate::compat`].
//!
//! Time is delta-encoded, so **streams must be time-sorted before
//! encoding**, across slices as well as within them; [`encode`] returns
//! [`EncodeError::OutOfOrder`] on a record whose timestamp precedes its
//! predecessor's.

// Lengths and counts read off the wire meet arithmetic here, and every
// version dispatch must name each version (DESIGN.md §11).
#![warn(
    clippy::arithmetic_side_effects,
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]

use std::collections::HashMap;

use bytes::{BufMut, Bytes, BytesMut};

use crate::interner::Interner;
use crate::record::{CacheStatus, ClientId, LogRecord, Method, MimeType, RecordFlags, UaId, UrlId};
use crate::sharded::ShardedTrace;
use crate::stream::RecordStream;
use crate::time::SimTime;
use crate::trace::Trace;

pub(crate) const MAGIC: &[u8; 4] = b"JCDN";
/// The binary format version the encoder writes (decoders accept
/// [`MIN_VERSION`]..=[`VERSION`]).
pub const VERSION: u16 = Version::V4 as u16;
/// The oldest binary format version decoders still read.
pub const MIN_VERSION: u16 = Version::V1 as u16;

/// A format version this build reads, parsed once from the file header.
/// Every dispatch matches on it without a wildcard arm, so a new version
/// does not compile until each dispatch says how to handle it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub(crate) enum Version {
    /// Undelimited record stream without retry/flags bytes.
    V1 = 1,
    /// V1 plus a retries byte and a flags byte per record.
    V2 = 2,
    /// V2's records in per-shard CRC frames.
    V3 = 3,
    /// Columnar frames with a CRC-protected descriptor.
    V4 = 4,
}

impl Version {
    fn parse(raw: u16) -> Result<Version, DecodeError> {
        match raw {
            1 => Ok(Version::V1),
            2 => Ok(Version::V2),
            3 => Ok(Version::V3),
            4 => Ok(Version::V4),
            other => Err(DecodeError::BadVersion(other)),
        }
    }

    /// The most records of this version that could begin in `bytes`
    /// bytes. Bounds what a count that no CRC covers can promise.
    fn max_records(self, bytes: usize) -> usize {
        let min_record_bytes = match self {
            // Six varint fields of at least one byte each, plus three tags.
            Version::V1 => 9,
            // v1 plus the retries and flags bytes.
            Version::V2 | Version::V3 => 11,
            // One byte in each of the time, client, UA, URL, mmc, status
            // and bytes columns.
            Version::V4 => 7,
        };
        bytes.div_ceil(min_record_bytes)
    }
}

/// Number of per-field columns in a v4 frame.
const COLUMNS: usize = 9;

/// Minimum size of a frame: a u32 length and a u32 CRC (v3 adds a
/// record-count varint between them).
const MIN_FRAME_BYTES: usize = 8;

/// Encoding failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EncodeError {
    /// A record's timestamp precedes its predecessor's. The format
    /// delta-encodes time, and shard frames are contiguous time ranges, so
    /// encoding requires time-sorted input (see
    /// [`Trace::sort_by_time`] / [`Trace::sort_canonical`]).
    OutOfOrder {
        /// Index of the offending record (across all shards, in frame order).
        index: usize,
        /// The predecessor's timestamp.
        prev: SimTime,
        /// The offending record's timestamp.
        next: SimTime,
    },
    /// A shard frame's encoded body exceeded the u32 length prefix.
    FrameTooLarge {
        /// Index of the oversized shard frame.
        shard: usize,
        /// Encoded body size in bytes.
        bytes: usize,
    },
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::OutOfOrder { index, prev, next } => write!(
                f,
                "records not time-sorted: record {index} at {}µs follows {}µs",
                next.as_micros(),
                prev.as_micros()
            ),
            EncodeError::FrameTooLarge { shard, bytes } => write!(
                f,
                "shard frame {shard} body is {bytes} bytes; the length prefix is u32"
            ),
        }
    }
}

impl std::error::Error for EncodeError {}

/// Decoding failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Input does not start with the `JCDN` magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Input ended prematurely.
    Truncated,
    /// A varint exceeded 64 bits.
    VarintOverflow,
    /// A string was not valid UTF-8.
    InvalidUtf8,
    /// An enum discriminant was out of range.
    BadDiscriminant(&'static str, u8),
    /// A record referenced an id beyond its table.
    DanglingId,
    /// A delta-encoded timestamp overflowed the time axis.
    TimeOverflow,
    /// A shard frame failed a stored CRC-32 check (descriptor or column
    /// in v4, whole payload in v3).
    BadChecksum {
        /// Index of the corrupt shard frame.
        shard: usize,
    },
    /// A shard frame's self-description and its actual bytes disagree.
    FrameMismatch,
    /// A string table overflowed the 32-bit id space.
    TableOverflow,
    /// A status code exceeded 16 bits.
    StatusOverflow,
    /// A v4 column's values are internally inconsistent (trailing bytes,
    /// out-of-range dictionary or exception indices, wrong fixed width).
    BadColumnValue(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a JCDN trace (bad magic)"),
            DecodeError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            DecodeError::Truncated => write!(f, "truncated trace"),
            DecodeError::VarintOverflow => write!(f, "varint overflow"),
            DecodeError::InvalidUtf8 => write!(f, "invalid UTF-8 in string table"),
            DecodeError::BadDiscriminant(what, v) => write!(f, "bad {what} discriminant {v}"),
            DecodeError::DanglingId => write!(f, "record references missing table entry"),
            DecodeError::TimeOverflow => write!(f, "timestamp delta overflow"),
            DecodeError::BadChecksum { shard } => {
                write!(f, "shard frame {shard} failed its CRC-32 check")
            }
            DecodeError::FrameMismatch => write!(f, "shard frame length and records disagree"),
            DecodeError::TableOverflow => write!(f, "string table overflows 32-bit id space"),
            DecodeError::StatusOverflow => write!(f, "status code overflows 16 bits"),
            DecodeError::BadColumnValue(what) => {
                write!(f, "malformed {what} column in a columnar frame")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

// IEEE CRC-32 (the polynomial used by zip/png/ethernet), slicing-by-16:
// `CRC_TABLES[0]` is the classic byte-at-a-time table, and `CRC_TABLES[k]`
// advances a byte's contribution past k more zero bytes, so one step folds
// 16 input bytes with 16 independent lookups. The values are the
// byte-at-a-time ones.
const CRC_TABLES: [[u32; 256]; 16] = crc_tables();

#[expect(
    clippy::arithmetic_side_effects,
    reason = "the loop counters stop at 8, 16 and 256"
)]
const fn crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "i ranges over 0..256; lossless by the loop bound"
        )]
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 16 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

pub(crate) fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let (blocks, tail) = data.as_chunks::<16>();
    let mut c = !0u32;
    for b in blocks {
        // The register folds into the block's first four bytes.
        let head = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(head & 0xFF) as usize]
            ^ t[14][((head >> 8) & 0xFF) as usize]
            ^ t[13][((head >> 16) & 0xFF) as usize]
            ^ t[12][(head >> 24) as usize]
            ^ t[11][usize::from(b[4])]
            ^ t[10][usize::from(b[5])]
            ^ t[9][usize::from(b[6])]
            ^ t[8][usize::from(b[7])]
            ^ t[7][usize::from(b[8])]
            ^ t[6][usize::from(b[9])]
            ^ t[5][usize::from(b[10])]
            ^ t[4][usize::from(b[11])]
            ^ t[3][usize::from(b[12])]
            ^ t[2][usize::from(b[13])]
            ^ t[1][usize::from(b[14])]
            ^ t[0][usize::from(b[15])];
    }
    for &b in tail {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

pub(crate) fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// A zero-copy reader over a byte slice. Every decode path goes through
/// it: reads borrow from the input buffer, bounds failures surface as
/// [`DecodeError::Truncated`], and [`Cursor::pos`] gives the absolute
/// offset the salvage tallies report.
pub(crate) struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    #[expect(
        clippy::arithmetic_side_effects,
        reason = "take() never moves pos past data.len()"
    )]
    pub(crate) fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Borrows the next `len` bytes out of the input.
    pub(crate) fn take(&mut self, len: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(len).ok_or(DecodeError::Truncated)?;
        if end > self.data.len() {
            return Err(DecodeError::Truncated);
        }
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn get_u8(&mut self) -> Result<u8, DecodeError> {
        let b = self.take(1)?;
        Ok(b[0])
    }

    pub(crate) fn get_u16_le(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn get_u32_le(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// LEB128 varint, at most 10 bytes. The tenth byte may only carry bit
    /// 63: a continuation bit there, or value bits that a 64-bit shift
    /// would silently discard, are corruption — both yield
    /// [`DecodeError::VarintOverflow`] rather than a wrong value.
    pub(crate) fn get_varint(&mut self) -> Result<u64, DecodeError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.get_u8()?;
            if shift == 63 && byte & !0x01 != 0 {
                return Err(DecodeError::VarintOverflow);
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(DecodeError::VarintOverflow)
    }
}

pub(crate) fn zigzag(v: i64) -> u64 {
    // A bijective same-width bit reinterpretation, not a narrowing.
    ((v << 1) ^ (v >> 63)).cast_unsigned()
}

fn unzigzag(v: u64) -> i64 {
    (v >> 1).cast_signed() ^ (v & 1).cast_signed().wrapping_neg()
}

/// `usize → u64`, lossless on every supported target (usize ≤ 64 bits).
pub(crate) fn len_u64(len: usize) -> u64 {
    len as u64
}

/// `u64 → usize` with a caller-chosen error for values a 32-bit target
/// cannot represent (a wrapped length would corrupt the decode at a
/// distance — exactly the failure D4 exists to prevent).
fn to_usize(v: u64, err: DecodeError) -> Result<usize, DecodeError> {
    usize::try_from(v).map_err(|_| err)
}

/// `u32 → usize` table index, lossless on every supported target.
fn index32(v: u32) -> usize {
    v as usize
}

/// Widens a count for the [`DecodeStats`] tallies.
fn count_u64(n: usize) -> u64 {
    n as u64
}

pub(crate) fn put_string(buf: &mut BytesMut, s: &str) {
    put_varint(buf, len_u64(s.len()));
    buf.put_slice(s.as_bytes());
}

fn get_string(cur: &mut Cursor<'_>) -> Result<String, DecodeError> {
    let len = to_usize(cur.get_varint()?, DecodeError::Truncated)?;
    // One allocation: validate UTF-8 against the borrowed slice, then copy.
    std::str::from_utf8(cur.take(len)?)
        .map(str::to_owned)
        .map_err(|_| DecodeError::InvalidUtf8)
}

// ---------------------------------------------------------------------------
// Group varint: blocks of 4 values share one control byte holding four
// 2-bit width codes, so the decoder reads widths without per-value branch
// chains. The 64-bit flavor uses widths {1,2,4,8}; the 32-bit flavor
// (table ids) uses {1,2,3,4}.

const GV64_WIDTHS: [usize; 4] = [1, 2, 4, 8];
const GV32_WIDTHS: [usize; 4] = [1, 2, 3, 4];

fn gv64_code(v: u64) -> u8 {
    if v < 1 << 8 {
        0
    } else if v < 1 << 16 {
        1
    } else if v < 1 << 32 {
        2
    } else {
        3
    }
}

fn gv32_code(v: u32) -> u8 {
    if v < 1 << 8 {
        0
    } else if v < 1 << 16 {
        1
    } else if v < 1 << 24 {
        2
    } else {
        3
    }
}

#[expect(
    clippy::arithmetic_side_effects,
    reason = "slot < 4: groups hold 4 values"
)]
fn put_gv64(out: &mut BytesMut, vals: &[u64]) {
    for group in vals.chunks(4) {
        let mut ctrl = 0u8;
        for (slot, &v) in group.iter().enumerate() {
            ctrl |= gv64_code(v) << (2 * slot);
        }
        out.put_u8(ctrl);
        for &v in group {
            let width = GV64_WIDTHS[usize::from(gv64_code(v))];
            out.put_slice(&v.to_le_bytes()[..width]);
        }
    }
}

#[expect(
    clippy::arithmetic_side_effects,
    reason = "slot < 4: groups hold 4 values"
)]
fn put_gv32(out: &mut BytesMut, vals: &[u32]) {
    for group in vals.chunks(4) {
        let mut ctrl = 0u8;
        for (slot, &v) in group.iter().enumerate() {
            ctrl |= gv32_code(v) << (2 * slot);
        }
        out.put_u8(ctrl);
        for &v in group {
            let width = GV32_WIDTHS[usize::from(gv32_code(v))];
            out.put_slice(&v.to_le_bytes()[..width]);
        }
    }
}

#[expect(
    clippy::arithmetic_side_effects,
    reason = "out.len() < n inside the loop, and slot < 4"
)]
fn get_gv64(cur: &mut Cursor<'_>, n: usize) -> Result<Vec<u64>, DecodeError> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let ctrl = cur.get_u8()?;
        let slots = (n - out.len()).min(4);
        for slot in 0..slots {
            let width = GV64_WIDTHS[usize::from((ctrl >> (2 * slot)) & 0b11)];
            let bytes = cur.take(width)?;
            let mut le = [0u8; 8];
            le[..width].copy_from_slice(bytes);
            out.push(u64::from_le_bytes(le));
        }
    }
    Ok(out)
}

#[expect(
    clippy::arithmetic_side_effects,
    reason = "out.len() < n inside the loop, and slot < 4"
)]
fn get_gv32(cur: &mut Cursor<'_>, n: usize) -> Result<Vec<u32>, DecodeError> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let ctrl = cur.get_u8()?;
        let slots = (n - out.len()).min(4);
        for slot in 0..slots {
            let width = GV32_WIDTHS[usize::from((ctrl >> (2 * slot)) & 0b11)];
            let bytes = cur.take(width)?;
            let mut le = [0u8; 4];
            le[..width].copy_from_slice(bytes);
            out.push(u32::from_le_bytes(le));
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Per-column codecs for the packed v4 columns.

/// Packs method/mime/cache into one byte: `method << 5 | mime << 2 | cache`.
fn pack_mmc(r: &LogRecord) -> u8 {
    method_tag(r.method) << 5 | mime_tag(r.mime) << 2 | cache_tag(r.cache)
}

/// Nibble-packs two records' flag sets per byte (record `i` in byte
/// `i/2`, even `i` in the low nibble). `RecordFlags` is guaranteed to fit
/// a nibble by a compile-time assertion next to its definition.
fn put_flag_column(out: &mut BytesMut, records: &[LogRecord]) {
    for pair in records.chunks(2) {
        let low = pair[0].flags.bits();
        let high = pair.get(1).map_or(0, |r| r.flags.bits());
        out.put_u8(low | (high << 4));
    }
}

/// Sparse exception list: most records retry zero times, so only nonzero
/// retries are stored as (index delta, value) pairs.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "prev is 0 or an earlier index, so i - prev ≥ 0"
)]
fn put_retry_column(out: &mut BytesMut, retries: &[u8]) {
    let count = retries.iter().filter(|&&r| r != 0).count();
    put_varint(out, len_u64(count));
    // The first delta is relative to 0, i.e. absolute.
    let mut prev = 0usize;
    for (i, &r) in retries.iter().enumerate() {
        if r == 0 {
            continue;
        }
        put_varint(out, len_u64(i - prev));
        out.put_u8(r);
        prev = i;
    }
}

fn get_retry_column(cur: &mut Cursor<'_>, n: usize) -> Result<Vec<u8>, DecodeError> {
    let count = to_usize(cur.get_varint()?, DecodeError::BadColumnValue("retries"))?;
    if count > n {
        return Err(DecodeError::BadColumnValue("retries"));
    }
    let mut out = vec![0u8; n];
    let mut index = 0usize;
    for slot in 0..count {
        let delta = to_usize(cur.get_varint()?, DecodeError::BadColumnValue("retries"))?;
        // A zero delta past the first exception would silently overwrite
        // the previous entry; indices must be strictly increasing.
        if slot > 0 && delta == 0 {
            return Err(DecodeError::BadColumnValue("retries"));
        }
        index = if slot == 0 {
            delta
        } else {
            index
                .checked_add(delta)
                .ok_or(DecodeError::BadColumnValue("retries"))?
        };
        if index >= n {
            return Err(DecodeError::BadColumnValue("retries"));
        }
        out[index] = cur.get_u8()?;
    }
    Ok(out)
}

/// Dictionary-codes statuses: the distinct u16 codes in first-appearance
/// order, then one index per record (u8 while the dictionary stays ≤ 256
/// entries, which it always does for real HTTP status mixes).
fn put_status_column(out: &mut BytesMut, statuses: &[u16]) {
    let mut dict: Vec<u16> = Vec::new();
    let mut index_of: HashMap<u16, usize> = HashMap::new();
    let mut indices: Vec<usize> = Vec::with_capacity(statuses.len());
    for &s in statuses {
        let next = dict.len();
        let idx = *index_of.entry(s).or_insert(next);
        if idx == next {
            dict.push(s);
        }
        indices.push(idx);
    }
    put_varint(out, len_u64(dict.len()));
    for &s in &dict {
        out.put_u16_le(s);
    }
    if dict.len() <= 256 {
        for &i in &indices {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the dictionary has ≤ 256 entries, so the index fits u8"
            )]
            out.put_u8(i as u8);
        }
    } else {
        for &i in &indices {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "status codes are u16, so the dictionary fits u16 indices"
            )]
            out.put_u16_le(i as u16);
        }
    }
}

fn get_status_column(cur: &mut Cursor<'_>, n: usize) -> Result<Vec<u16>, DecodeError> {
    let dict_len = to_usize(cur.get_varint()?, DecodeError::BadColumnValue("status"))?;
    if dict_len > 1 << 16 || (n > 0 && dict_len == 0) {
        return Err(DecodeError::BadColumnValue("status"));
    }
    let mut dict = Vec::with_capacity(dict_len.min(cur.remaining() / 2));
    for _ in 0..dict_len {
        dict.push(cur.get_u16_le()?);
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let idx = if dict.len() <= 256 {
            usize::from(cur.get_u8()?)
        } else {
            usize::from(cur.get_u16_le()?)
        };
        out.push(*dict.get(idx).ok_or(DecodeError::BadColumnValue("status"))?);
    }
    Ok(out)
}

/// Decodes one v1–v3 interleaved record.
fn get_record(
    cur: &mut Cursor<'_>,
    version: Version,
    prev_time: &mut i64,
    url_map: &[UrlId],
    ua_map: &[UaId],
) -> Result<LogRecord, DecodeError> {
    let delta = unzigzag(cur.get_varint()?);
    let t = prev_time
        .checked_add(delta)
        .ok_or(DecodeError::TimeOverflow)?;
    *prev_time = t;
    let client = ClientId(cur.get_varint()?);
    // 0 means absent; anything else is the UA id plus one.
    let ua = match cur.get_varint()?.checked_sub(1) {
        None => None,
        Some(raw) => {
            let id = to_usize(raw, DecodeError::DanglingId)?;
            match ua_map.get(id) {
                Some(&mapped) => Some(mapped),
                None => return Err(DecodeError::DanglingId),
            }
        }
    };
    let url_raw = to_usize(cur.get_varint()?, DecodeError::DanglingId)?;
    let url = match url_map.get(url_raw) {
        Some(&mapped) => mapped,
        None => return Err(DecodeError::DanglingId),
    };
    let method = untag_method(cur.get_u8()?)?;
    let mime = untag_mime(cur.get_u8()?)?;
    let cache = untag_cache(cur.get_u8()?)?;
    let (retries, flags) = match version {
        Version::V1 => (0, RecordFlags::NONE),
        Version::V2 | Version::V3 | Version::V4 => {
            let retries = cur.get_u8()?;
            let raw = cur.get_u8()?;
            let flags =
                RecordFlags::from_bits(raw).ok_or(DecodeError::BadDiscriminant("flags", raw))?;
            (retries, flags)
        }
    };
    let status = u16::try_from(cur.get_varint()?).map_err(|_| DecodeError::StatusOverflow)?;
    let response_bytes = cur.get_varint()?;
    Ok(LogRecord {
        // Clamped non-negative, so the reinterpretation preserves the value.
        time: SimTime::from_micros(t.max(0).cast_unsigned()),
        client,
        ua,
        url,
        method,
        mime,
        status,
        response_bytes,
        cache,
        retries,
        flags,
    })
}

/// Encodes the file prologue — magic, version, and both string tables —
/// *without* the shard-count varint that follows it in a complete file
/// (see [`assemble`]). The durable store (see [`crate::store`]) persists
/// this prologue once per run.
pub(crate) fn encode_tables(interner: &Interner) -> Bytes {
    encode_tables_versioned(interner, Version::V4)
}

/// [`encode_tables`] with an explicit version stamp; [`crate::compat`]
/// uses it to emit historical-format fixtures.
pub(crate) fn encode_tables_versioned(interner: &Interner, version: Version) -> Bytes {
    let mut buf = BytesMut::with_capacity(1024);
    buf.put_slice(MAGIC);
    buf.put_u16_le(version as u16);
    put_varint(&mut buf, len_u64(interner.url_table().len()));
    for url in interner.url_table() {
        put_string(&mut buf, url);
    }
    put_varint(&mut buf, len_u64(interner.ua_table().len()));
    for ua in interner.ua_table() {
        put_string(&mut buf, ua);
    }
    buf.freeze()
}

/// One encoded shard frame: the full frame bytes (length prefix,
/// descriptor CRC, descriptor, columns) plus its record count for index
/// keeping.
pub(crate) struct EncodedFrame {
    /// The complete frame bytes, ready for concatenation.
    pub bytes: Bytes,
    /// Records the frame carries (what the shard index stores).
    pub records: u64,
}

impl AsRef<[u8]> for EncodedFrame {
    fn as_ref(&self) -> &[u8] {
        &self.bytes
    }
}

/// Encodes one columnar v4 shard frame. `index_base`/`last_time` thread
/// the cross-shard time-ordering check through successive calls, so
/// encoding shard by shard enforces exactly what a single sequential pass
/// enforces — which is also what makes parallel per-shard encoding
/// byte-identical to the sequential order (see [`encode_frames`]).
#[expect(
    clippy::arithmetic_side_effects,
    reason = "sizes of in-memory slices (capacity hints, indices, the frame length) \
              cannot overflow usize, and a sorted frame's times below the 2^63 µs \
              cap make t - prev ≥ 0"
)]
pub(crate) fn encode_frame(
    records: &[LogRecord],
    index_base: usize,
    last_time: &mut Option<SimTime>,
    shard_idx: usize,
) -> Result<EncodedFrame, EncodeError> {
    let n = records.len();

    // Column 0 — timestamps. The ordering check rides along because the
    // time column is where disorder becomes unrepresentable.
    let mut times = BytesMut::with_capacity(n * 2 + 1);
    let mut prev: i64 = 0;
    for (offset, r) in records.iter().enumerate() {
        if let Some(prev_time) = *last_time {
            if r.time < prev_time {
                return Err(EncodeError::OutOfOrder {
                    index: index_base + offset,
                    prev: prev_time,
                    next: r.time,
                });
            }
        }
        *last_time = Some(r.time);
        // The time axis caps at 2^63 µs (~292k simulated years).
        let t = r.time.as_micros().cast_signed();
        put_varint(&mut times, zigzag(t - prev));
        prev = t;
    }

    // Columns 1–3 — ids. The +1 on UA ids cannot overflow: the interner
    // caps tables at u32::MAX entries, so ids stay below u32::MAX.
    let clients: Vec<u64> = records.iter().map(|r| r.client.0).collect();
    let mut clients_col = BytesMut::with_capacity(n * 3 + 1);
    put_gv64(&mut clients_col, &clients);
    let uas: Vec<u32> = records
        .iter()
        .map(|r| r.ua.map_or(0, |ua| ua.0 + 1))
        .collect();
    let mut uas_col = BytesMut::with_capacity(n * 2 + 1);
    put_gv32(&mut uas_col, &uas);
    let urls: Vec<u32> = records.iter().map(|r| r.url.0).collect();
    let mut urls_col = BytesMut::with_capacity(n * 2 + 1);
    put_gv32(&mut urls_col, &urls);

    // Columns 4–8 — packed scalars.
    let mut mmc_col = BytesMut::with_capacity(n);
    for r in records {
        mmc_col.put_u8(pack_mmc(r));
    }
    let mut flags_col = BytesMut::with_capacity(n / 2 + 1);
    put_flag_column(&mut flags_col, records);
    let retries: Vec<u8> = records.iter().map(|r| r.retries).collect();
    let mut retries_col = BytesMut::with_capacity(16);
    put_retry_column(&mut retries_col, &retries);
    let statuses: Vec<u16> = records.iter().map(|r| r.status).collect();
    let mut status_col = BytesMut::with_capacity(n + 16);
    put_status_column(&mut status_col, &statuses);
    let mut bytes_col = BytesMut::with_capacity(n * 2 + 1);
    for r in records {
        put_varint(&mut bytes_col, r.response_bytes);
    }

    let cols: [Bytes; COLUMNS] = [
        times.freeze(),
        clients_col.freeze(),
        uas_col.freeze(),
        urls_col.freeze(),
        mmc_col.freeze(),
        flags_col.freeze(),
        retries_col.freeze(),
        status_col.freeze(),
        bytes_col.freeze(),
    ];

    // Descriptor: record count, then each column's length and CRC-32.
    // Its own CRC (stamped in the frame header) makes the directory
    // trustworthy before any column is parsed.
    let mut desc = BytesMut::with_capacity(8 + COLUMNS * 9);
    put_varint(&mut desc, len_u64(n));
    for col in &cols {
        put_varint(&mut desc, len_u64(col.len()));
        desc.put_u32_le(crc32(col));
    }
    let desc = desc.freeze();

    let body_len: usize = desc.len() + cols.iter().map(|c| c.len()).sum::<usize>();
    let body_len_u32 = u32::try_from(body_len).map_err(|_| EncodeError::FrameTooLarge {
        shard: shard_idx,
        bytes: body_len,
    })?;
    let mut frame = BytesMut::with_capacity(body_len + 8);
    frame.put_u32_le(body_len_u32);
    frame.put_u32_le(crc32(&desc));
    frame.put_slice(&desc);
    for col in &cols {
        frame.put_slice(col);
    }
    Ok(EncodedFrame {
        bytes: frame.freeze(),
        records: len_u64(n),
    })
}

/// Encodes the frames of `slices` named by `indices` (ascending), fanning
/// out on the exec pool; the result holds one frame per index, in order.
/// Every frame's cross-slice ordering check is seeded as if all earlier
/// slices had been encoded first — from the global index of the slice's
/// first record and the last timestamp of the nearest preceding non-empty
/// slice — so independent per-slice encodes behave exactly like one
/// sequential pass: same bytes, and the lowest-indexed ordering error is
/// the one a sequential encoder would have hit first. Taking indices lets
/// a resumed store run encode only the shards it has not committed.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "a running sum of in-memory slice lengths cannot overflow usize"
)]
pub(crate) fn encode_frames(
    slices: &[&[LogRecord]],
    indices: &[usize],
    threads: usize,
) -> Result<Vec<EncodedFrame>, EncodeError> {
    let mut seeds = Vec::with_capacity(slices.len());
    let (mut base, mut last) = (0usize, None::<SimTime>);
    for slice in slices {
        seeds.push((base, last));
        base += slice.len();
        last = slice.last().map_or(last, |r| Some(r.time));
    }
    jcdn_exec::scatter_gather_labeled("codec.encode", indices.len(), threads, |k| {
        let i = indices[k];
        let (index_base, mut last_time) = seeds[i];
        encode_frame(slices[i], index_base, &mut last_time, i)
    })
    .into_iter()
    .collect()
}

/// Assembles a complete file: the table prologue (see [`encode_tables`]),
/// the frame count, then the frames in order. The one place that knows
/// the file layout — [`encode`], the store's finalize and its staged
/// reader all build files through it, which is what makes a resumed
/// store run byte-identical to an uninterrupted one by construction.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "the summed lengths are of buffers already in memory"
)]
pub(crate) fn assemble<F: AsRef<[u8]>>(tables: &[u8], frames: &[F]) -> Vec<u8> {
    let mut count = BytesMut::with_capacity(10);
    put_varint(&mut count, len_u64(frames.len()));
    let total: usize = frames.iter().map(|f| f.as_ref().len()).sum();
    let mut out = Vec::with_capacity(tables.len() + count.len() + total);
    out.extend_from_slice(tables);
    out.extend_from_slice(&count.freeze());
    for frame in frames {
        out.extend_from_slice(frame.as_ref());
    }
    out
}

/// Encodes a record stream into the binary format, one frame per slice:
/// `trace.stream()` gives a single frame, `sharded.stream()` one frame per
/// shard. Frames are encoded on `threads` workers of the exec pool; the
/// output is byte-identical for any thread count.
///
/// The stream must be time-sorted across its slices (the format
/// delta-encodes time); an out-of-order record yields
/// [`EncodeError::OutOfOrder`].
pub fn encode(records: &RecordStream<'_>, threads: usize) -> Result<Bytes, EncodeError> {
    let slices = records.raw_slices();
    let all: Vec<usize> = (0..slices.len()).collect();
    let frames = encode_frames(slices, &all, threads)?;
    Ok(Bytes::from(assemble(
        &encode_tables(records.interner()),
        &frames,
    )))
}

/// [`encode`] of a sharded trace's stream, one frame per shard. It exists
/// because the repository benchmark (`perfbench`) calls it by this name.
pub fn encode_sharded_parallel(trace: &ShardedTrace, threads: usize) -> Result<Bytes, EncodeError> {
    encode(&trace.stream(), threads)
}

/// Tallies from a tolerant decode: how much of the payload survived, and
/// why the rest did not.
///
/// `records_dropped` counts records the frame descriptors promised but
/// that could not be decoded (corrupt bytes, dangling table references,
/// frames failing a checksum). Whole-frame losses are split by cause —
/// `frames_crc_failed` for frames failing a stored CRC-32 (bytes present
/// but corrupt), `frames_truncated` for frames cut off by a short file
/// (bytes missing), and `frames_header_damaged` for frames whose
/// self-description contradicts the bytes actually present — because the
/// causes call for different recoveries: a CRC failure means regenerate
/// or restore that shard, a truncation means the tail of the file is
/// gone, header damage means the frame boundary metadata itself is
/// suspect. A clean decode has every drop counter at zero.
///
/// No tally exceeds what the input's bytes could hold: a record or shard
/// count the bytes cannot back is clamped to the records or frames that
/// could begin in the bytes left. A clamped count adds one header-damaged
/// frame unless the loss is already counted as a CRC-failed or truncated
/// frame, so the decode is never clean.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Records successfully decoded.
    pub records_decoded: u64,
    /// Records promised by headers but lost to corruption.
    pub records_dropped: u64,
    /// Whole frames abandoned because a stored CRC-32 check failed.
    pub frames_crc_failed: u64,
    /// Whole frames abandoned because the file ended inside or before
    /// them.
    pub frames_truncated: u64,
    /// Frames whose self-description (record count or column directory)
    /// disagrees with the bytes present. Distinct from a CRC failure: the
    /// payload may be intact while the header lies about it.
    pub frames_header_damaged: u64,
    /// Byte offset (from the start of the decoded buffer) of the first
    /// error encountered, when anything was dropped. Localizes damage for
    /// the operator: a truncation offset near the file size means a torn
    /// tail, a small one means the file is mostly gone. Buffer-relative,
    /// so it only identifies a location within the *one* input it came
    /// from — never min offsets across different files.
    pub first_error_offset: Option<u64>,
}

#[expect(
    clippy::arithmetic_side_effects,
    reason = "each tally is clamped to what its input's bytes could hold, so sums stay \
              far below u64::MAX"
)]
impl DecodeStats {
    /// True when nothing was dropped.
    pub fn is_clean(&self) -> bool {
        self.records_dropped == 0 && self.frames_dropped() == 0
    }

    /// Total frames abandoned wholesale, any cause.
    pub fn frames_dropped(&self) -> u64 {
        self.frames_crc_failed + self.frames_truncated + self.frames_header_damaged
    }

    /// Folds another tally into this one (the shard-merge direction: the
    /// earliest error offset wins, counters add). Only meaningful for
    /// tallies over the *same* buffer — offsets are buffer-relative, so
    /// merging stats from different files keeps the counters honest but
    /// makes the offset meaningless (see the `merge` command, which
    /// reports offsets per input instead).
    pub fn merge(&mut self, other: &DecodeStats) {
        self.records_decoded += other.records_decoded;
        self.records_dropped += other.records_dropped;
        self.frames_crc_failed += other.frames_crc_failed;
        self.frames_truncated += other.frames_truncated;
        self.frames_header_damaged += other.frames_header_damaged;
        self.first_error_offset = match (self.first_error_offset, other.first_error_offset) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }

    /// Records the byte offset of an error; the first one sticks.
    fn note_error(&mut self, offset: u64) {
        self.first_error_offset.get_or_insert(offset);
    }
}

/// Decodes a binary trace, preserving its shard frames (version 1 and 2
/// payloads, which predate framing, decode into a single shard; call
/// [`ShardedTrace::into_trace`] for a flat trace). Frames decode on
/// `threads` workers of the exec pool; the result is identical for any
/// thread count. Any damage is an error (see [`decode_tolerant`]).
pub fn decode(buf: &[u8], threads: usize) -> Result<ShardedTrace, DecodeError> {
    decode_sharded_impl(buf, false, threads).map(|(trace, _)| trace)
}

/// [`decode`]. It exists because the repository benchmark (`perfbench`)
/// calls it by this name.
pub fn decode_sharded_parallel(buf: &[u8], threads: usize) -> Result<ShardedTrace, DecodeError> {
    decode(buf, threads)
}

/// Decodes a binary trace, salvaging what it can from a damaged payload
/// instead of failing outright.
///
/// Header and string-table errors (bad magic, unsupported version,
/// truncation before the record streams) are still hard errors — there is
/// nothing to salvage without the tables. Past that point the decode is
/// best-effort: a v4 frame failing any stored CRC or whose descriptor
/// lies about its bytes is dropped whole (its shard slot stays, empty), a
/// v3 record that fails to decode drops the rest of its frame (v3 record
/// boundaries are not self-synchronizing), and truncation mid-stream
/// keeps everything already decoded. The returned [`DecodeStats`] says
/// exactly what was lost, so callers can surface the damage instead of
/// hiding it. Salvage results and tallies are identical for any `threads`.
pub fn decode_tolerant(
    buf: &[u8],
    threads: usize,
) -> Result<(ShardedTrace, DecodeStats), DecodeError> {
    decode_sharded_impl(buf, true, threads)
}

/// One frame's boundaries, borrowed from the input during the cheap
/// sequential slicing pass; record-level decoding then fans out.
enum FrameSlice<'a> {
    V3 {
        payload: &'a [u8],
        crc: u32,
        claim: usize,
        at: u64,
    },
    V4 {
        body: &'a [u8],
        desc_crc: u32,
        at: u64,
    },
}

/// Why (part of) a frame was lost, for the tolerant-decode tallies.
struct FrameLoss {
    error: DecodeError,
    at: u64,
    dropped: u64,
    crc_failed: bool,
    header_damaged: bool,
}

/// Result of decoding one frame: salvaged records plus any loss.
struct FrameOutcome {
    records: Vec<LogRecord>,
    loss: Option<FrameLoss>,
    trailing_junk: bool,
}

fn slice_frame<'a>(cur: &mut Cursor<'a>, version: Version) -> Result<FrameSlice<'a>, DecodeError> {
    match version {
        // v1/v2 are undelimited streams with no frames; a caller asking to
        // slice a frame out of one is a dispatch bug, surfaced as BadVersion
        // rather than misparsed bytes.
        Version::V1 | Version::V2 => Err(DecodeError::BadVersion(version as u16)),
        Version::V3 => {
            let payload_len = to_usize(u64::from(cur.get_u32_le()?), DecodeError::Truncated)?;
            let claim = to_usize(cur.get_varint()?, DecodeError::Truncated)?;
            let crc = cur.get_u32_le()?;
            let at = count_u64(cur.pos());
            let payload = cur.take(payload_len)?;
            Ok(FrameSlice::V3 {
                payload,
                crc,
                claim,
                at,
            })
        }
        Version::V4 => {
            let body_len = to_usize(u64::from(cur.get_u32_le()?), DecodeError::Truncated)?;
            let desc_crc = cur.get_u32_le()?;
            let at = count_u64(cur.pos());
            let body = cur.take(body_len)?;
            Ok(FrameSlice::V4 { body, desc_crc, at })
        }
    }
}

fn decode_sharded_impl(
    buf: &[u8],
    tolerate: bool,
    threads: usize,
) -> Result<(ShardedTrace, DecodeStats), DecodeError> {
    let mut cur = Cursor::new(buf);
    if cur.remaining() < 6 {
        return Err(DecodeError::Truncated);
    }
    let magic = cur.take(4)?;
    if magic != &MAGIC[..] {
        return Err(DecodeError::BadMagic);
    }
    let version = Version::parse(cur.get_u16_le()?)?;

    let mut interner = Interner::new();
    // Interning deduplicates, so a (corrupted or adversarial) payload with
    // repeated table strings would otherwise leave record ids pointing past
    // the rebuilt table; map payload indices to interned ids explicitly.
    // Every string takes at least its one-byte length, which bounds the
    // reservations.
    let url_count = to_usize(cur.get_varint()?, DecodeError::TableOverflow)?;
    let mut url_map = Vec::with_capacity(url_count.min(cur.remaining()));
    for _ in 0..url_count {
        let s = get_string(&mut cur)?;
        url_map.push(
            interner
                .try_intern_url(&s)
                .map_err(|_| DecodeError::TableOverflow)?,
        );
    }
    let ua_count = to_usize(cur.get_varint()?, DecodeError::TableOverflow)?;
    let mut ua_map = Vec::with_capacity(ua_count.min(cur.remaining()));
    for _ in 0..ua_count {
        let s = get_string(&mut cur)?;
        ua_map.push(
            interner
                .try_intern_ua(&s)
                .map_err(|_| DecodeError::TableOverflow)?,
        );
    }

    let mut stats = DecodeStats::default();

    match version {
        Version::V1 | Version::V2 => {
            // Pre-framing formats: one undelimited record stream.
            let record_count = to_usize(cur.get_varint()?, DecodeError::Truncated)?;
            let mut records =
                Vec::with_capacity(record_count.min(version.max_records(cur.remaining())));
            let mut prev_time: i64 = 0;
            for decoded in 0..record_count {
                let record_at = cur.pos();
                match get_record(&mut cur, version, &mut prev_time, &url_map, &ua_map) {
                    Ok(record) => records.push(record),
                    Err(e) => {
                        if !tolerate {
                            return Err(e);
                        }
                        // The stream is undelimited, so record boundaries past
                        // a bad record are unknowable; keep the decoded prefix.
                        let (dropped, clamped) = clamp_claim(
                            record_count.saturating_sub(decoded),
                            version.max_records(buf.len().saturating_sub(record_at)),
                        );
                        stats.records_dropped = dropped;
                        stats.frames_header_damaged = u64::from(clamped);
                        stats.note_error(count_u64(record_at));
                        break;
                    }
                }
            }
            stats.records_decoded = count_u64(records.len());
            return Ok((ShardedTrace::from_parts(interner, vec![records]), stats));
        }
        // Framed formats fall through to the shared slice-then-fan-out path.
        Version::V3 | Version::V4 => {}
    }

    // Framed formats. First a cheap sequential pass over frame headers
    // slices the buffer — truncation here loses the cut frame and every
    // later one (frame boundaries are gone).
    let shard_count = to_usize(cur.get_varint()?, DecodeError::Truncated)?;
    let mut slices = Vec::with_capacity(shard_count.min(cur.remaining().div_ceil(MIN_FRAME_BYTES)));
    let mut truncation: Option<usize> = None;
    for _ in 0..shard_count {
        let frame_at = cur.pos();
        match slice_frame(&mut cur, version) {
            Ok(slice) => slices.push(slice),
            Err(e) => {
                if !tolerate {
                    return Err(e);
                }
                truncation = Some(frame_at);
                break;
            }
        }
    }

    // Frames decode independently (time deltas reset per frame), so the
    // record-level work fans out on the exec pool.
    let outcomes =
        jcdn_exec::scatter_gather_labeled(
            "codec.decode",
            slices.len(),
            threads,
            |i| match slices[i] {
                FrameSlice::V3 {
                    payload,
                    crc,
                    claim,
                    at,
                } => decode_frame_v3(payload, crc, claim, at, i, &url_map, &ua_map),
                FrameSlice::V4 { body, desc_crc, at } => {
                    decode_frame_v4(body, desc_crc, at, i, &url_map, &ua_map)
                }
            },
        );

    // Fold outcomes in shard order, so the strict error (and the first
    // noted offset) match what a sequential decode would report.
    let mut shards = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        if !tolerate {
            if let Some(loss) = outcome.loss {
                return Err(loss.error);
            }
            if outcome.trailing_junk {
                return Err(DecodeError::FrameMismatch);
            }
        }
        if let Some(loss) = &outcome.loss {
            stats.merge(&DecodeStats {
                records_dropped: loss.dropped,
                frames_crc_failed: u64::from(loss.crc_failed),
                frames_header_damaged: u64::from(loss.header_damaged),
                first_error_offset: Some(loss.at),
                ..DecodeStats::default()
            });
        }
        shards.push(outcome.records);
    }
    stats.records_decoded = count_u64(shards.iter().map(Vec::len).sum());
    if let Some(at) = truncation {
        // Only frames that begin in the bytes left count as truncated; a
        // count promising frames of which not one begins is header damage.
        let (truncated, clamped) = clamp_claim(
            shard_count.saturating_sub(shards.len()),
            buf.len().saturating_sub(at).div_ceil(MIN_FRAME_BYTES),
        );
        stats.merge(&DecodeStats {
            frames_truncated: truncated,
            frames_header_damaged: u64::from(clamped && truncated == 0),
            first_error_offset: Some(count_u64(at)),
            ..DecodeStats::default()
        });
    }
    Ok((ShardedTrace::from_parts(interner, shards), stats))
}

/// Clamps a count that no CRC covers to the `fit` items its bytes could
/// hold, so a forged count cannot inflate a tally. Returns the clamped
/// count and whether it was clamped (then the header lied about its
/// bytes).
fn clamp_claim(claim: usize, fit: usize) -> (u64, bool) {
    (count_u64(claim.min(fit)), claim > fit)
}

/// Decodes one v3 frame (interleaved per-record fields). Kept prefix
/// semantics: a CRC-valid frame that dies mid-record keeps the records
/// already decoded.
fn decode_frame_v3(
    payload: &[u8],
    stored_crc: u32,
    claim: usize,
    payload_at: u64,
    shard: usize,
    url_map: &[UrlId],
    ua_map: &[UaId],
) -> FrameOutcome {
    // The v3 record count is outside the CRC, so an inflated count must
    // not inflate the drop tally: clamp it to how many records the bytes
    // could hold.
    if crc32(payload) != stored_crc {
        // The frame is framed, so only *it* is lost; its slot stays (as
        // an empty shard) so shard indices remain stable. The CRC failure
        // already marks the frame lost, so a clamped count adds nothing.
        let (dropped, _) = clamp_claim(claim, Version::V3.max_records(payload.len()));
        return FrameOutcome {
            records: Vec::new(),
            loss: Some(FrameLoss {
                error: DecodeError::BadChecksum { shard },
                at: payload_at,
                dropped,
                crc_failed: true,
                header_damaged: false,
            }),
            trailing_junk: false,
        };
    }
    let mut cur = Cursor::new(payload);
    let mut records = Vec::with_capacity(claim.min(Version::V3.max_records(payload.len())));
    let mut prev_time: i64 = 0;
    for decoded in 0..claim {
        let record_start = cur.pos();
        match get_record(&mut cur, Version::V3, &mut prev_time, url_map, ua_map) {
            Ok(record) => records.push(record),
            Err(e) => {
                let (dropped, clamped) = clamp_claim(
                    claim.saturating_sub(decoded),
                    Version::V3.max_records(payload.len().saturating_sub(record_start)),
                );
                return FrameOutcome {
                    records,
                    loss: Some(FrameLoss {
                        error: e,
                        at: payload_at.saturating_add(count_u64(record_start)),
                        dropped,
                        crc_failed: false,
                        header_damaged: clamped,
                    }),
                    trailing_junk: false,
                };
            }
        }
    }
    FrameOutcome {
        records,
        loss: None,
        trailing_junk: cur.remaining() > 0,
    }
}

/// Parses a v4 frame descriptor: `(record_count, column directory)`.
fn parse_descriptor(cur: &mut Cursor<'_>) -> Result<(usize, [(usize, u32); COLUMNS]), DecodeError> {
    let claim = to_usize(cur.get_varint()?, DecodeError::FrameMismatch)?;
    let mut dir = [(0usize, 0u32); COLUMNS];
    for slot in dir.iter_mut() {
        slot.0 = to_usize(cur.get_varint()?, DecodeError::FrameMismatch)?;
        slot.1 = cur.get_u32_le()?;
    }
    Ok((claim, dir))
}

/// Decodes one columnar v4 frame. All-or-nothing per frame: any CRC
/// failure, directory mismatch, or bad column value drops the frame
/// whole (its shard slot stays, empty).
#[expect(
    clippy::arithmetic_side_effects,
    reason = "the directory check proves desc_len + Σ len == body.len(), so start + len \
              stays within the body, and body_at + body.len() is within the input"
)]
fn decode_frame_v4(
    body: &[u8],
    desc_crc: u32,
    body_at: u64,
    shard: usize,
    url_map: &[UrlId],
    ua_map: &[UaId],
) -> FrameOutcome {
    let lost = |error, at, dropped, crc_failed, header_damaged| FrameOutcome {
        records: Vec::new(),
        loss: Some(FrameLoss {
            error,
            at,
            dropped,
            crc_failed,
            header_damaged,
        }),
        trailing_junk: false,
    };

    let mut cur = Cursor::new(body);
    let (claim, dir) = match parse_descriptor(&mut cur) {
        Ok(parsed) => parsed,
        Err(e) => return lost(e, body_at, 0, false, true),
    };
    let desc_len = cur.pos();
    if crc32(&body[..desc_len]) != desc_crc {
        // The record count itself is untrusted here, so nothing can be
        // added to the record drop tally — the frame loss counter carries
        // the damage report.
        return lost(DecodeError::BadChecksum { shard }, body_at, 0, true, false);
    }

    // The descriptor is now authenticated, so losses below can be tallied
    // exactly — up to what the body could hold, since a CRC-valid
    // descriptor can still be forged.
    let (dropped, clamped) = clamp_claim(claim, Version::V4.max_records(body.len()));
    let mut expected = count_u64(desc_len);
    let mut overflow = false;
    for &(len, _) in &dir {
        match expected.checked_add(count_u64(len)) {
            Some(sum) => expected = sum,
            None => overflow = true,
        }
    }
    if overflow || expected != count_u64(body.len()) {
        return lost(DecodeError::FrameMismatch, body_at, dropped, false, true);
    }

    let mut col_slices: [&[u8]; COLUMNS] = [&[]; COLUMNS];
    let mut start = desc_len;
    for (slot, &(len, col_crc)) in dir.iter().enumerate() {
        let col = &body[start..start + len];
        if crc32(col) != col_crc {
            return lost(
                DecodeError::BadChecksum { shard },
                body_at + count_u64(start),
                dropped,
                true,
                false,
            );
        }
        col_slices[slot] = col;
        start += len;
    }

    match decode_columns(claim, &col_slices, url_map, ua_map) {
        Ok(records) => FrameOutcome {
            records,
            loss: None,
            trailing_junk: false,
        },
        Err(e) => lost(e, body_at + count_u64(desc_len), dropped, false, clamped),
    }
}

/// Requires a column cursor to be fully consumed — trailing bytes mean
/// the column length and its values disagree.
fn column_drained(cur: &Cursor<'_>, what: &'static str) -> Result<(), DecodeError> {
    if cur.remaining() != 0 {
        return Err(DecodeError::BadColumnValue(what));
    }
    Ok(())
}

/// Bulk-decodes the nine columns of a v4 frame into records.
fn decode_columns(
    n: usize,
    cols: &[&[u8]; COLUMNS],
    url_map: &[UrlId],
    ua_map: &[UaId],
) -> Result<Vec<LogRecord>, DecodeError> {
    // Even a CRC-valid descriptor could be adversarial, so bound `n` by
    // the fixed-width columns before any `n`-sized allocation: mmc is
    // exactly one byte per record, flags half a byte.
    if cols[4].len() != n || cols[5].len() != n.div_ceil(2) {
        return Err(DecodeError::BadColumnValue("fixed-width"));
    }

    let mut cur = Cursor::new(cols[0]);
    let mut times = Vec::with_capacity(n);
    let mut prev: i64 = 0;
    for _ in 0..n {
        let delta = unzigzag(cur.get_varint()?);
        prev = prev.checked_add(delta).ok_or(DecodeError::TimeOverflow)?;
        times.push(prev);
    }
    column_drained(&cur, "time")?;

    let mut cur = Cursor::new(cols[1]);
    let clients = get_gv64(&mut cur, n)?;
    column_drained(&cur, "client")?;

    let mut cur = Cursor::new(cols[2]);
    let uas_raw = get_gv32(&mut cur, n)?;
    column_drained(&cur, "ua")?;

    let mut cur = Cursor::new(cols[3]);
    let urls_raw = get_gv32(&mut cur, n)?;
    column_drained(&cur, "url")?;

    let mut cur = Cursor::new(cols[6]);
    let retries = get_retry_column(&mut cur, n)?;
    column_drained(&cur, "retries")?;

    let mut cur = Cursor::new(cols[7]);
    let statuses = get_status_column(&mut cur, n)?;
    column_drained(&cur, "status")?;

    let mut cur = Cursor::new(cols[8]);
    let mut sizes = Vec::with_capacity(n);
    for _ in 0..n {
        sizes.push(cur.get_varint()?);
    }
    column_drained(&cur, "bytes")?;

    let mut records = Vec::with_capacity(n);
    for i in 0..n {
        // 0 means absent; anything else is the UA id plus one.
        let ua = match uas_raw[i].checked_sub(1) {
            None => None,
            Some(raw) => Some(*ua_map.get(index32(raw)).ok_or(DecodeError::DanglingId)?),
        };
        let url = *url_map
            .get(index32(urls_raw[i]))
            .ok_or(DecodeError::DanglingId)?;
        let packed = cols[4][i];
        let flag_byte = cols[5][i >> 1];
        let nibble = if i & 1 == 0 {
            flag_byte & 0x0F
        } else {
            flag_byte >> 4
        };
        let flags =
            RecordFlags::from_bits(nibble).ok_or(DecodeError::BadDiscriminant("flags", nibble))?;
        records.push(LogRecord {
            // Clamped non-negative, so the reinterpretation preserves the value.
            time: SimTime::from_micros(times[i].max(0).cast_unsigned()),
            client: ClientId(clients[i]),
            ua,
            url,
            method: untag_method(packed >> 5)?,
            mime: untag_mime((packed >> 2) & 0x07)?,
            status: statuses[i],
            response_bytes: sizes[i],
            cache: untag_cache(packed & 0x03)?,
            retries: retries[i],
            flags,
        });
    }
    Ok(records)
}

pub(crate) fn method_tag(m: Method) -> u8 {
    match m {
        Method::Get => 0,
        Method::Post => 1,
        Method::Head => 2,
        Method::Put => 3,
        Method::Delete => 4,
    }
}

fn untag_method(v: u8) -> Result<Method, DecodeError> {
    Ok(match v {
        0 => Method::Get,
        1 => Method::Post,
        2 => Method::Head,
        3 => Method::Put,
        4 => Method::Delete,
        _ => return Err(DecodeError::BadDiscriminant("method", v)),
    })
}

pub(crate) fn mime_tag(m: MimeType) -> u8 {
    match m {
        MimeType::Json => 0,
        MimeType::Html => 1,
        MimeType::Css => 2,
        MimeType::JavaScript => 3,
        MimeType::Image => 4,
        MimeType::Video => 5,
        MimeType::Other => 6,
    }
}

fn untag_mime(v: u8) -> Result<MimeType, DecodeError> {
    Ok(match v {
        0 => MimeType::Json,
        1 => MimeType::Html,
        2 => MimeType::Css,
        3 => MimeType::JavaScript,
        4 => MimeType::Image,
        5 => MimeType::Video,
        6 => MimeType::Other,
        _ => return Err(DecodeError::BadDiscriminant("mime", v)),
    })
}

pub(crate) fn cache_tag(c: CacheStatus) -> u8 {
    match c {
        CacheStatus::Hit => 0,
        CacheStatus::Miss => 1,
        CacheStatus::NotCacheable => 2,
    }
}

fn untag_cache(v: u8) -> Result<CacheStatus, DecodeError> {
    Ok(match v {
        0 => CacheStatus::Hit,
        1 => CacheStatus::Miss,
        2 => CacheStatus::NotCacheable,
        _ => return Err(DecodeError::BadDiscriminant("cache", v)),
    })
}

/// An encode failure as the `InvalidInput` I/O error the writers return.
pub(crate) fn encode_io_error(e: EncodeError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string())
}

/// Writes a record stream to a file in the binary format, one frame per
/// slice (see [`encode`]). The stream must be time-sorted; an unsorted
/// one fails with `InvalidInput`.
///
/// The write is durable (write-temp, fsync, rename — see
/// `crate::store::durable_write`): a crash mid-write leaves either the
/// previous file or the new one, never a torn hybrid.
pub fn write_file(records: &RecordStream<'_>, path: &std::path::Path) -> std::io::Result<()> {
    let bytes = encode(records, 1).map_err(encode_io_error)?;
    crate::store::durable_write(path, bytes.to_vec(), "codec.write", jcdn_chaos::handle())
}

/// Serializes one record as a JSON object (JSONL line) with resolved
/// strings.
pub fn record_to_json(trace: &Trace, record: &LogRecord) -> jcdn_json::Value {
    let mut obj = jcdn_json::Map::new();
    obj.insert("time_us", jcdn_json::Value::from(record.time.as_micros()));
    obj.insert("client", jcdn_json::Value::from(record.client.0));
    match record.ua {
        Some(ua) => obj.insert("ua", jcdn_json::Value::from(trace.ua(ua))),
        None => obj.insert("ua", jcdn_json::Value::Null),
    };
    obj.insert("url", jcdn_json::Value::from(trace.url(record.url)));
    obj.insert("method", jcdn_json::Value::from(record.method.to_string()));
    obj.insert("mime", jcdn_json::Value::from(record.mime.as_header()));
    obj.insert("status", jcdn_json::Value::from(u64::from(record.status)));
    obj.insert("bytes", jcdn_json::Value::from(record.response_bytes));
    obj.insert(
        "cache",
        jcdn_json::Value::from(match record.cache {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::NotCacheable => "no-store",
        }),
    );
    obj.insert("retries", jcdn_json::Value::from(u64::from(record.retries)));
    obj.insert("flags", jcdn_json::Value::from(record.flags.to_string()));
    jcdn_json::Value::Object(obj)
}

/// Exports the whole trace as JSONL (one record per line).
pub fn to_jsonl(trace: &Trace) -> String {
    let mut out = String::new();
    for r in trace.records() {
        out.push_str(&jcdn_json::to_string(&record_to_json(trace, r)));
        out.push('\n');
    }
    out
}

#[cfg(test)]
#[expect(
    clippy::arithmetic_side_effects,
    reason = "offsets and sizes of small hand-built test payloads"
)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        let ua = t.intern_ua("okhttp/3.12.1");
        let u1 = t.intern_url("https://api.example/items/1");
        let u2 = t.intern_url("https://api.example/items/2");
        for i in 0..100u64 {
            t.push(LogRecord {
                time: SimTime::from_millis(i * 37),
                client: ClientId(i % 7),
                ua: (i % 3 != 0).then_some(ua),
                url: if i % 2 == 0 { u1 } else { u2 },
                method: if i % 5 == 0 {
                    Method::Post
                } else {
                    Method::Get
                },
                mime: MimeType::Json,
                status: 200,
                response_bytes: 100 + i,
                cache: match i % 3 {
                    0 => CacheStatus::Hit,
                    1 => CacheStatus::Miss,
                    _ => CacheStatus::NotCacheable,
                },
                retries: (i % 4) as u8,
                flags: if i % 11 == 0 {
                    RecordFlags::SERVED_STALE.with(RecordFlags::RETRIED)
                } else {
                    RecordFlags::NONE
                },
            });
        }
        t
    }

    #[test]
    fn crc32_known_vector() {
        // The standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time CRC-32 that slicing-by-16 replaces.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_matches_bytewise_at_every_short_length() {
        let data: Vec<u8> = (0..64u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(11))
            .collect();
        for len in 0..=64 {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bytewise(&data[..len]),
                "len {len}"
            );
        }
    }

    proptest::proptest! {
        #[test]
        fn crc32_matches_bytewise_on_unaligned_buffers(
            data in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..4096),
            offset in 0usize..16,
        ) {
            let data = &data[offset.min(data.len())..];
            proptest::prop_assert_eq!(crc32(data), crc32_bytewise(data));
        }
    }

    #[test]
    fn binary_round_trip() {
        let t = sample_trace();
        let encoded = encode(&t.stream(), 1).unwrap();
        let decoded = decode(&encoded, 1).unwrap().into_trace();
        assert_eq!(decoded.len(), t.len());
        assert_eq!(decoded.url_table(), t.url_table());
        assert_eq!(decoded.ua_table(), t.ua_table());
        assert_eq!(decoded.records(), t.records());
    }

    #[test]
    fn sharded_round_trip_preserves_frames() {
        let sharded = ShardedTrace::from_trace(sample_trace(), 4);
        let encoded = encode(&sharded.stream(), 1).unwrap();
        let decoded = decode(&encoded, 1).unwrap();
        assert_eq!(decoded.shard_count(), 4);
        for i in 0..4 {
            assert_eq!(decoded.shard_records(i), sharded.shard_records(i));
        }
        // Flattening matches the flattened input.
        let flat = decoded.into_trace();
        assert_eq!(flat.records(), sharded.clone().into_trace().records());
    }

    #[test]
    fn parallel_encode_and_decode_match_sequential() {
        let sharded = ShardedTrace::from_trace(sample_trace(), 4);
        let seq = encode(&sharded.stream(), 1).unwrap();
        for threads in [1, 2, 4, 8] {
            let par = encode(&sharded.stream(), threads).unwrap();
            assert_eq!(&par[..], &seq[..], "threads={threads}");
            let decoded = decode(&seq, threads).unwrap();
            assert_eq!(decoded.shard_count(), 4);
            for i in 0..4 {
                assert_eq!(decoded.shard_records(i), sharded.shard_records(i));
            }
        }
    }

    #[test]
    fn parallel_encode_reports_the_sequential_ordering_error() {
        // Disorder inside shard 1 must surface as shard 1's error even
        // when later shards encode concurrently (and would also fail the
        // cross-shard check).
        let mut t = Trace::new();
        let u = t.intern_url("https://h.example/x");
        for &time in &[10u64, 20, 90, 30, 40, 50, 60, 70] {
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
        let (interner, records) = t.into_parts();
        let shards: Vec<Vec<LogRecord>> = records.chunks(2).map(<[_]>::to_vec).collect();
        let sharded = ShardedTrace::from_parts(interner, shards);
        let seq = encode(&sharded.stream(), 1).unwrap_err();
        for threads in [2, 4] {
            assert_eq!(encode(&sharded.stream(), threads).unwrap_err(), seq);
        }
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = Trace::new();
        let decoded = decode(&encode(&t.stream(), 1).unwrap(), 1).unwrap();
        assert!(decoded.is_empty());
        assert_eq!(
            decoded.shard_count(),
            1,
            "an empty slice is one empty frame"
        );
        assert_eq!(decoded.interner().url_count(), 0);
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(decode(b"", 1).unwrap_err(), DecodeError::Truncated);
        assert_eq!(
            decode(b"NOPE\x01\x00", 1).unwrap_err(),
            DecodeError::BadMagic
        );
        assert_eq!(
            decode(b"JCDN\xff\x00", 1).unwrap_err(),
            DecodeError::BadVersion(255)
        );
    }

    /// Offset of frame 0 (its body-length u32) in an encoded v4 file; the
    /// descriptor CRC and body follow at +4 and +8.
    fn first_frame_offset(encoded: &[u8]) -> usize {
        let mut cur = Cursor::new(encoded);
        cur.take(6).unwrap(); // magic + version
        for _ in 0..cur.get_varint().unwrap() {
            get_string(&mut cur).unwrap(); // url table
        }
        for _ in 0..cur.get_varint().unwrap() {
            get_string(&mut cur).unwrap(); // ua table
        }
        cur.get_varint().unwrap(); // shard count
        cur.pos()
    }

    /// Flips the last byte of frame 0's body (inside its final column) so
    /// a column CRC fails while the other frames stay intact.
    fn corrupt_first_frame_payload(encoded: &Bytes) -> Bytes {
        let frame_at = first_frame_offset(encoded);
        let body_len =
            u32::from_le_bytes(encoded[frame_at..frame_at + 4].try_into().unwrap()) as usize;
        let mut bytes = encoded.to_vec();
        bytes[frame_at + 8 + body_len - 1] ^= 0xFF;
        Bytes::from(bytes)
    }

    #[test]
    fn tolerant_decode_of_clean_payload_is_clean() {
        let sharded = ShardedTrace::from_trace(sample_trace(), 4);
        let encoded = encode(&sharded.stream(), 1).unwrap();
        let (decoded, stats) = decode_tolerant(&encoded, 1).unwrap();
        assert!(stats.is_clean(), "{stats:?}");
        assert_eq!(stats.records_decoded, 100);
        assert_eq!(decoded.shard_count(), 4);
        for i in 0..4 {
            assert_eq!(decoded.shard_records(i), sharded.shard_records(i));
        }
    }

    #[test]
    fn tolerant_decode_salvages_frames_around_a_bad_checksum() {
        let sharded = ShardedTrace::from_trace(sample_trace(), 4);
        let encoded = encode(&sharded.stream(), 1).unwrap();
        let corrupted = corrupt_first_frame_payload(&encoded);

        // Strict decode refuses the whole file.
        assert_eq!(
            decode(&corrupted, 1).unwrap_err(),
            DecodeError::BadChecksum { shard: 0 }
        );

        // Tolerant decode loses exactly frame 0 and keeps the rest.
        let lost = sharded.shard_records(0).len() as u64;
        let (decoded, stats) = decode_tolerant(&corrupted, 1).unwrap();
        assert_eq!(stats.frames_crc_failed, 1);
        assert_eq!(stats.frames_truncated, 0);
        assert_eq!(stats.frames_header_damaged, 0);
        assert_eq!(stats.frames_dropped(), 1);
        assert_eq!(stats.records_dropped, lost);
        assert!(
            stats.first_error_offset.is_some(),
            "corruption is localized"
        );
        assert_eq!(stats.records_decoded, 100 - lost);
        assert_eq!(decoded.shard_count(), 4, "dropped frame keeps its slot");
        assert!(decoded.shard_records(0).is_empty());
        for i in 1..4 {
            assert_eq!(decoded.shard_records(i), sharded.shard_records(i));
        }
    }

    #[test]
    fn tolerant_decode_flags_a_corrupt_descriptor_without_over_counting() {
        // Flip the record-count byte at the start of frame 0's descriptor:
        // the descriptor CRC catches it, so the count is untrusted and the
        // drop tally must not echo the corrupted claim.
        let sharded = ShardedTrace::from_trace(sample_trace(), 4);
        let encoded = encode(&sharded.stream(), 1).unwrap();
        let frame_at = first_frame_offset(&encoded);
        let mut corrupted = encoded.to_vec();
        corrupted[frame_at + 8] ^= 0x7F; // record-count varint byte

        assert_eq!(
            decode(&corrupted, 1).unwrap_err(),
            DecodeError::BadChecksum { shard: 0 }
        );
        let encoded_records = sharded.len() as u64;
        let (decoded, stats) = decode_tolerant(&corrupted, 1).unwrap();
        assert_eq!(stats.frames_crc_failed, 1);
        assert_eq!(stats.records_dropped, 0, "untrusted count is not tallied");
        assert!(
            stats.records_decoded + stats.records_dropped <= encoded_records,
            "over-counted: {stats:?}"
        );
        assert!(!stats.is_clean());
        assert_eq!(decoded.shard_count(), 4);
        assert!(decoded.shard_records(0).is_empty());
    }

    #[test]
    fn tolerant_decode_keeps_prefix_of_a_truncated_file() {
        let sharded = ShardedTrace::from_trace(sample_trace(), 4);
        let encoded = encode(&sharded.stream(), 1).unwrap();
        // Cut into the last frame's body.
        let truncated = &encoded[..encoded.len() - 5];

        assert_eq!(decode(truncated, 1).unwrap_err(), DecodeError::Truncated);

        let (decoded, stats) = decode_tolerant(truncated, 1).unwrap();
        assert_eq!(stats.frames_truncated, 1, "only the cut frame is lost");
        assert_eq!(stats.frames_crc_failed, 0);
        assert_eq!(decoded.shard_count(), 3);
        for i in 0..3 {
            assert_eq!(decoded.shard_records(i), sharded.shard_records(i));
        }
    }

    #[test]
    fn tolerant_decode_of_undelimited_stream_keeps_record_prefix() {
        // A v1 payload promising two records but carrying one: the strict
        // decoder errors, the tolerant one keeps the decoded prefix. No
        // byte backs the second record, so it is not tallied as dropped;
        // the count is flagged as header damage instead.
        let mut buf = BytesMut::with_capacity(128);
        buf.put_slice(MAGIC);
        buf.put_u16_le(1);
        put_varint(&mut buf, 1); // url table
        put_string(&mut buf, "https://legacy.example/v1");
        put_varint(&mut buf, 0); // ua table
        put_varint(&mut buf, 2); // record count (one short)
        put_varint(&mut buf, zigzag(1_000_000));
        put_varint(&mut buf, 7); // client
        put_varint(&mut buf, 0); // ua absent
        put_varint(&mut buf, 0); // url id
        buf.put_u8(0); // method = GET
        buf.put_u8(0); // mime = JSON
        buf.put_u8(0); // cache = hit
        put_varint(&mut buf, 200); // status
        put_varint(&mut buf, 512); // bytes
        let bytes = buf.freeze();

        assert_eq!(decode(&bytes, 1).unwrap_err(), DecodeError::Truncated);
        let (decoded, stats) = decode_tolerant(&bytes, 1).unwrap();
        assert_eq!(stats.records_decoded, 1);
        assert_eq!(stats.records_dropped, 0);
        assert_eq!(stats.frames_header_damaged, 1);
        assert!(!stats.is_clean());
        let trace = decoded.into_trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.records()[0].client, ClientId(7));
    }

    #[test]
    fn version_1_traces_decode_with_zeroed_resilience_fields() {
        // Hand-build a version-1 payload: one URL, no UAs, one record laid
        // out without the retry/flags bytes that version 2 added.
        let mut buf = BytesMut::with_capacity(128);
        buf.put_slice(MAGIC);
        buf.put_u16_le(1);
        put_varint(&mut buf, 1); // url table
        put_string(&mut buf, "https://legacy.example/v1");
        put_varint(&mut buf, 0); // ua table
        put_varint(&mut buf, 1); // record count
        put_varint(&mut buf, zigzag(1_500_000)); // time delta
        put_varint(&mut buf, 42); // client
        put_varint(&mut buf, 0); // ua absent
        put_varint(&mut buf, 0); // url id
        buf.put_u8(0); // method = GET
        buf.put_u8(0); // mime = JSON
        buf.put_u8(1); // cache = Miss
        put_varint(&mut buf, 503); // status
        put_varint(&mut buf, 2048); // bytes
        let decoded = decode(&buf.freeze(), 1)
            .expect("v1 payload decodes")
            .into_trace();
        assert_eq!(decoded.len(), 1);
        let r = decoded.records()[0];
        assert_eq!(r.time, SimTime::from_micros(1_500_000));
        assert_eq!(r.client, ClientId(42));
        assert_eq!(r.status, 503);
        assert_eq!(r.retries, 0, "v1 records carry no retry count");
        assert_eq!(r.flags, RecordFlags::NONE, "v1 records carry no flags");
    }

    #[test]
    fn version_2_traces_decode_into_a_single_shard() {
        // Hand-build a version-2 payload (record stream without frames).
        let mut buf = BytesMut::with_capacity(128);
        buf.put_slice(MAGIC);
        buf.put_u16_le(2);
        put_varint(&mut buf, 1); // url table
        put_string(&mut buf, "https://legacy.example/v2");
        put_varint(&mut buf, 0); // ua table
        put_varint(&mut buf, 2); // record count
        for (delta, retries) in [(1_000_000i64, 1u8), (500_000, 2)] {
            put_varint(&mut buf, zigzag(delta));
            put_varint(&mut buf, 7); // client
            put_varint(&mut buf, 0); // ua absent
            put_varint(&mut buf, 0); // url id
            buf.put_u8(0); // method
            buf.put_u8(0); // mime
            buf.put_u8(1); // cache
            buf.put_u8(retries);
            buf.put_u8(RecordFlags::RETRIED.bits());
            put_varint(&mut buf, 502); // status
            put_varint(&mut buf, 10); // bytes
        }
        let sharded = decode(&buf.freeze(), 1).expect("v2 payload decodes");
        assert_eq!(
            sharded.shard_count(),
            1,
            "pre-framing formats get one shard"
        );
        assert_eq!(sharded.len(), 2);
        let r = sharded.shard_records(0)[1];
        assert_eq!(r.time, SimTime::from_micros(1_500_000));
        assert_eq!(r.retries, 2);
        assert_eq!(r.flags, RecordFlags::RETRIED);
    }

    /// Single-record v4 trace plus the offset of frame 0. URL is 19
    /// bytes; the tables span magic 4 + version 2 + url count 1 + url
    /// len 1 + url 19 + ua count 1 = 28, then the shard-count varint.
    fn one_record_encoding() -> (Vec<u8>, usize) {
        let mut t = Trace::new();
        let u = t.intern_url("https://h.example/x");
        t.push(LogRecord {
            time: SimTime::from_secs(1),
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
        let data = encode(&t.stream(), 1).unwrap().to_vec();
        let frame_at = first_frame_offset(&data);
        assert_eq!(frame_at, 29, "layout drifted; update this helper");
        (data, frame_at)
    }

    /// Absolute `(offset, length)` of each column in a single-frame file.
    fn column_offsets(data: &[u8], frame_at: usize) -> Vec<(usize, usize)> {
        let body_at = frame_at + 8;
        let mut cur = Cursor::new(&data[body_at..]);
        cur.get_varint().unwrap(); // record count
        let mut lens = Vec::new();
        for _ in 0..COLUMNS {
            lens.push(usize::try_from(cur.get_varint().unwrap()).unwrap());
            cur.get_u32_le().unwrap();
        }
        let mut at = body_at + cur.pos();
        lens.into_iter()
            .map(|len| {
                let start = at;
                at += len;
                (start, len)
            })
            .collect()
    }

    /// Recomputes every CRC of a single-frame v4 file after test surgery
    /// on a column, so corruption reaches the value-level checks.
    fn restamp_single_frame(data: &mut [u8], frame_at: usize) {
        let body_at = frame_at + 8;
        let body_len =
            u32::from_le_bytes(data[frame_at..frame_at + 4].try_into().unwrap()) as usize;
        let (desc_len, crc_fields) = {
            let body = &data[body_at..body_at + body_len];
            let mut cur = Cursor::new(body);
            cur.get_varint().unwrap();
            let mut fields = Vec::new(); // (crc field offset in body, column length)
            for _ in 0..COLUMNS {
                let len = usize::try_from(cur.get_varint().unwrap()).unwrap();
                fields.push((cur.pos(), len));
                cur.get_u32_le().unwrap();
            }
            (cur.pos(), fields)
        };
        let mut col_at = body_at + desc_len;
        for (crc_field, len) in crc_fields {
            let crc = crc32(&data[col_at..col_at + len]);
            data[body_at + crc_field..body_at + crc_field + 4].copy_from_slice(&crc.to_le_bytes());
            col_at += len;
        }
        let desc_crc = crc32(&data[body_at..body_at + desc_len]);
        data[frame_at + 4..frame_at + 8].copy_from_slice(&desc_crc.to_le_bytes());
    }

    #[test]
    fn rejects_unknown_method_tag() {
        let (mut data, frame_at) = one_record_encoding();
        // Column 4 packs method/mime/cache; 0xFF decodes to method tag 7.
        let (mmc_at, mmc_len) = column_offsets(&data, frame_at)[4];
        assert_eq!(mmc_len, 1);
        data[mmc_at] = 0xFF;
        restamp_single_frame(&mut data, frame_at);
        assert_eq!(
            decode(&data, 1).unwrap_err(),
            DecodeError::BadDiscriminant("method", 7)
        );
    }

    #[test]
    fn corrupted_frame_fails_its_checksum() {
        let (mut data, _) = one_record_encoding();
        // Flip a column byte, leave the CRCs stale.
        let last = data.len() - 1;
        data[last] ^= 0xFF;
        assert_eq!(
            decode(&data, 1).unwrap_err(),
            DecodeError::BadChecksum { shard: 0 }
        );
    }

    #[test]
    fn frame_with_extra_payload_is_rejected() {
        let (mut data, frame_at) = one_record_encoding();
        // Append a stray byte and grow the declared body length: the
        // CRC-valid descriptor no longer accounts for every body byte.
        data.push(0x00);
        let body_len = u32::try_from(data.len() - frame_at - 8).unwrap();
        data[frame_at..frame_at + 4].copy_from_slice(&body_len.to_le_bytes());
        assert_eq!(decode(&data, 1).unwrap_err(), DecodeError::FrameMismatch);
        let (decoded, stats) = decode_tolerant(&data, 1).unwrap();
        assert_eq!(stats.frames_header_damaged, 1);
        assert_eq!(stats.records_dropped, 1, "authenticated count is tallied");
        assert!(decoded.shard_records(0).is_empty());
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let full = encode(&sample_trace().stream(), 1).unwrap();
        // Chop at a few byte positions spread across the buffer; every
        // prefix must fail cleanly, never panic.
        for cut in [7, 20, full.len() / 2, full.len() - 1] {
            let r = decode(&full[..cut], 1);
            assert!(r.is_err(), "prefix of {cut} bytes should fail");
        }
    }

    #[test]
    fn sparse_retry_column_round_trips() {
        let retries = [0u8, 3, 0, 0, 7, 1, 0];
        let mut col = BytesMut::with_capacity(32);
        put_retry_column(&mut col, &retries);
        let bytes = col.freeze();
        let mut cur = Cursor::new(&bytes);
        assert_eq!(get_retry_column(&mut cur, retries.len()).unwrap(), retries);
        assert_eq!(cur.remaining(), 0);
    }

    #[test]
    fn sparse_retry_column_rejects_bad_exception_indices() {
        // An exception index past the record count.
        let mut col = BytesMut::with_capacity(8);
        put_varint(&mut col, 1);
        put_varint(&mut col, 9); // index 9 with n = 2
        col.put_u8(1);
        let bytes = col.freeze();
        let mut cur = Cursor::new(&bytes);
        assert_eq!(
            get_retry_column(&mut cur, 2).unwrap_err(),
            DecodeError::BadColumnValue("retries")
        );
        // A zero delta after the first exception (a stuck index).
        let mut col = BytesMut::with_capacity(8);
        put_varint(&mut col, 2);
        put_varint(&mut col, 0);
        col.put_u8(1);
        put_varint(&mut col, 0); // delta 0 would overwrite index 0
        col.put_u8(2);
        let bytes = col.freeze();
        let mut cur = Cursor::new(&bytes);
        assert_eq!(
            get_retry_column(&mut cur, 4).unwrap_err(),
            DecodeError::BadColumnValue("retries")
        );
    }

    #[test]
    fn status_dictionary_rejects_out_of_range_indices() {
        let mut col = BytesMut::with_capacity(8);
        put_varint(&mut col, 1); // dict: [200]
        col.put_u16_le(200);
        col.put_u8(1); // index 1 ≥ dict length
        let bytes = col.freeze();
        let mut cur = Cursor::new(&bytes);
        assert_eq!(
            get_status_column(&mut cur, 1).unwrap_err(),
            DecodeError::BadColumnValue("status")
        );
    }

    #[test]
    fn jsonl_lines_parse_and_carry_fields() {
        let t = sample_trace();
        let jsonl = to_jsonl(&t);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), t.len());
        let v = jcdn_json::parse(lines[0]).unwrap();
        // Record 0 has i % 5 == 0 → POST.
        assert_eq!(v.get("method").unwrap().as_str(), Some("POST"));
        assert_eq!(v.get("mime").unwrap().as_str(), Some("application/json"));
        assert_eq!(
            v.get("url").unwrap().as_str(),
            Some("https://api.example/items/1")
        );
        assert_eq!(v.get("cache").unwrap().as_str(), Some("hit"));
        // Record 0 has i % 3 == 0 → UA absent.
        assert!(v.get("ua").unwrap().is_null());
        // Record 0 has i % 11 == 0 → stale+retried flags, retries = 0.
        assert_eq!(v.get("retries").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("flags").unwrap().as_str(), Some("stale,retried"));
    }

    #[test]
    fn file_round_trip() {
        let t = sample_trace();
        let dir = std::env::temp_dir().join("jcdn-codec-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jcdn");
        write_file(&t.stream(), &path).unwrap();
        let back = decode(&std::fs::read(&path).unwrap(), 1).unwrap();
        assert_eq!(back.into_trace().records(), t.records());
        // A sharded stream is written one frame per shard.
        let sharded = ShardedTrace::from_trace(t, 3);
        write_file(&sharded.stream(), &path).unwrap();
        let back = decode(&std::fs::read(&path).unwrap(), 1).unwrap();
        assert_eq!(back.shard_count(), 3);
        assert_eq!(back.len(), sharded.len());
        std::fs::remove_file(&path).ok();
        // An unsorted stream fails with InvalidInput and writes nothing.
        let (interner, mut records) = sharded.into_trace().into_parts();
        records.reverse();
        let unsorted = Trace::from_parts(interner, records);
        let err = write_file(&unsorted.stream(), &path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(!path.exists());
    }

    #[test]
    fn unsorted_trace_is_rejected_with_a_typed_error() {
        let mut t = Trace::new();
        let u = t.intern_url("https://h.example/x");
        for &time in &[50u64, 10, 90, 0, 60] {
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
        assert_eq!(
            encode(&t.stream(), 1).unwrap_err(),
            EncodeError::OutOfOrder {
                index: 1,
                prev: SimTime::from_secs(50),
                next: SimTime::from_secs(10),
            }
        );
        // Sorting repairs the trace and it round-trips.
        t.sort_by_time();
        let decoded = decode(&encode(&t.stream(), 1).unwrap(), 1).unwrap();
        assert_eq!(decoded.into_trace().records(), t.records());
    }

    proptest! {
        #[test]
        fn varints_round_trip(v in any::<u64>()) {
            let mut buf = BytesMut::with_capacity(10);
            put_varint(&mut buf, v);
            let bytes = buf.freeze();
            let mut cur = Cursor::new(&bytes);
            prop_assert_eq!(cur.get_varint().unwrap(), v);
            prop_assert_eq!(cur.remaining(), 0);
        }

        #[test]
        fn corrupt_ten_byte_varints_never_decode_silently(
            prefix in prop::collection::vec(any::<u8>(), 9),
            last in any::<u8>(),
        ) {
            // Force continuation bits on the first nine bytes, then try
            // every possible tenth byte: anything carrying bits beyond
            // value bit 63 must error, never silently truncate.
            let mut data: Vec<u8> = prefix.iter().map(|b| b | 0x80).collect();
            data.push(last);
            let mut cur = Cursor::new(&data);
            let result = cur.get_varint();
            if last & !0x01 != 0 {
                prop_assert_eq!(result, Err(DecodeError::VarintOverflow));
            } else {
                prop_assert!(result.is_ok(), "0x00/0x01 are in-range tenth bytes");
            }
        }

        #[test]
        fn group_varint64_round_trips(vals in prop::collection::vec(any::<u64>(), 0..50)) {
            let mut col = BytesMut::with_capacity(512);
            put_gv64(&mut col, &vals);
            let bytes = col.freeze();
            let mut cur = Cursor::new(&bytes);
            prop_assert_eq!(get_gv64(&mut cur, vals.len()).unwrap(), vals);
            prop_assert_eq!(cur.remaining(), 0, "encoder and decoder agree on width");
        }

        #[test]
        fn group_varint32_round_trips(vals in prop::collection::vec(any::<u32>(), 0..50)) {
            let mut col = BytesMut::with_capacity(256);
            put_gv32(&mut col, &vals);
            let bytes = col.freeze();
            let mut cur = Cursor::new(&bytes);
            prop_assert_eq!(get_gv32(&mut cur, vals.len()).unwrap(), vals);
            prop_assert_eq!(cur.remaining(), 0, "encoder and decoder agree on width");
        }

        #[test]
        fn status_dictionary_round_trips(vals in prop::collection::vec(any::<u16>(), 0..300)) {
            let mut col = BytesMut::with_capacity(1024);
            put_status_column(&mut col, &vals);
            let bytes = col.freeze();
            let mut cur = Cursor::new(&bytes);
            prop_assert_eq!(get_status_column(&mut cur, vals.len()).unwrap(), vals);
            prop_assert_eq!(cur.remaining(), 0);
        }
    }
}
