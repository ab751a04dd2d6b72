//! Durable, resumable on-disk trace store.
//!
//! The codec (see [`crate::codec`]) defines what trace bytes look like;
//! this module defines how they reach disk without lying about it. Three
//! guarantees, forming the crash-safety contract (DESIGN.md §13):
//!
//! 1. **Atomic visibility** — [`durable_write`] publishes every file via
//!    write-temp, fsync, rename. A reader sees the old content or the new
//!    content, never a torn hybrid, no matter where a crash lands.
//! 2. **Staged shards with a signed manifest** — a run writes each shard
//!    frame to a staging directory and records its byte length, record
//!    count, and CRC-32 in a [`ShardIndex`] sitting next to the final
//!    file. The index is rewritten (atomically) after every commit, so at
//!    any kill point it describes exactly the shards that are safely on
//!    disk.
//! 3. **Byte-identical resume** — the final file is assembled by pure
//!    concatenation: `table prologue + varint(shard_count) + frames`.
//!    Because a shard frame's bytes do not depend on which run encoded it
//!    (time deltas reset per frame), a resumed run that recomputes only
//!    the missing shards produces the *same bytes* as an uninterrupted
//!    run — the property `--resume` tests assert, not merely equivalent
//!    records.
//!
//! Fault injection threads through every write as a
//! [`jcdn_chaos::Chaos`] handle. Production call sites pass
//! [`jcdn_chaos::handle()`] (a no-op unless a test plan is installed);
//! unit tests pass a plan directly.
//!
//! On-disk layout for a store rooted at `out.jcdn`:
//!
//! ```text
//! out.jcdn              final trace file (appears atomically at finalize)
//! out.jcdn.idx          JSON shard index (kept after finalize, complete=true)
//! out.jcdn.staging/     per-run staging dir (removed after finalize)
//!   tables.bin          codec prologue: magic + version + string tables
//!   shard-0000.bin      one full codec v4 columnar frame per shard
//!   ...
//! ```

use std::io::{self, Write};
use std::path::{Path, PathBuf};

use bytes::{BufMut, BytesMut};
use jcdn_chaos::Chaos;

use crate::codec::{self, DecodeStats};
use crate::interner::Interner;
use crate::record::LogRecord;
use crate::sharded::ShardedTrace;
use crate::time::SimTime;

/// Writes `bytes` to `path` atomically and durably: the data goes to a
/// sibling `*.tmp` file, is fsynced, and is renamed over `path`; the
/// parent directory is then fsynced (best-effort — not every filesystem
/// supports it) so the rename itself survives a crash. The `label` names
/// this write site for fault injection.
pub fn durable_write(
    path: &Path,
    mut bytes: Vec<u8>,
    label: &str,
    chaos: &dyn Chaos,
) -> io::Result<()> {
    chaos
        .on_write(label, &mut bytes)
        .map_err(|e| io::Error::other(e.to_string()))?;
    let tmp = sibling(path, ".tmp");
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Ok(dir) = std::fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
    }
    Ok(())
}

/// `path` with `suffix` appended to its file name (not its extension).
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(suffix);
    path.with_file_name(name)
}

/// The shard index path for a store rooted at `final_path`.
pub fn index_path(final_path: &Path) -> PathBuf {
    sibling(final_path, ".idx")
}

/// The staging directory for a store rooted at `final_path`.
pub fn staging_dir(final_path: &Path) -> PathBuf {
    sibling(final_path, ".staging")
}

/// What the index records about one committed staged file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardEntry {
    /// Records in the shard (0 for the table prologue).
    pub records: u64,
    /// Staged file size in bytes.
    pub bytes: u64,
    /// CRC-32 of the whole staged file.
    pub crc: u32,
}

impl ShardEntry {
    fn describes(&self, data: &[u8]) -> bool {
        self.bytes == codec::len_u64(data.len()) && self.crc == codec::crc32(data)
    }
}

/// The per-run shard index: which staged pieces are safely on disk, and
/// the run parameters they belong to. Serialized as JSON next to the
/// final file and rewritten atomically after every commit.
#[derive(Clone, Debug)]
pub struct ShardIndex {
    /// Codec format version the staged frames use.
    pub codec_version: u16,
    /// Digest of the generation parameters (seed, preset, shard count,
    /// fault windows, …) so a resume never splices shards from a
    /// different run.
    pub params_digest: u64,
    /// Shards the run will produce.
    pub shard_count: usize,
    /// True once the final file has been assembled and published.
    pub complete: bool,
    /// The committed table prologue, if any.
    pub tables: Option<ShardEntry>,
    /// One slot per shard; `Some` once that shard's frame is committed.
    pub shards: Vec<Option<ShardEntry>>,
}

impl ShardIndex {
    fn new(shard_count: usize, params_digest: u64) -> ShardIndex {
        ShardIndex {
            codec_version: codec::VERSION,
            params_digest,
            shard_count,
            complete: false,
            tables: None,
            shards: vec![None; shard_count],
        }
    }

    fn to_json(&self) -> jcdn_json::Value {
        let entry = |e: &ShardEntry| {
            let mut m = jcdn_json::Map::new();
            m.insert("records", jcdn_json::Value::from(e.records));
            m.insert("bytes", jcdn_json::Value::from(e.bytes));
            m.insert("crc", jcdn_json::Value::from(u64::from(e.crc)));
            jcdn_json::Value::Object(m)
        };
        let mut root = jcdn_json::Map::new();
        root.insert(
            "codec_version",
            jcdn_json::Value::from(u64::from(self.codec_version)),
        );
        // Hex, not a JSON number: a 64-bit digest must survive parsers
        // that read numbers as f64.
        root.insert(
            "params_digest",
            jcdn_json::Value::from(format!("{:016x}", self.params_digest)),
        );
        root.insert("shard_count", jcdn_json::Value::from(self.shard_count));
        root.insert("complete", jcdn_json::Value::Bool(self.complete));
        root.insert(
            "tables",
            self.tables.as_ref().map_or(jcdn_json::Value::Null, &entry),
        );
        root.insert(
            "shards",
            jcdn_json::Value::Array(
                self.shards
                    .iter()
                    .map(|s| s.as_ref().map_or(jcdn_json::Value::Null, &entry))
                    .collect(),
            ),
        );
        jcdn_json::Value::Object(root)
    }

    fn from_json(v: &jcdn_json::Value) -> Option<ShardIndex> {
        let entry = |v: &jcdn_json::Value| -> Option<Option<ShardEntry>> {
            if v.is_null() {
                return Some(None);
            }
            Some(Some(ShardEntry {
                records: v.get("records")?.as_u64()?,
                bytes: v.get("bytes")?.as_u64()?,
                crc: u32::try_from(v.get("crc")?.as_u64()?).ok()?,
            }))
        };
        let shards = v
            .get("shards")?
            .as_array()?
            .iter()
            .map(entry)
            .collect::<Option<Vec<_>>>()?;
        let shard_count = usize::try_from(v.get("shard_count")?.as_u64()?).ok()?;
        if shards.len() != shard_count {
            return None;
        }
        Some(ShardIndex {
            codec_version: u16::try_from(v.get("codec_version")?.as_u64()?).ok()?,
            params_digest: u64::from_str_radix(v.get("params_digest")?.as_str()?, 16).ok()?,
            shard_count,
            complete: matches!(v.get("complete")?, jcdn_json::Value::Bool(true)),
            tables: entry(v.get("tables")?)?,
            shards,
        })
    }

    /// Loads an index file; `None` when it is missing or unreadable (a
    /// damaged index simply means nothing can be trusted for reuse).
    pub fn load(path: &Path) -> Option<ShardIndex> {
        let text = std::fs::read_to_string(path).ok()?;
        ShardIndex::from_json(&jcdn_json::parse(&text).ok()?)
    }

    fn save(&self, path: &Path, chaos: &dyn Chaos) -> io::Result<()> {
        let text = jcdn_json::to_string_pretty(&self.to_json());
        durable_write(path, text.into_bytes(), "store.index", chaos)
    }
}

fn shard_file(staging: &Path, i: usize) -> PathBuf {
    staging.join(format!("shard-{i:04}.bin"))
}

fn tables_file(staging: &Path) -> PathBuf {
    staging.join("tables.bin")
}

/// Reads a staged file and checks it against its index entry.
fn verified_read(path: &Path, entry: &ShardEntry) -> Option<Vec<u8>> {
    let data = std::fs::read(path).ok()?;
    entry.describes(&data).then_some(data)
}

/// A crash-safe writer for one sharded trace file.
///
/// Commit the table prologue once, then each shard frame in shard order;
/// every commit is durable and indexed before the writer moves on, so a
/// kill at any point leaves a resumable run. [`finalize`](Self::finalize)
/// re-verifies everything staged and publishes the final file atomically.
pub struct StoreWriter<'c> {
    final_path: PathBuf,
    index_path: PathBuf,
    staging: PathBuf,
    index: ShardIndex,
    chaos: &'c dyn Chaos,
    reused: u64,
    already_complete: bool,
}

impl<'c> StoreWriter<'c> {
    /// Opens a store for writing `shard_count` shards.
    ///
    /// With `resume` set, an existing index whose codec version, params
    /// digest, and shard count all match is honored: staged files are
    /// verified against their entries and damaged or missing ones lose
    /// their entry (the caller recomputes exactly those). An index from
    /// different parameters — or no index — starts a fresh run, clearing
    /// any stale staging.
    pub fn open(
        final_path: &Path,
        shard_count: usize,
        params_digest: u64,
        resume: bool,
        chaos: &'c dyn Chaos,
    ) -> io::Result<StoreWriter<'c>> {
        let index_path = index_path(final_path);
        let staging = staging_dir(final_path);
        if resume {
            if let Some(mut index) = ShardIndex::load(&index_path) {
                let matches = index.codec_version == codec::VERSION
                    && index.params_digest == params_digest
                    && index.shard_count == shard_count;
                if matches {
                    if index.complete && final_path.exists() {
                        return Ok(StoreWriter {
                            final_path: final_path.to_path_buf(),
                            index_path,
                            staging,
                            index,
                            chaos,
                            reused: 0,
                            already_complete: true,
                        });
                    }
                    // Trust nothing the staging dir can't back up.
                    if let Some(entry) = index.tables {
                        if verified_read(&tables_file(&staging), &entry).is_none() {
                            index.tables = None;
                        }
                    }
                    for i in 0..index.shards.len() {
                        if let Some(entry) = index.shards[i] {
                            if verified_read(&shard_file(&staging, i), &entry).is_none() {
                                index.shards[i] = None;
                            }
                        }
                    }
                    index.complete = false;
                    std::fs::create_dir_all(&staging)?;
                    index.save(&index_path, chaos)?;
                    return Ok(StoreWriter {
                        final_path: final_path.to_path_buf(),
                        index_path,
                        staging,
                        index,
                        chaos,
                        reused: 0,
                        already_complete: false,
                    });
                }
            }
        }
        if staging.exists() {
            std::fs::remove_dir_all(&staging)?;
        }
        std::fs::create_dir_all(&staging)?;
        let index = ShardIndex::new(shard_count, params_digest);
        index.save(&index_path, chaos)?;
        Ok(StoreWriter {
            final_path: final_path.to_path_buf(),
            index_path,
            staging,
            index,
            chaos,
            reused: 0,
            already_complete: false,
        })
    }

    /// True when a resume found the run already finalized; every commit
    /// and [`finalize`](Self::finalize) becomes a no-op, leaving the
    /// published file untouched.
    pub fn already_complete(&self) -> bool {
        self.already_complete
    }

    /// True when shard `i`'s frame is committed and verified, i.e. the
    /// caller may skip recomputing it.
    pub fn shard_committed(&self, i: usize) -> bool {
        self.already_complete || self.index.shards.get(i).is_some_and(Option::is_some)
    }

    /// Shards reused from a previous run instead of rewritten.
    pub fn shards_reused(&self) -> u64 {
        self.reused
    }

    /// Notes that the caller skipped shard `i` because it was already
    /// committed (for the `store.shards_reused` counter).
    pub fn note_reused(&mut self, i: usize) {
        debug_assert!(self.shard_committed(i));
        self.reused += 1;
    }

    /// Commits the table prologue (idempotent: a verified staged copy
    /// with the same bytes is kept as-is).
    pub fn commit_tables(&mut self, tables: &[u8]) -> io::Result<()> {
        if self.already_complete {
            return Ok(());
        }
        if let Some(entry) = &self.index.tables {
            if entry.describes(tables) {
                return Ok(());
            }
        }
        durable_write(
            &tables_file(&self.staging),
            tables.to_vec(),
            "store.tables",
            self.chaos,
        )?;
        self.index.tables = Some(ShardEntry {
            records: 0,
            bytes: codec::len_u64(tables.len()),
            crc: codec::crc32(tables),
        });
        self.index.save(&self.index_path, self.chaos)
    }

    /// Commits the table prologue for `interner` (idempotent).
    pub fn commit_interner(&mut self, interner: &Interner) -> io::Result<()> {
        self.commit_tables(&codec::encode_tables(interner))
    }

    /// Encodes and durably commits shard `i`, or reuses a verified staged
    /// copy from a previous run. `last_time` / `index_base` thread the
    /// codec's cross-shard time-ordering check through successive calls
    /// (start both at `None` / `0` and pass the same variables for every
    /// shard, in shard order). Returns `true` when the shard was encoded
    /// and written, `false` when the staged copy was reused.
    pub fn write_shard(
        &mut self,
        i: usize,
        records: &[LogRecord],
        last_time: &mut Option<SimTime>,
        index_base: &mut usize,
    ) -> io::Result<bool> {
        if self.shard_committed(i) {
            self.note_reused(i);
            if let Some(last) = records.last() {
                *last_time = Some(last.time);
            }
            *index_base += records.len();
            return Ok(false);
        }
        let frame = codec::encode_frame(records, *index_base, last_time, i)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        *index_base += records.len();
        self.commit_shard(i, &frame.bytes, frame.records)?;
        Ok(true)
    }

    /// Encodes every uncommitted shard on the exec pool, then commits
    /// them durably in shard order. Byte-identical to calling
    /// [`StoreWriter::write_shard`] for each shard in turn: encoding is
    /// deterministic per shard once its cross-shard ordering seed is
    /// fixed, and the commit loop below preserves the sequential write
    /// order that the crash-safety contract (and the chaos harness)
    /// observes. `shards` must be every shard of the run, in order.
    pub fn write_shards(&mut self, shards: &[&[LogRecord]], threads: usize) -> io::Result<()> {
        let (bases, prevs) = codec::shard_bases(shards);
        let todo: Vec<usize> = (0..shards.len())
            .filter(|&i| !self.shard_committed(i))
            .collect();
        let frames = jcdn_exec::scatter_gather_labeled("store.encode", todo.len(), threads, |k| {
            let i = todo[k];
            let mut last_time = prevs[i];
            codec::encode_frame(shards[i], bases[i], &mut last_time, i)
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let mut fresh = frames.into_iter();
        for i in 0..shards.len() {
            if self.shard_committed(i) {
                self.note_reused(i);
            } else {
                // todo and this loop walk the same uncommitted indices in
                // the same order, so the iterator cannot run dry.
                let frame = fresh
                    .next()
                    .ok_or_else(|| io::Error::other("store.encode produced too few frames"))?;
                self.commit_shard(i, &frame.bytes, frame.records)?;
            }
        }
        Ok(())
    }

    /// Commits shard `i`'s frame durably and records it in the index.
    pub fn commit_shard(&mut self, i: usize, frame: &[u8], records: u64) -> io::Result<()> {
        if self.already_complete {
            return Ok(());
        }
        durable_write(
            &shard_file(&self.staging, i),
            frame.to_vec(),
            "store.shard",
            self.chaos,
        )?;
        self.index.shards[i] = Some(ShardEntry {
            records,
            bytes: codec::len_u64(frame.len()),
            crc: codec::crc32(frame),
        });
        self.index.save(&self.index_path, self.chaos)
    }

    /// Verifies every staged piece against the index, assembles the final
    /// file by concatenation, publishes it atomically, marks the index
    /// complete, and removes the staging directory.
    ///
    /// A staged file that no longer matches its entry (e.g. corrupted
    /// after commit) loses its index entry and fails the finalize with an
    /// error naming it — a subsequent `--resume` recomputes exactly that
    /// piece.
    pub fn finalize(mut self) -> io::Result<()> {
        if self.already_complete {
            return Ok(());
        }
        let tables = match &self.index.tables {
            Some(entry) => match verified_read(&tables_file(&self.staging), entry) {
                Some(data) => data,
                None => {
                    self.index.tables = None;
                    self.index.save(&self.index_path, self.chaos)?;
                    return Err(damaged("table prologue"));
                }
            },
            None => return Err(damaged("table prologue")),
        };
        let mut shard_data = Vec::with_capacity(self.index.shard_count);
        for i in 0..self.index.shard_count {
            match &self.index.shards[i] {
                Some(entry) => match verified_read(&shard_file(&self.staging, i), entry) {
                    Some(data) => shard_data.push(data),
                    None => {
                        self.index.shards[i] = None;
                        self.index.save(&self.index_path, self.chaos)?;
                        return Err(damaged(&format!("shard {i}")));
                    }
                },
                None => return Err(damaged(&format!("shard {i}"))),
            }
        }

        let mut out =
            Vec::with_capacity(tables.len() + 10 + shard_data.iter().map(Vec::len).sum::<usize>());
        out.extend_from_slice(&tables);
        let mut count = BytesMut::with_capacity(10);
        codec::put_varint(&mut count, codec::len_u64(self.index.shard_count));
        out.extend_from_slice(&count.freeze());
        for data in &shard_data {
            out.extend_from_slice(data);
        }
        durable_write(&self.final_path, out, "store.final", self.chaos)?;
        self.index.complete = true;
        self.index.save(&self.index_path, self.chaos)?;
        let _ = std::fs::remove_dir_all(&self.staging);
        Ok(())
    }
}

fn damaged(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("staged {what} is missing or damaged; re-run with --resume to recompute it"),
    )
}

/// What a staged read could recover (see [`read_staged`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreReadStats {
    /// Decode tallies summed across the staged shards. Note
    /// `first_error_offset` is shard-local here (each staged shard
    /// decodes as its own one-frame buffer).
    pub decode: DecodeStats,
    /// Shard slots with no usable staged frame (never committed, or
    /// damaged after commit).
    pub shards_missing: u64,
    /// Shards the index says the run will produce.
    pub shard_count: usize,
}

impl StoreReadStats {
    /// True when every shard was present and decoded clean.
    pub fn is_clean(&self) -> bool {
        self.shards_missing == 0 && self.decode.is_clean()
    }
}

/// Reads what an unfinished run left in the staging area: the table
/// prologue plus every verified shard frame, decoded tolerantly. Missing
/// or damaged shards keep their (empty) slot so shard indices stay
/// stable, and are counted in [`StoreReadStats::shards_missing`].
///
/// This is what `characterize --resume` falls back to when the final file
/// does not exist: analyze the surviving shards now, report exactly what
/// is missing.
pub fn read_staged(final_path: &Path) -> io::Result<(ShardedTrace, StoreReadStats)> {
    let index = ShardIndex::load(&index_path(final_path)).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::NotFound,
            format!("no shard index next to {}", final_path.display()),
        )
    })?;
    let staging = staging_dir(final_path);
    let tables = index
        .tables
        .as_ref()
        .and_then(|entry| verified_read(&tables_file(&staging), entry))
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "staged table prologue is missing or damaged; nothing can be salvaged",
            )
        })?;

    // The interner comes from decoding the prologue as a zero-shard file.
    let mut empty = BytesMut::with_capacity(tables.len() + 1);
    empty.put_slice(&tables);
    codec::put_varint(&mut empty, 0);
    let interner = codec::decode_sharded(empty.freeze())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
        .into_trace()
        .into_parts()
        .0;

    let mut stats = StoreReadStats {
        shard_count: index.shard_count,
        ..StoreReadStats::default()
    };
    let mut shards: Vec<Vec<LogRecord>> = Vec::with_capacity(index.shard_count);
    for i in 0..index.shard_count {
        let frame = index.shards[i]
            .as_ref()
            .and_then(|entry| verified_read(&shard_file(&staging, i), entry));
        let Some(frame) = frame else {
            stats.shards_missing += 1;
            shards.push(Vec::new());
            continue;
        };
        // Rebuild a one-shard file around the frame so the ordinary
        // tolerant decoder does the record-level work.
        let mut buf = BytesMut::with_capacity(tables.len() + frame.len() + 1);
        buf.put_slice(&tables);
        codec::put_varint(&mut buf, 1);
        buf.put_slice(&frame);
        match codec::decode_sharded_tolerant(buf.freeze()) {
            Ok((decoded, shard_stats)) => {
                stats.decode.merge(&shard_stats);
                // The synthetic buffer shares the prologue, so ids line up
                // with `interner` by construction.
                shards.push(decoded.into_trace().into_parts().1);
            }
            Err(_) => {
                stats.shards_missing += 1;
                shards.push(Vec::new());
            }
        }
    }
    Ok((ShardedTrace::from_parts(interner, shards), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode_frame, encode_sharded, encode_tables};
    use crate::record::{CacheStatus, ClientId, Method, MimeType, RecordFlags};
    use crate::time::SimTime;
    use crate::trace::Trace;

    fn sample_sharded(n: u64, shards: usize) -> ShardedTrace {
        let mut t = Trace::new();
        let ua = t.intern_ua("agent/1.0");
        for i in 0..n {
            let url = t.intern_url(&format!("https://h.example/{}", i % 5));
            t.push(crate::record::LogRecord {
                time: SimTime::from_millis(i * 11),
                client: ClientId(i % 3),
                ua: Some(ua),
                url,
                method: Method::Get,
                mime: MimeType::Json,
                status: 200,
                response_bytes: i,
                cache: CacheStatus::Hit,
                retries: 0,
                flags: RecordFlags::NONE,
            });
        }
        ShardedTrace::from_trace(t, shards)
    }

    fn tmp_store(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("jcdn-store-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("out.jcdn")
    }

    /// Writes `sharded` through the store, committing all shards.
    fn write_all(writer: &mut StoreWriter<'_>, sharded: &ShardedTrace) -> io::Result<()> {
        writer.commit_interner(sharded.interner())?;
        let mut last_time = None;
        let mut base = 0;
        for i in 0..sharded.shard_count() {
            writer.write_shard(i, sharded.shard_records(i), &mut last_time, &mut base)?;
        }
        Ok(())
    }

    #[test]
    fn parallel_write_shards_matches_sequential_bytes() {
        let sharded = sample_sharded(100, 4);
        let shards: Vec<&[crate::record::LogRecord]> =
            (0..4).map(|i| sharded.shard_records(i)).collect();
        let direct = encode_sharded(&sharded).unwrap();
        for threads in [1, 2, 8] {
            let out = tmp_store(&format!("parwrite{threads}"));
            let mut writer = StoreWriter::open(&out, 4, 7, false, &jcdn_chaos::Quiet).unwrap();
            writer.commit_interner(sharded.interner()).unwrap();
            writer.write_shards(&shards, threads).unwrap();
            writer.finalize().unwrap();
            assert_eq!(
                std::fs::read(&out).unwrap(),
                direct.to_vec(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_write_shards_reuses_committed_shards() {
        let out = tmp_store("parresume");
        let sharded = sample_sharded(100, 4);
        let shards: Vec<&[crate::record::LogRecord]> =
            (0..4).map(|i| sharded.shard_records(i)).collect();
        // First run commits shards 0 and 1 sequentially, then stops.
        let mut writer = StoreWriter::open(&out, 4, 7, true, &jcdn_chaos::Quiet).unwrap();
        writer.commit_interner(sharded.interner()).unwrap();
        let (mut last_time, mut base) = (None, 0);
        for (i, shard) in shards.iter().enumerate().take(2) {
            writer
                .write_shard(i, shard, &mut last_time, &mut base)
                .unwrap();
        }
        drop(writer);
        // The resumed run fills in the rest in parallel; bytes match a
        // clean end-to-end encode.
        let mut writer = StoreWriter::open(&out, 4, 7, true, &jcdn_chaos::Quiet).unwrap();
        writer.commit_interner(sharded.interner()).unwrap();
        writer.write_shards(&shards, 4).unwrap();
        assert_eq!(writer.shards_reused(), 2);
        writer.finalize().unwrap();
        let direct = encode_sharded(&sharded).unwrap();
        assert_eq!(std::fs::read(&out).unwrap(), direct.to_vec());
    }

    #[test]
    fn store_output_is_byte_identical_to_direct_encode() {
        let out = tmp_store("direct");
        let sharded = sample_sharded(100, 4);
        let mut writer = StoreWriter::open(&out, 4, 7, false, &jcdn_chaos::Quiet).unwrap();
        write_all(&mut writer, &sharded).unwrap();
        writer.finalize().unwrap();
        let direct = encode_sharded(&sharded).unwrap();
        assert_eq!(std::fs::read(&out).unwrap(), direct.to_vec());
        assert!(!staging_dir(&out).exists(), "staging cleaned up");
        let index = ShardIndex::load(&index_path(&out)).unwrap();
        assert!(index.complete);
        assert_eq!(index.shards.iter().flatten().count(), 4);
    }

    #[test]
    fn resume_reuses_committed_shards_and_matches_bytes() {
        let out = tmp_store("resume");
        let sharded = sample_sharded(100, 4);
        let tables = encode_tables(sharded.interner());

        // First run dies after committing shards 0 and 1.
        let mut writer = StoreWriter::open(&out, 4, 7, false, &jcdn_chaos::Quiet).unwrap();
        writer.commit_tables(&tables).unwrap();
        let mut last_time = None;
        let mut base = 0;
        for i in 0..2 {
            let records = sharded.shard_records(i);
            let frame = encode_frame(records, base, &mut last_time, i).unwrap();
            base += records.len();
            writer.commit_shard(i, &frame.bytes, frame.records).unwrap();
        }
        drop(writer); // simulated kill: no finalize

        // Resume completes the run and reuses the committed shards.
        let mut writer = StoreWriter::open(&out, 4, 7, true, &jcdn_chaos::Quiet).unwrap();
        assert!(writer.shard_committed(0) && writer.shard_committed(1));
        assert!(!writer.shard_committed(2));
        write_all(&mut writer, &sharded).unwrap();
        assert_eq!(writer.shards_reused(), 2);
        writer.finalize().unwrap();
        assert_eq!(
            std::fs::read(&out).unwrap(),
            encode_sharded(&sharded).unwrap().to_vec(),
            "resumed bytes identical to uninterrupted encode"
        );
    }

    #[test]
    fn resume_with_different_params_starts_fresh() {
        let out = tmp_store("params");
        let sharded = sample_sharded(40, 2);
        let mut writer = StoreWriter::open(&out, 2, 7, false, &jcdn_chaos::Quiet).unwrap();
        write_all(&mut writer, &sharded).unwrap();
        drop(writer);
        let writer = StoreWriter::open(&out, 2, 8, true, &jcdn_chaos::Quiet).unwrap();
        assert!(
            !writer.shard_committed(0),
            "different digest discards staging"
        );
    }

    #[test]
    fn damaged_staged_shard_is_recomputed_on_resume() {
        let out = tmp_store("damaged");
        let sharded = sample_sharded(100, 4);
        let mut writer = StoreWriter::open(&out, 4, 7, false, &jcdn_chaos::Quiet).unwrap();
        write_all(&mut writer, &sharded).unwrap();
        drop(writer); // killed before finalize

        // Corrupt one committed staged shard behind the index's back.
        let victim = shard_file(&staging_dir(&out), 2);
        let mut data = std::fs::read(&victim).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0xFF;
        std::fs::write(&victim, &data).unwrap();

        let mut writer = StoreWriter::open(&out, 4, 7, true, &jcdn_chaos::Quiet).unwrap();
        assert!(!writer.shard_committed(2), "damage detected at open");
        assert!(writer.shard_committed(1));
        write_all(&mut writer, &sharded).unwrap();
        assert_eq!(writer.shards_reused(), 3);
        writer.finalize().unwrap();
        assert_eq!(
            std::fs::read(&out).unwrap(),
            encode_sharded(&sharded).unwrap().to_vec()
        );
    }

    #[test]
    fn finalize_refuses_a_shard_damaged_after_open() {
        let out = tmp_store("late-damage");
        let sharded = sample_sharded(60, 3);
        let mut writer = StoreWriter::open(&out, 3, 7, false, &jcdn_chaos::Quiet).unwrap();
        write_all(&mut writer, &sharded).unwrap();
        // Damage after commit, before finalize: the re-verify must catch it.
        let victim = shard_file(&staging_dir(&out), 1);
        std::fs::write(&victim, b"garbage").unwrap();
        let err = writer.finalize().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("shard 1"), "{err}");
        assert!(!out.exists(), "no final file published");
        // The index entry was dropped, so a resume recomputes shard 1.
        let writer = StoreWriter::open(&out, 3, 7, true, &jcdn_chaos::Quiet).unwrap();
        assert!(!writer.shard_committed(1));
        assert!(writer.shard_committed(0) && writer.shard_committed(2));
    }

    #[test]
    fn injected_write_error_surfaces_as_io_error_and_resume_recovers() {
        let out = tmp_store("chaos-write");
        let sharded = sample_sharded(100, 4);
        // Writes: 1 index@open, 2 tables, 3 index, 4 shard0, 5 index, 6 shard1…
        let plan = jcdn_chaos::FailPlan::parse("write-error:6").unwrap();
        let mut writer = StoreWriter::open(&out, 4, 7, false, &plan).unwrap();
        let err = write_all(&mut writer, &sharded).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        drop(writer);

        let mut writer = StoreWriter::open(&out, 4, 7, true, &jcdn_chaos::Quiet).unwrap();
        assert!(writer.shard_committed(0), "shard 0 survived");
        assert!(!writer.shard_committed(1), "failed write left no entry");
        write_all(&mut writer, &sharded).unwrap();
        writer.finalize().unwrap();
        assert_eq!(
            std::fs::read(&out).unwrap(),
            encode_sharded(&sharded).unwrap().to_vec()
        );
    }

    #[test]
    fn truncated_staged_write_is_caught_by_index_verification() {
        let out = tmp_store("chaos-trunc");
        let sharded = sample_sharded(100, 4);
        // The 4th write is shard 0's frame; it lands torn but "successful".
        let plan = jcdn_chaos::FailPlan::parse("truncate:4:10").unwrap();
        let mut writer = StoreWriter::open(&out, 4, 7, false, &plan).unwrap();
        // The torn write goes unnoticed at commit time (as a real torn
        // write would)…
        write_all(&mut writer, &sharded).unwrap();
        // …but finalize's re-verification refuses to publish it.
        let err = writer.finalize().unwrap_err();
        assert!(err.to_string().contains("shard 0"), "{err}");

        let mut writer = StoreWriter::open(&out, 4, 7, true, &jcdn_chaos::Quiet).unwrap();
        assert!(!writer.shard_committed(0));
        write_all(&mut writer, &sharded).unwrap();
        writer.finalize().unwrap();
        assert_eq!(
            std::fs::read(&out).unwrap(),
            encode_sharded(&sharded).unwrap().to_vec()
        );
    }

    #[test]
    fn read_staged_salvages_committed_shards_and_reports_missing() {
        let out = tmp_store("staged-read");
        let sharded = sample_sharded(100, 4);
        let mut writer = StoreWriter::open(&out, 4, 7, false, &jcdn_chaos::Quiet).unwrap();
        writer
            .commit_tables(&encode_tables(sharded.interner()))
            .unwrap();
        let mut last_time = None;
        let mut base = 0;
        for i in 0..3 {
            let records = sharded.shard_records(i);
            let frame = encode_frame(records, base, &mut last_time, i).unwrap();
            base += records.len();
            writer.commit_shard(i, &frame.bytes, frame.records).unwrap();
        }
        drop(writer); // killed before shard 3

        let (salvaged, stats) = read_staged(&out).unwrap();
        assert_eq!(stats.shards_missing, 1);
        assert_eq!(stats.shard_count, 4);
        assert!(!stats.is_clean());
        assert_eq!(salvaged.shard_count(), 4);
        for i in 0..3 {
            assert_eq!(salvaged.shard_records(i), sharded.shard_records(i));
        }
        assert!(salvaged.shard_records(3).is_empty());
        assert_eq!(
            salvaged.interner().url_table(),
            sharded.interner().url_table()
        );
    }

    #[test]
    fn durable_write_leaves_no_tmp_file() {
        let out = tmp_store("tmp");
        durable_write(&out, b"hello".to_vec(), "test", &jcdn_chaos::Quiet).unwrap();
        assert_eq!(std::fs::read(&out).unwrap(), b"hello");
        assert!(!sibling(&out, ".tmp").exists());
    }
}
