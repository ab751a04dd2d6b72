//! Durable, resumable on-disk trace store.
//!
//! The codec (see [`crate::codec`]) defines what trace bytes look like;
//! this module defines how they reach disk without lying about it. Three
//! guarantees, forming the crash-safety contract (DESIGN.md §13):
//!
//! 1. **Atomic visibility** — `durable_write` publishes every file via
//!    write-temp, fsync, rename. A reader sees the old content or the new
//!    content, never a torn hybrid, no matter where a crash lands.
//! 2. **Staged shards with a signed manifest** — a run writes each shard
//!    frame to a staging directory and records its byte length, record
//!    count, and CRC-32 in a [`ShardIndex`] sitting next to the final
//!    file. The index is rewritten (atomically) after every commit, so at
//!    any kill point it describes exactly the shards that are safely on
//!    disk.
//! 3. **Byte-identical resume** — the final file is assembled by pure
//!    concatenation, `table prologue + varint(shard_count) + frames`,
//!    through the same codec helper [`codec::encode`] uses, from frames
//!    the same codec fan-out encoded. Because a shard frame's bytes do
//!    not depend on which run encoded it
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

use jcdn_chaos::Chaos;

use crate::codec::{self, DecodeStats};
use crate::record::LogRecord;
use crate::trace::Trace;

/// Writes `bytes` to `path` atomically and durably: the data goes to a
/// sibling `*.tmp` file, is fsynced, and is renamed over `path`; the
/// parent directory is then fsynced (best-effort — not every filesystem
/// supports it) so the rename itself survives a crash. The `label` names
/// this write site for fault injection.
pub(crate) fn durable_write(
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
pub(crate) fn index_path(final_path: &Path) -> PathBuf {
    sibling(final_path, ".idx")
}

/// The staging directory for a store rooted at `final_path`.
pub(crate) fn staging_dir(final_path: &Path) -> PathBuf {
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
    pub(crate) fn load(path: &Path) -> Option<ShardIndex> {
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
/// [`open`](Self::open) only reads: it decides what a resume can reuse and
/// touches nothing on disk, so a command that fails before its first write
/// leaves an interrupted run as it found it. [`write`](Self::write) then
/// clears stale staging and saves the index, commits the table prologue,
/// then each shard frame in shard order; every commit is durable and
/// indexed before the writer moves on, so a kill at any point leaves a
/// resumable run. [`finalize`](Self::finalize) re-verifies everything
/// staged and publishes the final file atomically.
pub struct StoreWriter<'c> {
    final_path: PathBuf,
    index_path: PathBuf,
    staging: PathBuf,
    index: ShardIndex,
    chaos: &'c dyn Chaos,
    reused: u64,
    already_complete: bool,
    /// Set when no reusable index was found: the first write clears the
    /// staging directory before it saves the fresh index.
    clear_staging: bool,
}

impl<'c> StoreWriter<'c> {
    /// Opens a store for writing `shard_count` shards.
    ///
    /// With `resume` set, an existing index whose codec version, params
    /// digest, and shard count all match is honored: staged files are
    /// verified against their entries and damaged or missing ones lose
    /// their entry (the caller recomputes exactly those). An index from
    /// different parameters — or no index — starts a fresh run, whose
    /// first write clears any stale staging.
    pub fn open(
        final_path: &Path,
        shard_count: usize,
        params_digest: u64,
        resume: bool,
        chaos: &'c dyn Chaos,
    ) -> StoreWriter<'c> {
        let index_path = index_path(final_path);
        let staging = staging_dir(final_path);
        let reusable = resume
            .then(|| ShardIndex::load(&index_path))
            .flatten()
            .filter(|index| {
                index.codec_version == codec::VERSION
                    && index.params_digest == params_digest
                    && index.shard_count == shard_count
            });
        let clear_staging = reusable.is_none();
        let already_complete = reusable
            .as_ref()
            .is_some_and(|index| index.complete && final_path.exists());
        let mut index = reusable.unwrap_or_else(|| ShardIndex::new(shard_count, params_digest));
        if !already_complete {
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
        }
        StoreWriter {
            final_path: final_path.to_path_buf(),
            index_path,
            staging,
            index,
            chaos,
            reused: 0,
            already_complete,
            clear_staging,
        }
    }

    /// True when a resume found the run already finalized;
    /// [`write`](Self::write) and [`finalize`](Self::finalize) become
    /// no-ops, leaving the published file untouched.
    pub fn already_complete(&self) -> bool {
        self.already_complete
    }

    /// True when shard `i`'s frame is committed and verified, i.e. the
    /// caller may skip recomputing it.
    pub(crate) fn shard_committed(&self, i: usize) -> bool {
        self.already_complete || self.index.shards.get(i).is_some_and(Option::is_some)
    }

    /// Shards reused from a previous run instead of rewritten.
    pub fn shards_reused(&self) -> u64 {
        self.reused
    }

    /// Writes `trace` durably, one frame per shard: first
    /// the table prologue (idempotent — a verified staged copy with the
    /// same bytes is kept as-is), then every shard not yet committed, in
    /// shard order. Shards a resumed run already committed are reused, not
    /// re-encoded (see [`shards_reused`](Self::shards_reused)).
    ///
    /// It saves the index before anything else, after a fresh run's first
    /// call has cleared stale staging. The uncommitted frames are encoded up
    /// front on `threads` workers of the exec pool; the commits that follow
    /// keep the sequential write order the crash-safety contract (and the
    /// chaos harness) observes — index, prologue, index, then frame and
    /// index for each shard — so the output is byte-identical for any
    /// thread count. A trace whose shard count differs from the store's is
    /// rejected with `InvalidInput` before anything is written.
    pub fn write(&mut self, trace: &Trace, threads: usize) -> io::Result<()> {
        let shards = trace.shard_count();
        if shards != self.index.shard_count {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "the trace has {shards} shard(s) but the store writes {}",
                    self.index.shard_count
                ),
            ));
        }
        if self.already_complete {
            return Ok(());
        }
        if self.clear_staging && self.staging.exists() {
            std::fs::remove_dir_all(&self.staging)?;
        }
        self.clear_staging = false;
        std::fs::create_dir_all(&self.staging)?;
        self.index.save(&self.index_path, self.chaos)?;
        let tables = codec::encode_tables(trace.interner());
        if !self
            .index
            .tables
            .is_some_and(|entry| entry.describes(&tables))
        {
            self.index.tables =
                Some(self.stage(&tables_file(&self.staging), &tables, 0, "store.tables")?);
            self.index.save(&self.index_path, self.chaos)?;
        }
        let todo: Vec<usize> = (0..shards).filter(|&i| !self.shard_committed(i)).collect();
        self.reused += codec::len_u64(shards - todo.len());
        let frames = codec::encode_frames(trace, &todo, threads).map_err(codec::encode_io_error)?;
        for (i, frame) in todo.into_iter().zip(frames) {
            let entry = self.stage(
                &shard_file(&self.staging, i),
                &frame.bytes,
                frame.records,
                "store.shard",
            )?;
            self.index.shards[i] = Some(entry);
            self.index.save(&self.index_path, self.chaos)?;
        }
        Ok(())
    }

    /// Durably writes one staged piece and returns its index entry, which
    /// describes the bytes as given — so a write the chaos harness tears or
    /// flips is caught when the staged copy is next verified.
    fn stage(&self, path: &Path, data: &[u8], records: u64, label: &str) -> io::Result<ShardEntry> {
        durable_write(path, data.to_vec(), label, self.chaos)?;
        Ok(ShardEntry {
            records,
            bytes: codec::len_u64(data.len()),
            crc: codec::crc32(data),
        })
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

        let out = codec::assemble(&tables, &shard_data);
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

/// Reads what an unfinished run left in the staging area: the table
/// prologue plus every verified shard frame, decoded tolerantly. Missing
/// or damaged shards keep their (empty) slot so shard indices stay
/// stable, and are counted in [`StoreReadStats::shards_missing`].
///
/// This is what `characterize --resume` falls back to when the final file
/// does not exist: analyze the surviving shards now, report exactly what
/// is missing.
pub fn read_staged(final_path: &Path) -> io::Result<(Trace, StoreReadStats)> {
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
    let interner = codec::decode(&codec::assemble::<&[u8]>(&tables, &[]), 1)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
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
        match codec::decode_tolerant(&codec::assemble(&tables, &[frame]), 1) {
            Ok((decoded, shard_stats)) => {
                stats.decode.merge(&shard_stats);
                // The synthetic buffer shares the prologue, so ids line up
                // with `interner` by construction. Its one frame decodes
                // to one shard, or to none when the frame is lost.
                shards.push(decoded.into_parts().1.pop().unwrap_or_default());
            }
            Err(_) => {
                stats.shards_missing += 1;
                shards.push(Vec::new());
            }
        }
    }
    Ok((Trace::from_parts(interner, shards), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode;
    use crate::record::{CacheStatus, ClientId, Method, MimeType, RecordFlags};
    use crate::time::SimTime;

    fn sample_sharded(n: u64, shards: usize) -> Trace {
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
        Trace::from_trace(t, shards)
    }

    fn tmp_store(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("jcdn-store-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("out.jcdn")
    }

    /// The bytes an uninterrupted store run must publish.
    fn direct(sharded: &Trace) -> Vec<u8> {
        encode(sharded, 1).unwrap().to_vec()
    }

    /// A 4-shard run killed by an injected failure of durable write
    /// `ordinal`: writes go 1 index, 2 tables, 3 index, then frame
    /// and index per shard (shard `i`'s frame is write `2i + 4`), so
    /// failing write `2k + 4` leaves shards `0..k` committed.
    fn killed_run(out: &Path, sharded: &Trace, ordinal: usize) {
        let plan = jcdn_chaos::FailPlan::parse(&format!("write-error:{ordinal}")).unwrap();
        let mut writer = StoreWriter::open(out, 4, 7, false, &plan);
        let err = writer.write(sharded, 1).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
    }

    #[test]
    fn write_matches_encode_at_any_thread_count() {
        let sharded = sample_sharded(100, 4);
        for threads in [1, 2, 8] {
            let out = tmp_store(&format!("parwrite{threads}"));
            let mut writer = StoreWriter::open(&out, 4, 7, false, &jcdn_chaos::Quiet);
            writer.write(&sharded, threads).unwrap();
            writer.finalize().unwrap();
            assert_eq!(
                std::fs::read(&out).unwrap(),
                direct(&sharded),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_write_reuses_committed_shards() {
        let out = tmp_store("parresume");
        let sharded = sample_sharded(100, 4);
        killed_run(&out, &sharded, 8); // shards 0 and 1 committed
                                       // The resumed run fills in the rest in parallel; bytes match a
                                       // clean end-to-end encode.
        let mut writer = StoreWriter::open(&out, 4, 7, true, &jcdn_chaos::Quiet);
        writer.write(&sharded, 4).unwrap();
        assert_eq!(writer.shards_reused(), 2);
        writer.finalize().unwrap();
        assert_eq!(std::fs::read(&out).unwrap(), direct(&sharded));
    }

    #[test]
    fn store_output_is_byte_identical_to_direct_encode() {
        let out = tmp_store("direct");
        let sharded = sample_sharded(100, 4);
        let mut writer = StoreWriter::open(&out, 4, 7, false, &jcdn_chaos::Quiet);
        writer.write(&sharded, 1).unwrap();
        writer.finalize().unwrap();
        assert_eq!(std::fs::read(&out).unwrap(), direct(&sharded));
        assert!(!staging_dir(&out).exists(), "staging cleaned up");
        let index = ShardIndex::load(&index_path(&out)).unwrap();
        assert!(index.complete);
        assert_eq!(index.shards.iter().flatten().count(), 4);
    }

    #[test]
    fn write_rejects_a_trace_with_the_wrong_shard_count() {
        let out = tmp_store("shards");
        let sharded = sample_sharded(100, 4);
        for shards in [3, 5] {
            let mut writer = StoreWriter::open(&out, shards, 7, false, &jcdn_chaos::Quiet);
            let err = writer.write(&sharded, 1).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{shards}: {err}");
            assert!(err.to_string().contains("4 shard(s)"), "{err}");
            assert!(
                !index_path(&out).exists(),
                "nothing written before the check"
            );
            assert!(!staging_dir(&out).exists());
        }
    }

    #[test]
    fn resume_reuses_committed_shards_and_matches_bytes() {
        let out = tmp_store("resume");
        let sharded = sample_sharded(100, 4);
        killed_run(&out, &sharded, 8); // dies after committing shards 0 and 1

        // Resume completes the run and reuses the committed shards.
        let mut writer = StoreWriter::open(&out, 4, 7, true, &jcdn_chaos::Quiet);
        assert!(writer.shard_committed(0) && writer.shard_committed(1));
        assert!(!writer.shard_committed(2));
        writer.write(&sharded, 1).unwrap();
        assert_eq!(writer.shards_reused(), 2);
        writer.finalize().unwrap();
        assert_eq!(
            std::fs::read(&out).unwrap(),
            direct(&sharded),
            "resumed bytes identical to uninterrupted encode"
        );
    }

    #[test]
    fn resume_with_different_params_starts_fresh() {
        let out = tmp_store("params");
        let sharded = sample_sharded(40, 2);
        let mut writer = StoreWriter::open(&out, 2, 7, false, &jcdn_chaos::Quiet);
        writer.write(&sharded, 1).unwrap();
        drop(writer);
        let writer = StoreWriter::open(&out, 2, 8, true, &jcdn_chaos::Quiet);
        assert!(
            !writer.shard_committed(0),
            "different digest discards staging"
        );
    }

    #[test]
    fn damaged_staged_shard_is_recomputed_on_resume() {
        let out = tmp_store("damaged");
        let sharded = sample_sharded(100, 4);
        let mut writer = StoreWriter::open(&out, 4, 7, false, &jcdn_chaos::Quiet);
        writer.write(&sharded, 1).unwrap();
        drop(writer); // killed before finalize

        // Corrupt one committed staged shard behind the index's back.
        let victim = shard_file(&staging_dir(&out), 2);
        let mut data = std::fs::read(&victim).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0xFF;
        std::fs::write(&victim, &data).unwrap();

        let mut writer = StoreWriter::open(&out, 4, 7, true, &jcdn_chaos::Quiet);
        assert!(!writer.shard_committed(2), "damage detected at open");
        assert!(writer.shard_committed(1));
        writer.write(&sharded, 1).unwrap();
        assert_eq!(writer.shards_reused(), 3);
        writer.finalize().unwrap();
        assert_eq!(std::fs::read(&out).unwrap(), direct(&sharded));
    }

    #[test]
    fn finalize_refuses_a_shard_damaged_after_open() {
        let out = tmp_store("late-damage");
        let sharded = sample_sharded(60, 3);
        let mut writer = StoreWriter::open(&out, 3, 7, false, &jcdn_chaos::Quiet);
        writer.write(&sharded, 1).unwrap();
        // Damage after commit, before finalize: the re-verify must catch it.
        let victim = shard_file(&staging_dir(&out), 1);
        std::fs::write(&victim, b"garbage").unwrap();
        let err = writer.finalize().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("shard 1"), "{err}");
        assert!(!out.exists(), "no final file published");
        // The index entry was dropped, so a resume recomputes shard 1.
        let writer = StoreWriter::open(&out, 3, 7, true, &jcdn_chaos::Quiet);
        assert!(!writer.shard_committed(1));
        assert!(writer.shard_committed(0) && writer.shard_committed(2));
    }

    #[test]
    fn injected_write_error_surfaces_as_io_error_and_resume_recovers() {
        let out = tmp_store("chaos-write");
        let sharded = sample_sharded(100, 4);
        // Writes: 1 index, 2 tables, 3 index, 4 shard0, 5 index, 6 shard1…
        killed_run(&out, &sharded, 6);

        let mut writer = StoreWriter::open(&out, 4, 7, true, &jcdn_chaos::Quiet);
        assert!(writer.shard_committed(0), "shard 0 survived");
        assert!(!writer.shard_committed(1), "failed write left no entry");
        writer.write(&sharded, 1).unwrap();
        writer.finalize().unwrap();
        assert_eq!(std::fs::read(&out).unwrap(), direct(&sharded));
    }

    #[test]
    fn truncated_staged_write_is_caught_by_index_verification() {
        let out = tmp_store("chaos-trunc");
        let sharded = sample_sharded(100, 4);
        // The 4th write is shard 0's frame; it lands torn but "successful".
        let plan = jcdn_chaos::FailPlan::parse("truncate:4:10").unwrap();
        let mut writer = StoreWriter::open(&out, 4, 7, false, &plan);
        // The torn write goes unnoticed at commit time (as a real torn
        // write would)…
        writer.write(&sharded, 1).unwrap();
        // …but finalize's re-verification refuses to publish it.
        let err = writer.finalize().unwrap_err();
        assert!(err.to_string().contains("shard 0"), "{err}");

        let mut writer = StoreWriter::open(&out, 4, 7, true, &jcdn_chaos::Quiet);
        assert!(!writer.shard_committed(0));
        writer.write(&sharded, 1).unwrap();
        writer.finalize().unwrap();
        assert_eq!(std::fs::read(&out).unwrap(), direct(&sharded));
    }

    #[test]
    fn read_staged_salvages_committed_shards_and_reports_missing() {
        let out = tmp_store("staged-read");
        let sharded = sample_sharded(100, 4);
        killed_run(&out, &sharded, 10); // killed before shard 3

        let (salvaged, stats) = read_staged(&out).unwrap();
        assert_eq!(stats.shards_missing, 1);
        assert_eq!(stats.shard_count, 4);
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
