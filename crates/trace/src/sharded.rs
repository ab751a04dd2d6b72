//! Time-partitioned trace shards behind one shared interner.
//!
//! A [`ShardedTrace`] keeps the record multiset of a [`Trace`] split into N
//! contiguous time ranges. All shards resolve ids through a single
//! [`Interner`], so per-shard analyses can run in parallel and their
//! results merge without id remapping. Codec v4 serializes each shard as
//! its own length-prefixed, columnar, CRC-protected frame (see
//! [`crate::codec`]).

use crate::interner::Interner;
use crate::record::LogRecord;
use crate::stream::RecordStream;
use crate::trace::Trace;

/// A trace split into time-partitioned record shards sharing one interner.
#[derive(Clone, Debug, Default)]
pub struct ShardedTrace {
    interner: Interner,
    shards: Vec<Vec<LogRecord>>,
}

impl ShardedTrace {
    /// Builds a sharded trace from an interner and pre-partitioned record
    /// shards (each shard's records must already be time-sorted and the
    /// shards ordered by time).
    pub fn from_parts(interner: Interner, shards: Vec<Vec<LogRecord>>) -> Self {
        ShardedTrace { interner, shards }
    }

    /// Splits a trace into exactly `shard_count` contiguous time
    /// partitions of `⌈n / shard_count⌉` records each, the last ones
    /// shorter or empty when the records run out (3 records into 8 shards
    /// give 3 one-record shards, then 5 empty ones). Records are
    /// canonically sorted first (linear when they already are), so the
    /// result is the same for any prior record order of the same multiset.
    /// Each record is copied once, into a shard allocated to exactly its
    /// length. `shard_count` is clamped to at least 1.
    pub fn from_trace(trace: Trace, shard_count: usize) -> Self {
        let (interner, mut records) = trace.into_parts();
        records.sort_unstable();
        let per_shard = records.len().div_ceil(shard_count.max(1)).max(1);
        let mut shards: Vec<Vec<LogRecord>> = records
            .chunks(per_shard)
            .map(<[LogRecord]>::to_vec)
            .collect();
        shards.resize_with(shard_count.max(1), Vec::new);
        ShardedTrace { interner, shards }
    }

    /// Flattens the shards back into a single trace (records stay in shard
    /// order, i.e. time order).
    pub fn into_trace(self) -> Trace {
        let mut records = Vec::with_capacity(self.len());
        for shard in self.shards {
            records.extend(shard);
        }
        Trace::from_parts(self.interner, records)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total records across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// True when no shard holds records.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// The shared string tables.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// The raw records of shard `i`.
    pub fn shard_records(&self, i: usize) -> &[LogRecord] {
        &self.shards[i]
    }

    /// A stream over every record in shard order, one slice per shard
    /// ([`RecordStream::slices`] gives each shard's own stream).
    pub fn stream(&self) -> RecordStream<'_> {
        RecordStream::new(
            &self.interner,
            self.shards.iter().map(|s| s.as_slice()).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{CacheStatus, ClientId, Method, MimeType, RecordFlags};
    use crate::time::SimTime;

    fn trace(n: u64) -> Trace {
        let mut t = Trace::new();
        for i in 0..n {
            let url = t.intern_url(&format!("https://h.example/{}", i % 7));
            t.push(LogRecord {
                time: SimTime::from_millis(i * 13),
                client: ClientId(i % 5),
                ua: None,
                url,
                method: Method::Get,
                mime: MimeType::Json,
                status: 200,
                response_bytes: i,
                cache: CacheStatus::Miss,
                retries: 0,
                flags: RecordFlags::NONE,
            });
        }
        t
    }

    #[test]
    fn partitioning_preserves_records_for_any_shard_count() {
        let reference = trace(103);
        for shards in [1, 2, 3, 8, 64, 103, 200] {
            let sharded = ShardedTrace::from_trace(trace(103), shards);
            assert_eq!(sharded.len(), 103, "{shards} shards");
            let flat = sharded.into_trace();
            assert_eq!(flat.records(), reference.records(), "{shards} shards");
        }
    }

    #[test]
    fn shards_are_contiguous_time_ranges() {
        let sharded = ShardedTrace::from_trace(trace(100), 4);
        assert_eq!(sharded.shard_count(), 4);
        let mut prev_last: Option<SimTime> = None;
        for i in 0..sharded.shard_count() {
            let shard = sharded.shard_records(i);
            assert!(!shard.is_empty());
            assert!(shard.windows(2).all(|w| w[0].time <= w[1].time));
            if let Some(last) = prev_last {
                assert!(
                    last <= shard[0].time,
                    "shard {i} starts before shard {}",
                    i - 1
                );
            }
            prev_last = shard.last().map(|r| r.time);
        }
    }

    #[test]
    fn shard_slices_share_the_interner() {
        let sharded = ShardedTrace::from_trace(trace(20), 2);
        let slices = sharded.stream().slices();
        let [a, b] = &slices[..] else {
            unreachable!("two shards give two slices");
        };
        let first_a = a.iter().next().unwrap();
        let first_b = b.iter().next().unwrap();
        // Same UrlId resolves identically through both shard streams.
        assert_eq!(a.url(first_a.url), sharded.interner().url(first_a.url));
        assert_eq!(b.url(first_b.url), sharded.interner().url(first_b.url));
        assert_eq!(a.len() + b.len(), sharded.len());
        assert_eq!(sharded.stream().len(), sharded.len());
    }

    #[test]
    fn shards_hold_exactly_their_records() {
        // The shard count is exact even when the records run out first:
        // ⌈98 / 30⌉ = 4 records per shard fill 25 shards and leave 5 empty.
        for (records, shards) in [(103, 8), (100, 4), (98, 30), (3, 8), (1, 1), (0, 8)] {
            let sharded = ShardedTrace::from_trace(trace(records), shards);
            assert_eq!(sharded.shard_count(), shards, "{records} into {shards}");
            for (i, shard) in sharded.shards.iter().enumerate() {
                assert_eq!(
                    shard.capacity(),
                    shard.len(),
                    "{records} records into {shards}: shard {i}"
                );
            }
        }
    }

    #[test]
    fn empty_and_tiny_traces_shard_cleanly() {
        let sharded = ShardedTrace::from_trace(Trace::new(), 8);
        assert!(sharded.is_empty());
        assert_eq!(sharded.into_trace().len(), 0);

        let sharded = ShardedTrace::from_trace(trace(3), 8);
        assert_eq!(sharded.len(), 3);
        assert_eq!(sharded.into_trace().len(), 3);
    }
}
