//! Model-based property tests for the LFU, SLRU, TinyLFU and S3-FIFO edge
//! caches: each must agree with a naive reference written from the rule
//! `policy.rs` documents, on every operation sequence. (LRU has its own,
//! in `lru_properties.rs`.)
//!
//! Every reference follows the cache core's order of work: an insert first
//! admits the entry (or refreshes it in place, which counts as a hit), then
//! evicts until the byte budget holds again, so a new entry can be its own
//! victim.

use std::collections::VecDeque;

use jcdn_cdnsim::cache::PolicyCache;
use jcdn_cdnsim::{PolicyKind, SimDuration, SimTime};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Get(u32),
    Insert(u32, u16),
    Remove(u32),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..16).prop_map(Op::Get),
        (0u32..16, 1u16..400).prop_map(|(k, s)| Op::Insert(k, s)),
        (0u32..16).prop_map(Op::Remove),
    ]
}

/// A reference policy over (key, size) entries.
trait Reference {
    fn get(&mut self, key: u32) -> bool;
    fn insert(&mut self, key: u32, size: u64) -> bool;
    fn remove(&mut self, key: u32) -> bool;
    fn residents(&self) -> Vec<u32>;
    fn used(&self) -> u64;
}

/// LFU: the victim is the least frequent entry, and the least recently
/// touched among equals. An admission counts once; every hit and every
/// refresh counts once more.
struct LfuModel {
    capacity: u64,
    clock: u64,
    /// (key, size, frequency, last touch)
    entries: Vec<(u32, u64, u64, u64)>,
}

impl LfuModel {
    fn new(capacity: u64) -> LfuModel {
        LfuModel {
            capacity,
            clock: 0,
            entries: Vec::new(),
        }
    }

    fn touch(&mut self, key: u32) -> Option<&mut (u32, u64, u64, u64)> {
        self.clock += 1;
        let clock = self.clock;
        let entry = self.entries.iter_mut().find(|e| e.0 == key)?;
        entry.2 += 1;
        entry.3 = clock;
        Some(entry)
    }
}

impl Reference for LfuModel {
    fn get(&mut self, key: u32) -> bool {
        self.touch(key).is_some()
    }

    fn insert(&mut self, key: u32, size: u64) -> bool {
        if size > self.capacity {
            return false;
        }
        match self.touch(key) {
            Some(entry) => entry.1 = size,
            None => self.entries.push((key, size, 1, self.clock)),
        }
        while self.used() > self.capacity {
            let victim = (0..self.entries.len())
                .min_by_key(|&i| (self.entries[i].2, self.entries[i].3))
                .expect("over budget with entries");
            self.entries.remove(victim);
        }
        true
    }

    fn remove(&mut self, key: u32) -> bool {
        let before = self.entries.len();
        self.entries.retain(|e| e.0 != key);
        self.entries.len() < before
    }

    fn residents(&self) -> Vec<u32> {
        self.entries.iter().map(|e| e.0).collect()
    }

    fn used(&self) -> u64 {
        self.entries.iter().map(|e| e.1).sum()
    }
}

/// SLRU: a new entry enters probation; a probation hit promotes it to
/// protected, whose bytes are capped at 4/5 of capacity; on overflow the
/// least recent protected entry goes back to probation's most-recent end.
/// A protected hit only refreshes recency. Victims come from probation's
/// least-recent end first, then from protected's.
struct SlruModel {
    capacity: u64,
    /// (key, size), most recent first.
    probation: Vec<(u32, u64)>,
    /// (key, size), most recent first.
    protected: Vec<(u32, u64)>,
}

impl SlruModel {
    fn new(capacity: u64) -> SlruModel {
        SlruModel {
            capacity,
            probation: Vec::new(),
            protected: Vec::new(),
        }
    }

    fn demote_overflow(&mut self) {
        let cap = self.capacity / 5 * 4;
        while self.protected.iter().map(|e| e.1).sum::<u64>() > cap {
            let Some(oldest) = self.protected.pop() else {
                break;
            };
            self.probation.insert(0, oldest);
        }
    }

    /// A hit on a resident entry, optionally resizing it first.
    fn hit(&mut self, key: u32, size: Option<u64>) -> bool {
        if let Some(pos) = self.protected.iter().position(|e| e.0 == key) {
            let mut entry = self.protected.remove(pos);
            entry.1 = size.unwrap_or(entry.1);
            self.protected.insert(0, entry);
        } else if let Some(pos) = self.probation.iter().position(|e| e.0 == key) {
            let mut entry = self.probation.remove(pos);
            entry.1 = size.unwrap_or(entry.1);
            self.protected.insert(0, entry);
        } else {
            return false;
        }
        self.demote_overflow();
        true
    }
}

impl Reference for SlruModel {
    fn get(&mut self, key: u32) -> bool {
        self.hit(key, None)
    }

    fn insert(&mut self, key: u32, size: u64) -> bool {
        if size > self.capacity {
            return false;
        }
        if !self.hit(key, Some(size)) {
            self.probation.insert(0, (key, size));
        }
        while self.used() > self.capacity {
            if self.probation.pop().is_none() {
                self.protected.pop();
            }
        }
        true
    }

    fn remove(&mut self, key: u32) -> bool {
        let before = self.probation.len() + self.protected.len();
        self.probation.retain(|e| e.0 != key);
        self.protected.retain(|e| e.0 != key);
        self.probation.len() + self.protected.len() < before
    }

    fn residents(&self) -> Vec<u32> {
        self.probation
            .iter()
            .chain(&self.protected)
            .map(|e| e.0)
            .collect()
    }

    fn used(&self) -> u64 {
        self.probation
            .iter()
            .chain(&self.protected)
            .map(|e| e.1)
            .sum()
    }
}

/// TinyLFU: an LRU order plus a count per key. An admission and every hit
/// or refresh count once, saturating at 15, and counts outlive residency.
/// The newest insert is the admission candidate until it is hit, refreshed
/// or removed. The victim is the least recent entry, unless the candidate
/// is another entry: then the candidate goes itself unless its count
/// exceeds the least recent entry's.
///
/// The real policy counts in a 4-row count–min sketch, 1024 counters wide
/// at these capacities. With the cache's seed 7, each of the 16 keys owns
/// a counter in at least one row, so the sketch's minimum is the exact
/// count; and no run comes near the 10,240 additions that age it.
struct TinyLfuModel {
    capacity: u64,
    /// (key, size), most recent first.
    lru: Vec<(u32, u64)>,
    counts: [u8; 16],
    candidate: Option<u32>,
}

impl TinyLfuModel {
    fn new(capacity: u64) -> TinyLfuModel {
        TinyLfuModel {
            capacity,
            lru: Vec::new(),
            counts: [0; 16],
            candidate: None,
        }
    }

    fn count(&mut self, key: u32) {
        let c = &mut self.counts[key as usize];
        *c = (*c + 1).min(15);
    }

    /// A hit on a resident entry, optionally resizing it first.
    fn hit(&mut self, key: u32, size: Option<u64>) -> bool {
        let Some(pos) = self.lru.iter().position(|e| e.0 == key) else {
            return false;
        };
        let mut entry = self.lru.remove(pos);
        entry.1 = size.unwrap_or(entry.1);
        self.lru.insert(0, entry);
        self.count(key);
        if self.candidate == Some(key) {
            self.candidate = None;
        }
        true
    }
}

impl Reference for TinyLfuModel {
    fn get(&mut self, key: u32) -> bool {
        self.hit(key, None)
    }

    fn insert(&mut self, key: u32, size: u64) -> bool {
        if size > self.capacity {
            return false;
        }
        if !self.hit(key, Some(size)) {
            self.lru.insert(0, (key, size));
            self.count(key);
            self.candidate = Some(key);
        }
        while self.used() > self.capacity {
            let (tail, _) = *self.lru.last().expect("over budget with entries");
            let count = |k: u32| self.counts[k as usize];
            let victim = match self.candidate {
                Some(c) if c != tail && count(c) <= count(tail) => c,
                _ => tail,
            };
            self.remove(victim);
        }
        true
    }

    fn remove(&mut self, key: u32) -> bool {
        if self.candidate == Some(key) {
            self.candidate = None;
        }
        let before = self.lru.len();
        self.lru.retain(|e| e.0 != key);
        self.lru.len() < before
    }

    fn residents(&self) -> Vec<u32> {
        self.lru.iter().map(|e| e.0).collect()
    }

    fn used(&self) -> u64 {
        self.lru.iter().map(|e| e.1).sum()
    }
}

/// S3-FIFO: a new entry joins the small queue, or the main queue when the
/// ghost remembers its key. A hit or refresh raises the entry's frequency,
/// capped at 3. Each eviction takes from the small queue while its bytes
/// exceed a tenth of capacity or main is empty: a small tail with a
/// nonzero frequency moves to main with frequency 0 and the search goes
/// on; otherwise it is the victim and its key joins the ghost. Else main's
/// tail is the victim, unless its frequency is nonzero: then it goes back
/// to main's head one lower (lazy promotion) and the search goes on. The
/// ghost keeps the newest max(main entries, 64) keys; a removal does not
/// feed it, and a key that returns through it stays in it.
struct S3FifoModel {
    capacity: u64,
    /// (key, size, frequency), newest first.
    small: Vec<(u32, u64, u8)>,
    /// (key, size, frequency), newest first.
    main: Vec<(u32, u64, u8)>,
    /// Keys evicted from the small queue, oldest first.
    ghost: VecDeque<u32>,
}

impl S3FifoModel {
    fn new(capacity: u64) -> S3FifoModel {
        S3FifoModel {
            capacity,
            small: Vec::new(),
            main: Vec::new(),
            ghost: VecDeque::new(),
        }
    }

    /// A hit on a resident entry, optionally resizing it first.
    fn hit(&mut self, key: u32, size: Option<u64>) -> bool {
        let Some(entry) = self
            .small
            .iter_mut()
            .chain(&mut self.main)
            .find(|e| e.0 == key)
        else {
            return false;
        };
        entry.1 = size.unwrap_or(entry.1);
        entry.2 = (entry.2 + 1).min(3);
        true
    }

    fn evict_one(&mut self) {
        loop {
            let small_bytes: u64 = self.small.iter().map(|e| e.1).sum();
            if small_bytes > self.capacity / 10 || self.main.is_empty() {
                let (key, size, freq) = self.small.pop().expect("over budget with entries");
                if freq > 0 {
                    self.main.insert(0, (key, size, 0));
                    continue;
                }
                self.ghost.push_back(key);
                while self.ghost.len() > self.main.len().max(64) {
                    self.ghost.pop_front();
                }
                return;
            }
            let (key, size, freq) = self.main.pop().expect("main is not empty");
            if freq > 0 {
                self.main.insert(0, (key, size, freq - 1));
                continue;
            }
            return;
        }
    }
}

impl Reference for S3FifoModel {
    fn get(&mut self, key: u32) -> bool {
        self.hit(key, None)
    }

    fn insert(&mut self, key: u32, size: u64) -> bool {
        if size > self.capacity {
            return false;
        }
        if !self.hit(key, Some(size)) {
            if self.ghost.contains(&key) {
                self.main.insert(0, (key, size, 0));
            } else {
                self.small.insert(0, (key, size, 0));
            }
        }
        while self.used() > self.capacity {
            self.evict_one();
        }
        true
    }

    fn remove(&mut self, key: u32) -> bool {
        let before = self.small.len() + self.main.len();
        self.small.retain(|e| e.0 != key);
        self.main.retain(|e| e.0 != key);
        self.small.len() + self.main.len() < before
    }

    fn residents(&self) -> Vec<u32> {
        self.small.iter().chain(&self.main).map(|e| e.0).collect()
    }

    fn used(&self) -> u64 {
        self.small.iter().chain(&self.main).map(|e| e.1).sum()
    }
}

/// Drives the real cache and the reference with the same operations and
/// compares every answer, the resident set and the used bytes after each.
fn agrees(kind: PolicyKind, reference: &mut dyn Reference, capacity: u64, ops: &[Op]) {
    // A long TTL keeps expiry out of the way.
    let ttl = SimDuration::from_secs(1 << 30);
    let mut cache = PolicyCache::with_policy(capacity, kind, 7);
    for (i, op) in ops.iter().enumerate() {
        let now = SimTime::from_secs(i as u64);
        match *op {
            Op::Get(k) => {
                prop_assert_eq!(
                    cache.get(k, now),
                    reference.get(k),
                    "get({}) at step {}",
                    k,
                    i
                );
            }
            Op::Insert(k, s) => {
                let size = u64::from(s);
                prop_assert_eq!(
                    cache.insert(k, size, ttl, now, false),
                    reference.insert(k, size),
                    "insert({}, {}) at step {}",
                    k,
                    s,
                    i
                );
            }
            Op::Remove(k) => {
                prop_assert_eq!(
                    cache.remove(k),
                    reference.remove(k),
                    "remove({}) at step {}",
                    k,
                    i
                );
            }
        }
        let mut expected = reference.residents();
        expected.sort_unstable();
        let actual: Vec<u32> = (0..16).filter(|&k| cache.peek(k, now)).collect();
        prop_assert_eq!(actual, expected, "residents after step {} ({:?})", i, op);
        prop_assert_eq!(
            cache.used_bytes(),
            reference.used(),
            "bytes after step {}",
            i
        );
    }
}

proptest! {
    #[test]
    fn lfu_agrees_with_reference(
        ops in prop::collection::vec(arb_op(), 0..200),
        capacity in 100u64..2000,
    ) {
        agrees(PolicyKind::Lfu, &mut LfuModel::new(capacity), capacity, &ops);
    }

    #[test]
    fn slru_agrees_with_reference(
        ops in prop::collection::vec(arb_op(), 0..200),
        capacity in 100u64..2000,
    ) {
        agrees(PolicyKind::Slru, &mut SlruModel::new(capacity), capacity, &ops);
    }

    #[test]
    fn tinylfu_agrees_with_reference(
        ops in prop::collection::vec(arb_op(), 0..200),
        capacity in 100u64..2000,
    ) {
        agrees(PolicyKind::TinyLfu, &mut TinyLfuModel::new(capacity), capacity, &ops);
    }

    #[test]
    fn s3fifo_agrees_with_reference(
        ops in prop::collection::vec(arb_op(), 0..200),
        capacity in 100u64..2000,
    ) {
        agrees(PolicyKind::S3Fifo, &mut S3FifoModel::new(capacity), capacity, &ops);
    }
}
