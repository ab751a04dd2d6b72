//! Pluggable eviction policies for the byte-capacity cache.
//!
//! The cache core ([`crate::cache::PolicyCache`]) owns residency: the
//! key→slot map, sizes, TTLs, and the byte budget. A policy owns *order*:
//! it observes admissions, hits, and removals, and is asked for the next
//! victim when the core must free space. Five policies are provided —
//! [`Lru`] (the reference policy, byte-identical to the original
//! intrusive-list cache), [`Lfu`], [`Slru`], [`TinyLfu`], and [`S3Fifo`].
//!
//! ## Determinism contract
//!
//! Policies are pure data structures: no wall clock, no ambient
//! randomness, no hash-ordered iteration. The only randomness a policy may
//! use is the `seed` passed to [`PolicyKind::build`] — derived by the
//! simulator from the edge's SplitMix64 stream — which [`TinyLfu`] uses to
//! key its frequency-sketch hash functions. Two caches built from the same
//! `(kind, capacity, seed)` and fed the same event sequence are in
//! identical states after every event.

use std::collections::VecDeque;

use crate::cache::IdMap;

/// Marker for "no slot" in the intrusive lists.
const NIL: usize = usize::MAX;

/// How slot events reach a policy and how victims leave it.
///
/// Slot indices are stable from `on_insert` until the matching
/// `on_remove`; the core reuses indices afterwards. `key_hash` is a stable
/// 64-bit hash of the entry's key (see [`crate::cache::StableKey`]), the
/// only identity a policy may persist past removal (ghost lists,
/// frequency sketches).
pub trait EvictionPolicy: std::fmt::Debug + Send + Sync {
    /// Short policy name (`"lru"`, `"tinylfu"`, …) for tables and logs.
    fn name(&self) -> &'static str;

    /// A new slot was admitted with `size` bytes.
    fn on_insert(&mut self, idx: usize, key_hash: u64, size: u64);

    /// An existing slot was refreshed in place with a (possibly changed)
    /// size. The default treats a refresh as a hit; size-tracking policies
    /// override it to update their byte accounting.
    fn on_refresh(&mut self, idx: usize, key_hash: u64, size: u64) {
        let _ = size;
        self.on_hit(idx, key_hash);
    }

    /// A resident slot served a lookup (fresh or stale).
    fn on_hit(&mut self, idx: usize, key_hash: u64);

    /// The slot left the cache (eviction, expiry, or explicit removal).
    fn on_remove(&mut self, idx: usize);

    /// Picks the next victim among resident slots. Returns `None` only
    /// when the policy tracks no slots. Called repeatedly until the core
    /// is back under its byte budget; each returned slot is removed (with
    /// `on_remove`) before the next call.
    fn victim(&mut self) -> Option<usize>;
}

/// The available eviction policies, for configuration surfaces (CLI
/// flags, tier specs, benchmarks).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PolicyKind {
    /// Least recently used (the reference policy).
    #[default]
    Lru,
    /// Least frequently used with LRU tie-breaking.
    Lfu,
    /// Segmented LRU: probationary + protected segments.
    Slru,
    /// TinyLFU admission over an LRU main cache (frequency sketch).
    TinyLfu,
    /// S3-FIFO: small/main FIFO queues with a ghost history.
    S3Fifo,
}

impl PolicyKind {
    /// Every kind, in table order.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::Lru,
        PolicyKind::Lfu,
        PolicyKind::Slru,
        PolicyKind::TinyLfu,
        PolicyKind::S3Fifo,
    ];

    /// The flag/table spelling (`lru`, `lfu`, `slru`, `tinylfu`,
    /// `s3fifo`).
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Lfu => "lfu",
            PolicyKind::Slru => "slru",
            PolicyKind::TinyLfu => "tinylfu",
            PolicyKind::S3Fifo => "s3fifo",
        }
    }

    /// Parses a flag spelling (case-insensitive; `s3-fifo` and `s3fifo`
    /// both accepted).
    pub fn parse(raw: &str) -> Result<PolicyKind, String> {
        match raw.to_ascii_lowercase().as_str() {
            "lru" => Ok(PolicyKind::Lru),
            "lfu" => Ok(PolicyKind::Lfu),
            "slru" => Ok(PolicyKind::Slru),
            "tinylfu" | "tiny-lfu" => Ok(PolicyKind::TinyLfu),
            "s3fifo" | "s3-fifo" => Ok(PolicyKind::S3Fifo),
            other => Err(format!(
                "unknown eviction policy {other:?} (lru|lfu|slru|tinylfu|s3fifo)"
            )),
        }
    }

    /// Builds a fresh policy instance for a cache of `capacity` bytes.
    /// `seed` feeds any policy-internal hashing ([`TinyLfu`]'s sketch);
    /// deterministic policies ignore it.
    pub fn build(self, capacity: u64, seed: u64) -> Box<dyn EvictionPolicy> {
        match self {
            PolicyKind::Lru => Box::new(Lru::new()),
            PolicyKind::Lfu => Box::new(Lfu::new()),
            PolicyKind::Slru => Box::new(Slru::new(capacity)),
            PolicyKind::TinyLfu => Box::new(TinyLfu::new(capacity, seed)),
            PolicyKind::S3Fifo => Box::new(S3Fifo::new(capacity)),
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PolicyKind::parse(s)
    }
}

/// One link in an intrusive doubly-linked list over slot indices.
#[derive(Clone, Copy, Debug)]
struct Link {
    prev: usize,
    next: usize,
}

impl Default for Link {
    fn default() -> Self {
        Link {
            prev: NIL,
            next: NIL,
        }
    }
}

/// An intrusive list (head = most recent / front) whose links live in a
/// shared slab indexed by slot id. All operations are O(1).
#[derive(Clone, Debug)]
struct List {
    head: usize,
    tail: usize,
}

impl Default for List {
    fn default() -> List {
        List::new()
    }
}

impl List {
    fn new() -> List {
        List {
            head: NIL,
            tail: NIL,
        }
    }

    fn push_front(&mut self, links: &mut [Link], idx: usize) {
        links[idx] = Link {
            prev: NIL,
            next: self.head,
        };
        if self.head != NIL {
            links[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn unlink(&mut self, links: &mut [Link], idx: usize) {
        let Link { prev, next } = links[idx];
        if prev != NIL {
            links[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            links[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        links[idx] = Link::default();
    }

    fn tail(&self) -> Option<usize> {
        (self.tail != NIL).then_some(self.tail)
    }
}

/// Grows `links` so `idx` is addressable.
fn ensure_slot(links: &mut Vec<Link>, idx: usize) {
    if idx >= links.len() {
        links.resize(idx + 1, Link::default());
    }
}

// --------------------------------------------------------------------- LRU

/// Least recently used: the reference policy, byte-identical in behavior
/// to the original intrusive-list `LruCache`.
#[derive(Clone, Debug, Default)]
pub struct Lru {
    links: Vec<Link>,
    list: List,
}

impl Lru {
    /// Creates an empty LRU order.
    pub fn new() -> Lru {
        Lru {
            links: Vec::new(),
            list: List::new(),
        }
    }
}

impl EvictionPolicy for Lru {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn on_insert(&mut self, idx: usize, _key_hash: u64, _size: u64) {
        ensure_slot(&mut self.links, idx);
        self.list.push_front(&mut self.links, idx);
    }

    fn on_hit(&mut self, idx: usize, _key_hash: u64) {
        if self.list.head == idx {
            return;
        }
        self.list.unlink(&mut self.links, idx);
        self.list.push_front(&mut self.links, idx);
    }

    fn on_remove(&mut self, idx: usize) {
        self.list.unlink(&mut self.links, idx);
    }

    fn victim(&mut self) -> Option<usize> {
        self.list.tail()
    }
}

// --------------------------------------------------------------------- LFU

/// Least frequently used with LRU order inside each frequency class.
///
/// Frequency buckets live in a `BTreeMap` keyed by access count, so the
/// victim scan (`first bucket → tail`) is deterministic and O(log F).
#[derive(Clone, Debug, Default)]
pub struct Lfu {
    links: Vec<Link>,
    freq: Vec<u64>,
    buckets: std::collections::BTreeMap<u64, List>,
}

impl Lfu {
    /// Creates an empty LFU order.
    pub fn new() -> Lfu {
        Lfu::default()
    }

    fn push(&mut self, idx: usize, f: u64) {
        self.freq[idx] = f;
        self.buckets
            .entry(f)
            .or_default()
            .push_front(&mut self.links, idx);
    }

    fn unlink(&mut self, idx: usize) {
        let f = self.freq[idx];
        if let Some(list) = self.buckets.get_mut(&f) {
            list.unlink(&mut self.links, idx);
            if list.head == NIL {
                self.buckets.remove(&f);
            }
        }
    }
}

impl EvictionPolicy for Lfu {
    fn name(&self) -> &'static str {
        "lfu"
    }

    fn on_insert(&mut self, idx: usize, _key_hash: u64, _size: u64) {
        ensure_slot(&mut self.links, idx);
        if idx >= self.freq.len() {
            self.freq.resize(idx + 1, 0);
        }
        self.push(idx, 1);
    }

    fn on_hit(&mut self, idx: usize, _key_hash: u64) {
        let f = self.freq[idx];
        self.unlink(idx);
        self.push(idx, f.saturating_add(1));
    }

    fn on_remove(&mut self, idx: usize) {
        self.unlink(idx);
    }

    fn victim(&mut self) -> Option<usize> {
        self.buckets.values().next().and_then(List::tail)
    }
}

// -------------------------------------------------------------------- SLRU

/// Which SLRU segment a slot lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Segment {
    Probation,
    Protected,
}

/// Segmented LRU: new entries enter a probationary segment; a hit
/// promotes into a protected segment capped at 80% of the byte budget,
/// demoting the protected LRU back to probation when it overflows.
/// Victims come from the probation tail first.
#[derive(Clone, Debug)]
pub struct Slru {
    links: Vec<Link>,
    seg: Vec<Segment>,
    size: Vec<u64>,
    probation: List,
    protected: List,
    protected_bytes: u64,
    protected_cap: u64,
}

impl Slru {
    /// Creates the two-segment order for a cache of `capacity` bytes.
    pub fn new(capacity: u64) -> Slru {
        Slru {
            links: Vec::new(),
            seg: Vec::new(),
            size: Vec::new(),
            probation: List::new(),
            protected: List::new(),
            protected_bytes: 0,
            // 80/20 protected/probation split (the classic SLRU ratio).
            protected_cap: capacity / 5 * 4,
        }
    }

    fn ensure(&mut self, idx: usize) {
        ensure_slot(&mut self.links, idx);
        if idx >= self.seg.len() {
            self.seg.resize(idx + 1, Segment::Probation);
            self.size.resize(idx + 1, 0);
        }
    }

    fn shrink_protected(&mut self) {
        while self.protected_bytes > self.protected_cap {
            let Some(old) = self.protected.tail() else {
                break;
            };
            self.protected.unlink(&mut self.links, old);
            self.protected_bytes -= self.size[old];
            self.seg[old] = Segment::Probation;
            self.probation.push_front(&mut self.links, old);
        }
    }
}

impl EvictionPolicy for Slru {
    fn name(&self) -> &'static str {
        "slru"
    }

    fn on_insert(&mut self, idx: usize, _key_hash: u64, size: u64) {
        self.ensure(idx);
        self.seg[idx] = Segment::Probation;
        self.size[idx] = size;
        self.probation.push_front(&mut self.links, idx);
    }

    fn on_refresh(&mut self, idx: usize, key_hash: u64, size: u64) {
        if self.seg[idx] == Segment::Protected {
            self.protected_bytes = self.protected_bytes - self.size[idx] + size;
        }
        self.size[idx] = size;
        self.on_hit(idx, key_hash);
        self.shrink_protected();
    }

    fn on_hit(&mut self, idx: usize, _key_hash: u64) {
        match self.seg[idx] {
            Segment::Probation => {
                self.probation.unlink(&mut self.links, idx);
                self.seg[idx] = Segment::Protected;
                self.protected_bytes += self.size[idx];
                self.protected.push_front(&mut self.links, idx);
                self.shrink_protected();
            }
            Segment::Protected => {
                if self.protected.head != idx {
                    self.protected.unlink(&mut self.links, idx);
                    self.protected.push_front(&mut self.links, idx);
                }
            }
        }
    }

    fn on_remove(&mut self, idx: usize) {
        match self.seg[idx] {
            Segment::Probation => self.probation.unlink(&mut self.links, idx),
            Segment::Protected => {
                self.protected.unlink(&mut self.links, idx);
                self.protected_bytes -= self.size[idx];
            }
        }
    }

    fn victim(&mut self) -> Option<usize> {
        self.probation.tail().or_else(|| self.protected.tail())
    }
}

// ----------------------------------------------------------------- TinyLFU

/// SplitMix64 finalizer: the workspace's standard bit mixer.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A 4-row count–min sketch with 4-bit-style saturation (u8 counters
/// capped at 15) and periodic halving, the TinyLFU frequency filter.
#[derive(Clone, Debug)]
struct FrequencySketch {
    rows: [Vec<u8>; 4],
    mask: u64,
    seeds: [u64; 4],
    additions: u64,
    sample_size: u64,
}

impl FrequencySketch {
    fn new(capacity: u64, seed: u64) -> FrequencySketch {
        // One counter per ~1 KiB of budget: enough resolution for the
        // simulator's object universe without unbounded memory.
        let width = (capacity / 1024).clamp(1024, 1 << 20).next_power_of_two() as usize;
        let seeds = [
            splitmix(seed ^ 0x9E37),
            splitmix(seed ^ 0x85EB),
            splitmix(seed ^ 0xC2B2),
            splitmix(seed ^ 0x27D4),
        ];
        FrequencySketch {
            rows: std::array::from_fn(|_| vec![0u8; width]),
            mask: width as u64 - 1,
            seeds,
            additions: 0,
            sample_size: (width as u64) * 10,
        }
    }

    fn increment(&mut self, hash: u64) {
        for (row, &rs) in self.rows.iter_mut().zip(&self.seeds) {
            let slot = (splitmix(hash ^ rs) & self.mask) as usize;
            if row[slot] < 15 {
                row[slot] += 1;
            }
        }
        self.additions += 1;
        if self.additions >= self.sample_size {
            self.age();
        }
    }

    fn estimate(&self, hash: u64) -> u8 {
        self.rows
            .iter()
            .zip(&self.seeds)
            .map(|(row, &rs)| row[(splitmix(hash ^ rs) & self.mask) as usize])
            .min()
            .unwrap_or(0)
    }

    /// Halves every counter, keeping the sketch responsive to popularity
    /// shifts (the "reset" operation of the TinyLFU paper).
    fn age(&mut self) {
        for row in &mut self.rows {
            for c in row.iter_mut() {
                *c >>= 1;
            }
        }
        self.additions /= 2;
    }
}

/// TinyLFU admission over an LRU main cache.
///
/// Every access feeds the frequency sketch. When the core needs a victim
/// right after an insert, the newest entry is the *candidate*: it is
/// evicted itself (admission denied) unless the sketch estimates it to be
/// more popular than the LRU tail.
#[derive(Clone, Debug)]
pub struct TinyLfu {
    lru: Lru,
    hash: Vec<u64>,
    sketch: FrequencySketch,
    candidate: Option<usize>,
}

impl TinyLfu {
    /// Creates the policy for a cache of `capacity` bytes; `seed` keys
    /// the sketch's hash functions.
    pub fn new(capacity: u64, seed: u64) -> TinyLfu {
        TinyLfu {
            lru: Lru::new(),
            hash: Vec::new(),
            sketch: FrequencySketch::new(capacity, seed),
            candidate: None,
        }
    }
}

impl EvictionPolicy for TinyLfu {
    fn name(&self) -> &'static str {
        "tinylfu"
    }

    fn on_insert(&mut self, idx: usize, key_hash: u64, size: u64) {
        if idx >= self.hash.len() {
            self.hash.resize(idx + 1, 0);
        }
        self.hash[idx] = key_hash;
        self.sketch.increment(key_hash);
        self.lru.on_insert(idx, key_hash, size);
        self.candidate = Some(idx);
    }

    fn on_hit(&mut self, idx: usize, key_hash: u64) {
        self.sketch.increment(key_hash);
        self.lru.on_hit(idx, key_hash);
        // A demand hit proves the entry's worth; it is no longer the
        // admission candidate.
        if self.candidate == Some(idx) {
            self.candidate = None;
        }
    }

    fn on_remove(&mut self, idx: usize) {
        self.lru.on_remove(idx);
        if self.candidate == Some(idx) {
            self.candidate = None;
        }
    }

    fn victim(&mut self) -> Option<usize> {
        let tail = self.lru.victim()?;
        let Some(candidate) = self.candidate else {
            return Some(tail);
        };
        if candidate == tail {
            return Some(tail);
        }
        // Admission duel: the newcomer must beat the tail's frequency to
        // stay; ties favor the resident entry (scan resistance).
        if self.sketch.estimate(self.hash[candidate]) > self.sketch.estimate(self.hash[tail]) {
            Some(tail)
        } else {
            Some(candidate)
        }
    }
}

// ----------------------------------------------------------------- S3-FIFO

/// Which S3-FIFO queue a slot lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Queue {
    Small,
    Main,
}

/// S3-FIFO: a small probationary FIFO (10% of bytes), a main FIFO, and a
/// ghost history of recently evicted keys.
///
/// One-hit-wonders die cheaply out of the small queue; entries re-accessed
/// while small (or remembered by the ghost) enter the main queue, which
/// evicts FIFO-with-lazy-promotion (a touched tail is reinserted with its
/// counter decremented instead of evicted).
#[derive(Clone, Debug)]
pub struct S3Fifo {
    links: Vec<Link>,
    queue: Vec<Queue>,
    freq: Vec<u8>,
    hash: Vec<u64>,
    size: Vec<u64>,
    small: List,
    main: List,
    small_bytes: u64,
    small_target: u64,
    main_count: usize,
    ghost: VecDeque<u64>,
    ghost_set: IdMap<u64, u32>,
}

impl S3Fifo {
    /// Creates the three-queue order for a cache of `capacity` bytes.
    pub fn new(capacity: u64) -> S3Fifo {
        S3Fifo {
            links: Vec::new(),
            queue: Vec::new(),
            freq: Vec::new(),
            hash: Vec::new(),
            size: Vec::new(),
            small: List::new(),
            main: List::new(),
            small_bytes: 0,
            small_target: capacity / 10,
            main_count: 0,
            ghost: VecDeque::new(),
            ghost_set: IdMap::default(),
        }
    }

    fn ensure(&mut self, idx: usize) {
        ensure_slot(&mut self.links, idx);
        if idx >= self.queue.len() {
            self.queue.resize(idx + 1, Queue::Small);
            self.freq.resize(idx + 1, 0);
            self.hash.resize(idx + 1, 0);
            self.size.resize(idx + 1, 0);
        }
    }

    fn ghost_remember(&mut self, hash: u64) {
        self.ghost.push_back(hash);
        *self.ghost_set.entry(hash).or_insert(0) += 1;
        let cap = self.main_count.max(64);
        while self.ghost.len() > cap {
            if let Some(old) = self.ghost.pop_front() {
                if let Some(n) = self.ghost_set.get_mut(&old) {
                    *n -= 1;
                    if *n == 0 {
                        self.ghost_set.remove(&old);
                    }
                }
            }
        }
    }

    fn unlink(&mut self, idx: usize) {
        match self.queue[idx] {
            Queue::Small => {
                self.small.unlink(&mut self.links, idx);
                self.small_bytes -= self.size[idx];
            }
            Queue::Main => {
                self.main.unlink(&mut self.links, idx);
                self.main_count -= 1;
            }
        }
    }

    fn push_main(&mut self, idx: usize) {
        self.queue[idx] = Queue::Main;
        self.main.push_front(&mut self.links, idx);
        self.main_count += 1;
    }
}

impl EvictionPolicy for S3Fifo {
    fn name(&self) -> &'static str {
        "s3fifo"
    }

    fn on_insert(&mut self, idx: usize, key_hash: u64, size: u64) {
        self.ensure(idx);
        self.freq[idx] = 0;
        self.hash[idx] = key_hash;
        self.size[idx] = size;
        if self.ghost_set.contains_key(&key_hash) {
            // The ghost remembers this key: it was evicted recently while
            // still wanted, so it skips probation.
            self.push_main(idx);
        } else {
            self.queue[idx] = Queue::Small;
            self.small.push_front(&mut self.links, idx);
            self.small_bytes += size;
        }
    }

    fn on_refresh(&mut self, idx: usize, key_hash: u64, size: u64) {
        if self.queue[idx] == Queue::Small {
            self.small_bytes = self.small_bytes - self.size[idx] + size;
        }
        self.size[idx] = size;
        self.on_hit(idx, key_hash);
    }

    fn on_hit(&mut self, idx: usize, _key_hash: u64) {
        self.freq[idx] = self.freq[idx].saturating_add(1).min(3);
    }

    fn on_remove(&mut self, idx: usize) {
        self.unlink(idx);
    }

    fn victim(&mut self) -> Option<usize> {
        loop {
            let from_small = self.small_bytes > self.small_target || self.main.tail().is_none();
            if from_small {
                let Some(s) = self.small.tail() else {
                    return self.main.tail();
                };
                if self.freq[s] > 0 {
                    // Accessed while on probation: promote to main.
                    self.unlink(s);
                    self.freq[s] = 0;
                    self.push_main(s);
                    continue;
                }
                self.ghost_remember(self.hash[s]);
                return Some(s);
            }
            let m = self.main.tail()?;
            if self.freq[m] > 0 {
                // Lazy promotion: touched tails get another lap.
                self.main.unlink(&mut self.links, m);
                self.freq[m] -= 1;
                self.main.push_front(&mut self.links, m);
                continue;
            }
            return Some(m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a policy through a scripted sequence, mirroring what the
    /// cache core would do, and returns eviction order for `n` victims.
    fn evict_n(policy: &mut dyn EvictionPolicy, n: usize) -> Vec<usize> {
        let mut order = Vec::new();
        for _ in 0..n {
            let Some(v) = policy.victim() else { break };
            policy.on_remove(v);
            order.push(v);
        }
        order
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut p = Lru::new();
        for i in 0..4 {
            p.on_insert(i, i as u64, 1);
        }
        p.on_hit(0, 0);
        assert_eq!(evict_n(&mut p, 4), vec![1, 2, 3, 0]);
    }

    #[test]
    fn lfu_evicts_least_frequent_then_lru() {
        let mut p = Lfu::new();
        for i in 0..3 {
            p.on_insert(i, i as u64, 1);
        }
        p.on_hit(0, 0);
        p.on_hit(0, 0);
        p.on_hit(2, 2);
        // freq: 0→3, 1→1, 2→2.
        assert_eq!(evict_n(&mut p, 3), vec![1, 2, 0]);
    }

    #[test]
    fn slru_protects_reaccessed_entries() {
        let mut p = Slru::new(1000);
        for i in 0..4 {
            p.on_insert(i, i as u64, 100);
        }
        p.on_hit(1, 1); // promote 1 to protected
                        // Victims drain probation (3, 2, 0 in LRU order) before touching
                        // the protected segment.
        assert_eq!(evict_n(&mut p, 4), vec![0, 2, 3, 1]);
    }

    #[test]
    fn tinylfu_rejects_cold_newcomers() {
        let mut p = TinyLfu::new(1 << 20, 7);
        p.on_insert(0, 100, 1);
        for _ in 0..5 {
            p.on_hit(0, 100); // make 0 hot
        }
        p.on_insert(1, 200, 1); // cold candidate
                                // The cold newcomer loses the admission duel and is its own victim.
        assert_eq!(p.victim(), Some(1));
    }

    #[test]
    fn s3fifo_one_hit_wonders_die_in_small_queue() {
        let mut p = S3Fifo::new(1000);
        p.on_insert(0, 0, 400); // small_bytes 400 > target 100
        p.on_insert(1, 1, 400);
        p.on_hit(0, 0); // 0 earns promotion
        let v = p.victim().unwrap();
        assert_eq!(v, 1, "untouched probationary entry evicts first");
        p.on_remove(v);
        // 0 was promoted to main during the victim scan.
        assert_eq!(p.victim(), Some(0));
    }

    #[test]
    fn s3fifo_ghost_resurrects_into_main() {
        let mut p = S3Fifo::new(1000);
        p.on_insert(0, 42, 400);
        p.on_insert(1, 43, 400);
        let v = p.victim().unwrap(); // evicts 1 (FIFO tail is 0... or 0)
        p.on_remove(v);
        let ghosted = if v == 0 { 42 } else { 43 };
        // Re-inserting the ghosted key goes straight to main.
        p.on_insert(2, ghosted, 10);
        assert_eq!(p.queue[2], Queue::Main);
    }

    #[test]
    fn policy_kind_parses_and_round_trips() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.label()), Ok(kind));
        }
        assert_eq!(PolicyKind::parse("S3-FIFO"), Ok(PolicyKind::S3Fifo));
        assert!(PolicyKind::parse("arc").is_err());
    }

    #[test]
    fn sketch_ages_without_losing_order() {
        let mut s = FrequencySketch::new(1 << 20, 1);
        for _ in 0..10 {
            s.increment(1);
        }
        s.increment(2);
        assert!(s.estimate(1) > s.estimate(2));
        s.age();
        assert!(s.estimate(1) > s.estimate(2), "halving preserves order");
    }
}
