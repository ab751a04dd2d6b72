//! The edge cache: byte-capacity cache with per-entry TTL and a pluggable
//! eviction policy.
//!
//! [`PolicyCache`] owns residency — the key→slot map, sizes, expiry, the
//! byte budget — and delegates *ordering* to an [`EvictionPolicy`].
//! [`PolicyCache::new`] builds an LRU cache; with the
//! [`Lru`](crate::policy::Lru) policy the
//! cache behaves byte-identically to the original intrusive-list
//! implementation (locked in by the property suite in
//! `tests/lru_properties.rs`).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use jcdn_trace::{SimDuration, SimTime};

use crate::policy::{EvictionPolicy, PolicyKind};

#[derive(Clone, Debug)]
struct Slot {
    key: u32,
    hash: u64,
    size: u64,
    expires: SimTime,
    prefetched: bool,
}

/// Cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `get` calls that found a fresh entry.
    pub hits: u64,
    /// `get` calls that found nothing.
    pub misses: u64,
    /// `get` calls that found an expired entry (counted as misses too).
    pub expirations: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Hits whose entry was inserted by a prefetch and not yet touched by a
    /// demand request — the numerator of prefetch usefulness.
    pub prefetch_hits: u64,
    /// Lookups answered with an expired entry inside the stale-if-error
    /// grace window (neither a hit nor a miss).
    pub stale_hits: u64,
    /// Bytes evicted to make room (the payload sizes behind `evictions`).
    pub evicted_bytes: u64,
    /// High-water mark of resident bytes — the occupancy gauge.
    pub max_used_bytes: u64,
}

/// Outcome of a grace-aware cache lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// Entry resident and unexpired.
    Fresh,
    /// Entry expired, but still within the stale-if-error grace window; it
    /// stays resident so a later lookup can serve it again.
    Stale,
    /// Entry absent, or expired beyond the grace window (and removed).
    Miss,
}

/// SplitMix64 over the integer value: one golden-ratio step, then the
/// finalizer. The crate's one bit mixer — ids, policy sketches and every
/// derived seed stream go through it.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fixed-seed hasher for integer ids: one SplitMix64 finalizer per key
/// where the std `RandomState` runs SipHash under a per-process seed. Only
/// for maps that are never iterated, so their order cannot reach output.
#[derive(Debug, Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = mix64(self.0 ^ v);
    }
}

/// A hash map keyed by integer ids through [`IdHasher`].
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A byte-bounded cache with per-entry TTL and a pluggable eviction
/// policy.
///
/// Keys are object ids. Slot storage is a slab with a free list, so the
/// policy sees stable indices and every operation is O(1) amortized for
/// the LRU reference policy.
///
/// Every mutator (`get`, `insert`, `remove`) takes `&mut self`, and the
/// crate has no interior mutability outside the lockstep driver's
/// per-edge `Mutex`. So a simulation epoch, which sees the shared tiers
/// as a shared slice, cannot change them; its mutations wait in a log
/// for the epoch boundary (DESIGN.md §14). Mutating through a shared
/// slice does not compile:
///
/// ```compile_fail
/// use jcdn_cdnsim::cache::PolicyCache;
/// use jcdn_cdnsim::{SimDuration, SimTime};
///
/// fn epoch(tiers: &[PolicyCache]) {
///     tiers[0].insert(7, 100, SimDuration::from_secs(60), SimTime::ZERO, false);
/// }
/// ```
///
/// The same call through an exclusive slice, as the epoch-boundary flush
/// makes it, compiles. This twin shows that the block above fails for
/// the borrow alone, since rustdoc does not check the error code:
///
/// ```
/// use jcdn_cdnsim::cache::PolicyCache;
/// use jcdn_cdnsim::{SimDuration, SimTime};
///
/// fn flush(tiers: &mut [PolicyCache]) {
///     tiers[0].insert(7, 100, SimDuration::from_secs(60), SimTime::ZERO, false);
/// }
/// let mut tiers = vec![PolicyCache::new(1000)];
/// flush(&mut tiers);
/// assert!(tiers[0].peek(7, SimTime::ZERO));
/// ```
#[derive(Debug)]
pub struct PolicyCache {
    map: IdMap<u32, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    capacity: u64,
    used: u64,
    stats: CacheStats,
    policy: Box<dyn EvictionPolicy>,
}

impl PolicyCache {
    /// Creates an LRU cache bounded by `capacity` bytes.
    ///
    /// # Panics
    /// Panics when `capacity == 0`.
    pub fn new(capacity: u64) -> Self {
        PolicyCache::with_policy(capacity, PolicyKind::Lru, 0)
    }

    /// Creates a cache bounded by `capacity` bytes running `kind`. `seed`
    /// feeds any policy-internal hashing (TinyLFU's sketch) and must come
    /// from the simulation's deterministic seed stream.
    ///
    /// # Panics
    /// Panics when `capacity == 0`.
    pub fn with_policy(capacity: u64, kind: PolicyKind, seed: u64) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        PolicyCache {
            map: IdMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            capacity,
            used: 0,
            stats: CacheStats::default(),
            policy: kind.build(capacity, seed),
        }
    }

    /// Short name of the eviction policy in charge.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Bytes currently resident.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up `key` at time `now`, refreshing recency on hit. An expired
    /// entry is removed and counted as a miss (plus an expiration).
    pub fn get(&mut self, key: u32, now: SimTime) -> bool {
        self.get_with_grace(key, now, SimDuration::ZERO) == Lookup::Fresh
    }

    /// Looks up `key` at time `now`, tolerating entries that expired no more
    /// than `grace` ago (stale-if-error). A stale entry stays resident — the
    /// caller decides whether to serve it — while an entry expired beyond
    /// the grace window is removed and counted as a miss. With
    /// `grace == ZERO` this is exactly [`PolicyCache::get`].
    pub fn get_with_grace(&mut self, key: u32, now: SimTime, grace: SimDuration) -> Lookup {
        match self.map.get(&key).copied() {
            None => {
                self.stats.misses += 1;
                Lookup::Miss
            }
            Some(idx) => {
                let expires = self.slots[idx].expires;
                if expires <= now {
                    if expires.saturating_add(grace) <= now {
                        self.remove_slot(idx);
                        self.stats.expirations += 1;
                        self.stats.misses += 1;
                        return Lookup::Miss;
                    }
                    self.policy.on_hit(idx, self.slots[idx].hash);
                    self.stats.stale_hits += 1;
                    return Lookup::Stale;
                }
                if self.slots[idx].prefetched {
                    self.slots[idx].prefetched = false;
                    self.stats.prefetch_hits += 1;
                }
                self.policy.on_hit(idx, self.slots[idx].hash);
                self.stats.hits += 1;
                Lookup::Fresh
            }
        }
    }

    /// True when `key` is resident and fresh, without recency/stat effects.
    pub fn peek(&self, key: u32, now: SimTime) -> bool {
        self.map
            .get(&key)
            .is_some_and(|&idx| self.slots[idx].expires > now)
    }

    /// Inserts (or refreshes) `key` with `size` bytes and `ttl` lifetime.
    /// Entries larger than the whole capacity are rejected (returns false).
    /// `prefetched` marks entries inserted speculatively.
    pub fn insert(
        &mut self,
        key: u32,
        size: u64,
        ttl: SimDuration,
        now: SimTime,
        prefetched: bool,
    ) -> bool {
        if size > self.capacity {
            return false;
        }
        let expires = now.saturating_add(ttl);
        if let Some(&idx) = self.map.get(&key) {
            // Refresh in place.
            self.used = self.used - self.slots[idx].size + size;
            self.slots[idx].size = size;
            self.slots[idx].expires = expires;
            self.slots[idx].prefetched = prefetched;
            self.policy.on_refresh(idx, self.slots[idx].hash, size);
            self.evict_to_fit();
            self.stats.max_used_bytes = self.stats.max_used_bytes.max(self.used);
            return true;
        }
        self.used += size;
        // Policy-side identity (frequency sketches, ghost lists) keys on
        // this hash, so it must not vary between runs or platforms.
        let hash = mix64(u64::from(key));
        let slot = Slot {
            key,
            hash,
            size,
            expires,
            prefetched,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = slot;
                idx
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.policy.on_insert(idx, hash, size);
        self.evict_to_fit();
        self.stats.max_used_bytes = self.stats.max_used_bytes.max(self.used);
        true
    }

    /// Removes `key` if present; returns whether it was resident.
    pub fn remove(&mut self, key: u32) -> bool {
        match self.map.get(&key).copied() {
            Some(idx) => {
                self.remove_slot(idx);
                true
            }
            None => false,
        }
    }

    fn evict_to_fit(&mut self) {
        while self.used > self.capacity {
            let Some(victim) = self.policy.victim() else {
                debug_assert!(false, "over capacity with no victim");
                break;
            };
            self.stats.evicted_bytes += self.slots[victim].size;
            self.remove_slot(victim);
            self.stats.evictions += 1;
        }
    }

    fn remove_slot(&mut self, idx: usize) {
        self.policy.on_remove(idx);
        let key = self.slots[idx].key;
        self.used -= self.slots[idx].size;
        self.map.remove(&key);
        self.free.push(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TTL: SimDuration = SimDuration::MINUTE;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn basic_hit_and_miss() {
        let mut c = PolicyCache::new(1000);
        assert!(!c.get(1, t(0)));
        assert!(c.insert(1, 100, TTL, t(0), false));
        assert!(c.get(1, t(1)));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.used_bytes(), 100);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = PolicyCache::new(300);
        c.insert(1, 100, TTL, t(0), false);
        c.insert(2, 100, TTL, t(1), false);
        c.insert(3, 100, TTL, t(2), false);
        // Touch 1 so 2 becomes LRU.
        assert!(c.get(1, t(3)));
        c.insert(4, 100, TTL, t(4), false);
        assert!(c.peek(1, t(5)));
        assert!(!c.peek(2, t(5)), "LRU entry must be evicted");
        assert!(c.peek(3, t(5)));
        assert!(c.peek(4, t(5)));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.used_bytes(), 300);
    }

    #[test]
    fn ttl_expiry_counts_as_miss() {
        let mut c = PolicyCache::new(1000);
        c.insert(1, 10, SimDuration::from_secs(30), t(0), false);
        assert!(c.get(1, t(29)));
        assert!(!c.get(1, t(30)), "expires at exactly t+ttl");
        assert_eq!(c.stats().expirations, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn refresh_updates_size_and_expiry() {
        let mut c = PolicyCache::new(1000);
        c.insert(1, 100, SimDuration::from_secs(10), t(0), false);
        c.insert(1, 250, SimDuration::from_secs(100), t(5), false);
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_bytes(), 250);
        assert!(c.get(1, t(50)), "new TTL applies");
    }

    #[test]
    fn oversized_entries_rejected() {
        let mut c = PolicyCache::new(100);
        assert!(!c.insert(1, 101, TTL, t(0), false));
        assert!(c.is_empty());
        assert!(c.insert(2, 100, TTL, t(0), false));
    }

    #[test]
    fn eviction_cascades_for_large_inserts() {
        let mut c = PolicyCache::new(100);
        for k in 0..10 {
            c.insert(k, 10, TTL, t(0), false);
        }
        assert_eq!(c.len(), 10);
        c.insert(100, 95, TTL, t(1), false);
        assert!(c.peek(100, t(2)));
        assert!(c.used_bytes() <= 100);
        assert_eq!(c.stats().evictions, 10, "all small entries evicted");
    }

    #[test]
    fn remove_and_reuse_slots() {
        let mut c = PolicyCache::new(1000);
        c.insert(1, 10, TTL, t(0), false);
        assert!(c.remove(1));
        assert!(!c.remove(1));
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
        // Slot gets reused without growing the slab.
        c.insert(2, 10, TTL, t(0), false);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn prefetch_hit_accounting() {
        let mut c = PolicyCache::new(1000);
        c.insert(1, 10, TTL, t(0), true);
        assert!(c.get(1, t(1)));
        assert_eq!(c.stats().prefetch_hits, 1);
        // Second hit on the same entry is a plain hit.
        assert!(c.get(1, t(2)));
        assert_eq!(c.stats().prefetch_hits, 1);
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn grace_window_serves_stale_then_expires() {
        let mut c = PolicyCache::new(1000);
        c.insert(1, 10, SimDuration::from_secs(30), t(0), false);
        let grace = SimDuration::from_secs(60);
        assert_eq!(c.get_with_grace(1, t(29), grace), Lookup::Fresh);
        // Expired at t=30; within the 60 s grace it is stale, not gone.
        assert_eq!(c.get_with_grace(1, t(30), grace), Lookup::Stale);
        assert_eq!(c.get_with_grace(1, t(89), grace), Lookup::Stale);
        assert_eq!(c.len(), 1, "stale entries stay resident");
        // Grace ends at expiry + 60 s.
        assert_eq!(c.get_with_grace(1, t(90), grace), Lookup::Miss);
        assert!(c.is_empty());
        assert_eq!(c.stats().stale_hits, 2);
        assert_eq!(c.stats().expirations, 1);
    }

    #[test]
    fn zero_grace_matches_plain_get() {
        let mut c = PolicyCache::new(1000);
        c.insert(1, 10, SimDuration::from_secs(30), t(0), false);
        assert_eq!(
            c.get_with_grace(1, t(30), SimDuration::ZERO),
            Lookup::Miss,
            "zero grace keeps the old expire-at-ttl behaviour"
        );
        assert_eq!(c.stats().stale_hits, 0);
        assert_eq!(c.stats().expirations, 1);
    }

    #[test]
    fn peek_has_no_side_effects() {
        let mut c = PolicyCache::new(200);
        c.insert(1, 100, TTL, t(0), false);
        c.insert(2, 100, TTL, t(1), false);
        // Peeking 1 must NOT refresh it.
        assert!(c.peek(1, t(2)));
        c.insert(3, 100, TTL, t(3), false);
        assert!(!c.peek(1, t(4)), "peek must not have refreshed entry 1");
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn occupancy_and_eviction_byte_gauges() {
        let mut c = PolicyCache::new(300);
        c.insert(1, 200, TTL, t(0), false);
        c.insert(2, 100, TTL, t(1), false);
        assert_eq!(c.stats().max_used_bytes, 300);
        c.insert(3, 150, TTL, t(2), false); // evicts 1 (200 bytes)
        assert_eq!(c.stats().evicted_bytes, 200);
        assert_eq!(c.stats().max_used_bytes, 300, "high-water sticks");
        c.remove(2);
        c.remove(3);
        assert_eq!(c.stats().max_used_bytes, 300);
        assert_eq!(c.stats().evicted_bytes, 200, "removes are not evictions");
    }

    #[test]
    fn non_lru_policies_run_the_same_core() {
        for kind in PolicyKind::ALL {
            let mut c = PolicyCache::with_policy(500, kind, 7);
            for k in 0..20 {
                c.insert(k, 50, TTL, t(k as u64), false);
                c.get(k / 2, t(k as u64));
            }
            assert!(
                c.used_bytes() <= 500,
                "{kind}: byte budget violated ({} bytes)",
                c.used_bytes()
            );
            let resident = c.len() as u64 * 50;
            assert_eq!(c.used_bytes(), resident, "{kind}: size accounting");
            assert_eq!(c.policy_name(), kind.label());
        }
    }
}
