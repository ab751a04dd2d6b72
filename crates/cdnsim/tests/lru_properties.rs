//! Model-based property tests for the edge cache: the LRU must agree with
//! a naive reference implementation on every operation sequence.

use jcdn_cdnsim::cache::{Lookup, PolicyCache};
use jcdn_cdnsim::{SimDuration, SimTime};
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

/// Naive reference: a vector in recency order (front = most recent).
#[derive(Default)]
struct Reference {
    entries: Vec<(u32, u64)>, // (key, size), front = MRU
    capacity: u64,
}

impl Reference {
    fn used(&self) -> u64 {
        self.entries.iter().map(|&(_, s)| s).sum()
    }

    fn get(&mut self, key: u32) -> bool {
        if let Some(pos) = self.entries.iter().position(|&(k, _)| k == key) {
            let e = self.entries.remove(pos);
            self.entries.insert(0, e);
            true
        } else {
            false
        }
    }

    fn insert(&mut self, key: u32, size: u64) -> bool {
        if size > self.capacity {
            return false;
        }
        if let Some(pos) = self.entries.iter().position(|&(k, _)| k == key) {
            self.entries.remove(pos);
        }
        self.entries.insert(0, (key, size));
        while self.used() > self.capacity {
            self.entries.pop();
        }
        true
    }

    fn remove(&mut self, key: u32) -> bool {
        match self.entries.iter().position(|&(k, _)| k == key) {
            Some(pos) => {
                self.entries.remove(pos);
                true
            }
            None => false,
        }
    }
}

proptest! {
    #[test]
    fn lru_agrees_with_reference(
        ops in prop::collection::vec(arb_op(), 0..200),
        capacity in 100u64..2000,
    ) {
        // Long TTL so expiry never interferes; time advances per op so
        // recency updates are observable.
        let ttl = SimDuration::from_secs(1 << 30);
        let mut lru = PolicyCache::new(capacity);
        let mut reference = Reference { capacity, ..Reference::default() };
        for (i, op) in ops.iter().enumerate() {
            let now = SimTime::from_secs(i as u64);
            match *op {
                Op::Get(k) => {
                    prop_assert_eq!(lru.get(k, now), reference.get(k), "get({}) at step {}", k, i);
                }
                Op::Insert(k, s) => {
                    prop_assert_eq!(
                        lru.insert(k, u64::from(s), ttl, now, false),
                        reference.insert(k, u64::from(s)),
                        "insert({}, {}) at step {}", k, s, i
                    );
                }
                Op::Remove(k) => {
                    prop_assert_eq!(lru.remove(k), reference.remove(k), "remove({}) at step {}", k, i);
                }
            }
            // Invariants after every op.
            prop_assert_eq!(lru.len(), reference.entries.len());
            prop_assert_eq!(lru.used_bytes(), reference.used());
            prop_assert!(lru.used_bytes() <= capacity);
            for &(k, _) in &reference.entries {
                prop_assert!(lru.peek(k, SimTime::from_secs(i as u64)));
            }
        }
    }

    #[test]
    fn expired_entries_never_hit(
        ttl_secs in 1u64..100,
        probe_offset in 0u64..200,
    ) {
        let mut lru = PolicyCache::new(1000);
        lru.insert(1, 10, SimDuration::from_secs(ttl_secs), SimTime::ZERO, false);
        let hit = lru.get(1, SimTime::from_secs(probe_offset));
        prop_assert_eq!(hit, probe_offset < ttl_secs);
    }

    // The grace-aware lookup partitions time into exactly three regimes:
    // `Fresh` before the TTL, `Stale` from TTL to TTL+grace (entry stays
    // resident), and `Miss` past the grace window (entry is dropped, and
    // every later lookup misses too — even one back inside the window).
    #[test]
    fn grace_lookup_matches_the_three_regimes(
        ttl_secs in 1u64..50,
        grace_secs in 0u64..50,
        probe_offset in 0u64..200,
    ) {
        let ttl = SimDuration::from_secs(ttl_secs);
        let grace = SimDuration::from_secs(grace_secs);
        let mut lru = PolicyCache::new(1000);
        lru.insert(1, 10, ttl, SimTime::ZERO, false);
        let now = SimTime::from_secs(probe_offset);
        let expected = if probe_offset < ttl_secs {
            Lookup::Fresh
        } else if probe_offset < ttl_secs + grace_secs {
            Lookup::Stale
        } else {
            Lookup::Miss
        };
        prop_assert_eq!(lru.get_with_grace(1, now, grace), expected);
        match expected {
            // Fresh and stale entries stay resident and keep answering the
            // same way at the same instant.
            Lookup::Fresh | Lookup::Stale => {
                prop_assert_eq!(lru.len(), 1);
                prop_assert_eq!(lru.get_with_grace(1, now, grace), expected);
            }
            // A miss past the window evicts: the entry is gone for good,
            // even for a probe back inside the grace window.
            Lookup::Miss => {
                prop_assert_eq!(lru.len(), 0);
                prop_assert_eq!(
                    lru.get_with_grace(1, SimTime::from_secs(ttl_secs), grace),
                    Lookup::Miss
                );
            }
        }
    }

    // With mixed entry sizes, eviction strictly follows recency order:
    // inserting one oversized object evicts exactly the least-recent
    // entries needed to fit it, never a recently touched one.
    #[test]
    fn mixed_size_evictions_follow_recency_order(
        sizes in prop::collection::vec(1u64..120, 4..12),
        touched in prop::collection::vec(any::<prop::sample::Index>(), 1..4),
    ) {
        let ttl = SimDuration::from_secs(1 << 30);
        let capacity: u64 = sizes.iter().sum();
        let mut lru = PolicyCache::new(capacity);
        for (i, &s) in sizes.iter().enumerate() {
            lru.insert(i as u32, s, ttl, SimTime::from_secs(i as u64), false);
        }
        // Touch a few entries to scramble recency away from insert order.
        let t0 = sizes.len() as u64;
        let mut order: Vec<u32> = (0..sizes.len() as u32).collect(); // LRU → MRU
        for (j, idx) in touched.iter().enumerate() {
            let k = idx.index(sizes.len()) as u32;
            lru.get(k, SimTime::from_secs(t0 + j as u64));
            order.retain(|&o| o != k);
            order.push(k);
        }
        // Insert a new object that needs `need` bytes freed; the reference
        // says exactly the least-recent prefix of `order` must go.
        let need = capacity / 2 + 1;
        let now = SimTime::from_secs(t0 + touched.len() as u64);
        lru.insert(99, need, ttl, now, false);
        let mut freed = 0u64;
        let mut evicted = Vec::new();
        for &k in &order {
            if freed >= need {
                break;
            }
            freed += sizes[k as usize];
            evicted.push(k);
        }
        for &k in &order {
            let expect_resident = !evicted.contains(&k);
            prop_assert_eq!(
                lru.peek(k, now),
                expect_resident,
                "key {} (evicted prefix {:?}, recency {:?})", k, evicted, order
            );
        }
        prop_assert!(lru.peek(99, now));
        prop_assert!(lru.used_bytes() <= capacity);
    }

    // A prefetched entry counts toward `prefetch_hits` exactly once — on
    // its first demand hit — no matter how many more hits follow; demand
    // inserts never count.
    #[test]
    fn prefetched_flag_clears_on_first_demand_hit(
        prefetched in any::<bool>(),
        extra_hits in 0usize..5,
    ) {
        let ttl = SimDuration::from_secs(1 << 30);
        let mut lru = PolicyCache::new(1000);
        lru.insert(1, 10, ttl, SimTime::ZERO, prefetched);
        for i in 0..=extra_hits {
            prop_assert!(lru.get(1, SimTime::from_secs(1 + i as u64)));
        }
        prop_assert_eq!(lru.stats().prefetch_hits, u64::from(prefetched));
        prop_assert_eq!(lru.stats().hits, 1 + extra_hits as u64);
        // Re-inserting (refresh) re-arms the flag only if the refresh is
        // itself a prefetch.
        lru.insert(1, 10, ttl, SimTime::from_secs(100), true);
        lru.get(1, SimTime::from_secs(101));
        prop_assert_eq!(lru.stats().prefetch_hits, u64::from(prefetched) + 1);
    }
}
