//! N-level cache hierarchy: declarative tier configuration plus the
//! deterministic shared-tier runtime.
//!
//! A [`CacheHierarchy`] describes the edge tier (one cache per edge) and
//! zero or more *shared* tiers (regional caches, an origin shield) that
//! all edges consult on a miss, ordered from closest-to-edge to
//! closest-to-origin. Placement is declarative: [`Placement`] selects
//! between leave-copy-everywhere and leave-copy-down.
//!
//! ## Determinism: epoch-synchronized shared tiers
//!
//! Shared tiers are the one piece of cross-edge mutable state in the
//! simulator, so they are updated under a bulk-synchronous discipline
//! that is identical whether edges run interleaved in one thread or in
//! parallel lockstep: simulated time is cut into epochs of
//! [`CacheHierarchy::sync_interval`]; within an epoch every lookup reads
//! the epoch-start snapshot (side-effect-free `peek`), and every intended
//! mutation is recorded as a `TierAccess` tagged with
//! `(time, edge, per-edge sequence)`. At the epoch boundary the log is
//! sorted by that tag and applied. Because the tag is derived only from
//! per-edge deterministic state, the post-flush tier contents are a pure
//! function of (workload, config) — byte-identical at any shard count.

use std::ops::Range;

use jcdn_trace::{SimDuration, SimTime};

use crate::cache::{mix64, PolicyCache};
use crate::policy::PolicyKind;

/// Upper bound on shared tiers, sized so per-tier counters can live in
/// fixed arrays on the simulator's hot path.
pub const MAX_SHARED_TIERS: usize = 8;

/// One tier of the hierarchy: a byte budget, an eviction policy, and an
/// optional cap on entry TTLs at this tier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TierSpec {
    /// Display name (`edge`, `regional`, `shield`, …) for tables/flags.
    pub name: String,
    /// Byte capacity. For the edge tier this is *per edge*.
    pub capacity: u64,
    /// Eviction policy run by this tier.
    pub policy: PolicyKind,
    /// Optional TTL ceiling: entries inserted at this tier live at most
    /// this long even when the object's own TTL is longer.
    pub ttl_cap: Option<SimDuration>,
}

impl TierSpec {
    /// A tier named `name` with `capacity` bytes of LRU and no TTL cap.
    pub fn lru(name: &str, capacity: u64) -> TierSpec {
        TierSpec {
            name: name.to_string(),
            capacity,
            policy: PolicyKind::Lru,
            ttl_cap: None,
        }
    }

    /// Returns this spec with a different policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> TierSpec {
        self.policy = policy;
        self
    }

    /// Effective TTL for an object with `ttl` at this tier.
    pub fn effective_ttl(&self, ttl: SimDuration) -> SimDuration {
        match self.ttl_cap {
            Some(cap) => ttl.min(cap),
            None => ttl,
        }
    }
}

/// Where copies land as objects flow down the hierarchy; [`Placement::fill`]
/// names the levels.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Placement {
    /// Leave-copy-everywhere: an origin fetch populates the edge and every
    /// shared tier; a tier hit populates the edge and every tier closer
    /// than the serving one. This is the classic CDN behavior.
    #[default]
    CopyEverywhere,
    /// Leave-copy-down: an origin fetch populates only the deepest shared
    /// tier; each hit copies the object exactly one level closer to the
    /// client. Popular objects percolate toward the edge; one-hit wonders
    /// stay near the origin (Fricker et al.'s LCD).
    CopyDown,
}

impl Placement {
    /// Flag spelling (`everywhere` | `copy-down`).
    pub fn label(self) -> &'static str {
        match self {
            Placement::CopyEverywhere => "everywhere",
            Placement::CopyDown => "copy-down",
        }
    }

    /// Parses a flag spelling.
    pub fn parse(raw: &str) -> Result<Placement, String> {
        match raw.to_ascii_lowercase().as_str() {
            "everywhere" | "lce" => Ok(Placement::CopyEverywhere),
            "copy-down" | "copydown" | "lcd" => Ok(Placement::CopyDown),
            other => Err(format!(
                "unknown placement {other:?} (everywhere|copy-down)"
            )),
        }
    }

    /// The levels that take a copy of an object served from level
    /// `served`. Levels count from the client: 0 is the edge, `t + 1` is
    /// shared tier `t`, and `shared.len() + 1` is the origin. An edge hit
    /// (`served == 0`) fills nothing.
    pub fn fill(self, served: usize) -> Range<usize> {
        match self {
            Placement::CopyEverywhere => 0..served,
            Placement::CopyDown => served.saturating_sub(1)..served,
        }
    }
}

/// Declarative N-level cache hierarchy: one per-edge tier plus shared
/// tiers ordered edge-side first (`shared[0]` is the regional tier the
/// edge asks first; `shared.last()` is the origin shield).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheHierarchy {
    /// The per-edge tier.
    pub edge: TierSpec,
    /// Shared tiers, closest-to-edge first. May be empty.
    pub shared: Vec<TierSpec>,
    /// Copy placement discipline.
    pub placement: Placement,
    /// Epoch length for the bulk-synchronous shared-tier update. Shorter
    /// epochs track the sequential parent semantics more closely; longer
    /// epochs cost fewer synchronization barriers. Ignored when `shared`
    /// is empty.
    pub sync_interval: SimDuration,
}

impl CacheHierarchy {
    /// Default epoch length: one simulated second.
    pub const DEFAULT_SYNC_INTERVAL: SimDuration = SimDuration::from_secs(1);

    /// A single-tier hierarchy: per-edge LRU of `capacity` bytes.
    pub fn single(capacity: u64) -> CacheHierarchy {
        CacheHierarchy {
            edge: TierSpec::lru("edge", capacity),
            shared: Vec::new(),
            placement: Placement::CopyEverywhere,
            sync_interval: Self::DEFAULT_SYNC_INTERVAL,
        }
    }

    /// A two-level stack: per-edge LRU plus one shared LRU parent,
    /// leave-copy-everywhere.
    pub fn with_parent(edge_capacity: u64, parent_capacity: u64) -> CacheHierarchy {
        CacheHierarchy {
            edge: TierSpec::lru("edge", edge_capacity),
            shared: vec![TierSpec::lru("parent", parent_capacity)],
            placement: Placement::CopyEverywhere,
            sync_interval: Self::DEFAULT_SYNC_INTERVAL,
        }
    }

    /// Number of shared tiers.
    pub fn shared_tiers(&self) -> usize {
        self.shared.len()
    }

    /// Checks structural invariants; returns a human-readable error.
    pub fn validate(&self) -> Result<(), String> {
        if self.edge.capacity == 0 {
            return Err("edge tier capacity must be positive".into());
        }
        if self.shared.len() > MAX_SHARED_TIERS {
            return Err(format!(
                "at most {MAX_SHARED_TIERS} shared tiers supported (got {})",
                self.shared.len()
            ));
        }
        for tier in &self.shared {
            if tier.capacity == 0 {
                return Err(format!("tier {:?} capacity must be positive", tier.name));
            }
        }
        if !self.shared.is_empty() && self.sync_interval == SimDuration::ZERO {
            return Err("sync interval must be positive with shared tiers".into());
        }
        Ok(())
    }
}

impl Default for CacheHierarchy {
    fn default() -> Self {
        CacheHierarchy::single(crate::SimConfig::default().cache_capacity)
    }
}

/// A shared tier's runtime state: the cache plus its spec-derived TTL cap.
#[derive(Debug)]
pub(crate) struct SharedTier {
    pub(crate) cache: PolicyCache<u32>,
    pub(crate) ttl_cap: Option<SimDuration>,
}

impl SharedTier {
    /// Builds runtime tiers from the hierarchy's shared specs. `seed` is
    /// the simulation seed; each tier's policy randomness is derived from
    /// it (SplitMix64-mixed with the tier index).
    pub(crate) fn build_all(hierarchy: &CacheHierarchy, seed: u64) -> Vec<SharedTier> {
        hierarchy
            .shared
            .iter()
            .enumerate()
            .map(|(t, spec)| SharedTier {
                cache: PolicyCache::with_policy(
                    spec.capacity,
                    spec.policy,
                    // Tier policy streams must differ from each other and
                    // from every edge's stream.
                    mix64(seed ^ 0x7C15_7C15_7C15_7C15 ^ (t as u64 + 1)),
                ),
                ttl_cap: spec.ttl_cap,
            })
            .collect()
    }
}

/// What a logged access does to a shared tier at flush time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AccessKind {
    /// Refresh recency/frequency for a resident object (policy `on_hit`
    /// via a real `get`; a vanished entry degrades to a no-op miss).
    Touch,
    /// Insert (or refresh) the object.
    Insert {
        /// Body size in bytes.
        size: u64,
        /// TTL before this tier's cap.
        ttl: SimDuration,
    },
}

/// One intended shared-tier mutation, recorded during an epoch and
/// applied at the boundary in `(time, edge, eseq)` order.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TierAccess {
    pub(crate) time: SimTime,
    pub(crate) edge: u32,
    /// Per-edge monotone sequence number: orders same-edge accesses that
    /// share a timestamp.
    pub(crate) eseq: u64,
    /// Shared tier index.
    pub(crate) tier: u8,
    pub(crate) object: u32,
    pub(crate) kind: AccessKind,
}

/// Applies a drained epoch log to the shared tiers in canonical order.
/// Applying an empty log is a no-op, so epoch boundaries can be skipped
/// when no edge touched a shared tier.
pub(crate) fn flush_accesses(tiers: &mut [SharedTier], log: &mut Vec<TierAccess>) {
    log.sort_by_key(|a| (a.time, a.edge, a.eseq));
    for access in log.iter() {
        let tier = &mut tiers[access.tier as usize];
        match access.kind {
            AccessKind::Touch => {
                // A real `get`: refreshes recency and counts hit/miss in
                // the tier's own CacheStats. The entry may have expired or
                // been evicted since the lookup — then this is a no-op
                // beyond the miss count.
                tier.cache.get(access.object, access.time);
            }
            AccessKind::Insert { size, ttl } => {
                let ttl = match tier.ttl_cap {
                    Some(cap) => ttl.min(cap),
                    None => ttl,
                };
                tier.cache
                    .insert(access.object, size, ttl, access.time, false);
            }
        }
    }
    log.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_catches_bad_shapes() {
        let mut h = CacheHierarchy::with_parent(1000, 4000);
        assert!(h.validate().is_ok());
        h.sync_interval = SimDuration::ZERO;
        assert!(h.validate().is_err());
        h.sync_interval = SimDuration::from_millis(100);
        h.shared[0].capacity = 0;
        assert!(h.validate().is_err());
        h.shared[0].capacity = 1;
        h.shared = vec![TierSpec::lru("t", 1); MAX_SHARED_TIERS + 1];
        assert!(h.validate().is_err());
    }

    #[test]
    fn flush_applies_in_time_edge_eseq_order() {
        let h = CacheHierarchy::with_parent(1000, 200);
        let mut tiers = SharedTier::build_all(&h, 42);
        let t0 = SimTime::from_secs(1);
        // Two edges insert different objects; capacity 200 holds only one.
        // Canonical order: edge 0 first, so edge 1's insert lands last and
        // wins the LRU fight regardless of log order.
        let mut log = vec![
            TierAccess {
                time: t0,
                edge: 1,
                eseq: 0,
                tier: 0,
                object: 7,
                kind: AccessKind::Insert {
                    size: 150,
                    ttl: SimDuration::MINUTE,
                },
            },
            TierAccess {
                time: t0,
                edge: 0,
                eseq: 0,
                tier: 0,
                object: 3,
                kind: AccessKind::Insert {
                    size: 150,
                    ttl: SimDuration::MINUTE,
                },
            },
        ];
        flush_accesses(&mut tiers, &mut log);
        assert!(log.is_empty());
        let later = SimTime::from_secs(2);
        assert!(
            tiers[0].cache.peek(7, later),
            "edge 1's insert applied last"
        );
        assert!(!tiers[0].cache.peek(3, later), "edge 0's insert evicted");
    }

    #[test]
    fn ttl_caps_apply_at_flush() {
        let h = CacheHierarchy {
            shared: vec![TierSpec {
                ttl_cap: Some(SimDuration::from_secs(10)),
                ..TierSpec::lru("shield", 1000)
            }],
            ..CacheHierarchy::single(1000)
        };
        let mut tiers = SharedTier::build_all(&h, 1);
        let mut log = vec![TierAccess {
            time: SimTime::ZERO,
            edge: 0,
            eseq: 0,
            tier: 0,
            object: 1,
            kind: AccessKind::Insert {
                size: 10,
                ttl: SimDuration::HOUR,
            },
        }];
        flush_accesses(&mut tiers, &mut log);
        assert!(tiers[0].cache.peek(1, SimTime::from_secs(9)));
        assert!(!tiers[0].cache.peek(1, SimTime::from_secs(10)), "capped");
    }
}
