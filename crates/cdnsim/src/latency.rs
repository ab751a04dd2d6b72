//! Network latency model.
//!
//! Delays between the three tiers of the CDN path. The values are means;
//! each sample applies multiplicative jitter drawn from
//! `[1 − JITTER, 1 + JITTER)`, which is enough structure for the latency
//! comparisons the prefetch/deprioritization experiments make (absolute
//! calibration against Akamai's network is out of scope — see DESIGN.md).

use jcdn_trace::SimDuration;
use rand::Rng;

/// Mean client↔edge round trip (the CDN's whole point is that this is
/// small).
pub(crate) const CLIENT_EDGE_RTT: SimDuration = SimDuration::from_millis(20);

/// Mean edge↔origin round trip (the cost a miss or uncacheable request
/// pays).
pub(crate) const EDGE_ORIGIN_RTT: SimDuration = SimDuration::from_millis(80);

/// Mean edge↔parent-tier round trip (a parent cache hit avoids the origin
/// leg entirely).
const EDGE_PARENT_RTT: SimDuration = SimDuration::from_millis(25);

/// Transfer time per KiB of response body.
const PER_KIB: SimDuration = SimDuration::from_micros(80);

/// Multiplicative jitter amplitude.
const JITTER: f64 = 0.3;

/// `base` scaled by one jitter factor drawn from `rng`.
fn jittered<R: Rng + ?Sized>(base: SimDuration, rng: &mut R) -> SimDuration {
    let factor = 1.0 + rng.gen_range(-JITTER..JITTER);
    SimDuration::from_secs_f64(base.as_secs_f64() * factor)
}

/// Latency of a response served from edge cache.
pub(crate) fn hit_latency<R: Rng + ?Sized>(bytes: u64, rng: &mut R) -> SimDuration {
    jittered(CLIENT_EDGE_RTT + transfer(bytes), rng)
}

/// Latency of a response that had to visit the origin.
pub(crate) fn miss_latency<R: Rng + ?Sized>(bytes: u64, rng: &mut R) -> SimDuration {
    jittered(CLIENT_EDGE_RTT + EDGE_ORIGIN_RTT + transfer(bytes), rng)
}

/// One-way edge→origin fetch time (for scheduling prefetch completion).
pub(crate) fn origin_fetch<R: Rng + ?Sized>(bytes: u64, rng: &mut R) -> SimDuration {
    jittered(EDGE_ORIGIN_RTT + transfer(bytes), rng)
}

/// Latency of a response served from shared hierarchy tier `tier`
/// (0-based, 0 = the tier closest to the edge). Each deeper tier adds one
/// parent round trip, capped at the origin round trip — a shield hit
/// can't cost more than going to the origin.
pub(crate) fn tier_hit_latency<R: Rng + ?Sized>(
    tier: usize,
    bytes: u64,
    rng: &mut R,
) -> SimDuration {
    let hops = EDGE_PARENT_RTT.as_micros() * (tier as u64 + 1);
    let upstream = SimDuration::from_micros(hops.min(EDGE_ORIGIN_RTT.as_micros()));
    jittered(CLIENT_EDGE_RTT + upstream + transfer(bytes), rng)
}

fn transfer(bytes: u64) -> SimDuration {
    SimDuration::from_micros(PER_KIB.as_micros() * bytes.div_ceil(1024))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One seed draws one jitter factor, so latencies drawn from equal
    /// seeds compare their means.
    fn seeded() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn misses_cost_more_than_hits() {
        let hit = hit_latency(1024, &mut seeded());
        let miss = miss_latency(1024, &mut seeded());
        assert!(miss > hit);
        assert_eq!(hit, jittered(CLIENT_EDGE_RTT + PER_KIB, &mut seeded()));
        assert_eq!(
            miss,
            jittered(CLIENT_EDGE_RTT + EDGE_ORIGIN_RTT + PER_KIB, &mut seeded())
        );
    }

    #[test]
    fn bigger_bodies_take_longer() {
        assert!(hit_latency(100_000, &mut seeded()) > hit_latency(100, &mut seeded()));
    }

    #[test]
    fn tier_zero_is_one_parent_hop_and_deep_tiers_cap_at_origin() {
        assert_eq!(
            tier_hit_latency(0, 2048, &mut seeded()),
            jittered(
                CLIENT_EDGE_RTT
                    + EDGE_PARENT_RTT
                    + SimDuration::from_micros(2 * PER_KIB.as_micros()),
                &mut seeded()
            )
        );
        let deep = tier_hit_latency(7, 2048, &mut seeded());
        assert_eq!(deep, miss_latency(2048, &mut seeded()), "capped at origin");
        assert!(
            tier_hit_latency(1, 2048, &mut seeded()) > tier_hit_latency(0, 2048, &mut seeded())
        );
    }

    #[test]
    fn jitter_varies_but_stays_bounded() {
        let mut rng = StdRng::seed_from_u64(3);
        let base = (CLIENT_EDGE_RTT + PER_KIB).as_secs_f64();
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..100 {
            let sample = hit_latency(1024, &mut rng).as_secs_f64();
            assert!(sample > base * 0.65 && sample < base * 1.35);
            distinct.insert((sample * 1e9) as u64);
        }
        assert!(distinct.len() > 50, "jitter must actually vary");
    }
}
