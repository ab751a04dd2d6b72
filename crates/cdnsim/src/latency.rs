//! Network latency model.

use jcdn_trace::SimDuration;
use rand::Rng;

/// Delays between the three tiers of the CDN path.
///
/// Values are means; each sample applies multiplicative jitter drawn from
/// `[1−jitter, 1+jitter]`, which is enough structure for the latency
/// comparisons the prefetch/deprioritization experiments make (absolute
/// calibration against Akamai's network is out of scope — see DESIGN.md).
#[derive(Clone, Copy, Debug)]
pub struct LatencyModel {
    /// Mean client↔edge round trip (the CDN's whole point is that this is
    /// small).
    pub client_edge_rtt: SimDuration,
    /// Mean edge↔origin round trip (the cost a miss or uncacheable request
    /// pays).
    pub edge_origin_rtt: SimDuration,
    /// Mean edge↔parent-tier round trip (a parent cache hit avoids the
    /// origin leg entirely).
    pub edge_parent_rtt: SimDuration,
    /// Transfer time per kilobyte of response body.
    pub per_kb: SimDuration,
    /// Multiplicative jitter amplitude in `[0, 1)`.
    pub jitter: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            client_edge_rtt: SimDuration::from_millis(20),
            edge_origin_rtt: SimDuration::from_millis(80),
            edge_parent_rtt: SimDuration::from_millis(25),
            per_kb: SimDuration::from_micros(80),
            jitter: 0.3,
        }
    }
}

impl LatencyModel {
    fn jittered<R: Rng + ?Sized>(&self, base: SimDuration, rng: &mut R) -> SimDuration {
        if self.jitter <= 0.0 {
            return base;
        }
        let factor = 1.0 + rng.gen_range(-self.jitter..self.jitter);
        SimDuration::from_secs_f64(base.as_secs_f64() * factor)
    }

    /// Latency of a response served from edge cache.
    pub(crate) fn hit_latency<R: Rng + ?Sized>(&self, bytes: u64, rng: &mut R) -> SimDuration {
        self.jittered(self.client_edge_rtt + self.transfer(bytes), rng)
    }

    /// Latency of a response that had to visit the origin.
    pub(crate) fn miss_latency<R: Rng + ?Sized>(&self, bytes: u64, rng: &mut R) -> SimDuration {
        self.jittered(
            self.client_edge_rtt + self.edge_origin_rtt + self.transfer(bytes),
            rng,
        )
    }

    /// One-way edge→origin fetch time (for scheduling prefetch completion).
    pub(crate) fn origin_fetch<R: Rng + ?Sized>(&self, bytes: u64, rng: &mut R) -> SimDuration {
        self.jittered(self.edge_origin_rtt + self.transfer(bytes), rng)
    }

    /// Latency of a response served from shared hierarchy tier `tier`
    /// (0-based, 0 = the tier closest to the edge). Each deeper tier adds
    /// one parent round trip, capped at the origin round trip — a shield
    /// hit can't cost more than going to the origin.
    pub(crate) fn tier_hit_latency<R: Rng + ?Sized>(
        &self,
        tier: usize,
        bytes: u64,
        rng: &mut R,
    ) -> SimDuration {
        let hops = self.edge_parent_rtt.as_micros() * (tier as u64 + 1);
        let upstream = SimDuration::from_micros(hops.min(self.edge_origin_rtt.as_micros()));
        self.jittered(self.client_edge_rtt + upstream + self.transfer(bytes), rng)
    }

    fn transfer(&self, bytes: u64) -> SimDuration {
        SimDuration::from_micros(self.per_kb.as_micros() * bytes.div_ceil(1024))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn misses_cost_more_than_hits() {
        let m = LatencyModel {
            jitter: 0.0,
            ..LatencyModel::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let hit = m.hit_latency(1024, &mut rng);
        let miss = m.miss_latency(1024, &mut rng);
        assert!(miss > hit);
        assert_eq!(miss - hit, m.edge_origin_rtt);
    }

    #[test]
    fn bigger_bodies_take_longer() {
        let m = LatencyModel {
            jitter: 0.0,
            ..LatencyModel::default()
        };
        let mut rng = StdRng::seed_from_u64(2);
        assert!(m.hit_latency(100_000, &mut rng) > m.hit_latency(100, &mut rng));
    }

    #[test]
    fn tier_zero_is_one_parent_hop_and_deep_tiers_cap_at_origin() {
        let m = LatencyModel {
            jitter: 0.0,
            ..LatencyModel::default()
        };
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(
            m.tier_hit_latency(0, 2048, &mut rng),
            m.client_edge_rtt
                + m.edge_parent_rtt
                + SimDuration::from_micros(2 * m.per_kb.as_micros())
        );
        let deep = m.tier_hit_latency(7, 2048, &mut rng);
        assert_eq!(deep, m.miss_latency(2048, &mut rng), "capped at origin");
        assert!(m.tier_hit_latency(1, 2048, &mut rng) > m.tier_hit_latency(0, 2048, &mut rng));
    }

    #[test]
    fn jitter_varies_but_stays_bounded() {
        let m = LatencyModel::default();
        let mut rng = StdRng::seed_from_u64(3);
        let base = LatencyModel { jitter: 0.0, ..m }
            .hit_latency(1024, &mut rng)
            .as_secs_f64();
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..100 {
            let sample = m.hit_latency(1024, &mut rng).as_secs_f64();
            assert!(sample > base * 0.65 && sample < base * 1.35);
            distinct.insert((sample * 1e9) as u64);
        }
        assert!(distinct.len() > 50, "jitter must actually vary");
    }
}
