//! Eviction-policy hit rates against an analytical model.
//!
//! Che's approximation predicts an LRU cache's hit rate from object
//! popularities and sizes alone: under independent requests, object `i`
//! (request probability `pᵢ`, size `sᵢ`) is resident when it was asked for
//! within the cache's characteristic time `T`, which is fixed by the byte
//! budget `C`:
//!
//! ```text
//! Σ sᵢ (1 − e^(−pᵢT)) = C,   hit rate = Σ pᵢ (1 − e^(−pᵢT))
//! ```
//!
//! Fricker et al. apply the same model to each layer of a cache hierarchy.
//! Here it checks the real `PolicyCache` LRU on a seeded Zipf trace, and
//! the four other policies must beat that LRU on the same trace — the
//! reason they exist.

use std::sync::OnceLock;

use jcdn_cdnsim::cache::PolicyCache;
use jcdn_cdnsim::{PolicyKind, SimDuration, SimTime};

const OBJECTS: usize = 10_000;
const REQUESTS: usize = 200_000;
const ALPHA: f64 = 0.9;
const SEED: u64 = 2019;
const CAPACITIES: [u64; 2] = [8 << 20, 32 << 20];

/// How far, in percentage points, the simulated LRU may sit from the model.
const TOLERANCE_POINTS: f64 = 0.5;

/// An independent-reference trace: each object's request probability and
/// size, and the requests drawn from those probabilities.
struct Workload {
    probability: Vec<f64>,
    size: Vec<u64>,
    requests: Vec<u32>,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    hash64(*state)
}

fn hash64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipf(`ALPHA`) popularity over `OBJECTS` ids in shuffled rank order (the
/// policies that hash ids must not see popularity in id order), a fixed
/// size per object from a three-bucket mix (70% small JSON-ish bodies,
/// 25% pages and scripts, 5% large blobs), and `REQUESTS` draws.
fn zipf_workload(seed: u64) -> Workload {
    let weights: Vec<f64> = (1..=OBJECTS).map(|r| (r as f64).powf(-ALPHA)).collect();
    let total: f64 = weights.iter().sum();
    let mut ids: Vec<u32> = (0..OBJECTS as u32).collect();
    let mut state = seed ^ 0x5EED_CAC4;
    for i in (1..ids.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        ids.swap(i, j);
    }
    let mut probability = vec![0.0; OBJECTS];
    for (rank, &id) in ids.iter().enumerate() {
        probability[id as usize] = weights[rank] / total;
    }
    let size = (0..OBJECTS as u64)
        .map(|id| {
            let h = hash64(id ^ seed);
            match h % 100 {
                0..=69 => 500 + h % 3_500,
                70..=94 => 8_000 + h % 56_000,
                _ => 400_000 + h % 1_600_000,
            }
        })
        .collect();
    let mut cumulative = Vec::with_capacity(OBJECTS);
    let mut sum = 0.0;
    for w in &weights {
        sum += w / total;
        cumulative.push(sum);
    }
    let requests = (0..REQUESTS)
        .map(|_| {
            let u = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            let rank = cumulative.partition_point(|&c| c < u).min(OBJECTS - 1);
            ids[rank]
        })
        .collect();
    Workload {
        probability,
        size,
        requests,
    }
}

fn workload() -> &'static Workload {
    static WORKLOAD: OnceLock<Workload> = OnceLock::new();
    WORKLOAD.get_or_init(|| zipf_workload(SEED))
}

/// Che's approximation of the LRU hit rate at `capacity` bytes: bisects
/// the characteristic time `T` (in requests) until the expected resident
/// bytes fill the budget.
fn che_hit_rate(w: &Workload, capacity: u64) -> f64 {
    let resident = |t: f64| -> f64 {
        w.probability
            .iter()
            .zip(&w.size)
            .map(|(&p, &s)| s as f64 * -(-p * t).exp_m1())
            .sum()
    };
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    while resident(hi) < capacity as f64 {
        hi *= 2.0;
    }
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if resident(mid) < capacity as f64 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let t = 0.5 * (lo + hi);
    w.probability.iter().map(|&p| p * -(-p * t).exp_m1()).sum()
}

/// The request hit rate of a `kind` cache of `capacity` bytes that inserts
/// every miss. Entries outlive the trace, so only eviction removes them.
fn hit_rate(w: &Workload, capacity: u64, kind: PolicyKind) -> f64 {
    let mut cache: PolicyCache<u32> = PolicyCache::with_policy(capacity, kind, 0xBE7C);
    let ttl = SimDuration::from_secs(86_400);
    let mut hits = 0u64;
    for (i, &object) in w.requests.iter().enumerate() {
        let now = SimTime::from_micros(i as u64 * 50);
        if cache.get(object, now) {
            hits += 1;
        } else {
            cache.insert(object, w.size[object as usize], ttl, now, false);
        }
    }
    hits as f64 / w.requests.len() as f64
}

#[test]
fn lru_hit_rate_matches_ches_approximation() {
    let w = workload();
    for capacity in CAPACITIES {
        let model = 100.0 * che_hit_rate(w, capacity);
        let simulated = 100.0 * hit_rate(w, capacity, PolicyKind::Lru);
        assert!(
            (simulated - model).abs() <= TOLERANCE_POINTS,
            "{} MiB: LRU hit rate {simulated:.2}% vs Che's approximation {model:.2}%",
            capacity >> 20
        );
    }
}

#[test]
fn every_other_policy_beats_lru() {
    let w = workload();
    for capacity in CAPACITIES {
        let lru = hit_rate(w, capacity, PolicyKind::Lru);
        for kind in PolicyKind::ALL {
            if kind == PolicyKind::Lru {
                continue;
            }
            let rate = hit_rate(w, capacity, kind);
            assert!(
                rate > lru,
                "{} MiB: {kind} hit rate {:.2}% does not beat LRU's {:.2}%",
                capacity >> 20,
                100.0 * rate,
                100.0 * lru
            );
        }
    }
}
