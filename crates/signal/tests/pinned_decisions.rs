//! Pinned §5.1 decisions on a fixed corpus.
//!
//! How the detector computes its periodogram and ACF may change; what it
//! decides may not. Every series below keeps its exact `period_bins`, or
//! `None`. x = 40 permutations and at most 4096 one-second bins keep the
//! corpus fast in a debug build. No series spans more than `max_bins`
//! seconds, so none is coarsened.

use jcdn_signal::periodicity::{detect_period, PeriodicityConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn cfg() -> PeriodicityConfig {
    PeriodicityConfig {
        permutations: 40,
        max_bins: 1 << 12,
        ..PeriodicityConfig::default()
    }
}

/// One client polling every `period` seconds for `span` seconds, each
/// request moved by up to `±jitter` seconds.
fn poller(period: f64, span: f64, jitter: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let phase = rng.gen_range(0.0..period);
    let mut times = Vec::new();
    let mut t = phase;
    while t < span {
        let j = if jitter > 0.0 {
            rng.gen_range(-jitter..jitter)
        } else {
            0.0
        };
        times.push((t + j).clamp(0.0, span));
        t += period;
    }
    times
}

/// `clients` pollers of the same period with independent phases, pooled
/// into one object flow.
fn pooled(period: f64, clients: u64, span: f64, jitter: f64, seed: u64) -> Vec<f64> {
    (0..clients)
        .flat_map(|c| poller(period, span, jitter, seed * 1000 + c))
        .collect()
}

/// Exponential inter-arrivals with mean `mean_gap` seconds.
fn poisson(mean_gap: f64, span: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut times = Vec::new();
    let mut t = 0.0;
    loop {
        let u: f64 = 1.0 - rng.gen::<f64>();
        t += -u.ln() * mean_gap;
        if t >= span {
            return times;
        }
        times.push(t);
    }
}

#[test]
fn decisions_on_a_fixed_corpus_are_pinned() {
    let corpus: Vec<(&str, Vec<f64>, Option<usize>)> = vec![
        ("30s clean", poller(30.0, 3600.0, 0.0, 1), Some(30)),
        ("30s ±1s", poller(30.0, 3600.0, 1.0, 2), Some(30)),
        ("30s ±3s", poller(30.0, 4000.0, 3.0, 3), Some(30)),
        ("60s ±0.5s", poller(60.0, 4000.0, 0.5, 4), Some(60)),
        ("60s ±2s", poller(60.0, 3000.0, 2.0, 5), Some(60)),
        ("60s ±6s", poller(60.0, 4000.0, 6.0, 6), Some(117)),
        ("120s ±1s", poller(120.0, 4000.0, 1.0, 7), Some(121)),
        ("120s ±4s", poller(120.0, 4000.0, 4.0, 8), Some(120)),
        ("600s ±2s", poller(600.0, 4090.0, 2.0, 9), None),
        ("600s ±10s", poller(600.0, 4090.0, 10.0, 10), None),
        (
            "pooled 8×30s ±1s",
            pooled(30.0, 8, 2000.0, 1.0, 11),
            Some(15),
        ),
        (
            "pooled 10×60s ±2s",
            pooled(60.0, 10, 4000.0, 2.0, 12),
            Some(15),
        ),
        (
            "pooled 5×120s ±1s",
            pooled(120.0, 5, 4000.0, 1.0, 13),
            Some(120),
        ),
        (
            "pooled 4×600s ±5s",
            pooled(600.0, 4, 4090.0, 5.0, 14),
            Some(600),
        ),
        ("poisson 60s a", poisson(60.0, 4000.0, 15), None),
        ("poisson 60s b", poisson(60.0, 4000.0, 16), None),
        ("poisson 20s", poisson(20.0, 3000.0, 17), None),
        ("poisson 5s", poisson(5.0, 2000.0, 18), None),
        (
            "60s ±1s + poisson 90s",
            [poller(60.0, 4000.0, 1.0, 19), poisson(90.0, 4000.0, 20)].concat(),
            Some(60),
        ),
    ];
    let c = cfg();
    let mismatches: Vec<String> = corpus
        .iter()
        .filter_map(|(name, times, expected)| {
            let got = detect_period(times, &c).map(|hit| hit.period_bins);
            (got != *expected).then(|| format!("{name}: expected {expected:?}, got {got:?}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
