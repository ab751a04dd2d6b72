//! Property tests for the statistics substrate.

use jcdn_stats::dist::{
    weighted_index, Exponential, LogNormal, Poisson, Sample, WeightedIndex, Zipf,
};
use jcdn_stats::{Ecdf, ExactQuantiles, Histogram, Summary, TimeSeries};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #[test]
    fn summary_merge_equals_sequential(
        xs in prop::collection::vec(-1e6f64..1e6, 0..200),
        split in 0usize..200,
    ) {
        let split = split.min(xs.len());
        let all: Summary = xs.iter().copied().collect();
        let mut left: Summary = xs[..split].iter().copied().collect();
        let right: Summary = xs[split..].iter().copied().collect();
        left.merge(&right);
        prop_assert_eq!(left.count(), all.count());
        if !xs.is_empty() {
            prop_assert!((left.mean().unwrap() - all.mean().unwrap()).abs() < 1e-6);
            prop_assert_eq!(left.min(), all.min());
            prop_assert_eq!(left.max(), all.max());
        }
    }

    #[test]
    fn quantiles_are_monotone_and_bounded(
        xs in prop::collection::vec(-1e9f64..1e9, 1..300),
    ) {
        let mut q: ExactQuantiles = xs.iter().copied().collect();
        let lo = q.quantile(0.0).unwrap();
        let hi = q.quantile(1.0).unwrap();
        let mut prev = lo;
        for i in 1..=10 {
            let v = q.quantile(i as f64 / 10.0).unwrap();
            prop_assert!(v >= prev - 1e-9, "quantiles must be non-decreasing");
            prev = v;
        }
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(lo, min);
        prop_assert_eq!(hi, max);
    }

    #[test]
    fn histogram_conserves_observations(
        xs in prop::collection::vec(-100f64..200.0, 0..500),
    ) {
        let mut h = Histogram::new(0.0, 100.0, 13);
        for &x in &xs {
            h.record(x);
        }
        prop_assert_eq!(h.total(), xs.len() as u64);
    }

    #[test]
    fn ecdf_eval_is_monotone(xs in prop::collection::vec(-1e3f64..1e3, 1..100)) {
        let e = Ecdf::from_samples(xs.iter().copied());
        let mut prev = 0.0;
        for i in -10..=10 {
            let p = e.eval(i as f64 * 100.0).unwrap();
            prop_assert!(p >= prev);
            prop_assert!((0.0..=1.0).contains(&p));
            prev = p;
        }
    }

    #[test]
    fn ecdf_inverse_roundtrip(xs in prop::collection::vec(-1e3f64..1e3, 1..100), p in 0.01f64..1.0) {
        let e = Ecdf::from_samples(xs.iter().copied());
        let x = e.inverse(p).unwrap();
        // F(F^-1(p)) >= p by definition of the generalized inverse.
        prop_assert!(e.eval(x).unwrap() >= p - 1e-12);
    }

    #[test]
    fn timeseries_total_counts_in_range_events(
        events in prop::collection::vec(0u64..1000, 0..200),
    ) {
        let mut ts = TimeSeries::new(100, 10, 50); // covers [100, 600)
        let in_range = events.iter().filter(|&&t| (100..600).contains(&t)).count();
        for &t in &events {
            ts.record(t);
        }
        prop_assert_eq!(ts.total(), in_range as u64);
    }

    #[test]
    fn zipf_samples_stay_in_support(n in 1usize..500, s in 0.0f64..3.0, seed in any::<u64>()) {
        let z = Zipf::new(n, s);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..100 {
            let k = z.sample(&mut rng);
            prop_assert!((1..=n).contains(&k));
        }
    }

    #[test]
    fn samplers_produce_finite_positive_values(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ln = LogNormal::new(5.0, 1.5);
        let ex = Exponential::new(0.5);
        let po = Poisson::new(4.0);
        for _ in 0..50 {
            let v = ln.sample(&mut rng);
            prop_assert!(v.is_finite() && v > 0.0);
            let v = ex.sample(&mut rng);
            prop_assert!(v.is_finite() && v >= 0.0);
            let _ = po.sample(&mut rng);
        }
    }

    #[test]
    fn weighted_index_returns_positive_weight(
        weights in prop::collection::vec(0.0f64..10.0, 1..20),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        match weighted_index(&mut rng, &weights) {
            Some(i) => prop_assert!(weights[i] > 0.0),
            None => prop_assert!(weights.iter().all(|&w| w <= 0.0)),
        }
    }

    #[test]
    fn weighted_table_draws_what_weighted_index_draws(
        weights in prop::collection::vec(0.0f64..10.0, 1..700),
        seed in any::<u64>(),
    ) {
        let table = WeightedIndex::new(weights.clone());
        let mut a = StdRng::seed_from_u64(seed);
        let mut b = StdRng::seed_from_u64(seed);
        for _ in 0..40 {
            prop_assert_eq!(table.sample(&mut a), weighted_index(&mut b, &weights));
        }
    }
}
