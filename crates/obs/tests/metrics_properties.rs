//! Property tests for the snapshot merge algebra.
//!
//! Shard merging relies on `MetricsSnapshot::merge` forming a commutative
//! monoid over the counter/gauge/histogram triple: counters add, gauges
//! take the max, histograms add bucket-wise. Any shard count then folds
//! the same per-shard snapshots to the same total, in any order — which
//! is what makes the manifest's counter section shard-invariant.

use jcdn_obs::metrics::{Histogram, MetricsSnapshot};
use proptest::prelude::*;

/// A small arbitrary snapshot: a handful of counters, gauges, and
/// histogram observations drawn from a shared key space so merges
/// actually collide.
fn arb_snapshot() -> impl Strategy<Value = MetricsSnapshot> {
    let counter = (0u8..5, 0u64..1_000_000);
    let gauge = (0u8..3, 0u64..1_000_000);
    let observation = (0u8..3, 0u64..u64::MAX / 2);
    (
        prop::collection::vec(counter, 0..8),
        prop::collection::vec(gauge, 0..6),
        prop::collection::vec(observation, 0..12),
    )
        .prop_map(|(counters, gauges, observations)| {
            let mut s = MetricsSnapshot::new();
            for (k, v) in counters {
                s.inc(&format!("counter.{k}"), v);
            }
            for (k, v) in gauges {
                s.gauge_max(&format!("gauge.{k}"), v);
            }
            for (k, v) in observations {
                s.observe(&format!("hist.{k}"), v);
            }
            s
        })
}

/// Full observable state of a snapshot, for equality up to serialization.
fn fingerprint(s: &MetricsSnapshot) -> (jcdn_json::Value, jcdn_json::Value) {
    (s.counters_json(), s.perf_json())
}

fn merged(a: &MetricsSnapshot, b: &MetricsSnapshot) -> MetricsSnapshot {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    #[test]
    fn merge_is_commutative(a in arb_snapshot(), b in arb_snapshot()) {
        prop_assert_eq!(fingerprint(&merged(&a, &b)), fingerprint(&merged(&b, &a)));
    }

    #[test]
    fn merge_is_associative(
        a in arb_snapshot(),
        b in arb_snapshot(),
        c in arb_snapshot(),
    ) {
        let left = merged(&merged(&a, &b), &c);
        let right = merged(&a, &merged(&b, &c));
        prop_assert_eq!(fingerprint(&left), fingerprint(&right));
    }

    #[test]
    fn empty_snapshot_is_the_identity(a in arb_snapshot()) {
        let empty = MetricsSnapshot::new();
        prop_assert_eq!(fingerprint(&merged(&a, &empty)), fingerprint(&a));
        prop_assert_eq!(fingerprint(&merged(&empty, &a)), fingerprint(&a));
    }

    #[test]
    fn histogram_merge_preserves_count_and_sum(
        xs in prop::collection::vec(0u64..u64::MAX / 2, 0..32),
        split in 0usize..32,
    ) {
        let split = split.min(xs.len());
        let mut whole = Histogram::default();
        let mut left = Histogram::default();
        let mut right = Histogram::default();
        for (i, &x) in xs.iter().enumerate() {
            whole.observe(x);
            if i < split { left.observe(x) } else { right.observe(x) }
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert_eq!(left.sum(), whole.sum());
        prop_assert_eq!(left.max(), whole.max());
        prop_assert_eq!(left.to_json(), whole.to_json());
    }
}
