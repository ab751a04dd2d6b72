//! Property tests over the workload generator: structural invariants must
//! hold for every seed, not just the calibrated defaults.

use jcdn_trace::MimeType;
use jcdn_workload::{build, WorkloadConfig};
use proptest::prelude::*;

proptest! {
    // Building a workload is relatively expensive; a handful of seeds per
    // run is plenty — the point is seed-independence, not volume.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn structural_invariants_hold_for_any_seed(seed in any::<u64>()) {
        let config = WorkloadConfig::tiny(seed).scaled(0.3);
        let w = build(&config);

        // Events are time-sorted and reference valid indices.
        prop_assert!(w.events.windows(2).all(|p| p[0].time <= p[1].time));
        for e in &w.events {
            prop_assert!((e.client as usize) < w.clients.len());
            prop_assert!((e.object as usize) < w.objects.len());
        }

        // Every object belongs to a real domain, and its URL embeds that
        // domain's host.
        for o in &w.objects {
            prop_assert!((o.domain as usize) < w.domains.len());
            prop_assert!(
                o.url.contains(&w.domains[o.domain as usize].host),
                "{} not under {}",
                o.url,
                w.domains[o.domain as usize].host
            );
        }

        // Ground-truth periodic pairs reference planted periodic objects.
        #[expect(clippy::iter_over_hash_type, reason = "every entry is checked; order is irrelevant")]
        for ((_, object), period) in &w.truth.periodic_pairs {
            prop_assert_eq!(w.truth.periodic_objects.get(object), Some(period));
        }

        // Manifest children are real objects distinct from their root.
        #[expect(clippy::iter_over_hash_type, reason = "every entry is checked; order is irrelevant")]
        for (root, children) in &w.truth.manifest_children {
            for child in children {
                prop_assert!((*child as usize) < w.objects.len());
                prop_assert_ne!(child, root);
            }
        }

        // JSON stays the dominant content type for every seed.
        let json = w
            .events
            .iter()
            .filter(|e| w.objects[e.object as usize].mime == MimeType::Json)
            .count();
        prop_assert!(json * 2 > w.events.len(), "JSON below half");
    }

    #[test]
    fn same_seed_same_workload(seed in any::<u64>()) {
        let config = WorkloadConfig::tiny(seed).scaled(0.1);
        let a = build(&config);
        let b = build(&config);
        prop_assert_eq!(a.events, b.events);
        prop_assert_eq!(a.objects.len(), b.objects.len());
    }
}
