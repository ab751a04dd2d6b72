//! The headline resilience scenario: a ten-minute origin outage on one
//! domain, simulated with and without the client/edge countermeasures.
//!
//! The resilient run must deliver a strictly lower end-user error rate —
//! retries, serve-stale, and negative caching exist to absorb exactly this
//! kind of incident — and identical inputs must reproduce byte-identical
//! traces.

use jcdn_cdnsim::{run_default, FaultPlan, OriginOutage, ResilienceConfig, SimConfig, Window};
use jcdn_core::characterize::TokenCategoryProvider;
use jcdn_core::pipeline::CharacterizationReport;
use jcdn_trace::codec::encode;
use jcdn_workload::{build, Workload, WorkloadConfig};

/// Ten-minute hard outage covering most of the tiny workload's 300 s run
/// window (and then some), on the busiest domain.
fn outage_config(workload: &Workload, resilient: bool) -> SimConfig {
    let mut counts = vec![0u64; workload.domains.len()];
    for event in &workload.events {
        counts[workload.objects[event.object as usize].domain as usize] += 1;
    }
    let busiest = counts
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(i, _)| i as u32)
        .unwrap_or(0);
    SimConfig {
        fault: FaultPlan {
            outages: vec![OriginOutage {
                domain: busiest,
                window: Window::from_secs(30, 630),
            }],
            ..FaultPlan::default()
        },
        resilience: if resilient {
            ResilienceConfig::default()
        } else {
            ResilienceConfig::disabled()
        },
        ..SimConfig::default()
    }
}

#[test]
fn resilience_strictly_lowers_end_user_error_rate() {
    let workload = build(&WorkloadConfig::tiny(0xCD4));
    let with = run_default(&workload, &outage_config(&workload, true));
    let without = run_default(&workload, &outage_config(&workload, false));

    // Both runs hit the same outage, so both see origin errors.
    assert!(without.stats.origin_errors > 0, "outage must bite");
    assert!(with.stats.origin_errors > 0);

    let rate_with = with.stats.end_user_error_rate().unwrap_or(0.0);
    let rate_without = without.stats.end_user_error_rate().unwrap_or(0.0);
    assert!(
        rate_with < rate_without,
        "resilience must strictly lower the end-user error rate \
         (with: {rate_with:.4}, without: {rate_without:.4})"
    );

    // The countermeasures actually fired.
    assert!(with.stats.retries_issued > 0);
    assert!(with.stats.stale_serves > 0);
    assert_eq!(without.stats.retries_issued, 0);
    assert_eq!(without.stats.stale_serves, 0);

    // The trace-level availability analysis agrees with the simulator's
    // own counters.
    let availability =
        CharacterizationReport::compute(&with.trace, &TokenCategoryProvider, 1).availability;
    assert_eq!(availability.attempts, with.stats.requests);
    assert_eq!(availability.end_user_failures, with.stats.end_user_failures);
    assert_eq!(availability.stale_serves, with.stats.stale_serves);
    assert!((availability.end_user_error_rate() - rate_with).abs() < 1e-12);
}

#[test]
fn outage_scenario_is_deterministic() {
    let workload = build(&WorkloadConfig::tiny(0xCD4));
    let config = outage_config(&workload, true);
    let a = run_default(&workload, &config);
    let b = run_default(&workload, &config);
    assert_eq!(encode(&a.trace, 1), encode(&b.trace, 1));
    assert_eq!(a.stats.end_user_failures, b.stats.end_user_failures);
    assert_eq!(a.stats.retries_issued, b.stats.retries_issued);
}
