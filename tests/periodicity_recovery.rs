//! Integration test: the §5.1 study recovers planted periodic flows from a
//! fully simulated dataset (generator → CDN simulator → logs → analysis).

use jcdn::cdnsim::SimConfig;
use jcdn::core::dataset::{simulate, simulate_workload_parallel};
use jcdn::core::periodicity::{run_study, PeriodicityStudyConfig};
use jcdn::signal::periodicity::PeriodicityConfig;
use jcdn::trace::SimDuration;
use jcdn::workload::{build, WorkloadConfig};

fn study_config() -> PeriodicityStudyConfig {
    PeriodicityStudyConfig {
        detector: PeriodicityConfig {
            permutations: 60,
            parallel: true,
            max_bins: 1 << 14,
        },
        ..PeriodicityStudyConfig::default()
    }
}

#[test]
fn planted_periods_are_recovered_through_the_full_pipeline() {
    // A 2-hour capture: long enough for several period spikes, short
    // enough for CI.
    let mut config = WorkloadConfig::tiny(0xBEAC);
    config.duration = SimDuration::from_secs(7200);
    config.clients = 500;
    config.target_events = 80_000;
    let data = simulate(&config);
    assert!(
        !data.workload.truth.periodic_objects.is_empty(),
        "generator must plant periodic objects"
    );

    let report = run_study(&data.trace, &study_config());
    assert!(
        !report.object_periods.is_empty(),
        "study must detect periodic objects"
    );

    // Every detected period matches a planted one (or a small harmonic).
    let spikes = [30.0, 60.0, 120.0, 180.0, 600.0, 900.0, 1800.0];
    let mut on_spike = 0;
    for &period in report.object_periods.values() {
        if spikes
            .iter()
            .any(|s| (period - s).abs() <= s * 0.15 || (period - 2.0 * s).abs() <= s * 0.2)
        {
            on_spike += 1;
        }
    }
    let share = on_spike as f64 / report.object_periods.len() as f64;
    assert!(
        share >= 0.75,
        "detected periods must sit on planted spikes: {share} \
         (periods: {:?})",
        report.object_periods.values().collect::<Vec<_>>()
    );

    // The periodic request share lands in a sane band around the planted
    // 6.3% (detection is conservative; some flows fall below thresholds).
    let measured = report.periodic_share();
    assert!(
        (0.015..0.12).contains(&measured),
        "periodic share {measured}"
    );

    // Detected (client, object) pairs overlap the planted ground truth.
    let w = &data.workload;
    let mut matched = 0;
    for flow in &report.periodic_flows {
        let url = data.trace.url(flow.url);
        let object = w
            .objects
            .iter()
            .position(|o| o.url == url)
            .map(|i| i as u32);
        let client = w
            .clients
            .iter()
            .position(|c| c.ip_hash == flow.client.0 .0)
            .map(|i| i as u32);
        if let (Some(object), Some(client)) = (object, client) {
            if w.truth.periodic_pairs.contains_key(&(client, object)) {
                matched += 1;
            }
        }
    }
    assert!(
        matched * 10 >= report.periodic_flows.len() * 8,
        "at least 80% of detected flows are planted: {matched}/{}",
        report.periodic_flows.len()
    );
}

#[test]
fn detector_stays_quiet_on_a_periodicity_free_workload() {
    // Drop every planted periodic request: what is left is Poisson and
    // manifest traffic, including the non-periodic co-clients of the
    // planted objects. Unfiltered, this workload reads ~3.3% periodic.
    let mut config = WorkloadConfig::tiny(0xACED);
    config.duration = SimDuration::from_secs(3600);
    config.target_events = 30_000;
    let mut workload = build(&config);
    let pairs = &workload.truth.periodic_pairs;
    assert!(!pairs.is_empty(), "the generator must plant periodic flows");
    workload.events = std::mem::take(&mut workload.events)
        .into_iter()
        .filter(|e| !pairs.contains_key(&(e.client, e.object)))
        .collect();
    let data = simulate_workload_parallel(workload, &SimConfig::default(), 1);

    let report = run_study(&data.trace, &study_config());
    // Poisson flows must (almost) never be labelled periodic.
    assert!(
        report.periodic_share() < 0.01,
        "false periodic share {}",
        report.periodic_share()
    );
}
