//! §5.1 in miniature: plant periodic machine-to-machine flows among noisy
//! human traffic, run the permutation-thresholded detector, print the
//! Figure 5 histogram and Figure 6 CDF, and build the deprioritization
//! policy the paper proposes from the detected flows.
//!
//! ```sh
//! cargo run --release --example periodicity_detection
//! ```

use jcdn::core::dataset;
use jcdn::core::periodicity::{run_study, PeriodicityStudyConfig};
use jcdn::core::report::pct;
use jcdn::prefetch::DeprioritizePolicy;
use jcdn::signal::periodicity::PeriodicityConfig;
use jcdn::trace::SimDuration;
use jcdn::workload::WorkloadConfig;

fn main() {
    // An hour-long capture so even 3-minute pollers produce enough ticks.
    let mut config = WorkloadConfig::tiny(2024);
    config.duration = SimDuration::from_secs(3600);
    config.clients = 400;
    config.target_events = 60_000;
    println!(
        "Simulating one hour of traffic ({} clients)...",
        config.clients
    );
    let data = dataset::simulate(&config);

    let planted = &data.workload.truth;
    println!(
        "Planted: {} periodic objects, {} periodic client-object flows\n",
        planted.periodic_objects.len(),
        planted.periodic_pairs.len()
    );

    let study = PeriodicityStudyConfig {
        detector: PeriodicityConfig {
            permutations: 100,
            parallel: true,
            max_bins: 1 << 13,
        },
        ..PeriodicityStudyConfig::default()
    };
    println!(
        "Running the periodicity study (x = {} permutations)...",
        study.detector.permutations
    );
    let report = run_study(&data.trace, &study);

    println!(
        "\nDetected {} periodic objects; {} of JSON requests are periodic (paper: 6.3%)",
        report.object_periods.len(),
        pct(report.periodic_share()),
    );
    println!(
        "Periodic traffic: {} uncacheable (paper: 56.2%), {} uploads (paper: 78%)",
        pct(report.periodic_uncacheable_share()),
        pct(report.periodic_upload_share()),
    );

    println!("\nFigure 5 — histogram of detected object periods (seconds):");
    print!("{}", report.period_histogram().render(40));

    println!("\nFigure 6 — CDF of the share of periodic clients per object:");
    print!("{}", report.client_fraction_cdf().render(10, 40));
    println!(
        "\nObjects where a majority of clients is periodic: {} (paper: ~20%)",
        pct(report.majority_periodic_object_share()),
    );

    // Compare detections against the planted ground truth.
    let mut matched = 0;
    for (&url, &period) in &report.object_periods {
        let url_str = data.trace.url(url);
        let hit = data
            .workload
            .objects
            .iter()
            .position(|o| o.url == url_str)
            .and_then(|id| planted.periodic_objects.get(&(id as u32)))
            .map(|planted_period| (planted_period.as_secs_f64() - period).abs() <= 5.0)
            .unwrap_or(false);
        if hit {
            matched += 1;
        }
    }
    println!(
        "\nGround-truth check: {matched}/{} detected objects match a planted period",
        report.object_periods.len()
    );

    // The paper's proposed use: serve detected machine traffic last.
    let policy = DeprioritizePolicy::from_report(&report, &data.trace, &data.workload);
    println!(
        "Deprioritization would serve {} detected client-object pairs last",
        policy.pair_count()
    );
}
