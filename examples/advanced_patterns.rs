//! Beyond the paper: the two analyses §5 leaves as future work —
//! multi-period detection and interarrival-aware (lead-time) prediction.
//!
//! ```sh
//! cargo run --release --example advanced_patterns
//! ```

use jcdn::core::dataset;
use jcdn::prefetch::lead_time::analyze;
use jcdn::signal::periodicity::{detect_periods, PeriodicityConfig};
use jcdn::workload::WorkloadConfig;

fn main() {
    // ---- Multi-period detection ----------------------------------------
    // A device that reports telemetry every 30s *and* refreshes a config
    // every 5 minutes hits the same endpoint with two superimposed rhythms.
    // The paper's algorithm returns only the most significant period and
    // "leaves multi-period analysis for future work" — detect_periods is
    // that future work.
    println!("Multi-period flow: 30s telemetry + 300s config refresh over 2h\n");
    let mut times: Vec<f64> = (0..240).map(|i| i as f64 * 30.0).collect();
    times.extend((0..24).map(|i| 7.0 + i as f64 * 300.0));

    let cfg = PeriodicityConfig {
        permutations: 100,
        parallel: true,
        ..PeriodicityConfig::default()
    };
    let hits = detect_periods(&times, &cfg, 4);
    for (i, hit) in hits.iter().enumerate() {
        println!(
            "  period {}: {:.1}s (ACF {:.2}, spectral power {:.1})",
            i + 1,
            hit.period_seconds,
            hit.acf_value,
            hit.power
        );
    }
    assert!(!hits.is_empty(), "at least the dominant period is found");

    // ---- Lead-time analysis ---------------------------------------------
    // Order prediction says *what* comes next; lead time says *how long*
    // the prefetcher has. Both matter: a prediction with a 50ms lead can't
    // beat an 80ms origin RTT.
    println!("\nLead-time analysis over a simulated day of app traffic\n");
    let data = dataset::simulate(&WorkloadConfig::tiny(4242));
    let mut report = analyze(&data.trace);
    println!(
        "  predicted transitions : {}",
        report.predicted_gaps.count()
    );
    if let Some(median) = report.median_predicted() {
        println!("  median lead time      : {median:.1}s");
    }
    for (label, seconds) in [("one origin RTT (200ms)", 0.2), ("1s", 1.0), ("30s", 30.0)] {
        if let Some(fraction) = report.predicted_with_lead_of(seconds) {
            println!(
                "  lead time >= {label:<22}: {:.1}% of predicted transitions",
                fraction * 100.0
            );
        }
    }
}
