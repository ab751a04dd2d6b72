//! `jcdn periodicity` — the §5.1 study over a trace file.

use jcdn_core::periodicity::{run_study, PeriodicityStudyConfig};
use jcdn_core::report::pct;
use jcdn_signal::periodicity::PeriodicityConfig;

use crate::args::Args;
use crate::commands::{load_trace, Outcome};
use crate::obs_args;

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut obs = obs_args::begin("periodicity", args)?;
    let path = args.positional("trace path")?;
    let threads = args.count("threads")?;
    let trace = load_trace(path, threads)?;
    obs.manifest.param("trace", path);

    let config = PeriodicityStudyConfig {
        detector: PeriodicityConfig {
            permutations: args.number("permutations")?,
            max_bins: args.number("max-bins")?,
            parallel: threads > 1,
            ..PeriodicityConfig::default()
        },
        min_requests: args.number("min-requests")?,
        min_clients: args.number("min-clients")?,
        ..PeriodicityStudyConfig::default()
    };
    eprintln!(
        "running the periodicity study (x = {}, filters >= {} req / >= {} clients)...",
        config.detector.permutations, config.min_requests, config.min_clients
    );
    let report = run_study(&trace, &config);

    println!(
        "periodic objects: {}   periodic flows: {}",
        report.object_periods.len(),
        report.periodic_flows.len()
    );
    println!(
        "periodic share of JSON requests: {} (paper: 6.3%)",
        pct(report.periodic_share())
    );
    println!(
        "periodic traffic: {} uncacheable (paper: 56.2%), {} uploads (paper: 78%)",
        pct(report.periodic_uncacheable_share()),
        pct(report.periodic_upload_share())
    );
    println!("\nhistogram of object periods (Figure 5):");
    print!("{}", report.period_histogram().render(40));
    println!("\nCDF of periodic-client share per object (Figure 6):");
    print!("{}", report.client_fraction_cdf().render(10, 40));
    println!(
        "objects with a periodic-client majority: {} (paper: ~20%)",
        pct(report.majority_periodic_object_share())
    );

    // The flows themselves, most requests first.
    let mut flows = report.periodic_flows.clone();
    flows.sort_by_key(|f| std::cmp::Reverse(f.requests));
    println!("\nbusiest periodic flows:");
    for flow in flows.iter().take(10) {
        println!(
            "  {:>6.1}s  {:>5} reqs  {}",
            flow.period_seconds,
            flow.requests,
            trace.url(flow.url)
        );
    }
    obs.manifest
        .metrics
        .inc("periodicity.flows", report.periodic_flows.len() as u64);
    obs.finish()?;
    Ok(Outcome::Clean)
}
