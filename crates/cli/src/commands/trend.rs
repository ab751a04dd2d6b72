//! `jcdn trend` — the Figure 1 monthly series as CSV.

use jcdn_workload::trend::TrendModel;

use crate::args::Args;
use crate::commands::Outcome;
use crate::obs_args;

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut obs = obs_args::begin("trend", args)?;
    let model = TrendModel {
        months: args.number("months")?,
        seed: args.number("seed")?,
    };
    if model.months < 2 {
        return Err("--months must be at least 2".into());
    }
    println!("month,json_requests,html_requests,ratio,json_mean_size");
    for point in model.generate() {
        println!(
            "{},{:.0},{:.0},{:.4},{:.1}",
            point.label(),
            point.json_requests,
            point.html_requests,
            point.ratio(),
            point.json_mean_size
        );
    }
    obs.manifest.param("months", model.months);
    obs.manifest.param("seed", model.seed);
    obs.manifest
        .metrics
        .inc("trend.months", model.months as u64);
    obs.finish()?;
    Ok(Outcome::Clean)
}
