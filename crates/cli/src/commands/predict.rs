//! `jcdn predict` — the §5.2 Table 3 study over a trace file.

use jcdn_core::prediction::{run_study, PredictionStudyConfig};
use jcdn_core::report::TextTable;

use crate::args::Args;
use crate::commands::{load_trace, Outcome};
use crate::obs_args;

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut obs = obs_args::begin("predict", args)?;
    let path = args.positional("trace path")?;
    let threads = args.count("threads")?;
    let config = PredictionStudyConfig {
        history: args.number("history")?,
        ks: args.number_list("k")?,
        train_percent: args.number("train-percent")?,
    };
    if config.history == 0 {
        return Err("--history must be at least 1".into());
    }
    if config.ks.contains(&0) {
        return Err("--k must be at least 1".into());
    }
    // Both the train and the test split must be able to hold a client.
    if !(1..=99).contains(&config.train_percent) {
        return Err("--train-percent must be between 1 and 99".into());
    }
    let trace = load_trace(path, threads)?;
    obs.manifest.param("trace", path);

    eprintln!(
        "training the n-gram model (N = {}, {}% train split)...",
        config.history, config.train_percent
    );
    let report = run_study(&trace, &config);

    let mut table = TextTable::new(&["K", "Clustered URLs", "Actual URLs"]);
    for cell in &report.rows {
        table.row(&[
            cell.k.to_string(),
            format!("{:.3}", cell.clustered),
            format!("{:.3}", cell.actual),
        ]);
    }
    println!("{}", table.render());
    println!(
        "{} test transitions over {} held-out clients ({} trained)",
        report.test_transitions, report.test_clients, report.train_clients
    );
    obs.manifest
        .metrics
        .inc("predict.test_transitions", report.test_transitions as u64);
    obs.finish()?;
    Ok(Outcome::Clean)
}
