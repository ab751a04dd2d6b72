//! `jcdn inspect` — summarize a trace file.

use std::collections::BTreeMap;

use jcdn_core::report::{pct, TextTable};
use jcdn_trace::summary::DatasetSummary;
use jcdn_trace::{HostTable, MimeType};

use crate::args::Args;
use crate::commands::{load_trace, Outcome};
use crate::obs_args;

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut obs = obs_args::begin("inspect", args)?;
    let path = args.positional("trace path")?;
    let top: usize = args.number("top")?;
    let threads = args.count("threads")?;
    let trace = load_trace(path, threads)?;
    obs.manifest.param("trace", path);
    obs.manifest
        .metrics
        .inc("inspect.records", trace.len() as u64);

    let summary = DatasetSummary::compute(path, &trace);
    println!(
        "records: {}   duration: {}   domains: {}   clients: {}   objects: {}",
        summary.logs, summary.duration, summary.domains, summary.clients, summary.objects
    );

    // Content-type mix.
    let mut by_mime: BTreeMap<MimeType, u64> = BTreeMap::new();
    for r in trace.records() {
        *by_mime.entry(r.mime).or_default() += 1;
    }
    let mut mimes: Vec<(MimeType, u64)> = by_mime.into_iter().collect();
    mimes.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
    let mut table = TextTable::new(&["Content type", "Requests", "Share"]);
    for (mime, count) in mimes {
        table.row(&[
            mime.to_string(),
            count.to_string(),
            pct(count as f64 / trace.len().max(1) as f64),
        ]);
    }
    println!("\n{}", table.render());

    // Busiest domains.
    let host_table = HostTable::build(trace.interner());
    let mut by_host = vec![0u64; host_table.hosts().len()];
    for r in trace.records() {
        by_host[host_table.host_id(r.url)] += 1;
    }
    let mut domains: Vec<(&str, u64)> = host_table
        .hosts()
        .iter()
        .copied()
        .zip(by_host)
        .filter(|&(_, count)| count > 0)
        .collect();
    domains.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let mut table = TextTable::new(&["Domain", "Requests"]);
    for (host, count) in domains.into_iter().take(top) {
        table.row(&[host.to_string(), count.to_string()]);
    }
    println!("top {top} domains:\n{}", table.render());
    obs.finish()?;
    Ok(Outcome::Clean)
}
