//! Quickstart: generate a synthetic CDN dataset, run every §4 analysis,
//! and print a compact report.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use jcdn::core::characterize::TokenCategoryProvider;
use jcdn::core::dataset;
use jcdn::core::pipeline::CharacterizationReport;
use jcdn::core::report::{pct, TextTable};
use jcdn::ua::DeviceType;
use jcdn::workload::WorkloadConfig;

fn main() {
    // A scaled-down "short-term" dataset: 10 simulated minutes of traffic.
    let config = WorkloadConfig::short_term(42).scaled(0.2);
    println!(
        "Generating + simulating `{}` (~{} events)...",
        config.name, config.target_events
    );
    let data = dataset::simulate(&config);
    println!("{}\n", data.summary().table_row());
    // Every §4 breakdown comes from one pass over the trace.
    let report = CharacterizationReport::compute(&data.trace, &TokenCategoryProvider, 1);

    // --- Traffic source (Figure 3) -------------------------------------
    let sources = &report.sources;
    let mut table = TextTable::new(&["Device", "Requests", "UA strings"]);
    for device in DeviceType::ALL {
        table.row(&[
            device.to_string(),
            pct(sources.request_share(device)),
            pct(sources.ua_share(device)),
        ]);
    }
    println!("Traffic source (JSON requests):\n{}", table.render());
    println!(
        "non-browser traffic: {}   mobile-browser share: {}\n",
        pct(sources.non_browser_share()),
        pct(sources.mobile_browser_requests as f64 / sources.total.max(1) as f64),
    );

    // --- Request type ----------------------------------------------------
    let requests = &report.requests;
    println!(
        "Request type: GET {}   (of the rest, uploads: {})",
        pct(requests.download_share()),
        pct(requests.upload_share_of_rest()),
    );

    // --- Response type ---------------------------------------------------
    let mut responses = report.responses;
    println!(
        "Uncacheable JSON traffic: {}",
        pct(responses.uncacheable_share())
    );
    if let (Some(med), Some(p75)) = (
        responses.json_smaller_than_html_at(0.5),
        responses.json_smaller_than_html_at(0.75),
    ) {
        println!(
            "JSON smaller than HTML: {} at median, {} at p75",
            pct(med),
            pct(p75)
        );
    }
    if let Some(ratio) = report.mix.ratio() {
        println!("JSON:HTML request ratio in this capture: {ratio:.2}x");
    }

    // --- Cacheability heatmap (Figure 4) ----------------------------------
    let heatmap = &report.heatmap;
    println!(
        "\nDomains never cacheable: {}   always cacheable: {}",
        pct(heatmap.never_cacheable_share()),
        pct(heatmap.always_cacheable_share()),
    );
    println!(
        "\nEdge cache: {} hits / {} misses / {} uncacheable (hit ratio {})",
        data.stats.hits,
        data.stats.misses,
        data.stats.not_cacheable,
        pct(data.stats.cacheable_hit_ratio().unwrap_or(0.0)),
    );
}
