//! The reproduction harness: regenerates every table and figure of the
//! paper from synthetic datasets and prints paper-vs-measured comparisons.
//!
//! ```sh
//! cargo run --release -p jcdn-bench --bin repro              # everything
//! cargo run --release -p jcdn-bench --bin repro -- fig5      # one experiment
//! cargo run --release -p jcdn-bench --bin repro -- --scale 0.5 --seed 7 all
//! cargo run --release -p jcdn-bench --bin repro -- --markdown EXPERIMENTS.md all
//! ```
//!
//! Exits non-zero when any shape check fails, so CI can gate on it.

use std::process::ExitCode;

use jcdn_bench::experiments::{self, ExperimentResult};
use jcdn_bench::Context;

const ALL: &[&str] = &[
    "fig1",
    "table2",
    "fig3",
    "sec4_requests",
    "sec4_responses",
    "fig4",
    "fig5",
    "fig6",
    "table3",
    "ext_prefetch",
    "ext_depri",
    "ext_outage",
    "abl_permutations",
    "abl_history",
    "abl_parent",
    "abl_cache",
    "ext_leadtime",
    "ext_anomaly",
    "ext_traffic_mix",
];

fn main() -> ExitCode {
    let mut scale = 1.0f64;
    let mut seed = 2019u64;
    let mut markdown: Option<String> = None;
    let mut selected: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--markdown" => {
                markdown = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--markdown needs a path")),
                );
            }
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--scale needs a positive number"));
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--help" | "-h" => {
                usage("");
            }
            "all" => selected.extend(ALL.iter().map(|s| s.to_string())),
            other if ALL.contains(&other) => selected.push(other.to_string()),
            other => usage(&format!("unknown experiment {other:?}")),
        }
    }
    if selected.is_empty() {
        selected.extend(ALL.iter().map(|s| s.to_string()));
    }

    let needs_context = selected.iter().any(|s| s != "fig1");
    let context = if needs_context {
        eprintln!("[repro] simulating datasets (seed {seed}, scale {scale})...");
        Some(Context::new(seed, scale))
    } else {
        None
    };

    // The §4 report is shared by fig3, sec4_requests, sec4_responses and
    // fig4; compute it once.
    let needs_characterization = selected
        .iter()
        .any(|s| ["fig3", "sec4_requests", "sec4_responses", "fig4"].contains(&s.as_str()));
    let characterization = if needs_characterization {
        Some(experiments::characterize(
            context.as_ref().expect("context exists"),
        ))
    } else {
        None
    };

    // The periodicity study is shared by fig5/fig6; run it once.
    let needs_periodicity = selected.iter().any(|s| s == "fig5" || s == "fig6");
    let periodicity_report = if needs_periodicity {
        eprintln!("[repro] running the periodicity study (x = 100)...");
        Some(experiments::periodicity(
            context.as_ref().expect("context exists"),
            100,
        ))
    } else {
        None
    };

    let mut failures = 0;
    let mut md = String::new();
    if markdown.is_some() {
        md.push_str(&markdown_preamble(seed, scale));
    }
    for id in &selected {
        let ctx = context.as_ref();
        let section4 = characterization.as_ref();
        let result: ExperimentResult = match id.as_str() {
            "fig1" => experiments::fig1(),
            "table2" => experiments::table2(ctx.expect("ctx")),
            "fig3" => experiments::fig3(section4.expect("report")),
            "sec4_requests" => experiments::sec4_requests(section4.expect("report")),
            "sec4_responses" => experiments::sec4_responses(section4.expect("report")),
            "fig4" => experiments::fig4(section4.expect("report")),
            "fig5" => experiments::fig5(
                ctx.expect("ctx"),
                periodicity_report.as_ref().expect("report"),
            ),
            "fig6" => experiments::fig6(periodicity_report.as_ref().expect("report")),
            "table3" => experiments::table3(ctx.expect("ctx")),
            "ext_prefetch" => experiments::ext_prefetch(ctx.expect("ctx")),
            "ext_depri" => experiments::ext_depri(ctx.expect("ctx")),
            "ext_outage" => experiments::ext_outage(ctx.expect("ctx")),
            "abl_permutations" => experiments::abl_permutations(ctx.expect("ctx")),
            "abl_history" => experiments::abl_history(ctx.expect("ctx")),
            "abl_parent" => experiments::abl_parent_tier(ctx.expect("ctx")),
            "ext_leadtime" => experiments::ext_leadtime(ctx.expect("ctx")),
            "abl_cache" => experiments::abl_cache(ctx.expect("ctx")),
            "ext_anomaly" => experiments::ext_anomaly(ctx.expect("ctx")),
            "ext_traffic_mix" => experiments::ext_traffic_mix(ctx.expect("ctx")),
            _ => unreachable!("validated above"),
        };

        println!("\n=== [{}] {} ===\n", result.id, result.title);
        println!("{}", result.rendered.trim_end());
        println!();
        for (name, ok) in &result.checks {
            println!("  [{}] {name}", if *ok { "PASS" } else { "FAIL" });
            if !ok {
                failures += 1;
            }
        }
        if markdown.is_some() {
            md.push_str(&format!("## `{}` — {}\n\n", result.id, result.title));
            md.push_str("```text\n");
            md.push_str(result.rendered.trim_end());
            md.push_str("\n```\n\n");
            for (name, ok) in &result.checks {
                md.push_str(&format!("- [{}] {name}\n", if *ok { "x" } else { " " }));
            }
            md.push('\n');
        }
    }

    if let Some(path) = &markdown {
        if let Err(e) = std::fs::write(path, md) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[repro] wrote {path}");
    }

    println!();
    if failures == 0 {
        println!("repro: all shape checks passed");
        ExitCode::SUCCESS
    } else {
        println!("repro: {failures} shape check(s) FAILED");
        ExitCode::FAILURE
    }
}

fn markdown_preamble(seed: u64, scale: f64) -> String {
    format!(
        "# EXPERIMENTS — paper vs. measured\n\n\
         Generated by `cargo run --release -p jcdn-bench --bin repro -- \
         --markdown EXPERIMENTS.md all` (seed {seed}, volume scale {scale}).\n\n\
         The traces are synthetic (see DESIGN.md §2): the comparison targets \
         are the paper's *shapes* — who wins, by roughly what factor, where \
         the spikes fall — not its absolute counts. Every `- [x]` line is a \
         machine-checked shape assertion; the harness exits non-zero if any \
         fails.\n\n\
         Dataset scale: the paper's short-term dataset is 25M logs and its \
         long-term dataset 10M; the defaults here generate ~0.5M/0.4M \
         (×`--scale`), i.e. roughly 1:50 / 1:25. Domain counts keep the \
         paper's shape (short-term ≫ long-term ≈ 170).\n\n"
    )
}

fn usage(error: &str) -> ! {
    if !error.is_empty() {
        eprintln!("error: {error}\n");
    }
    eprintln!(
        "usage: repro [--scale F] [--seed N] [all | {}]",
        ALL.join(" | ")
    );
    std::process::exit(2);
}
