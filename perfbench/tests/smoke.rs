//! Tiny-scale smoke test of the benchmark. Each workload runs once with
//! tracing off and once with it on; every metric `BENCHMARK.json` names is
//! emitted, every pass's output check passes, every per-layer metric but
//! the named exceptions is nonzero, and the layer spans of a `pipeline-1m`
//! pass add up to that pass's wall time.
//!
//! One test function: the pool and span sinks are process-global, so the
//! runs must not overlap.

use perfbench::{run, Options, Report, WORKLOADS};

/// Input volume per workload: small enough for an unoptimized build, and,
/// for `paper-analyses`, large enough that seed 7's trace still yields the
/// full cut of client flows (at 0.02 it yields none, and the run fails).
fn scale(workload: &str) -> f64 {
    match workload {
        "paper-analyses" => 0.05,
        _ => 0.02,
    }
}

/// Per-layer metrics that may read 0: a difference of two medians, which
/// is noise-sized and of either sign.
const MAY_BE_ZERO: [&str; 1] = ["bench.tracing_overhead_s"];

/// Spans of a pass may leave this much of its wall time uncovered: the
/// harness's own bookkeeping between layer calls.
const SPAN_SLACK_SHARE: f64 = 0.05;
const SPAN_SLACK_S: f64 = 0.005;

/// Metric names listed in one section of the repository's `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("quoted name")].to_string())
        .collect()
}

fn run_once(workload: &str, trace: bool) -> Report {
    let report = run(&Options {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.0,
        trace,
        scale: scale(workload),
        threads: 2,
    })
    .expect("known workload");
    assert!(report.attempted >= 1, "{workload}: no pass attempted");
    assert_eq!(
        report.failed, 0,
        "{workload} (trace {trace}): a pass check failed"
    );
    report
}

fn assert_emits(report: &Report, names: &[String], workload: &str) {
    let emitted: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(emitted.len(), names.len(), "{workload}: {emitted:?}");
    for name in names {
        assert!(
            emitted.contains(&name.as_str()),
            "{workload}: {name} missing"
        );
    }
    assert!(report.to_json().starts_with("{\"correct\": true"));
}

#[test]
fn workloads_emit_every_metric_and_pipeline_spans_cover_the_pass() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.contains(&"setup_s".to_string()));
    for workload in WORKLOADS {
        let plain = run_once(workload, false);
        assert_emits(&plain, &end_to_end, workload);
        for m in &plain.metrics {
            assert!(m.value > 0.0, "{workload}: {} is {}", m.name, m.value);
        }

        let traced = run_once(workload, true);
        assert_emits(&traced, &per_layer, workload);
        for m in &traced.metrics {
            assert!(
                m.value != 0.0 || MAY_BE_ZERO.contains(&m.name.as_str()),
                "{workload}: per-layer {} is 0",
                m.name
            );
        }
        if workload != "pipeline-1m" {
            continue;
        }
        let passes: Vec<_> = traced.units.iter().filter(|u| u.kind == "pass").collect();
        assert!(!passes.is_empty(), "no traced pass");
        for unit in passes {
            let root = unit
                .spans
                .iter()
                .position(|s| s.name == "pass")
                .expect("pass span");
            let wall = unit.spans[root].seconds();
            let covered: f64 = unit
                .spans
                .iter()
                .filter(|s| s.parent == Some(root))
                .map(|s| s.seconds())
                .sum();
            assert!(
                covered <= wall && wall - covered <= SPAN_SLACK_SHARE * wall + SPAN_SLACK_S,
                "layer spans cover {covered} s of a {wall} s pass"
            );
        }
    }
}
