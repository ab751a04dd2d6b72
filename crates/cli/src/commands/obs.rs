//! `jcdn obs` — inspect and compare observability artifacts.
//!
//! Three inspection verbs over the JSON files the program and its
//! benchmark emit:
//!
//! * `jcdn obs show <manifest.json>` — pretty-print a run manifest:
//!   params, deterministic counters, and a perf summary.
//! * `jcdn obs diff <a.json> <b.json>` — compare two manifests. The
//!   deterministic `counters` section must match exactly — any divergence
//!   is listed and the command exits 1 (that is the CI determinism gate).
//!   The `perf` section is reported as deltas, never gated.
//! * `jcdn obs bench-diff <BENCHMARK.json> <base> <change>` — compare two
//!   files of perfbench result lines (one run per line), metric by metric,
//!   median against median. `BENCHMARK.json` gives each metric's order,
//!   direction (`better`) and, for the end-to-end ones, its `bound`. Exits
//!   1 only when an end-to-end metric is worse beyond its bound, or when
//!   the change's failed share of passes is higher; per-layer metrics are
//!   printed and never gate.
//!
//! All parsing goes through `jcdn-json` — the workspace's own parser —
//! so the command adds no dependency.

use std::collections::BTreeMap;

use jcdn_json::{parse, Value};

use crate::args::{sole, Args};
use crate::commands::Outcome;

pub fn run(args: &Args) -> Result<Outcome, String> {
    let Some((verb, rest)) = args.positionals().split_first() else {
        return Err("usage: jcdn obs show|diff|bench-diff <files...>".into());
    };
    match verb.as_str() {
        "show" => show(rest),
        "diff" => diff(rest),
        "bench-diff" => bench_diff(rest),
        other => Err(format!("unknown obs verb {other:?} (show|diff|bench-diff)")),
    }
}

/// Loads and parses one JSON artifact.
fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The string→u64 entries of an object field, sorted by key.
fn u64_section(value: &Value, section: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    if let Some(object) = value.get(section).and_then(Value::as_object) {
        for (key, entry) in object.iter() {
            if let Some(n) = entry.as_u64() {
                out.insert(key.to_string(), n);
            }
        }
    }
    out
}

fn show(argv: &[String]) -> Result<Outcome, String> {
    let path = sole(argv, "manifest path")?;
    let manifest = load(path)?;

    let command = manifest
        .get("command")
        .and_then(Value::as_str)
        .unwrap_or("?");
    println!("manifest: {path}");
    println!("command:  {command}");
    if let Some(params) = manifest.get("params").and_then(Value::as_object) {
        for (key, value) in params.iter() {
            println!("  --{key} {}", value.as_str().unwrap_or("?"));
        }
    }
    let counters = u64_section(&manifest, "counters");
    println!("\ncounters ({}, deterministic):", counters.len());
    for (key, n) in &counters {
        println!("  {key:<40} {n}");
    }
    if let Some(perf) = manifest.get("perf") {
        println!("\nperf (wall-clock, not comparable across runs):");
        for key in ["wall_us", "peak_rss_kb", "spans_dropped", "pools_dropped"] {
            if let Some(n) = perf.get(key).and_then(Value::as_u64) {
                println!("  {key:<40} {n}");
            }
        }
        if let Some(phases) = perf.get("phases").and_then(Value::as_object) {
            for (phase, stat) in phases.iter() {
                let field = |key| stat.get(key).and_then(Value::as_u64).unwrap_or(0);
                println!(
                    "  phase {phase:<34} {} us over {} span(s), max {} us",
                    field("total_us"),
                    field("count"),
                    field("max_us")
                );
            }
        }
    }
    Ok(Outcome::Clean)
}

fn diff(argv: &[String]) -> Result<Outcome, String> {
    let [a_path, b_path] = argv else {
        return Err("usage: jcdn obs diff <a.json> <b.json>".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);

    // The deterministic section: every key, both directions, exact match.
    let ca = u64_section(&a, "counters");
    let cb = u64_section(&b, "counters");
    let mut divergences = 0usize;
    let keys: BTreeMap<&String, ()> = ca.keys().chain(cb.keys()).map(|k| (k, ())).collect();
    for (key, ()) in keys {
        match (ca.get(key), cb.get(key)) {
            (Some(x), Some(y)) if x == y => {}
            (Some(x), Some(y)) => {
                println!("counter {key}: {x} != {y}");
                divergences += 1;
            }
            (Some(x), None) => {
                println!("counter {key}: {x} != (absent)");
                divergences += 1;
            }
            (None, Some(y)) => {
                println!("counter {key}: (absent) != {y}");
                divergences += 1;
            }
            (None, None) => {}
        }
    }

    // The perf section: informational deltas only.
    for key in ["wall_us", "peak_rss_kb"] {
        let x = a
            .get("perf")
            .and_then(|p| p.get(key))
            .and_then(Value::as_u64);
        let y = b
            .get("perf")
            .and_then(|p| p.get(key))
            .and_then(Value::as_u64);
        if let (Some(x), Some(y)) = (x, y) {
            let delta = y as i128 - x as i128;
            println!("perf {key}: {x} -> {y} ({delta:+})");
        }
    }

    if divergences > 0 {
        println!("DIVERGED: {divergences} deterministic counter(s) differ");
        return Err(format!(
            "{a_path} and {b_path} disagree on {divergences} deterministic counter(s)"
        ));
    }
    println!(
        "counters identical: {} key(s) match between {a_path} and {b_path}",
        ca.len()
    );
    Ok(Outcome::Clean)
}

/// One side's perfbench result lines, pooled: the pass counts and every
/// line's value of each metric.
#[derive(Default)]
struct Runs {
    lines: usize,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Vec<f64>>,
}

impl Runs {
    fn load(path: &str) -> Result<Runs, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let mut runs = Runs::default();
        for (i, line) in text.lines().enumerate() {
            let at = format!("{path}:{}", i + 1);
            let run = parse(line).map_err(|e| format!("{at}: {e}"))?;
            let count = |key| run.get(key).and_then(Value::as_u64);
            let (Some(metrics), Some(attempted), Some(failed)) = (
                run.get("metrics").and_then(Value::as_object),
                count("attempted"),
                count("failed"),
            ) else {
                return Err(format!(
                    "{at}: no \"metrics\" object with \"attempted\" and \"failed\" counts"
                ));
            };
            runs.lines += 1;
            runs.attempted += attempted;
            runs.failed += failed;
            for (name, metric) in metrics.iter() {
                let value = metric.get("value").and_then(Value::as_f64);
                let value =
                    value.ok_or_else(|| format!("{at}: {name} has no numeric \"value\""))?;
                runs.metrics.entry(name.into()).or_default().push(value);
            }
        }
        if runs.lines == 0 {
            return Err(format!("{path}: no result lines"));
        }
        Ok(runs)
    }

    /// The median of `name` over the lines that report it.
    fn median(&self, name: &str) -> Option<f64> {
        let mut values = self.metrics.get(name)?.clone();
        values.sort_by(f64::total_cmp);
        let mid = values.len() / 2;
        Some(if values.len() % 2 == 1 {
            values[mid]
        } else {
            (values[mid - 1] + values[mid]) / 2.0
        })
    }
}

fn bench_diff(argv: &[String]) -> Result<Outcome, String> {
    let [spec_path, base_path, change_path] = argv else {
        return Err("usage: jcdn obs bench-diff <BENCHMARK.json> <base> <change>".into());
    };
    let spec = load(spec_path)?;
    let (base, change) = (Runs::load(base_path)?, Runs::load(change_path)?);
    println!(
        "medians: base {base_path} ({} run(s)), change {change_path} ({} run(s))",
        base.lines, change.lines
    );
    println!(
        "{:<38} {:>14} {:>14} {:>8} {:>6}  verdict",
        "metric", "base", "change", "delta", "bound"
    );
    let mut problems = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        let declared = spec.get(section).and_then(Value::as_array);
        for metric in declared.ok_or_else(|| format!("{spec_path}: no {section:?} array"))? {
            let field = |key| metric.get(key).and_then(Value::as_str).unwrap_or_default();
            let name = field("name");
            let gated = section == "end_to_end";
            let (b, c) = match (base.median(name), change.median(name)) {
                (Some(b), Some(c)) => (b, c),
                // Untraced runs carry no per-layer metrics.
                _ if !gated => continue,
                (None, _) => return Err(format!("{base_path}: no run reports {name}")),
                (Some(_), None) => return Err(format!("{change_path}: no run reports {name}")),
            };
            let worse_by = match field("better") {
                "lower" => c - b,
                "higher" => b - c,
                other => return Err(format!("{spec_path}: {name} is better {other:?}")),
            };
            let bound = match (gated, metric.get("bound").and_then(Value::as_f64)) {
                (false, _) => None,
                (true, Some(bound)) => Some(bound),
                (true, None) => return Err(format!("{spec_path}: {name} has no bound")),
            };
            let beyond = bound.is_some_and(|bound| worse_by > bound * b.abs());
            if beyond {
                problems.push(format!("{name} is worse beyond its bound"));
            }
            let verdict = match worse_by {
                _ if beyond => "WORSE BEYOND BOUND",
                w if w > 0.0 => "worse",
                w if w < 0.0 => "better",
                _ => "same",
            };
            let delta = if b == 0.0 {
                "n/a".to_string()
            } else {
                format!("{:+.1}%", (c - b) / b.abs() * 100.0)
            };
            let bound = bound.map_or("-".to_string(), |bound| format!("{:.0}%", bound * 100.0));
            let name = format!("{name} ({})", field("unit"));
            println!("{name:<38} {b:>14.4} {c:>14.4} {delta:>8} {bound:>6}  {verdict}");
        }
    }

    println!(
        "failed passes: base {}/{}, change {}/{}",
        base.failed, base.attempted, change.failed, change.attempted
    );
    // change.failed / change.attempted > base.failed / base.attempted,
    // cross-multiplied so that it stays exact.
    if u128::from(change.failed) * u128::from(base.attempted)
        > u128::from(base.failed) * u128::from(change.attempted)
    {
        problems.push("the change's failed share is higher".to_string());
    }
    if !problems.is_empty() {
        return Err(problems.join("; "));
    }
    println!("no end-to-end metric worse beyond its bound; failed share not higher");
    Ok(Outcome::Clean)
}
