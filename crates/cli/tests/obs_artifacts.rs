//! End-to-end tests of the observability artifacts: `jcdn generate`'s
//! JSONL time-series stream and Prometheus snapshot, the determinism of
//! the series across shard/thread counts, and the `jcdn obs` inspection
//! verbs (show / diff / bench-diff) with their exit-code contract.

use std::path::PathBuf;
use std::process::{Command, Output};

fn jcdn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_jcdn"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jcdn-obs-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn read(path: &PathBuf) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn generate_emits_valid_series_and_prometheus_snapshot() {
    let dir = tempdir("series");
    let trace = dir.join("t.jcdn");
    let series = dir.join("series.jsonl");
    let prom = dir.join("prom.txt");
    let chrome = dir.join("trace.json");

    let out = jcdn(&[
        "generate",
        "--preset",
        "tiny",
        "--seed",
        "31",
        "--scale",
        "0.2",
        "--out",
        trace.to_str().unwrap(),
        "--window",
        "60s",
        "--obs-series",
        series.to_str().unwrap(),
        "--obs-prom",
        prom.to_str().unwrap(),
        "--obs-trace",
        chrome.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The JSONL stream: every line parses as one JSON object carrying the
    // stream tag, the window bounds, and a counters object; the workload
    // stream precedes the sim stream.
    let jsonl = read(&series);
    let mut streams_seen = Vec::new();
    for line in jsonl.lines() {
        let row = jcdn_json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        let stream = row
            .get("stream")
            .and_then(jcdn_json::Value::as_str)
            .expect("stream tag")
            .to_string();
        let start = row.get("start_us").and_then(jcdn_json::Value::as_u64);
        let end = row.get("end_us").and_then(jcdn_json::Value::as_u64);
        assert!(start.is_some() && end > start, "window bounds in {line}");
        assert!(
            row.get("counters")
                .and_then(jcdn_json::Value::as_object)
                .is_some_and(|c| !c.is_empty()),
            "non-empty counters in {line}"
        );
        if streams_seen.last() != Some(&stream) {
            streams_seen.push(stream);
        }
    }
    assert_eq!(
        streams_seen,
        ["workload", "sim"],
        "fixed stream order in the file"
    );

    // The Prometheus snapshot: typed families, jcdn_-prefixed names, and
    // the windowed counter totals present as counters.
    let prom_text = read(&prom);
    assert!(
        prom_text.contains("# TYPE jcdn_sim_requests counter"),
        "{prom_text}"
    );
    assert!(
        prom_text.contains("jcdn_sim_requests{edge=\"0\"}"),
        "{prom_text}"
    );
    assert!(
        prom_text.contains("# TYPE jcdn_ts_windows_sim counter"),
        "{prom_text}"
    );
    for line in prom_text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (_, value) = line.rsplit_once(' ').expect("name value");
        assert!(value.parse::<u64>().is_ok(), "numeric sample: {line}");
    }

    // The chrome trace: a JSON object with traceEvents and the
    // spans_dropped footer.
    let trace_json = jcdn_json::parse(&read(&chrome)).expect("chrome trace parses");
    assert!(trace_json
        .get("traceEvents")
        .and_then(jcdn_json::Value::as_array)
        .is_some_and(|events| !events.is_empty()));
    assert!(trace_json.pointer("/otherData/spans_dropped").is_some());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn series_stream_is_identical_across_shard_and_thread_counts() {
    let dir = tempdir("invariance");
    let mut rendered = Vec::new();
    for (shards, threads) in [("1", "1"), ("8", "4")] {
        let trace = dir.join(format!("t{shards}x{threads}.jcdn"));
        let series = dir.join(format!("s{shards}x{threads}.jsonl"));
        let out = jcdn(&[
            "generate",
            "--preset",
            "tiny",
            "--seed",
            "31",
            "--scale",
            "0.2",
            "--shards",
            shards,
            "--threads",
            threads,
            "--out",
            trace.to_str().unwrap(),
            "--window",
            "60s",
            "--obs-series",
            series.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        rendered.push(read(&series));

        // The §4 stream from characterize, re-partitioned the same way.
        let s4 = dir.join(format!("s4-{shards}x{threads}.jsonl"));
        let out = jcdn(&[
            "characterize",
            trace.to_str().unwrap(),
            "--shards",
            shards,
            "--threads",
            threads,
            "--window",
            "60s",
            "--obs-series",
            s4.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        rendered.push(read(&s4));
    }
    assert_eq!(rendered[0], rendered[2], "generate series diverged");
    assert_eq!(rendered[1], rendered[3], "section4 series diverged");
    assert!(rendered[1].contains("\"stream\":\"section4\""));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn obs_diff_exit_codes_follow_the_determinism_contract() {
    let dir = tempdir("diff");
    let mut manifests = Vec::new();
    for (tag, seed) in [("a", "31"), ("b", "31"), ("c", "32")] {
        let trace = dir.join(format!("{tag}.jcdn"));
        let manifest = dir.join(format!("{tag}.json"));
        let out = jcdn(&[
            "generate",
            "--preset",
            "tiny",
            "--seed",
            seed,
            "--scale",
            "0.2",
            "--out",
            trace.to_str().unwrap(),
            "--obs-out",
            manifest.to_str().unwrap(),
        ]);
        assert!(out.status.success());
        manifests.push(manifest);
    }

    // Same seed ⇒ identical counters ⇒ exit 0, perf reported as deltas.
    let out = jcdn(&[
        "obs",
        "diff",
        manifests[0].to_str().unwrap(),
        manifests[1].to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("counters identical"), "{stdout}");
    assert!(stdout.contains("perf wall_us"), "{stdout}");

    // Different seed ⇒ counter divergence ⇒ exit 1 with the keys listed.
    let out = jcdn(&[
        "obs",
        "diff",
        manifests[0].to_str().unwrap(),
        manifests[2].to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("DIVERGED"), "{stdout}");
    assert!(stdout.contains("counter sim."), "{stdout}");

    // show pretty-prints the manifest.
    let out = jcdn(&["obs", "show", manifests[0].to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("command:  generate"), "{stdout}");
    assert!(stdout.contains("deterministic"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn obs_show_prints_every_phase_of_the_manifest() {
    let dir = tempdir("show");
    let trace = dir.join("t.jcdn");
    let manifest = dir.join("m.json");
    let out = jcdn(&[
        "generate",
        "--preset",
        "tiny",
        "--seed",
        "31",
        "--scale",
        "0.2",
        "--threads",
        "2",
        "--cache-tier",
        "edge:256K,regional:1M",
        "--out",
        trace.to_str().unwrap(),
        "--obs-out",
        manifest.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let parsed = jcdn_json::parse(&read(&manifest)).expect("manifest parses");
    let phases = parsed
        .get("perf")
        .and_then(|perf| perf.get("phases"))
        .and_then(jcdn_json::Value::as_object)
        .expect("perf.phases");
    assert!(phases.iter().count() > 1, "the run records several phases");

    let out = jcdn(&["obs", "show", manifest.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for (phase, stat) in phases.iter() {
        let total = stat
            .get("total_us")
            .and_then(jcdn_json::Value::as_u64)
            .expect("total_us");
        let line = stdout
            .lines()
            .find(|line| line.split_whitespace().take(2).eq(["phase", phase]))
            .unwrap_or_else(|| panic!("no line for phase {phase}:\n{stdout}"));
        assert!(line.contains(&format!(" {total} us over ")), "{line}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// The repository's benchmark declaration, which `bench-diff` reads.
fn benchmark_json() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json")
}

/// Three untraced perfbench result lines with these `wall_s` values, then
/// one traced line with two per-layer metrics and `failed` failed passes.
fn runs(wall_s: [f64; 3], failed: u64, build_s: f64, hit_ratio: f64) -> String {
    let line = |failed: u64, metrics: String| {
        format!(
            r#"{{"correct": true, "attempted": 20, "failed": {failed}, "metrics": {{{metrics}}}}}"#
        ) + "\n"
    };
    let mut text: String = wall_s
        .iter()
        .map(|w| line(0, format!(r#""wall_s": {{"value": {w:?}, "unit": "s"}}, "wall_t1_s": {{"value": 2.0}}, "peak_rss_mb": {{"value": 300.0}}, "setup_s": {{"value": 5.0}}"#)))
        .collect();
    text += &line(
        failed,
        format!(
            r#""workload.build_s": {{"value": {build_s:?}}}, "cdnsim.hit_ratio": {{"value": {hit_ratio:?}}}"#
        ),
    );
    text
}

#[test]
fn obs_bench_diff_gates_end_to_end_medians_on_their_bounds() {
    let dir = tempdir("bench");
    let spec = benchmark_json();
    let base = dir.join("base.jsonl");
    std::fs::write(&base, runs([0.9, 1.0, 1.1], 0, 0.4, 0.5)).expect("write");
    let diff = |name: &str, text: String| {
        let change = dir.join(name);
        std::fs::write(&change, text).expect("write");
        let paths = [&spec, &base, &change].map(|p| p.to_str().unwrap().to_string());
        let out = jcdn(&["obs", "bench-diff", &paths[0], &paths[1], &paths[2]]);
        let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
        (out.status.code(), text.into_owned())
    };

    // wall_s's median 1.0 -> 1.3 is 30% worse against a 25% bound.
    let (code, out) = diff("slow.jsonl", runs([1.2, 1.3, 1.4], 0, 0.4, 0.5));
    assert_eq!(code, Some(1), "{out}");
    assert!(
        out.contains("WORSE BEYOND BOUND") && out.contains("error: wall_s is worse"),
        "{out}"
    );

    // 20% worse is within the bound; one slow run does not move a median;
    // better passes.
    for (name, wall_s) in [
        ("within.jsonl", [1.1, 1.2, 1.3]),
        ("outlier.jsonl", [0.9, 1.0, 9.0]),
        ("faster.jsonl", [0.4, 0.5, 0.6]),
    ] {
        let (code, out) = diff(name, runs(wall_s, 0, 0.4, 0.5));
        assert_eq!(code, Some(0), "{name}: {out}");
    }

    // Per-layer metrics never gate: a 10x slower build and a hit ratio
    // cut to a fifth (higher is better) are only reported as worse.
    let (code, out) = diff("layers.jsonl", runs([0.9, 1.0, 1.1], 0, 4.0, 0.1));
    assert_eq!(code, Some(0), "{out}");
    let worse = out.lines().filter(|l| l.ends_with(" worse"));
    let worse: Vec<&str> = worse.filter_map(|l| l.split(' ').next()).collect();
    assert_eq!(worse, ["workload.build_s", "cdnsim.hit_ratio"], "{out}");

    // A higher failed share fails, whatever the timings.
    let (code, out) = diff("failed.jsonl", runs([0.4, 0.5, 0.6], 1, 0.4, 0.5));
    assert_eq!(code, Some(1), "{out}");
    assert!(out.contains("failed share is higher"), "{out}");

    // A line that is not a perfbench result is an error naming its line.
    let bad = runs([1.0; 3], 0, 0.4, 0.5).replacen('\n', "\n{\"attempted\": 20}\n", 1);
    let (code, out) = diff("bad.jsonl", bad);
    assert_eq!(code, Some(1), "{out}");
    assert!(out.contains(r#"bad.jsonl:2: no "metrics" object"#), "{out}");

    std::fs::remove_dir_all(&dir).ok();
}

/// The committed perfbench results stay readable against BENCHMARK.json:
/// a renamed end-to-end metric or a malformed line fails here.
#[test]
fn committed_bench_results_diff_clean_against_themselves() {
    let spec = benchmark_json();
    let declared = jcdn_json::parse(&read(&spec)).expect("BENCHMARK.json parses");
    let end_to_end = declared
        .get("end_to_end")
        .and_then(jcdn_json::Value::as_array);
    for workload in ["pipeline-1m", "paper-analyses"] {
        let file = spec.with_file_name(format!("BENCH_{workload}.jsonl"));
        let (spec, file) = (spec.to_str().unwrap(), file.to_str().unwrap());
        let out = jcdn(&["obs", "bench-diff", spec, file, file]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{file}: {stdout}{stderr}");
        for metric in end_to_end.expect("end_to_end array") {
            let name = metric.get("name").and_then(jcdn_json::Value::as_str);
            let row = format!("{} (", name.expect("named"));
            assert!(
                stdout.lines().any(|l| l.starts_with(&row)),
                "{file}: {row}\n{stdout}"
            );
        }
    }
}
