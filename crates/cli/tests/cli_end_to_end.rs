//! End-to-end tests of the `jcdn` binary: generate → inspect →
//! characterize → predict → export → merge, all against real subprocess
//! invocations.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use jcdn_trace::ShardedTrace;

fn jcdn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_jcdn"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jcdn-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Decodes a trace file strictly, keeping its shard frames.
fn read(path: &Path, threads: usize) -> ShardedTrace {
    let data = std::fs::read(path).expect("trace file reads");
    jcdn_trace::codec::decode(&data, threads).expect("trace file decodes")
}

#[test]
fn generate_inspect_characterize_round_trip() {
    let dir = tempdir("gen");
    let trace = dir.join("t.jcdn");
    let trace_str = trace.to_str().unwrap();

    let out = jcdn(&[
        "generate", "--preset", "tiny", "--seed", "11", "--scale", "0.2", "--out", trace_str,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(trace.exists());

    let out = jcdn(&["inspect", trace_str]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("records:"), "{stdout}");
    assert!(stdout.contains("application/json"), "{stdout}");

    let out = jcdn(&["characterize", trace_str]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Mobile"), "{stdout}");
    assert!(stdout.contains("uncacheable JSON"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_writes_every_requested_shard_of_a_small_trace() {
    // A trace too small to fill 30 shards of ⌈n/30⌉ records still gets
    // 30 frames (the tail ones empty), so the store can finalize.
    let dir = tempdir("small");
    let trace = dir.join("t.jcdn");
    let trace_str = trace.to_str().unwrap();
    let out = jcdn(&[
        "generate", "--preset", "tiny", "--seed", "1", "--scale", "0.001", "--shards", "30",
        "--out", trace_str,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let sharded = read(&trace, 2);
    assert_eq!(sharded.shard_count(), 30);
    assert!(
        (0..30).any(|i| sharded.shard_records(i).is_empty()),
        "the trace must be small enough to leave empty shards"
    );

    let out = jcdn(&["characterize", trace_str]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn predict_export_and_merge() {
    let dir = tempdir("pem");
    let a = dir.join("a.jcdn");
    let b = dir.join("b.jcdn");
    let merged = dir.join("ab.jcdn");
    let jsonl = dir.join("a.jsonl");
    for (path, seed) in [(&a, "21"), (&b, "22")] {
        let out = jcdn(&[
            "generate",
            "--preset",
            "tiny",
            "--seed",
            seed,
            "--scale",
            "0.2",
            "--out",
            path.to_str().unwrap(),
        ]);
        assert!(out.status.success());
    }

    let out = jcdn(&["predict", a.to_str().unwrap(), "--k", "1,5"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Clustered URLs"), "{stdout}");

    let out = jcdn(&[
        "export",
        a.to_str().unwrap(),
        "--jsonl",
        jsonl.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let first_line = std::fs::read_to_string(&jsonl)
        .unwrap()
        .lines()
        .next()
        .unwrap()
        .to_owned();
    assert!(first_line.starts_with('{') && first_line.contains("\"url\""));

    let out = jcdn(&[
        "merge",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--out",
        merged.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The merged trace must contain both inputs' records.
    let [ta, tb, tm] = [&a, &b, &merged].map(|path| read(path, 1));
    assert_eq!(tm.len(), ta.len() + tb.len());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trend_emits_csv() {
    let out = jcdn(&["trend", "--months", "6"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 7, "header + 6 months");
    assert!(lines[0].starts_with("month,json_requests"));
    assert!(lines[1].starts_with("2016-01,"));
}

#[test]
fn errors_are_reported_not_panicked() {
    let out = jcdn(&["inspect", "/nonexistent/trace.jcdn"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "{stderr}");

    let out = jcdn(&["frobnicate"]);
    assert!(!out.status.success());

    let out = jcdn(&["generate", "--preset", "nope", "--out", "/tmp/x.jcdn"]);
    assert!(!out.status.success());

    let out = jcdn(&["--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));
}

/// The flags each command accepted before they moved into one table,
/// written out so that the table is checked against that behaviour and
/// not against itself. FAULT, CACHE and OBS stand for the shared groups.
const ACCEPTED: [(&str, &str); 9] = [
    (
        "generate",
        "preset seed scale out edges shards threads resume FAULT CACHE OBS",
    ),
    ("inspect", "top threads OBS"),
    ("characterize", "shards threads resume CACHE OBS"),
    (
        "periodicity",
        "permutations max-bins min-requests min-clients threads OBS",
    ),
    ("predict", "history k train-percent threads OBS"),
    ("export", "jsonl threads OBS"),
    ("merge", "out threads OBS"),
    ("trend", "months seed OBS"),
    ("obs", ""),
];

/// One command's accepted flags, sorted, with the groups spelled out.
fn accepted(flags: &'static str) -> Vec<&'static str> {
    let group = |word| match word {
        "FAULT" => {
            "outage degrade flap error-burst retries stale-grace negative-ttl \
             origin-timeout resilience"
        }
        "CACHE" => "cache-tier cache-policy cache-placement cache-sync",
        "OBS" => "obs obs-out obs-series obs-prom obs-trace window",
        flag => flag,
    };
    let words = flags
        .split_whitespace()
        .flat_map(|word| group(word).split_whitespace());
    let mut flags: Vec<&str> = words.collect();
    flags.sort_unstable();
    flags
}

#[test]
fn help_names_every_flag_each_command_accepts() {
    for (command, flags) in ACCEPTED {
        for help in ["--help", "-h"] {
            let out = jcdn(&[command, help]);
            assert_eq!(out.status.code(), Some(0), "{command} {help}");
            assert!(out.stderr.is_empty(), "{command} {help}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                stdout.starts_with(&format!("usage: jcdn {command}")),
                "{stdout}"
            );
            // The first word of every help line that names a flag.
            let first_words = stdout
                .lines()
                .filter_map(|line| line.split_whitespace().next());
            let mut named: Vec<&str> = first_words.filter_map(|w| w.strip_prefix("--")).collect();
            named.sort_unstable();
            assert_eq!(named, accepted(flags), "{command} {help}");
        }
        let out = jcdn(&[command, "--no-such-flag", "1"]);
        assert_eq!(out.status.code(), Some(1), "{command}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag --no-such-flag"), "{stderr}");
    }
    // `obs` takes no observability flag.
    let out = jcdn(&["obs", "show", "m.json", "--obs-out", "x"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --obs-out"));
    // Help wins after other arguments too, and before a missing required flag.
    assert_eq!(jcdn(&["obs", "show", "--help"]).status.code(), Some(0));
    assert_eq!(
        jcdn(&["generate", "--preset", "tiny", "-h"]).status.code(),
        Some(0)
    );
    // The top-level help holds every command's section and the exit codes.
    let stdout = String::from_utf8_lossy(&jcdn(&["--help"]).stdout).into_owned();
    for (command, _) in ACCEPTED {
        assert!(stdout.contains(&format!("\njcdn {command} ")), "{command}");
    }
    assert!(stdout.contains("exit codes:"), "{stdout}");
}

#[test]
fn characterize_does_not_echo_a_forged_record_count() {
    // A 14-byte v1 trace: empty string tables, then a record count of
    // 2^40 that no byte backs.
    let dir = tempdir("forged");
    let trace = dir.join("forged.jcdn");
    let mut bytes = b"JCDN".to_vec();
    bytes.extend_from_slice(&1u16.to_le_bytes());
    bytes.extend_from_slice(&[0, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20]);
    std::fs::write(&trace, &bytes).expect("write forged trace");

    let out = jcdn(&["characterize", trace.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "the salvage is still reported");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("dropped 0 record(s)"), "{stdout}");
    assert!(stdout.contains("1 header-damaged frame(s)"), "{stdout}");
    assert!(!stdout.contains("1099511627776"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_rejects_zero_edges_before_writing() {
    let dir = tempdir("edges0");
    let trace = dir.join("t.jcdn");
    let out = jcdn(&["generate", "--edges", "0", "--out", trace.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--edges"), "{stderr}");
    assert!(!stderr.contains("internal panic"), "{stderr}");
    assert!(!dir.join("t.jcdn.idx").exists(), "no shard index is left");
    assert!(!dir.join("t.jcdn.staging").exists(), "no staging directory");
    assert!(!trace.exists());

    std::fs::remove_dir_all(&dir).ok();
}
