//! Chaos-recovery suite: the `jcdn` binary under injected faults.
//!
//! Each test drives a real subprocess with a `JCDN_CHAOS` fail-point plan
//! (see `jcdn-chaos`) and asserts the crash-safety contract from DESIGN
//! §13: injected write errors, torn writes, bit flips, and worker panics
//! never abort the process; `--resume` after a mid-generate failure
//! produces output byte-identical to an uninterrupted run; and anything
//! that loses input downgrades the exit code to 3 (completed with
//! salvage) with an explicit footer.
//!
//! `JCDN_TEST_SHARDS` sets the shard count (default 4; CI runs 1 and 8).
//! When `JCDN_CHAOS_ARTIFACTS` names a directory, every invocation also
//! writes its obs run manifest there for upload.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn shards() -> usize {
    std::env::var("JCDN_TEST_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(4)
}

/// Durable-write ordinal of shard `i` in a fresh (non-resumed) generate:
/// the store's first write saves the index (1), the table prologue costs
/// two writes (2, 3), and each shard costs two more (frame, then index).
fn shard_write_ordinal(i: usize) -> usize {
    2 * i + 4
}

/// Durable-write ordinal of the final-file write in a fresh generate.
fn final_write_ordinal(n_shards: usize) -> usize {
    2 * n_shards + 4
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jcdn-chaos-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Runs the binary with an optional chaos plan; when
/// `JCDN_CHAOS_ARTIFACTS` is set, the run's obs manifest lands there
/// under `<tag>.json`.
fn jcdn(tag: &str, args: &[&str], chaos: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_jcdn"));
    cmd.args(args);
    cmd.env_remove("JCDN_CHAOS");
    if let Some(spec) = chaos {
        cmd.env("JCDN_CHAOS", spec);
    }
    let artifact;
    if let Ok(dir) = std::env::var("JCDN_CHAOS_ARTIFACTS") {
        std::fs::create_dir_all(&dir).expect("artifact dir");
        artifact = format!("{dir}/{tag}-shards{}.json", shards());
        cmd.args(["--obs-out", &artifact]);
    }
    cmd.output().expect("binary runs")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// No injected fault may escalate to a process abort: a caught panic is
/// reported through the salvage path, never through the CLI's
/// last-resort panic trap.
fn assert_no_abort(out: &Output) {
    let err = stderr_of(out);
    assert!(!err.contains("internal panic"), "process aborted: {err}");
}

fn generate_args<'a>(out: &'a str, n_shards: &'a str, extra: &[&'a str]) -> Vec<&'a str> {
    let mut args = vec![
        "generate", "--preset", "tiny", "--seed", "5", "--scale", "0.2", "--shards", n_shards,
        "--out", out,
    ];
    args.extend_from_slice(extra);
    args
}

/// Clean baseline run in `dir`: returns the trace bytes and the
/// characterize stdout every recovery path must reproduce exactly.
fn baseline(tag: &str, dir: &Path) -> (Vec<u8>, String) {
    let trace = dir.join("clean.jcdn");
    let trace_str = trace.to_str().unwrap();
    let n = shards().to_string();
    let out = jcdn(
        &format!("{tag}-baseline-gen"),
        &generate_args(trace_str, &n, &[]),
        None,
    );
    assert!(out.status.success(), "{}", stderr_of(&out));
    let bytes = std::fs::read(&trace).expect("baseline trace");
    let out = jcdn(
        &format!("{tag}-baseline-char"),
        &["characterize", trace_str],
        None,
    );
    assert!(out.status.success(), "{}", stderr_of(&out));
    (bytes, stdout_of(&out))
}

#[test]
fn write_error_mid_generate_then_resume_is_byte_identical() {
    let dir = tempdir("werr");
    let (clean_bytes, clean_report) = baseline("werr", &dir);
    let trace = dir.join("t.jcdn");
    let trace_str = trace.to_str().unwrap();
    let n = shards().to_string();

    // Fail the middle shard's durable write: the run dies with the
    // earlier shards committed and verified in the staging area.
    let failed_shard = shards() / 2;
    let spec = format!("write-error:{}", shard_write_ordinal(failed_shard));
    let out = jcdn("werr-kill", &generate_args(trace_str, &n, &[]), Some(&spec));
    assert!(
        !out.status.success(),
        "injected write error must fail the run"
    );
    assert_no_abort(&out);
    assert!(
        !trace.exists(),
        "no final file may appear from a failed run"
    );

    // Resume recomputes only what is missing and reuses the rest.
    let out = jcdn(
        "werr-resume",
        &generate_args(trace_str, &n, &["--resume"]),
        None,
    );
    assert!(out.status.success(), "{}", stderr_of(&out));
    if failed_shard > 0 {
        assert!(
            stderr_of(&out).contains(&format!("resume: reused {failed_shard} committed shard(s)")),
            "{}",
            stderr_of(&out)
        );
    }
    assert_eq!(
        std::fs::read(&trace).expect("resumed trace"),
        clean_bytes,
        "resumed output must be byte-identical to an uninterrupted run"
    );
    let out = jcdn("werr-char", &["characterize", trace_str], None);
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert_eq!(stdout_of(&out), clean_report);

    // A second --resume sees the completed index and leaves the
    // published file untouched.
    let out = jcdn(
        "werr-noop",
        &generate_args(trace_str, &n, &["--resume"]),
        None,
    );
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("already complete"),
        "{}",
        stderr_of(&out)
    );
    assert_eq!(std::fs::read(&trace).expect("trace"), clean_bytes);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rejected_flags_leave_an_interrupted_run_resumable() {
    let dir = tempdir("badflag");
    let (clean_bytes, _) = baseline("badflag", &dir);
    let trace = dir.join("t.jcdn");
    let trace_str = trace.to_str().unwrap();
    let n = shards().to_string();

    // Write 6 comes after shard 0's frame and index entry: shard 1's frame,
    // or the final file when there is one shard.
    let out = jcdn(
        "badflag-kill",
        &generate_args(trace_str, &n, &[]),
        Some("write-error:6"),
    );
    assert!(!out.status.success(), "injected write error must fail");
    assert_no_abort(&out);
    let index = dir.join("t.jcdn.idx");
    let shard0 = dir.join("t.jcdn.staging").join("shard-0000.bin");
    let staged = (
        std::fs::read(&index).expect("index committed"),
        std::fs::read(&shard0).expect("shard 0 committed"),
    );

    // A typo, with or without --resume, fails before the store writes.
    for flags in [
        ["--retries", "x"].as_slice(),
        &["--outage", "0:60", "--resume"],
    ] {
        let out = jcdn("badflag-typo", &generate_args(trace_str, &n, flags), None);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {}", stderr_of(&out));
        let now = (
            std::fs::read(&index).expect("index kept"),
            std::fs::read(&shard0).expect("shard 0 kept"),
        );
        assert!(now == staged, "{flags:?} changed the staged run");
    }

    let out = jcdn(
        "badflag-resume",
        &generate_args(trace_str, &n, &["--resume"]),
        None,
    );
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("resume: reused 1 committed shard(s)"),
        "{}",
        stderr_of(&out)
    );
    assert_eq!(std::fs::read(&trace).expect("resumed trace"), clean_bytes);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_shard_write_is_caught_at_finalize_and_resume_heals() {
    let dir = tempdir("torn");
    let (clean_bytes, _) = baseline("torn", &dir);
    let trace = dir.join("t.jcdn");
    let trace_str = trace.to_str().unwrap();
    let n = shards().to_string();

    // Shard 0's frame lands truncated but *reports success* — a torn
    // write. The CRC check at finalize must refuse to publish it.
    let spec = format!("seed=3;truncate:{}:*", shard_write_ordinal(0));
    let out = jcdn("torn-kill", &generate_args(trace_str, &n, &[]), Some(&spec));
    assert!(
        !out.status.success(),
        "torn staged shard must fail finalize"
    );
    assert_no_abort(&out);
    assert!(
        stderr_of(&out).contains("missing or damaged"),
        "{}",
        stderr_of(&out)
    );
    assert!(!trace.exists());

    let out = jcdn(
        "torn-resume",
        &generate_args(trace_str, &n, &["--resume"]),
        None,
    );
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert_eq!(std::fs::read(&trace).expect("resumed trace"), clean_bytes);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flipped_shard_write_is_caught_at_finalize_and_resume_heals() {
    let dir = tempdir("flip");
    let (clean_bytes, _) = baseline("flip", &dir);
    let trace = dir.join("t.jcdn");
    let trace_str = trace.to_str().unwrap();
    let n = shards().to_string();

    // Silent single-bit media corruption of a committed shard: the write
    // succeeds, the bytes are wrong, the index CRC catches it.
    let last = shards() - 1;
    let spec = format!("seed=9;bitflip:{}:*", shard_write_ordinal(last));
    let out = jcdn("flip-kill", &generate_args(trace_str, &n, &[]), Some(&spec));
    assert!(
        !out.status.success(),
        "bit-flipped staged shard must fail finalize"
    );
    assert_no_abort(&out);
    assert!(!trace.exists());

    let out = jcdn(
        "flip-resume",
        &generate_args(trace_str, &n, &["--resume"]),
        None,
    );
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert_eq!(std::fs::read(&trace).expect("resumed trace"), clean_bytes);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn characterize_resume_analyzes_staging_when_final_write_failed() {
    let dir = tempdir("stag");
    let (_, clean_report) = baseline("stag", &dir);
    let trace = dir.join("t.jcdn");
    let trace_str = trace.to_str().unwrap();
    let n = shards().to_string();

    // Every shard commits; the final-file write itself fails. The staged
    // shards carry the complete trace.
    let spec = format!("write-error:{}", final_write_ordinal(shards()));
    let out = jcdn("stag-kill", &generate_args(trace_str, &n, &[]), Some(&spec));
    assert!(!out.status.success());
    assert_no_abort(&out);
    assert!(!trace.exists());

    let out = jcdn("stag-char", &["characterize", trace_str, "--resume"], None);
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("resume: final file absent"),
        "{}",
        stderr_of(&out)
    );
    assert_eq!(
        stdout_of(&out),
        clean_report,
        "staged shards must characterize identically to the final file"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_final_file_salvages_with_exit_code_3() {
    let dir = tempdir("corr");
    let (clean_bytes, _) = baseline("corr", &dir);

    // Bit flip inside the last frame: the tolerant decode drops exactly
    // that frame, reports the loss, and exits 3 — never 0, never a crash.
    let flipped = dir.join("flipped.jcdn");
    let mut bytes = clean_bytes.clone();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&flipped, &bytes).expect("write corrupted copy");
    let out = jcdn(
        "corr-flip",
        &["characterize", flipped.to_str().unwrap()],
        None,
    );
    assert_eq!(out.status.code(), Some(3), "{}", stderr_of(&out));
    assert_no_abort(&out);
    let report = stdout_of(&out);
    assert!(report.contains("decode: dropped"), "{report}");
    assert!(report.contains("CRC-failed frame(s)"), "{report}");
    assert!(report.contains("first error at byte"), "{report}");
    assert!(report.contains("partial result:"), "{report}");

    // Truncation mid-frame: same contract, counted as a truncated frame.
    let cut = dir.join("cut.jcdn");
    std::fs::write(&cut, &clean_bytes[..clean_bytes.len() - 7]).expect("write truncated copy");
    let out = jcdn("corr-cut", &["characterize", cut.to_str().unwrap()], None);
    assert_eq!(out.status.code(), Some(3), "{}", stderr_of(&out));
    assert_no_abort(&out);
    let report = stdout_of(&out);
    assert!(report.contains("truncated frame(s)"), "{report}");
    assert!(report.contains("partial result:"), "{report}");

    // A last frame whose length prefix is one byte short: its CRC-valid
    // descriptor promises more column bytes than the body holds, so the
    // frame is dropped as header-damaged — in the footer and the manifest.
    let short = dir.join("short.jcdn");
    let mut bytes = clean_bytes.clone();
    let at = last_frame_offset(&bytes);
    let body_len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    bytes[at..at + 4].copy_from_slice(&(body_len - 1).to_le_bytes());
    std::fs::write(&short, &bytes).expect("write damaged copy");
    let out = jcdn(
        "corr-short",
        &["characterize", short.to_str().unwrap(), "--obs", "full"],
        None,
    );
    assert_eq!(out.status.code(), Some(3), "{}", stderr_of(&out));
    assert_no_abort(&out);
    let report = stdout_of(&out);
    assert!(report.contains("1 header-damaged frame(s)"), "{report}");
    assert!(report.contains("partial result:"), "{report}");
    let summary = stderr_of(&out);
    assert!(
        summary.contains("counter codec.frames.header_damaged = 1"),
        "{summary}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Byte offset of the last frame in a clean v4 trace file. A frame's bytes
/// depend only on its records, so encoding the last shard alone (minus the
/// same encode with no frames) gives its length.
fn last_frame_offset(bytes: &[u8]) -> usize {
    let decoded = jcdn_trace::codec::decode(bytes, 1).expect("clean trace decodes");
    let last = decoded.shard_records(decoded.shard_count() - 1);
    let encoded_len = |shards| {
        let trace = jcdn_trace::Trace::from_parts(decoded.interner().clone(), shards);
        jcdn_trace::codec::encode(&trace, 1).expect("encodes").len()
    };
    bytes.len() - (encoded_len(vec![last.to_vec()]) - encoded_len(vec![]))
}

#[test]
fn transient_worker_panic_recovers_with_identical_report() {
    let dir = tempdir("ponce");
    let (_, clean_report) = baseline("ponce", &dir);
    let trace = dir.join("clean.jcdn");
    let trace_str = trace.to_str().unwrap();

    // The first attempt at shard 0 panics; the pool's sequential retry
    // succeeds. The run must exit 0 with a byte-identical report — the
    // recovery is invisible apart from the exec counters.
    let out = jcdn(
        "ponce-char",
        &["characterize", trace_str, "--threads", "2"],
        Some("panic:characterize.shards:0"),
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    assert_no_abort(&out);
    assert_eq!(
        stdout_of(&out),
        clean_report,
        "a recovered transient panic must not change the report"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn persistent_worker_panic_quarantines_with_exit_code_3() {
    let dir = tempdir("palw");
    let (_, _) = baseline("palw", &dir);
    let trace = dir.join("clean.jcdn");
    let trace_str = trace.to_str().unwrap();

    // Shard 0 panics on the first attempt *and* on the retry: it is
    // quarantined, the surviving shards still report, and the footer
    // names the exclusion.
    let out = jcdn(
        "palw-char",
        &["characterize", trace_str, "--threads", "2"],
        Some("panic-always:characterize.shards:0"),
    );
    assert_eq!(out.status.code(), Some(3), "{}", stderr_of(&out));
    assert_no_abort(&out);
    let report = stdout_of(&out);
    assert!(
        report.contains("exec: quarantined shard(s) [0]"),
        "{report}"
    );
    assert!(report.contains("partial result:"), "{report}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_chaos_spec_is_a_usage_error() {
    let out = jcdn("badspec", &["inspect", "nope.jcdn"], Some("explode:1"));
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("unknown chaos point kind"),
        "{}",
        stderr_of(&out)
    );
}
