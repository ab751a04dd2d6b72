//! Integration tests: the fixture corpus (exact rule/file/line findings),
//! the CLI's exit codes, and a full-workspace smoke run with a timing
//! budget. The rules clippy checks have their fixture crate in
//! `tests/fixtures/clippy`, which CI lints with clippy.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use jcdn_lint::{Config, Finding};

fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    jcdn_lint::find_workspace_root(&manifest).expect("workspace root above crates/lint")
}

fn fixture_dir(kind: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(kind)
}

fn lint_fixture(kind: &str, name: &str) -> Vec<Finding> {
    let path = fixture_dir(kind).join(name);
    let src = std::fs::read_to_string(&path).expect("fixture readable");
    jcdn_lint::lint_source(name, &src, &Config::all_scopes())
}

/// (rule, line) pairs, sorted, for compact exact-match assertions.
fn rule_lines(findings: &[Finding]) -> Vec<(&str, u32)> {
    findings.iter().map(|f| (f.rule, f.line)).collect()
}

#[test]
fn bad_d2_flags_hash_iteration_including_reference_params() {
    let findings = lint_fixture("bad", "d2_hash_iteration.rs");
    assert_eq!(
        rule_lines(&findings),
        vec![("D2", 5), ("D2", 13)],
        "{findings:?}"
    );
}

#[test]
fn bad_d5_flags_float_accumulation_in_merge_only() {
    let findings = lint_fixture("bad", "d5_float_merge.rs");
    assert_eq!(rule_lines(&findings), vec![("D5", 11)], "{findings:?}");
}

#[test]
fn bad_d9_flags_unchecked_length_arithmetic_per_function() {
    let findings = lint_fixture("bad", "d9_unchecked_len.rs");
    assert_eq!(
        rule_lines(&findings),
        vec![("D9", 6), ("D9", 7), ("D9", 8)],
        "{findings:?}"
    );
}

#[test]
fn bad_d10_flags_non_exhaustive_version_match_only() {
    let findings = lint_fixture("bad", "d10_version_match.rs");
    assert_eq!(rule_lines(&findings), vec![("D10", 4)], "{findings:?}");
}

#[test]
fn clean_corpus_is_clean() {
    assert!(lint_fixture("clean", "well_behaved.rs").is_empty());
}

/// Runs both stages over one of the `cross/` fixture trees, which mimic
/// a workspace layout so the path-scoped roots (cdnsim's `run_until`)
/// resolve exactly as they do on the real tree.
fn lint_cross(kind: &str) -> Vec<Finding> {
    let root = fixture_dir("cross").join(kind);
    let mut files = Vec::new();
    collect_rs(&root, &mut files);
    files.sort();
    jcdn_lint::lint_files(&root, &files, &Config::all_scopes(), 1).expect("cross fixtures lint")
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("fixture dir listable") {
        let path = entry.expect("fixture dir entry").path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn cross_bad_d7_reports_wall_clock_two_hops_below_merge() {
    let findings = lint_cross("bad");
    let d7: Vec<&Finding> = findings.iter().filter(|f| f.rule == "D7").collect();
    assert_eq!(d7.len(), 1, "{findings:?}");
    assert_eq!(d7[0].path, "crates/core/src/helpers.rs");
    assert_eq!(d7[0].line, 10);
    assert_eq!(d7[0].chain.len(), 3, "{:?}", d7[0].chain);
    assert_eq!(d7[0].chain[0].func, "core::merge_path::merge_partials");
    assert_eq!(d7[0].chain[1].func, "core::helpers::tally");
    assert_eq!(d7[0].chain[2].func, "core::helpers::stamp");
}

#[test]
fn cross_bad_d8_reports_tier_mutation_in_peek_phase() {
    let findings = lint_cross("bad");
    let d8: Vec<&Finding> = findings.iter().filter(|f| f.rule == "D8").collect();
    assert_eq!(d8.len(), 1, "{findings:?}");
    assert_eq!(d8[0].path, "crates/cdnsim/src/sim_peek.rs");
    assert_eq!(d8[0].line, 11);
    assert_eq!(d8[0].chain.len(), 2, "{:?}", d8[0].chain);
    assert_eq!(d8[0].chain[0].func, "cdnsim::sim_peek::Machine::run_until");
    assert!(d8[0].message.contains("flush_accesses"));
}

#[test]
fn cross_clean_corpus_is_clean() {
    let findings = lint_cross("clean");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn allowlist_exempts_by_path() {
    let rel = "crates/lint/tests/fixtures/clean/allowlisted.rs";
    let src = std::fs::read_to_string(workspace_root().join(rel)).expect("fixture readable");

    let mut cfg = Config::all_scopes();
    assert_eq!(
        rule_lines(&jcdn_lint::lint_source(rel, &src, &cfg)),
        vec![("D10", 6)],
        "without the allowlist the violation fires"
    );

    let toml =
        std::fs::read_to_string(fixture_dir("clean").join("allowlist.toml")).expect("readable");
    cfg.extend_allow(jcdn_lint::parse_allowlist(&toml).expect("fixture allowlist parses"));
    assert!(jcdn_lint::lint_source(rel, &src, &cfg).is_empty());
}

#[test]
fn root_allowlist_parses_and_names_known_rules_only() {
    let toml =
        std::fs::read_to_string(workspace_root().join("allowlist.toml")).expect("root allowlist");
    let parsed: BTreeMap<String, Vec<String>> =
        jcdn_lint::parse_allowlist(&toml).expect("root allowlist parses");
    assert_eq!(
        parsed,
        BTreeMap::from([(
            "D7".to_string(),
            vec!["crates/obs/src/clock.rs".to_string()]
        )]),
        "the one sanctioned clock reader is the only exemption"
    );
}

fn run_cli(args: &[&str], cwd: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_jcdn-lint"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("jcdn-lint binary runs")
}

#[test]
fn cli_exits_nonzero_on_bad_corpus_and_zero_on_clean() {
    let root = workspace_root();
    let bad = fixture_dir("bad");
    let out = run_cli(
        &[
            "--all-scopes",
            "--format",
            "json",
            bad.to_str().expect("utf-8 path"),
        ],
        &root,
    );
    assert_eq!(out.status.code(), Some(1), "bad corpus exits 1");
    let stdout = String::from_utf8(out.stdout).expect("json output is UTF-8");
    for rule in ["D2", "D5", "D9", "D10"] {
        assert!(
            stdout.contains(&format!("\"rule\":\"{rule}\"")),
            "{rule} demonstrated in corpus output: {stdout}"
        );
    }

    let clean = fixture_dir("clean");
    let allowlist = clean.join("allowlist.toml");
    let out = run_cli(
        &[
            "--all-scopes",
            "--allowlist",
            allowlist.to_str().expect("utf-8 path"),
            clean.to_str().expect("utf-8 path"),
        ],
        &root,
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "clean corpus exits 0: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn cli_seeded_cross_file_violations_reported_in_text_and_json() {
    let root = workspace_root();
    let cross_bad = fixture_dir("cross").join("bad");
    let cross = cross_bad.to_str().expect("utf-8 path");

    let out = run_cli(&["--all-scopes", "--root", cross, cross], &root);
    assert_eq!(out.status.code(), Some(1), "seeded violations exit 1");
    let text = String::from_utf8(out.stdout).expect("text output is UTF-8");
    assert!(text.contains("error[D7]"), "{text}");
    assert!(text.contains("error[D8]"), "{text}");
    assert!(
        text.contains("root core::merge_path::merge_partials"),
        "chain evidence rendered: {text}"
    );
    assert!(text.contains("calls core::helpers::stamp"), "{text}");

    let out = run_cli(
        &["--all-scopes", "--root", cross, "--format", "json", cross],
        &root,
    );
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8(out.stdout).expect("json output is UTF-8");
    for needle in [
        "\"rule\":\"D7\"",
        "\"rule\":\"D8\"",
        "\"chain\":[",
        "\"func\":\"core::merge_path::merge_partials\"",
        "\"func\":\"cdnsim::sim_peek::Machine::run_until\"",
    ] {
        assert!(json.contains(needle), "{needle} in {json}");
    }
}

#[test]
fn cli_workspace_run_is_clean() {
    let root = workspace_root();
    let out = run_cli(&["--workspace"], &root);
    assert_eq!(
        out.status.code(),
        Some(0),
        "the tree lints clean: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("clean"));
}

#[test]
fn cli_explain_knows_every_rule_and_rejects_unknown() {
    let root = workspace_root();
    for rule in ["D2", "D5", "D7", "D8", "D9", "D10"] {
        let out = run_cli(&["--explain", rule], &root);
        assert_eq!(out.status.code(), Some(0), "{rule}");
        assert!(!out.stdout.is_empty(), "{rule} has an explanation");
    }
    // Unknown ids, the rules clippy now checks among them, are usage errors.
    for rule in ["D99", "D1", "S1"] {
        let out = run_cli(&["--explain", rule], &root);
        assert_eq!(out.status.code(), Some(2), "{rule} is unknown");
    }
}

#[test]
fn full_workspace_pass_stays_under_budget() {
    let root = workspace_root();
    let mut cfg = Config::workspace_default();
    // The tree has exactly one sanctioned clock reader (the jcdn-obs clock
    // module); it is exempted from D7 in `allowlist.toml`, so the
    // lib-level pass loads the workspace allowlist just as the CLI does.
    let allow = std::fs::read_to_string(root.join("allowlist.toml")).expect("allowlist readable");
    cfg.extend_allow(jcdn_lint::parse_allowlist(&allow).expect("allowlist parses"));
    let timer = jcdn_obs::clock::Stopwatch::start();
    let findings = jcdn_lint::lint_workspace(&root, &cfg, 1).expect("workspace lints");
    let elapsed_ms = timer.elapsed_us() / 1000;
    assert!(
        findings.is_empty(),
        "workspace lints clean via the library API: {findings:?}"
    );
    assert!(
        elapsed_ms < 5000,
        "full-workspace lint took {elapsed_ms} ms, budget is 5 s"
    );
}
