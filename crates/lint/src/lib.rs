//! # jcdn-lint — the workspace determinism linter
//!
//! The paper reproduction's results are only meaningful because the
//! pipeline is bit-deterministic for a given seed, shard count, and
//! thread count (see `DESIGN.md` §10–§11). That contract is enforced
//! dynamically by the `shard_invariance` property tests — and statically
//! by clippy plus this crate. clippy checks, with types, what it can
//! express (the wall-clock ban, panics in libraries, lossy casts, docs;
//! see `clippy.toml` and the crate-root attributes). This crate checks
//! what clippy cannot: a self-contained token-level pass over the
//! workspace's Rust sources for the workspace-specific rules below.
//!
//! The rules (see [`report::explain`] or `jcdn-lint --explain <rule>`):
//!
//! | id | guards against |
//! |----|----------------|
//! | D2 | `HashMap`/`HashSet` iteration in output-order-sensitive modules |
//! | D5 | ad-hoc float accumulation in `merge*` functions |
//! | D7 | cross-file determinism taint on merge/finalize/encode paths |
//! | D8 | shared-tier mutation inside the epoch peek phase |
//! | D9 | unchecked arithmetic on untrusted decode lengths |
//! | D10 | codec-version match exhaustiveness |
//!
//! Two stages, no rustc integration. **Stage 1** is per-file and
//! embarrassingly parallel (fanned out on the jcdn-exec pool): a
//! hand-rolled lexer ([`lexer`]) feeds the token-local rules ([`rules`])
//! and a lightweight item parser ([`parser`]) that summarizes functions,
//! calls, and determinism sources. **Stage 2** builds a workspace call
//! graph from those summaries ([`graph`]) and runs the flow-aware rules
//! D7/D8 over it ([`taint`]), attaching full call-chain evidence to each
//! finding. Both stages are scoped and exempted by [`config`]
//! (`allowlist.toml` at the workspace root) and render as human or JSON
//! output ([`report`]). The full-workspace pass stays well under the
//! 5-second budget its timing test enforces.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod config;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod taint;

use std::path::{Path, PathBuf};

pub use config::{parse_allowlist, Config};
pub use rules::{ChainHop, Finding};

/// Lints one file's source text — stage 1 only (token-local rules).
/// `path` is the workspace-relative path used for scope/allowlist
/// matching and in findings. Cross-file rules need the whole file set;
/// use [`lint_sources`] or [`lint_files`] for those.
pub fn lint_source(path: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    rules::lint_tokens(path, &lexer::lex(src), cfg)
}

/// Runs both stages over an in-memory `(path, source)` set — the
/// entry point the fixture tests use. `threads` controls the stage-1
/// fan-out on the jcdn-exec pool (stage 2 is a single graph walk).
pub fn lint_sources(files: &[(String, String)], cfg: &Config, threads: usize) -> Vec<Finding> {
    let per_file = jcdn_exec::scatter_gather_labeled("lint.stage1", files.len(), threads, |i| {
        let (path, src) = &files[i];
        let tokens = lexer::lex(src);
        (
            rules::lint_tokens(path, &tokens, cfg),
            parser::parse_file(path, &tokens),
        )
    });
    let mut findings: Vec<Finding> = Vec::new();
    let mut parsed: Vec<parser::ParsedFile> = Vec::with_capacity(per_file.len());
    for (f, p) in per_file {
        findings.extend(f);
        parsed.push(p);
    }
    let graph = graph::CallGraph::build(&parsed);
    findings.extend(taint::run(&graph, cfg));
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    findings
}

/// Lints a set of files on disk, both stages, with the given stage-1
/// thread count. Paths are reported relative to `root` (with forward
/// slashes); unreadable files produce an `Err`.
pub fn lint_files(
    root: &Path,
    files: &[PathBuf],
    cfg: &Config,
    threads: usize,
) -> Result<Vec<Finding>, String> {
    let mut sources = Vec::with_capacity(files.len());
    for file in files {
        let rel = relative_path(root, file);
        let src = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        sources.push((rel, src));
    }
    Ok(lint_sources(&sources, cfg, threads))
}

/// Lints the whole workspace under `root` with the given stage-1 thread
/// count: every `.rs` file in `crates/*/{src,tests,benches}`, plus the
/// root `src/`, `tests/`, and `examples/`. Skips `vendor/` (third-party
/// stand-ins), `target/`, and any `fixtures/` directory (the lint corpus
/// is intentionally bad).
pub fn lint_workspace(root: &Path, cfg: &Config, threads: usize) -> Result<Vec<Finding>, String> {
    let files = workspace_files(root)?;
    lint_files(root, &files, cfg, threads)
}

/// Enumerates the workspace's lintable `.rs` files in sorted order.
fn workspace_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_roots = read_dir_sorted(&crates_dir)?;
        crate_roots.retain(|p| p.is_dir());
        for krate in crate_roots {
            for sub in ["src", "tests", "benches"] {
                let dir = krate.join(sub);
                if dir.is_dir() {
                    collect_rs(&dir, &mut files)?;
                }
            }
        }
    }
    for sub in ["src", "tests", "examples"] {
        let dir = root.join(sub);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

/// Recursively collects `.rs` files, skipping `fixtures/` and `target/`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    for entry in read_dir_sorted(dir)? {
        let name = entry
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if entry.is_dir() {
            if name == "fixtures" || name == "target" {
                continue;
            }
            collect_rs(&entry, out)?;
        } else if name.ends_with(".rs") {
            out.push(entry.clone());
        }
    }
    Ok(())
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let rd = std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    let mut entries = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| format!("error listing {}: {e}", dir.display()))?;
        entries.push(entry.path());
    }
    entries.sort();
    Ok(entries)
}

/// `file` relative to `root`, with forward slashes, for matching and
/// display. Falls back to the full path when `file` is not under `root`.
pub fn relative_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    let s = rel.to_string_lossy();
    if std::path::MAIN_SEPARATOR == '/' {
        s.into_owned()
    } else {
        s.replace(std::path::MAIN_SEPARATOR, "/")
    }
}

/// Locates the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_rules_skip_test_modules() {
        let cfg = Config::all_scopes();
        let src = "fn lib(m: HashMap<u32, u32>) { for x in &m { use_(x); } }\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { for x in &m { use_(x); } }\n}";
        let findings = lint_source("x.rs", src, &cfg);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn d2_requires_hash_binding_and_respects_sort_canonical() {
        let cfg = Config::all_scopes();
        let bad = "fn f() { let m: HashMap<u32, u32> = HashMap::new(); for x in &m { use_(x); } }";
        let findings = lint_source("x.rs", bad, &cfg);
        assert_eq!(findings.iter().filter(|f| f.rule == "D2").count(), 1);

        let sorted = "fn f() { let m: HashMap<u32, u32> = HashMap::new(); \
                      let mut v: Vec<_> = m.into_iter().collect(); sort_canonical(&mut v); }";
        assert!(lint_source("x.rs", sorted, &cfg).is_empty());

        let btree =
            "fn f() { let m: BTreeMap<u32, u32> = BTreeMap::new(); for x in &m { use_(x); } }";
        assert!(lint_source("x.rs", btree, &cfg).is_empty());
    }

    #[test]
    fn d5_flags_float_merge_accumulation() {
        let cfg = Config::all_scopes();
        let src = "struct S { mean: f64, count: u64 }\n\
                   impl S {\n    fn merge(&mut self, o: &S) { self.mean += o.mean; self.count += o.count; }\n}";
        let findings = lint_source("x.rs", src, &cfg);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "D5");
        assert!(findings[0].message.contains("mean"));
    }

    #[test]
    fn two_stage_pass_reports_cross_file_taint_with_chain() {
        let cfg = Config::all_scopes();
        let files = vec![
            (
                "crates/core/src/merge.rs".to_string(),
                "fn merge_partials() { tally(); }".to_string(),
            ),
            (
                "crates/core/src/helpers.rs".to_string(),
                "fn tally() { stamp(); }\nfn stamp() { let _ = SystemTime::now(); }".to_string(),
            ),
        ];
        let findings = lint_sources(&files, &cfg, 1);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "D7");
        assert_eq!(findings[0].chain.len(), 3);
        // Thread count must not change the result.
        assert_eq!(lint_sources(&files, &cfg, 4), findings);
    }

    #[test]
    fn scopes_gate_rules_by_path() {
        let cfg = Config::workspace_default();
        let unchecked = "fn f() { let len = cur.get_varint(); let end = len + 8; }";
        assert!(!lint_source("crates/trace/src/codec.rs", unchecked, &cfg).is_empty());
        assert!(lint_source("crates/core/src/report.rs", unchecked, &cfg).is_empty());
    }
}
