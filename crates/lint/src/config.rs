//! Rule scoping and the `allowlist.toml` exemption file.
//!
//! Two path mechanisms compose:
//!
//! * **Scopes** (inclusion) — some rules only make sense in specific
//!   modules (D2 in output-order-sensitive code, D9 in the trace codec).
//!   Scopes are part of the linter's contract with this workspace and are
//!   defined here, in code.
//! * **Allowlist** (exclusion) — `allowlist.toml` at the workspace root
//!   exempts whole paths from specific rules (e.g. jcdn-obs's clock module
//!   legitimately reads the wall clock). The file is a tiny TOML
//!   subset parsed by [`parse_allowlist`]; no TOML dependency.

use std::collections::BTreeMap;

/// The rule ids the engine knows, in report order.
pub const RULE_IDS: [&str; 6] = ["D2", "D5", "D7", "D8", "D9", "D10"];

/// Linter configuration: per-rule scopes and allowlists.
#[derive(Clone, Debug)]
pub struct Config {
    /// `rule id → include patterns`. A rule missing from the map applies
    /// to every file.
    pub scopes: BTreeMap<String, Vec<String>>,
    /// `rule id → exempt patterns` (workspace-relative paths or globs).
    pub allow: BTreeMap<String, Vec<String>>,
}

impl Default for Config {
    fn default() -> Self {
        Config::workspace_default()
    }
}

impl Config {
    /// The scopes this workspace's determinism contract prescribes.
    pub fn workspace_default() -> Self {
        let mut scopes = BTreeMap::new();
        // D2: output-order-sensitive modules — anything that writes
        // reports, frames bytes, or merges partials in a fixed order.
        scopes.insert(
            "D2".to_string(),
            vec![
                "crates/core/src/characterize.rs".to_string(),
                "crates/core/src/pipeline.rs".to_string(),
                "crates/core/src/report.rs".to_string(),
                "crates/trace/src/codec.rs".to_string(),
                "crates/cli/src/**".to_string(),
            ],
        );
        // D5: mergeable-statistics carriers outside the stats crate (the
        // stats crate itself *is* the merge-helper implementation).
        scopes.insert(
            "D5".to_string(),
            vec![
                "crates/core/src/**".to_string(),
                "crates/cdnsim/src/**".to_string(),
                "crates/trace/src/**".to_string(),
            ],
        );
        // D7 (cross-file determinism taint): everywhere — hash-order
        // sources are gated on the D2 scope, so no scope is needed here.
        // D8: the epoch-lockstep contract is cdnsim's.
        scopes.insert("D8".to_string(), vec!["crates/cdnsim/src/**".to_string()]);
        // D9: lengths read off the wire exist only in the codec surface.
        scopes.insert(
            "D9".to_string(),
            vec![
                "crates/trace/src/codec.rs".to_string(),
                "crates/trace/src/compat.rs".to_string(),
            ],
        );
        // D10: version dispatches live wherever the trace crate decodes.
        scopes.insert("D10".to_string(), vec!["crates/trace/src/**".to_string()]);

        // Path exemptions live in `allowlist.toml` at the workspace root
        // (loaded by the CLI and merged via [`Config::extend_allow`]); the
        // built-in config ships none, so every exemption is visible in one
        // reviewable file.
        Config {
            scopes,
            allow: BTreeMap::new(),
        }
    }

    /// A config whose rules all apply to every path (used by the fixture
    /// corpus, which lives outside the production module layout).
    pub fn all_scopes() -> Self {
        let mut cfg = Config::workspace_default();
        cfg.scopes.clear();
        cfg.allow.clear();
        cfg
    }

    /// Whether `rule` applies to `path` at all (scope ∧ ¬allowlist).
    pub fn applies(&self, rule: &str, path: &str) -> bool {
        if let Some(patterns) = self.scopes.get(rule) {
            if !patterns.iter().any(|p| path_matches(p, path)) {
                return false;
            }
        }
        if let Some(patterns) = self.allow.get(rule) {
            if patterns.iter().any(|p| path_matches(p, path)) {
                return false;
            }
        }
        true
    }

    /// Merges allowlist entries parsed from `allowlist.toml` into the
    /// config (appending to any built-in entries).
    pub fn extend_allow(&mut self, parsed: BTreeMap<String, Vec<String>>) {
        for (rule, mut paths) in parsed {
            self.allow.entry(rule).or_default().append(&mut paths);
        }
    }
}

/// Matches `path` against `pattern`. Three forms:
///
/// * a pattern ending in `/` is a directory prefix,
/// * a pattern containing `*` is a glob (`*` stops at `/`, `**` crosses),
/// * anything else matches exactly.
pub fn path_matches(pattern: &str, path: &str) -> bool {
    if let Some(prefix) = pattern.strip_suffix('/') {
        return path
            .strip_prefix(prefix)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'));
    }
    if pattern.contains('*') {
        return glob_match(pattern.as_bytes(), path.as_bytes());
    }
    pattern == path
}

fn glob_match(pat: &[u8], path: &[u8]) -> bool {
    match pat {
        [] => path.is_empty(),
        [b'*', b'*', rest @ ..] => {
            // `**` crosses separators; also absorb a following `/` so
            // `a/**` matches `a` itself… not needed here: match greedily.
            let rest = rest.strip_prefix(b"/").unwrap_or(rest);
            (0..=path.len()).any(|i| glob_match(rest, &path[i..]))
        }
        [b'*', rest @ ..] => (0..=path.len())
            .take_while(|&i| i == 0 || path[i - 1] != b'/')
            .any(|i| glob_match(rest, &path[i..])),
        [c, rest @ ..] => path.first() == Some(c) && glob_match(rest, &path[1..]),
    }
}

/// Parses the `allowlist.toml` subset:
///
/// ```toml
/// # comment
/// [rules.D7]
/// allow = [
///     "crates/obs/src/clock.rs",
///     "crates/bench/**",
/// ]
/// ```
///
/// Returns `rule id → patterns`, or a message naming the offending line.
/// Duplicate `[rules.X]` sections and duplicate patterns within a rule
/// are rejected: a repeated key would silently shadow (or pad) the
/// earlier entry, hiding dead exemptions from review.
pub fn parse_allowlist(text: &str) -> Result<BTreeMap<String, Vec<String>>, String> {
    let mut out: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut current: Option<String> = None;
    let mut in_array = false;
    let push = |out: &mut BTreeMap<String, Vec<String>>,
                rule: &str,
                pattern: String,
                lineno: usize|
     -> Result<(), String> {
        let entry = out.entry(rule.to_string()).or_default();
        if entry.contains(&pattern) {
            return Err(format!(
                "line {lineno}: duplicate pattern `{pattern}` for rule {rule} \
                 (remove the repeat — duplicates hide dead exemptions)"
            ));
        }
        entry.push(pattern);
        Ok(())
    };
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = idx + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if in_array {
            for part in line.split(',') {
                let part = part.trim();
                if part == "]" || part.is_empty() {
                    continue;
                }
                let Some(rule) = current.as_ref() else {
                    return Err(format!("line {lineno}: array outside a [rules.*] section"));
                };
                let pattern = part
                    .trim_end_matches(']')
                    .trim()
                    .trim_matches('"')
                    .to_string();
                if !pattern.is_empty() {
                    push(&mut out, rule, pattern, lineno)?;
                }
            }
            if line.contains(']') && !line.contains('[') {
                in_array = false;
            }
            continue;
        }
        if let Some(section) = line
            .strip_prefix("[rules.")
            .and_then(|s| s.strip_suffix(']'))
        {
            if !RULE_IDS.contains(&section) {
                return Err(format!("line {lineno}: unknown rule id `{section}`"));
            }
            if out.contains_key(section) {
                return Err(format!(
                    "line {lineno}: duplicate section `[rules.{section}]` \
                     (merge it into the first one — the repeat would shadow it)"
                ));
            }
            // Reserve the key so a later duplicate section is caught even
            // when this one ends up with no patterns.
            out.entry(section.to_string()).or_default();
            current = Some(section.to_string());
            continue;
        }
        if let Some(value) = line.strip_prefix("allow").map(|s| s.trim_start()) {
            let Some(value) = value.strip_prefix('=') else {
                return Err(format!("line {lineno}: expected `allow = [...]`"));
            };
            let Some(rule) = current.clone() else {
                return Err(format!(
                    "line {lineno}: `allow` outside a [rules.*] section"
                ));
            };
            let value = value.trim();
            if let Some(inner) = value.strip_prefix('[') {
                if let Some(inner) = inner.strip_suffix(']') {
                    // Single-line array.
                    for part in inner.split(',') {
                        let pattern = part.trim().trim_matches('"').to_string();
                        if !pattern.is_empty() {
                            push(&mut out, &rule, pattern, lineno)?;
                        }
                    }
                } else {
                    current = Some(rule);
                    in_array = true;
                }
                continue;
            }
            return Err(format!("line {lineno}: `allow` must be an array"));
        }
        return Err(format!("line {lineno}: unrecognized directive `{line}`"));
    }
    out.retain(|_, v| !v.is_empty());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glob_and_prefix_matching() {
        assert!(path_matches(
            "crates/trace/src/**",
            "crates/trace/src/codec.rs"
        ));
        assert!(path_matches(
            "crates/trace/src/**",
            "crates/trace/src/sub/deep.rs"
        ));
        assert!(!path_matches(
            "crates/trace/src/**",
            "crates/core/src/lib.rs"
        ));
        assert!(path_matches(
            "crates/cli/src/*.rs",
            "crates/cli/src/main.rs"
        ));
        assert!(!path_matches(
            "crates/cli/src/*.rs",
            "crates/cli/src/commands/mod.rs"
        ));
        assert!(path_matches("crates/bench/", "crates/bench/src/lib.rs"));
        assert!(path_matches("a/b.rs", "a/b.rs"));
        assert!(!path_matches("a/b.rs", "a/b.rs.bak"));
    }

    #[test]
    fn allowlist_parses_multiline_and_inline() {
        let parsed = parse_allowlist(
            "# comment\n[rules.D7]\nallow = [\n  \"crates/x/**\",\n  \"crates/y/a.rs\",\n]\n\n[rules.D9]\nallow = [\"z.rs\"]\n",
        )
        .expect("parses");
        assert_eq!(parsed["D7"], vec!["crates/x/**", "crates/y/a.rs"]);
        assert_eq!(parsed["D9"], vec!["z.rs"]);
    }

    #[test]
    fn allowlist_rejects_unknown_rule() {
        assert!(parse_allowlist("[rules.D99]\nallow = [\"x\"]\n").is_err());
        // Rules now checked by clippy are unknown here.
        assert!(parse_allowlist("[rules.D1]\nallow = [\"x\"]\n").is_err());
        assert!(parse_allowlist("[rules.D9]\nallow = [\"x\"]\n").is_ok());
    }

    #[test]
    fn allowlist_rejects_duplicate_sections_and_patterns() {
        let err =
            parse_allowlist("[rules.D7]\nallow = [\"a.rs\"]\n[rules.D7]\nallow = [\"b.rs\"]\n")
                .expect_err("duplicate section must error");
        assert!(err.contains("line 3"), "{err}");
        assert!(err.contains("duplicate section"), "{err}");

        let err = parse_allowlist("[rules.D7]\nallow = [\n  \"a.rs\",\n  \"a.rs\",\n]\n")
            .expect_err("duplicate pattern must error");
        assert!(err.contains("line 4"), "{err}");
        assert!(err.contains("duplicate pattern"), "{err}");

        // The same pattern under two *different* rules is fine.
        assert!(parse_allowlist(
            "[rules.D7]\nallow = [\"a.rs\"]\n[rules.D9]\nallow = [\"a.rs\"]\n"
        )
        .is_ok());
    }

    #[test]
    fn scope_gating() {
        let cfg = Config::workspace_default();
        assert!(cfg.applies("D9", "crates/trace/src/codec.rs"));
        assert!(!cfg.applies("D9", "crates/core/src/report.rs"));
        assert!(cfg.applies("D8", "crates/cdnsim/src/sim.rs"));
        assert!(!cfg.applies("D8", "crates/core/src/pipeline.rs"));
        assert!(cfg.applies("D7", "crates/core/src/report.rs"));
        assert!(cfg.applies("D7", "crates/obs/src/clock.rs"));

        let mut allow = BTreeMap::new();
        allow.insert(
            "D7".to_string(),
            vec!["crates/obs/src/clock.rs".to_string()],
        );
        let mut cfg = cfg;
        cfg.extend_allow(allow);
        assert!(!cfg.applies("D7", "crates/obs/src/clock.rs"));
        assert!(cfg.applies("D7", "crates/core/src/report.rs"));
    }
}
