//! Rendering findings as human-readable text or machine-readable JSON,
//! and the `--explain` texts.

use crate::rules::Finding;
use std::fmt::Write as _;

/// Renders findings in `path:line:col: error[rule] message` form, one
/// per line, with a trailing summary.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(
            out,
            "{}:{}:{}: error[{}] {}",
            f.path, f.line, f.col, f.rule, f.message
        );
        // Flow rules carry their evidence: the call chain from the root
        // to the flagged site, one indented hop per line.
        for (i, hop) in f.chain.iter().enumerate() {
            let verb = if i == 0 { "root" } else { "calls" };
            let _ = writeln!(out, "    {verb} {} at {}:{}", hop.func, hop.path, hop.line);
        }
    }
    if findings.is_empty() {
        out.push_str("jcdn-lint: clean\n");
    } else {
        let files: std::collections::BTreeSet<&str> =
            findings.iter().map(|f| f.path.as_str()).collect();
        let _ = writeln!(
            out,
            "jcdn-lint: {} finding(s) in {} file(s)",
            findings.len(),
            files.len()
        );
    }
    out
}

/// Renders findings as a JSON document:
/// `{"findings": [{…}], "count": n}`. Hand-rolled (the linter has no
/// dependencies); strings are escaped per RFC 8259.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"rule\":{},\"severity\":\"error\",\"path\":{},\"line\":{},\"col\":{},\"message\":{}",
            json_str(f.rule),
            json_str(&f.path),
            f.line,
            f.col,
            json_str(&f.message)
        );
        if !f.chain.is_empty() {
            out.push_str(",\"chain\":[");
            for (j, hop) in f.chain.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"func\":{},\"path\":{},\"line\":{}}}",
                    json_str(&hop.func),
                    json_str(&hop.path),
                    hop.line
                );
            }
            out.push(']');
        }
        out.push('}');
    }
    let _ = write!(out, "],\"count\":{}}}", findings.len());
    out.push('\n');
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The long-form explanation for one rule id, or `None` for an unknown id.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "D2" => {
            "D2 — hash-ordered iteration in output-order-sensitive modules\n\
             \n\
             Bans iterating a `HashMap`/`HashSet` (`.iter()`, `.keys()`,\n\
             `.values()`, `.into_iter()`, `.drain()`, `for … in`) in modules\n\
             whose iteration order reaches output: report writers\n\
             (core::characterize, core::report, the CLI commands), codec\n\
             framing (trace::codec), and partial-report merging\n\
             (core::pipeline). Hash order varies per process (SipHash keys) and\n\
             per std version, so one stray iteration silently breaks\n\
             shard-invariance and run-to-run reproducibility.\n\
             \n\
             Fix: use `BTreeMap`/`BTreeSet` (deterministic order, and usually\n\
             what the report wants anyway), or re-establish a total order by\n\
             calling a function named `sort_canonical` in the same function.\n\
             The check is file-local: it sees bindings and fields declared with\n\
             a hash type in the same file."
        }
        "D5" => {
            "D5 — ad-hoc float accumulation in merge functions\n\
             \n\
             Mergeable statistics (the §4 partial reports, SimStats) must\n\
             combine through the jcdn-stats helpers (`Summary::merge`,\n\
             `Histogram::merge`, `Ecdf::merge`, `ExactQuantiles::merge`),\n\
             whose merges are exact on counts and numerically stable on\n\
             moments. A hand-written `self.mean += other.mean` in a `merge*`\n\
             function is wrong for weighted moments and breaks the\n\
             shard-count-invariance property tests. The check flags `+=` on\n\
             fields declared `f32`/`f64` in the same file, inside functions\n\
             whose name starts with `merge`, outside the stats crate.\n\
             \n\
             Fix: store a stats type (`Summary`, `Histogram`, …) instead of a\n\
             raw float and merge through it, or compute the float at\n\
             finalize-time from exactly-merged integer counts."
        }
        "D7" => {
            "D7 — cross-file determinism taint on merge/finalize/encode paths\n\
             \n\
             The flow-aware twin of clippy's clock ban (clippy.toml) and D2.\n\
             Stage 2 builds a workspace call graph (lightweight item parser,\n\
             no full AST) and walks forward from every *determinism root* —\n\
             functions named `merge*` or `finalize*` anywhere, and `encode*`\n\
             inside the trace codec. Any reachable function that observes a\n\
             banned source taints the whole path: wall clock\n\
             (`SystemTime::now`, `Instant::now`), ambient randomness\n\
             (`thread_rng`, `RandomState`), or hash-ordered iteration. The\n\
             finding is anchored at the observation site and prints the full\n\
             call chain from the root as evidence.\n\
             \n\
             Sanctioned sources do not taint: files the D7 allowlist blesses\n\
             (obs::clock, the one wall-clock reader) and hash iteration\n\
             outside the D2 output-order scope.\n\
             \n\
             Resolution is conservative — ambiguous call targets drop the\n\
             edge, so a D7 finding is evidence, not speculation. Fix the\n\
             source (SimTime, seeded streams, BTreeMap)."
        }
        "D8" => {
            "D8 — shared-tier mutation inside the epoch peek phase\n\
             \n\
             The epoch-lockstep contract (DESIGN.md §14): during an epoch,\n\
             machines run `run_until` against an immutable, epoch-frozen\n\
             `&[SharedTier]` slice in parallel; every intended mutation is\n\
             recorded as a `TierAccess` via `TierCtx::record`, and only\n\
             `flush_accesses` applies them — single-threaded, at the epoch\n\
             boundary, in deterministic order. A direct `insert`/`evict`/\n\
             `touch`/`expire` on a shared tier anywhere in the call graph\n\
             below `run_until` would make results depend on thread\n\
             interleaving, silently breaking byte-identical replay.\n\
             \n\
             The rule walks the call graph from every `run_until` in cdnsim\n\
             and flags mutator calls on `SharedTier`-typed receivers, with\n\
             the call chain printed. Edge-local caches (receivers typed\n\
             `Edge`/`Machine`) are exempt — those are thread-private.\n\
             \n\
             Fix: record a `TierAccess` instead of mutating."
        }
        "D9" => {
            "D9 — unchecked arithmetic on untrusted decode lengths\n\
             \n\
             A length read off the wire (`get_varint`, `get_u16_le`,\n\
             `get_u32_le`, `get_u8`) is attacker-controlled until validated.\n\
             `+`/`*`/`<<` on such a binding can overflow and wrap *before*\n\
             any bound check runs, turning a corrupt frame into a tiny (or\n\
             enormous) allocation, an aliased offset, or a panic — instead of\n\
             a typed `DecodeError`. Scope: trace::codec and trace::compat.\n\
             \n\
             The check is statement-local: a binding whose initializer reads\n\
             a getter is tainted; arithmetic on it is flagged unless the same\n\
             statement sanctions the value (`checked_*`, `saturating_*`,\n\
             `min`, `clamp`, or a `to_usize` checked conversion).\n\
             \n\
             Fix: `checked_add`/`checked_mul`/`checked_shl` with a\n\
             `DecodeError` on `None`, or clamp/validate first."
        }
        "D10" => {
            "D10 — codec-version match exhaustiveness\n\
             \n\
             Every `match` whose scrutinee mentions a version binding must\n\
             explicitly cover the full codec version space v1–v4. A wildcard\n\
             arm does NOT count as coverage: the hazard is precisely that a\n\
             future v5 frame silently rides an arm meant for an older format\n\
             (or falls into tolerant-decode salvage) instead of forcing a\n\
             reviewed decision. Symbolic patterns over the `VERSION`/\n\
             `MIN_VERSION` consts are accepted — they track the space by\n\
             construction. When the version space grows to v5, extend both\n\
             the dispatches and this rule's space (crates/lint/src/rules.rs)\n\
             in the same PR.\n\
             \n\
             Fix: list every version (`1 | 2 => …, 3 | 4 => …`) and keep the\n\
             wildcard arm only for the error path."
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f() -> Finding {
        Finding {
            rule: "D2",
            path: "crates/x/src/lib.rs".to_string(),
            line: 3,
            col: 7,
            message: "a \"quoted\" message\twith control".to_string(),
            chain: Vec::new(),
        }
    }

    fn chained() -> Finding {
        use crate::rules::ChainHop;
        let mut f = f();
        f.rule = "D7";
        f.chain = vec![
            ChainHop {
                func: "core::pipeline::merge_partials".to_string(),
                path: "crates/core/src/pipeline.rs".to_string(),
                line: 10,
            },
            ChainHop {
                func: "core::pipeline::tally".to_string(),
                path: "crates/core/src/pipeline.rs".to_string(),
                line: 14,
            },
        ];
        f
    }

    #[test]
    fn text_format() {
        let text = render_text(&[f()]);
        assert!(text.contains("crates/x/src/lib.rs:3:7: error[D2]"));
        assert!(text.contains("1 finding(s) in 1 file(s)"));
        assert!(render_text(&[]).contains("clean"));
    }

    #[test]
    fn json_escapes() {
        let json = render_json(&[f()]);
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\\t"));
        assert!(json.contains("\"severity\":\"error\""));
        assert!(json.contains("\"count\":1"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn chains_render_in_text_and_json() {
        let text = render_text(&[chained()]);
        assert!(text
            .contains("    root core::pipeline::merge_partials at crates/core/src/pipeline.rs:10"));
        assert!(text.contains("    calls core::pipeline::tally at crates/core/src/pipeline.rs:14"));

        let json = render_json(&[chained()]);
        assert!(json.contains("\"chain\":[{\"func\":\"core::pipeline::merge_partials\""));
        assert!(json.contains("\"line\":14"));
        // Token-local findings carry no chain key at all.
        assert!(!render_json(&[f()]).contains("\"chain\""));
    }

    #[test]
    fn explain_covers_all_rules() {
        for rule in crate::config::RULE_IDS {
            assert!(explain(rule).is_some(), "{rule} must have an explanation");
        }
        assert!(explain("D99").is_none());
    }
}
