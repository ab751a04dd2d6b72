//! The rule engine: file context construction (function spans, test
//! ranges) and the file-local determinism/safety rules D2, D5, D9 and
//! D10. The cross-file flow rules D7/D8 live in [`crate::taint`] and run
//! over the call graph built by [`crate::graph`]; they share this
//! module's [`Finding`] type (with a populated call [`ChainHop`] trail).
//!
//! Every rule is a token-sequence check — deliberately type-blind, so the
//! pass stays a lexer walk (microseconds per file) rather than a rustc
//! plugin. Where a rule needs type-ish knowledge (which bindings are hash
//! maps, which fields are floats) it recovers it from file-local
//! declaration patterns, and the documented limitation is that
//! cross-file types are invisible. The scopes in [`crate::config`] are
//! chosen so that limitation does not matter in this workspace.

use crate::config::Config;
use crate::lexer::{TokKind, Token};
use crate::parser::HASH_ITER_METHODS;
use std::collections::BTreeSet;

/// One hop in a cross-file call chain attached to a flow finding: the
/// function entered and where (for the root, its definition site; for
/// every later hop, the call site in the previous hop's function).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainHop {
    /// Display-qualified function name (`cdnsim::sim::Machine::run_until`).
    pub func: String,
    /// Workspace-relative path of the hop's location.
    pub path: String,
    /// 1-based line of the hop's location.
    pub line: u32,
}

/// One lint finding, anchored to a file position. Every finding is an
/// error: it fails the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`D2`, `D5`, `D7`–`D10`).
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// For flow rules (D7/D8): the call chain from the root function to
    /// the flagged site. Empty for token-local findings.
    pub chain: Vec<ChainHop>,
}

/// A function body located in the token stream.
#[derive(Clone, Debug)]
struct FnSpan {
    /// The function's name.
    name: String,
    /// Token-index range `[open_brace, close_brace]` of the body.
    body: (usize, usize),
}

/// Everything the rules need about one file.
struct FileCtx<'a> {
    path: &'a str,
    tokens: &'a [Token<'a>],
    fns: Vec<FnSpan>,
    /// Token-index ranges covered by `#[cfg(test)]` / `#[test]` items.
    test_ranges: Vec<(usize, usize)>,
}

/// Lints one file's token stream. `path` must be workspace-relative with
/// forward slashes (it is matched against scopes and allowlists).
pub fn lint_tokens(path: &str, tokens: &[Token<'_>], cfg: &Config) -> Vec<Finding> {
    let ctx = FileCtx::build(path, tokens);
    let mut findings = Vec::new();

    if cfg.applies("D2", path) {
        ctx.rule_d2(&mut findings);
    }
    if cfg.applies("D5", path) {
        ctx.rule_d5(&mut findings);
    }
    if cfg.applies("D9", path) {
        ctx.rule_d9(&mut findings);
    }
    if cfg.applies("D10", path) {
        ctx.rule_d10(&mut findings);
    }
    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    findings
}

impl<'a> FileCtx<'a> {
    fn build(path: &'a str, tokens: &'a [Token<'a>]) -> Self {
        let mut ctx = FileCtx {
            path,
            tokens,
            fns: Vec::new(),
            test_ranges: crate::parser::locate_test_ranges(tokens),
        };
        ctx.locate_fns();
        ctx
    }

    fn is(&self, idx: usize, kind: TokKind, text: &str) -> bool {
        self.tokens
            .get(idx)
            .is_some_and(|t| t.kind == kind && t.text == text)
    }

    fn ident_at(&self, idx: usize) -> Option<&'a str> {
        self.tokens
            .get(idx)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
    }

    /// Finds the token index of the brace matching the `{` at `open`.
    fn matching_brace(&self, open: usize) -> usize {
        let mut depth = 0usize;
        for (i, t) in self.tokens.iter().enumerate().skip(open) {
            if t.kind == TokKind::Punct {
                match t.text {
                    "{" => depth += 1,
                    "}" => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            return i;
                        }
                    }
                    _ => {}
                }
            }
        }
        self.tokens.len().saturating_sub(1)
    }

    fn in_test(&self, idx: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| idx >= a && idx <= b)
    }

    fn locate_fns(&mut self) {
        let mut i = 0;
        while i < self.tokens.len() {
            if self.is(i, TokKind::Ident, "fn") {
                if let Some(name) = self.ident_at(i + 1) {
                    // The body opens at the first `{` outside parens or
                    // brackets after the signature.
                    let mut j = i + 2;
                    let mut pdepth = 0isize;
                    let mut open = None;
                    while j < self.tokens.len() {
                        let t = &self.tokens[j];
                        if t.kind == TokKind::Punct {
                            match t.text {
                                "(" | "[" => pdepth += 1,
                                ")" | "]" => pdepth -= 1,
                                "{" if pdepth == 0 => {
                                    open = Some(j);
                                    break;
                                }
                                ";" if pdepth == 0 => break, // trait decl / extern fn
                                _ => {}
                            }
                        }
                        j += 1;
                    }
                    if let Some(open) = open {
                        let close = self.matching_brace(open);
                        self.fns.push(FnSpan {
                            name: name.to_string(),
                            body: (open, close),
                        });
                    }
                }
            }
            i += 1;
        }
    }

    fn push(&self, out: &mut Vec<Finding>, rule: &'static str, idx: usize, message: String) {
        let t = &self.tokens[idx];
        out.push(Finding {
            rule,
            path: self.path.to_string(),
            line: t.line,
            col: t.col,
            message,
            chain: Vec::new(),
        });
    }

    // ----------------------------------------------------------------- D2

    /// D2: iteration over `HashMap`/`HashSet` in output-order-sensitive
    /// modules. Hash iteration order varies across processes and std
    /// versions; anything feeding a report, codec frame, or merged
    /// partial must iterate a `BTreeMap` or canonicalize with a
    /// `sort_canonical` call in the same function.
    fn rule_d2(&self, out: &mut Vec<Finding>) {
        // File-level: field/binding names declared with a hash type.
        let mut hash_names: BTreeSet<&str> = BTreeSet::new();
        for i in 0..self.tokens.len() {
            let Some(ident) = self.ident_at(i) else {
                continue;
            };
            if ident != "HashMap" && ident != "HashSet" {
                continue;
            }
            // `name : HashMap` (declaration/field) or `name = HashMap`
            // (init), looking left past a `path::` qualifier and any
            // `&`/`&&`/`mut`/lifetime sigils before the type.
            let mut j = i;
            while j >= 3
                && self.is(j - 1, TokKind::Punct, ":")
                && self.is(j - 2, TokKind::Punct, ":")
                && self.ident_at(j - 3).is_some()
            {
                j -= 3;
            }
            while j >= 1
                && (self.is(j - 1, TokKind::Punct, "&")
                    || self.ident_at(j - 1) == Some("mut")
                    || self.tokens[j - 1].kind == TokKind::Lifetime)
            {
                j -= 1;
            }
            if j >= 2
                && (self.is(j - 1, TokKind::Punct, ":") || self.is(j - 1, TokKind::Punct, "="))
            {
                if let Some(name) = self.ident_at(j - 2) {
                    hash_names.insert(name);
                }
            }
        }
        if hash_names.is_empty() {
            return;
        }
        for f in &self.fns {
            if self.in_test(f.body.0) {
                continue;
            }
            let body = f.body.0..=f.body.1;
            // A `sort_canonical` call anywhere in the function certifies
            // that the output order is re-established after iteration.
            if body
                .clone()
                .any(|i| self.ident_at(i) == Some("sort_canonical"))
            {
                continue;
            }
            for i in body {
                let Some(name) = self.ident_at(i) else {
                    continue;
                };
                if !hash_names.contains(name) {
                    continue;
                }
                // `name.iter()` / `name.keys()` / …
                if self.is(i + 1, TokKind::Punct, ".") {
                    if let Some(method) = self.ident_at(i + 2) {
                        if HASH_ITER_METHODS.contains(&method)
                            && self.is(i + 3, TokKind::Punct, "(")
                        {
                            self.push(
                                out,
                                "D2",
                                i,
                                format!(
                                    "iteration over hash-ordered `{name}.{method}()` in an \
                                     output-order-sensitive module; use a `BTreeMap`/`BTreeSet` \
                                     or call `sort_canonical` in this function"
                                ),
                            );
                            continue;
                        }
                    }
                }
                // `for … in [&[mut]] path.to.name {` — the map is the
                // final segment of the iterated path expression.
                if self.is(i + 1, TokKind::Punct, "{") && self.for_in_precedes(i) {
                    self.push(
                        out,
                        "D2",
                        i,
                        format!(
                            "`for … in {name}` iterates hash order in an \
                             output-order-sensitive module; use a `BTreeMap`/`BTreeSet` \
                             or call `sort_canonical` in this function"
                        ),
                    );
                }
            }
        }
    }

    /// Whether token `i` (an identifier) is the tail of the expression in
    /// a `for … in <expr>` header: walking back over `seg.seg.` path
    /// segments and an optional `&`/`&mut` borrow lands on `in`.
    fn for_in_precedes(&self, i: usize) -> bool {
        let mut head = i;
        loop {
            let Some(dot) = self.prev_code_token(head) else {
                return false;
            };
            if !self.is(dot, TokKind::Punct, ".") {
                break;
            }
            let Some(base) = self.prev_code_token(dot) else {
                return false;
            };
            if self.ident_at(base).is_none() {
                return false;
            }
            head = base;
        }
        let mut p = self.prev_code_token(head);
        if p.is_some_and(|pi| self.ident_at(pi) == Some("mut")) {
            p = p.and_then(|pi| self.prev_code_token(pi));
        }
        if p.is_some_and(|pi| self.is(pi, TokKind::Punct, "&")) {
            p = p.and_then(|pi| self.prev_code_token(pi));
        }
        p.is_some_and(|pi| self.ident_at(pi) == Some("in"))
    }

    fn prev_code_token(&self, idx: usize) -> Option<usize> {
        let mut i = idx.checked_sub(1)?;
        loop {
            let t = self.tokens.get(i)?;
            if t.kind != TokKind::DocOuter && t.kind != TokKind::DocInner {
                return Some(i);
            }
            i = i.checked_sub(1)?;
        }
    }

    // ----------------------------------------------------------------- D5

    /// D5: ad-hoc float accumulation in `merge` functions. Mergeable
    /// statistics must flow through the `jcdn-stats` helpers (`Summary`,
    /// `Histogram`, …) whose merges are exact or numerically stable;
    /// `self.mean += other.mean` style code silently breaks
    /// shard-invariance.
    fn rule_d5(&self, out: &mut Vec<Finding>) {
        // Field/binding names declared `: f64` / `: f32` anywhere in file.
        let mut float_names: BTreeSet<&str> = BTreeSet::new();
        for i in 0..self.tokens.len() {
            let Some(ty) = self.ident_at(i) else {
                continue;
            };
            if (ty == "f64" || ty == "f32") && i >= 2 && self.is(i - 1, TokKind::Punct, ":") {
                if let Some(name) = self.ident_at(i - 2) {
                    float_names.insert(name);
                }
            }
        }
        if float_names.is_empty() {
            return;
        }
        for f in &self.fns {
            if !f.name.starts_with("merge") || self.in_test(f.body.0) {
                continue;
            }
            for i in f.body.0..=f.body.1 {
                let Some(name) = self.ident_at(i) else {
                    continue;
                };
                if float_names.contains(name)
                    && self.is(i + 1, TokKind::Punct, "+")
                    && self.is(i + 2, TokKind::Punct, "=")
                {
                    self.push(
                        out,
                        "D5",
                        i,
                        format!(
                            "ad-hoc float accumulation `{name} += …` in `{}`; merge through \
                             the jcdn-stats helpers (Summary/Histogram/Ecdf merge) so \
                             shard merges stay exact",
                            f.name
                        ),
                    );
                }
            }
        }
    }

    // ----------------------------------------------------------------- D9

    /// D9: unchecked arithmetic on lengths derived from untrusted decode
    /// input. A binding initialized from `get_varint`/`get_u16_le`/… holds
    /// an attacker-controlled value; `+`/`*`/`<<` on it can overflow and
    /// wrap into a small (or huge) allocation before any bound check runs.
    /// Use `checked_add`/`checked_mul`/`checked_shl` (or an explicit
    /// `min`/`clamp` first).
    fn rule_d9(&self, out: &mut Vec<Finding>) {
        const GETTERS: [&str; 6] = [
            "get_varint",
            "get_u16_le",
            "get_u32_le",
            "get_u64_le",
            "get_u8",
            "get_uvarint",
        ];
        const SANCTIONERS: [&str; 4] = ["min", "clamp", "to_usize", "usize"];
        // Taint is function-local: a `len` read off the wire in one
        // function must not condemn an unrelated same-named binding in
        // another (the encode path reuses decode's naming).
        for f in &self.fns {
            if self.in_test(f.body.0) {
                continue;
            }
            // Pass 1: names let-bound in this body to an initializer that
            // reads a decode getter anywhere in its statement.
            let mut tainted: BTreeSet<&str> = BTreeSet::new();
            let mut i = f.body.0;
            while i <= f.body.1 {
                if self.ident_at(i) != Some("let") {
                    i += 1;
                    continue;
                }
                let mut k = i + 1;
                if self.ident_at(k) == Some("mut") {
                    k += 1;
                }
                let Some(name) = self.ident_at(k) else {
                    i += 1;
                    continue;
                };
                // Statement extent: to the `;` at paren/brace depth 0.
                let mut depth = 0isize;
                let mut j = k + 1;
                let mut reads_getter = false;
                while j <= f.body.1 {
                    let t = &self.tokens[j];
                    if t.kind == TokKind::Punct {
                        match t.text {
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" | "}" => depth -= 1,
                            ";" if depth <= 0 => break,
                            _ => {}
                        }
                    } else if t.kind == TokKind::Ident && GETTERS.contains(&t.text) {
                        reads_getter = true;
                    }
                    j += 1;
                }
                if reads_getter {
                    tainted.insert(name);
                }
                i = j + 1;
            }
            if tainted.is_empty() {
                continue;
            }
            // Pass 2: infix `+`/`*`/`<<` touching a tainted name, unless
            // the enclosing statement sanctions the value first.
            let mut i = f.body.0;
            while i <= f.body.1 {
                let Some(name) = self.ident_at(i) else {
                    i += 1;
                    continue;
                };
                if !tainted.contains(name) {
                    i += 1;
                    continue;
                }
                let op = self.infix_op_near(i);
                let Some(op) = op else {
                    i += 1;
                    continue;
                };
                if self.statement_sanctions(i, f.body, &SANCTIONERS) {
                    i += 1;
                    continue;
                }
                let hint = match op {
                    "+" => "checked_add",
                    "*" => "checked_mul",
                    _ => "checked_shl",
                };
                self.push(
                    out,
                    "D9",
                    i,
                    format!(
                        "unchecked `{op}` on `{name}`, a length derived from untrusted \
                         decode input ({}); use `{hint}` or clamp the value first",
                        "get_varint/frame header",
                    ),
                );
                i += 1;
            }
        }
    }

    /// The infix arithmetic operator directly adjacent to the identifier
    /// at `i`, if any: `name +`, `name *`, `name <<`, or the mirrored
    /// `+ name` / `* name` / `<< name`.
    fn infix_op_near(&self, i: usize) -> Option<&'static str> {
        let punct = |idx: usize, text: &str| self.is(idx, TokKind::Punct, text);
        // `name << …` / `… << name`
        if punct(i + 1, "<") && punct(i + 2, "<") {
            return Some("<<");
        }
        if i >= 2 && punct(i - 1, "<") && punct(i - 2, "<") {
            return Some("<<");
        }
        // `name + …` (not `+=`? `+=` still accumulates unchecked — keep).
        // Exclude `name *` that is a dereference `*name` handled below.
        if punct(i + 1, "+") {
            return Some("+");
        }
        if punct(i + 1, "*") {
            return Some("*");
        }
        // `… + name`: the token before must be the operator and the one
        // before *that* an expression end (ident/num/`)`/`]`), so a unary
        // `*name` deref or `&name` borrow does not count.
        if i >= 2 {
            let before = &self.tokens[i - 2];
            let expr_end = matches!(before.kind, TokKind::Ident | TokKind::Num)
                || (before.kind == TokKind::Punct && (before.text == ")" || before.text == "]"));
            if expr_end && punct(i - 1, "+") {
                return Some("+");
            }
            if expr_end && punct(i - 1, "*") {
                return Some("*");
            }
        }
        None
    }

    /// Whether the statement containing token `i` sanctions the arithmetic
    /// (calls a `checked_*`/`saturating_*`/`wrapping_*` method or clamps).
    fn statement_sanctions(&self, i: usize, body: (usize, usize), extra: &[&str]) -> bool {
        let mut start = i;
        while start > body.0 {
            let t = &self.tokens[start - 1];
            if t.kind == TokKind::Punct && (t.text == ";" || t.text == "{" || t.text == "}") {
                break;
            }
            start -= 1;
        }
        let mut end = i;
        while end < body.1 {
            let t = &self.tokens[end];
            if t.kind == TokKind::Punct && t.text == ";" {
                break;
            }
            end += 1;
        }
        (start..=end).any(|k| {
            self.ident_at(k).is_some_and(|id| {
                id.starts_with("checked_")
                    || id.starts_with("saturating_")
                    || id.starts_with("wrapping_")
                    || extra.contains(&id)
            })
        })
    }

    // ---------------------------------------------------------------- D10

    /// D10: every `match` over the codec version space must explicitly
    /// cover v1–v4. A wildcard arm does not count as coverage: the whole
    /// point is that introducing v5 must force the compiler/reviewer to
    /// revisit each dispatch, not let the new version silently ride an arm
    /// meant for an older format. Symbolic range patterns over the
    /// `VERSION`/`MIN_VERSION` consts are accepted (they track the space
    /// by construction).
    fn rule_d10(&self, out: &mut Vec<Finding>) {
        const SPACE: std::ops::RangeInclusive<u64> = 1..=4;
        let mut i = 0;
        while i < self.tokens.len() {
            if self.ident_at(i) != Some("match") || self.in_test(i) {
                i += 1;
                continue;
            }
            // Scrutinee: tokens to the `{` at depth 0. It is a *version
            // dispatch* only when a `version`-named identifier appears at
            // depth 0 — `match version` / `match self.version`, but not
            // `match decode(cur, version)`, which matches the call's
            // Result, not the version space.
            let mut j = i + 1;
            let mut depth = 0isize;
            let mut is_version = false;
            let mut scrutinee = String::new();
            while j < self.tokens.len() {
                let t = &self.tokens[j];
                if t.kind == TokKind::Punct {
                    match t.text {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" if depth == 0 => break,
                        _ => {}
                    }
                } else if t.kind == TokKind::Ident
                    && depth == 0
                    && t.text.to_lowercase().contains("version")
                {
                    is_version = true;
                }
                if !scrutinee.is_empty() {
                    scrutinee.push(' ');
                }
                scrutinee.push_str(t.text);
                j += 1;
            }
            if !is_version || j >= self.tokens.len() {
                i = j.max(i + 1);
                continue;
            }
            let open = j;
            let close = self.matching_brace(open);
            let (covered, symbolic) = self.version_arm_coverage(open + 1, close);
            if !symbolic {
                let missing: Vec<String> = SPACE
                    .clone()
                    .filter(|v| !covered.contains(v))
                    .map(|v| format!("v{v}"))
                    .collect();
                if !missing.is_empty() {
                    self.push(
                        out,
                        "D10",
                        i,
                        format!(
                            "`match {scrutinee}` over the codec version space does not \
                             explicitly cover {} — wildcard arms do not count; every \
                             version in v1–v4 needs its own pattern so a future v5 \
                             cannot silently ride an older arm",
                            missing.join(", "),
                        ),
                    );
                }
            }
            i = close + 1;
        }
    }

    /// Walks the arm *patterns* of a match body (token range between the
    /// braces), returning the set of literal versions covered and whether
    /// a symbolic `VERSION`-const pattern was seen. Guard expressions and
    /// arm bodies are skipped.
    fn version_arm_coverage(&self, start: usize, end: usize) -> (BTreeSet<u64>, bool) {
        let mut covered: BTreeSet<u64> = BTreeSet::new();
        let mut symbolic = false;
        let mut i = start;
        while i < end {
            // Pattern: tokens up to `=>` at depth 0.
            let mut pat: Vec<&Token<'_>> = Vec::new();
            let mut depth = 0isize;
            let mut j = i;
            while j < end {
                let t = &self.tokens[j];
                if t.kind == TokKind::Punct {
                    match t.text {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "=" if depth == 0 && self.is(j + 1, TokKind::Punct, ">") => break,
                        _ => {}
                    }
                } else if t.kind == TokKind::Ident && t.text == "if" && depth == 0 {
                    // Guard: the pattern ended; skip the guard expression.
                    while j < end
                        && !(self.is(j, TokKind::Punct, "=") && self.is(j + 1, TokKind::Punct, ">"))
                    {
                        j += 1;
                    }
                    break;
                }
                pat.push(t);
                j += 1;
            }
            // Collect literals and ranges from the pattern tokens.
            let mut k = 0;
            while k < pat.len() {
                let t = pat[k];
                match t.kind {
                    TokKind::Num => {
                        if let Ok(lo) = parse_int(t.text) {
                            // `lo ..= hi` / `lo .. hi`?
                            let dots = k + 1 < pat.len()
                                && pat[k + 1].text == "."
                                && k + 2 < pat.len()
                                && pat[k + 2].text == ".";
                            if dots {
                                let (hi_idx, inclusive) =
                                    if k + 3 < pat.len() && pat[k + 3].text == "=" {
                                        (k + 4, true)
                                    } else {
                                        (k + 3, false)
                                    };
                                if hi_idx < pat.len() && pat[hi_idx].kind == TokKind::Num {
                                    if let Ok(hi) = parse_int(pat[hi_idx].text) {
                                        let hi = if inclusive { hi } else { hi.saturating_sub(1) };
                                        for v in lo..=hi.min(64) {
                                            covered.insert(v);
                                        }
                                    }
                                    k = hi_idx + 1;
                                    continue;
                                }
                            }
                            covered.insert(lo);
                        }
                    }
                    TokKind::Ident if t.text.contains("VERSION") => symbolic = true,
                    _ => {}
                }
                k += 1;
            }
            // Arm body: `{…}` block or expression to `,` at depth 0.
            while j < end
                && !(self.is(j, TokKind::Punct, "=") && self.is(j + 1, TokKind::Punct, ">"))
            {
                j += 1;
            }
            j += 2; // past `=>`
            if j < end && self.is(j, TokKind::Punct, "{") {
                j = self.matching_brace(j) + 1;
                // Optional trailing comma.
                if j < end && self.is(j, TokKind::Punct, ",") {
                    j += 1;
                }
            } else {
                let mut depth = 0isize;
                while j < end {
                    let t = &self.tokens[j];
                    if t.kind == TokKind::Punct {
                        match t.text {
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" | "}" => depth -= 1,
                            "," if depth == 0 => {
                                j += 1;
                                break;
                            }
                            _ => {}
                        }
                    }
                    j += 1;
                }
            }
            i = j.max(i + 1);
        }
        (covered, symbolic)
    }
}

/// Parses a decimal or hex numeric literal, ignoring `_` separators and
/// any trailing type suffix (`3u8` → 3).
fn parse_int(text: &str) -> Result<u64, ()> {
    let clean: String = text.chars().filter(|c| *c != '_').collect();
    let (digits, radix) = if let Some(hex) = clean.strip_prefix("0x") {
        (hex, 16u32)
    } else {
        (clean.as_str(), 10)
    };
    let lead: String = digits.chars().take_while(|c| c.is_digit(radix)).collect();
    if lead.is_empty() {
        return Err(());
    }
    u64::from_str_radix(&lead, radix).map_err(|_| ())
}
