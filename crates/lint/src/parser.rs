//! The second-stage item parser: a lightweight structural pass over the
//! token stream that recovers *items* — functions (with their `impl` type
//! and module path), `mod` nesting, and `use` declarations — plus the
//! per-function facts the cross-file rules need: call sites, local type
//! bindings, and determinism-source observations.
//!
//! This is deliberately not an AST. The flow-aware rules (D7/D8) only
//! need "who calls whom" with enough receiver typing to disambiguate, so
//! the parser extracts owned summaries ([`ParsedFile`]) that survive
//! after the source text is dropped — which is what lets the workspace
//! pass parse files in parallel on the jcdn-exec pool and hand one owned
//! index to the graph builder.
//!
//! Documented limitations (shared with the token rules): type recovery is
//! file-local (`let x: T`, parameter annotations, `Type::new()`
//! initializers, and `for`-loop inheritance from a typed iterable);
//! a method call whose receiver type cannot be recovered resolves only if
//! the method name is unambiguous workspace-wide (see [`crate::graph`]).

use crate::lexer::{TokKind, Token};
use std::collections::{BTreeMap, BTreeSet};

/// How a call site names its callee.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `f(...)` — a bare function call.
    Bare,
    /// `recv.f(...)` — a method call; `recv` is the receiver chain
    /// root-first (`tiers[0].cache.insert` → `["tiers", "cache"]`), empty
    /// when the receiver is a complex expression (call result, literal).
    Method {
        /// Receiver chain segments, root first; empty when unrecoverable.
        recv: Vec<String>,
    },
    /// `A::b::f(...)` — a path-qualified call; the qualifier segments
    /// (`["A", "b"]`) precede the callee name.
    Path {
        /// Qualifier segments in source order.
        qualifier: Vec<String>,
    },
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// How the callee is named.
    pub kind: CallKind,
    /// The callee's simple name (last path segment / method name).
    pub name: String,
    /// 1-based line of the callee token.
    pub line: u32,
    /// 1-based column of the callee token.
    pub col: u32,
}

/// A determinism-source observation inside a function body: a wall-clock
/// or ambient-randomness call, or hash-ordered iteration. These are the
/// taint sources D7 propagates backwards from `merge*`/`finalize*`/codec
/// `encode*` roots.
#[derive(Clone, Debug)]
pub struct SourceFact {
    /// Human-readable description (`` `SystemTime::now()` `` …).
    pub what: String,
    /// True for hash-iteration facts (gated on the D2 scope; clock and
    /// randomness facts are gated on the D7 allowlist alone).
    pub hash_order: bool,
    /// 1-based line of the source expression.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// One function item with everything the graph builder needs.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The simple name (`merge`, `run_until`).
    pub name: String,
    /// Display-qualified name (`cdnsim::sim::Machine::run_until`).
    pub qual: String,
    /// The `impl` type the function is defined on, if any.
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Whether the item sits under `#[cfg(test)]` / `#[test]`.
    pub is_test: bool,
    /// Call sites in source order.
    pub calls: Vec<CallSite>,
    /// Determinism sources observed in the body.
    pub sources: Vec<SourceFact>,
    /// File-local type recovery: binding/parameter name → type text
    /// (tokens joined with spaces, e.g. `& [ SharedTier ]`).
    pub bindings: BTreeMap<String, String>,
}

/// The owned per-file summary stage 2 consumes.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Module path derived from the file location (`["cdnsim", "sim"]`).
    pub module: Vec<String>,
    /// All function items in source order.
    pub fns: Vec<FnItem>,
    /// `use` aliases: simple name → full path segments.
    pub uses: BTreeMap<String, Vec<String>>,
}

/// Identifier tokens that look like calls but are control flow.
const NON_CALL_KEYWORDS: [&str; 14] = [
    "if", "else", "while", "for", "loop", "match", "return", "fn", "move", "in", "let", "where",
    "impl", "dyn",
];

/// Methods that iterate a hash container in its (per-process) order.
pub(crate) const HASH_ITER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
];

/// Parses one lexed file into its owned item summary.
pub fn parse_file(path: &str, tokens: &[Token<'_>]) -> ParsedFile {
    let p = Parser {
        tokens,
        test_ranges: locate_test_ranges(tokens),
        hash_names: collect_declared(tokens, &["HashMap", "HashSet"]),
        tier_names: collect_declared(tokens, &["SharedTier"]),
        out: ParsedFile {
            path: path.to_string(),
            module: module_path(path),
            fns: Vec::new(),
            uses: BTreeMap::new(),
        },
    };
    p.run()
}

/// Derives the display module path from a workspace-relative file path:
/// `crates/cdnsim/src/sim.rs` → `["cdnsim", "sim"]`, `src/lib.rs` →
/// `["jcdn"]`, anything else → the file stem.
pub fn module_path(path: &str) -> Vec<String> {
    let stem = path
        .rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".rs");
    if let Some(rest) = path.strip_prefix("crates/") {
        let krate = rest.split('/').next().unwrap_or("").to_string();
        if stem == "lib" || stem == "mod" || stem == "main" {
            return vec![krate];
        }
        return vec![krate, stem.to_string()];
    }
    if path.starts_with("src/") {
        if stem == "lib" || stem == "main" {
            return vec!["jcdn".to_string()];
        }
        return vec!["jcdn".to_string(), stem.to_string()];
    }
    vec![stem.to_string()]
}

struct Parser<'a> {
    tokens: &'a [Token<'a>],
    test_ranges: Vec<(usize, usize)>,
    /// File-level names declared with a hash-ordered type.
    hash_names: BTreeSet<String>,
    /// File-level names declared with a shared-tier type.
    tier_names: BTreeSet<String>,
    out: ParsedFile,
}

impl<'a> Parser<'a> {
    fn run(mut self) -> ParsedFile {
        let end = self.tokens.len();
        let mods: Vec<String> = self.out.module.clone();
        self.parse_items(0, end, &mods, None);
        self.out
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

    fn in_test(&self, idx: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| idx >= a && idx <= b)
    }

    /// Token index of the `}` matching the `{` at `open`, clamped to
    /// `limit`.
    fn matching_brace(&self, open: usize, limit: usize) -> usize {
        let mut depth = 0usize;
        for i in open..limit.min(self.tokens.len()) {
            if self.tokens[i].kind == TokKind::Punct {
                match self.tokens[i].text {
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
        limit.min(self.tokens.len()).saturating_sub(1)
    }

    /// Walks one item region, recursing into `mod`/`impl` blocks.
    fn parse_items(&mut self, mut i: usize, end: usize, mods: &[String], impl_ty: Option<&str>) {
        while i < end {
            match self.ident_at(i) {
                Some("mod") => {
                    // `mod name { … }` — `mod name;` declarations have no body.
                    if let Some(name) = self.ident_at(i + 1) {
                        if self.is(i + 2, TokKind::Punct, "{") {
                            let close = self.matching_brace(i + 2, end);
                            let mut inner = mods.to_vec();
                            inner.push(name.to_string());
                            self.parse_items(i + 3, close, &inner, impl_ty);
                            i = close + 1;
                            continue;
                        }
                    }
                    i += 1;
                }
                Some("impl") => {
                    // Find the body `{` at angle/paren depth 0, extracting
                    // the implemented type (`impl<T> Trait for Type` →
                    // `Type`; `impl Type<'a>` → `Type`).
                    let mut j = i + 1;
                    let mut angle = 0isize;
                    let mut ty: Option<&str> = None;
                    let mut after_for: Option<&str> = None;
                    let mut saw_for = false;
                    while j < end {
                        let t = &self.tokens[j];
                        match t.kind {
                            TokKind::Punct => match t.text {
                                "<" => angle += 1,
                                ">" => angle -= 1,
                                "{" if angle <= 0 => break,
                                ";" if angle <= 0 => break,
                                _ => {}
                            },
                            TokKind::Ident if angle <= 0 => {
                                if t.text == "for" {
                                    saw_for = true;
                                } else if saw_for {
                                    if after_for.is_none() {
                                        after_for = Some(t.text);
                                    }
                                } else if ty.is_none() {
                                    ty = Some(t.text);
                                } else {
                                    // later path segment: `impl a::B` — keep
                                    // the last segment as the type name.
                                    if self.is(j - 1, TokKind::Punct, ":") {
                                        ty = Some(t.text);
                                    }
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    if j < end && self.is(j, TokKind::Punct, "{") {
                        let close = self.matching_brace(j, end);
                        let resolved = after_for.or(ty).map(str::to_string);
                        self.parse_items(i + 1, j, mods, impl_ty); // generics region: no items, cheap
                        self.parse_items(j + 1, close, mods, resolved.as_deref());
                        i = close + 1;
                    } else {
                        i = j + 1;
                    }
                }
                Some("use") => {
                    i = self.parse_use(i + 1, end);
                }
                Some("fn") => {
                    i = self.parse_fn(i, end, mods, impl_ty);
                }
                _ => i += 1,
            }
        }
    }

    /// Records `use a::b::C;`, `use a::b::{C, d};`, and `use x as y;`
    /// aliases into the simple-name → path map. Returns the index after
    /// the terminating `;`.
    fn parse_use(&mut self, mut i: usize, end: usize) -> usize {
        let mut prefix: Vec<String> = Vec::new();
        let mut current: Option<String> = None;
        let mut group_depth = 0usize;
        while i < end {
            let t = &self.tokens[i];
            match t.kind {
                TokKind::Ident => {
                    if t.text == "as" {
                        // alias: `use path as name;` — record under the alias.
                        if let (Some(orig), Some(alias)) = (current.take(), self.ident_at(i + 1)) {
                            let mut full = prefix.clone();
                            full.push(orig);
                            self.out.uses.insert(alias.to_string(), full);
                            i += 1;
                        }
                    } else {
                        current = Some(t.text.to_string());
                    }
                }
                TokKind::Punct => match t.text {
                    ":" if self.is(i + 1, TokKind::Punct, ":") => {
                        if let Some(seg) = current.take() {
                            prefix.push(seg);
                        }
                        i += 1;
                    }
                    "{" => group_depth += 1,
                    "}" | "," => {
                        if let Some(name) = current.take() {
                            let mut full = prefix.clone();
                            full.push(name.clone());
                            self.out.uses.insert(name, full);
                        }
                        if t.text == "}" {
                            group_depth = group_depth.saturating_sub(1);
                            // Group prefixes are not popped per-item; nested
                            // groups are rare enough to over-approximate.
                        }
                    }
                    ";" => {
                        if let Some(name) = current.take() {
                            let mut full = prefix;
                            full.push(name.clone());
                            self.out.uses.insert(name, full);
                        }
                        return i + 1;
                    }
                    _ => {}
                },
                _ => {}
            }
            i += 1;
        }
        let _ = group_depth;
        i
    }

    /// Parses one `fn` item starting at the `fn` keyword; returns the
    /// index to resume scanning from (after the body, or after the
    /// signature for bodyless trait/extern declarations).
    fn parse_fn(&mut self, i: usize, end: usize, mods: &[String], impl_ty: Option<&str>) -> usize {
        let Some(name) = self.ident_at(i + 1) else {
            return i + 1;
        };
        let t = &self.tokens[i];
        let mut item = FnItem {
            name: name.to_string(),
            qual: qualify(mods, impl_ty, name),
            impl_type: impl_ty.map(str::to_string),
            line: t.line,
            col: t.col,
            is_test: self.in_test(i),
            calls: Vec::new(),
            sources: Vec::new(),
            bindings: BTreeMap::new(),
        };
        // Signature: find the parameter `(`…`)` then the body `{` at
        // paren/bracket depth 0 (a `;` first means no body).
        let mut j = i + 2;
        let mut pdepth = 0isize;
        let mut params: Option<(usize, usize)> = None;
        let mut param_open = None;
        let mut open = None;
        while j < end {
            let t = &self.tokens[j];
            if t.kind == TokKind::Punct {
                match t.text {
                    "(" => {
                        if pdepth == 0 && param_open.is_none() {
                            param_open = Some(j);
                        }
                        pdepth += 1;
                    }
                    ")" => {
                        pdepth -= 1;
                        if pdepth == 0 {
                            if let (Some(po), None) = (param_open, params) {
                                params = Some((po, j));
                            }
                        }
                    }
                    "[" => pdepth += 1,
                    "]" => pdepth -= 1,
                    "{" if pdepth == 0 => {
                        open = Some(j);
                        break;
                    }
                    ";" if pdepth == 0 => break,
                    _ => {}
                }
            }
            j += 1;
        }
        if let Some((po, pc)) = params {
            self.collect_params(po + 1, pc, impl_ty, &mut item.bindings);
        }
        let Some(open) = open else {
            return j + 1;
        };
        let close = self.matching_brace(open, end);
        self.scan_body(open + 1, close, &mut item);
        self.out.fns.push(item);
        close + 1
    }

    /// Records `name: Type` parameter pairs at paren depth 0 within the
    /// parameter list, plus `self` → the impl type.
    fn collect_params(
        &self,
        start: usize,
        end: usize,
        impl_ty: Option<&str>,
        bindings: &mut BTreeMap<String, String>,
    ) {
        let mut i = start;
        let mut depth = 0isize;
        while i < end {
            let t = &self.tokens[i];
            if t.kind == TokKind::Punct {
                match t.text {
                    "(" | "[" | "<" => depth += 1,
                    ")" | "]" | ">" => depth -= 1,
                    _ => {}
                }
            } else if t.kind == TokKind::Ident && depth == 0 {
                if t.text == "self" {
                    if let Some(ty) = impl_ty {
                        bindings.insert("self".to_string(), ty.to_string());
                    }
                } else if self.is(i + 1, TokKind::Punct, ":")
                    && !self.is(i + 2, TokKind::Punct, ":")
                {
                    let ty = self.type_text(i + 2, end);
                    bindings.insert(t.text.to_string(), ty);
                    // Skip ahead past the type to the next `,` at depth 0.
                    let mut k = i + 2;
                    let mut d = 0isize;
                    while k < end {
                        let u = &self.tokens[k];
                        if u.kind == TokKind::Punct {
                            match u.text {
                                "(" | "[" | "<" => d += 1,
                                ")" | "]" | ">" => d -= 1,
                                "," if d == 0 => break,
                                _ => {}
                            }
                        }
                        k += 1;
                    }
                    i = k;
                }
            }
            i += 1;
        }
    }

    /// The type text starting at `i` up to a depth-0 `,`/`;`/`=`/`)` or
    /// `limit`, tokens joined with spaces.
    fn type_text(&self, i: usize, limit: usize) -> String {
        let mut parts: Vec<&str> = Vec::new();
        let mut depth = 0isize;
        let mut k = i;
        while k < limit.min(self.tokens.len()) {
            let t = &self.tokens[k];
            if t.kind == TokKind::Punct {
                match t.text {
                    "(" | "[" | "<" => depth += 1,
                    ")" | "]" | ">" => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    "," | ";" | "=" | "{" if depth == 0 => break,
                    _ => {}
                }
            }
            parts.push(t.text);
            k += 1;
        }
        parts.join(" ")
    }

    /// Walks a function body collecting `let` bindings, `for`-loop
    /// inherited types, call sites, and determinism-source facts.
    fn scan_body(&mut self, start: usize, end: usize, item: &mut FnItem) {
        let mut i = start;
        while i < end {
            let Some(ident) = self.ident_at(i) else {
                i += 1;
                continue;
            };
            match ident {
                "let" => {
                    let mut k = i + 1;
                    if self.ident_at(k) == Some("mut") {
                        k += 1;
                    }
                    if let Some(name) = self.ident_at(k) {
                        if self.is(k + 1, TokKind::Punct, ":")
                            && !self.is(k + 2, TokKind::Punct, ":")
                        {
                            let ty = self.type_text(k + 2, end);
                            item.bindings.insert(name.to_string(), ty);
                        } else if self.is(k + 1, TokKind::Punct, "=") {
                            // `let x = Type::new(…)` / `let x = Type { … }`
                            if let Some(init) = self.ident_at(k + 2) {
                                if init.starts_with(char::is_uppercase)
                                    && (self.is(k + 3, TokKind::Punct, ":")
                                        || self.is(k + 3, TokKind::Punct, "{"))
                                {
                                    item.bindings.insert(name.to_string(), init.to_string());
                                }
                            }
                        }
                    }
                    i += 1;
                }
                "for" => {
                    // `for name in expr {` — inherit element typing from
                    // the iterated binding, and note hash-order iteration.
                    if let Some(var) = self.ident_at(i + 1) {
                        let mut k = i + 2;
                        while k < end && self.ident_at(k) != Some("in") {
                            if self.is(k, TokKind::Punct, "{") {
                                break;
                            }
                            k += 1;
                        }
                        if self.ident_at(k) == Some("in") {
                            let mut e = k + 1;
                            while e < end
                                && (self.is(e, TokKind::Punct, "&")
                                    || self.ident_at(e) == Some("mut"))
                            {
                                e += 1;
                            }
                            if let Some(base) = self.ident_at(e) {
                                let base_ty = item.bindings.get(base).cloned();
                                if base_ty.as_deref().is_some_and(|t| t.contains("SharedTier"))
                                    || self.tier_names.contains(base)
                                {
                                    item.bindings
                                        .insert(var.to_string(), "SharedTier".to_string());
                                }
                                if self.is_hash_named(item, base) && self.iterates_directly(e, end)
                                {
                                    let t = &self.tokens[e];
                                    item.sources.push(SourceFact {
                                        what: format!("`for … in {base}` iterates hash order"),
                                        hash_order: true,
                                        line: t.line,
                                        col: t.col,
                                    });
                                }
                            }
                        }
                    }
                    i += 1;
                }
                "RandomState" => {
                    let t = &self.tokens[i];
                    item.sources.push(SourceFact {
                        what: "`RandomState` (per-process hash seeding)".to_string(),
                        hash_order: false,
                        line: t.line,
                        col: t.col,
                    });
                    i += 1;
                }
                _ if NON_CALL_KEYWORDS.contains(&ident) => i += 1,
                _ => {
                    // Macro invocation `name!(…)`: not a call edge.
                    if self.is(i + 1, TokKind::Punct, "!") {
                        i += 2;
                        continue;
                    }
                    if self.is(i + 1, TokKind::Punct, "(") {
                        self.record_call(i, ident, item);
                    }
                    i += 1;
                }
            }
        }
    }

    /// Whether `base` (the iterated expression root at `e`) is iterated
    /// directly (`for x in &base {`) rather than via an adaptor that
    /// re-orders (`base.keys().sorted()` — adaptors are handled by the
    /// method-call fact instead).
    fn iterates_directly(&self, e: usize, end: usize) -> bool {
        let mut k = e + 1;
        while k < end {
            let t = &self.tokens[k];
            if t.kind == TokKind::Punct && t.text == "{" {
                return true;
            }
            if t.kind == TokKind::Punct && (t.text == "." || t.text == "(") {
                return false;
            }
            k += 1;
        }
        false
    }

    fn is_hash_named(&self, item: &FnItem, name: &str) -> bool {
        self.hash_names.contains(name)
            || item
                .bindings
                .get(name)
                .is_some_and(|t| t.contains("HashMap") || t.contains("HashSet"))
    }

    /// Classifies and records the call whose callee ident sits at `i`.
    fn record_call(&mut self, i: usize, name: &str, item: &mut FnItem) {
        let t = &self.tokens[i];
        let (line, col) = (t.line, t.col);
        // Path call: `A::b(` — walk back over `seg ::` pairs.
        if i >= 2 && self.is(i - 1, TokKind::Punct, ":") && self.is(i - 2, TokKind::Punct, ":") {
            let mut segs: Vec<String> = Vec::new();
            let mut k = i - 2;
            while let Some(pi) = k.checked_sub(1) {
                let Some(seg) = self.ident_at(pi) else { break };
                segs.push(seg.to_string());
                if pi >= 2
                    && self.is(pi - 1, TokKind::Punct, ":")
                    && self.is(pi - 2, TokKind::Punct, ":")
                {
                    k = pi - 2;
                } else {
                    break;
                }
            }
            segs.reverse();
            // Wall-clock facts are path calls to types outside the
            // workspace; classify here so the graph need not know std.
            if name == "now"
                && segs
                    .last()
                    .is_some_and(|s| s == "SystemTime" || s == "Instant")
            {
                item.sources.push(SourceFact {
                    what: format!(
                        "`{}::now()` reads the wall clock",
                        segs.last().unwrap_or(&String::new())
                    ),
                    hash_order: false,
                    line,
                    col,
                });
            }
            item.calls.push(CallSite {
                kind: CallKind::Path { qualifier: segs },
                name: name.to_string(),
                line,
                col,
            });
            return;
        }
        // Method call: `recv.name(` — walk back the receiver chain.
        if i >= 1 && self.is(i - 1, TokKind::Punct, ".") {
            let recv = self.receiver_chain(i - 1);
            if HASH_ITER_METHODS.contains(&name) {
                if let Some(root) = recv.last() {
                    if self.is_hash_named(item, root) {
                        item.sources.push(SourceFact {
                            what: format!("`{root}.{name}()` iterates hash order"),
                            hash_order: true,
                            line,
                            col,
                        });
                    }
                }
            }
            let mut chain = recv;
            chain.reverse(); // stored root-first
            item.calls.push(CallSite {
                kind: CallKind::Method { recv: chain },
                name: name.to_string(),
                line,
                col,
            });
            return;
        }
        if name == "thread_rng" {
            item.sources.push(SourceFact {
                what: "`thread_rng()` is ambient randomness".to_string(),
                hash_order: false,
                line,
                col,
            });
        }
        item.calls.push(CallSite {
            kind: CallKind::Bare,
            name: name.to_string(),
            line,
            col,
        });
    }

    /// Receiver chain segments walking back from the `.` at `dot`,
    /// nearest-segment-first (`tiers[0].cache.` → `["cache", "tiers"]`).
    /// Stops (returning what it has) at a complex sub-expression.
    fn receiver_chain(&self, dot: usize) -> Vec<String> {
        let mut segs = Vec::new();
        let mut k = dot;
        while let Some(mut before) = k.checked_sub(1) {
            // Skip a `[…]` index back to its opener.
            if self.is(before, TokKind::Punct, "]") {
                let mut depth = 1usize;
                loop {
                    let Some(p) = before.checked_sub(1) else {
                        return segs;
                    };
                    before = p;
                    if self.is(before, TokKind::Punct, "]") {
                        depth += 1;
                    } else if self.is(before, TokKind::Punct, "[") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                }
                let Some(p) = before.checked_sub(1) else {
                    return segs;
                };
                before = p;
            }
            let Some(seg) = self.ident_at(before) else {
                // `(expr).m()` / `f().m()` — receiver unrecoverable.
                return segs;
            };
            segs.push(seg.to_string());
            match before.checked_sub(1) {
                Some(p) if self.is(p, TokKind::Punct, ".") => k = p,
                _ => break,
            }
        }
        segs
    }
}

/// `mods::Impl::name` display form.
fn qualify(mods: &[String], impl_ty: Option<&str>, name: &str) -> String {
    let mut parts: Vec<&str> = mods.iter().map(String::as_str).collect();
    if let Some(ty) = impl_ty {
        parts.push(ty);
    }
    parts.push(name);
    parts.join("::")
}

/// Token-index ranges covered by `#[cfg(test)]` / `#[test]` items, so
/// the parser and the token rules skip the same test-only code.
pub(crate) fn locate_test_ranges(tokens: &[Token<'_>]) -> Vec<(usize, usize)> {
    let is = |idx: usize, text: &str| {
        tokens
            .get(idx)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == text)
    };
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if is(i, "#") && is(i + 1, "[") {
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut is_test_attr = false;
            let mut first = true;
            while j < tokens.len() && depth > 0 {
                let t = &tokens[j];
                if t.kind == TokKind::Punct {
                    match t.text {
                        "[" => depth += 1,
                        "]" => depth -= 1,
                        _ => {}
                    }
                } else if t.kind == TokKind::Ident {
                    if first && t.text == "test" {
                        is_test_attr = true;
                    }
                    if (t.text == "cfg" || t.text == "cfg_attr")
                        && tokens[j..]
                            .iter()
                            .take_while(|u| !(u.kind == TokKind::Punct && u.text == "]"))
                            .any(|u| u.kind == TokKind::Ident && u.text == "test")
                    {
                        is_test_attr = true;
                    }
                    first = false;
                }
                j += 1;
            }
            if is_test_attr {
                let mut k = j;
                while k < tokens.len() && !is(k, "{") {
                    k += 1;
                }
                let mut depth = 0usize;
                let mut close = tokens.len().saturating_sub(1);
                for (idx, t) in tokens.iter().enumerate().skip(k) {
                    if t.kind == TokKind::Punct {
                        match t.text {
                            "{" => depth += 1,
                            "}" => {
                                depth = depth.saturating_sub(1);
                                if depth == 0 {
                                    close = idx;
                                    break;
                                }
                            }
                            _ => {}
                        }
                    }
                }
                ranges.push((i, close));
                i = close + 1;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    ranges
}

/// File-level names declared with any of `types` (struct fields, lets,
/// parameters): walks left from each type mention over `&`/`mut`/
/// lifetimes/path qualifiers to the `name :`/`name =` declaration —
/// the same recovery the D2 token rule uses.
fn collect_declared(tokens: &[Token<'_>], types: &[&str]) -> BTreeSet<String> {
    let is = |idx: usize, text: &str| {
        tokens
            .get(idx)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == text)
    };
    let ident = |idx: usize| {
        tokens
            .get(idx)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
    };
    let mut out = BTreeSet::new();
    for i in 0..tokens.len() {
        let Some(name) = ident(i) else { continue };
        if !types.contains(&name) {
            continue;
        }
        let mut j = i;
        while j >= 3 && is(j - 1, ":") && is(j - 2, ":") && ident(j - 3).is_some() {
            j -= 3;
        }
        while j >= 1
            && (is(j - 1, "&")
                || is(j - 1, "[")
                || ident(j - 1) == Some("mut")
                || tokens[j - 1].kind == TokKind::Lifetime)
        {
            j -= 1;
        }
        if j >= 2 && (is(j - 1, ":") || is(j - 1, "=")) {
            if let Some(n) = ident(j - 2) {
                out.insert(n.to_string());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> ParsedFile {
        parse_file("crates/x/src/y.rs", &lex(src))
    }

    #[test]
    fn fns_get_impl_and_mod_qualification() {
        let p = parse(
            "mod inner {\n  impl Machine {\n    fn run_until(&self) {}\n  }\n  fn free() {}\n}\nfn top() {}",
        );
        let quals: Vec<&str> = p.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(
            quals,
            vec![
                "x::y::inner::Machine::run_until",
                "x::y::inner::free",
                "x::y::top"
            ]
        );
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("Machine"));
    }

    #[test]
    fn impl_trait_for_type_resolves_to_type() {
        let p = parse("impl fmt::Display for DecodeError {\n  fn fmt(&self) {}\n}");
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("DecodeError"));
        assert_eq!(
            p.fns[0].bindings.get("self").map(String::as_str),
            Some("DecodeError")
        );
    }

    #[test]
    fn calls_classified_bare_method_path() {
        let p = parse(
            "fn f(tiers: &[SharedTier]) { helper(); tiers[0].cache.insert(1); SystemTime::now(); }",
        );
        let f = &p.fns[0];
        let kinds: Vec<(&str, &CallKind)> =
            f.calls.iter().map(|c| (c.name.as_str(), &c.kind)).collect();
        assert_eq!(kinds[0].0, "helper");
        assert_eq!(kinds[0].1, &CallKind::Bare);
        assert_eq!(kinds[1].0, "insert");
        assert_eq!(
            kinds[1].1,
            &CallKind::Method {
                recv: vec!["tiers".to_string(), "cache".to_string()]
            }
        );
        assert_eq!(kinds[2].0, "now");
        assert_eq!(f.sources.len(), 1, "{:?}", f.sources);
        assert!(f.sources[0].what.contains("SystemTime"));
        assert!(f.bindings["tiers"].contains("SharedTier"));
    }

    #[test]
    fn for_loop_inherits_shared_tier_typing() {
        let p = parse("fn f(tiers: &[SharedTier]) { for tier in tiers { tier.cache.touch(1); } }");
        let f = &p.fns[0];
        assert_eq!(
            f.bindings.get("tier").map(String::as_str),
            Some("SharedTier")
        );
    }

    #[test]
    fn hash_iteration_facts_require_hash_typing() {
        let p = parse(
            "fn f() { let m: HashMap<u32, u32> = HashMap::new(); for x in &m { g(x); } \
             let b: BTreeMap<u32, u32> = BTreeMap::new(); for y in &b { g(y); } }",
        );
        let f = &p.fns[0];
        assert_eq!(f.sources.len(), 1, "{:?}", f.sources);
        assert!(f.sources[0].hash_order);
        assert!(f.sources[0].what.contains("`for … in m`"));
    }

    #[test]
    fn use_aliases_recorded() {
        let p = parse("use crate::graph::{Graph, NodeId};\nuse std::time::SystemTime as Clock;\n");
        assert_eq!(p.uses["Graph"], vec!["crate", "graph", "Graph"]);
        assert_eq!(p.uses["Clock"], vec!["std", "time", "SystemTime"]);
    }

    #[test]
    fn test_items_are_marked() {
        let p = parse("fn lib() {}\n#[cfg(test)]\nmod tests {\n  fn t() {}\n}");
        assert!(!p.fns[0].is_test);
        assert!(p.fns[1].is_test);
    }

    #[test]
    fn module_paths_derived_from_location() {
        assert_eq!(
            module_path("crates/cdnsim/src/sim.rs"),
            vec!["cdnsim", "sim"]
        );
        assert_eq!(module_path("crates/trace/src/lib.rs"), vec!["trace"]);
        assert_eq!(module_path("src/lib.rs"), vec!["jcdn"]);
        assert_eq!(module_path("weird.rs"), vec!["weird"]);
    }
}
