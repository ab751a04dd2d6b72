//! The flow-aware rules D7 and D8, run over the workspace call graph.
//!
//! Both rules are reachability questions with evidence:
//!
//! * **D7 (determinism taint)** — from every *determinism root* (a
//!   function named `merge*`/`finalize*`, or `encode*` inside the trace
//!   codec), walk the call graph forward; any reachable function that
//!   observes a determinism source (wall clock, ambient randomness, hash
//!   iteration order) taints the whole path, and the finding prints the
//!   full call chain from the root to the observation. A source inside a
//!   D7-allowlisted file (jcdn-obs's clock module) is sanctioned and does
//!   not taint; hash-order sources only count where the D2 scope says
//!   output order matters.
//! * **D8 (epoch-lockstep safety)** — from every peek-phase entry point
//!   (`run_until` in `cdnsim`), any reachable call of a shared-tier
//!   mutator (`insert`/`evict`/`touch`/`expire` on a `SharedTier`-typed
//!   receiver) is flagged: the peek phase must stay side-effect-free
//!   against the epoch-frozen tier slice, logging intents through
//!   `TierCtx::record` for `flush_accesses` to apply at the boundary.
//!
//! The walk is a multi-source BFS with parent pointers over the sorted
//! node list, so chains are deterministic (shortest, ties broken by node
//! order) regardless of parse order.

use crate::config::Config;
use crate::graph::CallGraph;
use crate::rules::{ChainHop, Finding};

/// Shared-tier mutator methods the peek phase must never call directly.
const TIER_MUTATORS: [&str; 4] = ["insert", "evict", "touch", "expire"];

/// Runs D7 and D8 over the graph, returning findings anchored at the
/// offending site with their call chains populated.
pub fn run(graph: &CallGraph, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    rule_d7(graph, cfg, &mut out);
    rule_d8(graph, cfg, &mut out);
    out.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    out
}

/// Whether node `i` is a D7 determinism root.
fn d7_root(graph: &CallGraph, i: usize) -> bool {
    let n = &graph.nodes[i];
    if n.item.is_test {
        return false;
    }
    let name = n.item.name.as_str();
    name.starts_with("merge")
        || name.starts_with("finalize")
        || (name.starts_with("encode") && n.path.starts_with("crates/trace/src/"))
}

/// Whether node `i` is a D8 peek-phase root.
fn d8_root(graph: &CallGraph, i: usize) -> bool {
    let n = &graph.nodes[i];
    !n.item.is_test && n.item.name == "run_until" && n.path.starts_with("crates/cdnsim/")
}

/// Multi-source BFS. Returns `reach[i] = Some((root, parent_edge))` for
/// every node reachable from a root, where `parent_edge` is
/// `Some((parent_node, call_line))` or `None` for the roots themselves.
type Reach = Vec<Option<(usize, Option<(usize, u32)>)>>;

fn bfs(graph: &CallGraph, is_root: impl Fn(&CallGraph, usize) -> bool) -> Reach {
    let mut reach: Reach = vec![None; graph.nodes.len()];
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    for i in graph.node_ids() {
        if is_root(graph, i) {
            reach[i] = Some((i, None));
            queue.push_back(i);
        }
    }
    while let Some(i) = queue.pop_front() {
        let root = reach[i].map(|(r, _)| r).unwrap_or(i);
        for e in &graph.edges[i] {
            if reach[e.callee].is_none() {
                reach[e.callee] = Some((root, Some((i, e.line))));
                queue.push_back(e.callee);
            }
        }
    }
    reach
}

/// Reconstructs the call chain from the BFS root down to node `i`:
/// the root at its definition site, then each entered function located at
/// the call site in the previous hop.
fn chain_to(graph: &CallGraph, reach: &Reach, i: usize) -> Vec<ChainHop> {
    let mut rev: Vec<ChainHop> = Vec::new();
    let mut cur = i;
    while let Some((_, parent)) = reach[cur] {
        match parent {
            Some((p, call_line)) => {
                rev.push(ChainHop {
                    func: graph.nodes[cur].item.qual.clone(),
                    path: graph.nodes[p].path.clone(),
                    line: call_line,
                });
                cur = p;
            }
            None => {
                rev.push(ChainHop {
                    func: graph.nodes[cur].item.qual.clone(),
                    path: graph.nodes[cur].path.clone(),
                    line: graph.nodes[cur].item.line,
                });
                break;
            }
        }
    }
    rev.reverse();
    rev
}

fn rule_d7(graph: &CallGraph, cfg: &Config, out: &mut Vec<Finding>) {
    let reach = bfs(graph, d7_root);
    for i in graph.node_ids() {
        if reach[i].is_none() {
            continue;
        }
        let n = &graph.nodes[i];
        if n.item.is_test || !cfg.applies("D7", &n.path) {
            continue;
        }
        for src in &n.item.sources {
            // Hash-order facts only matter under the D2 (output-order)
            // scope; clock/randomness facts are void in the files the D7
            // allowlist blesses, which the check above already skipped.
            if src.hash_order && !cfg.applies("D2", &n.path) {
                continue;
            }
            let chain = chain_to(graph, &reach, i);
            let root = chain.first().map(|h| h.func.clone()).unwrap_or_default();
            out.push(Finding {
                rule: "D7",
                path: n.path.clone(),
                line: src.line,
                col: src.col,
                message: format!(
                    "{} is reachable from determinism root `{root}` \
                     ({}-hop chain); merge/finalize/encode paths must be \
                     bit-reproducible",
                    src.what,
                    chain.len(),
                ),
                chain,
            });
        }
    }
}

fn rule_d8(graph: &CallGraph, cfg: &Config, out: &mut Vec<Finding>) {
    let reach = bfs(graph, d8_root);
    for i in graph.node_ids() {
        if reach[i].is_none() {
            continue;
        }
        let n = &graph.nodes[i];
        if n.item.is_test || !cfg.applies("D8", &n.path) {
            continue;
        }
        for call in &n.item.calls {
            let crate::parser::CallKind::Method { recv } = &call.kind else {
                continue;
            };
            if !TIER_MUTATORS.contains(&call.name.as_str()) {
                continue;
            }
            let Some(root_name) = recv.first() else {
                continue;
            };
            let tier_typed = n
                .item
                .bindings
                .get(root_name)
                .is_some_and(|ty| ty.contains("SharedTier"));
            if !tier_typed {
                continue;
            }
            let chain = chain_to(graph, &reach, i);
            let root = chain.first().map(|h| h.func.clone()).unwrap_or_default();
            out.push(Finding {
                rule: "D8",
                path: n.path.clone(),
                line: call.line,
                col: call.col,
                message: format!(
                    "shared-tier mutation `{}.{}()` inside the epoch peek \
                     phase (reachable from `{root}`, {}-hop chain); record the \
                     intent via `TierCtx::record` and let `flush_accesses` \
                     apply it at the epoch boundary",
                    recv.join("."),
                    call.name,
                    chain.len(),
                ),
                chain,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::{parse_file, ParsedFile};

    fn analyze(files: &[(&str, &str)]) -> Vec<Finding> {
        let parsed: Vec<ParsedFile> = files.iter().map(|(p, s)| parse_file(p, &lex(s))).collect();
        let graph = CallGraph::build(&parsed);
        run(&graph, &Config::all_scopes())
    }

    #[test]
    fn d7_flags_wall_clock_two_hops_below_merge() {
        let findings = analyze(&[
            (
                "crates/core/src/a.rs",
                "fn merge_partials() { tally(); }\nfn unrelated() { stamp(); }",
            ),
            (
                "crates/core/src/b.rs",
                "fn tally() { stamp(); }\nfn stamp() { let _ = SystemTime::now(); }",
            ),
        ]);
        let d7: Vec<&Finding> = findings.iter().filter(|f| f.rule == "D7").collect();
        assert_eq!(d7.len(), 1, "{findings:?}");
        assert_eq!(d7[0].path, "crates/core/src/b.rs");
        assert_eq!(d7[0].chain.len(), 3, "{:?}", d7[0].chain);
        assert_eq!(d7[0].chain[0].func, "core::a::merge_partials");
        assert_eq!(d7[0].chain[2].func, "core::b::stamp");
    }

    #[test]
    fn d7_ignores_sources_outside_reachability() {
        let findings = analyze(&[(
            "crates/core/src/a.rs",
            "fn merge_x() { ok(); }\nfn ok() {}\nfn lonely() { let _ = Instant::now(); }",
        )]);
        assert!(findings.iter().all(|f| f.rule != "D7"), "{findings:?}");
    }

    #[test]
    fn d7_respects_its_allowlist_for_sources() {
        let files = [
            ("crates/core/src/a.rs", "fn merge_x() { jitter(); }"),
            (
                "crates/obs/src/clock.rs",
                "fn jitter() { let _ = SystemTime::now(); }",
            ),
        ];
        let parsed: Vec<ParsedFile> = files.iter().map(|(p, s)| parse_file(p, &lex(s))).collect();
        let graph = CallGraph::build(&parsed);
        let mut cfg = Config::all_scopes();
        cfg.allow.insert(
            "D7".to_string(),
            vec!["crates/obs/src/clock.rs".to_string()],
        );
        let findings = run(&graph, &cfg);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn d8_flags_tier_mutation_in_peek_phase() {
        let findings = analyze(&[(
            "crates/cdnsim/src/sim.rs",
            "impl Machine {\n fn run_until(&mut self, tiers: &[SharedTier]) { promote(tiers); }\n}\n\
             fn promote(tiers: &[SharedTier]) { tiers[0].cache.insert(1); }",
        )]);
        let d8: Vec<&Finding> = findings.iter().filter(|f| f.rule == "D8").collect();
        assert_eq!(d8.len(), 1, "{findings:?}");
        assert_eq!(d8[0].chain.len(), 2);
        assert!(d8[0].message.contains("tiers.cache.insert"));
    }

    #[test]
    fn d8_allows_flush_accesses_outside_run_until() {
        let findings = analyze(&[(
            "crates/cdnsim/src/hierarchy.rs",
            "fn flush_accesses(tiers: &mut [SharedTier]) { tiers[0].cache.insert(1); }\n\
             fn epoch_loop(tiers: &mut [SharedTier]) { flush_accesses(tiers); }",
        )]);
        assert!(findings.iter().all(|f| f.rule != "D8"), "{findings:?}");
    }

    #[test]
    fn d8_ignores_edge_local_caches() {
        let findings = analyze(&[(
            "crates/cdnsim/src/sim.rs",
            "impl Machine {\n fn run_until(&mut self, edge: &mut Edge) { edge.cache.insert(1); }\n}",
        )]);
        assert!(findings.iter().all(|f| f.rule != "D8"), "{findings:?}");
    }

    #[test]
    fn chains_are_shortest_and_deterministic() {
        // Two routes from the root to the source: direct (2 hops) and via
        // an intermediary (3 hops) — BFS must report the 2-hop chain.
        let findings = analyze(&[(
            "crates/core/src/a.rs",
            "fn merge_all() { direct(); indirect(); }\n\
             fn indirect() { direct(); }\n\
             fn direct() { let _ = SystemTime::now(); }",
        )]);
        let d7: Vec<&Finding> = findings.iter().filter(|f| f.rule == "D7").collect();
        assert_eq!(d7.len(), 1);
        assert_eq!(d7[0].chain.len(), 2, "{:?}", d7[0].chain);
    }
}
