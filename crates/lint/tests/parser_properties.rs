//! Property tests for the stage-2 front end: the item parser must never
//! panic (it runs over arbitrary, possibly malformed source), and the
//! call-graph builder must be deterministic and file-order-independent
//! (stage 1 is parallel, so summaries can arrive in any order).

use jcdn_lint::graph::CallGraph;
use jcdn_lint::lexer::lex;
use jcdn_lint::parser::{parse_file, ParsedFile};
use jcdn_lint::{taint, Config};
use proptest::prelude::*;

/// Near-Rust source soup: fragments that exercise every parser branch
/// (items, bindings, calls, generics, strings, comments) glued in
/// arbitrary order, plus raw character noise.
fn source_fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("fn f(a: u32) { g(a); }\n".to_string()),
        Just("fn merge_x() { h.m(); }\n".to_string()),
        Just("impl Foo { fn bar(&self) -> u8 { self.baz() } }\n".to_string()),
        Just("impl a::B for C { fn z() {} }\n".to_string()),
        Just("mod inner { fn deep() { outer(); } }\n".to_string()),
        Just("use crate::codec::{encode, decode};\n".to_string()),
        Just("let x = SystemTime::now();\n".to_string()),
        Just("for k in map.keys() { touch(k); }\n".to_string()),
        Just("let len = cur.get_varint()?; let t = len + 8;\n".to_string()),
        Just("match version { 1 | 2 => a(), _ => b() }\n".to_string()),
        Just("// plain comment { fn\n".to_string()),
        Just("\"str with } { fn\"".to_string()),
        Just("'\\''".to_string()),
        Just("#[cfg(test)] mod tests { #[test] fn t() {} }\n".to_string()),
        Just("{ } } { ) ( ] [\n".to_string()),
        Just("r#\"raw \"# 'a 0x_ff 1e9\n".to_string()),
        "[ -~]{0,24}",
        "\\PC{0,12}",
    ]
}

fn source() -> impl Strategy<Value = String> {
    prop::collection::vec(source_fragment(), 0..12).prop_map(|v| v.concat())
}

proptest! {
    // Lexing + parsing arbitrary near-Rust text never panics, and the
    // same input always yields the same summary.
    #[test]
    fn lex_and_parse_never_panic_and_are_deterministic(src in source()) {
        let a = parse_file("crates/x/src/l.rs", &lex(&src));
        let b = parse_file("crates/x/src/l.rs", &lex(&src));
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    // Graph construction (and the taint pass over it) is independent of
    // the order in which file summaries arrive.
    #[test]
    fn call_graph_is_file_order_independent(
        srcs in prop::collection::vec(source(), 1..6),
        seed in 0usize..720,
    ) {
        let mut files: Vec<ParsedFile> = srcs
            .iter()
            .enumerate()
            .map(|(i, s)| parse_file(&format!("crates/core/src/f{i}.rs"), &lex(s)))
            .collect();
        let sorted_graph = CallGraph::build(&files);
        let cfg = Config::all_scopes();
        let baseline = taint::run(&sorted_graph, &cfg);

        // A seed-driven permutation of the input order.
        let mut k = seed;
        for i in (1..files.len()).rev() {
            files.swap(i, k % (i + 1));
            k /= i + 1;
        }
        let permuted_graph = CallGraph::build(&files);
        prop_assert_eq!(
            format!("{sorted_graph:?}"),
            format!("{permuted_graph:?}"),
            "graph shape must not depend on input order"
        );
        prop_assert_eq!(
            format!("{:?}", taint::run(&permuted_graph, &cfg)),
            format!("{baseline:?}"),
            "findings must not depend on input order"
        );
    }

    // The full two-stage pass never panics on arbitrary input and gives
    // identical findings at 1 and 4 stage-1 threads.
    #[test]
    fn two_stage_pass_is_thread_count_invariant(
        srcs in prop::collection::vec(source(), 1..5),
    ) {
        let files: Vec<(String, String)> = srcs
            .into_iter()
            .enumerate()
            .map(|(i, s)| (format!("crates/core/src/p{i}.rs"), s))
            .collect();
        let cfg = Config::all_scopes();
        let one = jcdn_lint::lint_sources(&files, &cfg, 1);
        let four = jcdn_lint::lint_sources(&files, &cfg, 4);
        prop_assert_eq!(one, four);
    }
}
