// D2: hash-ordered iteration, which varies per process. A `for` loop over
// a hash container is `iter_over_hash_type`; the iterator methods are
// banned by clippy.toml's `disallowed-methods`. A lookup is not flagged.
use std::collections::HashMap;

fn report(counts: &HashMap<String, u64>) -> Vec<u64> {
    for (k, v) in counts {
        // clippy::iter_over_hash_type
        println!("{k} {v}");
    }
    let total = counts.get("total").copied(); // not flagged: a lookup
    let mut out: Vec<u64> = counts.values().copied().collect(); // clippy::disallowed_methods
    out.extend(total);
    out
}
