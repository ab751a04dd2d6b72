// Fixture: determinism-respecting code that must produce zero findings
// even with every rule in scope.

use std::collections::BTreeMap;

/// Ordered counts render identically on every run.
pub fn render(counts: &BTreeMap<String, u64>) -> String {
    let mut out = String::new();
    for (k, v) in counts {
        out.push_str(k);
        out.push(' ');
        out.push_str(&v.to_string());
        out.push('\n');
    }
    out
}

/// `try_from` surfaces an out-of-range length as an error.
pub fn lengths(n: u32) -> Result<usize, std::num::TryFromIntError> {
    usize::try_from(n)
}

/// Errors propagate instead of panicking.
pub fn head(items: &[u64]) -> Option<u64> {
    items.first().copied()
}
