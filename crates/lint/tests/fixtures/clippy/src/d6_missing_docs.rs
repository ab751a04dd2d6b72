// D6: public items without doc comments (rustc `missing_docs`), and a
// `pub` method on a private type (rustc `unreachable_pub`). The
// documented items and the pub(crate) item must NOT be flagged.

/// Documented: not flagged.
pub struct Documented {
    /// Documented field: not flagged.
    pub ok: u64,
    pub missing: u64, // missing_docs
}

pub fn undocumented() {} // missing_docs

pub(crate) fn crate_visible() {} // not flagged: not part of the public API

/// Documented trait.
pub trait Named {
    /// Documented method: not flagged.
    fn name(&self) -> &str;
}

pub const LIMIT: u64 = 8; // missing_docs

struct Hidden;

impl Hidden {
    pub fn reach(&self) {} // unreachable_pub
}
