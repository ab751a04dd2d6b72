//! Fixture crate: one module per jcdn-lint rule that moved to clippy and
//! rustc (D1, D3, D4, D6 and S1). The crate-root attributes below are the
//! ones every workspace crate carries, and clippy reads the workspace's
//! root `clippy.toml` from here as well. `cargo clippy -- -D warnings`
//! must fail, and its diagnostics must name every lint these modules
//! trip; CI checks both.

#![warn(missing_docs, unreachable_pub)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![expect(dead_code, reason = "the fixtures exist to be linted, not called")]

mod d1_wall_clock;
mod d3_panics;
mod d4_lossy_casts;
/// Public so that `missing_docs` looks inside.
pub mod d6_missing_docs;
mod s1_suppressions;
