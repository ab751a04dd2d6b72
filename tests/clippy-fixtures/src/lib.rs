//! Fixture crate: one module per rule that a clippy or rustc lint owns
//! (DESIGN.md §11). The crate-root attributes below are the ones every
//! workspace crate carries; the last block mirrors the root Cargo.toml's
//! `[workspace.lints.clippy]`, and clippy reads the workspace's root
//! `clippy.toml` from here as well. The codec's module-level lints sit at
//! the top of `d9_wire_arithmetic.rs` and `d10_version_match.rs`, as they
//! do in `codec.rs`. `cargo clippy -- -D warnings` must fail, and its
//! diagnostics must name every lint these modules trip; CI checks both.

#![warn(missing_docs, unreachable_pub)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]
#![warn(
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason,
    clippy::iter_over_hash_type
)]
#![expect(dead_code, reason = "the fixtures exist to be linted, not called")]

mod d10_version_match;
mod d1_wall_clock;
mod d2_hash_order;
mod d3_panics;
mod d4_lossy_casts;
/// Public so that `missing_docs` looks inside.
pub mod d6_missing_docs;
mod d9_wire_arithmetic;
mod s1_suppressions;
