//! # jcdn — facade crate
//!
//! Re-exports the whole workspace under one roof. See the README for the
//! architecture and `DESIGN.md` for the system inventory. Examples live in
//! `examples/` and cross-crate integration tests in `tests/`.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub use jcdn_cdnsim as cdnsim;
pub use jcdn_core as core;
pub use jcdn_json as json;
pub use jcdn_ngram as ngram;
pub use jcdn_obs as obs;
pub use jcdn_prefetch as prefetch;
pub use jcdn_signal as signal;
pub use jcdn_stats as stats;
pub use jcdn_trace as trace;
pub use jcdn_ua as ua;
pub use jcdn_url as url;
pub use jcdn_workload as workload;
