//! # jcdn-ngram — backoff n-gram request prediction
//!
//! §5.2 of the paper models "the relationship between requests using a
//! backoff ngram model \[12\]. The ngram model captures transition
//! probabilities from a subsequence of previously requested objects to the
//! next request in the client flow." Trained on per-client URL sequences, it
//! predicts the next request; Table 3 reports top-K accuracy for raw and
//! clustered URLs.
//!
//! This crate provides:
//!
//! * [`Vocab`] — URL-string ↔ token interning, with optional
//!   Klotski-style clustering (via `jcdn-url`) applied at interning time,
//! * [`NgramModel`] — counts for context lengths `0..=N` with
//!   *stupid backoff* scoring and top-K prediction,
//! * [`eval`] — client-disjoint train/test splitting and the top-K accuracy
//!   measurement the paper's Table 3 reports.
//!
//! ## Example
//!
//! ```
//! use jcdn_ngram::{NgramModel, Vocab};
//!
//! let mut vocab = Vocab::raw();
//! let seq: Vec<u32> = ["a", "b", "c", "a", "b", "c", "a", "b"]
//!     .iter()
//!     .map(|s| vocab.intern(s))
//!     .collect();
//! let mut model = NgramModel::new(2);
//! model.train_sequence(&seq);
//!
//! // After "a", the model predicts "b".
//! let top = model.predict(&seq[..1], 1);
//! assert_eq!(top[0].token, vocab.intern("b"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod eval;
mod model;
mod vocab;

pub use model::{NgramModel, Prediction};
pub use vocab::Vocab;
