//! # jcdn-url — URL model, parser, and argument clustering
//!
//! CDN request logs identify objects by URL (§3.1 of the paper). This crate
//! provides:
//!
//! * [`Url`] — a parsed URL (scheme, host, port, path, query, fragment) with
//!   a canonical [`Display`][std::fmt::Display] form that round-trips,
//! * [`Url::parse`] — a permissive HTTP-URL parser that accepts the three
//!   reference shapes seen in JSON bodies (absolute, protocol-relative,
//!   host-relative, rooted path),
//! * [`cluster`] — *URL argument clustering* in the spirit of Klotski
//!   (Butkiewicz et al., NSDI '15), the technique §5.2 of the paper uses to
//!   group URLs that differ only in client-specific identifiers. The n-gram
//!   predictor trains on either raw URLs or these cluster keys (Table 3).
//!
//! ## Example
//!
//! ```
//! use jcdn_url::{Url, cluster::Clusterer};
//!
//! let url = Url::parse("https://api.news.example/article/1234?user=sess9x8k2m7q1").unwrap();
//! assert_eq!(url.host(), "api.news.example");
//! assert_eq!(url.path(), "/article/1234");
//!
//! let clusterer = Clusterer::default();
//! let key = clusterer.cluster(&url);
//! assert_eq!(key, "api.news.example/article/{id}?user={token}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod cluster;
mod parse;
mod url;

pub use parse::ParseUrlError;
pub use url::Url;
