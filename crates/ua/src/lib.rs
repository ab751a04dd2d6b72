//! # jcdn-ua — user-agent strings: generation and classification
//!
//! §3.2 of the paper identifies the *traffic source* of each request from
//! its `User-Agent` header: device type (mobile / desktop / embedded /
//! unknown), browser vs. non-browser, and application family. The paper uses
//! two auxiliary databases — Akamai's EDC device-characteristics database
//! and a public browser user-agent database — to reduce misclassification.
//!
//! This crate supplies both sides of that pipeline for the synthetic CDN:
//!
//! * [`classify`] — the analysis-side classifier: token matching over the
//!   UA string, refined by [`EdcDatabase`] (our stand-in for Akamai EDC,
//!   reference \[2\] in the paper) and [`browser_db`] (stand-in for
//!   useragentstring.com, reference \[11\]),
//! * [`gen::UaGenerator`] — the workload-side generator that produces
//!   realistic UA strings *with ground-truth labels*, so integration tests
//!   can measure classifier accuracy and the characterization pipeline can
//!   be validated against planted populations.
//!
//! ## Example
//!
//! ```
//! use jcdn_ua::{classify, DeviceType};
//!
//! let c = classify(Some("NewsApp/3.2.1 (iPhone; iOS 12.4; Scale/3.00)"));
//! assert_eq!(c.device, DeviceType::Mobile);
//! assert!(!c.is_browser);
//! assert_eq!(c.app_family.as_deref(), Some("NewsApp"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod browsers;
mod classify;
mod edc;
pub mod gen;
mod types;

pub use browsers::{browser_db, BrowserFamily};
pub use classify::{classify, classify_with, Classification};
pub use edc::{DeviceRecord, EdcDatabase};
pub use types::{DeviceType, Platform};
