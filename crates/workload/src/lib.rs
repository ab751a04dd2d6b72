//! # jcdn-workload — synthetic CDN workload generator
//!
//! The paper analyzes proprietary Akamai edge logs. This crate is the
//! substitution (see `DESIGN.md` §2): a population model of clients,
//! applications, domains, and objects whose *generating parameters* are
//! calibrated to the populations the paper reports, so the analysis
//! pipeline can be validated by recovering them:
//!
//! * **Traffic source** (Figure 3): clients carry ground-truth device
//!   types and realistic user-agent strings (via `jcdn-ua`), mixed so that
//!   request shares land near Mobile ≈ 55%, Embedded ≈ 12%, Desktop ≈ 9%,
//!   Unknown ≈ 24%, with ≈ 88% non-browser traffic.
//! * **Request type** (§4): ≈ 84% GET, with POST dominated by telemetry
//!   uploads.
//! * **Response type** (§4, Figure 4): domains carry industry categories
//!   with per-industry cacheability profiles (Financial/Streaming/Gaming
//!   never-cacheable; News/Sports/Entertainment cacheable) tuned so ≈ 55%
//!   of JSON request volume is uncacheable.
//! * **Periodicity** (§5.1, Figures 5/6): periodic poller apps with
//!   periods on the paper's spikes (30s, 1m, 2m, 3m, 10m, 15m, 30m) and
//!   jitter, sized to ≈ 6.3% of requests; per-object periodic-client
//!   fractions shaped so ≈ 20% of periodic objects have a > 50% periodic
//!   client majority.
//! * **Request dependencies** (§5.2, Tables 1/3): manifest-driven apps
//!   that first fetch a JSON manifest (a real JSON body with URL
//!   references, built with `jcdn-json`) and then fetch referenced
//!   objects — the structure the n-gram model learns.
//! * **Growth trend** (Figure 1): a separate monthly [`trend::TrendModel`]
//!   covering 2016→2019, since replaying 3½ years of full event traffic
//!   would add nothing but runtime.
//!
//! The generator emits a time-sorted stream of [`RequestEvent`]s plus the
//! [`GroundTruth`] labels; `jcdn-cdnsim` replays the events through edge
//! caches to produce the final [`jcdn_trace::Trace`].

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod apps;
mod clients;
mod config;
mod generator;
mod industry;
mod objects;
pub mod trend;

pub use clients::ClientInfo;
pub use config::{PopulationTargets, WorkloadConfig};
pub use generator::{build, build_parallel, GroundTruth, RequestEvent, Workload};
pub use industry::{CachePolicy, IndustryCategory};
pub use objects::{DomainInfo, ObjectInfo};
