//! §5.1 — periodicity in JSON request flows.
//!
//! The study: extract object flows and client-object flows from the trace
//! (JSON records only), apply the paper's ≥10-requests / ≥10-clients
//! filters, run the permutation-thresholded period detector on both
//! levels, and label a client-object flow *periodic* when its period
//! matches its object flow's period. Outputs drive Figures 5 and 6 and the
//! periodic-traffic cross statistics (56.2% uncacheable, 78% upload).

use std::collections::{BTreeMap, HashSet};

use jcdn_signal::periodicity::{
    detect_period, DetectedPeriod, PeriodicityConfig, SAMPLING_SECONDS,
};
use jcdn_stats::{Ecdf, LogHistogram};
use jcdn_trace::flows::{FlowClient, FlowSet};
use jcdn_trace::{MimeType, Trace, UrlId};

/// Study configuration.
#[derive(Clone, Debug)]
pub struct PeriodicityStudyConfig {
    /// Detector tuning (defaults: x = 100 permutations, 1s sampling).
    pub detector: PeriodicityConfig,
    /// Minimum requests per client-object flow (paper: 10).
    pub min_requests: usize,
    /// Minimum clients per object flow (paper: 10).
    pub min_clients: usize,
}

/// How far apart a client's and its object's periods may be and still
/// match, in sampling bins.
const MATCH_TOLERANCE_BINS: usize = 2;

impl Default for PeriodicityStudyConfig {
    fn default() -> Self {
        PeriodicityStudyConfig {
            detector: PeriodicityConfig {
                // Client sessions span up to a few hours at 1s sampling;
                // full-day object flows coarsen to ~2.6s bins. Permutations
                // fan out across cores.
                max_bins: 1 << 15,
                parallel: true,
                ..PeriodicityConfig::default()
            },
            min_requests: 10,
            min_clients: 10,
        }
    }
}

/// One periodic client-object flow.
#[derive(Clone, Debug)]
pub struct PeriodicFlow {
    /// The client.
    pub client: FlowClient,
    /// The object.
    pub url: UrlId,
    /// The detected period (seconds).
    pub period_seconds: f64,
    /// Number of requests in the flow.
    pub requests: usize,
}

/// The study's full output.
#[derive(Clone, Debug, Default)]
pub struct PeriodicityReport {
    /// Detected object-flow periods (seconds), one per periodic object —
    /// the data behind Figure 5.
    pub object_periods: BTreeMap<UrlId, f64>,
    /// Per object: fraction of its (filtered) clients that are periodic —
    /// the data behind Figure 6.
    pub periodic_client_fraction: BTreeMap<UrlId, f64>,
    /// All periodic client-object flows.
    pub periodic_flows: Vec<PeriodicFlow>,
    /// JSON requests belonging to periodic flows.
    pub periodic_requests: u64,
    /// All JSON requests in the trace.
    pub total_json_requests: u64,
    /// Of periodic requests: how many were uncacheable (paper: 56.2%).
    pub periodic_uncacheable: u64,
    /// Of periodic requests: how many were uploads (paper: 78%).
    pub periodic_uploads: u64,
}

impl PeriodicityReport {
    /// Share of JSON requests that are periodic (paper: 6.3%).
    pub fn periodic_share(&self) -> f64 {
        if self.total_json_requests == 0 {
            return 0.0;
        }
        self.periodic_requests as f64 / self.total_json_requests as f64
    }

    /// Uncacheable share within periodic traffic.
    pub fn periodic_uncacheable_share(&self) -> f64 {
        if self.periodic_requests == 0 {
            return 0.0;
        }
        self.periodic_uncacheable as f64 / self.periodic_requests as f64
    }

    /// Upload share within periodic traffic.
    pub fn periodic_upload_share(&self) -> f64 {
        if self.periodic_requests == 0 {
            return 0.0;
        }
        self.periodic_uploads as f64 / self.periodic_requests as f64
    }

    /// Figure 5: histogram of object periods (log-spaced bins from 10s).
    pub fn period_histogram(&self) -> LogHistogram {
        let mut h = LogHistogram::new(10.0, 1.25, 32);
        for &p in self.object_periods.values() {
            h.record(p);
        }
        h
    }

    /// Figure 6: the CDF of per-object periodic-client percentages.
    pub fn client_fraction_cdf(&self) -> Ecdf {
        Ecdf::from_samples(self.periodic_client_fraction.values().copied())
    }

    /// The share of periodic objects where a majority of clients is
    /// periodic (paper highlight: ~20%).
    pub fn majority_periodic_object_share(&self) -> f64 {
        if self.periodic_client_fraction.is_empty() {
            return 0.0;
        }
        let majority = self
            .periodic_client_fraction
            .values()
            .filter(|&&f| f > 0.5)
            .count();
        majority as f64 / self.periodic_client_fraction.len() as f64
    }
}

/// Runs the full §5.1 study over a trace.
pub fn run_study(trace: &Trace, config: &PeriodicityStudyConfig) -> PeriodicityReport {
    let total_json_requests = trace.records().filter(|r| r.mime == MimeType::Json).count() as u64;
    let mut report = PeriodicityReport {
        total_json_requests,
        ..PeriodicityReport::default()
    };

    let flows = FlowSet::build(trace, |r| r.mime == MimeType::Json)
        .apply_significance_filters(config.min_requests, config.min_clients);

    // Clip each flow to its first `max_bins × sampling` seconds so the
    // detector always runs at full (1s) resolution. A full-day object flow
    // would otherwise coarsen to multi-second bins, where session-level
    // rate correlation drowns the request-level period.
    let window_secs = config.detector.max_bins as f64 * SAMPLING_SECONDS;
    let clip = |times: Vec<f64>| -> Vec<f64> {
        let Some(&t0) = times.first() else {
            return times;
        };
        let end = t0 + window_secs;
        times.into_iter().take_while(|&t| t < end).collect()
    };

    for flow in &flows.flows {
        // Object-level detection on the merged request sequence.
        let merged = clip(
            flow.merged_times()
                .iter()
                .map(|t| t.as_secs_f64())
                .collect(),
        );
        let Some(object_period) = detect_period(&merged, &config.detector) else {
            continue;
        };

        // Client-level detection; a client is periodic w.r.t. its object
        // when both periods exist and match.
        let mut periodic_clients = 0usize;
        for cf in &flow.client_flows {
            let times = clip(cf.times.iter().map(|t| t.as_secs_f64()).collect());
            let Some(client_period) = detect_period(&times, &config.detector) else {
                continue;
            };
            if client_matches_object(&client_period, &object_period) {
                periodic_clients += 1;
                report.periodic_requests += cf.len() as u64;
                report.periodic_flows.push(PeriodicFlow {
                    client: cf.client,
                    url: flow.url,
                    period_seconds: client_period.period_seconds,
                    requests: cf.len(),
                });
            }
        }

        if periodic_clients > 0 {
            report
                .object_periods
                .insert(flow.url, object_period.period_seconds);
            report.periodic_client_fraction.insert(
                flow.url,
                periodic_clients as f64 / flow.client_count() as f64,
            );
        }
    }

    // Cross statistics need the records of periodic (client, object) pairs.
    let periodic_pairs: HashSet<(FlowClient, UrlId)> = report
        .periodic_flows
        .iter()
        .map(|f| (f.client, f.url))
        .collect();
    for r in trace.records() {
        if r.mime != MimeType::Json {
            continue;
        }
        if periodic_pairs.contains(&((r.client, r.ua), r.url)) {
            if !r.cache.is_cacheable() {
                report.periodic_uncacheable += 1;
            }
            if r.method.is_upload() {
                report.periodic_uploads += 1;
            }
        }
    }
    report
}

fn client_matches_object(client: &DetectedPeriod, object: &DetectedPeriod) -> bool {
    // Compare in seconds: the two detections may have run at different
    // effective sampling rates (object flows have more events).
    let tolerance = MATCH_TOLERANCE_BINS as f64
        * (client.period_seconds / client.period_bins.max(1) as f64)
            .max(object.period_seconds / object.period_bins.max(1) as f64);
    // Aggregating many phase-shifted clients can emphasize a small integer
    // multiple (or harmonic) of the true period in the object flow, so the
    // match accepts m·client ≈ object and client ≈ m·object for m ≤ 4.
    for m in 1..=4u32 {
        let m = f64::from(m);
        if (client.period_seconds * m - object.period_seconds).abs() <= tolerance * m
            || (client.period_seconds - object.period_seconds * m).abs() <= tolerance * m
        {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcdn_trace::{CacheStatus, ClientId, LogRecord, Method, RecordFlags, SimTime};

    /// Builds a trace with one planted periodic object (12 clients polling
    /// every 30s), one noise object, and background traffic.
    fn planted_trace() -> Trace {
        let mut t = Trace::new();
        let periodic = t.intern_url("https://game-0.example/api/scores/live");
        let noise = t.intern_url("https://shop-1.example/api/v1/items/3");
        let mut push = |time: u64, client: u64, url, method, cache| {
            t.push(LogRecord {
                time: SimTime::from_secs(time),
                client: ClientId(client),
                ua: None,
                url,
                method,
                mime: MimeType::Json,
                status: 200,
                response_bytes: 100,
                cache,
                retries: 0,
                flags: RecordFlags::NONE,
            });
        };
        // 12 periodic clients, 30s period, irregular phases (evenly spaced
        // phases would plant a genuine sub-period in the merged flow),
        // 40 min span.
        for c in 0..12u64 {
            let phase = (c * 13) % 30;
            for tick in 0..80u64 {
                push(
                    phase + tick * 30,
                    c,
                    periodic,
                    Method::Post,
                    CacheStatus::NotCacheable,
                );
            }
        }
        // 12 noise clients with pseudo-random (deterministic, aperiodic)
        // arrivals on another object.
        for c in 100..112u64 {
            let mut time = c % 17;
            for k in 0..30u64 {
                // Irregular gaps from a quadratic residue pattern.
                time += 11 + (c * 7 + k * k * 13) % 83;
                push(time, c, noise, Method::Get, CacheStatus::Hit);
            }
        }
        t.sort_by_time();
        t
    }

    fn fast_config() -> PeriodicityStudyConfig {
        PeriodicityStudyConfig {
            detector: PeriodicityConfig {
                permutations: 40,
                parallel: false,
                ..PeriodicityConfig::default()
            },
            ..PeriodicityStudyConfig::default()
        }
    }

    #[test]
    fn recovers_the_planted_period_and_rejects_noise() {
        let trace = planted_trace();
        let report = run_study(&trace, &fast_config());
        assert_eq!(report.object_periods.len(), 1, "exactly the planted object");
        let (&url, &period) = report.object_periods.iter().next().unwrap();
        assert_eq!(trace.url(url), "https://game-0.example/api/scores/live");
        assert!((period - 30.0).abs() <= 2.0, "period {period}");
        // All 12 clients are periodic.
        let fraction = report.periodic_client_fraction[&url];
        assert!(fraction > 0.9, "periodic client fraction {fraction}");
        assert!(report.majority_periodic_object_share() > 0.99);
    }

    #[test]
    fn cross_stats_reflect_planted_method_and_cacheability() {
        let trace = planted_trace();
        let report = run_study(&trace, &fast_config());
        assert!(report.periodic_requests > 0);
        // The planted poller POSTs to an uncacheable endpoint.
        assert_eq!(report.periodic_upload_share(), 1.0);
        assert_eq!(report.periodic_uncacheable_share(), 1.0);
        let share = report.periodic_share();
        // 960 periodic / (960 + 360) total.
        assert!((share - 960.0 / 1320.0).abs() < 0.05, "share {share}");
    }

    #[test]
    fn figures_render_from_report() {
        let trace = planted_trace();
        let report = run_study(&trace, &fast_config());
        let hist = report.period_histogram();
        assert_eq!(hist.total(), 1);
        let cdf = report.client_fraction_cdf();
        assert_eq!(cdf.len(), 1);
    }

    #[test]
    fn empty_trace_yields_empty_report() {
        let report = run_study(&Trace::new(), &fast_config());
        assert_eq!(report.total_json_requests, 0);
        assert_eq!(report.periodic_share(), 0.0);
        assert!(report.object_periods.is_empty());
    }

    #[test]
    fn filters_drop_small_flows() {
        let mut t = Trace::new();
        let url = t.intern_url("https://game-0.example/api/scores/live");
        // Only 3 clients → below the 10-client filter despite perfect
        // periodicity.
        for c in 0..3u64 {
            for tick in 0..50u64 {
                t.push(LogRecord {
                    time: SimTime::from_secs(tick * 30),
                    client: ClientId(c),
                    ua: None,
                    url,
                    method: Method::Get,
                    mime: MimeType::Json,
                    status: 200,
                    response_bytes: 1,
                    cache: CacheStatus::Hit,
                    retries: 0,
                    flags: RecordFlags::NONE,
                });
            }
        }
        let report = run_study(&t, &fast_config());
        assert!(report.object_periods.is_empty());
        assert_eq!(report.periodic_requests, 0);
    }
}
