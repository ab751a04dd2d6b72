//! Reference model for the §4 characterization.
//!
//! The oracle below keeps the per-record definitions: it parses each
//! record's host from its URL, classifies each JSON record's UA string,
//! looks up the industry of each final attempt, and tallies in maps keyed
//! by host string, device and category. `CharacterizationReport::compute`
//! and `compute_isolated` count through shared id tables instead; for
//! every shard cut of the trace and every thread count they must equal the
//! oracle field for field, size samples included, in order.

use std::collections::BTreeMap;

use jcdn_cdnsim::{run_default, FaultPlan, OriginOutage, SimConfig, Window};
use jcdn_core::characterize::{
    AvailabilityBreakdown, CacheabilityHeatmap, CategoryProvider, ContentMix, RequestTypeBreakdown,
    ResponseTypeBreakdown, TokenCategoryProvider, TrafficSourceBreakdown, HEATMAP_BUCKETS,
};
use jcdn_core::pipeline::CharacterizationReport;
use jcdn_core::taxonomy::RequestType;
use jcdn_trace::{CacheStatus, ClientId, LogRecord, Method, MimeType, RecordFlags, SimTime, Trace};
use jcdn_ua::{classify, DeviceType};
use jcdn_workload::{build, IndustryCategory, WorkloadConfig};

/// The report as defined record by record, with no shared tables.
fn oracle(trace: &Trace, provider: &dyn CategoryProvider) -> CharacterizationReport {
    let mut sources = TrafficSourceBreakdown::default();
    let mut requests = RequestTypeBreakdown::default();
    let mut responses = ResponseTypeBreakdown::default();
    let mut availability = AvailabilityBreakdown::default();
    let mut mix = ContentMix::default();
    // host → (cacheable JSON requests, JSON requests)
    let mut per_domain: BTreeMap<&str, (u64, u64)> = BTreeMap::new();

    for view in trace.iter() {
        let r = view.record;
        let host = trace.interner().host_of(r.url);
        let retried = r.flags.contains(RecordFlags::RETRIED);
        let failed = r.status >= 500;
        availability.attempts += 1;
        if retried {
            availability.retried_attempts += 1;
        }
        if failed {
            availability.attempt_failures += 1;
        }
        if r.flags.contains(RecordFlags::SERVED_STALE) {
            availability.stale_serves += 1;
        }
        if r.flags.contains(RecordFlags::NEG_CACHED) {
            availability.neg_cached += 1;
        }
        if r.flags.contains(RecordFlags::COALESCED) {
            availability.coalesced += 1;
        }
        if !retried {
            if failed {
                availability.end_user_failures += 1;
            }
            match provider.category(host) {
                Some(category) => {
                    let entry = availability.per_industry.entry(category).or_default();
                    entry.1 += 1;
                    if failed {
                        entry.0 += 1;
                    }
                }
                None => availability.uncategorized += 1,
            }
        }
        match r.mime {
            MimeType::Json => {
                let c = classify(view.ua);
                sources.total += 1;
                *sources.requests_by_device.entry(c.device).or_default() += 1;
                if c.is_browser {
                    sources.browser_requests += 1;
                    match c.device {
                        DeviceType::Mobile => sources.mobile_browser_requests += 1,
                        DeviceType::Embedded => sources.embedded_browser_requests += 1,
                        _ => {}
                    }
                }
                match RequestType::from_method(r.method) {
                    RequestType::Download => requests.downloads += 1,
                    RequestType::Upload => requests.uploads += 1,
                    RequestType::Other => requests.other += 1,
                }
                responses.json_total += 1;
                if !r.cache.is_cacheable() {
                    responses.json_uncacheable += 1;
                }
                responses.json_sizes.record(r.response_bytes as f64);
                let entry = per_domain.entry(host).or_default();
                entry.1 += 1;
                if r.cache.is_cacheable() {
                    entry.0 += 1;
                }
                mix.json += 1;
            }
            MimeType::Html => {
                responses.html_sizes.record(r.response_bytes as f64);
                mix.html += 1;
            }
            _ => {}
        }
    }

    for ua in trace.ua_table() {
        let device = classify(Some(ua)).device;
        *sources.ua_strings_by_device.entry(device).or_default() += 1;
    }
    let mut heatmap = CacheabilityHeatmap {
        rows: BTreeMap::new(),
        uncategorized: 0,
    };
    for (host, (cacheable, total)) in per_domain {
        let Some(category) = provider.category(host) else {
            heatmap.uncategorized += 1;
            continue;
        };
        let fraction = cacheable as f64 / total as f64;
        let bucket = ((fraction * HEATMAP_BUCKETS as f64) as usize).min(HEATMAP_BUCKETS - 1);
        heatmap
            .rows
            .entry(category)
            .or_insert_with(|| vec![0; HEATMAP_BUCKETS])[bucket] += 1;
    }
    CharacterizationReport {
        sources,
        requests,
        responses,
        heatmap,
        availability,
        mix,
    }
}

fn assert_matches(what: &str, report: &CharacterizationReport, expected: &CharacterizationReport) {
    assert_eq!(report.sources, expected.sources, "{what}: traffic sources");
    assert_eq!(report.requests, expected.requests, "{what}: request types");
    assert_eq!(report.heatmap, expected.heatmap, "{what}: heatmap");
    assert_eq!(
        report.availability, expected.availability,
        "{what}: availability"
    );
    assert_eq!(report.mix, expected.mix, "{what}: content mix");
    // Counters and every size sample, in order.
    assert_eq!(
        format!("{:?}", report.responses),
        format!("{:?}", expected.responses),
        "{what}: responses"
    );
}

/// Checks `compute` and `compute_isolated` over `trace` against
/// `expected`.
fn assert_trace_matches(
    what: &str,
    trace: &Trace,
    threads: usize,
    expected: &CharacterizationReport,
) {
    let report = CharacterizationReport::compute(trace, &TokenCategoryProvider, threads);
    assert_matches(what, &report, expected);
    let (isolated, health) =
        CharacterizationReport::compute_isolated(trace, &TokenCategoryProvider, threads);
    assert!(health.is_complete(), "{what}: no shard quarantined");
    assert_matches(&format!("{what}, isolated"), &isolated, expected);
}

/// Checks the whole trace as one shard, the same records cut at uneven
/// points (one shard empty), and every shards × threads combination
/// against the oracle over the same records in the same order.
fn assert_routes_match_oracle(name: &str, trace: &Trace) {
    let records: Vec<LogRecord> = trace.records().copied().collect();
    let (a, b) = (records.len() / 7, records.len() * 3 / 5);
    let uneven = Trace::from_parts(
        trace.interner().clone(),
        [&records[..a], &records[a..a], &records[a..b], &records[b..]]
            .map(<[LogRecord]>::to_vec)
            .to_vec(),
    );
    let expected = oracle(trace, &TokenCategoryProvider);
    for (cut, trace) in [("one shard", trace), ("uneven shards", &uneven)] {
        for threads in [1usize, 4] {
            let what = format!("{name}, {cut} x {threads} threads");
            assert_trace_matches(&what, trace, threads, &expected);
        }
    }

    for shards in [1usize, 2, 8] {
        let sharded = Trace::from_trace(trace.clone(), shards);
        let expected = oracle(&sharded, &TokenCategoryProvider);
        for threads in [1usize, 4] {
            let what = format!("{name}, {shards} shards x {threads} threads");
            assert_trace_matches(&what, &sharded, threads, &expected);
        }
    }
}

#[test]
fn simulated_trace_matches_the_reference_model() {
    // Outages on a few domains, so retries, failures and serve-stale show
    // up in the availability fields.
    let workload = build(&WorkloadConfig::tiny(2019).scaled(0.3));
    let outages = (0..4)
        .map(|domain| OriginOutage {
            domain,
            window: Window::from_secs(30, 200),
        })
        .collect();
    let sim = SimConfig {
        fault: FaultPlan {
            outages,
            ..FaultPlan::default()
        },
        ..SimConfig::default()
    };
    let trace = run_default(&workload, &sim).trace;

    let expected = oracle(&trace, &TokenCategoryProvider);
    assert!(
        expected.availability.retried_attempts > 0,
        "outages must bite"
    );
    assert!(expected.availability.end_user_failures > 0);
    assert!(expected.heatmap.rows.len() > 5);
    assert_routes_match_oracle("simulated tiny trace", &trace);
}

/// A hand-built trace over the URL shapes `host_of` has to handle.
fn edge_case_trace() -> Trace {
    use CacheStatus::{Hit, Miss, NotCacheable as NoCache};
    use MimeType::{Css, Html, Json};

    let mut t = Trace::new();
    let app = t.intern_ua("NewsApp/1.0 (iPhone; iOS 12.4)");
    let browser = t.intern_ua(
        "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 \
         (KHTML, like Gecko) Chrome/74.0.3729.131 Safari/537.36",
    );
    let uas = [Some(app), Some(browser), None];
    let (none, stale, neg, coalesced, retried) = (
        RecordFlags::NONE,
        RecordFlags::SERVED_STALE,
        RecordFlags::NEG_CACHED,
        RecordFlags::COALESCED,
        RecordFlags::RETRIED,
    );
    let rows = [
        // A port and a scheme change do not make a second domain.
        ("https://a.example:8443/x", Json, Hit, 200, none),
        ("http://a.example/y", Json, NoCache, 200, none),
        ("https://news-1.example:8443/feed", Json, Hit, 200, none),
        ("http://news-1.example/feed?p=2", Json, NoCache, 503, none),
        // Scheme-relative with a query, no scheme, bare host.
        ("//c.example?q=1", Json, Miss, 200, stale),
        ("//sports-2.example?q=1", Json, Hit, 200, coalesced),
        ("d.example/path", Json, Hit, 500, none),
        ("e.example", Json, NoCache, 200, neg),
        ("game-3.example", Json, NoCache, 200, none),
        // No industry token.
        ("https://mystery.example/api", Json, Hit, 200, none),
        ("https://mystery.example/page", Html, Hit, 200, none),
        // Only HTML: counts for availability, not for the heatmap.
        ("https://travel-4.example/index.html", Html, Hit, 200, none),
        ("https://travel-4.example/style.css", Css, Hit, 500, none),
        // Only retried attempts: counts for the heatmap, not per industry.
        ("https://shop-5.example/cart", Json, Miss, 503, retried),
        ("https://shop-5.example/cart", Json, Miss, 502, retried),
    ];
    let methods = [Method::Get, Method::Post, Method::Get, Method::Delete];
    let mut i = 0u64;
    for round in 0..3u64 {
        for (url, mime, cache, status, flags) in rows {
            let url = t.intern_url(url);
            t.push(LogRecord {
                time: SimTime::from_millis(i * 7),
                client: ClientId(i % 5),
                ua: uas[(i % 3) as usize],
                url,
                method: methods[(i % 4) as usize],
                mime,
                status,
                response_bytes: 100 + (i * 37 + round) % 900,
                cache,
                retries: 0,
                flags,
            });
            i += 1;
        }
    }
    t
}

#[test]
fn edge_case_hosts_match_the_reference_model() {
    let trace = edge_case_trace();
    let expected = oracle(&trace, &TokenCategoryProvider);

    // The trace covers what it claims, as the oracle sees it.
    let heatmap = &expected.heatmap;
    assert_eq!(
        heatmap.uncategorized, 5,
        "a, c, d, e and mystery are one domain each"
    );
    assert_eq!(
        heatmap.rows[&IndustryCategory::NewsMedia][5],
        1,
        "both news-1 URLs are one half-cacheable domain"
    );
    assert!(!heatmap.rows.contains_key(&IndustryCategory::Travel));
    assert!(heatmap.rows.contains_key(&IndustryCategory::Ecommerce));
    let industries = &expected.availability.per_industry;
    assert!(industries.contains_key(&IndustryCategory::Travel));
    assert!(!industries.contains_key(&IndustryCategory::Ecommerce));

    assert_routes_match_oracle("edge-case trace", &trace);
}
