//! Cross-crate integration tests: the full pipeline
//! (workload → CDN simulation → trace → analysis) must recover the
//! populations the generator planted.

use jcdn::core::characterize::TokenCategoryProvider;
use jcdn::core::dataset::simulate;
use jcdn::core::pipeline::CharacterizationReport;
use jcdn::trace::codec::{decode, encode, to_jsonl};
use jcdn::trace::summary::DatasetSummary;
use jcdn::ua::DeviceType;
use jcdn::workload::WorkloadConfig;

fn dataset() -> jcdn::core::dataset::Dataset {
    simulate(&WorkloadConfig::tiny(0xD0E))
}

fn characterize(data: &jcdn::core::dataset::Dataset) -> CharacterizationReport {
    CharacterizationReport::compute(&data.trace, &TokenCategoryProvider, 1)
}

#[test]
fn device_mix_is_recovered_from_the_logs() {
    let data = dataset();
    let b = characterize(&data).sources;

    // Ground truth from the workload (per-event device labels).
    let w = &data.workload;
    let mut truth_mobile = 0usize;
    let mut truth_total = 0usize;
    for e in &w.events {
        if w.objects[e.object as usize].mime != jcdn::trace::MimeType::Json {
            continue;
        }
        truth_total += 1;
        if w.clients[e.client as usize].device == DeviceType::Mobile {
            truth_mobile += 1;
        }
    }
    let truth_share = truth_mobile as f64 / truth_total as f64;
    let measured = b.request_share(DeviceType::Mobile);
    // The classifier reads UA strings only; it must land within 3pp of the
    // planted share.
    assert!(
        (measured - truth_share).abs() < 0.03,
        "planted {truth_share}, classified {measured}"
    );
}

#[test]
fn request_and_response_shapes_match_paper_targets() {
    let data = dataset();
    let report = characterize(&data);
    let req = &report.requests;
    assert!(
        (req.download_share() - 0.84).abs() < 0.08,
        "GET share {}",
        req.download_share()
    );
    assert!(req.upload_share_of_rest() > 0.9);

    let mut resp = report.responses;
    let uncacheable = resp.uncacheable_share();
    assert!(
        (0.42..0.72).contains(&uncacheable),
        "uncacheable share {uncacheable}"
    );
    let p75 = resp.json_smaller_than_html_at(0.75).unwrap();
    assert!(
        p75 > 0.5,
        "JSON must be much smaller than HTML at p75: {p75}"
    );
}

#[test]
fn heatmap_separates_content_from_personalized_industries() {
    use jcdn::workload::IndustryCategory;
    let data = dataset();
    let h = characterize(&data).heatmap;
    let news = h.row_mean(IndustryCategory::NewsMedia);
    let financial = h.row_mean(IndustryCategory::FinancialServices);
    if let (Some(news), Some(financial)) = (news, financial) {
        assert!(
            news > financial + 0.25,
            "news {news} must be far more cacheable than financial {financial}"
        );
    }
}

#[test]
fn trace_round_trips_through_the_binary_codec() {
    let data = dataset();
    let encoded = encode(&data.trace, 1).expect("simulator traces are sorted");
    let decoded = decode(&encoded, 1).expect("decode");
    assert_eq!(decoded.shard_count(), 1);
    assert!(decoded.records().eq(data.trace.records()));
    assert_eq!(decoded.url_table(), data.trace.url_table());
    // Summaries agree as well.
    let a = DatasetSummary::compute("x", &data.trace);
    let b = DatasetSummary::compute("x", &decoded);
    assert_eq!(a, b);
}

#[test]
fn jsonl_export_parses_line_by_line() {
    let data = simulate(&WorkloadConfig::tiny(0xD0E).scaled(0.05));
    let jsonl = to_jsonl(&data.trace);
    let mut lines = 0;
    for line in jsonl.lines() {
        let v = jcdn::json::parse(line).expect("every JSONL line parses");
        assert!(v.get("url").is_some());
        assert!(v.get("time_us").is_some());
        lines += 1;
    }
    assert_eq!(lines, data.trace.len());
}

#[test]
fn simulator_cache_statuses_are_consistent_with_universe() {
    let data = dataset();
    let w = &data.workload;
    // NotCacheable records ↔ uncacheable objects, exactly.
    for view in data.trace.iter() {
        let object = w
            .objects
            .iter()
            .find(|o| o.url == view.url)
            .expect("every logged URL exists in the universe");
        assert_eq!(
            view.record.cache == jcdn::trace::CacheStatus::NotCacheable,
            !object.cacheable,
            "cache flag mismatch for {}",
            view.url
        );
    }
}

#[test]
fn dataset_summary_matches_config_shape() {
    let data = dataset();
    let s = data.summary();
    assert_eq!(s.logs, data.trace.len());
    assert!(s.domains <= data.workload.config.domains);
    assert!(s.clients > 0);
    assert!(
        s.json_logs * 10 > s.logs * 5,
        "JSON must dominate the trace"
    );
}
