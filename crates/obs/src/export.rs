//! Exporters: Prometheus text exposition and chrome-trace span dumps.
//!
//! Both formats are *views* over data the crate already holds — a
//! [`MetricsSnapshot`] or a drained span list — so exporting never
//! perturbs the determinism contract: counters render byte-identically
//! for byte-identical snapshots, and spans (wall-clock perf data) only
//! ever feed the trace export.
//!
//! * `prometheus_text` renders the standard text exposition format
//!   (`# TYPE` headers, one sample per line). Our metric keys
//!   (`sim.hits{edge=3}`) map to Prometheus names (`jcdn_sim_hits`) with
//!   quoted label values; counters export as `counter`, gauges as
//!   `gauge`, and the fixed-bucket histograms as cumulative `histogram`
//!   families with `le` labels.
//! * `chrome_trace` renders the span ring as a Chrome trace-event JSON
//!   object (load it in `about://tracing` or Perfetto), with the ring's
//!   eviction count surfaced in the `otherData` footer so a truncated
//!   timeline is never mistaken for a complete one.

use std::collections::BTreeMap;

use jcdn_json::{Map, Value};

use crate::metrics::MetricsSnapshot;
use crate::span::SpanRecord;

/// Maps a metric family name to a Prometheus metric name: `jcdn_` prefix,
/// every character outside `[A-Za-z0-9_:]` folded to `_`
/// (`sim.tier_hits` → `jcdn_sim_tier_hits`).
pub(crate) fn prometheus_name(family: &str) -> String {
    let mut out = String::with_capacity(family.len() + 5);
    out.push_str("jcdn_");
    for c in family.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Splits a metric key into its family and label pairs:
/// `"sim.hits{edge=3,tier=1}"` → `("sim.hits", [("edge","3"),("tier","1")])`.
fn split_key(key: &str) -> (&str, Vec<(&str, &str)>) {
    let Some((family, rest)) = key.split_once('{') else {
        return (key, Vec::new());
    };
    let body = rest.strip_suffix('}').unwrap_or(rest);
    let labels = body
        .split(',')
        .filter(|part| !part.is_empty())
        .map(|part| part.split_once('=').unwrap_or((part, "")))
        .collect();
    (family, labels)
}

/// Renders a Prometheus label set: `{edge="3",tier="1"}`, empty string
/// when there are no labels. Values are escaped per the exposition
/// format (`\\`, `\"`, `\n`).
fn prometheus_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (name, value)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(name);
        out.push_str("=\"");
        for c in value.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// One exposition family: every sample sharing a metric name, collected
/// before emission so interleaved key orders (`cache.tier{…}` sorts
/// *after* `cache.tier_hits{…}`) still produce contiguous families.
type Families = BTreeMap<String, Vec<(String, u64)>>;

fn collect_families<'a>(pairs: impl Iterator<Item = (&'a str, u64)>) -> Families {
    let mut families = Families::new();
    for (key, value) in pairs {
        let (family, labels) = split_key(key);
        families
            .entry(prometheus_name(family))
            .or_default()
            .push((prometheus_labels(&labels), value));
    }
    families
}

fn emit_families(out: &mut String, families: &Families, kind: &str) {
    for (name, samples) in families {
        out.push_str(&format!("# TYPE {name} {kind}\n"));
        for (labels, value) in samples {
            out.push_str(&format!("{name}{labels} {value}\n"));
        }
    }
}

/// Renders a snapshot in the Prometheus text exposition format:
/// counters, then gauges, then histograms (cumulative `_bucket` series
/// plus `_sum` and `_count`), each family under its `# TYPE` header.
/// Deterministic for deterministic snapshots — families and samples
/// emit in BTreeMap order.
pub(crate) fn prometheus_text(metrics: &MetricsSnapshot) -> String {
    let mut out = String::new();
    emit_families(&mut out, &collect_families(metrics.counters()), "counter");
    emit_families(&mut out, &collect_families(metrics.gauges()), "gauge");
    for (key, hist) in metrics.histograms() {
        let (family, labels) = split_key(key);
        let name = prometheus_name(family);
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let mut cumulative = 0u64;
        for (edge, count) in hist.buckets() {
            cumulative += count;
            let le = if edge == "inf" { "+Inf" } else { edge };
            let mut with_le: Vec<(&str, &str)> = labels.clone();
            with_le.push(("le", le));
            out.push_str(&format!(
                "{name}_bucket{} {cumulative}\n",
                prometheus_labels(&with_le)
            ));
        }
        let plain = prometheus_labels(&labels);
        out.push_str(&format!("{name}_sum{plain} {}\n", hist.sum()));
        out.push_str(&format!("{name}_count{plain} {}\n", hist.count()));
    }
    out
}

/// Renders drained spans as a Chrome trace-event JSON object — complete
/// (`ph:"X"`) events on one process/thread track, microsecond
/// timestamps, with the ring's eviction count in the `otherData` footer
/// (a ring that wrapped shows `spans_dropped > 0`, so a truncated
/// timeline is self-describing).
pub(crate) fn chrome_trace(spans: &[SpanRecord], spans_dropped: u64) -> Value {
    let events = spans.iter().map(|span| {
        Value::Object(Map::from_iter([
            ("name", Value::from(span.name.as_str())),
            ("cat", Value::from("jcdn")),
            ("ph", Value::from("X")),
            ("ts", Value::from(span.start_us)),
            ("dur", Value::from(span.duration_us)),
            ("pid", Value::from(1u64)),
            ("tid", Value::from(1u64)),
        ]))
    });
    let footer = Map::from_iter([("spans_dropped", Value::from(spans_dropped.to_string()))]);
    Value::Object(Map::from_iter([
        ("traceEvents", Value::Array(events.collect())),
        ("displayTimeUnit", Value::from("ms")),
        ("otherData", Value::Object(footer)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_sanitize_and_prefix() {
        assert_eq!(prometheus_name("sim.hits"), "jcdn_sim_hits");
        assert_eq!(prometheus_name("cache.tier_hits"), "jcdn_cache_tier_hits");
    }

    #[test]
    fn keys_split_into_family_and_labels() {
        assert_eq!(split_key("sim.hits"), ("sim.hits", vec![]));
        assert_eq!(
            split_key("sim.hits{edge=3,tier=1}"),
            ("sim.hits", vec![("edge", "3"), ("tier", "1")])
        );
    }

    #[test]
    fn counters_and_gauges_expose_with_type_headers() {
        let mut m = MetricsSnapshot::new();
        m.inc("sim.requests{edge=0}", 7);
        m.inc("sim.requests{edge=1}", 3);
        m.inc("sim.retries", 2);
        m.gauge_max("pool.depth", 5);
        let text = prometheus_text(&m);
        assert!(text.contains("# TYPE jcdn_sim_requests counter\n"));
        assert!(text.contains("jcdn_sim_requests{edge=\"0\"} 7\n"));
        assert!(text.contains("jcdn_sim_requests{edge=\"1\"} 3\n"));
        assert!(text.contains("jcdn_sim_retries 2\n"));
        assert!(text.contains("# TYPE jcdn_pool_depth gauge\n"));
        assert!(text.contains("jcdn_pool_depth 5\n"));
    }

    #[test]
    fn families_stay_contiguous_despite_brace_sort_order() {
        // "cache.tier{…}" sorts after "cache.tier_hits" in BTreeMap key
        // order; the exposition must still group by family.
        let mut m = MetricsSnapshot::new();
        m.inc("cache.tier{edge=0}", 1);
        m.inc("cache.tier_hits", 2);
        let text = prometheus_text(&m);
        let headers: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE")).collect();
        assert_eq!(
            headers,
            vec![
                "# TYPE jcdn_cache_tier counter",
                "# TYPE jcdn_cache_tier_hits counter"
            ]
        );
    }

    #[test]
    fn histograms_expose_cumulative_buckets() {
        let mut m = MetricsSnapshot::new();
        m.observe("task.latency_us", 2);
        m.observe("task.latency_us", 1_000_000_000);
        let text = prometheus_text(&m);
        assert!(text.contains("# TYPE jcdn_task_latency_us histogram\n"));
        assert!(text.contains("jcdn_task_latency_us_bucket{le=\"3\"} 1\n"));
        assert!(text.contains("jcdn_task_latency_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("jcdn_task_latency_us_count 2\n"));
    }

    #[test]
    fn chrome_trace_carries_events_and_drop_footer() {
        let spans = vec![SpanRecord {
            name: "simulate.edge{edge=3}".to_string(),
            start_us: 10,
            duration_us: 250,
        }];
        let trace = chrome_trace(&spans, 7);
        let event = |key: &str| trace.pointer(&format!("/traceEvents/0/{key}")).cloned();
        assert_eq!(event("name"), Some(Value::from("simulate.edge{edge=3}")));
        assert_eq!(event("ph"), Some(Value::from("X")));
        assert_eq!(event("ts"), Some(Value::from(10u64)));
        assert_eq!(event("dur"), Some(Value::from(250u64)));
        assert_eq!(
            trace.pointer("/otherData/spans_dropped"),
            Some(&Value::from("7"))
        );
        let empty = chrome_trace(&[], 0);
        assert_eq!(empty.get("traceEvents"), Some(&Value::Array(Vec::new())));
    }
}
