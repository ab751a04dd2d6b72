//! The JSON artifacts `jcdn-obs` writes, pinned byte for byte: a run
//! manifest with fixed perf fields, a window-series row, and a chrome
//! trace. CI compares manifests, series and traces across builds with
//! `cmp` and `jcdn obs diff`, so a change to any of these bytes is a
//! change to the artifact format, not a refactor.

use jcdn_json::Value;
use jcdn_obs::metrics::Histogram;
use jcdn_obs::span::{PhaseStat, SpanRecord};
use jcdn_obs::timeseries::{WindowSpec, WindowedCounters};
use jcdn_obs::{PoolReport, RunManifest};

/// A manifest whose every field is fixed: no `finish`, so no wall clock,
/// no drained spans or pools, and no RSS read.
fn fixed_manifest() -> RunManifest {
    let mut m = RunManifest::start("generate");
    m.param("seed", 42u64);
    m.param("out", "runs/a \"b\"\\c\td.jcdn");
    m.codec_version = 4;
    m.metrics.inc("sim.hits{edge=0}", 7);
    m.metrics.inc("sim.misses{edge=0}", 3);
    m.metrics.inc("workload.events", 10);
    m.metrics.gauge_max("pool.sim.edges.workers", 2);
    m.metrics.observe("pool.sim.edges.task_us", 0);
    m.metrics.observe("pool.sim.edges.task_us", 900);
    m.phases.insert(
        "simulate.run".to_string(),
        PhaseStat {
            count: 1,
            total_us: 1_500,
            max_us: 1_500,
        },
    );
    m.phases.insert(
        "workload.plan".to_string(),
        PhaseStat {
            count: 2,
            total_us: 300,
            max_us: 200,
        },
    );
    let mut latency = Histogram::default();
    latency.observe(5);
    latency.observe(70);
    m.pools.push(PoolReport {
        label: "sim.edges".to_string(),
        items: 3,
        workers: 3,
        worker_tasks: vec![2, 1, 0],
        busy_us: 800,
        wall_us: 500,
        task_panics: 0,
        task_latency_us: latency,
    });
    m.pools_dropped = 1;
    m.wall_us = 2_000;
    m
}

fn two_span_trace_manifest() -> RunManifest {
    let mut m = RunManifest::start("characterize");
    m.spans = vec![
        SpanRecord {
            name: "characterize.accumulate{shard=0}".to_string(),
            start_us: 10,
            duration_us: 250,
        },
        SpanRecord {
            name: "characterize.merge".to_string(),
            start_us: 260,
            duration_us: 40,
        },
    ];
    m.spans_dropped = 3;
    m
}

#[test]
fn manifest_bytes_are_pinned() {
    let expected = concat!(
        r#"{"manifest_version":1,"command":"generate","#,
        r#""params":{"out":"runs/a \"b\"\\c\td.jcdn","seed":"42"},"#,
        r#""codec_version":4,"fault_digest":null,"#,
        r#""counters":{"sim.hits{edge=0}":7,"sim.misses{edge=0}":3,"workload.events":10},"#,
        r#""perf":{"wall_us":2000,"peak_rss_kb":null,"#,
        r#""phases":{"simulate.run":{"count":1,"total_us":1500,"max_us":1500},"#,
        r#""workload.plan":{"count":2,"total_us":300,"max_us":200}},"#,
        r#""pools":[{"label":"sim.edges","items":3,"workers":3,"worker_tasks":[2,1,0],"#,
        r#""starved_workers":1,"busy_us":800,"wall_us":500,"task_panics":0,"#,
        r#""task_latency_us":{"count":2,"sum":75,"max":70,"buckets":{"7":1,"127":1}}}],"#,
        r#""spans_dropped":0,"pools_dropped":1,"#,
        r#""metrics":{"gauges":{"pool.sim.edges.workers":2},"#,
        r#""histograms":{"pool.sim.edges.task_us":{"count":2,"sum":900,"max":900,"#,
        r#""buckets":{"0":1,"1023":1}}}}}}"#,
    );
    assert_eq!(manifest_text(&fixed_manifest()), expected);
}

#[test]
fn window_rows_are_pinned() {
    let spec = match WindowSpec::parse("1m") {
        Ok(spec) => spec,
        Err(e) => unreachable!("static spec: {e}"),
    };
    let mut series = WindowedCounters::new(spec);
    series.inc(5_000_000, "sim.requests{edge=0}", 5);
    series.inc(59_000_000, "sim.hits{edge=0}", 2);
    series.inc(61_000_000, "sim.requests{edge=1}", 1);
    let expected = concat!(
        r#"{"stream":"sim","window":0,"start_us":0,"end_us":60000000,"#,
        r#""counters":{"sim.hits{edge=0}":2,"sim.requests{edge=0}":5}}"#,
        "\n",
        r#"{"stream":"sim","window":1,"start_us":60000000,"end_us":120000000,"#,
        r#""counters":{"sim.requests{edge=1}":1}}"#,
        "\n",
    );
    assert_eq!(series.to_jsonl("sim"), expected);
}

#[test]
fn chrome_trace_bytes_are_pinned() {
    let expected = concat!(
        r#"{"traceEvents":["#,
        r#"{"name":"characterize.accumulate{shard=0}","cat":"jcdn","ph":"X","#,
        r#""ts":10,"dur":250,"pid":1,"tid":1},"#,
        r#"{"name":"characterize.merge","cat":"jcdn","ph":"X","#,
        r#""ts":260,"dur":40,"pid":1,"tid":1}],"#,
        r#""displayTimeUnit":"ms","otherData":{"spans_dropped":"3"}}"#,
    );
    assert_eq!(trace_text(&two_span_trace_manifest()), expected);
}

fn manifest_text(m: &RunManifest) -> String {
    jcdn_json::to_string(&m.to_json())
}

fn trace_text(m: &RunManifest) -> String {
    jcdn_json::to_string(&m.chrome_trace_json())
}

/// Every control character, plus the two characters JSON escapes by name
/// outside that range.
fn control_characters() -> String {
    (0u8..0x20).map(char::from).chain(['"', '\\']).collect()
}

#[test]
fn manifest_round_trips_through_the_parser() {
    let mut m = fixed_manifest();
    m.param("path", control_characters());
    m.fault_digest = Some("00ff00ff00ff00ff".to_string());
    m.peak_rss_kb = Some(81_920);
    let doc = jcdn_json::parse(&manifest_text(&m)).unwrap();

    let params = doc.get("params").and_then(Value::as_object).unwrap();
    let params: Vec<(&str, &str)> = params
        .iter()
        .map(|(k, v)| (k, v.as_str().unwrap()))
        .collect();
    let expected: Vec<(&str, &str)> = m
        .params
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    assert_eq!(params, expected);

    let counters = doc.get("counters").and_then(Value::as_object).unwrap();
    let counters: Vec<(&str, u64)> = counters
        .iter()
        .map(|(k, v)| (k, v.as_u64().unwrap()))
        .collect();
    assert_eq!(counters, m.metrics.counters().collect::<Vec<_>>());

    let perf = doc.get("perf").unwrap();
    let phases = perf.get("phases").and_then(Value::as_object).unwrap();
    let phases: Vec<(&str, [u64; 3])> = phases
        .iter()
        .map(|(name, stat)| {
            let field = |key: &str| stat.get(key).and_then(Value::as_u64).unwrap();
            (name, [field("count"), field("total_us"), field("max_us")])
        })
        .collect();
    let expected: Vec<(&str, [u64; 3])> = m
        .phases
        .iter()
        .map(|(name, s)| (name.as_str(), [s.count, s.total_us, s.max_us]))
        .collect();
    assert_eq!(phases, expected);

    assert_eq!(
        doc.get("fault_digest").and_then(Value::as_str),
        Some("00ff00ff00ff00ff")
    );
    assert_eq!(
        perf.get("peak_rss_kb").and_then(Value::as_u64),
        Some(81_920)
    );
    assert_eq!(perf.get("wall_us").and_then(Value::as_u64), Some(2_000));
    let pool = perf.pointer("/pools/0").unwrap();
    assert_eq!(pool.get("label").and_then(Value::as_str), Some("sim.edges"));
    assert_eq!(
        pool.pointer("/task_latency_us/sum").and_then(Value::as_u64),
        Some(75)
    );
}

#[test]
fn chrome_trace_round_trips_through_the_parser() {
    let mut m = two_span_trace_manifest();
    m.spans[1].name = control_characters();
    let doc = jcdn_json::parse(&trace_text(&m)).unwrap();
    let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
    let events: Vec<SpanRecord> = events
        .iter()
        .map(|event| {
            assert_eq!(event.get("ph").and_then(Value::as_str), Some("X"));
            SpanRecord {
                name: event
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap()
                    .to_string(),
                start_us: event.get("ts").and_then(Value::as_u64).unwrap(),
                duration_us: event.get("dur").and_then(Value::as_u64).unwrap(),
            }
        })
        .collect();
    assert_eq!(events, m.spans);
    assert_eq!(
        doc.pointer("/otherData/spans_dropped")
            .and_then(Value::as_str),
        Some("3")
    );
}
