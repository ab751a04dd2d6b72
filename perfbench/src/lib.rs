//! The repository benchmark: two warm, multi-pass workloads over the
//! paper's pipeline, with per-pass output checks and a traced run that
//! breaks a pass into its layers.
//!
//! Every layer is timed from outside, around the harness's calls into the
//! public API of `workload`, `cdnsim`, `trace`, `core` and `signal`; the
//! program itself gains no spans. Fan-out numbers come from the
//! `PoolReport`s that `exec` already files into the `jcdn_obs::pool` sink.
//! The crash-safe `store` is left out of every timed path, because its
//! fsyncs would time the disk rather than the program.
//!
//! A run builds its inputs from the seed, sets up (input generation plus
//! one untimed warm-up pass) several times, then alternates timed passes at
//! `nproc` threads and at 1 thread until its time is up. Timings are
//! medians over passes. On a 2-vCPU host, single cold passes of the
//! 1M-record pipeline ranged 2.0–3.2 s, and the first pass in a process was
//! up to 50% slower than later ones, so no timing here comes from a cold
//! pass.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use bytes::Bytes;
use jcdn_cdnsim::{run_sharded, CacheHierarchy, PolicyKind, SimConfig, SimStats, TierSpec};
use jcdn_core::characterize::TokenCategoryProvider;
use jcdn_core::dataset::simulate_workload_parallel;
use jcdn_core::periodicity::{self, PeriodicityReport, PeriodicityStudyConfig};
use jcdn_core::pipeline::CharacterizationReport;
use jcdn_core::prediction::{self, PredictionReport, PredictionStudyConfig};
use jcdn_obs::clock::{monotonic_us, Stopwatch};
use jcdn_obs::pool::PoolReport;
use jcdn_signal::periodicity::detect_period;
use jcdn_trace::flows::FlowSet;
use jcdn_trace::{codec, MimeType, ShardedTrace, SimDuration, SimTime, Trace};
use jcdn_workload::{build_parallel, Workload, WorkloadConfig};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 2] = ["pipeline-1m", "paper-analyses"];

/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Rounds (one timed pass per width) a run makes at least, however short
/// `--seconds` is.
const MIN_ROUNDS: usize = 2;

/// Shards of the `pipeline-1m` trace (the CLI's `--shards 8`).
const SHARDS: usize = 8;

/// Volume of the `paper-analyses` long-term trace, as a share of the preset.
const ANALYSES_SCALE: f64 = 1.0;

/// Volume of the ledger's short-term trace, as a share of the preset.
const LEDGER_SCALE: f64 = 0.1;

/// Length each `paper-analyses` client flow is cut to, in simulated seconds
/// (a power of two: the FFT length at the study's 1-s bins).
const CLIENT_SECS: u64 = 4096;

/// Object flows kept for `paper-analyses`, and clients kept per flow (the
/// study's minimum).
const FLOWS: usize = 2;
const CLIENTS: usize = 10;

/// Layer spans, in pipeline order. Each becomes a per-layer `<name>_s`
/// metric in the traced run.
pub const LAYERS: [&str; 11] = [
    "workload.build",
    "cdnsim.simulate",
    "cdnsim.lockstep",
    "trace.shard",
    "trace.encode",
    "trace.decode",
    "core.characterize",
    "core.periodicity",
    "trace.flows",
    "signal.detect",
    "core.prediction",
];

/// `exec` fan-out labels reported per layer (`exec.<label>.*`).
pub const POOL_LABELS: [&str; 7] = [
    "workload.generate",
    "sim.edges",
    "sim.hierarchy.epoch",
    "codec.encode",
    "codec.decode",
    "characterize.shards",
    "exec.pool",
];

/// Deterministic counts a speed-only change must leave unchanged.
pub const COUNTS: [(&str, &str); 10] = [
    ("workload.events", "count"),
    ("cdnsim.hit_ratio", "ratio"),
    ("cdnsim.retry_ratio", "ratio"),
    ("cdnsim.tier_hit_ratio.edge", "ratio"),
    ("cdnsim.tier_hit_ratio.regional", "ratio"),
    ("cdnsim.tier_hit_ratio.shield", "ratio"),
    ("trace.bytes_per_record", "B/record"),
    ("trace.shard_skew", "ratio"),
    ("core.periodic_flows", "count"),
    ("core.periodic_share", "ratio"),
];

/// What one benchmark run does.
#[derive(Clone, Debug)]
pub struct Options {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Time to spend on timed passes, in seconds.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input volume multiplier: 1 gives the benchmark's sizes, and only the
    /// smoke test sets anything else.
    pub scale: f64,
    /// Width of the parallel passes (`nproc`).
    pub threads: usize,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

/// A completed span: one harness call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name (one of [`LAYERS`], or `pass`).
    pub name: &'static str,
    /// Index of the enclosing span in the same unit.
    pub parent: Option<usize>,
    /// Start, µs on the process clock.
    pub start_us: u64,
    /// End, µs on the process clock.
    pub end_us: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_us.saturating_sub(self.start_us) as f64 / 1e6
    }
}

/// The spans and pool reports of one traced unit of work: a set-up, a
/// pass, or the ledger (see [`Unit::kind`]).
#[derive(Clone, Debug, Default)]
pub struct Unit {
    /// `setup`, `pass` or `ledger`.
    pub kind: &'static str,
    /// Spans in completion order.
    pub spans: Vec<Span>,
    /// Pool reports filed while the unit ran.
    pub pools: Vec<PoolReport>,
}

/// Outcome of a run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Passes whose output was checked (warm-up passes included).
    pub attempted: u64,
    /// Passes whose output failed its check, plus one if the pool sink
    /// dropped a report.
    pub failed: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Traced units (empty unless tracing).
    pub units: Vec<Unit>,
}

impl Report {
    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Records spans around harness calls, and the deterministic counts the
/// traced run reports. Disabled, it only runs the closures.
#[derive(Default)]
struct Tracer {
    on: bool,
    units: Vec<Unit>,
    current: Unit,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
    /// Pool reports the sink dropped; must stay 0.
    pool_dropped: u64,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            ..Tracer::default()
        }
    }

    /// Runs `f` inside a span named `name`.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.current.spans.len();
        self.current.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_us: monotonic_us(),
            end_us: 0,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.current.spans[index].end_us = monotonic_us();
        out
    }

    fn count(&mut self, name: &'static str, value: f64) {
        self.counts.insert(name, value);
    }

    /// Ends the current unit: drains the pool and span sinks so the next
    /// unit starts empty and no report is lost to the sink's cap. Units
    /// without a kind (untraced passes) are discarded.
    fn close(&mut self, kind: Option<&'static str>) {
        let (pools, dropped) = jcdn_obs::pool::drain();
        let _ = jcdn_obs::span::drain();
        self.pool_dropped += dropped;
        let mut unit = std::mem::take(&mut self.current);
        if let (true, Some(kind)) = (self.on, kind) {
            unit.kind = kind;
            unit.pools = pools;
            self.units.push(unit);
        }
    }
}

/// One workload: how to set it up, run a pass, and check a pass's output.
trait Bench: Sized {
    /// What a pass produces.
    type Output;
    /// What every pass must agree on exactly.
    type Digest: PartialEq;
    /// Layers a pass times; the ledger covers the rest.
    const PASS_LAYERS: &'static [&'static str];

    /// Builds inputs from the seed.
    fn setup(seed: u64, scale: f64, threads: usize, t: &mut Tracer) -> Self;
    /// One full pass at `threads`.
    fn pass(&self, threads: usize, t: &mut Tracer) -> Self::Output;
    /// Checks one pass's output on its own, outside the timed pass, and
    /// reduces it to its digest.
    fn verify(&self, out: Self::Output) -> Result<Self::Digest, String>;
    /// The trace a pass runs the §5.1 study on, if it does.
    fn study_trace(&self) -> Option<&Trace> {
        None
    }
}

/// Checks one pass's output and counts it in `report`. The output must pass
/// the workload's own check and agree with the first output that did.
fn check<B: Bench>(
    bench: &B,
    out: B::Output,
    reference: &mut Option<B::Digest>,
    report: &mut Report,
) {
    report.attempted += 1;
    let ok = match bench.verify(out) {
        Err(e) => {
            eprintln!("pass check failed: {e}");
            false
        }
        Ok(digest) => match reference {
            Some(first) if *first != digest => {
                eprintln!("pass check failed: output differs from the first pass");
                false
            }
            Some(_) => true,
            None => {
                *reference = Some(digest);
                true
            }
        },
    };
    report.failed += u64::from(!ok);
}

/// Runs one benchmark run.
pub fn run(opts: &Options) -> Result<Report, String> {
    match opts.workload.as_str() {
        "pipeline-1m" => Ok(drive::<Pipeline>(opts)),
        "paper-analyses" => Ok(drive::<Analyses>(opts)),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    }
}

fn drive<B: Bench>(opts: &Options) -> Report {
    let mut report = Report::default();
    let mut t = Tracer::new(opts.trace);
    jcdn_obs::pool::reset();
    jcdn_obs::span::reset();
    let nproc = opts.threads.max(1);
    let mut reference = None;

    // Set up several times: the median is steadier than one cold set-up,
    // and the last set-up's inputs are the ones the passes use.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut state: Option<B> = None;
    let setups = if opts.trace { 1 } else { SETUPS };
    for _ in 0..setups {
        // Drop the previous inputs first, so set-ups never overlap in memory.
        drop(state.take());
        let clock = Stopwatch::start();
        let bench = B::setup(opts.seed, opts.scale, nproc, &mut t);
        let warm = bench.pass(nproc, &mut t);
        let seconds = clock.elapsed_us() as f64 / 1e6;
        eprintln!("set-up: {seconds:.3} s");
        setup_s.push(seconds);
        check(&bench, warm, &mut reference, &mut report);
        t.close(Some("setup"));
        state = Some(bench);
    }
    let bench = state.expect("at least one set-up ran");

    let mut wall = Vec::new();
    let mut wall_t1 = Vec::new();
    let mut traced = Vec::new();
    let budget = Stopwatch::start();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || (budget.elapsed_us() as f64) < opts.seconds * 1e6 {
        rounds += 1;
        // Alternate the order so drift within a run hits both widths alike.
        let widths = if rounds % 2 == 1 {
            [nproc, 1]
        } else {
            [1, nproc]
        };
        // A traced run compares its traced passes with untraced ones at the
        // same width only.
        for threads in widths.into_iter().filter(|&w| !opts.trace || w == nproc) {
            let clock = Stopwatch::start();
            let out = bench.pass(threads, &mut Tracer::new(false));
            let seconds = clock.elapsed_us() as f64 / 1e6;
            eprintln!("pass at {threads} thread(s): {seconds:.3} s");
            check(&bench, out, &mut reference, &mut report);
            t.close(None);
            if threads == nproc {
                wall.push(seconds);
            }
            if threads == 1 {
                wall_t1.push(seconds);
            }
        }
        if opts.trace {
            let clock = Stopwatch::start();
            let out = t.span("pass", |t| bench.pass(nproc, t));
            traced.push(clock.elapsed_us() as f64 / 1e6);
            check(&bench, out, &mut reference, &mut report);
            t.close(Some("pass"));
        }
    }

    if opts.trace {
        ledger(
            opts.seed,
            B::PASS_LAYERS,
            bench.study_trace(),
            nproc,
            &mut t,
        );
        report.metrics = layer_metrics(&t, median(&traced) - median(&wall));
    } else {
        let peak_mb = jcdn_obs::manifest::peak_rss_kb().unwrap_or(0) as f64 / 1024.0;
        report.metrics = vec![
            metric("wall_s", median(&wall), "s"),
            metric("wall_t1_s", median(&wall_t1), "s"),
            metric("peak_rss_mb", peak_mb, "MB"),
            metric("setup_s", median(&setup_s), "s"),
        ];
    }
    if t.pool_dropped > 0 {
        // Dropped pool reports would silently skew the fan-out numbers.
        report.failed += 1;
    }
    report.units = std::mem::take(&mut t.units);
    report
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Median of `values` (0 when empty).
fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Per-unit samples of one measurement: from the set-ups and passes that
/// have one, or, when none has, from the ledger.
fn samples<T>(units: &[Unit], measure: impl Fn(&Unit) -> Option<T>) -> Vec<T> {
    let of = |ledger: bool| -> Vec<T> {
        units
            .iter()
            .filter(|u| (u.kind == "ledger") == ledger)
            .filter_map(&measure)
            .collect()
    };
    let own = of(false);
    if own.is_empty() {
        of(true)
    } else {
        own
    }
}

/// Per-layer metrics from the traced units. A layer's time is the median,
/// over the units that ran it, of its summed span time in that unit; the
/// fan-out numbers are medians in the same way.
fn layer_metrics(t: &Tracer, tracing_overhead_s: f64) -> Vec<Metric> {
    let mut out = Vec::new();
    for layer in LAYERS {
        let per_unit = samples(&t.units, |u| {
            let spans: Vec<&Span> = u.spans.iter().filter(|s| s.name == layer).collect();
            (!spans.is_empty()).then(|| spans.iter().map(|s| s.seconds()).sum::<f64>())
        });
        out.push(metric(&format!("{layer}_s"), median(&per_unit), "s"));
    }
    for label in POOL_LABELS {
        // (fan-outs, busy µs, capacity µs) per unit.
        let per_unit = samples(&t.units, |u| {
            let reports: Vec<&PoolReport> = u.pools.iter().filter(|r| r.label == label).collect();
            let busy: u64 = reports.iter().map(|r| r.busy_us).sum();
            let capacity: u64 = reports
                .iter()
                .map(|r| r.wall_us.saturating_mul(r.workers.max(1)))
                .sum();
            (!reports.is_empty()).then_some((reports.len(), busy, capacity))
        });
        let of =
            |f: fn(&(usize, u64, u64)) -> f64| median(&per_unit.iter().map(f).collect::<Vec<_>>());
        out.push(metric(
            &format!("exec.{label}.fanouts"),
            of(|u| u.0 as f64),
            "count",
        ));
        out.push(metric(
            &format!("exec.{label}.utilization"),
            of(|u| u.1 as f64 / u.2.max(1) as f64),
            "ratio",
        ));
        out.push(metric(
            &format!("exec.{label}.idle_s"),
            of(|u| u.2.saturating_sub(u.1) as f64 / 1e6),
            "s",
        ));
    }
    for (name, unit) in COUNTS {
        out.push(metric(
            name,
            t.counts.get(name).copied().unwrap_or(0.0),
            unit,
        ));
    }
    out.push(metric("bench.tracing_overhead_s", tracing_overhead_s, "s"));
    out
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        seed: seed ^ 0x5eed,
        ..SimConfig::default()
    }
}

/// The ledger's tiered simulator: 8 edges, each with an LRU tier, in front
/// of a shared TinyLFU regional tier and a shared S3-FIFO shield, synced
/// every simulated second. The tiers are a sixteenth of the 16/64/256 MiB
/// that `tiered-8edge` gave a twenty times larger input, so that every tier
/// evicts and the shield sees hits.
fn tiered_config(seed: u64) -> SimConfig {
    SimConfig {
        edges: 8,
        hierarchy: Some(CacheHierarchy {
            edge: TierSpec::lru("edge", 1 << 20),
            shared: vec![
                TierSpec::lru("regional", 4 << 20).with_policy(PolicyKind::TinyLfu),
                TierSpec::lru("shield", 16 << 20).with_policy(PolicyKind::S3Fifo),
            ],
            placement: jcdn_cdnsim::Placement::CopyEverywhere,
            sync_interval: CacheHierarchy::DEFAULT_SYNC_INTERVAL,
        }),
        ..sim_config(seed)
    }
}

fn build(config: &WorkloadConfig, threads: usize, t: &mut Tracer) -> Workload {
    let workload = t.span("workload.build", |_| build_parallel(config, threads));
    t.count("workload.events", workload.events.len() as f64);
    workload
}

fn count_sim(s: &SimStats, t: &mut Tracer) {
    t.count("cdnsim.hit_ratio", ratio(s.hits, s.requests));
    t.count("cdnsim.retry_ratio", ratio(s.retries_issued, s.requests));
}

fn count_tiers(s: &SimStats, t: &mut Tracer) {
    t.count(
        "cdnsim.tier_hit_ratio.edge",
        s.cacheable_hit_ratio().unwrap_or(0.0),
    );
    t.count(
        "cdnsim.tier_hit_ratio.regional",
        s.tier_hit_ratio(0).unwrap_or(0.0),
    );
    t.count(
        "cdnsim.tier_hit_ratio.shield",
        s.tier_hit_ratio(1).unwrap_or(0.0),
    );
}

/// What a `pipeline-1m` pass produces: the encoded trace, and the sharded
/// trace before encoding and after decoding, so the check can compare them.
struct Codec {
    encoded: Bytes,
    sharded: ShardedTrace,
    decoded: ShardedTrace,
}

/// Shards, encodes, decodes and characterizes `trace`.
fn codec_and_characterize(trace: Trace, threads: usize, t: &mut Tracer) -> Codec {
    let sharded = t.span("trace.shard", |_| ShardedTrace::from_trace(trace, SHARDS));
    let encoded = t
        .span("trace.encode", |_| {
            codec::encode_sharded_parallel(&sharded, threads)
        })
        .unwrap_or_else(|e| panic!("encode failed: {e}"));
    let decoded = t
        .span("trace.decode", |_| {
            codec::decode_sharded_parallel(&encoded, threads)
        })
        .unwrap_or_else(|e| panic!("own encoding failed to decode: {e}"));
    let report = t.span("core.characterize", |_| {
        CharacterizationReport::compute_sharded(&decoded, &TokenCategoryProvider, threads)
    });
    std::hint::black_box(&report);
    let records = sharded.len().max(1);
    t.count(
        "trace.bytes_per_record",
        encoded.len() as f64 / records as f64,
    );
    let largest = (0..sharded.shard_count())
        .map(|i| sharded.shard_records(i).len())
        .max()
        .unwrap_or(0);
    t.count(
        "trace.shard_skew",
        largest as f64 * sharded.shard_count() as f64 / records as f64,
    );
    Codec {
        encoded,
        sharded,
        decoded,
    }
}

/// `pipeline-1m`: the `jcdn generate` + `characterize` data path.
struct Pipeline {
    config: WorkloadConfig,
    seed: u64,
}

impl Bench for Pipeline {
    type Output = Codec;
    type Digest = Bytes;
    const PASS_LAYERS: &'static [&'static str] = &[
        "workload.build",
        "cdnsim.simulate",
        "trace.shard",
        "trace.encode",
        "trace.decode",
        "core.characterize",
    ];

    fn setup(seed: u64, scale: f64, _: usize, _: &mut Tracer) -> Self {
        Pipeline {
            config: WorkloadConfig::short_term(seed).scaled(2.0 * scale),
            seed,
        }
    }

    fn pass(&self, threads: usize, t: &mut Tracer) -> Self::Output {
        let workload = build(&self.config, threads, t);
        let sim = sim_config(self.seed);
        let data = t.span("cdnsim.simulate", |_| {
            simulate_workload_parallel(workload, &sim, threads)
        });
        count_sim(&data.stats, t);
        codec_and_characterize(data.trace, threads, t)
    }

    /// Decoding must give back every shard record for record, with the same
    /// URL and user-agent tables; every pass, at either width, must then
    /// encode to the same bytes.
    fn verify(&self, out: Codec) -> Result<Bytes, String> {
        let (before, after) = (&out.sharded, &out.decoded);
        if after.shard_count() != before.shard_count() {
            return Err(format!(
                "decoded {} shards, encoded {}",
                after.shard_count(),
                before.shard_count()
            ));
        }
        if let Some(i) =
            (0..before.shard_count()).find(|&i| after.shard_records(i) != before.shard_records(i))
        {
            return Err(format!("decoded shard {i} differs from the encoded one"));
        }
        let (a, b) = (after.interner(), before.interner());
        if a.url_table() != b.url_table() || a.ua_table() != b.ua_table() {
            return Err("decoded URL or user-agent table differs".to_string());
        }
        Ok(out.encoded)
    }
}

/// `paper-analyses`: the §5.1 periodicity study and the §5.2 Table 3 study
/// over a long-term trace.
struct Analyses {
    trace: Trace,
    /// Client flows the cut kept; the study's work is fixed only when this
    /// is `FLOWS * CLIENTS`.
    kept: usize,
}

impl Bench for Analyses {
    type Output = (PeriodicityReport, PredictionReport);
    type Digest = String;
    const PASS_LAYERS: &'static [&'static str] = &["core.periodicity", "core.prediction"];

    fn setup(seed: u64, scale: f64, threads: usize, t: &mut Tracer) -> Self {
        let config = WorkloadConfig::long_term(seed).scaled(ANALYSES_SCALE * scale);
        let workload = build(&config, threads, t);
        let sim = sim_config(seed);
        let out = t.span("cdnsim.simulate", |_| run_sharded(&workload, &sim, threads));
        count_sim(&out.stats, t);
        let mut trace = out.trace;
        // The study's cost is the number of series it tests times the FFT
        // length of each, and both swing several-fold between seeds at any
        // size that fits a run. So the input is a fixed amount of detector
        // work drawn from the seed's trace: the first FLOWS significant
        // object flows, CLIENTS clients each, every client flow cut to its
        // first CLIENT_SECS. Every client series then pads to the same FFT
        // length, and so does every object series (the study clips those to
        // 2^15 bins, and the kept ones span more than half of that).
        let study = PeriodicityStudyConfig::default();
        let flows = FlowSet::build(&trace, |r| r.mime == MimeType::Json)
            .apply_significance_filters(study.min_requests, study.min_clients);
        let cut = SimDuration::from_secs(CLIENT_SECS);
        let window = SimDuration::from_secs(study.detector.max_bins as u64);
        let mut kept = HashMap::new();
        for flow in &flows.flows {
            let mut clients = Vec::new();
            let mut merged = Vec::new();
            for cf in &flow.client_flows {
                let end = cf.times[0] + cut;
                let times: Vec<SimTime> =
                    cf.times.iter().copied().take_while(|&t| t < end).collect();
                let span = times[times.len() - 1] - times[0];
                if times.len() >= study.min_requests
                    && span > SimDuration::from_secs(CLIENT_SECS / 2)
                {
                    clients.push((cf.client, (times[0], end)));
                    merged.extend(times);
                }
                if clients.len() == CLIENTS {
                    break;
                }
            }
            // The object series, as the study clips it, must span more than
            // half its window too, and have a period: the study tests a
            // flow's clients only when it finds one.
            merged.sort_unstable();
            let t0 = merged.first().copied().unwrap_or(SimTime::ZERO);
            let object: Vec<f64> = merged
                .iter()
                .take_while(|&&t| t < t0 + window)
                .map(|t| t.as_secs_f64())
                .collect();
            let wide = object
                .last()
                .is_some_and(|&t| 2.0 * (t - t0.as_secs_f64()) > window.as_secs_f64());
            if clients.len() == CLIENTS && wide && detect_period(&object, &study.detector).is_some()
            {
                kept.extend(
                    clients
                        .into_iter()
                        .map(|(client, range)| ((flow.url, client), range)),
                );
            }
            if kept.len() == FLOWS * CLIENTS {
                break;
            }
        }
        trace.retain(|r| {
            r.mime == MimeType::Json
                && kept
                    .get(&(r.url, (r.client, r.ua)))
                    .is_some_and(|&(from, to)| r.time >= from && r.time < to)
        });
        eprintln!("cut: {} client flows", kept.len());
        Analyses {
            trace,
            kept: kept.len(),
        }
    }

    fn pass(&self, threads: usize, t: &mut Tracer) -> Self::Output {
        let config = PeriodicityStudyConfig {
            detector: jcdn_signal::periodicity::PeriodicityConfig {
                // The detector fans out over `available_parallelism()`, not
                // over a thread count it is given; pin it off for the
                // single-thread pass.
                parallel: threads > 1,
                ..PeriodicityStudyConfig::default().detector
            },
            ..PeriodicityStudyConfig::default()
        };
        let periodic = t.span("core.periodicity", |_| {
            periodicity::run_study(&self.trace, &config)
        });
        t.count("core.periodic_flows", periodic.periodic_flows.len() as f64);
        t.count("core.periodic_share", periodic.periodic_share());
        let table3 = t.span("core.prediction", |_| {
            prediction::run_study(&self.trace, &PredictionStudyConfig::default())
        });
        (periodic, table3)
    }

    /// The study must have run on the whole cut and found periodic flows;
    /// the reports must then be identical at both widths.
    fn verify(&self, (periodic, table3): Self::Output) -> Result<String, String> {
        if self.kept != FLOWS * CLIENTS {
            return Err(format!(
                "the cut kept {} client flows, not {}",
                self.kept,
                FLOWS * CLIENTS
            ));
        }
        if periodic.periodic_flows.is_empty() {
            return Err("the periodicity study found no periodic flow".to_string());
        }
        Ok(canonical_reports(&periodic, &table3))
    }

    fn study_trace(&self) -> Option<&Trace> {
        Some(&self.trace)
    }
}

/// A rendering of both reports that is equal exactly when the reports are
/// (hash-map contents sorted, floats by bit pattern).
fn canonical_reports(p: &PeriodicityReport, table3: &PredictionReport) -> String {
    let mut out = String::new();
    let mut periods: Vec<_> = p
        .object_periods
        .iter()
        .map(|(u, v)| (u.0, v.to_bits()))
        .collect();
    periods.sort_unstable();
    let mut fractions: Vec<_> = p
        .periodic_client_fraction
        .iter()
        .map(|(u, v)| (u.0, v.to_bits()))
        .collect();
    fractions.sort_unstable();
    let mut flows: Vec<_> = p
        .periodic_flows
        .iter()
        .map(|f| (f.url.0, f.client, f.period_seconds.to_bits(), f.requests))
        .collect();
    flows.sort_unstable();
    let _ = write!(
        out,
        "{periods:?}{fractions:?}{flows:?}{}/{}/{}/{}",
        p.periodic_requests, p.total_json_requests, p.periodic_uncacheable, p.periodic_uploads
    );
    for row in &table3.rows {
        let _ = write!(
            out,
            "|{}:{}:{}:{}",
            row.k,
            row.clustered.to_bits(),
            row.actual.to_bits(),
            row.popularity_baseline.to_bits()
        );
    }
    let _ = write!(
        out,
        "|{}/{}/{}",
        table3.test_transitions, table3.train_clients, table3.test_clients
    );
    out
}

/// Runs, once, every layer a workload's pass does not time, so the traced
/// run reports every layer for every workload. The input is a small
/// short-term trace from the same seed (LEDGER_SCALE of the preset), or,
/// for the §5.1 breakdown, the trace the pass studies when it has one. None
/// of this is inside a timed pass. Each stage is its own unit, so no unit
/// files more pool reports than the sink holds.
fn ledger(seed: u64, timed: &[&str], study_trace: Option<&Trace>, threads: usize, t: &mut Tracer) {
    let skip = |layer: &str| timed.contains(&layer);
    let workload = build_parallel(
        &WorkloadConfig::short_term(seed).scaled(LEDGER_SCALE),
        threads,
    );
    let trace = run_sharded(&workload, &sim_config(seed), threads).trace;
    t.close(Some("ledger"));
    if !skip("cdnsim.lockstep") {
        let out = t.span("cdnsim.lockstep", |_| {
            run_sharded(&workload, &tiered_config(seed), threads)
        });
        count_tiers(&out.stats, t);
        t.close(Some("ledger"));
    }
    if !skip("trace.encode") {
        codec_and_characterize(trace.clone(), threads, t);
        t.close(Some("ledger"));
    }
    let study = PeriodicityStudyConfig::default();
    if !skip("core.periodicity") {
        let periodic = t.span("core.periodicity", |_| {
            periodicity::run_study(&trace, &study)
        });
        t.count("core.periodic_flows", periodic.periodic_flows.len() as f64);
        t.count("core.periodic_share", periodic.periodic_share());
        let table3 = t.span("core.prediction", |_| {
            prediction::run_study(&trace, &PredictionStudyConfig::default())
        });
        std::hint::black_box(table3);
        t.close(Some("ledger"));
    }
    // `core::periodicity::run_study` is one call; its first two stages are
    // timed here by repeating them outside it.
    let trace = study_trace.unwrap_or(&trace);
    let flows = t.span("trace.flows", |_| {
        FlowSet::build(trace, |r| r.mime == MimeType::Json)
            .apply_significance_filters(study.min_requests, study.min_clients)
    });
    let detected = t.span("signal.detect", |_| {
        flows
            .flows
            .iter()
            .filter_map(|flow| {
                let times: Vec<f64> = flow
                    .merged_times()
                    .iter()
                    .map(|time| time.as_secs_f64())
                    .collect();
                detect_period(&times, &study.detector)
            })
            .count()
    });
    std::hint::black_box(detected);
    t.close(Some("ledger"));
}
