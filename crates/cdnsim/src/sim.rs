//! The event-driven simulation engine.
//!
//! ## Shared-tier determinism
//!
//! With a [`CacheHierarchy`] that has shared tiers, the engine runs under
//! the epoch discipline described in [`crate::hierarchy`]: simulated time
//! is cut into `sync_interval` epochs; within an epoch every shared-tier
//! lookup reads the epoch-start snapshot and mutations are logged; at the
//! boundary the log is applied in `(time, edge, eseq)` order. The
//! sequential combined loop and the per-edge lockstep parallel driver
//! ([`run_sharded`]) cut identical epochs and apply identical sorted
//! logs, so their outputs are byte-identical.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Mutex;

use jcdn_obs::metrics::{key, MetricsSnapshot};
use jcdn_obs::timeseries::{WindowSpec, WindowedCounters};
use jcdn_stats::Summary;
use jcdn_trace::{
    CacheStatus, ClientId, Interner, LogRecord, MimeType, RecordFlags, SimDuration, SimTime, Trace,
    UaId, UrlId,
};
use jcdn_workload::{ClientInfo, ObjectInfo, SizeModel, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cache::{mix64, IdMap, Lookup, PolicyCache};
use crate::fault::{backoff, FaultPlan, FaultState, ResilienceConfig};
use crate::hierarchy::{
    build_shared_tiers, flush_accesses, AccessKind, CacheHierarchy, Placement, TierAccess,
};
use crate::latency::LatencyModel;

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of edge servers (the paper's long-term dataset covers three
    /// vantage points).
    pub edges: usize,
    /// Full N-level cache hierarchy; `None` is [`CacheHierarchy::default`],
    /// one LRU edge tier.
    pub hierarchy: Option<CacheHierarchy>,
    /// Network delays.
    pub latency: LatencyModel,
    /// Fixed CPU cost of handling one request at the edge.
    pub service_base: SimDuration,
    /// Additional CPU cost per KiB of response ("a large chunk of the total
    /// request cost is tied to CPU request processing", §4).
    pub service_per_kb: SimDuration,
    /// Injected faults: outages, degradations, edge flaps, and the origin
    /// error model.
    pub fault: FaultPlan,
    /// Client retry policy and edge graceful degradation.
    pub resilience: ResilienceConfig,
    /// RNG seed (response sizes, latency jitter, errors).
    pub seed: u64,
    /// When set, the simulator also accumulates per-window edge/tier
    /// counters over the simulated timeline ([`SimOutput::series`]).
    /// Windowing is pure observation: it never changes the trace or the
    /// run-total stats, and the per-window counters are byte-identical
    /// across shard/thread counts (buckets are keyed by simulated arrival
    /// time, which no schedule can move).
    pub window: Option<WindowSpec>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            edges: 3,
            hierarchy: None,
            latency: LatencyModel::default(),
            service_base: SimDuration::from_micros(200),
            service_per_kb: SimDuration::from_micros(20),
            fault: FaultPlan::default(),
            resilience: ResilienceConfig::default(),
            seed: 0x5eed,
            window: None,
        }
    }
}

impl SimConfig {
    /// The effective hierarchy: [`SimConfig::hierarchy`] when set, else
    /// [`CacheHierarchy::default`].
    pub(crate) fn resolved_hierarchy(&self) -> CacheHierarchy {
        self.hierarchy.clone().unwrap_or_default()
    }
}

/// Scheduling priority of a request at the edge.
///
/// §5.1/§7 of the paper propose deprioritizing machine-to-machine traffic
/// "since a human is not waiting for the response"; the service queue
/// serves all `Normal` requests before any `Deprioritized` one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Human-facing traffic (served first).
    #[default]
    Normal,
    /// Machine-to-machine traffic (served when no normal work waits).
    Deprioritized,
}

/// What a [`Policy`] decides about one request.
#[derive(Clone, Debug, Default)]
pub struct PolicyOutcome {
    /// Objects to prefetch into this edge's cache.
    pub prefetch: Vec<u32>,
    /// The request's scheduling priority.
    pub priority: Priority,
}

/// Everything a policy can see about one arriving request.
#[derive(Debug)]
pub struct RequestCtx<'a> {
    /// Arrival time.
    pub time: SimTime,
    /// Client index.
    pub client: u32,
    /// Requested object index.
    pub object: u32,
    /// Edge the request was routed to.
    pub edge: usize,
    /// The object universe.
    pub objects: &'a [ObjectInfo],
    /// The client population.
    pub clients: &'a [ClientInfo],
}

/// A per-request hook: prefetching, deprioritization, anomaly scoring.
pub trait Policy {
    /// Called for every arriving request, before cache lookup.
    fn on_request(&mut self, ctx: &RequestCtx<'_>) -> PolicyOutcome;
}

/// The default policy: no prefetch, everything `Normal`.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopPolicy;

impl Policy for NoopPolicy {
    fn on_request(&mut self, _ctx: &RequestCtx<'_>) -> PolicyOutcome {
        PolicyOutcome::default()
    }
}

/// Aggregate simulation statistics, and the simulator's one counter type.
///
/// During a run every event is counted once, where it happens, into a
/// *tally*: the `SimStats` of one edge and one window bucket. A run's
/// totals are the merge of its tallies, and its
/// per-edge manifest counters and window rows are the same tallies keyed
/// for the manifest. The latency summaries are the exception: they are
/// recorded run-wide, in completion order.
#[derive(Clone, Debug, Default)]
pub struct SimStats {
    /// Requests served.
    pub requests: u64,
    /// Cacheable requests served from edge cache.
    pub hits: u64,
    /// Cacheable requests fetched from origin.
    pub misses: u64,
    /// Requests for uncacheable objects (tunneled to origin).
    pub not_cacheable: u64,
    /// Total origin round trips (misses + uncacheable + prefetches).
    pub origin_fetches: u64,
    /// Per-shared-tier hits: `tier_hits[t]` counts cacheable edge misses
    /// served by shared tier `t` (0 = nearest the edge). Empty without
    /// shared tiers.
    pub tier_hits: Vec<u64>,
    /// Per-shared-tier misses: `tier_misses[t]` counts lookups that walked
    /// past tier `t` to a deeper tier or the origin. The last element is
    /// the fall-through-to-origin count.
    pub tier_misses: Vec<u64>,
    /// Prefetches issued by the policy.
    pub prefetch_issued: u64,
    /// Prefetches that completed and were inserted.
    pub prefetch_completed: u64,
    /// Demand hits on prefetched entries (usefulness numerator).
    pub prefetch_useful: u64,
    /// Response bytes served from cache.
    pub bytes_cache: u64,
    /// Response bytes fetched from origin (incl. prefetch).
    pub bytes_origin: u64,
    /// JSON-only counters (the paper's cacheability numbers are JSON-only).
    pub json_requests: u64,
    /// JSON requests served from cache.
    pub json_hits: u64,
    /// JSON cacheable requests that missed.
    pub json_misses: u64,
    /// JSON uncacheable requests.
    pub json_not_cacheable: u64,
    /// End-to-end latency of `Normal` requests (seconds).
    pub latency_normal: Summary,
    /// End-to-end latency of `Deprioritized` requests (seconds).
    pub latency_depri: Summary,
    /// Retries scheduled by failed attempts (each adds one log record).
    pub retries_issued: u64,
    /// 5xx responses with no retry after them — failures the end user saw.
    pub end_user_failures: u64,
    /// Responses answered with an expired entry inside the stale-if-error
    /// grace window because the origin was unavailable.
    pub stale_serves: u64,
    /// Lookups answered by the negative cache (fast 5xx or stale serve)
    /// without re-contacting a known-bad origin.
    pub neg_cache_serves: u64,
    /// Cache hits that had to wait for an in-flight origin fetch of the
    /// same object (request coalescing).
    pub coalesced_waits: u64,
    /// Origin attempts that failed: hard outage (503), degradation tripping
    /// the origin timeout (504), or a stochastic error (500).
    pub origin_errors: u64,
}

impl SimStats {
    /// Hit ratio over cacheable traffic.
    pub fn cacheable_hit_ratio(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }

    /// Cacheable edge misses served by any shared tier — the old
    /// parent-tier hit counter, generalized over N tiers.
    pub fn parent_hits(&self) -> u64 {
        self.tier_hits.iter().sum()
    }

    /// Cacheable edge misses that fell through every shared tier to the
    /// origin — the old parent-tier miss counter, generalized.
    pub fn parent_misses(&self) -> u64 {
        self.tier_misses.last().copied().unwrap_or(0)
    }

    /// Hit ratio of shared tier `t` over the lookups that reached it.
    pub fn tier_hit_ratio(&self, t: usize) -> Option<f64> {
        let hits = self.tier_hits.get(t).copied()?;
        let reached = hits + self.tier_misses.get(t).copied()?;
        (reached > 0).then(|| hits as f64 / reached as f64)
    }

    /// Logical requests: attempts minus the retries that re-entered the
    /// queue (i.e. the number of workload events served).
    pub fn logical_requests(&self) -> u64 {
        self.requests.saturating_sub(self.retries_issued)
    }

    /// Share of logical requests whose final answer was a 5xx.
    pub fn end_user_error_rate(&self) -> Option<f64> {
        let logical = self.logical_requests();
        (logical > 0).then(|| self.end_user_failures as f64 / logical as f64)
    }

    /// Adds `other`'s counters and latency summaries into `self`. Every
    /// integer counter merges exactly (tier vectors merge elementwise);
    /// the latency [`Summary`]s combine via their own merge (counts exact,
    /// moments to float precision).
    pub(crate) fn merge(&mut self, other: &SimStats) {
        self.requests += other.requests;
        self.hits += other.hits;
        self.misses += other.misses;
        self.not_cacheable += other.not_cacheable;
        self.origin_fetches += other.origin_fetches;
        merge_tier_counts(&mut self.tier_hits, &other.tier_hits);
        merge_tier_counts(&mut self.tier_misses, &other.tier_misses);
        self.prefetch_issued += other.prefetch_issued;
        self.prefetch_completed += other.prefetch_completed;
        self.prefetch_useful += other.prefetch_useful;
        self.bytes_cache += other.bytes_cache;
        self.bytes_origin += other.bytes_origin;
        self.json_requests += other.json_requests;
        self.json_hits += other.json_hits;
        self.json_misses += other.json_misses;
        self.json_not_cacheable += other.json_not_cacheable;
        self.latency_normal.merge(&other.latency_normal);
        self.latency_depri.merge(&other.latency_depri);
        self.retries_issued += other.retries_issued;
        self.end_user_failures += other.end_user_failures;
        self.stale_serves += other.stale_serves;
        self.neg_cache_serves += other.neg_cache_serves;
        self.coalesced_waits += other.coalesced_waits;
        self.origin_errors += other.origin_errors;
    }

    /// Counts one attempt by the cache status it ended with: a hit, a
    /// cacheable miss or an uncacheable request, plus its JSON twin.
    fn count_outcome(&mut self, cache: CacheStatus, is_json: bool) {
        let (all, json) = match cache {
            CacheStatus::Hit => (&mut self.hits, &mut self.json_hits),
            CacheStatus::Miss => (&mut self.misses, &mut self.json_misses),
            CacheStatus::NotCacheable => (&mut self.not_cacheable, &mut self.json_not_cacheable),
        };
        self.requests += 1;
        *all += 1;
        if is_json {
            self.json_requests += 1;
            *json += 1;
        }
    }

    /// Adds the manifest's counters into `snapshot`, labeled with `edge`
    /// (`sim.hits{edge=0}`, `cache.tier_hits{edge=0,tier=1}`, …). Zero
    /// counters create no keys, so per-edge subset runs merge to exactly
    /// the combined run's snapshot.
    fn record_into(&self, edge: usize, snapshot: &mut MetricsSnapshot) {
        let e = edge as u64;
        for (name, value) in [
            ("sim.requests", self.requests),
            ("sim.hits", self.hits),
            ("sim.misses", self.misses),
            ("sim.not_cacheable", self.not_cacheable),
            ("sim.stale_serves", self.stale_serves),
            ("sim.neg_cache_serves", self.neg_cache_serves),
            ("sim.coalesced", self.coalesced_waits),
            ("sim.retries", self.retries_issued),
            ("sim.origin_errors", self.origin_errors),
            ("sim.end_user_failures", self.end_user_failures),
        ] {
            snapshot.inc(&key(name, &[("edge", e)]), value);
        }
        for (t, (&hits, &misses)) in self.tier_hits.iter().zip(&self.tier_misses).enumerate() {
            let labels = [("edge", e), ("tier", t as u64)];
            snapshot.inc(&key("cache.tier_hits", &labels), hits);
            snapshot.inc(&key("cache.tier_misses", &labels), misses);
        }
    }
}

/// Elementwise add, growing `into` to `from`'s length first.
fn merge_tier_counts(into: &mut Vec<u64>, from: &[u64]) {
    if into.len() < from.len() {
        into.resize(from.len(), 0);
    }
    for (dst, src) in into.iter_mut().zip(from) {
        *dst += src;
    }
}

/// The simulator's output: the edge logs and the aggregate stats.
#[derive(Clone, Debug)]
pub struct SimOutput {
    /// Request logs in arrival order (§3.1 schema).
    pub trace: Trace,
    /// Aggregate counters and latency summaries.
    pub stats: SimStats,
    /// Per-edge observability counters (`sim.hits{edge=0}`, …), keyed for
    /// the run manifest. Deterministic: every stream behind them is
    /// per-edge seeded, so the snapshot is identical for any shard or
    /// thread count (`merge` across per-edge runs equals the combined
    /// run's snapshot).
    pub metrics: MetricsSnapshot,
    /// Per-window edge/tier counters over the simulated timeline, present
    /// when [`SimConfig::window`] was set. Same key vocabulary as
    /// [`SimOutput::metrics`], bucketed by request arrival time; the
    /// per-window rows carry everything rolling availability needs
    /// (`sim.requests`, `sim.retries`, `sim.end_user_failures` per edge).
    /// Deterministic for the same reason the run totals are.
    pub series: Option<WindowedCounters>,
}

/// A run's tallies: one [`SimStats`] per edge and window bucket.
struct Tallies {
    /// `per_edge[e]` maps a window bucket to edge `e`'s counters in it.
    per_edge: Vec<BTreeMap<u64, SimStats>>,
    window: Option<WindowSpec>,
    /// A zeroed tally with one slot per shared tier.
    empty: SimStats,
}

impl Tallies {
    /// The tally for an event on `edge` at simulated time `time`: the
    /// window bucket of `time`, or bucket 0 when the run has no window.
    /// No schedule can move a simulated time, so the tallies are the same
    /// for any shard or thread count.
    fn at(&mut self, edge: usize, time: SimTime) -> &mut SimStats {
        let bucket = self
            .window
            .map_or(0, |spec| spec.bucket_of(time.as_micros()));
        self.per_edge[edge]
            .entry(bucket)
            .or_insert_with(|| self.empty.clone())
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum InternalEvent {
    /// Edge server finished the CPU service of a queued request.
    ServiceDone { edge: usize },
    /// A prefetch fetch returned from origin.
    PrefetchDone { edge: usize, object: u32 },
    /// A client re-issues a failed request after backing off.
    Retry {
        widx: usize,
        attempt: u8,
        priority: Priority,
    },
}

/// A queued request: (priority, arrival, seq, workload index, attempt).
type QueuedRequest = (Priority, SimTime, u64, usize, u8);

struct Edge {
    cache: PolicyCache,
    busy_until: SimTime,
    /// Waiting requests, served in priority-then-arrival order.
    queue: BinaryHeap<Reverse<QueuedRequest>>,
    /// Request currently in service.
    in_service: Option<(usize, SimTime, Priority, u8)>,
    /// Origin-unavailability verdicts: object → (valid until, status).
    neg_cache: IdMap<u32, (SimTime, u16)>,
    /// Outstanding origin fetches: object → completion time, for request
    /// coalescing.
    in_flight: IdMap<u32, SimTime>,
}

/// Routes a request to an edge, skipping edges that are flapped out of
/// rotation at `t`. With no flaps this is the plain `hash % edges` of the
/// original simulator; when every edge is down, routing falls back to it
/// too (the request has to land somewhere).
fn route_edge(fault: &FaultPlan, edges: usize, ip_hash: u64, t: SimTime) -> usize {
    if fault.flaps.is_empty() {
        return (ip_hash % edges as u64) as usize;
    }
    let up: Vec<usize> = (0..edges).filter(|&e| !fault.edge_down(e, t)).collect();
    if up.is_empty() {
        return (ip_hash % edges as u64) as usize;
    }
    up[(ip_hash % up.len() as u64) as usize]
}

/// Derives a statistically independent per-edge stream seed from the base
/// seed: SplitMix64 over a golden-ratio stride, i.e. the `edge`-th output
/// of a SplitMix64 stream started at `seed`.
fn edge_seed(seed: u64, edge: usize) -> u64 {
    mix64(seed.wrapping_add((edge as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Smallest epoch boundary strictly after `t`.
fn next_epoch_boundary(t: SimTime, interval: SimDuration) -> SimTime {
    let iv = interval.as_micros().max(1);
    SimTime::from_micros((t.as_micros() / iv + 1).saturating_mul(iv))
}

/// Runs the workload through the simulated CDN with the given policy.
pub fn run(workload: &Workload, config: &SimConfig, policy: &mut dyn Policy) -> SimOutput {
    let table = RunTable::new(workload, config);
    run_inner(workload, config, policy, &table, None)
}

/// A run's per-object and per-client constants, resolved once before any
/// request is simulated, so the request path reads one compact row and
/// never an [`ObjectInfo`] or [`ClientInfo`]. Every object URL and client
/// UA is interned here, in workload order: ids are therefore independent
/// of policy decisions and the same in every per-edge machine of a run,
/// whose logs then share one interner.
struct RunTable {
    interner: Interner,
    objects: Vec<ObjectRow>,
    clients: Vec<ClientRow>,
}

/// One object's constants on the request path.
struct ObjectRow {
    url: UrlId,
    size: SizeModel,
    /// CPU service cost at the edge.
    service: SimDuration,
    ttl: SimDuration,
    domain: u32,
    mime: MimeType,
    cacheable: bool,
}

/// One client's constants on the request path.
struct ClientRow {
    ip_hash: u64,
    ua: Option<UaId>,
}

impl RunTable {
    fn new(workload: &Workload, config: &SimConfig) -> RunTable {
        let mut interner = Interner::new();
        let objects = workload
            .objects
            .iter()
            .map(|o| ObjectRow {
                url: interner.intern_url(&o.url),
                size: o.size_model(),
                service: service_time(config, o),
                ttl: o.ttl,
                domain: o.domain,
                mime: o.mime,
                cacheable: o.cacheable,
            })
            .collect();
        let clients = workload
            .clients
            .iter()
            .map(|c| ClientRow {
                ip_hash: c.ip_hash,
                ua: c.ua.as_deref().map(|ua| interner.intern_ua(ua)),
            })
            .collect();
        RunTable {
            interner,
            objects,
            clients,
        }
    }
}

/// CPU service cost of one request for `object`: base + per-KiB of its
/// (expected) body.
fn service_time(config: &SimConfig, object: &ObjectInfo) -> SimDuration {
    let kb = (object.size_median / 1024.0).ceil() as u64;
    config.service_base + SimDuration::from_micros(config.service_per_kb.as_micros() * kb.max(1))
}

/// The per-run simulation state: every edge's caches, queues, RNG streams
/// and counter tallies, the event heap, the arrival cursor, and the
/// shared-tier access log. The combined sequential run and the per-edge
/// lockstep parallel run drive identical code.
struct Machine<'w> {
    workload: &'w Workload,
    config: &'w SimConfig,
    only_edge: Option<usize>,
    placement: Placement,
    tallies: Tallies,
    /// End-to-end latency of `Normal` requests, in completion order.
    latency_normal: Summary,
    /// End-to-end latency of `Deprioritized` requests, in completion order.
    latency_depri: Summary,
    rngs: Vec<StdRng>,
    fault_states: Vec<FaultState>,
    edges: Vec<Edge>,
    trace: Trace,
    table: &'w RunTable,
    heap: BinaryHeap<Reverse<(SimTime, u64, InternalEvent)>>,
    seq: u64,
    next_arrival: usize,
    /// Shared-tier mutations recorded this epoch.
    tier_log: Vec<TierAccess>,
    /// Per-edge monotone sequence for tier-log ordering.
    eseqs: Vec<u64>,
}

impl<'w> Machine<'w> {
    fn new(
        workload: &'w Workload,
        config: &'w SimConfig,
        hierarchy: &CacheHierarchy,
        table: &'w RunTable,
        only_edge: Option<usize>,
    ) -> Machine<'w> {
        assert!(config.edges > 0, "need at least one edge");
        let shared = hierarchy.shared.len();
        let trace = Trace::from_parts(
            table.interner.clone(),
            Vec::with_capacity(workload.events.len()),
        );
        Machine {
            workload,
            config,
            only_edge,
            placement: hierarchy.placement,
            tallies: Tallies {
                per_edge: vec![BTreeMap::new(); config.edges],
                window: config.window,
                empty: SimStats {
                    tier_hits: vec![0; shared],
                    tier_misses: vec![0; shared],
                    ..SimStats::default()
                },
            },
            latency_normal: Summary::default(),
            latency_depri: Summary::default(),
            rngs: (0..config.edges)
                .map(|e| StdRng::seed_from_u64(edge_seed(config.seed, e)))
                .collect(),
            // The fault/error stream is separate from the main streams so
            // enabling bursts or faults never perturbs size and latency
            // draws.
            fault_states: (0..config.edges)
                .map(|e| FaultState::new(edge_seed(config.seed ^ 0xFAD7_5EED, e)))
                .collect(),
            edges: (0..config.edges)
                .map(|e| Edge {
                    cache: PolicyCache::with_policy(
                        hierarchy.edge.capacity,
                        hierarchy.edge.policy,
                        edge_seed(config.seed ^ 0xCAC4_E5EE, e),
                    ),
                    busy_until: SimTime::ZERO,
                    queue: BinaryHeap::new(),
                    in_service: None,
                    neg_cache: IdMap::default(),
                    in_flight: IdMap::default(),
                })
                .collect(),
            trace,
            table,
            heap: BinaryHeap::new(),
            seq: 0,
            next_arrival: 0,
            tier_log: Vec::new(),
            eseqs: vec![0; config.edges],
        }
    }

    /// Time of the next event this machine would process, arrival or
    /// internal. For a per-edge machine this may name an arrival that will
    /// be skipped (routed elsewhere) — which is exactly what the epoch
    /// driver needs: every machine reports the same global arrival head,
    /// so all modes compute identical epoch boundaries.
    fn next_time(&self) -> Option<SimTime> {
        let arrival = self.workload.events.get(self.next_arrival).map(|e| e.time);
        let internal = self.heap.peek().map(|Reverse((t, _, _))| *t);
        match (arrival, internal) {
            (None, None) => None,
            (Some(a), None) => Some(a),
            (None, Some(i)) => Some(i),
            (Some(a), Some(i)) => Some(a.min(i)),
        }
    }

    /// Takes this epoch's shared-tier access log.
    fn drain_tier_log(&mut self) -> Vec<TierAccess> {
        std::mem::take(&mut self.tier_log)
    }

    /// Processes events with `time < limit` (all remaining events when
    /// `limit` is `None`). Shared-tier lookups read `tiers` as an
    /// immutable epoch snapshot; mutations land in the tier log.
    fn run_until(
        &mut self,
        policy: &mut dyn Policy,
        tiers: &[PolicyCache],
        limit: Option<SimTime>,
    ) {
        let workload = self.workload;
        let config = self.config;
        let table = self.table;
        loop {
            // Pick the earlier of the next arrival and the next internal
            // event.
            let arrival_time = workload.events.get(self.next_arrival).map(|e| e.time);
            let internal_time = self.heap.peek().map(|Reverse((t, _, _))| *t);
            let take_arrival = match (arrival_time, internal_time) {
                (None, None) => break,
                (Some(at), None) => {
                    if limit.is_some_and(|l| at >= l) {
                        break;
                    }
                    true
                }
                (None, Some(it)) => {
                    if limit.is_some_and(|l| it >= l) {
                        break;
                    }
                    false
                }
                (Some(at), Some(it)) => {
                    if limit.is_some_and(|l| at.min(it) >= l) {
                        break;
                    }
                    at <= it
                }
            };
            match take_arrival {
                true => {
                    let widx = self.next_arrival;
                    self.next_arrival += 1;
                    let event = &workload.events[widx];
                    let edge_idx = route_edge(
                        &config.fault,
                        config.edges,
                        table.clients[event.client as usize].ip_hash,
                        event.time,
                    );
                    if self.only_edge.is_some_and(|e| e != edge_idx) {
                        continue;
                    }

                    let ctx = RequestCtx {
                        time: event.time,
                        client: event.client,
                        object: event.object,
                        edge: edge_idx,
                        objects: &workload.objects,
                        clients: &workload.clients,
                    };
                    let outcome = policy.on_request(&ctx);

                    // Issue prefetches: only cacheable, non-resident objects.
                    for target in outcome.prefetch {
                        let tobj = &table.objects[target as usize];
                        if !tobj.cacheable || self.edges[edge_idx].cache.peek(target, event.time) {
                            continue;
                        }
                        let size = tobj.size.sample(&mut self.rngs[edge_idx]);
                        let tally = self.tallies.at(edge_idx, event.time);
                        tally.prefetch_issued += 1;
                        tally.bytes_origin += size;
                        tally.origin_fetches += 1;
                        let done = event.time
                            + config.latency.origin_fetch(size, &mut self.rngs[edge_idx]);
                        self.seq += 1;
                        self.heap.push(Reverse((
                            done,
                            self.seq,
                            InternalEvent::PrefetchDone {
                                edge: edge_idx,
                                object: target,
                            },
                        )));
                    }

                    self.edges[edge_idx].queue.push(Reverse((
                        outcome.priority,
                        event.time,
                        self.seq,
                        widx,
                        0,
                    )));
                    self.seq += 1;
                    dispatch(
                        &mut self.edges[edge_idx],
                        edge_idx,
                        event.time,
                        workload,
                        table,
                        &mut self.heap,
                        &mut self.seq,
                    );
                }
                false => {
                    let Some(Reverse((now, _, ev))) = self.heap.pop() else {
                        break;
                    };
                    match ev {
                        InternalEvent::PrefetchDone { edge, object } => {
                            let obj = &table.objects[object as usize];
                            self.tallies.at(edge, now).prefetch_completed += 1;
                            // Insert only if still absent — a demand miss may
                            // have populated it meanwhile.
                            if !self.edges[edge].cache.peek(object, now) {
                                let size = obj.size.sample(&mut self.rngs[edge]);
                                self.edges[edge]
                                    .cache
                                    .insert(object, size, obj.ttl, now, true);
                            }
                        }
                        InternalEvent::Retry {
                            widx,
                            attempt,
                            priority,
                        } => {
                            // The client re-issues the request; routing
                            // happens afresh (the original edge may have
                            // flapped out).
                            let event = &workload.events[widx];
                            let edge_idx = route_edge(
                                &config.fault,
                                config.edges,
                                table.clients[event.client as usize].ip_hash,
                                now,
                            );
                            self.edges[edge_idx]
                                .queue
                                .push(Reverse((priority, now, self.seq, widx, attempt)));
                            self.seq += 1;
                            dispatch(
                                &mut self.edges[edge_idx],
                                edge_idx,
                                now,
                                workload,
                                table,
                                &mut self.heap,
                                &mut self.seq,
                            );
                        }
                        InternalEvent::ServiceDone { edge } => {
                            let Some((widx, arrival, priority, attempt)) =
                                self.edges[edge].in_service.take()
                            else {
                                continue;
                            };
                            let mut tc = TierCtx {
                                tiers,
                                placement: self.placement,
                                log: &mut self.tier_log,
                                eseq: &mut self.eseqs[edge],
                                edge_idx: edge as u32,
                            };
                            let latency = complete_request(
                                widx,
                                attempt,
                                arrival,
                                priority,
                                now,
                                workload,
                                config,
                                &mut self.edges[edge],
                                &mut tc,
                                self.tallies.at(edge, arrival),
                                &mut self.trace,
                                table,
                                &mut self.rngs[edge],
                                &mut self.fault_states[edge],
                                &mut self.heap,
                                &mut self.seq,
                            );
                            match priority {
                                Priority::Normal => self.latency_normal.record(latency),
                                Priority::Deprioritized => self.latency_depri.record(latency),
                            }
                            dispatch(
                                &mut self.edges[edge],
                                edge,
                                now,
                                workload,
                                table,
                                &mut self.heap,
                                &mut self.seq,
                            );
                        }
                    }
                }
            }
        }
    }

    /// Derives the run's outputs from its tallies: the stats are their
    /// merge, the per-edge manifest counters and the window rows are their
    /// [`SimStats::record_into`] keys. Adds the edge caches' prefetch hits
    /// and telemetry, and sorts the trace canonically. Shared-tier metrics
    /// are NOT recorded here: whichever loop owns the tiers records them
    /// once per run via [`record_tier_metrics`].
    fn finish(mut self) -> SimOutput {
        // Canonical total-order sort: the log is time-sorted and the order
        // of equal-time records never depends on edge interleaving, so
        // per-edge subset runs merge to exactly this log.
        self.trace.sort_canonical();
        let mut stats = self.tallies.empty.clone();
        let mut metrics = MetricsSnapshot::default();
        let mut series = self.config.window.map(WindowedCounters::new);
        for (e, buckets) in self.tallies.per_edge.iter().enumerate() {
            for (&bucket, tally) in buckets {
                stats.merge(tally);
                tally.record_into(e, &mut metrics);
                if let Some(series) = &mut series {
                    let mut row = MetricsSnapshot::new();
                    tally.record_into(e, &mut row);
                    series.merge_bucket(bucket, &row);
                }
            }
        }
        for (e, edge) in self.edges.iter().enumerate() {
            stats.prefetch_useful += edge.cache.stats().prefetch_hits;
            record_cache_metrics(&mut metrics, &[("edge", e as u64)], edge.cache.stats());
        }
        stats.latency_normal = self.latency_normal;
        stats.latency_depri = self.latency_depri;
        SimOutput {
            trace: self.trace,
            stats,
            metrics,
            series,
        }
    }
}

/// Records one cache's occupancy/eviction telemetry under `labels`.
/// Zero values are skipped entirely — `inc` drops them anyway, and the
/// gauge must not create a key for an idle cache, or per-edge subset runs
/// would merge to a different snapshot than the combined run.
fn record_cache_metrics(
    metrics: &mut MetricsSnapshot,
    labels: &[(&str, u64)],
    stats: crate::cache::CacheStats,
) {
    metrics.inc(&key("cache.evictions", labels), stats.evictions);
    metrics.inc(&key("cache.evicted_bytes", labels), stats.evicted_bytes);
    if stats.max_used_bytes > 0 {
        metrics.gauge_max(&key("cache.occupancy_bytes", labels), stats.max_used_bytes);
    }
}

/// Records the shared tiers' cache telemetry (hit/miss/expiry counters
/// plus occupancy and eviction gauges) labeled by tier index. Called
/// exactly once per run by whichever driver owns the tiers.
fn record_tier_metrics(metrics: &mut MetricsSnapshot, tiers: &[PolicyCache]) {
    for (t, tier) in tiers.iter().enumerate() {
        let stats = tier.stats();
        let labels = [("tier", t as u64)];
        record_cache_metrics(metrics, &labels, stats);
        metrics.inc(&key("cache.tier_expirations", &labels), stats.expirations);
    }
}

/// The engine behind [`run`] and [`run_sharded`]: when `only_edge` is set,
/// arrivals routed to any other edge are skipped, so the run simulates one
/// edge's subset of the workload.
///
/// Every stochastic stream (sizes, latency jitter, errors/faults) is
/// **per-edge**, derived from [`edge_seed`], and the final log sort is the
/// canonical total order — so simulating edges one subset at a time yields
/// the same records the combined run produces.
fn run_inner(
    workload: &Workload,
    config: &SimConfig,
    policy: &mut dyn Policy,
    table: &RunTable,
    only_edge: Option<usize>,
) -> SimOutput {
    let _span = match only_edge {
        Some(e) => jcdn_obs::span!("simulate.edge", edge = e as u64),
        None => jcdn_obs::span!("simulate.run"),
    };
    let hierarchy = config.resolved_hierarchy();
    let validation = hierarchy.validate();
    assert!(
        validation.is_ok(),
        "invalid cache hierarchy: {validation:?}"
    );
    let mut machine = Machine::new(workload, config, &hierarchy, table, only_edge);
    if hierarchy.shared.is_empty() {
        machine.run_until(policy, &[], None);
        return machine.finish();
    }

    // Epoch loop: process strictly inside each epoch against the frozen
    // tier snapshot, flush the access log at the boundary, fast-forward
    // to the epoch containing the next event.
    let mut tiers = build_shared_tiers(&hierarchy, config.seed);
    let interval = hierarchy.sync_interval;
    let mut epoch_end = next_epoch_boundary(SimTime::ZERO, interval);
    loop {
        machine.run_until(policy, &tiers, Some(epoch_end));
        let mut log = machine.drain_tier_log();
        flush_accesses(&mut tiers, &mut log);
        let Some(next) = machine.next_time() else {
            break;
        };
        epoch_end = next_epoch_boundary(next, interval);
    }
    let mut out = machine.finish();
    record_tier_metrics(&mut out.metrics, &tiers);
    out
}

/// Runs with the no-op policy.
pub fn run_default(workload: &Workload, config: &SimConfig) -> SimOutput {
    run(workload, config, &mut NoopPolicy)
}

/// Runs the simulation with per-edge subsets fanned out over a
/// `threads`-wide worker pool, producing the same trace records and
/// integer counters as [`run_default`] (latency summaries match to float
/// merge precision).
///
/// The run's strings are interned once and every per-edge machine starts
/// from a copy of those tables. Without shared tiers the per-edge subsets
/// are fully independent and run to completion concurrently. With shared
/// tiers — a parent cache included — the per-edge machines run in epoch
/// lockstep against snapshot tiers (see [`crate::hierarchy`]), still
/// byte-identical to the sequential run at any thread count. Either way
/// each edge's log comes out canonically sorted and the logs merge (see
/// `merge_outputs`). Only edge flaps (dynamic routing) force the
/// sequential path, as do single-edge or single-thread runs.
pub fn run_sharded(workload: &Workload, config: &SimConfig, threads: usize) -> SimOutput {
    if threads <= 1 || config.edges <= 1 || !config.fault.flaps.is_empty() {
        return run_default(workload, config);
    }
    let table = RunTable::new(workload, config);
    let hierarchy = config.resolved_hierarchy();
    if !hierarchy.shared.is_empty() {
        return run_sharded_hierarchy(workload, config, &hierarchy, table, threads);
    }
    let outputs = jcdn_exec::scatter_gather_labeled("sim.edges", config.edges, threads, |e| {
        run_inner(workload, config, &mut NoopPolicy, &table, Some(e))
    });
    merge_outputs(table.interner, outputs)
}

/// Merges per-edge outputs: stats and metrics add, and the per-edge logs,
/// each already in canonical order, merge into one canonical log of
/// exactly their total length. Every per-edge machine starts from a copy
/// of the run's interned tables and adds none, so `interner` resolves
/// every record.
fn merge_outputs(interner: Interner, outputs: Vec<SimOutput>) -> SimOutput {
    let mut stats = SimStats::default();
    let mut metrics = MetricsSnapshot::default();
    let mut series: Option<WindowedCounters> = None;
    let mut runs = Vec::with_capacity(outputs.len());
    for out in outputs {
        stats.merge(&out.stats);
        metrics.merge(&out.metrics);
        match (&mut series, out.series) {
            (Some(mine), Some(theirs)) => mine.merge(&theirs),
            (slot @ None, theirs @ Some(_)) => *slot = theirs,
            _ => {}
        }
        runs.push(out.trace.into_parts().1);
    }
    SimOutput {
        trace: Trace::from_parts(interner, jcdn_exec::merge_sorted(runs)),
        stats,
        metrics,
        series,
    }
}

/// Locks a machine, recovering from a poisoned mutex (a panicked worker
/// task was already isolated and retried by the exec pool).
fn lock_machine<'a, 'w>(slot: &'a Mutex<Machine<'w>>) -> std::sync::MutexGuard<'a, Machine<'w>> {
    slot.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The epoch-lockstep parallel driver for hierarchies with shared tiers:
/// one [`Machine`] per edge, all advanced to the same epoch boundary in
/// parallel against the frozen tier snapshot; their access logs merge and
/// flush between epochs. Identical epoch cuts + identical sorted logs ⇒
/// output byte-identical to the sequential combined run.
fn run_sharded_hierarchy(
    workload: &Workload,
    config: &SimConfig,
    hierarchy: &CacheHierarchy,
    table: RunTable,
    threads: usize,
) -> SimOutput {
    let _span = jcdn_obs::span!("simulate.hierarchy");
    let machines: Vec<Mutex<Machine<'_>>> = (0..config.edges)
        .map(|e| Mutex::new(Machine::new(workload, config, hierarchy, &table, Some(e))))
        .collect();
    let mut tiers = build_shared_tiers(hierarchy, config.seed);
    let interval = hierarchy.sync_interval;
    let mut epoch_end = next_epoch_boundary(SimTime::ZERO, interval);
    loop {
        let results =
            jcdn_exec::scatter_gather_labeled("sim.hierarchy.epoch", config.edges, threads, |e| {
                let mut machine = lock_machine(&machines[e]);
                machine.run_until(&mut NoopPolicy, &tiers, Some(epoch_end));
                (machine.drain_tier_log(), machine.next_time())
            });
        let mut log = Vec::new();
        let mut next: Option<SimTime> = None;
        for (part, n) in results {
            log.extend(part);
            next = match (next, n) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        flush_accesses(&mut tiers, &mut log);
        let Some(next) = next else {
            break;
        };
        epoch_end = next_epoch_boundary(next, interval);
    }
    let outputs: Vec<SimOutput> = machines
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .finish()
        })
        .collect();
    let mut out = merge_outputs(table.interner, outputs);
    record_tier_metrics(&mut out.metrics, &tiers);
    out
}

fn dispatch(
    edge: &mut Edge,
    edge_idx: usize,
    now: SimTime,
    workload: &Workload,
    table: &RunTable,
    heap: &mut BinaryHeap<Reverse<(SimTime, u64, InternalEvent)>>,
    seq: &mut u64,
) {
    if edge.in_service.is_some() || now < edge.busy_until {
        return;
    }
    let Some(Reverse((priority, arrival, _, widx, attempt))) = edge.queue.pop() else {
        return;
    };
    let done = now + table.objects[workload.events[widx].object as usize].service;
    edge.busy_until = done;
    edge.in_service = Some((widx, arrival, priority, attempt));
    *seq += 1;
    heap.push(Reverse((
        done,
        *seq,
        InternalEvent::ServiceDone { edge: edge_idx },
    )));
}

/// How one origin attempt went (only evaluated when the origin is needed).
enum OriginAttempt {
    /// The origin answered; the response took `network` end to end.
    Reached { network: SimDuration },
    /// The origin was unreachable (503) or too slow (504); discovering that
    /// cost `latency`.
    Unavailable { status: u16, latency: SimDuration },
}

/// Attempts to reach `domain`'s origin at `now`, applying outages and
/// degradations from the fault plan. `nominal` is the healthy end-to-end
/// network latency the caller already sampled.
fn attempt_origin(
    config: &SimConfig,
    domain: u32,
    now: SimTime,
    nominal: SimDuration,
) -> OriginAttempt {
    if config.fault.outage_at(domain, now) {
        // Connection refused after one full round trip to the origin.
        return OriginAttempt::Unavailable {
            status: 503,
            latency: config.latency.client_edge_rtt + config.latency.edge_origin_rtt,
        };
    }
    match config.fault.degradation_at(domain, now) {
        None => OriginAttempt::Reached { network: nominal },
        Some(factor) => {
            let scaled = SimDuration::from_secs_f64(nominal.as_secs_f64() * factor);
            if scaled > config.resilience.origin_timeout {
                OriginAttempt::Unavailable {
                    status: 504,
                    latency: config.latency.client_edge_rtt + config.resilience.origin_timeout,
                }
            } else {
                OriginAttempt::Reached { network: scaled }
            }
        }
    }
}

/// The hierarchy context one request completion sees: the epoch-frozen
/// shared tiers, the placement rule, and the access log to append to.
struct TierCtx<'a> {
    tiers: &'a [PolicyCache],
    placement: Placement,
    log: &'a mut Vec<TierAccess>,
    eseq: &'a mut u64,
    edge_idx: u32,
}

impl TierCtx<'_> {
    /// Appends one access to the epoch log with this edge's next sequence
    /// number.
    fn record(&mut self, time: SimTime, tier: usize, object: u32, kind: AccessKind) {
        *self.eseq += 1;
        self.log.push(TierAccess {
            time,
            edge: self.edge_idx,
            eseq: *self.eseq,
            tier: tier as u8,
            object,
            kind,
        });
    }

    /// Copies `object` into the levels the placement rule fills for a
    /// request served at level `served` (see [`Placement::fill`]): the edge
    /// cache at once, a shared tier through a logged `Insert`. Returns
    /// whether the edge was among them.
    fn place(
        &mut self,
        edge: &mut PolicyCache,
        served: usize,
        object: u32,
        size: u64,
        ttl: SimDuration,
        now: SimTime,
    ) -> bool {
        let fill = self.placement.fill(served);
        let edge_copy = fill.contains(&0);
        for level in fill {
            match level {
                0 => {
                    edge.insert(object, size, ttl, now, false);
                }
                tier => self.record(now, tier - 1, object, AccessKind::Insert { size, ttl }),
            }
        }
        edge_copy
    }
}

/// Serves one attempt at the end of its edge service, counting its events
/// into `stats` (the tally of its edge and arrival bucket), and returns its
/// end-to-end latency in seconds.
#[expect(
    clippy::too_many_arguments,
    reason = "the attempt's own fields plus disjoint borrows of the machine state it updates"
)]
fn complete_request(
    widx: usize,
    attempt: u8,
    arrival: SimTime,
    priority: Priority,
    now: SimTime,
    workload: &Workload,
    config: &SimConfig,
    edge: &mut Edge,
    tc: &mut TierCtx<'_>,
    stats: &mut SimStats,
    trace: &mut Trace,
    table: &RunTable,
    rng: &mut StdRng,
    fault_state: &mut FaultState,
    heap: &mut BinaryHeap<Reverse<(SimTime, u64, InternalEvent)>>,
    seq: &mut u64,
) -> f64 {
    let event = &workload.events[widx];
    let object = &table.objects[event.object as usize];
    let client = &table.clients[event.client as usize];
    let res = &config.resilience;
    let size = object.size.sample(rng);
    let is_json = object.mime == MimeType::Json;

    let mut flags = RecordFlags::NONE;
    let mut response_bytes = size;
    // Draws the stochastic per-attempt status from the plan's error model.
    // Only successful paths draw it — origin-unavailability failures
    // already have their status.
    let draw_status = |fs: &mut FaultState, stats: &mut SimStats| -> u16 {
        if fs.error_draw(config.fault.errors.as_ref()) {
            stats.origin_errors += 1;
            500
        } else {
            200
        }
    };

    let (cache_status, network, status) = if !object.cacheable {
        let nominal = config.latency.miss_latency(size, rng);
        match attempt_origin(config, object.domain, now, nominal) {
            OriginAttempt::Reached { network } => {
                stats.origin_fetches += 1;
                stats.bytes_origin += size;
                let status = draw_status(fault_state, stats);
                (CacheStatus::NotCacheable, network, status)
            }
            OriginAttempt::Unavailable { status, latency } => {
                stats.origin_errors += 1;
                response_bytes = 0;
                (CacheStatus::NotCacheable, latency, status)
            }
        }
    } else {
        match edge
            .cache
            .get_with_grace(event.object, now, res.stale_grace)
        {
            Lookup::Fresh => {
                stats.bytes_cache += size;
                let mut network = config.latency.hit_latency(size, rng);
                if res.coalesce {
                    // The entry may have been inserted by a fetch that is
                    // still on the wire; this request rides it and waits.
                    if let Some(&done) = edge.in_flight.get(&event.object) {
                        if done > now {
                            flags.insert(RecordFlags::COALESCED);
                            stats.coalesced_waits += 1;
                            network = (done - now) + network;
                        }
                    }
                }
                let status = draw_status(fault_state, stats);
                (CacheStatus::Hit, network, status)
            }
            lookup => {
                let stale_available = lookup == Lookup::Stale;
                let neg_status = edge
                    .neg_cache
                    .get(&event.object)
                    .copied()
                    .filter(|&(until, _)| until > now)
                    .map(|(_, status)| status);
                // Walk the shared tiers nearest-first against the epoch
                // snapshot (side-effect-free; recency updates are logged).
                let served_tier = match neg_status {
                    Some(_) => None,
                    None => tc
                        .tiers
                        .iter()
                        .position(|tier| tier.peek(event.object, now)),
                };
                if let Some(neg_status) = neg_status {
                    // The origin is known bad; answer without contacting it.
                    stats.neg_cache_serves += 1;
                    flags.insert(RecordFlags::NEG_CACHED);
                    if stale_available {
                        flags.insert(RecordFlags::SERVED_STALE);
                        stats.stale_serves += 1;
                        stats.bytes_cache += size;
                        let network = config.latency.hit_latency(size, rng);
                        (CacheStatus::Hit, network, 200)
                    } else {
                        response_bytes = 0;
                        (
                            CacheStatus::Miss,
                            config.latency.client_edge_rtt,
                            neg_status,
                        )
                    }
                } else if let Some(t) = served_tier {
                    // Tier hit: the origin is never involved. Misses at the
                    // tiers walked past, a hit at tier t.
                    stats.tier_hits[t] += 1;
                    for miss in &mut stats.tier_misses[..t] {
                        *miss += 1;
                    }
                    tc.record(now, t, event.object, AccessKind::Touch);
                    // Shared tier t is level t + 1.
                    tc.place(&mut edge.cache, t + 1, event.object, size, object.ttl, now);
                    let network = config.latency.tier_hit_latency(t, size, rng);
                    let status = draw_status(fault_state, stats);
                    (CacheStatus::Miss, network, status)
                } else {
                    let shared_tiers = tc.tiers.len();
                    let nominal = config.latency.miss_latency(size, rng);
                    match attempt_origin(config, object.domain, now, nominal) {
                        OriginAttempt::Reached { network } => {
                            for miss in &mut stats.tier_misses[..shared_tiers] {
                                *miss += 1;
                            }
                            stats.origin_fetches += 1;
                            stats.bytes_origin += size;
                            // The origin is level shared_tiers + 1.
                            let edge_copy = tc.place(
                                &mut edge.cache,
                                shared_tiers + 1,
                                event.object,
                                size,
                                object.ttl,
                                now,
                            );
                            if edge_copy && res.coalesce {
                                edge.in_flight.insert(event.object, now + network);
                            }
                            let status = draw_status(fault_state, stats);
                            (CacheStatus::Miss, network, status)
                        }
                        OriginAttempt::Unavailable { status, latency } => {
                            stats.origin_errors += 1;
                            if res.negative_ttl > SimDuration::ZERO {
                                edge.neg_cache
                                    .insert(event.object, (now + res.negative_ttl, status));
                            }
                            if stale_available {
                                // Stale-if-error: the expired copy beats a
                                // 5xx.
                                flags.insert(RecordFlags::SERVED_STALE);
                                stats.stale_serves += 1;
                                stats.bytes_cache += size;
                                let network = config.latency.hit_latency(size, rng);
                                (CacheStatus::Hit, network, 200)
                            } else {
                                for miss in &mut stats.tier_misses[..shared_tiers] {
                                    *miss += 1;
                                }
                                response_bytes = 0;
                                (CacheStatus::Miss, latency, status)
                            }
                        }
                    }
                }
            }
        }
    };
    stats.count_outcome(cache_status, is_json);

    // Client-side resilience: a failed attempt with retry budget left backs
    // off and re-enters the event queue as a fresh timestamped arrival.
    if status >= 500 {
        if attempt < res.retry_budget {
            flags.insert(RecordFlags::RETRIED);
            stats.retries_issued += 1;
            let delay = backoff(attempt + 1, widx as u64);
            *seq += 1;
            heap.push(Reverse((
                now + delay,
                *seq,
                InternalEvent::Retry {
                    widx,
                    attempt: attempt + 1,
                    priority,
                },
            )));
        } else {
            stats.end_user_failures += 1;
        }
    }

    trace.push(LogRecord {
        time: arrival,
        client: ClientId(client.ip_hash),
        ua: client.ua,
        url: object.url,
        method: event.method,
        mime: object.mime,
        status,
        response_bytes,
        cache: cache_status,
        retries: attempt,
        flags,
    });
    // End-to-end latency: queueing + service (now - arrival) + network.
    ((now - arrival) + network).as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use jcdn_workload::{build, WorkloadConfig};

    fn tiny_output() -> SimOutput {
        let w = build(&WorkloadConfig::tiny(0xFEED));
        run_default(&w, &SimConfig::default())
    }

    /// The default edge tier plus one shared LRU parent of `bytes`.
    fn with_parent(bytes: u64) -> Option<CacheHierarchy> {
        Some(CacheHierarchy::with_parent(
            CacheHierarchy::DEFAULT_EDGE_CAPACITY,
            bytes,
        ))
    }

    /// A plan whose one fault is a share `p` of origin attempts failing,
    /// each independently.
    fn iid_errors(p: f64) -> FaultPlan {
        FaultPlan {
            errors: Some(crate::fault::ErrorBursts {
                quiet_error_fraction: p,
                burst_error_fraction: p,
                enter_burst: 0.0,
                exit_burst: 1.0,
            }),
            ..FaultPlan::default()
        }
    }

    /// A 3-tier hierarchy (edge + regional + shield) mixing policies.
    fn three_tier(edge_policy: PolicyKind, shared_policy: PolicyKind) -> CacheHierarchy {
        use crate::hierarchy::TierSpec;
        CacheHierarchy {
            edge: TierSpec::lru("edge", 64 << 20).with_policy(edge_policy),
            shared: vec![
                TierSpec::lru("regional", 256 << 20).with_policy(shared_policy),
                TierSpec::lru("shield", 1 << 30),
            ],
            placement: Placement::CopyEverywhere,
            sync_interval: SimDuration::from_secs(1),
        }
    }

    #[test]
    fn every_event_produces_exactly_one_log() {
        let w = build(&WorkloadConfig::tiny(1));
        let out = run_default(&w, &SimConfig::default());
        // One record per attempt: original events plus retries of failures.
        assert_eq!(
            out.trace.len() as u64,
            w.events.len() as u64 + out.stats.retries_issued
        );
        assert_eq!(
            out.stats.requests,
            w.events.len() as u64 + out.stats.retries_issued
        );
        assert_eq!(out.stats.logical_requests(), w.events.len() as u64);
        assert_eq!(
            out.stats.hits + out.stats.misses + out.stats.not_cacheable,
            out.stats.requests
        );
    }

    #[test]
    fn logs_are_time_sorted_and_carry_strings() {
        let out = tiny_output();
        assert!(out
            .trace
            .records()
            .windows(2)
            .all(|p| p[0].time <= p[1].time));
        let v = out.trace.iter().next().unwrap();
        assert!(v.url.starts_with("https://"));
    }

    #[test]
    fn cacheable_popular_objects_get_hits() {
        let out = tiny_output();
        assert!(
            out.stats.hits > 0,
            "popular objects must produce cache hits"
        );
        let ratio = out.stats.cacheable_hit_ratio().unwrap();
        assert!(ratio > 0.2, "cacheable hit ratio {ratio}");
    }

    #[test]
    fn uncacheable_objects_never_hit() {
        let w = build(&WorkloadConfig::tiny(3));
        let out = run_default(&w, &SimConfig::default());
        // Every record for an uncacheable object must be NotCacheable.
        for view in out.trace.iter() {
            let obj = w
                .objects
                .iter()
                .find(|o| o.url == view.url)
                .expect("object exists");
            if !obj.cacheable {
                assert_eq!(view.record.cache, CacheStatus::NotCacheable);
            } else {
                assert_ne!(view.record.cache, CacheStatus::NotCacheable);
            }
        }
    }

    #[test]
    fn json_uncacheable_share_matches_workload_plant() {
        let stats = tiny_output().stats;
        let share = stats.json_not_cacheable as f64 / stats.json_requests as f64;
        assert!((0.40..0.75).contains(&share), "uncacheable share {share}");
    }

    #[test]
    fn deterministic_given_seeds() {
        let w = build(&WorkloadConfig::tiny(5));
        let a = run_default(&w, &SimConfig::default());
        let b = run_default(&w, &SimConfig::default());
        assert_eq!(a.trace.records(), b.trace.records());
        assert_eq!(a.stats.hits, b.stats.hits);
    }

    #[test]
    fn sharded_run_matches_the_sequential_run() {
        let w = build(&WorkloadConfig::tiny(21));
        let config = SimConfig {
            edges: 4,
            fault: iid_errors(0.02), // exercise the retry path too
            ..SimConfig::default()
        };
        let sequential = run_default(&w, &config);
        for threads in [2, 4] {
            let sharded = run_sharded(&w, &config, threads);
            assert_eq!(
                sequential.trace.records(),
                sharded.trace.records(),
                "{threads} threads"
            );
            assert_eq!(sequential.stats.requests, sharded.stats.requests);
            assert_eq!(sequential.stats.hits, sharded.stats.hits);
            assert_eq!(sequential.stats.misses, sharded.stats.misses);
            assert_eq!(
                sequential.stats.retries_issued,
                sharded.stats.retries_issued
            );
            assert_eq!(
                sequential.stats.end_user_failures,
                sharded.stats.end_user_failures
            );
            assert_eq!(
                sequential.stats.latency_normal.count(),
                sharded.stats.latency_normal.count()
            );
            // Per-edge observability counters are part of the determinism
            // contract: the merged per-edge snapshots must be byte-identical
            // to the combined run's snapshot.
            assert_eq!(
                sequential.metrics.counters_json(),
                sharded.metrics.counters_json(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn sharded_run_log_holds_exactly_its_records() {
        let w = build(&WorkloadConfig::tiny(21));
        // With and without a shared tier: both parallel paths merge per-edge logs.
        for hierarchy in [None, with_parent(64 << 20)] {
            let shared = hierarchy.is_some();
            let config = SimConfig {
                edges: 4,
                fault: iid_errors(0.02),
                hierarchy,
                ..SimConfig::default()
            };
            let out = run_sharded(&w, &config, 2);
            let retries = out.stats.retries_issued;
            assert!(retries > 0, "retried attempts outnumber the events");
            let records = out.trace.into_parts().1;
            assert_eq!(records.len() as u64, w.events.len() as u64 + retries);
            assert_eq!(records.capacity(), records.len(), "shared tier: {shared}");
        }
    }

    #[test]
    fn windowed_series_is_shard_invariant_and_sums_to_totals() {
        let w = build(&WorkloadConfig::tiny(33));
        let config = SimConfig {
            edges: 4,
            fault: iid_errors(0.02),
            window: WindowSpec::parse("1m").ok(),
            ..SimConfig::default()
        };
        let sequential = run_default(&w, &config);
        let series = sequential.series.as_ref().expect("window requested");
        assert!(!series.is_empty());
        // The per-window counters fold back to the run totals exactly.
        assert_eq!(
            series.total().counters_json(),
            {
                // Run totals restricted to the keys record_into emits
                // (cache occupancy/eviction telemetry is not windowed).
                let mut expected = MetricsSnapshot::new();
                for (k, v) in sequential.metrics.counters() {
                    if !k.starts_with("cache.evic") {
                        expected.inc(k, v);
                    }
                }
                expected.counters_json()
            },
            "window buckets must partition the run totals"
        );
        for threads in [2, 4] {
            let sharded = run_sharded(&w, &config, threads);
            let sharded_series = sharded.series.as_ref().expect("window requested");
            assert_eq!(
                series.to_jsonl("sim"),
                sharded_series.to_jsonl("sim"),
                "per-window counters byte-identical at {threads} threads"
            );
        }
    }

    /// A 3-tier hierarchy (LRU edge, TinyLFU regional, S3-FIFO shield)
    /// under an origin outage and a degradation, with serve-stale and
    /// negative caching: every manifest counter moves.
    fn tiered_faulted() -> SimConfig {
        use crate::fault::{OriginDegradation, OriginOutage, Window};
        let mut hierarchy = three_tier(PolicyKind::Lru, PolicyKind::TinyLfu);
        hierarchy.shared[1].policy = PolicyKind::S3Fifo;
        SimConfig {
            hierarchy: Some(hierarchy),
            fault: FaultPlan {
                outages: vec![OriginOutage {
                    domain: 0,
                    window: Window::from_secs(60, 600),
                }],
                degradations: vec![OriginDegradation {
                    domain: 1,
                    window: Window::from_secs(30, 900),
                    latency_factor: 50.0,
                }],
                ..iid_errors(0.02)
            },
            resilience: ResilienceConfig {
                stale_grace: SimDuration::from_secs(300),
                negative_ttl: SimDuration::from_secs(30),
                ..ResilienceConfig::default()
            },
            ..SimConfig::default()
        }
    }

    #[test]
    fn metrics_counters_mirror_sim_stats() {
        let w = build(&WorkloadConfig::tiny(42));
        let out = run_default(&w, &tiered_faulted());
        let s = &out.stats;
        for (name, field) in [
            ("sim.requests", s.requests),
            ("sim.hits", s.hits),
            ("sim.misses", s.misses),
            ("sim.not_cacheable", s.not_cacheable),
            ("sim.stale_serves", s.stale_serves),
            ("sim.neg_cache_serves", s.neg_cache_serves),
            ("sim.coalesced", s.coalesced_waits),
            ("sim.retries", s.retries_issued),
            ("sim.origin_errors", s.origin_errors),
            ("sim.end_user_failures", s.end_user_failures),
        ] {
            assert!(field > 0, "config leaves {name} at zero");
            assert_eq!(
                out.metrics.counter_prefix_sum(&format!("{name}{{")),
                field,
                "{name}"
            );
        }
        // More than one edge actually served traffic.
        let edges_hit = out
            .metrics
            .counters()
            .filter(|(k, _)| k.starts_with("sim.requests{"))
            .count();
        assert!(edges_hit > 1, "expected traffic on multiple edges");
    }

    #[test]
    fn tier_counters_mirror_sim_stats() {
        let w = build(&WorkloadConfig::tiny(31));
        let out = run_default(&w, &tiered_faulted());
        let tier_sum = |name: &str, t: usize| {
            let suffix = format!(",tier={t}}}");
            out.metrics
                .counters()
                .filter(|(k, _)| k.starts_with(&format!("{name}{{edge=")) && k.ends_with(&suffix))
                .map(|(_, v)| v)
                .sum::<u64>()
        };
        assert_eq!(out.stats.tier_hits.len(), 2);
        assert!(out.stats.parent_hits() > 0, "shared tiers see hits");
        for t in 0..out.stats.tier_hits.len() {
            assert_eq!(
                tier_sum("cache.tier_hits", t),
                out.stats.tier_hits[t],
                "tier {t}"
            );
            assert_eq!(
                tier_sum("cache.tier_misses", t),
                out.stats.tier_misses[t],
                "tier {t}"
            );
        }
    }

    #[test]
    fn sharded_run_with_parent_tier_matches_sequential() {
        let w = build(&WorkloadConfig::tiny(23));
        // A parent tier couples the edges; the epoch-lockstep driver must
        // reproduce the sequential result byte for byte — no sequential
        // fallback anymore.
        let config = SimConfig {
            hierarchy: with_parent(1 << 30),
            edges: 3,
            ..SimConfig::default()
        };
        let sequential = run_default(&w, &config);
        assert!(sequential.stats.parent_hits() > 0, "parent sees traffic");
        for threads in [2, 4] {
            let sharded = run_sharded(&w, &config, threads);
            assert_eq!(
                sequential.trace.records(),
                sharded.trace.records(),
                "{threads} threads"
            );
            assert_eq!(sequential.stats.parent_hits(), sharded.stats.parent_hits());
            assert_eq!(sequential.stats.tier_hits, sharded.stats.tier_hits);
            assert_eq!(sequential.stats.tier_misses, sharded.stats.tier_misses);
            assert_eq!(
                sequential.metrics.counters_json(),
                sharded.metrics.counters_json(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn three_tier_hierarchy_sharded_matches_sequential_all_policies() {
        let w = build(&WorkloadConfig::tiny(37));
        for policy in [PolicyKind::TinyLfu, PolicyKind::S3Fifo] {
            let config = SimConfig {
                edges: 4,
                hierarchy: Some(three_tier(policy, policy)),
                ..SimConfig::default()
            };
            let sequential = run_default(&w, &config);
            let sharded = run_sharded(&w, &config, 4);
            assert_eq!(
                sequential.trace.records(),
                sharded.trace.records(),
                "{policy}"
            );
            assert_eq!(
                sequential.metrics.counters_json(),
                sharded.metrics.counters_json(),
                "{policy}"
            );
        }
    }

    #[test]
    fn copy_down_keeps_first_fills_off_the_edge() {
        let w = build(&WorkloadConfig::tiny(43));
        let mut h = three_tier(PolicyKind::Lru, PolicyKind::Lru);
        h.placement = Placement::CopyDown;
        let lcd = run_default(
            &w,
            &SimConfig {
                hierarchy: Some(h),
                ..SimConfig::default()
            },
        );
        let lce = run_default(
            &w,
            &SimConfig {
                hierarchy: Some(three_tier(PolicyKind::Lru, PolicyKind::Lru)),
                ..SimConfig::default()
            },
        );
        // Under copy-down, first fills populate only the deepest tier, so
        // the edge sees fewer hits than leave-copy-everywhere.
        assert!(
            lcd.stats.hits < lce.stats.hits,
            "LCD edge hits {} must trail LCE edge hits {}",
            lcd.stats.hits,
            lce.stats.hits
        );
        // But popular objects still percolate: the edge is not empty.
        assert!(lcd.stats.hits > 0, "popular objects reach the edge");
        // And requests are conserved either way.
        assert_eq!(lcd.stats.logical_requests(), lce.stats.logical_requests());
    }

    #[test]
    fn prefetch_policy_improves_hit_ratio() {
        // A clairvoyant policy that prefetches the manifest children the
        // moment the manifest is requested.
        struct Oracle<'w> {
            workload: &'w Workload,
        }
        impl Policy for Oracle<'_> {
            fn on_request(&mut self, ctx: &RequestCtx<'_>) -> PolicyOutcome {
                let prefetch = self
                    .workload
                    .truth
                    .manifest_children
                    .get(&ctx.object)
                    .cloned()
                    .unwrap_or_default();
                PolicyOutcome {
                    prefetch,
                    priority: Priority::Normal,
                }
            }
        }
        let w = build(&WorkloadConfig::tiny(7));
        let base = run_default(&w, &SimConfig::default());
        let mut oracle = Oracle { workload: &w };
        let boosted = run(&w, &SimConfig::default(), &mut oracle);
        assert!(boosted.stats.prefetch_issued > 0);
        assert!(
            boosted.stats.prefetch_useful > 0,
            "prefetched entries must be used"
        );
        assert!(
            boosted.stats.cacheable_hit_ratio().unwrap()
                > base.stats.cacheable_hit_ratio().unwrap(),
            "prefetching must lift hit ratio: {} vs {}",
            boosted.stats.cacheable_hit_ratio().unwrap(),
            base.stats.cacheable_hit_ratio().unwrap()
        );
    }

    #[test]
    fn deprioritized_requests_wait_longer_under_load() {
        // Deprioritize periodic machine traffic; under a saturated edge the
        // normal class must see lower latency.
        struct Depri<'w> {
            workload: &'w Workload,
        }
        impl Policy for Depri<'_> {
            fn on_request(&mut self, ctx: &RequestCtx<'_>) -> PolicyOutcome {
                let machine = self
                    .workload
                    .truth
                    .periodic_pairs
                    .contains_key(&(ctx.client, ctx.object));
                PolicyOutcome {
                    prefetch: Vec::new(),
                    priority: if machine {
                        Priority::Deprioritized
                    } else {
                        Priority::Normal
                    },
                }
            }
        }
        let w = build(&WorkloadConfig::tiny(9));
        // One edge sized to ~120% utilization for this workload → real,
        // persistent queueing regardless of calibration tweaks upstream.
        let service_us =
            (1.2 * w.config.duration.as_secs_f64() / w.events.len() as f64 * 1e6) as u64;
        let config = SimConfig {
            edges: 1,
            service_base: SimDuration::from_micros(service_us.max(1)),
            service_per_kb: SimDuration::ZERO,
            ..SimConfig::default()
        };
        let mut policy = Depri { workload: &w };
        let out = run(&w, &config, &mut policy);
        let normal = out.stats.latency_normal.mean().unwrap();
        let depri = out.stats.latency_depri.mean().unwrap();
        assert!(
            depri > normal,
            "deprioritized mean {depri} must exceed normal mean {normal}"
        );
    }

    #[test]
    fn single_edge_vs_many_edges_conserves_requests() {
        let w = build(&WorkloadConfig::tiny(11));
        for edges in [1, 2, 8] {
            let out = run_default(
                &w,
                &SimConfig {
                    edges,
                    ..SimConfig::default()
                },
            );
            assert_eq!(out.stats.logical_requests(), w.events.len() as u64);
        }
    }

    #[test]
    fn parent_tier_absorbs_cross_edge_misses() {
        let w = build(&WorkloadConfig::tiny(15));
        let flat = run_default(&w, &SimConfig::default());
        let tiered = run_default(
            &w,
            &SimConfig {
                hierarchy: with_parent(1 << 30),
                ..SimConfig::default()
            },
        );
        assert!(
            tiered.stats.parent_hits() > 0,
            "shared objects hit the parent"
        );
        assert_eq!(
            tiered.stats.parent_hits() + tiered.stats.parent_misses(),
            tiered.stats.misses
        );
        // Edge-level hit counts are identical; the parent only changes
        // where misses are served from.
        assert_eq!(flat.stats.hits, tiered.stats.hits);
        assert!(
            tiered.stats.origin_fetches < flat.stats.origin_fetches,
            "the parent tier must offload the origin: {} vs {}",
            tiered.stats.origin_fetches,
            flat.stats.origin_fetches
        );
    }

    #[test]
    fn iid_errors_produce_5xx() {
        let w = build(&WorkloadConfig::tiny(13));
        let out = run_default(
            &w,
            &SimConfig {
                fault: iid_errors(0.05),
                ..SimConfig::default()
            },
        );
        let errors = out
            .trace
            .records()
            .iter()
            .filter(|r| r.status == 500)
            .count();
        let share = errors as f64 / out.trace.len() as f64;
        assert!((0.03..0.07).contains(&share), "error share {share}");
    }
}
