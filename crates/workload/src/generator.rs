//! The workload generator: universe construction, behaviour assignment,
//! and event generation.

use std::collections::HashMap;

use jcdn_obs::timeseries::WindowedCounters;
use jcdn_stats::dist::{weighted_index, Pareto, Sample, WeightedIndex};
use jcdn_trace::{Method, MimeType, SimDuration, SimTime};
use jcdn_ua::DeviceType;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::apps::{AppRequest, InteractiveApi, ManifestApp, PeriodicPoller};
use crate::clients::{make_client, ClientInfo};
use crate::config::WorkloadConfig;
use crate::industry::{CachePolicy, IndustryCategory};
use crate::objects::{DomainInfo, ObjectInfo};

/// One scheduled request (indices into the workload's tables).
///
/// The derived order compares every field, `(time, client, object,
/// method)`: it is the total order [`Workload::events`] is sorted by, and
/// events that compare equal are identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RequestEvent {
    /// Arrival time at the CDN edge.
    pub time: SimTime,
    /// Index into [`Workload::clients`].
    pub client: u32,
    /// Index into [`Workload::objects`].
    pub object: u32,
    /// HTTP method.
    pub method: Method,
}

/// Ground-truth labels planted by the generator, for validating the
/// analysis pipeline.
#[derive(Clone, Debug, Default)]
pub struct GroundTruth {
    /// Planted periodic (client, object) pairs and their periods.
    pub periodic_pairs: HashMap<(u32, u32), SimDuration>,
    /// Objects that carry a planted period (and that period).
    pub periodic_objects: HashMap<u32, SimDuration>,
    /// Manifest/page roots and the objects they reference.
    pub manifest_children: HashMap<u32, Vec<u32>>,
    /// Expected number of periodic tick events (calibration output).
    pub expected_periodic_events: f64,
}

/// A fully generated synthetic workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// The generating configuration.
    pub config: WorkloadConfig,
    /// Customer domains.
    pub domains: Vec<DomainInfo>,
    /// Object universe.
    pub objects: Vec<ObjectInfo>,
    /// Client population.
    pub clients: Vec<ClientInfo>,
    /// Time-sorted request events.
    pub events: Vec<RequestEvent>,
    /// Planted ground truth.
    pub truth: GroundTruth,
}

impl Workload {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were generated.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Index of the domain with the given host name, for targeting fault
    /// windows at a specific customer (e.g. `--outage host:start:end`).
    pub fn domain_index(&self, host: &str) -> Option<u32> {
        self.domains
            .iter()
            .position(|d| d.host == host)
            .map(|i| i as u32)
    }

    /// Per-window event counts (`workload.events`) over the simulated
    /// timeline. The counts follow the determinism contract: same config ⇒
    /// byte-identical [`WindowedCounters`] serialization, independent of
    /// how the build was threaded.
    pub fn event_series(&self, spec: jcdn_obs::timeseries::WindowSpec) -> WindowedCounters {
        let mut series = WindowedCounters::new(spec);
        for event in &self.events {
            series.inc(event.time.as_micros(), "workload.events", 1);
        }
        series
    }

    /// Share of events whose object serves JSON.
    pub fn json_share(&self) -> f64 {
        if self.events.is_empty() {
            return 0.0;
        }
        let json = self
            .events
            .iter()
            .filter(|e| self.objects[e.object as usize].mime == MimeType::Json)
            .count();
        json as f64 / self.events.len() as f64
    }
}

/// The paper's Figure 5 period spikes, with sampling weights. Short
/// periods dominate (they generate more requests per flow and the
/// histogram of *detected objects* still shows every spike).
const PERIOD_SPIKES: &[(u64, f64)] = &[
    (30, 0.22),
    (60, 0.28),
    (120, 0.13),
    (180, 0.09),
    (600, 0.13),
    (900, 0.08),
    (1800, 0.07),
];

/// Internal universe-building state.
struct UniverseBuilder {
    objects: Vec<ObjectInfo>,
    /// Interactive JSON pools per domain.
    api_pools: Vec<Vec<u32>>,
    /// Manifest apps per domain (JSON root).
    json_manifests: Vec<Vec<ManifestTemplate>>,
    /// Page apps per domain (HTML root).
    html_manifests: Vec<Vec<ManifestTemplate>>,
    /// Periodic candidate objects: (object, domain).
    periodic_candidates: Vec<u32>,
}

#[derive(Clone, Debug)]
struct ManifestTemplate {
    root: u32,
    articles: Vec<u32>,
    media: Vec<Vec<u32>>,
}

/// Builds the full workload from a configuration. Deterministic in
/// `config` (including its seed). Equivalent to
/// [`build_parallel`]`(config, 1)`.
pub fn build(config: &WorkloadConfig) -> Workload {
    build_parallel(config, 1)
}

/// Builds the full workload with per-client event generation fanned out
/// over a `threads`-wide worker pool.
///
/// The output is **identical for every thread count** (and to [`build`]):
/// everything that touches the main RNG stream — universe construction,
/// periodic planting, and a per-client *planning* pass that fixes each
/// client's app parameters and draws it a private event seed — runs
/// sequentially; only the event generation itself (the bulk of the work,
/// driven entirely by the private per-client RNGs) is parallel. The plans
/// split into `threads` contiguous ranges; each task generates its range
/// and sorts its own events, and the sorted runs merge with the sorted
/// periodic events in the total order of [`RequestEvent`].
pub fn build_parallel(config: &WorkloadConfig, threads: usize) -> Workload {
    // Phase spans: planning (sequential, main RNG) vs generation (parallel,
    // private RNGs). Wall-time only — neither affects the output.
    let plan_span = jcdn_obs::span!("workload.plan");
    let mut rng = StdRng::seed_from_u64(config.seed);

    let domains = build_domains(config, &mut rng);
    let mut universe = build_universe(config, &domains, &mut rng);
    let clients = build_clients(config, &mut rng);

    let mut truth = GroundTruth::default();
    for templates in universe
        .json_manifests
        .iter()
        .chain(universe.html_manifests.iter())
    {
        for t in templates {
            let mut children: Vec<u32> = t.articles.clone();
            children.extend(t.media.iter().flatten().copied());
            truth.manifest_children.insert(t.root, children);
        }
    }

    // ---- Periodic traffic (§5.1) -------------------------------------
    // Overplant by 1.4x: the significance filters and the conservative
    // permutation thresholds recover roughly 70% of planted periodic
    // traffic, so the detected share lands near the configured target
    // (calibrated against the full-scale long-term dataset).
    let periodic_budget = 1.4 * config.targets.periodic_share * config.target_events as f64;
    let mut periodic: Vec<RequestEvent> = Vec::new();
    plant_periodic_flows(
        config,
        &clients,
        &mut universe,
        periodic_budget,
        &mut truth,
        &mut periodic,
        &mut rng,
    );

    // ---- Everything else ----------------------------------------------
    // Plan sequentially (main RNG, may create personalized objects), then
    // generate each client's events in parallel from its private seed.
    let remaining = (config.target_events as f64 - truth.expected_periodic_events).max(0.0);
    let total_activity: f64 = clients.iter().map(|c| c.activity).sum();
    // Home domains are drawn popularity-weighted, from one table.
    let domain_weights = WeightedIndex::new(domains.iter().map(|d| d.popularity).collect());
    let plans: Vec<ClientPlan> = clients
        .iter()
        .enumerate()
        .filter_map(|(index, client)| {
            let budget = remaining * client.activity / total_activity;
            plan_client_traffic(
                config,
                index as u32,
                client,
                budget,
                &domains,
                &domain_weights,
                &mut universe,
                &mut rng,
            )
        })
        .collect();
    drop(plan_span);
    let _generate_span = jcdn_obs::span!("workload.generate");
    let ranges = jcdn_exec::partition(plans.len(), threads);
    let mut runs =
        jcdn_exec::scatter_gather_labeled("workload.generate", ranges.len(), threads, |i| {
            let mut run = Vec::new();
            for plan in &plans[ranges[i].clone()] {
                generate_planned(plan, config.duration, &mut run);
            }
            run.sort_unstable();
            run
        });
    periodic.sort_unstable();
    runs.push(periodic);
    // The order is total over every field, so the merged events never
    // depend on how the plans were split.
    let events = jcdn_exec::merge_sorted(runs);

    Workload {
        config: config.clone(),
        domains,
        objects: universe.objects,
        clients,
        events,
        truth,
    }
}

fn build_domains(config: &WorkloadConfig, rng: &mut StdRng) -> Vec<DomainInfo> {
    let weights: Vec<f64> = IndustryCategory::ALL
        .iter()
        .map(|c| c.domain_weight())
        .collect();
    (0..config.domains)
        .map(|i| {
            let industry = IndustryCategory::ALL[weighted_index(rng, &weights).unwrap_or(0)];
            let profile = industry.cache_profile();
            let roll: f64 = rng.gen();
            let cache_policy = if roll < profile.never {
                CachePolicy::Never
            } else if roll < profile.never + profile.always {
                CachePolicy::Always
            } else {
                CachePolicy::Mixed(rng.gen_range(0.2..0.8))
            };
            DomainInfo {
                host: format!("{}-{i}.example", industry.host_token()),
                industry,
                cache_policy,
                // Zipf-ish popularity over domain rank.
                popularity: 1.0 / ((i + 1) as f64).powf(0.6),
            }
        })
        .collect()
}

fn build_universe(
    config: &WorkloadConfig,
    domains: &[DomainInfo],
    rng: &mut StdRng,
) -> UniverseBuilder {
    let mut u = UniverseBuilder {
        objects: Vec::new(),
        api_pools: vec![Vec::new(); domains.len()],
        json_manifests: vec![Vec::new(); domains.len()],
        html_manifests: vec![Vec::new(); domains.len()],
        periodic_candidates: Vec::new(),
    };

    for (d, domain) in domains.iter().enumerate() {
        let cacheable_fraction = domain.cache_policy.cacheable_fraction();
        let is_content = matches!(
            domain.industry,
            IndustryCategory::NewsMedia
                | IndustryCategory::Sports
                | IndustryCategory::Entertainment
        );
        let hosts_periodic = matches!(
            domain.industry,
            IndustryCategory::Gaming
                | IndustryCategory::Social
                | IndustryCategory::Advertising
                | IndustryCategory::Technology
                | IndustryCategory::Streaming
        );

        // Interactive API pool: every domain has one.
        let pool_size = rng.gen_range(8..32);
        for k in 0..pool_size {
            let obj = push_object(
                &mut u.objects,
                config,
                d as u32,
                format!("https://{}/api/v1/{}/{}", domain.host, api_section(rng), k),
                MimeType::Json,
                rng.gen_bool(cacheable_fraction),
                SimDuration::from_secs(rng.gen_range(30..180)),
                rng,
            );
            u.api_pools[d].push(obj);
        }

        // Content domains: manifest apps (JSON root for native apps, HTML
        // root for browsers) over a shared article set.
        if is_content {
            for m in 0..rng.gen_range(1..=2usize) {
                let article_count = rng.gen_range(10..25);
                let mut articles = Vec::with_capacity(article_count);
                let mut media = Vec::with_capacity(article_count);
                for a in 0..article_count {
                    let article = push_object(
                        &mut u.objects,
                        config,
                        d as u32,
                        format!(
                            "https://{}/api/articles/{}",
                            domain.host,
                            m * 1000 + a + 100
                        ),
                        MimeType::Json,
                        rng.gen_bool(cacheable_fraction),
                        SimDuration::from_secs(rng.gen_range(60..600)),
                        rng,
                    );
                    let media_count = rng.gen_range(0..=2usize);
                    let mut article_media = Vec::with_capacity(media_count);
                    for im in 0..media_count {
                        let media_obj = push_object(
                            &mut u.objects,
                            config,
                            d as u32,
                            format!(
                                "https://{}/media/image{}.jpg",
                                domain.host,
                                (m * 1000 + a) * 10 + im
                            ),
                            MimeType::Image,
                            // Media is static: cacheable unless the domain
                            // forbids caching entirely.
                            cacheable_fraction > 0.0,
                            SimDuration::HOUR,
                            rng,
                        );
                        article_media.push(media_obj);
                    }
                    articles.push(article);
                    media.push(article_media);
                }

                // JSON manifest root, with a real JSON body referencing the
                // articles (Table 1's pattern).
                let body = manifest_body(&u.objects, &articles, &media);
                let json_root = push_object_with_body(
                    &mut u.objects,
                    d as u32,
                    format!("https://{}/api/v2/stories/{}", domain.host, m),
                    MimeType::Json,
                    rng.gen_bool(cacheable_fraction),
                    SimDuration::from_secs(rng.gen_range(30..120)),
                    body,
                );
                u.json_manifests[d].push(ManifestTemplate {
                    root: json_root,
                    articles: articles.clone(),
                    media: media.clone(),
                });

                // HTML page root for browser sessions over the same content.
                let html_root = push_object(
                    &mut u.objects,
                    config,
                    d as u32,
                    format!("https://{}/section/{}", domain.host, m),
                    MimeType::Html,
                    rng.gen_bool(cacheable_fraction),
                    SimDuration::from_secs(rng.gen_range(60..300)),
                    rng,
                );
                u.html_manifests[d].push(ManifestTemplate {
                    root: html_root,
                    articles,
                    media,
                });
            }
        }

        // Periodic endpoints on machine-to-machine-heavy industries.
        if hosts_periodic {
            for p in 0..rng.gen_range(2..=4usize) {
                // "78% upload traffic": most periodic endpoints take POSTs.
                let (path, _is_upload) = if rng.gen_bool(config.targets.periodic_upload_share) {
                    (format!("telemetry/beat/{p}"), true)
                } else {
                    (format!("api/live/poll/{p}"), false)
                };
                // Telemetry uploads follow the domain policy (mostly
                // dynamic); shared score/feed polls are briefly cacheable
                // even on personalization-heavy domains. Net effect lands
                // near the paper's 56.2% uncacheable periodic traffic.
                let cacheable = if path.starts_with("telemetry") {
                    rng.gen_bool(cacheable_fraction)
                } else {
                    rng.gen_bool(cacheable_fraction.max(0.5))
                };
                let obj = push_object(
                    &mut u.objects,
                    config,
                    d as u32,
                    format!("https://{}/{}", domain.host, path),
                    MimeType::Json,
                    cacheable,
                    SimDuration::from_secs(rng.gen_range(15..60)),
                    rng,
                );
                u.periodic_candidates.push(obj);
            }
        }
    }
    u
}

fn api_section(rng: &mut StdRng) -> &'static str {
    const SECTIONS: &[&str] = &[
        "items", "search", "config", "catalog", "session", "quotes", "events", "status",
    ];
    SECTIONS[rng.gen_range(0..SECTIONS.len())]
}

#[expect(
    clippy::too_many_arguments,
    reason = "one argument per field of the object it appends"
)]
fn push_object(
    objects: &mut Vec<ObjectInfo>,
    config: &WorkloadConfig,
    domain: u32,
    url: String,
    mime: MimeType,
    cacheable: bool,
    ttl: SimDuration,
    _rng: &mut StdRng,
) -> u32 {
    let (median, sigma) = match mime {
        MimeType::Json => config.sizes.json,
        MimeType::Html => config.sizes.html,
        MimeType::Image => config.sizes.image,
        _ => config.sizes.json,
    };
    let id = objects.len() as u32;
    objects.push(ObjectInfo {
        url,
        domain,
        mime,
        cacheable,
        ttl,
        size_median: median,
        size_sigma: sigma,
        body: None,
    });
    id
}

fn push_object_with_body(
    objects: &mut Vec<ObjectInfo>,
    domain: u32,
    url: String,
    mime: MimeType,
    cacheable: bool,
    ttl: SimDuration,
    body: String,
) -> u32 {
    let id = objects.len() as u32;
    objects.push(ObjectInfo {
        url,
        domain,
        mime,
        cacheable,
        ttl,
        size_median: body.len() as f64,
        size_sigma: 0.0,
        body: Some(body),
    });
    id
}

/// Builds the JSON manifest body of Table 1: an array of story stubs with
/// direct URL references to article and media objects.
fn manifest_body(objects: &[ObjectInfo], articles: &[u32], media: &[Vec<u32>]) -> String {
    use jcdn_json::{Map, Value};
    let stories: Vec<Value> = articles
        .iter()
        .zip(media.iter())
        .enumerate()
        .map(|(i, (&article, article_media))| {
            let mut story = Map::new();
            story.insert("article_id", Value::from(1000 + i as u64));
            story.insert("article_title", Value::from(format!("Story {i}")));
            story.insert(
                "article_url",
                Value::from(objects[article as usize].url.as_str()),
            );
            if let Some(&first_media) = article_media.first() {
                story.insert(
                    "image_url",
                    Value::from(objects[first_media as usize].url.as_str()),
                );
            }
            Value::Object(story)
        })
        .collect();
    jcdn_json::to_string(&Value::Array(stories))
}

fn build_clients(config: &WorkloadConfig, rng: &mut StdRng) -> Vec<ClientInfo> {
    let t = &config.targets;
    let unknown_share =
        1.0 - t.mobile_request_share - t.embedded_request_share - t.desktop_request_share;
    let device_weights = [
        t.mobile_request_share,
        t.desktop_request_share,
        t.embedded_request_share,
        unknown_share,
    ];
    let devices = [
        DeviceType::Mobile,
        DeviceType::Desktop,
        DeviceType::Embedded,
        DeviceType::Unknown,
    ];
    let mobile_browser_fraction = t.mobile_browser_share / t.mobile_request_share;
    let activity_dist = Pareto::new(1.0, 1.8);

    (0..config.clients)
        .map(|i| {
            let device = devices[weighted_index(rng, &device_weights).unwrap_or(0)];
            let browser = match device {
                DeviceType::Mobile => rng.gen_bool(mobile_browser_fraction),
                DeviceType::Desktop => true,
                _ => false,
            };
            // Cap the activity tail so a single client cannot dominate.
            let activity = activity_dist.sample(rng).min(20.0);
            make_client(rng, i, device, browser, activity)
        })
        .collect()
}

fn plant_periodic_flows(
    config: &WorkloadConfig,
    clients: &[ClientInfo],
    universe: &mut UniverseBuilder,
    budget: f64,
    truth: &mut GroundTruth,
    events: &mut Vec<RequestEvent>,
    rng: &mut StdRng,
) {
    // Machine traffic comes from non-desktop, non-browser clients.
    let machine_clients: Vec<u32> = clients
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.is_browser && c.device != DeviceType::Desktop)
        .map(|(i, _)| i as u32)
        .collect();
    if machine_clients.is_empty() || universe.periodic_candidates.is_empty() {
        return;
    }

    let period_weights: Vec<f64> = PERIOD_SPIKES.iter().map(|&(_, w)| w).collect();
    // Interleave telemetry (POST) and poll (GET) endpoints so the planted
    // mix matches the paper's 78% upload share regardless of which
    // candidates happen to come first.
    let mut telemetry: Vec<u32> = universe
        .periodic_candidates
        .iter()
        .copied()
        .filter(|&o| universe.objects[o as usize].url.contains("telemetry"))
        .collect();
    let mut polls: Vec<u32> = universe
        .periodic_candidates
        .iter()
        .copied()
        .filter(|&o| !universe.objects[o as usize].url.contains("telemetry"))
        .collect();
    telemetry.shuffle(rng);
    polls.shuffle(rng);
    let mut candidates = Vec::with_capacity(telemetry.len() + polls.len());
    while !telemetry.is_empty() || !polls.is_empty() {
        let want_upload = rng.gen_bool(config.targets.periodic_upload_share);
        let next = if want_upload {
            telemetry.pop().or_else(|| polls.pop())
        } else {
            polls.pop().or_else(|| telemetry.pop())
        };
        match next {
            Some(object) => candidates.push(object),
            None => break,
        }
    }

    let duration = config.duration;
    let mut expected = 0.0;
    'outer: for object in candidates.into_iter().cycle() {
        if expected >= budget {
            break 'outer;
        }
        // Re-planting the same object on a second pass keeps its period.
        let period_secs = match truth.periodic_objects.get(&object) {
            Some(p) => p.as_secs(),
            None => {
                let idx = weighted_index(rng, &period_weights).unwrap_or(0);
                PERIOD_SPIKES[idx].0
            }
        };
        let period = SimDuration::from_secs(period_secs);
        let ticks = duration.as_secs_f64() / period_secs as f64;
        if ticks < 4.0 {
            // This period cannot produce a detectable flow within the
            // capture window; skip (short-term dataset vs 30m pollers).
            if PERIOD_SPIKES
                .iter()
                .all(|&(p, _)| duration.as_secs_f64() / (p as f64) < 4.0)
            {
                break 'outer; // nothing fits; avoid infinite loop
            }
            continue;
        }
        truth.periodic_objects.insert(object, period);

        // How many clients participate, and what share of them really are
        // periodic. Figure 6 target: ~20% of periodic objects have a >50%
        // periodic-client majority.
        let participant_count = rng.gen_range(10..18).min(machine_clients.len());
        let periodic_fraction: f64 = if rng.gen_bool(0.2) {
            rng.gen_range(0.55..0.95)
        } else {
            rng.gen_range(0.08..0.48)
        };
        let periodic_count =
            ((participant_count as f64 * periodic_fraction).round() as usize).max(1);

        let mut participants = machine_clients.clone();
        participants.shuffle(rng);
        participants.truncate(participant_count);

        let method = if universe.objects[object as usize].url.contains("telemetry") {
            Method::Post
        } else {
            Method::Get
        };

        let mut buffer = Vec::new();
        for (rank, &client) in participants.iter().enumerate() {
            // Pollers run while their app session is open: a bounded
            // window of 80-200 ticks, placed anywhere in the capture. This
            // keeps one 30s flow from eating the whole periodic budget in
            // a 24h capture while leaving every flow comfortably above the
            // >= 10 requests significance filter.
            let window_ticks = rng.gen_range(48..120) as f64;
            let active_secs = (window_ticks * period_secs as f64).min(duration.as_secs_f64());
            let start_secs = if active_secs >= duration.as_secs_f64() {
                0.0
            } else {
                rng.gen_range(0.0..duration.as_secs_f64() - active_secs)
            };
            if rank < periodic_count {
                // A genuinely periodic client-object flow.
                let jitter_cap = (period_secs as f64 * 0.03).clamp(0.2, 2.0);
                let poller = PeriodicPoller {
                    object,
                    period,
                    jitter: SimDuration::from_secs_f64(rng.gen_range(0.0..jitter_cap)),
                    phase: SimDuration::from_secs_f64(rng.gen_range(0.0..period_secs as f64)),
                    start: SimDuration::from_secs_f64(start_secs),
                    active: SimDuration::from_secs_f64(active_secs),
                    method,
                };
                buffer.clear();
                poller.generate(rng, duration, &mut buffer);
                expected += poller.expected_requests(duration);
                truth.periodic_pairs.insert((client, object), period);
                for r in &buffer {
                    events.push(to_event(client, r));
                }
            } else {
                // A non-periodic client of the same object: Poisson with a
                // comparable volume over its own session window, so the
                // object flow has real non-periodic members (Figure 6's
                // denominator).
                let api = InteractiveApi {
                    objects: vec![object],
                    zipf: 1.0,
                    rate_per_hour: 3600.0 / period_secs as f64 * rng.gen_range(0.35..0.7),
                    post_fraction: if method == Method::Post { 1.0 } else { 0.0 },
                    chain_prob: 0.0,
                };
                buffer.clear();
                api.generate(rng, SimDuration::from_secs_f64(active_secs), &mut buffer);
                // Shift the session into its window.
                let offset = SimDuration::from_secs_f64(start_secs);
                expected += api.expected_requests(SimDuration::from_secs_f64(active_secs));
                for r in &buffer {
                    let mut shifted = *r;
                    shifted.time += offset;
                    events.push(to_event(client, &shifted));
                }
            }
            if expected >= budget {
                break 'outer;
            }
        }
    }
    truth.expected_periodic_events = expected;
}

/// One client's traffic plan: the apps it will run (parameters fixed by
/// the sequential planning pass) and the private seed its event RNG is
/// derived from. Generation from a plan is pure, so plans can fan out
/// across worker threads without perturbing determinism.
#[derive(Clone, Debug)]
struct ClientPlan {
    client: u32,
    manifest: Option<ManifestApp>,
    api: Option<InteractiveApi>,
    seed: u64,
}

/// Appends one planned client's events, generated from its private RNG.
fn generate_planned(plan: &ClientPlan, duration: SimDuration, events: &mut Vec<RequestEvent>) {
    let mut rng = StdRng::seed_from_u64(plan.seed);
    let mut buffer: Vec<AppRequest> = Vec::new();
    if let Some(app) = &plan.manifest {
        app.generate(&mut rng, duration, &mut buffer);
        events.extend(buffer.iter().map(|r| to_event(plan.client, r)));
        buffer.clear();
    }
    if let Some(api) = &plan.api {
        api.generate(&mut rng, duration, &mut buffer);
        events.extend(buffer.iter().map(|r| to_event(plan.client, r)));
    }
}

/// Decides a client's apps on the main RNG stream (including creating its
/// personalized objects) and draws the private seed event generation will
/// run from. Returns `None` for clients too inactive to generate traffic.
#[expect(
    clippy::too_many_arguments,
    reason = "reads the client and generator tables while borrowing the universe and RNG mutably"
)]
fn plan_client_traffic(
    config: &WorkloadConfig,
    client_index: u32,
    client: &ClientInfo,
    budget: f64,
    domains: &[DomainInfo],
    domain_weights: &WeightedIndex,
    universe: &mut UniverseBuilder,
    rng: &mut StdRng,
) -> Option<ClientPlan> {
    if budget < 0.5 {
        return None;
    }
    let duration = config.duration;
    let hours = duration.as_secs_f64() / 3600.0;

    let manifest_budget_share = match client.device {
        _ if client.is_browser => 0.75,
        DeviceType::Mobile => 0.60,
        _ => 0.0,
    };
    let manifest_budget = budget * manifest_budget_share;
    let interactive_budget = budget - manifest_budget;
    let mut manifest_app: Option<ManifestApp> = None;
    let mut api_app: Option<InteractiveApi> = None;

    // ---- Manifest/page sessions ---------------------------------------
    if manifest_budget >= 1.0 {
        let templates = if client.is_browser {
            &universe.html_manifests
        } else {
            &universe.json_manifests
        };
        // Find a content domain that has templates (popularity-weighted).
        let mut chosen: Option<(usize, usize)> = None;
        for _ in 0..32 {
            let d = domain_weights.sample(rng).unwrap_or(0);
            if !templates[d].is_empty() {
                chosen = Some((d, rng.gen_range(0..templates[d].len())));
                break;
            }
        }
        if let Some((d, m)) = chosen {
            let template = &templates[d][m];
            let articles_per_session = (1usize, 3usize);
            let mean_media: f64 = if template.articles.is_empty() {
                0.0
            } else {
                template.media.iter().map(Vec::len).sum::<usize>() as f64
                    / template.articles.len() as f64
            };
            let session_cost = 1.0 + 2.0 * (1.0 + mean_media);
            let sessions_per_hour = (manifest_budget / session_cost / hours).max(0.01);
            manifest_app = Some(ManifestApp {
                root: template.root,
                articles: template.articles.clone(),
                media: template.media.clone(),
                article_zipf: 1.1,
                sessions_per_hour,
                articles_per_session,
                mean_think: SimDuration::from_secs(8),
            });
        }
    }

    // ---- Interactive API traffic ----------------------------------------
    if interactive_budget >= 1.0 {
        // Personalized traffic (unique per-client URLs) comes from
        // machine-ish clients hitting personalization-heavy industries.
        let personalized = !client.is_browser
            && matches!(client.device, DeviceType::Mobile | DeviceType::Unknown)
            && rng.gen_bool(0.32);

        let objects: Vec<u32> = if personalized {
            // Create this client's private endpoints on an uncacheable-
            // leaning domain.
            let d = pick_domain_of(
                domains,
                rng,
                &[
                    IndustryCategory::FinancialServices,
                    IndustryCategory::Social,
                    IndustryCategory::Gaming,
                ],
            );
            let host = &domains[d].host;
            let token = format!("{:016x}", client.ip_hash);
            let mut ids = Vec::new();
            for k in 0..rng.gen_range(3..7) {
                let id = push_object_with_body(
                    &mut universe.objects,
                    d as u32,
                    format!("https://{host}/user/{token}/{}", personal_endpoint(k)),
                    MimeType::Json,
                    false, // personalized content is never cacheable
                    SimDuration::from_secs(30),
                    String::new(),
                );
                // Personalized responses are dynamic JSON, not empty.
                let obj = &mut universe.objects[id as usize];
                obj.body = None;
                obj.size_median = config.sizes.json.0 * 0.8;
                obj.size_sigma = config.sizes.json.1;
                ids.push(id);
            }
            ids
        } else {
            // A few shared API pools, popularity-weighted. Spanning several
            // domains keeps one domain's cache policy from dominating a
            // client's whole traffic mix.
            let mut pool = Vec::new();
            for _ in 0..2 {
                let d = domain_weights.sample(rng).unwrap_or(0);
                pool.extend_from_slice(&universe.api_pools[d]);
            }
            pool
        };

        let post_fraction = if personalized { 0.30 } else { 0.18 };
        api_app = Some(InteractiveApi {
            objects,
            zipf: 1.2,
            rate_per_hour: (interactive_budget / hours).max(0.01),
            post_fraction,
            // Real API traffic walks application step chains (§5.2's
            // premise); roughly two thirds of requests follow the chain.
            chain_prob: 0.72,
        });
    }

    if manifest_app.is_none() && api_app.is_none() {
        return None;
    }
    Some(ClientPlan {
        client: client_index,
        manifest: manifest_app,
        api: api_app,
        seed: rng.gen(),
    })
}

fn personal_endpoint(k: usize) -> &'static str {
    const ENDPOINTS: &[&str] = &[
        "feed",
        "inbox",
        "balance",
        "recs",
        "cart",
        "profile",
        "notifications",
    ];
    ENDPOINTS[k % ENDPOINTS.len()]
}

fn pick_domain_of(
    domains: &[DomainInfo],
    rng: &mut StdRng,
    preferred: &[IndustryCategory],
) -> usize {
    let candidates: Vec<usize> = domains
        .iter()
        .enumerate()
        .filter(|(_, d)| preferred.contains(&d.industry))
        .map(|(i, _)| i)
        .collect();
    if candidates.is_empty() {
        rng.gen_range(0..domains.len())
    } else {
        candidates[rng.gen_range(0..candidates.len())]
    }
}

fn to_event(client: u32, r: &AppRequest) -> RequestEvent {
    RequestEvent {
        time: r.time,
        client,
        object: r.object,
        method: r.method,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadConfig;

    fn tiny() -> Workload {
        build(&WorkloadConfig::tiny(0xFEED))
    }

    #[test]
    fn builds_a_nonempty_sorted_workload() {
        let w = tiny();
        assert!(!w.is_empty());
        assert!(w.events.windows(2).all(|p| p[0].time <= p[1].time));
        assert!(!w.domains.is_empty());
        assert!(!w.objects.is_empty());
        assert_eq!(w.clients.len(), w.config.clients);
        // Every event references valid indices.
        assert!(w.events.iter().all(
            |e| (e.client as usize) < w.clients.len() && (e.object as usize) < w.objects.len()
        ));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = build(&WorkloadConfig::tiny(7));
        let b = build(&WorkloadConfig::tiny(7));
        assert_eq!(a.events, b.events);
        let c = build(&WorkloadConfig::tiny(8));
        assert_ne!(a.events, c.events);
    }

    #[test]
    fn parallel_build_is_thread_count_invariant() {
        // Ten clients: the widest pools get more threads than plans.
        let few = WorkloadConfig::tiny(7).scaled(0.01);
        assert_eq!(few.clients, 10);
        for config in [WorkloadConfig::tiny(7), few] {
            let sequential = build(&config);
            assert!(!sequential.is_empty());
            for threads in [2, 3, 5, 64] {
                let parallel = build_parallel(&config, threads);
                let ctx = format!("{} clients, {threads} threads", config.clients);
                assert_eq!(sequential.events, parallel.events, "{ctx}");
                assert_eq!(sequential.objects.len(), parallel.objects.len(), "{ctx}");
            }
        }
    }

    #[test]
    fn event_volume_is_near_target() {
        let w = tiny();
        let target = w.config.target_events as f64;
        let actual = w.len() as f64;
        assert!(
            (actual - target).abs() / target < 0.35,
            "target {target}, got {actual}"
        );
    }

    #[test]
    fn device_mix_lands_near_targets() {
        let w = tiny();
        let mut by_device: HashMap<DeviceType, usize> = HashMap::new();
        for e in &w.events {
            *by_device
                .entry(w.clients[e.client as usize].device)
                .or_default() += 1;
        }
        let total = w.len() as f64;
        let share = |d: DeviceType| by_device.get(&d).copied().unwrap_or(0) as f64 / total;
        assert!(
            (share(DeviceType::Mobile) - 0.55).abs() < 0.12,
            "mobile {}",
            share(DeviceType::Mobile)
        );
        assert!(
            (share(DeviceType::Embedded) - 0.12).abs() < 0.08,
            "embedded {}",
            share(DeviceType::Embedded)
        );
        assert!(
            (share(DeviceType::Unknown) - 0.24).abs() < 0.10,
            "unknown {}",
            share(DeviceType::Unknown)
        );
    }

    #[test]
    fn get_share_lands_near_target() {
        let w = tiny();
        let json_events: Vec<_> = w
            .events
            .iter()
            .filter(|e| w.objects[e.object as usize].mime == MimeType::Json)
            .collect();
        let gets = json_events
            .iter()
            .filter(|e| e.method == Method::Get)
            .count();
        let share = gets as f64 / json_events.len() as f64;
        assert!((share - 0.84).abs() < 0.08, "GET share {share}");
    }

    #[test]
    fn periodic_share_lands_near_target() {
        let w = tiny();
        let periodic = w
            .events
            .iter()
            .filter(|e| w.truth.periodic_pairs.contains_key(&(e.client, e.object)))
            .count();
        let share = periodic as f64 / w.len() as f64;
        assert!((0.02..0.13).contains(&share), "periodic share {share}");
        assert!(!w.truth.periodic_objects.is_empty());
        // All planted periods are on the paper's spikes.
        #[expect(
            clippy::iter_over_hash_type,
            clippy::disallowed_methods,
            reason = "every entry is checked; order is irrelevant"
        )]
        for period in w.truth.periodic_objects.values() {
            assert!(
                PERIOD_SPIKES.iter().any(|&(p, _)| p == period.as_secs()),
                "unexpected period {period}"
            );
        }
    }

    #[test]
    fn manifest_truth_references_real_objects() {
        let w = tiny();
        assert!(!w.truth.manifest_children.is_empty());
        #[expect(
            clippy::iter_over_hash_type,
            reason = "every entry is checked; order is irrelevant"
        )]
        for (&root, children) in &w.truth.manifest_children {
            assert!((root as usize) < w.objects.len());
            assert!(!children.is_empty());
            for &c in children {
                assert!((c as usize) < w.objects.len());
            }
        }
    }

    #[test]
    fn manifest_bodies_parse_and_reference_children() {
        let w = tiny();
        let with_body = w.objects.iter().filter(|o| o.body.is_some()).count();
        assert!(with_body > 0, "some manifests must carry bodies");
        for o in w.objects.iter().filter(|o| o.body.is_some()) {
            let body = o.body.as_ref().unwrap();
            let doc = jcdn_json::parse(body).expect("manifest bodies are valid JSON");
            let refs = jcdn_json::extract_url_refs(&doc);
            assert!(!refs.is_empty(), "manifest must reference children: {body}");
        }
    }

    #[test]
    fn personalized_objects_are_uncacheable_and_unique() {
        let w = tiny();
        let personalized: Vec<_> = w
            .objects
            .iter()
            .filter(|o| o.url.contains("/user/"))
            .collect();
        assert!(!personalized.is_empty());
        assert!(personalized.iter().all(|o| !o.cacheable));
        // Unique per client: URL contains the ip hash token.
        let mut urls: Vec<&str> = personalized.iter().map(|o| o.url.as_str()).collect();
        urls.sort_unstable();
        let before = urls.len();
        urls.dedup();
        assert_eq!(before, urls.len());
    }

    #[test]
    fn uncacheable_share_is_majority() {
        // The tiny universe has only 40 domains, so domain-level cache
        // policy luck swings this share by ±10pp for any single seed;
        // average a few seeds here and leave the tight calibration check
        // against the paper's 55% to the repro harness, which runs over
        // the 600-domain short-term dataset.
        let mut total_json = 0usize;
        let mut total_uncacheable = 0usize;
        for seed in [0xFEED, 0xBEEF, 0xACE5] {
            let w = build(&WorkloadConfig::tiny(seed));
            for e in &w.events {
                let o = &w.objects[e.object as usize];
                if o.mime == MimeType::Json {
                    total_json += 1;
                    total_uncacheable += usize::from(!o.cacheable);
                }
            }
        }
        let share = total_uncacheable as f64 / total_json as f64;
        assert!((0.45..0.78).contains(&share), "uncacheable share {share}");
    }

    #[test]
    fn json_dominates_the_event_mix() {
        let w = tiny();
        let share = w.json_share();
        assert!(share > 0.6, "JSON share {share}");
    }
}
