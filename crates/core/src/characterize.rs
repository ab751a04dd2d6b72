//! §4 — characterizing JSON traffic.
//!
//! Every breakdown here is a mergeable partial. One pass over a record
//! stream (`PartialReport::accumulate`) fills all of them at once,
//! `merge` combines partials exactly (associative and commutative), and
//! anything lossy waits for a once-per-report finalize.
//! [`CharacterizationReport::compute`] is the one entry point that runs
//! them; per-shard results equal the whole-trace result bit-for-bit,
//! which the `shard_invariance` integration tests assert.
//!
//! [`CharacterizationReport::compute`]: crate::pipeline::CharacterizationReport::compute

use std::collections::BTreeMap;

use jcdn_stats::ExactQuantiles;
use jcdn_trace::{HostTable, Interner, UaId, UrlId};
use jcdn_ua::{classify, Classification, DeviceType};
use jcdn_workload::IndustryCategory;

/// Bucket count of the cacheability heatmap (Figure 4 uses ten 10%-wide
/// cells).
pub const HEATMAP_BUCKETS: usize = 10;

/// Pre-classified user-agent table: each distinct UA string classified
/// once, shared by every shard's pass. Records reference UAs by id, so
/// classification costs once per string, and a pass tallies per UA
/// `slot` and classifies the tallies afterwards.
#[derive(Clone, Debug)]
pub struct UaClassTable {
    /// One classification per `UaId`, then the header-absent one.
    slots: Vec<Classification>,
}

impl UaClassTable {
    /// Classifies every UA in the interner's table.
    pub(crate) fn build(interner: &Interner) -> Self {
        UaClassTable {
            slots: interner
                .ua_table()
                .iter()
                .map(|ua| Some(ua.as_ref()))
                .chain([None])
                .map(classify)
                .collect(),
        }
    }

    /// A record's slot: its UA id, or the last slot when the header is
    /// absent.
    pub(crate) fn slot(&self, ua: Option<UaId>) -> usize {
        ua.map_or(self.slots.len() - 1, |ua| ua.0 as usize)
    }

    /// The classification of every slot, in slot order.
    pub(crate) fn slots(&self) -> &[Classification] {
        &self.slots
    }

    /// Iterates the classifications of all distinct UA strings.
    pub(crate) fn classes(&self) -> impl Iterator<Item = &Classification> {
        self.slots[..self.slots.len() - 1].iter()
    }
}

/// Each URL's host and each host's industry, resolved once per report and
/// shared by every shard's pass: the host-side twin of [`UaClassTable`].
/// The [`CategoryProvider`] runs once per distinct host, not per record.
#[derive(Clone, Debug)]
pub struct HostCategoryTable<'t> {
    hosts: HostTable<'t>,
    /// Industry per host id.
    categories: Vec<Option<IndustryCategory>>,
}

impl<'t> HostCategoryTable<'t> {
    /// Resolves every interned URL's host and looks up each host's
    /// industry.
    pub(crate) fn build(interner: &'t Interner, provider: &dyn CategoryProvider) -> Self {
        let hosts = HostTable::build(interner);
        let categories = hosts
            .hosts()
            .iter()
            .map(|host| provider.category(host))
            .collect();
        HostCategoryTable { hosts, categories }
    }

    /// The host id of a URL, in `0..host_count()`.
    pub(crate) fn host_id(&self, url: UrlId) -> usize {
        self.hosts.host_id(url)
    }

    /// The industry of a host id, or `None` when the provider had none.
    pub(crate) fn category(&self, host: usize) -> Option<IndustryCategory> {
        self.categories[host]
    }

    /// Number of distinct hosts.
    pub(crate) fn host_count(&self) -> usize {
        self.categories.len()
    }
}

/// Figure 3: the breakdown of JSON requests by device type, plus the
/// browser/non-browser and UA-string-level shares §4 reports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TrafficSourceBreakdown {
    /// JSON request counts per device type.
    pub requests_by_device: BTreeMap<DeviceType, u64>,
    /// Distinct UA strings per device type (the paper's "distribution of
    /// user agent strings": 73% Mobile / 17% Embedded / 3% Desktop / 7%
    /// Unknown). Filled by `count_ua_strings`,
    /// not by the record pass — it is a property of the shared UA table,
    /// so per-shard partials leave it empty and the merged result counts
    /// it once.
    pub ua_strings_by_device: BTreeMap<DeviceType, u64>,
    /// JSON requests issued by browsers.
    pub browser_requests: u64,
    /// JSON requests issued by mobile browsers.
    pub mobile_browser_requests: u64,
    /// JSON requests issued by browsers on embedded devices (paper: 0).
    pub embedded_browser_requests: u64,
    /// Total JSON requests.
    pub total: u64,
}

impl TrafficSourceBreakdown {
    /// Adds JSON request counts per UA slot (`per_ua[classes.slot(ua)]`)
    /// into the request counters.
    pub(crate) fn count_requests(&mut self, per_ua: &[u64], classes: &UaClassTable) {
        let mut by_device = [0u64; DeviceType::ALL.len()];
        for (c, &n) in classes.slots().iter().zip(per_ua) {
            self.total += n;
            by_device[c.device as usize] += n;
            if c.is_browser {
                self.browser_requests += n;
                match c.device {
                    DeviceType::Mobile => self.mobile_browser_requests += n,
                    DeviceType::Embedded => self.embedded_browser_requests += n,
                    _ => {}
                }
            }
        }
        for device in DeviceType::ALL {
            let n = by_device[device as usize];
            if n > 0 {
                *self.requests_by_device.entry(device).or_default() += n;
            }
        }
    }

    /// Adds `other`'s request counters into `self`. Call on per-shard
    /// partials (whose `ua_strings_by_device` is still empty), then
    /// [`count_ua_strings`][Self::count_ua_strings] once on the total.
    pub(crate) fn merge(&mut self, other: &TrafficSourceBreakdown) {
        for (&device, &count) in &other.requests_by_device {
            *self.requests_by_device.entry(device).or_default() += count;
        }
        for (&device, &count) in &other.ua_strings_by_device {
            *self.ua_strings_by_device.entry(device).or_default() += count;
        }
        self.browser_requests += other.browser_requests;
        self.mobile_browser_requests += other.mobile_browser_requests;
        self.embedded_browser_requests += other.embedded_browser_requests;
        self.total += other.total;
    }

    /// Fills the distinct-UA-string distribution from the shared UA table.
    /// The UA table is global to all shards, so this runs once per report,
    /// not once per shard.
    pub(crate) fn count_ua_strings(&mut self, classes: &UaClassTable) {
        for c in classes.classes() {
            *self.ua_strings_by_device.entry(c.device).or_default() += 1;
        }
    }

    /// Request share of a device type in `[0, 1]`.
    pub fn request_share(&self, device: DeviceType) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        *self.requests_by_device.get(&device).unwrap_or(&0) as f64 / self.total as f64
    }

    /// Distinct-UA-string share of a device type.
    pub fn ua_share(&self, device: DeviceType) -> f64 {
        let total: u64 = self.ua_strings_by_device.values().sum();
        if total == 0 {
            return 0.0;
        }
        *self.ua_strings_by_device.get(&device).unwrap_or(&0) as f64 / total as f64
    }

    /// Share of JSON requests that are non-browser (paper: 88%).
    pub fn non_browser_share(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        1.0 - self.browser_requests as f64 / self.total as f64
    }
}

/// §4's request-type split: GET/downloads vs POST/uploads.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RequestTypeBreakdown {
    /// JSON download (GET/HEAD) requests.
    pub downloads: u64,
    /// JSON upload (POST/PUT) requests.
    pub uploads: u64,
    /// Everything else.
    pub other: u64,
}

impl RequestTypeBreakdown {
    /// Adds `other`'s counters into `self`.
    pub(crate) fn merge(&mut self, other: &RequestTypeBreakdown) {
        self.downloads += other.downloads;
        self.uploads += other.uploads;
        self.other += other.other;
    }

    /// Total JSON requests.
    pub(crate) fn total(&self) -> u64 {
        self.downloads + self.uploads + self.other
    }

    /// GET share (paper: 84%).
    pub fn download_share(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.downloads as f64 / self.total() as f64
    }

    /// Of the non-download remainder, the share that uploads (paper: 96%).
    pub fn upload_share_of_rest(&self) -> f64 {
        let rest = self.uploads + self.other;
        if rest == 0 {
            return 0.0;
        }
        self.uploads as f64 / rest as f64
    }
}

/// §4's response-type characterization: cacheability and sizes.
#[derive(Clone, Debug, Default)]
pub struct ResponseTypeBreakdown {
    /// JSON requests marked uncacheable.
    pub json_uncacheable: u64,
    /// Total JSON requests.
    pub json_total: u64,
    /// JSON response-size distribution.
    pub json_sizes: ExactQuantiles,
    /// HTML response-size distribution.
    pub html_sizes: ExactQuantiles,
}

impl ResponseTypeBreakdown {
    /// Absorbs `other`'s counters and size samples. Quantile queries over
    /// the merged breakdown equal single-pass queries (order statistics
    /// are insertion-order-insensitive).
    pub(crate) fn merge(&mut self, other: &ResponseTypeBreakdown) {
        self.json_uncacheable += other.json_uncacheable;
        self.json_total += other.json_total;
        self.json_sizes.merge(&other.json_sizes);
        self.html_sizes.merge(&other.html_sizes);
    }

    /// Uncacheable share of JSON traffic (paper: ~55%).
    pub fn uncacheable_share(&self) -> f64 {
        if self.json_total == 0 {
            return 0.0;
        }
        self.json_uncacheable as f64 / self.json_total as f64
    }

    /// How much smaller JSON is than HTML at quantile `q`, as a fraction
    /// (paper: 0.24 at the median, 0.87 at p75). `None` when either
    /// distribution is empty.
    pub fn json_smaller_than_html_at(&mut self, q: f64) -> Option<f64> {
        let json = self.json_sizes.quantile(q)?;
        let html = self.html_sizes.quantile(q)?;
        (html > 0.0).then(|| 1.0 - json / html)
    }
}

/// Figure 1 support: JSON and HTML request counts, and their ratio.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ContentMix {
    /// JSON responses.
    pub json: u64,
    /// HTML responses.
    pub html: u64,
}

impl ContentMix {
    /// Adds `other`'s counters into `self`.
    pub(crate) fn merge(&mut self, other: &ContentMix) {
        self.json += other.json;
        self.html += other.html;
    }

    /// The JSON:HTML request-count ratio, or `None` without HTML traffic.
    pub fn ratio(&self) -> Option<f64> {
        (self.html > 0).then(|| self.json as f64 / self.html as f64)
    }
}

/// Maps a domain (URL host) to its industry category.
///
/// The paper used a commercial categorization service \[10\]; the synthetic
/// universe encodes the category in the hostname, and real deployments can
/// plug in an actual service.
pub trait CategoryProvider {
    /// The category for `host`, or `None` when unknown.
    fn category(&self, host: &str) -> Option<IndustryCategory>;
}

/// Category provider for the synthetic universe: reads the industry token
/// the workload generator prefixes hostnames with (`sports-17.example` →
/// `Sports`).
#[derive(Clone, Copy, Debug, Default)]
pub struct TokenCategoryProvider;

impl CategoryProvider for TokenCategoryProvider {
    fn category(&self, host: &str) -> Option<IndustryCategory> {
        let token = host.split('-').next()?;
        IndustryCategory::ALL
            .iter()
            .copied()
            .find(|c| c.host_token() == token)
    }
}

/// Mergeable per-domain cacheability counts — the accumulator behind
/// [`CacheabilityHeatmap`].
///
/// The heatmap buckets each domain's cacheable *fraction*, and fractions
/// from partial streams cannot be combined after bucketing (a domain split
/// across shards would be counted twice). Partials therefore carry the raw
/// `(cacheable, total)` counts per domain and bucket only at
/// `finalize`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DomainCacheability {
    /// `(cacheable JSON requests, total JSON requests)` per host id of the
    /// report's [`HostCategoryTable`]; hosts without JSON stay `(0, 0)`.
    pub per_domain: Vec<(u64, u64)>,
}

impl DomainCacheability {
    /// Adds `other`'s counts into `self`, summing per-domain pairs.
    pub(crate) fn merge(&mut self, other: &DomainCacheability) {
        if self.per_domain.len() < other.per_domain.len() {
            self.per_domain.resize(other.per_domain.len(), (0, 0));
        }
        for (mine, theirs) in self.per_domain.iter_mut().zip(&other.per_domain) {
            mine.0 += theirs.0;
            mine.1 += theirs.1;
        }
    }

    /// Buckets the fractions of the domains with JSON traffic into a
    /// heatmap.
    pub(crate) fn finalize(&self, hosts: &HostCategoryTable<'_>) -> CacheabilityHeatmap {
        let mut rows: BTreeMap<IndustryCategory, Vec<u64>> = BTreeMap::new();
        let mut uncategorized = 0;
        for (host, &(cacheable, total)) in self.per_domain.iter().enumerate() {
            if total == 0 {
                continue;
            }
            let Some(category) = hosts.category(host) else {
                uncategorized += 1;
                continue;
            };
            let fraction = cacheable as f64 / total as f64;
            let bucket = ((fraction * HEATMAP_BUCKETS as f64) as usize).min(HEATMAP_BUCKETS - 1);
            rows.entry(category)
                .or_insert_with(|| vec![0; HEATMAP_BUCKETS])[bucket] += 1;
        }
        CacheabilityHeatmap {
            rows,
            uncategorized,
        }
    }
}

/// Figure 4: the heatmap of per-domain cacheability by industry category.
///
/// Each domain's *cacheable request fraction* is computed from its JSON
/// records, then bucketed into [`HEATMAP_BUCKETS`] equal-width cells; the
/// heatmap row for a category is the distribution of its domains over
/// those cells.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheabilityHeatmap {
    /// `rows[category] = domain counts per bucket`.
    pub rows: BTreeMap<IndustryCategory, Vec<u64>>,
    /// Domains whose host had no category.
    pub uncategorized: u64,
}

impl CacheabilityHeatmap {
    /// Fraction of all categorized domains in the lowest bucket ("never
    /// cacheable"; paper: ~50%).
    pub fn never_cacheable_share(&self) -> f64 {
        self.bucket_share(0)
    }

    /// Fraction of all categorized domains in the highest bucket ("always
    /// cacheable"; paper: ~30%).
    pub fn always_cacheable_share(&self) -> f64 {
        self.bucket_share(HEATMAP_BUCKETS - 1)
    }

    fn bucket_share(&self, bucket: usize) -> f64 {
        let total: u64 = self.rows.values().flat_map(|row| row.iter()).sum();
        if total == 0 {
            return 0.0;
        }
        let in_bucket: u64 = self.rows.values().map(|row| row[bucket]).sum();
        in_bucket as f64 / total as f64
    }

    /// Mean cacheable-domain-fraction for one category row (bucket
    /// midpoints weighted by counts), or `None` when the row is absent.
    pub fn row_mean(&self, category: IndustryCategory) -> Option<f64> {
        let row = self.rows.get(&category)?;
        let total: u64 = row.iter().sum();
        if total == 0 {
            return None;
        }
        let weighted: f64 = row
            .iter()
            .enumerate()
            .map(|(b, &count)| (b as f64 + 0.5) / HEATMAP_BUCKETS as f64 * count as f64)
            .sum();
        Some(weighted / total as f64)
    }
}

/// Availability under faults: what fraction of requests ultimately failed,
/// how hard clients retried, and how often the edge's graceful-degradation
/// machinery (serve-stale, negative caching, coalescing) fired.
///
/// Works on any trace; fault-free traces simply report near-perfect
/// availability. Counts cover *all* records, not just JSON — availability
/// is a service-level property.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AvailabilityBreakdown {
    /// Log records, i.e. delivery attempts (retries included).
    pub attempts: u64,
    /// Attempts that failed and were retried (non-final attempts).
    pub retried_attempts: u64,
    /// 5xx responses with no retry behind them — what the end user saw.
    pub end_user_failures: u64,
    /// All 5xx attempts, retried or not (the origin-side error count).
    pub attempt_failures: u64,
    /// Responses rescued by serve-stale.
    pub stale_serves: u64,
    /// Responses answered out of the negative cache.
    pub neg_cached: u64,
    /// Cache hits that waited on a coalesced in-flight fetch.
    pub coalesced: u64,
    /// Per-industry `(end-user failures, logical requests)` tallies.
    pub per_industry: BTreeMap<IndustryCategory, (u64, u64)>,
    /// Logical requests on hosts with no category.
    pub uncategorized: u64,
}

impl AvailabilityBreakdown {
    /// Adds `(end-user failures, logical requests)` tallies per host id
    /// into the end-user and per-industry counters.
    pub(crate) fn count_logical(&mut self, per_host: &[(u64, u64)], hosts: &HostCategoryTable<'_>) {
        for (host, &(failures, logical)) in per_host.iter().enumerate() {
            if logical == 0 {
                continue;
            }
            self.end_user_failures += failures;
            match hosts.category(host) {
                Some(category) => {
                    let entry = self.per_industry.entry(category).or_default();
                    entry.0 += failures;
                    entry.1 += logical;
                }
                None => self.uncategorized += logical,
            }
        }
    }

    /// Adds `other`'s counters into `self`.
    pub(crate) fn merge(&mut self, other: &AvailabilityBreakdown) {
        self.attempts += other.attempts;
        self.retried_attempts += other.retried_attempts;
        self.end_user_failures += other.end_user_failures;
        self.attempt_failures += other.attempt_failures;
        self.stale_serves += other.stale_serves;
        self.neg_cached += other.neg_cached;
        self.coalesced += other.coalesced;
        for (&category, &(failures, logical)) in &other.per_industry {
            let entry = self.per_industry.entry(category).or_default();
            entry.0 += failures;
            entry.1 += logical;
        }
        self.uncategorized += other.uncategorized;
    }

    /// Logical requests: final attempts (attempts minus retried ones).
    pub(crate) fn logical_requests(&self) -> u64 {
        self.attempts - self.retried_attempts
    }

    /// Share of logical requests that ultimately failed.
    pub fn end_user_error_rate(&self) -> f64 {
        let logical = self.logical_requests();
        if logical == 0 {
            return 0.0;
        }
        self.end_user_failures as f64 / logical as f64
    }

    /// Share of *attempts* that failed — the origin-side error rate the
    /// retry layer hides from end users.
    pub(crate) fn attempt_error_rate(&self) -> f64 {
        if self.attempts == 0 {
            return 0.0;
        }
        self.attempt_failures as f64 / self.attempts as f64
    }

    /// Attempts per logical request (`1.0` when nothing was retried).
    pub(crate) fn retry_amplification(&self) -> f64 {
        let logical = self.logical_requests();
        if logical == 0 {
            return 1.0;
        }
        self.attempts as f64 / logical as f64
    }

    /// Share of logical requests rescued by serve-stale.
    pub(crate) fn stale_serve_share(&self) -> f64 {
        let logical = self.logical_requests();
        if logical == 0 {
            return 0.0;
        }
        self.stale_serves as f64 / logical as f64
    }

    /// Availability (`1 - error rate`) for one industry category, or
    /// `None` when no logical request hit that category.
    pub(crate) fn industry_availability(&self, category: IndustryCategory) -> Option<f64> {
        let &(failures, logical) = self.per_industry.get(&category)?;
        (logical > 0).then(|| 1.0 - failures as f64 / logical as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{CharacterizationReport, PartialReport};
    use jcdn_trace::{
        CacheStatus, ClientId, LogRecord, Method, MimeType, RecordFlags, SimTime, Trace, UaId,
    };

    fn report(trace: &Trace) -> CharacterizationReport {
        CharacterizationReport::compute(trace, &TokenCategoryProvider, 1)
    }

    fn push(
        trace: &mut Trace,
        url: &str,
        ua: Option<UaId>,
        method: Method,
        mime: MimeType,
        bytes: u64,
        cache: CacheStatus,
    ) {
        let url = trace.intern_url(url);
        trace.push(LogRecord {
            time: SimTime::ZERO,
            client: ClientId(1),
            ua,
            url,
            method,
            mime,
            status: 200,
            response_bytes: bytes,
            cache,
            retries: 0,
            flags: RecordFlags::NONE,
        });
    }

    #[test]
    fn traffic_source_counts_json_only() {
        let mut t = Trace::new();
        let app = t.intern_ua("NewsApp/1.0 (iPhone; iOS 12.4)");
        let browser = t.intern_ua(
            "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 \
             (KHTML, like Gecko) Chrome/74.0.3729.131 Safari/537.36",
        );
        push(
            &mut t,
            "https://a.example/j",
            Some(app),
            Method::Get,
            MimeType::Json,
            10,
            CacheStatus::Hit,
        );
        push(
            &mut t,
            "https://a.example/j",
            Some(browser),
            Method::Get,
            MimeType::Json,
            10,
            CacheStatus::Hit,
        );
        push(
            &mut t,
            "https://a.example/h",
            Some(browser),
            Method::Get,
            MimeType::Html,
            10,
            CacheStatus::Hit,
        );
        push(
            &mut t,
            "https://a.example/j",
            None,
            Method::Get,
            MimeType::Json,
            10,
            CacheStatus::Hit,
        );

        let b = report(&t).sources;
        assert_eq!(b.total, 3, "HTML records are excluded");
        assert_eq!(b.request_share(DeviceType::Mobile), 1.0 / 3.0);
        assert_eq!(b.request_share(DeviceType::Desktop), 1.0 / 3.0);
        assert_eq!(b.request_share(DeviceType::Unknown), 1.0 / 3.0);
        assert_eq!(b.browser_requests, 1);
        assert!((b.non_browser_share() - 2.0 / 3.0).abs() < 1e-12);
        // UA strings: one mobile, one desktop.
        assert_eq!(b.ua_share(DeviceType::Mobile), 0.5);
    }

    #[test]
    fn request_type_shares() {
        let mut t = Trace::new();
        for _ in 0..84 {
            push(
                &mut t,
                "https://a.example/x",
                None,
                Method::Get,
                MimeType::Json,
                1,
                CacheStatus::Hit,
            );
        }
        for _ in 0..15 {
            push(
                &mut t,
                "https://a.example/x",
                None,
                Method::Post,
                MimeType::Json,
                1,
                CacheStatus::Hit,
            );
        }
        push(
            &mut t,
            "https://a.example/x",
            None,
            Method::Delete,
            MimeType::Json,
            1,
            CacheStatus::Hit,
        );
        let b = report(&t).requests;
        assert_eq!(b.total(), 100);
        assert!((b.download_share() - 0.84).abs() < 1e-12);
        assert!((b.upload_share_of_rest() - 15.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn response_type_sizes_and_cacheability() {
        let mut t = Trace::new();
        for i in 0..10 {
            push(
                &mut t,
                "https://a.example/j",
                None,
                Method::Get,
                MimeType::Json,
                100 + i,
                if i < 6 {
                    CacheStatus::NotCacheable
                } else {
                    CacheStatus::Hit
                },
            );
            push(
                &mut t,
                "https://a.example/h",
                None,
                Method::Get,
                MimeType::Html,
                1000 + i,
                CacheStatus::Hit,
            );
        }
        let mut b = report(&t).responses;
        assert!((b.uncacheable_share() - 0.6).abs() < 1e-12);
        let smaller = b.json_smaller_than_html_at(0.5).unwrap();
        assert!(
            smaller > 0.88 && smaller < 0.91,
            "JSON ~10x smaller: {smaller}"
        );
    }

    #[test]
    fn heatmap_buckets_domains() {
        let mut t = Trace::new();
        // news-1: all cacheable; bank-1: none; game-1: half.
        for _ in 0..4 {
            push(
                &mut t,
                "https://news-1.example/a",
                None,
                Method::Get,
                MimeType::Json,
                1,
                CacheStatus::Hit,
            );
            push(
                &mut t,
                "https://bank-1.example/a",
                None,
                Method::Get,
                MimeType::Json,
                1,
                CacheStatus::NotCacheable,
            );
        }
        for i in 0..4 {
            push(
                &mut t,
                "https://game-1.example/a",
                None,
                Method::Get,
                MimeType::Json,
                1,
                if i % 2 == 0 {
                    CacheStatus::Hit
                } else {
                    CacheStatus::NotCacheable
                },
            );
        }
        let h = report(&t).heatmap;
        assert_eq!(h.rows[&IndustryCategory::NewsMedia][9], 1);
        assert_eq!(h.rows[&IndustryCategory::FinancialServices][0], 1);
        assert_eq!(h.rows[&IndustryCategory::Gaming][5], 1);
        assert!((h.never_cacheable_share() - 1.0 / 3.0).abs() < 1e-12);
        assert!((h.always_cacheable_share() - 1.0 / 3.0).abs() < 1e-12);
        assert!((h.row_mean(IndustryCategory::Gaming).unwrap() - 0.55).abs() < 1e-12);
        assert_eq!(h.uncategorized, 0);
    }

    #[test]
    fn heatmap_handles_unknown_hosts() {
        let mut t = Trace::new();
        push(
            &mut t,
            "https://mystery.example/a",
            None,
            Method::Get,
            MimeType::Json,
            1,
            CacheStatus::Hit,
        );
        let h = report(&t).heatmap;
        assert_eq!(h.uncategorized, 1);
        assert!(h.rows.is_empty());
    }

    #[test]
    fn ratio_requires_html() {
        let mut t = Trace::new();
        push(
            &mut t,
            "https://a.example/j",
            None,
            Method::Get,
            MimeType::Json,
            1,
            CacheStatus::Hit,
        );
        assert!(report(&t).mix.ratio().is_none());
        push(
            &mut t,
            "https://a.example/h",
            None,
            Method::Get,
            MimeType::Html,
            1,
            CacheStatus::Hit,
        );
        for _ in 0..3 {
            push(
                &mut t,
                "https://a.example/j",
                None,
                Method::Get,
                MimeType::Json,
                1,
                CacheStatus::Hit,
            );
        }
        assert_eq!(report(&t).mix.ratio(), Some(4.0));
    }

    #[test]
    fn availability_separates_end_user_from_attempt_failures() {
        let mut t = Trace::new();
        let mut push_attempt = |url: &str, status: u16, retries: u8, flags: RecordFlags| {
            let url = t.intern_url(url);
            t.push(LogRecord {
                time: SimTime::ZERO,
                client: ClientId(1),
                ua: None,
                url,
                method: Method::Get,
                mime: MimeType::Json,
                status,
                response_bytes: 1,
                cache: CacheStatus::Miss,
                retries,
                flags,
            });
        };
        // Request A on a sports domain: fails, retried, then succeeds.
        push_attempt("https://sports-1.example/a", 503, 0, RecordFlags::RETRIED);
        push_attempt("https://sports-1.example/a", 200, 1, RecordFlags::NONE);
        // Request B on a news domain: fails outright.
        push_attempt("https://news-1.example/b", 500, 0, RecordFlags::NONE);
        // Request C: rescued by serve-stale (a success from the user's view).
        push_attempt(
            "https://news-1.example/c",
            200,
            0,
            RecordFlags::SERVED_STALE.with(RecordFlags::NEG_CACHED),
        );

        let a = report(&t).availability;
        assert_eq!(a.attempts, 4);
        assert_eq!(a.retried_attempts, 1);
        assert_eq!(a.logical_requests(), 3);
        assert_eq!(a.attempt_failures, 2);
        assert_eq!(a.end_user_failures, 1, "the retried 503 is not end-user");
        assert!((a.end_user_error_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert!((a.attempt_error_rate() - 0.5).abs() < 1e-12);
        assert!((a.retry_amplification() - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(a.stale_serves, 1);
        assert_eq!(a.neg_cached, 1);

        assert_eq!(a.industry_availability(IndustryCategory::Sports), Some(1.0));
        assert_eq!(
            a.industry_availability(IndustryCategory::NewsMedia),
            Some(0.5)
        );
    }

    /// A trace with varied mimes, UAs, hosts, statuses, and flags spread
    /// over distinct timestamps, for shard-merge equivalence checks.
    fn varied_trace() -> Trace {
        let mut t = Trace::new();
        let uas: Vec<UaId> = [
            "NewsApp/1.0 (iPhone; iOS 12.4)",
            "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 \
             (KHTML, like Gecko) Chrome/74.0.3729.131 Safari/537.36",
            "okhttp/3.12.1",
        ]
        .iter()
        .map(|ua| t.intern_ua(ua))
        .collect();
        for i in 0..200u64 {
            let host = match i % 4 {
                0 => "news-1.example",
                1 => "bank-2.example",
                2 => "game-3.example",
                _ => "mystery.example",
            };
            let url = t.intern_url(&format!("https://{host}/api/{}", i % 9));
            t.push(LogRecord {
                time: SimTime::from_millis(i * 11),
                client: ClientId(i % 13),
                ua: (i % 5 != 0).then(|| uas[(i % 3) as usize]),
                url,
                method: if i % 6 == 0 {
                    Method::Post
                } else {
                    Method::Get
                },
                mime: match i % 3 {
                    0 => MimeType::Json,
                    1 => MimeType::Html,
                    _ => MimeType::Json,
                },
                status: if i % 17 == 0 { 503 } else { 200 },
                response_bytes: (i * 37) % 5000,
                cache: match i % 3 {
                    0 => CacheStatus::Hit,
                    1 => CacheStatus::Miss,
                    _ => CacheStatus::NotCacheable,
                },
                retries: 0,
                flags: if i % 23 == 0 {
                    RecordFlags::RETRIED
                } else {
                    RecordFlags::NONE
                },
            });
        }
        t
    }

    #[test]
    fn sharded_accumulation_merges_to_the_one_shard_result() {
        let single = report(&varied_trace());

        for shard_count in [1usize, 2, 3, 8] {
            // The manual route: one partial per shard, merged in shard
            // order, finalized once against the shared tables.
            let sharded = Trace::from_trace(varied_trace(), shard_count);
            let classes = UaClassTable::build(sharded.interner());
            let hosts = HostCategoryTable::build(sharded.interner(), &TokenCategoryProvider);
            let mut total = PartialReport::default();
            for i in 0..sharded.shard_count() {
                let mut partial = PartialReport::default();
                partial.accumulate(sharded.shard_records(i), &classes, &hosts);
                total.merge(&partial);
            }
            let merged = total.finalize(&classes, &hosts);

            assert_eq!(merged.sources, single.sources, "{shard_count} shards");
            assert_eq!(merged.requests, single.requests, "{shard_count} shards");
            assert_eq!(
                merged.availability, single.availability,
                "{shard_count} shards"
            );
            assert_eq!(merged.mix, single.mix, "{shard_count} shards");
            assert_eq!(merged.heatmap, single.heatmap, "{shard_count} shards");
            // The records are already in canonical order, so even the size
            // samples line up one for one.
            assert_eq!(
                format!("{:?}", merged.responses),
                format!("{:?}", single.responses),
                "{shard_count} shards"
            );
        }
    }
}
