//! Application behaviour models.
//!
//! Each behaviour turns (client, RNG, duration) into a list of timed object
//! requests. Three families cover the paper's traffic patterns:
//!
//! * [`ManifestApp`] — Table 1's pattern: fetch a root manifest, then a
//!   few referenced articles, then each article's media, with human think
//!   times. Sessions arrive as a Poisson process. Browser page loads use
//!   the same shape with an HTML root ("browser traffic is guided by an
//!   HTML manifest file").
//! * [`PeriodicPoller`] — §5.1's machine-to-machine flows: one object,
//!   fixed period with bounded jitter, GET (score polling) or POST
//!   (telemetry).
//! * [`InteractiveApi`] — unstructured human-triggered API traffic:
//!   Poisson arrivals over a Zipf-weighted object set with a configurable
//!   POST fraction.

use jcdn_stats::dist::{Exponential, Sample, Zipf};
use jcdn_trace::{Method, SimDuration, SimTime};
use rand::Rng;

/// One generated request: when, what, how.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AppRequest {
    /// Request time.
    pub time: SimTime,
    /// Object index in the universe.
    pub object: u32,
    /// HTTP method.
    pub method: Method,
}

/// Table 1's manifest-then-content pattern.
#[derive(Clone, Debug)]
pub struct ManifestApp {
    /// The root manifest object (JSON manifest or HTML page).
    pub root: u32,
    /// Candidate article objects referenced by the manifest.
    pub articles: Vec<u32>,
    /// Per-article media objects (parallel to `articles`).
    pub media: Vec<Vec<u32>>,
    /// Zipf exponent over articles (popular stories dominate).
    pub article_zipf: f64,
    /// Expected sessions per hour for this client.
    pub sessions_per_hour: f64,
    /// Articles opened per session: uniform in `min..=max`.
    pub articles_per_session: (usize, usize),
    /// Mean think time between in-session requests.
    pub mean_think: SimDuration,
}

impl ManifestApp {
    /// Generates this app's requests over `[0, duration)`.
    pub(crate) fn generate<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        duration: SimDuration,
        out: &mut Vec<AppRequest>,
    ) {
        if self.sessions_per_hour <= 0.0 {
            return;
        }
        let session_gap = Exponential::new(self.sessions_per_hour / 3600.0);
        let think = Exponential::new(1.0 / self.mean_think.as_secs_f64().max(0.1));
        let zipf = if self.articles.is_empty() {
            None
        } else {
            Some(Zipf::new(self.articles.len(), self.article_zipf))
        };
        let mut t = session_gap.sample(rng);
        let end = duration.as_secs_f64();
        while t < end {
            // 1) the manifest itself
            out.push(AppRequest {
                time: SimTime::from_secs_f64(t),
                object: self.root,
                method: Method::Get,
            });
            let mut cursor = t;
            if let Some(zipf) = &zipf {
                let (lo, hi) = self.articles_per_session;
                let count = if hi > lo { rng.gen_range(lo..=hi) } else { lo };
                for _ in 0..count {
                    cursor += think.sample(rng);
                    if cursor >= end {
                        break;
                    }
                    // 2) a referenced article
                    let idx = zipf.sample(rng) - 1;
                    out.push(AppRequest {
                        time: SimTime::from_secs_f64(cursor),
                        object: self.articles[idx],
                        method: Method::Get,
                    });
                    // 3) the article's media, shortly after
                    for &m in &self.media[idx] {
                        cursor += 0.2 + think.sample(rng) * 0.1;
                        if cursor >= end {
                            break;
                        }
                        out.push(AppRequest {
                            time: SimTime::from_secs_f64(cursor),
                            object: m,
                            method: Method::Get,
                        });
                    }
                }
            }
            t += session_gap.sample(rng);
        }
    }

    /// Expected number of requests over `duration`: the tests' reference
    /// for the session generator.
    #[cfg(test)]
    fn expected_requests(&self, duration: SimDuration) -> f64 {
        let sessions = self.sessions_per_hour * duration.as_secs_f64() / 3600.0;
        let (lo, hi) = self.articles_per_session;
        let articles = (lo + hi) as f64 / 2.0;
        let media_per_article = if self.articles.is_empty() {
            0.0
        } else {
            self.media.iter().map(Vec::len).sum::<usize>() as f64 / self.articles.len() as f64
        };
        sessions * (1.0 + articles * (1.0 + media_per_article))
    }
}

/// §5.1's periodic machine-to-machine flow.
#[derive(Clone, Debug)]
pub struct PeriodicPoller {
    /// The polled/reported object.
    pub object: u32,
    /// The planted period.
    pub period: SimDuration,
    /// Uniform jitter applied to each tick, `±jitter`.
    pub jitter: SimDuration,
    /// Phase offset of the first tick within the active window.
    pub phase: SimDuration,
    /// When the poller starts (apps poll while they are open/awake, not
    /// necessarily the whole capture).
    pub start: SimDuration,
    /// How long the poller stays active from `start`.
    pub active: SimDuration,
    /// GET for polls, POST for telemetry uploads.
    pub method: Method,
}

impl PeriodicPoller {
    /// A poller active over the whole capture; the tests build theirs
    /// with it.
    #[cfg(test)]
    fn always_on(
        object: u32,
        period: SimDuration,
        jitter: SimDuration,
        phase: SimDuration,
        method: Method,
        duration: SimDuration,
    ) -> Self {
        PeriodicPoller {
            object,
            period,
            jitter,
            phase,
            start: SimDuration::ZERO,
            active: duration,
            method,
        }
    }

    /// Generates tick requests over the active window clipped to
    /// `[0, duration)`.
    pub(crate) fn generate<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        duration: SimDuration,
        out: &mut Vec<AppRequest>,
    ) {
        let period = self.period.as_secs_f64();
        assert!(period > 0.0, "period must be positive");
        let jitter = self.jitter.as_secs_f64();
        let start = self.start.as_secs_f64();
        let end = (start + self.active.as_secs_f64()).min(duration.as_secs_f64());
        let mut tick = start + self.phase.as_secs_f64();
        while tick < end {
            let jittered = if jitter > 0.0 {
                (tick + rng.gen_range(-jitter..=jitter)).max(0.0)
            } else {
                tick
            };
            if jittered < end {
                out.push(AppRequest {
                    time: SimTime::from_secs_f64(jittered),
                    object: self.object,
                    method: self.method,
                });
            }
            tick += period;
        }
    }

    /// Expected number of requests given the capture `duration`.
    pub(crate) fn expected_requests(&self, duration: SimDuration) -> f64 {
        let start = self.start.as_secs_f64();
        let end = (start + self.active.as_secs_f64()).min(duration.as_secs_f64());
        ((end - start) / self.period.as_secs_f64()).max(0.0)
    }
}

/// Unstructured Poisson API traffic.
#[derive(Clone, Debug)]
pub struct InteractiveApi {
    /// Candidate objects. Order matters: the chain successor of
    /// `objects[i]` is `objects[(i + 1) % len]`.
    pub objects: Vec<u32>,
    /// Zipf exponent over `objects`.
    pub zipf: f64,
    /// Expected requests per hour.
    pub rate_per_hour: f64,
    /// Fraction of requests that are POSTs.
    pub post_fraction: f64,
    /// Probability that a request follows the application's step chain
    /// (`objects[i] → objects[i+1]`) instead of an independent Zipf draw.
    /// API traffic has real sequential structure — login → config → list →
    /// item — which is exactly what §5.2's n-gram model learns.
    pub chain_prob: f64,
}

impl InteractiveApi {
    /// Generates requests over `[0, duration)`.
    pub(crate) fn generate<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        duration: SimDuration,
        out: &mut Vec<AppRequest>,
    ) {
        if self.objects.is_empty() || self.rate_per_hour <= 0.0 {
            return;
        }
        let gap = Exponential::new(self.rate_per_hour / 3600.0);
        let zipf = Zipf::new(self.objects.len(), self.zipf);
        let end = duration.as_secs_f64();
        let mut t = gap.sample(rng);
        let mut last: Option<usize> = None;
        while t < end {
            let index = match last {
                Some(prev) if rng.gen_bool(self.chain_prob.clamp(0.0, 1.0)) => {
                    (prev + 1) % self.objects.len()
                }
                _ => zipf.sample(rng) - 1,
            };
            last = Some(index);
            let object = self.objects[index];
            let method = if rng.gen_bool(self.post_fraction.clamp(0.0, 1.0)) {
                Method::Post
            } else {
                Method::Get
            };
            out.push(AppRequest {
                time: SimTime::from_secs_f64(t),
                object,
                method,
            });
            t += gap.sample(rng);
        }
    }

    /// Expected number of requests over `duration`.
    pub(crate) fn expected_requests(&self, duration: SimDuration) -> f64 {
        self.rate_per_hour * duration.as_secs_f64() / 3600.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xAB)
    }

    #[test]
    fn manifest_sessions_follow_the_pattern() {
        let app = ManifestApp {
            root: 0,
            articles: vec![1, 2, 3],
            media: vec![vec![10], vec![11], vec![12]],
            article_zipf: 1.0,
            sessions_per_hour: 30.0,
            articles_per_session: (1, 2),
            mean_think: SimDuration::from_secs(5),
        };
        let mut out = Vec::new();
        app.generate(&mut rng(), SimDuration::from_secs(3600), &mut out);
        assert!(!out.is_empty());
        // Every session starts with the root; articles/media follow.
        let roots = out.iter().filter(|r| r.object == 0).count();
        assert!(roots >= 15, "roots {roots}");
        // All manifest traffic is download traffic.
        assert!(out.iter().all(|r| r.method == Method::Get));
        // Media requests follow their article: whenever object 10 appears,
        // the previous article request must be article 1.
        for (i, r) in out.iter().enumerate() {
            if r.object == 10 {
                let prev_article = out[..i].iter().rev().find(|p| (1..=3).contains(&p.object));
                assert_eq!(prev_article.map(|p| p.object), Some(1));
            }
        }
        // Times are non-decreasing within generation? (Each session's
        // internal cursor advances; sessions advance too.)
        let mut sorted = out.clone();
        sorted.sort_by_key(|r| r.time);
        // Generation is almost sorted; just verify count stability.
        assert_eq!(sorted.len(), out.len());
    }

    #[test]
    fn manifest_expected_requests_close_to_actual() {
        let app = ManifestApp {
            root: 0,
            articles: vec![1, 2, 3, 4],
            media: vec![vec![10, 11], vec![12], vec![], vec![13]],
            article_zipf: 0.8,
            sessions_per_hour: 60.0,
            articles_per_session: (2, 2),
            mean_think: SimDuration::from_secs(2),
        };
        let mut out = Vec::new();
        app.generate(&mut rng(), SimDuration::from_secs(7200), &mut out);
        let expected = app.expected_requests(SimDuration::from_secs(7200));
        let actual = out.len() as f64;
        assert!(
            (actual - expected).abs() / expected < 0.25,
            "expected {expected}, got {actual}"
        );
    }

    #[test]
    fn poller_ticks_at_its_period() {
        let p = PeriodicPoller::always_on(
            7,
            SimDuration::from_secs(30),
            SimDuration::from_secs(1),
            SimDuration::from_secs(3),
            Method::Post,
            SimDuration::from_secs(3600),
        );
        let mut out = Vec::new();
        p.generate(&mut rng(), SimDuration::from_secs(3600), &mut out);
        assert!((115..=121).contains(&out.len()), "{} ticks", out.len());
        assert!(out
            .iter()
            .all(|r| r.method == Method::Post && r.object == 7));
        // Mean gap ≈ period.
        let mut times: Vec<f64> = out.iter().map(|r| r.time.as_secs_f64()).collect();
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let gaps: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 30.0).abs() < 1.0, "mean gap {mean}");
    }

    #[test]
    fn poller_without_jitter_is_exact() {
        let p = PeriodicPoller::always_on(
            1,
            SimDuration::from_secs(60),
            SimDuration::ZERO,
            SimDuration::ZERO,
            Method::Get,
            SimDuration::from_secs(600),
        );
        let mut out = Vec::new();
        p.generate(&mut rng(), SimDuration::from_secs(600), &mut out);
        let times: Vec<u64> = out.iter().map(|r| r.time.as_secs()).collect();
        assert_eq!(times, vec![0, 60, 120, 180, 240, 300, 360, 420, 480, 540]);
    }

    #[test]
    fn interactive_rate_and_post_fraction() {
        let api = InteractiveApi {
            objects: (0..20).collect(),
            zipf: 1.0,
            rate_per_hour: 360.0,
            post_fraction: 0.25,
            chain_prob: 0.0,
        };
        let mut out = Vec::new();
        api.generate(&mut rng(), SimDuration::from_secs(3600 * 4), &mut out);
        let expected = api.expected_requests(SimDuration::from_secs(3600 * 4));
        assert!(
            ((out.len() as f64) - expected).abs() / expected < 0.15,
            "expected {expected}, got {}",
            out.len()
        );
        let posts = out.iter().filter(|r| r.method == Method::Post).count();
        let frac = posts as f64 / out.len() as f64;
        assert!((frac - 0.25).abs() < 0.05, "post fraction {frac}");
    }

    #[test]
    fn poller_respects_its_session_window() {
        let p = PeriodicPoller {
            object: 2,
            period: SimDuration::from_secs(30),
            jitter: SimDuration::ZERO,
            phase: SimDuration::ZERO,
            start: SimDuration::from_secs(1000),
            active: SimDuration::from_secs(300),
            method: Method::Get,
        };
        let mut out = Vec::new();
        p.generate(&mut rng(), SimDuration::from_secs(86_400), &mut out);
        assert_eq!(out.len(), 10);
        assert!(out.iter().all(|r| {
            let t = r.time.as_secs();
            (1000..1300).contains(&t)
        }));
        assert!((p.expected_requests(SimDuration::from_secs(86_400)) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn poller_window_clips_at_capture_end() {
        let p = PeriodicPoller {
            object: 2,
            period: SimDuration::from_secs(60),
            jitter: SimDuration::ZERO,
            phase: SimDuration::ZERO,
            start: SimDuration::from_secs(500),
            active: SimDuration::from_secs(10_000),
            method: Method::Get,
        };
        let mut out = Vec::new();
        p.generate(&mut rng(), SimDuration::from_secs(600), &mut out);
        // Active window [500, 600): ticks at 500 and 560.
        let times: Vec<u64> = out.iter().map(|r| r.time.as_secs()).collect();
        assert_eq!(times, vec![500, 560]);
    }

    #[test]
    fn chain_probability_one_walks_the_cycle() {
        let api = InteractiveApi {
            objects: vec![10, 20, 30],
            zipf: 1.0,
            rate_per_hour: 600.0,
            post_fraction: 0.0,
            chain_prob: 1.0,
        };
        let mut out = Vec::new();
        api.generate(&mut rng(), SimDuration::from_secs(3600), &mut out);
        assert!(out.len() > 50);
        // After the first (Zipf) draw, every request follows the cycle.
        for pair in out.windows(2) {
            let prev = api
                .objects
                .iter()
                .position(|&o| o == pair[0].object)
                .unwrap();
            let next = api
                .objects
                .iter()
                .position(|&o| o == pair[1].object)
                .unwrap();
            assert_eq!(next, (prev + 1) % 3, "chain must be followed exactly");
        }
    }

    #[test]
    fn chain_probability_zero_is_zipf_only() {
        let api = InteractiveApi {
            objects: vec![0, 1, 2, 3, 4],
            zipf: 1.0,
            rate_per_hour: 2000.0,
            post_fraction: 0.0,
            chain_prob: 0.0,
        };
        let mut out = Vec::new();
        api.generate(&mut rng(), SimDuration::from_secs(3600), &mut out);
        // With pure Zipf draws the exact-successor rate is ~1/5 — far from
        // the chain's 100%.
        let follows = out
            .windows(2)
            .filter(|p| {
                let prev = p[0].object as usize;
                p[1].object as usize == (prev + 1) % 5
            })
            .count();
        let rate = follows as f64 / (out.len() - 1) as f64;
        assert!(
            rate < 0.5,
            "successor rate {rate} suggests chaining leaked in"
        );
    }

    #[test]
    fn empty_or_zero_rate_apps_generate_nothing() {
        let mut out = Vec::new();
        InteractiveApi {
            objects: vec![],
            zipf: 1.0,
            rate_per_hour: 100.0,
            post_fraction: 0.0,
            chain_prob: 0.0,
        }
        .generate(&mut rng(), SimDuration::from_secs(600), &mut out);
        InteractiveApi {
            objects: vec![1],
            zipf: 1.0,
            rate_per_hour: 0.0,
            post_fraction: 0.0,
            chain_prob: 0.0,
        }
        .generate(&mut rng(), SimDuration::from_secs(600), &mut out);
        ManifestApp {
            root: 0,
            articles: vec![],
            media: vec![],
            article_zipf: 1.0,
            sessions_per_hour: 0.0,
            articles_per_session: (1, 1),
            mean_think: SimDuration::from_secs(1),
        }
        .generate(&mut rng(), SimDuration::from_secs(600), &mut out);
        assert!(out.is_empty());
    }
}
