//! Workload configuration and the paper-calibrated population targets.
//!
//! The shares and size models are the populations §4 and §5 of the paper
//! report. The generator plants them (DESIGN.md §2) and the analyses are
//! judged on recovering them, so they are constants, not settings: a
//! [`WorkloadConfig`] sets only a dataset's name, seed, duration and volume.

use jcdn_trace::SimDuration;

/// Share of requests from mobile devices (paper: ≥ 0.55).
pub(crate) const MOBILE_REQUEST_SHARE: f64 = 0.55;
/// Share of requests from embedded devices (paper: ≈ 0.12).
pub(crate) const EMBEDDED_REQUEST_SHARE: f64 = 0.12;
/// Share of requests from desktops (paper: ≈ 0.09, the remainder after
/// Unknown's 24%).
pub(crate) const DESKTOP_REQUEST_SHARE: f64 = 0.09;
/// Share of all requests issued by *mobile* browsers (paper: 0.025).
pub(crate) const MOBILE_BROWSER_SHARE: f64 = 0.025;
/// Share of JSON requests belonging to periodic flows (paper: 0.063).
pub(crate) const PERIODIC_SHARE: f64 = 0.063;
/// The periodic budget is [`PERIODIC_SHARE`] overplanted by this factor:
/// the significance filters and the conservative permutation thresholds
/// recover roughly 70% of planted periodic traffic, so the detected share
/// lands near the target (calibrated against the full-scale long-term
/// dataset).
pub(crate) const PERIODIC_OVERPLANT: f64 = 1.4;
/// Share of periodic requests that are uploads (paper: 0.78).
pub(crate) const PERIODIC_UPLOAD_SHARE: f64 = 0.78;

// Log-normal size models per content type, (median bytes, σ), calibrated
// to §4: JSON is 24% smaller than HTML at the median and 87% smaller at
// the 75th percentile (JSON bodies are small and tight; HTML is
// heavy-tailed). Median ratio 1800/2400 = 0.76 → 24% smaller at the
// median; p75 ratio = 0.76 · exp(0.6745·(σj − σh)) = 0.76 · e^{−1.72}
// ≈ 0.13 → 87% smaller at p75.

/// (median bytes, σ) for JSON responses.
pub(crate) const JSON_SIZE: (f64, f64) = (1800.0, 0.55);
/// (median bytes, σ) for HTML responses.
pub(crate) const HTML_SIZE: (f64, f64) = (2400.0, 3.10);
/// (median bytes, σ) for images.
pub(crate) const IMAGE_SIZE: (f64, f64) = (24_000.0, 1.0);

/// Full generator configuration.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Dataset label (Table 2 row name).
    pub name: String,
    /// Master seed; everything downstream derives from it.
    pub seed: u64,
    /// Simulated capture duration.
    pub duration: SimDuration,
    /// Number of customer domains.
    pub domains: usize,
    /// Number of clients.
    pub clients: usize,
    /// Approximate total number of request events to generate.
    pub target_events: usize,
}

impl WorkloadConfig {
    /// The short-term dataset: paper = 25M logs / 10 min / ~5K domains over
    /// the whole network. Scaled 1:50 by default (see EXPERIMENTS.md).
    pub fn short_term(seed: u64) -> Self {
        WorkloadConfig {
            name: "Short-term".into(),
            seed,
            duration: SimDuration::from_secs(600),
            domains: 600,
            clients: 12_000,
            target_events: 500_000,
        }
    }

    /// The long-term dataset: paper = 10M logs / 24 h / ~170 domains from
    /// three vantage points. Domain count kept paper-exact; volume scaled.
    pub fn long_term(seed: u64) -> Self {
        WorkloadConfig {
            name: "Long-term".into(),
            seed,
            duration: SimDuration::DAY,
            domains: 170,
            clients: 3_000,
            target_events: 400_000,
        }
    }

    /// A small configuration for unit/integration tests (seconds to build,
    /// still statistically meaningful).
    pub fn tiny(seed: u64) -> Self {
        WorkloadConfig {
            name: "Tiny".into(),
            seed,
            duration: SimDuration::from_secs(300),
            domains: 40,
            clients: 600,
            target_events: 30_000,
        }
    }

    /// Returns a copy scaled by `factor` in volume (clients, events) while
    /// keeping shares and duration fixed.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0 && factor.is_finite());
        self.clients = ((self.clients as f64 * factor).round() as usize).max(10);
        self.target_events = ((self.target_events as f64 * factor).round() as usize).max(100);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_shares_leave_the_paper_unknown_share() {
        let unknown = 1.0 - MOBILE_REQUEST_SHARE - EMBEDDED_REQUEST_SHARE - DESKTOP_REQUEST_SHARE;
        assert!((unknown - 0.24).abs() < 1e-9, "Unknown share {unknown}");
    }

    #[test]
    fn size_models_encode_the_paper_ratios() {
        let (jm, js) = JSON_SIZE;
        let (hm, hs) = HTML_SIZE;
        let median_ratio = jm / hm;
        assert!(
            (median_ratio - 0.76).abs() < 0.02,
            "median ratio {median_ratio}"
        );
        // p75 of a log-normal = median · exp(0.6745σ).
        let p75_ratio = (jm * (0.6745 * js).exp()) / (hm * (0.6745 * hs).exp());
        assert!(
            (0.10..0.17).contains(&p75_ratio),
            "p75 ratio {p75_ratio} (paper: 0.13)"
        );
    }

    #[test]
    fn presets_have_paper_shapes() {
        let short = WorkloadConfig::short_term(1);
        assert_eq!(short.duration.as_secs(), 600);
        let long = WorkloadConfig::long_term(1);
        assert_eq!(long.duration.as_secs(), 86_400);
        assert_eq!(long.domains, 170);
        assert!(short.domains > long.domains);
    }

    #[test]
    fn scaling_changes_volume_not_shape() {
        let base = WorkloadConfig::tiny(1);
        let scaled = base.clone().scaled(0.5);
        assert_eq!(scaled.clients, base.clients / 2);
        assert_eq!(scaled.duration, base.duration);
        assert_eq!(scaled.domains, base.domains);
    }
}
