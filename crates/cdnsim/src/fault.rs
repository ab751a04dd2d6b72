//! Fault injection and resilience: the deterministic fault plan the
//! simulator executes, and the retry / graceful-degradation knobs that
//! decide how the synthetic CDN reacts to it.
//!
//! Real CDN logs are full of partial failure: origins go down for minutes,
//! get slow enough to trip timeouts, single edges flap out of rotation, and
//! origin errors arrive in bursts rather than as independent coin flips.
//! A [`FaultPlan`] describes all of that ahead of time — seed-driven and
//! reproducible, so the same (workload, config, plan) triple always yields
//! byte-identical traces — and a [`ResilienceConfig`] describes the
//! countermeasures: capped exponential client retries, stale-if-error
//! serving at the edge, negative caching of origin failures, and request
//! coalescing of concurrent misses.

use jcdn_trace::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A half-open simulated-time window `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Window {
    /// First instant inside the window.
    pub start: SimTime,
    /// First instant after the window.
    pub end: SimTime,
}

impl Window {
    /// Builds a window from second offsets into the simulation.
    pub fn from_secs(start: u64, end: u64) -> Window {
        Window {
            start: SimTime::from_secs(start),
            end: SimTime::from_secs(end),
        }
    }

    /// True when `t` falls inside the window.
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

/// A full origin outage for one domain: every origin fetch inside the
/// window fails with 503.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OriginOutage {
    /// Index into the workload's domain table.
    pub domain: u32,
    /// When the origin is unreachable.
    pub window: Window,
}

/// A degraded (slow) origin: fetch latency is multiplied by
/// `latency_factor`, which trips the configured origin timeout when the
/// inflated fetch would take longer than
/// [`ResilienceConfig::origin_timeout`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OriginDegradation {
    /// Index into the workload's domain table.
    pub domain: u32,
    /// When the origin is degraded.
    pub window: Window,
    /// Multiplier applied to origin fetch latency (> 1 slows it down).
    pub latency_factor: f64,
}

/// An edge server out of rotation: requests that would hash to it are
/// spread across the remaining edges for the duration of the window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeFlap {
    /// Index of the flapping edge.
    pub edge: usize,
    /// When the edge is out of rotation.
    pub window: Window,
}

/// Bursty stochastic origin errors: a two-state (quiet/burst) Markov chain
/// advanced once per origin attempt, replacing the i.i.d. error draw.
///
/// With `enter_burst == 0` (or equal error fractions in both states) this
/// degenerates to the classic independent draw, which is how the legacy
/// `error_fraction` knob is kept working.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ErrorBursts {
    /// Error probability per origin attempt while quiet.
    pub quiet_error_fraction: f64,
    /// Error probability per origin attempt while bursting.
    pub burst_error_fraction: f64,
    /// Per-attempt probability of switching quiet → burst.
    pub enter_burst: f64,
    /// Per-attempt probability of switching burst → quiet.
    pub exit_burst: f64,
}

/// Everything that goes wrong during one simulation, decided up front.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Hard origin outages.
    pub outages: Vec<OriginOutage>,
    /// Slow-origin periods.
    pub degradations: Vec<OriginDegradation>,
    /// Edges out of rotation.
    pub flaps: Vec<EdgeFlap>,
    /// Bursty stochastic errors; `None` falls back to the i.i.d.
    /// `error_fraction` draw.
    pub errors: Option<ErrorBursts>,
}

impl FaultPlan {
    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.outages.is_empty()
            && self.degradations.is_empty()
            && self.flaps.is_empty()
            && self.errors.is_none()
    }

    /// Is `domain`'s origin hard-down at `t`?
    pub fn outage_at(&self, domain: u32, t: SimTime) -> bool {
        self.outages
            .iter()
            .any(|o| o.domain == domain && o.window.contains(t))
    }

    /// Latency multiplier for `domain`'s origin at `t`, when degraded.
    /// Overlapping degradations compound (both slowdowns apply).
    pub fn degradation_at(&self, domain: u32, t: SimTime) -> Option<f64> {
        let mut factor = 1.0;
        let mut any = false;
        for d in &self.degradations {
            if d.domain == domain && d.window.contains(t) {
                factor *= d.latency_factor;
                any = true;
            }
        }
        any.then_some(factor)
    }

    /// Is `edge` out of rotation at `t`?
    pub fn edge_down(&self, edge: usize, t: SimTime) -> bool {
        self.flaps
            .iter()
            .any(|f| f.edge == edge && f.window.contains(t))
    }
}

/// Client retry policy and edge graceful-degradation knobs.
#[derive(Clone, Debug, PartialEq)]
pub struct ResilienceConfig {
    /// Maximum retries per logical request (0 disables retrying).
    pub retry_budget: u8,
    /// First backoff delay; doubles per attempt.
    pub retry_base: SimDuration,
    /// Backoff ceiling.
    pub retry_cap: SimDuration,
    /// How long past TTL expiry an entry may still be served when the
    /// origin is unavailable (stale-if-error). Zero disables serve-stale.
    pub stale_grace: SimDuration,
    /// How long an origin-unavailability failure is answered from the
    /// negative cache without re-contacting the origin. Zero disables it.
    pub negative_ttl: SimDuration,
    /// Abort an origin fetch that would take longer than this (degraded
    /// origins trip it and fail with 504).
    pub origin_timeout: SimDuration,
    /// Mark requests that land on an object whose origin fetch is still in
    /// flight, and make them wait for that fetch instead of assuming the
    /// body is already there.
    pub coalesce: bool,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            retry_budget: 2,
            retry_base: SimDuration::from_millis(250),
            retry_cap: SimDuration::from_secs(8),
            stale_grace: SimDuration::from_secs(600),
            negative_ttl: SimDuration::from_secs(2),
            origin_timeout: SimDuration::from_secs(3),
            coalesce: true,
        }
    }
}

impl ResilienceConfig {
    /// Every countermeasure off — the control arm of availability
    /// experiments. The origin timeout stays, so degraded origins fail the
    /// same way in both arms and only the *reaction* differs.
    pub fn disabled() -> ResilienceConfig {
        ResilienceConfig {
            retry_budget: 0,
            stale_grace: SimDuration::ZERO,
            negative_ttl: SimDuration::ZERO,
            coalesce: false,
            ..ResilienceConfig::default()
        }
    }

    /// Backoff before retry number `attempt` (1-based): capped exponential
    /// with a deterministic jitter derived from the request identity, so
    /// retry storms de-synchronize without a wall clock or shared RNG.
    pub fn backoff(&self, attempt: u8, request_key: u64) -> SimDuration {
        let base = self.retry_base.as_micros().max(1);
        let exp = base.saturating_mul(1u64 << (attempt.saturating_sub(1)).min(20));
        let capped = exp.min(self.retry_cap.as_micros().max(1));
        // Jitter in [-12.5%, +12.5%) from a splitmix64-style mix of the
        // request identity.
        let mut z = request_key
            .wrapping_add(u64::from(attempt))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 31;
        let jitter = (capped / 4).saturating_mul(z % 1000) / 1000;
        SimDuration::from_micros(capped - capped / 8 + jitter)
    }
}

/// Mutable fault-side state: the Markov error chain and its dedicated RNG
/// stream (separate from the simulator's main stream, so enabling bursts
/// does not perturb size/latency draws).
#[derive(Clone, Debug)]
pub struct FaultState {
    rng: StdRng,
    in_burst: bool,
}

impl FaultState {
    /// Builds the fault stream for one run. Callers derive `seed` from the
    /// simulation seed so the whole run stays reproducible.
    pub fn new(seed: u64) -> FaultState {
        FaultState {
            rng: StdRng::seed_from_u64(seed),
            in_burst: false,
        }
    }

    /// Draws whether this origin attempt fails stochastically, advancing
    /// the burst chain when one is configured; otherwise an independent
    /// draw with `fallback_p` (the legacy `error_fraction`).
    pub fn error_draw(&mut self, bursts: Option<&ErrorBursts>, fallback_p: f64) -> bool {
        match bursts {
            None => fallback_p > 0.0 && self.rng.gen_bool(fallback_p),
            Some(b) => {
                let flip = if self.in_burst {
                    b.exit_burst
                } else {
                    b.enter_burst
                };
                if flip > 0.0 && self.rng.gen_bool(flip.min(1.0)) {
                    self.in_burst = !self.in_burst;
                }
                let p = if self.in_burst {
                    b.burst_error_fraction
                } else {
                    b.quiet_error_fraction
                };
                p > 0.0 && self.rng.gen_bool(p.min(1.0))
            }
        }
    }

    /// True while the chain is in its burst state.
    pub fn in_burst(&self) -> bool {
        self.in_burst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_is_half_open() {
        let w = Window::from_secs(10, 20);
        assert!(!w.contains(SimTime::from_secs(9)));
        assert!(w.contains(SimTime::from_secs(10)));
        assert!(w.contains(SimTime::from_secs(19)));
        assert!(!w.contains(SimTime::from_secs(20)));
    }

    #[test]
    fn plan_lookups_respect_domain_and_window() {
        let plan = FaultPlan {
            outages: vec![OriginOutage {
                domain: 3,
                window: Window::from_secs(100, 200),
            }],
            degradations: vec![
                OriginDegradation {
                    domain: 1,
                    window: Window::from_secs(0, 50),
                    latency_factor: 10.0,
                },
                OriginDegradation {
                    domain: 1,
                    window: Window::from_secs(40, 60),
                    latency_factor: 2.0,
                },
            ],
            flaps: vec![EdgeFlap {
                edge: 0,
                window: Window::from_secs(5, 6),
            }],
            errors: None,
        };
        assert!(!plan.is_empty());
        assert!(plan.outage_at(3, SimTime::from_secs(150)));
        assert!(!plan.outage_at(2, SimTime::from_secs(150)));
        assert!(!plan.outage_at(3, SimTime::from_secs(250)));
        assert_eq!(plan.degradation_at(1, SimTime::from_secs(10)), Some(10.0));
        assert_eq!(
            plan.degradation_at(1, SimTime::from_secs(45)),
            Some(20.0),
            "overlapping degradations compound"
        );
        assert_eq!(plan.degradation_at(0, SimTime::from_secs(10)), None);
        assert!(plan.edge_down(0, SimTime::from_secs(5)));
        assert!(!plan.edge_down(1, SimTime::from_secs(5)));
        assert!(FaultPlan::default().is_empty());
    }

    #[test]
    fn backoff_is_capped_exponential_with_bounded_jitter() {
        let r = ResilienceConfig::default();
        let mut prev = SimDuration::ZERO;
        for attempt in 1..=6u8 {
            let d = r.backoff(attempt, 42);
            // Jitter keeps the delay within ±25% of the capped exponential.
            let nominal = (r.retry_base.as_micros() << (attempt - 1)).min(r.retry_cap.as_micros());
            assert!(d.as_micros() >= nominal - nominal / 8, "attempt {attempt}");
            assert!(d.as_micros() <= nominal + nominal / 4, "attempt {attempt}");
            assert!(d >= prev || nominal == r.retry_cap.as_micros());
            prev = d;
        }
        // Deterministic per (attempt, key), distinct across keys.
        assert_eq!(r.backoff(1, 7), r.backoff(1, 7));
        assert_ne!(r.backoff(1, 7), r.backoff(1, 8));
    }

    #[test]
    fn iid_bursts_match_plain_fraction() {
        // The degenerate chain: every attempt fails with probability 0.05.
        let b = ErrorBursts {
            quiet_error_fraction: 0.05,
            burst_error_fraction: 0.05,
            enter_burst: 0.0,
            exit_burst: 1.0,
        };
        let mut s = FaultState::new(1);
        let n = 40_000;
        let hits = (0..n).filter(|_| s.error_draw(Some(&b), 0.0)).count();
        let share = hits as f64 / n as f64;
        assert!((0.04..0.06).contains(&share), "share {share}");
        assert!(!s.in_burst() || b.exit_burst == 1.0);
    }

    #[test]
    fn bursty_errors_cluster() {
        // Quiet 0.1% vs burst 60%, with slow transitions: the error stream
        // must show long runs, i.e. far more adjacent error pairs than an
        // i.i.d. stream of the same stationary rate would produce.
        let b = ErrorBursts {
            quiet_error_fraction: 0.001,
            burst_error_fraction: 0.6,
            enter_burst: 0.002,
            exit_burst: 0.02,
        };
        let mut s = FaultState::new(99);
        let draws: Vec<bool> = (0..60_000).map(|_| s.error_draw(Some(&b), 0.0)).collect();
        let rate = draws.iter().filter(|&&e| e).count() as f64 / draws.len() as f64;
        let pairs =
            draws.windows(2).filter(|w| w[0] && w[1]).count() as f64 / (draws.len() - 1) as f64;
        assert!(rate > 0.01, "stationary rate {rate}");
        assert!(
            pairs > 3.0 * rate * rate,
            "adjacent-error share {pairs} vs i.i.d. expectation {}",
            rate * rate
        );
    }

    #[test]
    fn fault_state_is_deterministic() {
        let b = ErrorBursts {
            quiet_error_fraction: 0.01,
            burst_error_fraction: 0.5,
            enter_burst: 0.01,
            exit_burst: 0.05,
        };
        let mut a = FaultState::new(5);
        let mut c = FaultState::new(5);
        for _ in 0..1000 {
            assert_eq!(a.error_draw(Some(&b), 0.0), c.error_draw(Some(&b), 0.0));
        }
    }

    #[test]
    fn disabled_resilience_turns_everything_off() {
        let r = ResilienceConfig::disabled();
        assert_eq!(r.retry_budget, 0);
        assert_eq!(r.stale_grace, SimDuration::ZERO);
        assert_eq!(r.negative_ttl, SimDuration::ZERO);
        assert!(!r.coalesce);
        assert_eq!(
            r.origin_timeout,
            ResilienceConfig::default().origin_timeout,
            "the timeout is part of the fault model, not the countermeasures"
        );
    }
}
