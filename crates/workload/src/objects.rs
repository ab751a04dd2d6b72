//! Domains and objects of the synthetic universe.

use jcdn_stats::dist::{LogNormal, Sample};
use jcdn_trace::{MimeType, SimDuration};

use crate::industry::{CachePolicy, IndustryCategory};

/// One CDN customer domain.
#[derive(Clone, Debug)]
pub struct DomainInfo {
    /// Hostname, e.g. `sports-17.example`.
    pub host: String,
    /// Ground-truth industry category.
    pub industry: IndustryCategory,
    /// Customer-configured cache policy.
    pub cache_policy: CachePolicy,
    /// Relative request-volume weight of this domain.
    pub popularity: f64,
}

/// One addressable object (URL) in the universe.
#[derive(Clone, Debug)]
pub struct ObjectInfo {
    /// Full URL.
    pub url: String,
    /// Owning domain (index into [`crate::Workload::domains`]).
    pub domain: u32,
    /// Response content type.
    pub mime: MimeType,
    /// Whether the customer configuration allows caching this object.
    pub cacheable: bool,
    /// Cache TTL when cacheable.
    pub ttl: SimDuration,
    /// Median response size in bytes.
    pub size_median: f64,
    /// Log-normal σ of the response size (0 ⇒ fixed size).
    pub size_sigma: f64,
    /// For manifest objects: the JSON body served, containing URL
    /// references to follow-up objects (Table 1's pattern). `None` for
    /// everything else (bodies are synthesized as opaque bytes).
    pub body: Option<String>,
}

impl ObjectInfo {
    /// The rule that draws this object's response sizes, resolved once so
    /// a caller drawing many sizes takes no `ln` per draw.
    ///
    /// Manifest objects return their body's length; static objects
    /// (`size_sigma == 0`) their rounded median; dynamic objects draw
    /// log-normally around the median. Only a manifest body can be shorter
    /// than 2 bytes — every other response in the logs carries at least a
    /// JSON `{}`.
    pub fn size_model(&self) -> SizeModel {
        if let Some(body) = &self.body {
            SizeModel::Fixed(body.len() as u64)
        } else if self.size_sigma == 0.0 {
            SizeModel::Fixed(round_size(self.size_median))
        } else {
            SizeModel::LogNormal(LogNormal::from_median(
                self.size_median.max(2.0),
                self.size_sigma,
            ))
        }
    }
}

/// How one object's response sizes are drawn (see
/// [`ObjectInfo::size_model`]). `Copy`, so a simulator can keep one per
/// object in its per-run table.
#[derive(Clone, Copy, Debug)]
pub enum SizeModel {
    /// Every response is this many bytes; draws no random numbers.
    Fixed(u64),
    /// Log-normal bytes, rounded and at least 2; draws one standard
    /// normal per response.
    LogNormal(LogNormal),
}

impl SizeModel {
    /// Draws one response size in bytes.
    pub fn sample<R: rand::Rng + ?Sized>(self, rng: &mut R) -> u64 {
        match self {
            SizeModel::Fixed(bytes) => bytes,
            SizeModel::LogNormal(dist) => round_size(dist.sample(rng)),
        }
    }
}

/// Rounds a size to whole bytes, at least 2.
fn round_size(size: f64) -> u64 {
    (size.round() as u64).max(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn object(median: f64, sigma: f64, body: Option<String>) -> ObjectInfo {
        ObjectInfo {
            url: "https://h.example/x".into(),
            domain: 0,
            mime: MimeType::Json,
            cacheable: true,
            ttl: SimDuration::from_secs(60),
            size_median: median,
            size_sigma: sigma,
            body,
        }
    }

    /// Reference: the size rule applied per request, re-deriving the
    /// log-normal (one `ln`) on every draw.
    fn per_request_size(o: &ObjectInfo, rng: &mut StdRng) -> u64 {
        if let Some(body) = &o.body {
            return body.len() as u64;
        }
        let size = if o.size_sigma == 0.0 {
            o.size_median
        } else {
            LogNormal::from_median(o.size_median.max(2.0), o.size_sigma).sample(rng)
        };
        (size.round() as u64).max(2)
    }

    #[test]
    fn size_model_draws_what_the_per_request_rule_drew() {
        let objects = [
            object(9999.0, 1.0, Some(r#"{"a":[1,2]}"#.to_owned())),
            object(0.0, 1.0, Some(String::new())),
            object(500.4, 0.0, None),
            object(0.1, 0.0, None),
            object(1800.0, 0.55, None),
            object(2400.0, 3.10, None),
            object(0.5, 0.8, None),
        ];
        for (i, o) in objects.iter().enumerate() {
            let model = o.size_model();
            let mut by_model = StdRng::seed_from_u64(i as u64);
            let mut by_rule = StdRng::seed_from_u64(i as u64);
            for draw in 0..500 {
                assert_eq!(
                    model.sample(&mut by_model),
                    per_request_size(o, &mut by_rule),
                    "object {i}, draw {draw}"
                );
            }
            // Both consumed the same RNG words.
            assert_eq!(by_model.next_u64(), by_rule.next_u64(), "object {i}");
        }
    }

    #[test]
    fn fixed_size_objects_are_deterministic() {
        let model = object(500.0, 0.0, None).size_model();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(model.sample(&mut rng), 500);
        assert_eq!(model.sample(&mut rng), 500);
    }

    #[test]
    fn dynamic_sizes_vary_around_median() {
        let model = object(1000.0, 0.5, None).size_model();
        let mut rng = StdRng::seed_from_u64(2);
        let sizes: Vec<u64> = (0..2000).map(|_| model.sample(&mut rng)).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        assert!((800..1200).contains(&median), "median {median}");
        assert!(sizes.iter().any(|&s| s != sizes[0]), "sizes must vary");
    }

    #[test]
    fn manifest_bodies_pin_the_size() {
        let body = r#"{"stories":[{"id":1}]}"#.to_owned();
        let model = object(9999.0, 1.0, Some(body.clone())).size_model();
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(model.sample(&mut rng), body.len() as u64);
    }

    #[test]
    fn sizes_never_zero() {
        let model = object(0.1, 0.0, None).size_model();
        let mut rng = StdRng::seed_from_u64(4);
        assert!(model.sample(&mut rng) >= 2);
    }
}
