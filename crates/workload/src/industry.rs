//! Industry categories and their cacheability profiles (Figure 4).

/// The eleven industry categories of Figure 4's heatmap.
///
/// The paper categorizes domains with a commercial service \[10\]; here the
/// category is ground truth carried by each synthetic domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IndustryCategory {
    /// News and media publishing.
    NewsMedia,
    /// Sports scores and coverage.
    Sports,
    /// Entertainment portals.
    Entertainment,
    /// Banks, brokerages, payments.
    FinancialServices,
    /// Video/audio streaming.
    Streaming,
    /// Online gaming.
    Gaming,
    /// Retail and e-commerce.
    Ecommerce,
    /// SaaS and technology APIs.
    Technology,
    /// Travel and hospitality.
    Travel,
    /// Social networks and messaging.
    Social,
    /// Advertising, tracking, and analytics beacons.
    Advertising,
}

impl IndustryCategory {
    /// All categories, in the heatmap's row order.
    pub const ALL: [IndustryCategory; 11] = [
        IndustryCategory::NewsMedia,
        IndustryCategory::Sports,
        IndustryCategory::Entertainment,
        IndustryCategory::FinancialServices,
        IndustryCategory::Streaming,
        IndustryCategory::Gaming,
        IndustryCategory::Ecommerce,
        IndustryCategory::Technology,
        IndustryCategory::Travel,
        IndustryCategory::Social,
        IndustryCategory::Advertising,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            IndustryCategory::NewsMedia => "News/Media",
            IndustryCategory::Sports => "Sports",
            IndustryCategory::Entertainment => "Entertainment",
            IndustryCategory::FinancialServices => "Financial Services",
            IndustryCategory::Streaming => "Streaming",
            IndustryCategory::Gaming => "Gaming",
            IndustryCategory::Ecommerce => "E-commerce",
            IndustryCategory::Technology => "Technology",
            IndustryCategory::Travel => "Travel",
            IndustryCategory::Social => "Social",
            IndustryCategory::Advertising => "Advertising",
        }
    }

    /// The probability that a domain of this category is *never* cacheable,
    /// and (independently given not-never) *always* cacheable; the rest are
    /// mixed. Tuned to Figure 4's reading: "Financial Service, Streaming,
    /// and Gaming domains are not cacheable … the majority of News/Media,
    /// Sports, and Entertainment domains are mostly cacheable", with ≈ 50%
    /// of all domains never-cacheable and ≈ 30% always-cacheable overall.
    pub fn cache_profile(self) -> CacheProfile {
        match self {
            IndustryCategory::NewsMedia => CacheProfile {
                never: 0.10,
                always: 0.70,
            },
            IndustryCategory::Sports => CacheProfile {
                never: 0.15,
                always: 0.65,
            },
            IndustryCategory::Entertainment => CacheProfile {
                never: 0.20,
                always: 0.60,
            },
            IndustryCategory::FinancialServices => CacheProfile {
                never: 0.90,
                always: 0.02,
            },
            IndustryCategory::Streaming => CacheProfile {
                never: 0.85,
                always: 0.05,
            },
            IndustryCategory::Gaming => CacheProfile {
                never: 0.85,
                always: 0.05,
            },
            IndustryCategory::Ecommerce => CacheProfile {
                never: 0.48,
                always: 0.25,
            },
            IndustryCategory::Technology => CacheProfile {
                never: 0.38,
                always: 0.34,
            },
            IndustryCategory::Travel => CacheProfile {
                never: 0.45,
                always: 0.28,
            },
            IndustryCategory::Social => CacheProfile {
                never: 0.75,
                always: 0.05,
            },
            IndustryCategory::Advertising => CacheProfile {
                never: 0.70,
                always: 0.10,
            },
        }
    }

    /// Relative share of domains per category (sums to ~1). Uncacheable
    /// industries get enough weight that uncacheable *request volume* lands
    /// near the paper's 55%.
    pub fn domain_weight(self) -> f64 {
        match self {
            IndustryCategory::NewsMedia => 0.12,
            IndustryCategory::Sports => 0.07,
            IndustryCategory::Entertainment => 0.08,
            IndustryCategory::FinancialServices => 0.12,
            IndustryCategory::Streaming => 0.10,
            IndustryCategory::Gaming => 0.10,
            IndustryCategory::Ecommerce => 0.10,
            IndustryCategory::Technology => 0.11,
            IndustryCategory::Travel => 0.06,
            IndustryCategory::Social => 0.08,
            IndustryCategory::Advertising => 0.06,
        }
    }

    /// Hostname suffix used when synthesizing domain names.
    pub fn host_token(self) -> &'static str {
        match self {
            IndustryCategory::NewsMedia => "news",
            IndustryCategory::Sports => "sports",
            IndustryCategory::Entertainment => "ent",
            IndustryCategory::FinancialServices => "bank",
            IndustryCategory::Streaming => "stream",
            IndustryCategory::Gaming => "game",
            IndustryCategory::Ecommerce => "shop",
            IndustryCategory::Technology => "api",
            IndustryCategory::Travel => "travel",
            IndustryCategory::Social => "social",
            IndustryCategory::Advertising => "ads",
        }
    }
}

/// Per-category probabilities of the domain-level cache policy.
#[derive(Clone, Copy, Debug)]
pub struct CacheProfile {
    /// P(domain is never cacheable).
    pub never: f64,
    /// P(domain is always cacheable).
    pub always: f64,
}

/// A domain's customer-configured cacheability policy.
///
/// "CDN customers decide whether a response is cacheable" (§3.2); the
/// policy lives at the domain level with a mixed option whose fraction
/// applies per object.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CachePolicy {
    /// Every object cacheable.
    Always,
    /// No object cacheable (personalized / one-time-use content).
    Never,
    /// This fraction of the domain's objects is cacheable.
    Mixed(f64),
}

impl CachePolicy {
    /// The fraction of objects that are cacheable under this policy.
    pub fn cacheable_fraction(self) -> f64 {
        match self {
            CachePolicy::Always => 1.0,
            CachePolicy::Never => 0.0,
            CachePolicy::Mixed(f) => f,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eleven_categories() {
        assert_eq!(IndustryCategory::ALL.len(), 11);
        let mut labels: Vec<&str> = IndustryCategory::ALL.iter().map(|c| c.label()).collect();
        labels.dedup();
        assert_eq!(labels.len(), 11, "labels must be distinct");
    }

    #[test]
    fn domain_weights_sum_to_one() {
        let total: f64 = IndustryCategory::ALL
            .iter()
            .map(|c| c.domain_weight())
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "weights sum to {total}");
    }

    #[test]
    fn cache_profiles_are_probabilities() {
        for c in IndustryCategory::ALL {
            let p = c.cache_profile();
            assert!(p.never >= 0.0 && p.always >= 0.0);
            assert!(p.never + p.always <= 1.0, "{c:?} profile exceeds 1");
        }
    }

    #[test]
    fn expected_never_share_is_near_half() {
        // Figure 4: "nearly 50% of domains serve content that is never
        // cacheable and another 30% … always cacheable."
        let never: f64 = IndustryCategory::ALL
            .iter()
            .map(|c| c.domain_weight() * c.cache_profile().never)
            .sum();
        let always: f64 = IndustryCategory::ALL
            .iter()
            .map(|c| c.domain_weight() * c.cache_profile().always)
            .sum();
        assert!((0.45..0.60).contains(&never), "never share {never}");
        assert!((0.22..0.38).contains(&always), "always share {always}");
    }

    #[test]
    fn cache_policy_fractions() {
        assert_eq!(CachePolicy::Always.cacheable_fraction(), 1.0);
        assert_eq!(CachePolicy::Never.cacheable_fraction(), 0.0);
        assert_eq!(CachePolicy::Mixed(0.25).cacheable_fraction(), 0.25);
    }
}
