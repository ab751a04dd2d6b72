//! Parsing of the cache-hierarchy flags (`args::CACHE`) shared by
//! `generate` and `characterize`.
//!
//! The first `--cache-tier` entry is the per-edge tier, the rest are
//! shared tiers in edge → origin order (`regional`, `shield`, …), and
//! capacities take binary K/M/G suffixes. A bare `--cache-policy` applies
//! to every tier, `NAME:POLICY` pairs to the named ones. `copy-down`
//! placement copies a hit one level down instead of into every tier, and
//! `--cache-sync` is the shared-tier epoch (DESIGN.md §14).

use jcdn_cdnsim::{CacheHierarchy, Placement, PolicyKind, SimConfig, SimDuration, TierSpec};

use crate::args::{Args, CACHE};

/// Builds the cache hierarchy from the parsed flags. Returns `Ok(None)`
/// when no cache flag was given — the simulator keeps its default
/// single-tier LRU edge.
pub fn hierarchy(args: &Args) -> Result<Option<CacheHierarchy>, String> {
    if CACHE
        .1
        .iter()
        .all(|flag| args.maybe(flag.0).unwrap_or_default().is_empty())
    {
        return Ok(None);
    }
    let tier_spec = args.maybe("cache-tier").unwrap_or_default();
    let policy_spec = args.maybe("cache-policy").unwrap_or_default();
    let placement_spec = args.maybe("cache-placement").unwrap_or_default();
    let sync_spec = args.maybe("cache-sync").unwrap_or_default();

    let mut tiers: Vec<TierSpec> = Vec::new();
    for spec in specs(tier_spec) {
        let parts: Vec<&str> = spec.split(':').collect();
        let [name, capacity] = parts[..] else {
            return Err(format!("--cache-tier: expected NAME:CAPACITY in {spec:?}"));
        };
        if name.is_empty() {
            return Err("--cache-tier: tier name must not be empty".into());
        }
        if tiers.iter().any(|t| t.name == name) {
            return Err(format!("--cache-tier: duplicate tier name {name:?}"));
        }
        tiers.push(TierSpec::lru(name, parse_capacity(capacity)?));
    }
    if tiers.is_empty() {
        // Policy/placement flags without --cache-tier reshape the default
        // single edge tier.
        tiers.push(TierSpec::lru("edge", SimConfig::default().cache_capacity));
    }

    // One bare policy applies everywhere; NAME:POLICY pairs target tiers.
    for spec in specs(policy_spec) {
        match spec.split_once(':') {
            None => {
                let policy = parse_policy(spec)?;
                for tier in &mut tiers {
                    tier.policy = policy;
                }
            }
            Some((name, policy)) => {
                let policy = parse_policy(policy)?;
                let tier = tiers
                    .iter_mut()
                    .find(|t| t.name == name)
                    .ok_or_else(|| format!("--cache-policy: no tier named {name:?}"))?;
                tier.policy = policy;
            }
        }
    }

    let mut tiers = tiers.into_iter();
    let edge = match tiers.next() {
        Some(t) => t,
        None => TierSpec::lru("edge", SimConfig::default().cache_capacity),
    };
    let mut h = CacheHierarchy {
        edge,
        shared: tiers.collect(),
        placement: Placement::CopyEverywhere,
        sync_interval: CacheHierarchy::DEFAULT_SYNC_INTERVAL,
    };
    if !placement_spec.is_empty() {
        h.placement =
            Placement::parse(placement_spec).map_err(|e| format!("--cache-placement: {e}"))?;
    }
    if !sync_spec.is_empty() {
        let secs: f64 = sync_spec
            .parse()
            .map_err(|_| format!("--cache-sync: bad seconds {sync_spec:?}"))?;
        if !(secs > 0.0 && secs.is_finite()) {
            return Err("--cache-sync must be positive".into());
        }
        h.sync_interval = SimDuration::from_micros((secs * 1e6) as u64);
    }
    h.validate().map_err(|e| format!("--cache-tier: {e}"))?;
    Ok(Some(h))
}

/// One line summarizing the configured hierarchy for run footers.
pub fn describe(h: &CacheHierarchy) -> String {
    let mut parts = vec![format!(
        "{}={} ({})",
        h.edge.name,
        fmt_capacity(h.edge.capacity),
        h.edge.policy.label()
    )];
    for tier in &h.shared {
        parts.push(format!(
            "{}={} ({})",
            tier.name,
            fmt_capacity(tier.capacity),
            tier.policy.label()
        ));
    }
    format!("{} · placement {}", parts.join(" → "), h.placement.label())
}

fn parse_policy(token: &str) -> Result<PolicyKind, String> {
    PolicyKind::parse(token).map_err(|e| format!("--cache-policy: {e}"))
}

/// Parses `64M`-style capacities: plain bytes, or a binary K/M/G suffix.
fn parse_capacity(token: &str) -> Result<u64, String> {
    let token = token.trim();
    let (digits, shift) = match token.chars().last() {
        Some('K') | Some('k') => (&token[..token.len() - 1], 10),
        Some('M') | Some('m') => (&token[..token.len() - 1], 20),
        Some('G') | Some('g') => (&token[..token.len() - 1], 30),
        _ => (token, 0),
    };
    let base: u64 = digits
        .parse()
        .map_err(|_| format!("--cache-tier: bad capacity {token:?}"))?;
    base.checked_shl(shift)
        .filter(|&v| v > 0)
        .ok_or_else(|| format!("--cache-tier: capacity {token:?} out of range"))
}

fn fmt_capacity(bytes: u64) -> String {
    for (shift, suffix) in [(30, "G"), (20, "M"), (10, "K")] {
        if bytes >= 1 << shift && bytes.is_multiple_of(1 << shift) {
            return format!("{}{suffix}", bytes >> shift);
        }
    }
    format!("{bytes}B")
}

fn specs(raw: &str) -> impl Iterator<Item = &str> {
    raw.split(',').map(str::trim).filter(|s| !s.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Args {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        Args::parse(&argv, crate::args::command("characterize").unwrap()).unwrap()
    }

    #[test]
    fn no_flags_means_no_hierarchy() {
        assert!(hierarchy(&parse(&[])).unwrap().is_none());
    }

    #[test]
    fn parses_a_three_tier_stack_with_mixed_policies() {
        let args = parse(&[
            "--cache-tier",
            "edge:64M,regional:256M,shield:1G",
            "--cache-policy",
            "slru,shield:s3fifo",
            "--cache-placement",
            "copy-down",
            "--cache-sync",
            "0.5",
        ]);
        let h = hierarchy(&args).unwrap().unwrap();
        assert_eq!(h.edge.capacity, 64 << 20);
        assert_eq!(h.edge.policy, PolicyKind::Slru);
        assert_eq!(h.shared.len(), 2);
        assert_eq!(h.shared[0].name, "regional");
        assert_eq!(h.shared[0].policy, PolicyKind::Slru);
        assert_eq!(h.shared[1].capacity, 1 << 30);
        assert_eq!(h.shared[1].policy, PolicyKind::S3Fifo);
        assert_eq!(h.placement, Placement::CopyDown);
        assert_eq!(h.sync_interval, SimDuration::from_micros(500_000));
        let line = describe(&h);
        assert!(line.contains("edge=64M (slru)"), "{line}");
        assert!(line.contains("copy-down"), "{line}");
    }

    #[test]
    fn bare_policy_without_tiers_reshapes_the_default_edge() {
        let h = hierarchy(&parse(&["--cache-policy", "tinylfu"]))
            .unwrap()
            .unwrap();
        assert_eq!(h.edge.capacity, SimConfig::default().cache_capacity);
        assert_eq!(h.edge.policy, PolicyKind::TinyLfu);
        assert!(h.shared.is_empty());
    }

    #[test]
    fn rejects_malformed_flags() {
        for argv in [
            ["--cache-tier", "edge"].as_slice(),  // missing capacity
            &["--cache-tier", "edge:64Q"],        // bad suffix
            &["--cache-tier", "edge:0"],          // zero capacity
            &["--cache-tier", "edge:1M,edge:2M"], // duplicate name
            &["--cache-policy", "mru"],           // unknown policy
            &["--cache-policy", "shield:lru"],    // unknown tier
            &["--cache-tier", "edge:1M", "--cache-sync", "0"], // zero epoch
            &["--cache-placement", "sideways"],   // unknown placement
        ] {
            let args = parse(argv);
            assert!(hierarchy(&args).is_err(), "should reject {argv:?}");
        }
    }
}
