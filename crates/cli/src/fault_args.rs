//! Parsing of the fault-injection and resilience flags (`args::FAULTS`).
//!
//! `--outage`, `--degrade` and `--flap` take comma-separated windows over
//! `[START, END)` simulated seconds, and a `DOMAIN` is a host name
//! (`sports-1.example`) or a numeric domain index. `--error-burst`'s
//! two-state Markov process replaces the i.i.d. error fraction.

use jcdn_cdnsim::{
    EdgeFlap, ErrorBursts, FaultPlan, OriginDegradation, OriginOutage, ResilienceConfig,
    SimDuration, Window,
};
use jcdn_workload::Workload;

use crate::args::Args;

/// Builds the fault plan from the parsed flags, resolving domain names
/// against the workload and edge indices against its `edges` edges.
pub fn fault_plan(args: &Args, workload: &Workload, edges: usize) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::default();
    for spec in specs(args.maybe("outage").unwrap_or_default()) {
        let [domain, start, end] = fields::<3>("outage", spec)?;
        plan.outages.push(OriginOutage {
            domain: resolve_domain(workload, domain)?,
            window: window("outage", start, end)?,
        });
    }
    for spec in specs(args.maybe("degrade").unwrap_or_default()) {
        let [domain, start, end, factor] = fields::<4>("degrade", spec)?;
        let factor: f64 = factor
            .parse()
            .map_err(|_| format!("--degrade: bad factor {factor:?}"))?;
        if !(factor >= 1.0 && factor.is_finite()) {
            return Err("--degrade: factor must be >= 1".into());
        }
        plan.degradations.push(OriginDegradation {
            domain: resolve_domain(workload, domain)?,
            window: window("degrade", start, end)?,
            latency_factor: factor,
        });
    }
    for spec in specs(args.maybe("flap").unwrap_or_default()) {
        let [edge, start, end] = fields::<3>("flap", spec)?;
        let edge: usize = edge
            .parse()
            .map_err(|_| format!("--flap: bad edge index {edge:?}"))?;
        if edge >= edges {
            return Err(format!(
                "--flap: edge index {edge} out of range (--edges is {edges})"
            ));
        }
        plan.flaps.push(EdgeFlap {
            edge,
            window: window("flap", start, end)?,
        });
    }
    if let Some(spec) = specs(args.maybe("error-burst").unwrap_or_default()).next() {
        let [quiet, burst, enter, exit] = fields::<4>("error-burst", spec)?;
        let parse = |name: &str, raw: &str| -> Result<f64, String> {
            let v: f64 = raw
                .parse()
                .map_err(|_| format!("--error-burst: bad {name} {raw:?}"))?;
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("--error-burst: {name} must be in [0, 1]"));
            }
            Ok(v)
        };
        plan.errors = Some(ErrorBursts {
            quiet_error_fraction: parse("quiet fraction", quiet)?,
            burst_error_fraction: parse("burst fraction", burst)?,
            enter_burst: parse("enter probability", enter)?,
            exit_burst: parse("exit probability", exit)?,
        });
    }
    Ok(plan)
}

/// Builds the resilience configuration from the parsed flags.
pub fn resilience(args: &Args) -> Result<ResilienceConfig, String> {
    let mut r = match args.value("resilience")? {
        "on" => ResilienceConfig::default(),
        "off" => ResilienceConfig::disabled(),
        other => return Err(format!("--resilience must be on|off, got {other:?}")),
    };
    // No table default: the budget's default depends on --resilience.
    if args.maybe("retries").is_some() {
        r.retry_budget = args.number("retries")?;
    }
    if let Some(secs) = optional_secs(args, "stale-grace")? {
        r.stale_grace = secs;
    }
    if let Some(secs) = optional_secs(args, "negative-ttl")? {
        r.negative_ttl = secs;
    }
    if let Some(secs) = optional_secs(args, "origin-timeout")? {
        r.origin_timeout = secs;
    }
    Ok(r)
}

fn optional_secs(args: &Args, name: &str) -> Result<Option<SimDuration>, String> {
    match args.maybe(name).unwrap_or_default() {
        "" => Ok(None),
        raw => {
            let secs: f64 = raw.parse().map_err(|_| format!("--{name}: bad {raw:?}"))?;
            if !(secs >= 0.0 && secs.is_finite()) {
                return Err(format!("--{name} must be non-negative"));
            }
            Ok(Some(SimDuration::from_micros((secs * 1e6) as u64)))
        }
    }
}

fn specs(raw: &str) -> impl Iterator<Item = &str> {
    raw.split(',').map(str::trim).filter(|s| !s.is_empty())
}

fn fields<'a, const N: usize>(flag: &str, spec: &'a str) -> Result<[&'a str; N], String> {
    let parts: Vec<&str> = spec.split(':').collect();
    parts
        .try_into()
        .map_err(|_| format!("--{flag}: expected {N} colon-separated fields in {spec:?}"))
}

fn window(flag: &str, start: &str, end: &str) -> Result<Window, String> {
    let start: u64 = start
        .parse()
        .map_err(|_| format!("--{flag}: bad start second {start:?}"))?;
    let end: u64 = end
        .parse()
        .map_err(|_| format!("--{flag}: bad end second {end:?}"))?;
    if end <= start {
        return Err(format!("--{flag}: window must end after it starts"));
    }
    Ok(Window::from_secs(start, end))
}

fn resolve_domain(workload: &Workload, token: &str) -> Result<u32, String> {
    if let Ok(index) = token.parse::<u32>() {
        if (index as usize) < workload.domains.len() {
            return Ok(index);
        }
        return Err(format!(
            "domain index {index} out of range (workload has {})",
            workload.domains.len()
        ));
    }
    workload
        .domain_index(token)
        .ok_or_else(|| format!("unknown domain {token:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcdn_workload::{build, WorkloadConfig};

    fn parse(argv: &[&str]) -> Args {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        Args::parse(&argv, crate::args::command("generate").unwrap()).unwrap()
    }

    #[test]
    fn parses_outage_degrade_flap_and_bursts() {
        let w = build(&WorkloadConfig::tiny(1));
        let host = w.domains[0].host.clone();
        let args = parse(&[
            "--outage",
            &format!("{host}:60:120,1:0:30"),
            "--degrade",
            "1:10:20:8.5",
            "--flap",
            "2:100:200",
            "--error-burst",
            "0.001:0.3:0.02:0.2",
        ]);
        let plan = fault_plan(&args, &w, 3).unwrap();
        assert_eq!(plan.outages.len(), 2);
        assert_eq!(plan.outages[0].domain, 0);
        assert_eq!(plan.outages[1].domain, 1);
        assert_eq!(plan.degradations.len(), 1);
        assert!((plan.degradations[0].latency_factor - 8.5).abs() < 1e-12);
        assert_eq!(plan.flaps[0].edge, 2);
        let bursts = plan.errors.unwrap();
        assert!((bursts.burst_error_fraction - 0.3).abs() < 1e-12);
    }

    #[test]
    fn rejects_malformed_specs() {
        let w = build(&WorkloadConfig::tiny(1));
        for argv in [
            ["--outage", "0:60"].as_slice(),        // missing field
            &["--outage", "nosuch.example:0:60"],   // unknown host
            &["--outage", "0:120:60"],              // inverted window
            &["--degrade", "0:0:60:0.5"],           // factor < 1
            &["--flap", "x:0:60"],                  // bad edge
            &["--flap", "3:0:60"],                  // no such edge
            &["--error-burst", "0.1:2.0:0.01:0.2"], // fraction > 1
        ] {
            let args = parse(argv);
            assert!(fault_plan(&args, &w, 3).is_err(), "should reject {argv:?}");
        }
    }

    #[test]
    fn resilience_flags_override_defaults() {
        let args = parse(&[
            "--retries",
            "5",
            "--stale-grace",
            "30",
            "--negative-ttl",
            "0",
            "--origin-timeout",
            "1.5",
        ]);
        let r = resilience(&args).unwrap();
        assert_eq!(r.retry_budget, 5);
        assert_eq!(r.stale_grace, SimDuration::from_secs(30));
        assert_eq!(r.negative_ttl, SimDuration::ZERO);
        assert_eq!(r.origin_timeout, SimDuration::from_micros(1_500_000));
        assert!(r.coalesce);

        let off = resilience(&parse(&["--resilience", "off"])).unwrap();
        assert_eq!(off.retry_budget, 0);
        assert!(!off.coalesce);

        assert!(resilience(&parse(&["--resilience", "maybe"])).is_err());
    }
}
