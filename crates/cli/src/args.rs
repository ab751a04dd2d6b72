//! Tiny flag parser shared by the subcommands.
//!
//! Deliberately minimal (the workspace adds no CLI dependency): flags are
//! `--name value` pairs (plus valueless `--name` switches such as
//! `--resume`) and positional arguments, with typed accessors and an
//! unknown-flag check.

use std::collections::{HashMap, HashSet};

/// The top-level usage text.
pub const USAGE: &str = "\
jcdn — synthetic CDN traces and the IMC'19 JSON-traffic analyses

usage: jcdn <command> [options]

commands:
  generate      build a workload, simulate the CDN, write a binary trace
                  --preset short|long|tiny   (default tiny)
                  --seed N                   (default 42)
                  --scale F                  (default 1.0)
                  --out PATH                 (required)
                  --edges N                  edge servers (default 3)
                  --shards N                 codec-v3 shard frames (default 1)
                  --threads N                worker pool width; output is
                                             identical for any value (default 1)
                  --resume                   reuse shards a killed run already
                                             committed (same params only); the
                                             finished file is byte-identical to
                                             an uninterrupted run's
                fault injection (comma-separate multiple windows):
                  --outage DOMAIN:START:END          origin hard-down [s]
                  --degrade DOMAIN:START:END:FACTOR  slow origin (xFACTOR)
                  --flap EDGE:START:END              edge leaves rotation
                  --error-burst QUIET:BURST:ENTER:EXIT  bursty 5xx process
                resilience (defaults in parentheses):
                  --retries N                client retry budget (2)
                  --stale-grace SECS         serve-stale window (600)
                  --negative-ttl SECS        negative-cache TTL (2)
                  --origin-timeout SECS      degraded-origin timeout (3)
                  --resilience on|off        all countermeasures (on)
                cache hierarchy (default: one LRU tier per edge):
                  --cache-tier NAME:CAPACITY[,...]  tiers, nearest first;
                                             capacities take K/M/G suffixes
                  --cache-policy POLICY|NAME:POLICY[,...]
                                             lru, lfu, slru, tinylfu or
                                             s3fifo, for every tier or per
                                             named tier
                  --cache-placement everywhere|copy-down
                                             where a fetched object is kept
                  --cache-sync SECS          shared-tier sync epoch (1)
  inspect       summarize a trace file
                  <trace>                    positional path
  characterize  run the §4 analyses on a trace, incl. availability
                  <trace> [--shards N] [--threads N] [--resume]
                  (per-shard partial statistics merge exactly, so every
                   shard/thread combination prints the same report;
                   --resume falls back to the staged shards of an
                   unfinished generate run when the final file is absent)
                  the four --cache-* flags of generate replay the trace's
                  requests through that hierarchy (what-if per-tier hits)
  periodicity   run the §5.1 periodicity study
                  <trace> [--permutations N] [--max-bins N]
  predict       run the §5.2 prediction study (Table 3)
                  <trace> [--history N] [--k 1,5,10] [--train-percent P]
  export        convert a trace to JSONL
                  <trace> --jsonl PATH
  merge         combine several traces into one
                  <trace> <trace> [...] --out PATH
  trend         print the Figure 1 monthly series as CSV
                  [--months N] [--seed N]
  obs           inspect and compare observability artifacts
                  show <manifest.json>          pretty-print a run manifest
                  diff <a.json> <b.json>        compare manifests; any
                                                deterministic-counter
                                                divergence exits 1, perf is
                                                reported as deltas only
                  bench-diff <BENCHMARK.json> <base> <change>
                                                compare perfbench result
                                                lines (one run per line) by
                                                median; exits 1 only when an
                                                end-to-end metric is worse
                                                beyond its bound or the
                                                change's failed share is
                                                higher

observability (every command):
  --obs off|summary|full     stderr run summary (default off)
  --obs-out PATH             write the JSON run manifest; its \"counters\"
                             section is deterministic (byte-identical for
                             any shard/thread count), \"perf\" is wall-clock
  --window SPEC              time-series window shape over the simulated
                             clock: \"60s\", \"5m\", or sliding \"5m/1m\"
  --obs-series PATH          write the windowed counters as a JSONL stream
                             (deterministic; defaults --window to 60s)
  --obs-prom PATH            write a Prometheus text-exposition snapshot
  --obs-trace PATH           write a chrome-trace (Perfetto) span dump

exit codes:
  0  success, output is complete
  1  error (bad input, I/O failure, internal panic)
  2  usage error
  3  completed with salvage: the command finished and printed a report,
     but part of the input was lost (dropped frames/records, missing
     staged shards, or quarantined worker tasks) — the output is the
     exact analysis of what survived
";

/// Parsed arguments: flags, valueless switches, and positionals.
pub struct Args {
    flags: HashMap<String, String>,
    switches: HashSet<String>,
    positional: Vec<String>,
}

impl Args {
    /// Parses `argv`, accepting only the given flag names.
    pub fn parse(argv: &[String], allowed: &[&str]) -> Result<Args, String> {
        Args::parse_with_switches(argv, allowed, &[])
    }

    /// Parses `argv`, accepting `allowed` as `--name value` flags and
    /// `switch_names` as valueless `--name` switches.
    pub fn parse_with_switches(
        argv: &[String],
        allowed: &[&str],
        switch_names: &[&str],
    ) -> Result<Args, String> {
        let mut flags = HashMap::new();
        let mut switches = HashSet::new();
        let mut positional = Vec::new();
        let mut iter = argv.iter();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if switch_names.contains(&name) {
                    switches.insert(name.to_owned());
                    continue;
                }
                if !allowed.contains(&name) {
                    return Err(format!("unknown flag --{name}"));
                }
                let value = iter
                    .next()
                    .ok_or_else(|| format!("--{name} needs a value"))?;
                flags.insert(name.to_owned(), value.clone());
            } else {
                positional.push(arg.clone());
            }
        }
        Ok(Args {
            flags,
            switches,
            positional,
        })
    }

    /// Whether a valueless switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.contains(name)
    }

    /// All positional arguments.
    pub fn positionals(&self) -> &[String] {
        &self.positional
    }

    /// The sole positional argument, required.
    pub fn positional(&self, what: &str) -> Result<&str, String> {
        match self.positional.as_slice() {
            [one] => Ok(one),
            [] => Err(format!("missing {what}")),
            _ => Err(format!("expected exactly one {what}")),
        }
    }

    /// A string flag with a default.
    pub fn get_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.flags.get(name).map(String::as_str).unwrap_or(default)
    }

    /// An optional string flag.
    pub fn maybe(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// A required string flag.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("--{name} is required"))
    }

    /// A parsed numeric flag with a default.
    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {raw:?}")),
        }
    }

    /// A comma-separated list of numbers with a default.
    pub fn number_list(&self, name: &str, default: &[usize]) -> Result<Vec<usize>, String> {
        match self.flags.get(name) {
            None => Ok(default.to_vec()),
            Some(raw) => raw
                .split(',')
                .map(|part| {
                    part.trim()
                        .parse()
                        .map_err(|_| format!("--{name}: cannot parse {part:?}"))
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flags_and_positionals() {
        let a = Args::parse(
            &argv(&["trace.jcdn", "--seed", "7", "--k", "1,5,10"]),
            &["seed", "k"],
        )
        .unwrap();
        assert_eq!(a.positional("trace").unwrap(), "trace.jcdn");
        assert_eq!(a.number::<u64>("seed", 0).unwrap(), 7);
        assert_eq!(a.number_list("k", &[1]).unwrap(), vec![1, 5, 10]);
        assert_eq!(a.get_or("missing", "x"), "x");
    }

    #[test]
    fn rejects_unknown_flags_and_missing_values() {
        assert!(Args::parse(&argv(&["--nope", "1"]), &["seed"]).is_err());
        assert!(Args::parse(&argv(&["--seed"]), &["seed"]).is_err());
    }

    #[test]
    fn switches_take_no_value() {
        let a = Args::parse_with_switches(
            &argv(&["t.jcdn", "--resume", "--seed", "7"]),
            &["seed"],
            &["resume"],
        )
        .unwrap();
        assert!(a.switch("resume"));
        assert!(!a.switch("force"));
        assert_eq!(a.number::<u64>("seed", 0).unwrap(), 7);
        assert_eq!(a.positional("trace").unwrap(), "t.jcdn");
        // A switch name is not silently accepted as a value flag.
        assert!(Args::parse(&argv(&["--resume"]), &["seed"]).is_err());
    }

    #[test]
    fn positional_arity_errors() {
        let none = Args::parse(&argv(&[]), &[]).unwrap();
        assert!(none.positional("trace").is_err());
        let two = Args::parse(&argv(&["a", "b"]), &[]).unwrap();
        assert!(two.positional("trace").is_err());
    }

    #[test]
    fn bad_numbers_error() {
        let a = Args::parse(&argv(&["--seed", "zzz"]), &["seed"]).unwrap();
        assert!(a.number::<u64>("seed", 0).is_err());
        let a = Args::parse(&argv(&["--k", "1,x"]), &["k"]).unwrap();
        assert!(a.number_list("k", &[1]).is_err());
    }
}
