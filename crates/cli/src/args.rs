//! The flag table, and the tiny flag parser the subcommands share.
//!
//! Each command's flags are declared once, in [`COMMANDS`]. The parser's
//! allow-list, the defaults the accessors fall back to, `jcdn <command>
//! --help` and `jcdn --help` all derive from it. The workspace adds no CLI
//! dependency: flags are `--name value` pairs (plus valueless switches such
//! as `--resume`) and positional arguments.

use std::collections::HashMap;

use crate::commands::{self, Outcome};

type Text = &'static str;

/// One flag: its name, its value's shape (`N`, `PATH`, …; empty for a
/// switch), its default when the CLI owns one (else empty), and one line
/// of help. Defaults a library type owns (`ResilienceConfig`, the cache
/// sync epoch, the series window) stay with that type.
pub struct Flag(pub Text, pub Text, pub Text, pub Text);

/// Flags that several commands take, declared once: a heading and the
/// flags in help order.
pub struct Group(pub Text, pub &'static [Flag]);

/// One `jcdn` command.
pub struct Command {
    /// The word after `jcdn`.
    pub name: Text,
    /// The rest of the usage line, then what the command does.
    pub usage: Text,
    /// Its own flags.
    pub flags: &'static [Flag],
    /// The groups of shared flags it takes too.
    pub groups: &'static [&'static Group],
    /// Runs the command on its parsed arguments.
    pub run: fn(&Args) -> Result<Outcome, String>,
}

#[rustfmt::skip]
const THREADS: Flag = Flag("threads", "N", "1", "worker threads; any value gives the same output");

/// Fault injection and resilience. `generate`'s resume digest hashes these
/// flags, then [`CACHE`]'s, in this order.
#[rustfmt::skip]
pub const FAULTS: Group = Group("fault injection and resilience", &[
    Flag("outage", "DOMAIN:START:END,...", "", "origin hard-down [s]; DOMAIN: host or index"),
    Flag("degrade", "DOMAIN:START:END:FACTOR,...", "", "origin latency xFACTOR; 504 past timeout"),
    Flag("flap", "EDGE:START:END,...", "", "edge server EDGE leaves rotation"),
    Flag("error-burst", "QUIET:BURST:ENTER:EXIT", "", "two-state Markov 5xx process (one spec)"),
    Flag("retries", "N", "", "client retry budget (2; 0 with --resilience off)"),
    Flag("stale-grace", "SECS", "", "serve-stale window (600; 0 with --resilience off)"),
    Flag("negative-ttl", "SECS", "", "negative-cache TTL (2; 0 with --resilience off)"),
    Flag("origin-timeout", "SECS", "", "degraded-origin timeout (3)"),
    Flag("resilience", "on|off", "on", "every client and edge countermeasure at once"),
]);

/// The cache hierarchy; without these flags, one LRU tier per edge.
#[rustfmt::skip]
pub const CACHE: Group = Group("cache hierarchy", &[
    Flag("cache-tier", "NAME:SIZE,...", "", "edge tier first, then shared tiers; sizes like 64M"),
    Flag("cache-policy", "[NAME:]POLICY,...", "", "lru (default), lfu, slru, tinylfu or s3fifo"),
    Flag("cache-placement", "everywhere|copy-down", "", "fill every tier, or one level per hit"),
    Flag("cache-sync", "SECS", "", "shared-tier sync epoch (1)"),
]);

/// The run manifest and its artifacts.
#[rustfmt::skip]
pub const OBS: Group = Group("observability", &[
    Flag("obs", "off|summary|full", "off", "stderr run summary"),
    Flag("obs-out", "PATH", "", "write the JSON run manifest (its counters are deterministic)"),
    Flag("window", "SPEC", "", "series window over the simulated clock: 60s, 5m, sliding 5m/1m"),
    Flag("obs-series", "PATH", "", "write the windowed counters as JSONL (60s window by default)"),
    Flag("obs-prom", "PATH", "", "write a Prometheus text-exposition snapshot"),
    Flag("obs-trace", "PATH", "", "write a chrome-trace (Perfetto) span dump"),
]);

/// Every command, in `jcdn --help` order.
#[rustfmt::skip]
pub const COMMANDS: &[Command] = &[
    Command {
        name: "generate",
        usage: "--out PATH [options]\nbuild a workload, simulate the CDN, write a binary trace",
        flags: &[
            Flag("preset", "short|long|tiny", "tiny", "workload preset"),
            Flag("seed", "N", "42", "workload seed"),
            Flag("scale", "F", "1.0", "workload volume factor"),
            Flag("out", "PATH", "", "the trace file to write"),
            Flag("edges", "N", "3", "edge servers"),
            Flag("shards", "N", "1", "shard frames in the trace file"),
            THREADS,
            Flag("resume", "", "", "reuse the shards a killed run of the same params committed"),
        ],
        groups: &[&FAULTS, &CACHE, &OBS],
        run: commands::generate::run,
    },
    Command {
        name: "inspect",
        usage: "<trace> [options]\nsummarize a trace file",
        flags: &[Flag("top", "N", "10", "busiest domains listed"), THREADS],
        groups: &[&OBS],
        run: commands::inspect::run,
    },
    Command {
        name: "characterize",
        usage: "<trace> [options]\n\
                run the §4 analyses on a trace, incl. availability; the cache flags replay\n\
                its requests through that hierarchy (what-if per-tier hits)",
        flags: &[
            Flag("shards", "N", "0", "re-partition (0 keeps the file's frames); same report"),
            THREADS,
            Flag("resume", "", "", "with no final file, read what an unfinished generate staged"),
        ],
        groups: &[&CACHE, &OBS],
        run: commands::characterize::run,
    },
    Command {
        name: "periodicity",
        usage: "<trace> [options]\n\
                run the §5.1 periodicity study (threads also fan out each flow's permutations)",
        flags: &[
            Flag("permutations", "N", "100", "permutations per flow (x)"),
            Flag("max-bins", "N", "32768", "cap on a flow's time bins"),
            Flag("min-requests", "N", "10", "minimum requests per client-object flow"),
            Flag("min-clients", "N", "10", "minimum clients per object flow"),
            THREADS,
        ],
        groups: &[&OBS],
        run: commands::periodicity::run,
    },
    Command {
        name: "predict",
        usage: "<trace> [options]\nrun the §5.2 prediction study (Table 3)",
        flags: &[
            Flag("history", "N", "1", "n-gram history length"),
            Flag("k", "K,K,...", "1,5,10", "top-K cut-offs"),
            Flag("train-percent", "P", "70", "share of clients trained on"),
            THREADS,
        ],
        groups: &[&OBS],
        run: commands::predict::run,
    },
    Command {
        name: "export",
        usage: "<trace> --jsonl PATH [options]\nconvert a trace to JSONL",
        flags: &[Flag("jsonl", "PATH", "", "the JSONL file to write"), THREADS],
        groups: &[&OBS],
        run: commands::export::run,
    },
    Command {
        name: "merge",
        usage: "<trace> <trace> [...] --out PATH [options]\ncombine several traces into one",
        flags: &[Flag("out", "PATH", "", "the trace file to write"), THREADS],
        groups: &[&OBS],
        run: commands::merge::run,
    },
    Command {
        name: "trend",
        usage: "[options]\nprint the Figure 1 monthly series as CSV",
        flags: &[Flag("months", "N", "42", "series length"), Flag("seed", "N", "2016", "RNG seed")],
        groups: &[&OBS],
        run: commands::trend::run,
    },
    Command {
        name: "obs",
        usage: "show <manifest> | diff <a> <b> | bench-diff <BENCHMARK.json> <base> <change>\n\
                inspect and compare observability artifacts; diff exits 1 when the counters\n\
                of two manifests differ, bench-diff when a perfbench end-to-end metric regresses",
        flags: &[],
        groups: &[],
        run: commands::obs::run,
    },
];

const HEADER: &str = "jcdn — synthetic CDN traces and the IMC'19 JSON-traffic analyses

usage: jcdn <command> [options]; jcdn [<command>] --help prints this, or its part\n\n";

const EXIT_CODES: &str = "\nexit codes:
  0  success, output is complete
  1  error (bad input, I/O failure, internal panic)
  2  usage error
  3  completed with salvage: the command finished and printed a report,
     but part of the input was lost (dropped frames/records, missing
     staged shards, or quarantined worker tasks) — the output is the
     exact analysis of what survived
";

/// The command named `name`.
pub fn command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|command| command.name == name)
}

impl Command {
    /// The declaration of one of this command's flags.
    fn flag(&self, name: &str) -> Option<&'static Flag> {
        let groups = self.groups.iter().flat_map(|group| group.1);
        self.flags.iter().chain(groups).find(|flag| flag.0 == name)
    }

    /// The usage line, what the command does, its own flags, and the
    /// headings of its groups.
    fn section(&self) -> String {
        let mut lines = self.usage.lines();
        let mut out = format!("jcdn {} {}\n", self.name, lines.next().unwrap_or_default());
        lines.for_each(|line| out += &format!("  {line}\n"));
        out += &flag_lines(self.flags);
        for group in self.groups {
            out += &format!("  + the {} flags\n", group.0);
        }
        out
    }

    /// `jcdn <command> --help`.
    pub fn help(&self) -> String {
        let groups: String = self.groups.iter().map(|group| group.help()).collect();
        format!("usage: {}{groups}", self.section())
    }
}

impl Group {
    fn help(&self) -> String {
        format!("\n{}:\n{}", self.0, flag_lines(self.1))
    }
}

/// `jcdn --help`: every command's section, each group once, and the exit
/// codes.
pub fn usage() -> String {
    let sections: Vec<String> = COMMANDS.iter().map(Command::section).collect();
    let groups = [FAULTS, CACHE, OBS].map(|group| group.help()).concat();
    format!("{HEADER}{}{groups}{EXIT_CODES}", sections.join("\n"))
}

/// One aligned help line per flag, with its default.
fn flag_lines(flags: &[Flag]) -> String {
    let shape = |&Flag(name, value, ..): &Flag| format!("--{name} {value}").trim_end().to_owned();
    let width = flags.iter().map(|f| shape(f).len()).max().unwrap_or(0);
    let line = |flag: &Flag| match flag.2 {
        "" => format!("  {:width$}  {}\n", shape(flag), flag.3),
        default => format!("  {:width$}  {} (default {default})\n", shape(flag), flag.3),
    };
    flags.iter().map(line).collect()
}

/// Parsed arguments: the flags given (a switch with an empty value) and
/// the positionals.
pub struct Args {
    command: &'static Command,
    flags: HashMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    /// Parses `argv`, accepting only `command`'s flags.
    pub fn parse(argv: &[String], command: &'static Command) -> Result<Args, String> {
        let (mut flags, mut positional) = (HashMap::new(), Vec::new());
        let mut iter = argv.iter();
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                positional.push(arg.clone());
                continue;
            };
            let unknown = || format!("unknown flag --{name} (see jcdn {} --help)", command.name);
            let missing = || format!("--{name} needs a value");
            let value = match command.flag(name).ok_or_else(unknown)?.1 {
                "" => "",
                _ => iter.next().ok_or_else(missing)?,
            };
            flags.insert(name.to_owned(), value.to_owned());
        }
        Ok(Args {
            command,
            flags,
            positional,
        })
    }

    /// Whether a valueless switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// All positional arguments.
    pub fn positionals(&self) -> &[String] {
        &self.positional
    }

    /// The sole positional argument, required.
    pub fn positional(&self, what: &str) -> Result<&str, String> {
        sole(&self.positional, what)
    }

    /// A count flag, given or defaulted; it must be at least 1.
    pub fn count(&self, name: &str) -> Result<usize, String> {
        match self.number(name)? {
            0 => Err(format!("--{name} must be at least 1")),
            n => Ok(n),
        }
    }

    /// The value given on the command line; a table default never shows
    /// here.
    pub fn maybe(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// The value given, else the table's default; an error when the flag
    /// has neither.
    pub fn value(&self, name: &str) -> Result<&str, String> {
        let default = self.command.flag(name).map(|flag| flag.2);
        self.maybe(name)
            .or(default.filter(|default| !default.is_empty()))
            .ok_or_else(|| format!("--{name} is required"))
    }

    /// A parsed numeric flag, given or defaulted.
    pub fn number<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let raw = self.value(name)?;
        raw.parse()
            .map_err(|_| format!("--{name}: cannot parse {raw:?}"))
    }

    /// A comma-separated list of numbers, given or defaulted.
    pub fn number_list(&self, name: &str) -> Result<Vec<usize>, String> {
        self.value(name)?
            .split(',')
            .map(|part| {
                part.trim()
                    .parse()
                    .map_err(|_| format!("--{name}: cannot parse {part:?}"))
            })
            .collect()
    }
}

/// The one value in `values`, required.
pub fn sole<'a>(values: &'a [String], what: &str) -> Result<&'a str, String> {
    match values {
        [one] => Ok(one),
        [] => Err(format!("missing {what}")),
        _ => Err(format!("expected exactly one {what}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(name: &str, parts: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        Args::parse(&argv, command(name).unwrap())
    }

    #[test]
    fn parses_flags_and_positionals() {
        let a = parse("predict", &["t.jcdn", "--history", "7", "--k", "1, 5,10"]).unwrap();
        assert_eq!(a.positional("trace").unwrap(), "t.jcdn");
        assert_eq!(a.number::<usize>("history").unwrap(), 7);
        assert_eq!(a.number_list("k").unwrap(), vec![1, 5, 10]);
        // An absent flag reads its table default, which `maybe` never shows.
        assert_eq!(a.number::<u8>("train-percent").unwrap(), 70);
        assert_eq!(a.maybe("train-percent"), None);
    }

    #[test]
    fn rejects_unknown_flags_and_missing_values() {
        let err = parse("predict", &["--nope", "1"]).err().unwrap();
        assert!(err.starts_with("unknown flag --nope"), "{err}");
        assert!(parse("predict", &["--history"]).is_err());
    }

    #[test]
    fn switches_take_no_value() {
        let a = parse("characterize", &["t.jcdn", "--resume", "--shards", "7"]).unwrap();
        assert!(a.switch("resume"));
        // A switch the user did not give reads false.
        assert!(!parse("characterize", &["t.jcdn"]).unwrap().switch("resume"));
        assert_eq!(a.number::<usize>("shards").unwrap(), 7);
        assert_eq!(a.positional("trace").unwrap(), "t.jcdn");
        // A switch of one command is no flag of another.
        assert!(parse("inspect", &["--resume"]).is_err());
    }

    #[test]
    fn positional_arity_errors() {
        let none = parse("inspect", &[]).unwrap();
        assert!(none.positional("trace").is_err());
        let two = parse("inspect", &["a", "b"]).unwrap();
        assert!(two.positional("trace").is_err());
    }

    #[test]
    #[rustfmt::skip]
    fn restated_defaults_match_their_library_types() {
        // What the table or a help line says a default is: the table's
        // default, else the first word in the help's parentheses.
        let said = |name: &str, flag: &str| {
            let &Flag(_, _, default, help) = command(name).unwrap().flag(flag).unwrap();
            let quoted = help.split('(').nth(1).unwrap_or_default();
            let quoted = quoted.split([';', ')', ' ']).next().unwrap();
            if default.is_empty() { quoted } else { default }
        };
        let study = jcdn_core::periodicity::PeriodicityStudyConfig::default();
        let predict = jcdn_core::prediction::PredictionStudyConfig::default();
        let trend = jcdn_workload::trend::TrendModel::default();
        let on = jcdn_cdnsim::ResilienceConfig::default();
        let sync = jcdn_cdnsim::CacheHierarchy::DEFAULT_SYNC_INTERVAL;
        let ks: Vec<String> = predict.ks.iter().map(usize::to_string).collect();
        for (name, flag, library) in [
            ("periodicity", "permutations", study.detector.permutations.to_string()),
            ("periodicity", "max-bins", study.detector.max_bins.to_string()),
            ("periodicity", "min-requests", study.min_requests.to_string()),
            ("periodicity", "min-clients", study.min_clients.to_string()),
            ("predict", "history", predict.history.to_string()),
            ("predict", "k", ks.join(",")),
            ("predict", "train-percent", predict.train_percent.to_string()),
            ("trend", "months", trend.months.to_string()),
            ("trend", "seed", trend.seed.to_string()),
            ("generate", "retries", on.retry_budget.to_string()),
            ("generate", "stale-grace", on.stale_grace.as_secs_f64().to_string()),
            ("generate", "negative-ttl", on.negative_ttl.as_secs_f64().to_string()),
            ("generate", "origin-timeout", on.origin_timeout.as_secs_f64().to_string()),
            ("generate", "cache-sync", sync.as_secs_f64().to_string()),
            ("generate", "obs-series", crate::obs_args::DEFAULT_WINDOW.to_owned()),
        ] {
            assert_eq!(said(name, flag), library, "--{flag}");
        }
    }

    #[test]
    fn bad_numbers_error() {
        let a = parse("predict", &["--history", "zzz", "--k", "1,x"]).unwrap();
        assert!(a.number::<usize>("history").is_err());
        assert!(a.number_list("k").is_err());
    }
}
