//! # jcdn — the command-line interface
//!
//! Drives the whole reproduction from a shell: generate synthetic CDN
//! traces, inspect them, run the paper's analyses, and export to JSONL.
//!
//! ```text
//! jcdn generate --preset short --seed 42 --out trace.jcdn
//! jcdn inspect trace.jcdn
//! jcdn characterize trace.jcdn
//! jcdn periodicity trace.jcdn --permutations 100
//! jcdn predict trace.jcdn --history 1 --k 1,5,10
//! jcdn export trace.jcdn --jsonl trace.jsonl
//! jcdn merge a.jcdn b.jcdn --out all.jcdn
//! jcdn trend --months 42
//! ```
//!
//! Traces written by `generate` use `jcdn-trace`'s versioned binary format
//! and can be re-analyzed without re-simulating.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

mod args;
mod cache_args;
mod commands;
mod fault_args;
mod obs_args;

use std::process::ExitCode;

use commands::Outcome;

/// Exit code for a command that completed on a salvaged subset of its
/// input (see the usage text's exit-code table).
const EXIT_SALVAGED: u8 = 3;

fn main() -> ExitCode {
    // Deterministic fault injection for the chaos test suite: a plan in
    // JCDN_CHAOS (e.g. "seed=7; write-error:4; panic:characterize.shards:0")
    // installs fail points that the store and worker pool consult. Unset —
    // the production case — this is a no-op.
    if let Ok(spec) = std::env::var("JCDN_CHAOS") {
        match jcdn_chaos::FailPlan::parse(&spec) {
            Ok(plan) => {
                jcdn_chaos::install(plan);
            }
            Err(e) => {
                eprintln!("JCDN_CHAOS: {e}");
                return ExitCode::from(2);
            }
        }
    }
    // Panics are reported through the catch_unwind boundaries below (the
    // exec pool's quarantine path, or the last-resort trap here) — the
    // default hook's raw backtrace would only duplicate that as noise,
    // and a benign broken pipe from `jcdn inspect | head` should print
    // nothing at all.
    std::panic::set_hook(Box::new(|_| {}));
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = argv.split_first() else {
        eprint!("{}", args::usage());
        return ExitCode::from(2);
    };
    let run = || {
        // `--help` or `-h` after a command asks for that command's usage.
        let help = name == "help" || argv.iter().any(|arg| arg == "--help" || arg == "-h");
        match args::command(name) {
            Some(command) if help => print!("{}", command.help()),
            None if help => print!("{}", args::usage()),
            Some(command) => return (command.run)(&args::Args::parse(rest, command)?),
            None => return Err(format!("unknown command {name:?}\n\n{}", args::usage())),
        }
        Ok(Outcome::Clean)
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "the binary's top-level boundary: a panic that escaped the libraries becomes an error line and exit 1"
    )]
    let result = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
        Ok(result) => result,
        Err(payload) => {
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic payload>");
            // Piping into `head` closes stdout early; treat the resulting
            // broken pipe as a normal exit (the usual CLI convention).
            if message.contains("Broken pipe") {
                return ExitCode::SUCCESS;
            }
            // Anything else that escaped the library layers is still a
            // controlled failure: report it and exit 1 instead of aborting
            // with a raw panic trace.
            eprintln!("error: internal panic: {message}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(Outcome::Clean) => ExitCode::SUCCESS,
        Ok(Outcome::Salvaged) => ExitCode::from(EXIT_SALVAGED),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
