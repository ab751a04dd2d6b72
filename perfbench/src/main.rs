//! Benchmark command:
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pipeline-1m --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Prints progress on stderr and, as the last line of stdout, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Exits 1 when
//! any pass's output check failed, 2 on bad arguments.

use std::process::ExitCode;

use perfbench::{run, Options};

fn main() -> ExitCode {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        scale: 1.0,
        threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            eprintln!("{flag} needs a value");
            return ExitCode::from(2);
        };
        let parsed = match flag.as_str() {
            "--workload" => {
                opts.workload = value.clone();
                Ok(())
            }
            "--seed" => value.parse().map(|v| opts.seed = v).map_err(|_| ()),
            "--seconds" => value.parse().map(|v| opts.seconds = v).map_err(|_| ()),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    opts.trace = value == "1";
                    Ok(())
                }
                _ => Err(()),
            },
            _ => {
                eprintln!("unknown flag {flag}");
                return ExitCode::from(2);
            }
        };
        if parsed.is_err() {
            eprintln!("{flag}: bad value {value:?}");
            return ExitCode::from(2);
        }
    }
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} threads {}",
        opts.workload, opts.seed, opts.seconds, opts.trace, opts.threads
    );
    let report = match run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", report.to_json());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
