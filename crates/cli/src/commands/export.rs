//! `jcdn export` — trace file → JSONL.

use std::io::Write as _;

use crate::args::Args;
use crate::commands::{load_trace, Outcome};
use crate::obs_args;

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut obs = obs_args::begin("export", args)?;
    let input = args.positional("trace path")?;
    let output = args.value("jsonl")?;
    let threads = args.count("threads")?;
    let trace = load_trace(input, threads)?;
    obs.manifest.param("trace", input);
    obs.manifest.param("jsonl", output);
    obs.manifest
        .metrics
        .inc("export.records", trace.len() as u64);

    let file = std::fs::File::create(output).map_err(|e| format!("{output}: {e}"))?;
    let mut writer = std::io::BufWriter::new(file);
    for record in trace.records() {
        let line = jcdn_json::to_string(&jcdn_trace::codec::record_to_json(&trace, record));
        writeln!(writer, "{line}").map_err(|e| format!("{output}: {e}"))?;
    }
    writer.flush().map_err(|e| format!("{output}: {e}"))?;
    eprintln!("wrote {} JSONL records to {output}", trace.len());
    obs.finish()?;
    Ok(Outcome::Clean)
}
