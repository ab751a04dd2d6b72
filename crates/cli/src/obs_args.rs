//! The observability flags (`args::OBS`), taken by every subcommand but
//! `obs`.
//!
//! Each command opens an [`Obs`] with [`begin`] before doing any work and
//! calls [`Obs::finish`] as its last step. In between, instrumented crates
//! file spans and pool reports into the `jcdn-obs` globals, and the
//! command merges its deterministic counters into `obs.manifest.metrics`
//! and pushes windowed counters with [`Obs::push_series`]. At `finish`,
//! the manifest captures the perf side, prints the stderr summary, and
//! writes the requested artifacts. The series file is deterministic —
//! byte-identical for any shard or thread count — while the Prometheus
//! and chrome-trace files include perf gauges and wall-clock timings and
//! are not.

use std::path::PathBuf;

use jcdn_obs::timeseries::WindowSpec;
use jcdn_obs::{ObsLevel, RunManifest};

use crate::args::Args;

/// The window shape used when `--obs-series` is given without `--window`.
pub const DEFAULT_WINDOW: &str = "60s";

/// One command's observability session.
pub struct Obs {
    /// How much to print on stderr at the end.
    pub level: ObsLevel,
    /// Where to write the JSON manifest, when requested.
    pub out: Option<PathBuf>,
    /// Where to write the JSONL time-series stream, when requested.
    pub series_out: Option<PathBuf>,
    /// Where to write the Prometheus snapshot, when requested.
    pub prom_out: Option<PathBuf>,
    /// Where to write the chrome-trace span dump, when requested.
    pub trace_out: Option<PathBuf>,
    /// The window shape, when `--window` (or `--obs-series`) asked for one.
    pub window: Option<WindowSpec>,
    /// The manifest under construction.
    pub manifest: RunManifest,
    /// Accumulated JSONL series lines (written at finish).
    series_lines: String,
}

/// Parses the obs flags and starts the run manifest (which resets the
/// span ring and pool sink so this command's perf data is its own).
pub fn begin(command: &str, args: &Args) -> Result<Obs, String> {
    let level: ObsLevel = args.value("obs")?.parse()?;
    let out = args.maybe("obs-out").map(PathBuf::from);
    let series_out = args.maybe("obs-series").map(PathBuf::from);
    let prom_out = args.maybe("obs-prom").map(PathBuf::from);
    let trace_out = args.maybe("obs-trace").map(PathBuf::from);
    // A series file without an explicit window gets the default shape.
    let default = series_out.is_some().then_some(DEFAULT_WINDOW);
    let parse = |spec: &str| {
        spec.parse::<WindowSpec>()
            .map_err(|e| format!("--window {spec}: {e}"))
    };
    let window = args.maybe("window").or(default).map(parse).transpose()?;
    // Pool fan-outs log their one-line summaries live at summary/full.
    jcdn_obs::pool::set_logging(level != ObsLevel::Off);
    Ok(Obs {
        level,
        out,
        series_out,
        prom_out,
        trace_out,
        window,
        manifest: RunManifest::start(command),
        series_lines: String::new(),
    })
}

impl Obs {
    /// Appends one block of JSONL series lines (newline-terminated) to the
    /// stream written at finish. Order of pushes is the file order, so
    /// commands push streams in a fixed sequence to keep the file
    /// deterministic.
    pub fn push_series(&mut self, jsonl: &str) {
        self.series_lines.push_str(jsonl);
    }

    /// Finalizes the manifest: captures perf data, prints the stderr
    /// summary, and writes every requested artifact.
    pub fn finish(mut self) -> Result<(), String> {
        self.manifest.finish();
        jcdn_obs::pool::set_logging(false);
        if self.level != ObsLevel::Off {
            eprintln!("{}", self.manifest.summary_text(self.level));
        }
        if let Some(path) = &self.out {
            self.manifest
                .write(path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("wrote run manifest to {}", path.display());
        }
        if let Some(path) = &self.series_out {
            std::fs::write(path, self.series_lines.as_bytes())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("wrote time-series stream to {}", path.display());
        }
        if let Some(path) = &self.prom_out {
            std::fs::write(path, self.manifest.prometheus_text().as_bytes())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("wrote Prometheus snapshot to {}", path.display());
        }
        if let Some(path) = &self.trace_out {
            std::fs::write(path, self.manifest.chrome_trace_json().as_bytes())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("wrote chrome trace to {}", path.display());
        }
        Ok(())
    }
}
