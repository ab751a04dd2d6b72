//! Dataset assembly: workload generation → CDN simulation → trace.

use jcdn_cdnsim::{run_sharded, SimConfig, SimOutput, SimStats};
use jcdn_obs::{MetricsSnapshot, WindowedCounters};
use jcdn_trace::summary::DatasetSummary;
use jcdn_trace::Trace;
use jcdn_workload::{build, Workload, WorkloadConfig};

/// A fully simulated dataset: the generating workload (with ground truth),
/// the resulting edge logs, and simulator statistics.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// The workload (population + ground truth labels).
    pub workload: Workload,
    /// The edge request logs.
    pub trace: Trace,
    /// Simulator counters.
    pub stats: SimStats,
    /// Per-edge observability counters from the simulator, ready to merge
    /// into a run manifest.
    pub metrics: MetricsSnapshot,
    /// Per-window simulator counters, when the sim config asked for a
    /// window ([`SimConfig::window`]).
    pub series: Option<WindowedCounters>,
}

impl Dataset {
    /// Table 2 summary of this dataset.
    pub fn summary(&self) -> DatasetSummary {
        DatasetSummary::compute(self.workload.config.name.clone(), &self.trace)
    }
}

/// Generates and simulates a dataset with the default simulator
/// configuration.
pub fn simulate(config: &WorkloadConfig) -> Dataset {
    simulate_workload_parallel(build(config), &SimConfig::default(), 1)
}

/// Simulates an already-built workload, fanning per-edge simulation out
/// over a `threads`-wide pool (see [`jcdn_cdnsim::run_sharded`] for when
/// the parallel path applies; one thread is the sequential
/// [`jcdn_cdnsim::run_default`]). Taking a built workload is useful when
/// the simulator config refers to the workload itself — e.g. fault windows
/// targeting a domain that must first be resolved to its index. Trace
/// records are identical to the sequential run for any thread count.
pub fn simulate_workload_parallel(workload: Workload, sim: &SimConfig, threads: usize) -> Dataset {
    let SimOutput {
        trace,
        stats,
        metrics,
        series,
    } = run_sharded(&workload, sim, threads);
    Dataset {
        workload,
        trace,
        stats,
        metrics,
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcdn_workload::WorkloadConfig;

    #[test]
    fn dataset_summary_matches_trace() {
        let data = simulate(&WorkloadConfig::tiny(3).scaled(0.2));
        let s = data.summary();
        assert_eq!(s.logs, data.trace.len());
        assert_eq!(s.name, "Tiny");
        assert!(s.domains > 0);
        assert!(s.json_logs > 0);
    }

    #[test]
    fn stats_and_trace_agree_on_request_count() {
        let data = simulate(&WorkloadConfig::tiny(4).scaled(0.2));
        assert_eq!(data.stats.requests as usize, data.trace.len());
        // Retried attempts add extra records beyond the workload events.
        assert_eq!(
            data.workload.events.len() as u64 + data.stats.retries_issued,
            data.trace.len() as u64
        );
    }
}
