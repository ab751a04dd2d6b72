//! Deprioritization of machine-to-machine traffic (§5.1/§7).

use std::collections::{HashMap, HashSet};

use jcdn_cdnsim::{Policy, PolicyOutcome, Priority, RequestCtx};
use jcdn_core::periodicity::PeriodicityReport;
use jcdn_trace::Trace;
use jcdn_workload::Workload;

/// A [`Policy`] that serves known machine-to-machine (client, object) pairs
/// at lower priority, "since a human is not waiting for the response".
#[derive(Clone, Debug, Default)]
pub struct DeprioritizePolicy {
    machine_pairs: HashSet<(u32, u32)>,
}

impl DeprioritizePolicy {
    /// Builds from the generator's ground-truth periodic pairs — the upper
    /// bound an oracle operator could reach.
    #[expect(
        clippy::disallowed_methods,
        reason = "collected into a set, so order is lost anyway"
    )]
    pub fn from_ground_truth(workload: &Workload) -> Self {
        DeprioritizePolicy {
            machine_pairs: workload.truth.periodic_pairs.keys().copied().collect(),
        }
    }

    /// Builds from a detected [`PeriodicityReport`] — what an operator
    /// actually gets from the §5.1 analysis. Flow identities (hashed client
    /// IP + UA, URL string) are mapped back onto the workload's indices.
    pub fn from_report(report: &PeriodicityReport, trace: &Trace, workload: &Workload) -> Self {
        // Client ip-hash → index; URL string → object index.
        let client_index: HashMap<u64, u32> = workload
            .clients
            .iter()
            .enumerate()
            .map(|(i, c)| (c.ip_hash, i as u32))
            .collect();
        let object_index: HashMap<&str, u32> = workload
            .objects
            .iter()
            .enumerate()
            .map(|(i, o)| (o.url.as_str(), i as u32))
            .collect();
        let machine_pairs = report
            .periodic_flows
            .iter()
            .filter_map(|flow| {
                let client = client_index.get(&flow.client.0 .0)?;
                let object = object_index.get(trace.url(flow.url))?;
                Some((*client, *object))
            })
            .collect();
        DeprioritizePolicy { machine_pairs }
    }

    /// Number of deprioritized pairs.
    pub fn pair_count(&self) -> usize {
        self.machine_pairs.len()
    }
}

impl Policy for DeprioritizePolicy {
    fn on_request(&mut self, ctx: &RequestCtx<'_>) -> PolicyOutcome {
        let priority = if self.machine_pairs.contains(&(ctx.client, ctx.object)) {
            Priority::Deprioritized
        } else {
            Priority::Normal
        };
        PolicyOutcome {
            prefetch: Vec::new(),
            priority,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcdn_cdnsim::{run, run_default, SimConfig, SimDuration};
    use jcdn_workload::{build, WorkloadConfig};

    fn loaded_config(w: &jcdn_workload::Workload) -> SimConfig {
        // A single edge at ~110% utilization so queueing is real and
        // priorities matter, independent of upstream volume calibration.
        let service_us =
            (1.1 * w.config.duration.as_secs_f64() / w.events.len() as f64 * 1e6) as u64;
        SimConfig {
            edges: 1,
            service_base: SimDuration::from_micros(service_us.max(1)),
            service_per_kb: SimDuration::ZERO,
            ..SimConfig::default()
        }
    }

    #[test]
    fn ground_truth_policy_shields_human_traffic() {
        let w = build(&WorkloadConfig::tiny(81));
        let mut policy = DeprioritizePolicy::from_ground_truth(&w);
        assert!(policy.pair_count() > 0);

        let config = loaded_config(&w);
        let baseline = run_default(&w, &config);
        let depri = run(&w, &config, &mut policy);

        // With deprioritization the normal class must see mean latency at
        // or below the undifferentiated baseline, and the machine class
        // must pay for it.
        let base_mean = baseline.stats.latency_normal.mean().unwrap();
        let human_mean = depri.stats.latency_normal.mean().unwrap();
        let machine_mean = depri.stats.latency_depri.mean().unwrap();
        assert!(
            human_mean <= base_mean * 1.02,
            "human latency must not regress: {human_mean} vs {base_mean}"
        );
        assert!(
            machine_mean > human_mean,
            "machine traffic must wait longer: {machine_mean} vs {human_mean}"
        );
    }

    #[test]
    fn report_based_policy_maps_flows_back_to_indices() {
        use jcdn_core::periodicity::{run_study, PeriodicityStudyConfig};
        use jcdn_signal::periodicity::PeriodicityConfig;

        let data = jcdn_core::dataset::simulate(&WorkloadConfig::tiny(91));
        let study_config = PeriodicityStudyConfig {
            detector: PeriodicityConfig {
                permutations: 30,
                parallel: true,
                max_bins: 1 << 13,
            },
            ..PeriodicityStudyConfig::default()
        };
        let report = run_study(&data.trace, &study_config);
        let policy = DeprioritizePolicy::from_report(&report, &data.trace, &data.workload);
        // Every detected pair must resolve back onto the universe.
        assert_eq!(policy.pair_count(), {
            let unique: std::collections::HashSet<_> = report
                .periodic_flows
                .iter()
                .map(|f| (f.client, f.url))
                .collect();
            unique.len()
        });
        // Detected pairs should overlap the planted ground truth.
        if policy.pair_count() > 0 {
            let truth = DeprioritizePolicy::from_ground_truth(&data.workload);
            let overlap = policy
                .machine_pairs
                .intersection(&truth.machine_pairs)
                .count();
            assert!(
                overlap * 2 >= policy.pair_count(),
                "at least half of detected pairs are planted: {overlap}/{}",
                policy.pair_count()
            );
        }
    }
}
