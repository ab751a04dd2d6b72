//! Prefetch lead-time analysis (interarrival-aware prediction).
//!
//! §5.2 closes with: "while our prediction analysis examines request
//! access order, future work can also take into account request
//! interarrival time to better inform prediction systems." This module is
//! that analysis: for every predicted transition, the *lead time* — the
//! gap between the trigger request and the predicted next request — is how
//! long a prefetched response must survive in cache (and how much time the
//! edge has to fetch it). A prediction that arrives after the demand
//! request is useless; one that arrives days early ages out.

use jcdn_ngram::eval::{split_client, Split};
use jcdn_ngram::{NgramModel, Vocab};
use jcdn_stats::ExactQuantiles;
use jcdn_trace::flows::client_sequences;
use jcdn_trace::{fnv1a, MimeType, Trace};

/// Lead-time distributions for predicted and unpredicted transitions.
#[derive(Debug, Default)]
pub struct LeadTimeReport {
    /// Gaps (seconds) of transitions the model predicted in its top-K.
    pub predicted_gaps: ExactQuantiles,
    /// Gaps of transitions the model missed.
    pub missed_gaps: ExactQuantiles,
}

impl LeadTimeReport {
    /// Fraction of *predicted* transitions whose lead time is at least
    /// `seconds` — enough slack for an origin fetch of that duration.
    pub fn predicted_with_lead_of(&mut self, seconds: f64) -> Option<f64> {
        let total = self.predicted_gaps.count();
        if total == 0 {
            return None;
        }
        // Quantile inversion through binary search over the CDF.
        let mut lo = 0.0;
        let mut hi = 1.0;
        for _ in 0..40 {
            let mid = (lo + hi) / 2.0;
            match self.predicted_gaps.quantile(mid) {
                Some(v) if v < seconds => lo = mid,
                _ => hi = mid,
            }
        }
        Some(1.0 - hi)
    }

    /// Median lead time of predicted transitions.
    pub fn median_predicted(&mut self) -> Option<f64> {
        self.predicted_gaps.median()
    }
}

/// Configuration for the analysis.
#[derive(Clone, Debug)]
pub struct LeadTimeConfig {
    /// N-gram history length.
    pub history: usize,
    /// Top-K window counted as "predicted".
    pub k: usize,
    /// Train split percentage (by client).
    pub train_percent: u8,
}

impl Default for LeadTimeConfig {
    fn default() -> Self {
        LeadTimeConfig {
            history: 1,
            k: 5,
            train_percent: 70,
        }
    }
}

/// Trains an n-gram model on the trace's training clients and measures the
/// lead-time distribution over held-out clients.
pub fn analyze(trace: &Trace, config: &LeadTimeConfig) -> LeadTimeReport {
    let mut vocab = Vocab::raw();
    let tokens: Vec<u32> = trace
        .url_table()
        .iter()
        .map(|url| vocab.intern(url))
        .collect();

    let sequences: Vec<(u64, Vec<(f64, u32)>)> =
        client_sequences(&trace.stream(), |r| r.mime == MimeType::Json)
            .into_iter()
            .map(|((client, ua), seq)| {
                let key = fnv1a(&{
                    let mut bytes = client.0.to_le_bytes().to_vec();
                    bytes.extend_from_slice(&ua.map_or(u32::MAX, |u| u.0).to_le_bytes());
                    bytes
                });
                let timed: Vec<(f64, u32)> = seq
                    .iter()
                    .map(|&(t, url)| (t.as_secs_f64(), tokens[url.0 as usize]))
                    .collect();
                (key, timed)
            })
            .collect();

    let mut model = NgramModel::new(config.history);
    for (client, seq) in &sequences {
        if split_client(*client, config.train_percent) == Split::Train {
            let toks: Vec<u32> = seq.iter().map(|&(_, t)| t).collect();
            model.train_sequence(&toks);
        }
    }

    let mut report = LeadTimeReport::default();
    for (client, seq) in &sequences {
        if split_client(*client, config.train_percent) != Split::Test {
            continue;
        }
        let toks: Vec<u32> = seq.iter().map(|&(_, t)| t).collect();
        for i in 1..seq.len() {
            let gap = seq[i].0 - seq[i - 1].0;
            let start = i.saturating_sub(config.history);
            if model.hit(&toks[start..i], toks[i], config.k) {
                report.predicted_gaps.record(gap);
            } else {
                report.missed_gaps.record(gap);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcdn_trace::{CacheStatus, ClientId, LogRecord, Method, RecordFlags, SimTime};

    /// Clients walk a fixed chain with 8-second think times.
    fn chain_trace() -> Trace {
        let mut t = Trace::new();
        for c in 0..40u64 {
            for s in 0..5u64 {
                let base = c * 1000 + s * 120;
                for (step, path) in ["a", "b", "c"].iter().enumerate() {
                    let url = t.intern_url(&format!("https://api-0.example/v1/{path}"));
                    t.push(LogRecord {
                        time: SimTime::from_secs(base + step as u64 * 8),
                        client: ClientId(c),
                        ua: None,
                        url,
                        method: Method::Get,
                        mime: MimeType::Json,
                        status: 200,
                        response_bytes: 64,
                        cache: CacheStatus::Hit,
                        retries: 0,
                        flags: RecordFlags::NONE,
                    });
                }
            }
        }
        t.sort_by_time();
        t
    }

    #[test]
    fn predicted_transitions_carry_their_think_time() {
        let trace = chain_trace();
        let mut report = analyze(&trace, &LeadTimeConfig::default());
        assert!(
            report.predicted_gaps.count() > 0,
            "chain must be predictable"
        );
        // In-session transitions are 8s apart; session gaps are ~96s. The
        // median predicted lead time is the think time.
        let median = report.median_predicted().unwrap();
        assert!(
            (7.0..12.0).contains(&median),
            "median predicted lead {median}"
        );
        // Nearly every predicted transition leaves >= 1s to prefetch.
        let enough = report.predicted_with_lead_of(1.0).unwrap();
        assert!(enough > 0.9, "lead >= 1s for {enough}");
        // Almost none leaves >= 10 minutes.
        let too_much = report.predicted_with_lead_of(600.0).unwrap();
        assert!(too_much < 0.2, "lead >= 600s for {too_much}");
    }

    #[test]
    fn empty_trace_yields_empty_report() {
        let mut report = analyze(&Trace::new(), &LeadTimeConfig::default());
        assert!(report.median_predicted().is_none());
        assert!(report.predicted_with_lead_of(1.0).is_none());
    }
}
