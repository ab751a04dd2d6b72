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

use jcdn_core::prediction::client_corpus;
use jcdn_ngram::eval::{split_client, Split};
use jcdn_ngram::{NgramModel, Vocab};
use jcdn_stats::ExactQuantiles;
use jcdn_trace::Trace;

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
        self.predicted_gaps.share_at_least(seconds)
    }

    /// Median lead time of predicted transitions.
    pub fn median_predicted(&mut self) -> Option<f64> {
        self.predicted_gaps.median()
    }
}

/// N-gram history length: Table 3's N = 1.
const HISTORY: usize = 1;
/// Top-K window counted as "predicted": Table 3's middle K.
const K: usize = 5;
/// Train split percentage (by client), as in the §5.2 study.
const TRAIN_PERCENT: u8 = 70;

/// Trains an n-gram model on the trace's training clients and measures the
/// lead-time distribution over held-out clients.
pub fn analyze(trace: &Trace) -> LeadTimeReport {
    let corpus = client_corpus(trace, &mut Vocab::raw());
    let mut model = NgramModel::new(HISTORY);
    for seq in &corpus {
        if split_client(seq.key, TRAIN_PERCENT) == Split::Train {
            model.train_sequence(&seq.tokens);
        }
    }

    let mut report = LeadTimeReport::default();
    for seq in &corpus {
        if split_client(seq.key, TRAIN_PERCENT) != Split::Test {
            continue;
        }
        let (times, toks) = (&seq.times, &seq.tokens);
        for i in 1..toks.len() {
            // Times are converted to seconds before subtracting: converting
            // their difference instead can round the gap differently.
            let gap = times[i].as_secs_f64() - times[i - 1].as_secs_f64();
            let start = i.saturating_sub(HISTORY);
            if model.hit(&toks[start..i], toks[i], K) {
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
    use jcdn_trace::{CacheStatus, ClientId, LogRecord, Method, MimeType, RecordFlags, SimTime};

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
        let mut report = analyze(&trace);
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
    fn lead_share_counts_the_gaps_directly() {
        // Interpolating between order statistics would put the share of
        // {0, 0, 10} at or above 5 s at 0.25; one gap in three is.
        let mut report = LeadTimeReport::default();
        for gap in [0.0, 10.0, 0.0] {
            report.predicted_gaps.record(gap);
        }
        assert_eq!(report.predicted_with_lead_of(5.0), Some(1.0 / 3.0));
        assert_eq!(report.predicted_with_lead_of(10.0), Some(1.0 / 3.0));
        assert_eq!(report.predicted_with_lead_of(0.0), Some(1.0));
        assert_eq!(report.predicted_with_lead_of(10.5), Some(0.0));
    }

    #[test]
    fn empty_trace_yields_empty_report() {
        let mut report = analyze(&Trace::new());
        assert!(report.median_predicted().is_none());
        assert!(report.predicted_with_lead_of(1.0).is_none());
    }
}
