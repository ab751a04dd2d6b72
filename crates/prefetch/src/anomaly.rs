//! Anomaly detection from periodicity and prediction models.
//!
//! §5 twice points at anomaly detection: "periodic information can also be
//! used for anomaly detection when an object is requested at a different
//! period than it is intended", and "prediction of clustered objects can
//! also be used for anomaly detection of unusual requests". Both detectors
//! below scan a trace offline and return flagged records.

use std::collections::HashMap;

use jcdn_core::prediction::client_corpus;
use jcdn_ngram::{NgramModel, Vocab};
use jcdn_trace::flows::{client_sequences, FlowClient};
use jcdn_trace::{MimeType, SimTime, Trace, UrlId};

/// One flagged request.
#[derive(Clone, Debug, PartialEq)]
pub struct Anomaly {
    /// The client whose request was flagged.
    pub client: FlowClient,
    /// The requested object.
    pub url: UrlId,
    /// When it happened.
    pub time: SimTime,
    /// Why it was flagged.
    pub kind: AnomalyKind,
}

/// The detector that fired.
#[derive(Clone, Debug, PartialEq)]
pub enum AnomalyKind {
    /// The request was (near-)impossible under the sequence model:
    /// carries the stupid-backoff score it received.
    UnlikelySequence(f64),
    /// A known periodic flow deviated from its period: carries
    /// (observed gap, expected period) in seconds.
    OffPeriod(f64, f64),
}

/// Flags requests whose transition score under a trained n-gram model falls
/// below `threshold` (clustered URLs generalize across clients, per §5.2's
/// suggestion to use clustered objects for anomaly detection).
#[derive(Debug)]
pub struct SequenceAnomalyDetector {
    model: NgramModel,
    vocab: Vocab,
    /// Transitions scoring strictly below this are anomalous.
    pub threshold: f64,
}

impl SequenceAnomalyDetector {
    /// Trains on a reference trace with history length `history`.
    pub fn train(reference: &Trace, history: usize, threshold: f64) -> Self {
        let mut vocab = Vocab::clustered();
        let mut model = NgramModel::new(history);
        for seq in client_corpus(&reference.stream(), &mut vocab) {
            model.train_sequence(&seq.tokens);
        }
        SequenceAnomalyDetector {
            model,
            vocab,
            threshold,
        }
    }

    /// Scans a trace; returns flagged records in time order per client.
    pub fn scan(&self, trace: &Trace) -> Vec<Anomaly> {
        let mut anomalies = Vec::new();
        for (client, seq) in client_sequences(&trace.stream(), |r| r.mime == MimeType::Json) {
            let tokens: Vec<Option<u32>> = seq
                .iter()
                .map(|&(_, url)| self.vocab.get(trace.url(url)))
                .collect();
            for i in 1..seq.len() {
                let (time, url) = seq[i];
                // An entirely unknown cluster is itself anomalous.
                let Some(next) = tokens[i] else {
                    anomalies.push(Anomaly {
                        client,
                        url,
                        time,
                        kind: AnomalyKind::UnlikelySequence(0.0),
                    });
                    continue;
                };
                let start = i.saturating_sub(self.model.max_order());
                let history: Vec<u32> = tokens[start..i].iter().copied().flatten().collect();
                let score = self.model.score(&history, next);
                if score < self.threshold {
                    anomalies.push(Anomaly {
                        client,
                        url,
                        time,
                        kind: AnomalyKind::UnlikelySequence(score),
                    });
                }
            }
        }
        anomalies
    }
}

/// Flags requests in known-periodic flows that arrive far from their
/// expected schedule.
#[derive(Clone, Debug)]
pub struct PeriodAnomalyDetector {
    /// Expected period (seconds) per (client, object) flow.
    expected: HashMap<(FlowClient, UrlId), f64>,
    /// Relative deviation from the period that counts as anomalous
    /// (`0.5` = a gap under half or over 1.5× the period).
    pub tolerance: f64,
}

impl PeriodAnomalyDetector {
    /// Builds from known flow periods (e.g. a
    /// [`jcdn_core::periodicity::PeriodicityReport`]'s periodic flows).
    pub fn new(
        expected: impl IntoIterator<Item = ((FlowClient, UrlId), f64)>,
        tolerance: f64,
    ) -> Self {
        PeriodAnomalyDetector {
            expected: expected.into_iter().collect(),
            tolerance,
        }
    }

    /// Scans a trace; gaps deviating more than `tolerance × period` from
    /// the expected period are flagged (with the request that ended the
    /// gap).
    pub fn scan(&self, trace: &Trace) -> Vec<Anomaly> {
        let mut last_seen: HashMap<(FlowClient, UrlId), SimTime> = HashMap::new();
        let mut anomalies = Vec::new();
        // Records must be visited in time order.
        let mut order: Vec<usize> = (0..trace.records().len()).collect();
        order.sort_by_key(|&i| trace.records()[i].time);
        for i in order {
            let r = &trace.records()[i];
            let key = ((r.client, r.ua), r.url);
            let Some(&period) = self.expected.get(&key) else {
                continue;
            };
            if let Some(&previous) = last_seen.get(&key) {
                let gap = (r.time - previous).as_secs_f64();
                if (gap - period).abs() > self.tolerance * period {
                    anomalies.push(Anomaly {
                        client: key.0,
                        url: r.url,
                        time: r.time,
                        kind: AnomalyKind::OffPeriod(gap, period),
                    });
                }
            }
            last_seen.insert(key, r.time);
        }
        anomalies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcdn_trace::{CacheStatus, ClientId, LogRecord, Method, RecordFlags};

    fn record(trace: &mut Trace, time: u64, client: u64, url: &str) -> LogRecord {
        let url = trace.intern_url(url);
        LogRecord {
            time: SimTime::from_secs(time),
            client: ClientId(client),
            ua: None,
            url,
            method: Method::Get,
            mime: MimeType::Json,
            status: 200,
            response_bytes: 64,
            cache: CacheStatus::Hit,
            retries: 0,
            flags: RecordFlags::NONE,
        }
    }

    fn reference_trace() -> Trace {
        let mut t = Trace::new();
        // 30 clients all follow manifest → article/{id} → related.
        for c in 0..30u64 {
            for s in 0..4u64 {
                let base = c * 1000 + s * 100;
                let r = record(&mut t, base, c, "https://news-0.example/api/v2/stories/0");
                t.push(r);
                let r = record(
                    &mut t,
                    base + 10,
                    c,
                    &format!("https://news-0.example/api/articles/{}", c * 10 + s),
                );
                t.push(r);
            }
        }
        t
    }

    #[test]
    fn normal_traffic_is_not_flagged() {
        let reference = reference_trace();
        let detector = SequenceAnomalyDetector::train(&reference, 1, 0.01);
        let anomalies = detector.scan(&reference);
        assert!(
            anomalies.is_empty(),
            "training data must score clean: {anomalies:?}"
        );
    }

    #[test]
    fn injected_unusual_request_is_flagged() {
        let reference = reference_trace();
        let detector = SequenceAnomalyDetector::train(&reference, 1, 0.01);

        let mut attack = Trace::new();
        let r = record(
            &mut attack,
            0,
            99,
            "https://news-0.example/api/v2/stories/0",
        );
        attack.push(r);
        // After a manifest, fetching an admin endpoint was never observed.
        let r = record(&mut attack, 5, 99, "https://news-0.example/admin/export");
        attack.push(r);
        let anomalies = detector.scan(&attack);
        assert_eq!(anomalies.len(), 1);
        assert!(matches!(
            anomalies[0].kind,
            AnomalyKind::UnlikelySequence(score) if score < 0.01
        ));
    }

    #[test]
    fn off_period_request_is_flagged() {
        let mut t = Trace::new();
        let url_str = "https://game-0.example/telemetry/beat/0";
        for tick in 0..20u64 {
            // One tick arrives 17s late.
            let time = tick * 30 + if tick == 10 { 17 } else { 0 };
            let r = record(&mut t, time, 7, url_str);
            t.push(r);
        }
        let url = t.find_url(url_str).unwrap();
        let detector = PeriodAnomalyDetector::new([(((ClientId(7), None), url), 30.0)], 0.4);
        let anomalies = detector.scan(&t);
        // The late tick creates one long gap (47s) and one short gap (13s).
        assert_eq!(anomalies.len(), 2, "{anomalies:?}");
        assert!(anomalies
            .iter()
            .all(|a| matches!(a.kind, AnomalyKind::OffPeriod(_, p) if p == 30.0)));
    }

    #[test]
    fn unmonitored_flows_are_ignored() {
        let mut t = Trace::new();
        let r = record(&mut t, 0, 1, "https://a.example/x");
        t.push(r);
        let r = record(&mut t, 500, 1, "https://a.example/x");
        t.push(r);
        let detector = PeriodAnomalyDetector::new([], 0.4);
        assert!(detector.scan(&t).is_empty());
    }
}
