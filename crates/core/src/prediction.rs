//! §5.2 — next-request prediction (Table 3).
//!
//! Per-client JSON request sequences are extracted from the trace, URLs are
//! interned either raw or through the Klotski-style clusterer, clients are
//! split into train/test sets by hash, and a backoff n-gram model is
//! trained and scored at top-K for the paper's K ∈ {1, 5, 10} and history
//! N ∈ {1, 5}.
//!
//! [`client_corpus`] builds those sequences once for every §5.2 consumer:
//! Table 3 here, and the lead-time analysis, the sequence anomaly detector
//! and the n-gram prefetcher in `jcdn-prefetch`.

use jcdn_ngram::eval::{evaluate_sequence, split_client, EvalResult, Split};
use jcdn_ngram::{NgramModel, Vocab};
use jcdn_trace::flows::client_sequences;
use jcdn_trace::{fnv1a, MimeType, SimTime, Trace};

/// Study configuration.
#[derive(Clone, Debug)]
pub struct PredictionStudyConfig {
    /// History length N (paper's Table 3 uses N = 1; §5.2 notes N = 5 adds
    /// at most 5%).
    pub history: usize,
    /// The K values to evaluate (paper: 1, 5, 10).
    pub ks: Vec<usize>,
    /// Percentage of clients used for training (the paper splits "by
    /// unique clients"; it does not state the ratio — 70% here).
    pub train_percent: u8,
}

/// Minimum sequence length for a client to participate.
const MIN_SEQUENCE: usize = 2;

impl Default for PredictionStudyConfig {
    fn default() -> Self {
        PredictionStudyConfig {
            history: 1,
            ks: vec![1, 5, 10],
            train_percent: 70,
        }
    }
}

/// Accuracy for one (K, URL-mode) cell of Table 3, plus the
/// popularity-only baseline the n-gram model must beat.
#[derive(Clone, Copy, Debug)]
pub struct AccuracyCell {
    /// The K evaluated.
    pub k: usize,
    /// Accuracy on clustered URLs.
    pub clustered: f64,
    /// Accuracy on raw URLs.
    pub actual: f64,
    /// Baseline: always predict the K globally most popular raw URLs,
    /// ignoring history. The paper notes its model "takes into account the
    /// popularity of highly requested items"; this column shows how much
    /// the *transition* structure adds on top of popularity alone.
    pub popularity_baseline: f64,
}

/// The study output: one row per K.
#[derive(Clone, Debug)]
pub struct PredictionReport {
    /// History length used.
    pub history: usize,
    /// Accuracy rows in the order of `config.ks`.
    pub rows: Vec<AccuracyCell>,
    /// Transitions evaluated (raw-URL variant).
    pub test_transitions: u64,
    /// Number of train / test clients.
    pub train_clients: usize,
    /// Number of held-out clients.
    pub test_clients: usize,
}

/// One client's JSON requests, in time order: an element of the §5.2
/// corpus.
#[derive(Clone, Debug)]
pub struct ClientSequence {
    /// Stable client key, FNV-1a over the client's IP hash and UA id: the
    /// input of the train/test split ([`split_client`]).
    pub key: u64,
    /// Request times.
    pub times: Vec<SimTime>,
    /// Request URLs as vocabulary tokens, parallel to `times`.
    pub tokens: Vec<u32>,
}

/// The §5.2 corpus of a trace: each client's JSON request sequence, in
/// client order. `vocab` tokenizes every URL of the trace's table once,
/// in table order, so token ids do not depend on the traffic.
pub fn client_corpus(trace: &Trace, vocab: &mut Vocab) -> Vec<ClientSequence> {
    let tokens: Vec<u32> = trace
        .url_table()
        .iter()
        .map(|url| vocab.intern(url))
        .collect();
    client_sequences(trace, |r| r.mime == MimeType::Json)
        .into_iter()
        .map(|((client, ua), seq)| {
            let mut key = client.0.to_le_bytes().to_vec();
            key.extend_from_slice(&ua.map_or(u32::MAX, |u| u.0).to_le_bytes());
            ClientSequence {
                key: fnv1a(&key),
                times: seq.iter().map(|&(time, _)| time).collect(),
                tokens: seq.iter().map(|&(_, url)| tokens[url.0 as usize]).collect(),
            }
        })
        .collect()
}

/// The corpus's sequences of at least [`MIN_SEQUENCE`] requests plus the
/// trained model, for one URL mode.
struct ModeData {
    sequences: Vec<ClientSequence>,
    model: NgramModel,
}

fn prepare_mode(trace: &Trace, mut vocab: Vocab, config: &PredictionStudyConfig) -> ModeData {
    let mut sequences = client_corpus(trace, &mut vocab);
    sequences.retain(|seq| seq.tokens.len() >= MIN_SEQUENCE);

    let mut model = NgramModel::new(config.history);
    for seq in &sequences {
        if split_client(seq.key, config.train_percent) == Split::Train {
            model.train_sequence(&seq.tokens);
        }
    }
    ModeData { sequences, model }
}

fn evaluate_mode(data: &ModeData, k: usize, train_percent: u8) -> EvalResult {
    let mut result = EvalResult::default();
    for seq in &data.sequences {
        if split_client(seq.key, train_percent) == Split::Test {
            result.merge(evaluate_sequence(&data.model, &seq.tokens, k));
        }
    }
    result
}

/// Top-K accuracy of the history-free popularity predictor: the fixed set
/// of K most popular tokens (by training count) is predicted for every
/// transition.
fn evaluate_popularity_baseline(data: &ModeData, k: usize, train_percent: u8) -> EvalResult {
    // An empty history forces the model to its unigram table.
    let top: Vec<u32> = data
        .model
        .predict(&[], k)
        .into_iter()
        .map(|p| p.token)
        .collect();
    let mut result = EvalResult::default();
    for seq in &data.sequences {
        if split_client(seq.key, train_percent) == Split::Test {
            for &next in &seq.tokens[1.min(seq.tokens.len())..] {
                result.transitions += 1;
                if top.contains(&next) {
                    result.hits += 1;
                }
            }
        }
    }
    result
}

/// Runs the full Table 3 study over a trace.
pub fn run_study(trace: &Trace, config: &PredictionStudyConfig) -> PredictionReport {
    let raw = prepare_mode(trace, Vocab::raw(), config);
    let clustered = prepare_mode(trace, Vocab::clustered(), config);

    let train_clients = raw
        .sequences
        .iter()
        .filter(|seq| split_client(seq.key, config.train_percent) == Split::Train)
        .count();
    let test_clients = raw.sequences.len() - train_clients;

    let mut rows = Vec::with_capacity(config.ks.len());
    let mut test_transitions = 0;
    for &k in &config.ks {
        let raw_result = evaluate_mode(&raw, k, config.train_percent);
        let clustered_result = evaluate_mode(&clustered, k, config.train_percent);
        let baseline = evaluate_popularity_baseline(&raw, k, config.train_percent);
        test_transitions = raw_result.transitions;
        rows.push(AccuracyCell {
            k,
            clustered: clustered_result.accuracy().unwrap_or(0.0),
            actual: raw_result.accuracy().unwrap_or(0.0),
            popularity_baseline: baseline.accuracy().unwrap_or(0.0),
        });
    }
    PredictionReport {
        history: config.history,
        rows,
        test_transitions,
        train_clients,
        test_clients,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcdn_trace::{CacheStatus, ClientId, LogRecord, Method, RecordFlags, SimTime};

    /// Clients repeat an app pattern: manifest → article/{client-specific
    /// id} → detail. Clustered URLs can generalize across clients; raw URLs
    /// cannot predict unseen article ids.
    fn app_trace(clients: u64) -> Trace {
        let mut t = Trace::new();
        for c in 0..clients {
            let manifest = t.intern_url("https://news-0.example/api/v2/stories/0");
            // Article id differs per client → raw URLs don't transfer.
            let article = t.intern_url(&format!("https://news-0.example/api/articles/{}", 100 + c));
            let detail = t.intern_url(&format!(
                "https://news-0.example/api/articles/{}/related",
                100 + c
            ));
            for session in 0..6u64 {
                let base = c * 10_000 + session * 600;
                for (offset, url) in [(0, manifest), (10, article), (20, detail)] {
                    t.push(LogRecord {
                        time: SimTime::from_secs(base + offset),
                        client: ClientId(c),
                        ua: None,
                        url,
                        method: Method::Get,
                        mime: MimeType::Json,
                        status: 200,
                        response_bytes: 100,
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
    fn clustered_beats_raw_on_personalized_patterns() {
        let trace = app_trace(60);
        let report = run_study(&trace, &PredictionStudyConfig::default());
        assert_eq!(report.rows.len(), 3);
        for cell in &report.rows {
            assert!(
                cell.clustered >= cell.actual,
                "K={}: clustered {} < raw {}",
                cell.k,
                cell.clustered,
                cell.actual
            );
        }
        // The clustered pattern is fully deterministic → near-perfect at
        // K=1 for transitions within the session cycle.
        let k1 = &report.rows[0];
        assert!(
            k1.clustered > 0.8,
            "clustered K=1 accuracy {}",
            k1.clustered
        );
        // The n-gram model must beat history-free popularity.
        for cell in &report.rows {
            assert!(
                cell.actual >= cell.popularity_baseline,
                "K={}: ngram {} below popularity baseline {}",
                cell.k,
                cell.actual,
                cell.popularity_baseline
            );
        }
        assert!(report.train_clients > 0 && report.test_clients > 0);
        assert!(report.test_transitions > 0);
    }

    #[test]
    fn accuracy_is_monotone_in_k() {
        let trace = app_trace(40);
        let report = run_study(&trace, &PredictionStudyConfig::default());
        for pair in report.rows.windows(2) {
            assert!(pair[1].clustered >= pair[0].clustered - 1e-12);
            assert!(pair[1].actual >= pair[0].actual - 1e-12);
        }
    }

    #[test]
    fn longer_history_does_not_collapse_accuracy() {
        let trace = app_trace(40);
        let n1 = run_study(&trace, &PredictionStudyConfig::default());
        let n5 = run_study(
            &trace,
            &PredictionStudyConfig {
                history: 5,
                ..PredictionStudyConfig::default()
            },
        );
        // §5.2: larger N changes accuracy only marginally.
        let d = (n5.rows[2].clustered - n1.rows[2].clustered).abs();
        assert!(d < 0.15, "N=5 shifted K=10 accuracy by {d}");
    }

    #[test]
    fn empty_trace_produces_zero_rows() {
        let report = run_study(&Trace::new(), &PredictionStudyConfig::default());
        assert_eq!(report.test_transitions, 0);
        for cell in &report.rows {
            assert_eq!(cell.actual, 0.0);
            assert_eq!(cell.clustered, 0.0);
        }
    }

    #[test]
    fn non_json_records_are_excluded() {
        let mut t = Trace::new();
        let url = t.intern_url("https://a.example/page");
        for c in 0..20u64 {
            for i in 0..5u64 {
                t.push(LogRecord {
                    time: SimTime::from_secs(c * 100 + i),
                    client: ClientId(c),
                    ua: None,
                    url,
                    method: Method::Get,
                    mime: MimeType::Html,
                    status: 200,
                    response_bytes: 10,
                    cache: CacheStatus::Hit,
                    retries: 0,
                    flags: RecordFlags::NONE,
                });
            }
        }
        let report = run_study(&t, &PredictionStudyConfig::default());
        assert_eq!(report.test_transitions, 0);
    }
}
