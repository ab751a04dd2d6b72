//! Train/test evaluation of the prediction model (Table 3).
//!
//! The paper: "we first split the JSON dataset by unique clients into a
//! testing and training set … the ngram models are also tested on
//! individual client request flows." Splitting by client (not by time)
//! ensures the model never sees a test client's own history.

use crate::model::NgramModel;

/// Which side of the split a client lands on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Split {
    /// Used to train the model.
    Train,
    /// Held out for evaluation.
    Test,
}

/// Deterministically assigns a client to train/test by hashing its id:
/// clients whose hash bucket (out of 100) falls below
/// `train_percent` train the model.
pub fn split_client(client_key: u64, train_percent: u8) -> Split {
    // SplitMix finalizer decorrelates sequential client ids.
    let mut x = client_key;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    if (x % 100) < u64::from(train_percent) {
        Split::Train
    } else {
        Split::Test
    }
}

/// Accuracy accumulator for top-K evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalResult {
    /// Transitions evaluated.
    pub transitions: u64,
    /// Transitions whose actual next request was in the top-K prediction.
    pub hits: u64,
}

impl EvalResult {
    /// Fraction of transitions predicted correctly, or `None` when nothing
    /// was evaluated.
    pub fn accuracy(&self) -> Option<f64> {
        (self.transitions > 0).then(|| self.hits as f64 / self.transitions as f64)
    }

    /// Merges another result into this one.
    pub fn merge(&mut self, other: EvalResult) {
        self.transitions += other.transitions;
        self.hits += other.hits;
    }
}

/// Evaluates top-`k` accuracy of `model` on one held-out client sequence:
/// for every position `i ≥ 1`, predict from the preceding history and check
/// whether `seq[i]` is among the top `k`.
pub fn evaluate_sequence(model: &NgramModel, seq: &[u32], k: usize) -> EvalResult {
    let mut result = EvalResult::default();
    for i in 1..seq.len() {
        let history_start = i.saturating_sub(model.max_order());
        let history = &seq[history_start..i];
        result.transitions += 1;
        if model.hit(history, seq[i], k) {
            result.hits += 1;
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trains on `Train` sequences and evaluates top-`k` accuracy over
    /// `Test` sequences, as the §5.2 study does. Sequences are
    /// `(client_key, tokens)` pairs.
    fn train_and_evaluate(
        sequences: &[(u64, Vec<u32>)],
        max_order: usize,
        k: usize,
        train_percent: u8,
    ) -> (NgramModel, EvalResult) {
        let mut model = NgramModel::new(max_order);
        for (client, seq) in sequences {
            if split_client(*client, train_percent) == Split::Train {
                model.train_sequence(seq);
            }
        }
        let mut result = EvalResult::default();
        for (client, seq) in sequences {
            if split_client(*client, train_percent) == Split::Test {
                result.merge(evaluate_sequence(&model, seq, k));
            }
        }
        (model, result)
    }

    #[test]
    fn split_is_deterministic_and_roughly_proportional() {
        let train = (0..10_000u64)
            .filter(|&c| split_client(c, 80) == Split::Train)
            .count();
        assert!((7_500..8_500).contains(&train), "train count {train}");
        for c in 0..100 {
            assert_eq!(split_client(c, 80), split_client(c, 80));
        }
        assert!((0..1000).all(|c| split_client(c, 100) == Split::Train));
        assert!((0..1000).all(|c| split_client(c, 0) == Split::Test));
    }

    #[test]
    fn perfect_pattern_scores_perfectly() {
        // All clients repeat the same cycle; the held-out clients are
        // perfectly predictable.
        let sequences: Vec<(u64, Vec<u32>)> = (0..50)
            .map(|c| (c, vec![1, 2, 3, 1, 2, 3, 1, 2, 3]))
            .collect();
        let (_, result) = train_and_evaluate(&sequences, 1, 1, 70);
        assert!(result.transitions > 0);
        // After token 3 the model sees both 1 (cycle) — all transitions
        // within the cycle are deterministic.
        assert_eq!(result.accuracy(), Some(1.0));
    }

    #[test]
    fn larger_k_never_hurts() {
        let sequences: Vec<(u64, Vec<u32>)> = (0..60)
            .map(|c| {
                // Mix of two interleaved patterns; K=1 cannot cover both.
                if c % 2 == 0 {
                    (c, vec![1, 2, 1, 2, 1, 2])
                } else {
                    (c, vec![1, 3, 1, 3, 1, 3])
                }
            })
            .collect();
        let (_, at1) = train_and_evaluate(&sequences, 1, 1, 50);
        let (_, at2) = train_and_evaluate(&sequences, 1, 2, 50);
        let a1 = at1.accuracy().unwrap();
        let a2 = at2.accuracy().unwrap();
        assert!(a2 >= a1, "K=2 accuracy {a2} < K=1 accuracy {a1}");
        assert!(a2 > 0.9, "K=2 should cover both patterns, got {a2}");
    }

    #[test]
    fn empty_and_singleton_sequences_contribute_nothing() {
        let sequences: Vec<(u64, Vec<u32>)> = vec![(1, vec![]), (2, vec![7])];
        let (_, result) = train_and_evaluate(&sequences, 1, 5, 50);
        assert_eq!(result.transitions, 0);
        assert_eq!(result.accuracy(), None);
    }

    #[test]
    fn evaluate_sequence_respects_history_window() {
        let mut model = NgramModel::new(2);
        model.train_sequence(&[1, 2, 3, 4]);
        let r = evaluate_sequence(&model, &[1, 2, 3, 4], 1);
        assert_eq!(r.transitions, 3);
        assert_eq!(r.hits, 3);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = EvalResult {
            transitions: 10,
            hits: 5,
        };
        a.merge(EvalResult {
            transitions: 10,
            hits: 10,
        });
        assert_eq!(a.accuracy(), Some(0.75));
    }
}
