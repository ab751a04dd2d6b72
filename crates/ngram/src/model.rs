//! The backoff n-gram model.

use std::collections::HashMap;

/// One predicted next-token with its backoff score.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Prediction {
    /// The predicted token.
    pub token: u32,
    /// Stupid-backoff score (comparable within one `predict` call, not a
    /// probability).
    pub score: f64,
    /// Length of the context that produced the score (higher = more
    /// specific evidence).
    pub context_len: usize,
}

/// One exported context: `(context tokens, total, successors sorted by
/// token)` — the serialization view of the model.
pub(crate) type ContextExport<'m> = (&'m Vec<u32>, u64, Vec<(u32, u64)>);

/// Counts for one context: total and per-successor.
#[derive(Clone, Debug, Default)]
struct ContextCounts {
    total: u64,
    successors: HashMap<u32, u64>,
}

/// A backoff n-gram model over `u32` token sequences.
///
/// `max_order = N` is the paper's history parameter: contexts of length
/// `0..=N` are counted (length 0 is the unigram/popularity table — "this
/// approach takes into account the popularity of highly requested items,
/// unlike standard program analysis").
///
/// Scoring is *stupid backoff* (Brants et al.): the score of token `w`
/// after context `c` is `count(c·w)/count(c)` when the full context was
/// seen, else `α^d` times the score under the context shortened by `d`
/// tokens (`α = 0.4`). Not normalized — fine for ranking, which is all
/// top-K prediction needs.
#[derive(Clone, Debug)]
pub struct NgramModel {
    max_order: usize,
    backoff: f64,
    /// `counts[len]` maps contexts of length `len` to successor counts.
    counts: Vec<HashMap<Vec<u32>, ContextCounts>>,
    /// Lazily built popularity ranking of the unigram table.
    unigram_cache: std::cell::OnceCell<Vec<(u32, u64)>>,
}

impl NgramModel {
    /// Creates a model with history length `max_order` (the paper's N ≥ 1).
    ///
    /// # Panics
    /// Panics when `max_order == 0`; use N = 1 for bigram prediction.
    pub fn new(max_order: usize) -> Self {
        assert!(max_order >= 1, "history length must be at least 1");
        NgramModel {
            max_order,
            backoff: 0.4,
            counts: vec![HashMap::new(); max_order + 1],
            unigram_cache: std::cell::OnceCell::new(),
        }
    }

    /// Sets the backoff factor (default 0.4).
    pub fn with_backoff(mut self, backoff: f64) -> Self {
        assert!(backoff > 0.0 && backoff <= 1.0, "backoff must be in (0,1]");
        self.backoff = backoff;
        self
    }

    /// The model's history length N.
    pub fn max_order(&self) -> usize {
        self.max_order
    }

    /// The backoff factor.
    pub fn backoff(&self) -> f64 {
        self.backoff
    }

    /// All contexts at one order, sorted for deterministic serialization:
    /// `(context, total, successors sorted by token)`.
    #[expect(
        clippy::disallowed_methods,
        reason = "contexts and successors are sorted before they are returned"
    )]
    pub fn contexts_at(&self, order: usize) -> Vec<ContextExport<'_>> {
        let mut contexts: Vec<ContextExport<'_>> = self.counts[order]
            .iter()
            .map(|(context, counts)| {
                let mut successors: Vec<(u32, u64)> =
                    counts.successors.iter().map(|(&t, &c)| (t, c)).collect();
                successors.sort_unstable_by_key(|&(t, _)| t);
                (context, counts.total, successors)
            })
            .collect();
        contexts.sort_unstable_by(|a, b| a.0.cmp(b.0));
        contexts
    }

    /// Restores one context's counts verbatim (deserialization). `total`
    /// must equal the successor-count sum — the codec validates this.
    pub fn restore_context(
        &mut self,
        order: usize,
        context: Vec<u32>,
        total: u64,
        successors: Vec<(u32, u64)>,
    ) {
        assert!(order <= self.max_order, "order out of range");
        assert_eq!(context.len(), order, "context length must equal order");
        self.unigram_cache.take();
        let entry = self.counts[order].entry(context).or_default();
        entry.total = total;
        entry.successors = successors.into_iter().collect();
    }

    /// Trains on one client's request sequence: every transition
    /// `(seq[i-len..i]) → seq[i]` for `len = 0..=N` is counted.
    pub fn train_sequence(&mut self, seq: &[u32]) {
        for i in 0..seq.len() {
            if i == 0 {
                // Only the unigram count exists for the first request.
                self.bump(0, &[], seq[0]);
                continue;
            }
            for len in 0..=self.max_order.min(i) {
                self.bump(len, &seq[i - len..i], seq[i]);
            }
        }
    }

    fn bump(&mut self, len: usize, context: &[u32], next: u32) {
        self.unigram_cache.take();
        let entry = self.counts[len].entry(context.to_vec()).or_default();
        entry.total += 1;
        *entry.successors.entry(next).or_insert(0) += 1;
    }

    /// Number of transitions observed at full order.
    #[expect(
        clippy::disallowed_methods,
        reason = "an integer sum does not depend on order"
    )]
    pub fn transition_count(&self) -> u64 {
        self.counts[self.max_order].values().map(|c| c.total).sum()
    }

    /// Predicts the top-`k` next tokens after `history` (most recent last).
    ///
    /// Backoff fill: successors of the longest matching context rank
    /// first (ordered by count); when fewer than `k` exist, the next
    /// shorter context fills the remaining slots, down to the unigram
    /// popularity table. Ties break on token id for determinism.
    ///
    /// This "fill by order" rule is both what a prefetcher wants (trust
    /// the most specific evidence first) and what makes prediction O(k)
    /// per backoff level instead of O(vocabulary) — the unigram table has
    /// every token as a successor and is consulted through a cached
    /// popularity ranking.
    pub fn predict(&self, history: &[u32], k: usize) -> Vec<Prediction> {
        if k == 0 {
            return Vec::new();
        }
        let start = self.max_order.min(history.len());
        let mut predictions: Vec<Prediction> = Vec::with_capacity(k);
        for len in (1..=start).rev() {
            if predictions.len() >= k {
                break;
            }
            let context = &history[history.len() - len..];
            let Some(counts) = self.counts[len].get(context) else {
                continue;
            };
            let depth = (start - len) as i32;
            let discount = self.backoff.powi(depth);
            #[expect(
                clippy::disallowed_methods,
                reason = "ranked is sorted by count, then token, before use"
            )]
            let mut ranked: Vec<(u32, u64)> = counts
                .successors
                .iter()
                .map(|(&token, &count)| (token, count))
                .collect();
            ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            for (token, count) in ranked {
                if predictions.len() >= k {
                    break;
                }
                if predictions.iter().any(|p| p.token == token) {
                    continue;
                }
                predictions.push(Prediction {
                    token,
                    score: discount * count as f64 / counts.total as f64,
                    context_len: len,
                });
            }
        }
        // Unigram fallback through the cached popularity ranking.
        if predictions.len() < k {
            let discount = self.backoff.powi(start as i32);
            let total = self.counts[0]
                .get(&Vec::new() as &Vec<u32>)
                .map_or(1, |c| c.total);
            for &(token, count) in self.unigram_ranking() {
                if predictions.len() >= k {
                    break;
                }
                if predictions.iter().any(|p| p.token == token) {
                    continue;
                }
                predictions.push(Prediction {
                    token,
                    score: discount * count as f64 / total as f64,
                    context_len: 0,
                });
            }
        }
        predictions
    }

    /// The unigram successors ordered by count (descending, token id as
    /// tie break), cached after training.
    fn unigram_ranking(&self) -> &[(u32, u64)] {
        self.unigram_cache.get_or_init(|| {
            #[expect(
                clippy::disallowed_methods,
                reason = "ranked is sorted by count, then token, before use"
            )]
            let mut ranked: Vec<(u32, u64)> = self.counts[0]
                .get(&Vec::new() as &Vec<u32>)
                .map(|c| c.successors.iter().map(|(&t, &n)| (t, n)).collect())
                .unwrap_or_default();
            ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            ranked
        })
    }

    /// Convenience: does the actual next token appear in the top-`k`
    /// prediction after `history`?
    pub fn hit(&self, history: &[u32], actual: u32, k: usize) -> bool {
        self.predict(history, k).iter().any(|p| p.token == actual)
    }

    /// The stupid-backoff score of one specific continuation, mirroring the
    /// recursive definition (useful for anomaly detection: a very low score
    /// marks an improbable request).
    pub fn score(&self, history: &[u32], next: u32) -> f64 {
        let start = self.max_order.min(history.len());
        for len in (0..=start).rev() {
            let context = &history[history.len() - len..];
            if let Some(counts) = self.counts[len].get(context) {
                if let Some(&c) = counts.successors.get(&next) {
                    let depth = (start - len) as i32;
                    return self.backoff.powi(depth) * c as f64 / counts.total as f64;
                }
            }
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_deterministic_transitions() {
        let mut m = NgramModel::new(1);
        m.train_sequence(&[1, 2, 3, 1, 2, 3, 1, 2]);
        let p = m.predict(&[1], 1);
        assert_eq!(p[0].token, 2);
        assert!((p[0].score - 1.0).abs() < 1e-12);
        let p = m.predict(&[2], 1);
        assert_eq!(p[0].token, 3);
    }

    #[test]
    fn predicts_most_frequent_successor_first() {
        let mut m = NgramModel::new(1);
        // After 1: 2 appears 3 times, 3 once.
        m.train_sequence(&[1, 2, 1, 2, 1, 2, 1, 3]);
        let p = m.predict(&[1], 2);
        assert_eq!(p[0].token, 2);
        assert_eq!(p[1].token, 3);
        assert!(p[0].score > p[1].score);
    }

    #[test]
    fn backs_off_to_popularity_for_unseen_context() {
        let mut m = NgramModel::new(1);
        m.train_sequence(&[5, 5, 5, 7]);
        // Context 99 was never seen; prediction falls back to unigrams.
        let p = m.predict(&[99], 2);
        assert_eq!(p[0].token, 5);
        assert!(p[0].context_len == 0);
        // Backoff discount applied.
        assert!(p[0].score < 1.0);
    }

    #[test]
    fn empty_history_uses_unigram_table() {
        let mut m = NgramModel::new(2);
        m.train_sequence(&[4, 4, 9]);
        let p = m.predict(&[], 1);
        assert_eq!(p[0].token, 4);
    }

    #[test]
    fn higher_order_context_beats_popularity() {
        let mut m = NgramModel::new(2);
        // Globally, 8 is most popular; but after [1, 2] the next is always 3.
        m.train_sequence(&[8, 8, 8, 8, 8, 1, 2, 3, 1, 2, 3]);
        let p = m.predict(&[1, 2], 1);
        assert_eq!(p[0].token, 3);
        assert_eq!(p[0].context_len, 2);
    }

    #[test]
    fn k_truncates_and_orders_deterministically() {
        let mut m = NgramModel::new(1);
        m.train_sequence(&[1, 10, 1, 11, 1, 12, 1, 13]);
        let p = m.predict(&[1], 2);
        assert_eq!(p.len(), 2);
        // All successors tie at count 1 → token order breaks ties.
        assert_eq!(p[0].token, 10);
        assert_eq!(p[1].token, 11);
        assert!(m.predict(&[1], 0).is_empty());
        // k larger than candidate set returns what exists.
        assert_eq!(m.predict(&[1], 100).len(), m.predict(&[1], 50).len());
    }

    #[test]
    fn hit_checks_topk_membership() {
        let mut m = NgramModel::new(1);
        m.train_sequence(&[1, 2, 1, 2, 1, 3]);
        assert!(m.hit(&[1], 2, 1));
        assert!(!m.hit(&[1], 3, 1));
        assert!(m.hit(&[1], 3, 2));
    }

    #[test]
    fn score_decreases_with_backoff_depth() {
        let mut m = NgramModel::new(2);
        m.train_sequence(&[1, 2, 3, 1, 2, 3]);
        let full = m.score(&[1, 2], 3);
        let partial = m.score(&[99, 2], 3); // order-1 evidence only
        let none = m.score(&[99, 98], 3); // unigram only
        assert!(full > partial, "{full} vs {partial}");
        assert!(partial > none, "{partial} vs {none}");
        assert!(none > 0.0);
        assert_eq!(m.score(&[1, 2], 999), 0.0);
    }

    #[test]
    fn training_accumulates_across_sequences() {
        let mut m = NgramModel::new(1);
        m.train_sequence(&[1, 2]);
        m.train_sequence(&[1, 3]);
        m.train_sequence(&[1, 3]);
        let p = m.predict(&[1], 1);
        assert_eq!(p[0].token, 3);
        assert_eq!(m.transition_count(), 3);
    }

    #[test]
    fn backoff_fill_prefers_specific_context_over_popularity() {
        let mut m = NgramModel::new(1);
        // Token 9 is globally dominant; after 1 the only observed next is 2.
        m.train_sequence(&[9, 9, 9, 9, 9, 9, 1, 2]);
        let p = m.predict(&[1], 3);
        // Slot 0 must be the specific successor, popularity fills after.
        assert_eq!(p[0].token, 2);
        assert_eq!(p[0].context_len, 1);
        assert!(p[1..].iter().any(|x| x.token == 9));
        assert!(p[1..].iter().all(|x| x.context_len == 0));
    }

    #[test]
    fn predictions_have_no_duplicate_tokens() {
        let mut m = NgramModel::new(2);
        m.train_sequence(&[1, 2, 3, 1, 2, 3, 1, 2, 4]);
        let p = m.predict(&[1, 2], 10);
        let mut tokens: Vec<u32> = p.iter().map(|x| x.token).collect();
        tokens.sort_unstable();
        let before = tokens.len();
        tokens.dedup();
        assert_eq!(before, tokens.len());
    }

    #[test]
    fn unigram_cache_invalidates_on_retraining() {
        let mut m = NgramModel::new(1);
        m.train_sequence(&[5, 5, 5]);
        assert_eq!(m.predict(&[], 1)[0].token, 5);
        // Retrain so 7 becomes dominant; the cached ranking must refresh.
        m.train_sequence(&[7, 7, 7, 7, 7, 7, 7, 7]);
        assert_eq!(m.predict(&[], 1)[0].token, 7);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_order_rejected() {
        let _ = NgramModel::new(0);
    }
}
