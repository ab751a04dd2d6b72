//! N-gram-driven prefetching (§5.2's proposed optimization).

use std::collections::HashMap;

use jcdn_cdnsim::{Policy, PolicyOutcome, RequestCtx};
use jcdn_core::prediction::client_corpus;
use jcdn_ngram::{NgramModel, Vocab};
use jcdn_trace::{MimeType, RecordStream};

/// A [`Policy`] that predicts each client's next requests with a backoff
/// n-gram model and prefetches the top-K predictions.
///
/// Training happens offline on a previous trace (URLs are interned raw —
/// prefetching needs concrete URLs, exactly as the paper notes: "since 84%
/// of requests are GET requests, unmodified URLs can be used to request
/// these objects directly"). At simulation time the prefetcher keeps an
/// N-token history per client and maps predicted tokens to the current
/// universe's object ids.
#[derive(Debug)]
pub struct NgramPrefetcher {
    model: NgramModel,
    vocab: Vocab,
    /// Predicted-token → object-id map for the active universe.
    token_to_object: HashMap<u32, u32>,
    /// Per-client recent history (token ids, most recent last).
    history: HashMap<u32, Vec<u32>>,
    /// Number of predictions to prefetch per request.
    pub k: usize,
    /// Only trigger on JSON requests (media objects are fetched by clients
    /// that already know the URL; prediction adds nothing there).
    pub json_only: bool,
}

impl NgramPrefetcher {
    /// Trains a prefetcher from a record stream (typically a previous
    /// capture of the same traffic): `trace.stream()`, or a sharded
    /// trace's stream without materializing a combined trace. `history` is
    /// the n-gram order N, `k` the number of predictions prefetched per
    /// request.
    pub fn train(stream: &RecordStream<'_>, history: usize, k: usize) -> Self {
        let mut vocab = Vocab::raw();
        let mut model = NgramModel::new(history);
        for seq in client_corpus(stream, &mut vocab) {
            model.train_sequence(&seq.tokens);
        }
        NgramPrefetcher {
            model,
            vocab,
            token_to_object: HashMap::new(),
            history: HashMap::new(),
            k,
            json_only: true,
        }
    }

    /// Binds the prefetcher to a universe: object URLs are resolved against
    /// the training vocabulary so predictions can name object ids. Must be
    /// called before simulation (done automatically by
    /// [`crate::eval::compare_policies`]).
    pub fn bind_universe(&mut self, objects: &[jcdn_workload::ObjectInfo]) {
        self.token_to_object = objects
            .iter()
            .enumerate()
            .filter_map(|(i, o)| self.vocab.get(&o.url).map(|token| (token, i as u32)))
            .collect();
    }
}

impl Policy for NgramPrefetcher {
    fn on_request(&mut self, ctx: &RequestCtx<'_>) -> PolicyOutcome {
        let object = &ctx.objects[ctx.object as usize];
        if self.json_only && object.mime != MimeType::Json {
            return PolicyOutcome::default();
        }
        let Some(token) = self.vocab.get(&object.url) else {
            // URL unseen in training; nothing to predict from.
            return PolicyOutcome::default();
        };

        let history = self.history.entry(ctx.client).or_default();
        history.push(token);
        let n = self.model.max_order();
        if history.len() > n {
            let excess = history.len() - n;
            history.drain(..excess);
        }

        let prefetch = self
            .model
            .predict(history, self.k)
            .into_iter()
            .filter_map(|p| self.token_to_object.get(&p.token).copied())
            .filter(|&obj| obj != ctx.object)
            .collect();
        PolicyOutcome {
            prefetch,
            priority: Default::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcdn_cdnsim::{run, run_default, SimConfig};
    use jcdn_core::dataset::simulate;
    use jcdn_workload::WorkloadConfig;

    #[test]
    fn trains_and_binds_against_a_real_universe() {
        let data = simulate(&WorkloadConfig::tiny(21).scaled(0.3));
        let mut p = NgramPrefetcher::train(&data.trace.stream(), 1, 5);
        p.bind_universe(&data.workload.objects);
        assert!(
            !p.token_to_object.is_empty(),
            "vocabulary must cover the universe"
        );
    }

    #[test]
    fn stream_training_over_shards_matches_whole_trace_training() {
        let data = simulate(&WorkloadConfig::tiny(21).scaled(0.3));
        let sharded = jcdn_trace::ShardedTrace::from_trace(data.trace, 4);
        let from_shards = NgramPrefetcher::train(&sharded.stream(), 1, 5);
        let whole = sharded.into_trace();
        let from_trace = NgramPrefetcher::train(&whole.stream(), 1, 5);
        assert_eq!(from_shards.model, from_trace.model);
        assert_eq!(from_shards.vocab.len(), from_trace.vocab.len());
    }

    #[test]
    fn prefetching_improves_hit_ratio_on_manifest_traffic() {
        // Train on one day (seed A), deploy on another (seed B): same
        // universe shape, different arrivals.
        let train = simulate(&WorkloadConfig::tiny(31));
        let deploy = jcdn_workload::build(&WorkloadConfig::tiny(31));

        let base = run_default(&deploy, &SimConfig::default());
        let mut policy = NgramPrefetcher::train(&train.trace.stream(), 1, 5);
        policy.bind_universe(&deploy.objects);
        let boosted = run(&deploy, &SimConfig::default(), &mut policy);

        assert!(boosted.stats.prefetch_issued > 0, "policy must prefetch");
        assert!(
            boosted.stats.prefetch_useful > 0,
            "some prefetched entries must serve demand hits"
        );
        let base_ratio = base.stats.cacheable_hit_ratio().unwrap();
        let boosted_ratio = boosted.stats.cacheable_hit_ratio().unwrap();
        assert!(
            boosted_ratio > base_ratio,
            "hit ratio must improve: {base_ratio} -> {boosted_ratio}"
        );
    }

    #[test]
    fn unseen_urls_produce_no_prefetch() {
        let data = simulate(&WorkloadConfig::tiny(41).scaled(0.2));
        let mut p = NgramPrefetcher::train(&data.trace.stream(), 1, 5);
        // Bind against a *different* universe: URLs differ, so almost
        // nothing resolves and the policy stays quiet rather than wrong.
        let other = jcdn_workload::build(&WorkloadConfig::tiny(999).scaled(0.2));
        p.bind_universe(&other.objects);
        let out = run(&other, &SimConfig::default(), &mut p);
        // No panics and no wild prefetching of unknown objects.
        assert!(out.stats.prefetch_issued < out.stats.requests / 2);
    }
}
