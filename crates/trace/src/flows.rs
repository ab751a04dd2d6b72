//! Flow extraction (§5.1 of the paper).
//!
//! > *Let an object flow be the sequence of requests made by all clients to
//! > a specific object, identified by a unique URL in the dataset. Let a
//! > client-object flow, CO_flow, be a subsequence of object flow requests
//! > from one client, identified by a user agent and anonymized client IP
//! > pair.*
//!
//! Plus the paper's significance filters: client-object flows with fewer
//! than 10 requests and object flows with fewer than 10 clients are
//! discarded before periodicity analysis.

use std::collections::HashMap;

use crate::record::{ClientId, LogRecord, UaId, UrlId};
use crate::stream::RecordStream;
use crate::time::SimTime;
use crate::trace::Trace;

/// A client identity as the paper defines it: anonymized IP plus user agent.
pub type FlowClient = (ClientId, Option<UaId>);

/// One client's requests to one object, in time order.
#[derive(Clone, Debug, PartialEq)]
pub struct ClientObjectFlow {
    /// The requesting client.
    pub client: FlowClient,
    /// Request times, sorted ascending.
    pub times: Vec<SimTime>,
}

impl ClientObjectFlow {
    /// Number of requests in the flow.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when the flow has no requests (cannot occur for built flows).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }
}

/// All requests to one object, grouped per client.
#[derive(Clone, Debug, PartialEq)]
pub struct ObjectFlow {
    /// The object URL.
    pub url: UrlId,
    /// Per-client subsequences.
    pub client_flows: Vec<ClientObjectFlow>,
}

impl ObjectFlow {
    /// Number of distinct clients.
    pub fn client_count(&self) -> usize {
        self.client_flows.len()
    }

    /// All request times across clients, merged and sorted.
    pub fn merged_times(&self) -> Vec<SimTime> {
        let mut all: Vec<SimTime> = self
            .client_flows
            .iter()
            .flat_map(|cf| cf.times.iter().copied())
            .collect();
        all.sort_unstable();
        all
    }
}

/// The set of object flows extracted from a trace.
#[derive(Clone, Debug, Default)]
pub struct FlowSet {
    /// Flows in URL-id order.
    pub flows: Vec<ObjectFlow>,
}

impl FlowSet {
    /// Builds flows from every record matching `filter`.
    ///
    /// Within each flow, client subsequences are time-sorted; flow order
    /// follows `UrlId` so results are deterministic.
    pub fn build(trace: &Trace, filter: impl FnMut(&LogRecord) -> bool) -> FlowSet {
        Self::build_stream(&trace.stream(), filter)
    }

    /// [`build`][Self::build] over any record stream (a whole trace, one
    /// shard of a [`crate::ShardedTrace`], or several shards chained).
    pub(crate) fn build_stream(
        stream: &RecordStream<'_>,
        mut filter: impl FnMut(&LogRecord) -> bool,
    ) -> FlowSet {
        let mut by_object: HashMap<UrlId, HashMap<FlowClient, Vec<SimTime>>> = HashMap::new();
        for r in stream.iter() {
            if !filter(r) {
                continue;
            }
            by_object
                .entry(r.url)
                .or_default()
                .entry((r.client, r.ua))
                .or_default()
                .push(r.time);
        }
        let mut flows: Vec<ObjectFlow> = by_object
            .into_iter()
            .map(|(url, clients)| {
                let mut client_flows: Vec<ClientObjectFlow> = clients
                    .into_iter()
                    .map(|(client, mut times)| {
                        times.sort_unstable();
                        ClientObjectFlow { client, times }
                    })
                    .collect();
                client_flows.sort_by_key(|cf| cf.client);
                ObjectFlow { url, client_flows }
            })
            .collect();
        flows.sort_by_key(|f| f.url);
        FlowSet { flows }
    }

    /// Applies the paper's significance filters: drops client-object flows
    /// with fewer than `min_requests` requests, then object flows with
    /// fewer than `min_clients` remaining clients. The paper uses 10 / 10,
    /// "resulting in flows containing the top 25% of objects requested".
    pub fn apply_significance_filters(
        mut self,
        min_requests: usize,
        min_clients: usize,
    ) -> FlowSet {
        for flow in &mut self.flows {
            flow.client_flows.retain(|cf| cf.len() >= min_requests);
        }
        self.flows.retain(|f| f.client_count() >= min_clients);
        self
    }
}

/// Per-client request sequences across *all* objects, time-ordered — the
/// training format of the n-gram model (§5.2: "requests are split into
/// client request flows").
///
/// Reads any record stream (`trace.stream()`, `sharded.stream()`), and
/// returns (client, [(time, url)]) pairs sorted by client for determinism.
pub fn client_sequences(
    stream: &RecordStream<'_>,
    mut filter: impl FnMut(&LogRecord) -> bool,
) -> Vec<(FlowClient, Vec<(SimTime, UrlId)>)> {
    let mut by_client: HashMap<FlowClient, Vec<(SimTime, UrlId)>> = HashMap::new();
    for r in stream.iter() {
        if !filter(r) {
            continue;
        }
        by_client
            .entry((r.client, r.ua))
            .or_default()
            .push((r.time, r.url));
    }
    let mut sequences: Vec<_> = by_client.into_iter().collect();
    for (_, seq) in &mut sequences {
        seq.sort_unstable_by_key(|&(t, _)| t);
    }
    sequences.sort_by_key(|&(client, _)| client);
    sequences
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{CacheStatus, Method, MimeType, RecordFlags};

    fn push(trace: &mut Trace, t: u64, client: u64, url: &str) {
        let url = trace.intern_url(url);
        trace.push(LogRecord {
            time: SimTime::from_secs(t),
            client: ClientId(client),
            ua: None,
            url,
            method: Method::Get,
            mime: MimeType::Json,
            status: 200,
            response_bytes: 10,
            cache: CacheStatus::Hit,
            retries: 0,
            flags: RecordFlags::NONE,
        });
    }

    #[test]
    fn groups_by_object_then_client() {
        let mut t = Trace::new();
        push(&mut t, 3, 1, "https://a.example/x");
        push(&mut t, 1, 1, "https://a.example/x");
        push(&mut t, 2, 2, "https://a.example/x");
        push(&mut t, 4, 1, "https://a.example/y");

        let flows = FlowSet::build(&t, |_| true);
        assert_eq!(flows.flows.len(), 2);
        let x = &flows.flows[0];
        assert_eq!(x.client_count(), 2);
        // Client 1's times are sorted despite insertion order.
        let c1 = &x.client_flows[0];
        assert_eq!(c1.times, vec![SimTime::from_secs(1), SimTime::from_secs(3)]);
        assert_eq!(x.merged_times().len(), 3);
        assert!(x.merged_times().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn ua_distinguishes_clients() {
        let mut t = Trace::new();
        let ua = t.intern_ua("okhttp/3.12.1");
        push(&mut t, 1, 1, "https://a.example/x");
        let url = t.intern_url("https://a.example/x");
        t.push(LogRecord {
            time: SimTime::from_secs(2),
            client: ClientId(1),
            ua: Some(ua),
            url,
            method: Method::Get,
            mime: MimeType::Json,
            status: 200,
            response_bytes: 10,
            cache: CacheStatus::Hit,
            retries: 0,
            flags: RecordFlags::NONE,
        });
        let flows = FlowSet::build(&t, |_| true);
        // Same IP, different UA → two client-object flows (§5.1).
        assert_eq!(flows.flows[0].client_count(), 2);
    }

    #[test]
    fn significance_filters_match_paper_rules() {
        let mut t = Trace::new();
        // Object A: 12 clients, each with 12 requests → survives.
        for c in 0..12 {
            for i in 0..12 {
                push(&mut t, c * 1000 + i * 10, c, "https://a.example/hot");
            }
        }
        // Object B: 12 clients but only 3 requests each → all client flows
        // drop, then the object drops.
        for c in 0..12 {
            for i in 0..3 {
                push(&mut t, c * 1000 + i * 10, 100 + c, "https://a.example/cold");
            }
        }
        // Object C: 2 clients with 20 requests each → too few clients.
        for c in 0..2 {
            for i in 0..20 {
                push(&mut t, c * 1000 + i * 10, 200 + c, "https://a.example/duo");
            }
        }
        let flows = FlowSet::build(&t, |_| true).apply_significance_filters(10, 10);
        assert_eq!(flows.flows.len(), 1);
        assert_eq!(flows.flows[0].client_count(), 12);
    }

    #[test]
    fn filter_predicate_limits_records() {
        let mut t = Trace::new();
        push(&mut t, 1, 1, "https://a.example/x");
        push(&mut t, 2, 1, "https://a.example/y");
        let flows = FlowSet::build(&t, |r| r.url.0 == 0);
        assert_eq!(flows.flows.len(), 1);
        assert_eq!(flows.flows[0].merged_times().len(), 1);
    }

    #[test]
    fn client_sequences_are_time_ordered_per_client() {
        let mut t = Trace::new();
        push(&mut t, 5, 1, "https://a.example/b");
        push(&mut t, 1, 1, "https://a.example/a");
        push(&mut t, 3, 2, "https://a.example/c");
        let seqs = client_sequences(&t.stream(), |_| true);
        assert_eq!(seqs.len(), 2);
        let (client, seq) = &seqs[0];
        assert_eq!(client.0, ClientId(1));
        let urls: Vec<u32> = seq.iter().map(|&(_, u)| u.0).collect();
        // url ids: b=0, a=1 — time order puts a (t=1) first.
        assert_eq!(urls, vec![1, 0]);
    }
}
