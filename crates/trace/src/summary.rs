//! Dataset summaries (Table 2 of the paper).

use std::collections::HashSet;

use crate::interner::HostTable;
use crate::record::MimeType;
use crate::time::SimDuration;
use crate::trace::Trace;

/// The roll-up the paper reports per dataset in Table 2, plus a few extra
/// counts the rest of the pipeline needs.
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetSummary {
    /// Human-readable dataset name ("Short-term", "Long-term").
    pub name: String,
    /// Total number of logs.
    pub logs: usize,
    /// Span between first and last record.
    pub duration: SimDuration,
    /// Number of distinct domains (hosts of the URLs records reference).
    pub domains: usize,
    /// Number of distinct clients (hashed IP + UA pairs, §5.1).
    pub clients: usize,
    /// Number of distinct objects (URLs).
    pub objects: usize,
    /// Number of records with `application/json` responses.
    pub json_logs: usize,
}

impl DatasetSummary {
    /// Computes the summary for a trace.
    pub fn compute(name: impl Into<String>, trace: &Trace) -> Self {
        // Unused table entries (possible after `retain`) still count as
        // objects only if referenced by a record.
        let mut objects = HashSet::new();
        let mut clients = HashSet::new();
        let mut json_logs = 0;
        for r in trace.records() {
            objects.insert(r.url);
            clients.insert((r.client, r.ua));
            if r.mime == MimeType::Json {
                json_logs += 1;
            }
        }
        let duration = trace
            .time_span()
            .map(|(first, last)| last - first)
            .unwrap_or(SimDuration::ZERO);
        // Like objects, a domain counts only if a record references it.
        let hosts = HostTable::build(trace.interner());
        #[expect(
            clippy::disallowed_methods,
            reason = "only the number of distinct hosts is kept"
        )]
        let domains: HashSet<usize> = objects.iter().map(|&url| hosts.host_id(url)).collect();
        DatasetSummary {
            name: name.into(),
            logs: trace.len(),
            duration,
            domains: domains.len(),
            clients: clients.len(),
            objects: objects.len(),
            json_logs,
        }
    }

    /// Renders a Table 2-shaped row: `name | logs | duration | domains`.
    pub fn table_row(&self) -> String {
        format!(
            "{:<12} | {:>10} | {:>10} | {:>8}",
            self.name,
            self.logs,
            self.duration.to_string(),
            self.domains
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{CacheStatus, ClientId, LogRecord, Method, RecordFlags, UaId};
    use crate::time::SimTime;

    fn push(trace: &mut Trace, t: u64, client: u64, url: &str, mime: MimeType, ua: Option<UaId>) {
        let url = trace.intern_url(url);
        trace.push(LogRecord {
            time: SimTime::from_secs(t),
            client: ClientId(client),
            ua,
            url,
            method: Method::Get,
            mime,
            status: 200,
            response_bytes: 10,
            cache: CacheStatus::Hit,
            retries: 0,
            flags: RecordFlags::NONE,
        });
    }

    #[test]
    fn counts_distinct_entities() {
        let mut t = Trace::new();
        let ua = t.intern_ua("okhttp/3.12.1");
        push(
            &mut t,
            0,
            1,
            "https://a.example/x",
            MimeType::Json,
            Some(ua),
        );
        push(
            &mut t,
            10,
            1,
            "https://a.example/y",
            MimeType::Json,
            Some(ua),
        );
        push(&mut t, 20, 2, "https://b.example/x", MimeType::Html, None);
        push(&mut t, 30, 1, "https://a.example/x", MimeType::Json, None);
        // Interned but never requested: neither an object nor a domain.
        t.intern_url("https://c.example/unused");

        let s = DatasetSummary::compute("Test", &t);
        assert_eq!(s.logs, 4);
        assert_eq!(s.domains, 2);
        assert_eq!(s.objects, 3);
        // Client identity is (ip, ua): client 1 appears with and without a
        // UA → two distinct clients, plus client 2.
        assert_eq!(s.clients, 3);
        assert_eq!(s.json_logs, 3);
        assert_eq!(s.duration, SimDuration::from_secs(30));
    }

    #[test]
    fn empty_trace_summary() {
        let s = DatasetSummary::compute("Empty", &Trace::new());
        assert_eq!(s.logs, 0);
        assert_eq!(s.duration, SimDuration::ZERO);
        assert_eq!(s.domains, 0);
    }

    #[test]
    fn table_row_contains_name_and_count() {
        let mut t = Trace::new();
        push(&mut t, 0, 1, "https://a.example/x", MimeType::Json, None);
        let row = DatasetSummary::compute("Short-term", &t).table_row();
        assert!(row.contains("Short-term"));
        assert!(row.contains('1'));
    }
}
