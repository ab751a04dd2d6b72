//! Plain-text rendering of tables and figure data.
//!
//! The reproduction harness prints each table/figure of the paper as
//! aligned text; these helpers keep that formatting in one place.

use std::fmt::Write as _;

/// A simple aligned-column table builder.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; must match the header arity.
    ///
    /// # Panics
    /// Panics when the row length differs from the header length.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row arity must match header"
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// True when no rows were added.
    pub(crate) fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with column alignment and a separator under the header.
    pub fn render(&self) -> String {
        let columns = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{:<width$}", cell, width = widths[i]);
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        write_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (columns.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// Formats a ratio with two decimals and an `x` suffix.
pub(crate) fn ratio(value: f64) -> String {
    format!("{value:.2}x")
}

/// Renders a labelled comparison against the paper's value.
pub fn paper_vs_measured(label: &str, paper: &str, measured: &str) -> String {
    format!("{label:<44} paper: {paper:>8}   measured: {measured:>8}")
}

/// Renders the shared-tier hit-rate block appended to the availability
/// section when a run used a cache hierarchy: one row per shared tier
/// (nearest the edge first) with the lookups that reached it and its hit
/// rate. `None` when the run had no shared tiers.
pub fn tier_section(stats: &jcdn_cdnsim::SimStats) -> Option<String> {
    if stats.tier_hits.is_empty() {
        return None;
    }
    let mut table = TextTable::new(&["Tier", "Lookups", "Hits", "Hit rate"]);
    for t in 0..stats.tier_hits.len() {
        let hits = stats.tier_hits[t];
        let reached = hits + stats.tier_misses.get(t).copied().unwrap_or(0);
        table.row(&[
            format!("tier {t}"),
            reached.to_string(),
            hits.to_string(),
            stats.tier_hit_ratio(t).map_or_else(|| "-".to_string(), pct),
        ]);
    }
    Some(format!(
        "cache tiers (edge-nearest first):\n{}",
        table.render()
    ))
}

/// Renders the availability section of a characterization report: headline
/// error rates, the resilience counters, and the per-industry table.
pub fn availability_section(a: &crate::characterize::AvailabilityBreakdown) -> String {
    use jcdn_workload::IndustryCategory;

    let mut out = String::new();
    out.push_str("== Availability ==\n");
    let _ = writeln!(out, "logical requests        {}", a.logical_requests());
    let _ = writeln!(out, "attempts (with retries) {}", a.attempts);
    let _ = writeln!(
        out,
        "end-user error rate     {}",
        pct(a.end_user_error_rate())
    );
    let _ = writeln!(
        out,
        "attempt error rate      {}",
        pct(a.attempt_error_rate())
    );
    let _ = writeln!(
        out,
        "retry amplification     {}",
        ratio(a.retry_amplification())
    );
    let _ = writeln!(
        out,
        "served stale            {} ({})",
        a.stale_serves,
        pct(a.stale_serve_share())
    );
    let _ = writeln!(out, "negative-cache serves   {}", a.neg_cached);
    let _ = writeln!(out, "coalesced waits         {}", a.coalesced);

    let mut table = TextTable::new(&["Industry", "Requests", "Failures", "Availability"]);
    let mut categories: Vec<_> = a.per_industry.keys().copied().collect();
    categories.sort_by_key(|c| IndustryCategory::ALL.iter().position(|x| x == c));
    for category in categories {
        let (failures, logical) = a.per_industry[&category];
        let availability = a
            .industry_availability(category)
            .map_or_else(|| "-".to_string(), pct);
        table.row(&[
            category.label().to_string(),
            logical.to_string(),
            failures.to_string(),
            availability,
        ]);
    }
    if !table.is_empty() {
        out.push('\n');
        out.push_str(&table.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = TextTable::new(&["K", "Clustered URLs", "Actual URLs"]);
        t.row(&["1".into(), ".65".into(), ".45".into()]);
        t.row(&["10".into(), ".87".into(), ".69".into()]);
        let rendered = t.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("K "));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Columns align: "Clustered" starts at the same offset in all rows.
        let offset = lines[0].find("Clustered").unwrap();
        assert_eq!(&lines[2][offset..offset + 3], ".65");
        assert_eq!(&lines[3][offset..offset + 3], ".87");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        TextTable::new(&["a", "b"]).row(&["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.551), "55.1%");
        assert_eq!(ratio(4.267), "4.27x");
        let line = paper_vs_measured("GET share", "84%", "83.1%");
        assert!(line.contains("paper:"));
        assert!(line.contains("measured:"));
    }
}
