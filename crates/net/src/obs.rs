//! The pattern table of the hierarchical observability plane:
//! per-query-pattern statistics. A root updates its own
//! [`PatternEntry`] per answered query; [`PatternStats::from_entries`]
//! sums, by fingerprint, the entries of every root a snapshot holds.
//!
//! The pattern table is the substrate for query-mining-driven adaptive
//! topology (ROADMAP item 5): which patterns are hot, how many peers
//! contribute to each, and what latency/TTFR they see.

use crate::telemetry::Histogram;
use std::collections::HashMap;

/// Aggregate statistics of one query-pattern fingerprint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PatternEntry {
    /// The pattern's canonical text (the fingerprint preimage).
    pub pattern: String,
    /// Queries of this pattern answered.
    pub count: u64,
    /// Of those, answers flagged partial.
    pub partials: u64,
    /// Re-plans those queries went through, total.
    pub replans: u64,
    /// Contributing peers per query.
    pub peers: Histogram,
    /// Root-observed total latency per query (µs).
    pub latency_us: Histogram,
    /// Root-observed time-to-first-row per query (µs), when streamed.
    pub ttfr_us: Histogram,
}

impl PatternEntry {
    /// Counts one more answered query of this pattern.
    pub fn record(
        &mut self,
        latency_us: u64,
        ttfr_us: Option<u64>,
        peers: u64,
        partial: bool,
        replans: u64,
    ) {
        self.count += 1;
        self.partials += u64::from(partial);
        self.replans += replans;
        self.peers.record(peers);
        self.latency_us.record(latency_us);
        if let Some(t) = ttfr_us {
            self.ttfr_us.record(t);
        }
    }

    /// Folds `other` (same fingerprint) into `self`.
    pub fn merge(&mut self, other: &PatternEntry) {
        if self.pattern.is_empty() {
            self.pattern = other.pattern.clone();
        }
        self.count += other.count;
        self.partials += other.partials;
        self.replans += other.replans;
        self.peers.merge(&other.peers);
        self.latency_us.merge(&other.latency_us);
        self.ttfr_us.merge(&other.ttfr_us);
    }

    /// Estimated encoded size in bytes under the wire form.
    pub fn wire_size(&self) -> usize {
        16 + self.pattern.len()
            + self.peers.wire_size()
            + self.latency_us.wire_size()
            + self.ttfr_us.wire_size()
    }
}

/// The per-pattern statistics table: entries summed by fingerprint, the
/// form the status page renders.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PatternStats {
    entries: HashMap<u64, PatternEntry>,
}

impl PatternStats {
    /// An empty table.
    pub fn new() -> Self {
        PatternStats::default()
    }

    /// FNV-1a fingerprint of a pattern's canonical text — the table key
    /// and the identity queries aggregate under across the overlay.
    pub fn fingerprint(pattern: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in pattern.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// The entry for `pattern`, if any query of it was recorded.
    pub fn get(&self, pattern: &str) -> Option<&PatternEntry> {
        self.entries.get(&Self::fingerprint(pattern))
    }

    /// Distinct patterns recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no query was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total queries recorded across all patterns.
    pub fn total(&self) -> u64 {
        self.entries.values().map(|e| e.count).sum()
    }

    /// Entries sorted hottest-first (by count, ties broken by pattern
    /// text for determinism).
    pub fn by_count(&self) -> Vec<&PatternEntry> {
        let mut entries: Vec<&PatternEntry> = self.entries.values().collect();
        entries.sort_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then_with(|| a.pattern.cmp(&b.pattern))
        });
        entries
    }

    /// A table of `entries`, those of one pattern summed; fingerprints
    /// are recomputed from the pattern text, so the table can never hold
    /// a mismatched key.
    pub fn from_entries(entries: impl IntoIterator<Item = PatternEntry>) -> PatternStats {
        let mut stats = PatternStats::new();
        for entry in entries {
            let fp = Self::fingerprint(&entry.pattern);
            stats.entries.entry(fp).or_default().merge(&entry);
        }
        stats
    }

    /// Plain-text rendering, hottest pattern first — served by the
    /// status page and `sqpeerd obs`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# pattern stats: {} pattern(s), {} query(ies)",
            self.len(),
            self.total()
        );
        for e in self.by_count() {
            let _ = writeln!(
                out,
                "count {:>6} partial {:>4} replans {:>4} peers_mean {:>3} \
                 latency_mean_us {:>9} ttfr_mean_us {:>9} pattern {}",
                e.count,
                e.partials,
                e.replans,
                e.peers.mean(),
                e.latency_us.mean(),
                e.ttfr_us.mean(),
                e.pattern
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An entry of `pattern` with one answered query per `(latency,
    /// ttfr, peers, partial, replans)`.
    fn entry(pattern: &str, answers: &[(u64, Option<u64>, u64, bool, u64)]) -> PatternEntry {
        let mut e = PatternEntry {
            pattern: pattern.to_owned(),
            ..PatternEntry::default()
        };
        for &(latency, ttfr, peers, partial, replans) in answers {
            e.record(latency, ttfr, peers, partial, replans);
        }
        e
    }

    #[test]
    fn pattern_stats_record_and_query() {
        let ps = PatternStats::from_entries([
            entry(
                "SELECT X FROM {X}p1{Y}",
                &[(1_000, Some(400), 3, false, 0), (3_000, None, 2, true, 1)],
            ),
            entry("SELECT Z FROM {Z}p2{W}", &[(500, None, 1, false, 0)]),
        ]);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.total(), 3);
        let hot = ps.by_count();
        assert_eq!(hot[0].pattern, "SELECT X FROM {X}p1{Y}");
        assert_eq!(hot[0].count, 2);
        assert_eq!(hot[0].partials, 1);
        assert_eq!(hot[0].replans, 1);
        assert_eq!(hot[0].ttfr_us.count(), 1);
        assert_eq!(hot[0].peers.sum(), 5);
        assert!(ps.get("SELECT Z FROM {Z}p2{W}").is_some());
        assert!(ps.render().contains("pattern SELECT X FROM"));
    }

    /// Summing entries by fingerprint ignores their order and loses no
    /// query.
    #[test]
    fn pattern_merge_is_commutative_and_count_preserving() {
        let a = [
            entry("q1", &[(100, None, 1, false, 0)]),
            entry("q2", &[(200, Some(50), 2, true, 1)]),
        ];
        let b = [
            entry("q1", &[(300, None, 4, false, 2)]),
            entry("q3", &[(400, None, 1, false, 0)]),
        ];

        let ab = PatternStats::from_entries(a.iter().chain(&b).cloned());
        let ba = PatternStats::from_entries(b.iter().chain(&a).cloned());
        assert_eq!(ab, ba);
        let total = |entries: &[PatternEntry]| PatternStats::from_entries(entries.to_vec()).total();
        assert_eq!(ab.total(), total(&a) + total(&b));
        assert_eq!(ab.get("q1").unwrap().count, 2);
        assert_eq!(ab.get("q1").unwrap().replans, 2);
    }

    /// Entries of one pattern from several roots sum; the table's own
    /// entries rebuild it exactly.
    #[test]
    fn from_entries_sums_one_pattern_and_roundtrips() {
        let ps = PatternStats::from_entries([
            entry("alpha", &[(10, Some(5), 2, false, 0)]),
            entry("beta", &[(20, None, 3, true, 1)]),
            entry("alpha", &[(30, None, 1, false, 0)]),
        ]);
        assert_eq!(ps.get("alpha").unwrap().count, 2);
        assert_eq!(ps.get("alpha").unwrap().latency_us.sum(), 40);
        let rebuilt = PatternStats::from_entries(ps.by_count().into_iter().cloned());
        assert_eq!(ps, rebuilt);
    }

    #[test]
    fn fingerprint_is_stable_fnv1a() {
        // FNV-1a test vectors.
        assert_eq!(PatternStats::fingerprint(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(PatternStats::fingerprint("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(
            PatternStats::fingerprint("q1"),
            PatternStats::fingerprint("q2")
        );
    }
}
