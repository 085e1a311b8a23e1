//! The node-local pattern table of the hierarchical observability
//! plane: per-query-pattern statistics. [`PatternStats::merge`] is a
//! commutative monoid fold: a cluster head's snapshot sums, by
//! fingerprint, the entries its members' tables hold.
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

/// The per-pattern statistics table: every answered query increments its
/// pattern's entry at the root; entries travel the rollup channel.
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

    /// Records one answered query of `pattern`.
    pub fn record(
        &mut self,
        pattern: &str,
        latency_us: u64,
        ttfr_us: Option<u64>,
        peers: u64,
        partial: bool,
        replans: u64,
    ) {
        let entry = self.entries.entry(Self::fingerprint(pattern)).or_default();
        if entry.pattern.is_empty() {
            entry.pattern = pattern.to_string();
        }
        entry.count += 1;
        entry.partials += u64::from(partial);
        entry.replans += replans;
        entry.peers.record(peers);
        entry.latency_us.record(latency_us);
        if let Some(t) = ttfr_us {
            entry.ttfr_us.record(t);
        }
    }

    /// Folds `other` into `self`, entry-wise by fingerprint.
    pub fn merge(&mut self, other: &PatternStats) {
        for (fp, theirs) in &other.entries {
            self.entries.entry(*fp).or_default().merge(theirs);
        }
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

    /// Entries in fingerprint order.
    pub fn sorted_entries(&self) -> Vec<(u64, &PatternEntry)> {
        let mut entries: Vec<(u64, &PatternEntry)> =
            self.entries.iter().map(|(fp, e)| (*fp, e)).collect();
        entries.sort_by_key(|(fp, _)| *fp);
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

    #[test]
    fn pattern_stats_record_and_query() {
        let mut ps = PatternStats::new();
        ps.record("SELECT X FROM {X}p1{Y}", 1_000, Some(400), 3, false, 0);
        ps.record("SELECT X FROM {X}p1{Y}", 3_000, None, 2, true, 1);
        ps.record("SELECT Z FROM {Z}p2{W}", 500, None, 1, false, 0);
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

    #[test]
    fn pattern_merge_is_commutative_and_count_preserving() {
        let mut a = PatternStats::new();
        a.record("q1", 100, None, 1, false, 0);
        a.record("q2", 200, Some(50), 2, true, 1);
        let mut b = PatternStats::new();
        b.record("q1", 300, None, 4, false, 2);
        b.record("q3", 400, None, 1, false, 0);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.total(), a.total() + b.total());
        assert_eq!(ab.get("q1").unwrap().count, 2);
        assert_eq!(ab.get("q1").unwrap().replans, 2);
    }

    #[test]
    fn from_entries_roundtrips_sorted_entries() {
        let mut ps = PatternStats::new();
        ps.record("alpha", 10, Some(5), 2, false, 0);
        ps.record("beta", 20, None, 3, true, 1);
        let rebuilt =
            PatternStats::from_entries(ps.sorted_entries().into_iter().map(|(_, e)| e.clone()));
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
