//! Overlay-wide telemetry: per-link counters, log-scale histograms and
//! windowed-throughput accounting over **virtual time**.
//!
//! §2.5 of the paper has the optimizer "alter a running query plan by
//! observing the throughput of a certain channel". This module is the
//! observation half of that loop: the simulator feeds every successful
//! delivery into a [`TelemetryRegistry`], which keeps — per directed link
//! — message/byte counters plus fixed-bucket log₂ histograms of delivery
//! latency, message size and windowed throughput (bytes moved per sliding
//! virtual-time window).
//!
//! Design constraints, in order:
//!
//! * **Determinism** — everything is driven by virtual µs; two identical
//!   runs produce byte-identical snapshots.
//! * **Zero cost when disabled** — the simulator holds an
//!   `Option<TelemetryRegistry>`; `None` means not a single instruction
//!   is spent on telemetry. The E19 experiment asserts identical answers
//!   with the registry on and off and reports the wall-clock cost beside
//!   an A/A noise floor; no overhead bound is asserted.
//! * **Cheap aggregation** — [`Histogram::merge`] and
//!   [`TelemetryRegistry::merge`] are element-wise counter additions, so
//!   overlay-level rollups are O(buckets), not O(samples).
//!
//! The text exposition ([`TelemetryRegistry::render`]) is Prometheus-style
//! (`# TYPE` headers, `{from="N0",to="N1",le="…"}` labels, cumulative
//! histogram buckets) and **stable**: keys are emitted in sorted order and
//! golden snapshots pin the grammar.

use crate::sim::NodeId;
use std::collections::HashMap;

/// Number of log₂ buckets. Bucket `i` (for `0 < i < BUCKETS-1`) counts
/// samples `v` with `2^(i-1) <= v < 2^i`; bucket 0 counts `v == 0`; the
/// last bucket is the overflow (`v >= 2^(BUCKETS-2)`). 40 buckets cover
/// latencies past 6 virtual days and sizes past 256 GB — effectively
/// unbounded for this simulator.
pub const BUCKETS: usize = 40;

/// A fixed-size log₂-bucket histogram over `u64` samples.
///
/// Recording is O(1) (a `leading_zeros` and two adds) and merging is a
/// bucket-wise add, which makes it associative, commutative and
/// count-preserving — properties the test suite pins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Bucket index for a sample: 0 for 0, else `floor(log2 v) + 1`,
    /// capped at the overflow bucket.
    fn bucket_of(value: u64) -> usize {
        ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Inclusive upper bound of bucket `i` (the Prometheus `le` label);
    /// `None` for the overflow bucket (`le="+Inf"`).
    pub fn bucket_bound(i: usize) -> Option<u64> {
        if i >= BUCKETS - 1 {
            None
        } else {
            Some((1u64 << i) - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples in one step (used to account long
    /// idle stretches as empty throughput windows without iterating).
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[Self::bucket_of(value)] += n;
        self.count += n;
        self.sum += value * n;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Raw per-bucket counts.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// Reassembles a histogram from raw bucket counts and a sample sum
    /// (the wire-decode path); the total count is derived from the
    /// buckets, so a decoded histogram is always internally consistent.
    pub fn from_parts(counts: [u64; BUCKETS], sum: u64) -> Histogram {
        let count = counts.iter().sum();
        Histogram { counts, count, sum }
    }

    /// Estimated encoded size in bytes under the sparse wire form (one
    /// `(bucket, count)` pair per non-empty bucket plus the sum).
    pub fn wire_size(&self) -> usize {
        8 + self
            .counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| 1 + varint_len(c))
            .sum::<usize>()
    }

    /// Folds `other` into `self` bucket-wise.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Index of the highest non-empty bucket (0 when empty) — bounds the
    /// exposition so empty tails are not rendered.
    fn highest_nonempty(&self) -> usize {
        self.counts.iter().rposition(|&c| c > 0).unwrap_or(0)
    }
}

/// LEB128 length of `v` — sizes the wire-size estimates without the
/// `sqpeer-wire` crate (which depends on this one).
pub fn varint_len(v: u64) -> usize {
    ((64 - v.leading_zeros()).max(1) as usize).div_ceil(7)
}

/// Telemetry of one *directed* link: counters plus the three histograms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkTelemetry {
    /// Messages delivered over the link.
    pub messages: u64,
    /// Bytes delivered over the link.
    pub bytes: u64,
    /// Delivery latency (send → delivery), virtual µs.
    pub latency_us: Histogram,
    /// Delivered message sizes, bytes.
    pub size_bytes: Histogram,
    /// Bytes moved per closed virtual-time window (the windowed
    /// throughput §2.5 adapts on); idle windows count as 0.
    pub window_bytes: Histogram,
    /// Per-link time-to-first-row: µs from a subplan dispatch at the
    /// receiving end of this link until the first result packet arrived
    /// back over it. Streaming execution exists to shrink this number —
    /// the E21 experiment and the status page read it here.
    pub ttfr_us: Histogram,
    /// Start of the currently open window (virtual µs).
    window_start_us: u64,
    /// Bytes accumulated in the currently open window.
    open_window_bytes: u64,
}

impl LinkTelemetry {
    /// Closes every window that ended at or before `now_us`, recording
    /// each one's byte count (idle windows in bulk), and leaves a fresh
    /// window open. O(1) regardless of the idle gap.
    fn roll(&mut self, now_us: u64, window_us: u64) {
        let elapsed = now_us.saturating_sub(self.window_start_us) / window_us;
        if elapsed == 0 {
            return;
        }
        self.window_bytes.record(self.open_window_bytes);
        self.window_bytes.record_n(0, elapsed - 1);
        self.window_start_us += elapsed * window_us;
        self.open_window_bytes = 0;
    }

    /// Bytes seen so far in the still-open window.
    pub fn open_window_bytes(&self) -> u64 {
        self.open_window_bytes
    }

    /// Start of the currently open window (µs on the feeding clock).
    pub fn window_start_us(&self) -> u64 {
        self.window_start_us
    }

    /// Folds `other` into `self`. Counters and histograms add; the open
    /// windows add byte-wise under the later window start (aggregation is
    /// meant for snapshots of the *same* virtual clock).
    pub fn merge(&mut self, other: &LinkTelemetry) {
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.latency_us.merge(&other.latency_us);
        self.size_bytes.merge(&other.size_bytes);
        self.window_bytes.merge(&other.window_bytes);
        self.ttfr_us.merge(&other.ttfr_us);
        self.window_start_us = self.window_start_us.max(other.window_start_us);
        self.open_window_bytes += other.open_window_bytes;
    }
}

/// The per-link telemetry registry the simulator feeds.
///
/// Keyed by directed link `(from, to)`; [`TelemetryRegistry::node_rollup`]
/// merges the per-link entries into per-node aggregates (demonstrating
/// that aggregation is just `merge`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryRegistry {
    window_us: u64,
    links: HashMap<(NodeId, NodeId), LinkTelemetry>,
}

/// Default sliding-window length: 100 virtual ms (five default link
/// latencies — long enough to smooth packetisation, short enough to catch
/// a degraded link well before the 10 s subplan timeout).
pub const DEFAULT_WINDOW_US: u64 = 100_000;

impl Default for TelemetryRegistry {
    fn default() -> Self {
        TelemetryRegistry::new(DEFAULT_WINDOW_US)
    }
}

impl TelemetryRegistry {
    /// A registry whose throughput windows are `window_us` long. A
    /// link's first window opens at 0, its transport's epoch: virtual
    /// time and a real clock alike count from the transport's start.
    pub fn new(window_us: u64) -> Self {
        TelemetryRegistry {
            window_us: window_us.max(1),
            links: HashMap::new(),
        }
    }

    /// Records one successful delivery on `from → to`.
    pub fn record_delivery(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        latency_us: u64,
        now_us: u64,
    ) {
        let window = self.window_us;
        let link = self.links.entry((from, to)).or_default();
        link.roll(now_us, window);
        link.messages += 1;
        link.bytes += bytes as u64;
        link.latency_us.record(latency_us);
        link.size_bytes.record(bytes as u64);
        link.open_window_bytes += bytes as u64;
    }

    /// Records one time-to-first-row observation on `from → to`: the µs
    /// between a subplan dispatch at `to` and the first result packet
    /// arriving back from `from` (data flows `from → to`).
    pub fn record_ttfr(&mut self, from: NodeId, to: NodeId, elapsed_us: u64) {
        let link = self.links.entry((from, to)).or_default();
        link.ttfr_us.record(elapsed_us);
    }

    /// Telemetry of one directed link, if any traffic was seen.
    pub fn link(&self, from: NodeId, to: NodeId) -> Option<&LinkTelemetry> {
        self.links.get(&(from, to))
    }

    /// Number of directed links with recorded traffic.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True when no delivery was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Folds `other` into `self`, link-wise.
    pub fn merge(&mut self, other: &TelemetryRegistry) {
        for (key, theirs) in &other.links {
            self.links.entry(*key).or_default().merge(theirs);
        }
    }

    /// Per-node rollup: for every node, all its incoming links merged
    /// into one [`LinkTelemetry`]. Sorted by node id.
    pub fn node_rollup(&self) -> Vec<(NodeId, LinkTelemetry)> {
        let mut per_node: HashMap<NodeId, LinkTelemetry> = HashMap::new();
        for ((_, to), link) in &self.links {
            per_node.entry(*to).or_default().merge(link);
        }
        let mut rolled: Vec<(NodeId, LinkTelemetry)> = per_node.into_iter().collect();
        rolled.sort_by_key(|(id, _)| *id);
        rolled
    }

    /// Directed links in sorted order (stable iteration for rendering
    /// and for byte-deterministic wire encoding).
    pub fn sorted_links(&self) -> Vec<((NodeId, NodeId), &LinkTelemetry)> {
        let mut links: Vec<_> = self.links.iter().map(|(k, v)| (*k, v)).collect();
        links.sort_by_key(|(k, _)| *k);
        links
    }

    /// Total messages across every recorded link.
    pub fn total_messages(&self) -> u64 {
        self.links.values().map(|l| l.messages).sum()
    }

    /// Total bytes across every recorded link.
    pub fn total_bytes(&self) -> u64 {
        self.links.values().map(|l| l.bytes).sum()
    }

    /// Stable Prometheus-style text exposition. Histogram buckets are
    /// cumulative with `le` labels (powers of two minus one), rendered up
    /// to the highest non-empty bucket plus `+Inf`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let links = self.sorted_links();
        let _ = writeln!(out, "# sqpeer telemetry (window={}us)", self.window_us);
        let _ = writeln!(out, "# TYPE sqpeer_link_messages_total counter");
        for ((from, to), l) in &links {
            let _ = writeln!(
                out,
                "sqpeer_link_messages_total{{from=\"{from}\",to=\"{to}\"}} {}",
                l.messages
            );
        }
        let _ = writeln!(out, "# TYPE sqpeer_link_bytes_total counter");
        for ((from, to), l) in &links {
            let _ = writeln!(
                out,
                "sqpeer_link_bytes_total{{from=\"{from}\",to=\"{to}\"}} {}",
                l.bytes
            );
        }
        for (name, pick) in [
            (
                "sqpeer_link_latency_us",
                (|l: &LinkTelemetry| &l.latency_us) as fn(&LinkTelemetry) -> &Histogram,
            ),
            ("sqpeer_link_size_bytes", |l: &LinkTelemetry| &l.size_bytes),
            ("sqpeer_link_window_bytes", |l: &LinkTelemetry| {
                &l.window_bytes
            }),
            ("sqpeer_link_ttfr_us", |l: &LinkTelemetry| &l.ttfr_us),
        ] {
            let _ = writeln!(out, "# TYPE {name} histogram");
            for ((from, to), l) in &links {
                let h = pick(l);
                let mut cumulative = 0;
                for i in 0..=h.highest_nonempty() {
                    cumulative += h.buckets()[i];
                    let le = match Histogram::bucket_bound(i) {
                        Some(b) => b.to_string(),
                        None => continue,
                    };
                    let _ = writeln!(
                        out,
                        "{name}_bucket{{from=\"{from}\",to=\"{to}\",le=\"{le}\"}} {cumulative}"
                    );
                }
                let _ = writeln!(
                    out,
                    "{name}_bucket{{from=\"{from}\",to=\"{to}\",le=\"+Inf\"}} {}",
                    h.count()
                );
                let _ = writeln!(out, "{name}_sum{{from=\"{from}\",to=\"{to}\"}} {}", h.sum());
                let _ = writeln!(
                    out,
                    "{name}_count{{from=\"{from}\",to=\"{to}\"}} {}",
                    h.count()
                );
            }
        }
        let _ = writeln!(out, "# TYPE sqpeer_node_bytes_in_total counter");
        for (node, l) in self.node_rollup() {
            let _ = writeln!(
                out,
                "sqpeer_node_bytes_in_total{{node=\"{node}\"}} {}",
                l.bytes
            );
        }
        out
    }

    /// Hand-formatted JSON snapshot (machine-readable twin of
    /// [`TelemetryRegistry::render`]).
    pub fn to_json(&self) -> String {
        let hist_json = |h: &Histogram| {
            let buckets: Vec<String> = (0..=h.highest_nonempty())
                .filter(|&i| h.buckets()[i] > 0)
                .map(|i| {
                    let le = Histogram::bucket_bound(i)
                        .map(|b| b.to_string())
                        .unwrap_or_else(|| "\"+Inf\"".into());
                    format!("{{\"le\": {le}, \"count\": {}}}", h.buckets()[i])
                })
                .collect();
            format!(
                "{{\"count\": {}, \"sum\": {}, \"buckets\": [{}]}}",
                h.count(),
                h.sum(),
                buckets.join(", ")
            )
        };
        let links: Vec<String> = self
            .sorted_links()
            .iter()
            .map(|((from, to), l)| {
                format!(
                    "{{\"from\": \"{from}\", \"to\": \"{to}\", \"messages\": {}, \
                     \"bytes\": {}, \"latency_us\": {}, \"size_bytes\": {}, \
                     \"window_bytes\": {}, \"ttfr_us\": {}}}",
                    l.messages,
                    l.bytes,
                    hist_json(&l.latency_us),
                    hist_json(&l.size_bytes),
                    hist_json(&l.window_bytes),
                    hist_json(&l.ttfr_us)
                )
            })
            .collect();
        format!(
            "{{\"window_us\": {}, \"links\": [{}]}}",
            self.window_us,
            links.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(Histogram::bucket_bound(0), Some(0));
        assert_eq!(Histogram::bucket_bound(1), Some(1));
        assert_eq!(Histogram::bucket_bound(2), Some(3));
        assert_eq!(Histogram::bucket_bound(BUCKETS - 1), None);
    }

    #[test]
    fn histogram_records_and_merges() {
        let mut a = Histogram::default();
        a.record(0);
        a.record(5);
        a.record(5);
        let mut b = Histogram::default();
        b.record(1_000_000);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 4);
        assert_eq!(merged.sum(), 1_000_010);
        assert_eq!(merged.mean(), 250_002);
        assert_eq!(a.count() + b.count(), merged.count());
        // Merge is symmetric.
        let mut other_way = b.clone();
        other_way.merge(&a);
        assert_eq!(merged, other_way);
    }

    #[test]
    fn windows_close_on_the_virtual_clock() {
        let mut reg = TelemetryRegistry::new(1_000);
        let (a, b) = (NodeId(0), NodeId(1));
        reg.record_delivery(a, b, 100, 10, 500);
        reg.record_delivery(a, b, 100, 10, 900);
        // Still inside the first window: nothing closed yet.
        assert_eq!(reg.link(a, b).unwrap().window_bytes.count(), 0);
        assert_eq!(reg.link(a, b).unwrap().open_window_bytes(), 200);
        // Jump 5 windows ahead: the 200-byte window closes, then 4 idle
        // windows are accounted in bulk.
        reg.record_delivery(a, b, 50, 10, 5_500);
        let link = reg.link(a, b).unwrap();
        assert_eq!(link.window_bytes.count(), 5);
        assert_eq!(link.window_bytes.sum(), 200);
        assert_eq!(link.open_window_bytes(), 50);
    }

    #[test]
    fn registry_merge_aggregates_links() {
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        let mut x = TelemetryRegistry::new(1_000);
        x.record_delivery(a, b, 10, 5, 100);
        let mut y = TelemetryRegistry::new(1_000);
        y.record_delivery(a, b, 20, 5, 100);
        y.record_delivery(c, b, 30, 5, 100);
        x.merge(&y);
        assert_eq!(x.len(), 2);
        assert_eq!(x.link(a, b).unwrap().bytes, 30);
        assert_eq!(x.link(a, b).unwrap().messages, 2);
        let rollup = x.node_rollup();
        assert_eq!(rollup.len(), 1, "all traffic flows into b");
        assert_eq!(rollup[0].0, b);
        assert_eq!(rollup[0].1.bytes, 60);
    }

    #[test]
    fn render_is_stable_and_prometheus_shaped() {
        let mut reg = TelemetryRegistry::new(1_000);
        reg.record_delivery(NodeId(1), NodeId(0), 64, 20_000, 20_100);
        reg.record_delivery(NodeId(0), NodeId(1), 128, 20_000, 20_200);
        let text = reg.render();
        assert!(text.contains("# TYPE sqpeer_link_messages_total counter"));
        assert!(text.contains("sqpeer_link_bytes_total{from=\"N0\",to=\"N1\"} 128"));
        assert!(text.contains("sqpeer_link_latency_us_bucket{from=\"N0\",to=\"N1\",le=\"+Inf\"} 1"));
        assert!(text.contains("sqpeer_link_latency_us_sum{from=\"N0\",to=\"N1\"} 20000"));
        assert!(text.contains("sqpeer_node_bytes_in_total{node=\"N0\"} 64"));
        // N0→N1 sorts before N1→N0 and renders identically every time.
        assert!(text.find("from=\"N0\"").unwrap() < text.find("from=\"N1\"").unwrap());
        assert_eq!(text, reg.render());
        let json = reg.to_json();
        assert!(json.starts_with("{\"window_us\": 1000"));
        assert!(json.contains("\"latency_us\": {\"count\": 1"));
    }

    /// The raw-parts constructor reassembles exactly what the accessors
    /// expose.
    #[test]
    fn from_parts_roundtrips_exactly() {
        let mut reg = TelemetryRegistry::new(2_000);
        reg.record_delivery(NodeId(3), NodeId(1), 64, 20_000, 20_100);
        let h = &reg.link(NodeId(3), NodeId(1)).unwrap().latency_us;
        let hh = Histogram::from_parts(*h.buckets(), h.sum());
        assert_eq!(*h, hh);
    }
}
