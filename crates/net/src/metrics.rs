//! Message and byte accounting for simulation runs.
//!
//! Experiments E5–E10 report these counters: queries processed per peer,
//! total messages, bytes moved, and drops caused by failures.

use crate::sim::{IdMap, NodeId};

/// Per-node counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeMetrics {
    /// Messages this node sent.
    pub messages_sent: usize,
    /// Messages delivered to this node.
    pub messages_received: usize,
    /// Bytes this node sent.
    pub bytes_sent: usize,
    /// Bytes delivered to this node.
    pub bytes_received: usize,
    /// Deliveries addressed to this node that were dropped (node or link
    /// down) — locates *where* churn loses traffic, not just how much.
    pub dropped: usize,
    /// Deliveries addressed to this node dropped *silently* by the fault
    /// plan — no delivery-failure notification fired for these.
    pub silent_dropped: usize,
    /// Fault-plan duplicates delivered to this node (beyond the
    /// original).
    pub duplicates_received: usize,
}

/// Global and per-node simulation metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    per_node: IdMap<NodeId, NodeMetrics>,
    deliveries: usize,
    delivered_bytes: usize,
    dropped: usize,
    silent_drops: usize,
    duplicates_delivered: usize,
    counters: Counters,
}

/// The protocol counters nodes report through
/// [`Ctx::counters`](crate::Ctx::counters): each callback's bumps travel
/// in its [`Effects`](crate::Effects) and the transport adds them to its
/// [`Metrics`] with [`Metrics::absorb`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Subplan retries sent (at-least-once dispatch).
    pub retries_sent: usize,
    /// Subplan timeouts fired.
    pub timeouts_fired: usize,
    /// Query re-plans (all causes).
    pub replans: usize,
    /// Re-plans triggered by the telemetry slow-channel detector — a
    /// degraded-but-alive link caught by windowed throughput before its
    /// timeout fired (§2.5). Counted *in addition to* `replans`.
    pub slow_channel_replans: usize,
    /// Re-plans triggered by a subplan timeout. Counted *in addition to*
    /// `replans`.
    pub timeout_replans: usize,
    /// Stream `Data` packets discarded by seq-dedup before reassembly — a
    /// duplicated or stale sequence number. The at-least-once dispatch
    /// and fault-plan duplication both legitimately produce these;
    /// counting them makes the "duplicates never reach the answer"
    /// invariant observable in every chaos run.
    pub stream_dedup_drops: usize,
}

impl std::ops::AddAssign for Counters {
    fn add_assign(&mut self, c: Counters) {
        self.retries_sent += c.retries_sent;
        self.timeouts_fired += c.timeouts_fired;
        self.replans += c.replans;
        self.slow_channel_replans += c.slow_channel_replans;
        self.timeout_replans += c.timeout_replans;
        self.stream_dedup_drops += c.stream_dedup_drops;
    }
}

impl Metrics {
    /// Records a successful delivery of `bytes` to `to`.
    pub fn record_delivery(&mut self, to: NodeId, bytes: usize) {
        self.deliveries += 1;
        self.delivered_bytes += bytes;
        let m = self.per_node.entry(to).or_default();
        m.messages_received += 1;
        m.bytes_received += bytes;
    }

    /// Records a send by `from` (whether or not it is later delivered).
    pub fn record_send(&mut self, from: NodeId, bytes: usize) {
        let m = self.per_node.entry(from).or_default();
        m.messages_sent += 1;
        m.bytes_sent += bytes;
    }

    /// Records a delivery to `to` dropped by a down destination or link.
    pub fn record_drop(&mut self, to: NodeId) {
        self.dropped += 1;
        self.per_node.entry(to).or_default().dropped += 1;
    }

    /// Records a fault-plan silent drop of a message addressed to `to` —
    /// no failure notification fired.
    pub fn record_silent_drop(&mut self, to: NodeId) {
        self.silent_drops += 1;
        self.per_node.entry(to).or_default().silent_dropped += 1;
    }

    /// Records delivery of a fault-plan duplicate to `to`.
    pub fn record_duplicate(&mut self, to: NodeId) {
        self.duplicates_delivered += 1;
        self.per_node.entry(to).or_default().duplicates_received += 1;
    }

    /// Adds the protocol counters one callback reported.
    pub fn absorb(&mut self, counters: Counters) {
        self.counters += counters;
    }

    /// Counters of one node.
    pub fn node(&self, id: NodeId) -> NodeMetrics {
        self.per_node.get(&id).copied().unwrap_or_default()
    }

    /// Total delivered messages.
    pub fn total_messages(&self) -> usize {
        self.deliveries
    }

    /// Total delivered bytes.
    pub fn total_bytes(&self) -> usize {
        self.delivered_bytes
    }

    /// Deliveries dropped by failures.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Messages the fault plan dropped silently (no notification).
    pub fn silent_drops(&self) -> usize {
        self.silent_drops
    }

    /// Fault-plan duplicates actually delivered.
    pub fn duplicates_delivered(&self) -> usize {
        self.duplicates_delivered
    }

    /// Subplan retries nodes reported sending.
    pub fn retries_sent(&self) -> usize {
        self.counters.retries_sent
    }

    /// Subplan timeouts nodes reported firing.
    pub fn timeouts_fired(&self) -> usize {
        self.counters.timeouts_fired
    }

    /// Query re-plans nodes reported.
    pub fn replans(&self) -> usize {
        self.counters.replans
    }

    /// Re-plans attributed to the telemetry slow-channel detector.
    pub fn slow_channel_replans(&self) -> usize {
        self.counters.slow_channel_replans
    }

    /// Re-plans attributed to a subplan timeout.
    pub fn timeout_replans(&self) -> usize {
        self.counters.timeout_replans
    }

    /// Stream packets discarded by seq-dedup before reassembly. Every
    /// duplicated or retried `Data` packet that reaches a consumer must
    /// land here rather than in the answer — the live counterpart of the
    /// model checker's dedup invariant.
    pub fn stream_dedup_drops(&self) -> usize {
        self.counters.stream_dedup_drops
    }

    /// Maximum messages received by any single node — the hot-spot measure
    /// behind "the load of queries processed by each peer is smaller"
    /// (§2.2).
    pub fn max_received(&self) -> usize {
        self.per_node
            .values()
            .map(|m| m.messages_received)
            .max()
            .unwrap_or(0)
    }

    /// Resets all counters (between experiment phases).
    pub fn reset(&mut self) {
        *self = Metrics::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::default();
        m.record_send(NodeId(1), 10);
        m.record_delivery(NodeId(2), 10);
        m.record_delivery(NodeId(1), 5);
        m.record_drop(NodeId(2));
        m.record_drop(NodeId(2));
        m.record_drop(NodeId(1));
        assert_eq!(m.total_messages(), 2);
        assert_eq!(m.total_bytes(), 15);
        assert_eq!(m.dropped(), 3);
        assert_eq!(m.node(NodeId(2)).dropped, 2);
        assert_eq!(m.node(NodeId(1)).dropped, 1);
        assert_eq!(m.node(NodeId(2)).messages_received, 1);
        assert_eq!(m.node(NodeId(2)).bytes_received, 10);
        assert_eq!(m.node(NodeId(1)).messages_sent, 1);
        assert_eq!(m.node(NodeId(9)), NodeMetrics::default());
        assert_eq!(m.max_received(), 1);
        m.reset();
        assert_eq!(m.total_messages(), 0);
    }

    #[test]
    fn chaos_counters_accumulate() {
        let mut m = Metrics::default();
        m.record_silent_drop(NodeId(4));
        m.record_silent_drop(NodeId(4));
        m.record_duplicate(NodeId(5));
        m.absorb(Counters {
            retries_sent: 1,
            timeouts_fired: 2,
            replans: 1,
            stream_dedup_drops: 3,
            ..Counters::default()
        });
        assert_eq!(m.silent_drops(), 2);
        assert_eq!(m.node(NodeId(4)).silent_dropped, 2);
        // Silent drops are accounted separately from notified drops.
        assert_eq!(m.dropped(), 0);
        assert_eq!(m.duplicates_delivered(), 1);
        assert_eq!(m.node(NodeId(5)).duplicates_received, 1);
        assert_eq!(m.retries_sent(), 1);
        assert_eq!(m.timeouts_fired(), 2);
        assert_eq!(m.replans(), 1);
        assert_eq!(m.stream_dedup_drops(), 3);
        m.reset();
        assert_eq!(m, Metrics::default());
    }

    #[test]
    fn replan_causes_and_delta_attribution() {
        let mut m = Metrics::default();
        m.record_delivery(NodeId(1), 100);
        // Two replans: one caught by telemetry, one by its timeout.
        m.absorb(Counters {
            replans: 1,
            slow_channel_replans: 1,
            ..Counters::default()
        });
        m.absorb(Counters {
            replans: 1,
            timeout_replans: 1,
            ..Counters::default()
        });
        m.record_delivery(NodeId(1), 50);
        assert_eq!(m.replans(), 2);
        assert_eq!(m.slow_channel_replans(), 1);
        assert_eq!(m.timeout_replans(), 1);
        assert_eq!(m.total_messages(), 2);
        assert_eq!(m.total_bytes(), 150);
        assert_eq!(m.retries_sent() + m.timeouts_fired() + m.dropped(), 0);
    }

    /// The `Ctx` seam, no simulator: each counter a node bumps once
    /// arrives, through the callback's `Effects`, at exactly its own
    /// `Metrics` accessor.
    #[test]
    fn each_noted_counter_moves_only_its_own_accessor() {
        type Bump = fn(&mut Counters);
        let bumps: [Bump; 6] = [
            |c| c.retries_sent += 1,
            |c| c.timeouts_fired += 1,
            |c| c.replans += 1,
            |c| c.slow_channel_replans += 1,
            |c| c.timeout_replans += 1,
            |c| c.stream_dedup_drops += 1,
        ];
        let read = |m: &Metrics| {
            [
                m.retries_sent(),
                m.timeouts_fired(),
                m.replans(),
                m.slow_channel_replans(),
                m.timeout_replans(),
                m.stream_dedup_drops(),
            ]
        };
        let mut m = Metrics::default();
        for (i, bump) in bumps.iter().enumerate() {
            let before = read(&m);
            let mut ctx: crate::Ctx<()> = crate::Ctx::detached(0, NodeId(1));
            bump(ctx.counters());
            let effects = ctx.into_effects();
            assert!(effects.outbox.is_empty() && effects.timers.is_empty());
            m.absorb(effects.counters);
            let mut want = before;
            want[i] += 1;
            assert_eq!(read(&m), want, "counter {i}");
        }
        assert_eq!(read(&m), [1; 6]);
        assert_eq!(m.total_messages() + m.dropped() + m.silent_drops(), 0);
    }
}
