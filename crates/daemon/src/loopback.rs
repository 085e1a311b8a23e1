//! The real-clock in-process transport, with the wire codec on the path.
//!
//! [`LoopbackNet`] hosts the *same* [`NodeLogic`] state machines the
//! virtual-time simulator runs, but against [`RealClock`] — and every
//! message physically becomes bytes: sends are encoded into wire frames
//! at enqueue and decoded back at delivery, so a run through this
//! transport exercises the codec for every single hop exactly as a TCP
//! deployment would. A message that fails to decode is counted and
//! dropped, never delivered corrupted.
//!
//! Delivery is immediate-due (loopback has no propagation delay); timers
//! arm at real microsecond offsets. [`LoopbackNet::run_due`] dispatches
//! everything that is due and never sleeps; [`LoopbackNet::next_due_us`]
//! names the earliest deadline still queued. [`Transport::step_for`] is
//! those two with a sleep between them; the `sqpeerd` pump, which has
//! work of its own to interleave, calls them itself and owns the sleep.

use crate::RealClock;
use sqpeer_net::{Clock, Ctx, Metrics, NodeId, NodeLogic, TelemetryRegistry, Transport};
use sqpeer_wire::{Reader, SchemaRegistry, Wire, WireError, Writer, WIRE_VERSION};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::collections::HashMap;
use std::time::Duration;

/// One queued occurrence: an encoded frame to deliver or a timer to fire.
/// `Ord` only because the queue's tuple needs it: `seq` never repeats,
/// so no comparison reaches the item.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Pending {
    /// An encoded wire frame (version byte + generic envelope), plus the
    /// bandwidth-accounting byte size the sender declared.
    Frame {
        frame: Vec<u8>,
        bytes: usize,
    },
    Timer {
        node: NodeId,
        timer: u64,
    },
}

/// A real-clock, in-process transport for `NodeLogic` state machines
/// whose messages implement [`Wire`].
pub struct LoopbackNet<N: NodeLogic>
where
    N::Msg: Wire,
{
    clock: RealClock,
    nodes: HashMap<NodeId, N>,
    /// Min-heap on `(due_us, seq)`: `seq` counts pushes, so occurrences
    /// due at the same microsecond run in the order they were queued.
    queue: BinaryHeap<Reverse<(u64, u64, Pending)>>,
    seq: u64,
    metrics: Metrics,
    telemetry: Option<TelemetryRegistry>,
    schemas: SchemaRegistry,
    booted: bool,
    decode_failures: u64,
}

/// Encodes the loopback's generic envelope: version byte, from, to,
/// sent-at, then the message's own wire form.
fn encode_envelope<M: Wire>(from: NodeId, to: NodeId, sent_at_us: u64, msg: &M) -> Vec<u8> {
    let mut w = Writer::new();
    w.byte(WIRE_VERSION);
    w.u32v(from.0);
    w.u32v(to.0);
    w.u64v(sent_at_us);
    msg.encode(&mut w);
    w.into_bytes()
}

/// Decodes a loopback envelope back into `(from, to, sent_at, msg)`.
fn decode_envelope<M: Wire>(
    frame: &[u8],
    schemas: &SchemaRegistry,
) -> Result<(NodeId, NodeId, u64, M), WireError> {
    let mut r = Reader::new(frame, schemas);
    let version = r.byte()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion {
            got: version,
            want: WIRE_VERSION,
        });
    }
    let from = NodeId(r.u32v()?);
    let to = NodeId(r.u32v()?);
    let sent_at = r.u64v()?;
    let msg = M::decode(&mut r)?;
    r.expect_end()?;
    Ok((from, to, sent_at, msg))
}

impl<N: NodeLogic> LoopbackNet<N>
where
    N::Msg: Wire,
{
    /// A fresh transport whose clock epoch is now, decoding against
    /// `schemas`.
    pub fn new(schemas: SchemaRegistry) -> Self {
        LoopbackNet {
            clock: RealClock::new(),
            nodes: HashMap::new(),
            queue: BinaryHeap::new(),
            seq: 0,
            metrics: Metrics::default(),
            telemetry: None,
            schemas,
            booted: false,
            decode_failures: 0,
        }
    }

    /// Turns on per-link telemetry, anchored at the current real time so
    /// throughput windows start now rather than at the process epoch.
    pub fn enable_telemetry(&mut self, window_us: u64) {
        self.telemetry = Some(TelemetryRegistry::anchored(window_us, self.clock.now_us()));
    }

    /// Frames that failed to decode on the delivery path (0 in a healthy
    /// run; the codec roundtrip tests make anything else a bug).
    pub fn decode_failures(&self) -> u64 {
        self.decode_failures
    }

    /// Ids of every hosted node, sorted (status-page iteration).
    pub fn node_ids(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.nodes.keys().copied().collect();
        ids.sort();
        ids
    }

    /// The schema registry inbound frames resolve against.
    pub fn schemas(&self) -> &SchemaRegistry {
        &self.schemas
    }

    fn push(&mut self, due_us: u64, item: Pending) {
        self.queue.push(Reverse((due_us, self.seq, item)));
        self.seq += 1;
    }

    fn boot(&mut self) {
        if self.booted {
            return;
        }
        self.booted = true;
        let now = self.clock.now_us();
        for id in self.node_ids() {
            let mut ctx = Ctx::detached(now, id);
            if let Some(node) = self.nodes.get_mut(&id) {
                node.on_start(&mut ctx);
            }
            self.flush(id, ctx);
        }
    }

    fn flush(&mut self, node: NodeId, ctx: Ctx<N::Msg>) {
        let now = self.clock.now_us();
        let effects = ctx.into_effects();
        if let Some(telemetry) = &mut self.telemetry {
            for (from, elapsed) in effects.stream_ttfr {
                telemetry.record_ttfr(from, node, elapsed);
            }
        }
        for (to, msg, bytes) in effects.outbox {
            self.metrics.record_send(node, to, bytes);
            let frame = encode_envelope(node, to, now, &msg);
            self.push(now, Pending::Frame { frame, bytes });
        }
        for (delay, timer) in effects.timers {
            self.push(now + delay, Pending::Timer { node, timer });
        }
        self.metrics.absorb(effects.counters);
    }

    fn dispatch_frame(&mut self, frame: Vec<u8>, bytes: usize) {
        let now = self.clock.now_us();
        match decode_envelope::<N::Msg>(&frame, &self.schemas) {
            Ok((from, to, sent_at, msg)) => {
                if !self.nodes.contains_key(&to) {
                    self.metrics.record_drop(to);
                    return;
                }
                self.metrics.record_delivery(from, to, bytes);
                if let Some(telemetry) = &mut self.telemetry {
                    telemetry.record_delivery(from, to, bytes, now.saturating_sub(sent_at), now);
                }
                let mut ctx = Ctx::detached(now, to);
                if let Some(node) = self.nodes.get_mut(&to) {
                    node.on_message(&mut ctx, from, msg);
                }
                self.flush(to, ctx);
            }
            Err(err) => {
                self.decode_failures += 1;
                // Attribute the anomaly to the destination when the
                // envelope header is still readable (the usual case:
                // the body, not the header, got corrupted), so its
                // flight recorder logs the event.
                let mut r = Reader::new(&frame, &self.schemas);
                if let (Ok(_), Ok(from), Ok(to), Ok(_)) = (r.byte(), r.u32v(), r.u32v(), r.u64v()) {
                    if let Some(node) = self.nodes.get_mut(&NodeId(to)) {
                        node.on_transport_anomaly(
                            now,
                            &format!("frame from node {from} failed to decode: {err:?}"),
                        );
                    }
                }
            }
        }
    }

    fn dispatch_timer(&mut self, node: NodeId, timer: u64) {
        let now = self.clock.now_us();
        let mut ctx = Ctx::detached(now, node);
        if let Some(n) = self.nodes.get_mut(&node) {
            n.on_timer(&mut ctx, timer);
        }
        self.flush(node, ctx);
    }

    /// Takes the queue's head if the real clock has reached its deadline.
    fn pop_due(&mut self) -> Option<Pending> {
        let head = self.queue.peek_mut()?;
        let Reverse((due_us, ..)) = *head;
        (due_us <= self.clock.now_us()).then(|| PeekMut::pop(head).0 .2)
    }

    /// Dispatches everything due at or before the current real time —
    /// what that sends in turn included, and the nodes' `on_start` the
    /// first time — and returns without sleeping, however near the next
    /// timer is. Returns the number of dispatched occurrences.
    pub fn run_due(&mut self) -> usize {
        // Budget against self-sustaining message storms, mirroring the
        // simulator's guard.
        const BUDGET: usize = 1_000_000;
        self.boot();
        let mut processed = 0;
        while let Some(item) = self.pop_due() {
            processed += 1;
            match item {
                Pending::Frame { frame, bytes } => self.dispatch_frame(frame, bytes),
                Pending::Timer { node, timer } => self.dispatch_timer(node, timer),
            }
            assert!(processed < BUDGET, "loopback event storm");
        }
        processed
    }

    /// When the earliest queued occurrence falls due, on this
    /// transport's clock; `None` while nothing is queued.
    pub fn next_due_us(&self) -> Option<u64> {
        self.queue.peek().map(|Reverse((due, ..))| *due)
    }
}

impl<N: NodeLogic> Transport<N> for LoopbackNet<N>
where
    N::Msg: Wire,
{
    fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    fn add_node(&mut self, id: NodeId, node: N) {
        self.nodes.insert(id, node);
    }

    fn inject(&mut self, from: NodeId, to: NodeId, msg: N::Msg, bytes: usize) {
        let now = self.clock.now_us();
        let frame = encode_envelope(from, to, now, &msg);
        self.push(now, Pending::Frame { frame, bytes });
    }

    fn step_for(&mut self, us: u64) -> usize {
        let deadline = self.clock.now_us().saturating_add(us);
        let mut processed = self.run_due();
        loop {
            let now = self.clock.now_us();
            if now >= deadline {
                return processed;
            }
            // Sleep until the next due item or the deadline, whichever
            // is sooner, in bounded slices so new work is noticed.
            let wait = self.next_due_us().unwrap_or(deadline).clamp(now, deadline) - now;
            std::thread::sleep(Duration::from_micros(wait.clamp(50, 1_000)));
            processed += self.run_due();
        }
    }

    fn node(&self, id: NodeId) -> Option<&N> {
        self.nodes.get(&id)
    }

    fn node_mut(&mut self, id: NodeId) -> Option<&mut N> {
        self.nodes.get_mut(&id)
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn telemetry_snapshot(&self) -> Option<TelemetryRegistry> {
        self.telemetry.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo(Vec<u64>);
    impl NodeLogic for Echo {
        type Msg = u64;
        fn on_message(&mut self, ctx: &mut Ctx<u64>, from: NodeId, msg: u64) {
            self.0.push(msg);
            if msg > 0 {
                ctx.send(from, msg - 1, 64);
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<u64>, timer: u64) {
            self.0.push(1000 + timer);
        }
        fn on_start(&mut self, ctx: &mut Ctx<u64>) {
            ctx.set_timer(5_000, 7);
        }
    }

    #[test]
    fn loopback_delivers_through_encoded_frames() {
        let mut net: LoopbackNet<Echo> = LoopbackNet::new(SchemaRegistry::new());
        net.enable_telemetry(1_000_000);
        net.add_node(NodeId(0), Echo(Vec::new()));
        net.add_node(NodeId(1), Echo(Vec::new()));
        net.inject(NodeId(0), NodeId(1), 3, 64);
        net.step_for(30_000); // 30 ms real time: covers the exchange + timers
        assert_eq!(net.decode_failures(), 0);
        let n1 = &net.node(NodeId(1)).unwrap().0;
        assert!(n1.contains(&3) && n1.contains(&1), "got {n1:?}");
        assert!(n1.contains(&1007), "on_start timer did not fire: {n1:?}");
        let n0 = &net.node(NodeId(0)).unwrap().0;
        assert!(n0.contains(&2) && n0.contains(&0), "got {n0:?}");
        assert_eq!(net.metrics().total_messages(), 4);
        let telemetry = net.telemetry_snapshot().unwrap();
        assert!(!telemetry.is_empty());
    }

    /// `run_due` is the drain without the sleep: it boots the nodes and
    /// carries the exchange an injected message sets off to its end, but
    /// leaves a timer that is not due yet in the queue, where
    /// `next_due_us` names its deadline.
    #[test]
    fn run_due_runs_the_exchange_and_leaves_the_timer_armed() {
        let mut net: LoopbackNet<Echo> = LoopbackNet::new(SchemaRegistry::new());
        net.add_node(NodeId(0), Echo(Vec::new()));
        net.add_node(NodeId(1), Echo(Vec::new()));
        assert_eq!(net.next_due_us(), None, "nothing queued before boot");
        net.inject(NodeId(0), NodeId(1), 3, 64);
        let before = net.now_us();
        assert_eq!(net.run_due(), 4, "3, 2, 1, 0: the whole ping-pong");
        assert_eq!(net.node(NodeId(1)).unwrap().0, [3, 1]);
        assert_eq!(net.node(NodeId(0)).unwrap().0, [2, 0]);
        let due = net.next_due_us().expect("both on_start timers are queued");
        assert!(
            (before + 5_000..=net.now_us() + 5_000).contains(&due),
            "the head is not the 5 ms timer: {due}"
        );
        assert_eq!(net.run_due(), 0, "nothing else is due");
    }

    /// Occurrences due at the same microsecond run in the order they
    /// were queued — `seq` is the tie-break, and nothing else is.
    #[test]
    fn equal_due_frames_are_delivered_in_queue_order() {
        let mut net: LoopbackNet<Echo> = LoopbackNet::new(SchemaRegistry::new());
        net.add_node(NodeId(1), Echo(Vec::new()));
        // Payloads in no sorted order: ordering by frame bytes would move them.
        for msg in [0u64, 9, 4, 7, 2].map(|m| m * 1_000) {
            let frame = encode_envelope(NodeId(0), NodeId(1), 0, &msg);
            net.push(0, Pending::Frame { frame, bytes: 8 });
        }
        net.run_due();
        let got = &net.node(NodeId(1)).unwrap().0;
        assert_eq!(got[..5], [0, 9_000, 4_000, 7_000, 2_000]);
    }

    #[test]
    fn messages_to_unknown_nodes_are_counted_drops() {
        let mut net: LoopbackNet<Echo> = LoopbackNet::new(SchemaRegistry::new());
        net.add_node(NodeId(0), Echo(Vec::new()));
        net.inject(NodeId(0), NodeId(9), 1, 16);
        net.step_for(5_000);
        assert_eq!(net.metrics().dropped(), 1);
        assert_eq!(net.metrics().total_messages(), 0);
    }

    /// What a node notes in `Ctx::counters` reaches this transport's
    /// metrics — each counter its own accessor.
    #[test]
    fn counters_noted_by_a_node_reach_metrics() {
        struct Replanner;
        impl NodeLogic for Replanner {
            type Msg = u64;
            fn on_message(&mut self, ctx: &mut Ctx<u64>, _from: NodeId, msg: u64) {
                let counters = ctx.counters();
                counters.replans += 1;
                if msg == 0 {
                    counters.slow_channel_replans += 1;
                } else {
                    counters.timeout_replans += 1;
                }
            }
        }
        let mut net: LoopbackNet<Replanner> = LoopbackNet::new(SchemaRegistry::new());
        net.add_node(NodeId(0), Replanner);
        net.inject(NodeId(1), NodeId(0), 0, 8);
        net.inject(NodeId(1), NodeId(0), 1, 8);
        net.inject(NodeId(1), NodeId(0), 1, 8);
        net.step_for(5_000);
        let m = net.metrics();
        assert_eq!(m.replans(), 3);
        assert_eq!(m.slow_channel_replans(), 1);
        assert_eq!(m.timeout_replans(), 2);
        assert_eq!(
            m.retries_sent() + m.timeouts_fired() + m.stream_dedup_drops(),
            0
        );
    }
}
