//! The real-clock in-process transport, with the wire codec on the path.
//!
//! [`LoopbackNet`] is the [`Simulator`] driven by a [`RealClock`]: one
//! event queue, one delivery rule, the same down-node rules, metrics,
//! telemetry and fault plan as a virtual-time run, on links of zero delay
//! (the clock is the only delay). Each hosted node sits behind a `Coded`
//! adapter whose message is a wire frame: every send the node asks for is
//! encoded with [`encode_frame`] and every delivery decoded with
//! [`decode_frame`], so a run through this transport exercises the codec
//! for every single hop exactly as a TCP deployment would. A frame that
//! fails to decode is counted and reported to its destination's
//! [`NodeLogic::on_transport_anomaly`], never delivered corrupted.
//!
//! Timers arm at real microsecond offsets. [`LoopbackNet::run_due`]
//! dispatches everything that is due and never sleeps;
//! [`LoopbackNet::next_due_us`] names the earliest deadline still queued.
//! [`Transport::step_for`] is those two with a sleep between them; the
//! `sqpeerd` pump, which has work of its own to interleave, calls them
//! itself and owns the sleep.

use crate::RealClock;
use sqpeer_net::{
    Clock, Ctx, FaultPlan, LinkSpec, Metrics, NodeId, NodeLogic, Simulator, TelemetryRegistry,
    Transport,
};
use sqpeer_wire::{decode_frame, encode_frame, SchemaRegistry, Wire};
use std::sync::Arc;
use std::time::Duration;

/// A hosted node as the simulator sees it: its messages are wire frames.
/// `on_delivery_failure` is not passed on: the loopback schedules no
/// graceful node down, the only event that raises it.
struct Coded<N> {
    node: N,
    schemas: Arc<SchemaRegistry>,
    decode_failures: u64,
}

impl<N: NodeLogic> Coded<N>
where
    N::Msg: Wire,
{
    /// Runs one callback of the inner node on a context of its own
    /// message type, then asks `ctx` for what the node asked for, every
    /// send encoded.
    fn call(&mut self, ctx: &mut Ctx<Vec<u8>>, callback: impl FnOnce(&mut N, &mut Ctx<N::Msg>)) {
        let mut inner = Ctx::detached(ctx.now_us(), ctx.me());
        callback(&mut self.node, &mut inner);
        let effects = inner.into_effects();
        for (to, msg, bytes) in effects.outbox {
            ctx.send(to, encode_frame(&msg), bytes);
        }
        for (delay_us, timer) in effects.timers {
            ctx.set_timer(delay_us, timer);
        }
        for (from, elapsed_us) in effects.stream_ttfr {
            ctx.note_stream_ttfr(from, elapsed_us);
        }
        *ctx.counters() += effects.counters;
    }
}

impl<N: NodeLogic> NodeLogic for Coded<N>
where
    N::Msg: Wire,
{
    type Msg = Vec<u8>;

    fn on_message(&mut self, ctx: &mut Ctx<Vec<u8>>, from: NodeId, frame: Vec<u8>) {
        match decode_frame(&frame, &self.schemas) {
            Ok(msg) => self.call(ctx, |node, ctx| node.on_message(ctx, from, msg)),
            Err(err) => {
                self.decode_failures += 1;
                let detail = format!("frame from node {} failed to decode: {err:?}", from.0);
                self.node.on_transport_anomaly(ctx.now_us(), &detail);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Vec<u8>>, timer: u64) {
        self.call(ctx, |node, ctx| node.on_timer(ctx, timer));
    }

    fn on_start(&mut self, ctx: &mut Ctx<Vec<u8>>) {
        self.call(ctx, |node, ctx| node.on_start(ctx));
    }

    fn on_restart(&mut self, ctx: &mut Ctx<Vec<u8>>) {
        self.call(ctx, |node, ctx| node.on_restart(ctx));
    }
}

/// A real-clock, in-process transport for `NodeLogic` state machines
/// whose messages implement [`Wire`].
pub struct LoopbackNet<N: NodeLogic>
where
    N::Msg: Wire,
{
    clock: RealClock,
    sim: Simulator<Coded<N>>,
    schemas: Arc<SchemaRegistry>,
}

impl<N: NodeLogic> LoopbackNet<N>
where
    N::Msg: Wire,
{
    /// A fresh transport whose clock epoch is now, decoding against
    /// `schemas`.
    pub fn new(schemas: SchemaRegistry) -> Self {
        let instant = LinkSpec {
            latency_us: 0,
            bytes_per_ms: u64::MAX,
        };
        LoopbackNet {
            clock: RealClock::new(),
            sim: Simulator::with_link(instant),
            schemas: Arc::new(schemas),
        }
    }

    /// Turns on per-link telemetry; throughput windows open at the
    /// clock's epoch, this transport's creation.
    pub fn enable_telemetry(&mut self, window_us: u64) {
        self.sim.enable_telemetry(window_us);
    }

    /// Installs a seeded fault plan on every node-sent frame, as
    /// [`Simulator::set_fault_plan`] does on virtual time; jitter and
    /// churn instants are real microseconds.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.sim.set_fault_plan(plan);
    }

    /// Frames that failed to decode on the delivery path (0 in a healthy
    /// run; the codec roundtrip tests make anything else a bug).
    pub fn decode_failures(&self) -> u64 {
        let ids = self.sim.node_ids().into_iter();
        ids.filter_map(|id| self.sim.node(id))
            .map(|c| c.decode_failures)
            .sum()
    }

    /// The registry frames decode against (and compile their queries in).
    pub fn schemas(&self) -> &SchemaRegistry {
        &self.schemas
    }

    /// Ids of every hosted node, sorted (status-page iteration).
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.sim.node_ids()
    }

    /// Dispatches everything due at or before the current real time —
    /// what that sends in turn included, and the nodes' `on_start` the
    /// first time — and returns without sleeping, however near the next
    /// timer is. Returns the number of dispatched occurrences.
    pub fn run_due(&mut self) -> usize {
        self.sim.run_due(&self.clock)
    }

    /// When the earliest queued occurrence falls due, on this
    /// transport's clock; `None` while nothing is queued.
    pub fn next_due_us(&self) -> Option<u64> {
        self.sim.next_due_us()
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
        let schemas = Arc::clone(&self.schemas);
        let coded = Coded {
            node,
            schemas,
            decode_failures: 0,
        };
        self.sim.add_node(id, coded);
    }

    fn inject(&mut self, from: NodeId, to: NodeId, msg: N::Msg, bytes: usize) {
        self.sim.advance_to(self.clock.now_us());
        self.sim.inject(from, to, encode_frame(&msg), bytes);
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
        self.sim.node(id).map(|coded| &coded.node)
    }

    fn node_mut(&mut self, id: NodeId) -> Option<&mut N> {
        self.sim.node_mut(id).map(|coded| &mut coded.node)
    }

    fn metrics(&self) -> &Metrics {
        self.sim.metrics()
    }

    fn telemetry_snapshot(&self) -> Option<TelemetryRegistry> {
        self.sim.telemetry().cloned()
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

    /// Frames due at the same microsecond run in the order they were
    /// injected — the queue's `seq` is the tie-break, and nothing else is.
    #[test]
    fn equal_due_frames_are_delivered_in_queue_order() {
        let mut net: LoopbackNet<Echo> = LoopbackNet::new(SchemaRegistry::new());
        net.add_node(NodeId(1), Echo(Vec::new()));
        // Payloads in no sorted order: ordering by frame bytes would move them.
        for msg in [0u64, 9, 4, 7, 2].map(|m| m * 1_000) {
            net.sim.inject(NodeId(0), NodeId(1), encode_frame(&msg), 8);
        }
        net.run_due();
        let got = &net.node(NodeId(1)).unwrap().0;
        assert_eq!(got[..5], [0, 9_000, 4_000, 7_000, 2_000]);
    }

    /// A frame that does not decode reaches no handler: it is counted and
    /// reported to its destination as a transport anomaly.
    #[test]
    fn undecodable_frame_is_counted_and_reported_to_its_destination() {
        struct Log(Vec<String>);
        impl NodeLogic for Log {
            type Msg = u64;
            fn on_message(&mut self, _ctx: &mut Ctx<u64>, _from: NodeId, msg: u64) {
                self.0.push(msg.to_string());
            }
            fn on_transport_anomaly(&mut self, _now_us: u64, detail: &str) {
                self.0.push(detail.to_string());
            }
        }
        let mut net: LoopbackNet<Log> = LoopbackNet::new(SchemaRegistry::new());
        net.add_node(NodeId(1), Log(Vec::new()));
        net.sim.inject(NodeId(4), NodeId(1), vec![0xff], 1);
        net.run_due();
        assert_eq!(net.decode_failures(), 1);
        let log = &net.node(NodeId(1)).unwrap().0;
        assert_eq!(log.len(), 1, "{log:?}");
        assert!(
            log[0].starts_with("frame from node 4 failed to decode"),
            "{log:?}"
        );
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
