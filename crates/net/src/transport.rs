//! The transport abstraction: one `NodeLogic` code path, many substrates.
//!
//! The simulator (`sim.rs`) runs peer state machines over *virtual* time;
//! `sqpeer-daemon`'s loopback runs the very same simulator on a real
//! clock ([`Simulator::run_due`]), with the wire codec on every hop.
//! [`Transport`] is what a driver needs to host nodes, inject messages,
//! advance the clock and observe the run, whichever clock it is.
//!
//! Two rules keep the seam honest:
//!
//! * **Nodes never see the substrate.** A [`NodeLogic`] only talks to
//!   [`Ctx`](crate::sim::Ctx); whether `Ctx::send` becomes an event on
//!   virtual time or a wire frame on a real clock is the transport's
//!   business.
//! * **Clocks are epoch-relative microseconds.** [`Clock::now_us`] counts
//!   µs since the transport started (virtual runs start at 0). Telemetry
//!   and metrics consume these values directly, so a
//!   [`TelemetryRegistry`]'s throughput windows open at 0 whether a
//!   microsecond is simulated or real.

use crate::metrics::Metrics;
use crate::sim::{NodeId, NodeLogic, Simulator};
use crate::telemetry::TelemetryRegistry;

/// A monotonic clock in microseconds since the transport's epoch.
///
/// The simulator's own clock is its virtual time; [`Simulator::run_due`]
/// follows a real one, which measures `Instant`-elapsed time since the
/// transport was created. Keeping both epoch-relative
/// means timestamps fed to [`TelemetryRegistry`] have the same magnitude
/// in either world, so histogram bucket math and throughput windows need
/// no per-substrate cases.
pub trait Clock {
    /// Microseconds elapsed since the epoch of this clock.
    fn now_us(&self) -> u64;
}

/// The substrate a set of [`NodeLogic`] state machines runs on.
///
/// Implemented by the virtual-time [`Simulator`] and by the real-clock
/// transports in `sqpeer-daemon`; the simulator≡loopback equivalence test
/// pins that a workload driven through this trait produces identical
/// answers on both.
pub trait Transport<N: NodeLogic> {
    /// Current transport time, µs since the transport epoch.
    fn now_us(&self) -> u64;

    /// Hosts `node` under `id`. Must be called before the first
    /// [`Transport::step_for`].
    fn add_node(&mut self, id: NodeId, node: N);

    /// Injects a message from the outside world (a driver or client),
    /// delivered to `to` as if sent by `from`.
    fn inject(&mut self, from: NodeId, to: NodeId, msg: N::Msg, bytes: usize);

    /// Drives the transport for `us` microseconds of *its* clock —
    /// virtual transports consume events up to `now + us`; real
    /// transports pump sockets and timers until the wall clock has
    /// advanced that far. Returns the number of events dispatched.
    fn step_for(&mut self, us: u64) -> usize;

    /// Immutable access to a hosted node, for inspection between steps.
    fn node(&self, id: NodeId) -> Option<&N>;

    /// Mutable access to a hosted node.
    fn node_mut(&mut self, id: NodeId) -> Option<&mut N>;

    /// Counters accumulated so far.
    fn metrics(&self) -> &Metrics;

    /// A snapshot of per-link telemetry, when collection is enabled.
    fn telemetry_snapshot(&self) -> Option<TelemetryRegistry>;
}

impl<N: NodeLogic> Transport<N> for Simulator<N> {
    fn now_us(&self) -> u64 {
        Simulator::now_us(self)
    }

    fn add_node(&mut self, id: NodeId, node: N) {
        Simulator::add_node(self, id, node);
    }

    fn inject(&mut self, from: NodeId, to: NodeId, msg: N::Msg, bytes: usize) {
        Simulator::inject(self, from, to, msg, bytes);
    }

    fn step_for(&mut self, us: u64) -> usize {
        let until = Simulator::now_us(self).saturating_add(us);
        self.run_until(until)
    }

    fn node(&self, id: NodeId) -> Option<&N> {
        Simulator::node(self, id)
    }

    fn node_mut(&mut self, id: NodeId) -> Option<&mut N> {
        Simulator::node_mut(self, id)
    }

    fn metrics(&self) -> &Metrics {
        Simulator::metrics(self)
    }

    fn telemetry_snapshot(&self) -> Option<TelemetryRegistry> {
        self.telemetry().cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Ctx;

    struct Echo(Vec<u32>);
    impl NodeLogic for Echo {
        type Msg = u32;
        fn on_message(&mut self, ctx: &mut Ctx<u32>, from: NodeId, msg: u32) {
            self.0.push(msg);
            if msg > 0 {
                ctx.send(from, msg - 1, 64);
            }
        }
    }

    /// The equivalence harness drives transports through the trait only;
    /// this pins that the simulator behaves identically through it.
    #[test]
    fn simulator_through_transport_trait() {
        let mut sim: Simulator<Echo> = Simulator::default();
        let t: &mut dyn Transport<Echo> = &mut sim;
        t.add_node(NodeId(0), Echo(Vec::new()));
        t.add_node(NodeId(1), Echo(Vec::new()));
        t.inject(NodeId(0), NodeId(1), 3, 64);
        // 4 deliveries at ~20 ms each: one second covers the exchange.
        t.step_for(1_000_000);
        assert_eq!(t.node(NodeId(1)).unwrap().0, vec![3, 1]);
        assert_eq!(t.node(NodeId(0)).unwrap().0, vec![2, 0]);
        assert_eq!(t.metrics().total_messages(), 4);
        assert!(t.now_us() >= 80_000);
        assert!(t.telemetry_snapshot().is_none());
    }
}
