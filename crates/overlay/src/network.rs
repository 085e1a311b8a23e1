//! The one driver of a running SON, whichever architecture built it.

use sqpeer_exec::{inject, node_of, BaseKind, Msg, PeerConfig, PeerNode, QueryId, QueryOutcome};
use sqpeer_net::Simulator;
use sqpeer_rdfs::Schema;
use sqpeer_routing::{PeerId, Topology};
use sqpeer_rql::{compile, QueryPattern, RqlError};
use sqpeer_store::DescriptionBase;
use std::sync::Arc;

/// The bounded run window a configuration demands, or `None` when runs
/// can go to quiescence. Lease heartbeats re-arm forever, so leases
/// force a two-lease window; likewise the observability plane's rollup
/// pushes never quiesce, so an obs-on config gets four push periods.
fn run_window(config: &PeerConfig) -> Option<u64> {
    config.ad_lease_us.map(|l| 2 * l).or_else(|| {
        config
            .obs
            .and_then(|o| (o.push_period_us > 0).then_some(4 * o.push_period_us))
    })
}

/// A running SON on the simulator: the peers a builder spawned, a client
/// node past them, and the driver experiments and tests pose queries
/// through. [`HybridNetwork`](crate::HybridNetwork) and
/// [`AdhocNetwork`](crate::AdhocNetwork) are names for this type.
pub struct Network {
    sim: Simulator<PeerNode>,
    schema: Arc<Schema>,
    /// Empty in an ad-hoc SON.
    super_ids: Vec<PeerId>,
    peer_ids: Vec<PeerId>,
    client: PeerId,
    next_qid: u64,
    /// Bounded run window (None = run to quiescence). Set when the
    /// configuration arms periodic timers that re-arm forever — lease
    /// heartbeats, observability rollup pushes — so [`Network::run`]
    /// advances windows instead of hanging.
    run_window_us: Option<u64>,
    /// The physical links of an ad-hoc SON (no entries in a hybrid one).
    pub(crate) topology: Topology,
}

impl Network {
    /// Wraps the nodes a builder added to `sim`: super-peers (none in an
    /// ad-hoc SON), then simple peers, then the client.
    pub(crate) fn new(
        sim: Simulator<PeerNode>,
        schema: Arc<Schema>,
        config: &PeerConfig,
        super_ids: Vec<PeerId>,
        peer_ids: Vec<PeerId>,
        client: PeerId,
        topology: Topology,
    ) -> Self {
        Network {
            sim,
            schema,
            super_ids,
            peer_ids,
            client,
            next_qid: 0,
            run_window_us: run_window(config),
            topology,
        }
    }

    /// The community schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The super-peer ids (none in an ad-hoc SON).
    pub fn super_peers(&self) -> &[PeerId] {
        &self.super_ids
    }

    /// The simple-peer ids, in creation order.
    pub fn peers(&self) -> &[PeerId] {
        &self.peer_ids
    }

    /// The client-peer id.
    pub fn client(&self) -> PeerId {
        self.client
    }

    /// The underlying simulator.
    pub fn sim(&self) -> &Simulator<PeerNode> {
        &self.sim
    }

    /// Mutable simulator access (links, failure injection, metrics reset).
    pub fn sim_mut(&mut self) -> &mut Simulator<PeerNode> {
        &mut self.sim
    }

    /// Compiles an RQL text against the community schema.
    pub fn compile(&self, rql: &str) -> Result<QueryPattern, RqlError> {
        compile(rql, &self.schema)
    }

    /// Injects `msg` from the client-peer at peer `at`, under a fresh
    /// query id.
    fn pose(&mut self, at: PeerId, msg: impl FnOnce(QueryId) -> Msg) -> QueryId {
        let qid = QueryId(self.next_qid);
        self.next_qid += 1;
        inject(&mut self.sim, self.client, at, msg(qid));
        qid
    }

    /// Injects `query` from the client-peer at peer `at`. Call
    /// [`Network::run`] to process it.
    pub fn query(&mut self, at: PeerId, query: QueryPattern) -> QueryId {
        self.pose(at, |qid| Msg::ClientQuery { qid, query })
    }

    /// Injects a pre-built plan for execution at peer `at` (experiment
    /// harness entry — bypasses routing and optimisation).
    pub fn execute_plan(
        &mut self,
        at: PeerId,
        query: QueryPattern,
        plan: sqpeer_plan::PlanNode,
    ) -> QueryId {
        self.pose(at, |qid| Msg::ExecutePlan { qid, query, plan })
    }

    /// Runs the network: to quiescence when no periodic timers are
    /// armed, or by the configured bounded window otherwise (lease
    /// heartbeats and obs rollup pushes re-arm forever).
    pub fn run(&mut self) {
        match self.run_window_us {
            None => {
                self.sim.run_to_quiescence();
            }
            Some(window) => {
                self.run_for(window);
            }
        }
    }

    /// Advances the network by `us` of virtual time, processing every
    /// event in the window (later events stay queued).
    pub fn run_for(&mut self, us: u64) {
        let until = self.sim.now_us() + us;
        self.sim.run_until(until);
    }

    /// The outcome of `qid` at its root peer `at`.
    pub fn outcome(&self, at: PeerId, qid: QueryId) -> Option<&QueryOutcome> {
        self.sim.node(node_of(at)).and_then(|n| n.outcome(qid))
    }

    /// The routing/plan cache counters of peer `at` (None if the peer is
    /// down or caching is disabled).
    pub fn cache_stats(&self, at: PeerId) -> Option<sqpeer_exec::CacheStats> {
        self.sim.node(node_of(at)).and_then(|n| n.cache_stats())
    }

    /// The post-run profile of `qid` at its root peer `at` (tracing on).
    pub fn profile(&self, at: PeerId, qid: QueryId) -> Option<sqpeer_exec::QueryProfile> {
        self.sim.node(node_of(at)).and_then(|n| n.profile(qid))
    }

    /// The EXPLAIN rendering of `qid` at its root peer `at` (tracing on).
    pub fn explain(&self, at: PeerId, qid: QueryId) -> Option<sqpeer_exec::Explain> {
        self.sim.node(node_of(at)).and_then(|n| n.explain(qid))
    }

    /// All span/trace events peer `at` recorded (empty when tracing off).
    pub fn trace_events(&self, at: PeerId) -> Vec<sqpeer_exec::TraceEvent> {
        self.sim
            .node(node_of(at))
            .map(|n| n.trace_events())
            .unwrap_or_default()
    }

    /// Turns on per-link telemetry (latency/size histograms, windowed
    /// throughput) with the given observation window. Off by default —
    /// disabled networks pay nothing.
    pub fn enable_telemetry(&mut self, window_us: u64) {
        self.sim.enable_telemetry(window_us);
    }

    /// A point-in-time copy of the overlay's telemetry registry, ready
    /// for [`render`](sqpeer_net::TelemetryRegistry::render) /
    /// [`to_json`](sqpeer_net::TelemetryRegistry::to_json) or off-line
    /// merging. `None` unless [`enable_telemetry`] was called.
    ///
    /// [`enable_telemetry`]: Network::enable_telemetry
    pub fn telemetry_snapshot(&self) -> Option<sqpeer_net::TelemetryRegistry> {
        self.sim.telemetry().cloned()
    }

    /// The observability snapshot peer `at` can serve — its own rollup
    /// rows folded with every row pushed to it. At a cluster head this
    /// is the fold of every member's own rows to within one push period.
    /// `None` when the plane is off or the peer is down.
    pub fn obs_snapshot(&self, at: PeerId) -> Option<sqpeer_exec::Rollup> {
        self.sim.node(node_of(at)).and_then(|n| n.obs_snapshot())
    }

    /// Peer `at`'s flight-recorder dump (empty when the plane is off or
    /// the peer is down).
    pub fn flight_dump(&self, at: PeerId) -> String {
        self.sim
            .node(node_of(at))
            .map(|n| n.flight_dump())
            .unwrap_or_default()
    }

    /// The observability state of every node of the overlay (supers,
    /// simple peers, client) that runs the plane.
    fn obs_states(&self) -> impl Iterator<Item = &sqpeer_exec::ObsState> + '_ {
        self.super_ids
            .iter()
            .chain(self.peer_ids.iter())
            .chain(std::iter::once(&self.client))
            .filter_map(|&p| self.sim.node(node_of(p))?.obs())
    }

    /// Total rollup pushes sent across the overlay.
    pub fn obs_pushes_total(&self) -> u64 {
        self.obs_states().map(|o| o.pushes_sent).sum()
    }

    /// Total estimated bytes of those pushes — the numerator of the E23
    /// overhead budget.
    pub fn obs_push_bytes_total(&self) -> u64 {
        self.obs_states().map(|o| o.push_bytes_sent).sum()
    }

    /// All peer bases (for oracle construction).
    pub fn bases(&self) -> Vec<&DescriptionBase> {
        self.peer_ids
            .iter()
            .filter_map(|&p| match &self.sim.node(node_of(p))?.base {
                BaseKind::Materialized(db) => Some(db),
                _ => None,
            })
            .collect()
    }

    /// Takes a peer down at the current virtual time (crash churn); an
    /// ad-hoc SON also loses its physical links.
    pub fn crash_peer(&mut self, peer: PeerId) {
        let now = self.sim.now_us();
        self.sim.schedule_node_down(now, node_of(peer));
        self.topology.remove_peer(peer);
    }

    /// Ungraceful crash: the peer vanishes at the current virtual time
    /// with **no** failure notifications — senders only learn through
    /// timeouts and lease expiry. The physical topology keeps the entry:
    /// nobody knows the peer is gone until its lease lapses.
    pub fn crash_peer_silent(&mut self, peer: PeerId) {
        let now = self.sim.now_us();
        self.sim.schedule_silent_crash(now, node_of(peer));
    }

    /// Restarts a silently-crashed peer at the current virtual time. The
    /// recovering node loses its in-flight state and re-advertises its
    /// active-schema (recovery protocol).
    pub fn restart_peer(&mut self, peer: PeerId) {
        let now = self.sim.now_us();
        self.sim.schedule_silent_restart(now, node_of(peer));
    }

    /// Mutates a peer's materialized base in place and re-pushes its
    /// advertisement to its super-peer (the update protocol behind E9's
    /// churn accounting). No-op for virtual or absent bases; a peer
    /// without a super-peer (ad-hoc) keeps the change to itself until
    /// its neighbours next pull.
    pub fn update_peer_base(&mut self, peer: PeerId, f: impl FnOnce(&mut DescriptionBase)) {
        let Some(node) = self.sim.node_mut(node_of(peer)) else {
            return;
        };
        if let BaseKind::Materialized(db) = &mut node.base {
            f(db);
        } else {
            return;
        }
        let sp = node.son.super_peers.first().copied();
        let ad = node.own_advertisement();
        if let (Some(sp), Some(ad)) = (sp, ad) {
            inject(&mut self.sim, peer, sp, Msg::Advertise(ad));
        }
    }

    /// Graceful leave: the peer withdraws its advertisement from its
    /// super-peer (which replicates the withdrawal over the backbone),
    /// then goes down once the notice is delivered.
    pub fn leave_peer(&mut self, peer: PeerId) {
        let sp = self
            .sim
            .node(node_of(peer))
            .and_then(|n| n.son.super_peers.first().copied());
        if let Some(sp) = sp {
            inject(&mut self.sim, peer, sp, Msg::Withdraw);
        }
        // Down after the withdrawal is on the wire (generous margin).
        let at = self.sim.now_us() + 1_000_000;
        self.sim.schedule_node_down(at, node_of(peer));
    }
}
