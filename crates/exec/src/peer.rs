//! The SQPeer peer state machine: client-, simple- and super-peers (§3).
//!
//! One [`PeerNode`] type implements all three roles the paper describes:
//!
//! * **client-peers** "have only the ability to pose RQL queries",
//! * **simple-peers** share their description bases, answer subqueries and
//!   (in the ad-hoc architecture) route queries over their semantic
//!   neighbourhood,
//! * **super-peers** "act as a centralized server for a subset of
//!   simple-peers … mainly responsible for routing queries".
//!
//! The node plugs into the [`sqpeer_net::Simulator`] event loop; every
//! behaviour is a reaction to a delivered message, a timer or a failure
//! notification, handed to one of five machines: what the peer *knows*
//! about its SON is the [`Directory`] (`son`), the life of each query it
//! roots and the one adaptation decision `root::Roots` (`roots`, with no
//! `Ctx`), what it has shipped and not yet settled the `Dispatcher`
//! (`dispatch`), the plan interpreter's slot table `frame::Frames`
//! (`frames`), and what it keeps as the destination of other roots'
//! channels `serve::Server` (`serve`). This file carries out what they
//! return, in order: it routes, executes, sends, arms the timers, fills
//! holes, records every protocol event through one fold (`note`) and
//! lends the directory its router (`annotate`).

use crate::dispatch::{Dispatcher, Drained, Packet, ReplanCause, Step, Verdict};
use crate::frame::{Completion, FrameOp, Frames};
use crate::local::{eval_local, fully_local};
use crate::msg::{Msg, QueryId, QueryOutcome};
use crate::root::{strip_peer, Lost, Roots};
use crate::serve::{Reply, ServedLog, Server, StreamKey};
use crate::son::{Directory, Route};
use crate::{node_of, peer_of, send, Event, Subject};
use sqpeer_cache::{CacheConfig, CacheStats, SemanticCache};
use sqpeer_net::{Ctx, NodeId, NodeLogic};
use sqpeer_plan::{Explain, PlanNode, Site, Subquery};
use sqpeer_rdfs::{FxHashMap, FxHashSet};
use sqpeer_routing::{
    route_limited_traced, AdRegistry, Advertisement, AnnotatedQuery, PeerId, RoutingPolicy,
};
use sqpeer_rql::{QueryPattern, ResultSet};
use sqpeer_rvl::{ActiveSchema, VirtualBase};
use sqpeer_store::DescriptionBase;
use sqpeer_trace::{QueryProfile, TraceEvent, Tracer};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// The role a peer plays in the system (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Poses queries only; no base, no routing, no processing.
    Client,
    /// Shares a base, processes queries; routes locally in ad-hoc mode.
    Simple,
    /// Routes queries for its SON cluster (hybrid architecture).
    Super,
}

/// Which architecture the peer participates in (§3.1 vs §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerMode {
    /// Super-peer based: routing delegated to super-peers.
    Hybrid,
    /// Self-organising: local routing over pulled neighbourhood
    /// advertisements, interleaved routing/processing for holes.
    Adhoc,
}

/// Per-peer configuration.
#[derive(Debug, Clone)]
pub struct PeerConfig {
    /// The architecture this peer runs in.
    pub mode: PeerMode,
    /// Run the §2.5 compile-time optimiser on generated plans.
    pub optimize: bool,
    /// React to channel failures by re-planning (§2.5 run-time
    /// adaptation); otherwise failed subplans yield partial answers.
    pub adaptive: bool,
    /// Broadcast-bounding caps applied to every routing pass (§5 future
    /// work: "constraints regarding the number of peer nodes that each
    /// query is broadcasted").
    pub limits: sqpeer_routing::RoutingLimits,
    /// Stream subplan results back in batches of at most this many rows
    /// (ubQL pipelining: "data packets are sent through each channel",
    /// §2.4). `None` sends one packet per result.
    pub stream_batch_rows: Option<usize>,
    /// Credit-based backpressure for streamed results: at most this many
    /// data packets of one stream may be in flight (sent but not yet
    /// credited back by the root). The root grants one credit per fresh
    /// packet it consumes via [`Msg::Credit`], so a slow or congested
    /// root bounds the sender's buffer pressure instead of absorbing the
    /// whole result at line rate. Only meaningful with
    /// `stream_batch_rows` set; ignored for single-packet results.
    pub stream_credit_window: u32,
    /// Concurrent subplans this peer evaluates simultaneously (§2.5:
    /// "the existence of slots in each peer, which show the amount of
    /// queries that can be handled simultaneously"). Excess subplans queue
    /// until a slot frees. Only meaningful together with
    /// `processing_us_per_row`; `None` = unbounded.
    pub slots: Option<usize>,
    /// Re-route a dispatched subplan whose result has not arrived within
    /// this many virtual µs — the §2.5 run-time reaction to low channel
    /// throughput ("the optimizer may alter a running query plan by
    /// observing the throughput of a certain channel"), and the *only*
    /// way a root ever learns about silently lost subplans. Defaults to
    /// [`PeerConfig::DEFAULT_SUBPLAN_TIMEOUT_US`] (latency-derived);
    /// `None` disables timeout-based adaptation (failures still adapt
    /// via delivery notifications).
    pub subplan_timeout_us: Option<u64>,
    /// At-least-once dispatch: a timed-out subplan is re-sent to the
    /// same destination up to this many times (exponential backoff:
    /// attempt `n` waits `timeout × 2ⁿ`) before the root gives up on the
    /// peer and adapts. Zero disables retries.
    pub subplan_retries: u32,
    /// Advertisement lease duration. When set, advertisements are
    /// heartbeat-renewed (period `lease / 4`): registries sweep unrenewed
    /// entries out of routing and remember them as departed for
    /// completeness accounting. `None` (the default) keeps the original
    /// immortal advertisements — and keeps runs quiescent, since
    /// heartbeats reschedule forever (use [`sqpeer_net::Simulator::run_until`]
    /// with leases on).
    pub ad_lease_us: Option<u64>,
    /// Phased re-execution (\[15\] in the paper): instead of discarding all
    /// intermediate results on adaptation (the ubQL default), the root
    /// caches completed subplan results per (peer, subplan) and reuses
    /// them in the new phase, re-fetching only what was lost.
    pub phased: bool,
    /// Virtual µs of local processing charged per result row produced by
    /// a local evaluation — models the peer's processing load ("the
    /// processing load of the peers should also be taken into account",
    /// §2.5). Zero = infinitely fast peers.
    pub processing_us_per_row: u64,
    /// Memoise routing annotations and generated plans across queries
    /// (version-invalidated, so advertisement churn is always observed).
    /// `None` disables caching entirely.
    pub cache: Option<CacheConfig>,
    /// Record query-lifecycle spans/events, per-query [`QueryProfile`]s
    /// and [`Explain`] plans. Off by default; when off the recorder is a
    /// branch-and-return (zero allocation) and query answers are
    /// bit-identical to a trace-on run (asserted by bench E18).
    pub trace: bool,
    /// Telemetry-driven adaptation (§2.5: "the optimizer may alter a
    /// running query plan by observing the throughput of a certain
    /// channel"): the root probes each in-flight subplan's windowed
    /// throughput and replans a channel whose observed rate falls below
    /// the fixed floor of [`PeerConfig::SLOW_CHANNEL_FLOOR_PERMILLE`] of
    /// [`PeerConfig::SLOW_CHANNEL_EXPECTED_BYTES_PER_MS`] — **before** the
    /// subplan timeout would fire. Off (the default) keeps adaptation
    /// purely timeout-driven.
    pub slow_channel: bool,
    /// The hierarchical observability plane (rollup pushes up the
    /// cluster tree, flight recorder, slow-query log, pattern
    /// statistics). `None` (the default) keeps the plane fully off:
    /// no extra messages, no extra state, bit-identical behaviour —
    /// pinned by the disabled-plane transparency proptest.
    pub obs: Option<crate::obs::ObsConfig>,
}

impl PeerConfig {
    /// The default subplan timeout: 250 round-trips on the default WAN
    /// link (20 ms one-way ⇒ 10 virtual seconds). Generous enough that
    /// slow-but-alive peers (processing delays, slot queues) finish long
    /// before it fires, yet bounded, so a silently lost subplan is
    /// always eventually detected and re-planned.
    pub const DEFAULT_SUBPLAN_TIMEOUT_US: u64 = 250 * 2 * 20_000;

    /// Virtual µs between slow-channel probes of one in-flight subplan
    /// (with [`PeerConfig::slow_channel`] on).
    pub const SLOW_CHANNEL_PROBE_US: u64 = 500_000;

    /// Grace after dispatch before the first slow-channel probe: one
    /// round-trip plus service must plausibly fit, or every dispatch
    /// would look silent.
    pub const SLOW_CHANNEL_GRACE_US: u64 = 100_000;

    /// The healthy channel rate a probe expects, in bytes per virtual
    /// millisecond: [`sqpeer_net::LinkSpec::default`]'s bandwidth.
    pub const SLOW_CHANNEL_EXPECTED_BYTES_PER_MS: u64 = 1_000;

    /// A probe gives up on a channel whose rate over its lifetime window
    /// falls below this fraction, in permille, of the expected rate.
    pub const SLOW_CHANNEL_FLOOR_PERMILLE: u64 = 10;

    /// Bound on adaptation rounds per query.
    pub const MAX_REPLANS: u32 = 3;

    /// Hops a route request may travel on the super-peer backbone.
    pub const BACKBONE_TTL: u32 = 4;

    /// Which advertisement matches a peer routes to: only arcs subsumed
    /// by the query pattern (equivalent or narrower), as §2.3's routing
    /// annotates on `isSubsumed(AS, AQ)` alone.
    pub const ROUTING_POLICY: RoutingPolicy = RoutingPolicy::SubsumedOnly;
}

impl Default for PeerConfig {
    fn default() -> Self {
        PeerConfig {
            mode: PeerMode::Hybrid,
            optimize: true,
            adaptive: true,
            limits: sqpeer_routing::RoutingLimits::unlimited(),
            stream_batch_rows: None,
            stream_credit_window: 4,
            slots: None,
            subplan_timeout_us: Some(PeerConfig::DEFAULT_SUBPLAN_TIMEOUT_US),
            subplan_retries: 2,
            ad_lease_us: None,
            phased: false,
            processing_us_per_row: 0,
            cache: Some(CacheConfig::default()),
            trace: false,
            slow_channel: false,
            obs: None,
        }
    }
}

/// A peer's description base: materialized RDF, a virtual view over a
/// relational or XML source (populated on demand and cached), or none
/// (client-peers and pure super-peers).
#[derive(Debug)]
pub enum BaseKind {
    /// An RDF base actually holding descriptions (§2.2 materialized
    /// scenario).
    Materialized(DescriptionBase),
    /// A virtual base: population happens at first query (§2.2 virtual
    /// scenario).
    Virtual {
        /// The legacy tables (or loaded XML) plus mapping rules.
        source: VirtualBase,
        /// Cache filled on first access.
        cache: OnceLock<DescriptionBase>,
    },
    /// No base (client-peers, routing-only super-peers).
    None,
}

impl BaseKind {
    /// Wraps a virtual base.
    pub fn virtual_base(source: VirtualBase) -> Self {
        BaseKind::Virtual {
            source,
            cache: OnceLock::new(),
        }
    }

    /// Runs `f` over the materialized view of this base (populating the
    /// virtual cache if needed). `None` bases see an empty store.
    pub fn with_materialized<R>(&self, f: impl FnOnce(&DescriptionBase) -> R) -> R {
        match self {
            BaseKind::Materialized(db) => f(db),
            BaseKind::Virtual { source, cache } => f(cache.get_or_init(|| source.populate().0)),
            BaseKind::None => {
                // Client-peers are never asked to evaluate; defensive empty.
                unreachable!("with_materialized on a base-less peer")
            }
        }
    }

    /// The advertisement this base induces, if any.
    pub fn active_schema(&self) -> Option<ActiveSchema> {
        match self {
            BaseKind::Materialized(db) => Some(ActiveSchema::of_base(db)),
            BaseKind::Virtual { source, .. } => Some(source.active_schema()),
            BaseKind::None => None,
        }
    }

    /// Does this peer hold any base at all?
    pub fn is_some(&self) -> bool {
        !matches!(self, BaseKind::None)
    }
}

/// What an armed timer stands for. Timer ids are opaque sequence numbers
/// handed to the transport; the table in [`PeerNode`] resolves a fired
/// id back to the machine that armed it.
#[derive(Debug)]
enum Timer {
    /// Periodic lease renewal of this peer's own advertisement.
    Heartbeat,
    /// Periodic sweep of unrenewed advertisements held here.
    Sweep,
    /// Periodic observability rollup push.
    Obs,
    /// Gather timeout of a hierarchical routing descent.
    HierGather(QueryId),
    /// A result (and its partial flag) held back by the processing-load
    /// model. Occupies a §2.5 slot until it fires.
    Completion(Completion, ResultSet, bool),
    /// Production pacing of a streamed result: one more batch of the
    /// outgoing stream exists when it fires. Occupies a §2.5 slot until
    /// the last batch does.
    Production(StreamKey),
    /// Slow-channel throughput probe of an in-flight subplan tag.
    Probe(u64),
    /// Subplan timeouts of in-flight tags, in arm order: one timer per
    /// fan-out (see [`PeerNode::arm_timeout`]).
    Timeout(Vec<u64>),
}

impl Timer {
    /// The name `timer_kind` reports (the strings `model::conform`
    /// selects timers by).
    fn kind(&self) -> &'static str {
        match self {
            Timer::Heartbeat => "heartbeat",
            Timer::Sweep => "sweep",
            Timer::Obs => "obs",
            Timer::HierGather(_) => "hier-gather",
            Timer::Completion(..) => "completion",
            Timer::Production(_) => "production",
            Timer::Probe(_) => "probe",
            Timer::Timeout(_) => "timeout",
        }
    }

    /// Does [`PeerNode::on_timer`] re-arm this timer whenever it fires?
    fn periodic(&self) -> bool {
        matches!(self, Timer::Heartbeat | Timer::Sweep | Timer::Obs)
    }

    /// Does this timer hold one of the peer's §2.5 processing slots?
    fn holds_slot(&self) -> bool {
        matches!(self, Timer::Completion(..) | Timer::Production(_))
    }
}

/// The peer node: state machine over the simulated network.
pub struct PeerNode {
    /// This peer's id (coincides with its simulator node id).
    pub id: PeerId,
    /// Role in the architecture.
    pub role: Role,
    /// Configuration.
    pub config: PeerConfig,
    /// The description base.
    pub base: BaseKind,
    /// What this peer knows about its SON: the advertisement registry
    /// and its leases, its super-peers/neighbours, its place in the
    /// cluster tree, and the routing requests it is serving.
    pub son: Directory,
    /// Subqueries this peer evaluated locally (the per-peer load measure
    /// of §2.2 / E8).
    pub queries_processed: usize,

    /// Queries this peer rooted, running and answered (see [`Roots`]).
    roots: Roots,
    /// The plan interpreter's open frames (see [`Frames`]).
    frames: Frames,
    /// Subplans shipped from here and not yet settled, and the channels
    /// they travel on.
    dispatch: Dispatcher,
    /// Every armed timer, by id (see [`Timer`]).
    timers: FxHashMap<u64, Timer>,
    next_timer: u64,
    /// Subplans waiting for a processing slot (FIFO).
    slot_queue: VecDeque<(Reply, PlanNode, Vec<PeerId>)>,
    /// What this peer keeps as the destination of other roots'
    /// channels: the served log and the outgoing streams.
    serve: Server,
    /// Routing/plan memoisation (None when disabled by config). RefCell
    /// because routing entry points take `&self`.
    cache: Option<RefCell<SemanticCache>>,
    /// The span/event recorder (disabled unless `config.trace`). RefCell
    /// because routing/planning entry points take `&self`.
    tracer: RefCell<Tracer>,
    /// Credits this peer granted as a stream consumer.
    pub credits_granted: u64,
    /// The observability plane (None when `config.obs` is unset).
    obs: Option<crate::obs::ObsState>,
}

impl PeerNode {
    /// Creates a peer with the given role and base.
    pub fn new(id: PeerId, role: Role, base: BaseKind, config: PeerConfig) -> Self {
        let cache = config.cache.map(|c| RefCell::new(SemanticCache::new(c)));
        let obs = config.obs.map(|_| crate::obs::ObsState::default());
        let tracer = RefCell::new(if config.trace {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        });
        PeerNode {
            son: Directory::new(id, role, &config),
            dispatch: Dispatcher::new(id, &config),
            serve: Server::new(&config),
            roots: Roots::new(id, &config),
            id,
            role,
            config,
            base,
            queries_processed: 0,
            frames: Frames::default(),
            timers: FxHashMap::default(),
            next_timer: 0,
            slot_queue: VecDeque::new(),
            cache,
            tracer,
            credits_granted: 0,
            obs,
        }
    }

    /// A client-peer.
    pub fn client(id: PeerId) -> Self {
        PeerNode::new(id, Role::Client, BaseKind::None, PeerConfig::default())
    }

    /// A simple-peer over a materialized base.
    pub fn simple(id: PeerId, base: DescriptionBase, config: PeerConfig) -> Self {
        PeerNode::new(id, Role::Simple, BaseKind::Materialized(base), config)
    }

    /// A routing-only super-peer.
    pub fn super_peer(id: PeerId, config: PeerConfig) -> Self {
        PeerNode::new(id, Role::Super, BaseKind::None, config)
    }

    /// This peer's own advertisement, if it has a base.
    pub fn own_advertisement(&self) -> Option<Advertisement> {
        let active = self.base.active_schema()?;
        let mut ad = Advertisement::new(self.id, active);
        if let Some(s) = self.base_stats() {
            ad = ad.with_stats(s);
        }
        Some(ad)
    }

    /// The base's current statistics snapshot (§2.4: piggybacked on
    /// advertisements and channel packets for the root's optimiser),
    /// shared until the base next changes; only materialized bases
    /// snapshot cheaply.
    fn base_stats(&self) -> Option<sqpeer_store::BaseStatistics> {
        match &self.base {
            BaseKind::Materialized(db) => Some(db.stats().clone()),
            _ => None,
        }
    }

    /// Channels currently rooted here (inspection).
    pub fn rooted_channels(&self) -> usize {
        self.dispatch.open_channels()
    }

    /// Rooted-query records held here, running and answered-but-not-yet-
    /// taken (inspection).
    pub fn rooted_queries(&self) -> usize {
        self.roots.len()
    }

    /// The most subplan identities the idempotent-receive log holds.
    pub const SERVED_LOG_CAP: usize = ServedLog::CAP;

    /// Subplan identities held in the idempotent-receive log
    /// (inspection; at most [`PeerNode::SERVED_LOG_CAP`]).
    pub fn served_subplans(&self) -> usize {
        self.serve.served.len()
    }

    /// High-water mark of data packets in flight on any single outgoing
    /// stream — observability for the credit-window bound (stays at or
    /// below `config.stream_credit_window` when streaming).
    pub fn max_stream_inflight(&self) -> u32 {
        self.serve.max_inflight
    }

    /// Statistics snapshots this peer's answers carried (inspection).
    pub fn stats_attached(&self) -> u64 {
        self.serve.stats_attached
    }

    /// A canonical digest of this peer's protocol state, by which the model
    /// checker (`sqpeer-model`) tells explored states apart: what a later
    /// step reads, in sorted order, with no timer id and time only relative
    /// to `now_us` (each lease deadline as the time it has left). Left out:
    /// the immutable configuration and base, the tracer, the semantic
    /// cache (cached ≡ uncached), the observability plane, telemetry, and
    /// the SON state beyond the registry, the leases and the departed set.
    pub fn digest(&self, now_us: u64) -> u64 {
        let h = &mut std::collections::hash_map::DefaultHasher::new();
        self.queries_processed.hash(h);
        self.frames.digest(h);
        self.dispatch.digest(h);
        self.roots.digest(h);
        self.serve.digest(h);
        sorted(self.timers.values().map(|t| format!("{t:?}"))).hash(h);
        for ((channel, qid, tag), plan, visited) in &self.slot_queue {
            (format!("{channel:?}"), qid, tag, plan.to_string(), visited).hash(h);
        }
        let ads = self.son.registry.advertisements();
        let registered: Vec<PeerId> = ads.iter().map(|ad| ad.peer).collect();
        (registered, self.son.departed_peers()).hash(h);
        for (peer, at) in self.son.lease_deadlines() {
            (peer, at.saturating_sub(now_us)).hash(h);
        }
        h.finish()
    }

    /// The answer to a query this peer rooted, once it completed.
    pub fn outcome(&self, qid: QueryId) -> Option<&QueryOutcome> {
        self.roots.outcome(qid)
    }

    /// Takes the answer to a completed query and with it everything this
    /// root kept about the query (profile, EXPLAIN, exclusions): a
    /// long-running host that collects answers this way holds no
    /// per-query state past the collection.
    pub fn take_outcome(&mut self, qid: QueryId) -> Option<QueryOutcome> {
        self.roots.take_outcome(qid)
    }

    // ------------------------------------------------------------------
    // Observability surface (populated with `config.trace` on)
    // ------------------------------------------------------------------

    /// All span/trace events this peer recorded, in record order.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.tracer.borrow().events().to_vec()
    }

    /// Recorded events attributed to `qid`.
    pub fn trace_events_for(&self, qid: QueryId) -> Vec<TraceEvent> {
        self.tracer.borrow().events_for(qid.0)
    }

    /// The post-run profile of a query this peer rooted (tracing on).
    pub fn profile(&self, qid: QueryId) -> Option<QueryProfile> {
        self.roots.profile(qid)
    }

    /// The EXPLAIN capture of a query this peer rooted (tracing on).
    pub fn explain(&self, qid: QueryId) -> Option<Explain> {
        self.roots.explain(qid)
    }

    // ------------------------------------------------------------------
    // Intake and routing at the root
    // ------------------------------------------------------------------

    /// A client's query: answered from this peer's own base, partial,
    /// when it has class-membership patterns (§2.1: routing operates on
    /// path patterns), routed and planned otherwise.
    fn intake(&mut self, ctx: &mut Ctx<Msg>, qid: QueryId, query: QueryPattern, client: PeerId) {
        let now = ctx.now_us();
        let tracer = self.tracer.get_mut();
        tracer.event_with(now, qid.0, "query:begin", || query.to_string());
        let local = (!query.class_patterns().is_empty()).then(|| query.clone());
        if !self.roots.begin((qid, now), query, client) {
            return;
        }
        let result = match (local, &self.base) {
            (None, _) => return self.plan_and_execute(ctx, qid),
            (Some(_), BaseKind::None) => ResultSet::default(),
            (Some(query), base) => base.with_materialized(|db| sqpeer_rql::evaluate(&query, db)),
        };
        self.finalize(ctx, qid, result, true);
    }

    fn plan_and_execute(&mut self, ctx: &mut Ctx<Msg>, qid: QueryId) {
        let Some((query, excluded)) = self.roots.query(qid) else {
            return;
        };
        let (query, now) = (query.clone(), ctx.now_us());
        match self.config.mode {
            PeerMode::Hybrid => {
                // Delegate routing to the first non-excluded super-peer (§3.1).
                let sp = self.son.super_peers.iter().find(|p| !excluded.contains(p));
                let Some(&sp) = sp else {
                    return self.finalize(ctx, qid, ResultSet::default(), true);
                };
                let detail = || format!("route request to super-peer {sp}");
                let tracer = self.tracer.get_mut();
                tracer.event_with(now, qid.0, "route:delegate", detail);
                let msg = Msg::RouteRequest {
                    qid,
                    query,
                    backbone_ttl: PeerConfig::BACKBONE_TTL,
                    partial: None,
                };
                let bytes = send(ctx, sp, msg);
                self.roots.sent(qid, bytes);
            }
            PeerMode::Adhoc => {
                // Route locally over the semantic neighbourhood (§3.2).
                let (annotated, lookup) = self.local_route(&query, excluded, now, qid.0);
                // Staleness-bound neighbourhood: lease-expired neighbours
                // that would have matched are known-missing contributors.
                let departed = self.son.departed_matching(&query);
                self.roots.routed(qid, lookup, departed);
                self.plan_annotated(ctx, qid, annotated);
            }
        }
    }

    /// Annotates `query` over what this peer's directory holds (see
    /// [`annotate`]).
    fn local_route(
        &self,
        query: &QueryPattern,
        excluded: &FxHashSet<PeerId>,
        now_us: u64,
        qid: u64,
    ) -> (AnnotatedQuery, Option<CacheStats>) {
        let (cache, tracer) = (self.cache.as_ref(), &self.tracer);
        let at = (&self.son.registry, now_us, qid);
        annotate(cache, tracer, &self.config, at, query, excluded)
    }

    /// Hands the directory a routing request (`serve`) with this peer's
    /// router lent to it, and arms the gather timeout it asks for.
    fn serve_route_request(
        &mut self,
        ctx: &mut Ctx<Msg>,
        qid: QueryId,
        serve: impl FnOnce(&mut Directory, &mut Ctx<Msg>, Route<'_>) -> Option<u64>,
    ) {
        let (cache, tracer, config) = (self.cache.as_ref(), &self.tracer, &self.config);
        let now = ctx.now_us();
        let delay = serve(&mut self.son, ctx, &|registry, query| {
            let none = FxHashSet::default();
            annotate(cache, tracer, config, (registry, now, qid.0), query, &none).0
        });
        if let Some(delay) = delay {
            self.arm(ctx, delay, Timer::HierGather(qid));
        }
    }

    /// A snapshot of this peer's routing/plan cache counters, if caching
    /// is enabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.borrow().stats())
    }

    /// Peers in the departed set (inspection for tests/experiments).
    pub fn departed_peers(&self) -> Vec<PeerId> {
        self.son.departed_peers()
    }

    /// Classifies an armed timer id by the machine it belongs to, so
    /// external drivers (the conformance replayer in `sqpeer-model`) can
    /// select "the retry timeout" or "the completion tick" without
    /// depending on arm order.
    pub fn timer_kind(&self, timer: u64) -> &'static str {
        self.timers.get(&timer).map_or("unknown", Timer::kind)
    }

    /// Does armed timer id `timer` re-arm itself whenever it fires
    /// (heartbeat, sweep, obs rollup)? Such a timer never quiesces.
    pub fn timer_periodic(&self, timer: u64) -> bool {
        self.timers.get(&timer).is_some_and(Timer::periodic)
    }

    /// Arms `timer` to fire after `delay_us`.
    fn arm(&mut self, ctx: &mut Ctx<Msg>, delay_us: u64, timer: Timer) {
        let id = self.next_timer;
        self.next_timer += 1;
        self.timers.insert(id, timer);
        ctx.set_timer(delay_us, id);
    }

    /// Arms the timeout of subplan `tag`, joining the timer this callback
    /// armed last if that is a timeout of the same delay (DESIGN §3: per-tag
    /// timers armed back to back would fire back to back anyway).
    fn arm_timeout(&mut self, ctx: &mut Ctx<Msg>, delay_us: u64, tag: u64) {
        if let Some((_, id)) = ctx.last_timer().filter(|&(d, _)| d == delay_us) {
            if let Some(Timer::Timeout(tags)) = self.timers.get_mut(&id) {
                tags.push(tag);
                return;
            }
        }
        self.arm(ctx, delay_us, Timer::Timeout(vec![tag]));
    }

    // ------------------------------------------------------------------
    // Advertisement leases (opt-in via `config.ad_lease_us`)
    // ------------------------------------------------------------------

    /// Arms the periodic heartbeat/sweep timers (no-op with leases off).
    fn arm_lease_timers(&mut self, ctx: &mut Ctx<Msg>) {
        let Some(period) = self.son.lease_period() else {
            return;
        };
        self.son.seed_leases(ctx.now_us());
        if self.own_advertisement().is_some() {
            self.arm(ctx, period, Timer::Heartbeat);
        }
        if self.son.sweeps() {
            self.arm(ctx, period, Timer::Sweep);
        }
    }

    // ------------------------------------------------------------------
    // Observability plane (opt-in via `config.obs`)
    // ------------------------------------------------------------------

    /// The observability state, when the plane is on.
    pub fn obs(&self) -> Option<&crate::obs::ObsState> {
        self.obs.as_ref()
    }

    /// The snapshot this peer can serve: its own rollup rows folded with
    /// every row pushed to it (members and, at a head, other clusters).
    /// `None` when the plane is off.
    pub fn obs_snapshot(&self) -> Option<crate::obs::Rollup> {
        self.obs.as_ref().map(crate::obs::ObsState::snapshot)
    }

    /// Plain-text flight-recorder dump (empty when the plane is off).
    pub fn flight_dump(&self) -> String {
        self.obs
            .as_ref()
            .map(|o| o.recorder.dump())
            .unwrap_or_default()
    }

    /// Arms the periodic rollup-push timer (no-op with the plane off or
    /// the push period zero — local-only collection).
    fn arm_obs_timer(&mut self, ctx: &mut Ctx<Msg>) {
        let period = self.config.obs.map(|o| o.push_period_us);
        if let Some(period) = period.filter(|&p| p > 0) {
            self.arm(ctx, period, Timer::Obs);
        }
    }

    /// Pushes the rows this peer holds newer than it last pushed one
    /// level up the cluster tree. The destination set mirrors the
    /// summary-advertise flow: heads push to the other heads, cluster
    /// members to their head, simple peers to their entry super-peer,
    /// flat super-peers to the backbone. The rows are its own and its
    /// members', never those learned via peer exchange (the no-echo
    /// rule).
    fn push_obs(&mut self, ctx: &mut Ctx<Msg>) {
        // Idle skip: nothing changed since the last push, so a quiet
        // overlay goes silent within one tree-depth ripple.
        let delta = self.obs.as_ref().map(crate::obs::ObsState::outbound_delta);
        let Some(rows) = delta.filter(|rows| !rows.is_empty()) else {
            return;
        };
        let dests: Vec<PeerId> = match &self.son.cluster {
            Some(c) if c.head == self.id => {
                c.heads.iter().copied().filter(|&h| h != self.id).collect()
            }
            Some(c) => vec![c.head],
            None => match self.role {
                Role::Super => self
                    .son
                    .super_peers
                    .iter()
                    .copied()
                    .filter(|&p| p != self.id)
                    .collect(),
                Role::Simple => self.son.super_peers.first().copied().into_iter().collect(),
                Role::Client => Vec::new(),
            },
        };
        if dests.is_empty() {
            return;
        }
        let obs = self.obs.as_mut().expect("checked above");
        obs.commit_push(&rows);
        let msg = Msg::ObsPush {
            owner: self.id,
            rows,
        };
        let bytes: usize = dests.iter().map(|&d| send(ctx, d, msg.clone())).sum();
        obs.pushes_sent += dests.len() as u64;
        obs.push_bytes_sent += bytes as u64;
    }

    /// Plans query `qid` from its routing annotation (see
    /// [`Roots::plan`]) and executes the plan — or, partial, forwards it
    /// to the peers that can answer parts of it (§3.2).
    fn plan_annotated(&mut self, ctx: &mut Ctx<Msg>, qid: QueryId, annotated: AnnotatedQuery) {
        let (registry, cache) = (&self.son.registry, self.cache.as_ref());
        let tracer = self.tracer.get_mut();
        let at = (qid, ctx.now_us());
        // A replayed trigger plans nothing for an answered query.
        let Some(plan) = self.roots.plan(at, annotated, registry, cache, tracer) else {
            return;
        };
        let root = Completion::Root { qid };
        if plan.is_complete() {
            return self.execute(ctx, qid, plan, root);
        }
        // The first peer to complete a partial plan executes it (§3.2).
        let candidates: Vec<PeerId> = plan.peers().into_iter().filter(|p| *p != self.id).collect();
        if candidates.is_empty() {
            return self.finalize(ctx, qid, ResultSet::default(), true);
        }
        // A race of one is its filler answering the root.
        let n = candidates.len();
        let race = (n > 1).then(|| self.frames.open(qid, FrameOp::Race, root, n));
        for (slot, peer) in candidates.into_iter().enumerate() {
            let to = race.map_or(root, |frame| Completion::Parent { frame, slot });
            self.dispatch_remote(ctx, qid, peer, plan.clone(), to, Some(vec![self.id]));
        }
    }

    // ------------------------------------------------------------------
    // Plan execution
    // ------------------------------------------------------------------

    fn execute(
        &mut self,
        ctx: &mut Ctx<Msg>,
        qid: QueryId,
        plan: PlanNode,
        completion: Completion,
    ) {
        if fully_local(&plan, self.id) {
            self.queries_processed += 1;
            let result = eval_local(&plan, self.id, &self.base);
            if self.config.processing_us_per_row == 0 {
                self.complete(ctx, completion, result, false);
                return;
            }
            // Incremental production: a streamed channel result is
            // "produced" batch by batch over virtual time — the first
            // data packet leaves after one batch's processing charge,
            // while the rest of the evaluation is still being paid for.
            // Anything else (single-packet results included) takes the
            // one-shot processing delay.
            if let Completion::Channel(to) = completion {
                if !self.serve.fits_one_packet(&result) {
                    let stats = self.base_stats();
                    let (key, delay) = self.serve.pace(to, result, stats);
                    self.arm(ctx, delay, Timer::Production(key));
                    return;
                }
            }
            let rows = result.len();
            self.complete_after_processing(ctx, completion, result, false, rows);
            return;
        }
        // A remote fetch, or a join sited elsewhere (query shipping: the
        // whole join subtree executes at `p`, §2.5, Figure 5 right),
        // travels as one subplan.
        let shipped_to = match &plan {
            PlanNode::Fetch {
                site: Site::Peer(p),
                ..
            } => Some(*p),
            PlanNode::Join { site: Some(p), .. } if *p != self.id => Some(*p),
            _ => None,
        };
        if let Some(p) = shipped_to {
            debug_assert_ne!(p, self.id);
            self.dispatch_remote(ctx, qid, p, plan, completion, None);
            return;
        }
        let (op, inputs) = match plan {
            PlanNode::Fetch { .. } => {
                // An unfillable hole reaching execution means routing
                // found nobody: a partial empty result.
                let columns = plan_columns(&plan);
                self.complete(ctx, completion, ResultSet::empty(columns), true);
                return;
            }
            PlanNode::Union(inputs) => (FrameOp::Union, inputs),
            PlanNode::Join { inputs, .. } => (FrameOp::Join, inputs),
        };
        let frame = self.frames.open(qid, op, completion, inputs.len());
        for (slot, input) in inputs.into_iter().enumerate() {
            self.execute(ctx, qid, input, Completion::Parent { frame, slot });
        }
    }

    /// Ships `plan` to `dest` as a subplan answering `completion` —
    /// unless a previous phase already fetched it from there. `filler`
    /// holds the peers already asked when `plan` is a hole-filler
    /// ([`Dispatcher::dispatch`]).
    fn dispatch_remote(
        &mut self,
        ctx: &mut Ctx<Msg>,
        qid: QueryId,
        dest: PeerId,
        plan: PlanNode,
        completion: Completion,
        filler: Option<Vec<PeerId>>,
    ) {
        // §2.5's phased alternative to discarding: ship nothing.
        if let Some(cached) = self.roots.reuse(qid, dest, &plan) {
            return self.complete(ctx, completion, cached, false);
        }
        let probe = self.roots.query(qid).is_some();
        let step = self
            .dispatch
            .dispatch(ctx, qid, dest, plan, completion, filler, probe);
        self.settle(ctx, Some(step));
    }

    /// Records what the dispatcher reported of one step and acts on its
    /// verdict. Every way a subplan in flight moves on — armed, drained,
    /// answered, lost — passes through here.
    fn settle(&mut self, ctx: &mut Ctx<Msg>, step: Option<Step>) {
        let Some(step) = step else {
            return;
        };
        let (qid, tag, dest) = (step.qid, step.tag, step.dest);
        for event in step.events.into_iter().flatten() {
            self.note(ctx, Subject::Subplan { qid, tag, dest }, event);
        }
        match step.verdict {
            Verdict::Pending {
                timeout_us,
                probe_us,
            } => {
                if let Some(delay) = timeout_us {
                    self.arm_timeout(ctx, delay, tag);
                }
                if let Some(delay) = probe_us {
                    self.arm(ctx, delay, Timer::Probe(tag));
                }
            }
            Verdict::Drained { completion, batch } => {
                self.consume_batch(ctx, qid, completion, batch)
            }
            Verdict::Answered {
                completion,
                plan,
                last,
                result,
                partial,
            } => {
                if let Some(batch) = last {
                    self.consume_batch(ctx, qid, completion, batch);
                }
                if !partial {
                    self.roots.keep(qid, dest, &plan, &result);
                }
                self.complete(ctx, completion, result, partial);
            }
            Verdict::Lost { pending, cause } => {
                let lost = Some((pending.completion, pending.plan));
                self.adapt(ctx, pending.qid, pending.dest, cause, lost);
            }
        }
    }

    /// Folds one protocol event about `subject` into every recorder that
    /// keeps it: the transport's protocol counters, the query's profile
    /// (while this peer roots it live), the tracer, the flight ring and —
    /// for a slow channel or a loss — the EXPLAIN adaptation log. The only
    /// writer of any of them for an [`Event`].
    fn note(&mut self, ctx: &mut Ctx<Msg>, subject: Subject, event: Event) {
        let now = ctx.now_us();
        let qid = subject.qid();
        self.roots.record(now, subject, &event);
        match event {
            Event::Retried { .. } => ctx.counters().retries_sent += 1,
            Event::TimedOut => ctx.counters().timeouts_fired += 1,
            Event::CreditGranted { .. } => self.credits_granted += 1,
            Event::DuplicateDropped => ctx.counters().stream_dedup_drops += 1,
            Event::Replanned { cause } => {
                // The cause beside the total says *why* adaptation fired.
                let counters = ctx.counters();
                counters.replans += 1;
                counters.timeout_replans += usize::from(cause == ReplanCause::Timeout);
                counters.slow_channel_replans += usize::from(cause == ReplanCause::SlowChannel);
            }
            _ => {}
        }
        let (name, kind) = event.recorded_as();
        if let (Some(name), Some(qid)) = (name, qid) {
            let detail = || format!("{subject}{event}");
            self.tracer.get_mut().event_with(now, qid.0, name, detail);
        }
        if let (Some(obs), Some(_)) = (&mut self.obs, kind) {
            obs.recorder.record(now, subject, event);
        }
    }

    /// Hands a finished subtree's result to where it completes.
    fn complete(&mut self, ctx: &mut Ctx<Msg>, to: Completion, result: ResultSet, partial: bool) {
        match to {
            Completion::Parent { frame, slot } => self.fill_slot(ctx, frame, slot, result, partial),
            Completion::Channel(to) => {
                let stats = self.base_stats();
                self.serve.answer(ctx, to, result, partial, stats);
            }
            Completion::Root { qid } => self.finalize(ctx, qid, result, partial),
        }
    }

    /// Admits the next subplan waiting for a processing slot, if any.
    fn admit_queued(&mut self, ctx: &mut Ctx<Msg>) {
        if let Some((to, plan, visited)) = self.slot_queue.pop_front() {
            self.serve_subplan(ctx, to, plan, visited, None);
        }
    }

    /// One in-order batch drained from a streamed subplan that is no
    /// hole-filler (see [`Drained`]): it timestamps the root's
    /// time-to-first-row and, relayed, goes down the channel the subplan
    /// answers at once, so the root sees first rows before this peer's
    /// answer completes.
    fn consume_batch(&mut self, ctx: &mut Ctx<Msg>, qid: QueryId, to: Completion, batch: Drained) {
        self.roots.first_row(qid, ctx.now_us());
        if let (Drained::Batch(rows), Completion::Channel(channel)) = (batch, to) {
            self.serve.forward(ctx, channel, rows);
        }
    }

    /// Fills `(frame, slot)` (see [`Frames::fill`]) and completes the
    /// frame if that finished it.
    fn fill_slot(
        &mut self,
        ctx: &mut Ctx<Msg>,
        frame: u64,
        slot: usize,
        result: ResultSet,
        partial: bool,
    ) {
        let names = |qid| Some(Arc::clone(self.roots.query(qid)?.0.columns()));
        let finished = self.frames.fill(frame, slot, result, partial, names);
        match finished {
            // The join work happens at this peer: charge its load before
            // the result moves on.
            Some((completion, result, partial, Some(rows)))
                if self.config.processing_us_per_row > 0 =>
            {
                self.complete_after_processing(ctx, completion, result, partial, rows)
            }
            Some((completion, result, partial, _)) => {
                self.complete(ctx, completion, result, partial)
            }
            None => {}
        }
    }

    /// Models the peer's processing load (§2.5: "the processing load of
    /// the peers should also be taken into account"): the result moves on
    /// after `(rows + 1) × processing_us_per_row` virtual microseconds,
    /// `rows` being what the peer produced before any projection.
    fn complete_after_processing(
        &mut self,
        ctx: &mut Ctx<Msg>,
        completion: Completion,
        result: ResultSet,
        partial: bool,
        rows: usize,
    ) {
        let delay = self.config.processing_us_per_row * (rows as u64 + 1);
        self.arm(ctx, delay, Timer::Completion(completion, result, partial));
    }

    /// Answers query `qid` (see [`Roots::finish`]). What is still open or
    /// in flight for it (a losing race filler, say) is forgotten, as a
    /// re-plan forgets it.
    fn finalize(&mut self, ctx: &mut Ctx<Msg>, qid: QueryId, result: ResultSet, partial: bool) {
        let (tracer, obs) = (self.tracer.get_mut(), self.obs.as_mut());
        let at = (qid, ctx.now_us());
        let Some(done) = self.roots.finish(at, result, partial, tracer, obs) else {
            return;
        };
        if let Some(event) = done.slow {
            self.note(ctx, Subject::Query(qid), event);
        }
        self.frames.discard(qid);
        self.dispatch.abandon(qid);
        if let Some((client, result)) = done.mail {
            send(ctx, client, Msg::ClientAnswer { qid, result });
        }
    }

    /// Run-time adaptation (§2.5): carries out [`Roots::lost`] for query
    /// `qid` losing its route request or, `lost`, a subplan (where it
    /// completes, what it was) to `failed`, however the loss showed.
    fn adapt(
        &mut self,
        ctx: &mut Ctx<Msg>,
        qid: QueryId,
        failed: PeerId,
        cause: ReplanCause,
        lost: Option<(Completion, PlanNode)>,
    ) {
        let verdict = self.roots.lost(qid, failed, lost.is_some());
        if matches!(verdict, Lost::Replan | Lost::Repair { .. }) {
            self.note(ctx, Subject::Query(qid), Event::Replanned { cause });
        }
        match (verdict, lost) {
            (Lost::Replan, _) => {
                // ubQL semantics: discard all intermediate results and
                // on-going computations, then re-run routing + processing.
                self.frames.discard(qid);
                self.dispatch.abandon(qid);
                self.plan_and_execute(ctx, qid);
            }
            (Lost::GiveUp, _) => self.finalize(ctx, qid, ResultSet::default(), true),
            (verdict @ (Lost::Repair { .. } | Lost::EmptySlot), Some((completion, plan))) => {
                let columns = plan_columns(&plan);
                if let Lost::Repair { excluded } = verdict {
                    // Everything else keeps running: every trace of the
                    // failed peer becomes a hole / unsited join, local
                    // routing fills the holes with alternatives, and the
                    // repaired fragment feeds the *same* parent slot.
                    let holed = strip_peer(plan, failed);
                    let repaired = self.fill_holes(holed, &excluded, ctx.now_us(), qid.0);
                    if repaired.is_complete() {
                        return self.execute(ctx, qid, repaired, completion);
                    }
                }
                // Static execution, or nobody else holds the lost fragment.
                self.complete(ctx, completion, ResultSet::empty(columns), true);
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Serving subplans (destination side)
    // ------------------------------------------------------------------

    fn serve_subplan(
        &mut self,
        ctx: &mut Ctx<Msg>,
        to: Reply,
        plan: PlanNode,
        mut visited: Vec<PeerId>,
        trace_ctx: Option<crate::msg::TraceCtx>,
    ) {
        // Cross-peer trace stitching: the shipped context names the trace
        // owner, so this peer's serve events (recorded under the root's
        // qid) splice into the root's tree — `stitched_well_nested`
        // checks them against the origin's dispatch time. Queue re-entries
        // pass `None` so admission retries don't double-record.
        let (qid, tag) = (to.1, to.2);
        if let Some(tc) = trace_ctx {
            self.tracer
                .get_mut()
                .event_with(ctx.now_us(), qid.0, "exec:serve", || {
                    format!(
                        "subplan tag {tag} for root {} (dispatched t={}us)",
                        tc.origin, tc.parent_start_us
                    )
                });
        }
        // Slot admission (§2.5): with every slot busy the subplan queues
        // until a running local evaluation finishes (paced stream
        // productions occupy their slot until the last batch exists).
        if let Some(slots) = self.config.slots {
            let busy = self.timers.values().filter(|t| t.holds_slot()).count();
            if busy >= slots.max(1) {
                self.slot_queue.push_back((to, plan, visited));
                return;
            }
        }
        let completion = Completion::Channel(to);

        if plan.is_complete() {
            self.execute(ctx, qid, plan, completion);
            return;
        }

        // Interleaved routing and processing (§3.2): fill holes from local
        // knowledge, then execute or forward.
        let filled = self.fill_holes(plan, &visited, ctx.now_us(), qid.0);
        if filled.is_complete() {
            self.execute(ctx, qid, filled, completion);
            return;
        }
        // Forward to a peer of the plan not yet visited.
        visited.push(self.id);
        let next = filled.peers().into_iter().find(|p| !visited.contains(p));
        match next {
            Some(peer) => self.dispatch_remote(ctx, qid, peer, filled, completion, Some(visited)),
            // Nobody left to ask: refuse the subplan.
            None => self.serve.refuse(ctx, to),
        }
    }

    /// Replaces hole fetches with unions over locally-known peers —
    /// the interleaved routing step of §3.2.
    ///
    /// Only single-pattern holes are fillable (composite fetches are never
    /// minted with a hole site); a hole nobody matches stays a hole.
    fn fill_holes(&self, plan: PlanNode, visited: &[PeerId], now_us: u64, qid: u64) -> PlanNode {
        let excluded: FxHashSet<PeerId> = visited.iter().copied().collect();
        plan.map_fetches(&mut |subquery: Subquery, site: Site| {
            if site != Site::Hole || subquery.query.patterns().len() != 1 {
                return PlanNode::Fetch { subquery, site };
            }
            let (annotated, _) = self.local_route(&subquery.query, &excluded, now_us, qid);
            let branches: Vec<PlanNode> = annotated
                .peers_for(0)
                .iter()
                .map(|ann| {
                    let query = QueryPattern::from_parts(
                        subquery.query.schema().clone(),
                        subquery.query.var_names().to_vec(),
                        vec![ann.pattern.clone()],
                        subquery.query.projection().to_vec(),
                        subquery.query.filters().to_vec(),
                    );
                    PlanNode::Fetch {
                        subquery: Subquery {
                            covers: subquery.covers,
                            query,
                        },
                        site: Site::Peer(ann.peer),
                    }
                })
                .collect();
            match branches.len() {
                0 => PlanNode::Fetch {
                    subquery,
                    site: Site::Hole,
                },
                1 => branches.into_iter().next().expect("non-empty"),
                _ => PlanNode::Union(branches),
            }
        })
    }
}

/// Annotates `query` over `registry` — through the memo unless the query
/// excludes peers: adaptation re-routes with exclusions, which are
/// query-local and would pollute shared entries. With tracing on, also
/// returns what the memo lookup did to the cache counters (recorded as
/// `cache:lookup`). Takes the peer's fields one by one, so the directory
/// can be lent it while it is itself borrowed mutably.
fn annotate(
    cache: Option<&RefCell<SemanticCache>>,
    tracer: &RefCell<Tracer>,
    config: &PeerConfig,
    (registry, now_us, qid): (&AdRegistry, u64, u64),
    query: &QueryPattern,
    excluded: &FxHashSet<PeerId>,
) -> (AnnotatedQuery, Option<CacheStats>) {
    let (policy, limits) = (PeerConfig::ROUTING_POLICY, config.limits);
    if let Some(cache) = cache.filter(|_| excluded.is_empty()) {
        let before = config.trace.then(|| cache.borrow().stats());
        let annotated = cache.borrow_mut().route(registry, query, policy, limits);
        let lookup = before.map(|before| cache.borrow().stats().since(&before));
        if let Some(d) = &lookup {
            let detail = || {
                let (exact, subsumed, missed) = (d.hits, d.subsumption_hits, d.misses);
                format!("{exact} exact, {subsumed} subsumption, {missed} miss")
            };
            tracer
                .borrow_mut()
                .event_with(now_us, qid, "cache:lookup", detail);
        }
        return (annotated, lookup);
    }
    let ads = registry.advertisements().into_iter();
    let ads: Vec<Advertisement> = ads
        .filter(|a| !excluded.contains(&a.peer))
        .cloned()
        .collect();
    let mut tracer = tracer.borrow_mut();
    let annotated = route_limited_traced(query, &ads, policy, limits, &mut tracer, now_us, qid);
    (annotated, None)
}

/// A map's entries in key order: how a digest reads a hash map.
pub(crate) fn by_key<K: Ord, V>(map: &FxHashMap<K, V>) -> Vec<(&K, &V)> {
    let mut entries: Vec<_> = map.iter().collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
    entries
}

/// `items` sorted: how a digest reads a set.
pub(crate) fn sorted<T: Ord>(items: impl IntoIterator<Item = T>) -> Vec<T> {
    let mut items: Vec<T> = items.into_iter().collect();
    items.sort_unstable();
    items
}

/// The natural output columns of a plan subtree.
fn plan_columns(plan: &PlanNode) -> Arc<[String]> {
    match plan {
        PlanNode::Fetch { subquery, .. } => Arc::clone(subquery.query.columns()),
        PlanNode::Union(inputs) => inputs.first().map(plan_columns).unwrap_or_default(),
        PlanNode::Join { inputs, .. } => {
            let mut cols: Vec<String> = Vec::new();
            for c in inputs.iter().flat_map(|input| plan_columns(input).to_vec()) {
                if !cols.contains(&c) {
                    cols.push(c);
                }
            }
            cols.into()
        }
    }
}

impl NodeLogic for PeerNode {
    type Msg = Msg;

    fn on_message(&mut self, ctx: &mut Ctx<Msg>, from: NodeId, msg: Msg) {
        if let Some(obs) = &mut self.obs {
            // Receiver-side link counts. The plane never observes
            // itself: ObsPush receipts are excluded, so a quiet overlay's
            // rollups converge to the query traffic instead of chasing
            // the plane's own pushes forever.
            if !matches!(msg, Msg::ObsPush { .. }) {
                obs.count_receipt(from, node_of(self.id), msg.wire_size());
            }
        }
        match msg {
            Msg::Advertise(ad) => self.son.advertised(ctx, peer_of(from), ad),
            Msg::Withdraw => self.son.withdrawn(ctx, peer_of(from)),
            Msg::WithdrawPeer(peer) => self.son.forget(peer),
            Msg::Heartbeat => self.son.heartbeat(ctx, peer_of(from)),
            Msg::HeartbeatPeer(peer) => self.son.alive(ctx, peer),
            Msg::ExpirePeer(ad) => self.son.tombstone(ad),
            Msg::RequestAds { .. } => {
                let ads: Vec<Advertisement> = self.own_advertisement().into_iter().collect();
                send(ctx, peer_of(from), Msg::AdsResponse(ads));
            }
            Msg::AdsResponse(ads) => self.son.pulled(ads),
            Msg::RouteRequest {
                qid,
                query,
                backbone_ttl,
                partial,
            } => {
                let from = peer_of(from);
                self.serve_route_request(ctx, qid, |son, ctx, route| {
                    son.route_request(ctx, route, from, qid, query, backbone_ttl, partial)
                });
            }
            Msg::RouteResponse {
                qid,
                annotated,
                missing,
            } => {
                // A backbone relay passes the answer back; what it hands
                // over is for a query rooted here.
                if let Some((annotated, missing)) =
                    self.son.route_response(ctx, qid, annotated, missing)
                {
                    // The super-peer named departed contributors: the
                    // answer is known to be missing their rows.
                    self.roots.routed(qid, None, missing);
                    self.plan_annotated(ctx, qid, annotated);
                }
            }
            Msg::Subplan {
                channel,
                qid,
                tag,
                plan,
                visited,
                attempt,
                trace,
            } => {
                // Idempotent receive: duplicates of an attempt already
                // seen are dropped (their answer is already on the wire
                // or queued); a higher attempt is a genuine retry and is
                // served afresh.
                if !self.serve.served.admit((channel.root, qid, tag), attempt) {
                    return;
                }
                self.serve_subplan(ctx, (channel, qid, tag), plan, visited, trace);
            }
            Msg::Data {
                channel,
                qid,
                tag,
                result,
                partial,
                stats,
                seq,
                last,
            } => {
                if let Some(fresh) = stats {
                    // Refresh the sender's advertised statistics — channel
                    // packets keep the optimiser's estimates current (§2.4).
                    self.son.refresh_stats(peer_of(from), fresh);
                }
                let packet = Packet {
                    channel,
                    seq,
                    last,
                    result,
                    partial,
                };
                let step = self.dispatch.data(ctx, from, qid, tag, packet);
                self.settle(ctx, step);
            }
            Msg::SubplanFailed { qid, tag, .. } => {
                let step = self.dispatch.refused(qid, tag);
                self.settle(ctx, step);
            }
            Msg::ExecutePlan { qid, query, plan } => {
                if self.roots.begin((qid, ctx.now_us()), query, peer_of(from)) {
                    self.execute(ctx, qid, plan, Completion::Root { qid });
                }
            }
            Msg::ClientQuery { qid, query } => {
                self.intake(ctx, qid, query, peer_of(from));
            }
            // A client-peer keeps no copy: drivers read the outcome at
            // the root.
            Msg::ClientAnswer { .. } => {}
            Msg::Credit {
                channel,
                qid,
                tag,
                credits,
            } => {
                self.serve.credit(ctx, (channel.root, qid, tag), credits);
            }
            Msg::SummaryAdvertise {
                owner,
                summary,
                changed,
            } => {
                self.son.summary_advertised(ctx, owner, summary, changed);
            }
            Msg::HierRouteRequest { qid, query, scope } => {
                let from = peer_of(from);
                self.serve_route_request(ctx, qid, |son, ctx, route| {
                    son.hier_route_request(ctx, route, from, qid, &query, scope)
                });
            }
            Msg::HierRouteResponse {
                qid,
                annotated,
                missing,
            } => {
                self.son
                    .hier_route_response(ctx, peer_of(from), qid, annotated, missing);
            }
            Msg::ObsPush { owner, rows } => {
                // A push from an equal — a sibling cluster head, or a
                // fellow super-peer on the flat backbone — is folded
                // locally but never forwarded (the no-echo rule); a
                // member's push is also queued for the next push up the
                // tree.
                let peer_exchange = match &self.son.cluster {
                    Some(c) => c.head == self.id && c.heads.contains(&owner) && owner != self.id,
                    None => self.role == Role::Super && self.son.super_peers.contains(&owner),
                };
                if let Some(obs) = &mut self.obs {
                    obs.accept_push(&rows, peer_exchange);
                }
            }
        }
    }

    fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
        self.arm_lease_timers(ctx);
        self.arm_obs_timer(ctx);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<Msg>) {
        // An ungraceful restart loses all in-flight execution state: open
        // channels, frames, streams, the served-attempt log, and every
        // pending timer (the simulator already discarded those). Durable
        // state — the base, recorded outcomes, and what the directory
        // keeps of itself — survives.
        self.dispatch.clear();
        self.roots.restart();
        self.frames.clear();
        self.timers.clear();
        self.slot_queue.clear();
        self.serve.clear();
        // Accumulated rollups survive the restart — rows are cumulative
        // and never shrink, so dropping them would lose history.
        // The directory re-advertises; `arm_lease_timers` then re-seeds
        // every held ad with a full lease from the restart instant.
        self.son.restart(ctx, self.own_advertisement());
        self.arm_lease_timers(ctx);
        self.arm_obs_timer(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Msg>, timer: u64) {
        let Some(timer) = self.timers.remove(&timer) else {
            return;
        };
        match timer {
            Timer::Obs => {
                self.push_obs(ctx);
                self.arm_obs_timer(ctx);
            }
            Timer::Heartbeat => {
                self.son.send_heartbeats(ctx);
                let period = self.son.lease_period().expect("armed only with leases on");
                self.arm(ctx, period, Timer::Heartbeat);
            }
            Timer::Sweep => {
                for peer in self.son.sweep(ctx) {
                    self.note(ctx, Subject::Peer, Event::LeaseExpired { peer });
                }
                let period = self.son.lease_period().expect("armed only with leases on");
                self.arm(ctx, period, Timer::Sweep);
            }
            Timer::HierGather(qid) => self.son.gather_timed_out(ctx, qid),
            Timer::Completion(completion, result, partial) => {
                self.complete(ctx, completion, result, partial);
                // A slot freed.
                self.admit_queued(ctx);
            }
            Timer::Production(key) => {
                // One more batch of the paced stream exists.
                let Some(next) = self.serve.produce(key) else {
                    return;
                };
                match next {
                    Some(delay) => self.arm(ctx, delay, Timer::Production(key)),
                    // Production finished: the processing slot frees.
                    None => self.admit_queued(ctx),
                }
                self.serve.flush(ctx, key);
            }
            Timer::Probe(tag) => {
                let step = self.dispatch.probed(ctx, tag);
                self.settle(ctx, step);
            }
            Timer::Timeout(tags) => {
                for tag in tags {
                    let step = self.dispatch.timed_out(ctx, tag);
                    self.settle(ctx, step);
                }
            }
        }
    }

    fn on_transport_anomaly(&mut self, now_us: u64, detail: &str) {
        // No context comes with the hook, and a decode failure moves no
        // counter: a detached one serves.
        let mut ctx = Ctx::detached(now_us, node_of(self.id));
        let event = Event::DecodeFailure(detail.to_string());
        self.note(&mut ctx, Subject::Peer, event);
    }

    fn on_delivery_failure(&mut self, ctx: &mut Ctx<Msg>, to: NodeId, msg: Msg) {
        let failed_peer = peer_of(to);
        let step = self.dispatch.undelivered(failed_peer, &msg);
        self.settle(ctx, step);
        match msg {
            Msg::RouteRequest { qid, .. } => {
                self.adapt(ctx, qid, failed_peer, ReplanCause::Delivery, None)
            }
            Msg::HierRouteRequest { qid, scope, .. } => {
                self.son
                    .hier_request_undelivered(ctx, failed_peer, qid, scope);
            }
            // Lost answers/acknowledgements are not recoverable.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqpeer_net::{ChannelTable, NodeId, Simulator};
    use sqpeer_plan::single_pattern_subquery;
    use sqpeer_rdfs::{Range, Resource, Schema, SchemaBuilder, Triple};
    use sqpeer_rql::compile;
    use std::sync::Arc;

    pub(crate) fn fig1_schema() -> Arc<Schema> {
        let mut b = SchemaBuilder::new("n1", "http://example.org/n1#");
        let c1 = b.class("C1").unwrap();
        let c2 = b.class("C2").unwrap();
        let c3 = b.class("C3").unwrap();
        let _ = b.class("C4").unwrap();
        let c5 = b.subclass("C5", c1).unwrap();
        let c6 = b.subclass("C6", c2).unwrap();
        let p1 = b.property("prop1", c1, Range::Class(c2)).unwrap();
        let _ = b.property("prop2", c2, Range::Class(c3)).unwrap();
        let _ = b.subproperty("prop4", p1, c5, Range::Class(c6)).unwrap();
        Arc::new(b.finish().unwrap())
    }

    fn base_with(schema: &Arc<Schema>, triples: &[(&str, &str, &str)]) -> DescriptionBase {
        let mut db = DescriptionBase::new(Arc::clone(schema));
        for (s, p, o) in triples {
            let prop = schema.property_by_name(p).unwrap();
            db.insert_described(Triple::new(Resource::new(*s), prop, Resource::new(*o)));
        }
        db
    }

    /// Poses `query` at `origin` as client-peer 99.
    fn pose(sim: &mut Simulator<PeerNode>, origin: NodeId, qid: QueryId, query: QueryPattern) {
        let msg = Msg::ClientQuery { qid, query };
        let bytes = msg.wire_size();
        sim.inject(NodeId(99), origin, msg, bytes);
    }

    fn adhoc_config() -> PeerConfig {
        PeerConfig {
            mode: PeerMode::Adhoc,
            optimize: false,
            ..PeerConfig::default()
        }
    }

    /// Two peers in ad-hoc mode; P1 knows P2's advertisement and queries.
    /// The answer is P1's outcome, and P1 mails it, once, to client-peer
    /// 99, who posed the query.
    #[test]
    fn adhoc_two_peer_query() {
        let schema = fig1_schema();
        let b1 = base_with(&schema, &[("a", "prop1", "b")]);
        let b2 = base_with(&schema, &[("b", "prop2", "c")]);
        let mut p1 = PeerNode::simple(PeerId(1), b1, adhoc_config());
        let mut p2 = PeerNode::simple(PeerId(2), b2, adhoc_config());

        // P1 knows itself and P2.
        let ad1 = p1.own_advertisement().unwrap();
        let ad2 = p2.own_advertisement().unwrap();
        p1.son.registry.register(ad1);
        p1.son.registry.register(ad2);

        let query = compile("SELECT X, Z FROM {X}prop1{Y}, {Y}prop2{Z}", &schema).unwrap();
        let posed = Msg::ClientQuery {
            qid: QueryId(1),
            query,
        };
        // Every message in flight as `(from, to, msg)`, delivered in send
        // order; what reaches the client-peer is kept.
        let mut flight = VecDeque::from([(PeerId(99), PeerId(1), posed)]);
        let mut to_client = Vec::new();
        while let Some((from, to, msg)) = flight.pop_front() {
            let node = match to {
                PeerId(1) => &mut p1,
                PeerId(2) => &mut p2,
                _ => {
                    to_client.push((from, msg));
                    continue;
                }
            };
            let (sent, _) = hand(node, from, msg);
            flight.extend(sent.into_iter().map(|(dest, msg)| (to, dest, msg)));
        }

        let outcome = p1.outcome(QueryId(1)).expect("query completed");
        assert!(!outcome.partial);
        assert_eq!(outcome.result.len(), 1);
        assert_eq!(*outcome.result.columns, ["X", "Z"]);
        // The client got the same answer.
        let [(PeerId(1), Msg::ClientAnswer { qid, result })] = &to_client[..] else {
            panic!("one ClientAnswer from the root: {to_client:?}");
        };
        assert_eq!((*qid, result), (QueryId(1), &outcome.result));
    }

    /// With tracing on, a completed root query exposes well-nested spans,
    /// a per-phase profile, and an EXPLAIN of its optimisation pipeline.
    #[test]
    fn traced_query_exposes_spans_profile_and_explain() {
        let schema = fig1_schema();
        let mut sim: Simulator<PeerNode> = Simulator::default();
        let config = PeerConfig {
            trace: true,
            optimize: true,
            ..adhoc_config()
        };
        let b1 = base_with(&schema, &[("a", "prop1", "b")]);
        let b2 = base_with(&schema, &[("b", "prop2", "c")]);
        let mut p1 = PeerNode::simple(PeerId(1), b1, config.clone());
        let p2 = PeerNode::simple(PeerId(2), b2, config);
        let ad1 = p1.own_advertisement().unwrap();
        let ad2 = p2.own_advertisement().unwrap();
        p1.son.registry.register(ad1);
        p1.son.registry.register(ad2);
        sim.add_node(NodeId(1), p1);
        sim.add_node(NodeId(2), p2);
        sim.add_node(NodeId(99), PeerNode::client(PeerId(99)));

        let query = compile("SELECT X, Z FROM {X}prop1{Y}, {Y}prop2{Z}", &schema).unwrap();
        pose(&mut sim, NodeId(1), QueryId(1), query);
        sim.run_to_quiescence();

        let p1 = sim.node(NodeId(1)).unwrap();
        let events = p1.trace_events_for(QueryId(1));
        assert!(!events.is_empty());
        sqpeer_trace::spans_well_nested(&events).expect("spans well nested");
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        for required in [
            "query:begin",
            "cache:lookup", // default config routes through the semantic cache
            "annotate",
            "plan",
            "cache:plan",
            "exec:dispatch",
            "exec:answer",
            "query:done",
        ] {
            assert!(names.contains(&required), "missing event {required}");
        }

        let profile = p1.profile(QueryId(1)).expect("profile recorded");
        assert_eq!(profile.rows, 1);
        assert!(!profile.partial);
        assert!(profile.subplans_dispatched >= 1);
        assert_eq!(profile.subplans_answered, profile.subplans_dispatched);
        assert!(profile.peers_contacted >= 1);
        assert_eq!(
            profile.total_us,
            profile.routing_us + profile.planning_us + profile.execution_us
        );

        let explain = p1.explain(QueryId(1)).expect("explain recorded");
        let rendered = explain.render();
        assert!(rendered.contains("annotated query pattern"));
        assert!(rendered.contains("plan 1 (generated)"));
        assert!(rendered.contains("final plan"));
        // Rendering is pure: two calls agree (diffable snapshots).
        assert_eq!(rendered, explain.render());
    }

    /// Without the semantic cache, routing runs uncached and the `route`
    /// span plus per-peer subsumption events are recorded instead.
    #[test]
    fn traced_uncached_routing_records_route_span() {
        let schema = fig1_schema();
        let mut sim: Simulator<PeerNode> = Simulator::default();
        let config = PeerConfig {
            trace: true,
            cache: None,
            ..adhoc_config()
        };
        let b1 = base_with(&schema, &[("a", "prop1", "b")]);
        let mut p1 = PeerNode::simple(PeerId(1), b1, config);
        let ad1 = p1.own_advertisement().unwrap();
        p1.son.registry.register(ad1);
        sim.add_node(NodeId(1), p1);
        sim.add_node(NodeId(99), PeerNode::client(PeerId(99)));
        let query = compile("SELECT X, Y FROM {X}prop1{Y}", &schema).unwrap();
        pose(&mut sim, NodeId(1), QueryId(1), query);
        sim.run_to_quiescence();
        let p1 = sim.node(NodeId(1)).unwrap();
        let events = p1.trace_events_for(QueryId(1));
        sqpeer_trace::spans_well_nested(&events).expect("spans well nested");
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        assert!(names.contains(&"route"));
        assert!(names.contains(&"route:subsume"));
        assert!(names.contains(&"route:annotate"));
        assert!(!names.contains(&"cache:lookup"));
    }

    /// Tracing off (the default) records nothing and stores no profiles.
    #[test]
    fn untraced_query_records_nothing() {
        let schema = fig1_schema();
        let mut sim: Simulator<PeerNode> = Simulator::default();
        let b1 = base_with(&schema, &[("a", "prop1", "b")]);
        let mut p1 = PeerNode::simple(PeerId(1), b1, adhoc_config());
        let ad1 = p1.own_advertisement().unwrap();
        p1.son.registry.register(ad1);
        sim.add_node(NodeId(1), p1);
        sim.add_node(NodeId(99), PeerNode::client(PeerId(99)));
        let query = compile("SELECT X, Y FROM {X}prop1{Y}", &schema).unwrap();
        pose(&mut sim, NodeId(1), QueryId(1), query);
        sim.run_to_quiescence();
        let p1 = sim.node(NodeId(1)).unwrap();
        assert!(p1.outcome(QueryId(1)).is_some());
        assert!(p1.trace_events().is_empty());
        assert!(p1.profile(QueryId(1)).is_none());
        assert!(p1.explain(QueryId(1)).is_none());
    }

    /// Horizontal distribution: two peers both answering the same pattern.
    #[test]
    fn adhoc_union_across_peers() {
        let schema = fig1_schema();
        let mut sim: Simulator<PeerNode> = Simulator::default();
        let b1 = base_with(&schema, &[("a", "prop1", "b")]);
        let b2 = base_with(&schema, &[("c", "prop1", "d")]);
        let b3 = base_with(&schema, &[("a", "prop1", "b")]); // duplicate of b1
        let mut p1 = PeerNode::simple(PeerId(1), b1, adhoc_config());
        let p2 = PeerNode::simple(PeerId(2), b2, adhoc_config());
        let p3 = PeerNode::simple(PeerId(3), b3, adhoc_config());
        for ad in [
            p1.own_advertisement().unwrap(),
            p2.own_advertisement().unwrap(),
            p3.own_advertisement().unwrap(),
        ] {
            p1.son.registry.register(ad);
        }
        sim.add_node(NodeId(1), p1);
        sim.add_node(NodeId(2), p2);
        sim.add_node(NodeId(3), p3);
        sim.add_node(NodeId(99), PeerNode::client(PeerId(99)));

        let query = compile("SELECT X, Y FROM {X}prop1{Y}", &schema).unwrap();
        pose(&mut sim, NodeId(1), QueryId(7), query);
        sim.run_to_quiescence();

        let outcome = sim
            .node(NodeId(1))
            .unwrap()
            .outcome(QueryId(7))
            .expect("completed")
            .clone();
        // Set semantics: the duplicate row across P1/P3 appears once.
        assert_eq!(outcome.result.len(), 2);
        assert!(!outcome.partial);
    }

    /// §2.3 annotates on `isSubsumed(AS, AQ)` alone
    /// ([`PeerConfig::ROUTING_POLICY`]): with `prop4 ⊑ prop1`, P2's
    /// `prop1` advertisement only generalises `{X}prop4{Y}`, so P2 is
    /// never asked, and the answer is P1's own rows.
    #[test]
    fn generalising_advertisement_is_not_routed_to() {
        let schema = fig1_schema();
        let mut sim: Simulator<PeerNode> = Simulator::default();
        let b1 = base_with(&schema, &[("a", "prop4", "b")]);
        let b2 = base_with(&schema, &[("c", "prop1", "d"), ("e", "prop1", "f")]);
        let query = compile("SELECT X, Y FROM {X}prop4{Y}", &schema).unwrap();
        let p1_rows = sqpeer_rql::evaluate(&query, &b1).sorted();
        let mut p1 = PeerNode::simple(PeerId(1), b1, adhoc_config());
        let p2 = PeerNode::simple(PeerId(2), b2, adhoc_config());
        let p2_ad = p2.own_advertisement().unwrap();
        let kinds: Vec<_> = p2_ad
            .active
            .active_properties()
            .iter()
            .filter_map(|ap| sqpeer_subsume::match_pattern(&schema, ap, &query.patterns()[0]))
            .collect();
        assert_eq!(kinds, [sqpeer_subsume::PatternMatch::GeneralizesQuery]);
        for ad in [p1.own_advertisement().unwrap(), p2_ad] {
            p1.son.registry.register(ad);
        }
        sim.add_node(NodeId(1), p1);
        sim.add_node(NodeId(2), p2);
        sim.add_node(NodeId(99), PeerNode::client(PeerId(99)));
        pose(&mut sim, NodeId(1), QueryId(8), query);
        sim.run_to_quiescence();

        let outcome = sim.node(NodeId(1)).unwrap().outcome(QueryId(8)).unwrap();
        assert_eq!(p1_rows.len(), 1);
        assert_eq!(outcome.result.clone().sorted(), p1_rows);
        assert_eq!(sim.node(NodeId(2)).unwrap().queries_processed, 0);
    }

    /// Top-N routing caps the union fan-out.
    #[test]
    fn routing_limits_cap_fanout() {
        let schema = fig1_schema();
        let mut sim: Simulator<PeerNode> = Simulator::default();
        let config = PeerConfig {
            limits: sqpeer_routing::RoutingLimits::top(1),
            ..adhoc_config()
        };
        let mut p1 = PeerNode::simple(PeerId(1), base_with(&schema, &[]), config);
        // Three peers hold prop1 with different volumes; top(1) must pick
        // the largest and the answer misses the other rows.
        let mut nodes = Vec::new();
        for (i, count) in [(2u32, 1usize), (3, 2), (4, 3)] {
            let triples: Vec<(String, String, String)> = (0..count)
                .map(|j| {
                    (
                        format!("http://p{i}/s{j}"),
                        "prop1".to_string(),
                        format!("http://p{i}/o{j}"),
                    )
                })
                .collect();
            let refs: Vec<(&str, &str, &str)> = triples
                .iter()
                .map(|(a, b, c)| (a.as_str(), b.as_str(), c.as_str()))
                .collect();
            let node = PeerNode::simple(PeerId(i), base_with(&schema, &refs), adhoc_config());
            p1.son.registry.register(node.own_advertisement().unwrap());
            nodes.push((i, node));
        }
        sim.add_node(NodeId(1), p1);
        for (i, node) in nodes {
            sim.add_node(NodeId(i), node);
        }
        sim.add_node(NodeId(99), PeerNode::client(PeerId(99)));
        let query = compile("SELECT X, Y FROM {X}prop1{Y}", &schema).unwrap();
        pose(&mut sim, NodeId(1), QueryId(5), query);
        sim.run_to_quiescence();
        let outcome = sim.node(NodeId(1)).unwrap().outcome(QueryId(5)).unwrap();
        // Only P4's three rows (the largest extent) were fetched.
        assert_eq!(outcome.result.len(), 3);
    }

    /// §2.4 pipelining: streamed batches reassemble into exactly the
    /// single-packet answer, with more (smaller) messages on the wire.
    #[test]
    fn streamed_results_match_single_packet() {
        let schema = fig1_schema();
        let run = |batch: Option<usize>| -> (ResultSet, usize) {
            let mut sim: Simulator<PeerNode> = Simulator::default();
            let mut p1 = PeerNode::simple(PeerId(1), base_with(&schema, &[]), adhoc_config());
            let config = PeerConfig {
                stream_batch_rows: batch,
                ..adhoc_config()
            };
            let mut holder_base = DescriptionBase::new(Arc::clone(&schema));
            let prop1 = schema.property_by_name("prop1").unwrap();
            for i in 0..25 {
                holder_base.insert_described(sqpeer_rdfs::Triple::new(
                    sqpeer_rdfs::Resource::new(format!("http://s/{i}")),
                    prop1,
                    sqpeer_rdfs::Resource::new(format!("http://o/{i}")),
                ));
            }
            let holder = PeerNode::simple(PeerId(2), holder_base, config);
            p1.son
                .registry
                .register(holder.own_advertisement().unwrap());
            sim.add_node(NodeId(1), p1);
            sim.add_node(NodeId(2), holder);
            sim.add_node(NodeId(99), PeerNode::client(PeerId(99)));
            let query = compile("SELECT X, Y FROM {X}prop1{Y}", &schema).unwrap();
            pose(&mut sim, NodeId(1), QueryId(8), query);
            sim.run_to_quiescence();
            let rs = sim
                .node(NodeId(1))
                .unwrap()
                .outcome(QueryId(8))
                .unwrap()
                .result
                .clone()
                .sorted();
            (rs, sim.metrics().total_messages())
        };
        let (single, msgs_single) = run(None);
        let (streamed, msgs_streamed) = run(Some(4));
        assert_eq!(single.len(), 25);
        assert_eq!(single, streamed, "batching must not change the answer");
        assert!(
            msgs_streamed > msgs_single,
            "7 batches beat 1 packet in message count ({msgs_streamed} vs {msgs_single})"
        );
    }

    /// The tentpole claim at unit scale: with per-row evaluation cost,
    /// the first streamed batch leaves while the rest is still being
    /// produced, so root-observed TTFR drops well below the monolithic
    /// answer's — which must wait for the whole result. The per-link
    /// TTFR telemetry histogram observes the same arrival.
    #[test]
    fn streamed_query_cuts_time_to_first_row() {
        let schema = fig1_schema();
        let run = |batch: Option<usize>| {
            let mut sim: Simulator<PeerNode> = Simulator::default();
            sim.enable_telemetry(100_000);
            let mut p1 = PeerNode::simple(PeerId(1), base_with(&schema, &[]), adhoc_config());
            let config = PeerConfig {
                stream_batch_rows: batch,
                processing_us_per_row: 1_000, // 1 ms/row: 25 ms for the lot
                ..adhoc_config()
            };
            let mut holder_base = DescriptionBase::new(Arc::clone(&schema));
            let prop1 = schema.property_by_name("prop1").unwrap();
            for i in 0..25 {
                holder_base.insert_described(sqpeer_rdfs::Triple::new(
                    sqpeer_rdfs::Resource::new(format!("http://s/{i}")),
                    prop1,
                    sqpeer_rdfs::Resource::new(format!("http://o/{i}")),
                ));
            }
            let holder = PeerNode::simple(PeerId(2), holder_base, config);
            p1.son
                .registry
                .register(holder.own_advertisement().unwrap());
            sim.add_node(NodeId(1), p1);
            sim.add_node(NodeId(2), holder);
            sim.add_node(NodeId(99), PeerNode::client(PeerId(99)));
            let query = compile("SELECT X, Y FROM {X}prop1{Y}", &schema).unwrap();
            pose(&mut sim, NodeId(1), QueryId(8), query);
            sim.run_to_quiescence();
            let link_ttfr = sim
                .telemetry()
                .unwrap()
                .link(NodeId(2), NodeId(1))
                .unwrap()
                .ttfr_us
                .clone();
            let outcome = sim
                .node(NodeId(1))
                .unwrap()
                .outcome(QueryId(8))
                .unwrap()
                .clone();
            (outcome, link_ttfr)
        };
        let (single, single_link) = run(None);
        let (streamed, streamed_link) = run(Some(4));
        assert_eq!(
            single.result.clone().sorted(),
            streamed.result.clone().sorted()
        );
        let single_ttfr = single.ttfr_us.expect("rows arrived");
        let streamed_ttfr = streamed.ttfr_us.expect("rows arrived");
        assert!(
            streamed_ttfr < single_ttfr,
            "first batch must beat the monolithic answer ({streamed_ttfr} vs {single_ttfr} µs)"
        );
        assert!(
            streamed_ttfr < streamed.latency_us,
            "a multi-batch stream finishes after its first row"
        );
        // Per-link TTFR telemetry saw exactly one first-packet arrival
        // per run, at the same virtual moment the outcome recorded
        // (minus intake/planning, which precede the dispatch).
        assert_eq!(single_link.count(), 1);
        assert_eq!(streamed_link.count(), 1);
        assert!(streamed_link.sum() < single_link.sum());
    }

    /// Credit-based backpressure: the sender never has more data packets
    /// in flight than its configured window, and the root grants credits
    /// as it drains.
    #[test]
    fn credit_window_bounds_inflight_packets() {
        let schema = fig1_schema();
        let mut sim: Simulator<PeerNode> = Simulator::default();
        let mut p1 = PeerNode::simple(PeerId(1), base_with(&schema, &[]), adhoc_config());
        let config = PeerConfig {
            stream_batch_rows: Some(2), // 25 rows → 13 packets
            stream_credit_window: 2,
            ..adhoc_config()
        };
        let mut holder_base = DescriptionBase::new(Arc::clone(&schema));
        let prop1 = schema.property_by_name("prop1").unwrap();
        for i in 0..25 {
            holder_base.insert_described(sqpeer_rdfs::Triple::new(
                sqpeer_rdfs::Resource::new(format!("http://s/{i}")),
                prop1,
                sqpeer_rdfs::Resource::new(format!("http://o/{i}")),
            ));
        }
        let holder = PeerNode::simple(PeerId(2), holder_base, config);
        p1.son
            .registry
            .register(holder.own_advertisement().unwrap());
        sim.add_node(NodeId(1), p1);
        sim.add_node(NodeId(2), holder);
        sim.add_node(NodeId(99), PeerNode::client(PeerId(99)));
        let query = compile("SELECT X, Y FROM {X}prop1{Y}", &schema).unwrap();
        pose(&mut sim, NodeId(1), QueryId(3), query);
        sim.run_to_quiescence();
        let root = sim.node(NodeId(1)).unwrap();
        assert_eq!(root.outcome(QueryId(3)).unwrap().result.len(), 25);
        let holder = sim.node(NodeId(2)).unwrap();
        assert!(
            holder.max_stream_inflight() <= 2,
            "window 2 exceeded: {} packets in flight",
            holder.max_stream_inflight()
        );
        assert!(
            holder.max_stream_inflight() > 0,
            "the stream never got off the ground"
        );
        // 13 packets; the final one completes the stream and is not
        // credited, every earlier one is.
        assert_eq!(root.credits_granted, 12);
    }

    /// §2.4: data packets piggyback statistics that refresh the root's
    /// registry knowledge.
    #[test]
    fn data_packets_refresh_statistics() {
        let schema = fig1_schema();
        let mut sim: Simulator<PeerNode> = Simulator::default();
        let mut p1 = PeerNode::simple(PeerId(1), base_with(&schema, &[]), adhoc_config());
        let holder = PeerNode::simple(
            PeerId(2),
            base_with(&schema, &[("http://a", "prop1", "http://b")]),
            adhoc_config(),
        );
        // Register the holder's ad WITHOUT statistics.
        let bare = sqpeer_routing::Advertisement::new(
            PeerId(2),
            holder.own_advertisement().unwrap().active,
        );
        assert!(bare.stats.is_none());
        p1.son.registry.register(bare);
        sim.add_node(NodeId(1), p1);
        sim.add_node(NodeId(2), holder);
        sim.add_node(NodeId(99), PeerNode::client(PeerId(99)));
        let query = compile("SELECT X, Y FROM {X}prop1{Y}", &schema).unwrap();
        pose(&mut sim, NodeId(1), QueryId(3), query);
        sim.run_to_quiescence();
        // After the answer streamed back, P1 holds fresh statistics.
        let p1 = sim.node(NodeId(1)).unwrap();
        let stats = p1
            .son
            .registry
            .get(PeerId(2))
            .unwrap()
            .stats
            .as_ref()
            .expect("refreshed");
        let prop1 = schema.property_by_name("prop1").unwrap();
        assert_eq!(stats.property(prop1).triples, 1);
    }

    /// The shared statistics snapshot follows every write: a peer that
    /// serves a subplan after its base changed ships the new counts, not
    /// the snapshot it shipped before.
    #[test]
    fn data_packets_carry_post_write_statistics() {
        let schema = fig1_schema();
        let prop1 = schema.property_by_name("prop1").unwrap();
        let mut sim: Simulator<PeerNode> = Simulator::default();
        let mut p1 = PeerNode::simple(PeerId(1), base_with(&schema, &[]), adhoc_config());
        let holder = PeerNode::simple(
            PeerId(2),
            base_with(&schema, &[("http://a", "prop1", "http://b")]),
            adhoc_config(),
        );
        p1.son
            .registry
            .register(holder.own_advertisement().unwrap());
        sim.add_node(NodeId(1), p1);
        sim.add_node(NodeId(2), holder);
        sim.add_node(NodeId(99), PeerNode::client(PeerId(99)));
        let query = compile("SELECT X, Y FROM {X}prop1{Y}", &schema).unwrap();
        let shipped = |sim: &Simulator<PeerNode>| {
            let root = sim.node(NodeId(1)).unwrap();
            let ad = root.son.registry.get(PeerId(2)).unwrap();
            ad.stats.as_ref().unwrap().property(prop1).triples
        };
        pose(&mut sim, NodeId(1), QueryId(3), query.clone());
        sim.run_to_quiescence();
        assert_eq!(shipped(&sim), 1);

        for i in 0..2 {
            let BaseKind::Materialized(db) = &mut sim.node_mut(NodeId(2)).unwrap().base else {
                unreachable!("the holder has a materialized base");
            };
            let s = Resource::new(format!("http://s/{i}"));
            db.insert_described(Triple::new(s, prop1, Resource::new("http://o")));
            pose(&mut sim, NodeId(1), QueryId(4 + i), query.clone());
            sim.run_to_quiescence();
            let rows = sim.node(NodeId(1)).unwrap().outcome(QueryId(4 + i));
            assert_eq!(rows.unwrap().result.len(), 2 + i as usize);
            assert_eq!(shipped(&sim), 2 + i as usize, "stale after write {i}");
        }
    }

    /// §2.5 slots: a single-slot peer serialises concurrent subplans;
    /// more slots restore parallel service. A single-packet answer holds
    /// its slot for the one-shot processing delay, a paced production
    /// (streamed multi-row answer) until its last batch exists.
    #[test]
    fn slots_serialize_concurrent_subplans() {
        let schema = fig1_schema();
        let run = |slots: usize, batch: Option<usize>, rows: &[(&str, &str, &str)]| -> u64 {
            let mut sim: Simulator<PeerNode> = Simulator::default();
            // Two querying peers share one busy data holder.
            let holder_config = PeerConfig {
                processing_us_per_row: 50_000, // 50 ms/row
                slots: Some(slots),
                stream_batch_rows: batch,
                ..adhoc_config()
            };
            let holder = PeerNode::simple(PeerId(3), base_with(&schema, rows), holder_config);
            let holder_ad = holder.own_advertisement().unwrap();
            for i in [1u32, 2] {
                let mut p = PeerNode::simple(PeerId(i), base_with(&schema, &[]), adhoc_config());
                p.son.registry.register(holder_ad.clone());
                sim.add_node(NodeId(i), p);
            }
            sim.add_node(NodeId(3), holder);
            sim.add_node(NodeId(99), PeerNode::client(PeerId(99)));
            let query = compile("SELECT X, Y FROM {X}prop1{Y}", &schema).unwrap();
            for (qid, origin) in [(QueryId(1), NodeId(1)), (QueryId(2), NodeId(2))] {
                pose(&mut sim, origin, qid, query.clone());
            }
            sim.run_to_quiescence();
            // Latest completion across the two queries.
            [1u32, 2]
                .iter()
                .map(|&i| {
                    sim.node(NodeId(i))
                        .unwrap()
                        .roots
                        .outcomes()
                        .map(|o| o.completed_at_us)
                        .max()
                        .unwrap()
                })
                .max()
                .unwrap()
        };
        let one_row = [("http://a", "prop1", "http://b")];
        let three_rows = [
            ("http://a", "prop1", "http://b"),
            ("http://c", "prop1", "http://d"),
            ("http://e", "prop1", "http://f"),
        ];
        for (batch, rows) in [(None, &one_row[..]), (Some(1), &three_rows[..])] {
            let serialized = run(1, batch, rows);
            let parallel = run(2, batch, rows);
            assert!(
                serialized > parallel,
                "one slot must serialise service ({serialized} vs {parallel}, batch {batch:?})"
            );
        }
    }

    /// §2.5 throughput adaptation: a live-but-slow peer gets abandoned
    /// when its subplan result misses the timeout; a fast replica answers.
    #[test]
    fn slow_channel_timeout_adapts() {
        let schema = fig1_schema();
        let run = |timeout: Option<u64>| -> (usize, u64) {
            let mut sim: Simulator<PeerNode> = Simulator::default();
            let config = PeerConfig {
                subplan_timeout_us: timeout,
                phased: true,
                ..adhoc_config()
            };
            let mut p1 = PeerNode::simple(PeerId(1), base_with(&schema, &[]), config);
            // The slow peer takes ~2 s of processing per row.
            let slow_config = PeerConfig {
                processing_us_per_row: 1_000_000,
                ..adhoc_config()
            };
            let slow = PeerNode::simple(
                PeerId(2),
                base_with(&schema, &[("http://a", "prop1", "http://b")]),
                slow_config,
            );
            let fast = PeerNode::simple(
                PeerId(3),
                base_with(&schema, &[("http://a", "prop1", "http://b")]),
                adhoc_config(),
            );
            // P1 initially knows only the slow holder; the fast replica is
            // discovered at repair time.
            let slow_ad = slow.own_advertisement().unwrap();
            let fast_ad = fast.own_advertisement().unwrap();
            p1.son.registry.register(slow_ad);
            p1.son.registry.register(fast_ad);
            // Make routing prefer the slow peer deterministically by
            // capping to 1 (slow peer wins the tiebreak on PeerId).
            p1.config.limits = sqpeer_routing::RoutingLimits::top(1);
            sim.add_node(NodeId(1), p1);
            sim.add_node(NodeId(2), slow);
            sim.add_node(NodeId(3), fast);
            sim.add_node(NodeId(99), PeerNode::client(PeerId(99)));
            let query = compile("SELECT X, Y FROM {X}prop1{Y}", &schema).unwrap();
            pose(&mut sim, NodeId(1), QueryId(4), query);
            sim.run_to_quiescence();
            let o = sim.node(NodeId(1)).unwrap().outcome(QueryId(4)).unwrap();
            (o.result.len(), o.latency_us)
        };
        let (rows_slow, t_slow) = run(None);
        let (rows_fast, t_fast) = run(Some(200_000)); // 200 ms timeout
        assert_eq!(rows_slow, 1);
        assert_eq!(rows_fast, 1);
        assert!(
            t_fast < t_slow,
            "timeout adaptation must beat waiting for the slow channel \
             ({t_fast} vs {t_slow})"
        );
    }

    /// §2.5 telemetry trigger: with [`PeerConfig::slow_channel`] on, the
    /// root observes the starved channel's throughput and replans
    /// strictly before the timeout would have fired — and the triggering
    /// window is visible in both the trace and the EXPLAIN.
    #[test]
    fn slow_channel_probe_replans_before_timeout() {
        let schema = fig1_schema();
        let run = |slow_channel: bool| -> (usize, u64, Vec<String>, Vec<String>) {
            let mut sim: Simulator<PeerNode> = Simulator::default();
            let config = PeerConfig {
                subplan_timeout_us: Some(2_000_000),
                slow_channel,
                trace: true,
                phased: true,
                ..adhoc_config()
            };
            let mut p1 = PeerNode::simple(PeerId(1), base_with(&schema, &[]), config);
            // The slow peer is alive but starves the channel so badly the
            // whole timeout retry ladder (2 s + 4 s + 8 s backoffs)
            // exhausts before the first byte flows.
            let slow_config = PeerConfig {
                processing_us_per_row: 30_000_000,
                ..adhoc_config()
            };
            let slow = PeerNode::simple(
                PeerId(2),
                base_with(&schema, &[("http://a", "prop1", "http://b")]),
                slow_config,
            );
            let fast = PeerNode::simple(
                PeerId(3),
                base_with(&schema, &[("http://a", "prop1", "http://b")]),
                adhoc_config(),
            );
            let slow_ad = slow.own_advertisement().unwrap();
            let fast_ad = fast.own_advertisement().unwrap();
            p1.son.registry.register(slow_ad);
            p1.son.registry.register(fast_ad);
            p1.config.limits = sqpeer_routing::RoutingLimits::top(1);
            sim.add_node(NodeId(1), p1);
            sim.add_node(NodeId(2), slow);
            sim.add_node(NodeId(3), fast);
            sim.add_node(NodeId(99), PeerNode::client(PeerId(99)));
            let query = compile("SELECT X, Y FROM {X}prop1{Y}", &schema).unwrap();
            pose(&mut sim, NodeId(1), QueryId(4), query);
            sim.run_to_quiescence();
            let p1 = sim.node(NodeId(1)).unwrap();
            let o = p1.outcome(QueryId(4)).unwrap();
            let events: Vec<String> = p1
                .trace_events_for(QueryId(4))
                .iter()
                .map(|e| e.name.to_string())
                .collect();
            let adaptation = p1
                .explain(QueryId(4))
                .map(|e| e.adaptation.clone())
                .unwrap_or_default();
            (o.result.len(), o.latency_us, events, adaptation)
        };
        let (rows_probe, t_probe, events, adaptation) = run(true);
        let (rows_timeout, t_timeout, timeout_events, _) = run(false);
        assert_eq!(rows_probe, 1);
        assert_eq!(rows_timeout, 1);
        assert!(
            t_probe < t_timeout,
            "telemetry trigger must beat the timeout ({t_probe} vs {t_timeout})"
        );
        assert!(
            events.iter().any(|n| n == "exec:slow-channel"),
            "triggering observation missing from trace: {events:?}"
        );
        assert!(
            !timeout_events.iter().any(|n| n == "exec:slow-channel"),
            "no probe configured, yet a slow-channel event fired"
        );
        assert!(
            adaptation
                .iter()
                .any(|l| l.contains("slow channel") && l.contains("B/ms")),
            "triggering window missing from EXPLAIN adaptation log: {adaptation:?}"
        );
    }

    /// Cross-peer trace propagation: the dispatched subplan carries the
    /// root's trace context, the remote records a serve event under the
    /// root's query id, and the stitched tree validates.
    #[test]
    fn remote_serve_events_stitch_into_root_trace() {
        let schema = fig1_schema();
        let mut sim: Simulator<PeerNode> = Simulator::default();
        let config = PeerConfig {
            trace: true,
            ..adhoc_config()
        };
        let b1 = base_with(&schema, &[("a", "prop1", "b")]);
        let b2 = base_with(&schema, &[("b", "prop2", "c")]);
        let mut p1 = PeerNode::simple(PeerId(1), b1, config.clone());
        let p2 = PeerNode::simple(PeerId(2), b2, config);
        let ad1 = p1.own_advertisement().unwrap();
        let ad2 = p2.own_advertisement().unwrap();
        p1.son.registry.register(ad1);
        p1.son.registry.register(ad2);
        sim.add_node(NodeId(1), p1);
        sim.add_node(NodeId(2), p2);
        sim.add_node(NodeId(99), PeerNode::client(PeerId(99)));
        let query = compile("SELECT X, Z FROM {X}prop1{Y}, {Y}prop2{Z}", &schema).unwrap();
        pose(&mut sim, NodeId(1), QueryId(1), query);
        sim.run_to_quiescence();

        let root = sim.node(NodeId(1)).unwrap().trace_events_for(QueryId(1));
        let remote = sim.node(NodeId(2)).unwrap().trace_events_for(QueryId(1));
        assert!(
            remote.iter().any(|e| e.name == "exec:serve"),
            "remote serve event missing: {:?}",
            remote.iter().map(|e| e.name).collect::<Vec<_>>()
        );
        // The serve detail names the dispatching root and its span open
        // time, so tooling can re-parent the stitched node.
        let serve = remote.iter().find(|e| e.name == "exec:serve").unwrap();
        assert!(serve.detail.contains("root P1"), "{}", serve.detail);
        sqpeer_trace::stitched_well_nested(&root, &[remote]).expect("stitched trace well nested");
    }

    /// Phased adaptation reuses completed subplan results instead of
    /// re-fetching them.
    #[test]
    fn phased_adaptation_reuses_results() {
        let schema = fig1_schema();
        let run = |phased: bool| -> (usize, usize) {
            let mut sim: Simulator<PeerNode> = Simulator::default();
            let config = PeerConfig {
                phased,
                ..adhoc_config()
            };
            let mut p1 = PeerNode::simple(PeerId(1), base_with(&schema, &[]), config);
            let survivor = PeerNode::simple(
                PeerId(2),
                base_with(&schema, &[("http://a", "prop1", "http://b")]),
                adhoc_config(),
            );
            let dying = PeerNode::simple(
                PeerId(3),
                base_with(&schema, &[("http://b", "prop2", "http://c")]),
                adhoc_config(),
            );
            let backup = PeerNode::simple(
                PeerId(4),
                base_with(&schema, &[("http://b", "prop2", "http://c")]),
                adhoc_config(),
            );
            for ad in [
                survivor.own_advertisement().unwrap(),
                dying.own_advertisement().unwrap(),
                backup.own_advertisement().unwrap(),
            ] {
                p1.son.registry.register(ad);
            }
            sim.add_node(NodeId(1), p1);
            sim.add_node(NodeId(2), survivor);
            sim.add_node(NodeId(3), dying);
            sim.add_node(NodeId(4), backup);
            sim.add_node(NodeId(99), PeerNode::client(PeerId(99)));
            // P3 dies while the subplans are in flight (before delivery).
            sim.schedule_node_down(30_000, NodeId(3));
            let query = compile("SELECT X, Z FROM {X}prop1{Y}, {Y}prop2{Z}", &schema).unwrap();
            pose(&mut sim, NodeId(1), QueryId(9), query);
            sim.run_to_quiescence();
            let rows = sim
                .node(NodeId(1))
                .unwrap()
                .outcome(QueryId(9))
                .unwrap()
                .result
                .len();
            // How many subqueries the survivor ended up answering: with
            // phased adaptation the second phase reuses its cached result.
            let survivor_load = sim.node(NodeId(2)).unwrap().queries_processed;
            (rows, survivor_load)
        };
        let (rows_discard, load_discard) = run(false);
        let (rows_phased, load_phased) = run(true);
        assert_eq!(rows_discard, 1);
        assert_eq!(rows_phased, 1);
        assert!(
            load_phased < load_discard,
            "phased ({load_phased}) must re-use the survivor's result vs discard ({load_discard})"
        );
    }

    /// A query nobody can answer yields an empty partial answer rather
    /// than hanging.
    #[test]
    fn adhoc_no_peers_is_partial_empty() {
        let schema = fig1_schema();
        let mut sim: Simulator<PeerNode> = Simulator::default();
        let b1 = base_with(&schema, &[("a", "prop1", "b")]);
        let mut p1 = PeerNode::simple(PeerId(1), b1, adhoc_config());
        let ad1 = p1.own_advertisement().unwrap();
        p1.son.registry.register(ad1);
        sim.add_node(NodeId(1), p1);
        sim.add_node(NodeId(99), PeerNode::client(PeerId(99)));

        // prop2 is not in anyone's base.
        let query = compile("SELECT X, Z FROM {X}prop1{Y}, {Y}prop2{Z}", &schema).unwrap();
        pose(&mut sim, NodeId(1), QueryId(2), query);
        sim.run_to_quiescence();

        let outcome = sim
            .node(NodeId(1))
            .unwrap()
            .outcome(QueryId(2))
            .expect("completed")
            .clone();
        assert!(outcome.partial);
        assert!(outcome.result.is_empty());
    }

    /// The latency-derived default subplan timeout is armed out of the
    /// box; when a subplan is silently lost (no failure notification at
    /// all), the timer path fires, retries with backoff, and finally
    /// re-plans, naming the unreachable peer in the outcome.
    #[test]
    fn default_timeout_retries_then_replans_on_silent_loss() {
        assert!(PeerConfig::default().subplan_timeout_us.is_some());
        let schema = fig1_schema();
        let mut sim: Simulator<PeerNode> = Simulator::default();
        // Eat every message on the root → holder link, silently.
        sim.set_fault_plan(sqpeer_net::FaultPlan::new(7).with_link_loss(
            NodeId(1),
            NodeId(2),
            1000,
        ));

        let mut p1 = PeerNode::simple(PeerId(1), base_with(&schema, &[]), adhoc_config());
        let p2 = PeerNode::simple(
            PeerId(2),
            base_with(&schema, &[("a", "prop1", "b")]),
            adhoc_config(),
        );
        p1.son.registry.register(p2.own_advertisement().unwrap());
        sim.add_node(NodeId(1), p1);
        sim.add_node(NodeId(2), p2);
        sim.add_node(NodeId(99), PeerNode::client(PeerId(99)));

        let query = compile("SELECT X, Y FROM {X}prop1{Y}", &schema).unwrap();
        pose(&mut sim, NodeId(1), QueryId(1), query);
        sim.run_to_quiescence();

        let outcome = sim
            .node(NodeId(1))
            .unwrap()
            .outcome(QueryId(1))
            .expect("root gave up with an honest answer")
            .clone();
        assert!(outcome.partial);
        assert_eq!(outcome.missing, vec![PeerId(2)]);
        let m = sim.metrics();
        assert!(m.silent_drops() >= 3, "all attempts eaten: {m:?}");
        assert_eq!(m.retries_sent(), 2);
        assert_eq!(m.timeouts_fired(), 3);
        assert!(m.replans() >= 1);
    }

    /// Idempotent receive: with every message duplicated in flight, each
    /// subplan attempt is evaluated exactly once and the answer is
    /// unchanged.
    #[test]
    fn duplicated_subplans_served_once() {
        let schema = fig1_schema();
        let mut sim: Simulator<PeerNode> = Simulator::default();
        sim.set_fault_plan(sqpeer_net::FaultPlan::new(11).with_duplication(1000));

        let mut p1 = PeerNode::simple(PeerId(1), base_with(&schema, &[]), adhoc_config());
        let p2 = PeerNode::simple(
            PeerId(2),
            base_with(&schema, &[("a", "prop1", "b")]),
            adhoc_config(),
        );
        p1.son.registry.register(p2.own_advertisement().unwrap());
        sim.add_node(NodeId(1), p1);
        sim.add_node(NodeId(2), p2);
        sim.add_node(NodeId(99), PeerNode::client(PeerId(99)));

        let query = compile("SELECT X, Y FROM {X}prop1{Y}", &schema).unwrap();
        pose(&mut sim, NodeId(1), QueryId(3), query);
        sim.run_to_quiescence();

        let outcome = sim
            .node(NodeId(1))
            .unwrap()
            .outcome(QueryId(3))
            .expect("completed")
            .clone();
        assert!(!outcome.partial);
        assert_eq!(outcome.result.len(), 1);
        assert!(outcome.missing.is_empty());
        // The duplicated Subplan was deduplicated at the destination.
        assert_eq!(sim.node(NodeId(2)).unwrap().queries_processed, 1);
        assert!(sim.metrics().duplicates_delivered() >= 1);
    }

    /// Adaptation rounds drop channels and open fresh ones; the root's
    /// channel table stays bounded instead of accumulating one dead entry
    /// per round.
    #[test]
    fn channel_table_stays_bounded_across_adaptation_rounds() {
        let schema = fig1_schema();
        let mut sim: Simulator<PeerNode> = Simulator::default();
        let mut p1 = PeerNode::simple(PeerId(1), base_with(&schema, &[]), adhoc_config());
        // Three holders of prop1, all down before the query arrives.
        let mut holders = Vec::new();
        for i in 2..=4u32 {
            let node = PeerNode::simple(
                PeerId(i),
                base_with(&schema, &[("a", "prop1", "b")]),
                adhoc_config(),
            );
            p1.son.registry.register(node.own_advertisement().unwrap());
            holders.push((i, node));
        }
        sim.add_node(NodeId(1), p1);
        for (i, node) in holders {
            sim.add_node(NodeId(i), node);
        }
        sim.add_node(NodeId(99), PeerNode::client(PeerId(99)));
        for i in 2..=4u32 {
            sim.schedule_node_down(0, NodeId(i));
        }

        let query = compile("SELECT X, Y FROM {X}prop1{Y}", &schema).unwrap();
        pose(&mut sim, NodeId(1), QueryId(9), query);
        sim.run_to_quiescence();

        let p1 = sim.node(NodeId(1)).unwrap();
        let outcome = p1.outcome(QueryId(9)).expect("gave up").clone();
        assert!(outcome.partial);
        assert_eq!(outcome.missing, vec![PeerId(2), PeerId(3), PeerId(4)]);
        // Every round's failed channels were dropped.
        assert_eq!(p1.rooted_channels(), 0);
    }

    /// Lease-bootstrap regression (arm-after-register): an advertisement
    /// seeded into the registry *before* boot gets its full-lease grace
    /// measured from the moment the lease timers are armed — the holder
    /// tombstones a silent peer at exactly arm + lease, not one sweep
    /// period later (the old lazy seeding let the first sweep restart the
    /// clock).
    #[test]
    fn lease_bootstrap_grace_pinned_at_arm() {
        let schema = fig1_schema();
        let lease = 4_000_000u64; // period = lease / 4 = 1s
        let config = PeerConfig {
            ad_lease_us: Some(lease),
            ..adhoc_config()
        };
        let mut sim: Simulator<PeerNode> = Simulator::default();
        let mut p1 = PeerNode::simple(
            PeerId(1),
            base_with(&schema, &[("a", "prop1", "b")]),
            config.clone(),
        );
        // P2's ad is registered before P1 boots; P2 itself is never added
        // to the simulation, so no heartbeat will ever renew it.
        let p2 = PeerNode::simple(
            PeerId(2),
            base_with(&schema, &[("b", "prop2", "c")]),
            config,
        );
        p1.son.registry.register(p2.own_advertisement().unwrap());
        sim.add_node(NodeId(1), p1);

        // The grace holds for the full lease despite zero heartbeats...
        sim.run_until(lease - 100_000);
        let holder = sim.node(NodeId(1)).unwrap();
        assert!(
            holder.son.registry.get(PeerId(2)).is_some(),
            "bootstrap grace must span a full lease"
        );
        assert!(holder.departed_peers().is_empty());

        // ...and expires at the first sweep at/after arm + lease.
        sim.run_until(lease + 100_000);
        let holder = sim.node(NodeId(1)).unwrap();
        assert!(
            holder.son.registry.get(PeerId(2)).is_none(),
            "unrenewed bootstrap ad must expire at arm + lease, not a sweep later"
        );
        assert_eq!(holder.departed_peers(), vec![PeerId(2)]);
    }

    /// Lease-bootstrap regression (restart-during-grace): a holder that
    /// crashes and restarts while a held ad is still in its grace window
    /// re-seeds the deadline from the restart instant — the surviving ad
    /// gets a full lease from recovery, and is swept at exactly
    /// restart + lease when no heartbeat arrives.
    #[test]
    fn lease_restart_during_grace_rearms_full_lease() {
        let schema = fig1_schema();
        let lease = 4_000_000u64;
        let config = PeerConfig {
            ad_lease_us: Some(lease),
            ..adhoc_config()
        };
        let mut sim: Simulator<PeerNode> = Simulator::default();
        let mut p1 = PeerNode::simple(
            PeerId(1),
            base_with(&schema, &[("a", "prop1", "b")]),
            config.clone(),
        );
        let p2 = PeerNode::simple(
            PeerId(2),
            base_with(&schema, &[("b", "prop2", "c")]),
            config,
        );
        p1.son.registry.register(p2.own_advertisement().unwrap());
        sim.add_node(NodeId(1), p1);
        // Crash mid-grace (the registry is durable, the deadlines are
        // volatile) and restart half a second later.
        let restart_at = 2_500_000u64;
        sim.schedule_silent_crash(2_000_000, NodeId(1));
        sim.schedule_silent_restart(restart_at, NodeId(1));

        sim.run_until(restart_at + lease - 100_000);
        let holder = sim.node(NodeId(1)).unwrap();
        assert!(
            holder.son.registry.get(PeerId(2)).is_some(),
            "restart must re-grant a full grace from the restart instant"
        );

        sim.run_until(restart_at + lease + 100_000);
        let holder = sim.node(NodeId(1)).unwrap();
        assert!(
            holder.son.registry.get(PeerId(2)).is_none(),
            "post-restart grace must end at restart + lease, not a sweep later"
        );
        assert_eq!(holder.departed_peers(), vec![PeerId(2)]);
    }

    /// Arms every [`Timer`] kind and checks the names `model::conform`
    /// selects timers by and which of them re-arm, then that a restart
    /// forgets every timer except the periodic ones `on_restart` re-arms.
    #[test]
    fn timer_table_names_every_kind_and_restart_keeps_only_periodic() {
        let schema = fig1_schema();
        let config = PeerConfig {
            ad_lease_us: Some(4_000_000),
            obs: Some(crate::obs::ObsConfig::default()),
            ..adhoc_config()
        };
        let mut node = PeerNode::simple(
            PeerId(1),
            base_with(&schema, &[("a", "prop1", "b")]),
            config,
        );
        let mut ctx = Ctx::detached(0, NodeId(1));
        // Boot arms the periodic three: heartbeat and sweep (an ad-hoc data
        // peer both advertises and holds advertisements), then obs.
        node.on_start(&mut ctx);
        let key: StreamKey = (PeerId(2), QueryId(1), 0);
        node.arm(&mut ctx, 1, Timer::HierGather(QueryId(1)));
        let root = Completion::Root { qid: QueryId(1) };
        let held = Timer::Completion(root, ResultSet::default(), false);
        node.arm(&mut ctx, 1, held);
        node.arm(&mut ctx, 1, Timer::Production(key));
        node.arm(&mut ctx, 1, Timer::Probe(0));
        node.arm(&mut ctx, 1, Timer::Timeout(vec![0]));
        let kinds = |node: &PeerNode, ctx: Ctx<Msg>| -> Vec<&'static str> {
            let timers = ctx.into_effects().timers;
            timers.iter().map(|&(_, id)| node.timer_kind(id)).collect()
        };
        assert_eq!(
            kinds(&node, ctx),
            [
                "heartbeat",
                "sweep",
                "obs",
                "hier-gather",
                "completion",
                "production",
                "probe",
                "timeout"
            ]
        );
        assert_eq!(node.timer_kind(8), "unknown");
        assert_eq!(node.timers.values().filter(|t| t.holds_slot()).count(), 2);
        let periodic: Vec<bool> = (0..9).map(|id| node.timer_periodic(id)).collect();
        assert_eq!(
            periodic,
            [true, true, true, false, false, false, false, false, false]
        );

        let mut ctx = Ctx::detached(10, NodeId(1));
        node.on_restart(&mut ctx);
        assert_eq!(kinds(&node, ctx), ["heartbeat", "sweep", "obs"]);
        assert_eq!(node.timers.len(), 3, "pre-crash timers are forgotten");
        assert!((8..11).all(|id| node.timer_periodic(id)));
        assert!((0..8).all(|id| node.timer_kind(id) == "unknown"));
    }

    /// `Credit::credits`, `Data::qid` and `SubplanFailed::qid` are chosen
    /// by the remote peer: a frame that over-grants or names another
    /// query's tag must neither panic (debug builds included) nor disturb
    /// the stream or frame it points at.
    #[test]
    fn remote_chosen_credit_and_qid_are_not_trusted() {
        let schema = fig1_schema();
        let streaming = PeerConfig {
            stream_batch_rows: Some(1),
            stream_credit_window: 2,
            ..adhoc_config()
        };
        let rows: Vec<(String, String)> =
            (0..5).map(|i| (format!("a{i}"), format!("b{i}"))).collect();
        let triples: Vec<(&str, &str, &str)> = rows
            .iter()
            .map(|(a, b)| (a.as_str(), "prop1", b.as_str()))
            .collect();
        let mut holder = PeerNode::simple(PeerId(2), base_with(&schema, &triples), streaming);
        let mut root = PeerNode::simple(PeerId(1), base_with(&schema, &[]), adhoc_config());
        root.son
            .registry
            .register(holder.own_advertisement().unwrap());

        // Root dispatches tag 0 of query 1 to the holder…
        let mut ctx = Ctx::detached(0, NodeId(1));
        let query = compile("SELECT X, Y FROM {X}prop1{Y}", &schema).unwrap();
        let qid = QueryId(1);
        root.on_message(&mut ctx, NodeId(99), Msg::ClientQuery { qid, query });
        let mut outbox = ctx.into_effects().outbox;
        let (to, subplan, _) = outbox.pop().expect("one subplan dispatched");
        assert_eq!(to, NodeId(2));
        // …which starts a 5-packet stream with 2 packets in flight.
        let mut ctx = Ctx::detached(0, NodeId(2));
        holder.on_message(&mut ctx, NodeId(1), subplan);
        let mut data = ctx.into_effects().outbox;
        assert_eq!(data.len(), 2);
        let key: StreamKey = (PeerId(1), qid, 0);
        let (channel, _, _) = holder.serve.stream(&key);

        // An absurd grant empties the window and no more: two further
        // packets leave, exactly as for a grant of the whole window.
        let mut ctx = Ctx::detached(0, NodeId(2));
        let credits = u32::MAX;
        let credit = Msg::Credit {
            channel,
            qid,
            tag: 0,
            credits,
        };
        holder.on_message(&mut ctx, NodeId(1), credit);
        data.extend(ctx.into_effects().outbox);
        assert_eq!(data.len(), 4);
        let (_, inflight, next_seq) = holder.serve.stream(&key);
        assert_eq!((inflight, next_seq), (2, 4));
        assert_eq!(holder.max_stream_inflight(), 2);

        // A data packet carrying tag 0 under a foreign query id is dropped
        // before ingestion (were it ingested, its `last` flag would close
        // the stream after one row), and so is a `SubplanFailed` naming
        // the live tag under a foreign query id: no credit, the pending
        // entry and its frame slot untouched.
        let Msg::Data { result, .. } = &data[0].1 else {
            panic!("holder streams Data packets");
        };
        let forged = Msg::Data {
            channel,
            qid: QueryId(777),
            tag: 0,
            result: result.clone(),
            partial: false,
            stats: None,
            seq: 0,
            last: true,
        };
        let refusal = Msg::SubplanFailed {
            channel,
            qid: QueryId(777),
            tag: 0,
        };
        for forged in [forged, refusal] {
            let mut ctx = Ctx::detached(0, NodeId(1));
            root.on_message(&mut ctx, NodeId(2), forged);
            assert!(ctx.into_effects().outbox.is_empty());
            assert!(root
                .frames
                .slots()
                .all(|slots| slots.iter().all(Option::is_none)));
            assert!(root.roots.outcomes().next().is_none());
        }

        // The stream the forgeries pointed at runs to its complete answer.
        let mut to_root: VecDeque<Msg> = data.into_iter().map(|(_, msg, _)| msg).collect();
        while let Some(packet) = to_root.pop_front() {
            let mut ctx = Ctx::detached(0, NodeId(1));
            root.on_message(&mut ctx, NodeId(2), packet);
            for (to, credit, _) in ctx.into_effects().outbox {
                if to == NodeId(2) {
                    let mut ctx = Ctx::detached(0, NodeId(2));
                    holder.on_message(&mut ctx, NodeId(1), credit);
                    to_root.extend(ctx.into_effects().outbox.into_iter().map(|(_, msg, _)| msg));
                }
            }
        }
        let outcome = root.outcome(qid).expect("the real stream completed");
        assert!(!outcome.partial);
        assert_eq!(outcome.result.len(), 5);
    }

    /// A refused subplan (`SubplanFailed`) takes the road every lost
    /// subplan takes: under static execution the root names the refusing
    /// peer missing and forgets the channel towards it.
    #[test]
    fn refused_subplan_is_lost_like_any_other() {
        let schema = fig1_schema();
        let config = PeerConfig {
            adaptive: false,
            ..adhoc_config()
        };
        let holder = PeerNode::simple(
            PeerId(2),
            base_with(&schema, &[("a", "prop1", "b")]),
            config.clone(),
        );
        let mut root = PeerNode::simple(PeerId(1), base_with(&schema, &[]), config);
        root.son
            .registry
            .register(holder.own_advertisement().unwrap());
        let mut ctx = Ctx::detached(0, NodeId(1));
        let query = compile("SELECT X, Y FROM {X}prop1{Y}", &schema).unwrap();
        let qid = QueryId(1);
        root.on_message(&mut ctx, NodeId(99), Msg::ClientQuery { qid, query });
        let (_, subplan, _) = ctx.into_effects().outbox.pop().expect("one subplan");
        let Msg::Subplan { channel, tag, .. } = subplan else {
            panic!("root dispatches a Subplan");
        };
        assert_eq!(root.rooted_channels(), 1);

        let mut ctx = Ctx::detached(0, NodeId(1));
        root.on_message(
            &mut ctx,
            NodeId(2),
            Msg::SubplanFailed { channel, qid, tag },
        );
        let outcome = root.outcome(qid).expect("the lost slot completes the plan");
        assert!(outcome.partial);
        assert_eq!(outcome.missing, vec![PeerId(2)]);
        assert_eq!(root.rooted_channels(), 0);
        assert_eq!(root.frames.slots().count(), 0);
    }

    /// A lost subplan's slot is filled with an empty table under the
    /// shipped plan's columns: by static execution, and by phased repair
    /// when nobody else holds the lost fragment.
    #[test]
    fn lost_subplan_leaves_an_empty_slot_under_the_plan_columns() {
        let schema = fig1_schema();
        for (adaptive, phased) in [(false, false), (true, true)] {
            let config = PeerConfig {
                adaptive,
                phased,
                ..adhoc_config()
            };
            let peer = |id, triples: &[(&str, &str, &str)]| {
                PeerNode::simple(PeerId(id), base_with(&schema, triples), config.clone())
            };
            let mut root = peer(1, &[]);
            for holder in [
                peer(2, &[("a", "prop1", "b")]),
                peer(3, &[("b", "prop2", "c")]),
            ] {
                let ad = holder.own_advertisement().unwrap();
                root.son.registry.register(ad);
            }
            let (sent, _) = pose_chain(&mut root);
            let shipped = sent.into_iter().find_map(|(to, msg)| match msg {
                Msg::Subplan {
                    channel, tag, plan, ..
                } if to == PeerId(2) => Some((channel, tag, plan)),
                _ => None,
            });
            let (channel, tag, plan) = shipped.expect("a subplan for P2");
            let qid = QueryId(1);
            hand(
                &mut root,
                PeerId(2),
                Msg::SubplanFailed { channel, qid, tag },
            );

            let frame = root.frames.slots().next().expect("P3's slot keeps it open");
            let filled: Vec<&ResultSet> = frame.iter().flatten().collect();
            assert_eq!(filled.len(), 1, "adaptive={adaptive}");
            assert!(filled[0].is_empty());
            assert_eq!(*filled[0].columns, ["X", "Y"]);
            assert_eq!(filled[0].columns, plan_columns(&plan));
        }
    }

    /// A plan that is one shipped fetch opens no frame: the holder's
    /// stream answers the root itself, and its first batch stamps the
    /// time to first row before the stream completes.
    #[test]
    fn a_one_fetch_plan_completes_its_root_from_the_stream() {
        let schema = fig1_schema();
        let mut sim: Simulator<PeerNode> = Simulator::default();
        let mut root = PeerNode::simple(PeerId(1), base_with(&schema, &[]), adhoc_config());
        let config = PeerConfig {
            stream_batch_rows: Some(4),
            processing_us_per_row: 1_000,
            ..adhoc_config()
        };
        let mut base = DescriptionBase::new(Arc::clone(&schema));
        let prop1 = schema.property_by_name("prop1").unwrap();
        for i in 0..25 {
            let (s, o) = (format!("http://s/{i}"), format!("http://o/{i}"));
            base.insert_described(Triple::new(Resource::new(s), prop1, Resource::new(o)));
        }
        let holder = PeerNode::simple(PeerId(2), base, config);
        root.son
            .registry
            .register(holder.own_advertisement().unwrap());
        sim.add_node(NodeId(1), root);
        sim.add_node(NodeId(2), holder);
        sim.add_node(NodeId(99), PeerNode::client(PeerId(99)));
        let query = compile("SELECT X, Y FROM {X}prop1{Y}", &schema).unwrap();
        pose(&mut sim, NodeId(1), QueryId(8), query);
        let (mut dispatched, mut streaming) = (false, false);
        while sim.run(1) > 0 {
            let root = sim.node(NodeId(1)).unwrap();
            assert_eq!(
                root.frames.slots().count(),
                0,
                "no frame at t={}",
                sim.now_us()
            );
            let stamped = root.roots.first_row_at(QueryId(8)).is_some();
            let answered = root.outcome(QueryId(8)).is_some();
            dispatched |= root.rooted_channels() == 1 && !answered;
            streaming |= stamped && !answered;
        }
        assert!(dispatched && streaming, "the subplan streamed in flight");
        let outcome = sim.node(NodeId(1)).unwrap().outcome(QueryId(8)).unwrap();
        assert_eq!((outcome.result.len(), outcome.partial), (25, false));
        let ttfr_us = outcome.ttfr_us.expect("rows arrived");
        assert!(
            ttfr_us < outcome.latency_us,
            "{ttfr_us} vs {}",
            outcome.latency_us
        );
    }

    /// A shipped fetch lost under a root join fills that join's own slot:
    /// statically with an empty partial table, under phased repair with
    /// the repaired fragment (a replica the root learnt of after planning).
    /// The join is the only frame the root ever holds.
    #[test]
    fn a_lost_fetch_fills_its_join_slot_directly() {
        let schema = fig1_schema();
        for phased in [false, true] {
            let config = PeerConfig {
                adaptive: phased,
                phased,
                ..adhoc_config()
            };
            let peer = |id, triples: &[(&str, &str, &str)]| {
                PeerNode::simple(PeerId(id), base_with(&schema, triples), config.clone())
            };
            let mut root = peer(1, &[]);
            let (lost, slow) = (
                peer(2, &[("a", "prop1", "b")]),
                peer(3, &[("b", "prop2", "c")]),
            );
            let replica = peer(4, &[("a", "prop1", "b")]);
            for holder in [&lost, &slow] {
                root.son
                    .registry
                    .register(holder.own_advertisement().unwrap());
            }
            let late_ad = replica.own_advertisement().unwrap();
            let mut sim: Simulator<PeerNode> = Simulator::default();
            for (id, node) in [(1, root), (2, lost), (3, slow), (4, replica)] {
                sim.add_node(NodeId(id), node);
            }
            sim.add_node(NodeId(99), PeerNode::client(PeerId(99)));
            // P2 is down before its subplan lands; P3 answers late.
            sim.schedule_node_down(1, NodeId(2));
            let slow_link = sqpeer_net::LinkSpec {
                latency_us: 500_000,
                ..Default::default()
            };
            sim.set_link(NodeId(1), NodeId(3), slow_link);
            let query = compile("SELECT X, Z FROM {X}prop1{Y}, {Y}prop2{Z}", &schema).unwrap();
            pose(&mut sim, NodeId(1), QueryId(1), query);
            while sim.node(NodeId(1)).unwrap().rooted_channels() < 2 {
                assert!(sim.run(1) > 0, "the root ships both fetches");
            }
            let root = sim.node_mut(NodeId(1)).unwrap();
            root.son.registry.register(late_ad);
            let filled = loop {
                assert!(sim.run(1) > 0, "P2's slot fills before P3 answers");
                let root = sim.node(NodeId(1)).unwrap();
                let frames: Vec<_> = root.frames.slots().collect();
                assert_eq!(frames.len(), 1, "the join's frame alone");
                if let [Some(filled), None] | [None, Some(filled)] = frames[0] {
                    break filled.clone();
                }
            };
            assert_eq!(*filled.columns, ["X", "Y"]);
            assert_eq!(filled.len(), usize::from(phased), "phased={phased}");
            sim.run_to_quiescence();
            let outcome = sim.node(NodeId(1)).unwrap().outcome(QueryId(1)).unwrap();
            assert_eq!(outcome.result.len(), usize::from(phased));
            assert_eq!(
                (outcome.partial, &outcome.missing[..]),
                (true, &[PeerId(2)][..])
            );
        }
    }

    /// An intermediate that cannot fill a hole forwards it with no frame
    /// open, and passes each row of the stream that answers it on to the
    /// root once. A forwarded hole is a hole-filler: its rows go on when
    /// it answers, not batch by batch.
    #[test]
    fn a_forwarded_hole_answers_its_channel_without_a_frame() {
        let schema = fig1_schema();
        let config = PeerConfig {
            stream_batch_rows: Some(2),
            stream_credit_window: 8,
            ..adhoc_config()
        };
        let mut p2 = PeerNode::simple(PeerId(2), base_with(&schema, &[]), config);
        let query = compile("SELECT X, Z FROM {X}prop1{Y}, {Y}prop2{Z}", &schema).unwrap();
        let fragment = |i: usize, site| PlanNode::Fetch {
            subquery: Subquery {
                covers: 1 << i,
                query: single_pattern_subquery(&query, i, &query.patterns()[i]),
            },
            site,
        };
        let plan = PlanNode::Join {
            inputs: vec![fragment(0, Site::Hole), fragment(1, Site::Peer(PeerId(3)))],
            site: None,
        };
        let qid = QueryId(5);
        let subplan = Msg::Subplan {
            channel: ChannelTable::new().channel_to(PeerId(1), PeerId(2)),
            qid,
            tag: 0,
            plan,
            visited: vec![PeerId(1)],
            attempt: 0,
            trace: None,
        };
        let (sent, _) = hand(&mut p2, PeerId(1), subplan);
        let [(
            PeerId(3),
            Msg::Subplan {
                channel,
                tag,
                visited,
                ..
            },
        )] = &sent[..]
        else {
            panic!("one subplan forwarded to P3: {sent:?}");
        };
        assert_eq!(visited, &[PeerId(1), PeerId(2)]);
        assert_eq!(p2.frames.slots().count(), 0);
        let node = |r: String| sqpeer_rdfs::Node::Resource(Resource::new(r));
        let rows: Vec<Vec<_>> = (0..6)
            .map(|i| vec![node(format!("x{i}")), node(format!("z{i}"))])
            .collect();
        let (mut to_root, mut credits) = (Vec::new(), 0);
        for (seq, batch) in rows.chunks(2).enumerate() {
            let data = Msg::Data {
                channel: *channel,
                qid,
                tag: *tag,
                result: ResultSet::from_rows(vec!["X".into(), "Z".into()], batch.to_vec()),
                partial: false,
                stats: None,
                seq: seq as u32,
                last: seq == 2,
            };
            for (to, msg) in hand(&mut p2, PeerId(3), data).0 {
                match (to, msg) {
                    (PeerId(3), Msg::Credit { .. }) => credits += 1,
                    (PeerId(1), Msg::Data { result, .. }) if seq == 2 => {
                        to_root.extend(result.rows.iter().map(|r| format!("{r:?}")))
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert_eq!(credits, 2, "one per packet of the open stream");
        assert_eq!(p2.frames.slots().count(), 0);
        let mut expected: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
        to_root.sort();
        expected.sort();
        assert_eq!(to_root, expected, "each row once");
    }

    /// Hands `msg` from `from` to `node` off-network; returns what it sent
    /// and the ids of the timers it armed.
    fn hand(node: &mut PeerNode, from: PeerId, msg: Msg) -> (Vec<(PeerId, Msg)>, Vec<u64>) {
        let mut ctx = Ctx::detached(0, node_of(node.id));
        node.on_message(&mut ctx, node_of(from), msg);
        let effects = ctx.into_effects();
        let sent = effects.outbox.into_iter();
        let sent = sent.map(|(to, msg, _)| (peer_of(to), msg)).collect();
        (sent, effects.timers.into_iter().map(|(_, id)| id).collect())
    }

    /// The chain query's root, P1, over contributors P2 and P3 holding
    /// `(b, prop2, c)` and `(b, prop2, d)`, with every advertisement
    /// registered at P1 and the query not yet posed.
    fn chain_trio(config: PeerConfig) -> (PeerNode, PeerNode, PeerNode) {
        let schema = fig1_schema();
        let peer = |id, triples: &[(&str, &str, &str)]| {
            PeerNode::simple(PeerId(id), base_with(&schema, triples), config.clone())
        };
        let mut p1 = peer(1, &[("a", "prop1", "b")]);
        let (p2, p3) = (
            peer(2, &[("b", "prop2", "c")]),
            peer(3, &[("b", "prop2", "d")]),
        );
        for ad in [&p1, &p2, &p3].map(|p| p.own_advertisement().unwrap()) {
            p1.son.registry.register(ad);
        }
        (p1, p2, p3)
    }

    /// Poses the chain query at `root` as client-peer 99.
    fn pose_chain(root: &mut PeerNode) -> (Vec<(PeerId, Msg)>, Vec<u64>) {
        let query = compile("SELECT X, Z FROM {X}prop1{Y}, {Y}prop2{Z}", &fig1_schema());
        let query = query.unwrap();
        hand(
            root,
            PeerId(99),
            Msg::ClientQuery {
                qid: QueryId(1),
                query,
            },
        )
    }

    /// The digest reads maps in sorted order: two contributors' answers
    /// reaching the root in either order leave it in one state.
    #[test]
    fn digest_is_independent_of_the_order_of_independent_deliveries() {
        let (mut first, mut p2, mut p3) = chain_trio(adhoc_config());
        let (mut second, _, _) = chain_trio(adhoc_config());
        let (subplans, _) = pose_chain(&mut first);
        assert_eq!(pose_chain(&mut second).0.len(), 2);
        let mut answers = Vec::new();
        for (to, subplan) in subplans {
            let holder = if to == PeerId(2) { &mut p2 } else { &mut p3 };
            answers.push((to, hand(holder, PeerId(1), subplan).0.remove(0).1));
        }
        let posed = first.digest(0);
        for (from, answer) in answers.iter().cloned() {
            hand(&mut first, from, answer);
        }
        for (from, answer) in answers.into_iter().rev() {
            hand(&mut second, from, answer);
        }
        assert!(first
            .outcome(QueryId(1))
            .is_some_and(|o| o.result.len() == 2));
        assert_eq!(first.digest(0), second.digest(0));
        assert_ne!(first.digest(0), posed);
    }

    /// A retry changes nothing at the root but the subplan's attempt — and
    /// the digest tells the two states apart.
    #[test]
    fn digest_tells_a_retry_from_the_first_attempt() {
        let config = PeerConfig {
            subplan_timeout_us: Some(1_000),
            subplan_retries: 1,
            ..adhoc_config()
        };
        let (mut root, _, _) = chain_trio(config);
        let (_, timeouts) = pose_chain(&mut root);
        let first = root.digest(0);
        let mut ctx = Ctx::detached(1_000, node_of(root.id));
        root.on_timer(&mut ctx, timeouts[0]);
        let resent = ctx.into_effects().outbox;
        assert!(matches!(
            resent[..],
            [
                (_, Msg::Subplan { attempt: 1, .. }, _),
                (_, Msg::Subplan { attempt: 1, .. }, _)
            ]
        ));
        assert_ne!(root.digest(0), first);
    }

    /// A fan-out arms one timeout timer for all its subplans. Firing it
    /// resends every unanswered subplan, in the order they were shipped,
    /// and nothing for an answered one; the resends again share a timer.
    #[test]
    fn a_fan_out_arms_one_timeout_that_resends_the_unanswered_in_order() {
        let schema = fig1_schema();
        let config = PeerConfig {
            subplan_timeout_us: Some(1_000),
            subplan_retries: 1,
            ..adhoc_config()
        };
        let peer = |id, object: &str| {
            let triples: &[(&str, &str, &str)] = match id {
                1 => &[("a", "prop1", "b")],
                _ => &[("b", "prop2", object)],
            };
            PeerNode::simple(PeerId(id), base_with(&schema, triples), config.clone())
        };
        let mut root = peer(1, "");
        let mut holders: Vec<PeerNode> = ["c", "d", "e", "f"]
            .iter()
            .enumerate()
            .map(|(i, object)| peer(i as u32 + 2, object))
            .collect();
        for ad in std::iter::once(&root)
            .chain(&holders)
            .map(|p| p.own_advertisement().unwrap())
            .collect::<Vec<_>>()
        {
            root.son.registry.register(ad);
        }
        let (shipped, timers) = pose_chain(&mut root);
        let tag = |msg: &Msg| match msg {
            Msg::Subplan { tag, .. } => *tag,
            other => panic!("a subplan, not {other:?}"),
        };
        assert_eq!(shipped.len(), 4);
        assert_eq!(timers.len(), 1, "one timer for the fan-out");
        assert_eq!(root.timer_kind(timers[0]), "timeout");
        let answered = shipped[1].clone();
        let holder = &mut holders[answered.0 .0 as usize - 2];
        let (answer, _) = hand(holder, PeerId(1), answered.1.clone());
        hand(&mut root, answered.0, answer[0].1.clone());

        let mut ctx = Ctx::detached(1_000, node_of(root.id));
        root.on_timer(&mut ctx, timers[0]);
        let effects = ctx.into_effects();
        let resent: Vec<(NodeId, u64)> = (effects.outbox.iter())
            .map(|(to, msg, _)| (*to, tag(msg)))
            .collect();
        let unanswered: Vec<(NodeId, u64)> = (shipped.iter())
            .filter(|(to, _)| *to != answered.0)
            .map(|(to, msg)| (node_of(*to), tag(msg)))
            .collect();
        assert_eq!(resent, unanswered);
        assert!(resent.windows(2).all(|w| w[0].1 < w[1].1), "arm order");
        assert!(effects
            .outbox
            .iter()
            .all(|(_, msg, _)| matches!(msg, Msg::Subplan { attempt: 1, .. })));
        assert_eq!(effects.timers.len(), 1, "the retries share one timer");
    }

    /// The answer forgets what its query still has in flight: once the
    /// first complete filler of a race has answered, the loser's answer is
    /// lost and its timeout resends nothing.
    #[test]
    fn the_answer_abandons_the_losing_race_filler() {
        let schema = fig1_schema();
        let config = PeerConfig {
            subplan_timeout_us: Some(1_000),
            subplan_retries: 1,
            ..adhoc_config()
        };
        let peer = |id, triples: &[(&str, &str, &str)]| {
            PeerNode::simple(PeerId(id), base_with(&schema, triples), config.clone())
        };
        // Nobody the root knows holds `prop1`: the plan has a hole, and
        // the root races the two `prop2` holders to fill it.
        let mut root = peer(1, &[]);
        for holder in [
            peer(2, &[("b", "prop2", "c")]),
            peer(3, &[("b", "prop2", "d")]),
        ] {
            root.son
                .registry
                .register(holder.own_advertisement().unwrap());
        }
        let (shipped, timers) = pose_chain(&mut root);
        let data = |(to, msg): &(PeerId, Msg), object: &str| {
            let Msg::Subplan { channel, tag, .. } = msg else {
                panic!("a subplan, not {msg:?}");
            };
            let columns = vec!["X".to_string(), "Z".to_string()];
            let node = |r| sqpeer_rdfs::Node::Resource(Resource::new(r));
            let row = vec![node("a"), node(object)];
            let answer = Msg::Data {
                channel: *channel,
                qid: QueryId(1),
                tag: *tag,
                result: ResultSet::from_rows(columns, vec![row]),
                partial: false,
                stats: None,
                seq: 0,
                last: true,
            };
            (*to, answer)
        };
        assert_eq!(shipped.len(), 2, "{shipped:?}");
        let (winner, loser) = (data(&shipped[0], "c"), data(&shipped[1], "d"));
        hand(&mut root, winner.0, winner.1);
        let outcome = root.outcome(QueryId(1)).expect("the winner answers");
        let answer = format!("{:?}", outcome.result);
        assert_eq!(outcome.result.len(), 1);

        for timer in timers {
            let mut ctx = Ctx::detached(1_000, node_of(root.id));
            root.on_timer(&mut ctx, timer);
            assert!(
                ctx.into_effects().outbox.is_empty(),
                "a retry after the answer"
            );
        }
        let (sent, armed) = hand(&mut root, loser.0, loser.1);
        assert!(sent.is_empty() && armed.is_empty());
        let outcome = root.outcome(QueryId(1)).expect("still answered");
        assert_eq!(format!("{:?}", outcome.result), answer);
    }

    /// Lease deadlines enter the digest as the time they have left: a peer
    /// armed a second later is the same state a second later, and not the
    /// same state at the same instant.
    #[test]
    fn digest_reads_lease_deadlines_relative_to_now() {
        let config = PeerConfig {
            ad_lease_us: Some(4_000_000),
            ..adhoc_config()
        };
        let (mut early, mut late) = (chain_trio(config.clone()).0, chain_trio(config).0);
        early.on_start(&mut Ctx::detached(0, NodeId(1)));
        late.on_start(&mut Ctx::detached(1_000_000, NodeId(1)));
        assert_eq!(early.son.lease_deadlines().len(), 2, "P2's and P3's ads");
        assert_eq!(early.digest(0), late.digest(1_000_000));
        assert_ne!(early.digest(0), late.digest(0));
    }

    /// Tracing is left out: the same run with the recorder on and off
    /// ends in the same digests at every peer.
    #[test]
    fn digest_ignores_the_tracer() {
        let digests = |trace| {
            let (mut p1, mut p2, mut p3) = chain_trio(PeerConfig {
                trace,
                ..adhoc_config()
            });
            let (subplans, _) = pose_chain(&mut p1);
            for (to, subplan) in subplans {
                let holder = if to == PeerId(2) { &mut p2 } else { &mut p3 };
                let (answer, _) = hand(holder, PeerId(1), subplan);
                hand(&mut p1, to, answer[0].1.clone());
            }
            assert!(p1.outcome(QueryId(1)).is_some());
            [p1.digest(0), p2.digest(0), p3.digest(0)]
        };
        assert_eq!(digests(true), digests(false));
    }
}
