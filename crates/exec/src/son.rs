//! What a peer knows about its SON, and how it keeps knowing it.
//!
//! The paper separates a peer's *knowledge* of the semantic overlay —
//! §2.2 advertisements, §3.1 super-peer registries and the backbone,
//! §3.2 pulled neighbourhoods — from how it runs a query over that
//! knowledge (§2.4 channels, §2.5 adaptation). [`Directory`] is the
//! knowledge half, one owner for:
//!
//! * **the advertisement registry and its leases** — an advertisement is
//!   learnt, renewed, withdrawn, tombstoned or restored, and a flat
//!   super-peer replicates what it learnt first-hand over the backbone;
//! * **cluster summaries** of a hierarchical SON — monotone merges pushed
//!   member → head → other heads;
//! * **routing requests** — the flat backbone walk with its relay table
//!   (§3.1), and the tree descent:
//!
//!   ```text
//!   entry super-peer  --Global-->  its head
//!   head              --Local--->  member super-peers whose summary intersects
//!   head              --Cluster->  sibling heads whose summary intersects
//!   every node answers its requester once all its subtrees answered,
//!   timed out (named missing) or proved unreachable; a dead head
//!   re-parents the cluster and degrades that query to a flat `Local`
//!   scatter over every super-peer.
//!   ```
//!
//!   A head remembers each child's last answer to a query and does not
//!   ask again until that child pushes a summary (the gather memo).
//!
//! It sends through the same [`Ctx`] the peer does (a [`Ctx::detached`]
//! is a network-free effects sink, which is what the unit tests below
//! drive it with), is told the time by that context and its own identity
//! at construction, and hands any delay it needs armed back to its caller
//! — the timer table is the peer's. It knows nothing of rooted queries,
//! frames, channels or streams: the query plane reads the registry and
//! the tombstones, lends its router for the annotations a routing
//! request needs (`Route`), and takes over a `RouteResponse` that no
//! relay claims.

use crate::msg::{HierScope, Msg, QueryId};
use crate::peer::{by_key, PeerConfig, PeerMode, Role};
use crate::send;
use sqpeer_cache::CostLru;
use sqpeer_net::{Ctx, PatternStats};
use sqpeer_rdfs::{FxHashMap, FxHashSet};
use sqpeer_routing::{
    route_limited, AdRegistry, Advertisement, AnnotatedQuery, PeerId, RoutingLimits,
};
use sqpeer_rql::QueryPattern;
use sqpeer_rvl::ActiveSchema;
use sqpeer_store::BaseStatistics;

/// A super-peer's position in a hierarchical (nested) SON: the flat
/// backbone is partitioned into clusters, each with a designated head.
/// Heads summarise their members' advertisements and exchange those
/// summaries with the other heads, so routing descends the cluster tree
/// (entry super-peer → head → intersecting clusters/members) instead of
/// every super-peer replicating every advertisement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterInfo {
    /// This cluster's head (may be this peer itself).
    pub head: PeerId,
    /// All super-peers of this cluster, sorted, including the head and
    /// this peer.
    pub members: Vec<PeerId>,
    /// All cluster heads of the overlay, sorted, including `head`.
    pub heads: Vec<PeerId>,
}

/// How the directory has a query annotated over its registry: the host
/// peer's router, with its memo, limits and tracer.
pub(crate) type Route<'a> = &'a dyn Fn(&AdRegistry, &QueryPattern) -> AnnotatedQuery;

/// Who a hierarchical routing gather answers to.
#[derive(Debug, Clone, Copy)]
enum HierReply {
    /// A simple peer's plain `RouteRequest`: answer with `RouteResponse`.
    Flat(PeerId),
    /// An inner tree node's `HierRouteRequest`: answer with
    /// `HierRouteResponse`.
    Inner(PeerId),
}

/// An in-flight scatter/gather over the cluster tree: annotations and
/// known-missing peers accumulated so far, and the subtrees still owed a
/// response.
struct HierGather {
    reply: HierReply,
    acc: AnnotatedQuery,
    missing: Vec<PeerId>,
    pending: FxHashSet<PeerId>,
    /// The children asked that the memo may remember, with the count of
    /// their summary pushes when they were asked.
    asked: Vec<(PeerId, u64)>,
}

/// At a head: a child's last `HierRouteResponse` to one query (one that
/// named nobody missing), valid while the child has pushed no summary
/// since it was asked. The annotated query carries the full key,
/// compared exactly on a hit.
struct Memo {
    pushes: u64,
    annotated: AnnotatedQuery,
}

/// One peer's knowledge of the SON (see the module documentation).
pub struct Directory {
    id: PeerId,
    role: Role,
    mode: PeerMode,
    /// `PeerConfig::ad_lease_us`.
    lease_us: Option<u64>,
    /// How long a gather waits for its subtrees: the subplan timeout.
    gather_timeout_us: u64,
    /// Advertisement knowledge: the SON registry (super-peers), or the
    /// semantic neighbourhood (ad-hoc simple-peers).
    pub registry: AdRegistry,
    /// Super-peers this peer is connected to (simple-peers), or the
    /// backbone (super-peers).
    pub super_peers: Vec<PeerId>,
    /// Physical neighbours (ad-hoc mode).
    pub neighbours: Vec<PeerId>,
    /// Articulations this super-peer can mediate with: queries over a
    /// foreign schema are reformulated onto the local SON's schema before
    /// routing (§3.1 "super-peers may handle the role of a mediator").
    pub articulations: Vec<sqpeer_subsume::Articulation>,
    /// Hierarchical-SON position (super-peers in nested overlays only).
    /// `None` keeps the flat backbone behaviour unchanged.
    pub cluster: Option<ClusterInfo>,
    /// Route requests this super-peer relayed on the backbone:
    /// query id → the node the eventual response must be forwarded to.
    route_relays: FxHashMap<QueryId, PeerId>,
    /// Lease bookkeeping (only populated with a lease set):
    /// advertisement expiry deadlines per peer.
    lease_expiry: FxHashMap<PeerId, u64>,
    /// Tombstones of lease-expired peers: their last advertisement, kept
    /// so routing can name known-missing contributors. Cleared when the
    /// peer re-advertises or heartbeats again.
    departed: FxHashMap<PeerId, Advertisement>,
    /// The member summary last pushed to this peer's cluster head (also
    /// folded into later summaries so they only ever grow — a stale
    /// summary is at worst too wide, never too narrow).
    last_pushed_summary: Option<ActiveSchema>,
    /// At a head: member super-peer → its latest pushed summary.
    member_summaries: FxHashMap<PeerId, ActiveSchema>,
    /// At a head: other cluster head → that cluster's latest summary.
    cluster_summaries: FxHashMap<PeerId, ActiveSchema>,
    /// At a head: the cluster summary last pushed to the other heads.
    last_cluster_summary: Option<ActiveSchema>,
    /// In-flight hierarchical scatter/gathers, by query.
    hier_gathers: FxHashMap<QueryId, HierGather>,
    /// At a head: the gather memo, (child, query fingerprint) → that
    /// child's last reply. `None` with the routing cache off or routing
    /// limits set (a limited reply ranks by statistics no push tracks).
    memo: Option<CostLru<(PeerId, u64), Memo>>,
    /// At a head: summary pushes received per child; each outdates the
    /// child's memoised replies.
    pushes: FxHashMap<PeerId, u64>,
    /// The schema epoch when this peer first began a `Local` or `Cluster`
    /// answer since its last push: a later change must be pushed even
    /// when the summary did not grow, as a head may have memoised it.
    answered_at: Option<u64>,
    /// `HierRouteRequest`s sent; subtrees answered from the memo.
    requests_sent: u64,
    memo_answers: u64,
}

impl Directory {
    /// The (empty) directory of peer `id`, reading from `config` the
    /// architecture, the lease and the timeout it bounds gathers with.
    pub(crate) fn new(id: PeerId, role: Role, config: &PeerConfig) -> Self {
        Directory {
            id,
            role,
            mode: config.mode,
            lease_us: config.ad_lease_us,
            gather_timeout_us: config
                .subplan_timeout_us
                .unwrap_or(PeerConfig::DEFAULT_SUBPLAN_TIMEOUT_US),
            registry: AdRegistry::new(),
            super_peers: Vec::new(),
            neighbours: Vec::new(),
            articulations: Vec::new(),
            cluster: None,
            route_relays: FxHashMap::default(),
            lease_expiry: FxHashMap::default(),
            departed: FxHashMap::default(),
            last_pushed_summary: None,
            member_summaries: FxHashMap::default(),
            cluster_summaries: FxHashMap::default(),
            last_cluster_summary: None,
            hier_gathers: FxHashMap::default(),
            memo: config
                .cache
                .filter(|_| config.limits.max_peers_per_pattern.is_none())
                .map(|c| CostLru::new(c.annotation_budget)),
            pushes: FxHashMap::default(),
            answered_at: None,
            requests_sent: 0,
            memo_answers: 0,
        }
    }

    /// `HierRouteRequest`s this peer has sent (inspection).
    pub fn hier_requests_sent(&self) -> u64 {
        self.requests_sent
    }

    /// Subtrees whose answer this head took from its gather memo instead
    /// of asking them (inspection).
    pub fn memo_answers(&self) -> u64 {
        self.memo_answers
    }

    fn is_hier_super(&self) -> bool {
        self.role == Role::Super && self.cluster.is_some()
    }

    // ------------------------------------------------------------------
    // Advertisements: three state changes, and who hears of them
    // ------------------------------------------------------------------

    /// Records a lease renewal for `peer`'s advertisement.
    fn renew(&mut self, now: u64, peer: PeerId) {
        if let Some(lease) = self.lease_us {
            self.lease_expiry.insert(peer, now + lease);
        }
    }

    /// `ad` is live: it routes, under a fresh lease and no tombstone.
    fn learn(&mut self, now: u64, ad: Advertisement) {
        self.renew(now, ad.peer);
        self.departed.remove(&ad.peer);
        self.registry.register(ad);
    }

    /// `peer` left gracefully (a `WithdrawPeer` replica, or the peer's
    /// own `Withdraw`): nothing of it is kept.
    pub(crate) fn forget(&mut self, peer: PeerId) {
        self.registry.unregister(peer);
        self.lease_expiry.remove(&peer);
        self.departed.remove(&peer);
    }

    /// `ad`'s lease ran out, here or (an `ExpirePeer` replica) at a
    /// backbone super-peer: it leaves routing and stays as a tombstone. A
    /// concurrent renewal here loses — the next heartbeat restores.
    pub(crate) fn tombstone(&mut self, ad: Advertisement) {
        self.registry.unregister(ad.peer);
        self.lease_expiry.remove(&ad.peer);
        self.departed.insert(ad.peer, ad);
    }

    /// Flat-backbone replication ("all super-peers are aware of each
    /// other", §3.1): a super-peer relays what it learned directly from
    /// `origin` to every backbone super-peer. What arrived over the
    /// backbone is stored but not re-forwarded (loop guard), and
    /// hierarchical overlays replace replication entirely — only merged
    /// *summaries* travel up the cluster tree.
    fn replicate(&self, ctx: &mut Ctx<Msg>, origin: PeerId, msg: impl Fn() -> Msg) {
        if self.role == Role::Super && self.cluster.is_none() && !self.super_peers.contains(&origin)
        {
            for &sp in &self.super_peers {
                send(ctx, sp, msg());
            }
        }
    }

    /// `from` pushed `ad` (its own, or a backbone replica). Super-peers
    /// replicate simple-peer advertisements across the backbone so every
    /// super-peer can produce the complete annotated pattern the hybrid
    /// architecture promises; in a hierarchical overlay the ad stays in
    /// this super-peer's registry and only its merged summary travels.
    pub(crate) fn advertised(&mut self, ctx: &mut Ctx<Msg>, from: PeerId, ad: Advertisement) {
        self.learn(ctx.now_us(), ad.clone());
        self.replicate(ctx, from, || Msg::Advertise(ad.clone()));
        self.registry_changed(ctx);
    }

    /// `from` withdrew itself. Withdrawals replicate like advertisements;
    /// the relayed form names the leaving peer, so only direct leaves fan
    /// out. Hierarchical summaries are monotone, so a withdrawal never
    /// shrinks them; the too-wide summary just descends into this cluster
    /// one false-positive at a time.
    pub(crate) fn withdrawn(&mut self, ctx: &mut Ctx<Msg>, from: PeerId) {
        self.forget(from);
        self.replicate(ctx, from, || Msg::WithdrawPeer(from));
        self.registry_changed(ctx);
    }

    /// A heartbeat (direct or backbone-replicated) arrived from `peer`.
    /// Renews the lease; if the peer had already been tombstoned, the
    /// expiry was premature — restore the advertisement (and replicate
    /// the restoration over the backbone like a fresh Advertise).
    pub(crate) fn alive(&mut self, ctx: &mut Ctx<Msg>, peer: PeerId) {
        match self.departed.remove(&peer) {
            Some(ad) => {
                self.learn(ctx.now_us(), ad.clone());
                self.replicate(ctx, peer, || Msg::Advertise(ad.clone()));
                self.registry_changed(ctx);
            }
            None => self.renew(ctx.now_us(), peer),
        }
    }

    /// `peer`'s own heartbeat. Member heartbeats replicate over the
    /// backbone so remote super-peers renew the replicated advertisement
    /// too — pointless in a hierarchical overlay, where no remote
    /// super-peer holds the advertisement.
    pub(crate) fn heartbeat(&mut self, ctx: &mut Ctx<Msg>, peer: PeerId) {
        self.alive(ctx, peer);
        self.replicate(ctx, peer, || Msg::HeartbeatPeer(peer));
    }

    /// Advertisements pulled from a neighbour (§3.2). A pull is not a
    /// renewal: leases and tombstones stay as they are.
    pub(crate) fn pulled(&mut self, ads: Vec<Advertisement>) {
        for ad in ads {
            self.registry.register(ad);
        }
    }

    /// Refreshes `peer`'s advertised statistics from a channel packet
    /// (§2.4), keeping the optimiser's estimates current.
    pub(crate) fn refresh_stats(&mut self, peer: PeerId, stats: BaseStatistics) {
        if let Some(ad) = self.registry.get(peer).cloned() {
            self.registry.register(ad.with_stats(stats));
        }
    }

    // ------------------------------------------------------------------
    // Leases (opt-in via `PeerConfig::ad_lease_us`)
    // ------------------------------------------------------------------

    /// Heartbeat/sweep period: a quarter of the lease, so a peer can lose
    /// three consecutive heartbeats before its advertisement expires.
    pub fn lease_period(&self) -> Option<u64> {
        self.lease_us.map(|l| (l / 4).max(1))
    }

    /// The lease deadline of every advertisement held here, in peer order
    /// (inspection).
    pub fn lease_deadlines(&self) -> Vec<(&PeerId, &u64)> {
        by_key(&self.lease_expiry)
    }

    /// Lease sweeps run wherever advertisements are held: super-peers in
    /// hybrid mode, every data peer in ad-hoc mode.
    pub(crate) fn sweeps(&self) -> bool {
        self.role == Role::Super || (self.mode == PeerMode::Adhoc && self.role == Role::Simple)
    }

    /// Pins the bootstrap grace when the lease timers are armed:
    /// advertisements already held (seeded before boot, or surviving a
    /// restart that wiped the deadlines) get a full lease from *now*.
    /// Previously the deadline was seeded lazily by the first sweep to
    /// notice it was missing, which silently extended the grace by one
    /// sweep period — and by however long the first sweep was delayed.
    pub(crate) fn seed_leases(&mut self, now: u64) {
        let Some(lease) = self.lease_us else {
            return;
        };
        for ad in self.registry.advertisements() {
            if ad.peer != self.id {
                self.lease_expiry.entry(ad.peer).or_insert(now + lease);
            }
        }
    }

    /// Everyone holding this peer's advertisement: super-peers in hybrid
    /// mode, semantic neighbours in ad-hoc mode.
    pub fn ad_holders(&self) -> &[PeerId] {
        match self.mode {
            PeerMode::Hybrid => &self.super_peers,
            PeerMode::Adhoc => &self.neighbours,
        }
    }

    /// Sends this peer's lease renewal to everyone holding its ad.
    pub(crate) fn send_heartbeats(&self, ctx: &mut Ctx<Msg>) {
        for &p in self.ad_holders() {
            send(ctx, p, Msg::Heartbeat);
        }
    }

    /// One sweep tick. Purges advertisements whose lease expired
    /// unrenewed: the peer is tombstoned (kept for completeness
    /// accounting) and, at a super-peer, the expiry replicates over the
    /// backbone like a withdrawal. Returns the peers that expired, in
    /// peer order.
    ///
    /// A hierarchical super-peer then re-pushes its summary: that heals
    /// a restarted head (whose summary tables are volatile) without any
    /// extra machinery. The sweep itself never changes the merged summary
    /// — expiry just moves an ad from the registry to the tombstones, and
    /// both feed the merge.
    pub(crate) fn sweep(&mut self, ctx: &mut Ctx<Msg>) -> Vec<PeerId> {
        let mut expired = Vec::new();
        let Some(lease) = self.lease_us else {
            return expired;
        };
        let now = ctx.now_us();
        let held: Vec<PeerId> = self
            .registry
            .advertisements()
            .iter()
            .map(|ad| ad.peer)
            .filter(|&peer| peer != self.id)
            .collect();
        for peer in held {
            match self.lease_expiry.get(&peer).copied() {
                Some(deadline) if deadline <= now => {
                    let Some(ad) = self.registry.get(peer).cloned() else {
                        continue;
                    };
                    self.tombstone(ad.clone());
                    expired.push(peer);
                    self.replicate(ctx, peer, || Msg::ExpirePeer(ad.clone()));
                }
                Some(_) => {}
                None => {
                    // Fallback for ads that slipped into the registry after
                    // the timers were armed (direct registry seeding in
                    // tests/experiments): grant a full lease from now
                    // instead of expiring instantly. The bootstrap and
                    // restart cases are pinned earlier, at arm time, by
                    // `seed_leases`.
                    self.lease_expiry.insert(peer, now + lease);
                }
            }
        }
        if self.is_hier_super() {
            self.push_summary(ctx, true);
        }
        expired
    }

    /// Departed (lease-expired) peers whose tombstoned active-schema
    /// matches `query` — contributors any answer is known to be missing.
    /// Sorted for determinism.
    pub(crate) fn departed_matching(&self, query: &QueryPattern) -> Vec<PeerId> {
        let mut out: Vec<PeerId> = self
            .departed
            .iter()
            .filter(|(_, ad)| {
                let annotated = route_limited(
                    query,
                    std::slice::from_ref(*ad),
                    PeerConfig::ROUTING_POLICY,
                    RoutingLimits::unlimited(),
                );
                !annotated.all_peers().is_empty()
            })
            .map(|(&peer, _)| peer)
            .collect();
        out.sort();
        out
    }

    /// Peers in the departed set, sorted (inspection).
    pub fn departed_peers(&self) -> Vec<PeerId> {
        let mut out: Vec<PeerId> = self.departed.keys().copied().collect();
        out.sort();
        out
    }

    // ------------------------------------------------------------------
    // Hierarchical SONs: cluster summaries
    // ------------------------------------------------------------------

    /// Everything answerable through this super-peer, as one merged
    /// active-schema: member advertisements, departed tombstones, and
    /// whatever was pushed before. Folding in tombstones and past pushes
    /// makes summaries *monotone* — a stale summary is at worst too wide
    /// (a harmless false-positive descent), never too narrow (a silently
    /// skipped holder) — and keeps clusters whose only matching peers
    /// departed reachable, so their super-peers can still name those
    /// peers as known-missing contributors.
    fn own_summary(&self) -> Option<ActiveSchema> {
        let mut acc = self.last_pushed_summary.clone();
        for ad in self.registry.advertisements() {
            acc = fold_summary(acc, &ad.active);
        }
        // Hash-map iteration order is not peer order; fold in peer order
        // so equal registries always produce byte-identical summaries.
        let mut departed: Vec<(&PeerId, &Advertisement)> = self.departed.iter().collect();
        departed.sort_by_key(|(p, _)| **p);
        for (_, ad) in departed {
            acc = fold_summary(acc, &ad.active);
        }
        acc
    }

    /// A hierarchical super-peer's registry may have changed: its head
    /// hears of it if the summary grew or a memoised answer went stale.
    fn registry_changed(&mut self, ctx: &mut Ctx<Msg>) {
        if self.is_hier_super() {
            self.push_summary(ctx, false);
        }
    }

    /// Pushes this super-peer's member summary to its cluster head when
    /// it changed, when the registry moved since an answer a head may
    /// have memoised, or unconditionally with `force` — the periodic
    /// self-heal that re-seeds a head whose restart wiped its (volatile)
    /// summary tables. Heads fold their own registry into the cluster
    /// summary directly and never message themselves.
    fn push_summary(&mut self, ctx: &mut Ctx<Msg>, force: bool) {
        let Some(head) = self.cluster.as_ref().map(|c| c.head) else {
            return;
        };
        let Some(summary) = self.own_summary() else {
            return;
        };
        let changed = self.last_pushed_summary.as_ref() != Some(&summary);
        if changed {
            self.last_pushed_summary = Some(summary.clone());
        }
        let epoch = self.registry.epochs().schema;
        let force = force || self.answered_at.is_some_and(|at| at != epoch);
        if !changed && !force {
            return;
        }
        if head == self.id {
            self.push_cluster_summary(ctx, force);
        } else {
            self.answered_at = None;
            let msg = Msg::SummaryAdvertise {
                owner: self.id,
                summary,
            };
            send(ctx, head, msg);
        }
    }

    /// At a head: recomputes the cluster summary (own registry plus all
    /// member summaries) and pushes it to the other heads when it changed
    /// (or with `force`).
    fn push_cluster_summary(&mut self, ctx: &mut Ctx<Msg>, force: bool) {
        let Some(cluster) = self.cluster.clone() else {
            return;
        };
        if cluster.head != self.id {
            return;
        }
        let mut acc = self.last_cluster_summary.clone();
        if let Some(own) = self.own_summary() {
            acc = fold_summary(acc, &own);
        }
        for m in &cluster.members {
            if let Some(s) = self.member_summaries.get(m) {
                acc = fold_summary(acc, s);
            }
        }
        let Some(summary) = acc else {
            return;
        };
        if !force && self.last_cluster_summary.as_ref() == Some(&summary) {
            return;
        }
        self.answered_at = None;
        self.last_cluster_summary = Some(summary.clone());
        for &h in &cluster.heads {
            if h == self.id {
                continue;
            }
            let msg = Msg::SummaryAdvertise {
                owner: self.id,
                summary: summary.clone(),
            };
            send(ctx, h, msg);
        }
    }

    /// `owner` pushed `summary`: a member's, if this peer heads `owner`'s
    /// cluster, else a sibling cluster's. Summaries only ever grow
    /// (merged into what is already held), so reordered or replayed
    /// pushes cannot narrow a subtree's coverage and cause a missed
    /// descent. Any push outdates `owner`'s memoised replies, and a
    /// member's is passed on to the sibling heads if this head answered
    /// a `Cluster` gather since its own last push.
    pub(crate) fn summary_advertised(
        &mut self,
        ctx: &mut Ctx<Msg>,
        owner: PeerId,
        summary: ActiveSchema,
    ) {
        let is_member = self
            .cluster
            .as_ref()
            .is_some_and(|c| c.head == self.id && c.members.contains(&owner));
        let held = if is_member {
            &mut self.member_summaries
        } else {
            &mut self.cluster_summaries
        };
        let merged = match held.get(&owner) {
            Some(prev) => prev.merge(&summary),
            None => summary,
        };
        held.insert(owner, merged);
        *self.pushes.entry(owner).or_insert(0) += 1;
        if is_member {
            self.push_cluster_summary(ctx, self.answered_at.is_some());
        }
    }

    // ------------------------------------------------------------------
    // Routing requests: the flat backbone walk and the tree descent
    // ------------------------------------------------------------------

    /// Super-peer routing service (§3.1): annotate from the SON registry,
    /// or discover the responsible super-peer through the backbone when
    /// this SON is unknown here ("it sends the query randomly to one of
    /// its known super-peers, which will consecutively discover the
    /// appropriate super-peer through the super-peers backbone").
    /// Returns the gather timeout to arm for `qid`, if a tree descent
    /// started.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn route_request(
        &mut self,
        ctx: &mut Ctx<Msg>,
        route: Route,
        from: PeerId,
        qid: QueryId,
        query: QueryPattern,
        backbone_ttl: u32,
        partial: Option<AnnotatedQuery>,
    ) -> Option<u64> {
        if self.cluster.is_some() {
            // Hierarchical SON: answer by descending the cluster tree
            // instead of walking the flat backbone. (Mediation through
            // articulations stays a flat-backbone feature.)
            let reply = HierReply::Flat(from);
            return self.begin_gather(ctx, route, qid, &query, reply, HierScope::Global);
        }
        let mut annotated = route(&self.registry, &query);
        if annotated.all_peers().is_empty() {
            // Mediation (§3.1): a query over a foreign schema is
            // reformulated onto this SON's schema through an articulation
            // and routed again. Variables are preserved, so the requester
            // executes the reformulated subplans transparently.
            for articulation in &self.articulations {
                if !sqpeer_routing::same_schema(articulation.source(), query.schema()) {
                    continue;
                }
                if let Some(reformulated) = articulation.reformulate(&query) {
                    let mediated = route(&self.registry, &reformulated);
                    if !mediated.all_peers().is_empty() {
                        annotated = mediated;
                        break;
                    }
                }
            }
        }
        if let Some(prev) = partial {
            annotated.merge(&prev);
        }
        // Forward along the backbone while the pattern is incomplete: some
        // other super-peer may know peers for the remaining patterns. The
        // response retraces the relay chain back to the requester.
        let next = self
            .super_peers
            .iter()
            .find(|p| **p != from && !self.route_relays.contains_key(&qid))
            .copied();
        match next {
            Some(sp) if !annotated.is_complete() && backbone_ttl > 0 => {
                self.route_relays.insert(qid, from);
                let msg = Msg::RouteRequest {
                    qid,
                    query,
                    backbone_ttl: backbone_ttl - 1,
                    partial: Some(annotated),
                };
                send(ctx, sp, msg);
            }
            _ => {
                // Completeness accounting: name lease-expired peers whose
                // tombstoned active-schema matched, so the root knows whose
                // contributions its answer is missing.
                let missing = self.departed_matching(&query);
                let msg = Msg::RouteResponse {
                    qid,
                    annotated,
                    missing,
                };
                send(ctx, from, msg);
            }
        }
        None
    }

    /// A `RouteResponse` arrived. If this node relayed `qid`'s request on
    /// the backbone the answer is passed back down the chain; otherwise
    /// it is handed back for the query this peer roots.
    pub(crate) fn route_response(
        &mut self,
        ctx: &mut Ctx<Msg>,
        qid: QueryId,
        annotated: AnnotatedQuery,
        missing: Vec<PeerId>,
    ) -> Option<(AnnotatedQuery, Vec<PeerId>)> {
        let Some(requester) = self.route_relays.remove(&qid) else {
            return Some((annotated, missing));
        };
        let msg = Msg::RouteResponse {
            qid,
            annotated,
            missing,
        };
        send(ctx, requester, msg);
        None
    }

    /// An inner tree node's routing request from `from`. Returns the
    /// gather timeout to arm for `qid`, if subtrees were asked.
    pub(crate) fn hier_route_request(
        &mut self,
        ctx: &mut Ctx<Msg>,
        route: Route,
        from: PeerId,
        qid: QueryId,
        query: &QueryPattern,
        scope: HierScope,
    ) -> Option<u64> {
        self.begin_gather(ctx, route, qid, query, HierReply::Inner(from), scope)
    }

    /// Starts a hierarchical scatter/gather: annotate the local registry,
    /// then descend into exactly the subtrees whose summaries intersect
    /// the query. Subtrees without a summary (head restarted, push still
    /// in flight) are conservatively descended into; a head takes the
    /// answer of a subtree that has not pushed since it last answered
    /// this query from its memo instead.
    fn begin_gather(
        &mut self,
        ctx: &mut Ctx<Msg>,
        route: Route,
        qid: QueryId,
        query: &QueryPattern,
        reply: HierReply,
        scope: HierScope,
    ) -> Option<u64> {
        if self.hier_gathers.contains_key(&qid) {
            // A duplicated routing request must not fork a second gather;
            // the in-flight one will answer the requester.
            return None;
        }
        let (HierReply::Flat(requester) | HierReply::Inner(requester)) = reply;
        if matches!(reply, HierReply::Inner(_)) && scope != HierScope::Global {
            // Set at the start: a change while this gather is pending is
            // missing from the answer too.
            self.answered_at
                .get_or_insert(self.registry.epochs().schema);
        }
        let mut acc = route(&self.registry, query);
        let missing = self.departed_matching(query);
        let mut pending: Vec<(PeerId, HierScope)> = Vec::new();
        if let Some(cluster) = &self.cluster {
            if scope == HierScope::Global && cluster.head != self.id {
                // Not the head: the head covers everything beyond our own
                // members.
                pending.push((cluster.head, HierScope::Global));
            } else if scope != HierScope::Local {
                // Head (or entry super-peer that *is* the head): descend
                // into intersecting member super-peers…
                let descend = |held: &FxHashMap<PeerId, ActiveSchema>, p: PeerId| {
                    held.get(&p).is_none_or(|s| summary_intersects(s, query))
                };
                for &m in &cluster.members {
                    if m != self.id && m != requester && descend(&self.member_summaries, m) {
                        pending.push((m, HierScope::Local));
                    }
                }
                // …and, for a global descent, into intersecting sibling
                // clusters.
                if scope == HierScope::Global {
                    for &h in &cluster.heads {
                        if h != self.id && descend(&self.cluster_summaries, h) {
                            pending.push((h, HierScope::Cluster));
                        }
                    }
                }
            }
        }
        // Children of a head (asked `Local` or `Cluster`) answer from the
        // memo while they have not pushed since; the rest are asked.
        let key = PatternStats::fingerprint(query.text());
        let mut asked = Vec::new();
        pending.retain(|&(child, scope)| {
            let Some(memo) = self.memo.as_mut().filter(|_| scope != HierScope::Global) else {
                return true;
            };
            let pushes = self.pushes.get(&child).copied().unwrap_or(0);
            match memo.get(&(child, key)) {
                Some(m) if m.pushes == pushes && same_query(m.annotated.query(), query) => {
                    acc.merge(&m.annotated);
                    self.memo_answers += 1;
                    false
                }
                _ => {
                    asked.push((child, pushes));
                    true
                }
            }
        });
        let gather = HierGather {
            reply,
            acc,
            missing,
            pending: pending.iter().map(|&(p, _)| p).collect(),
            asked,
        };
        if gather.pending.is_empty() {
            finish_gather(ctx, qid, gather);
            return None;
        }
        self.hier_gathers.insert(qid, gather);
        self.requests_sent += pending.len() as u64;
        for (target, scope) in pending {
            let msg = Msg::HierRouteRequest {
                qid,
                query: query.clone(),
                scope,
            };
            send(ctx, target, msg);
        }
        // Silent subtree losses (a crashed super-peer produces no delivery
        // failure) must not hang the query: a gather timeout converts
        // unanswered subtrees into known-missing contributors.
        Some(self.gather_timeout_us)
    }

    /// Subtree `from` answered `qid`'s gather.
    pub(crate) fn hier_route_response(
        &mut self,
        ctx: &mut Ctx<Msg>,
        from: PeerId,
        qid: QueryId,
        annotated: AnnotatedQuery,
        missing: Vec<PeerId>,
    ) {
        let Some(gather) = self.hier_gathers.get_mut(&qid) else {
            return;
        };
        // Remembered only if `from` has not pushed since it was asked (the
        // reply may predate the push) and names nobody missing (a subtree
        // below it may merely have timed out).
        let pushes = self.pushes.get(&from).copied().unwrap_or(0);
        let fresh = missing.is_empty() && gather.asked.contains(&(from, pushes));
        gather.acc.merge(&annotated);
        gather.missing.extend(missing);
        gather.pending.remove(&from);
        if let (Some(memo), true) = (&mut self.memo, fresh) {
            let cost = 96 + 120 * annotated.all_peers().len();
            let key = (from, PatternStats::fingerprint(annotated.query().text()));
            memo.insert(key, Memo { pushes, annotated }, cost);
        }
        self.finish_if_gathered(ctx, qid);
    }

    /// `qid`'s gather timeout fired: subtrees that never answered
    /// (silently crashed super-peers produce no delivery failure) become
    /// known-missing contributors, so the root's answer is honestly
    /// flagged partial rather than silently incomplete.
    pub(crate) fn gather_timed_out(&mut self, ctx: &mut Ctx<Msg>, qid: QueryId) {
        if let Some(mut gather) = self.hier_gathers.remove(&qid) {
            let mut lost: Vec<PeerId> = gather.pending.drain().collect();
            lost.sort();
            gather.missing.extend(lost);
            finish_gather(ctx, qid, gather);
        }
    }

    /// The `HierRouteRequest` this node sent `failed` for `qid` could not
    /// be delivered: a subtree of an in-flight gather is unreachable.
    pub(crate) fn hier_request_undelivered(
        &mut self,
        ctx: &mut Ctx<Msg>,
        failed: PeerId,
        qid: QueryId,
        scope: HierScope,
    ) {
        if scope == HierScope::Global {
            // The cluster head is down: re-parent locally so later
            // queries pick a live head (whose memo starts empty)…
            if let Some(c) = self.cluster.as_mut() {
                if c.head == failed {
                    c.head = c
                        .members
                        .iter()
                        .copied()
                        .find(|&m| m != failed)
                        .unwrap_or(self.id);
                    if let Some(memo) = &mut self.memo {
                        memo.clear();
                    }
                }
            }
        }
        let Some(gather) = self.hier_gathers.get_mut(&qid) else {
            return;
        };
        if !gather.pending.remove(&failed) {
            return;
        }
        if scope == HierScope::Global {
            // …and degrade *this* query to a flat scatter over
            // every super-peer: the summaries needed for pruning
            // died with the head, but correctness only needs every
            // registry consulted once.
            let query = gather.acc.query().clone();
            for &sp in &self.super_peers {
                if sp == failed || sp == self.id || gather.pending.contains(&sp) {
                    continue;
                }
                gather.pending.insert(sp);
                self.requests_sent += 1;
                let msg = Msg::HierRouteRequest {
                    qid,
                    query: query.clone(),
                    scope: HierScope::Local,
                };
                send(ctx, sp, msg);
            }
        } else {
            // A member or sibling head is down: its subtree's
            // holders are unknown — name it missing so the answer
            // is honestly partial.
            gather.missing.push(failed);
        }
        self.finish_if_gathered(ctx, qid);
    }

    /// Answers `qid`'s gather once no subtree is owed a response.
    fn finish_if_gathered(&mut self, ctx: &mut Ctx<Msg>, qid: QueryId) {
        if self
            .hier_gathers
            .get(&qid)
            .is_some_and(|g| g.pending.is_empty())
        {
            let gather = self.hier_gathers.remove(&qid).expect("present");
            finish_gather(ctx, qid, gather);
        }
    }

    // ------------------------------------------------------------------
    // Restart
    // ------------------------------------------------------------------

    /// An ungraceful restart: the registry and the tombstones are
    /// durable, everything else here is soft state. `own_ad` is this
    /// peer's advertisement, if it shares a base.
    pub(crate) fn restart(&mut self, ctx: &mut Ctx<Msg>, own_ad: Option<Advertisement>) {
        self.route_relays.clear();
        // Hierarchical summaries are rebuilt from pushes; a restarted
        // head treats summary-less subtrees as intersecting (conservative
        // descent) until members re-push.
        self.hier_gathers.clear();
        self.member_summaries.clear();
        self.cluster_summaries.clear();
        if let Some(memo) = &mut self.memo {
            memo.clear();
        }
        self.pushes.clear();
        self.answered_at = None;
        self.last_pushed_summary = None;
        self.last_cluster_summary = None;
        // Lease deadlines were computed from pre-crash heartbeats that may
        // have been silently eaten while this node was down; drop them.
        // The caller re-arms the lease timers, and `seed_leases` then
        // gives every held ad a full lease from the restart instant, so
        // the grace period is pinned to recovery time rather than to
        // whenever the first sweep runs.
        self.lease_expiry.clear();
        // Recovery protocol: re-advertise so holders whose sweep
        // tombstoned this peer restore its active-schema to routing.
        if let Some(ad) = own_ad {
            for &p in self.ad_holders() {
                send(ctx, p, Msg::Advertise(ad.clone()));
            }
        }
        // A restarted super-peer's registry is durable: re-push its merged
        // summary so the cluster tree prunes correctly again.
        if self.is_hier_super() {
            self.push_summary(ctx, true);
        }
    }
}

/// Folds one more active-schema into a running summary merge.
fn fold_summary(acc: Option<ActiveSchema>, active: &ActiveSchema) -> Option<ActiveSchema> {
    Some(match acc {
        Some(s) => s.merge(active),
        None => active.clone(),
    })
}

/// Can `summary` possibly annotate any path pattern of `query`? The
/// loosest match kind counts — pruning must only skip subtrees that
/// cannot contribute under *any* routing policy.
fn summary_intersects(summary: &ActiveSchema, query: &QueryPattern) -> bool {
    if !sqpeer_routing::same_schema(summary.schema(), query.schema()) {
        return false;
    }
    query.patterns().iter().any(|pat| {
        summary
            .active_properties()
            .iter()
            .any(|ap| sqpeer_subsume::match_pattern(summary.schema(), ap, pat).is_some())
    })
}

/// The same query over the same schema: the memo's exact key test.
fn same_query(a: &QueryPattern, b: &QueryPattern) -> bool {
    sqpeer_routing::same_schema(a.schema(), b.schema()) && a == b
}

/// Answers a finished gather. Annotations are sorted into the canonical
/// per-peer order single-registry routing produces, so the root plans
/// over exactly what flat routing would have handed it.
fn finish_gather(ctx: &mut Ctx<Msg>, qid: QueryId, mut gather: HierGather) {
    gather.acc.sort_by_peer();
    gather.missing.sort();
    gather.missing.dedup();
    let (annotated, missing) = (gather.acc, gather.missing);
    let (to, msg) = match gather.reply {
        HierReply::Flat(requester) => (
            requester,
            Msg::RouteResponse {
                qid,
                annotated,
                missing,
            },
        ),
        HierReply::Inner(requester) => (
            requester,
            Msg::HierRouteResponse {
                qid,
                annotated,
                missing,
            },
        ),
    };
    send(ctx, to, msg);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{node_of, peer_of};
    use sqpeer_rdfs::{Range, Schema, SchemaBuilder};
    use sqpeer_routing::RoutingPolicy;
    use sqpeer_rql::compile;
    use sqpeer_rvl::ActiveProperty;
    use std::sync::Arc;

    const LEASE_US: u64 = 4_000_000;

    /// `C1 -prop1-> C2 -prop2-> C3`.
    fn schema() -> Arc<Schema> {
        let mut b = SchemaBuilder::new("n1", "http://example.org/n1#");
        let c1 = b.class("C1").unwrap();
        let c2 = b.class("C2").unwrap();
        let c3 = b.class("C3").unwrap();
        b.property("prop1", c1, Range::Class(c2)).unwrap();
        b.property("prop2", c2, Range::Class(c3)).unwrap();
        Arc::new(b.finish().unwrap())
    }

    fn active(schema: &Arc<Schema>, props: &[&str]) -> ActiveSchema {
        let arcs = props
            .iter()
            .map(|p| {
                let property = schema.property_by_name(p).unwrap();
                let def = schema.property(property);
                let Range::Class(range) = def.range else {
                    unreachable!("fixture ranges are classes")
                };
                ActiveProperty {
                    property,
                    domain: def.domain,
                    range: Some(range),
                }
            })
            .collect();
        ActiveSchema::new(Arc::clone(schema), [], arcs)
    }

    fn query(schema: &Arc<Schema>, prop: &str) -> QueryPattern {
        compile(&format!("SELECT X, Y FROM {{X}}{prop}{{Y}}"), schema).unwrap()
    }

    /// A super-peer directory, leases on.
    fn super_peer(id: u32) -> Directory {
        let config = PeerConfig {
            ad_lease_us: Some(LEASE_US),
            ..PeerConfig::default()
        };
        Directory::new(PeerId(id), Role::Super, &config)
    }

    /// Super-peer `id` of cluster `{0 (head), 1, 2}`, whose only sibling
    /// cluster is headed by 5.
    fn clustered(id: u32) -> Directory {
        let mut d = super_peer(id);
        d.super_peers = [0, 1, 2, 5]
            .into_iter()
            .filter(|&p| p != id)
            .map(PeerId)
            .collect();
        d.cluster = Some(ClusterInfo {
            head: PeerId(0),
            members: vec![PeerId(0), PeerId(1), PeerId(2)],
            heads: vec![PeerId(0), PeerId(5)],
        });
        d
    }

    fn ctx_at(now_us: u64, d: &Directory) -> Ctx<Msg> {
        Ctx::detached(now_us, node_of(d.id))
    }

    /// The uncached, untraced router a test lends the directory.
    fn route(registry: &AdRegistry, query: &QueryPattern) -> AnnotatedQuery {
        registry.route(query, RoutingPolicy::default())
    }

    /// What `ctx` was asked to send, one `"to <- message"` line each.
    fn sent(ctx: Ctx<Msg>) -> Vec<String> {
        let outbox = ctx.into_effects().outbox;
        outbox
            .into_iter()
            .map(|(to, msg, _)| {
                let what = match msg {
                    Msg::Advertise(ad) => format!("Advertise({})", ad.peer),
                    Msg::HeartbeatPeer(p) => format!("HeartbeatPeer({p})"),
                    Msg::ExpirePeer(ad) => format!("ExpirePeer({})", ad.peer),
                    Msg::HierRouteRequest { scope, .. } => format!("HierRouteRequest({scope:?})"),
                    Msg::SummaryAdvertise { owner, .. } => format!("SummaryAdvertise({owner})"),
                    Msg::RouteResponse {
                        annotated, missing, ..
                    } => format!(
                        "RouteResponse(peers {:?}, missing {missing:?})",
                        annotated.all_peers()
                    ),
                    other => format!("{other:?}"),
                };
                format!("{} <- {what}", peer_of(to))
            })
            .collect()
    }

    /// Answers `qid`'s gather at `d` on behalf of subtree `from`: nobody
    /// found, `missing` departed.
    fn answer(d: &mut Directory, from: u32, qid: QueryId, q: &QueryPattern, missing: &[u32]) {
        let mut ctx = ctx_at(0, d);
        let missing = missing.iter().copied().map(PeerId).collect();
        let nobody = AnnotatedQuery::empty(q.clone());
        d.hier_route_response(&mut ctx, PeerId(from), qid, nobody, missing);
        assert!(sent(ctx).is_empty(), "the gather answered early");
    }

    /// learn → a heartbeat renews → the sweep at the deadline tombstones
    /// and replicates `ExpirePeer` → a late heartbeat restores and
    /// replicates `Advertise`.
    #[test]
    fn lease_lifecycle_on_a_flat_super_peer() {
        let schema = schema();
        let mut d = super_peer(0);
        d.super_peers = vec![PeerId(1)];
        let member = PeerId(10);
        let ad = Advertisement::new(member, active(&schema, &["prop1"]));

        let mut ctx = ctx_at(0, &d);
        d.advertised(&mut ctx, member, ad);
        assert_eq!(sent(ctx), ["P1 <- Advertise(P10)"]);
        assert!(d.registry.get(member).is_some());

        // Renewed at 3 s: the deadline moves from 4 s to 7 s.
        let mut ctx = ctx_at(3_000_000, &d);
        d.heartbeat(&mut ctx, member);
        assert_eq!(sent(ctx), ["P1 <- HeartbeatPeer(P10)"]);
        let mut ctx = ctx_at(3_000_000 + LEASE_US - 1, &d);
        assert!(d.sweep(&mut ctx).is_empty());
        assert!(sent(ctx).is_empty());
        assert!(d.registry.get(member).is_some());

        let mut ctx = ctx_at(3_000_000 + LEASE_US, &d);
        assert_eq!(d.sweep(&mut ctx), [member]);
        assert_eq!(sent(ctx), ["P1 <- ExpirePeer(P10)"]);
        assert!(d.registry.get(member).is_none());
        assert_eq!(d.departed_peers(), [member]);
        assert_eq!(d.departed_matching(&query(&schema, "prop1")), [member]);
        assert!(d.departed_matching(&query(&schema, "prop2")).is_empty());

        let mut ctx = ctx_at(8_000_000, &d);
        d.heartbeat(&mut ctx, member);
        assert_eq!(
            sent(ctx),
            ["P1 <- Advertise(P10)", "P1 <- HeartbeatPeer(P10)"]
        );
        assert!(d.registry.get(member).is_some());
        assert!(d.departed_peers().is_empty());
        // Restored under a fresh lease, not the expired one.
        let mut ctx = ctx_at(8_000_000 + LEASE_US - 1, &d);
        assert!(d.sweep(&mut ctx).is_empty());
    }

    /// A duplicated routing request does not fork a second gather, and
    /// the gather timeout names the subtrees that never answered.
    #[test]
    fn gather_ignores_duplicates_and_names_silent_subtrees_missing() {
        let schema = schema();
        let q = query(&schema, "prop1");
        let qid = QueryId(7);
        let mut head = clustered(0);
        let holder = PeerId(10);
        head.registry
            .register(Advertisement::new(holder, active(&schema, &["prop1"])));

        // No summaries held: every subtree is conservatively descended.
        let mut ctx = ctx_at(0, &head);
        let armed = head.route_request(&mut ctx, &route, PeerId(20), qid, q.clone(), 4, None);
        assert_eq!(armed, Some(PeerConfig::DEFAULT_SUBPLAN_TIMEOUT_US));
        assert_eq!(
            sent(ctx),
            [
                "P1 <- HierRouteRequest(Local)",
                "P2 <- HierRouteRequest(Local)",
                "P5 <- HierRouteRequest(Cluster)"
            ]
        );

        let mut ctx = ctx_at(1, &head);
        let armed = head.route_request(&mut ctx, &route, PeerId(20), qid, q.clone(), 4, None);
        assert_eq!(armed, None);
        assert!(sent(ctx).is_empty(), "the duplicate forked a gather");

        // Member 1 answers (naming two departed peers); 2 and 5 stay
        // silent until the timeout.
        answer(&mut head, 1, qid, &q, &[30, 5]);
        let mut ctx = ctx_at(PeerConfig::DEFAULT_SUBPLAN_TIMEOUT_US, &head);
        head.gather_timed_out(&mut ctx, qid);
        assert_eq!(
            sent(ctx),
            ["P20 <- RouteResponse(peers [PeerId(10)], missing [PeerId(2), PeerId(5), PeerId(30)])"]
        );
        // Answered: a late response or a second timeout finds nothing.
        let mut ctx = ctx_at(PeerConfig::DEFAULT_SUBPLAN_TIMEOUT_US, &head);
        head.gather_timed_out(&mut ctx, qid);
        let nobody = AnnotatedQuery::empty(q.clone());
        head.hier_route_response(&mut ctx, PeerId(2), qid, nobody, Vec::new());
        assert!(sent(ctx).is_empty());
    }

    /// An unreachable member (or sibling head) is named missing; the
    /// gather answers once the reachable subtrees have.
    #[test]
    fn gather_names_an_unreachable_member_missing() {
        let schema = schema();
        let q = query(&schema, "prop1");
        let qid = QueryId(8);
        let mut head = clustered(0);
        let mut ctx = ctx_at(0, &head);
        head.route_request(&mut ctx, &route, PeerId(20), qid, q.clone(), 4, None);
        assert_eq!(sent(ctx).len(), 3);

        let mut ctx = ctx_at(1, &head);
        head.hier_request_undelivered(&mut ctx, PeerId(2), qid, HierScope::Local);
        assert!(sent(ctx).is_empty());
        answer(&mut head, 1, qid, &q, &[]);
        let mut ctx = ctx_at(2, &head);
        let nobody = AnnotatedQuery::empty(q.clone());
        head.hier_route_response(&mut ctx, PeerId(5), qid, nobody, Vec::new());
        assert_eq!(
            sent(ctx),
            ["P20 <- RouteResponse(peers [], missing [PeerId(2)])"]
        );
        assert_eq!(head.cluster.as_ref().unwrap().head, PeerId(0));
    }

    /// An unreachable head re-parents the cluster and degrades *this*
    /// query to a flat `Local` scatter over every other super-peer.
    #[test]
    fn gather_survives_its_head() {
        let schema = schema();
        let q = query(&schema, "prop1");
        let qid = QueryId(9);
        let mut entry = clustered(1);
        let mut ctx = ctx_at(0, &entry);
        let armed = entry.route_request(&mut ctx, &route, PeerId(20), qid, q.clone(), 4, None);
        assert!(armed.is_some());
        assert_eq!(sent(ctx), ["P0 <- HierRouteRequest(Global)"]);

        let mut ctx = ctx_at(1, &entry);
        entry.hier_request_undelivered(&mut ctx, PeerId(0), qid, HierScope::Global);
        assert_eq!(
            sent(ctx),
            [
                "P2 <- HierRouteRequest(Local)",
                "P5 <- HierRouteRequest(Local)"
            ]
        );
        assert_eq!(entry.cluster.as_ref().unwrap().head, PeerId(1));

        answer(&mut entry, 2, qid, &q, &[]);
        let mut ctx = ctx_at(2, &entry);
        let nobody = AnnotatedQuery::empty(q.clone());
        entry.hier_route_response(&mut ctx, PeerId(5), qid, nobody, Vec::new());
        assert_eq!(sent(ctx), ["P20 <- RouteResponse(peers [], missing [])"]);
    }

    /// A replayed or reordered `SummaryAdvertise` never narrows a held
    /// summary: the subtree it once covered is still descended into.
    #[test]
    fn summaries_only_grow() {
        let schema = schema();
        let mut head = clustered(0);
        let push = |head: &mut Directory, owner: u32, props: &[&str]| {
            let mut ctx = ctx_at(0, head);
            head.summary_advertised(&mut ctx, PeerId(owner), active(&schema, props));
        };
        // Member 1 and cluster 5 cover prop2, then an older, narrower
        // push of each arrives late; member 2 never covered prop2.
        push(&mut head, 1, &["prop1", "prop2"]);
        push(&mut head, 1, &["prop1"]);
        push(&mut head, 5, &["prop2"]);
        push(&mut head, 5, &["prop1"]);
        push(&mut head, 2, &["prop1"]);

        let mut ctx = ctx_at(1, &head);
        let q = query(&schema, "prop2");
        head.route_request(&mut ctx, &route, PeerId(20), QueryId(1), q, 4, None);
        assert_eq!(
            sent(ctx),
            [
                "P1 <- HierRouteRequest(Local)",
                "P5 <- HierRouteRequest(Cluster)"
            ]
        );
    }

    /// `ctx`'s outbox, unformatted: what a test hands on to another
    /// directory.
    fn outbox(ctx: Ctx<Msg>) -> Vec<(PeerId, Msg)> {
        let outbox = ctx.into_effects().outbox;
        outbox
            .into_iter()
            .map(|(to, msg, _)| (peer_of(to), msg))
            .collect()
    }

    /// Delivers `from`'s `HierRouteResponse`s and `SummaryAdvertise`s in
    /// `msgs` to `head`; returns what `head` sent in turn.
    fn deliver(head: &mut Directory, from: u32, msgs: Vec<(PeerId, Msg)>) -> Vec<String> {
        let mut ctx = ctx_at(0, head);
        for (to, msg) in msgs {
            assert_eq!(to, head.id);
            match msg {
                Msg::HierRouteResponse {
                    qid,
                    annotated,
                    missing,
                } => head.hier_route_response(&mut ctx, PeerId(from), qid, annotated, missing),
                Msg::SummaryAdvertise { owner, summary } => {
                    head.summary_advertised(&mut ctx, owner, summary)
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        sent(ctx)
    }

    /// Poses `q` at `head` as query `qid`; returns what the head sent.
    fn gather(head: &mut Directory, qid: u64, q: &QueryPattern) -> Vec<String> {
        let mut ctx = ctx_at(0, head);
        head.route_request(
            &mut ctx,
            &route,
            PeerId(20),
            QueryId(qid),
            q.clone(),
            4,
            None,
        );
        sent(ctx)
    }

    /// Subtree `from` answers `qid` at `head` with nobody; returns what
    /// the head sent.
    fn nobody(head: &mut Directory, from: u32, qid: u64, q: &QueryPattern) -> Vec<String> {
        let mut ctx = ctx_at(0, head);
        let empty = AnnotatedQuery::empty(q.clone());
        head.hier_route_response(&mut ctx, PeerId(from), QueryId(qid), empty, Vec::new());
        sent(ctx)
    }

    /// A warm query asks no subtree, and a reply that arrives after its
    /// child pushed a summary is not remembered: the next gather asks
    /// that child again.
    #[test]
    fn memo_skips_a_reply_that_predates_a_push() {
        let schema = schema();
        let q = query(&schema, "prop1");
        let mut head = clustered(0);
        assert_eq!(gather(&mut head, 1, &q).len(), 3);
        // Member 1 pushes while its answer to query 1 is in flight.
        let summary = active(&schema, &["prop1"]);
        let mut ctx = ctx_at(0, &head);
        head.summary_advertised(&mut ctx, PeerId(1), summary);
        answer(&mut head, 1, QueryId(1), &q, &[]);
        answer(&mut head, 2, QueryId(1), &q, &[]);
        assert_eq!(nobody(&mut head, 5, 1, &q).len(), 1);
        assert_eq!(head.memo_answers(), 0);

        assert_eq!(gather(&mut head, 2, &q), ["P1 <- HierRouteRequest(Local)"]);
        assert_eq!(head.memo_answers(), 2);
        assert_eq!(
            nobody(&mut head, 1, 2, &q),
            ["P20 <- RouteResponse(peers [], missing [])"]
        );
        // Now every subtree's reply is remembered: answered at once.
        assert_eq!(
            gather(&mut head, 3, &q),
            ["P20 <- RouteResponse(peers [], missing [])"]
        );
        assert_eq!((head.memo_answers(), head.hier_requests_sent()), (5, 4));
    }

    /// A member whose summary already covers a property pushes when it
    /// gains a new holder of it after answering a gather, so the head
    /// asks it again and finds the holder.
    #[test]
    fn memo_finds_a_holder_behind_an_unchanged_summary() {
        let schema = schema();
        let q = query(&schema, "prop1");
        let (mut head, mut member) = (clustered(0), clustered(1));
        let holder = |p: u32| Advertisement::new(PeerId(p), active(&schema, &["prop1"]));
        let mut ctx = ctx_at(0, &member);
        member.advertised(&mut ctx, PeerId(10), holder(10));
        deliver(&mut head, 1, outbox(ctx));

        let ask = |member: &mut Directory, qid: u64| {
            let mut ctx = ctx_at(0, member);
            let (qid, local) = (QueryId(qid), HierScope::Local);
            member.hier_route_request(&mut ctx, &route, PeerId(0), qid, &q, local);
            outbox(ctx)
        };
        assert_eq!(gather(&mut head, 1, &q).len(), 3);
        deliver(&mut head, 1, ask(&mut member, 1));
        answer(&mut head, 2, QueryId(1), &q, &[]);
        assert_eq!(
            nobody(&mut head, 5, 1, &q),
            ["P20 <- RouteResponse(peers [PeerId(10)], missing [])"]
        );

        let mut ctx = ctx_at(0, &member);
        member.advertised(&mut ctx, PeerId(11), holder(11));
        let pushed = outbox(ctx);
        assert_eq!(pushed.len(), 1, "the member kept its new holder to itself");
        deliver(&mut head, 1, pushed);
        assert_eq!(gather(&mut head, 2, &q), ["P1 <- HierRouteRequest(Local)"]);
        assert_eq!(
            deliver(&mut head, 1, ask(&mut member, 2)),
            ["P20 <- RouteResponse(peers [PeerId(10), PeerId(11)], missing [])"]
        );
    }

    /// Before any gather, advertisements that leave the summary as it is
    /// push nothing: boot traffic is what it was without the memo.
    #[test]
    fn no_gather_no_extra_push() {
        let schema = schema();
        let mut member = clustered(1);
        let ad = |p: u32| Advertisement::new(PeerId(p), active(&schema, &["prop1"]));
        let mut ctx = ctx_at(0, &member);
        member.advertised(&mut ctx, PeerId(10), ad(10));
        assert_eq!(sent(ctx), ["P0 <- SummaryAdvertise(P1)"]);
        let mut ctx = ctx_at(0, &member);
        member.advertised(&mut ctx, PeerId(11), ad(11));
        member.withdrawn(&mut ctx, PeerId(10));
        assert!(sent(ctx).is_empty());
    }
}
