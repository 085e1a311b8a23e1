//! The hybrid (super-peer) architecture of §3.1.
//!
//! "Each peer is connected with at least one super-peer, who is
//! responsible for collecting the active-schemas … of all its
//! simple-peers. … When a peer connects to a super-peer, it forwards its
//! corresponding active-schema (push). All super-peers are aware of each
//! other."

use crate::network::Network;
use sqpeer_exec::{inject, node_of, BaseKind, ClusterInfo, Msg, PeerConfig, PeerMode, PeerNode};
use sqpeer_net::Simulator;
use sqpeer_rdfs::Schema;
use sqpeer_routing::{PeerId, Topology};
use sqpeer_rvl::VirtualBase;
use sqpeer_store::DescriptionBase;
use std::sync::Arc;

/// Builder for a hybrid SON.
pub struct HybridBuilder {
    schema: Arc<Schema>,
    config: PeerConfig,
    super_count: u32,
    bases: Vec<(BaseKind, u32)>, // base, super-peer index
}

impl HybridBuilder {
    /// Starts a hybrid network over `schema` with `super_count`
    /// super-peers forming a fully-connected backbone.
    pub fn new(schema: Arc<Schema>, super_count: u32) -> Self {
        HybridBuilder {
            schema,
            config: PeerConfig {
                mode: PeerMode::Hybrid,
                ..PeerConfig::default()
            },
            super_count: super_count.max(1),
            bases: Vec::new(),
        }
    }

    /// Overrides the peer configuration template.
    pub fn config(mut self, config: PeerConfig) -> Self {
        self.config = PeerConfig {
            mode: PeerMode::Hybrid,
            ..config
        };
        self
    }

    /// Adds a simple-peer with `base`, clustered under super-peer
    /// `super_index` (0-based). Returns the peer's future id.
    pub fn add_peer(&mut self, base: DescriptionBase, super_index: u32) -> PeerId {
        self.add_base(BaseKind::Materialized(base), super_index)
    }

    /// Adds a simple-peer whose base is a **virtual** view over a legacy
    /// relational or XML database (§2.2's virtual scenario): it advertises
    /// from its mapping rules and populates on demand at query time.
    pub fn add_virtual_peer(&mut self, source: VirtualBase, super_index: u32) -> PeerId {
        self.add_base(BaseKind::virtual_base(source), super_index)
    }

    fn add_base(&mut self, base: BaseKind, super_index: u32) -> PeerId {
        assert!(super_index < self.super_count, "no such super-peer");
        let id = self.super_count + self.bases.len() as u32;
        self.bases.push((base, super_index));
        PeerId(id)
    }

    /// Finalises the network: spawns nodes, wires the backbone, pushes
    /// every peer's advertisement to its super-peer (as real, costed
    /// messages) and runs to quiescence.
    pub fn build(self) -> HybridNetwork {
        let supers = (0..self.super_count).map(|sp| (PeerId(sp), None)).collect();
        spawn(self.schema, self.config, supers, self.bases)
    }
}

/// Spawns a super-peer overlay and boots it: the super-peers in the
/// order given (each with its place in the cluster tree, `None` on a flat
/// backbone), the simple peers of `bases` under theirs, the client past
/// all peers; then every simple peer's advertisement is pushed to its
/// super-peer as a real, costed message (the join protocol) and the
/// network runs until the boot traffic — summary pushes included — has
/// settled.
pub(crate) fn spawn(
    schema: Arc<Schema>,
    config: PeerConfig,
    supers: Vec<(PeerId, Option<ClusterInfo>)>,
    bases: Vec<(BaseKind, u32)>,
) -> HybridNetwork {
    let mut sim: Simulator<PeerNode> = Simulator::default();
    let super_count = supers.len() as u32;
    let super_ids: Vec<PeerId> = (0..super_count).map(PeerId).collect();
    for (sp, cluster) in supers {
        let mut node = PeerNode::super_peer(sp, config.clone());
        // In a cluster tree the full super-peer list stays known too
        // (degradation falls back to a flat scatter over it); replication
        // over it is disabled by the cluster marker.
        node.son.super_peers = super_ids.iter().copied().filter(|&o| o != sp).collect();
        node.son.cluster = cluster;
        sim.add_node(node_of(sp), node);
    }

    let mut peer_ids = Vec::with_capacity(bases.len());
    for (i, (base, sp_idx)) in bases.into_iter().enumerate() {
        let id = PeerId(super_count + i as u32);
        let mut node = PeerNode::new(id, sqpeer_exec::Role::Simple, base, config.clone());
        node.son.super_peers = vec![super_ids[sp_idx as usize]];
        sim.add_node(node_of(id), node);
        peer_ids.push(id);
    }

    // The client node lives past all peers.
    let client = PeerId(super_count + peer_ids.len() as u32);
    sim.add_node(node_of(client), PeerNode::client(client));

    for &peer in &peer_ids {
        let node = sim.node(node_of(peer)).expect("just added");
        let ad = node.own_advertisement().expect("simple peers have bases");
        let sp = node.son.super_peers[0];
        inject(&mut sim, peer, sp, Msg::Advertise(ad));
    }
    let mut net = Network::new(
        sim,
        schema,
        &config,
        super_ids,
        peer_ids,
        client,
        Topology::new(),
    );
    net.run();
    net
}

/// A running hybrid SON: the shared [`Network`] driver over a super-peer
/// backbone ([`Network::super_peers`]) and the simple peers clustered
/// under it.
pub type HybridNetwork = Network;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::oracle::{oracle_answer, oracle_base};
    use sqpeer_rdfs::SchemaBuilder;
    use sqpeer_rdfs::{Range, Resource, Triple};

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

    pub(crate) fn base_with(
        schema: &Arc<Schema>,
        triples: &[(&str, &str, &str)],
    ) -> DescriptionBase {
        let mut db = DescriptionBase::new(Arc::clone(schema));
        for (s, p, o) in triples {
            let prop = schema.property_by_name(p).unwrap();
            db.insert_described(Triple::new(Resource::new(*s), prop, Resource::new(*o)));
        }
        db
    }

    /// The Figure 6 scenario: a super-peer backbone and five simple-peers.
    #[test]
    fn figure6_end_to_end() {
        let schema = fig1_schema();
        let mut b = HybridBuilder::new(Arc::clone(&schema), 3);
        // P2, P3 answer Q1 (prop1); P5 answers Q2 (prop2); the rest hold
        // unrelated data.
        let _p1 = b.add_peer(base_with(&schema, &[]), 0);
        let p2 = b.add_peer(base_with(&schema, &[("a", "prop1", "b")]), 0);
        let p3 = b.add_peer(base_with(&schema, &[("c", "prop1", "b")]), 0);
        let _p4 = b.add_peer(base_with(&schema, &[]), 0);
        let p5 = b.add_peer(base_with(&schema, &[("b", "prop2", "d")]), 0);
        let mut net = b.build();

        // Super-peer 0 holds every advertisement after the push phase.
        assert_eq!(
            net.sim()
                .node(node_of(net.super_peers()[0]))
                .unwrap()
                .son
                .registry
                .len(),
            5
        );

        let query = net
            .compile("SELECT X, Z FROM {X}prop1{Y}, {Y}prop2{Z}")
            .unwrap();
        let origin = net.peers()[0]; // P1 receives the client query
        let qid = net.query(origin, query.clone());
        net.run();

        let outcome = net.outcome(origin, qid).expect("completed").clone();
        assert!(!outcome.partial);
        // Ground truth: (a,d) and (c,d).
        let oracle = oracle_base(&schema, net.bases());
        let expected = oracle_answer(&oracle, &query);
        assert_eq!(outcome.result.clone().sorted(), expected);
        assert_eq!(outcome.result.len(), 2);

        // P2, P3 and P5 each processed a subquery.
        for p in [p2, p3, p5] {
            assert!(
                net.sim().node(node_of(p)).unwrap().queries_processed >= 1,
                "{p}"
            );
        }
    }

    #[test]
    fn backbone_routing_for_foreign_son() {
        // A query whose SON is registered at SP1 only; the query enters
        // through a peer clustered under SP0 — the backbone must find SP1.
        let schema = fig1_schema();
        let mut b = HybridBuilder::new(Arc::clone(&schema), 2);
        let entry = b.add_peer(base_with(&schema, &[]), 0);
        let holder = b.add_peer(base_with(&schema, &[("a", "prop1", "b")]), 1);
        let mut net = b.build();

        let query = net.compile("SELECT X, Y FROM {X}prop1{Y}").unwrap();
        let qid = net.query(entry, query);
        net.run();
        let outcome = net.outcome(entry, qid).expect("completed");
        assert_eq!(outcome.result.len(), 1);
        assert!(!outcome.partial);
        let _ = holder;
    }

    #[test]
    fn adaptation_on_peer_failure() {
        // Two peers can answer the same pattern; one dies before the query.
        let schema = fig1_schema();
        let mut b = HybridBuilder::new(Arc::clone(&schema), 1);
        let origin = b.add_peer(base_with(&schema, &[]), 0);
        let dying = b.add_peer(base_with(&schema, &[("a", "prop1", "b")]), 0);
        let backup = b.add_peer(base_with(&schema, &[("a", "prop1", "b")]), 0);
        let mut net = b.build();

        net.crash_peer(dying);
        let query = net.compile("SELECT X, Y FROM {X}prop1{Y}").unwrap();
        let qid = net.query(origin, query);
        net.run();

        let outcome = net.outcome(origin, qid).expect("completed").clone();
        // The union over {dying, backup} loses the dying branch but the
        // backup still delivers the row; with adaptation the result is
        // complete.
        assert_eq!(outcome.result.len(), 1, "backup peer must deliver the row");
        let _ = backup;
    }

    /// Class-membership queries stay local (§2.1 restricts routing to
    /// path patterns): the root answers from its own base and flags the
    /// answer partial.
    #[test]
    fn class_queries_answered_locally() {
        let schema = fig1_schema();
        let mut b = HybridBuilder::new(Arc::clone(&schema), 1);
        let origin = b.add_peer(
            base_with(&schema, &[("http://o/a", "prop4", "http://o/b")]),
            0,
        );
        let _other = b.add_peer(
            base_with(&schema, &[("http://x/c", "prop4", "http://x/d")]),
            0,
        );
        let mut net = b.build();
        let query = net.compile("SELECT X FROM {X;C5}").unwrap();
        let qid = net.query(origin, query);
        net.run();
        let outcome = net.outcome(origin, qid).expect("completed");
        // Only the origin's own C5 instance; flagged partial because the
        // network was not consulted.
        assert_eq!(outcome.result.len(), 1);
        assert!(outcome.partial);
    }

    /// §5 Top-N: ORDER BY + LIMIT apply to the assembled distributed
    /// answer at the root.
    #[test]
    fn distributed_top_n() {
        let schema = fig1_schema();
        let mut b = HybridBuilder::new(Arc::clone(&schema), 1);
        let origin = b.add_peer(base_with(&schema, &[]), 0);
        let _a = b.add_peer(
            base_with(&schema, &[("http://x/1", "prop1", "http://y/1")]),
            0,
        );
        let _c = b.add_peer(
            base_with(
                &schema,
                &[
                    ("http://x/3", "prop1", "http://y/3"),
                    ("http://x/2", "prop1", "http://y/2"),
                ],
            ),
            0,
        );
        let mut net = b.build();
        let query = net
            .compile("SELECT X, Y FROM {X}prop1{Y} ORDER BY X DESC LIMIT 2")
            .unwrap();
        let qid = net.query(origin, query);
        net.run();
        let outcome = net.outcome(origin, qid).expect("completed");
        assert_eq!(outcome.result.len(), 2);
        assert_eq!(outcome.result.rows.row(0)[0].to_string(), "&http://x/3");
        assert_eq!(outcome.result.rows.row(1)[0].to_string(), "&http://x/2");
    }

    /// Repeated identical queries hit the super-peer's routing cache; the
    /// answers stay identical to the cold run.
    #[test]
    fn repeated_queries_hit_routing_cache() {
        let schema = fig1_schema();
        let mut b = HybridBuilder::new(Arc::clone(&schema), 1);
        let origin = b.add_peer(base_with(&schema, &[]), 0);
        let _p2 = b.add_peer(base_with(&schema, &[("a", "prop1", "b")]), 0);
        let _p5 = b.add_peer(base_with(&schema, &[("b", "prop2", "d")]), 0);
        let mut net = b.build();

        let query = net
            .compile("SELECT X, Z FROM {X}prop1{Y}, {Y}prop2{Z}")
            .unwrap();
        let qid0 = net.query(origin, query.clone());
        net.run();
        let cold = net.outcome(origin, qid0).expect("completed").result.clone();

        let qid1 = net.query(origin, query);
        net.run();
        let warm = net.outcome(origin, qid1).expect("completed").result.clone();
        assert_eq!(warm.sorted(), cold.sorted());

        // Routing is memoised at the super-peer (the routing service);
        // plans at the query root, where generation runs.
        let sp_stats = net
            .cache_stats(net.super_peers()[0])
            .expect("caching on by default");
        assert!(
            sp_stats.hits >= 2,
            "second routing pass must hit: {sp_stats:?}"
        );
        let root_stats = net.cache_stats(origin).unwrap();
        assert!(
            root_stats.plan_hits >= 1,
            "second plan must come cached: {root_stats:?}"
        );
    }

    /// Advertisement churn between queries invalidates cached routing
    /// state, and the post-churn answer reflects the new base content.
    #[test]
    fn churn_invalidates_routing_cache() {
        let schema = fig1_schema();
        let mut b = HybridBuilder::new(Arc::clone(&schema), 1);
        let origin = b.add_peer(base_with(&schema, &[]), 0);
        let holder = b.add_peer(base_with(&schema, &[("a", "prop1", "b")]), 0);
        let joiner = b.add_peer(base_with(&schema, &[]), 0);
        let mut net = b.build();

        let query = net.compile("SELECT X, Y FROM {X}prop1{Y}").unwrap();
        let qid0 = net.query(origin, query.clone());
        net.run();
        assert_eq!(net.outcome(origin, qid0).unwrap().result.len(), 1);

        // A previously-empty peer starts holding prop1 data and
        // re-advertises: its active-schema changes, so the cached
        // annotation for prop1 is stale and must be recomputed.
        net.update_peer_base(joiner, |db| {
            let prop = db.schema().property_by_name("prop1").unwrap();
            db.insert_described(Triple::new(Resource::new("c"), prop, Resource::new("d")));
        });
        net.run();

        let qid1 = net.query(origin, query);
        net.run();
        let outcome = net.outcome(origin, qid1).expect("completed");
        assert_eq!(outcome.result.len(), 2, "the joiner's row must appear");

        let stats = net.cache_stats(net.super_peers()[0]).unwrap();
        assert!(stats.invalidations >= 1, "churn must invalidate: {stats:?}");
        let _ = holder;
    }

    /// §3.1 mediation: a query in a global schema answered by peers whose
    /// bases use a different local schema, through a super-peer
    /// articulation.
    #[test]
    fn mediation_across_schemas() {
        use sqpeer_subsume::Articulation;
        // Global (query) schema.
        let mut gb = SchemaBuilder::new("g", "http://global#");
        let doc = gb.class("Document").unwrap();
        let person = gb.class("Person").unwrap();
        let author = gb.property("author", doc, Range::Class(person)).unwrap();
        let global = Arc::new(gb.finish().unwrap());
        // Local (data) schema.
        let mut lb = SchemaBuilder::new("l", "http://local#");
        let book = lb.class("Book").unwrap();
        let writer = lb.class("Writer").unwrap();
        let written_by = lb
            .property("writtenBy", book, Range::Class(writer))
            .unwrap();
        let local = Arc::new(lb.finish().unwrap());

        // A peer holding *local*-schema data inside a network whose
        // "community" compile schema is the global one.
        let mut local_base = DescriptionBase::new(Arc::clone(&local));
        local_base.insert_described(Triple::new(
            Resource::new("http://lib/moby-dick"),
            written_by,
            Resource::new("http://lib/melville"),
        ));
        let mut b = HybridBuilder::new(Arc::clone(&global), 1);
        let origin = b.add_peer(DescriptionBase::new(Arc::clone(&global)), 0);
        let holder = b.add_peer(local_base, 0);
        let mut net = b.build();

        let art = Articulation::builder(Arc::clone(&global), Arc::clone(&local))
            .map_class(doc, book)
            .map_class(person, writer)
            .map_property(author, written_by)
            .finish()
            .unwrap();
        let sp = net.super_peers()[0];
        net.sim_mut()
            .node_mut(node_of(sp))
            .unwrap()
            .son
            .articulations
            .push(art);

        let query = net.compile("SELECT D, P FROM {D}g:author{P}").unwrap();
        let qid = net.query(origin, query);
        net.run();
        let outcome = net.outcome(origin, qid).expect("completed");
        assert_eq!(
            outcome.result.len(),
            1,
            "mediated answer from the local-schema peer"
        );
        assert_eq!(*outcome.result.columns, ["D", "P"]);
        assert!(!outcome.partial);
        let _ = holder;
    }

    #[test]
    fn base_update_reaches_routing() {
        let schema = fig1_schema();
        let mut b = HybridBuilder::new(Arc::clone(&schema), 1);
        let origin = b.add_peer(base_with(&schema, &[]), 0);
        let grower = b.add_peer(base_with(&schema, &[]), 0);
        let mut net = b.build();
        // Initially nobody can answer.
        let query = net.compile("SELECT X, Y FROM {X}prop1{Y}").unwrap();
        let q1 = net.query(origin, query.clone());
        net.run();
        assert!(net.outcome(origin, q1).unwrap().result.is_empty());
        // The grower acquires prop1 data and re-advertises.
        let p1 = schema.property_by_name("prop1").unwrap();
        net.update_peer_base(grower, |db| {
            db.insert_described(Triple::new(
                Resource::new("http://new/a"),
                p1,
                Resource::new("http://new/b"),
            ));
        });
        net.run();
        let q2 = net.query(origin, query);
        net.run();
        assert_eq!(net.outcome(origin, q2).unwrap().result.len(), 1);
    }

    #[test]
    fn graceful_leave_withdraws_advertisement() {
        let schema = fig1_schema();
        let mut b = HybridBuilder::new(Arc::clone(&schema), 2);
        let origin = b.add_peer(base_with(&schema, &[]), 0);
        let leaver = b.add_peer(base_with(&schema, &[("http://a", "prop1", "http://b")]), 0);
        let mut net = b.build();
        // Both super-peers know the leaver (backbone replication).
        for &sp in net.super_peers() {
            assert!(net
                .sim()
                .node(node_of(sp))
                .unwrap()
                .son
                .registry
                .get(leaver)
                .is_some());
        }
        net.leave_peer(leaver);
        net.run();
        for &sp in net.super_peers() {
            assert!(
                net.sim()
                    .node(node_of(sp))
                    .unwrap()
                    .son
                    .registry
                    .get(leaver)
                    .is_none(),
                "withdrawal must replicate to {sp}"
            );
        }
        // A query now returns empty (no holder remains) instead of failing.
        let query = net.compile("SELECT X, Y FROM {X}prop1{Y}").unwrap();
        let qid = net.query(origin, query);
        net.run();
        let outcome = net.outcome(origin, qid).expect("completed");
        assert!(outcome.result.is_empty());
    }

    /// The acceptance scenario for lease-based churn handling: a member
    /// crashes ungracefully; once its lease expires queries still
    /// complete — partial, with the ghost *named* — and the full answer
    /// returns after restart + re-advertisement.
    #[test]
    fn lease_expiry_names_ghost_and_recovery_restores() {
        const LEASE: u64 = 2_000_000; // 2 virtual seconds
        let schema = fig1_schema();
        let mut b = HybridBuilder::new(Arc::clone(&schema), 2).config(PeerConfig {
            ad_lease_us: Some(LEASE),
            ..PeerConfig::default()
        });
        let origin = b.add_peer(base_with(&schema, &[]), 0);
        let victim = b.add_peer(base_with(&schema, &[("a", "prop1", "b")]), 0);
        let survivor = b.add_peer(base_with(&schema, &[("c", "prop1", "d")]), 1);
        let mut net = b.build();

        let query = net.compile("SELECT X, Y FROM {X}prop1{Y}").unwrap();

        // Fault-free baseline: both holders answer.
        let q0 = net.query(origin, query.clone());
        net.run_for(LEASE);
        let full = net.outcome(origin, q0).expect("completed").clone();
        assert!(!full.partial);
        assert_eq!(full.result.len(), 2);

        // The victim crashes ungracefully — nobody is notified; its
        // heartbeats simply stop.
        net.crash_peer_silent(victim);
        net.run_for(3 * LEASE);
        for &sp in net.super_peers() {
            let node = net.sim().node(node_of(sp)).unwrap();
            assert!(
                node.son.registry.get(victim).is_none(),
                "lease sweep must purge the ghost at {sp}"
            );
            assert_eq!(
                node.departed_peers(),
                vec![victim],
                "the expiry tombstone must reach {sp}"
            );
        }

        // Queries now complete promptly as honest partial answers naming
        // the missing contributor.
        let q1 = net.query(origin, query.clone());
        net.run_for(2 * LEASE);
        let degraded = net.outcome(origin, q1).expect("completed").clone();
        assert!(degraded.partial);
        assert_eq!(degraded.missing, vec![victim]);
        assert_eq!(degraded.result.len(), 1, "the survivor's row still arrives");

        // Restart: the recovering peer re-advertises, tombstones clear,
        // and the full answer comes back.
        net.restart_peer(victim);
        net.run_for(LEASE);
        let q2 = net.query(origin, query);
        net.run_for(2 * LEASE);
        let healed = net.outcome(origin, q2).expect("completed").clone();
        assert!(!healed.partial, "{healed:?}");
        assert_eq!(healed.result.len(), 2);
        for &sp in net.super_peers() {
            assert!(net
                .sim()
                .node(node_of(sp))
                .unwrap()
                .departed_peers()
                .is_empty());
        }
        let _ = survivor;
    }

    #[test]
    fn ids_are_stable_and_disjoint() {
        let schema = fig1_schema();
        let mut b = HybridBuilder::new(Arc::clone(&schema), 2);
        let p = b.add_peer(base_with(&schema, &[]), 0);
        let q = b.add_peer(base_with(&schema, &[]), 1);
        let net = b.build();
        assert_eq!(net.super_peers(), &[PeerId(0), PeerId(1)]);
        assert_eq!(net.peers(), &[p, q]);
        assert_eq!(p, PeerId(2));
        assert_eq!(q, PeerId(3));
        assert_eq!(net.client(), PeerId(4));
    }
}
