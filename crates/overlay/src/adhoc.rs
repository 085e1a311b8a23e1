//! The ad-hoc, self-adaptive architecture of §3.2.
//!
//! "When a peer first joins the system, it becomes aware only of its
//! physically close neighbors. … In the next step, the peer explicitly
//! requests the active-schemas of its neighbor peers (pull)." Peers route
//! locally over this semantic neighbourhood; partial plans with holes are
//! forwarded and filled downstream (interleaved routing and processing).

use crate::network::Network;
use sqpeer_exec::{inject, node_of, BaseKind, Msg, PeerConfig, PeerMode, PeerNode};
use sqpeer_net::Simulator;
use sqpeer_rdfs::Schema;
use sqpeer_routing::{PeerId, Topology};
use sqpeer_rvl::VirtualBase;
use sqpeer_store::DescriptionBase;
use std::sync::Arc;

/// Builder for an ad-hoc SON.
pub struct AdhocBuilder {
    schema: Arc<Schema>,
    config: PeerConfig,
    bases: Vec<BaseKind>,
    links: Vec<(u32, u32)>,
    discovery_depth: u32,
}

impl AdhocBuilder {
    /// Starts an ad-hoc network over `schema`. Peers pull advertisements
    /// from their `discovery_depth`-hop physical neighbourhood on join.
    pub fn new(schema: Arc<Schema>, discovery_depth: u32) -> Self {
        AdhocBuilder {
            schema,
            config: PeerConfig {
                mode: PeerMode::Adhoc,
                ..PeerConfig::default()
            },
            bases: Vec::new(),
            links: Vec::new(),
            discovery_depth: discovery_depth.max(1),
        }
    }

    /// Overrides the peer configuration template.
    pub fn config(mut self, config: PeerConfig) -> Self {
        self.config = PeerConfig {
            mode: PeerMode::Adhoc,
            ..config
        };
        self
    }

    /// Adds a peer with `base`; returns its future id (ids count from 0 in
    /// insertion order).
    pub fn add_peer(&mut self, base: DescriptionBase) -> PeerId {
        self.add_base(BaseKind::Materialized(base))
    }

    /// Adds a peer whose base is a **virtual** view over a legacy
    /// relational or XML database (§2.2's virtual scenario).
    pub fn add_virtual_peer(&mut self, source: VirtualBase) -> PeerId {
        self.add_base(BaseKind::virtual_base(source))
    }

    fn add_base(&mut self, base: BaseKind) -> PeerId {
        let id = self.bases.len() as u32;
        self.bases.push(base);
        PeerId(id)
    }

    /// Adds a physical link between two peers.
    pub fn link(&mut self, a: PeerId, b: PeerId) {
        self.links.push((a.0, b.0));
    }

    /// Finalises the network: spawns nodes, records physical neighbours,
    /// runs the pull-based discovery protocol (one costed `RequestAds` /
    /// `AdsResponse` round trip per neighbourhood member) and quiesces.
    pub fn build(self) -> AdhocNetwork {
        let AdhocBuilder {
            schema,
            config,
            bases,
            links,
            discovery_depth,
        } = self;
        let mut sim: Simulator<PeerNode> = Simulator::default();
        let mut topology = Topology::new();

        let count = bases.len() as u32;
        for (i, base) in bases.into_iter().enumerate() {
            let id = PeerId(i as u32);
            let mut node = PeerNode::new(id, sqpeer_exec::Role::Simple, base, config.clone());
            // A peer always knows its own base.
            if let Some(ad) = node.own_advertisement() {
                node.son.registry.register(ad);
            }
            sim.add_node(node_of(id), node);
            topology.add_peer(id);
        }
        for (a, b) in links {
            topology.add_link(PeerId(a), PeerId(b));
        }
        // Record physical neighbours on each node.
        for i in 0..count {
            let id = PeerId(i);
            let neighbours = topology.neighbours(id).to_vec();
            if let Some(node) = sim.node_mut(node_of(id)) {
                node.son.neighbours = neighbours;
            }
        }

        // The client node.
        let client = PeerId(count);
        sim.add_node(node_of(client), PeerNode::client(client));

        let peers = (0..count).map(PeerId).collect();
        let mut net = Network::new(sim, schema, &config, Vec::new(), peers, client, topology);
        // Pull-based discovery.
        for i in 0..count {
            net.discover(PeerId(i), discovery_depth);
        }
        net.run();
        net
    }
}

/// A running ad-hoc SON: the shared [`Network`] driver with no
/// super-peers, plus the physical topology its peers discover over.
pub type AdhocNetwork = Network;

/// What only an ad-hoc SON has: physical links and pull-based discovery
/// over them.
impl Network {
    /// The physical topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Sends `RequestAds` from `peer` to every member of its `depth`-hop
    /// neighbourhood — "it could request the active-schema information of
    /// a 2-depth, 3-depth, etc. neighbourhood" (§3.2).
    pub fn discover(&mut self, peer: PeerId, depth: u32) {
        for other in self.topology.neighbourhood(peer, depth as usize) {
            inject(self.sim_mut(), peer, other, Msg::RequestAds { depth });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{oracle_answer, oracle_base};
    use sqpeer_rdfs::{Range, Resource, SchemaBuilder, Triple};

    fn fig1_schema() -> Arc<Schema> {
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

    /// Ad-hoc mode routes locally at the querying peer — its own cache
    /// warms across repeated queries, with identical answers.
    #[test]
    fn adhoc_repeated_queries_warm_local_cache() {
        let schema = fig1_schema();
        let mut b = AdhocBuilder::new(Arc::clone(&schema), 1);
        let p1 = b.add_peer(base_with(&schema, &[]));
        let p2 = b.add_peer(base_with(&schema, &[("a", "prop1", "b")]));
        b.link(p1, p2);
        let mut net = b.build();

        let query = net.compile("SELECT X, Y FROM {X}prop1{Y}").unwrap();
        let qid0 = net.query(p1, query.clone());
        net.run();
        let cold = net.outcome(p1, qid0).expect("completed").result.clone();

        let qid1 = net.query(p1, query);
        net.run();
        let warm = net.outcome(p1, qid1).expect("completed").result.clone();
        assert_eq!(warm.sorted(), cold.sorted());

        let stats = net.cache_stats(p1).expect("caching on by default");
        assert!(
            stats.hits >= 1,
            "repeat must hit the routing cache: {stats:?}"
        );
    }

    /// In a flat group a holder's statistics ride to the root once, on its
    /// first answer, and an unchanged snapshot leaves the registry versions
    /// alone: the second posing of a query is planned from the cache.
    #[test]
    fn adhoc_second_posing_is_planned_from_the_cache() {
        let schema = fig1_schema();
        let mut b = AdhocBuilder::new(Arc::clone(&schema), 1);
        let root = b.add_peer(base_with(&schema, &[]));
        let holders = [
            b.add_peer(base_with(&schema, &[("a", "prop1", "b")])),
            b.add_peer(base_with(&schema, &[("b", "prop2", "c")])),
        ];
        holders.iter().for_each(|&h| b.link(root, h));
        let mut net = b.build();
        let query = net
            .compile("SELECT X, Z FROM {X}prop1{Y}, {Y}prop2{Z}")
            .unwrap();
        let answers: Vec<_> = (0..2)
            .map(|_| {
                let qid = net.query(root, query.clone());
                net.run();
                net.outcome(root, qid)
                    .expect("completed")
                    .result
                    .clone()
                    .sorted()
            })
            .collect();
        assert_eq!(answers[0], answers[1]);
        assert_eq!(answers[0].len(), 1);
        let stats = net.cache_stats(root).expect("caching on by default");
        assert_eq!((stats.plan_hits, stats.plan_misses), (1, 1), "{stats:?}");
        for h in holders {
            let holder = net.sim().node(sqpeer_exec::node_of(h)).unwrap();
            assert_eq!(holder.stats_attached(), 1, "holder {h:?}");
        }
    }

    /// The Figure 7 scenario: P1 knows P2, P3, P4; only P5 (known to P2)
    /// can answer Q2; the query completes through interleaved routing.
    #[test]
    fn figure7_hole_filling() {
        let schema = fig1_schema();
        let mut b = AdhocBuilder::new(Arc::clone(&schema), 1);
        let p1 = b.add_peer(base_with(&schema, &[]));
        let p2 = b.add_peer(base_with(&schema, &[("a", "prop1", "b")]));
        let p3 = b.add_peer(base_with(&schema, &[("c", "prop1", "b")]));
        let p4 = b.add_peer(base_with(&schema, &[])); // knows nothing useful
        let p5 = b.add_peer(base_with(&schema, &[("b", "prop2", "d")]));
        // Physical topology: P1 - {P2,P3,P4}; P5 only reachable via P2.
        b.link(p1, p2);
        b.link(p1, p3);
        b.link(p1, p4);
        b.link(p2, p5);
        let mut net = b.build();

        // With 1-hop discovery P1 does not know P5.
        let p1_node = net.sim().node(node_of(p1)).unwrap();
        assert!(p1_node.son.registry.get(p5).is_none());
        assert!(p1_node.son.registry.get(p2).is_some());

        let query = net
            .compile("SELECT X, Z FROM {X}prop1{Y}, {Y}prop2{Z}")
            .unwrap();
        let qid = net.query(p1, query.clone());
        net.run();

        let outcome = net.outcome(p1, qid).expect("completed").clone();
        let oracle = oracle_base(&schema, net.bases());
        let expected = oracle_answer(&oracle, &query);
        assert_eq!(
            outcome.result.clone().sorted(),
            expected,
            "hole filled through P2/P5"
        );
        assert_eq!(outcome.result.len(), 2);
    }

    #[test]
    fn deeper_discovery_avoids_holes() {
        let schema = fig1_schema();
        let build = |depth: u32| {
            let mut b = AdhocBuilder::new(Arc::clone(&schema), depth);
            let p1 = b.add_peer(base_with(&schema, &[]));
            let p2 = b.add_peer(base_with(&schema, &[("a", "prop1", "b")]));
            let p5 = b.add_peer(base_with(&schema, &[("b", "prop2", "d")]));
            b.link(p1, p2);
            b.link(p2, p5);
            (b.build(), p1, p5)
        };
        // Depth 2: P1 knows P5 directly; no interleaving needed.
        let (net2, p1, p5) = build(2);
        assert!(net2
            .sim()
            .node(node_of(p1))
            .unwrap()
            .son
            .registry
            .get(p5)
            .is_some());
        // Depth 1: P1 does not know P5.
        let (net1, p1, p5) = build(1);
        assert!(net1
            .sim()
            .node(node_of(p1))
            .unwrap()
            .son
            .registry
            .get(p5)
            .is_none());
    }

    #[test]
    fn unanswerable_hole_yields_partial() {
        let schema = fig1_schema();
        let mut b = AdhocBuilder::new(Arc::clone(&schema), 1);
        let p1 = b.add_peer(base_with(&schema, &[]));
        let p2 = b.add_peer(base_with(&schema, &[("a", "prop1", "b")]));
        b.link(p1, p2);
        let mut net = b.build();
        // Nobody anywhere holds prop2.
        let query = net
            .compile("SELECT X, Z FROM {X}prop1{Y}, {Y}prop2{Z}")
            .unwrap();
        let qid = net.query(p1, query);
        net.run();
        let outcome = net.outcome(p1, qid).expect("completed");
        assert!(outcome.partial);
        assert!(outcome.result.is_empty());
    }

    #[test]
    fn virtual_peer_answers_through_the_network() {
        use sqpeer_rvl::{ColumnMapping, Database, Table, TableMapping};
        let schema = fig1_schema();
        let p1_prop = schema.property_by_name("prop1").unwrap();
        // A legacy relational peer exposing prop1 through a mapping.
        let mut table = Table::new("links", &["src", "dst"]);
        table.insert(&["a", "b"]);
        table.insert(&["c", "d"]);
        let mut db = Database::new();
        db.add_table(table);
        let vb = VirtualBase::new(
            Arc::clone(&schema),
            db,
            vec![TableMapping {
                table: "links".into(),
                subject_column: "src".into(),
                subject_prefix: "http://legacy/".into(),
                object_column: "dst".into(),
                object: ColumnMapping::Resource {
                    prefix: "http://legacy/".into(),
                },
                property: p1_prop,
            }],
        );
        let mut b = AdhocBuilder::new(Arc::clone(&schema), 1);
        let origin = b.add_peer(base_with(&schema, &[]));
        let legacy = b.add_virtual_peer(vb);
        b.link(origin, legacy);
        let mut net = b.build();
        // The virtual peer advertised prop1 without materialising anything.
        assert!(net
            .sim()
            .node(node_of(origin))
            .unwrap()
            .son
            .registry
            .get(legacy)
            .is_some());
        let query = net.compile("SELECT X, Y FROM {X}prop1{Y}").unwrap();
        let qid = net.query(origin, query);
        net.run();
        let outcome = net.outcome(origin, qid).expect("completed");
        assert_eq!(outcome.result.len(), 2, "populated on demand at query time");
    }

    #[test]
    fn xml_peer_answers_through_the_network() {
        use sqpeer_rvl::{ColumnMapping, Element, PathMapping, ValueSource};
        let schema = fig1_schema();
        let prop1 = schema.property_by_name("prop1").unwrap();
        let doc = Element::new("lib").child(
            Element::new("item")
                .attr("id", "a")
                .child(Element::new("rel").text("b")),
        );
        let xb = VirtualBase::from_xml(
            Arc::clone(&schema),
            &doc,
            vec![PathMapping {
                path: "lib/item".into(),
                subject: ValueSource::Attribute("id".into()),
                subject_prefix: "http://xml/".into(),
                object: ValueSource::ChildText("rel".into()),
                object_kind: ColumnMapping::Resource {
                    prefix: "http://xml/".into(),
                },
                property: prop1,
            }],
        );
        let mut b = AdhocBuilder::new(Arc::clone(&schema), 1);
        let origin = b.add_peer(base_with(&schema, &[]));
        let xml_peer = b.add_virtual_peer(xb);
        b.link(origin, xml_peer);
        let mut net = b.build();
        let query = net.compile("SELECT X, Y FROM {X}prop1{Y}").unwrap();
        let qid = net.query(origin, query);
        net.run();
        let outcome = net.outcome(origin, qid).expect("completed");
        assert_eq!(outcome.result.len(), 1, "XML-backed population answered");
    }

    #[test]
    fn crash_during_query_adapts() {
        let schema = fig1_schema();
        let mut b = AdhocBuilder::new(Arc::clone(&schema), 1);
        let p1 = b.add_peer(base_with(&schema, &[]));
        let dying = b.add_peer(base_with(&schema, &[("a", "prop1", "b")]));
        let backup = b.add_peer(base_with(&schema, &[("a", "prop1", "b")]));
        b.link(p1, dying);
        b.link(p1, backup);
        let mut net = b.build();

        net.crash_peer(dying);
        let query = net.compile("SELECT X, Y FROM {X}prop1{Y}").unwrap();
        let qid = net.query(p1, query);
        net.run();
        let outcome = net.outcome(p1, qid).expect("completed");
        assert_eq!(outcome.result.len(), 1);
        let _ = backup;
    }

    /// Ad-hoc discovery gets the same staleness bound as hybrid leases: a
    /// silently-crashed neighbour's entry expires, queries degrade to
    /// honest partial answers naming the ghost, and a restarted peer
    /// re-advertises its way back in.
    #[test]
    fn adhoc_neighbour_entries_have_staleness_bound() {
        const LEASE: u64 = 2_000_000; // 2 virtual seconds
        let schema = fig1_schema();
        let mut b = AdhocBuilder::new(Arc::clone(&schema), 1).config(PeerConfig {
            ad_lease_us: Some(LEASE),
            ..PeerConfig::default()
        });
        let origin = b.add_peer(base_with(&schema, &[]));
        let holder = b.add_peer(base_with(&schema, &[("x", "prop1", "y")]));
        b.link(origin, holder);
        let mut net = b.build();

        let query = net.compile("SELECT X, Y FROM {X}prop1{Y}").unwrap();
        let q0 = net.query(origin, query.clone());
        net.run_for(LEASE);
        let full = net.outcome(origin, q0).expect("completed").clone();
        assert!(!full.partial);
        assert_eq!(full.result.len(), 1);

        net.crash_peer_silent(holder);
        net.run_for(3 * LEASE);
        let node_a = net.sim().node(node_of(origin)).unwrap();
        assert!(
            node_a.son.registry.get(holder).is_none(),
            "the stale neighbour entry must expire"
        );
        assert_eq!(node_a.departed_peers(), vec![holder]);

        let q1 = net.query(origin, query.clone());
        net.run_for(2 * LEASE);
        let degraded = net.outcome(origin, q1).expect("completed").clone();
        assert!(degraded.partial);
        assert_eq!(degraded.missing, vec![holder]);

        net.restart_peer(holder);
        net.run_for(LEASE);
        let q2 = net.query(origin, query);
        net.run_for(2 * LEASE);
        let healed = net.outcome(origin, q2).expect("completed").clone();
        assert!(!healed.partial, "{healed:?}");
        assert_eq!(healed.result.len(), 1);
    }

    /// The observability plane's rollup pushes re-arm for ever, like
    /// lease heartbeats: an ad-hoc SON with the plane on must boot and
    /// answer through the same bounded-window `run()` a hybrid one uses.
    #[test]
    fn adhoc_with_obs_builds_and_answers() {
        let schema = fig1_schema();
        let mut b = AdhocBuilder::new(Arc::clone(&schema), 1).config(PeerConfig {
            obs: Some(sqpeer_exec::ObsConfig::default()),
            ..PeerConfig::default()
        });
        let origin = b.add_peer(base_with(&schema, &[("a", "prop1", "b")]));
        let holder = b.add_peer(base_with(&schema, &[("b", "prop2", "c")]));
        b.link(origin, holder);
        let mut net = b.build();

        let query = net
            .compile("SELECT X, Z FROM {X}prop1{Y}, {Y}prop2{Z}")
            .unwrap();
        let qid = net.query(origin, query.clone());
        net.run();
        let outcome = net.outcome(origin, qid).expect("completed");
        assert!(!outcome.partial, "{outcome:?}");
        let oracle = oracle_base(&schema, net.bases());
        assert_eq!(
            outcome.result.clone().sorted(),
            oracle_answer(&oracle, &query)
        );
        assert_eq!(outcome.result.len(), 1);
    }
}
