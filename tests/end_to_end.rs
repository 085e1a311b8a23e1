//! Whole-system integration tests over generated networks: distributed
//! answers must match the centralised oracle across seeds, architectures,
//! topologies and churn.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqpeer::exec::{node_of, PeerConfig, PeerMode};
use sqpeer::overlay::{oracle_answer, oracle_base};
use sqpeer_testkit::{
    adhoc_network, community_schema, hybrid_network, random_chain_query, DataSpec, NetworkSpec,
    SchemaSpec, TopologyKind,
};

fn small_spec(seed: u64) -> NetworkSpec {
    NetworkSpec {
        peers: 8,
        properties_per_peer: 2,
        data: DataSpec {
            triples_per_property: 20,
            class_pool: 10,
        },
        seed,
    }
}

/// The configurations every oracle comparison runs under: optimised and
/// unoptimised plans.
fn configs() -> Vec<PeerConfig> {
    vec![
        PeerConfig::default(),
        PeerConfig {
            optimize: false,
            ..PeerConfig::default()
        },
    ]
}

#[test]
fn hybrid_matches_oracle_across_seeds() {
    let schema = community_schema(SchemaSpec::default(), 1);
    for seed in [1u64, 7, 42] {
        for config in configs() {
            let (mut net, ids) = hybrid_network(&schema, small_spec(seed), 2, config);
            let mut rng = StdRng::seed_from_u64(seed);
            for len in 1..=3 {
                let Some(query) = random_chain_query(&schema, len, &mut rng) else {
                    continue;
                };
                let origin = ids[(seed as usize + len) % ids.len()];
                let qid = net.query(origin, query.clone());
                net.run();
                let outcome = net.outcome(origin, qid).expect("completed").clone();
                let oracle = oracle_base(&schema, net.bases());
                let expected = oracle_answer(&oracle, &query);
                assert_eq!(
                    outcome.result.clone().sorted(),
                    expected,
                    "seed {seed} len {len}: {query}"
                );
                // A plan is only partial when no peer at all advertises
                // some pattern — in which case the oracle is empty too.
                if !expected.is_empty() {
                    assert!(!outcome.partial);
                }
            }
        }
    }
}

#[test]
fn adhoc_matches_oracle_with_deep_discovery() {
    // With discovery depth covering the whole ring, every peer knows every
    // advertisement, so ad-hoc must achieve oracle completeness.
    let schema = community_schema(SchemaSpec::default(), 2);
    let config = PeerConfig {
        mode: PeerMode::Adhoc,
        ..PeerConfig::default()
    };
    let (mut net, ids) = adhoc_network(
        &schema,
        small_spec(3),
        TopologyKind::Ring { extra: 2 },
        8, // ≥ network diameter
        config,
    );
    let mut rng = StdRng::seed_from_u64(5);
    for len in 1..=2 {
        let Some(query) = random_chain_query(&schema, len, &mut rng) else {
            continue;
        };
        let origin = ids[len % ids.len()];
        let qid = net.query(origin, query.clone());
        net.run();
        let outcome = net.outcome(origin, qid).expect("completed").clone();
        let oracle = oracle_base(&schema, net.bases());
        assert_eq!(
            outcome.result.clone().sorted(),
            oracle_answer(&oracle, &query)
        );
    }
}

#[test]
fn adhoc_shallow_discovery_is_correct_but_possibly_incomplete() {
    // With 1-hop discovery the answer may be partial — but never wrong:
    // every returned row must be an oracle row (§2.4 correctness).
    let schema = community_schema(SchemaSpec::default(), 2);
    let config = PeerConfig {
        mode: PeerMode::Adhoc,
        ..PeerConfig::default()
    };
    let (mut net, ids) = adhoc_network(
        &schema,
        small_spec(9),
        TopologyKind::Ring { extra: 0 },
        1,
        config,
    );
    let mut rng = StdRng::seed_from_u64(9);
    let query = random_chain_query(&schema, 2, &mut rng).expect("chain exists");
    let origin = ids[0];
    let qid = net.query(origin, query.clone());
    net.run();
    let outcome = net.outcome(origin, qid).expect("completed").clone();
    let oracle = oracle_base(&schema, net.bases());
    let expected = oracle_answer(&oracle, &query);
    for row in outcome.result.rows.iter() {
        assert!(
            expected.rows.iter().any(|e| e == row),
            "spurious row {row:?}"
        );
    }
}

#[test]
fn churn_leaves_are_handled() {
    // Crash a third of the peers, then query: answers must still be
    // correct (subset of the oracle over the *surviving* bases is not
    // required — crashed peers' data is simply unavailable — but no wrong
    // rows may appear vs the full oracle).
    let schema = community_schema(SchemaSpec::default(), 4);
    let (mut net, ids) = hybrid_network(&schema, small_spec(11), 2, PeerConfig::default());
    let full_oracle = oracle_base(&schema, net.bases());
    for &p in ids.iter().step_by(3) {
        let now = net.sim().now_us();
        net.sim_mut().schedule_node_down(now, node_of(p));
    }
    let mut rng = StdRng::seed_from_u64(11);
    let query = random_chain_query(&schema, 2, &mut rng).expect("chain exists");
    let origin = ids[1];
    assert!(
        ids.iter().step_by(3).all(|&p| p != origin),
        "origin survives"
    );
    let qid = net.query(origin, query.clone());
    net.run();
    let outcome = net.outcome(origin, qid).expect("completed").clone();
    let expected = oracle_answer(&full_oracle, &query);
    for row in outcome.result.rows.iter() {
        assert!(
            expected.rows.iter().any(|e| e == row),
            "spurious row {row:?}"
        );
    }
}

#[test]
fn repeated_queries_reuse_channels() {
    let schema = community_schema(SchemaSpec::default(), 1);
    let (mut net, ids) = hybrid_network(&schema, small_spec(2), 1, PeerConfig::default());
    let mut rng = StdRng::seed_from_u64(2);
    let query = random_chain_query(&schema, 1, &mut rng).expect("chain exists");
    let origin = ids[0];
    let q1 = net.query(origin, query.clone());
    net.run();
    let q2 = net.query(origin, query.clone());
    net.run();
    let a = net.outcome(origin, q1).unwrap().result.clone().sorted();
    let b = net.outcome(origin, q2).unwrap().result.clone().sorted();
    assert_eq!(a, b, "same query, same answer");
    // One channel per contacted peer across both queries (§2.4).
    let channels = net.sim().node(node_of(origin)).unwrap().rooted_channels();
    let contacted: usize = ids
        .iter()
        .filter(|&&p| p != origin && net.sim().node(node_of(p)).unwrap().queries_processed > 0)
        .count();
    assert!(
        channels <= contacted.max(1),
        "channels {channels} must not exceed contacted peers {contacted}"
    );
}

#[test]
fn determinism_same_seed_same_everything() {
    let run = || {
        let schema = community_schema(SchemaSpec::default(), 6);
        let (mut net, ids) = hybrid_network(&schema, small_spec(6), 2, PeerConfig::default());
        let mut rng = StdRng::seed_from_u64(6);
        let query = random_chain_query(&schema, 2, &mut rng).expect("chain exists");
        let qid = net.query(ids[0], query);
        net.run();
        let o = net.outcome(ids[0], qid).unwrap();
        (
            o.result.clone().sorted().rows.len(),
            o.completed_at_us,
            net.sim().metrics().total_messages(),
            net.sim().metrics().total_bytes(),
        )
    };
    assert_eq!(run(), run());
}

/// Deadlock freedom at the tightest credit window: two peers stream
/// multi-packet answers *to each other* concurrently over the same
/// channel pair, each under `stream_credit_window = 1`. Every data
/// packet must wait for the previous packet's credit grant, in both
/// directions at once — a credit machine that coupled the duplex
/// directions (or dropped a grant) would wedge one side forever. The
/// model checker explores this duplex configuration exhaustively
/// (`stream/w1-duplex` in sqpeer-model); this test pins the real wiring.
#[test]
fn duplex_window_one_streams_complete_without_deadlock() {
    use sqpeer::exec::{Msg, PeerNode, QueryId};
    use sqpeer::net::{NodeId, Simulator};
    use sqpeer::rdfs::{Range, Resource, SchemaBuilder, Triple};
    use sqpeer::routing::PeerId;
    use sqpeer::rql::compile;
    use sqpeer::store::DescriptionBase;
    use std::sync::Arc;

    let mut b = SchemaBuilder::new("duplex", "http://example.org/duplex#");
    let c = b.class("C").unwrap();
    let prop = b.property("prop1", c, Range::Class(c)).unwrap();
    let schema = Arc::new(b.finish().unwrap());

    // Each peer holds 8 rows of the same property under distinct
    // subjects, so a single-pattern query rooted at either peer streams
    // the *other* peer's 8 rows across while its own evaluate locally.
    let base_for = |tag: &str| {
        let mut db = DescriptionBase::new(Arc::clone(&schema));
        for i in 0..8 {
            db.insert_described(Triple::new(
                Resource::new(format!("http://{tag}/s{i}")),
                prop,
                Resource::new(format!("http://{tag}/o{i}")),
            ));
        }
        db
    };
    let config = PeerConfig {
        mode: PeerMode::Adhoc,
        optimize: false,
        stream_batch_rows: Some(1),
        stream_credit_window: 1,
        ..PeerConfig::default()
    };
    let mut p1 = PeerNode::simple(PeerId(1), base_for("one"), config.clone());
    let mut p2 = PeerNode::simple(PeerId(2), base_for("two"), config);
    let ad1 = p1.own_advertisement().unwrap();
    let ad2 = p2.own_advertisement().unwrap();
    p1.son.registry.register(ad1.clone());
    p1.son.registry.register(ad2.clone());
    p2.son.registry.register(ad1);
    p2.son.registry.register(ad2);

    let mut sim: Simulator<PeerNode> = Simulator::default();
    sim.add_node(NodeId(1), p1);
    sim.add_node(NodeId(2), p2);
    sim.add_node(NodeId(99), PeerNode::client(PeerId(99)));

    // Both queries enter before anything runs: the streams cross.
    let query = compile("SELECT X, Y FROM {X}prop1{Y}", &schema).unwrap();
    for root in [1u32, 2] {
        let msg = Msg::ClientQuery {
            qid: QueryId(u64::from(root)),
            query: query.clone(),
        };
        let bytes = msg.wire_size();
        sim.inject(NodeId(99), NodeId(root), msg, bytes);
    }
    sim.run_to_quiescence();

    for root in [1u32, 2] {
        let node = sim.node(NodeId(root)).unwrap();
        let outcome = node
            .outcome(QueryId(u64::from(root)))
            .unwrap_or_else(|| panic!("peer {root} wedged: no outcome"));
        assert!(!outcome.partial, "peer {root}: duplex stream lost rows");
        assert_eq!(
            outcome.result.len(),
            16,
            "peer {root}: both fragments must arrive in full"
        );
        assert!(
            node.max_stream_inflight() <= 1,
            "peer {root}: window 1 breached ({} in flight)",
            node.max_stream_inflight()
        );
        assert!(
            node.max_stream_inflight() > 0,
            "peer {root}: streaming never engaged"
        );
    }
}
