//! Scale tests: the full stack at sizes well past the paper's worked
//! examples — hundreds of peers, many queries, churn, and both
//! architectures — every answer still checked against the centralised
//! oracle.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqpeer::exec::{node_of, PeerConfig, PeerMode};
use sqpeer::overlay::oracle_answer;
use sqpeer::prelude::*;
use sqpeer_testkit::{
    adhoc_network, community_schema, hier_network, hybrid_network, random_chain_query, DataSpec,
    NetworkSpec, SchemaSpec, TopologyKind,
};

#[test]
fn hybrid_hundred_peers_many_queries() {
    let schema = community_schema(
        SchemaSpec {
            chain_classes: 8,
            subclasses_per_class: 1,
            subproperty_fraction: 0.5,
        },
        21,
    );
    let spec = NetworkSpec {
        peers: 100,
        properties_per_peer: 3,
        data: DataSpec {
            triples_per_property: 8,
            class_pool: 10,
        },
        seed: 21,
    };
    let (mut net, ids) = hybrid_network(&schema, spec, 4, PeerConfig::default());
    let oracle = {
        let mut o = DescriptionBase::new(schema.clone());
        for b in net.bases() {
            o.absorb(b);
        }
        o
    };
    let mut rng = StdRng::seed_from_u64(21);
    let mut checked = 0;
    for i in 0..10 {
        let len = 1 + i % 3;
        let Some(query) = random_chain_query(&schema, len, &mut rng) else {
            continue;
        };
        let origin = ids[(i * 7) % ids.len()];
        let qid = net.query(origin, query.clone());
        net.run();
        let outcome = net.outcome(origin, qid).expect("completed").clone();
        let expected = oracle_answer(&oracle, &query);
        assert_eq!(
            outcome.result.clone().sorted(),
            expected,
            "query {i} (len {len}) at {origin}: {query}"
        );
        checked += 1;
    }
    assert!(checked >= 8, "most random queries must be generable");
}

#[test]
fn adhoc_sixty_peers_with_churn() {
    let schema = community_schema(SchemaSpec::default(), 22);
    let spec = NetworkSpec {
        peers: 60,
        properties_per_peer: 2,
        data: DataSpec {
            triples_per_property: 10,
            class_pool: 8,
        },
        seed: 22,
    };
    let config = PeerConfig {
        mode: PeerMode::Adhoc,
        ..PeerConfig::default()
    };
    let (mut net, ids) = adhoc_network(
        &schema,
        spec,
        TopologyKind::Random { permille: 80 },
        3,
        config,
    );
    let full_oracle = {
        let mut o = DescriptionBase::new(schema.clone());
        for b in net.bases() {
            o.absorb(b);
        }
        o
    };
    // Crash every 5th peer, then fire queries from survivors.
    for &p in ids.iter().step_by(5) {
        let now = net.sim().now_us();
        net.sim_mut().schedule_node_down(now, node_of(p));
    }
    let mut rng = StdRng::seed_from_u64(22);
    for i in 0..10 {
        let Some(query) = random_chain_query(&schema, 1 + i % 2, &mut rng) else {
            continue;
        };
        let origin = ids[(i * 3 + 1) % ids.len()];
        if ids.iter().step_by(5).any(|&p| p == origin) {
            continue; // origin crashed
        }
        let qid = net.query(origin, query.clone());
        net.run();
        let outcome = net.outcome(origin, qid).expect("completed").clone();
        // Soundness under churn: no spurious rows vs the full oracle.
        let expected = oracle_answer(&full_oracle, &query);
        for row in outcome.result.rows.iter() {
            assert!(
                expected.rows.iter().any(|e| e == row),
                "spurious row {row:?} for {query}"
            );
        }
    }
}

#[test]
fn deep_chain_queries_scale() {
    // Long chains (4 patterns) across a 24-peer hybrid network.
    let schema = community_schema(
        SchemaSpec {
            chain_classes: 6,
            subclasses_per_class: 0,
            subproperty_fraction: 0.0,
        },
        23,
    );
    let spec = NetworkSpec {
        peers: 24,
        properties_per_peer: 3,
        data: DataSpec {
            triples_per_property: 8,
            class_pool: 5,
        },
        seed: 23,
    };
    let (mut net, ids) = hybrid_network(&schema, spec, 2, PeerConfig::default());
    let oracle = {
        let mut o = DescriptionBase::new(schema.clone());
        for b in net.bases() {
            o.absorb(b);
        }
        o
    };
    let mut rng = StdRng::seed_from_u64(23);
    let query = random_chain_query(&schema, 4, &mut rng).expect("4-chain exists");
    let qid = net.query(ids[0], query.clone());
    net.run();
    let outcome = net.outcome(ids[0], qid).expect("completed").clone();
    assert_eq!(
        outcome.result.clone().sorted(),
        oracle_answer(&oracle, &query)
    );
    assert!(
        !outcome.result.is_empty(),
        "dense pools make 4-chains joinable"
    );
}

/// A deterministic 1,000-peer hierarchical SON inside the ordinary
/// (debug-build) test run. Tiny per-peer bases keep evaluation cheap;
/// the message and wall-clock budgets keep the run honest about *why*
/// it is tractable: the cluster tree carries summaries, not the
/// O(S²·N) flat-backbone replication (40² super-peer pairs × 1,000
/// advertisements would alone be 1.6M messages).
#[test]
fn hierarchical_thousand_peer_smoke() {
    let started = std::time::Instant::now();
    let schema = community_schema(
        SchemaSpec {
            chain_classes: 8,
            subclasses_per_class: 1,
            subproperty_fraction: 0.5,
        },
        31,
    );
    let spec = NetworkSpec {
        peers: 1_000,
        properties_per_peer: 1,
        data: DataSpec {
            triples_per_property: 2,
            class_pool: 6,
        },
        seed: 31,
    };
    let (mut net, ids) = hier_network(&schema, spec, 40, 8, PeerConfig::default());
    let boot_messages = net.sim().metrics().total_messages();
    assert!(
        boot_messages < 20_000,
        "boot traffic blew the budget: {boot_messages} messages for 1,000 joins"
    );

    let oracle = {
        let mut o = DescriptionBase::new(schema.clone());
        for b in net.bases() {
            o.absorb(b);
        }
        o
    };
    net.sim_mut().reset_metrics();
    let mut rng = StdRng::seed_from_u64(31);
    let mut checked = 0;
    for i in 0..3 {
        let Some(query) = random_chain_query(&schema, 1 + i % 2, &mut rng) else {
            continue;
        };
        let origin = ids[(i * 311) % ids.len()];
        let qid = net.query(origin, query.clone());
        net.run();
        let outcome = net.outcome(origin, qid).expect("completed").clone();
        assert!(!outcome.partial, "fault-free run must be complete");
        assert_eq!(
            outcome.result.clone().sorted(),
            oracle_answer(&oracle, &query),
            "query {i} at {origin}: {query}"
        );
        checked += 1;
    }
    assert!(checked >= 2, "queries must be generable at this seed");
    let query_messages = net.sim().metrics().total_messages();
    assert!(
        query_messages < 30_000,
        "query traffic blew the budget: {query_messages} messages for {checked} queries"
    );
    assert!(
        started.elapsed() < std::time::Duration::from_secs(120),
        "thousand-peer smoke exceeded its wall-clock ceiling: {:?}",
        started.elapsed()
    );
}

#[test]
fn repeated_network_reuse_stays_consistent() {
    // 50 sequential queries on one network: channels and frames must not
    // leak or cross queries.
    let schema = community_schema(SchemaSpec::default(), 24);
    let spec = NetworkSpec {
        peers: 12,
        properties_per_peer: 2,
        data: DataSpec {
            triples_per_property: 10,
            class_pool: 8,
        },
        seed: 24,
    };
    let (mut net, ids) = hybrid_network(&schema, spec, 1, PeerConfig::default());
    let mut rng = StdRng::seed_from_u64(24);
    let query = random_chain_query(&schema, 2, &mut rng).expect("chain exists");
    let mut reference: Option<ResultSet> = None;
    for i in 0..50 {
        let origin = ids[i % ids.len()];
        let qid = net.query(origin, query.clone());
        net.run();
        let got = net
            .outcome(origin, qid)
            .expect("completed")
            .result
            .clone()
            .sorted();
        match &reference {
            None => reference = Some(got),
            Some(r) => assert_eq!(&got, r, "iteration {i} diverged"),
        }
    }
}
