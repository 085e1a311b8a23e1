//! Named, seeded scenario builders: the one statement of every fixture
//! an experiment runs on.
//!
//! Every builder is deterministic in its arguments. Where a builder
//! takes (or returns) an `StdRng`, the order of draws is part of its
//! contract — the recorded reports depend on it.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sqpeer::exec::{node_of, Msg, PeerConfig, QueryId};
use sqpeer::net::{Channel, ChannelId, ChannelState, LinkSpec};
use sqpeer::overlay::{HybridBuilder, HybridNetwork};
use sqpeer::plan::{single_pattern_subquery, PlanNode, Site, Subquery};
use sqpeer::prelude::*;
use sqpeer::routing::Topology;
use sqpeer_testkit::fixtures::{fig1_query_text, fig1_schema, fig2_bases};
use sqpeer_testkit::{
    community_schema, hybrid_network, populate, random_chain_query, zipf_workload, DataSpec,
    NetworkSpec, SchemaSpec,
};
use sqpeer_wire::{encode_frame, Envelope};
use std::sync::Arc;

/// The `prop1 . prop2` chain projected on its end points, in the
/// un-namespaced form `Network::compile` accepts.
pub const CHAIN_QUERY: &str = "SELECT X, Z FROM {X}prop1{Y}, {Y}prop2{Z}";

/// The Figure 1 query `Q`, compiled.
pub fn fig1_query(schema: &Arc<Schema>) -> QueryPattern {
    compile(fig1_query_text(), schema).expect("figure 1 query compiles")
}

/// Peers that execute plans exactly as handed to them (no optimiser).
pub fn unoptimized() -> PeerConfig {
    PeerConfig {
        optimize: false,
        ..PeerConfig::default()
    }
}

fn prop(schema: &Schema, name: &str) -> PropertyId {
    schema.property_by_name(name).expect("fig1 property")
}

/// A fresh base holding `spec` worth of triples under each of `props`.
pub fn populated(
    schema: &Arc<Schema>,
    props: &[PropertyId],
    spec: DataSpec,
    rng: &mut StdRng,
) -> DescriptionBase {
    let mut base = DescriptionBase::new(Arc::clone(schema));
    populate(&mut base, props, spec, rng);
    base
}

/// The Figure 2 peers at scale: each populates its Figure 2 property
/// profile from shared pools, every property as `spec_of` its name says.
pub fn fig2_bases_with(
    schema: &Arc<Schema>,
    seed: u64,
    spec_of: impl Fn(&str) -> DataSpec,
) -> Vec<DescriptionBase> {
    let mut rng = StdRng::seed_from_u64(seed);
    let profiles: [&[&str]; 4] = [
        &["prop1", "prop2"],
        &["prop1"],
        &["prop2"],
        &["prop4", "prop2"],
    ];
    profiles
        .iter()
        .map(|names| {
            let mut base = DescriptionBase::new(Arc::clone(schema));
            for name in names.iter() {
                populate(&mut base, &[prop(schema, name)], spec_of(name), &mut rng);
            }
            base
        })
        .collect()
}

/// [`fig2_bases_with`] `triples` triples under every property.
pub fn scaled_fig2_bases(schema: &Arc<Schema>, triples: usize, seed: u64) -> Vec<DescriptionBase> {
    let spec = DataSpec {
        triples_per_property: triples,
        class_pool: triples.max(4) / 2,
    };
    fig2_bases_with(schema, seed, |_| spec)
}

/// `n` advertisements with statistics, for peers `P1..Pn`, cycling
/// through `bases`.
pub fn ads_of(bases: &[DescriptionBase], n: usize) -> Vec<Advertisement> {
    (0..n)
        .map(|i| {
            let base = &bases[i % bases.len()];
            Advertisement::new(PeerId(i as u32 + 1), ActiveSchema::of_base(base))
                .with_stats(base.statistics())
        })
        .collect()
}

/// Builds the Figure 2 peers inside a 1-super-peer hybrid network so that
/// network peer ids coincide with the figure's P1..P4.
pub fn fig2_network(triples: usize, config: PeerConfig) -> (HybridNetwork, Vec<PeerId>) {
    let schema = fig1_schema();
    let mut b = HybridBuilder::new(Arc::clone(&schema), 1).config(config);
    let ids = scaled_fig2_bases(&schema, triples, 42)
        .into_iter()
        .map(|base| b.add_peer(base, 0))
        .collect();
    (b.build(), ids)
}

/// A 5 ms link carrying `bytes_per_ms`.
pub fn link(bytes_per_ms: u64) -> LinkSpec {
    LinkSpec {
        latency_us: 5_000,
        bytes_per_ms,
    }
}

/// The Figure 5 triangle: P1 (root, empty) — P2 (`prop1`) — P3 (`prop2`),
/// P2–P3 on a fast link, P1–P3 at `p13_bandwidth` bytes/ms, P2 charging
/// `p2_load_us` of processing per row. Returns `[P1, P2, P3]`.
pub fn shipping_triangle(
    triples: usize,
    p13_bandwidth: u64,
    p2_load_us: u64,
) -> (HybridNetwork, Vec<PeerId>) {
    let schema = fig1_schema();
    let mut b = HybridBuilder::new(Arc::clone(&schema), 1).config(unoptimized());
    let mut rng = StdRng::seed_from_u64(7);
    let spec = DataSpec {
        triples_per_property: triples,
        class_pool: triples / 2,
    };
    let b2 = populated(&schema, &[prop(&schema, "prop1")], spec, &mut rng);
    let b3 = populated(&schema, &[prop(&schema, "prop2")], spec, &mut rng);
    let p1 = b.add_peer(DescriptionBase::new(Arc::clone(&schema)), 0);
    let p2 = b.add_peer(b2, 0);
    let p3 = b.add_peer(b3, 0);
    let mut net = b.build();
    net.sim_mut()
        .set_link(node_of(p2), node_of(p3), link(10_000));
    net.sim_mut()
        .set_link(node_of(p1), node_of(p3), link(p13_bandwidth));
    if p2_load_us > 0 {
        net.sim_mut()
            .node_mut(node_of(p2))
            .expect("p2")
            .config
            .processing_us_per_row = p2_load_us;
    }
    (net, vec![p1, p2, p3])
}

/// The two Figure 5 plan shapes over `[P1, P2, P3]`: data shipping joins
/// at the root, query shipping pushes the join (and P3's stream) down to
/// P2. Returned as `(data, query)`.
pub fn shipping_plans(query: &QueryPattern, ids: &[PeerId]) -> (PlanNode, PlanNode) {
    let fetches = || {
        (0..2)
            .map(|i| PlanNode::Fetch {
                subquery: Subquery {
                    covers: vec![i],
                    query: single_pattern_subquery(query, i, &query.patterns()[i]),
                },
                site: Site::Peer(ids[i + 1]),
            })
            .collect::<Vec<_>>()
    };
    let query_ship = PlanNode::Join {
        inputs: fetches(),
        site: Some(ids[1]),
    };
    (PlanNode::join(fetches()), query_ship)
}

/// `peers` bases, each populated under `properties_per_peer` properties
/// shuffled out of the schema — the draw order of testkit's generated
/// networks, on the caller's generator so later draws continue from it.
pub fn fragment_bases(
    schema: &Arc<Schema>,
    peers: usize,
    properties_per_peer: usize,
    data: DataSpec,
    rng: &mut StdRng,
) -> Vec<DescriptionBase> {
    let all: Vec<PropertyId> = schema.properties().collect();
    (0..peers)
        .map(|_| {
            let mut props = all.clone();
            props.shuffle(rng);
            props.truncate(properties_per_peer);
            populated(schema, &props, data, rng)
        })
        .collect()
}

/// A ring over peers `0..n` plus `n / 2` random chords: the physical
/// topology of the flooding baselines.
pub fn ring_with_chords(n: usize, rng: &mut StdRng) -> Topology {
    let mut topo = Topology::new();
    for i in 0..n as u32 {
        topo.add_link(PeerId(i), PeerId((i + 1) % n as u32));
    }
    for _ in 0..n / 2 {
        let a = rng.gen_range(0..n as u32);
        let c = rng.gen_range(0..n as u32);
        topo.add_link(PeerId(a), PeerId(c));
    }
    topo
}

/// E8's placement: `n` peers under two super-peers of which exactly four
/// hold the queried `chain` (two peers per property); every other peer
/// holds two random properties outside it. Also returns the flooding
/// topology of the same size, drawn from the same generator (seed `n`) —
/// the distractor loop's draw order is the recorded one and is kept.
pub fn relevant_four(
    schema: &Arc<Schema>,
    chain: &[PropertyId],
    n: usize,
) -> (HybridNetwork, Vec<PeerId>, Topology) {
    let spec = DataSpec {
        triples_per_property: 10,
        class_pool: 8,
    };
    let all_props: Vec<PropertyId> = schema.properties().collect();
    let mut b = HybridBuilder::new(Arc::clone(schema), 2).config(PeerConfig::default());
    let mut rng = StdRng::seed_from_u64(n as u64);
    let mut ids = Vec::new();
    for i in 0..n {
        let props: Vec<PropertyId> = if i < 4 {
            // The relevant holders: p0 or p1 (two peers each).
            vec![chain[i % 2]]
        } else {
            // Distractors: two random properties outside the chain.
            (0..2)
                .map(|_| loop {
                    let p = all_props[rng.gen_range(0..all_props.len())];
                    if !chain.contains(&p) {
                        break p;
                    }
                })
                .collect()
        };
        let base = populated(schema, &props, spec, &mut rng);
        ids.push(b.add_peer(base, (i % 2) as u32));
    }
    let topo = ring_with_chords(n, &mut rng);
    (b.build(), ids, topo)
}

/// The replica-pair crash scenario of E10/E13: an empty origin, holders
/// of `prop1` and of `prop2`, one side (`replicate_q1` picks which) held
/// twice. The first replica crashes `crash_at_us` after the build when
/// given. Returns the network and `(origin, fragile, single)` — the
/// peer that crashes and the unreplicated holder.
pub fn replica_pair(
    config: PeerConfig,
    seed: u64,
    triples: usize,
    replicate_q1: bool,
    crash_at_us: Option<u64>,
) -> (HybridNetwork, [PeerId; 3]) {
    let schema = fig1_schema();
    let mut b = HybridBuilder::new(Arc::clone(&schema), 1).config(config);
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = DataSpec {
        triples_per_property: triples,
        class_pool: triples / 2,
    };
    let q1 = populated(&schema, &[prop(&schema, "prop1")], spec, &mut rng);
    let q2 = populated(&schema, &[prop(&schema, "prop2")], spec, &mut rng);
    let origin = b.add_peer(DescriptionBase::new(Arc::clone(&schema)), 0);
    let (fragile, single) = if replicate_q1 {
        let fragile = b.add_peer(q1.clone(), 0);
        b.add_peer(q1, 0);
        (fragile, b.add_peer(q2, 0))
    } else {
        let single = b.add_peer(q1, 0);
        let fragile = b.add_peer(q2.clone(), 0);
        b.add_peer(q2, 0);
        (fragile, single)
    };
    let mut net = b.build();
    if let Some(at) = crash_at_us {
        let now = net.sim().now_us();
        net.sim_mut().schedule_node_down(now + at, node_of(fragile));
    }
    (net, [origin, fragile, single])
}

/// E15's advertisement registry: `n` peers cycling through the Figure 2
/// profiles, the third also holding `prop3` so that the pool has a
/// pattern only it answers.
pub fn cache_registry(schema: &Arc<Schema>, n: usize) -> AdRegistry {
    let mut bases = fig2_bases(schema);
    bases[2].insert_described(Triple::new(
        Resource::new("http://p3/c"),
        prop(schema, "prop3"),
        Node::Resource(Resource::new("http://p3/d")),
    ));
    let mut reg = AdRegistry::new();
    for ad in ads_of(&bases, n) {
        reg.register(ad);
    }
    reg
}

/// E16's base: every Figure 1 property populated with
/// `triples_per_property` triples (2700 gives ~10k after dedup).
pub fn eval_base(schema: &Arc<Schema>, triples_per_property: usize) -> DescriptionBase {
    let properties: Vec<PropertyId> = schema.properties().collect();
    let spec = DataSpec {
        triples_per_property,
        class_pool: 170,
    };
    populated(schema, &properties, spec, &mut StdRng::seed_from_u64(16))
}

/// E16's workload: 40 queries, Zipf s=1.0 over 6 chains of length 1-2.
pub fn eval_workload(schema: &Arc<Schema>) -> Vec<QueryPattern> {
    zipf_workload(schema, 6, &[1, 2], 1.0, 40, &mut StdRng::seed_from_u64(61))
}

/// Exactly `count` seeded chain queries, lengths alternating 1, 2, 1, …
/// Panics when the schema runs dry rather than returning fewer: a report
/// must not print a workload size it did not run.
pub fn chain_workload(schema: &Arc<Schema>, seed: u64, count: usize) -> Vec<QueryPattern> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            random_chain_query(schema, 1 + i % 2, &mut rng).unwrap_or_else(|| {
                panic!(
                    "workload seed {seed:#x} ran dry at query {i} of {count}: no {}-chain in a \
                     schema of {} classes and {} properties",
                    1 + i % 2,
                    schema.class_count(),
                    schema.property_count()
                )
            })
        })
        .collect()
}

/// Peers in the on/off overhead experiments' SON (E18, E19).
pub const SON_PEERS: usize = 14;

/// The small hybrid SON (two super-peers, default placement) that E18 and
/// E19 run their workload over, placed by `seed`.
pub fn small_son(
    schema: &Arc<Schema>,
    seed: u64,
    config: PeerConfig,
) -> (HybridNetwork, Vec<PeerId>) {
    let spec = NetworkSpec {
        peers: SON_PEERS,
        seed,
        ..NetworkSpec::default()
    };
    hybrid_network(schema, spec, 2, config)
}

/// The community schema of the thousand-peer experiments (E22, E23).
pub fn scale_schema() -> Arc<Schema> {
    let spec = SchemaSpec {
        chain_classes: 8,
        subclasses_per_class: 1,
        subproperty_fraction: 0.5,
    };
    community_schema(spec, 31)
}

/// Their placement: one property a peer, two triples a property.
pub fn scale_spec(peers: usize, seed: u64) -> NetworkSpec {
    NetworkSpec {
        peers,
        properties_per_peer: 1,
        data: DataSpec {
            triples_per_property: 2,
            class_pool: 6,
        },
        seed,
    }
}

/// Rows `from..from + 1_800` of one half of a two-pattern chain as a peer
/// ships them (one dictionary entry per distinct value): the end column
/// `columns[end]`, unique per row, and the join column `Y`, which takes
/// 600 values — `gw_scan`'s answer sizes.
pub fn chain_half(columns: [&str; 2], end: usize, from: usize) -> ResultSet {
    let uri = |c: &str, n: usize| {
        Node::Resource(Resource::new(format!("http://example.org/data/{c}/r{n}")))
    };
    let row = |i: usize| {
        let mut row = vec![uri(columns[end], i), uri("Y", i % 600)];
        row.rotate_left(end);
        row
    };
    let columns: Vec<String> = columns.iter().map(|c| c.to_string()).collect();
    let mut set = ResultSet::empty(columns.clone());
    set.union(&ResultSet::from_rows(
        columns,
        (from..from + 1_800).map(row).collect(),
    ));
    set
}

/// What a host does with a finished answer streamed `batch` rows a frame:
/// cut, encode every frame as a `Data` packet, and let the answer go.
pub fn host_frames(answer: ResultSet, batch: usize) -> Vec<Vec<u8>> {
    let pieces = answer.rows.chunks(batch);
    let count = pieces.len();
    let channel = Channel {
        id: ChannelId(1),
        root: PeerId(0),
        dest: PeerId(1),
        state: ChannelState::Open,
    };
    let frame = |(seq, rows)| {
        let columns = answer.columns.clone();
        let msg = Msg::Data {
            channel,
            qid: QueryId(1),
            tag: 1,
            result: ResultSet { columns, rows },
            partial: false,
            stats: None,
            seq: seq as u32,
            last: seq + 1 == count,
        };
        encode_frame(&Envelope {
            from: PeerId(1),
            to: PeerId(0),
            sent_at_us: 0,
            msg,
        })
    };
    pieces.enumerate().map(frame).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_workload_returns_exactly_the_count_asked_for() {
        let schema = community_schema(SchemaSpec::default(), 0x18);
        let queries = chain_workload(&schema, 0x18C0_FFEE, 36);
        assert_eq!(queries.len(), 36);
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(q.patterns().len(), 1 + i % 2, "lengths alternate 1, 2");
        }
    }

    #[test]
    #[should_panic(expected = "ran dry at query 1 of 4: no 2-chain")]
    fn chain_workload_panics_when_the_schema_runs_dry() {
        // Two classes, one property: 1-chains exist, 2-chains do not.
        let spec = SchemaSpec {
            chain_classes: 2,
            subclasses_per_class: 0,
            subproperty_fraction: 0.0,
        };
        chain_workload(&community_schema(spec, 1), 7, 4);
    }
}
