//! Whole-network generation: N peers with random schema fragments.

use crate::data_gen::{populate, DataSpec};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sqpeer::overlay::{AdhocBuilder, AdhocNetwork, HierBuilder, HybridBuilder, HybridNetwork};
use sqpeer::prelude::*;
use std::sync::Arc;

/// Physical topology shape for ad-hoc networks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// A ring with `extra` random chords.
    Ring {
        /// Number of random chord links added on top of the ring.
        extra: usize,
    },
    /// Every pair linked independently with probability `permille`/1000.
    Random {
        /// Link probability in permille.
        permille: u32,
    },
}

/// Shape of a generated network.
#[derive(Debug, Clone, Copy)]
pub struct NetworkSpec {
    /// Number of simple-peers.
    pub peers: usize,
    /// Properties each peer populates (drawn at random from the schema).
    pub properties_per_peer: usize,
    /// Data volume per populated property.
    pub data: DataSpec,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NetworkSpec {
    fn default() -> Self {
        NetworkSpec {
            peers: 16,
            properties_per_peer: 2,
            data: DataSpec::default(),
            seed: 0x5eed,
        }
    }
}

fn peer_bases(schema: &Arc<Schema>, spec: &NetworkSpec) -> Vec<DescriptionBase> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let all_props: Vec<PropertyId> = schema.properties().collect();
    (0..spec.peers)
        .map(|_| {
            let mut props = all_props.clone();
            props.shuffle(&mut rng);
            props.truncate(spec.properties_per_peer.min(all_props.len()));
            let mut base = DescriptionBase::new(Arc::clone(schema));
            populate(&mut base, &props, spec.data, &mut rng);
            base
        })
        .collect()
}

/// Builds a hybrid SON: `super_count` super-peers, peers assigned
/// round-robin, advertisements pushed during build.
pub fn hybrid_network(
    schema: &Arc<Schema>,
    spec: NetworkSpec,
    super_count: u32,
    config: PeerConfig,
) -> (HybridNetwork, Vec<PeerId>) {
    let mut b = HybridBuilder::new(Arc::clone(schema), super_count).config(config);
    let mut ids = Vec::with_capacity(spec.peers);
    for (i, base) in peer_bases(schema, &spec).into_iter().enumerate() {
        ids.push(b.add_peer(base, (i as u32) % super_count.max(1)));
    }
    (b.build(), ids)
}

/// Builds a hierarchical SON over the same generated placement as
/// [`hybrid_network`]: `super_count` super-peers grouped into clusters
/// of `cluster_size`, peers assigned round-robin. Identical specs give
/// byte-identical peer bases across the two builders, so the flat
/// overlay serves as the routing oracle for the hierarchical one.
pub fn hier_network(
    schema: &Arc<Schema>,
    spec: NetworkSpec,
    super_count: u32,
    cluster_size: u32,
    config: PeerConfig,
) -> (HybridNetwork, Vec<PeerId>) {
    let mut b = HierBuilder::new(Arc::clone(schema), super_count, cluster_size).config(config);
    let mut ids = Vec::with_capacity(spec.peers);
    for (i, base) in peer_bases(schema, &spec).into_iter().enumerate() {
        ids.push(b.add_peer(base, (i as u32) % super_count.max(1)));
    }
    (b.build(), ids)
}

/// Builds an ad-hoc SON over the given physical topology with
/// `discovery_depth`-hop advertisement pull.
pub fn adhoc_network(
    schema: &Arc<Schema>,
    spec: NetworkSpec,
    topology: TopologyKind,
    discovery_depth: u32,
    config: PeerConfig,
) -> (AdhocNetwork, Vec<PeerId>) {
    let mut b = AdhocBuilder::new(Arc::clone(schema), discovery_depth).config(config);
    let mut ids = Vec::with_capacity(spec.peers);
    for base in peer_bases(schema, &spec) {
        ids.push(b.add_peer(base));
    }
    let n = ids.len();
    let mut rng = StdRng::seed_from_u64(spec.seed.wrapping_add(1));
    match topology {
        TopologyKind::Ring { extra } => {
            for i in 0..n {
                b.link(ids[i], ids[(i + 1) % n]);
            }
            for _ in 0..extra {
                let a = rng.gen_range(0..n);
                let c = rng.gen_range(0..n);
                if a != c {
                    b.link(ids[a], ids[c]);
                }
            }
        }
        TopologyKind::Random { permille } => {
            for i in 0..n {
                for j in i + 1..n {
                    if rng.gen_range(0..1000) < permille {
                        b.link(ids[i], ids[j]);
                    }
                }
            }
            // Guarantee connectivity with a spanning chain.
            for i in 1..n {
                b.link(ids[i - 1], ids[i]);
            }
        }
    }
    (b.build(), ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema_gen::{community_schema, SchemaSpec};
    use sqpeer::exec::node_of;

    #[test]
    fn hybrid_generation_routes_queries() {
        let schema = community_schema(SchemaSpec::default(), 3);
        let spec = NetworkSpec {
            peers: 8,
            seed: 11,
            ..NetworkSpec::default()
        };
        let (mut net, ids) = hybrid_network(&schema, spec, 2, PeerConfig::default());
        assert_eq!(ids.len(), 8);
        let query = net.compile("SELECT X, Y FROM {X}gen:p0{Y}").unwrap();
        let qid = net.query(ids[0], query);
        net.run();
        let outcome = net.outcome(ids[0], qid).expect("completed");
        assert!(!outcome.result.is_empty(), "someone holds p0 data");
    }

    #[test]
    fn adhoc_generation_is_connected() {
        let schema = community_schema(SchemaSpec::default(), 3);
        let spec = NetworkSpec {
            peers: 10,
            seed: 11,
            ..NetworkSpec::default()
        };
        let (net, ids) = adhoc_network(
            &schema,
            spec,
            TopologyKind::Ring { extra: 3 },
            1,
            PeerConfig {
                mode: PeerMode::Adhoc,
                ..PeerConfig::default()
            },
        );
        // Ring ⇒ everyone has ≥ 2 neighbours.
        for &id in &ids {
            assert!(net.topology().neighbours(id).len() >= 2);
        }
        // Discovery populated registries beyond self.
        let some_registry = net.sim().node(node_of(ids[0])).unwrap().son.registry.len();
        assert!(
            some_registry >= 3,
            "self + 2 ring neighbours, got {some_registry}"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let schema = community_schema(SchemaSpec::default(), 3);
        let spec = NetworkSpec {
            peers: 6,
            seed: 5,
            ..NetworkSpec::default()
        };
        let total = |spec| {
            let (net, ids) = hybrid_network(&schema, spec, 1, PeerConfig::default());
            ids.iter()
                .map(|&p| match &net.sim().node(node_of(p)).unwrap().base {
                    sqpeer::exec::BaseKind::Materialized(db) => db.triple_count(),
                    _ => 0,
                })
                .sum::<usize>()
        };
        assert_eq!(total(spec), total(spec));
    }
}
