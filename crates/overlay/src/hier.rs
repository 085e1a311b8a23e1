//! Hierarchical (nested) SONs: super-peers clustered into tier-2 groups.
//!
//! The flat hybrid backbone of §3.1 replicates every advertisement,
//! withdrawal and heartbeat to **all** super-peers — O(S²) maintenance
//! messages per event, which dominates traffic at thousand-peer scale.
//! Here the backbone is partitioned into clusters, each with a head:
//!
//! * a super-peer holds only its own members' advertisements,
//! * it pushes a *merged summary* (the union of its members'
//!   active-schemas) to its cluster head,
//! * heads merge member summaries into a *cluster summary* and exchange
//!   those with the other heads.
//!
//! A query then descends the cluster tree: the entry super-peer
//! annotates its own members and forwards to its head, which scatters
//! only into member super-peers and sibling clusters whose summaries
//! intersect the query. Summaries are monotone (they only ever grow, and
//! include departed-peer tombstones), so pruning can produce
//! false-positive descents but never skip a holder: the answer set is
//! identical to flat-backbone routing.

use crate::hybrid::HybridNetwork;
use sqpeer_exec::{BaseKind, ClusterInfo, PeerConfig, PeerMode};
use sqpeer_rdfs::Schema;
use sqpeer_routing::PeerId;
use sqpeer_rvl::VirtualBase;
use sqpeer_store::DescriptionBase;
use std::sync::Arc;

/// Builder for a hierarchical SON. Produces the same [`HybridNetwork`]
/// driver as [`HybridBuilder`](crate::HybridBuilder), so experiments and
/// tests can run both overlays through one harness.
pub struct HierBuilder {
    schema: Arc<Schema>,
    config: PeerConfig,
    super_count: u32,
    cluster_size: u32,
    /// Explicit partition of super-peer indexes into clusters; `None`
    /// falls back to consecutive chunks of `cluster_size`.
    clusters: Option<Vec<Vec<u32>>>,
    bases: Vec<(BaseKind, u32)>, // base, super-peer index
}

impl HierBuilder {
    /// Starts a hierarchical network over `schema` with `super_count`
    /// super-peers grouped into clusters of (at most) `cluster_size`.
    pub fn new(schema: Arc<Schema>, super_count: u32, cluster_size: u32) -> Self {
        HierBuilder {
            schema,
            config: PeerConfig {
                mode: PeerMode::Hybrid,
                ..PeerConfig::default()
            },
            super_count: super_count.max(1),
            cluster_size: cluster_size.max(1),
            clusters: None,
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

    /// Overrides the cluster partition with an explicit one (each inner
    /// vector lists super-peer *indexes*; the lowest member of each
    /// cluster becomes its head). Must partition `0..super_count`.
    pub fn clusters(mut self, clusters: Vec<Vec<u32>>) -> Self {
        let mut seen: Vec<u32> = clusters.iter().flatten().copied().collect();
        seen.sort_unstable();
        let expected: Vec<u32> = (0..self.super_count).collect();
        assert_eq!(
            seen, expected,
            "clusters must partition the super-peer indexes exactly"
        );
        assert!(
            clusters.iter().all(|c| !c.is_empty()),
            "empty clusters are not allowed"
        );
        self.clusters = Some(clusters);
        self
    }

    /// Adds a simple-peer with `base`, clustered under super-peer
    /// `super_index` (0-based). Returns the peer's future id.
    pub fn add_peer(&mut self, base: DescriptionBase, super_index: u32) -> PeerId {
        self.add_base(BaseKind::Materialized(base), super_index)
    }

    /// Adds a simple-peer with a virtual (mapped relational) base.
    pub fn add_virtual_peer(&mut self, source: VirtualBase, super_index: u32) -> PeerId {
        self.add_base(BaseKind::virtual_base(source), super_index)
    }

    fn add_base(&mut self, base: BaseKind, super_index: u32) -> PeerId {
        assert!(super_index < self.super_count, "no such super-peer");
        let id = self.super_count + self.bases.len() as u32;
        self.bases.push((base, super_index));
        PeerId(id)
    }

    /// Finalises the network: spawns the clustered super-peers, wires
    /// every super-peer's [`ClusterInfo`], pushes every simple-peer's
    /// advertisement to its super-peer and runs to quiescence (summary
    /// pushes ride the same boot window).
    pub fn build(self) -> HybridNetwork {
        let partition: Vec<Vec<u32>> = self.clusters.unwrap_or_else(|| {
            (0..self.super_count)
                .collect::<Vec<u32>>()
                .chunks(self.cluster_size as usize)
                .map(<[u32]>::to_vec)
                .collect()
        });
        let heads: Vec<PeerId> = {
            let mut hs: Vec<PeerId> = partition
                .iter()
                .map(|c| PeerId(*c.iter().min().expect("non-empty cluster")))
                .collect();
            hs.sort_unstable();
            hs
        };

        // Cluster by cluster, members in id order.
        let mut supers = Vec::with_capacity(self.super_count as usize);
        for cluster in &partition {
            let mut members: Vec<PeerId> = cluster.iter().map(|&i| PeerId(i)).collect();
            members.sort_unstable();
            for &sp in &members {
                let info = ClusterInfo {
                    head: members[0],
                    members: members.clone(),
                    heads: heads.clone(),
                };
                supers.push((sp, Some(info)));
            }
        }
        crate::hybrid::spawn(self.schema, self.config, supers, self.bases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::tests::{base_with, fig1_schema};
    use crate::oracle::{oracle_answer, oracle_base};
    use crate::HybridBuilder;
    use sqpeer_exec::node_of;

    /// Nine super-peers in three clusters; holders scattered across all
    /// clusters. The hierarchical answer must equal the flat oracle.
    #[test]
    fn cluster_tree_routes_across_clusters() {
        let schema = fig1_schema();
        let mut b = HierBuilder::new(Arc::clone(&schema), 9, 3);
        let origin = b.add_peer(base_with(&schema, &[]), 0);
        let _p1 = b.add_peer(base_with(&schema, &[("a", "prop1", "b")]), 2);
        let _p2 = b.add_peer(base_with(&schema, &[("c", "prop1", "b")]), 4);
        let _p5 = b.add_peer(base_with(&schema, &[("b", "prop2", "d")]), 8);
        let mut net = b.build();

        let query = net
            .compile("SELECT X, Z FROM {X}prop1{Y}, {Y}prop2{Z}")
            .unwrap();
        let qid = net.query(origin, query.clone());
        net.run();
        let outcome = net.outcome(origin, qid).expect("completed").clone();
        assert!(!outcome.partial, "{outcome:?}");
        let oracle = oracle_base(&schema, net.bases());
        assert_eq!(
            outcome.result.clone().sorted(),
            oracle_answer(&oracle, &query)
        );
        assert_eq!(outcome.result.len(), 2);
    }

    /// Super-peers never replicate advertisements across the backbone in
    /// a hierarchical overlay: each registry holds only its own members.
    #[test]
    fn no_backbone_ad_replication() {
        let schema = fig1_schema();
        let mut b = HierBuilder::new(Arc::clone(&schema), 4, 2);
        let _a = b.add_peer(base_with(&schema, &[("a", "prop1", "b")]), 0);
        let _b = b.add_peer(base_with(&schema, &[("b", "prop2", "d")]), 3);
        let net = b.build();
        for &sp in net.super_peers() {
            let n = net.sim().node(node_of(sp)).unwrap();
            assert!(
                n.son.registry.len() <= 1,
                "super-peer {sp} must hold only its own members, got {}",
                n.son.registry.len()
            );
        }
    }

    /// Summary pruning: a query matching only one cluster's data must not
    /// descend into clusters whose summaries are disjoint from it.
    #[test]
    fn disjoint_clusters_are_pruned() {
        let schema = fig1_schema();
        let mut b = HierBuilder::new(Arc::clone(&schema), 4, 2);
        // Cluster {0,1} holds prop1 data; cluster {2,3} holds prop2 data.
        let origin = b.add_peer(base_with(&schema, &[]), 0);
        let _h = b.add_peer(base_with(&schema, &[("a", "prop1", "b")]), 1);
        let _other = b.add_peer(base_with(&schema, &[("b", "prop2", "d")]), 3);
        let mut net = b.build();

        net.sim_mut().reset_metrics();
        let query = net.compile("SELECT X, Y FROM {X}prop1{Y}").unwrap();
        let qid = net.query(origin, query);
        net.run();
        let outcome = net.outcome(origin, qid).expect("completed").clone();
        assert_eq!(outcome.result.len(), 1);
        assert!(!outcome.partial);
        // SP2 heads the prop2-only cluster: a prop1 query must not have
        // reached it (its cluster summary does not intersect).
        let touched: Vec<PeerId> = [PeerId(2), PeerId(3)]
            .into_iter()
            .filter(|&sp| net.sim().metrics().node(node_of(sp)).messages_received > 0)
            .collect();
        assert!(
            touched.is_empty(),
            "prop1 query descended into the prop2 cluster: {touched:?}"
        );
    }

    /// Hierarchical and flat overlays agree on answers for the same
    /// placement — the flat overlay is the oracle.
    #[test]
    fn matches_flat_overlay_answers() {
        let schema = fig1_schema();
        type Placement<'a> = (&'a [(&'a str, &'a str, &'a str)], u32);
        let placements: Vec<Placement> = vec![
            (&[], 0),
            (&[("a", "prop1", "b")], 1),
            (&[("c", "prop1", "d"), ("b", "prop2", "e")], 2),
            (&[("b", "prop2", "f")], 5),
        ];
        let queries = [
            "SELECT X, Y FROM {X}prop1{Y}",
            "SELECT X, Z FROM {X}prop1{Y}, {Y}prop2{Z}",
            "SELECT X, Y FROM {X}prop4{Y}",
        ];

        let mut hb = HybridBuilder::new(Arc::clone(&schema), 6);
        let mut nb = HierBuilder::new(Arc::clone(&schema), 6, 2);
        for (triples, sp) in &placements {
            hb.add_peer(base_with(&schema, triples), *sp);
            nb.add_peer(base_with(&schema, triples), *sp);
        }
        let mut flat = hb.build();
        let mut hier = nb.build();
        let origin = flat.peers()[0];
        for rql in queries {
            let q = flat.compile(rql).unwrap();
            let fq = flat.query(origin, q.clone());
            let hq = hier.query(origin, q);
            flat.run();
            hier.run();
            let f = flat.outcome(origin, fq).expect("flat completed").clone();
            let h = hier.outcome(origin, hq).expect("hier completed").clone();
            assert_eq!(
                h.result.clone().sorted(),
                f.result.clone().sorted(),
                "answer sets diverge on {rql}"
            );
            assert_eq!(h.partial, f.partial, "partial flags diverge on {rql}");
        }
    }
}
