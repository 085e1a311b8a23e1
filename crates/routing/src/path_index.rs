//! Centralised path-index baseline (Stuckenschmidt et al. \[27\]) and a
//! RDFPeers-style triple-index cost model \[8\].
//!
//! The paper's related-work section argues that "the cost of maintaining
//! (XML or RDF) indices of entire peer bases is important compared to the
//! cost of maintaining peer active-schemas (i.e., views)". Experiment E9
//! quantifies that claim: this module implements the mediator-held index of
//! property *paths* per peer, with maintenance-cost accounting, plus a
//! closed-form cost model for data-level triple indexes.

use crate::PeerId;
use sqpeer_rdfs::{PropertyId, Schema};
use sqpeer_rvl::ActiveSchema;
use std::collections::{HashMap, HashSet};

/// A mediator-held index from property paths (chains of properties that
/// can be traversed in a peer's base) to the peers able to answer them.
///
/// Paths are "organized hierarchically according to their length (simple
/// properties appear as leaves)"; we keep the flat map, whose entries are
/// what the maintenance cost counts.
#[derive(Debug, Clone)]
pub struct PathIndex {
    max_len: usize,
    entries: HashMap<Vec<PropertyId>, HashSet<PeerId>>,
}

impl PathIndex {
    /// Creates an index holding paths up to `max_len` properties.
    pub fn new(max_len: usize) -> Self {
        PathIndex {
            max_len: max_len.max(1),
            entries: HashMap::new(),
        }
    }

    /// Indexes a peer from its active-schema: every chain of advertised
    /// properties `p1.p2…pk` (k ≤ max_len) whose adjacent range/domain
    /// classes can join. Returns the number of index entries written (the
    /// maintenance cost of this update).
    pub fn index_peer(&mut self, peer: PeerId, active: &ActiveSchema, schema: &Schema) -> usize {
        let arcs = active.active_properties();
        let mut paths: Vec<Vec<usize>> = (0..arcs.len()).map(|i| vec![i]).collect();
        let mut all: Vec<Vec<PropertyId>> = paths
            .iter()
            .map(|p| p.iter().map(|&i| arcs[i].property).collect())
            .collect();
        for _ in 1..self.max_len {
            let mut next = Vec::new();
            for path in &paths {
                let last = &arcs[*path.last().expect("paths are non-empty")];
                for (j, arc) in arcs.iter().enumerate() {
                    let joinable = match last.range {
                        Some(range) => schema.classes_overlap(range, arc.domain),
                        None => false,
                    };
                    if joinable {
                        let mut ext = path.clone();
                        ext.push(j);
                        all.push(ext.iter().map(|&i| arcs[i].property).collect());
                        next.push(ext);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            paths = next;
        }
        let mut written = 0;
        for path in all {
            if self.entries.entry(path).or_default().insert(peer) {
                written += 1;
            }
        }
        written
    }

    /// Removes every entry of `peer` (peer left or its base changed and
    /// must be re-indexed). Returns the number of entries touched.
    pub fn remove_peer(&mut self, peer: PeerId) -> usize {
        let mut touched = 0;
        self.entries.retain(|_, peers| {
            if peers.remove(&peer) {
                touched += 1;
            }
            !peers.is_empty()
        });
        touched
    }

    /// The peers able to answer the exact property path `path`.
    pub fn lookup(&self, path: &[PropertyId]) -> Vec<PeerId> {
        let mut peers: Vec<PeerId> = self
            .entries
            .get(path)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        peers.sort();
        peers
    }

    /// All ways of splitting `path` into indexed sub-paths with the peers
    /// for each fragment — the "all possible combinations of the subpaths"
    /// answering step of \[27\]. Returns `None` if some fragment has no peer.
    pub fn cover(&self, path: &[PropertyId]) -> Option<Vec<(Vec<PropertyId>, Vec<PeerId>)>> {
        if path.is_empty() {
            return Some(Vec::new());
        }
        // Greedy longest-prefix cover is enough for cost accounting.
        for take in (1..=path.len().min(self.max_len)).rev() {
            let prefix = &path[..take];
            let peers = self.lookup(prefix);
            if !peers.is_empty() {
                if let Some(mut rest) = self.cover(&path[take..]) {
                    let mut out = vec![(prefix.to_vec(), peers)];
                    out.append(&mut rest);
                    return Some(out);
                }
            }
        }
        None
    }

    /// Total number of (path, peer) entries.
    pub fn size(&self) -> usize {
        self.entries.values().map(|s| s.len()).sum()
    }
}

/// Closed-form maintenance cost of a data-level triple index in the style
/// of RDFPeers \[8\], which stores each triple three times (by subject,
/// predicate and object value).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TripleIndexCost;

impl TripleIndexCost {
    /// Index entries written when a base of `triples` triples joins.
    pub fn join_cost(triples: usize) -> usize {
        3 * triples
    }

    /// Index entries touched when that base leaves.
    pub fn leave_cost(triples: usize) -> usize {
        3 * triples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqpeer_rdfs::{Range, SchemaBuilder};
    use sqpeer_rvl::ActiveProperty;
    use std::sync::Arc;

    fn chain_schema(n: usize) -> Arc<Schema> {
        // C0 --p0--> C1 --p1--> C2 ... a chain of n properties.
        let mut b = SchemaBuilder::new("n1", "u");
        let classes: Vec<_> = (0..=n)
            .map(|i| b.class(&format!("C{i}")).unwrap())
            .collect();
        for i in 0..n {
            b.property(&format!("p{i}"), classes[i], Range::Class(classes[i + 1]))
                .unwrap();
        }
        Arc::new(b.finish().unwrap())
    }

    fn active_all(schema: &Arc<Schema>) -> ActiveSchema {
        let arcs: Vec<ActiveProperty> = schema
            .properties()
            .map(|p| {
                let def = schema.property(p);
                ActiveProperty {
                    property: p,
                    domain: def.domain,
                    range: match def.range {
                        Range::Class(c) => Some(c),
                        Range::Literal(_) => None,
                    },
                }
            })
            .collect();
        ActiveSchema::new(Arc::clone(schema), [], arcs)
    }

    #[test]
    fn chains_are_indexed_up_to_max_len() {
        let schema = chain_schema(3); // p0 p1 p2
        let mut idx = PathIndex::new(2);
        let written = idx.index_peer(PeerId(1), &active_all(&schema), &schema);
        // Paths: p0, p1, p2, p0.p1, p1.p2 → 5 entries.
        assert_eq!(written, 5);
        assert_eq!(idx.size(), 5);
        let p0 = schema.property_by_name("p0").unwrap();
        let p1 = schema.property_by_name("p1").unwrap();
        let p2 = schema.property_by_name("p2").unwrap();
        assert_eq!(idx.lookup(&[p0, p1]), vec![PeerId(1)]);
        assert_eq!(idx.lookup(&[p0, p2]), vec![]); // C1 cannot join C2's domain? p0 range C1, p2 domain C2: no
    }

    #[test]
    fn cover_decomposes_long_paths() {
        let schema = chain_schema(3);
        let mut idx = PathIndex::new(2);
        idx.index_peer(PeerId(1), &active_all(&schema), &schema);
        let p: Vec<PropertyId> = ["p0", "p1", "p2"]
            .iter()
            .map(|n| schema.property_by_name(n).unwrap())
            .collect();
        let cover = idx.cover(&p).unwrap();
        // Longest-prefix: [p0.p1] + [p2].
        assert_eq!(cover.len(), 2);
        assert_eq!(cover[0].0.len(), 2);
        assert_eq!(cover[1].0.len(), 1);
        // A path with an unindexed property cannot be covered.
        let mut with_ghost = p.clone();
        with_ghost.push(PropertyId(999));
        assert!(idx.cover(&with_ghost).is_none());
    }

    #[test]
    fn maintenance_costs_scale_with_path_length_bound() {
        let schema = chain_schema(6);
        let active = active_all(&schema);
        let mut short = PathIndex::new(1);
        let mut long = PathIndex::new(4);
        let w1 = short.index_peer(PeerId(1), &active, &schema);
        let w4 = long.index_peer(PeerId(1), &active, &schema);
        assert!(w4 > w1, "longer path bound ⇒ more entries ({w4} vs {w1})");
        // Active-schema advertisement cost is independent of the path
        // bound: re-advertising is one fragment either way.
        assert_eq!(active.wire_size(), active_all(&schema).wire_size());
    }

    #[test]
    fn remove_peer_touches_all_its_entries() {
        let schema = chain_schema(3);
        let mut idx = PathIndex::new(2);
        let written = idx.index_peer(PeerId(1), &active_all(&schema), &schema);
        idx.index_peer(PeerId(2), &active_all(&schema), &schema);
        let touched = idx.remove_peer(PeerId(1));
        assert_eq!(touched, written);
        // Peer 2's entries survive.
        let p0 = schema.property_by_name("p0").unwrap();
        assert_eq!(idx.lookup(&[p0]), vec![PeerId(2)]);
    }

    #[test]
    fn triple_index_costs() {
        assert_eq!(TripleIndexCost::join_cost(100), 300);
        assert_eq!(TripleIndexCost::leave_cost(10), 30);
    }
}
