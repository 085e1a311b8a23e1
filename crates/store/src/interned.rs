//! Interned, columnar snapshots of description bases.
//!
//! The row-at-a-time evaluator compares and clones `Resource`/`Node` values
//! (URI strings behind `Arc`s) on every join step. At fleet scale the local
//! `evaluate()` throughput bounds the whole middleware — every `Fetch` leaf
//! of a distributed plan (§2.4) runs here — so the hot path wants integer
//! comparisons instead.
//!
//! [`InternedBase`] assigns every node of a base a dense [`SymId`] and
//! re-materialises the base as per-property *columnar* extent arrays
//! (`subjects[i]`/`objects[i]` parallel columns) with integer-keyed
//! subject/object indexes, plus subsumption-closed class-membership bit
//! sets for O(1) `is_instance` tests. A [`BaseStatistics`] snapshot rides
//! along so the evaluator can order path patterns by estimated selectivity
//! without re-deriving cardinalities per query.
//!
//! Snapshots are built lazily by [`DescriptionBase::interned`] and
//! invalidated on mutation, which fits the middleware's workload: bases are
//! populated once (or per virtual-base materialisation) and then queried
//! many times.

use crate::stats::BaseStatistics;
use crate::DescriptionBase;
use sqpeer_rdfs::{BitSet, ClassId, FxHashMap, Node, PropertyId, Schema};
use std::sync::Arc;

/// A dense interned symbol: index into [`InternedBase::node`]'s table.
pub type SymId = u32;

/// One property's direct extent in columnar form.
#[derive(Debug, Default, Clone)]
pub struct InternedExtent {
    /// Subject column: `subjects[i]` is the subject of the i-th pair.
    pub subjects: Vec<SymId>,
    /// Object column, parallel to `subjects`.
    pub objects: Vec<SymId>,
    /// Subject symbol → positions into the columns.
    by_subject: FxHashMap<SymId, Vec<u32>>,
    /// Object symbol → positions into the columns.
    by_object: FxHashMap<SymId, Vec<u32>>,
}

impl InternedExtent {
    fn push(&mut self, s: SymId, o: SymId) {
        let idx = self.subjects.len() as u32;
        self.subjects.push(s);
        self.objects.push(o);
        self.by_subject.entry(s).or_default().push(idx);
        self.by_object.entry(o).or_default().push(idx);
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.subjects.len()
    }

    /// Is the extent empty?
    pub fn is_empty(&self) -> bool {
        self.subjects.is_empty()
    }

    /// All pairs, in insertion order.
    pub fn pairs(&self) -> impl Iterator<Item = (SymId, SymId)> + '_ {
        self.subjects
            .iter()
            .copied()
            .zip(self.objects.iter().copied())
    }

    /// Pairs with the given subject.
    pub fn with_subject(&self, s: SymId) -> impl Iterator<Item = (SymId, SymId)> + '_ {
        self.by_subject
            .get(&s)
            .into_iter()
            .flatten()
            .map(|&i| (self.subjects[i as usize], self.objects[i as usize]))
    }

    /// Pairs with the given object.
    pub fn with_object(&self, o: SymId) -> impl Iterator<Item = (SymId, SymId)> + '_ {
        self.by_object
            .get(&o)
            .into_iter()
            .flatten()
            .map(|&i| (self.subjects[i as usize], self.objects[i as usize]))
    }
}

/// An immutable interned snapshot of a [`DescriptionBase`].
#[derive(Debug, Clone)]
pub struct InternedBase {
    schema: Arc<Schema>,
    /// `SymId` → node, densely numbered in first-seen order ([`Self::table`]).
    nodes: Arc<Vec<Node>>,
    /// Node → `SymId`.
    ids: FxHashMap<Node, SymId>,
    /// Direct extents per property, columnar.
    props: Vec<InternedExtent>,
    /// Subsumption-*closed* membership bit set per class, over `SymId`s.
    class_members: Vec<BitSet>,
    /// Subsumption-closed class extents as symbol lists (ascending ids),
    /// for enumeration without scanning the bit set's full range.
    class_extent_closed: Vec<Vec<SymId>>,
    /// Cardinality snapshot taken at build time.
    stats: BaseStatistics,
}

impl InternedBase {
    /// Builds a snapshot of `base`. Every node occurring anywhere in the
    /// base — property subjects/objects and class-extent members — gets a
    /// dense symbol.
    pub fn build(base: &DescriptionBase) -> InternedBase {
        let schema = Arc::clone(base.schema());
        let mut nodes: Vec<Node> = Vec::new();
        let mut ids: FxHashMap<Node, SymId> = FxHashMap::default();
        let mut intern = |node: Node| -> SymId {
            if let Some(&id) = ids.get(&node) {
                return id;
            }
            let id = nodes.len() as SymId;
            ids.insert(node.clone(), id);
            nodes.push(node);
            id
        };

        let mut props = vec![InternedExtent::default(); schema.property_count()];
        for p in schema.properties() {
            let ext = &mut props[p.0 as usize];
            for (s, o) in base.triples_direct(p) {
                let sid = intern(Node::Resource(s.clone()));
                let oid = intern(o.clone());
                ext.push(sid, oid);
            }
        }

        // Direct class extents on symbols, then close them over the schema's
        // subclass lattice into per-class membership bit sets.
        let mut direct: Vec<Vec<SymId>> = vec![Vec::new(); schema.class_count()];
        for c in schema.classes() {
            for r in base.class_extent_direct(c) {
                direct[c.0 as usize].push(intern(Node::Resource(r.clone())));
            }
        }
        let capacity = nodes.len();
        let mut class_members = Vec::with_capacity(schema.class_count());
        let mut class_extent_closed = Vec::with_capacity(schema.class_count());
        for c in schema.classes() {
            let mut members = BitSet::with_capacity(capacity);
            for sub in schema.class_descendant_set(c).iter() {
                for &id in &direct[sub] {
                    members.insert(id as usize);
                }
            }
            let extent: Vec<SymId> = members.iter().map(|i| i as SymId).collect();
            class_members.push(members);
            class_extent_closed.push(extent);
        }

        InternedBase {
            stats: base.stats().clone(),
            schema,
            nodes: Arc::new(nodes),
            ids,
            props,
            class_members,
            class_extent_closed,
        }
    }

    /// The schema this snapshot conforms to.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The statistics snapshot taken at build time.
    pub fn stats(&self) -> &BaseStatistics {
        &self.stats
    }

    /// Number of distinct interned nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node behind a symbol.
    pub fn node(&self, id: SymId) -> &Node {
        &self.nodes[id as usize]
    }

    /// Every node, indexed by its symbol: shared, so a small answer may
    /// take it as its dictionary.
    pub fn table(&self) -> &Arc<Vec<Node>> {
        &self.nodes
    }

    /// The symbol of a node, if it occurs in the base at all.
    pub fn resolve(&self, node: &Node) -> Option<SymId> {
        self.ids.get(node).copied()
    }

    /// The direct columnar extent of property `p`.
    pub fn extent(&self, p: PropertyId) -> &InternedExtent {
        &self.props[p.0 as usize]
    }

    /// The closed extent of `p` as the extents of `p` and all its
    /// subproperties — precompute this per pattern instead of re-walking
    /// the descendant bit set per binding row.
    pub fn descendant_extents(&self, p: PropertyId) -> impl Iterator<Item = &InternedExtent> {
        self.schema
            .property_descendant_set(p)
            .iter()
            .map(move |sub| &self.props[sub])
    }

    /// Closed extent pairs of `p` (own triples plus all subproperties').
    pub fn triples_closed(&self, p: PropertyId) -> impl Iterator<Item = (SymId, SymId)> + '_ {
        self.schema
            .property_descendant_set(p)
            .iter()
            .flat_map(move |sub| self.props[sub].pairs())
    }

    /// Closed pairs of `p` with subject `s`.
    pub fn triples_with_subject(
        &self,
        p: PropertyId,
        s: SymId,
    ) -> impl Iterator<Item = (SymId, SymId)> + '_ {
        self.schema
            .property_descendant_set(p)
            .iter()
            .flat_map(move |sub| self.props[sub].with_subject(s))
    }

    /// Closed pairs of `p` with object `o`.
    pub fn triples_with_object(
        &self,
        p: PropertyId,
        o: SymId,
    ) -> impl Iterator<Item = (SymId, SymId)> + '_ {
        self.schema
            .property_descendant_set(p)
            .iter()
            .flat_map(move |sub| self.props[sub].with_object(o))
    }

    /// Is symbol `id` an instance of `c` under subsumption? O(1).
    pub fn is_instance(&self, id: SymId, c: ClassId) -> bool {
        self.class_members[c.0 as usize].contains(id as usize)
    }

    /// The subsumption-closed extent of `c` as ascending symbols.
    pub fn class_extent_closed(&self, c: ClassId) -> &[SymId] {
        &self.class_extent_closed[c.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqpeer_rdfs::{Literal, LiteralType, Range, Resource, SchemaBuilder, Triple};

    fn r(n: u32) -> Resource {
        Resource::new(format!("http://data/r{n}"))
    }

    fn fixture() -> DescriptionBase {
        let mut b = SchemaBuilder::new("n1", "http://example.org/n1#");
        let c1 = b.class("C1").unwrap();
        let c2 = b.class("C2").unwrap();
        let c5 = b.subclass("C5", c1).unwrap();
        let c6 = b.subclass("C6", c2).unwrap();
        let p1 = b.property("prop1", c1, Range::Class(c2)).unwrap();
        let p4 = b.subproperty("prop4", p1, c5, Range::Class(c6)).unwrap();
        let _ = b
            .property("age", c1, Range::Literal(LiteralType::Integer))
            .unwrap();
        let schema = Arc::new(b.finish().unwrap());
        let age = schema.property_by_name("age").unwrap();
        let mut base = DescriptionBase::new(schema);
        base.insert_described(Triple::new(r(1), p1, r(2)));
        base.insert_described(Triple::new(r(4), p4, r(5)));
        base.insert_described(Triple::new(r(1), age, Literal::Integer(30)));
        base
    }

    #[test]
    fn symbols_round_trip() {
        let base = fixture();
        let ib = base.interned();
        // 5 distinct nodes: r1, r2, r4, r5, the literal 30.
        assert_eq!(ib.node_count(), 5);
        for id in 0..ib.node_count() as SymId {
            assert_eq!(ib.resolve(ib.node(id)), Some(id));
        }
        assert_eq!(ib.resolve(&Node::Resource(r(99))), None);
    }

    #[test]
    fn closed_extents_and_membership() {
        let base = fixture();
        let schema = Arc::clone(base.schema());
        let ib = base.interned();
        let p1 = schema.property_by_name("prop1").unwrap();
        let c1 = schema.class_by_name("C1").unwrap();
        let c5 = schema.class_by_name("C5").unwrap();
        // prop1's closed extent includes the prop4 pair.
        assert_eq!(ib.triples_closed(p1).count(), 2);
        assert_eq!(ib.extent(p1).len(), 1);
        let r1 = ib.resolve(&Node::Resource(r(1))).unwrap();
        let r4 = ib.resolve(&Node::Resource(r(4))).unwrap();
        assert!(ib.is_instance(r1, c1));
        assert!(!ib.is_instance(r1, c5));
        assert!(ib.is_instance(r4, c1), "C5 ⊑ C1 closure");
        assert_eq!(ib.class_extent_closed(c1).len(), 2);
        // Indexed lookups agree with the column scan.
        assert_eq!(ib.triples_with_subject(p1, r4).count(), 1);
        let r5 = ib.resolve(&Node::Resource(r(5))).unwrap();
        assert_eq!(ib.triples_with_object(p1, r5).count(), 1);
    }

    #[test]
    fn snapshot_invalidated_on_mutation() {
        let mut base = fixture();
        let schema = Arc::clone(base.schema());
        let p1 = schema.property_by_name("prop1").unwrap();
        let before = base.interned();
        assert_eq!(before.triples_closed(p1).count(), 2);
        base.insert_described(Triple::new(r(7), p1, r(8)));
        let after = base.interned();
        assert_eq!(after.triples_closed(p1).count(), 3);
        // The old snapshot is unchanged (it is a snapshot).
        assert_eq!(before.triples_closed(p1).count(), 2);
    }

    #[test]
    fn stats_ride_along() {
        let base = fixture();
        let schema = Arc::clone(base.schema());
        let ib = base.interned();
        let p1 = schema.property_by_name("prop1").unwrap();
        assert_eq!(ib.stats().property_closed(p1).triples, 2);
    }
}
