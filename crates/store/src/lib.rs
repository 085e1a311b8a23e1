//! Indexed per-peer RDF description bases for SQPeer.
//!
//! Every simple-peer in a SON holds a **description base**: class extents
//! (`rdf:type` facts) and property extents (description triples) conforming
//! to one or more community RDF/S schemas (paper §2.2). This crate provides
//! the [`DescriptionBase`] store with:
//!
//! * duplicate-free insertion with optional RDF/S domain/range typing
//!   inference (entailment rules rdfs2/rdfs3),
//! * subject/object hash indexes per property for join evaluation,
//! * **subsumption-aware** extent retrieval — the extent of `C1` includes
//!   instances of `C5 ⊑ C1`, and the extent of `prop1` includes `prop4 ⊑
//!   prop1` triples — which is what makes peer P4 of Figure 2 able to
//!   answer queries over `prop1`,
//! * [`BaseStatistics`] snapshots (cardinalities, distinct counts) feeding
//!   the cost-based optimiser of §2.5.

pub mod interned;
pub mod stats;
pub mod text;

pub use interned::{InternedBase, InternedExtent, SymId};
pub use stats::{BaseStatistics, ClassStats, PropertyStats};
pub use text::{dump, load, TextError};

use sqpeer_rdfs::{ClassId, Node, PropertyId, Range, Resource, Schema, Triple, Typing};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

/// The extent of one property: its triples plus subject/object indexes.
#[derive(Debug, Default, Clone)]
struct PropExtent {
    /// Insertion-ordered (subject, object) pairs.
    pairs: Vec<(Resource, Node)>,
    /// Subject → indexes into `pairs`.
    by_subject: HashMap<Resource, Vec<u32>>,
    /// Object → indexes into `pairs`.
    by_object: HashMap<Node, Vec<u32>>,
}

impl PropExtent {
    fn insert(&mut self, subject: Resource, object: Node) -> bool {
        if let Some(idxs) = self.by_subject.get(&subject) {
            if idxs.iter().any(|&i| self.pairs[i as usize].1 == object) {
                return false;
            }
        }
        let idx = self.pairs.len() as u32;
        self.by_subject
            .entry(subject.clone())
            .or_default()
            .push(idx);
        self.by_object.entry(object.clone()).or_default().push(idx);
        self.pairs.push((subject, object));
        true
    }
}

/// A peer's materialised RDF description base over a community schema.
#[derive(Debug, Clone)]
pub struct DescriptionBase {
    schema: Arc<Schema>,
    /// Direct class extents (no subsumption), indexed by `ClassId`.
    class_extents: Vec<HashSet<Resource>>,
    /// Direct property extents (no subsumption), indexed by `PropertyId`.
    prop_extents: Vec<PropExtent>,
    /// Resource → set of classes it is directly typed with.
    types_of: HashMap<Resource, Vec<ClassId>>,
    /// Lazily-built interned snapshot; invalidated by every mutation.
    interned: OnceLock<Arc<InternedBase>>,
    /// Lazily-taken statistics snapshot; invalidated with `interned`.
    stats: OnceLock<BaseStatistics>,
}

impl DescriptionBase {
    /// Creates an empty base over `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        DescriptionBase {
            class_extents: vec![HashSet::new(); schema.class_count()],
            prop_extents: vec![PropExtent::default(); schema.property_count()],
            types_of: HashMap::new(),
            interned: OnceLock::new(),
            stats: OnceLock::new(),
            schema,
        }
    }

    /// The community schema this base conforms to.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The interned columnar snapshot of this base, built on first use and
    /// rebuilt after mutations. The `Arc` keeps snapshots usable (and
    /// shareable across evaluation threads) even if the base mutates later.
    pub fn interned(&self) -> Arc<InternedBase> {
        Arc::clone(self.snapshot())
    }

    /// [`interned`](Self::interned), borrowed: no reference count moves,
    /// for a caller done with the snapshot before the base can change.
    pub fn snapshot(&self) -> &Arc<InternedBase> {
        self.interned
            .get_or_init(|| Arc::new(InternedBase::build(self)))
    }

    /// Adds a typing fact. Returns `true` if it was new.
    pub fn insert_typing(&mut self, typing: Typing) -> bool {
        self.interned.take();
        self.stats.take();
        let newly = self.class_extents[typing.class.0 as usize].insert(typing.resource.clone());
        if newly {
            self.types_of
                .entry(typing.resource)
                .or_default()
                .push(typing.class);
        }
        newly
    }

    /// Adds a description triple without any type inference. Returns `true`
    /// if it was new.
    pub fn insert_triple(&mut self, triple: Triple) -> bool {
        self.interned.take();
        self.stats.take();
        self.prop_extents[triple.property.0 as usize].insert(triple.subject, triple.object)
    }

    /// Adds a description triple and infers domain/range typings from the
    /// property definition (RDF/S entailment rules rdfs2 and rdfs3).
    pub fn insert_described(&mut self, triple: Triple) -> bool {
        let def = self.schema.property(triple.property);
        let domain = def.domain;
        let range = def.range;
        self.insert_typing(Typing::new(triple.subject.clone(), domain));
        if let (Range::Class(rc), Node::Resource(obj)) = (range, &triple.object) {
            self.insert_typing(Typing::new(obj.clone(), rc));
        }
        self.insert_triple(triple)
    }

    /// Total number of description triples (across all properties).
    pub fn triple_count(&self) -> usize {
        self.prop_extents.iter().map(|e| e.pairs.len()).sum()
    }

    /// Total number of typing facts.
    pub fn typing_count(&self) -> usize {
        self.class_extents.iter().map(|e| e.len()).sum()
    }

    /// Is the base completely empty?
    pub fn is_empty(&self) -> bool {
        self.triple_count() == 0 && self.typing_count() == 0
    }

    /// Direct extent of property `p` (no subproperty closure).
    pub fn triples_direct(&self, p: PropertyId) -> impl Iterator<Item = (&Resource, &Node)> {
        self.prop_extents[p.0 as usize]
            .pairs
            .iter()
            .map(|(s, o)| (s, o))
    }

    /// Closed extent of property `p`: triples of `p` and of every
    /// subproperty of `p`.
    pub fn triples_closed(&self, p: PropertyId) -> impl Iterator<Item = (&Resource, &Node)> {
        self.schema
            .property_descendant_set(p)
            .iter()
            .flat_map(move |sub| self.prop_extents[sub].pairs.iter().map(|(s, o)| (s, o)))
    }

    /// Closed triples of `p` with the given subject.
    pub fn triples_with_subject<'a>(
        &'a self,
        p: PropertyId,
        subject: &'a Resource,
    ) -> impl Iterator<Item = (&'a Resource, &'a Node)> + 'a {
        self.schema
            .property_descendant_set(p)
            .iter()
            .flat_map(move |sub| {
                let ext = &self.prop_extents[sub];
                ext.by_subject
                    .get(subject)
                    .into_iter()
                    .flatten()
                    .map(move |&i| {
                        let (s, o) = &ext.pairs[i as usize];
                        (s, o)
                    })
            })
    }

    /// Closed triples of `p` with the given object.
    pub fn triples_with_object<'a>(
        &'a self,
        p: PropertyId,
        object: &'a Node,
    ) -> impl Iterator<Item = (&'a Resource, &'a Node)> + 'a {
        self.schema
            .property_descendant_set(p)
            .iter()
            .flat_map(move |sub| {
                let ext = &self.prop_extents[sub];
                ext.by_object
                    .get(object)
                    .into_iter()
                    .flatten()
                    .map(move |&i| {
                        let (s, o) = &ext.pairs[i as usize];
                        (s, o)
                    })
            })
    }

    /// Direct extent of class `c`.
    pub fn class_extent_direct(&self, c: ClassId) -> impl Iterator<Item = &Resource> {
        self.class_extents[c.0 as usize].iter()
    }

    /// Closed extent of class `c`: instances of `c` and of all subclasses.
    /// Deduplicates resources classified under several subclasses.
    pub fn class_extent_closed(&self, c: ClassId) -> Vec<&Resource> {
        let descendants = self.schema.class_descendant_set(c);
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for sub in descendants.iter() {
            for r in &self.class_extents[sub] {
                if seen.insert(r) {
                    out.push(r);
                }
            }
        }
        out
    }

    /// Is `r` an instance of `c` under subsumption?
    pub fn is_instance(&self, r: &Resource, c: ClassId) -> bool {
        self.types_of
            .get(r)
            .is_some_and(|classes| classes.iter().any(|&d| self.schema.is_subclass(d, c)))
    }

    /// The direct types of `r`.
    pub fn types_of(&self, r: &Resource) -> &[ClassId] {
        self.types_of.get(r).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The set of properties with a non-empty direct extent — the populated
    /// schema fragment from which a *materialized* active-schema is derived
    /// (paper §2.2).
    pub fn populated_properties(&self) -> Vec<PropertyId> {
        self.schema
            .properties()
            .filter(|p| !self.prop_extents[p.0 as usize].pairs.is_empty())
            .collect()
    }

    /// The set of classes with a non-empty direct extent.
    pub fn populated_classes(&self) -> Vec<ClassId> {
        self.schema
            .classes()
            .filter(|c| !self.class_extents[c.0 as usize].is_empty())
            .collect()
    }

    /// The statistics snapshot of this base as it stands: taken on first
    /// use after a mutation, then shared by every caller (the interned
    /// snapshot, advertisements, data packets) until the next one.
    pub fn stats(&self) -> &BaseStatistics {
        self.stats.get_or_init(|| self.statistics())
    }

    /// Takes a statistics snapshot for advertisement and cost estimation.
    pub fn statistics(&self) -> BaseStatistics {
        let props = self
            .schema
            .properties()
            .map(|p| {
                let ext = &self.prop_extents[p.0 as usize];
                PropertyStats {
                    triples: ext.pairs.len(),
                    distinct_subjects: ext.by_subject.len(),
                    distinct_objects: ext.by_object.len(),
                }
            })
            .collect();
        let classes = self
            .schema
            .classes()
            .map(|c| ClassStats {
                instances: self.class_extents[c.0 as usize].len(),
            })
            .collect();
        BaseStatistics::new(props, classes, &self.schema)
    }

    /// Merges every fact of `other` into this base (used to build the
    /// centralised oracle store for correctness checks).
    pub fn absorb(&mut self, other: &DescriptionBase) {
        let schema = Arc::clone(&self.schema);
        for c in schema.classes() {
            for r in other.class_extent_direct(c) {
                self.insert_typing(Typing::new(r.clone(), c));
            }
        }
        for p in schema.properties() {
            for (s, o) in other.triples_direct(p) {
                self.insert_triple(Triple::new(s.clone(), p, o.clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqpeer_rdfs::{Literal, LiteralType, SchemaBuilder};

    fn fig1_schema() -> Arc<Schema> {
        let mut b = SchemaBuilder::new("n1", "http://example.org/n1#");
        let c1 = b.class("C1").unwrap();
        let c2 = b.class("C2").unwrap();
        let c3 = b.class("C3").unwrap();
        let c4 = b.class("C4").unwrap();
        let c5 = b.subclass("C5", c1).unwrap();
        let c6 = b.subclass("C6", c2).unwrap();
        let p1 = b.property("prop1", c1, Range::Class(c2)).unwrap();
        let _p2 = b.property("prop2", c2, Range::Class(c3)).unwrap();
        let _p3 = b.property("prop3", c3, Range::Class(c4)).unwrap();
        let _p4 = b.subproperty("prop4", p1, c5, Range::Class(c6)).unwrap();
        Arc::new(b.finish().unwrap())
    }

    fn ids(s: &Schema) -> (ClassId, ClassId, ClassId, PropertyId, PropertyId) {
        (
            s.class_by_name("C1").unwrap(),
            s.class_by_name("C2").unwrap(),
            s.class_by_name("C5").unwrap(),
            s.property_by_name("prop1").unwrap(),
            s.property_by_name("prop4").unwrap(),
        )
    }

    fn r(n: u32) -> Resource {
        Resource::new(format!("http://data/r{n}"))
    }

    #[test]
    fn insert_dedups() {
        let schema = fig1_schema();
        let (_, _, _, p1, _) = ids(&schema);
        let mut base = DescriptionBase::new(schema);
        assert!(base.insert_triple(Triple::new(r(1), p1, r(2))));
        assert!(!base.insert_triple(Triple::new(r(1), p1, r(2))));
        assert!(base.insert_triple(Triple::new(r(1), p1, r(3))));
        assert_eq!(base.triple_count(), 2);
    }

    #[test]
    fn described_insert_infers_types() {
        let schema = fig1_schema();
        let (c1, c2, _, p1, _) = ids(&schema);
        let mut base = DescriptionBase::new(schema);
        base.insert_described(Triple::new(r(1), p1, r(2)));
        assert!(base.is_instance(&r(1), c1));
        assert!(base.is_instance(&r(2), c2));
        assert!(!base.is_instance(&r(2), c1));
    }

    #[test]
    fn subproperty_closure_in_extent() {
        let schema = fig1_schema();
        let (_, _, _, p1, p4) = ids(&schema);
        let mut base = DescriptionBase::new(schema);
        base.insert_described(Triple::new(r(1), p4, r(2)));
        // prop4 triples are visible through prop1's closed extent but not
        // its direct extent.
        assert_eq!(base.triples_direct(p1).count(), 0);
        assert_eq!(base.triples_closed(p1).count(), 1);
        assert_eq!(base.triples_closed(p4).count(), 1);
    }

    #[test]
    fn subclass_closure_in_extent_and_membership() {
        let schema = fig1_schema();
        let (c1, _, c5, _, p4) = ids(&schema);
        let mut base = DescriptionBase::new(schema);
        base.insert_described(Triple::new(r(1), p4, r(2)));
        // r1 was typed C5 (domain of prop4); via subsumption it is a C1.
        assert!(base.is_instance(&r(1), c5));
        assert!(base.is_instance(&r(1), c1));
        assert_eq!(base.class_extent_direct(c1).count(), 0);
        assert_eq!(base.class_extent_closed(c1).len(), 1);
    }

    #[test]
    fn closed_extent_dedups_multiply_classified() {
        let schema = fig1_schema();
        let (c1, _, c5, _, _) = ids(&schema);
        let mut base = DescriptionBase::new(schema.clone());
        base.insert_typing(Typing::new(r(9), c1));
        base.insert_typing(Typing::new(r(9), c5));
        assert_eq!(base.class_extent_closed(c1).len(), 1);
        assert_eq!(base.types_of(&r(9)).len(), 2);
    }

    #[test]
    fn subject_and_object_lookups() {
        let schema = fig1_schema();
        let (_, _, _, p1, p4) = ids(&schema);
        let mut base = DescriptionBase::new(schema);
        base.insert_triple(Triple::new(r(1), p1, r(2)));
        base.insert_triple(Triple::new(r(1), p1, r(3)));
        base.insert_triple(Triple::new(r(4), p4, r(2)));
        let subj = r(1);
        assert_eq!(base.triples_with_subject(p1, &subj).count(), 2);
        let obj = Node::Resource(r(2));
        // Object lookup through the closed extent sees the prop4 triple too.
        assert_eq!(base.triples_with_object(p1, &obj).count(), 2);
        assert_eq!(base.triples_with_object(p4, &obj).count(), 1);
    }

    #[test]
    fn populated_fragment() {
        let schema = fig1_schema();
        let (_, _, _, _, p4) = ids(&schema);
        let mut base = DescriptionBase::new(schema.clone());
        base.insert_described(Triple::new(r(1), p4, r(2)));
        assert_eq!(base.populated_properties(), vec![p4]);
        let classes = base.populated_classes();
        assert_eq!(classes.len(), 2); // C5 and C6
    }

    #[test]
    fn statistics_snapshot() {
        let schema = fig1_schema();
        let (_, _, _, p1, _) = ids(&schema);
        let mut base = DescriptionBase::new(schema);
        base.insert_described(Triple::new(r(1), p1, r(2)));
        base.insert_described(Triple::new(r(1), p1, r(3)));
        base.insert_described(Triple::new(r(4), p1, r(3)));
        let stats = base.statistics();
        let ps = stats.property(p1);
        assert_eq!(ps.triples, 3);
        assert_eq!(ps.distinct_subjects, 2);
        assert_eq!(ps.distinct_objects, 2);
    }

    #[test]
    fn literal_objects() {
        let mut b = SchemaBuilder::new("n1", "u");
        let c1 = b.class("C1").unwrap();
        let title = b
            .property("title", c1, Range::Literal(LiteralType::String))
            .unwrap();
        let schema = Arc::new(b.finish().unwrap());
        let mut base = DescriptionBase::new(schema);
        base.insert_described(Triple::new(r(1), title, Literal::string("hello")));
        assert_eq!(base.triple_count(), 1);
        let obj = Node::Literal(Literal::string("hello"));
        assert_eq!(base.triples_with_object(title, &obj).count(), 1);
        // Literal objects must not be typed as resources.
        assert_eq!(base.typing_count(), 1);
    }

    #[test]
    fn absorb_unions_bases() {
        let schema = fig1_schema();
        let (_, _, _, p1, p4) = ids(&schema);
        let mut a = DescriptionBase::new(schema.clone());
        a.insert_described(Triple::new(r(1), p1, r(2)));
        let mut b = DescriptionBase::new(schema.clone());
        b.insert_described(Triple::new(r(3), p4, r(4)));
        b.insert_described(Triple::new(r(1), p1, r(2))); // duplicate across peers
        let mut oracle = DescriptionBase::new(schema);
        oracle.absorb(&a);
        oracle.absorb(&b);
        assert_eq!(oracle.triple_count(), 2);
        assert_eq!(oracle.triples_closed(p1).count(), 2);
    }
}
