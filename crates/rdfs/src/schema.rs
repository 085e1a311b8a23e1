//! Community RDF/S schemas: classes, properties and subsumption lattices.
//!
//! A [`Schema`] is the intensional vocabulary a Semantic Overlay Network is
//! built around (paper §2.1). It is constructed once with a
//! [`SchemaBuilder`], validated, and its subclass/subproperty transitive
//! closures are materialised as bit sets so that the subsumption checks at
//! the heart of SQPeer routing (`isSubsumed`, §2.3) are O(1).

use crate::bitset::BitSet;
use crate::error::SchemaError;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a namespace declared in a [`Schema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NamespaceId(pub u16);

/// Identifier of a class within a [`Schema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u32);

/// Identifier of a property within a [`Schema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PropertyId(pub u32);

/// The datatype of a literal-valued property range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LiteralType {
    /// `xsd:string`.
    String,
    /// `xsd:integer`.
    Integer,
    /// `xsd:float`.
    Float,
    /// `xsd:boolean`.
    Boolean,
}

/// The range of a property: either a class (object property) or a literal
/// datatype (datatype property).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Range {
    /// The property relates resources to instances of this class.
    Class(ClassId),
    /// The property relates resources to literals of this datatype.
    Literal(LiteralType),
}

/// A namespace declaration: a short prefix bound to a URI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamespaceDecl {
    /// The prefix used in qualified names, e.g. `n1`.
    pub prefix: String,
    /// The namespace URI, e.g. `http://example.org/n1#`.
    pub uri: String,
}

/// A class definition.
#[derive(Debug, Clone)]
pub struct ClassDef {
    /// Local name within its namespace.
    pub name: String,
    /// The namespace this class is defined in.
    pub namespace: NamespaceId,
    /// Direct superclasses.
    pub parents: Vec<ClassId>,
}

/// A property definition with an RDF/S domain and range.
#[derive(Debug, Clone)]
pub struct PropertyDef {
    /// Local name within its namespace.
    pub name: String,
    /// The namespace this property is defined in.
    pub namespace: NamespaceId,
    /// The domain class (origin of the property arrow).
    pub domain: ClassId,
    /// The range (target of the property arrow).
    pub range: Range,
    /// Direct superproperties.
    pub parents: Vec<PropertyId>,
}

/// An immutable, validated community RDF/S schema with precomputed
/// subsumption closures.
#[derive(Debug, Clone)]
pub struct Schema {
    namespaces: Vec<NamespaceDecl>,
    classes: Vec<ClassDef>,
    properties: Vec<PropertyDef>,
    class_by_name: HashMap<String, ClassId>,
    prop_by_name: HashMap<String, PropertyId>,
    // ancestors[i] and descendants[i] are reflexive (include i itself).
    class_ancestors: Vec<BitSet>,
    class_descendants: Vec<BitSet>,
    prop_ancestors: Vec<BitSet>,
    prop_descendants: Vec<BitSet>,
    fingerprint: u64,
}

impl Schema {
    /// The structural fingerprint: FNV-1a over namespaces, class
    /// definitions and property definitions in declaration order, hashed
    /// once by [`SchemaBuilder::finish`]. Two schemas built identically
    /// fingerprint identically, whatever `Arc` they live in.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// All namespace declarations, in declaration order.
    pub fn namespaces(&self) -> &[NamespaceDecl] {
        &self.namespaces
    }

    /// Number of classes in the schema.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of properties in the schema.
    pub fn property_count(&self) -> usize {
        self.properties.len()
    }

    /// All class ids in the schema.
    pub fn classes(&self) -> impl Iterator<Item = ClassId> + '_ {
        (0..self.classes.len() as u32).map(ClassId)
    }

    /// All property ids in the schema.
    pub fn properties(&self) -> impl Iterator<Item = PropertyId> + '_ {
        (0..self.properties.len() as u32).map(PropertyId)
    }

    /// The definition of class `c`.
    pub fn class(&self, c: ClassId) -> &ClassDef {
        &self.classes[c.0 as usize]
    }

    /// The definition of property `p`.
    pub fn property(&self, p: PropertyId) -> &PropertyDef {
        &self.properties[p.0 as usize]
    }

    /// Looks up a class by qualified name (`prefix:Local`) or bare local
    /// name when unambiguous.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.class_by_name.get(name).copied()
    }

    /// Looks up a property by qualified name (`prefix:local`) or bare local
    /// name when unambiguous.
    pub fn property_by_name(&self, name: &str) -> Option<PropertyId> {
        self.prop_by_name.get(name).copied()
    }

    /// The qualified `prefix:Local` name of class `c`.
    pub fn class_qname(&self, c: ClassId) -> String {
        let def = self.class(c);
        format!(
            "{}:{}",
            self.namespaces[def.namespace.0 as usize].prefix, def.name
        )
    }

    /// The qualified `prefix:local` name of property `p`.
    pub fn property_qname(&self, p: PropertyId) -> String {
        let def = self.property(p);
        format!(
            "{}:{}",
            self.namespaces[def.namespace.0 as usize].prefix, def.name
        )
    }

    /// Reflexive subsumption test: does class `sub` ⊑ class `sup`?
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        self.class_ancestors[sub.0 as usize].contains(sup.0 as usize)
    }

    /// Reflexive subsumption test: does property `sub` ⊑ property `sup`?
    pub fn is_subproperty(&self, sub: PropertyId, sup: PropertyId) -> bool {
        self.prop_ancestors[sub.0 as usize].contains(sup.0 as usize)
    }

    /// All (reflexive, transitive) superclasses of `c`.
    pub fn superclasses(&self, c: ClassId) -> impl Iterator<Item = ClassId> + '_ {
        self.class_ancestors[c.0 as usize]
            .iter()
            .map(|i| ClassId(i as u32))
    }

    /// All (reflexive, transitive) subclasses of `c`.
    pub fn subclasses(&self, c: ClassId) -> impl Iterator<Item = ClassId> + '_ {
        self.class_descendants[c.0 as usize]
            .iter()
            .map(|i| ClassId(i as u32))
    }

    /// All (reflexive, transitive) superproperties of `p`.
    pub fn superproperties(&self, p: PropertyId) -> impl Iterator<Item = PropertyId> + '_ {
        self.prop_ancestors[p.0 as usize]
            .iter()
            .map(|i| PropertyId(i as u32))
    }

    /// All (reflexive, transitive) subproperties of `p`.
    pub fn subproperties(&self, p: PropertyId) -> impl Iterator<Item = PropertyId> + '_ {
        self.prop_descendants[p.0 as usize]
            .iter()
            .map(|i| PropertyId(i as u32))
    }

    /// The reflexive descendant bit set of class `c` (indices are raw
    /// `ClassId` values). Useful for bulk extent computations.
    pub fn class_descendant_set(&self, c: ClassId) -> &BitSet {
        &self.class_descendants[c.0 as usize]
    }

    /// The reflexive descendant bit set of property `p`.
    pub fn property_descendant_set(&self, p: PropertyId) -> &BitSet {
        &self.prop_descendants[p.0 as usize]
    }

    /// Do two classes have a common subclass (their extents may overlap)?
    pub fn classes_overlap(&self, a: ClassId, b: ClassId) -> bool {
        self.class_descendants[a.0 as usize].intersects(&self.class_descendants[b.0 as usize])
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for ns in &self.namespaces {
            writeln!(f, "NAMESPACE {} = <{}>", ns.prefix, ns.uri)?;
        }
        for c in self.classes() {
            let def = self.class(c);
            write!(f, "CLASS {}", self.class_qname(c))?;
            if !def.parents.is_empty() {
                let parents: Vec<_> = def.parents.iter().map(|&p| self.class_qname(p)).collect();
                write!(f, " SUBCLASSOF {}", parents.join(", "))?;
            }
            writeln!(f)?;
        }
        for p in self.properties() {
            let def = self.property(p);
            let range = match def.range {
                Range::Class(c) => self.class_qname(c),
                Range::Literal(t) => format!("{t:?}").to_lowercase(),
            };
            write!(
                f,
                "PROPERTY {}({} -> {})",
                self.property_qname(p),
                self.class_qname(def.domain),
                range
            )?;
            if !def.parents.is_empty() {
                let parents: Vec<_> = def
                    .parents
                    .iter()
                    .map(|&q| self.property_qname(q))
                    .collect();
                write!(f, " SUBPROPERTYOF {}", parents.join(", "))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Incrementally constructs and validates a [`Schema`].
///
/// Definitions may be added in any order as long as referenced ids were
/// returned by earlier calls; [`SchemaBuilder::finish`] validates the whole
/// schema (acyclicity, domain/range refinement) and computes the closures.
#[derive(Debug, Clone)]
pub struct SchemaBuilder {
    namespaces: Vec<NamespaceDecl>,
    current_ns: NamespaceId,
    classes: Vec<ClassDef>,
    properties: Vec<PropertyDef>,
    class_by_name: HashMap<String, ClassId>,
    prop_by_name: HashMap<String, PropertyId>,
}

impl SchemaBuilder {
    /// Starts a schema with one namespace, which becomes the current
    /// namespace for subsequent definitions.
    pub fn new(prefix: &str, uri: &str) -> Self {
        SchemaBuilder {
            namespaces: vec![NamespaceDecl {
                prefix: prefix.to_string(),
                uri: uri.to_string(),
            }],
            current_ns: NamespaceId(0),
            classes: Vec::new(),
            properties: Vec::new(),
            class_by_name: HashMap::new(),
            prop_by_name: HashMap::new(),
        }
    }

    /// Declares an additional namespace and makes it current.
    pub fn namespace(&mut self, prefix: &str, uri: &str) -> Result<NamespaceId, SchemaError> {
        if self.namespaces.iter().any(|n| n.prefix == prefix) {
            return Err(SchemaError::DuplicateNamespace(prefix.to_string()));
        }
        let id = NamespaceId(self.namespaces.len() as u16);
        self.namespaces.push(NamespaceDecl {
            prefix: prefix.to_string(),
            uri: uri.to_string(),
        });
        self.current_ns = id;
        Ok(id)
    }

    fn qname(&self, ns: NamespaceId, local: &str) -> String {
        format!("{}:{}", self.namespaces[ns.0 as usize].prefix, local)
    }

    /// Declares a root class in the current namespace.
    pub fn class(&mut self, name: &str) -> Result<ClassId, SchemaError> {
        self.class_with_parents(name, &[])
    }

    /// Declares a class with one direct superclass.
    pub fn subclass(&mut self, name: &str, parent: ClassId) -> Result<ClassId, SchemaError> {
        self.class_with_parents(name, &[parent])
    }

    /// Declares a class with any number of direct superclasses (RDF/S allows
    /// multiple inheritance).
    pub fn class_with_parents(
        &mut self,
        name: &str,
        parents: &[ClassId],
    ) -> Result<ClassId, SchemaError> {
        let qname = self.qname(self.current_ns, name);
        if self.class_by_name.contains_key(&qname) {
            return Err(SchemaError::DuplicateName(qname));
        }
        for &p in parents {
            if p.0 as usize >= self.classes.len() {
                return Err(SchemaError::UnknownName(format!("class #{}", p.0)));
            }
        }
        let id = ClassId(self.classes.len() as u32);
        self.classes.push(ClassDef {
            name: name.to_string(),
            namespace: self.current_ns,
            parents: parents.to_vec(),
        });
        self.class_by_name.insert(qname, id);
        // Also register the bare local name if unambiguous; ambiguity is
        // resolved by removing the bare entry.
        match self.class_by_name.entry(name.to_string()) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(id);
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                if *e.get() != id {
                    e.remove();
                }
            }
        }
        Ok(id)
    }

    /// Declares a root property in the current namespace.
    pub fn property(
        &mut self,
        name: &str,
        domain: ClassId,
        range: Range,
    ) -> Result<PropertyId, SchemaError> {
        self.property_with_parents(name, domain, range, &[])
    }

    /// Declares a property refining `parent` (domain and range must refine
    /// the parent's, which is checked in [`SchemaBuilder::finish`]).
    pub fn subproperty(
        &mut self,
        name: &str,
        parent: PropertyId,
        domain: ClassId,
        range: Range,
    ) -> Result<PropertyId, SchemaError> {
        self.property_with_parents(name, domain, range, &[parent])
    }

    /// Declares a property with any number of direct superproperties.
    pub fn property_with_parents(
        &mut self,
        name: &str,
        domain: ClassId,
        range: Range,
        parents: &[PropertyId],
    ) -> Result<PropertyId, SchemaError> {
        let qname = self.qname(self.current_ns, name);
        if self.prop_by_name.contains_key(&qname) {
            return Err(SchemaError::DuplicateName(qname));
        }
        for &p in parents {
            if p.0 as usize >= self.properties.len() {
                return Err(SchemaError::UnknownName(format!("property #{}", p.0)));
            }
        }
        if domain.0 as usize >= self.classes.len() {
            return Err(SchemaError::UnknownName(format!("class #{}", domain.0)));
        }
        if let Range::Class(c) = range {
            if c.0 as usize >= self.classes.len() {
                return Err(SchemaError::UnknownName(format!("class #{}", c.0)));
            }
        }
        let id = PropertyId(self.properties.len() as u32);
        self.properties.push(PropertyDef {
            name: name.to_string(),
            namespace: self.current_ns,
            domain,
            range,
            parents: parents.to_vec(),
        });
        self.prop_by_name.insert(qname, id);
        match self.prop_by_name.entry(name.to_string()) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(id);
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                if *e.get() != id {
                    e.remove();
                }
            }
        }
        Ok(id)
    }

    /// Validates the schema and computes subsumption closures.
    pub fn finish(self) -> Result<Schema, SchemaError> {
        let class_parents: Vec<Vec<usize>> = self
            .classes
            .iter()
            .map(|c| c.parents.iter().map(|p| p.0 as usize).collect())
            .collect();
        let (class_anc, class_desc) = closure(&class_parents).map_err(|i| {
            SchemaError::CyclicHierarchy(
                self.qname(self.classes[i].namespace, &self.classes[i].name),
            )
        })?;

        let prop_parents: Vec<Vec<usize>> = self
            .properties
            .iter()
            .map(|p| p.parents.iter().map(|q| q.0 as usize).collect())
            .collect();
        let (prop_anc, prop_desc) = closure(&prop_parents).map_err(|i| {
            SchemaError::CyclicHierarchy(
                self.qname(self.properties[i].namespace, &self.properties[i].name),
            )
        })?;

        // RQL refinement constraint: a subproperty's domain/range must be
        // subsumed by every direct parent's domain/range.
        for (i, def) in self.properties.iter().enumerate() {
            for &parent in &def.parents {
                let pdef = &self.properties[parent.0 as usize];
                if !class_anc[def.domain.0 as usize].contains(pdef.domain.0 as usize) {
                    return Err(SchemaError::IncompatibleDomain {
                        property: self.qname(def.namespace, &def.name),
                        parent: self.qname(pdef.namespace, &pdef.name),
                    });
                }
                let range_ok = match (def.range, pdef.range) {
                    (Range::Class(sub), Range::Class(sup)) => {
                        class_anc[sub.0 as usize].contains(sup.0 as usize)
                    }
                    (Range::Literal(a), Range::Literal(b)) => a == b,
                    _ => false,
                };
                if !range_ok {
                    return Err(SchemaError::IncompatibleRange {
                        property: self.qname(def.namespace, &def.name),
                        parent: self.qname(pdef.namespace, &pdef.name),
                    });
                }
            }
            let _ = i;
        }

        let mut schema = Schema {
            namespaces: self.namespaces,
            classes: self.classes,
            properties: self.properties,
            class_by_name: self.class_by_name,
            prop_by_name: self.prop_by_name,
            class_ancestors: class_anc,
            class_descendants: class_desc,
            prop_ancestors: prop_anc,
            prop_descendants: prop_desc,
            fingerprint: 0,
        };
        schema.fingerprint = fingerprint(&schema);
        Ok(schema)
    }
}

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        let fold = |h: u64, &b: &u8| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        self.0 = bytes.iter().fold(self.0, fold);
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// What [`Schema::fingerprint`] returns, hashed from the definitions.
fn fingerprint(schema: &Schema) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.u64(schema.namespaces.len() as u64);
    for ns in &schema.namespaces {
        h.str(&ns.prefix);
        h.str(&ns.uri);
    }
    h.u64(schema.classes.len() as u64);
    for def in &schema.classes {
        h.str(&def.name);
        h.u64(def.namespace.0 as u64);
        h.u64(def.parents.len() as u64);
        def.parents.iter().for_each(|p| h.u64(p.0 as u64));
    }
    h.u64(schema.properties.len() as u64);
    for def in &schema.properties {
        h.str(&def.name);
        h.u64(def.namespace.0 as u64);
        h.u64(def.domain.0 as u64);
        let (tag, id) = match def.range {
            Range::Class(c) => (0, c.0 as u64),
            Range::Literal(lt) => (1, lt as u64),
        };
        h.u64(tag);
        h.u64(id);
        h.u64(def.parents.len() as u64);
        def.parents.iter().for_each(|q| h.u64(q.0 as u64));
    }
    h.0
}

/// Computes reflexive-transitive (ancestors, descendants) closures of a DAG
/// given direct-parent adjacency. Returns `Err(node)` if a cycle passes
/// through `node`.
fn closure(parents: &[Vec<usize>]) -> Result<(Vec<BitSet>, Vec<BitSet>), usize> {
    let n = parents.len();
    let mut ancestors: Vec<BitSet> = (0..n)
        .map(|i| {
            let mut s = BitSet::with_capacity(n);
            s.insert(i);
            s
        })
        .collect();

    // Topological order over the parent edges: process parents before
    // children so each ancestor set is final when copied down.
    let mut order = Vec::with_capacity(n);
    let mut state = vec![0u8; n]; // 0 = white, 1 = grey, 2 = black
    for start in 0..n {
        if state[start] != 0 {
            continue;
        }
        // Iterative DFS to avoid recursion depth limits on deep hierarchies.
        let mut stack = vec![(start, 0usize)];
        state[start] = 1;
        while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
            if *idx < parents[node].len() {
                let parent = parents[node][*idx];
                *idx += 1;
                match state[parent] {
                    0 => {
                        state[parent] = 1;
                        stack.push((parent, 0));
                    }
                    1 => return Err(parent),
                    _ => {}
                }
            } else {
                state[node] = 2;
                order.push(node);
                stack.pop();
            }
        }
    }

    for &node in &order {
        // Parents appear earlier in `order`, so their sets are complete.
        let parent_list = parents[node].clone();
        for parent in parent_list {
            let parent_set = ancestors[parent].clone();
            ancestors[node].union_with(&parent_set);
        }
    }

    let mut descendants: Vec<BitSet> = (0..n).map(|_| BitSet::with_capacity(n)).collect();
    for (node, anc) in ancestors.iter().enumerate() {
        for a in anc.iter() {
            descendants[a].insert(node);
        }
    }
    Ok((ancestors, descendants))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the Figure 1 schema from the paper.
    fn fig1() -> (Schema, [ClassId; 6], [PropertyId; 4]) {
        let mut b = SchemaBuilder::new("n1", "http://example.org/n1#");
        let c1 = b.class("C1").unwrap();
        let c2 = b.class("C2").unwrap();
        let c3 = b.class("C3").unwrap();
        let c4 = b.class("C4").unwrap();
        let c5 = b.subclass("C5", c1).unwrap();
        let c6 = b.subclass("C6", c2).unwrap();
        let p1 = b.property("prop1", c1, Range::Class(c2)).unwrap();
        let p2 = b.property("prop2", c2, Range::Class(c3)).unwrap();
        let p3 = b.property("prop3", c3, Range::Class(c4)).unwrap();
        let p4 = b.subproperty("prop4", p1, c5, Range::Class(c6)).unwrap();
        let s = b.finish().unwrap();
        (s, [c1, c2, c3, c4, c5, c6], [p1, p2, p3, p4])
    }

    #[test]
    fn figure1_subsumption() {
        let (s, [c1, c2, _, c4, c5, c6], [p1, p2, _, p4]) = fig1();
        assert!(s.is_subclass(c5, c1));
        assert!(s.is_subclass(c6, c2));
        assert!(s.is_subclass(c1, c1), "subsumption is reflexive");
        assert!(!s.is_subclass(c1, c5));
        assert!(!s.is_subclass(c4, c1));
        assert!(s.is_subproperty(p4, p1));
        assert!(!s.is_subproperty(p1, p4));
        assert!(!s.is_subproperty(p2, p1));
    }

    #[test]
    fn name_lookup() {
        let (s, [c1, ..], [p1, ..]) = fig1();
        assert_eq!(s.class_by_name("n1:C1"), Some(c1));
        assert_eq!(s.class_by_name("C1"), Some(c1));
        assert_eq!(s.property_by_name("n1:prop1"), Some(p1));
        assert_eq!(s.property_by_name("prop1"), Some(p1));
        assert_eq!(s.class_by_name("n1:C99"), None);
        assert_eq!(s.class_qname(c1), "n1:C1");
        assert_eq!(s.property_qname(p1), "n1:prop1");
    }

    #[test]
    fn descendant_iteration() {
        let (s, [c1, _, _, _, c5, _], [p1, _, _, p4]) = fig1();
        let subs: Vec<_> = s.subclasses(c1).collect();
        assert_eq!(subs, vec![c1, c5]);
        let supers: Vec<_> = s.superproperties(p4).collect();
        assert_eq!(supers, vec![p1, p4]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = SchemaBuilder::new("n1", "u");
        b.class("C").unwrap();
        assert_eq!(b.class("C"), Err(SchemaError::DuplicateName("n1:C".into())));
    }

    #[test]
    fn bare_names_ambiguous_across_namespaces() {
        let mut b = SchemaBuilder::new("n1", "u1");
        let a = b.class("C").unwrap();
        b.namespace("n2", "u2").unwrap();
        let bid = b.class("C").unwrap();
        let s = b.finish().unwrap();
        assert_eq!(s.class_by_name("n1:C"), Some(a));
        assert_eq!(s.class_by_name("n2:C"), Some(bid));
        assert_eq!(s.class_by_name("C"), None, "bare name is ambiguous");
    }

    #[test]
    fn duplicate_namespace_rejected() {
        let mut b = SchemaBuilder::new("n1", "u");
        assert_eq!(
            b.namespace("n1", "other"),
            Err(SchemaError::DuplicateNamespace("n1".into()))
        );
    }

    #[test]
    fn incompatible_subproperty_domain_rejected() {
        let mut b = SchemaBuilder::new("n1", "u");
        let c1 = b.class("C1").unwrap();
        let c2 = b.class("C2").unwrap();
        let unrelated = b.class("X").unwrap();
        let p1 = b.property("p", c1, Range::Class(c2)).unwrap();
        b.subproperty("q", p1, unrelated, Range::Class(c2)).unwrap();
        assert!(matches!(
            b.finish(),
            Err(SchemaError::IncompatibleDomain { .. })
        ));
    }

    #[test]
    fn incompatible_subproperty_range_rejected() {
        let mut b = SchemaBuilder::new("n1", "u");
        let c1 = b.class("C1").unwrap();
        let c2 = b.class("C2").unwrap();
        let unrelated = b.class("X").unwrap();
        let p1 = b.property("p", c1, Range::Class(c2)).unwrap();
        b.subproperty("q", p1, c1, Range::Class(unrelated)).unwrap();
        assert!(matches!(
            b.finish(),
            Err(SchemaError::IncompatibleRange { .. })
        ));
    }

    #[test]
    fn literal_ranges() {
        let mut b = SchemaBuilder::new("n1", "u");
        let c1 = b.class("C1").unwrap();
        let p = b
            .property("title", c1, Range::Literal(LiteralType::String))
            .unwrap();
        let q = b
            .subproperty("shortTitle", p, c1, Range::Literal(LiteralType::String))
            .unwrap();
        let s = b.finish().unwrap();
        assert!(s.is_subproperty(q, p));
        assert_eq!(s.property(p).range, Range::Literal(LiteralType::String));
    }

    #[test]
    fn literal_range_cannot_refine_class_range() {
        let mut b = SchemaBuilder::new("n1", "u");
        let c1 = b.class("C1").unwrap();
        let c2 = b.class("C2").unwrap();
        let p = b.property("p", c1, Range::Class(c2)).unwrap();
        b.subproperty("q", p, c1, Range::Literal(LiteralType::String))
            .unwrap();
        assert!(matches!(
            b.finish(),
            Err(SchemaError::IncompatibleRange { .. })
        ));
    }

    #[test]
    fn multiple_inheritance_closure() {
        let mut b = SchemaBuilder::new("n1", "u");
        let a = b.class("A").unwrap();
        let c = b.class("B").unwrap();
        let d = b.class_with_parents("D", &[a, c]).unwrap();
        let e = b.subclass("E", d).unwrap();
        let s = b.finish().unwrap();
        assert!(s.is_subclass(e, a));
        assert!(s.is_subclass(e, c));
        assert!(s.is_subclass(d, a));
        assert!(!s.is_subclass(a, c));
        assert!(s.classes_overlap(a, c), "A and B share descendant D");
    }

    #[test]
    fn deep_hierarchy_no_stack_overflow() {
        let mut b = SchemaBuilder::new("n1", "u");
        let mut prev = b.class("C0").unwrap();
        for i in 1..5_000 {
            prev = b.subclass(&format!("C{i}"), prev).unwrap();
        }
        let s = b.finish().unwrap();
        let top = s.class_by_name("n1:C0").unwrap();
        let bottom = s.class_by_name("n1:C4999").unwrap();
        assert!(s.is_subclass(bottom, top));
        assert_eq!(s.superclasses(bottom).count(), 5_000);
    }

    #[test]
    fn display_round_trips_names() {
        let (s, ..) = fig1();
        let text = s.to_string();
        assert!(text.contains("CLASS n1:C5 SUBCLASSOF n1:C1"));
        assert!(text.contains("PROPERTY n1:prop1(n1:C1 -> n1:C2)"));
        assert!(text.contains("SUBPROPERTYOF n1:prop1"));
    }
}
