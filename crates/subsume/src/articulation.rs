//! Articulations: class/property mappings between community schemas.
//!
//! §3.1: "A multi-layered hierarchical organization of the super-peers
//! network can be employed by using appropriate articulations (aka
//! mappings) of the classes and properties defined in each super-peer
//! RDF/S schema" — and "super-peers may handle the role of a mediator in
//! a scenario where a query expressed in terms of a global-known schema
//! needs to be reformulated in terms of the schemas employed by the local
//! bases of the simple-peers by using appropriate mapping rules".
//!
//! An [`Articulation`] maps classes and properties of a *source* schema
//! onto a *target* schema; [`Articulation::reformulate`] rewrites a whole
//! query pattern, preserving variables (and therefore answer columns) so
//! results flow back unchanged.

use sqpeer_rdfs::{ClassId, PropertyId, Range, Schema};
use sqpeer_rql::{Endpoint, PathPattern, QueryPattern};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Errors raised while building an articulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArticulationError {
    /// The mapped property's end-point classes are not mapped
    /// consistently (domain/range of the image must subsume the images of
    /// the pre-image's domain/range).
    IncoherentProperty {
        /// The source property.
        source: String,
        /// Its claimed target.
        target: String,
    },
}

impl fmt::Display for ArticulationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArticulationError::IncoherentProperty { source, target } => write!(
                f,
                "mapping `{source}` → `{target}` is incoherent with the class mappings"
            ),
        }
    }
}

impl std::error::Error for ArticulationError {}

/// A set of mapping rules from a source schema onto a target schema.
#[derive(Debug, Clone)]
pub struct Articulation {
    source: Arc<Schema>,
    target: Arc<Schema>,
    classes: HashMap<ClassId, ClassId>,
    properties: HashMap<PropertyId, PropertyId>,
}

/// Incremental construction with coherence validation.
#[derive(Debug, Clone)]
pub struct ArticulationBuilder {
    articulation: Articulation,
}

impl ArticulationBuilder {
    /// Starts an articulation from `source` onto `target`.
    pub fn new(source: Arc<Schema>, target: Arc<Schema>) -> Self {
        ArticulationBuilder {
            articulation: Articulation {
                source,
                target,
                classes: HashMap::new(),
                properties: HashMap::new(),
            },
        }
    }

    /// Maps a source class onto a target class.
    pub fn map_class(mut self, from: ClassId, to: ClassId) -> Self {
        self.articulation.classes.insert(from, to);
        self
    }

    /// Maps a source property onto a target property.
    pub fn map_property(mut self, from: PropertyId, to: PropertyId) -> Self {
        self.articulation.properties.insert(from, to);
        self
    }

    /// Validates coherence: for every mapped property, the target
    /// property's domain/range must subsume the images of the source's
    /// domain/range (so reformulated patterns stay satisfiable).
    pub fn finish(self) -> Result<Articulation, ArticulationError> {
        let a = &self.articulation;
        for (&from, &to) in &a.properties {
            let sdef = a.source.property(from);
            let tdef = a.target.property(to);
            let dom_ok = match a.classes.get(&sdef.domain) {
                Some(&mapped) => a.target.classes_overlap(mapped, tdef.domain),
                None => true, // unmapped domain falls back to the target's
            };
            let range_ok = match (sdef.range, tdef.range) {
                (Range::Class(sc), Range::Class(tc)) => match a.classes.get(&sc) {
                    Some(&mapped) => a.target.classes_overlap(mapped, tc),
                    None => true,
                },
                (Range::Literal(x), Range::Literal(y)) => x == y,
                _ => false,
            };
            if !dom_ok || !range_ok {
                return Err(ArticulationError::IncoherentProperty {
                    source: a.source.property_qname(from),
                    target: a.target.property_qname(to),
                });
            }
        }
        Ok(self.articulation)
    }
}

impl Articulation {
    /// Starts a builder.
    pub fn builder(source: Arc<Schema>, target: Arc<Schema>) -> ArticulationBuilder {
        ArticulationBuilder::new(source, target)
    }

    /// The source schema.
    pub fn source(&self) -> &Arc<Schema> {
        &self.source
    }

    /// The target schema.
    pub fn target(&self) -> &Arc<Schema> {
        &self.target
    }

    /// The image of a source class, if mapped.
    pub fn class_image(&self, c: ClassId) -> Option<ClassId> {
        self.classes.get(&c).copied()
    }

    /// The image of a source property, if mapped.
    pub fn property_image(&self, p: PropertyId) -> Option<PropertyId> {
        self.properties.get(&p).copied()
    }

    /// Reformulates a query pattern from the source schema into the
    /// target schema. Returns `None` when some property has no image (the
    /// query cannot be mediated). Variables, projections and filters are
    /// preserved, so answer columns are identical.
    pub fn reformulate(&self, query: &QueryPattern) -> Option<QueryPattern> {
        let mut patterns = Vec::with_capacity(query.patterns().len());
        for p in query.patterns() {
            let property = self.property_image(p.property)?;
            let tdef = self.target.property(property);
            let map_endpoint = |e: &Endpoint, declared: Option<ClassId>| -> Endpoint {
                let class = e.class.and_then(|c| self.class_image(c)).or(declared);
                Endpoint {
                    term: e.term.clone(),
                    class,
                }
            };
            let declared_range = match tdef.range {
                Range::Class(c) => Some(c),
                Range::Literal(_) => None,
            };
            patterns.push(PathPattern {
                subject: map_endpoint(&p.subject, Some(tdef.domain)),
                property,
                object: map_endpoint(&p.object, declared_range),
            });
        }
        Some(QueryPattern::from_parts(
            Arc::clone(&self.target),
            query.var_names().to_vec(),
            patterns,
            query.projection().to_vec(),
            query.filters().to_vec(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqpeer_rdfs::SchemaBuilder;
    use sqpeer_rql::compile;

    /// Source: a "global" bibliographic schema.
    fn global() -> Arc<Schema> {
        let mut b = SchemaBuilder::new("g", "http://global#");
        let doc = b.class("Document").unwrap();
        let person = b.class("Person").unwrap();
        let _ = b.property("author", doc, Range::Class(person)).unwrap();
        let _ = b.property("cites", doc, Range::Class(doc)).unwrap();
        Arc::new(b.finish().unwrap())
    }

    /// Target: a local library schema.
    fn local() -> Arc<Schema> {
        let mut b = SchemaBuilder::new("l", "http://local#");
        let book = b.class("Book").unwrap();
        let writer = b.class("Writer").unwrap();
        let _ = b.property("writtenBy", book, Range::Class(writer)).unwrap();
        let _ = b.property("references", book, Range::Class(book)).unwrap();
        Arc::new(b.finish().unwrap())
    }

    fn articulation() -> Articulation {
        let g = global();
        let l = local();
        Articulation::builder(Arc::clone(&g), Arc::clone(&l))
            .map_class(
                g.class_by_name("Document").unwrap(),
                l.class_by_name("Book").unwrap(),
            )
            .map_class(
                g.class_by_name("Person").unwrap(),
                l.class_by_name("Writer").unwrap(),
            )
            .map_property(
                g.property_by_name("author").unwrap(),
                l.property_by_name("writtenBy").unwrap(),
            )
            .map_property(
                g.property_by_name("cites").unwrap(),
                l.property_by_name("references").unwrap(),
            )
            .finish()
            .unwrap()
    }

    #[test]
    fn reformulates_preserving_variables() {
        let g = global();
        let a = articulation();
        let q = compile("SELECT D, P FROM {D}g:author{P}, {D}g:cites{E}", &g).unwrap();
        let r = a.reformulate(&q).expect("fully mapped");
        assert_eq!(r.patterns().len(), 2);
        let l = local();
        assert_eq!(
            r.patterns()[0].property,
            l.property_by_name("writtenBy").unwrap()
        );
        assert_eq!(
            r.patterns()[1].property,
            l.property_by_name("references").unwrap()
        );
        // Same variable names → same answer columns.
        assert_eq!(r.var_names(), q.var_names());
        assert_eq!(r.projection(), q.projection());
        assert_eq!(
            r.to_string(),
            "SELECT D, P FROM {D;l:Book}l:writtenBy{P;l:Writer}, {D;l:Book}l:references{E;l:Book}"
        );
    }

    #[test]
    fn unmapped_property_blocks_mediation() {
        let g = global();
        let l = local();
        let partial = Articulation::builder(Arc::clone(&g), Arc::clone(&l))
            .map_property(
                g.property_by_name("author").unwrap(),
                l.property_by_name("writtenBy").unwrap(),
            )
            .finish()
            .unwrap();
        let q = compile("SELECT D FROM {D}g:cites{E}", &g).unwrap();
        assert!(partial.reformulate(&q).is_none());
    }

    #[test]
    fn incoherent_mapping_rejected() {
        let g = global();
        let l = local();
        // Map author → references: range Person ↦ Writer but references'
        // range is Book — incoherent with the class mapping.
        let err = Articulation::builder(Arc::clone(&g), Arc::clone(&l))
            .map_class(
                g.class_by_name("Person").unwrap(),
                l.class_by_name("Writer").unwrap(),
            )
            .map_property(
                g.property_by_name("author").unwrap(),
                l.property_by_name("references").unwrap(),
            )
            .finish()
            .unwrap_err();
        assert!(matches!(err, ArticulationError::IncoherentProperty { .. }));
    }

    #[test]
    fn reformulated_query_evaluates_over_target_data() {
        use sqpeer_rdfs::{Resource, Triple};
        use sqpeer_rql::evaluate;
        use sqpeer_store::DescriptionBase;
        let g = global();
        let l = local();
        let a = articulation();
        let mut base = DescriptionBase::new(Arc::clone(&l));
        base.insert_described(Triple::new(
            Resource::new("http://lib/moby-dick"),
            l.property_by_name("writtenBy").unwrap(),
            Resource::new("http://lib/melville"),
        ));
        let q = compile("SELECT D, P FROM {D}g:author{P}", &g).unwrap();
        let r = a.reformulate(&q).unwrap();
        let rs = evaluate(&r, &base);
        assert_eq!(rs.len(), 1);
        assert_eq!(*rs.columns, ["D", "P"]);
    }
}
