//! # SQPeer — semantic query routing and processing for P2P RDF/S bases
//!
//! A reproduction of the ICS-FORTH **SQPeer** middleware (Kokkinidis &
//! Christophides, EDBT 2004): RQL queries and RVL views over peer RDF/S
//! description bases organised into Semantic Overlay Networks, with
//! subsumption-based query routing, distributed plan generation and
//! optimisation, ubQL-style channels, and both hybrid (super-peer) and
//! ad-hoc architectures.
//!
//! This crate is the facade: it re-exports every subsystem under a stable
//! module path and adds the [`LocalPeer`] convenience for single-process
//! use.
//!
//! ## Quickstart
//!
//! ```
//! use sqpeer::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. A community RDF/S schema (Figure 1 of the paper).
//! let mut b = SchemaBuilder::new("n1", "http://example.org/n1#");
//! let c1 = b.class("C1")?;
//! let c2 = b.class("C2")?;
//! let c3 = b.class("C3")?;
//! let prop1 = b.property("prop1", c1, Range::Class(c2))?;
//! let prop2 = b.property("prop2", c2, Range::Class(c3))?;
//! let schema = Arc::new(b.finish()?);
//!
//! // 2. A peer base conforming to it.
//! let mut peer = LocalPeer::new(Arc::clone(&schema));
//! peer.insert("http://a", prop1, "http://b");
//! peer.insert("http://b", prop2, "http://c");
//!
//! // 3. An RQL query, compiled to a semantic query pattern and evaluated.
//! let answer = peer.query("SELECT X, Z FROM {X}prop1{Y}, {Y}prop2{Z}")?;
//! assert_eq!(answer.len(), 1);
//!
//! // 4. The advertisement other peers would route on.
//! let ad = peer.advertisement();
//! assert!(ad.active.has_property(prop1));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! For multi-peer (simulated network) use, see
//! [`overlay::HybridNetwork`] and [`overlay::AdhocNetwork`].

pub use sqpeer_cache as cache;
pub use sqpeer_dht as dht;
pub use sqpeer_exec as exec;
pub use sqpeer_net as net;
pub use sqpeer_overlay as overlay;
pub use sqpeer_plan as plan;
pub use sqpeer_rdfs as rdfs;
pub use sqpeer_routing as routing;
pub use sqpeer_rql as rql;
pub use sqpeer_rvl as rvl;
pub use sqpeer_store as store;
pub use sqpeer_subsume as subsume;
pub use sqpeer_trace as trace;

/// The most common imports in one place.
pub mod prelude {
    pub use sqpeer_exec::{PeerConfig, PeerMode, PeerNode, QueryId};
    pub use sqpeer_net::{LinkSpec, NodeId, Simulator, TelemetryRegistry};
    pub use sqpeer_overlay::{AdhocBuilder, AdhocNetwork, HybridBuilder, HybridNetwork};
    pub use sqpeer_plan::{generate_plan, optimize, Explain, PlanNode, Site};
    pub use sqpeer_rdfs::{
        ClassId, Literal, LiteralType, Node, PropertyId, Range, Resource, Schema, SchemaBuilder,
        Triple, Typing,
    };
    pub use sqpeer_routing::{route, AdRegistry, Advertisement, PeerId, RoutingPolicy};
    pub use sqpeer_rql::{compile, evaluate, evaluate_reference, QueryPattern, ResultSet};
    pub use sqpeer_rvl::{ActiveSchema, ViewDefinition, VirtualBase};
    pub use sqpeer_store::DescriptionBase;
    pub use sqpeer_trace::{
        spans_well_nested, stitched_well_nested, QueryProfile, TraceEvent, Tracer,
    };

    pub use crate::LocalPeer;
}

use rdfs::{Node, PropertyId, Resource, Schema, Triple};
use routing::{Advertisement, PeerId};
use rql::{QueryPattern, ResultSet, RqlError};
use rvl::{ActiveSchema, RvlError, ViewDefinition};
use std::sync::Arc;

/// A single-process peer: a description base plus the compile/evaluate/
/// advertise operations, without any network.
///
/// Useful for embedding the RQL/RVL engine directly, for building test
/// fixtures, and as the "simple-peer brain" the distributed engine wraps.
pub struct LocalPeer {
    id: PeerId,
    schema: Arc<Schema>,
    base: store::DescriptionBase,
}

impl LocalPeer {
    /// A fresh peer (id 0) over `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        LocalPeer::with_id(PeerId(0), schema)
    }

    /// A fresh peer with an explicit id.
    pub fn with_id(id: PeerId, schema: Arc<Schema>) -> Self {
        LocalPeer {
            id,
            base: store::DescriptionBase::new(Arc::clone(&schema)),
            schema,
        }
    }

    /// The community schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The underlying description base.
    pub fn base(&self) -> &store::DescriptionBase {
        &self.base
    }

    /// Inserts a resource-valued triple with RDF/S type inference.
    pub fn insert(&mut self, subject: &str, property: PropertyId, object: &str) -> bool {
        self.base.insert_described(Triple::new(
            Resource::new(subject),
            property,
            Node::Resource(Resource::new(object)),
        ))
    }

    /// Inserts a literal-valued triple with RDF/S type inference.
    pub fn insert_literal(
        &mut self,
        subject: &str,
        property: PropertyId,
        literal: rdfs::Literal,
    ) -> bool {
        self.base
            .insert_described(Triple::new(Resource::new(subject), property, literal))
    }

    /// Compiles an RQL text against the community schema.
    pub fn compile(&self, rql_text: &str) -> Result<QueryPattern, RqlError> {
        rql::compile(rql_text, &self.schema)
    }

    /// Compiles and evaluates an RQL query over this peer's base.
    pub fn query(&self, rql_text: &str) -> Result<ResultSet, RqlError> {
        Ok(rql::evaluate(&self.compile(rql_text)?, &self.base))
    }

    /// Applies an RVL view program: materializes its population from this
    /// peer's base back into it. Returns the number of new facts.
    pub fn apply_view(&mut self, rvl_text: &str) -> Result<usize, RvlError> {
        let view = ViewDefinition::parse(rvl_text, &self.schema)?;
        let source = self.base.clone();
        Ok(view.materialize(&source, &mut self.base))
    }

    /// The active-schema induced by the current base population.
    pub fn active_schema(&self) -> ActiveSchema {
        ActiveSchema::of_base(&self.base)
    }

    /// The advertisement (active-schema + statistics) this peer would push
    /// to its super-peer or neighbours.
    pub fn advertisement(&self) -> Advertisement {
        Advertisement::new(self.id, self.active_schema()).with_stats(self.base.statistics())
    }

    /// Serialises the base to the line-oriented text format (see
    /// [`store::text`]).
    pub fn dump(&self) -> String {
        store::dump(&self.base)
    }

    /// Loads facts from the text format into this peer's base (additive).
    pub fn load_text(&mut self, text: &str) -> Result<(), store::TextError> {
        let loaded = store::load(&self.schema, text)?;
        self.base.absorb(&loaded);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfs::{Range, SchemaBuilder};

    fn schema() -> Arc<Schema> {
        let mut b = SchemaBuilder::new("n1", "http://example.org/n1#");
        let c1 = b.class("C1").unwrap();
        let c2 = b.class("C2").unwrap();
        let c3 = b.class("C3").unwrap();
        let _ = b.property("prop1", c1, Range::Class(c2)).unwrap();
        let _ = b.property("prop2", c2, Range::Class(c3)).unwrap();
        let _ = b
            .property("age", c1, Range::Literal(rdfs::LiteralType::Integer))
            .unwrap();
        let _ = b
            .property("title", c1, Range::Literal(rdfs::LiteralType::String))
            .unwrap();
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn local_peer_round_trip() {
        let schema = schema();
        let p1 = schema.property_by_name("prop1").unwrap();
        let p2 = schema.property_by_name("prop2").unwrap();
        let mut peer = LocalPeer::new(Arc::clone(&schema));
        assert!(peer.insert("http://a", p1, "http://b"));
        assert!(!peer.insert("http://a", p1, "http://b"));
        peer.insert("http://b", p2, "http://c");
        peer.insert_literal(
            "http://a",
            schema.property_by_name("age").unwrap(),
            rdfs::Literal::Integer(30),
        );

        let rs = peer
            .query("SELECT X, Z FROM {X}prop1{Y}, {Y}prop2{Z}")
            .unwrap();
        assert_eq!(rs.len(), 1);
        let rs = peer.query("SELECT X FROM {X}age{A} WHERE A > 18").unwrap();
        assert_eq!(rs.len(), 1);
        assert!(peer.query("SELECT X FROM {X}nope{Y}").is_err());

        let ad = peer.advertisement();
        assert!(ad.active.has_property(p1));
        assert!(ad.stats.is_some());
    }

    #[test]
    fn dump_load_round_trip() {
        let schema = schema();
        let p1 = schema.property_by_name("prop1").unwrap();
        let mut peer = LocalPeer::new(Arc::clone(&schema));
        peer.insert("http://a", p1, "http://b");
        peer.insert_literal(
            "http://a",
            schema.property_by_name("age").unwrap(),
            rdfs::Literal::Integer(30),
        );
        let text = peer.dump();
        let mut clone = LocalPeer::new(Arc::clone(&schema));
        clone.load_text(&text).unwrap();
        assert_eq!(clone.dump(), text);
        assert!(clone.load_text("garbage").is_err());
    }

    #[test]
    fn dump_load_round_trips_escaped_strings() {
        let schema = schema();
        let title = schema.property_by_name("title").unwrap();
        let mut peer = LocalPeer::new(Arc::clone(&schema));
        let tricky = [
            "two\nlines",
            "tab\there",
            "\u{e9}\u{7}bell\r\0",
            "'q' \"dq\" \\",
        ];
        for (i, t) in tricky.iter().enumerate() {
            peer.insert_literal(&format!("http://s{i}"), title, rdfs::Literal::string(*t));
        }
        let mut clone = LocalPeer::new(Arc::clone(&schema));
        clone.load_text(&peer.dump()).unwrap();
        let loaded: Vec<_> = clone
            .base()
            .triples_direct(title)
            .map(|(_, o)| o.clone())
            .collect();
        let expected: Vec<_> = tricky
            .iter()
            .map(|t| Node::Literal(rdfs::Literal::string(*t)))
            .collect();
        assert_eq!(loaded, expected);
        assert!(clone
            .load_text("<http://s> n1:title \"bad \\q\" .")
            .is_err());
    }

    #[test]
    fn apply_view_materializes() {
        let schema = schema();
        let p1 = schema.property_by_name("prop1").unwrap();
        let mut peer = LocalPeer::new(Arc::clone(&schema));
        peer.insert("http://a", p1, "http://b");
        // A view re-populating C1 from prop1 subjects adds no *new* facts
        // (typing already inferred), so add a fresh target class scenario:
        let added = peer
            .apply_view("VIEW n1:C1(X) FROM {X}n1:prop1{Y}")
            .unwrap();
        assert_eq!(added, 0, "C1 typing already inferred on insert");
    }
}
