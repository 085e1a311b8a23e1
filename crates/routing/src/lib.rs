//! Semantic query routing (paper §2.3) and routing baselines.
//!
//! The heart of SQPeer: given a query pattern and a set of peer-base
//! advertisements (active-schemas), the [`router::route`] function runs the
//! paper's Query-Routing Algorithm — for every query path pattern, every
//! advertisement, and every advertised arc, test `isSubsumed` and annotate
//! — producing an [`AnnotatedQuery`] ("semantic query patterns annotated
//! with routing information").
//!
//! Two baselines make the paper's qualitative claims measurable:
//!
//! * [`flooding`]: Gnutella-style TTL broadcast over a physical topology
//!   (what SONs are claimed to avoid),
//! * [`path_index`]: a mediator-held index of property paths per peer in
//!   the style of Stuckenschmidt et al. \[27\], whose maintenance cost under
//!   churn §4 compares unfavourably to active-schema advertisements.

pub mod annotated;
pub mod flooding;
pub mod limits;
pub mod path_index;
pub mod router;

pub use annotated::{AnnotatedQuery, PeerAnnotation};
pub use flooding::{flood, FloodOutcome, Topology};
pub use limits::{apply_limits, route_limited, route_limited_traced, RoutingLimits};
pub use path_index::{PathIndex, TripleIndexCost};
pub use router::{
    pattern_matches, route, route_traced, same_schema, AdRegistry, Advertisement, PatternCandidate,
    RoutingPolicy,
};

use std::fmt;

/// Identifier of a peer in the P2P system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerId(pub u32);

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}
