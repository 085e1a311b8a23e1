//! Query/view subsumption for SQPeer routing (the SWIM \[9\] stand-in).
//!
//! The routing algorithm of the paper (§2.3) hinges on one test —
//! `isSubsumed(ASjk, AQi)` — between an active-schema path pattern and a
//! query path pattern, plus the ability to "rewrite accordingly the query
//! sent to a peer". This crate provides:
//!
//! * [`match_pattern`]: classifies the relationship between an advertised
//!   `ActiveProperty` and a query `PathPattern` (equivalent /
//!   specialises / generalises / overlaps),
//! * [`rewrite_for`]: specialises a query path pattern to the fragment a
//!   peer can answer (e.g. the `prop1` pattern of Figure 2 is rewritten to
//!   `prop4` before being sent to P4),
//! * [`fn@contains`]: sound-and-complete conjunctive containment between
//!   whole query patterns via containment mappings with RDF/S subsumption,
//!   used for view equivalence checks and property-based testing.

pub mod articulation;
pub mod contains;
pub mod pattern_match;

pub use articulation::{Articulation, ArticulationBuilder, ArticulationError};
pub use contains::{contains, equivalent};
pub use pattern_match::{match_pattern, rewrite_for, PatternMatch};
