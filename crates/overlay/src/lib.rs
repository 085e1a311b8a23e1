//! Semantic Overlay Network architectures (paper §3).
//!
//! This crate assembles running P2P systems out of
//! [`PeerNode`]s on the
//! [`Simulator`]:
//!
//! * [`HybridNetwork`] — the super-peer architecture of §3.1:
//!   simple-peers *push* their active-schemas to their super-peer on join,
//!   super-peers form a fully-connected backbone and do all routing,
//! * [`AdhocNetwork`] — the self-adaptive architecture of §3.2:
//!   peers *pull* active-schemas from their k-hop physical neighbourhood,
//!   route locally and interleave routing with processing when plans have
//!   holes.
//!
//! Both expose the same driver API: inject client queries, run the
//! simulation to quiescence, inspect outcomes and metrics, and inject
//! churn (joins, leaves, failures). A centralised [`oracle`] store gives
//! the ground-truth answer every distributed result is checked against.

pub mod adhoc;
pub mod hier;
pub mod hybrid;
pub mod oracle;

pub use adhoc::{AdhocBuilder, AdhocNetwork};
pub use hier::HierBuilder;
pub use hybrid::{HybridBuilder, HybridNetwork};
pub use oracle::{oracle_answer, oracle_base};
