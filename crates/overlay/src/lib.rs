//! Semantic Overlay Network architectures (paper §3).
//!
//! This crate assembles running P2P systems out of
//! [`PeerNode`](sqpeer_exec::PeerNode)s on the
//! [`Simulator`](sqpeer_net::Simulator). Three builders spawn the nodes
//! and run the join protocol of their architecture:
//!
//! * [`HybridBuilder`] — the super-peer architecture of §3.1:
//!   simple-peers *push* their active-schemas to their super-peer on join,
//!   super-peers form a fully-connected backbone and do all routing,
//! * [`HierBuilder`] — the same with the backbone nested into clusters
//!   that exchange merged summaries,
//! * [`AdhocBuilder`] — the self-adaptive architecture of §3.2:
//!   peers *pull* active-schemas from their k-hop physical neighbourhood,
//!   route locally and interleave routing with processing when plans have
//!   holes.
//!
//! All three build the one driver, [`Network`] ([`HybridNetwork`] and
//! [`AdhocNetwork`] are names for it): inject client queries, run the
//! simulation — to quiescence, or by bounded windows when leases or the
//! observability plane keep timers armed for ever — inspect outcomes and
//! metrics, and inject churn (joins, leaves, failures). Only the physical
//! topology and discovery over it are ad-hoc-only (declared in
//! [`adhoc`]). A centralised [`oracle`] store gives the ground-truth
//! answer every distributed result is checked against.

pub mod adhoc;
pub mod hier;
pub mod hybrid;
pub mod network;
pub mod oracle;

pub use adhoc::{AdhocBuilder, AdhocNetwork};
pub use hier::HierBuilder;
pub use hybrid::{HybridBuilder, HybridNetwork};
pub use network::Network;
pub use oracle::{oracle_answer, oracle_base};
