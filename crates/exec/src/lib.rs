//! The SQPeer distributed execution engine (paper §2.4–§2.5, §3).
//!
//! This crate implements the peer state machine that runs inside the
//! network simulator. It is cut along the line the paper draws between
//! what a peer *knows about its SON* (§2.2 advertisements, §3.1
//! registries and the backbone, §3.2 pulled neighbourhoods) and how it
//! *runs a query* (§2.4 channels, §2.5 adaptation):
//!
//! * [`son::Directory`] owns the knowledge plane — the advertisement
//!   registry and its leases, tombstones, cluster summaries, backbone
//!   relays and tree-descent routing gathers — and is unit-tested
//!   without a network;
//! * [`PeerNode`] ([`peer`]) holds one directory and is the query plane,
//!   carrying out four crate-private machines unit-tested without a
//!   network — `root::Roots` (a query's life at its root and the one
//!   run-time adaptation decision), `dispatch::Dispatcher` (what it shipped
//!   and still waits on, each step a typed `Event`, [`obs`]),
//!   `frame::Frames` (the plan interpreter's slot table) and
//!   `serve::Server` (a channel's destination end: served log, outgoing
//!   streams); [`stream`] is the sans-IO seq/credit machine of one channel.
//!
//! The [`PeerNode`] plugs into [`sqpeer_net::Simulator`] and implements,
//! per peer role,
//!
//! * query intake from client-peers,
//! * routing — locally (ad-hoc mode, over the peer's pulled neighbourhood
//!   advertisements) or delegated to a super-peer (hybrid mode),
//! * plan generation and (optional) optimisation,
//! * plan execution over ubQL channels: remote fetches and shipped join
//!   subplans, streaming `Data` packets dest → root, union/join assembly,
//! * **interleaved routing and processing** for partial plans with holes
//!   (§3.2, Figure 7): a peer receiving a plan it cannot complete fills
//!   what it can from local knowledge and forwards the rest,
//! * **run-time adaptation** (§2.5): on channel failure the root discards
//!   intermediate results (the ubQL approach), excludes the obsolete peer
//!   and re-runs routing + processing.

mod dispatch;
mod frame;
pub mod local;
pub mod msg;
pub mod obs;
pub mod peer;
mod root;
mod serve;
pub mod son;
pub mod stream;

pub use local::eval_local;
pub use msg::{HierScope, Msg, PeerChannel, QueryId, QueryOutcome, TraceCtx};
pub(crate) use obs::{Event, Subject};
pub use obs::{FlightRing, ObsConfig, ObsState, Rollup, SlowQuery};
pub use peer::{BaseKind, PeerConfig, PeerMode, PeerNode, Role};
pub use son::{ClusterInfo, Directory};
pub use sqpeer_cache::{CacheConfig, CacheStats};
pub use sqpeer_plan::Explain;
pub use sqpeer_trace::{spans_well_nested, stitched_well_nested, QueryProfile, TraceEvent, Tracer};

/// Maps a routing-level [`PeerId`](sqpeer_routing::PeerId) onto its
/// simulator node (the two id spaces coincide by construction).
pub fn node_of(peer: sqpeer_routing::PeerId) -> sqpeer_net::NodeId {
    sqpeer_net::NodeId(peer.0)
}

/// Hands `msg` to `transport` as if `from` had sent it to `to`, charged
/// at its own wire size — how drivers (overlay builders, the daemon's
/// group, tests) put advertisements and client queries on the wire.
pub fn inject<T: sqpeer_net::Transport<PeerNode>>(
    transport: &mut T,
    from: sqpeer_routing::PeerId,
    to: sqpeer_routing::PeerId,
    msg: Msg,
) {
    let bytes = msg.wire_size();
    transport.inject(node_of(from), node_of(to), msg, bytes);
}

/// Sends `msg` to `to`, charged at its own wire size (returned, for
/// callers that account the bytes).
pub(crate) fn send(ctx: &mut sqpeer_net::Ctx<Msg>, to: sqpeer_routing::PeerId, msg: Msg) -> usize {
    let bytes = msg.wire_size();
    ctx.send(node_of(to), msg, bytes);
    bytes
}

/// Maps a simulator node id back to the routing-level peer id.
pub fn peer_of(node: sqpeer_net::NodeId) -> sqpeer_routing::PeerId {
    sqpeer_routing::PeerId(node.0)
}
