//! A deterministic discrete-event P2P network simulator.
//!
//! The paper evaluates SQPeer's behaviour — message counts, bytes shipped,
//! channel deployments, reaction to failures — over a wide-area P2P
//! network. This crate provides the substrate those experiments run on:
//!
//! * a single-threaded event loop ordered by `(virtual time, sequence)`,
//!   so every run is bit-reproducible,
//! * per-link latency and bandwidth ([`LinkSpec`]); message transfer time
//!   is `latency + bytes / bandwidth`,
//! * node and link **failure injection** plus sender-side delivery-failure
//!   notifications (how channel roots learn that a destination vanished),
//! * a seeded, replayable **chaos layer** ([`fault::FaultPlan`]): silent
//!   message loss, duplication, latency jitter and ungraceful
//!   crash/restart churn, none of which produce failure notifications,
//! * per-node and global [`Metrics`] (messages, bytes, virtual completion
//!   time),
//! * the ubQL-style [`channel`] construct (§2.4): root/destination pairs
//!   with root-managed local ids, data packets flowing dest → root, and
//!   failure/change-plan control packets.
//!
//! The simulator is generic over the node behaviour ([`NodeLogic`]) and
//! message type, so `sqpeer-overlay` can plug in super-peer/simple-peer
//! state machines without this crate knowing anything about RDF.

pub mod channel;
pub mod fault;
pub mod metrics;
pub mod obs;
pub mod sim;
pub mod telemetry;
pub mod transport;

pub use channel::{Channel, ChannelId, ChannelState, ChannelTable};
pub use fault::{ChurnEvent, FaultPlan, SplitMix64};
pub use metrics::{Counters, Metrics, NodeMetrics};
pub use obs::{PatternEntry, PatternStats};
pub use sim::{Ctx, Effects, LinkSpec, NodeId, NodeLogic, Simulator};
pub use telemetry::{Histogram, LinkTelemetry, TelemetryRegistry, DEFAULT_WINDOW_US};
pub use transport::{Clock, Transport};
