//! The message vocabulary peers exchange, with wire-size estimation.

use sqpeer_net::Channel;
use sqpeer_plan::PlanNode;
use sqpeer_routing::{Advertisement, AnnotatedQuery, PeerId};
use sqpeer_rql::{QueryPattern, ResultSet};

/// The channel bookkeeping type as it travels between peers: endpoints
/// are the transport-agnostic routing-level [`PeerId`]s, *not* simulator
/// node indices — the same message bytes are valid under the virtual-time
/// simulator and the real-clock transports of `sqpeer-daemon`.
pub type PeerChannel = Channel<PeerId>;

/// Globally unique query identifier (assigned at injection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// The outcome of a query recorded at its root peer.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The final (projected) answer.
    pub result: ResultSet,
    /// Virtual time (µs) at which the answer was completed.
    pub completed_at_us: u64,
    /// Virtual time the query took from intake to answer.
    pub latency_us: u64,
    /// Time-to-first-row: µs from intake until the first answer rows
    /// reached the root (a streamed batch or a complete result packet).
    /// `None` when the answer is empty — no row ever arrived.
    pub ttfr_us: Option<u64>,
    /// Number of re-planning rounds run-time adaptation performed.
    pub replans: u32,
    /// Whether the answer may be partial (execution gave up on a subplan).
    pub partial: bool,
    /// Completeness accounting: peers whose contributions are (or may be)
    /// missing from a partial answer — everyone this root excluded,
    /// abandoned after retries, or learned had departed. Sorted; empty
    /// for answers the root believes complete.
    pub missing: Vec<sqpeer_routing::PeerId>,
}

/// Compact cross-peer trace context piggybacked on subplan envelopes
/// when the dispatching root traces (the query id travels in the message
/// itself). Remote peers use it to record serve spans that stitch into
/// the root's trace: `origin` names the trace owner and
/// `parent_start_us` is the open time of the dispatching span — the
/// causal lower bound `sqpeer_trace::stitched_well_nested` validates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// The root peer whose trace owns the stitched tree.
    pub origin: sqpeer_routing::PeerId,
    /// Virtual µs at which the dispatching (parent) span opened at the
    /// origin.
    pub parent_start_us: u64,
}

/// Messages exchanged between peers (and injected by client-peers).
#[derive(Debug, Clone)]
pub enum Msg {
    /// Push an advertisement (peer → super-peer, or peer → neighbour).
    Advertise(Advertisement),
    /// Pull request: "send me the advertisements of your ≤`depth`-hop
    /// neighbourhood" (§3.2).
    RequestAds {
        /// Remaining propagation depth.
        depth: u32,
    },
    /// Response to [`Msg::RequestAds`].
    AdsResponse(Vec<Advertisement>),
    /// A peer leaves gracefully; recipients drop its advertisement.
    Withdraw,
    /// Backbone replication of a withdrawal: drop the named peer's
    /// advertisement.
    WithdrawPeer(sqpeer_routing::PeerId),
    /// Lease renewal: "my advertisement is still alive" (peer →
    /// super-peer, or peer → neighbour in ad-hoc mode).
    Heartbeat,
    /// Backbone replication of a member heartbeat, so remote super-peers
    /// renew the replicated advertisement's lease too.
    HeartbeatPeer(sqpeer_routing::PeerId),
    /// Backbone replication of a lease expiry: the named peer's
    /// advertisement expired unrenewed; purge it from routing and keep
    /// the advertisement as a tombstone for completeness accounting.
    ExpirePeer(Advertisement),

    /// Hybrid mode: ask a super-peer to route `query` (§3.1).
    RouteRequest {
        /// The query being routed.
        qid: QueryId,
        /// The query pattern.
        query: QueryPattern,
        /// Hops left on the super-peer backbone before giving up.
        backbone_ttl: u32,
        /// Annotations accumulated by earlier super-peers on the backbone;
        /// each hop merges its local knowledge until the pattern is
        /// complete or the TTL runs out.
        partial: Option<AnnotatedQuery>,
    },
    /// The super-peer's annotated pattern, sent back to the requester.
    RouteResponse {
        /// The query being routed.
        qid: QueryId,
        /// The annotated query pattern (may contain holes).
        annotated: AnnotatedQuery,
        /// Departed peers whose (expired) active-schemas matched the
        /// query: contributors the answer is known to be missing.
        missing: Vec<sqpeer_routing::PeerId>,
    },

    /// Ship a (sub)plan through a channel for remote execution. The
    /// destination may fill holes (interleaved routing/processing) before
    /// executing.
    Subplan {
        /// The channel this subplan belongs to (root manages it).
        channel: PeerChannel,
        /// The query it serves.
        qid: QueryId,
        /// Echoed verbatim in the `Data` reply so the root can slot the
        /// result into the right frame.
        tag: u64,
        /// The plan fragment to execute.
        plan: PlanNode,
        /// Peers that already saw this (partial) plan — loop guard for
        /// hole-filling forwards.
        visited: Vec<sqpeer_routing::PeerId>,
        /// At-least-once dispatch attempt (0 = first send). The
        /// destination deduplicates by `(root, qid, tag, attempt)` so
        /// network duplicates are served once while genuine retries
        /// re-evaluate.
        attempt: u32,
        /// Cross-peer trace propagation: present iff the dispatching
        /// root traces, so untraced runs stay byte-identical on the
        /// wire.
        trace: Option<TraceCtx>,
    },
    /// A data packet streaming a subplan result dest → root (§2.4).
    Data {
        /// The channel it flows on.
        channel: PeerChannel,
        /// The query it serves.
        qid: QueryId,
        /// Echo of the request tag.
        tag: u64,
        /// The subplan's result rows.
        result: ResultSet,
        /// Whether the result may be incomplete (a downstream subplan
        /// failed or a hole went unfilled).
        partial: bool,
        /// Fresh base statistics piggybacked by the answering peer —
        /// "these packets can also contain … statistics useful for query
        /// optimization" (§2.4). The root folds them into its registry.
        stats: Option<sqpeer_store::BaseStatistics>,
        /// Batch sequence number (0-based) when the result streams in
        /// several packets; single-packet results use `(0, true)`.
        seq: u32,
        /// Whether this is the final packet of the result stream.
        last: bool,
    },
    /// Failure control packet: the destination could not complete the
    /// subplan (no peer found for a hole, downstream failure, …).
    SubplanFailed {
        /// The channel it flows on.
        channel: PeerChannel,
        /// The query it serves.
        qid: QueryId,
        /// Echo of the request tag.
        tag: u64,
    },
    /// Flow-control packet root → dest: grant the sender permission to
    /// put `credits` more data packets of the tagged stream in flight.
    /// The receiver issues one credit per data packet it consumes while
    /// the stream is incomplete — duplicates included, so a retrying
    /// sender that resends already-drained sequence numbers still makes
    /// progress; the sender-side window keeps in-flight packets bounded
    /// at the configured size — backpressure for many concurrent streams
    /// sharing a link.
    Credit {
        /// The channel the stream flows on.
        channel: PeerChannel,
        /// The query it serves.
        qid: QueryId,
        /// The stream's request tag.
        tag: u64,
        /// Additional packets the sender may now put in flight.
        credits: u32,
    },

    /// Drive an explicit, pre-built plan from this peer (experiment
    /// harness entry point — bypasses routing and optimisation so plan
    /// variants can be compared under identical conditions).
    ExecutePlan {
        /// Fresh query id.
        qid: QueryId,
        /// The query the plan answers (for the final projection).
        query: QueryPattern,
        /// The plan to execute verbatim.
        plan: PlanNode,
    },
    /// A client-peer poses a query to a simple-peer.
    ClientQuery {
        /// Fresh query id.
        qid: QueryId,
        /// The compiled query pattern.
        query: QueryPattern,
    },
    /// The final answer returned to the client-peer.
    ClientAnswer {
        /// The completed query.
        qid: QueryId,
        /// Projected result rows.
        result: ResultSet,
    },

    /// Hierarchical SONs: a super-peer pushes its (monotone) summary to
    /// its cluster head, or a head pushes its merged cluster summary to
    /// the other heads. The receiver tells the two apart by whether
    /// `owner` is one of its members.
    SummaryAdvertise {
        /// The super-peer (or head, for tier-2 pushes) the summary
        /// describes.
        owner: sqpeer_routing::PeerId,
        /// The merged active-schema fragment: every pattern answerable
        /// below `owner` matches this summary (possibly wider).
        summary: sqpeer_rvl::ActiveSchema,
    },
    /// Hierarchical SONs: descend the cluster tree for `query` instead of
    /// walking the flat backbone.
    HierRouteRequest {
        /// The query being routed.
        qid: QueryId,
        /// The query pattern.
        query: QueryPattern,
        /// How far the receiver recurses (see [`HierScope`]).
        scope: HierScope,
    },
    /// The annotated pattern covering the receiver's subtree, sent back
    /// up the cluster tree to the gathering node.
    HierRouteResponse {
        /// The query being routed.
        qid: QueryId,
        /// Annotations over the responder's subtree.
        annotated: AnnotatedQuery,
        /// Departed peers in the subtree whose tombstoned schemas matched.
        missing: Vec<sqpeer_routing::PeerId>,
    },
    /// Observability plane: a periodic rollup push up the cluster tree
    /// (member → entry super → head) or between equals (head ↔ head,
    /// flat backbone). Carries, whole, the rows that changed since the
    /// sender's last push: its own and those its members pushed to it,
    /// never rows learned from equals. Each row is its owner's
    /// cumulative value, and receivers keep the higher count per key, so
    /// a duplicated, reordered or stale push changes nothing.
    ObsPush {
        /// The peer the push arrives from (selects member vs
        /// peer-exchange handling at the receiver).
        owner: sqpeer_routing::PeerId,
        /// Link and pattern rows newer than `owner` last pushed.
        rows: crate::obs::Rollup,
    },
}

/// How far a [`Msg::HierRouteRequest`] receiver recurses down the
/// cluster tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HierScope {
    /// Sent by an entry super-peer to its cluster head: route over the
    /// whole overlay — own cluster plus every other cluster whose
    /// summary intersects the pattern.
    Global,
    /// Sent head → head: route within the receiver's cluster only.
    Cluster,
    /// Sent head → member super-peer: annotate against the receiver's
    /// own member registry only, no recursion.
    Local,
}

impl Msg {
    /// Estimated wire size in bytes, used by the simulator to charge
    /// bandwidth.
    pub fn wire_size(&self) -> usize {
        match self {
            Msg::Advertise(ad) => ad.active.wire_size() + 16,
            Msg::RequestAds { .. } => 24,
            Msg::AdsResponse(ads) => 24 + ads.iter().map(|a| a.active.wire_size()).sum::<usize>(),
            Msg::Withdraw => 16,
            Msg::WithdrawPeer(_) => 24,
            Msg::Heartbeat => 16,
            Msg::HeartbeatPeer(_) => 24,
            Msg::ExpirePeer(ad) => ad.active.wire_size() + 24,
            Msg::RouteRequest { query, .. } => 48 + query.text().len(),
            Msg::RouteResponse {
                annotated, missing, ..
            }
            | Msg::HierRouteResponse {
                annotated, missing, ..
            } => {
                let anns: usize = (0..annotated.query().patterns().len())
                    .map(|i| annotated.peers_for(i).len())
                    .sum();
                64 + 32 * anns + 8 * missing.len()
            }
            Msg::Subplan { plan, trace, .. } => {
                96 + 80 * plan.fetch_count() + if trace.is_some() { 16 } else { 0 }
            }
            Msg::Data { result, stats, .. } => {
                // Statistics are charged at their exact codec framing, not
                // a flat guess — a snapshot over a wide schema is much
                // bigger than one over a toy schema.
                48 + result.wire_size() + stats.as_ref().map_or(0, |s| s.wire_size())
            }
            Msg::SubplanFailed { .. } => 48,
            Msg::Credit { .. } => 48,
            Msg::ExecutePlan { query, plan, .. } => {
                32 + query.text().len() + 80 * plan.fetch_count()
            }
            Msg::ClientQuery { query, .. } => 32 + query.text().len(),
            Msg::ClientAnswer { result, .. } => 32 + result.wire_size(),
            Msg::SummaryAdvertise { summary, .. } => summary.wire_size() + 24,
            Msg::HierRouteRequest { query, .. } => 40 + query.text().len(),
            Msg::ObsPush { rows, .. } => 24 + rows.wire_size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqpeer_rdfs::{Range, SchemaBuilder};
    use sqpeer_rql::compile;
    use std::sync::Arc;

    #[test]
    fn wire_sizes_scale_with_payload() {
        let mut b = SchemaBuilder::new("n1", "u");
        let c1 = b.class("C1").unwrap();
        let c2 = b.class("C2").unwrap();
        let _ = b.property("p", c1, Range::Class(c2)).unwrap();
        let schema = Arc::new(b.finish().unwrap());
        let q = compile("SELECT X, Y FROM {X}p{Y}", &schema).unwrap();

        let small = Msg::ClientQuery {
            qid: QueryId(1),
            query: q.clone(),
        };
        assert!(small.wire_size() > 32);

        let empty = ResultSet::empty(vec!["X".into()].into());
        let big = ResultSet::from_rows(
            vec!["X".into()],
            (0..100)
                .map(|i| vec![sqpeer_rdfs::Node::Resource(format!("r{i}").as_str().into())])
                .collect(),
        );
        let d_small = Msg::Data {
            channel: sqpeer_net::Channel {
                id: sqpeer_net::ChannelId(0),
                root: PeerId(0),
                dest: PeerId(1),
                state: sqpeer_net::ChannelState::Open,
            },
            qid: QueryId(1),
            tag: 0,
            result: empty,
            partial: false,
            stats: None,
            seq: 0,
            last: true,
        };
        let d_big = Msg::Data {
            channel: sqpeer_net::Channel {
                id: sqpeer_net::ChannelId(0),
                root: PeerId(0),
                dest: PeerId(1),
                state: sqpeer_net::ChannelState::Open,
            },
            qid: QueryId(1),
            tag: 0,
            result: big,
            partial: false,
            stats: None,
            seq: 0,
            last: true,
        };
        assert!(d_big.wire_size() > d_small.wire_size() + 1_000);
    }

    #[test]
    fn query_id_display() {
        assert_eq!(QueryId(7).to_string(), "q7");
    }
}
