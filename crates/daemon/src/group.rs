//! Peer-group assembly and driving over *any* transport.
//!
//! Everything here is written against the [`Transport`] trait, never a
//! concrete substrate — this is the mechanical proof of ROADMAP item 3's
//! "one code path" claim: the daemon's TCP host, the E20 bench and the
//! simulator≡loopback equivalence test all assemble and drive groups
//! through these functions, swapping only the transport value.
//!
//! A group mirrors the ad-hoc SON construction of `sqpeer-overlay`: one
//! [`PeerNode`] per description base, fully meshed neighbours, pull-based
//! advertisement discovery. There is no client node: the driver poses a
//! query *at* a member and reads the outcome there.

use sqpeer_exec::{
    inject, node_of, BaseKind, Msg, PeerConfig, PeerMode, PeerNode, QueryId, QueryOutcome, Role,
};
use sqpeer_net::Transport;
use sqpeer_rdfs::Schema;
use sqpeer_routing::PeerId;
use sqpeer_rql::{compile, QueryPattern, RqlError};
use sqpeer_store::DescriptionBase;
use std::sync::Arc;

/// What a tenant group looks like before it runs.
pub struct GroupSpec {
    /// The community schema all members share.
    pub schema: Arc<Schema>,
    /// One description base per member peer.
    pub bases: Vec<DescriptionBase>,
    /// Peer configuration (timeouts, leases, caches).
    pub config: PeerConfig,
}

/// A group assembled onto some transport.
pub struct Group {
    /// Member peers, in base order: `PeerId(0..n)`.
    pub peers: Vec<PeerId>,
    /// The community schema.
    pub schema: Arc<Schema>,
    next_qid: u64,
}

impl Group {
    /// Compiles an RQL text against the group's community schema.
    pub fn compile(&self, rql: &str) -> Result<QueryPattern, RqlError> {
        compile(rql, &self.schema)
    }
}

/// Assembles `spec` onto `transport`: adds one fully-meshed peer node per
/// base, then runs pull-based advertisement discovery for `settle_us` of
/// transport time.
pub fn assemble<T: Transport<PeerNode>>(
    transport: &mut T,
    spec: GroupSpec,
    settle_us: u64,
) -> Group {
    let GroupSpec {
        schema,
        bases,
        config,
    } = spec;
    // A group is an ad-hoc SON (full mesh, no super-peer backbone):
    // peers route over their own registries, whatever mode the caller's
    // config template carried.
    let config = PeerConfig {
        mode: PeerMode::Adhoc,
        ..config
    };
    let count = bases.len() as u32;
    let peers: Vec<PeerId> = (0..count).map(PeerId).collect();
    for (i, base) in bases.into_iter().enumerate() {
        let id = PeerId(i as u32);
        let mut node = PeerNode::new(
            id,
            Role::Simple,
            BaseKind::Materialized(base),
            config.clone(),
        );
        if let Some(ad) = node.own_advertisement() {
            node.son.registry.register(ad);
        }
        node.son.neighbours = peers.iter().copied().filter(|&p| p != id).collect();
        transport.add_node(node_of(id), node);
    }

    // Pull-based discovery: every peer asks every neighbour for its
    // 1-hop neighbourhood's advertisements (§3.2).
    for &peer in &peers {
        for &other in &peers {
            if other == peer {
                continue;
            }
            inject(transport, peer, other, Msg::RequestAds { depth: 1 });
        }
    }
    transport.step_for(settle_us);

    Group {
        peers,
        schema,
        next_qid: 0,
    }
}

/// Poses `query` at member `at`, as that member's own: the root records
/// the outcome and mails the answer to nobody. Returns the query id to
/// poll with [`outcome`].
pub fn pose<T: Transport<PeerNode>>(
    transport: &mut T,
    group: &mut Group,
    at: PeerId,
    query: QueryPattern,
) -> QueryId {
    let qid = QueryId(group.next_qid);
    group.next_qid += 1;
    inject(transport, at, at, Msg::ClientQuery { qid, query });
    qid
}

/// The recorded outcome of `qid` at member `at`, if it has completed.
pub fn outcome<T: Transport<PeerNode>>(
    transport: &T,
    at: PeerId,
    qid: QueryId,
) -> Option<&QueryOutcome> {
    transport.node(node_of(at)).and_then(|n| n.outcome(qid))
}

/// Takes the completed outcome of `qid` out of member `at`: a
/// long-running driver that polls with this instead of [`outcome`] keeps
/// no answer past the moment it collects it.
pub fn take_outcome<T: Transport<PeerNode>>(
    transport: &mut T,
    at: PeerId,
    qid: QueryId,
) -> Option<QueryOutcome> {
    transport.node_mut(node_of(at))?.take_outcome(qid)
}

/// Steps `transport` in `slice_us` increments until `qid` completes at
/// `at` or `budget_us` of transport time elapses. Returns whether the
/// outcome arrived.
pub fn await_outcome<T: Transport<PeerNode>>(
    transport: &mut T,
    at: PeerId,
    qid: QueryId,
    slice_us: u64,
    budget_us: u64,
) -> bool {
    let mut spent = 0;
    while spent < budget_us {
        if outcome(transport, at, qid).is_some() {
            return true;
        }
        transport.step_for(slice_us);
        spent += slice_us;
    }
    outcome(transport, at, qid).is_some()
}
