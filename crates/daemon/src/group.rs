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
//! advertisement discovery. Discovery runs until every member has
//! discovered the group ([`discovered`]), for at most the transport time
//! the caller allows. There is no client node: the driver poses a query
//! *at* a member and reads the outcome there.

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
/// base, then runs pull-based advertisement discovery until every member
/// has [`discovered`] the group, stepping the transport by at most 1 ms at
/// a time and for at most `settle_us` of its time in all.
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
    let deadline = transport.now_us().saturating_add(settle_us);
    loop {
        let left = deadline.saturating_sub(transport.now_us());
        transport.step_for(left.min(1_000));
        if transport.now_us() >= deadline || discovered(transport, &peers) == peers.len() {
            break;
        }
    }

    Group {
        peers,
        schema,
        next_qid: 0,
    }
}

/// How many of `peers` have discovered the group: their registry holds
/// the advertisement of every member (each member advertises, as its base
/// is materialized; an empty base advertises an empty active-schema). The
/// group is ready when this is `peers.len()`.
pub fn discovered<T: Transport<PeerNode>>(transport: &T, peers: &[PeerId]) -> usize {
    peers
        .iter()
        .filter_map(|&p| transport.node(node_of(p)))
        .filter(|n| peers.iter().all(|&a| n.son.registry.get(a).is_some()))
        .count()
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

#[cfg(test)]
mod tests {
    use super::*;
    use sqpeer_net::{FaultPlan, Simulator};
    use sqpeer_testkit::fixtures::{fig1_schema, fig2_bases};

    fn spec() -> GroupSpec {
        let schema = fig1_schema();
        GroupSpec {
            bases: fig2_bases(&schema),
            schema,
            config: PeerConfig::default(),
        }
    }

    /// Discovery on the 20 ms virtual link is a request and a reply: the
    /// group is ready in the first millisecond after the last reply lands,
    /// far inside the bound, with every member in every registry.
    #[test]
    fn assembly_returns_once_the_group_has_discovered_itself() {
        let mut sim: Simulator<PeerNode> = Simulator::default();
        let group = assemble(&mut sim, spec(), 2_000_000);
        assert_eq!(sim.now_us(), 41_000);
        assert_eq!(discovered(&sim, &group.peers), 4);
        for &p in &group.peers {
            assert_eq!(sim.node(node_of(p)).unwrap().son.registry.len(), 4);
        }
    }

    /// A member that is down before assembly never answers: nobody holds
    /// its advertisement, so nobody is ready and the bound ends the wait.
    #[test]
    fn a_down_member_holds_discovery_to_its_bound() {
        let mut sim: Simulator<PeerNode> = Simulator::default();
        sim.schedule_node_down(0, node_of(PeerId(3)));
        let group = assemble(&mut sim, spec(), 2_000_000);
        assert_eq!(sim.now_us(), 2_000_000);
        assert_eq!(discovered(&sim, &group.peers), 0);
    }

    /// A member whose every outgoing link drops learns the group but is
    /// learnt by nobody else: it alone is ready when the bound runs out.
    #[test]
    fn a_member_with_dropped_links_is_the_only_one_ready_at_the_bound() {
        let mut sim: Simulator<PeerNode> = Simulator::default();
        let mute = node_of(PeerId(3));
        let plan = (0..4).fold(FaultPlan::new(7), |plan, p| {
            plan.with_link_loss(mute, node_of(PeerId(p)), 1_000)
        });
        sim.set_fault_plan(plan);
        let group = assemble(&mut sim, spec(), 2_000_000);
        assert_eq!(sim.now_us(), 2_000_000);
        assert_eq!(discovered(&sim, &group.peers), 1);
    }
}
