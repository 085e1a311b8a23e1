//! The ubQL channel construct (paper §2.4, after \[26\]).
//!
//! "Each channel has a root and a destination node. The root node of a
//! channel is responsible for the management of the channel using its
//! local unique id. Data packets are sent through each channel from the
//! destination to the root node. Beside query results, these packets can
//! also contain 'changing plan' and failure information or even statistics
//! useful for query optimization."
//!
//! The transport moves the actual messages; this module is what the two
//! ends of a channel *are*:
//!
//! * at the **root**, a [`ChannelTable`] entry — the destination and the
//!   local id minted for it. The execution engine (`sqpeer-exec`) keeps
//!   one channel per contacted peer ("only one channel is of course
//!   created") and forgets it when the destination is given up on;
//! * at the **destination**, nothing but the [`Channel`] value each
//!   subplan arrives with, echoed on every packet sent back so the root
//!   can tell its channels apart.

use crate::sim::NodeId;
use std::collections::HashMap;
use std::hash::Hash;

/// A channel id, unique *per root node* ("its local unique id").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(pub u64);

/// Channel lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelState {
    /// Deployed and usable.
    Open,
    /// The destination (or the link to it) failed; the root must adapt.
    Failed,
    /// Closed after the subplan completed or was abandoned.
    Closed,
}

/// One channel endpoint's view.
///
/// Generic over the endpoint identifier `I` so the *same* bookkeeping
/// serves both the simulator (keyed by [`NodeId`]) and the execution
/// engine, which keys channels on the transport-agnostic routing-level
/// peer identity — real deployments address peers, not simulator node
/// indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Channel<I = NodeId> {
    /// The root-minted id.
    pub id: ChannelId,
    /// The root node (receives data packets, manages the channel).
    pub root: I,
    /// The destination node (evaluates the subplan, streams data back).
    pub dest: I,
    /// Current state.
    pub state: ChannelState,
}

/// The channels a node roots: for each destination, the id of the one
/// channel towards it.
#[derive(Debug, Clone)]
pub struct ChannelTable<I = NodeId> {
    next_id: u64,
    towards: HashMap<I, ChannelId>,
}

impl<I> Default for ChannelTable<I> {
    fn default() -> Self {
        ChannelTable {
            next_id: 0,
            towards: HashMap::new(),
        }
    }
}

impl<I: Copy + Eq + Hash> ChannelTable<I> {
    /// Creates an empty table.
    pub fn new() -> Self {
        ChannelTable::default()
    }

    /// The channel `root` (this node) keeps towards `dest`, minting a
    /// fresh local id on first contact — "although each of these peers
    /// may contribute … only one channel is of course created" (§2.4).
    pub fn channel_to(&mut self, root: I, dest: I) -> Channel<I> {
        let id = *self.towards.entry(dest).or_insert_with(|| {
            let id = ChannelId(self.next_id);
            self.next_id += 1;
            id
        });
        Channel {
            id,
            root,
            dest,
            state: ChannelState::Open,
        }
    }

    /// Forgets the channel towards `dest`, if any — what a root does once
    /// it gives up on the destination. Later contact mints a fresh id.
    pub fn drop_towards(&mut self, dest: I) {
        self.towards.remove(&dest);
    }

    /// Number of channels this node currently roots.
    pub fn len(&self) -> usize {
        self.towards.len()
    }

    /// Does this node root no channel?
    pub fn is_empty(&self) -> bool {
        self.towards.is_empty()
    }
}

/// Canonical: the open channels hash in destination order, whatever
/// order the map keeps them in.
impl<I: Ord + Hash> Hash for ChannelTable<I> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let mut open: Vec<_> = self.towards.iter().collect();
        open.sort_unstable();
        (self.next_id, open).hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_local_to_the_root() {
        let mut a = ChannelTable::new();
        let mut b = ChannelTable::new();
        let ch_a = a.channel_to(NodeId(1), NodeId(2));
        let ch_b = b.channel_to(NodeId(3), NodeId(2));
        // Both roots mint id 0 — disambiguated at the destination by root.
        assert_eq!(ch_a.id, ch_b.id);
        assert_ne!(ch_a, ch_b);
        assert_eq!((ch_a.root, ch_b.root), (NodeId(1), NodeId(3)));
    }

    #[test]
    fn channel_to_reuses_single_channel() {
        let mut t = ChannelTable::new();
        assert!(t.is_empty());
        let ch = t.channel_to(NodeId(1), NodeId(5));
        assert_eq!(ch.state, ChannelState::Open);
        assert_eq!(t.channel_to(NodeId(1), NodeId(5)), ch);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn drop_forgets_only_that_destination() {
        let mut t = ChannelTable::new();
        let c5 = t.channel_to(NodeId(1), NodeId(5));
        let c6 = t.channel_to(NodeId(1), NodeId(6));
        t.drop_towards(NodeId(5));
        assert_eq!(t.len(), 1);
        assert_eq!(t.channel_to(NodeId(1), NodeId(6)), c6);
        // Idempotent, and fresh ids still mint past dropped ones.
        t.drop_towards(NodeId(5));
        let again = t.channel_to(NodeId(1), NodeId(5));
        assert!(again.id > c5.id && again.id > c6.id);
    }

    #[test]
    fn ids_increase_monotonically() {
        let mut t = ChannelTable::new();
        let a = t.channel_to(NodeId(1), NodeId(2));
        let b = t.channel_to(NodeId(1), NodeId(3));
        assert!(b.id > a.id);
        assert_eq!(t.len(), 2);
    }
}
