//! The credit-windowed stream machine under an adversarial network.
//!
//! The two ends of every stream are the types that ship:
//! [`sqpeer_exec::stream::Sender`] and [`sqpeer_exec::stream::Receiver`]
//! over the unit payload, driven through the same methods
//! `crates/exec/src/peer.rs` calls for `Msg::Data`, `Msg::Credit` and a
//! re-served `Msg::Subplan`. What this module adds is everything around
//! them that `peer.rs` gets from its environment: the network, the
//! adversary, the timeout ladder, the `served` dedup log and the outcome
//! slot.
//!
//! One or two independent streams cross the network: the sender emits
//! seq-numbered `Data` packets, at most `window` in flight (its credit
//! ledger); the receiver drains in order, discards duplicate sequence
//! numbers, and owes one `Credit` per consumed packet while the stream
//! is incomplete. The at-least-once ladder is modelled as an
//! adversarially-timed `Timeout` that re-sends the `Subplan` (bumping the
//! attempt; the dest's `served` log dedups stale attempts) until
//! `retries` is exhausted, after which the root abandons with an honest
//! partial outcome. The network may drop any message, duplicate up to
//! `dup_budget` messages, and reorder freely (delivery order is the
//! interleaving choice).
//!
//! ## Invariants
//! - The sender's credit ledger never exceeds the window
//!   (`inflight <= window`), in every interleaving.
//! - With no duplication and no retries, the *wire* itself never carries
//!   more than `window` data packets per stream. (A duplicated `Credit`
//!   legitimately lets wire occupancy exceed the ledger — the ledger
//!   bound still holds, the wire bound is conditional; see DESIGN.md.)
//! - A completed stream drained exactly `batches` distinct sequence
//!   numbers in order (`next_seq == batches`, no buffered residue).
//!
//! ## Liveness
//! Under fair delivery (no drops; duplication and timer races allowed)
//! every configuration terminates: each stream ends complete or honestly
//! abandoned. The `skip_credit_for_seq` mutation deliberately breaks the
//! credit rule — the receiver consumes one packet without crediting it —
//! and the explorer finds the resulting wedge (sender window closed
//! forever) as a deadlock counterexample.

use crate::explore::Machine;
use sqpeer_exec::stream::{Receiver, Sender};

/// One bounded stream-machine configuration.
#[derive(Debug, Clone)]
pub struct StreamCfg {
    /// Independent streams crossing the network (1 or 2; 2 models the
    /// duplex case of two queries crossing one channel pair).
    pub streams: u8,
    /// Data batches per stream (`last` rides on seq `batches - 1`).
    pub batches: u8,
    /// Sender credit window.
    pub window: u8,
    /// Subplan re-sends before the root abandons; `None` disables the
    /// timeout ladder entirely (pure flow-control configuration).
    pub retries: Option<u8>,
    /// May the adversary drop messages?
    pub drops: bool,
    /// Messages the adversary may duplicate (total, across streams).
    pub dup_budget: u8,
    /// Mutation hook: the receiver "forgets" to grant the credit for
    /// this consumed sequence number (first fresh consumption only).
    pub skip_credit_for_seq: Option<u8>,
    /// Label for reports.
    pub name: &'static str,
}

/// One in-flight message, tagged with its stream id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StreamMsg {
    /// Re-sent subplan (attempt `a`); the initial dispatch is implicit in
    /// the initial state (stream already serving).
    Subplan { sid: u8, attempt: u8 },
    /// Seq-numbered data batch.
    Data { sid: u8, seq: u8 },
    /// One credit, returned per consumed packet.
    Credit { sid: u8 },
}

/// Destination side: the outgoing stream plus the `served` log.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Dest {
    /// Highest attempt served (the `(root,qid,tag)` dedup log).
    pub served: u8,
    /// The shipped sender, holding one unit batch per data packet.
    pub stream: Sender<()>,
    /// Final packet sent: the real dest has removed the stream from its
    /// `outgoing` table, so later credits find nothing to grant.
    pub retired: bool,
}

/// Root side: the outstanding subplan's reassembly and outcome slot.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Root {
    /// The shipped receiver.
    pub stream: Receiver<()>,
    /// Credit for `skip_credit_for_seq` already withheld?
    pub skipped: bool,
    /// Outcome slot.
    pub outcome: Outcome,
    /// Attempts dispatched so far (0 = initial only).
    pub attempt: u8,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    Pending,
    Complete,
    /// Timeout ladder exhausted; honest partial.
    Abandoned,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StreamState {
    pub streams: Vec<(Dest, Root)>,
    /// Sorted multiset of in-flight messages.
    pub net: Vec<StreamMsg>,
    pub dups_left: u8,
}

/// Actions carry the targeted message alongside its index so rendered
/// schedules read as trace lines rather than positions.
#[derive(Debug, Clone)]
pub enum StreamAct {
    /// Deliver `net[i]`.
    Deliver(usize, StreamMsg),
    /// Drop `net[i]`.
    Drop(usize, StreamMsg),
    /// Duplicate `net[i]` in place.
    Dup(usize, StreamMsg),
    /// Fire the root's subplan timeout for stream `sid`.
    Timeout(u8),
}

impl StreamMsg {
    fn render(self) -> String {
        match self {
            StreamMsg::Subplan { sid, attempt } => format!("subplan sid={sid} attempt={attempt}"),
            StreamMsg::Data { sid, seq } => format!("data sid={sid} seq={seq}"),
            StreamMsg::Credit { sid } => format!("credit sid={sid}"),
        }
    }
}

pub struct StreamMachine {
    pub cfg: StreamCfg,
}

impl StreamMachine {
    pub fn new(cfg: StreamCfg) -> Self {
        StreamMachine { cfg }
    }

    /// A freshly served stream: every batch queued, the queue final.
    fn serve(&self) -> Sender<()> {
        let mut stream = Sender::new(self.cfg.window.into());
        for _ in 0..self.cfg.batches {
            stream.push(());
        }
        stream.finish();
        stream
    }

    /// Puts on the wire whatever `dest`'s window allows, as
    /// `exec::serve::Server::flush` does (sends are atomic within the
    /// handler, not separate adversary steps).
    fn send(sid: u8, dest: &mut Dest, net: &mut Vec<StreamMsg>) {
        while let Some((seq, (), last)) = dest.stream.next_packet() {
            net.push(StreamMsg::Data {
                sid,
                seq: seq as u8,
            });
            dest.retired = last;
        }
    }
}

impl Machine for StreamMachine {
    type State = StreamState;
    type Action = StreamAct;

    fn name(&self) -> String {
        format!("stream/{}", self.cfg.name)
    }

    fn initial(&self) -> StreamState {
        let mut streams = Vec::new();
        let mut net = Vec::new();
        for sid in 0..self.cfg.streams {
            let mut dest = Dest {
                served: 0,
                stream: self.serve(),
                retired: false,
            };
            // The initial Subplan has been served: the stream starts
            // flowing (dispatch itself is the dispatch machine's model).
            Self::send(sid, &mut dest, &mut net);
            streams.push((
                dest,
                Root {
                    stream: Receiver::default(),
                    skipped: false,
                    outcome: Outcome::Pending,
                    attempt: 0,
                },
            ));
        }
        net.sort_unstable();
        StreamState {
            streams,
            net,
            dups_left: self.cfg.dup_budget,
        }
    }

    fn actions(&self, s: &StreamState, out: &mut Vec<StreamAct>) {
        for i in 0..s.net.len() {
            // Identical in-flight messages yield identical successors:
            // branch once per distinct message.
            if i > 0 && s.net[i] == s.net[i - 1] {
                continue;
            }
            out.push(StreamAct::Deliver(i, s.net[i]));
            if self.cfg.drops {
                out.push(StreamAct::Drop(i, s.net[i]));
            }
            if s.dups_left > 0 {
                out.push(StreamAct::Dup(i, s.net[i]));
            }
        }
        if self.cfg.retries.is_some() {
            for (sid, (_, root)) in s.streams.iter().enumerate() {
                if root.outcome == Outcome::Pending {
                    out.push(StreamAct::Timeout(sid as u8));
                }
            }
        }
    }

    fn apply(&self, s: &StreamState, a: &StreamAct) -> StreamState {
        let mut next = s.clone();
        match *a {
            StreamAct::Drop(i, _) => {
                next.net.remove(i);
            }
            StreamAct::Dup(i, _) => {
                let msg = next.net[i];
                next.net.push(msg);
                next.dups_left -= 1;
            }
            StreamAct::Timeout(sid) => {
                let max = self.cfg.retries.expect("timeout only with a ladder");
                let (_, root) = &mut next.streams[sid as usize];
                if root.attempt < max {
                    root.attempt += 1;
                    next.net.push(StreamMsg::Subplan {
                        sid,
                        attempt: root.attempt,
                    });
                } else {
                    // Ladder exhausted: honest partial, stream retired at
                    // the root (`outstanding` entry removed — later data
                    // is stray).
                    root.outcome = Outcome::Abandoned;
                }
            }
            StreamAct::Deliver(i, expect) => {
                let msg = next.net.remove(i);
                debug_assert_eq!(msg, expect, "action/state index drift");
                match msg {
                    StreamMsg::Subplan { sid, attempt } => {
                        let (dest, _) = &mut next.streams[sid as usize];
                        // `served` dedup: stale attempts are dropped.
                        if attempt > dest.served {
                            // Re-serve restarts the stream from seq 0
                            // with a fresh ledger; packets from the old
                            // attempt may still be on the wire.
                            *dest = Dest {
                                served: attempt,
                                stream: self.serve(),
                                retired: false,
                            };
                            Self::send(sid, dest, &mut next.net);
                        }
                    }
                    StreamMsg::Data { sid, seq } => {
                        let (_, root) = &mut next.streams[sid as usize];
                        // A settled outcome means no outstanding entry:
                        // the packet is stray.
                        if root.outcome == Outcome::Pending {
                            let last = seq + 1 == self.cfg.batches;
                            let got = root.stream.ingest(seq.into(), (), last);
                            if root.stream.complete() {
                                root.outcome = Outcome::Complete;
                            }
                            // The injected mutation withholds one owed
                            // credit, on a fresh packet only.
                            let skip = !got.is_dup
                                && !root.skipped
                                && self.cfg.skip_credit_for_seq == Some(seq);
                            if got.credit_owed && skip {
                                root.skipped = true;
                            } else if got.credit_owed {
                                next.net.push(StreamMsg::Credit { sid });
                            }
                        }
                    }
                    StreamMsg::Credit { sid } => {
                        let (dest, _) = &mut next.streams[sid as usize];
                        if !dest.retired {
                            dest.stream.grant(1);
                            Self::send(sid, dest, &mut next.net);
                        }
                    }
                }
            }
        }
        next.net.sort_unstable();
        next
    }

    fn invariant(&self, s: &StreamState) -> Result<(), String> {
        for (sid, (dest, root)) in s.streams.iter().enumerate() {
            if dest.stream.inflight() > dest.stream.window() {
                return Err(format!(
                    "stream {sid}: sender ledger {} exceeds window {}",
                    dest.stream.inflight(),
                    dest.stream.window()
                ));
            }
            // Wire occupancy: unconditional only without duplication and
            // without the retry ladder (see module doc).
            if self.cfg.dup_budget == 0 && self.cfg.retries.is_none() {
                let on_wire = s
                    .net
                    .iter()
                    .filter(|m| matches!(m, StreamMsg::Data { sid: d, .. } if *d == sid as u8))
                    .count();
                if on_wire > self.cfg.window as usize {
                    return Err(format!(
                        "stream {sid}: {on_wire} data packets on the wire exceed window {}",
                        self.cfg.window
                    ));
                }
            }
            let (cursor, residue) = (root.stream.next_seq(), root.stream.buffered());
            if root.outcome == Outcome::Complete
                && (cursor != u32::from(self.cfg.batches) || residue != 0)
            {
                return Err(format!(
                    "stream {sid}: completed with cursor {cursor} / {residue} buffered (want {} \
                     batches)",
                    self.cfg.batches
                ));
            }
        }
        Ok(())
    }

    fn is_goal(&self, s: &StreamState) -> bool {
        s.streams.iter().all(|(_, r)| r.outcome != Outcome::Pending)
    }

    fn is_fair(&self, a: &StreamAct) -> bool {
        // Fair delivery: drops and duplication may be withheld forever;
        // deliveries and timer firings may not.
        !matches!(a, StreamAct::Drop(..) | StreamAct::Dup(..))
    }

    fn render_action(&self, a: &StreamAct) -> String {
        match a {
            StreamAct::Deliver(_, m) => format!("deliver {}", m.render()),
            StreamAct::Drop(_, m) => format!("drop {}", m.render()),
            StreamAct::Dup(_, m) => format!("dup {}", m.render()),
            StreamAct::Timeout(sid) => format!("timer stream={sid}"),
        }
    }
}

/// The bounded configurations CI explores to a fixpoint.
pub fn configs() -> Vec<StreamCfg> {
    vec![
        StreamCfg {
            streams: 1,
            batches: 4,
            window: 2,
            retries: None,
            drops: false,
            dup_budget: 0,
            skip_credit_for_seq: None,
            name: "w2-inorder",
        },
        StreamCfg {
            streams: 1,
            batches: 4,
            window: 2,
            retries: Some(1),
            drops: true,
            dup_budget: 1,
            skip_credit_for_seq: None,
            name: "w2-adversarial",
        },
        StreamCfg {
            streams: 1,
            batches: 3,
            window: 1,
            retries: Some(2),
            drops: true,
            dup_budget: 2,
            skip_credit_for_seq: None,
            name: "w1-deep-ladder",
        },
        StreamCfg {
            streams: 2,
            batches: 3,
            window: 1,
            retries: None,
            drops: false,
            dup_budget: 1,
            skip_credit_for_seq: None,
            name: "w1-duplex",
        },
        StreamCfg {
            streams: 2,
            batches: 2,
            window: 2,
            retries: Some(1),
            drops: true,
            dup_budget: 1,
            skip_credit_for_seq: None,
            name: "w2-duplex-adversarial",
        },
    ]
}

/// The deliberately broken configuration: one credit grant skipped.
pub fn mutation_cfg() -> StreamCfg {
    StreamCfg {
        streams: 1,
        batches: 3,
        window: 1,
        retries: None,
        drops: false,
        dup_budget: 0,
        skip_credit_for_seq: Some(0),
        name: "w1-skip-credit-mutation",
    }
}
