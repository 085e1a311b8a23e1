//! A subplan in flight, from the root's side (§2.4–§2.5).
//!
//! The paper gives the root of a channel two things to do with it:
//! collect the data packets that flow dest → root, and "alter a running
//! query plan" when the channel fails or "by observing the throughput of
//! a certain channel". [`Dispatcher`] is that rule, stated once — one
//! owner for every subplan this peer has shipped and not yet settled:
//!
//! ```text
//! dispatch ──► outstanding[tag] ──data──► drained batch … ──last──► Answered
//!                 │  ▲
//!        timed_out│  │retry (attempt+1, timeout × 2ⁿ), at most `retries` times
//!                 ▼  │
//!        retries exhausted ─────────────────────────────► Lost(Timeout)
//!        probed below the throughput floor ─────────────► Lost(SlowChannel)
//!        refused (`SubplanFailed`) ─────────────────────► Lost(Refused)
//!        undelivered (destination down) ────────────────► Lost(Delivery)
//! ```
//!
//! Like [`crate::son::Directory`] it sends through the peer's [`Ctx`]
//! (so a [`Ctx::detached`] drives it without a network — the unit tests
//! below), hands back the delays it wants armed — the timer table is the
//! peer's — and copies what it needs of the configuration at
//! construction. It carries each subplan's [`Completion`] but knows
//! nothing of frames, rooted queries, the tracer or the observability
//! plane: every call returns a [`Step`] whose [`Verdict`] says what became
//! of the subplan and whose [`Event`]s say what happened, for the peer to
//! act on and record.

use crate::frame::Completion;
use crate::msg::{Msg, PeerChannel, QueryId, TraceCtx};
use crate::peer::{by_key, PeerConfig};
use crate::stream::Receiver;
use crate::{peer_of, send, Event};
use sqpeer_net::{ChannelTable, Ctx, NodeId};
use sqpeer_plan::PlanNode;
use sqpeer_rdfs::FxHashMap;
use sqpeer_routing::PeerId;
use sqpeer_rql::{ResultSet, Rows};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Why a subplan was given up on, for cause-attributed adaptation
/// counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplanCause {
    /// A sender-side delivery-failure notification (destination down).
    Delivery,
    /// The destination answered `SubplanFailed`: it could not serve it.
    Refused,
    /// A subplan timeout with retries exhausted.
    Timeout,
    /// The telemetry windowed-throughput floor (slow-but-alive channel).
    SlowChannel,
}

impl fmt::Display for ReplanCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReplanCause::Delivery => "delivery failure",
            ReplanCause::Refused => "refused",
            ReplanCause::Timeout => "timeout",
            ReplanCause::SlowChannel => "slow channel",
        })
    }
}

/// One shipped subplan the root still waits on. It leaves the dispatcher
/// only inside [`Verdict::Lost`], for the adaptation that replaces it.
#[derive(Debug)]
pub(crate) struct PendingRemote {
    pub(crate) qid: QueryId,
    /// Where its answer goes: the parent slot, channel or root it was
    /// shipped for.
    pub(crate) completion: Completion,
    /// A hole-filler (a race slot or a forwarded hole, §3.2): its rows
    /// count only once it answers, so nobody reads them while it streams.
    filler: bool,
    pub(crate) dest: PeerId,
    /// The shipped plan itself (needed to repair around a slow or failed
    /// destination, and for the columns of the empty table that fills a
    /// lost slot); rendered, it keys the phased-execution result cache.
    pub(crate) plan: PlanNode,
    /// Visited-set shipped with the subplan (re-sent verbatim on retry).
    visited: Vec<PeerId>,
    /// At-least-once attempts sent so far (0 = original dispatch only).
    attempt: u32,
    /// Virtual µs the subplan was first dispatched — the start of the
    /// throughput window the slow-channel probes observe.
    dispatched_at_us: u64,
    /// Result bytes received on this channel so far (streamed batches
    /// included) — the numerator of the windowed throughput.
    bytes_observed: u64,
    /// The partially received streamed result. Living here, it goes
    /// wherever the outstanding entry goes: answered, abandoned or
    /// replanned away, no reassembly outlives its subplan.
    stream: Reassembly,
}

impl PendingRemote {
    /// Ships the subplan, at its recorded attempt, over `channel`;
    /// `origin` is the dispatching peer when it traces. Returns the bytes
    /// put on the wire.
    fn ship(
        &self,
        ctx: &mut Ctx<Msg>,
        tag: u64,
        channel: PeerChannel,
        origin: Option<PeerId>,
    ) -> u64 {
        let msg = Msg::Subplan {
            channel,
            qid: self.qid,
            tag,
            plan: self.plan.clone(),
            visited: self.visited.clone(),
            attempt: self.attempt,
            trace: origin.map(|origin| TraceCtx {
                origin,
                parent_start_us: ctx.now_us(),
            }),
        };
        send(ctx, self.dest, msg) as u64
    }
}

/// Root-side reassembly of one streamed subplan result: the seq machine
/// ([`Receiver`]) plus the rows it has released so far, in sequence
/// order. A drained batch leaves it only as a relayed copy ([`Drained`]).
#[derive(Debug, Default)]
struct Reassembly {
    recv: Receiver<Rows>,
    drained: ResultSet,
    partial: bool,
}

/// Rows a `Data` packet released, relayed or not: word that they
/// `Arrived` (into the reassembly only), or a copy of the `Batch` to relay
/// down the channel the subplan answers. Only a subplan completing
/// towards a [`Completion::Channel`] relays, and only while answers
/// stream; a hole-filler's rows are not even reported.
#[derive(Debug, PartialEq)]
pub(crate) enum Drained {
    Arrived,
    Batch(ResultSet),
}

/// What a `Data` message carries besides the `(qid, tag)` it claims.
#[derive(Debug)]
pub(crate) struct Packet {
    pub(crate) channel: PeerChannel,
    pub(crate) seq: u32,
    pub(crate) last: bool,
    pub(crate) result: ResultSet,
    pub(crate) partial: bool,
}

/// What became of a subplan in one step.
#[derive(Debug)]
pub(crate) enum Verdict {
    /// Still in flight; arm what is set for its tag.
    Pending {
        timeout_us: Option<u64>,
        probe_us: Option<u64>,
    },
    /// In-order rows of its still-open stream became available for
    /// `completion`.
    Drained {
        completion: Completion,
        batch: Drained,
    },
    /// Its whole `result` arrived for `completion`; `last` is what the
    /// final packet drained, not yet consumed as a batch.
    Answered {
        completion: Completion,
        plan: PlanNode,
        last: Option<Drained>,
        result: ResultSet,
        partial: bool,
    },
    /// Given up on; the channel towards its destination is dropped.
    Lost {
        pending: PendingRemote,
        cause: ReplanCause,
    },
}

/// The outcome of one dispatcher call on subplan `tag` of `qid`, shipped
/// to `dest`: what happened, in order (no call reports more than two
/// things), and what became of the subplan.
#[derive(Debug)]
pub(crate) struct Step {
    pub(crate) qid: QueryId,
    pub(crate) tag: u64,
    pub(crate) dest: PeerId,
    pub(crate) events: [Option<Event>; 2],
    pub(crate) verdict: Verdict,
}

impl Step {
    fn new(
        (qid, tag, dest): (QueryId, u64, PeerId),
        events: [Option<Event>; 2],
        verdict: Verdict,
    ) -> Self {
        Step {
            qid,
            tag,
            dest,
            events,
            verdict,
        }
    }
}

/// Every subplan this peer has shipped and not yet settled, and the
/// channels they travel on (see the module documentation).
#[derive(Debug)]
pub(crate) struct Dispatcher {
    id: PeerId,
    /// `PeerConfig::subplan_timeout_us`: the base every timeout this
    /// dispatcher asks for is a power-of-two multiple of.
    timeout_us: Option<u64>,
    /// `PeerConfig::subplan_retries`.
    retries: u32,
    /// `PeerConfig::slow_channel`.
    slow_channel: bool,
    /// `PeerConfig::stream_batch_rows` is set: a subplan answering a
    /// channel relays its batches.
    relay: bool,
    /// The trace context shipped subplans carry (`PeerConfig::trace`).
    origin: Option<PeerId>,
    channels: ChannelTable<PeerId>,
    outstanding: FxHashMap<u64, PendingRemote>,
    next_tag: u64,
}

impl Dispatcher {
    pub(crate) fn new(id: PeerId, config: &PeerConfig) -> Self {
        Dispatcher {
            id,
            timeout_us: config.subplan_timeout_us,
            retries: config.subplan_retries,
            slow_channel: config.slow_channel,
            relay: config.stream_batch_rows.is_some(),
            origin: config.trace.then_some(id),
            channels: ChannelTable::new(),
            outstanding: FxHashMap::default(),
            next_tag: 0,
        }
    }

    /// Channels currently rooted here.
    pub(crate) fn open_channels(&self) -> usize {
        self.channels.len()
    }

    /// Ships `plan` to `dest` as a fresh subplan of `qid` answering
    /// `completion`. `filler` holds the peers already asked when `plan` is
    /// a hole-filler (see [`PendingRemote`]); any other subplan ships with
    /// this peer alone as visited. `probe` asks for slow-channel probes as
    /// well as the timeout (set at the query's root only — forwarding
    /// peers leave slow channels to their own roots).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn dispatch(
        &mut self,
        ctx: &mut Ctx<Msg>,
        qid: QueryId,
        dest: PeerId,
        plan: PlanNode,
        completion: Completion,
        filler: Option<Vec<PeerId>>,
        probe: bool,
    ) -> Step {
        let tag = self.next_tag;
        self.next_tag += 1;
        let channel = self.channels.channel_to(self.id, dest);
        let pending = PendingRemote {
            qid,
            completion,
            filler: filler.is_some(),
            dest,
            plan,
            visited: filler.unwrap_or_else(|| vec![self.id]),
            attempt: 0,
            dispatched_at_us: ctx.now_us(),
            bytes_observed: 0,
            stream: Reassembly::default(),
        };
        let bytes = pending.ship(ctx, tag, channel, self.origin);
        self.outstanding.insert(tag, pending);
        let channel = channel.id.0;
        let events = [Some(Event::Dispatched { channel, bytes }), None];
        // Telemetry-driven adaptation probes the channel's throughput
        // window well before the timeout would fire; the grace period
        // lets one round-trip plus service fit first.
        let probe_us = (self.slow_channel && probe)
            .then_some(PeerConfig::SLOW_CHANNEL_GRACE_US + PeerConfig::SLOW_CHANNEL_PROBE_US);
        let timeout_us = self.timeout_us;
        let verdict = Verdict::Pending {
            timeout_us,
            probe_us,
        };
        Step::new((qid, tag, dest), events, verdict)
    }

    /// A `Data` packet claiming `(qid, tag)` arrived from `from`: ingests
    /// it into the subplan's reassembly (in-order drain over reordered or
    /// duplicated batches — smaller packets travel faster, retries resend
    /// from the start), accounts it to the channel's throughput window and
    /// acknowledges it with one credit while the stream is incomplete.
    /// `None` when the claim matches no outstanding subplan. One answer
    /// has one set of columns, the first packet's: a packet carrying rows
    /// under others is refused like a `SubplanFailed`.
    pub(crate) fn data(
        &mut self,
        ctx: &mut Ctx<Msg>,
        from: NodeId,
        qid: QueryId,
        tag: u64,
        packet: Packet,
    ) -> Option<Step> {
        // `tag` and `qid` are the sender's claim: a packet naming another
        // query's tag must not reach its slot.
        let pending = self.outstanding.get_mut(&tag).filter(|p| p.qid == qid)?;
        let bytes = packet.result.wire_size() as u64 + 48;
        let drained = &mut pending.stream.drained;
        let ResultSet { columns, rows } = packet.result;
        if drained.columns.is_empty() && drained.is_empty() {
            drained.columns = columns;
        } else if !rows.is_empty() && columns != drained.columns {
            return self.lose(tag, ReplanCause::Refused, Some(Event::Refused));
        }
        if pending.bytes_observed == 0 {
            // Per-link TTFR: the first result packet of this subplan just
            // arrived — telemetry's streaming figure of merit.
            let elapsed = ctx.now_us().saturating_sub(pending.dispatched_at_us);
            ctx.note_stream_ttfr(from, elapsed);
        }
        pending.bytes_observed += bytes;
        let (dest, completion) = (pending.dest, pending.completion);
        let relay = self.relay && matches!(completion, Completion::Channel(_));
        let read = !pending.filler;
        let state = &mut pending.stream;
        state.partial |= packet.partial;
        let ingested = state.recv.ingest(packet.seq, rows, packet.last);
        // At-least-once dispatch and fault-plan duplication both make
        // repeated sequence numbers normal; each one must land in the
        // dedup counter, never in the answer.
        let dup = ingested.is_dup.then_some(Event::DuplicateDropped);
        let mut fresh = Rows::default();
        ingested
            .drained
            .into_iter()
            .for_each(|batch| fresh.append(batch));
        let drained = &mut state.drained;
        let batch = (read && !fresh.is_empty()).then(|| match relay {
            true => Drained::Batch(ResultSet {
                columns: drained.columns.clone(),
                rows: fresh.clone(),
            }),
            false => Drained::Arrived,
        });
        drained.rows.append(fresh);
        let (event, verdict) = if ingested.credit_owed {
            // Credit-based backpressure: acknowledge the packet so the
            // sender may put another in flight.
            let credit = Msg::Credit {
                channel: packet.channel,
                qid,
                tag,
                credits: 1,
            };
            let bytes = send(ctx, peer_of(from), credit) as u64;
            let verdict = match batch {
                Some(batch) => Verdict::Drained { completion, batch },
                None => Verdict::Pending {
                    timeout_us: None,
                    probe_us: None,
                },
            };
            (Event::CreditGranted { bytes }, verdict)
        } else {
            let pending = self.outstanding.remove(&tag).expect("looked up above");
            let result = pending.stream.drained;
            let answered = Event::Answered {
                rows: result.len(),
                bytes: result.wire_size() as u64,
            };
            let verdict = Verdict::Answered {
                completion,
                plan: pending.plan,
                last: batch,
                result,
                partial: pending.stream.partial,
            };
            (answered, verdict)
        };
        let events = [Some(event), dup];
        Some(Step::new((qid, tag, dest), events, verdict))
    }

    /// The destination answered `SubplanFailed` for `(qid, tag)` — the
    /// sender's claim, checked like a `Data` packet's.
    pub(crate) fn refused(&mut self, qid: QueryId, tag: u64) -> Option<Step> {
        self.outstanding.get(&tag).filter(|p| p.qid == qid)?;
        self.lose(tag, ReplanCause::Refused, Some(Event::Refused))
    }

    /// The transport could not deliver `msg` to `to`: the channel towards
    /// it is dead, and so is the subplan `msg` shipped, if it did.
    pub(crate) fn undelivered(&mut self, to: PeerId, msg: &Msg) -> Option<Step> {
        let lost = match msg {
            Msg::Subplan { tag, .. } => self.lose(*tag, ReplanCause::Delivery, None),
            _ => None,
        };
        if lost.is_none() {
            self.channels.drop_towards(to);
        }
        lost
    }

    /// The timeout of subplan `tag` fired: the channel is too slow or a
    /// message was silently lost — the timer is the only signal the root
    /// ever gets. Re-sends to the same destination with exponential
    /// backoff (the tag stays, so whichever attempt's answer arrives
    /// first fills the slot; the bumped attempt lets the destination
    /// separate genuine retries from network duplicates) until the
    /// retries are spent. A subplan already settled makes this a no-op.
    pub(crate) fn timed_out(&mut self, ctx: &mut Ctx<Msg>, tag: u64) -> Option<Step> {
        // A timeout only ever fires off the base it was armed with.
        let base = self.timeout_us?;
        let pending = self.outstanding.get_mut(&tag)?;
        if pending.attempt >= self.retries {
            return self.lose(tag, ReplanCause::Timeout, Some(Event::TimedOut));
        }
        pending.attempt += 1;
        let (qid, dest, attempt) = (pending.qid, pending.dest, pending.attempt);
        let channel = self.channels.channel_to(self.id, dest);
        let bytes = pending.ship(ctx, tag, channel, self.origin);
        let events = [
            Some(Event::TimedOut),
            Some(Event::Retried { attempt, bytes }),
        ];
        let verdict = Verdict::Pending {
            timeout_us: Some(base << attempt.min(16)),
            probe_us: None,
        };
        Some(Step::new((qid, tag, dest), events, verdict))
    }

    /// One telemetry probe of subplan `tag`'s channel: compares the
    /// throughput observed over the channel's lifetime window against the
    /// fixed floor and gives up on a degraded-but-alive channel
    /// **before** its timeout would fire. A healthy channel re-arms the
    /// probe; a settled subplan retires it silently.
    pub(crate) fn probed(&mut self, ctx: &mut Ctx<Msg>, tag: u64) -> Option<Step> {
        if !self.slow_channel {
            return None;
        }
        let pending = self.outstanding.get(&tag)?;
        let (qid, dest, bytes) = (pending.qid, pending.dest, pending.bytes_observed);
        let window_us = ctx.now_us().saturating_sub(pending.dispatched_at_us).max(1);
        let floor_bpms = (PeerConfig::SLOW_CHANNEL_EXPECTED_BYTES_PER_MS
            * PeerConfig::SLOW_CHANNEL_FLOOR_PERMILLE
            / 1_000)
            .max(1);
        if bytes * 1_000 / window_us < floor_bpms {
            let slow = Event::SlowChannel {
                bytes,
                window_us,
                floor_bpms,
            };
            return self.lose(tag, ReplanCause::SlowChannel, Some(slow));
        }
        let verdict = Verdict::Pending {
            timeout_us: None,
            probe_us: Some(PeerConfig::SLOW_CHANNEL_PROBE_US),
        };
        let events = [None, None];
        Some(Step::new((qid, tag, dest), events, verdict))
    }

    /// Gives up on subplan `tag`: it leaves with the channel towards its
    /// destination (whatever adaptation dispatches next mints a fresh
    /// one). `observed` is what showed the loss, reported first.
    fn lose(&mut self, tag: u64, cause: ReplanCause, observed: Option<Event>) -> Option<Step> {
        let pending = self.outstanding.remove(&tag)?;
        let (qid, dest) = (pending.qid, pending.dest);
        self.channels.drop_towards(dest);
        let attempts = pending.attempt + 1;
        let lost = Some(Event::Lost { attempts, cause });
        let events = match observed {
            Some(_) => [observed, lost],
            None => [lost, None],
        };
        let verdict = Verdict::Lost { pending, cause };
        Some(Step::new((qid, tag, dest), events, verdict))
    }

    /// Forgets every outstanding subplan of `qid` (ubQL semantics: a full
    /// re-plan discards all on-going computations); their timers become
    /// no-ops.
    pub(crate) fn abandon(&mut self, qid: QueryId) {
        self.outstanding.retain(|_, p| p.qid != qid);
    }

    /// An ungraceful restart: every open channel and subplan in flight is
    /// lost.
    pub(crate) fn clear(&mut self) {
        self.channels = ChannelTable::new();
        self.outstanding.clear();
    }

    /// Hashes what a later call reads, for [`crate::PeerNode::digest`]:
    /// the tag counter, the channels, and each outstanding subplan in tag
    /// order — all of it but the clock its throughput window opened at.
    pub(crate) fn digest(&self, h: &mut impl Hasher) {
        (self.next_tag, &self.channels).hash(h);
        for (tag, p) in by_key(&self.outstanding) {
            (tag, p.qid, format!("{:?}", p.completion), p.filler).hash(h);
            (p.dest, &p.visited, p.attempt).hash(h);
            let stream = format!("{:?}", p.stream); // cursor, buffered seqs, rows, partial
            (p.bytes_observed, p.plan.to_string(), stream).hash(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node_of;
    use sqpeer_net::{ChannelId, ChannelState};
    use sqpeer_rdfs::{Node, Resource};

    const ROOT: PeerId = PeerId(1);
    const HOLDER: PeerId = PeerId(2);
    /// The base subplan timeout of [`dispatcher`].
    const T: u64 = 1_000;

    /// A dispatcher at `ROOT` with a timeout of `T` and two retries, whose
    /// answers stream.
    fn dispatcher(slow_channel: bool) -> Dispatcher {
        let config = PeerConfig {
            subplan_timeout_us: Some(T),
            subplan_retries: 2,
            slow_channel,
            stream_batch_rows: Some(1),
            ..PeerConfig::default()
        };
        Dispatcher::new(ROOT, &config)
    }

    fn ctx_at(now_us: u64) -> Ctx<Msg> {
        Ctx::detached(now_us, node_of(ROOT))
    }

    /// The messages `ctx` collected, in send order.
    fn sent(ctx: Ctx<Msg>) -> Vec<Msg> {
        let outbox = ctx.into_effects().outbox;
        outbox.into_iter().map(|(_, msg, _)| msg).collect()
    }

    /// The attempt numbers of the `Subplan`s among `msgs`.
    fn attempts(msgs: &[Msg]) -> Vec<u32> {
        msgs.iter()
            .filter_map(|m| match m {
                Msg::Subplan { attempt, .. } => Some(*attempt),
                _ => None,
            })
            .collect()
    }

    /// The channel an upstream root shipped query 9's tag 0 here on: a
    /// subplan answering it relays.
    const UPSTREAM: Completion = Completion::Channel((
        PeerChannel {
            id: ChannelId(9),
            root: PeerId(9),
            dest: ROOT,
            state: ChannelState::Open,
        },
        QueryId(9),
        0,
    ));

    /// A slot of frame 1: a subplan filling it does not relay.
    const SLOT: Completion = Completion::Parent { frame: 1, slot: 0 };

    /// Ships an (empty) subplan of query `qid` to `HOLDER` at t = 0 for
    /// `completion`, a hole-filler if `filler`, with probes asked for;
    /// returns the step and the `Subplan` sent.
    fn ship_for(d: &mut Dispatcher, qid: u64, completion: Completion, filler: bool) -> (Step, Msg) {
        let mut ctx = ctx_at(0);
        let plan = PlanNode::Union(Vec::new());
        let filler = filler.then(|| vec![ROOT]);
        let step = d.dispatch(
            &mut ctx,
            QueryId(qid),
            HOLDER,
            plan,
            completion,
            filler,
            true,
        );
        (step, sent(ctx).pop().expect("the subplan was sent"))
    }

    /// [`ship_for`] a relaying subplan.
    fn ship(d: &mut Dispatcher, qid: u64) -> (Step, Msg) {
        ship_for(d, qid, UPSTREAM, false)
    }

    /// Packet `seq` of a one-column stream answering `subplan`: `rows`
    /// rows named after the sequence number.
    fn packet(subplan: &Msg, seq: u32, last: bool, rows: usize) -> Packet {
        let Msg::Subplan { channel, .. } = subplan else {
            panic!("not a subplan: {subplan:?}");
        };
        let row = |i| vec![Node::Resource(Resource::new(format!("r{seq}.{i}")))];
        Packet {
            channel: *channel,
            seq,
            last,
            result: ResultSet::from_rows(vec!["X".into()], (0..rows).map(row).collect()),
            partial: false,
        }
    }

    fn ingest(
        d: &mut Dispatcher,
        ctx: &mut Ctx<Msg>,
        qid: u64,
        tag: u64,
        p: Packet,
    ) -> Option<Step> {
        d.data(ctx, node_of(HOLDER), QueryId(qid), tag, p)
    }

    /// Packet `p` of tag 0 of query 1.
    fn ingest_live(d: &mut Dispatcher, ctx: &mut Ctx<Msg>, p: Packet) -> Step {
        ingest(d, ctx, 1, 0, p).expect("tag 0 is live")
    }

    /// The rows of a relayed batch.
    fn read(drained: Option<Drained>) -> Rows {
        match drained {
            Some(Drained::Batch(batch)) => batch.rows,
            other => panic!("no batch: {other:?}"),
        }
    }

    /// At-least-once dispatch: timeouts `T`, `2T`, `4T`, the attempt
    /// number on every `Subplan`, and `Lost(Timeout)` once `retries`
    /// re-sends went unanswered.
    #[test]
    fn timeout_ladder_backs_off_then_gives_up() {
        let mut d = dispatcher(false);
        let (step, subplan) = ship(&mut d, 1);
        assert_eq!(attempts(&[subplan]), [0]);
        let mut armed = vec![step.verdict];
        for attempt in 1..=2 {
            let mut ctx = ctx_at(0);
            let step = d.timed_out(&mut ctx, 0).expect("still outstanding");
            assert_eq!(attempts(&sent(ctx)), [attempt]);
            assert_eq!(step.events[0], Some(Event::TimedOut));
            assert!(
                matches!(step.events[1], Some(Event::Retried { attempt: a, .. }) if a == attempt)
            );
            armed.push(step.verdict);
        }
        let delays: Vec<Option<u64>> = armed
            .iter()
            .map(|v| match v {
                Verdict::Pending { timeout_us, .. } => *timeout_us,
                other => panic!("not pending: {other:?}"),
            })
            .collect();
        assert_eq!(delays, [Some(T), Some(2 * T), Some(4 * T)]);

        let mut ctx = ctx_at(0);
        let step = d.timed_out(&mut ctx, 0).expect("still outstanding");
        assert!(sent(ctx).is_empty(), "retries are spent");
        let cause = ReplanCause::Timeout;
        let lost = Event::Lost { attempts: 3, cause };
        assert_eq!(step.events, [Some(Event::TimedOut), Some(lost)]);
        assert!(matches!(step.verdict, Verdict::Lost { cause: c, .. } if c == cause));
        assert_eq!(d.open_channels(), 0, "the channel goes with the subplan");
        assert!(d.timed_out(&mut ctx_at(0), 0).is_none());
    }

    /// The tag outlives a retry: whichever attempt's answer arrives first
    /// fills the slot, the other's finds nothing, and so does the timer.
    #[test]
    fn late_answer_after_a_retry_fills_once() {
        let mut d = dispatcher(false);
        let (_, subplan) = ship(&mut d, 1);
        d.timed_out(&mut ctx_at(T), 0).expect("retried");
        let mut ctx = ctx_at(T + 1);
        let step = ingest(&mut d, &mut ctx, 1, 0, packet(&subplan, 0, true, 1)).expect("live");
        assert_eq!((step.qid, step.tag, step.dest), (QueryId(1), 0, HOLDER));
        let Verdict::Answered {
            completion,
            result,
            last,
            ..
        } = step.verdict
        else {
            panic!("a complete single-packet answer: {:?}", step.verdict);
        };
        assert!(matches!(
            completion,
            Completion::Channel((_, QueryId(9), 0))
        ));
        assert_eq!(result.len(), 1);
        assert_eq!(last, Some(Drained::Batch(result)));
        assert!(ingest(&mut d, &mut ctx, 1, 0, packet(&subplan, 0, true, 1)).is_none());
        assert!(d.timed_out(&mut ctx, 0).is_none());
        assert!(sent(ctx).is_empty(), "a complete stream owes no credit");
    }

    /// Reordered and duplicated packets drain once, in sequence order;
    /// every packet of the still-open stream is acknowledged with exactly
    /// one credit and every repeat is reported as a dropped duplicate.
    #[test]
    fn reordered_and_duplicated_packets_drain_in_order() {
        let mut d = dispatcher(false);
        let (_, subplan) = ship(&mut d, 1);
        let mut ctx = ctx_at(5);
        let mut dups = 0;
        let mut feed = |d: &mut Dispatcher, seq, last| {
            let step = ingest(d, &mut ctx, 1, 0, packet(&subplan, seq, last, 1)).expect("live");
            if !last {
                assert!(matches!(step.events[0], Some(Event::CreditGranted { .. })));
            }
            dups += usize::from(step.events[1] == Some(Event::DuplicateDropped));
            step.verdict
        };
        let names =
            |rows: &Rows| -> Vec<String> { rows.iter().map(|r| format!("{r:?}")).collect() };
        // 1 waits for 0; 0 releases both; their repeats release nothing.
        assert!(matches!(feed(&mut d, 1, false), Verdict::Pending { .. }));
        let Verdict::Drained { batch, .. } = feed(&mut d, 0, false) else {
            panic!("0 and 1 drain together");
        };
        let batch = read(Some(batch));
        assert_eq!(batch.len(), 2);
        let in_order = names(&batch);
        assert!(matches!(feed(&mut d, 0, false), Verdict::Pending { .. }));
        assert!(matches!(feed(&mut d, 1, false), Verdict::Pending { .. }));
        let Verdict::Answered { result, last, .. } = feed(&mut d, 2, true) else {
            panic!("the last packet completes the stream");
        };
        assert_eq!(read(last).len(), 1);
        assert_eq!(names(&result.rows)[..2], in_order[..]);
        assert_eq!(result.len(), 3);

        assert_eq!(dups, 2);
        let effects = ctx.into_effects();
        assert_eq!(effects.stream_ttfr, [(node_of(HOLDER), 5)]);
        assert_eq!(effects.outbox.len(), 4, "one credit per non-final packet");
        for (to, msg, _) in &effects.outbox {
            assert_eq!(*to, node_of(HOLDER));
            assert!(matches!(
                msg,
                Msg::Credit {
                    credits: 1,
                    tag: 0,
                    ..
                }
            ));
        }
    }

    /// A subplan filling a parent slot relays nothing: a one-packet
    /// answer lands whole in the result, and the verdict only says that
    /// rows came with it.
    #[test]
    fn an_unread_single_packet_answer_lands_whole() {
        let mut d = dispatcher(false);
        let (_, subplan) = ship_for(&mut d, 1, SLOT, false);
        let p = packet(&subplan, 0, true, 3);
        let rows = p.result.rows.clone();
        let step = ingest_live(&mut d, &mut ctx_at(1), p);
        assert!(matches!(
            step.events,
            [Some(Event::Answered { rows: 3, .. }), None]
        ));
        let Verdict::Answered { last, result, .. } = step.verdict else {
            panic!("a complete single-packet answer: {:?}", step.verdict);
        };
        assert_eq!(last, Some(Drained::Arrived));
        assert_eq!(result.rows, rows);
    }

    /// A hole-filler's rows are nobody's until it answers: its drained
    /// packets are credited but not reported, even towards a channel, and
    /// its answer brings no last batch.
    #[test]
    fn a_hole_filler_reports_only_its_answer() {
        let mut d = dispatcher(false);
        let (_, subplan) = ship_for(&mut d, 1, UPSTREAM, true);
        let mut ctx = ctx_at(1);
        let mut feed = |seq, last| ingest_live(&mut d, &mut ctx, packet(&subplan, seq, last, 2));
        let step = feed(0, false);
        assert!(matches!(step.events[0], Some(Event::CreditGranted { .. })));
        assert!(matches!(
            step.verdict,
            Verdict::Pending {
                timeout_us: None,
                probe_us: None
            }
        ));
        let Verdict::Answered { last, result, .. } = feed(1, true).verdict else {
            panic!("packet 1 completes the stream");
        };
        assert_eq!((last, result.len()), (None, 4));
    }

    /// One answer, one set of columns: a later packet carrying rows under
    /// columns other than the first packet's is refused — the subplan is
    /// lost the way a `SubplanFailed` loses it, with nothing answered.
    #[test]
    fn a_packet_changing_the_columns_is_refused() {
        let mut d = dispatcher(false);
        let (_, subplan) = ship_for(&mut d, 1, SLOT, false);
        let mut ctx = ctx_at(1);
        let first = ingest_live(&mut d, &mut ctx, packet(&subplan, 0, false, 1));
        assert!(matches!(first.verdict, Verdict::Drained { .. }));
        let mut wider = packet(&subplan, 1, true, 1);
        wider.result = ResultSet::from_rows(
            vec!["X".into(), "Y".into()],
            vec![vec![Node::Resource(Resource::new("r1")); 2]],
        );
        let step = ingest_live(&mut d, &mut ctx, wider);
        let cause = ReplanCause::Refused;
        let lost = Event::Lost { attempts: 1, cause };
        assert_eq!(step.events, [Some(Event::Refused), Some(lost)]);
        assert!(matches!(step.verdict, Verdict::Lost { cause: c, .. } if c == cause));
        assert!(d.outstanding.is_empty());
        assert_eq!(d.open_channels(), 0);
    }

    /// A repeated packet of an unrelayed subplan is reported as a dropped
    /// duplicate, never added to the answer.
    #[test]
    fn an_unread_duplicate_is_only_counted() {
        let mut d = dispatcher(false);
        let (_, subplan) = ship_for(&mut d, 1, SLOT, false);
        let mut ctx = ctx_at(1);
        let mut feed = |seq, last| ingest_live(&mut d, &mut ctx, packet(&subplan, seq, last, 1));
        assert!(matches!(feed(0, false).verdict, Verdict::Drained { .. }));
        let dup = feed(0, false);
        assert!(matches!(dup.verdict, Verdict::Pending { .. }));
        assert_eq!(dup.events[1], Some(Event::DuplicateDropped));
        let Verdict::Answered { last, result, .. } = feed(1, true).verdict else {
            panic!("packet 1 completes the stream");
        };
        assert_eq!((last, result.len()), (Some(Drained::Arrived), 2));
    }

    /// A probe never comes before the grace period, re-arms while the
    /// channel's window holds the floor and gives up below it.
    #[test]
    fn probe_rearms_above_the_floor_and_gives_up_below() {
        let first = PeerConfig::SLOW_CHANNEL_GRACE_US + PeerConfig::SLOW_CHANNEL_PROBE_US;
        let mut d = dispatcher(true);
        let (step, subplan) = ship(&mut d, 1);
        let Verdict::Pending { probe_us, .. } = step.verdict else {
            panic!("dispatched subplans are pending");
        };
        assert_eq!(probe_us, Some(first));
        // 400 rows in the first window: ≈ 16 B/ms against a 10 B/ms floor.
        ingest(
            &mut d,
            &mut ctx_at(first / 2),
            1,
            0,
            packet(&subplan, 0, false, 400),
        );
        let step = d.probed(&mut ctx_at(first), 0).expect("outstanding");
        assert_eq!(step.events, [None, None]);
        let rearm = Some(PeerConfig::SLOW_CHANNEL_PROBE_US);
        assert!(
            matches!(step.verdict, Verdict::Pending { timeout_us: None, probe_us } if probe_us == rearm)
        );
        // Nothing since: the same bytes over ten times the window.
        let step = d.probed(&mut ctx_at(10 * first), 0).expect("outstanding");
        let cause = ReplanCause::SlowChannel;
        assert!(matches!(
            step.events[0],
            Some(Event::SlowChannel { floor_bpms: 10, .. })
        ));
        assert_eq!(step.events[1], Some(Event::Lost { attempts: 1, cause }));
        assert!(matches!(step.verdict, Verdict::Lost { cause: c, .. } if c == cause));
        assert!(d.probed(&mut ctx_at(11 * first), 0).is_none());

        // Probes off, or a forwarding peer's dispatch: no probe is armed.
        let (step, _) = ship(&mut dispatcher(false), 1);
        assert!(matches!(
            step.verdict,
            Verdict::Pending { probe_us: None, .. }
        ));
    }

    /// `SubplanFailed` and delivery failures naming a tag that is not
    /// outstanding — or, for the remote-chosen `qid`, another query's —
    /// settle nothing; naming a live one loses it.
    #[test]
    fn refusals_and_delivery_failures_of_unknown_tags_are_no_ops() {
        let mut d = dispatcher(false);
        let (_, subplan) = ship(&mut d, 1);
        assert!(d.refused(QueryId(1), 7).is_none());
        assert!(d.refused(QueryId(2), 0).is_none(), "tag 0 is query 1's");
        let mut stray = subplan.clone();
        if let Msg::Subplan { tag, .. } = &mut stray {
            *tag = 7;
        }
        assert!(d.undelivered(HOLDER, &stray).is_none());
        assert_eq!(d.outstanding.len(), 1);

        let step = d.undelivered(HOLDER, &subplan).expect("tag 0 was live");
        let cause = ReplanCause::Delivery;
        assert_eq!(
            step.events,
            [Some(Event::Lost { attempts: 1, cause }), None]
        );
        let (_, subplan) = ship(&mut d, 1);
        assert!(matches!(subplan, Msg::Subplan { tag: 1, .. }));
        let step = d.refused(QueryId(1), 1).expect("tag 1 is live");
        let cause = ReplanCause::Refused;
        assert_eq!(
            step.events,
            [
                Some(Event::Refused),
                Some(Event::Lost { attempts: 1, cause })
            ]
        );
        assert!(matches!(step.verdict, Verdict::Lost { cause: c, .. } if c == cause));
        assert!(d.outstanding.is_empty());
    }

    /// A full re-plan forgets the query's subplans — half-received
    /// streams included — and nobody else's.
    #[test]
    fn abandon_forgets_one_query_only() {
        let mut d = dispatcher(false);
        let (_, first) = ship(&mut d, 1);
        ship(&mut d, 2);
        ship(&mut d, 1);
        ingest(&mut d, &mut ctx_at(1), 1, 0, packet(&first, 0, false, 1));
        d.abandon(QueryId(1));
        assert_eq!(d.outstanding.keys().collect::<Vec<_>>(), [&1]);
        let mut ctx = ctx_at(2);
        assert!(ingest(&mut d, &mut ctx, 1, 0, packet(&first, 1, true, 1)).is_none());
        assert!(d.timed_out(&mut ctx, 0).is_none());
        assert!(d.timed_out(&mut ctx, 2).is_none());
        assert!(sent(ctx).is_empty());
        assert!(
            d.timed_out(&mut ctx_at(2), 1).is_some(),
            "query 2 is untouched"
        );
    }

    /// A dispatcher that has received the first packet of a five-packet
    /// stream from `HOLDER` (tag 0 of query 1) and nothing more.
    fn half_received_stream() -> Dispatcher {
        let mut d = dispatcher(false);
        let (_, subplan) = ship(&mut d, 1);
        ingest(&mut d, &mut ctx_at(0), 1, 0, packet(&subplan, 0, false, 1));
        let stream = &d.outstanding[&0].stream;
        assert_eq!((stream.recv.next_seq(), stream.drained.rows.len()), (1, 1));
        d
    }

    /// The orphaned-reassembly leak, timeout path: the holder streams its
    /// first batch and goes silent; once the retry ladder is exhausted
    /// the subplan leaves with the rows it had reassembled.
    #[test]
    fn abandoned_stream_leaves_no_reassembly_after_timeout_ladder() {
        let mut d = half_received_stream();
        let mut verdict = None;
        for _ in 0..=d.retries {
            verdict = d.timed_out(&mut ctx_at(0), 0).map(|step| step.verdict);
        }
        let Some(Verdict::Lost { pending, .. }) = verdict else {
            panic!("the ladder gives out: {verdict:?}");
        };
        assert_eq!(pending.stream.drained.rows.len(), 1);
        assert!(d.outstanding.is_empty(), "no reassembly outlives its tag");
        assert_eq!(d.open_channels(), 0);
    }

    /// The same leak through `SubplanFailed`: the holder gives up on the
    /// subplan mid-stream.
    #[test]
    fn abandoned_stream_leaves_no_reassembly_after_subplan_failed() {
        let mut d = half_received_stream();
        let step = d.refused(QueryId(1), 0).expect("tag 0 is live");
        assert!(matches!(step.verdict, Verdict::Lost { .. }));
        assert!(d.outstanding.is_empty(), "no reassembly outlives its tag");
        assert_eq!(d.open_channels(), 0);
    }
}
