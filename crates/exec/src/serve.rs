//! A channel's destination end (§2.4: "data packets are sent through each
//! channel from the destination to the root"). [`Server`] keeps, under a
//! served subplan's identity `(root, qid, tag)`, the idempotent-receive
//! log ([`ServedLog`]) and the outgoing streams: an answer larger than one
//! packet leaves as a credit-gated [`Sender`], produced batch by batch
//! under the processing-load model or relayed from a shipped subplan
//! still streaming in.
//! Like `dispatch::Dispatcher` it sends through the peer's [`Ctx`], copies
//! its configuration at construction and hands back the delays it wants
//! armed: the timer table, and with it the §2.5 slots, is the peer's.

use crate::msg::{Msg, PeerChannel, QueryId};
use crate::peer::{by_key, PeerConfig};
use crate::send;
use crate::stream::Sender;
use sqpeer_net::Ctx;
use sqpeer_rdfs::FxHashMap;
use sqpeer_routing::PeerId;
use sqpeer_rql::{ResultSet, Rows, UnionAcc};
use sqpeer_store::BaseStatistics;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Key of an outgoing stream: the stream's consumer plus the subplan
/// identity it answers, mirroring the `served` dedup log.
pub(crate) type StreamKey = (PeerId, QueryId, u64);

/// The subplan an answer replies to: the channel it arrived on, its query
/// and its tag.
pub(crate) type Reply = (PeerChannel, QueryId, u64);

/// The idempotent-receive log: highest attempt served per subplan
/// identity `(root peer, query, tag)` — keyed on the transport-agnostic
/// [`PeerId`], not a simulator node index, so the log survives a change
/// of substrate. Network duplicates (attempt ≤ served) are dropped;
/// genuine retries (attempt > served) re-evaluate.
///
/// Bounded, in two generations: identities are recorded in `recent`
/// until it holds [`ServedLog::GENERATION`] of them, then `recent`
/// becomes `older` and what `older` held is forgotten — at most
/// [`ServedLog::CAP`] identities, always including the `GENERATION` most
/// recent, and a long-running peer's log does not grow with the queries
/// it has ever served. A duplicate trails its original by a network
/// delay, well inside that window; one that arrives after its identity
/// was forgotten is merely served again, and its answer is dropped at the
/// root, which no longer holds the tag (or, if it still does, lands in
/// the slot the original was for, deduplicated by sequence number).
#[derive(Debug, Default)]
pub(crate) struct ServedLog {
    recent: FxHashMap<StreamKey, u32>,
    older: FxHashMap<StreamKey, u32>,
}

impl ServedLog {
    const GENERATION: usize = 128;
    pub(crate) const CAP: usize = 2 * Self::GENERATION;

    /// Records `attempt` of subplan `key`. `false` for a duplicate: an
    /// attempt no higher than one already served.
    pub(crate) fn admit(&mut self, key: StreamKey, attempt: u32) -> bool {
        if let Some(seen) = self.recent.get_mut(&key) {
            let retry = attempt > *seen;
            *seen = (*seen).max(attempt);
            return retry;
        }
        if self.older.get(&key).is_some_and(|&seen| attempt <= seen) {
            return false;
        }
        if self.recent.len() == Self::GENERATION {
            std::mem::swap(&mut self.recent, &mut self.older);
            self.recent.clear();
        }
        self.recent.insert(key, attempt);
        true
    }

    pub(crate) fn len(&self) -> usize {
        self.recent.len() + self.older.len()
    }
}

/// One outgoing data-packet stream: the credit-gated [`Sender`] plus
/// what its packets are addressed and closed with.
#[derive(Debug)]
struct OutgoingStream {
    to: Reply,
    columns: Arc<[String]>,
    core: Sender<Rows>,
    /// Carried by the final packet.
    partial: bool,
    stats: Option<BaseStatistics>,
    /// Relaying streams dedup against the rows already queued
    /// (`None` for pre-chunked result streams, whose batches are
    /// disjoint by construction).
    sent_acc: Option<UnionAcc>,
}

impl OutgoingStream {
    /// A stream of `core`'s packets replying to `to` under `columns`,
    /// closed with `partial` and `stats`; a `forwarding` one sends each
    /// row once.
    fn new(
        to: Reply,
        columns: Arc<[String]>,
        core: Sender<Rows>,
        partial: bool,
        stats: Option<BaseStatistics>,
        forwarding: bool,
    ) -> Self {
        let sent_acc = forwarding.then(|| UnionAcc::new(ResultSet::empty(columns.clone())));
        OutgoingStream {
            to,
            columns,
            core,
            partial,
            stats,
            sent_acc,
        }
    }
}

/// What a peer keeps as the destination of other roots' channels (see the
/// module documentation).
#[derive(Debug)]
pub(crate) struct Server {
    /// `PeerConfig::stream_batch_rows`: answers stream, and assembling
    /// unions forward, only when it is set.
    batch_rows: Option<usize>,
    /// `PeerConfig::stream_credit_window`.
    credit_window: u32,
    /// `PeerConfig::processing_us_per_row`: the pace of production.
    us_per_row: u64,
    /// Which subplan attempts were served (see [`ServedLog`]).
    pub(crate) served: ServedLog,
    outgoing: FxHashMap<StreamKey, OutgoingStream>,
    /// High-water mark of data packets in flight on any single outgoing
    /// stream.
    pub(crate) max_inflight: u32,
    /// The statistics last attached towards each root (§2.4), and their count.
    last_stats: FxHashMap<PeerId, BaseStatistics>,
    pub(crate) stats_attached: u64,
}

impl Server {
    pub(crate) fn new(config: &PeerConfig) -> Self {
        Server {
            batch_rows: config.stream_batch_rows,
            credit_window: config.stream_credit_window,
            us_per_row: config.processing_us_per_row,
            served: ServedLog::default(),
            outgoing: FxHashMap::default(),
            max_inflight: 0,
            last_stats: FxHashMap::default(),
            stats_attached: 0,
        }
    }

    /// What the final packet answering `key` carries: `stats`, unless its
    /// root holds them already and this is a first attempt (a retry's
    /// earlier packet may have been lost, as may one the log forgot).
    fn attach(&mut self, key: StreamKey, stats: Option<BaseStatistics>) -> Option<BaseStatistics> {
        let stats = stats?;
        let first = self.served.recent.get(&key).or(self.served.older.get(&key)) == Some(&0);
        if first && self.last_stats.get(&key.0) == Some(&stats) {
            return None;
        }
        self.stats_attached += 1;
        self.last_stats.insert(key.0, stats.clone());
        Some(stats)
    }

    /// The most rows one packet carries.
    fn batch(&self) -> usize {
        self.batch_rows.unwrap_or(usize::MAX).max(1)
    }

    /// Does `result` leave as one packet?
    pub(crate) fn fits_one_packet(&self, result: &ResultSet) -> bool {
        result.rows.len() <= self.batch()
    }

    /// Sends `result`, the whole answer to `to`. A forwarding stream that
    /// already relayed its rows closes with those not yet sent; otherwise
    /// the answer leaves as one `Data` packet, or as a credit-gated
    /// stream of which at most `stream_credit_window` packets are in
    /// flight until the root credits them back. The last packet carries
    /// `partial`, and `stats` if the root has not got them yet.
    pub(crate) fn answer(
        &mut self,
        ctx: &mut Ctx<Msg>,
        to: Reply,
        result: ResultSet,
        partial: bool,
        stats: Option<BaseStatistics>,
    ) {
        let (channel, qid, tag) = to;
        let key: StreamKey = (channel.root, qid, tag);
        if let Some(stream) = self.outgoing.get_mut(&key).filter(|s| !s.core.finished()) {
            let delta = stream.sent_acc.as_mut().map(|acc| acc.union_delta(&result));
            stream.core.push(delta.unwrap_or_default());
            stream.core.finish();
            (stream.partial, stream.stats) = (partial, stats);
        } else if self.fits_one_packet(&result) {
            let msg = Msg::Data {
                channel,
                qid,
                tag,
                result,
                partial,
                stats: self.attach(key, stats),
                seq: 0,
                last: true,
            };
            send(ctx, channel.root, msg);
            return;
        } else {
            let mut core = Sender::new(self.credit_window);
            result
                .rows
                .chunks(self.batch())
                .for_each(|rows| core.push(rows));
            core.finish();
            let stream = OutgoingStream::new(to, result.columns, core, partial, stats, false);
            self.outgoing.insert(key, stream);
        }
        self.flush(ctx, key);
    }

    /// Incremental production under the processing-load model: `result`,
    /// the answer to `to`, is "produced" batch by batch over virtual
    /// time, and each batch enters the credit-gated stream the moment its
    /// production tick fires. Returns the stream's key and the delay of
    /// its first tick — one batch's processing charge, not the whole
    /// result's.
    pub(crate) fn pace(
        &mut self,
        to: Reply,
        result: ResultSet,
        stats: Option<BaseStatistics>,
    ) -> (StreamKey, u64) {
        let key: StreamKey = (to.0.root, to.1, to.2);
        let unproduced: std::collections::VecDeque<Rows> =
            result.rows.chunks(self.batch()).collect();
        let first_rows = unproduced.front().map_or(0, Rows::len) as u64;
        let core = Sender::paced(self.credit_window, unproduced);
        let stream = OutgoingStream::new(to, result.columns, core, false, stats, false);
        self.outgoing.insert(key, stream);
        (key, self.us_per_row * (first_rows + 1))
    }

    /// A production tick of paced stream `key`: one more batch exists.
    /// `None` when the stream is gone; otherwise the delay of the next
    /// tick, `None` once the last batch exists. Sends nothing: the caller
    /// [`flush`](Self::flush)es.
    pub(crate) fn produce(&mut self, key: StreamKey) -> Option<Option<u64>> {
        let stream = self.outgoing.get_mut(&key)?;
        let rows = stream.core.produce().map(Rows::len);
        Some(rows.map(|rows| self.us_per_row * rows as u64))
    }

    /// Relays `contrib` — rows drained from a subplan answering `to`
    /// before it completes — on the forwarding stream towards the root, opened on
    /// first use: only rows not yet sent, as far as the credit window
    /// allows. A no-op unless answers stream.
    pub(crate) fn forward(&mut self, ctx: &mut Ctx<Msg>, to: Reply, contrib: ResultSet) {
        if self.batch_rows.is_none() {
            return;
        }
        let key: StreamKey = (to.0.root, to.1, to.2);
        let window = self.credit_window;
        let stream = self.outgoing.entry(key).or_insert_with(|| {
            let core = Sender::new(window);
            OutgoingStream::new(to, contrib.columns.clone(), core, false, None, true)
        });
        if stream.core.finished() {
            return;
        }
        let delta = stream
            .sent_acc
            .as_mut()
            .map(|acc| acc.union_delta(&contrib));
        let delta = delta.unwrap_or_default();
        if !delta.is_empty() {
            stream.core.push(delta);
        }
        self.flush(ctx, key);
    }

    /// Flow control: the root consumed `credits` packets of stream `key`
    /// — shrink its in-flight count and push what the window now allows.
    pub(crate) fn credit(&mut self, ctx: &mut Ctx<Msg>, key: StreamKey, credits: u32) {
        if let Some(stream) = self.outgoing.get_mut(&key) {
            stream.core.grant(credits);
            self.flush(ctx, key);
        }
    }

    /// Refuses the subplan `to` replies to: nobody is left to ask. A
    /// forwarding stream an earlier attempt pipelined is superseded.
    pub(crate) fn refuse(&mut self, ctx: &mut Ctx<Msg>, to: Reply) {
        let (channel, qid, tag) = to;
        self.outgoing.remove(&(channel.root, qid, tag));
        send(ctx, channel.root, Msg::SubplanFailed { channel, qid, tag });
    }

    /// Sends as many queued packets of `key`'s stream as the credit
    /// window allows. The final packet carries the partial flag and the
    /// statistics the root lacks, and retires the stream.
    pub(crate) fn flush(&mut self, ctx: &mut Ctx<Msg>, key: StreamKey) {
        let Some(mut stream) = self.outgoing.remove(&key) else {
            return;
        };
        let (channel, qid, tag) = stream.to;
        while let Some((seq, rows, last)) = stream.core.next_packet() {
            let msg = Msg::Data {
                channel,
                qid,
                tag,
                result: ResultSet {
                    columns: stream.columns.clone(),
                    rows,
                },
                partial: last && stream.partial,
                stats: self.attach(key, if last { stream.stats.take() } else { None }),
                seq,
                last,
            };
            self.max_inflight = self.max_inflight.max(stream.core.inflight());
            send(ctx, channel.root, msg);
            if last {
                return;
            }
        }
        self.outgoing.insert(key, stream);
    }

    /// An ungraceful restart: every outgoing stream, the log of what was
    /// served and the memo of what statistics each root holds are lost.
    pub(crate) fn clear(&mut self) {
        self.outgoing.clear();
        self.served = ServedLog::default();
        self.last_stats.clear();
    }

    /// Hashes what a later call reads, for [`crate::PeerNode::digest`]:
    /// each outgoing stream's ledger in key order, the served log, the stats memo.
    pub(crate) fn digest(&self, h: &mut impl Hasher) {
        for (key, s) in by_key(&self.outgoing) {
            let ledger = (s.to.0, &s.columns, &s.core, s.partial, &s.sent_acc);
            (key, format!("{ledger:?}"), s.stats.is_some()).hash(h);
        }
        (by_key(&self.served.recent), by_key(&self.served.older)).hash(h);
        format!("{:?}", by_key(&self.last_stats)).hash(h);
    }
}

#[cfg(test)]
impl Server {
    /// Stream `key`'s channel, packets in flight and next sequence number.
    pub(crate) fn stream(&self, key: &StreamKey) -> (PeerChannel, u32, u32) {
        let s = &self.outgoing[key];
        (s.to.0, s.core.inflight(), s.core.next_seq())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node_of;
    use sqpeer_net::{ChannelTable, NodeId};
    use sqpeer_rdfs::{Node, Resource};

    const ROOT: PeerId = PeerId(1);
    const HOLDER: PeerId = PeerId(2);

    /// The idempotent-receive log drops duplicates, admits retries, never
    /// holds more than its bound and never forgets one of the
    /// `GENERATION` most recent identities.
    #[test]
    fn served_log_is_bounded_and_remembers_the_recent() {
        let key = |tag: u64| (PeerId(1), QueryId(0), tag);
        let mut log = ServedLog::default();
        assert!(log.admit(key(0), 0));
        assert!(!log.admit(key(0), 0), "a duplicate was admitted");
        assert!(log.admit(key(0), 1), "a retry was dropped");
        assert!(!log.admit(key(0), 0), "a stale attempt was admitted");
        for tag in 1..=10 * ServedLog::CAP as u64 {
            assert!(log.admit(key(tag), 0));
            assert!(log.len() <= ServedLog::CAP);
            let oldest_kept = tag.saturating_sub(ServedLog::GENERATION as u64 - 1);
            for recent in [oldest_kept, (oldest_kept + tag) / 2, tag] {
                assert!(!log.admit(key(recent), 0), "forgot {recent} at {tag}");
            }
        }
        // Forgotten long ago: served again.
        assert!(log.admit(key(0), 0));
    }

    /// A server at `HOLDER` streaming `batch_rows`-row packets, two in
    /// flight, at `us_per_row` virtual µs per produced row.
    fn server(batch_rows: Option<usize>, us_per_row: u64) -> Server {
        Server::new(&PeerConfig {
            stream_batch_rows: batch_rows,
            stream_credit_window: 2,
            processing_us_per_row: us_per_row,
            ..PeerConfig::default()
        })
    }

    /// Subplan tag 0 of query 1, shipped by `ROOT`.
    fn reply() -> Reply {
        let channel = ChannelTable::new().channel_to(ROOT, HOLDER);
        (channel, QueryId(1), 0)
    }

    /// A one-column table of rows `from..to`.
    fn rows(from: u32, to: u32) -> ResultSet {
        let row = |i| vec![Node::Resource(Resource::new(format!("r{i}")))];
        ResultSet::from_rows(vec!["X".into()], (from..to).map(row).collect())
    }

    /// The `Data` packets `ctx` collected: `(seq, rows, last, partial)`.
    fn packets(ctx: Ctx<Msg>) -> Vec<(u32, usize, bool, bool)> {
        let outbox = ctx.into_effects().outbox;
        let packet = |(to, msg, _)| match msg {
            Msg::Data {
                seq,
                result,
                last,
                partial,
                ..
            } if to == node_of(ROOT) => (seq, result.len(), last, partial),
            other => panic!("not a packet to the root: {other:?}"),
        };
        outbox.into_iter().map(packet).collect()
    }

    fn ctx() -> Ctx<Msg> {
        Ctx::detached(0, node_of(HOLDER))
    }

    /// An answer within one batch leaves as one packet and keeps no
    /// stream; a larger one streams, two packets in flight until credits
    /// come back, and the last packet closes it with the partial flag.
    #[test]
    fn an_answer_streams_under_the_credit_window() {
        let mut s = server(Some(2), 0);
        let mut c = ctx();
        s.answer(&mut c, reply(), rows(0, 2), false, None);
        assert_eq!(packets(c), [(0, 2, true, false)]);
        assert!(s.outgoing.is_empty());

        let mut c = ctx();
        s.answer(&mut c, reply(), rows(0, 7), true, None);
        assert_eq!(packets(c), [(0, 2, false, false), (1, 2, false, false)]);
        let key = (ROOT, QueryId(1), 0);
        assert_eq!(s.stream(&key).1, 2);
        let mut c = ctx();
        s.credit(&mut c, key, 5);
        assert_eq!(packets(c), [(2, 2, false, false), (3, 1, true, true)]);
        assert!(s.outgoing.is_empty(), "the last packet retires the stream");
        assert_eq!(s.max_inflight, 2);
        s.credit(&mut ctx(), key, 1);
    }

    /// A subplan still streaming in relays each row once, before its answer
    /// is complete; the answer then closes the stream with what was not
    /// relayed.
    #[test]
    fn a_forwarding_stream_sends_each_row_once() {
        let mut s = server(Some(8), 0);
        let mut c = ctx();
        s.forward(&mut c, reply(), rows(0, 3));
        s.forward(&mut c, reply(), rows(1, 4));
        assert_eq!(packets(c), [(0, 3, false, false), (1, 1, false, false)]);
        let mut c = ctx();
        let key = (ROOT, QueryId(1), 0);
        s.credit(&mut c, key, 2);
        s.answer(&mut c, reply(), rows(0, 6), false, None);
        assert_eq!(packets(c), [(2, 2, true, false)]);

        let mut unstreamed = server(None, 0);
        unstreamed.forward(&mut ctx(), reply(), rows(0, 3));
        assert!(unstreamed.outgoing.is_empty(), "forwarding needs streaming");
    }

    /// A paced answer's first tick comes after one batch's processing
    /// charge and each later one after the batch it produces; production
    /// sends nothing by itself, and the last tick says so.
    #[test]
    fn paced_production_ticks_once_per_batch() {
        let mut s = server(Some(2), 10);
        assert!(s.fits_one_packet(&rows(0, 2)) && !s.fits_one_packet(&rows(0, 3)));
        let (key, first) = s.pace(reply(), rows(0, 5), None);
        assert_eq!(first, 10 * 3);
        let mut ticks = Vec::new();
        let mut c = ctx();
        while let Some(next) = s.produce(key) {
            ticks.push(next);
            s.flush(&mut c, key);
            s.credit(&mut c, key, 2);
        }
        assert_eq!(ticks, [Some(20), Some(10), None]);
        let sent = packets(c);
        assert_eq!(sent.len(), 3);
        assert_eq!(sent.last(), Some(&(2, 1, true, false)));
        assert!(s.produce(key).is_none(), "the stream is gone");
    }

    /// A destination attaches its base's statistics only when the root
    /// has not got them: once over an unchanged base (on a single packet
    /// or a stream's last), and again after a write, on a retried attempt
    /// and after a restart.
    #[test]
    fn statistics_ride_once_per_change() {
        let snapshot = |instances| {
            let class = sqpeer_store::ClassStats { instances };
            BaseStatistics::from_raw_parts(vec![], vec![class], vec![], vec![class])
        };
        let (old, new) = (snapshot(1), snapshot(2));
        let mut s = server(Some(1), 0);
        let carried = |s: &mut Server, tag: u64, attempt: u32, stats: &BaseStatistics| {
            let (channel, qid, _) = reply();
            s.served.admit((ROOT, qid, tag), attempt);
            let mut c = ctx();
            let to = (channel, qid, tag);
            s.answer(
                &mut c,
                to,
                rows(0, 1 + tag as u32 % 2),
                false,
                Some(stats.clone()),
            );
            let outbox = c.into_effects().outbox;
            let with_stats =
                |(_, msg, _): &(_, Msg, _)| matches!(msg, Msg::Data { stats: Some(_), .. });
            outbox.iter().filter(|p| with_stats(p)).count()
        };
        assert_eq!(carried(&mut s, 0, 0, &old), 1);
        assert_eq!(
            carried(&mut s, 1, 0, &old),
            0,
            "an unchanged snapshot rode again"
        );
        assert_eq!(
            carried(&mut s, 2, 0, &snapshot(1)),
            0,
            "an equal snapshot rode"
        );
        assert_eq!(carried(&mut s, 3, 0, &new), 1, "a write went unreported");
        assert_eq!(carried(&mut s, 4, 0, &new), 0);
        assert_eq!(
            carried(&mut s, 4, 1, &new),
            1,
            "a retry replaces a lost packet"
        );
        s.clear();
        assert_eq!(
            carried(&mut s, 5, 0, &new),
            1,
            "a restart forgets what roots hold"
        );
        assert_eq!(s.stats_attached, 4);
    }

    /// A refusal supersedes the forwarding stream it answers for.
    #[test]
    fn a_refusal_drops_the_stream() {
        let mut s = server(Some(1), 0);
        s.forward(&mut ctx(), reply(), rows(0, 3));
        let mut c = ctx();
        s.refuse(&mut c, reply());
        assert!(s.outgoing.is_empty());
        let sent = c.into_effects().outbox;
        assert!(matches!(
            sent[..],
            [(NodeId(1), Msg::SubplanFailed { tag: 0, .. }, _)]
        ));
    }
}
