//! Peer-side state of the hierarchical observability plane.
//!
//! Each peer with an [`ObsConfig`] keeps an [`ObsState`]: the rollup rows
//! it owns, a bounded [`FlightRing`] of protocol `Event`s, and a small
//! slow-query log. Members push what changed up the cluster tree on a
//! period (`Msg::ObsPush`); heads fold it and exchange it between heads,
//! so any head serves a near-global snapshot without an O(peers) scrape
//! and without ever re-shipping cold state. Per-link histograms stay
//! with the transport's telemetry (`net::telemetry`); the plane keeps
//! counts only.
//!
//! What travels is a [`Rollup`]: rows, each under a key that exactly one
//! peer — its owner — ever updates, carrying that owner's cumulative
//! value. A link row `(from, to) → (messages, bytes)` is owned by `to`;
//! a pattern row `(root, fingerprint) → PatternEntry` by the root that
//! recorded it. A peer records its own observations straight into such
//! rows. Rows only grow (obs state survives a restart), so one rule
//! folds both legs and the snapshot a peer serves: per key, keep the
//! row with the higher count. That fold is idempotent and order-free —
//! a duplicated, reordered or stale push changes nothing — and one rule
//! diffs them: a push carries, whole, the rows its sender holds newer
//! than it last pushed, and an idle peer has nothing to push. A row lost
//! in transit returns only with that row's next change.
//!
//! Two rules keep the head snapshots equal to the fold of every member's
//! own rows and the plane quiet:
//!
//! * **No self-observation**: `ObsPush` receipts are never counted into
//!   a link row, so the plane does not watch itself and a quiet overlay
//!   converges instead of chasing its own traffic.
//! * **No echo**: only rows learned from *members* are forwarded
//!   onward; what sibling heads (or, on the flat backbone, fellow
//!   super-peers) push is folded locally and never re-shipped. The fold
//!   would absorb an echo; the rule saves its bandwidth.

use sqpeer_net::telemetry::varint_len;
use sqpeer_net::{NodeId, PatternEntry, PatternStats};
use sqpeer_routing::PeerId;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::{self, Write as _};

use crate::dispatch::ReplanCause;
use crate::msg::QueryId;

/// One protocol event a peer records; only `PeerNode::note` folds one
/// into the recorders. The `Display` form is the detail they show, after
/// the event's [`Subject`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Event {
    /// A subplan shipped for the first time, over channel `channel`.
    Dispatched { channel: u64, bytes: u64 },
    /// Re-shipped to the same destination after a timeout.
    Retried { attempt: u32, bytes: u64 },
    /// Its timeout fired with no complete answer.
    TimedOut,
    /// A probe saw `bytes` arrive in `window_us`: below the floor.
    SlowChannel {
        bytes: u64,
        window_us: u64,
        floor_bpms: u64,
    },
    /// A packet of its still-incomplete stream was acknowledged.
    CreditGranted { bytes: u64 },
    /// A packet of its stream repeated a sequence number already seen.
    DuplicateDropped,
    /// Its whole result arrived: `rows` rows, `bytes` of payload.
    Answered { rows: usize, bytes: u64 },
    /// The destination reported it could not serve it.
    Refused,
    /// Given up on; always the last event of its subplan.
    Lost { attempts: u32, cause: ReplanCause },
    /// The root re-plans the query (whole, or the lost fragment).
    Replanned { cause: ReplanCause },
    /// The query's answer took `latency_us`, at or above the threshold.
    SlowQuery { latency_us: u64, threshold_us: u64 },
    /// A held advertisement of `peer` lapsed unrenewed.
    LeaseExpired { peer: PeerId },
    /// The transport could not decode a frame addressed here; the text is
    /// the transport's.
    DecodeFailure(String),
}

impl Event {
    /// The tracer event name (DESIGN.md §4) and the flight-ring kind
    /// this is recorded under.
    pub(crate) fn recorded_as(&self) -> (Option<&'static str>, Option<&'static str>) {
        match self {
            Event::Dispatched { .. } => (Some("exec:dispatch"), Some("dispatch")),
            Event::Retried { .. } => (Some("exec:retry"), Some("retry")),
            Event::TimedOut => (Some("exec:timeout"), Some("timeout")),
            Event::SlowChannel { .. } => (Some("exec:slow-channel"), None),
            Event::CreditGranted { .. } => (None, Some("credit")),
            Event::DuplicateDropped => (Some("exec:dedup"), None),
            Event::Answered { .. } => (Some("exec:answer"), None),
            Event::Refused => (Some("exec:refused"), None),
            Event::Lost { .. } => (Some("exec:failed"), Some("replan")),
            Event::Replanned { .. } => (Some("exec:replan"), None),
            Event::SlowQuery { .. } => (None, Some("slow-query")),
            Event::LeaseExpired { .. } => (None, Some("lease-expiry")),
            Event::DecodeFailure(_) => (None, Some("decode-failure")),
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Dispatched { channel, .. } => write!(f, "shipped over channel {channel}"),
            Event::Retried { attempt, .. } => write!(f, "re-shipped, attempt {attempt}"),
            Event::TimedOut => f.write_str("timed out"),
            Event::SlowChannel {
                bytes,
                window_us,
                floor_bpms,
            } => write!(
                f,
                "slow channel: window {bytes}B/{window_us}us = {} B/ms below floor {floor_bpms} B/ms",
                bytes * 1_000 / window_us
            ),
            Event::CreditGranted { .. } => f.write_str("stream packet granted 1 credit"),
            Event::DuplicateDropped => f.write_str("duplicate stream packet dropped"),
            Event::Answered { rows, .. } => write!(f, "answered, {rows} rows"),
            Event::Refused => f.write_str("refused by the destination"),
            Event::Lost { attempts, cause } => {
                write!(f, "given up after {attempts} attempt(s): {cause}")
            }
            Event::Replanned { cause } => write!(f, "re-planned: {cause}"),
            Event::SlowQuery {
                latency_us,
                threshold_us,
            } => write!(f, "took {latency_us}us (threshold {threshold_us}us)"),
            Event::LeaseExpired { peer } => write!(f, "advertisement of {peer} expired unrenewed"),
            Event::DecodeFailure(detail) => f.write_str(detail),
        }
    }
}

/// What an [`Event`] concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Subject {
    /// The peer itself: an advertisement it holds, its transport.
    Peer,
    /// A query this peer roots.
    Query(QueryId),
    /// Subplan `tag` of `qid`, shipped to `dest`.
    Subplan {
        qid: QueryId,
        tag: u64,
        dest: PeerId,
    },
}

impl Subject {
    /// The query concerned, if any.
    pub(crate) fn qid(self) -> Option<QueryId> {
        match self {
            Subject::Peer => None,
            Subject::Query(qid) | Subject::Subplan { qid, .. } => Some(qid),
        }
    }
}

/// The prefix of an event's detail below the query — the tracer and the
/// EXPLAIN log already say which query they hold.
impl fmt::Display for Subject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Subject::Subplan { tag, dest, .. } => write!(f, "subplan tag {tag} → {dest}: "),
            Subject::Peer | Subject::Query(_) => Ok(()),
        }
    }
}

/// A bounded ring of recent protocol events — the per-peer "black box"
/// dumped into chaos replay artifacts and served by `sqpeerd obs`. It
/// keeps the events typed; only [`FlightRing::dump`] formats them.
#[derive(Debug, Default)]
pub struct FlightRing {
    events: VecDeque<(u64, Subject, Event)>,
    dropped: u64,
}

impl FlightRing {
    /// Events retained; the oldest falls off past this.
    pub const CAP: usize = 256;

    /// Records `event` about `subject` at `at_us`; the event must have a
    /// flight kind.
    pub(crate) fn record(&mut self, at_us: u64, subject: Subject, event: Event) {
        if self.events.len() == Self::CAP {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back((at_us, subject, event));
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Plain-text dump, one event per line, oldest first — the form
    /// embedded in chaos artifacts and served by `sqpeerd obs`.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# flight recorder: {} event(s) retained, {} dropped (cap {})",
            self.events.len(),
            self.dropped,
            Self::CAP
        );
        for (at_us, subject, event) in &self.events {
            let kind = event.recorded_as().1.unwrap_or_default();
            let qid = subject.qid().map(|q| format!("{q} ")).unwrap_or_default();
            let _ = writeln!(out, "{at_us:>12} {kind:<14} {qid}{subject}{event}");
        }
        out
    }
}

/// Observability-plane configuration (absent = plane fully off, zero
/// cost, bit-identical behaviour — pinned by the transparency proptest).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Period between rollup pushes up the cluster tree, virtual µs.
    /// `0` disables pushing entirely (local-only collection — what the
    /// chaos harness uses so obs never perturbs fault-plan draws).
    pub push_period_us: u64,
    /// Root-observed latency above which a finished query lands in the
    /// slow-query log with its EXPLAIN + profile JSON.
    pub slow_query_us: u64,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            push_period_us: 500_000,
            slow_query_us: 1_000_000,
        }
    }
}

/// One slow-query log entry: the query, when and how slow, and the
/// captured EXPLAIN/profile JSON (present only with tracing on).
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// The offending query.
    pub query: QueryId,
    /// When the answer was finalised (virtual µs).
    pub at_us: u64,
    /// Root-observed intake-to-answer latency (virtual µs).
    pub latency_us: u64,
    /// The query's pattern fingerprint preimage.
    pub pattern: String,
    /// EXPLAIN JSON, when tracing captured one.
    pub explain_json: Option<String>,
    /// Profile JSON, when tracing captured one.
    pub profile_json: Option<String>,
}

/// Rows of the rollup channel, each keyed by what its owner updates and
/// carrying the owner's cumulative value (see the module doc).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Rollup {
    /// `(from, to) → (messages, bytes)` received over a link, owned by `to`.
    pub links: BTreeMap<(NodeId, NodeId), (u64, u64)>,
    /// `(root, fingerprint) → entry` of the queries `root` answered.
    pub patterns: BTreeMap<(PeerId, u64), PatternEntry>,
}

/// A rollup row: its count is what the fold compares, and every other
/// field of the row moves together with it.
trait Row: Clone {
    fn count(&self) -> u64;
}

impl Row for (u64, u64) {
    fn count(&self) -> u64 {
        self.0
    }
}

impl Row for PatternEntry {
    fn count(&self) -> u64 {
        self.count
    }
}

/// Would `row` replace what `held` keeps under `key`? The one
/// comparison both [`Rollup::fold`] and [`Rollup::newer_than`] make.
fn newer<K: Ord, V: Row>(held: &BTreeMap<K, V>, key: &K, row: &V) -> bool {
    held.get(key).is_none_or(|h| h.count() < row.count())
}

fn newer_rows<K: Ord + Copy, V: Row>(
    rows: &BTreeMap<K, V>,
    held: &BTreeMap<K, V>,
) -> BTreeMap<K, V> {
    rows.iter()
        .filter(|(key, row)| newer(held, key, row))
        .map(|(key, row)| (*key, row.clone()))
        .collect()
}

impl Rollup {
    /// The one fold: per key, keep the row with the higher count.
    pub fn fold(&mut self, other: &Rollup) {
        let Rollup { links, patterns } = other.newer_than(self);
        self.links.extend(links);
        self.patterns.extend(patterns);
    }

    /// The one delta: the rows of `self` that folding into `held` would
    /// change.
    pub fn newer_than(&self, held: &Rollup) -> Rollup {
        Rollup {
            links: newer_rows(&self.links, &held.links),
            patterns: newer_rows(&self.patterns, &held.patterns),
        }
    }

    /// The pattern rows summed by fingerprint over every root — the
    /// table the status page renders.
    pub fn pattern_stats(&self) -> PatternStats {
        PatternStats::from_entries(self.patterns.values().cloned())
    }

    /// No row at all?
    pub fn is_empty(&self) -> bool {
        self.links.is_empty() && self.patterns.is_empty()
    }

    /// Estimated encoded size in bytes under the wire form.
    pub fn wire_size(&self) -> usize {
        let links = self.links.values();
        let patterns = self.patterns.values();
        8 + links
            .map(|&(m, b)| 10 + varint_len(m) + varint_len(b))
            .sum::<usize>()
            + patterns.map(|e| 5 + e.wire_size()).sum::<usize>()
    }
}

/// The live observability state of one peer, configured by `PeerConfig::obs`.
#[derive(Debug, Default)]
pub struct ObsState {
    /// The protocol-event ring.
    pub recorder: FlightRing,
    /// Slow queries, oldest first, bounded by [`ObsState::SLOW_QUERY_CAP`].
    pub slow_queries: VecDeque<SlowQuery>,
    /// The rows this peer owns: the links into it and the patterns of
    /// the queries it rooted.
    pub own: Rollup,
    /// Every row pushed to this peer, by members and equals alike.
    pub received: Rollup,
    /// Rows learned from members since the last push, to forward up the
    /// tree; never rows from equals (the no-echo rule).
    pub forward: Rollup,
    /// Every row this peer pushed: what the next push is diffed against.
    pub last_pushed: Rollup,
    /// Rollup pushes this peer sent.
    pub pushes_sent: u64,
    /// Estimated bytes of those pushes (wire-size estimator).
    pub push_bytes_sent: u64,
}

impl ObsState {
    /// Slow-query log capacity (oldest entries evicted).
    pub const SLOW_QUERY_CAP: usize = 32;

    /// Counts one message of `bytes` that `to`, this peer, received from
    /// `from` into its link row.
    pub fn count_receipt(&mut self, from: NodeId, to: NodeId, bytes: usize) {
        let (messages, total) = self.own.links.entry((from, to)).or_default();
        *messages += 1;
        *total += bytes as u64;
    }

    /// The pattern row of the queries `root`, this peer, answered under
    /// `pattern` — the entry an answer updates.
    pub fn pattern_row(&mut self, root: PeerId, pattern: &str) -> &mut PatternEntry {
        let key = (root, PatternStats::fingerprint(pattern));
        self.own
            .patterns
            .entry(key)
            .or_insert_with(|| PatternEntry {
                pattern: pattern.to_owned(),
                ..PatternEntry::default()
            })
    }

    /// Accepts a rollup push. `peer_exchange` marks pushes from equals —
    /// a sibling head, or a fellow super-peer on the flat backbone —
    /// which are folded locally but never forwarded (the no-echo rule);
    /// everything else came from a member and is queued for the next
    /// push up the tree.
    pub fn accept_push(&mut self, rows: &Rollup, peer_exchange: bool) {
        self.received.fold(rows);
        if !peer_exchange {
            self.forward.fold(rows);
        }
    }

    /// What the next push carries: its own rows and the member rows to
    /// forward, each only if newer than it last pushed. Empty when
    /// nothing changed — the idle skip that keeps a quiet overlay
    /// silent. Pure: call [`ObsState::commit_push`] once the push is
    /// sent.
    pub fn outbound_delta(&self) -> Rollup {
        let mut rows = self.forward.clone();
        rows.fold(&self.own);
        rows.newer_than(&self.last_pushed)
    }

    /// Marks `sent`, an [`ObsState::outbound_delta`], as pushed.
    pub fn commit_push(&mut self, sent: &Rollup) {
        self.last_pushed.fold(sent);
        self.forward = Rollup::default();
    }

    /// The snapshot this peer serves: its own rows folded with every
    /// received one. At a head this is the global fold to within one
    /// push period of propagation lag.
    pub fn snapshot(&self) -> Rollup {
        let mut rows = self.received.clone();
        rows.fold(&self.own);
        rows
    }

    /// Appends a slow-query record, evicting the oldest past the cap.
    pub fn log_slow_query(&mut self, entry: SlowQuery) {
        if self.slow_queries.len() == Self::SLOW_QUERY_CAP {
            self.slow_queries.pop_front();
        }
        self.slow_queries.push_back(entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One event of each flight kind, its line pinned word for word:
    /// chaos artifacts and `sqpeerd obs` readers rely on this text.
    #[test]
    fn flight_dump_text_is_pinned() {
        let mut ring = FlightRing::default();
        let (qid, cause) = (QueryId(3), ReplanCause::Timeout);
        let subplan = Subject::Subplan {
            qid,
            tag: 5,
            dest: PeerId(2),
        };
        let events = [
            (
                10,
                subplan,
                Event::Dispatched {
                    channel: 7,
                    bytes: 100,
                },
            ),
            (
                20,
                subplan,
                Event::Retried {
                    attempt: 1,
                    bytes: 100,
                },
            ),
            (1_000_030, subplan, Event::TimedOut),
            (1_000_040, subplan, Event::CreditGranted { bytes: 40 }),
            (4_000_050, subplan, Event::Lost { attempts: 3, cause }),
            (
                4_500_000,
                Subject::Peer,
                Event::LeaseExpired { peer: PeerId(4) },
            ),
            (
                5_000_000,
                Subject::Query(qid),
                Event::SlowQuery {
                    latency_us: 1_500_000,
                    threshold_us: 1_000_000,
                },
            ),
            (
                5_000_001,
                Subject::Peer,
                Event::DecodeFailure("frame from node 9 failed to decode: Eof".into()),
            ),
        ];
        for (at_us, subject, event) in events {
            ring.record(at_us, subject, event);
        }
        assert_eq!(
            ring.dump(),
            "\
# flight recorder: 8 event(s) retained, 0 dropped (cap 256)
          10 dispatch       q3 subplan tag 5 → P2: shipped over channel 7
          20 retry          q3 subplan tag 5 → P2: re-shipped, attempt 1
     1000030 timeout        q3 subplan tag 5 → P2: timed out
     1000040 credit         q3 subplan tag 5 → P2: stream packet granted 1 credit
     4000050 replan         q3 subplan tag 5 → P2: given up after 3 attempt(s): timeout
     4500000 lease-expiry   advertisement of P4 expired unrenewed
     5000000 slow-query     q3 took 1500000us (threshold 1000000us)
     5000001 decode-failure frame from node 9 failed to decode: Eof
"
        );
    }

    #[test]
    fn flight_ring_drops_its_oldest_past_the_cap() {
        let mut ring = FlightRing::default();
        assert!(ring.is_empty());
        for peer in 0..FlightRing::CAP as u32 + 2 {
            let event = Event::LeaseExpired { peer: PeerId(peer) };
            ring.record(u64::from(peer), Subject::Peer, event);
        }
        let dump = ring.dump();
        let mut lines = dump.lines();
        assert_eq!(
            lines.next(),
            Some("# flight recorder: 256 event(s) retained, 2 dropped (cap 256)")
        );
        assert_eq!(
            lines.next(),
            Some("           2 lease-expiry   advertisement of P2 expired unrenewed")
        );
        assert_eq!(lines.count(), FlightRing::CAP - 1);
    }

    /// One answered query of `pattern` at `root`.
    fn answer(obs: &mut ObsState, root: u32, pattern: &str, latency_us: u64) {
        let row = obs.pattern_row(PeerId(root), pattern);
        row.record(latency_us, None, 1, false, 0);
    }

    /// The rows peer `me` would push with one receipt `from → me` of
    /// `bytes` and, optionally, one answered query of `pattern`.
    fn rows_of(me: u32, from: u32, bytes: usize, pattern: Option<&str>) -> Rollup {
        let mut obs = ObsState::default();
        obs.count_receipt(NodeId(from), NodeId(me), bytes);
        if let Some(p) = pattern {
            answer(&mut obs, me, p, 60);
        }
        obs.outbound_delta()
    }

    #[test]
    fn snapshot_folds_local_members_and_peer_exchange() {
        let mut obs = ObsState::default();
        obs.count_receipt(NodeId(1), NodeId(2), 100);
        answer(&mut obs, 2, "p", 50);

        obs.accept_push(&rows_of(4, 3, 200, Some("p")), false);
        obs.accept_push(&rows_of(6, 5, 300, Some("p-cluster")), true);

        let out = obs.outbound_delta();
        let bytes: u64 = out.links.values().map(|l| l.1).sum();
        assert_eq!(bytes, 300); // local + member, no echo
        assert_eq!(out.patterns.len(), 2); // p at P2 and at P4
        assert!(out.patterns.keys().all(|&(root, _)| root != PeerId(6)));

        let snap = obs.snapshot();
        assert_eq!(snap.links.values().map(|l| l.1).sum::<u64>(), 600);
        let pats = snap.pattern_stats();
        assert_eq!(pats.total(), 3);
        assert_eq!(pats.get("p").unwrap().count, 2); // summed over roots
    }

    #[test]
    fn pushes_carry_only_deltas() {
        let mut obs = ObsState::default();
        obs.count_receipt(NodeId(1), NodeId(2), 100);
        answer(&mut obs, 2, "p", 50);

        let rows = obs.outbound_delta();
        assert_eq!(rows.links.len(), 1);
        assert_eq!(rows.patterns.len(), 1);
        obs.commit_push(&rows);

        // Nothing changed: the next delta is empty.
        assert!(obs.outbound_delta().is_empty());

        // One more receipt and one more query: the delta carries the
        // changed rows whole, the pattern row at its running count.
        obs.count_receipt(NodeId(1), NodeId(2), 40);
        obs.count_receipt(NodeId(3), NodeId(2), 70);
        answer(&mut obs, 2, "p", 90);
        let rows = obs.outbound_delta();
        assert_eq!(rows.links[&(NodeId(1), NodeId(2))], (2, 140));
        assert_eq!(rows.links[&(NodeId(3), NodeId(2))], (1, 70));
        let entry = rows.patterns.values().next().unwrap();
        assert_eq!((entry.count, entry.latency_us.sum()), (2, 140));
    }

    /// The fold is idempotent and order-free: a duplicated push and a
    /// stale one (a lower count, overtaken in transit) change nothing.
    #[test]
    fn duplicate_and_stale_pushes_leave_received_unchanged() {
        let mut member = ObsState::default();
        member.count_receipt(NodeId(1), NodeId(2), 100);
        answer(&mut member, 2, "q", 10);
        let stale = member.outbound_delta();
        member.count_receipt(NodeId(1), NodeId(2), 150);
        answer(&mut member, 2, "q", 30);
        let fresh = member.outbound_delta();

        let mut head = ObsState::default();
        head.accept_push(&fresh, false);
        let received = head.received.clone();
        head.accept_push(&fresh, false);
        assert_eq!(head.received, received);
        head.accept_push(&stale, false);
        assert_eq!(head.received, received);

        let snap = head.snapshot();
        assert_eq!(snap.links[&(NodeId(1), NodeId(2))], (2, 250));
        assert_eq!(snap.pattern_stats().get("q").unwrap().count, 2);
        // Nor is a stale member row ever pushed on.
        let sent = head.outbound_delta();
        head.commit_push(&sent);
        head.accept_push(&stale, false);
        assert!(head.outbound_delta().is_empty());
    }

    #[test]
    fn slow_query_log_is_bounded() {
        let mut obs = ObsState::default();
        let cap = ObsState::SLOW_QUERY_CAP as u64;
        for i in 0..cap + 2 {
            obs.log_slow_query(SlowQuery {
                query: QueryId(i),
                at_us: i * 10,
                latency_us: 2_000_000,
                pattern: format!("q{i}"),
                explain_json: None,
                profile_json: None,
            });
        }
        assert_eq!(obs.slow_queries.len(), ObsState::SLOW_QUERY_CAP);
        assert_eq!(obs.slow_queries[0].query, QueryId(2));
    }
}
