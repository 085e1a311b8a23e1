//! Peer-side state of the hierarchical observability plane.
//!
//! Each peer with an [`ObsConfig`] keeps an [`ObsState`]: a local
//! receiver-side [`TelemetryRegistry`], a [`PatternStats`] table of the
//! queries it rooted, a bounded [`FlightRing`] of protocol `Event`s,
//! and a small slow-query log. Members push *deltas* — only what
//! changed since their last push — up the cluster tree on a period
//! (`Msg::ObsPush`); heads fold the arriving deltas and exchange them
//! between heads, so any head serves a near-global snapshot without an
//! O(peers) scrape and without ever re-shipping cold state.
//!
//! The delta channel folds with two semantics, one per payload:
//!
//! * **Registry: per-link replacement.** A local link key
//!   `(from, to = self)` is receiver-owned — exactly one peer ever
//!   updates it — so changed links travel whole and latest-wins per
//!   link is exact and idempotent under duplication.
//! * **Patterns: additive increments.** Pattern fingerprints are shared
//!   across origins, so entries travel as counter differences that
//!   merge associatively and commutatively anywhere in the tree. This
//!   leg assumes the reliable ordered delivery every supported
//!   transport (simulator, loopback, TCP) provides.
//!
//! Two rules keep the rollup ≡ monoid-merge pin exact:
//!
//! * **No self-observation**: `ObsPush` receipts are never recorded
//!   into the local registry, so the plane does not watch itself and a
//!   quiet overlay converges instead of chasing its own traffic.
//! * **No echo**: only deltas learned from *members* are forwarded
//!   onward; what sibling heads (or, on the flat backbone, fellow
//!   super-peers) push is folded locally and never re-shipped, so peer
//!   exchange cannot double-count a cluster.

use sqpeer_net::{PatternStats, TelemetryRegistry};
use sqpeer_routing::PeerId;
use std::collections::VecDeque;
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

/// The live observability state of one peer, configured by `PeerConfig::obs`.
#[derive(Debug, Default)]
pub struct ObsState {
    /// Receiver-side link telemetry this peer observed locally.
    pub local: TelemetryRegistry,
    /// Pattern statistics of queries this peer rooted.
    pub patterns: PatternStats,
    /// The protocol-event ring.
    pub recorder: FlightRing,
    /// Slow queries, oldest first, bounded by [`ObsState::SLOW_QUERY_CAP`].
    pub slow_queries: VecDeque<SlowQuery>,
    /// Links accumulated from every push received (member *and* peer
    /// exchange), folded per-link latest-wins.
    pub rollup_reg: TelemetryRegistry,
    /// Pattern increments accumulated from every push received, folded
    /// additively.
    pub rollup_pats: PatternStats,
    /// Member-push links awaiting forwarding up the tree (cleared on
    /// push; peer-exchange pushes never land here — the no-echo rule).
    pub pending_reg: TelemetryRegistry,
    /// Member-push pattern increments awaiting forwarding up the tree.
    pub pending_pats: PatternStats,
    /// Local registry as of the last committed push — the baseline the
    /// next registry delta is computed against.
    pub last_reg: TelemetryRegistry,
    /// Local pattern table as of the last committed push.
    pub last_pats: PatternStats,
    /// Rollup pushes this peer sent.
    pub pushes_sent: u64,
    /// Estimated bytes of those pushes (wire-size estimator).
    pub push_bytes_sent: u64,
    /// Has pushable state (local receipts, pattern records, member
    /// deltas) changed since the last push? An idle peer skips its push
    /// tick entirely, so a quiet overlay stops pushing within one
    /// tree-depth ripple — the steady-state rollup overhead is zero.
    pub dirty: bool,
}

impl ObsState {
    /// Slow-query log capacity (oldest entries evicted).
    pub const SLOW_QUERY_CAP: usize = 32;

    /// Accepts a rollup push. `peer_exchange` marks pushes from equals —
    /// a sibling head, or a fellow super-peer on the flat backbone —
    /// which are folded locally but never forwarded (the no-echo rule);
    /// everything else came from a member and is queued for the next
    /// push up the tree.
    pub fn accept_push(
        &mut self,
        registry: TelemetryRegistry,
        patterns: PatternStats,
        peer_exchange: bool,
    ) {
        self.rollup_reg.overlay(&registry);
        self.rollup_pats.merge(&patterns);
        if !peer_exchange {
            self.pending_reg.overlay(&registry);
            self.pending_pats.merge(&patterns);
            self.dirty = true;
        }
    }

    /// What the next push carries: the local delta since the last
    /// committed push — projected to per-link counters, distributions
    /// stay local — plus every member delta received since then, and
    /// deliberately nothing learned via peer exchange. Pure: call
    /// [`ObsState::commit_push`] once the push is actually sent.
    pub fn outbound_delta(&self) -> (TelemetryRegistry, PatternStats) {
        let mut registry = self.pending_reg.clone();
        registry.overlay(&self.local.delta_since(&self.last_reg).counters_only());
        let mut patterns = self.pending_pats.clone();
        patterns.merge(&self.patterns.diff(&self.last_pats));
        (registry, patterns)
    }

    /// Marks the current [`ObsState::outbound_delta`] as sent: the next
    /// delta is computed against today's local state, and the forwarded
    /// member deltas are dropped.
    pub fn commit_push(&mut self) {
        self.last_reg = self.local.clone();
        self.last_pats = self.patterns.clone();
        self.pending_reg = TelemetryRegistry::default();
        self.pending_pats = PatternStats::new();
    }

    /// The full snapshot this peer can serve: local state folded with
    /// everything the delta channel delivered. At a head this
    /// approximates the global registry to within one push period of
    /// propagation lag.
    pub fn snapshot(&self) -> (TelemetryRegistry, PatternStats) {
        let mut registry = self.local.clone();
        registry.overlay(&self.rollup_reg);
        let mut patterns = self.patterns.clone();
        patterns.merge(&self.rollup_pats);
        (registry, patterns)
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
    use sqpeer_net::{NodeId, DEFAULT_WINDOW_US};

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

    fn reg_with(from: u32, to: u32, bytes: usize) -> TelemetryRegistry {
        let mut r = TelemetryRegistry::new(DEFAULT_WINDOW_US);
        r.record_receipt(NodeId(from), NodeId(to), bytes, 10);
        r
    }

    #[test]
    fn snapshot_folds_local_members_and_peer_exchange() {
        let mut obs = ObsState {
            local: reg_with(1, 2, 100),
            ..ObsState::default()
        };
        obs.patterns.record("p-local", 50, None, 1, false, 0);

        let mut mp = PatternStats::new();
        mp.record("p-member", 60, None, 2, false, 0);
        obs.accept_push(reg_with(3, 4, 200), mp, false);

        let mut cp = PatternStats::new();
        cp.record("p-cluster", 70, None, 3, false, 0);
        obs.accept_push(reg_with(5, 6, 300), cp, true);

        let (out_reg, out_pat) = obs.outbound_delta();
        assert_eq!(out_reg.total_bytes(), 300); // local + member, no echo
        assert_eq!(out_pat.total(), 2);
        assert!(out_pat.get("p-cluster").is_none());

        let (snap_reg, snap_pat) = obs.snapshot();
        assert_eq!(snap_reg.total_bytes(), 600);
        assert_eq!(snap_pat.total(), 3);
    }

    #[test]
    fn pushes_carry_only_deltas() {
        let mut obs = ObsState::default();
        obs.local.record_receipt(NodeId(1), NodeId(2), 100, 10);
        obs.patterns.record("p", 50, None, 1, false, 0);

        let (reg, pats) = obs.outbound_delta();
        assert_eq!(reg.total_bytes(), 100);
        assert_eq!(pats.total(), 1);
        obs.commit_push();

        // Nothing changed: the next delta is empty.
        let (reg, pats) = obs.outbound_delta();
        assert!(reg.is_empty());
        assert!(pats.is_empty());

        // One more receipt and one more query: the delta carries the
        // changed link whole, and the pattern entry as an increment.
        obs.local.record_receipt(NodeId(1), NodeId(2), 40, 20);
        obs.local.record_receipt(NodeId(3), NodeId(2), 70, 20);
        obs.patterns.record("p", 90, None, 1, false, 0);
        let (reg, pats) = obs.outbound_delta();
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.total_bytes(), 140 + 70); // (1,2) whole, (3,2) new
        assert_eq!(pats.total(), 1); // the increment, not the running count
        assert_eq!(pats.get("p").unwrap().latency_us.sum(), 90);
    }

    #[test]
    fn accept_push_replaces_links_and_adds_patterns() {
        let mut obs = ObsState::default();
        let mut p1 = PatternStats::new();
        p1.record("q", 10, None, 1, false, 0);
        obs.accept_push(reg_with(1, 2, 100), p1.clone(), false);
        // The same link re-pushed with a later value replaces; the same
        // pattern increment re-pushed adds.
        obs.accept_push(reg_with(1, 2, 250), p1, false);
        let (reg, pats) = obs.snapshot();
        assert_eq!(reg.total_bytes(), 250);
        assert_eq!(pats.get("q").unwrap().count, 2);
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
