//! The `sqpeerd` peer host: a tenant group behind real TCP.
//!
//! A host owns one [`LoopbackNet`] of [`PeerNode`]s (a tenant's peer
//! group) and exposes two sockets:
//!
//! * the **peer port** speaks the wire protocol: clients (the gateway)
//!   send [`Envelope`]d `ClientQuery` frames and receive the answer as a
//!   `Data` frame — the §2.4 result packet, which carries both the rows
//!   and the completeness flag;
//! * the **status port** serves the PR 5 telemetry snapshot as plain
//!   text: connect, read to EOF, done — `curl`-able without any HTTP
//!   machinery. The pump renders each read's page as of that read.
//!
//! Threading: an accept thread per listener, a reader thread per peer
//! connection, and one pump thread that owns the transport. Connection
//! threads talk to the pump over an mpsc channel and block on a
//! per-query reply channel, so several queries can be in flight at once.
//!
//! The pump is a loop over one `Pump::turn` — admit what waits, run
//! what is due, hand finished outcomes over — and one `Pump::idle_wait`,
//! the host's single wait, taken only after a turn that did nothing, so
//! an answer is never held for the rest of a time slice. The wait blocks
//! on the command channel itself: a query or a status read wakes the pump
//! as it arrives (§2.4's channels hand a peer its work, they are not
//! polled), and an idle host sleeps until its next timer, if one is armed.
//! [`HostHandle::shutdown`] wakes it the same way, through the channel.
//!
//! Each accept thread owns its listener and sits in a blocking `accept`;
//! [`HostHandle::shutdown`] sets the flag and then connects to each bound
//! address once, so the thread wakes, sees the flag and leaves. A
//! connection thread owns its socket for the connection's whole life and
//! serves any number of queries on it (the gateway keeps one open per
//! client connection). Its 500 ms read timeout is only an idle tick to
//! notice shutdown: a timeout *between* frames is retried, a timeout once
//! any byte of a frame was consumed closes the connection
//! (`wire::read_payload`), because the consumed bytes cannot be given
//! back and everything after them would be read out of frame.

use crate::{assemble, group, Group, GroupSpec, LoopbackNet};
use sqpeer_exec::{Msg, PeerNode, QueryId, QueryOutcome};
use sqpeer_net::{Channel, ChannelId, ChannelState, Transport};
use sqpeer_routing::PeerId;
use sqpeer_rql::ResultSet;
use sqpeer_wire::{read_frame, write_frame, Envelope, SchemaRegistry, Wire};
use std::collections::HashMap;
use std::io;
use std::io::ErrorKind::{TimedOut, WouldBlock};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How a host is set up.
pub struct HostConfig {
    /// Peer-port bind address (use port 0 to let the OS pick).
    pub listen: String,
    /// Optional status-port bind address.
    pub status: Option<String>,
    /// The tenant group to assemble.
    pub spec: GroupSpec,
    /// Telemetry window (µs); `None` disables collection.
    pub telemetry_window_us: Option<u64>,
    /// The most transport time advertisement discovery may take at boot;
    /// the host listens as soon as every member has discovered the group.
    pub settle_us: u64,
    /// Stream answers back to peer-port clients in batches of this many
    /// rows — each batch its own `Data` frame (`seq` ascending, `last`
    /// on the final one), written back to back. `None` (the default)
    /// keeps the single-frame answer.
    pub answer_batch_rows: Option<usize>,
}

/// One in-flight query inside the pump.
struct InFlight {
    at: PeerId,
    reply: Sender<QueryOutcome>,
}

/// A command from a connection thread to the pump. The channel carries
/// `Option<Command>`: `None` only wakes the pump (shutdown).
enum Command {
    /// Pose `query` at member `at`; the outcome goes to `reply`.
    Pose {
        at: PeerId,
        query: sqpeer_rql::QueryPattern,
        reply: Sender<QueryOutcome>,
    },
    /// Render the status page as of now into the sender.
    Status(Sender<String>),
}

/// A running host.
pub struct HostHandle {
    /// The bound peer-port address.
    pub addr: SocketAddr,
    /// The bound status-port address, when configured.
    pub status_addr: Option<SocketAddr>,
    shutdown: Arc<AtomicBool>,
    wake: Sender<Option<Command>>,
    threads: Vec<JoinHandle<()>>,
}

impl HostHandle {
    /// Signals every thread to stop, wakes the pump and the accept
    /// threads and joins them all.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.wake.send(None);
        wake_accept(self.addr);
        if let Some(status) = self.status_addr {
            wake_accept(status);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Unblocks the thread parked in `accept` on the listener bound to
/// `addr` by connecting to it once; the caller has already set the
/// shutdown flag that thread checks on waking. A listener on the
/// unspecified address is reached over loopback.
pub(crate) fn wake_accept(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect(addr);
}

/// Spawns the thread that accepts connections on `listener` and hands
/// each, with a handle on the `shutdown` flag, to `serve`, until it wakes
/// to find the flag set (see [`wake_accept`]).
pub(crate) fn accept_loop(
    listener: TcpListener,
    shutdown: &Arc<AtomicBool>,
    mut serve: impl FnMut(TcpStream, Arc<AtomicBool>) + Send + 'static,
) -> JoinHandle<()> {
    let shutdown = Arc::clone(shutdown);
    std::thread::spawn(move || {
        while let Ok((stream, _)) = listener.accept() {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            serve(stream, Arc::clone(&shutdown));
        }
    })
}

/// The frames a connection reads off `stream` until EOF, a read error or
/// `shutdown`: a read waits at most 500 ms, then checks `shutdown` again.
pub(crate) fn frames<'a, T: Wire + 'a>(
    mut stream: &'a TcpStream,
    schemas: &'a SchemaRegistry,
    shutdown: &'a AtomicBool,
) -> impl Iterator<Item = T> + 'a {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    std::iter::from_fn(move || loop {
        if shutdown.load(Ordering::SeqCst) {
            return None;
        }
        match read_frame(&mut stream, schemas) {
            Ok(frame) => return frame,
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut) => {}
            Err(_) => return None,
        }
    })
}

/// Boots a host: assembles the group on a fresh loopback transport,
/// binds the sockets, spawns the pump and accept threads.
pub fn spawn_host(config: HostConfig) -> io::Result<HostHandle> {
    let HostConfig {
        listen,
        status,
        spec,
        telemetry_window_us,
        settle_us,
        answer_batch_rows,
    } = config;

    let mut schemas = SchemaRegistry::new();
    schemas.register(Arc::clone(&spec.schema));
    let mut net: LoopbackNet<PeerNode> = LoopbackNet::new(schemas.clone());
    if let Some(window) = telemetry_window_us {
        net.enable_telemetry(window);
    }
    let group = assemble(&mut net, spec, settle_us);

    let listener = TcpListener::bind(&listen)?;
    let addr = listener.local_addr()?;

    let status_listener = status.map(TcpListener::bind).transpose()?;
    let status_addr = status_listener.as_ref().and_then(|l| l.local_addr().ok());

    let shutdown = Arc::new(AtomicBool::new(false));
    let (cmd_tx, cmd_rx) = channel::<Option<Command>>();
    let pump = Pump::new(net, group, cmd_rx);

    let mut threads = Vec::new();

    // Pump thread: owns the transport, injects queries, collects
    // outcomes, renders the status pages asked for.
    let stop = Arc::clone(&shutdown);
    threads.push(std::thread::spawn(move || pump.run(&stop)));

    // Status accept thread: one connection at a time, each sent the page
    // the pump renders for it, or closed unanswered if the pump is gone.
    let wake = cmd_tx.clone();
    if let Some(listener) = status_listener {
        let cmd_tx = cmd_tx.clone();
        threads.push(accept_loop(listener, &shutdown, move |mut stream, _| {
            let (page_tx, page) = channel();
            let _ = cmd_tx.send(Some(Command::Status(page_tx)));
            if let Ok(text) = page.recv() {
                let _ = io::Write::write_all(&mut stream, text.as_bytes());
            }
        }));
    }

    // Peer-port accept thread.
    threads.push(accept_loop(listener, &shutdown, move |stream, stop| {
        // Answers leave as a burst of small frames: do not let Nagle hold
        // one back for the peer's ACK.
        let _ = stream.set_nodelay(true);
        let (cmd_tx, schemas) = (cmd_tx.clone(), schemas.clone());
        std::thread::spawn(move || {
            serve_connection(stream, cmd_tx, schemas, stop, answer_batch_rows)
        });
    }));

    Ok(HostHandle {
        addr,
        status_addr,
        shutdown,
        wake,
        threads,
    })
}

/// What the pump thread owns: the transport, the group on it and every
/// query admitted but not yet answered (the transport itself never
/// leaves this thread).
struct Pump {
    net: LoopbackNet<PeerNode>,
    group: Group,
    cmd_rx: Receiver<Option<Command>>,
    in_flight: HashMap<QueryId, InFlight>,
    ttfr: QueryTtfr,
}

impl Pump {
    fn new(net: LoopbackNet<PeerNode>, group: Group, cmd_rx: Receiver<Option<Command>>) -> Self {
        Pump {
            net,
            group,
            cmd_rx,
            in_flight: HashMap::new(),
            ttfr: QueryTtfr::default(),
        }
    }

    /// The transport-owning loop: turns back to back while they find
    /// work, one wait when one finds none, until shutdown (or no sender).
    fn run(mut self, shutdown: &AtomicBool) {
        while !shutdown.load(Ordering::SeqCst) {
            if self.turn() == 0 && !self.idle_wait() {
                return;
            }
        }
    }

    /// Everything the pump does, once, none of it blocking; a point query
    /// completes in the turn that admits it. Returns how many commands
    /// and transport occurrences it handled — 0 means there is nothing to
    /// do but wait.
    fn turn(&mut self) -> usize {
        let mut done = 0;
        while let Ok(cmd) = self.cmd_rx.try_recv() {
            self.admit(cmd);
            done += 1;
        }
        done += self.net.run_due();
        self.collect();
        done
    }

    /// The host's one wait: blocked on the command channel until the
    /// next armed timer, if any, admitting the command that wakes it.
    /// Returns `false` once no sender is left (no handle, listener or
    /// connection): then nothing can pose, read or stop any more.
    fn idle_wait(&mut self) -> bool {
        let due_us = self.net.next_due_us().unwrap_or(u64::MAX);
        let wait = Duration::from_micros(due_us.saturating_sub(self.net.now_us()));
        match self.cmd_rx.recv_timeout(wait) {
            Ok(cmd) => self.admit(cmd),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return false,
        }
        true
    }

    /// Poses a query at the member it names, or renders the page as of now
    /// for a status read (`None`, a bare wake, does nothing). The address
    /// came off a socket: one that names no member is refused — dropping
    /// its reply sender closes the connection — instead of leaving a query
    /// that can never finish in flight for ever.
    fn admit(&mut self, cmd: Option<Command>) {
        match cmd {
            Some(Command::Pose { at, query, reply }) if self.group.peers.contains(&at) => {
                let qid = group::pose(&mut self.net, &mut self.group, at, query);
                self.in_flight.insert(qid, InFlight { at, reply });
            }
            Some(Command::Status(page)) => {
                let _ = page.send(render_status(self));
            }
            _ => {}
        }
    }

    /// Hands every finished in-flight query's outcome to its connection
    /// thread. The outcome is *taken* out of the group, so the host holds
    /// an answer only until its reply is handed over.
    fn collect(&mut self) {
        let Pump { net, ttfr, .. } = self;
        self.in_flight.retain(
            |&qid, flight| match group::take_outcome(net, flight.at, qid) {
                Some(outcome) => {
                    if let Some(t) = outcome.ttfr_us {
                        ttfr.count += 1;
                        ttfr.sum_us += t;
                        ttfr.last_us = Some(t);
                    }
                    let _ = flight.reply.send(outcome);
                    false
                }
                None => true,
            },
        );
    }
}

/// Aggregate per-query time-to-first-row, as seen by this host's roots.
#[derive(Debug, Default)]
struct QueryTtfr {
    count: u64,
    sum_us: u64,
    last_us: Option<u64>,
}

/// Renders the plain-text status page: counters plus the telemetry
/// snapshot's own rendering.
fn render_status(pump: &Pump) -> String {
    use std::fmt::Write as _;
    let Pump {
        net,
        group: Group { peers, .. },
        in_flight,
        ttfr,
        ..
    } = pump;
    let mut out = String::new();
    let m = net.metrics();
    let _ = writeln!(out, "sqpeerd status");
    let _ = writeln!(out, "now_us {}", net.now_us());
    let _ = writeln!(out, "messages {}", m.total_messages());
    let _ = writeln!(out, "bytes {}", m.total_bytes());
    let _ = writeln!(out, "dropped {}", m.dropped());
    let _ = writeln!(out, "retries {}", m.retries_sent());
    let _ = writeln!(out, "replans {}", m.replans());
    let _ = writeln!(out, "decode_failures {}", net.decode_failures());
    let (compiles, hits) = net.schemas().compile_counts();
    let _ = writeln!(out, "query_compiles {compiles}");
    let _ = writeln!(out, "query_compile_hits {hits}");
    let _ = writeln!(out, "in_flight {}", in_flight.len());
    let discovered = group::discovered(net, peers);
    let _ = writeln!(out, "discovered {discovered}/{}", peers.len());
    // Streaming counters, folded across the hosted nodes: the high-water
    // in-flight mark (bounded by the credit window) and total credits
    // granted by consumers.
    let (mut max_inflight, mut credits) = (0u32, 0u64);
    for id in net.node_ids() {
        if let Some(node) = net.node(id) {
            max_inflight = max_inflight.max(node.max_stream_inflight());
            credits += node.credits_granted;
        }
    }
    let _ = writeln!(out, "max_stream_inflight {max_inflight}");
    let _ = writeln!(out, "credits_granted {credits}");
    let _ = writeln!(out, "query_ttfr_count {}", ttfr.count);
    if let Some(mean) = ttfr.sum_us.checked_div(ttfr.count) {
        let _ = writeln!(out, "query_ttfr_mean_us {mean}");
    }
    if let Some(last) = ttfr.last_us {
        let _ = writeln!(out, "query_ttfr_last_us {last}");
    }
    match net.telemetry_snapshot() {
        Some(t) => {
            let _ = writeln!(out, "telemetry_links {}", t.len());
            out.push_str(&t.render());
        }
        None => {
            let _ = writeln!(out, "telemetry off");
        }
    }
    // Observability-plane section (`sqpeerd obs` prints from this marker
    // on): the hosted nodes' own pattern rows summed by pattern,
    // slow-query log entries and the per-node flight recorders.
    let _ = writeln!(out, "## obs");
    let mut rows = sqpeer_exec::Rollup::default();
    let (mut obs_on, mut pushes, mut push_bytes) = (false, 0u64, 0u64);
    let mut per_node = String::new();
    for id in net.node_ids() {
        let Some(obs) = net.node(id).and_then(PeerNode::obs) else {
            continue;
        };
        obs_on = true;
        rows.fold(&obs.own);
        pushes += obs.pushes_sent;
        push_bytes += obs.push_bytes_sent;
        for sq in &obs.slow_queries {
            let _ = writeln!(
                per_node,
                "slow_query node {} {} latency_us {} pattern {}",
                id.0, sq.query, sq.latency_us, sq.pattern
            );
        }
        if !obs.recorder.is_empty() {
            let _ = writeln!(per_node, "# flight recorder, node {}", id.0);
            per_node.push_str(&obs.recorder.dump());
        }
    }
    if !obs_on {
        let _ = writeln!(out, "obs off");
        return out;
    }
    let _ = writeln!(out, "obs_pushes_sent {pushes}");
    let _ = writeln!(out, "obs_push_bytes {push_bytes}");
    out.push_str(&rows.pattern_stats().render());
    out + &per_node
}

/// One peer-port connection: `Envelope(ClientQuery)` in, one or more
/// `Envelope(Data)` frames out (several when `answer_batch_rows` streams
/// the answer), until the peer closes or shutdown.
fn serve_connection(
    stream: TcpStream,
    cmd_tx: Sender<Option<Command>>,
    schemas: SchemaRegistry,
    shutdown: Arc<AtomicBool>,
    answer_batch_rows: Option<usize>,
) {
    for envelope in frames::<Envelope>(&stream, &schemas, &shutdown) {
        let Msg::ClientQuery { qid, query } = envelope.msg else {
            // Anything but a client query on the front door is refused by
            // closing: the peer protocol proper runs inside the group.
            return;
        };
        let (reply_tx, reply_rx) = channel();
        // `envelope.to` names the member peer the client wants to pose
        // the query at (the pump refuses one that names no member by
        // dropping `reply_tx`, and the connection closes); the pump
        // re-mints a host-local qid and the reply echoes the client's own.
        if cmd_tx
            .send(Some(Command::Pose {
                at: envelope.to,
                query,
                reply: reply_tx,
            }))
            .is_err()
        {
            return;
        }
        let Ok(QueryOutcome {
            result, partial, ..
        }) = reply_rx.recv()
        else {
            return;
        };
        let channel = Channel {
            id: ChannelId(qid.0),
            root: envelope.from,
            dest: envelope.to,
            state: ChannelState::Closed,
        };
        let data = |result: ResultSet, partial: bool, seq: u32, last: bool| Envelope {
            from: envelope.to,
            to: envelope.from,
            sent_at_us: 0,
            msg: Msg::Data {
                channel,
                qid,
                tag: 0,
                result,
                partial,
                stats: None,
                seq,
                last,
            },
        };
        // Frames are cut as row ranges of the answer's dictionary (each is
        // encoded with just the entries it uses) and leave back to back;
        // the final one is flagged `last` and alone carries `partial`.
        // Without batching that is the only frame.
        let batch = answer_batch_rows.filter(|&b| b > 0).unwrap_or(usize::MAX);
        let pieces = result.rows.chunks(batch);
        let count = pieces.len();
        for (seq, rows) in pieces.enumerate() {
            let piece = ResultSet {
                columns: result.columns.clone(),
                rows,
            };
            let last = seq + 1 == count;
            let frame = data(piece, last && partial, seq as u32, last);
            if write_frame(&mut &stream, &frame).is_err() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqpeer_exec::{node_of, PeerConfig};
    use sqpeer_testkit::fixtures::{fig1_query_text, fig1_schema, fig2_bases};

    /// A pump over the Figure 2 group, its command channel and the
    /// compiled Figure 1 query — everything a host has but the sockets.
    fn fig2_pump() -> (Pump, Sender<Option<Command>>, sqpeer_rql::QueryPattern) {
        fig2_pump_with(PeerConfig::default())
    }

    /// [`fig2_pump`] with every member configured by `config`.
    fn fig2_pump_with(
        config: PeerConfig,
    ) -> (Pump, Sender<Option<Command>>, sqpeer_rql::QueryPattern) {
        let schema = fig1_schema();
        let mut schemas = SchemaRegistry::new();
        schemas.register(Arc::clone(&schema));
        let mut net: LoopbackNet<PeerNode> = LoopbackNet::new(schemas);
        let spec = GroupSpec {
            bases: fig2_bases(&schema),
            schema,
            config,
        };
        let group = assemble(&mut net, spec, 50_000);
        let query = group.compile(fig1_query_text()).expect("fixture compiles");
        let (cmd_tx, cmd_rx) = channel();
        (Pump::new(net, group, cmd_rx), cmd_tx, query)
    }

    /// Queues `query` at `at` as a connection thread would; the returned
    /// receiver is where that thread would block for the outcome.
    fn queue(
        cmd_tx: &Sender<Option<Command>>,
        at: PeerId,
        query: &sqpeer_rql::QueryPattern,
    ) -> Receiver<QueryOutcome> {
        let (reply, outcome) = channel();
        let query = query.clone();
        cmd_tx
            .send(Some(Command::Pose { at, query, reply }))
            .expect("the pump holds the receiver");
        outcome
    }

    /// The completion half of "park the pump", without a stopwatch: the
    /// turn that admits a point query also runs it and hands its outcome
    /// over, so no sleep can fall between an answer and its reply — and
    /// two clients whose commands wait together are answered together.
    #[test]
    fn a_turn_answers_every_command_that_waited_for_it() {
        let (mut pump, cmd_tx, query) = fig2_pump();
        let at = pump.group.peers[0];

        let one = queue(&cmd_tx, at, &query);
        assert!(pump.turn() > 0);
        let outcome = one.try_recv().expect("answered in the admitting turn");
        assert!(!outcome.partial && outcome.result.len() == 3);
        assert!(pump.in_flight.is_empty());

        let (a, b) = (queue(&cmd_tx, at, &query), queue(&cmd_tx, at, &query));
        assert!(pump.turn() > 0);
        assert!(a.try_recv().is_ok() && b.try_recv().is_ok());
        assert!(pump.in_flight.is_empty());
        assert_eq!(pump.ttfr.count, 3);
    }

    /// The admission half, without a stopwatch: a command that waits
    /// when the pump goes idle is admitted by the wait it wakes, not left
    /// in the channel for a later look — and the next turn answers it.
    #[test]
    fn idle_wait_admits_the_command_that_wakes_it() {
        let (mut pump, cmd_tx, query) = fig2_pump();
        let reply = queue(&cmd_tx, pump.group.peers[0], &query);
        pump.idle_wait();
        assert_eq!(pump.in_flight.len(), 1, "the command was left waiting");
        assert!(pump.turn() > 0);
        reply
            .try_recv()
            .expect("answered in the turn after the wake");
        assert!(pump.in_flight.is_empty());
    }

    /// The status page's `## obs` section sums the hosted members' own
    /// pattern rows: queries posed at two roots read back as one pattern
    /// line counting all of them. A flat group has no super-peer, so
    /// nothing is pushed.
    #[test]
    fn obs_section_counts_every_query_the_group_answered() {
        const QUERIES: usize = 5;
        let config = PeerConfig {
            obs: Some(sqpeer_exec::ObsConfig::default()),
            ..PeerConfig::default()
        };
        let (mut pump, cmd_tx, query) = fig2_pump_with(config);
        for k in 0..QUERIES {
            let reply = queue(&cmd_tx, pump.group.peers[k % 2], &query);
            assert!(pump.turn() > 0);
            reply.try_recv().expect("answered in the admitting turn");
        }
        let page = render_status(&pump);
        let obs = &page[page.find("## obs\n").expect("the plane is on")..];
        assert!(obs.contains("\nobs_pushes_sent 0\n"), "{obs}");
        let (count, pattern) = (format!("count {QUERIES:>6} "), format!(" pattern {query}"));
        assert!(
            obs.lines()
                .any(|line| line.starts_with(&count) && line.ends_with(&pattern)),
            "no line counts {QUERIES} of the posed query:\n{obs}"
        );
    }

    /// A turn that finds no command, nothing due and nothing finished
    /// says so — that 0 is what sends `run` into `idle_wait`.
    #[test]
    fn a_turn_over_an_idle_group_reports_nothing_done() {
        let (mut pump, _cmd_tx, _) = fig2_pump();
        assert_eq!(pump.turn(), 0);
        assert_eq!(pump.turn(), 0);
    }

    /// An idle pump has no wake deadline: its group arms no timer, and the
    /// wait's only other end is a command, so it sleeps until one comes.
    #[test]
    fn an_idle_pump_with_no_timer_armed_has_no_wake_deadline() {
        let (mut pump, _cmd_tx, _) = fig2_pump();
        assert_eq!(pump.turn(), 0);
        assert_eq!(pump.net.next_due_us(), None, "an idle group armed a timer");
    }

    /// A status read admitted by the wait is answered in that call, with
    /// the page as of that moment: a query admitted but not yet run is in
    /// flight, and none has been answered.
    #[test]
    fn idle_wait_answers_a_status_read_as_of_now() {
        let (mut pump, cmd_tx, query) = fig2_pump();
        let _reply = queue(&cmd_tx, pump.group.peers[0], &query);
        let (page_tx, page) = channel();
        cmd_tx
            .send(Some(Command::Status(page_tx)))
            .expect("the pump holds the receiver");
        assert!(pump.idle_wait(), "the query's wait");
        assert!(pump.idle_wait(), "the status read's wait");
        let page = page.try_recv().expect("answered in the admitting wait");
        assert!(page.contains("\nin_flight 1\n"), "{page}");
        assert!(page.contains("\nquery_ttfr_count 0\n"), "{page}");
    }

    /// A host that serves queries for ever must not keep their answers:
    /// once the pump has handed an outcome to its connection thread, the
    /// root holds no copy (and no node exists to have been mailed one),
    /// and no member's idempotent-receive log has outgrown its bound.
    #[test]
    fn collected_outcomes_leave_the_group() {
        const QUERIES: usize = 200;
        let (mut pump, cmd_tx, query) = fig2_pump();
        let at = pump.group.peers[0];
        let replies: Vec<_> = (0..QUERIES).map(|_| queue(&cmd_tx, at, &query)).collect();
        // The loop that ships, bounded where `run` watches a shutdown flag.
        for _ in 0..1_000 {
            if pump.turn() == 0 {
                pump.idle_wait();
            }
            if pump.in_flight.is_empty() {
                break;
            }
        }
        assert!(
            pump.in_flight.is_empty(),
            "{} queries never completed",
            pump.in_flight.len()
        );
        let Pump {
            net, group, ttfr, ..
        } = pump;

        let answers: Vec<QueryOutcome> = replies.iter().flat_map(|r| r.try_recv()).collect();
        assert_eq!(answers.len(), QUERIES);
        assert!(answers.iter().all(|o| !o.partial && o.result.len() == 3));
        assert_eq!(ttfr.count, QUERIES as u64);

        let root = net.node(node_of(at)).expect("root hosted");
        assert!(
            (0..QUERIES as u64).all(|q| root.outcome(QueryId(q)).is_none()),
            "the root kept collected outcomes"
        );
        assert_eq!(
            root.rooted_queries(),
            0,
            "the root kept records of collected queries"
        );
        assert_eq!(
            net.node_ids().len(),
            group.peers.len(),
            "a group hosts its members and nothing else"
        );
        let served: Vec<usize> = group.peers[1..]
            .iter()
            .map(|&p| {
                net.node(node_of(p))
                    .expect("member hosted")
                    .served_subplans()
            })
            .collect();
        assert!(
            served.iter().all(|&n| n <= PeerNode::SERVED_LOG_CAP),
            "idempotent-receive logs grew past the bound: {served:?}"
        );
    }

    /// A host for the Figure 2 group with both ports on loopback.
    fn fig2_host(schema: &Arc<sqpeer_rdfs::Schema>) -> HostHandle {
        spawn_host(HostConfig {
            listen: "127.0.0.1:0".into(),
            status: Some("127.0.0.1:0".into()),
            spec: GroupSpec {
                bases: fig2_bases(schema),
                schema: Arc::clone(schema),
                config: PeerConfig::default(),
            },
            telemetry_window_us: None,
            settle_us: 200_000,
            answer_batch_rows: None,
        })
        .expect("host starts")
    }

    fn read_status(host: &HostHandle) -> String {
        let mut text = String::new();
        let mut status =
            TcpStream::connect(host.status_addr.expect("status port bound")).expect("reachable");
        io::Read::read_to_string(&mut status, &mut text).expect("status readable");
        text
    }

    /// The status port serves a page from the first connect: the read
    /// itself has the pump render it.
    #[test]
    fn the_first_status_read_finds_a_page() {
        let host = fig2_host(&fig1_schema());
        let text = read_status(&host);
        assert!(text.contains("sqpeerd status"), "got {text:?}");
        host.shutdown();
    }

    /// A host listens once its group has discovered itself, and its page
    /// says so from the first read.
    #[test]
    fn the_status_page_reads_a_discovered_group() {
        let host = fig2_host(&fig1_schema());
        let text = read_status(&host);
        assert!(text.contains("\ndiscovered 4/4\n"), "got {text:?}");
        host.shutdown();
    }

    /// The page a read gets once the host has answered `queries` queries.
    fn page_after(host: &HostHandle, queries: usize) -> String {
        let text = read_status(host);
        let count = format!("\nquery_ttfr_count {queries}\n");
        assert!(
            text.contains(&count),
            "the page did not count {queries}: {text}"
        );
        text
    }

    /// Poses the Figure 1 query at `to` over a fresh peer-port connection
    /// and reads the first reply frame.
    fn ask(
        host: &HostHandle,
        schema: &Arc<sqpeer_rdfs::Schema>,
        to: PeerId,
    ) -> io::Result<Option<Envelope>> {
        let mut schemas = SchemaRegistry::new();
        schemas.register(Arc::clone(schema));
        let query = sqpeer_rql::compile(fig1_query_text(), schema).expect("fixture compiles");
        let mut stream = TcpStream::connect(host.addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        let envelope = Envelope {
            from: PeerId(9_999),
            to,
            sent_at_us: 0,
            msg: Msg::ClientQuery {
                qid: QueryId(7),
                query,
            },
        };
        write_frame(&mut stream, &envelope)?;
        read_frame(&mut stream, &schemas)
    }

    /// A status read is rendered when it is asked for: made right after an
    /// answer, it has counted that answer and holds nothing in flight.
    #[test]
    fn a_status_read_right_after_an_answer_counts_it() {
        let schema = fig1_schema();
        let host = fig2_host(&schema);
        let reply = ask(&host, &schema, PeerId(0)).expect("reply readable");
        let reply = reply.expect("a member answers").msg;
        assert!(matches!(reply, Msg::Data { .. }), "{reply:?}");
        let page = page_after(&host, 1);
        assert!(page.contains("\nin_flight 0\n"), "{page}");
        host.shutdown();
    }

    /// A host compiles each query text once: posed again, a query's
    /// front-door, root and subplan decodes all find their patterns
    /// compiled, so `query_compiles` stays at the number of distinct texts
    /// the first posing decoded, while the hits grow by one per decode.
    #[test]
    fn a_query_posed_again_compiles_nothing() {
        const QUERIES: usize = 10;
        let schema = fig1_schema();
        let host = fig2_host(&schema);
        let mut schemas = SchemaRegistry::new();
        schemas.register(Arc::clone(&schema));
        let query = sqpeer_rql::compile(fig1_query_text(), &schema).expect("fixture compiles");
        let mut stream = TcpStream::connect(host.addr).expect("reachable");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout set");
        let mut pose = |qid: u64| {
            let msg = Msg::ClientQuery {
                qid: QueryId(qid),
                query: query.clone(),
            };
            let envelope = Envelope {
                from: PeerId(9_999),
                to: PeerId(0),
                sent_at_us: 0,
                msg,
            };
            write_frame(&mut stream, &envelope).expect("sent");
            let reply = read_frame(&mut stream, &schemas).expect("readable");
            let Some(Envelope {
                msg: Msg::Data { result, last, .. },
                ..
            }) = reply
            else {
                panic!("expected Data, got {reply:?}");
            };
            assert!(last && result.len() == 3);
        };
        let counts = |page: &str| {
            let count = |key: &str| -> u64 {
                let value = page
                    .lines()
                    .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '));
                value.and_then(|v| v.parse().ok()).expect(key)
            };
            (count("query_compiles"), count("query_compile_hits"))
        };

        pose(0);
        let (texts, first_hits) = counts(&page_after(&host, 1));
        // The client's text reaches the front door and the root alike.
        assert!(first_hits >= 1, "the root recompiled the front door's text");
        let decodes = texts + first_hits;
        (1..QUERIES as u64).for_each(&mut pose);
        let (compiles, hits) = counts(&page_after(&host, QUERIES));
        assert_eq!(compiles, texts, "a text was compiled twice");
        assert_eq!(compiles + hits, decodes * QUERIES as u64);
        host.shutdown();
    }

    /// A socket may name any peer id. One that names no member must be
    /// refused at once — not parked on a query that can never finish —
    /// and must leave nothing behind in the pump.
    #[test]
    fn non_member_address_is_refused() {
        let schema = fig1_schema();
        let host = fig2_host(&schema);
        let asked = std::time::Instant::now();
        let refused = ask(&host, &schema, PeerId(999));
        assert!(
            asked.elapsed() < Duration::from_secs(1),
            "a non-member address parked the connection: {refused:?}"
        );
        assert!(
            !matches!(refused, Ok(Some(_))),
            "a non-member address was answered: {refused:?}"
        );

        let reply = ask(&host, &schema, PeerId(0))
            .expect("reply readable")
            .expect("a member still answers");
        let Msg::Data { result, last, .. } = reply.msg else {
            panic!("expected Data, got {:?}", reply.msg);
        };
        assert!(last && result.len() == 3);
        let page = page_after(&host, 1);
        assert!(
            page.contains("\nin_flight 0\n"),
            "the refused query stayed: {page}"
        );
        host.shutdown();
    }
}
