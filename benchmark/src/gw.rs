//! `gw_point` and `gw_scan`: the deployed path — client → `daemon::gateway`
//! → `daemon::host` → a tenant peer group on `LoopbackNet` — over real
//! loopback TCP sockets, everything in this one process.
//!
//! The two workloads are opposites on purpose. `gw_point` asks the
//! Figure-1 query of the four-peer Figure-2 group: three answer rows, so
//! accept polls, the per-query gateway→host connect, pump slices and
//! framing are nearly all of its latency. `gw_scan` asks chain queries
//! that return thousands of rows from an eight-peer generated group:
//! evaluation, per-hop codec, row clones and the gateway's per-row string
//! rendering dominate, and the fixed per-query costs disappear.

use crate::gen::{balanced_bases, point_bases, quota_sequence, rng};
use crate::ladder::{over_draws, shared_rungs, LadderInput, QueryRungs};
use crate::metrics::Layers;
use crate::span::{rung_self_times, Recorder};
use crate::stats::median;
use crate::sys::cpu_seconds;
use crate::workload::{scaled, us_since, Progress, Rep, Rung, Workload};
use rand::Rng;
use sqpeer::exec::{Msg, PeerNode, QueryId};
use sqpeer::overlay::{oracle_answer, oracle_base};
use sqpeer::prelude::*;
use sqpeer_daemon::{
    assemble, await_outcome, outcome, pose, spawn_gateway, spawn_host, GatewayConfig,
    GatewayHandle, GroupSpec, HostConfig, HostHandle, LoopbackNet, Quotas, TenantConfig,
};
use sqpeer_testkit::fixtures::fig1_query_text;
use sqpeer_testkit::{
    chain_properties, chain_query_text, community_schema, fig1_schema, DataSpec, SchemaSpec,
};
use sqpeer_wire::{
    decode_payload, read_frame, write_frame, Envelope, GatewayRequest, GatewayResponse,
    SchemaRegistry, MAX_FRAME_BYTES,
};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GwKind {
    Point,
    Scan,
}

const TOKEN: &str = "bench-tenant";
/// Real time given to advertisement discovery when a group boots.
const SETTLE_US: u64 = 150_000;
/// The member peer every query is posed at.
const AT: PeerId = PeerId(0);

/// `gw_point`: closed-loop clients (= the box's cores) and queries per
/// client per repetition at the stated run length.
const POINT_CLIENTS: usize = 2;
const POINT_QUERIES: usize = 130;
/// `gw_scan`: one client; queries per repetition; the generated group.
const SCAN_QUERIES: usize = 28;
const SCAN_PEERS: usize = 7;
const SCAN_PROPERTIES_PER_PEER: usize = 3;
const SCAN_DATA: DataSpec = DataSpec {
    triples_per_property: 600,
    class_pool: 600,
};
/// `gw_scan`'s data is the same for every `--seed`; the seed orders the
/// queries. Whether a streamed answer hits the host socket's
/// Nagle/delayed-ACK stall (≈ 40 ms, see the README) depends on the exact
/// bytes of its frames: with seed-drawn data the *number* of stalling
/// queries differs from seed to seed, and throughput with it by ±18 % —
/// two seeds would be two workloads.
const SCAN_DATA_SEED: u64 = 2004;
const SCAN_BATCH_ROWS: usize = 256;
/// Chains whose answer is smaller than this are not scans (the chains
/// through a sub-property that no data joins return nothing at all).
const SCAN_MIN_ROWS: usize = 1_000;

/// The host's own traffic counters, read off its status port.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct HostCounters {
    now_us: u64,
    messages: u64,
    bytes: u64,
    retries: u64,
    replans: u64,
}

fn parse_status(text: &str) -> Option<HostCounters> {
    let field = |key: &str| -> Option<u64> {
        text.lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '))
            .and_then(|v| v.trim().parse().ok())
    };
    Some(HostCounters {
        now_us: field("now_us")?,
        messages: field("messages")?,
        bytes: field("bytes")?,
        retries: field("retries")?,
        replans: field("replans")?,
    })
}

fn read_status(addr: SocketAddr) -> Option<HostCounters> {
    let mut text = String::new();
    TcpStream::connect(addr)
        .ok()?
        .read_to_string(&mut text)
        .ok()?;
    parse_status(&text)
}

/// The host's counters as of some moment *after* this call began. The
/// pump republishes its status page every hundred iterations; a page whose
/// clock differs from the first one read was rendered after we started
/// looking, so it counts everything that finished before.
fn settled_status(addr: SocketAddr) -> HostCounters {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut first = None;
    while Instant::now() < deadline {
        match (first, read_status(addr)) {
            (None, Some(now)) => first = Some(now),
            (Some(was), Some(now)) if now.now_us != was.now_us => return now,
            _ => {}
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("host status page at {addr} never refreshed");
}

/// Rows as the gateway renders them, in a canonical order.
fn rendered(result: &ResultSet) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|row| row.iter().map(|n| n.to_string()).collect())
        .collect();
    rows.sort_unstable();
    rows
}

/// One closed-loop client's share of a repetition.
#[derive(Default)]
struct ClientStats {
    query_us: Vec<f64>,
    ttfr_us: Vec<f64>,
    served_us: Vec<f64>,
    rows: u64,
    /// Time the benchmark spent checking answers (busy) and thinking
    /// between queries (idle); neither is the product's.
    verify_s: f64,
    think_s: f64,
}

impl ClientStats {
    /// Books a reply if it is the oracle's complete answer; anything else
    /// — a refusal, an error, a partial or different row set — is a failure.
    fn accept(&mut self, response: GatewayResponse, us: f64, expected: &[Vec<String>]) -> bool {
        let GatewayResponse::Answer {
            mut rows,
            partial: false,
            ttfr_us,
            latency_us,
            ..
        } = response
        else {
            return false;
        };
        rows.sort_unstable();
        if rows != expected {
            return false;
        }
        self.query_us.push(us);
        self.served_us.push(latency_us as f64);
        if !rows.is_empty() {
            self.ttfr_us.push(ttfr_us as f64);
        }
        self.rows += rows.len() as u64;
        true
    }
}

/// Sends one request and reads the reply, with a span per phase.
fn ask(
    stream: &mut TcpStream,
    rec: &mut Recorder,
    op: u32,
    text: &str,
) -> io::Result<(GatewayResponse, f64)> {
    let request = GatewayRequest {
        token: TOKEN.to_string(),
        query: text.to_string(),
    };
    let span = rec.begin("client.query", None, op);
    let started = Instant::now();
    let send = rec.begin("client.send", Some(span), op);
    write_frame(stream, &request)?;
    rec.end(send);
    let wait = rec.begin("client.await_first_byte", Some(span), op);
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    rec.end(wait);
    let recv = rec.begin("client.recv+decode", Some(span), op);
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "oversized frame",
        ));
    }
    let mut payload = vec![0u8; len as usize];
    stream.read_exact(&mut payload)?;
    let response = decode_payload::<GatewayResponse>(&payload, &SchemaRegistry::new())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    rec.end(recv);
    let us = us_since(started);
    rec.end(span);
    Ok((response, us))
}

pub struct Gateway {
    schema: Arc<Schema>,
    /// A copy of the group's bases, for the oracle and the ladder.
    bases: Vec<DescriptionBase>,
    host: HostHandle,
    gateway: GatewayHandle,
    clients: Vec<TcpStream>,
    texts: Vec<String>,
    /// The oracle's answer to each distinct query, as [`rendered`].
    expected: Vec<Vec<Vec<String>>>,
    /// Per client, the indices into `texts` one repetition poses.
    sequences: Vec<Vec<usize>>,
    draws: Vec<usize>,
    /// `gw_scan`: seed-drawn pauses before each query, µs.
    think_us: Option<Vec<u64>>,
    /// Host counters as of the end of set-up or of the last repetition.
    counters: HostCounters,
}

impl Gateway {
    pub fn setup(kind: GwKind, seed: u64, scale: f64) -> Gateway {
        let (schema, bases, texts, batch) = match kind {
            GwKind::Point => {
                let schema = fig1_schema();
                let bases = point_bases(&schema, seed);
                (schema, bases, vec![fig1_query_text().to_string()], None)
            }
            GwKind::Scan => {
                let schema = community_schema(
                    SchemaSpec {
                        chain_classes: 6,
                        subclasses_per_class: 1,
                        subproperty_fraction: 0.5,
                    },
                    3,
                );
                let bases = balanced_bases(
                    &schema,
                    SCAN_PEERS,
                    SCAN_PROPERTIES_PER_PEER,
                    SCAN_DATA,
                    SCAN_DATA_SEED,
                );
                let texts: Vec<String> = (1..=2)
                    .flat_map(|len| chain_properties(&schema, len))
                    .map(|chain| chain_query_text(&schema, &chain))
                    .collect();
                (schema, bases, texts, Some(SCAN_BATCH_ROWS))
            }
        };

        let oracle = oracle_base(&schema, bases.iter());
        let (texts, expected): (Vec<String>, Vec<Vec<Vec<String>>>) = texts
            .into_iter()
            .map(|t| {
                let query = compile(&t, &schema).expect("workload queries compile");
                let answer = rendered(&oracle_answer(&oracle, &query));
                (t, answer)
            })
            .filter(|(_, answer)| kind == GwKind::Point || answer.len() >= SCAN_MIN_ROWS)
            .unzip();

        let host = spawn_host(HostConfig {
            listen: "127.0.0.1:0".into(),
            status: Some("127.0.0.1:0".into()),
            spec: GroupSpec {
                schema: Arc::clone(&schema),
                bases: bases.clone(),
                config: PeerConfig::default(),
            },
            telemetry_window_us: None,
            settle_us: SETTLE_US,
            answer_batch_rows: batch,
        })
        .expect("host binds a loopback port");
        let gateway = spawn_gateway(GatewayConfig {
            listen: "127.0.0.1:0".into(),
            tenants: vec![TenantConfig {
                token: TOKEN.into(),
                host: host.addr.to_string(),
                schema: Arc::clone(&schema),
                at: AT,
                quotas: Quotas::default(),
            }],
        })
        .expect("gateway binds a loopback port");

        let (clients, per_client) = match kind {
            GwKind::Point => (POINT_CLIENTS, scaled(POINT_QUERIES, scale, 20)),
            GwKind::Scan => (1, scaled(SCAN_QUERIES, scale, texts.len())),
        };
        // The smallest scans are posed most often: the median query then
        // sits inside their group of like-sized answers even when one of
        // them stalls, not on the step up to the next size.
        let smallest = expected.iter().map(Vec::len).min().unwrap_or(0);
        let weights: Vec<f64> = texts
            .iter()
            .zip(&expected)
            .map(
                |(text, answer)| match (text.contains(", {"), answer.len()) {
                    (true, _) => 1.0,
                    (false, rows) if rows > smallest * 3 / 2 => 2.0,
                    (false, _) => 4.0,
                },
            )
            .collect();
        let sequences: Vec<Vec<usize>> = (0..clients)
            .map(|c| quota_sequence(&weights, per_client, &mut rng(seed, 10 + c as u64)))
            .collect();
        let mut draws = vec![0; texts.len()];
        sequences.iter().flatten().for_each(|&q| draws[q] += 1);

        // A closed-loop client that sends the moment its last answer lands
        // falls into step with the host's 5 ms accept poll, and which step
        // it falls into differs from run to run (on `gw_point` every query
        // costs the same, so the step is always the same one). A pause of
        // 0-5 ms before each scan spreads arrivals over the whole poll.
        let think_us: Option<Vec<u64>> = (kind == GwKind::Scan).then(|| {
            let mut draw = rng(seed, 20);
            (0..97).map(|_| draw.gen_range(0..5_000)).collect()
        });
        let mut clients: Vec<TcpStream> = (0..clients)
            .map(|_| {
                let stream = TcpStream::connect(gateway.addr).expect("gateway is listening");
                stream.set_nodelay(true).expect("loopback socket option");
                stream
            })
            .collect();
        // One warm-up pass over every distinct query, on every connection.
        let mut off = Recorder::new(Instant::now(), false);
        for stream in &mut clients {
            for text in &texts {
                ask(stream, &mut off, 0, text).expect("warm-up query is answered");
            }
        }
        let counters = settled_status(host.status_addr.expect("status port configured"));
        Gateway {
            schema,
            bases,
            host,
            gateway,
            clients,
            texts,
            expected,
            sequences,
            draws,
            think_us,
            counters,
        }
    }

    fn status_addr(&self) -> SocketAddr {
        self.host.status_addr.expect("status port configured")
    }

    /// The in-process rung: the same group on a bare `LoopbackNet`, posed
    /// and awaited directly. Per distinct query, the root's own real-clock
    /// latency (intake to answer), which leaves out the polling slice
    /// `await_outcome` sleeps between checks.
    fn loopback_rung(&self, rec: &mut Recorder, iterations: usize) -> Vec<f64> {
        let mut schemas = SchemaRegistry::new();
        schemas.register(Arc::clone(&self.schema));
        let mut net: LoopbackNet<PeerNode> = LoopbackNet::new(schemas);
        let mut group = assemble(
            &mut net,
            GroupSpec {
                schema: Arc::clone(&self.schema),
                bases: self.bases.clone(),
                config: PeerConfig::default(),
            },
            SETTLE_US,
        );
        self.texts
            .iter()
            .enumerate()
            .map(|(qi, text)| {
                let query = group.compile(text).expect("workload queries compile");
                let runs: Vec<f64> = (0..=iterations)
                    .map(|_| {
                        let span = rec.begin("daemon.loopback", None, qi as u32);
                        let qid = pose(&mut net, &mut group, AT, query.clone());
                        let done = await_outcome(&mut net, AT, qid, 50, 20_000_000);
                        rec.end(span);
                        assert!(done, "loopback query did not complete");
                        outcome(&net, AT, qid).expect("awaited").latency_us as f64
                    })
                    .skip(1) // the first pass warms the group's caches
                    .collect();
                median(&runs)
            })
            .collect()
    }

    /// The host rung: `ClientQuery` envelopes straight at the peer port,
    /// over one persistent connection or a fresh connection per query.
    fn host_rung(&self, rec: &mut Recorder, iterations: usize, fresh: bool) -> Vec<f64> {
        let mut schemas = SchemaRegistry::new();
        schemas.register(Arc::clone(&self.schema));
        let connect = || {
            let stream = TcpStream::connect(self.host.addr).expect("host is listening");
            stream.set_nodelay(true).expect("loopback socket option");
            stream
        };
        let mut persistent = connect();
        let name = if fresh {
            "daemon.host_fresh_conn"
        } else {
            "daemon.host"
        };
        self.texts
            .iter()
            .enumerate()
            .map(|(qi, text)| {
                let query = compile(text, &self.schema).expect("workload queries compile");
                let runs: Vec<f64> = (0..iterations)
                    .map(|i| {
                        let envelope = Envelope {
                            from: PeerId(9_999),
                            to: AT,
                            sent_at_us: 0,
                            msg: Msg::ClientQuery {
                                qid: QueryId(i as u64),
                                query: query.clone(),
                            },
                        };
                        let span = rec.begin(name, None, qi as u32);
                        let started = Instant::now();
                        let mut fresh_stream;
                        let stream = if fresh {
                            fresh_stream = connect();
                            &mut fresh_stream
                        } else {
                            &mut persistent
                        };
                        write_frame(stream, &envelope).expect("host accepts the query");
                        loop {
                            let reply: Envelope = read_frame(stream, &schemas)
                                .expect("host reply decodes")
                                .expect("host answers before closing");
                            match reply.msg {
                                Msg::Data { last: true, .. } => break,
                                Msg::Data { .. } => {}
                                other => panic!("host sent {other:?}"),
                            }
                        }
                        let us = us_since(started);
                        rec.end(span);
                        us
                    })
                    .collect();
                median(&runs)
            })
            .collect()
    }

    /// The top rung: the gateway's front door, one persistent connection.
    fn gateway_rung(&self, rec: &mut Recorder, iterations: usize) -> Vec<f64> {
        let mut stream = TcpStream::connect(self.gateway.addr).expect("gateway is listening");
        stream.set_nodelay(true).expect("loopback socket option");
        let mut timing = Recorder::new(Instant::now(), false);
        self.texts
            .iter()
            .enumerate()
            .map(|(qi, text)| {
                let runs: Vec<f64> = (0..iterations)
                    .map(|_| {
                        let span = rec.begin("daemon.gateway", None, qi as u32);
                        let (_, us) = ask(&mut stream, &mut timing, qi as u32, text)
                            .expect("gateway answers");
                        rec.end(span);
                        us
                    })
                    .collect();
                median(&runs)
            })
            .collect()
    }
}

impl Workload for Gateway {
    fn ops_per_rep(&self) -> u64 {
        self.sequences.iter().map(Vec::len).sum::<usize>() as u64
    }

    fn repetition(&mut self, rec: &mut Recorder, progress: &Progress) -> Rep {
        let barrier = Barrier::new(self.clients.len());
        let (texts, expected) = (&self.texts, &self.expected);
        let think_us = self.think_us.as_deref();
        let cpu0 = cpu_seconds();
        let started = Instant::now();
        let per_client: Vec<(ClientStats, Recorder)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&self.sequences)
                .enumerate()
                .map(|(c, (stream, sequence))| {
                    let mut rec = rec.sibling();
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut stats = ClientStats::default();
                        barrier.wait();
                        for (i, &q) in sequence.iter().enumerate() {
                            let op = ((c as u32) << 20) | i as u32;
                            if let Some(us) = think_us.map(|t| t[(c + i) % t.len()]) {
                                let thinking = Instant::now();
                                std::thread::sleep(Duration::from_micros(us));
                                stats.think_s += thinking.elapsed().as_secs_f64();
                            }
                            let reply = ask(stream, &mut rec, op, &texts[q]);
                            let verifying = Instant::now();
                            let span = rec.begin("bench.verify", None, op);
                            let ok = match reply {
                                Ok((response, us)) => stats.accept(response, us, &expected[q]),
                                Err(_) => false,
                            };
                            rec.end(span);
                            stats.verify_s += verifying.elapsed().as_secs_f64();
                            progress.tick(ok);
                        }
                        (stats, rec)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let elapsed = started.elapsed().as_secs_f64();
        let cpu = cpu_seconds() - cpu0;

        let mut rep = Rep::default();
        let mut slowest_verify: f64 = 0.0;
        let mut all_verify = 0.0;
        for (stats, client_rec) in per_client {
            rec.absorb(client_rec);
            rep.query_us.extend(stats.query_us);
            rep.ttfr_us.extend(stats.ttfr_us);
            rep.served_us.extend(stats.served_us);
            rep.rows += stats.rows;
            slowest_verify = slowest_verify.max(stats.verify_s + stats.think_s);
            all_verify += stats.verify_s;
        }
        rep.wall_s = elapsed - slowest_verify;
        rep.cpu_s = cpu - all_verify;

        let after = settled_status(self.status_addr());
        rep.msgs = after.messages - self.counters.messages;
        rep.bytes = after.bytes - self.counters.bytes;
        rep.retries = after.retries - self.counters.retries;
        rep.replans = after.replans - self.counters.replans;
        self.counters = after;
        rep
    }

    fn layers(&mut self, rec: &mut Recorder, layers: &mut Layers) -> Vec<Rung> {
        // Fewer replays per query the more distinct queries there are.
        let iterations = (24 / self.texts.len()).clamp(3, 15);
        let input = LadderInput {
            schema: &self.schema,
            bases: self
                .bases
                .iter()
                .enumerate()
                .map(|(i, b)| (PeerId(i as u32), b))
                .collect(),
            queries: &self.texts,
            draws: &self.draws,
            origin: AT,
            iterations,
        };
        let shared = shared_rungs(&input, rec, layers);
        let d = &self.draws;
        let fold =
            |f: fn(&QueryRungs) -> f64| over_draws(&shared.iter().map(f).collect::<Vec<_>>(), d);
        let compile_us = fold(|r| r.compile_us);
        let route_us = fold(|r| r.route_us);
        let plan_us = fold(|r| r.plan_us);
        let eval_us = fold(|r| r.eval_us);
        // Codec work inside the group: the query frame once, the answer
        // frame once per subplan hop is more than this — one full-answer
        // frame is the part the shared rung can state exactly.
        let wire_us = fold(|r| r.wire_query_us + r.wire_data_us);

        let loopback_us = over_draws(&self.loopback_rung(rec, iterations), d);
        let host_us = over_draws(&self.host_rung(rec, iterations, false), d);
        let fresh_us = over_draws(&self.host_rung(rec, iterations, true), d);
        let gateway_us = over_draws(&self.gateway_rung(rec, iterations), d);

        // An idle host + gateway: whatever CPU they burn is polling.
        let cpu0 = cpu_seconds();
        let idle = Instant::now();
        std::thread::sleep(Duration::from_secs(1));
        let idle_pct = (cpu_seconds() - cpu0) / idle.elapsed().as_secs_f64() * 100.0;

        let below_loopback = route_us + plan_us + eval_us + wire_us;
        let chain = rung_self_times(&[loopback_us, host_us, gateway_us]);
        let loopback_self = (loopback_us - below_loopback).max(0.0);
        layers.set("exec.loopback_self_us", loopback_self);
        layers.set("daemon.loopback_query_us", loopback_us);
        layers.set("daemon.host_rtt_us", host_us);
        layers.set("daemon.host_overhead_us", chain[1]);
        layers.set("daemon.gateway_rtt_us", gateway_us);
        layers.set("daemon.gateway_overhead_us", chain[2]);
        layers.set("daemon.fresh_conn_penalty_us", fresh_us - host_us);
        layers.set("daemon.idle_cpu_pct", idle_pct);
        // Busy = the work the rungs can account for end to end: compile at
        // the gateway, the group's own latency, the query frame's codec and
        // the answer frame's codec on both socket hops. The rest of the
        // gateway round trip is waiting: polls, sleeps, pacing, the kernel.
        let busy =
            compile_us + loopback_us + fold(|r| r.wire_query_us) + 2.0 * fold(|r| r.wire_data_us);
        layers.set("daemon.wait_share", (1.0 - busy / gateway_us).max(0.0));

        let rung = |name, us, self_us| Rung { name, us, self_us };
        vec![
            rung("rql.compile", compile_us, compile_us),
            rung("routing.route", route_us, route_us),
            rung("plan.generate+optimize", plan_us, plan_us),
            rung("rql.evaluate+join/union", eval_us, eval_us),
            rung("wire.encode+decode", wire_us, wire_us),
            rung("daemon.loopback (pose+await)", loopback_us, loopback_self),
            rung("daemon.host (peer port)", host_us, chain[1]),
            // Compile runs at the gateway and has its own row above.
            rung(
                "daemon.gateway",
                gateway_us,
                (chain[2] - compile_us).max(0.0),
            ),
        ]
    }

    fn shutdown(self: Box<Self>) {
        // Closing the client sockets lets the per-connection threads see
        // EOF; the handles join the accept and pump threads.
        drop(self.clients);
        self.gateway.shutdown();
        self.host.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_page_counters_parse() {
        let page = "sqpeerd status\nnow_us 1234567\nmessages 42\nbytes 9001\ndropped 0\n\
                    retries 1\nreplans 2\ndecode_failures 0\ntelemetry off\n";
        assert_eq!(
            parse_status(page),
            Some(HostCounters {
                now_us: 1_234_567,
                messages: 42,
                bytes: 9_001,
                retries: 1,
                replans: 2,
            })
        );
        assert_eq!(parse_status(""), None);
        assert_eq!(parse_status("now_us 1\nmessages x\n"), None);
    }
}
