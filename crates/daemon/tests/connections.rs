//! Connection lifetime at the deployed front door, on real sockets.
//!
//! The gateway keeps one host connection per tenant for each client
//! connection and every listener blocks in `accept`. These tests pin what
//! that buys and what it must survive: one peer-port connection for any
//! number of queries, a host that restarts or closes without answering, a
//! `partial` and a streamed reply, a client that stalls in the middle of a
//! frame, and a shutdown that does not wait on a poll.

use sqpeer_daemon::{
    spawn_gateway, spawn_host, GatewayConfig, GatewayHandle, GroupSpec, HostConfig, HostHandle,
    Quotas, TenantConfig,
};
use sqpeer_exec::{Msg, PeerConfig, QueryId};
use sqpeer_routing::PeerId;
use sqpeer_rql::compile;
use sqpeer_testkit::fixtures::{base_with, fig1_query_text, fig1_schema};
use sqpeer_wire::{
    encode_frame, read_frame, write_frame, Envelope, GatewayRequest, GatewayResponse,
    SchemaRegistry,
};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A two-peer group whose Figure-1 answer is four rows, every URI under
/// `http://{tenant}/`.
fn host(tenant: &str, listen: &str, answer_batch_rows: Option<usize>) -> HostHandle {
    let schema = fig1_schema();
    let uri = |local: &str| format!("http://{tenant}/{local}");
    let (a, b, c) = (uri("a"), uri("b"), uri("c"));
    let (x, y, z) = (uri("x"), uri("y"), uri("z"));
    spawn_host(HostConfig {
        listen: listen.into(),
        status: Some("127.0.0.1:0".into()),
        spec: GroupSpec {
            bases: vec![
                base_with(&schema, &[(&a, "prop1", &b), (&b, "prop2", &c)]),
                base_with(
                    &schema,
                    &[(&x, "prop1", &b), (&y, "prop1", &b), (&z, "prop1", &b)],
                ),
            ],
            schema,
            config: PeerConfig::default(),
        },
        telemetry_window_us: None,
        settle_us: 150_000,
        answer_batch_rows,
    })
    .expect("host binds a loopback port")
}

fn tenant(token: &str, host: SocketAddr, at: u32) -> TenantConfig {
    TenantConfig {
        token: token.into(),
        host: host.to_string(),
        schema: fig1_schema(),
        at: PeerId(at),
        quotas: Quotas::default(),
    }
}

fn gateway(tenants: Vec<TenantConfig>) -> GatewayHandle {
    spawn_gateway(GatewayConfig {
        listen: "127.0.0.1:0".into(),
        tenants,
    })
    .expect("gateway binds a loopback port")
}

/// One request on an open client connection.
fn ask(client: &mut TcpStream, token: &str) -> GatewayResponse {
    let request = GatewayRequest {
        token: token.into(),
        query: fig1_query_text().into(),
    };
    write_frame(client, &request).expect("request sent");
    read_frame(client, &SchemaRegistry::new())
        .expect("verdict readable")
        .expect("gateway answered")
}

/// The rows of a complete (or, with `partial`, a flagged) answer.
#[track_caller]
fn rows_of(verdict: GatewayResponse, partial: bool) -> Vec<Vec<String>> {
    match verdict {
        GatewayResponse::Answer {
            rows, partial: p, ..
        } if p == partial => rows,
        other => panic!("expected an answer with partial={partial}, got {other:?}"),
    }
}

/// Copies `from` to `to` until EOF, then passes the EOF on.
fn pipe(mut from: TcpStream, mut to: TcpStream) {
    let _ = io::copy(&mut from, &mut to);
    let _ = to.shutdown(Shutdown::Write);
}

/// A byte-for-byte TCP relay in front of `upstream` that counts the
/// connections it accepts — the test's view of how many peer-port
/// connections a gateway opens. The accept thread lives as long as the
/// test process.
fn counting_proxy(upstream: SocketAddr) -> (SocketAddr, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("proxy binds");
    let addr = listener.local_addr().expect("proxy address");
    let accepted = Arc::new(AtomicUsize::new(0));
    let count = Arc::clone(&accepted);
    std::thread::spawn(move || {
        for down in listener.incoming().flatten() {
            count.fetch_add(1, Ordering::SeqCst);
            let Ok(up) = TcpStream::connect(upstream) else {
                continue;
            };
            let _ = (down.set_nodelay(true), up.set_nodelay(true));
            let (down2, up2) = (down.try_clone().unwrap(), up.try_clone().unwrap());
            std::thread::spawn(move || pipe(down, up));
            std::thread::spawn(move || pipe(up2, down2));
        }
    });
    (addr, accepted)
}

/// A relay that speaks the wire protocol: it forwards each `ClientQuery`
/// to `upstream` and passes the single-frame reply on with its `partial`
/// flag raised — a host that gave up on a contributor, on demand.
fn degrading_proxy(upstream: SocketAddr) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("proxy binds");
    let addr = listener.local_addr().expect("proxy address");
    let mut schemas = SchemaRegistry::new();
    schemas.register(fig1_schema());
    std::thread::spawn(move || {
        for mut down in listener.incoming().flatten() {
            let mut up = TcpStream::connect(upstream).expect("upstream reachable");
            while let Ok(Some(query)) = read_frame::<Envelope>(&mut down, &schemas) {
                write_frame(&mut up, &query).expect("query relayed");
                let mut reply: Envelope = read_frame(&mut up, &schemas)
                    .expect("reply readable")
                    .expect("upstream answered");
                let Msg::Data { partial, last, .. } = &mut reply.msg else {
                    panic!("expected Data, got {:?}", reply.msg);
                };
                assert!(*last, "the upstream host must not stream");
                *partial = true;
                write_frame(&mut down, &reply).expect("reply relayed");
            }
        }
    });
    addr
}

#[test]
fn fifty_queries_on_one_client_connection_open_one_host_connection() {
    let host = host("acme", "127.0.0.1:0", None);
    let (proxy, accepted) = counting_proxy(host.addr);
    let gateway = gateway(vec![tenant("acme-token", proxy, 0)]);

    let mut client = TcpStream::connect(gateway.addr).expect("gateway reachable");
    for i in 0..50 {
        let rows = rows_of(ask(&mut client, "acme-token"), false);
        assert_eq!(rows.len(), 4, "query {i}");
    }
    assert_eq!(
        accepted.load(Ordering::SeqCst),
        1,
        "one client connection, one tenant: one peer-port connection"
    );

    // A second client connection has host connections of its own.
    let mut other = TcpStream::connect(gateway.addr).expect("gateway reachable");
    rows_of(ask(&mut other, "acme-token"), false);
    rows_of(ask(&mut client, "acme-token"), false);
    assert_eq!(accepted.load(Ordering::SeqCst), 2);

    gateway.shutdown();
    host.shutdown();
}

#[test]
fn a_kept_connection_survives_a_host_restart() {
    let first = host("acme", "127.0.0.1:0", None);
    let addr = first.addr;
    let gateway = gateway(vec![tenant("acme-token", addr, 0)]);
    let mut client = TcpStream::connect(gateway.addr).expect("gateway reachable");
    assert_eq!(rows_of(ask(&mut client, "acme-token"), false).len(), 4);

    // The gateway now holds a connection to a host that is gone; the same
    // port is served by a new process' worth of state.
    first.shutdown();
    let second = host("acme", &addr.to_string(), None);
    assert_eq!(second.addr, addr);

    let verdict = ask(&mut client, "acme-token");
    assert_eq!(
        rows_of(verdict, false).len(),
        4,
        "the query after a host restart is answered, not failed"
    );
    // ... and the replacement connection is kept like any other.
    assert_eq!(rows_of(ask(&mut client, "acme-token"), false).len(), 4);

    gateway.shutdown();
    second.shutdown();
}

#[test]
fn an_unanswered_query_costs_at_most_two_connects_and_spares_the_next() {
    let host = host("acme", "127.0.0.1:0", None);
    let (proxy, accepted) = counting_proxy(host.addr);
    // `lost-token` poses its queries at a peer id the group does not have:
    // the host closes the connection without answering.
    let gateway = gateway(vec![
        tenant("acme-token", proxy, 0),
        tenant("lost-token", proxy, 999),
    ]);
    let mut client = TcpStream::connect(gateway.addr).expect("gateway reachable");

    for round in 0..3 {
        let before = accepted.load(Ordering::SeqCst);
        assert_eq!(
            ask(&mut client, "lost-token"),
            GatewayResponse::Error("host closed without answering".into()),
            "round {round}"
        );
        let connects = accepted.load(Ordering::SeqCst) - before;
        assert!(
            (1..=2).contains(&connects),
            "round {round}: {connects} connects for one unanswerable query"
        );
        // The failure cost the well-addressed tenant nothing: its query is
        // answered, and from the second round on, on its kept connection.
        let before = accepted.load(Ordering::SeqCst);
        assert_eq!(rows_of(ask(&mut client, "acme-token"), false).len(), 4);
        let connects = accepted.load(Ordering::SeqCst) - before;
        assert_eq!(connects, usize::from(round == 0), "round {round}");
    }

    gateway.shutdown();
    host.shutdown();
}

#[test]
fn partial_and_streamed_answers_leave_the_connection_reusable() {
    let mono = host("acme", "127.0.0.1:0", None);
    let streamed = host("globex", "127.0.0.1:0", Some(2));
    let (mono_proxy, mono_accepted) = counting_proxy(degrading_proxy(mono.addr));
    let (streamed_proxy, streamed_accepted) = counting_proxy(streamed.addr);
    let gateway = gateway(vec![
        tenant("partial-token", mono_proxy, 0),
        tenant("streamed-token", streamed_proxy, 0),
    ]);
    let mut client = TcpStream::connect(gateway.addr).expect("gateway reachable");

    for round in 0..5 {
        let rows = rows_of(ask(&mut client, "partial-token"), true);
        assert_eq!(rows.len(), 4, "round {round}");
        assert!(rows.iter().flatten().all(|v| v.contains("acme")));
        // Four rows in 2-row frames: two `Data` packets per reply, and the
        // connection goes back only once the one flagged `last` is read.
        let rows = rows_of(ask(&mut client, "streamed-token"), false);
        assert_eq!(rows.len(), 4, "round {round}");
        assert!(rows.iter().flatten().all(|v| v.contains("globex")));
    }
    assert_eq!(mono_accepted.load(Ordering::SeqCst), 1);
    assert_eq!(streamed_accepted.load(Ordering::SeqCst), 1);

    gateway.shutdown();
    mono.shutdown();
    streamed.shutdown();
}

/// What a peer that stalls in the middle of a frame gets from `addr`:
/// `half` is written, the connection idles past the server's 500 ms read
/// timeout, `rest` is written, and the reply (if any) is read.
fn stall_mid_frame<T: sqpeer_wire::Wire>(
    addr: SocketAddr,
    half: &[u8],
    rest: &[u8],
    schemas: &SchemaRegistry,
) -> io::Result<Option<T>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(half)?;
    std::thread::sleep(Duration::from_millis(800));
    // The server may already have closed: a failed write is as good a
    // refusal as a closed read.
    stream.write_all(rest)?;
    read_frame(&mut stream, schemas)
}

/// A read timeout is an idle tick only between frames. Once a server has
/// consumed part of a frame and the sender stalls, the connection is out
/// of frame for good: it must be closed, whatever the sender does next —
/// send the rest (an honest, slow peer) or start over with a whole frame.
/// The parent commit dropped the consumed bytes and carried on: it read
/// the tail of the frame as the head of the next one, or answered the
/// second frame as if the first half had never been sent.
#[test]
fn a_peer_that_stalls_mid_frame_is_closed_not_misread() {
    let host = host("acme", "127.0.0.1:0", None);
    let gateway = gateway(vec![tenant("acme-token", host.addr, 0)]);
    let schema = fig1_schema();
    let mut schemas = SchemaRegistry::new();
    schemas.register(Arc::clone(&schema));

    let query = encode_frame(&Envelope {
        from: PeerId(9_999),
        to: PeerId(0),
        sent_at_us: 0,
        msg: Msg::ClientQuery {
            qid: QueryId(7),
            query: compile(fig1_query_text(), &schema).expect("fixture compiles"),
        },
    });
    let request = encode_frame(&GatewayRequest {
        token: "acme-token".into(),
        query: fig1_query_text().into(),
    });

    #[track_caller]
    fn assert_closed<T: std::fmt::Debug>(what: &str, reply: io::Result<Option<T>>) {
        match reply {
            Ok(Some(frame)) => panic!("{what}: answered out of frame: {frame:?}"),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                panic!("{what}: the connection was parked, not closed")
            }
            Ok(None) | Err(_) => {}
        }
    }
    // Two length bytes, then half the payload; then the rest, then a
    // whole frame instead.
    for cut in [2, query.len() / 2] {
        let (half, tail) = query.split_at(cut);
        assert_closed(
            "host, rest of the frame",
            stall_mid_frame::<Envelope>(host.addr, half, tail, &schemas),
        );
        assert_closed(
            "host, a whole query",
            stall_mid_frame::<Envelope>(host.addr, half, &query, &schemas),
        );
    }
    for cut in [2, request.len() / 2] {
        let (half, tail) = request.split_at(cut);
        assert_closed(
            "gateway, rest of the frame",
            stall_mid_frame::<GatewayResponse>(gateway.addr, half, tail, &schemas),
        );
        assert_closed(
            "gateway, a whole request",
            stall_mid_frame::<GatewayResponse>(gateway.addr, half, &request, &schemas),
        );
    }

    // An idle connection — a timeout on a frame boundary — is still fine.
    let mut client = TcpStream::connect(gateway.addr).expect("gateway reachable");
    assert_eq!(rows_of(ask(&mut client, "acme-token"), false).len(), 4);
    std::thread::sleep(Duration::from_millis(800));
    assert_eq!(rows_of(ask(&mut client, "acme-token"), false).len(), 4);

    gateway.shutdown();
    host.shutdown();
}

#[track_caller]
fn assert_prompt(what: &str, shutdown: impl FnOnce()) {
    let started = Instant::now();
    shutdown();
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(100),
        "{what} took {took:?} to shut down"
    );
}

#[test]
fn shutdown_wakes_blocked_accepts() {
    // No connection was ever made.
    let idle_host = host("acme", "127.0.0.1:0", None);
    let idle_gateway = gateway(vec![tenant("acme-token", idle_host.addr, 0)]);
    assert_prompt("an unused gateway", || idle_gateway.shutdown());
    assert_prompt("an unused host", || idle_host.shutdown());

    // A client connection and the host connection kept for it are open
    // and idle.
    let busy_host = host("acme", "127.0.0.1:0", None);
    let busy_gateway = gateway(vec![tenant("acme-token", busy_host.addr, 0)]);
    let mut client = TcpStream::connect(busy_gateway.addr).expect("gateway reachable");
    assert_eq!(rows_of(ask(&mut client, "acme-token"), false).len(), 4);
    assert_prompt("a gateway with an idle client", || busy_gateway.shutdown());
    assert_prompt("a host with an idle kept connection", || {
        busy_host.shutdown()
    });

    // Listeners on the unspecified address are woken over loopback.
    let schema = fig1_schema();
    let any_host = spawn_host(HostConfig {
        listen: "0.0.0.0:0".into(),
        status: Some("0.0.0.0:0".into()),
        spec: GroupSpec {
            bases: vec![base_with(&schema, &[("http://a/a", "prop1", "http://a/b")])],
            schema,
            config: PeerConfig::default(),
        },
        telemetry_window_us: None,
        settle_us: 50_000,
        answer_batch_rows: None,
    })
    .expect("host binds the unspecified address");
    let any_gateway = spawn_gateway(GatewayConfig {
        listen: "0.0.0.0:0".into(),
        tenants: vec![tenant("acme-token", any_host.addr, 0)],
    })
    .expect("gateway binds the unspecified address");
    assert!(any_host.addr.ip().is_unspecified() && any_gateway.addr.ip().is_unspecified());
    assert_prompt("a gateway on 0.0.0.0", || any_gateway.shutdown());
    assert_prompt("a host on 0.0.0.0", || any_host.shutdown());
}

/// The status listener blocks in `accept` and the pump wakes on the
/// read's command, so a read of the page is served when it arrives, from
/// the first connect on. Behind the 5 ms accept poll each read in a
/// closed loop waited out a full sleep: 50 of them took 250 ms or more.
#[test]
fn status_reads_do_not_wait_on_a_poll() {
    let host = host("acme", "127.0.0.1:0", None);
    let status = host.status_addr.expect("status port bound");
    let read = || {
        let mut text = String::new();
        TcpStream::connect(status)
            .expect("status reachable")
            .read_to_string(&mut text)
            .expect("status readable");
        text
    };
    let started = Instant::now();
    for _ in 0..50 {
        assert!(read().starts_with("sqpeerd status"));
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(100),
        "50 status reads took {took:?}"
    );
    host.shutdown();
}
