//! The host's streamed reply on a real socket, frame by frame.
//!
//! For an n-row answer and every interesting `answer_batch_rows` — off,
//! 1, 2, n − 1, n, n + 1 — the `Data` frames a peer-port client reads
//! must be well formed (no frame over the batch size, `seq` counting up
//! from 0, exactly one `last` and nothing after it, `partial` on no frame
//! but the last) and must concatenate to the single-frame answer row for
//! row. The gateway in front of the same host must reply with exactly
//! those rows, each cell rendered as `Node::to_string` renders it.

use sqpeer_daemon::{
    spawn_gateway, spawn_host, GatewayConfig, GroupSpec, HostConfig, Quotas, TenantConfig,
};
use sqpeer_exec::{Msg, PeerConfig, QueryId};
use sqpeer_routing::PeerId;
use sqpeer_rql::{compile, ResultSet, Rows};
use sqpeer_testkit::fixtures::{base_with, fig1_schema};
use sqpeer_wire::{
    read_frame, write_frame, Envelope, GatewayRequest, GatewayResponse, SchemaRegistry,
};
use std::net::TcpStream;

const QUERY: &str = "SELECT X, Y FROM {X}prop1{Y}";
const AT: PeerId = PeerId(0);

/// Three peers whose `prop1` extents overlap in one triple: the root
/// unions seven distinct rows.
fn spec() -> GroupSpec {
    let schema = fig1_schema();
    let triples = |peer: &str, n: usize| -> Vec<(String, String)> {
        (0..n)
            .map(|i| (format!("http://{peer}/s{i}"), format!("http://{peer}/o{i}")))
            .chain([("http://shared/s".to_string(), "http://shared/o".to_string())])
            .collect()
    };
    let bases = [("p0", 2), ("p1", 3), ("p2", 1)]
        .iter()
        .map(|&(peer, n)| {
            let owned = triples(peer, n);
            let refs: Vec<(&str, &str, &str)> = owned
                .iter()
                .map(|(s, o)| (s.as_str(), "prop1", o.as_str()))
                .collect();
            base_with(&schema, &refs)
        })
        .collect();
    GroupSpec {
        schema,
        bases,
        config: PeerConfig::default(),
    }
}

/// One `Data` frame as the client saw it.
struct Frame {
    result: ResultSet,
    partial: bool,
    seq: u32,
    last: bool,
}

/// Boots a host with `batch`, asks [`QUERY`] on its peer port and through
/// a gateway in front of it; returns the peer-port frames up to and
/// including the first `last`, and the gateway's verdict.
fn ask(batch: Option<usize>) -> (Vec<Frame>, GatewayResponse) {
    let host = spawn_host(HostConfig {
        listen: "127.0.0.1:0".into(),
        status: None,
        spec: spec(),
        telemetry_window_us: None,
        settle_us: 150_000,
        answer_batch_rows: batch,
    })
    .expect("host binds a loopback port");
    let schema = fig1_schema();
    let mut schemas = SchemaRegistry::new();
    schemas.register(fig1_schema());

    let mut stream = TcpStream::connect(host.addr).expect("host reachable");
    let query = Envelope {
        from: PeerId(9_999),
        to: AT,
        sent_at_us: 0,
        msg: Msg::ClientQuery {
            qid: QueryId(7),
            query: compile(QUERY, &schema).expect("query compiles"),
        },
    };
    write_frame(&mut stream, &query).expect("query sent");
    let mut frames = Vec::new();
    loop {
        let reply: Envelope = read_frame(&mut stream, &schemas)
            .expect("reply readable")
            .expect("host answered");
        let Msg::Data {
            qid,
            result,
            partial,
            seq,
            last,
            ..
        } = reply.msg
        else {
            panic!("expected a Data frame, got {:?}", reply.msg);
        };
        assert_eq!(qid, QueryId(7), "the reply echoes the client's qid");
        frames.push(Frame {
            result,
            partial,
            seq,
            last,
        });
        if last {
            break;
        }
    }
    // Nothing follows the `last` frame: a second query on the same
    // connection is answered from seq 0 again.
    write_frame(&mut stream, &query).expect("second query sent");
    let next: Envelope = read_frame(&mut stream, &schemas)
        .expect("reply readable")
        .expect("host answered");
    assert!(
        matches!(next.msg, Msg::Data { seq: 0, .. }),
        "frames after `last` belong to the next answer"
    );
    drop(stream);

    let gateway = spawn_gateway(GatewayConfig {
        listen: "127.0.0.1:0".into(),
        tenants: vec![TenantConfig {
            token: "t".into(),
            host: host.addr.to_string(),
            schema,
            at: AT,
            quotas: Quotas::default(),
        }],
    })
    .expect("gateway binds a loopback port");
    let mut client = TcpStream::connect(gateway.addr).expect("gateway reachable");
    let request = GatewayRequest {
        token: "t".into(),
        query: QUERY.into(),
    };
    write_frame(&mut client, &request).expect("request sent");
    let verdict: GatewayResponse = read_frame(&mut client, &SchemaRegistry::new())
        .expect("verdict readable")
        .expect("gateway answered");
    drop(client);
    gateway.shutdown();
    host.shutdown();
    (frames, verdict)
}

#[test]
fn streamed_frames_concatenate_to_the_single_frame_answer() {
    let (mono, mono_verdict) = ask(None);
    assert_eq!(mono.len(), 1, "without batching the answer is one frame");
    let answer = &mono[0].result;
    let n = answer.rows.len();
    assert_eq!(n, 7, "three overlapping extents union to seven rows");
    assert!(mono[0].last && mono[0].seq == 0 && !mono[0].partial);

    // The gateway's rendering, cell by cell, as it always was.
    let rendered: Vec<Vec<String>> = answer
        .rows
        .iter()
        .map(|row| row.iter().map(|node| node.to_string()).collect())
        .collect();
    let check_verdict = |verdict: GatewayResponse, batch: Option<usize>| {
        let GatewayResponse::Answer {
            columns,
            rows,
            partial,
            ttfr_us,
            latency_us,
        } = verdict
        else {
            panic!("gateway refused at batch {batch:?}: {verdict:?}");
        };
        assert_eq!(columns, *answer.columns, "batch {batch:?}");
        assert_eq!(rows, rendered, "batch {batch:?}");
        assert!(!partial, "batch {batch:?}");
        assert!(0 < ttfr_us && ttfr_us <= latency_us, "batch {batch:?}");
    };
    check_verdict(mono_verdict, None);

    for batch in [1, 2, n - 1, n, n + 1] {
        let (frames, verdict) = ask(Some(batch));
        assert_eq!(frames.len(), n.div_ceil(batch), "batch {batch}");
        let mut rows = Rows::default();
        for (i, frame) in frames.iter().enumerate() {
            let is_final = i + 1 == frames.len();
            assert_eq!(frame.seq, i as u32, "batch {batch}");
            assert_eq!(frame.last, is_final, "batch {batch}, frame {i}");
            assert!(!frame.partial, "batch {batch}, frame {i}");
            assert!(frame.result.rows.len() <= batch, "batch {batch}, frame {i}");
            assert_eq!(frame.result.columns, answer.columns, "batch {batch}");
            rows.append(frame.result.rows.clone());
        }
        assert_eq!(
            rows, answer.rows,
            "batch {batch}: rows or their order changed"
        );
        check_verdict(verdict, Some(batch));
    }
}
