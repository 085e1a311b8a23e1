//! Deployment-layer integration tests: the simulator≡loopback
//! equivalence pin, the TCP host end to end, and gateway tenant
//! isolation.
//!
//! The headline invariant: a seeded workload driven through the
//! [`Transport`] trait produces **identical answer sets and identical
//! completeness accounting** whether the substrate is the virtual-time
//! simulator or the real-clock loopback transport with the wire codec on
//! every hop. That is the proof that `sqpeerd` deploys the same protocol
//! the simulation campaign validated — not a port of it.

use sqpeer_daemon::{
    assemble, await_outcome, outcome, pose, spawn_gateway, spawn_host, GatewayConfig, GroupSpec,
    HostConfig, LoopbackNet, Quotas, TenantConfig,
};
use sqpeer_exec::{node_of, Msg, PeerConfig, PeerNode, QueryId};
use sqpeer_net::{FaultPlan, Simulator, Transport};
use sqpeer_routing::PeerId;
use sqpeer_testkit::fixtures::{base_with, fig1_query_text, fig1_schema, fig2_bases};
use sqpeer_wire::{
    read_frame, write_frame, Envelope, GatewayRequest, GatewayResponse, SchemaRegistry,
};
use std::net::TcpStream;
use std::sync::Arc;

/// The shared workload: the paper's running example — five peers holding
/// the figure-2 bases, queried with the figure-1 pattern.
fn spec() -> GroupSpec {
    let schema = fig1_schema();
    GroupSpec {
        bases: fig2_bases(&schema),
        schema,
        config: PeerConfig::default(),
    }
}

/// One member peer's observation of a completed query, in a form
/// comparable across substrates: display-rendered sorted rows plus the
/// completeness account.
#[derive(Debug, PartialEq, Eq)]
struct Observation {
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
    partial: bool,
    missing: Vec<PeerId>,
}

/// Runs the workload on `transport`: assemble, pose the figure-1 query
/// at every member, await and record each outcome.
fn run_workload<T: Transport<PeerNode>>(
    transport: &mut T,
    settle_us: u64,
    slice_us: u64,
    budget_us: u64,
) -> Vec<Observation> {
    let mut group = assemble(transport, spec(), settle_us);
    let query = group
        .compile(fig1_query_text())
        .expect("fixture query compiles");
    let posed: Vec<(PeerId, QueryId)> = group
        .peers
        .clone()
        .into_iter()
        .map(|at| (at, pose(transport, &mut group, at, query.clone())))
        .collect();
    posed
        .into_iter()
        .map(|(at, qid)| {
            assert!(
                await_outcome(transport, at, qid, slice_us, budget_us),
                "query {qid} at {at:?} did not complete in budget"
            );
            let o = outcome(transport, at, qid).expect("just awaited");
            let mut rows: Vec<Vec<String>> = o
                .result
                .rows
                .iter()
                .map(|row| row.iter().map(|n| n.to_string()).collect())
                .collect();
            rows.sort();
            Observation {
                columns: o.result.columns.to_vec(),
                rows,
                partial: o.partial,
                missing: o.missing.clone(),
            }
        })
        .collect()
}

/// The tentpole equivalence pin: virtual-time simulator vs real-clock
/// loopback (codec on every hop) — identical answers, identical
/// completeness accounting, at every member peer.
#[test]
fn simulator_and_loopback_agree_on_answers_and_completeness() {
    let mut sim: Simulator<PeerNode> = Simulator::default();
    let virtual_obs = run_workload(&mut sim, 2_000_000, 100_000, 60_000_000);

    let mut schemas = SchemaRegistry::new();
    schemas.register(fig1_schema());
    let mut net: LoopbackNet<PeerNode> = LoopbackNet::new(schemas);
    let real_obs = run_workload(&mut net, 200_000, 10_000, 20_000_000);

    assert_eq!(
        net.decode_failures(),
        0,
        "codec failed on the delivery path"
    );
    assert!(net.metrics().total_messages() > 0);
    assert_eq!(
        virtual_obs.len(),
        real_obs.len(),
        "different member counts?!"
    );
    for (i, (v, r)) in virtual_obs.iter().zip(&real_obs).enumerate() {
        assert_eq!(v, r, "peer {i} diverged between simulator and loopback");
    }
    // The workload itself must be non-trivial for the pin to mean
    // anything: the figure-1 query has answers in the figure-2 bases.
    assert!(
        virtual_obs.iter().any(|o| !o.rows.is_empty()),
        "workload produced no rows anywhere"
    );
    assert!(
        virtual_obs
            .iter()
            .all(|o| !o.partial && o.missing.is_empty()),
        "healthy run reported partial answers"
    );
}

/// The fault plan on the real clock: with duplicated and jittered frames
/// the loopback still gives every member the fault-free simulator's
/// answer and completeness account, and the plan did act.
#[test]
fn loopback_under_duplication_and_jitter_agrees_with_the_simulator() {
    let mut sim: Simulator<PeerNode> = Simulator::default();
    let virtual_obs = run_workload(&mut sim, 2_000_000, 100_000, 60_000_000);

    let mut schemas = SchemaRegistry::new();
    schemas.register(fig1_schema());
    let mut net: LoopbackNet<PeerNode> = LoopbackNet::new(schemas);
    net.set_fault_plan(FaultPlan::new(7).with_duplication(300).with_jitter(2_000));
    let real_obs = run_workload(&mut net, 200_000, 10_000, 20_000_000);

    assert_eq!(net.decode_failures(), 0, "codec failed under faults");
    assert!(
        net.metrics().duplicates_delivered() > 0,
        "the fault plan duplicated nothing"
    );
    assert_eq!(virtual_obs, real_obs, "faults changed an answer");
}

/// The TCP host end to end: a raw wire-protocol client poses the query
/// over a real socket and gets the `Data` answer back.
#[test]
fn tcp_host_answers_wire_protocol_clients() {
    let handle = spawn_host(HostConfig {
        listen: "127.0.0.1:0".into(),
        status: Some("127.0.0.1:0".into()),
        spec: spec(),
        telemetry_window_us: Some(1_000_000),
        settle_us: 200_000,
        answer_batch_rows: None,
    })
    .expect("host starts");

    let mut schemas = SchemaRegistry::new();
    schemas.register(fig1_schema());
    let query = sqpeer_rql::compile(fig1_query_text(), &fig1_schema()).expect("compiles");
    let mut stream = TcpStream::connect(handle.addr).expect("host reachable");
    let client = PeerId(9_999);
    write_frame(
        &mut stream,
        &Envelope {
            from: client,
            to: PeerId(0),
            sent_at_us: 0,
            msg: Msg::ClientQuery {
                qid: QueryId(42),
                query,
            },
        },
    )
    .expect("query sent");
    let reply: Envelope = read_frame(&mut stream, &schemas)
        .expect("reply readable")
        .expect("host answered");
    assert_eq!(reply.to, client);
    let Msg::Data {
        qid,
        result,
        partial,
        last,
        ..
    } = reply.msg
    else {
        panic!("expected Data, got {:?}", reply.msg);
    };
    assert_eq!(qid, QueryId(42), "host must echo the client's qid");
    assert!(!result.rows.is_empty(), "figure-1 query has answers");
    assert!(!partial);
    assert!(last);

    // The status endpoint serves a plain-text page mentioning the
    // telemetry the exchange produced.
    let status_addr = handle.status_addr.expect("status configured");
    // Give the pump a refresh cycle before sampling.
    std::thread::sleep(std::time::Duration::from_millis(300));
    let mut status = String::new();
    std::io::Read::read_to_string(
        &mut TcpStream::connect(status_addr).expect("status reachable"),
        &mut status,
    )
    .expect("status readable");
    assert!(status.contains("sqpeerd status"), "got: {status}");
    assert!(status.contains("decode_failures 0"), "got: {status}");

    handle.shutdown();
}

/// Streamed results must be an execution strategy, not a semantics
/// change: the query posed at several members *concurrently*, with a
/// prop1 union big enough to split into many data packets.
const PROP1_QUERY: &str = "SELECT X, Y FROM {X}n1:prop1{Y} \
                           USING NAMESPACE n1 = &http://example.org/n1#";

/// Assembles `spec`, poses [`PROP1_QUERY`] at every member concurrently,
/// and returns each member's observation plus the highest per-channel
/// in-flight data-packet count any sender recorded.
fn run_streaming_workload<T: Transport<PeerNode>>(
    transport: &mut T,
    spec: GroupSpec,
    settle_us: u64,
    slice_us: u64,
    budget_us: u64,
) -> (Vec<Observation>, u32) {
    let mut group = assemble(transport, spec, settle_us);
    let query = group.compile(PROP1_QUERY).expect("prop1 query compiles");
    let posed: Vec<(PeerId, QueryId)> = group
        .peers
        .clone()
        .into_iter()
        .map(|at| (at, pose(transport, &mut group, at, query.clone())))
        .collect();
    let observations = posed
        .into_iter()
        .map(|(at, qid)| {
            assert!(
                await_outcome(transport, at, qid, slice_us, budget_us),
                "query {qid} at {at:?} did not complete in budget"
            );
            let o = outcome(transport, at, qid).expect("just awaited");
            assert!(
                o.ttfr_us.is_some_and(|t| t <= o.latency_us),
                "first rows must arrive no later than completion"
            );
            let mut rows: Vec<Vec<String>> = o
                .result
                .rows
                .iter()
                .map(|row| row.iter().map(|n| n.to_string()).collect())
                .collect();
            rows.sort();
            Observation {
                columns: o.result.columns.to_vec(),
                rows,
                partial: o.partial,
                missing: o.missing.clone(),
            }
        })
        .collect();
    let max_inflight = group
        .peers
        .iter()
        .filter_map(|&p| transport.node(node_of(p)))
        .map(|n| n.max_stream_inflight())
        .max()
        .unwrap_or(0);
    (observations, max_inflight)
}

/// Streaming-vs-monolithic pin: the same seeded workload run with
/// single-packet results and with batched streaming must produce
/// identical answer sets and identical completeness accounting at every
/// member — on the simulator and on the loopback (credits crossing the
/// wire codec) — while the credit window bounds every channel's
/// in-flight data packets.
#[test]
fn streaming_matches_monolithic_and_respects_credit_window() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sqpeer_testkit::{populate, DataSpec};

    const BATCH: usize = 4;
    const WINDOW: u32 = 3;

    let schema = fig1_schema();
    // Seeded scaled bases: enough prop1 rows on peers 0 and 1 that every
    // remote result splits into several packets at `BATCH` rows each.
    let scaled_spec = |batch: Option<usize>| {
        let mut rng = StdRng::seed_from_u64(7);
        let data = DataSpec {
            triples_per_property: 40,
            class_pool: 20,
        };
        let profiles: [&[&str]; 3] = [&["prop1", "prop2"], &["prop1"], &["prop2"]];
        let bases = profiles
            .iter()
            .map(|props| {
                let ids: Vec<_> = props
                    .iter()
                    .map(|p| schema.property_by_name(p).expect("fig1 property"))
                    .collect();
                let mut base = sqpeer_store::DescriptionBase::new(Arc::clone(&schema));
                populate(&mut base, &ids, data, &mut rng);
                base
            })
            .collect();
        GroupSpec {
            schema: Arc::clone(&schema),
            bases,
            config: PeerConfig {
                stream_batch_rows: batch,
                stream_credit_window: WINDOW,
                ..PeerConfig::default()
            },
        }
    };

    let mut sim: Simulator<PeerNode> = Simulator::default();
    let (mono_obs, mono_inflight) =
        run_streaming_workload(&mut sim, scaled_spec(None), 2_000_000, 100_000, 60_000_000);

    let mut sim: Simulator<PeerNode> = Simulator::default();
    let (stream_obs, stream_inflight) = run_streaming_workload(
        &mut sim,
        scaled_spec(Some(BATCH)),
        2_000_000,
        100_000,
        60_000_000,
    );

    let mut schemas = SchemaRegistry::new();
    schemas.register(fig1_schema());
    let mut net: LoopbackNet<PeerNode> = LoopbackNet::new(schemas);
    let (loop_obs, loop_inflight) = run_streaming_workload(
        &mut net,
        scaled_spec(Some(BATCH)),
        200_000,
        10_000,
        20_000_000,
    );
    assert_eq!(
        net.decode_failures(),
        0,
        "streamed packets or credits failed the codec"
    );

    // Identical answers AND identical completeness accounting,
    // streamed vs monolithic, across both substrates.
    assert_eq!(mono_obs, stream_obs, "streaming changed the answer");
    assert_eq!(mono_obs, loop_obs, "substrates diverged under streaming");
    assert!(
        mono_obs.iter().any(|o| o.rows.len() > BATCH),
        "workload too small to force multi-packet streams"
    );
    assert!(
        mono_obs.iter().all(|o| !o.partial && o.missing.is_empty()),
        "healthy run reported partial answers"
    );

    // Monolithic results never stream; streamed channels stay within the
    // credit window even with every member querying at once.
    assert_eq!(mono_inflight, 0, "monolithic run streamed packets");
    assert!(
        stream_inflight > 0 && stream_inflight <= WINDOW,
        "sim in-flight {stream_inflight} outside (0, {WINDOW}]"
    );
    assert!(
        loop_inflight > 0 && loop_inflight <= WINDOW,
        "loopback in-flight {loop_inflight} outside (0, {WINDOW}]"
    );
}

/// The observability plane on the real-clock transport: every member's
/// pattern-stats entry fills its `ttfr_us` histogram with the wall-clock
/// time-to-first-row the streamed outcome measured — one observation per
/// posed query, sums matching the outcomes exactly.
#[test]
fn loopback_pattern_stats_record_real_clock_ttfr() {
    use sqpeer_exec::ObsConfig;

    let mut schemas = SchemaRegistry::new();
    schemas.register(fig1_schema());
    let mut net: LoopbackNet<PeerNode> = LoopbackNet::new(schemas);
    let obs_spec = GroupSpec {
        config: PeerConfig {
            stream_batch_rows: Some(2),
            obs: Some(ObsConfig::default()),
            ..PeerConfig::default()
        },
        ..spec()
    };
    let mut group = assemble(&mut net, obs_spec, 200_000);
    let query = group
        .compile(fig1_query_text())
        .expect("fixture query compiles");
    let text = query.to_string();
    let posed: Vec<(PeerId, QueryId)> = group
        .peers
        .clone()
        .into_iter()
        .map(|at| (at, pose(&mut net, &mut group, at, query.clone())))
        .collect();
    let mut measured = 0usize;
    for (at, qid) in &posed {
        assert!(
            await_outcome(&mut net, *at, *qid, 10_000, 20_000_000),
            "query {qid} at {at:?} did not complete in budget"
        );
        let (ttfr_us, latency_us) = {
            let o = outcome(&net, *at, *qid).expect("just awaited");
            (o.ttfr_us, o.latency_us)
        };
        let patterns = net
            .node(node_of(*at))
            .and_then(PeerNode::obs)
            .expect("plane is on")
            .own
            .pattern_stats();
        let entry = patterns.get(&text).expect("finalize recorded the pattern");
        assert_eq!(entry.latency_us.count(), 1, "one finalize at {at:?}");
        assert_eq!(entry.latency_us.sum(), latency_us);
        match ttfr_us {
            Some(ttfr) => {
                assert_eq!(entry.ttfr_us.count(), 1, "ttfr observed at {at:?}");
                assert_eq!(
                    entry.ttfr_us.sum(),
                    ttfr,
                    "histogram sum must match the outcome's measured ttfr"
                );
                assert!(ttfr <= latency_us, "first rows precede completion");
                measured += 1;
            }
            None => assert_eq!(entry.ttfr_us.count(), 0),
        }
    }
    assert!(
        measured > 0,
        "no member measured a time-to-first-row — the histogram path \
         was never exercised"
    );
    assert_eq!(net.decode_failures(), 0);
}

/// Gateway isolation: two tenants, two hosts, and the token alone
/// decides whose data a query can see. Tenant A's token can never reach
/// tenant B's triples, an unknown token reaches nothing, and a
/// zero-byte quota refuses before any host work happens.
#[test]
fn gateway_isolates_tenants_and_enforces_quotas() {
    let schema = fig1_schema();
    let acme_host = spawn_host(HostConfig {
        listen: "127.0.0.1:0".into(),
        status: None,
        spec: GroupSpec {
            schema: Arc::clone(&schema),
            bases: vec![
                base_with(
                    &schema,
                    &[
                        ("http://acme/a", "prop1", "http://acme/b"),
                        ("http://acme/b", "prop2", "http://acme/c"),
                    ],
                ),
                base_with(&schema, &[("http://acme/x", "prop1", "http://acme/b")]),
            ],
            config: PeerConfig::default(),
        },
        telemetry_window_us: None,
        settle_us: 150_000,
        answer_batch_rows: None,
    })
    .expect("acme host starts");
    let globex_host = spawn_host(HostConfig {
        listen: "127.0.0.1:0".into(),
        status: None,
        spec: GroupSpec {
            schema: Arc::clone(&schema),
            bases: vec![base_with(
                &schema,
                &[
                    ("http://globex/a", "prop1", "http://globex/b"),
                    ("http://globex/b", "prop2", "http://globex/c"),
                ],
            )],
            config: PeerConfig::default(),
        },
        telemetry_window_us: None,
        settle_us: 150_000,
        answer_batch_rows: None,
    })
    .expect("globex host starts");

    let gateway = spawn_gateway(GatewayConfig {
        listen: "127.0.0.1:0".into(),
        tenants: vec![
            TenantConfig {
                token: "acme-token".into(),
                host: acme_host.addr.to_string(),
                schema: Arc::clone(&schema),
                at: PeerId(0),
                quotas: Quotas::default(),
            },
            TenantConfig {
                token: "globex-token".into(),
                host: globex_host.addr.to_string(),
                schema: Arc::clone(&schema),
                at: PeerId(0),
                quotas: Quotas::default(),
            },
            TenantConfig {
                token: "starved-token".into(),
                host: globex_host.addr.to_string(),
                schema: Arc::clone(&schema),
                at: PeerId(0),
                // A quota no request fits under: every admission attempt
                // must refuse deterministically, before any host contact.
                quotas: Quotas {
                    max_concurrent: 8,
                    max_bytes_in_flight: 1,
                },
            },
        ],
    })
    .expect("gateway starts");

    let ask = |token: &str| -> GatewayResponse {
        let mut stream = TcpStream::connect(gateway.addr).expect("gateway reachable");
        write_frame(
            &mut stream,
            &GatewayRequest {
                token: token.into(),
                query: fig1_query_text().into(),
            },
        )
        .expect("request sent");
        read_frame(&mut stream, &SchemaRegistry::new())
            .expect("verdict readable")
            .expect("gateway answered")
    };

    // Tenant A sees only tenant A's world.
    let GatewayResponse::Answer { rows, partial, .. } = ask("acme-token") else {
        panic!("acme should get an answer");
    };
    assert!(!rows.is_empty() && !partial);
    assert!(
        rows.iter().flatten().all(|v| v.contains("acme")),
        "tenant A's answer leaked foreign data: {rows:?}"
    );
    assert!(
        rows.iter().flatten().all(|v| !v.contains("globex")),
        "cross-tenant leak: {rows:?}"
    );

    // Tenant B sees only tenant B's world.
    let GatewayResponse::Answer { rows, .. } = ask("globex-token") else {
        panic!("globex should get an answer");
    };
    assert!(!rows.is_empty());
    assert!(
        rows.iter()
            .flatten()
            .all(|v| v.contains("globex") && !v.contains("acme")),
        "cross-tenant leak: {rows:?}"
    );

    // No token, no data — the request never reaches any host.
    assert_eq!(ask("stolen-token"), GatewayResponse::Unauthorized);

    // A known tenant over quota is refused with the quota named.
    let GatewayResponse::OverQuota { quota } = ask("starved-token") else {
        panic!("starved tenant should be over quota");
    };
    assert!(quota.contains("bytes"), "{quota}");

    // A malformed query fails at the gateway, not inside the group.
    let mut stream = TcpStream::connect(gateway.addr).expect("gateway reachable");
    write_frame(
        &mut stream,
        &GatewayRequest {
            token: "acme-token".into(),
            query: "SELECT gibberish".into(),
        },
    )
    .expect("request sent");
    let verdict: GatewayResponse = read_frame(&mut stream, &SchemaRegistry::new())
        .expect("verdict readable")
        .expect("gateway answered");
    assert!(matches!(verdict, GatewayResponse::Error(_)), "{verdict:?}");

    gateway.shutdown();
    acme_host.shutdown();
    globex_host.shutdown();
}
