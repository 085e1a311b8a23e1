//! Byte pins: the wire bytes themselves, not just their self-consistency.
//!
//! The roundtrip tests show that encode and decode agree with each other;
//! a layout that swaps two fields of one type (a channel's `root` and
//! `dest`) or renumbers a tag passes them all. This test encodes one fixed
//! value per `Msg` variant (tags 0–20), an `Envelope`, a `GatewayRequest`
//! and every `GatewayResponse` variant — each field holding a value no
//! other field of its type holds — and compares the hex with
//! `tests/golden/wire.txt`, one `name hex` line per value. Each value also
//! decodes and re-encodes to the same bytes.
//!
//! The fixture changes only with the wire format, and a wire format change
//! bumps `WIRE_VERSION`: re-bless with
//! `BLESS=1 cargo test -p sqpeer-wire --test golden` and review the diff.

use sqpeer_exec::{HierScope, Msg, ObsState, PeerChannel, QueryId, TraceCtx};
use sqpeer_net::{Channel, ChannelId, ChannelState, NodeId};
use sqpeer_plan::{PlanNode, Site, Subquery};
use sqpeer_rdfs::{ClassId, Literal, Node, PropertyId, Resource};
use sqpeer_routing::{AnnotatedQuery, PeerAnnotation, PeerId};
use sqpeer_rql::{compile, Endpoint, PathPattern, QueryPattern, ResultSet, Term, VarId};
use sqpeer_rvl::{ActiveProperty, ActiveSchema};
use sqpeer_store::{BaseStatistics, ClassStats, PropertyStats};
use sqpeer_subsume::PatternMatch;
use sqpeer_testkit::fixtures::fig1_schema;
use sqpeer_wire::{
    decode_value, encode_value, Envelope, GatewayRequest, GatewayResponse, SchemaRegistry, Wire,
};
use std::fmt::Write as _;

fn query(text: &str) -> QueryPattern {
    compile(text, &fig1_schema()).expect("compiles")
}

fn channel() -> PeerChannel {
    Channel {
        id: ChannelId(101),
        root: PeerId(102),
        dest: PeerId(103),
        state: ChannelState::Failed,
    }
}

/// Classes 0, 2 and 4; one property arc to a class, one to a literal.
fn active(peer: u32) -> ActiveSchema {
    let properties = vec![
        ActiveProperty {
            property: PropertyId(1),
            domain: ClassId(2),
            range: Some(ClassId(3)),
        },
        ActiveProperty {
            property: PropertyId(peer % 4),
            domain: ClassId(5),
            range: None,
        },
    ];
    ActiveSchema::new(fig1_schema(), [0, 2, 4].map(ClassId), properties)
}

fn stats() -> BaseStatistics {
    let props = |base: usize| {
        (0..2)
            .map(|i| PropertyStats {
                triples: base + 3 * i,
                distinct_subjects: base + 3 * i + 1,
                distinct_objects: base + 3 * i + 2,
            })
            .collect::<Vec<_>>()
    };
    let classes = |base: usize| {
        (0..3)
            .map(|i| ClassStats {
                instances: base + i,
            })
            .collect()
    };
    BaseStatistics::from_raw_parts(props(10), classes(20), props(300), classes(400))
}

fn advertisement(peer: u32) -> sqpeer_routing::Advertisement {
    sqpeer_routing::Advertisement::new(PeerId(peer), active(peer)).with_stats(stats())
}

/// Two path patterns, annotated with every `PatternMatch` and every
/// `Term` kind, end-points with and without a class.
fn annotated() -> AnnotatedQuery {
    let end = |term, class: Option<u32>| Endpoint {
        term,
        class: class.map(ClassId),
    };
    let annotation = |peer, kind, object| PeerAnnotation {
        peer: PeerId(peer),
        kind,
        pattern: PathPattern {
            subject: end(Term::Var(VarId(7)), Some(4)),
            property: PropertyId(3),
            object,
        },
    };
    let resource = Term::Resource(Resource::new("http://g/object"));
    let literal = |l| end(Term::Literal(l), None);
    AnnotatedQuery::new(
        query("SELECT X, Z FROM {X}prop1{Y}, {Y}prop2{Z}"),
        vec![
            vec![
                annotation(
                    11,
                    PatternMatch::Equivalent,
                    end(Term::Var(VarId(8)), Some(5)),
                ),
                annotation(12, PatternMatch::SpecializesQuery, end(resource, Some(1))),
            ],
            vec![
                annotation(
                    13,
                    PatternMatch::GeneralizesQuery,
                    literal(Literal::Integer(-9)),
                ),
                annotation(14, PatternMatch::Overlaps, literal(Literal::Boolean(true))),
            ],
        ],
    )
}

/// Every node kind, one value repeated (so the dictionary holds fewer
/// entries than the rows cells).
fn result() -> ResultSet {
    let cells = [
        Node::Resource(Resource::new("http://g/r")),
        Node::Literal(Literal::String("text".into())),
        Node::Literal(Literal::Integer(-42)),
        Node::Literal(Literal::Float(2.5)),
        Node::Literal(Literal::Boolean(false)),
        Node::Resource(Resource::new("http://g/r")),
    ];
    let rows = cells.chunks(2).map(<[Node]>::to_vec).collect();
    ResultSet::from_rows(vec!["X".into(), "Y".into()], rows)
}

/// A join of a union of a sited and a hole fetch, with that sited fetch.
fn plan() -> PlanNode {
    let fetch = |covers, site| PlanNode::Fetch {
        subquery: Subquery {
            covers,
            query: query("SELECT X, Y FROM {X}prop4{Y}"),
        },
        site,
    };
    PlanNode::Join {
        inputs: vec![
            PlanNode::Union(vec![
                fetch(0b101, Site::Peer(PeerId(21))),
                fetch(0b10, Site::Hole),
            ]),
            fetch(0b1000, Site::Peer(PeerId(22))),
        ],
        site: Some(PeerId(23)),
    }
}

/// Link rows and one pattern row, every histogram non-empty.
fn rollup() -> sqpeer_exec::Rollup {
    let mut obs = ObsState::default();
    obs.count_receipt(NodeId(31), NodeId(32), 700);
    obs.count_receipt(NodeId(33), NodeId(31), 90);
    obs.pattern_row(PeerId(34), "SELECT X FROM {X}prop3{Y}")
        .record(1_500, Some(250), 6, true, 2);
    obs.outbound_delta()
}

/// Every `Msg` variant, in tag order.
fn msgs() -> Vec<(&'static str, Msg)> {
    let qid = QueryId(0x1_0000_0201);
    vec![
        ("Advertise", Msg::Advertise(advertisement(41))),
        ("RequestAds", Msg::RequestAds { depth: 3 }),
        (
            "AdsResponse",
            Msg::AdsResponse(vec![
                advertisement(42),
                sqpeer_routing::Advertisement::new(PeerId(43), active(43)),
            ]),
        ),
        ("Withdraw", Msg::Withdraw),
        ("WithdrawPeer", Msg::WithdrawPeer(PeerId(44))),
        ("Heartbeat", Msg::Heartbeat),
        ("HeartbeatPeer", Msg::HeartbeatPeer(PeerId(45))),
        ("ExpirePeer", Msg::ExpirePeer(advertisement(46))),
        (
            "RouteRequest",
            Msg::RouteRequest {
                qid,
                query: query("SELECT X, Y FROM {X;C5}prop1{Y}"),
                backbone_ttl: 5,
                partial: Some(annotated()),
            },
        ),
        (
            "RouteResponse",
            Msg::RouteResponse {
                qid,
                annotated: annotated(),
                missing: vec![PeerId(47), PeerId(48)],
            },
        ),
        (
            "Subplan",
            Msg::Subplan {
                channel: channel(),
                qid,
                tag: 301,
                plan: plan(),
                visited: vec![PeerId(49), PeerId(50)],
                attempt: 2,
                trace: Some(TraceCtx {
                    origin: PeerId(51),
                    parent_start_us: 123_456,
                }),
            },
        ),
        (
            "Data",
            Msg::Data {
                channel: channel(),
                qid,
                tag: 302,
                result: result(),
                partial: true,
                stats: Some(stats()),
                seq: 6,
                last: false,
            },
        ),
        (
            "SubplanFailed",
            Msg::SubplanFailed {
                channel: channel(),
                qid,
                tag: 303,
            },
        ),
        (
            "ExecutePlan",
            Msg::ExecutePlan {
                qid,
                query: query("SELECT X, Y FROM {X}prop1{Y}"),
                plan: plan(),
            },
        ),
        (
            "ClientQuery",
            Msg::ClientQuery {
                qid,
                query: query("SELECT X, Y FROM {X}prop1{Y} ORDER BY Y DESC LIMIT 4"),
            },
        ),
        (
            "ClientAnswer",
            Msg::ClientAnswer {
                qid,
                result: result(),
            },
        ),
        (
            "Credit",
            Msg::Credit {
                channel: channel(),
                qid,
                tag: 304,
                credits: 7,
            },
        ),
        (
            "SummaryAdvertise",
            Msg::SummaryAdvertise {
                owner: PeerId(52),
                summary: active(52),
            },
        ),
        (
            "HierRouteRequest.Global",
            Msg::HierRouteRequest {
                qid,
                query: query("SELECT X, Y FROM {X}prop2{Y}"),
                scope: HierScope::Global,
            },
        ),
        (
            "HierRouteRequest.Cluster",
            Msg::HierRouteRequest {
                qid,
                query: query("SELECT X, Y FROM {X}prop2{Y}"),
                scope: HierScope::Cluster,
            },
        ),
        (
            "HierRouteRequest.Local",
            Msg::HierRouteRequest {
                qid,
                query: query("SELECT X, Y FROM {X}prop2{Y}"),
                scope: HierScope::Local,
            },
        ),
        (
            "HierRouteResponse",
            Msg::HierRouteResponse {
                qid,
                annotated: annotated(),
                missing: vec![PeerId(53)],
            },
        ),
        (
            "ObsPush",
            Msg::ObsPush {
                owner: PeerId(54),
                rows: rollup(),
            },
        ),
    ]
}

fn gateway_responses() -> Vec<(&'static str, GatewayResponse)> {
    vec![
        (
            "GatewayResponse.Answer",
            GatewayResponse::Answer {
                columns: vec!["X".into(), "Y".into()],
                rows: vec![vec!["&http://g/r".into(), "\"text\"".into()]],
                partial: true,
                ttfr_us: 1_250,
                latency_us: 9_800,
            },
        ),
        (
            "GatewayResponse.Unauthorized",
            GatewayResponse::Unauthorized,
        ),
        (
            "GatewayResponse.OverQuota",
            GatewayResponse::OverQuota {
                quota: "concurrent-queries".into(),
            },
        ),
        (
            "GatewayResponse.Error",
            GatewayResponse::Error("no coverage".into()),
        ),
    ]
}

/// `value`'s bytes, after checking they decode and re-encode unchanged.
fn pinned<T: Wire>(value: &T, reg: &SchemaRegistry) -> Vec<u8> {
    let bytes = encode_value(value);
    let decoded: T = decode_value(&bytes, reg).expect("decode of own encoding");
    assert_eq!(encode_value(&decoded), bytes, "re-encoding differs");
    bytes
}

fn actual() -> String {
    let mut reg = SchemaRegistry::new();
    reg.register(fig1_schema());
    let mut lines = Vec::new();
    for (name, msg) in msgs() {
        lines.push((name.to_string(), pinned(&msg, &reg)));
    }
    let envelope = Envelope {
        from: PeerId(61),
        to: PeerId(62),
        sent_at_us: 987_654,
        msg: Msg::HeartbeatPeer(PeerId(63)),
    };
    lines.push(("Envelope".into(), pinned(&envelope, &reg)));
    let request = GatewayRequest {
        token: "tenant-a-secret".into(),
        query: "SELECT X, Y FROM {X}prop1{Y}".into(),
    };
    lines.push(("GatewayRequest".into(), pinned(&request, &reg)));
    for (name, response) in gateway_responses() {
        lines.push((name.to_string(), pinned(&response, &reg)));
    }
    let mut out = String::new();
    for (name, bytes) in lines {
        let _ = write!(out, "{name} ");
        bytes.iter().for_each(|b| {
            let _ = write!(out, "{b:02x}");
        });
        out.push('\n');
    }
    out
}

#[test]
fn every_message_encodes_to_its_pinned_bytes() {
    let actual = actual();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/wire.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("has a parent")).expect("mkdir");
        std::fs::write(&path, &actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e})", path.display()));
    for (want, got) in expected.lines().zip(actual.lines()) {
        assert_eq!(got, want, "wire bytes moved");
    }
    assert_eq!(actual.lines().count(), expected.lines().count());
}

/// Every `Msg` tag 0–20 is pinned: the first byte of each line is its
/// tag (each is below 128, so one varint byte).
#[test]
fn the_fixture_covers_every_msg_tag() {
    let tags: std::collections::BTreeSet<u8> =
        msgs().iter().map(|(_, msg)| encode_value(msg)[0]).collect();
    assert_eq!(tags, (0..=20).collect());
}
