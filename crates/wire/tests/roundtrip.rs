//! Exact-roundtrip guarantee: `encode ∘ decode ∘ encode ≡ encode`.
//!
//! `Msg` has no `PartialEq` (result sets, plans and queries compare
//! structurally at different layers), so roundtrips are asserted on the
//! **canonical bytes**: decoding an encoding and re-encoding must
//! reproduce the original bytes exactly. That is a stronger statement
//! than value equality — it pins the canonical form itself.

use proptest::prelude::*;
use sqpeer_exec::{HierScope, Msg, PeerChannel, QueryId, TraceCtx};
use sqpeer_net::{Channel, ChannelId, ChannelState};
use sqpeer_plan::{PlanNode, Site, Subquery};
use sqpeer_rdfs::{Literal, Node, PropertyId, Resource};
use sqpeer_routing::{route, Advertisement, PeerId, RoutingPolicy};
use sqpeer_rql::{compile, QueryPattern, ResultSet};
use sqpeer_rvl::ActiveSchema;
use sqpeer_store::{BaseStatistics, ClassStats, PropertyStats};
use sqpeer_testkit::fixtures::{fig1_schema, fig2_bases};
use sqpeer_wire::{decode_value, encode_value, SchemaRegistry, Wire};

fn registry() -> SchemaRegistry {
    let mut reg = SchemaRegistry::new();
    reg.register(fig1_schema());
    reg
}

/// Byte-exact roundtrip through the bare-value codec.
fn assert_roundtrip<T: Wire>(value: &T, reg: &SchemaRegistry) {
    let bytes = encode_value(value);
    let decoded: T = decode_value(&bytes, reg).expect("decode of own encoding");
    let re = encode_value(&decoded);
    assert_eq!(bytes, re, "re-encoding differs from original encoding");
}

const QUERY_TEXTS: [&str; 6] = [
    "SELECT X, Y FROM {X}prop1{Y}",
    "SELECT X, Y FROM {X}prop4{Y}",
    "SELECT X, Y FROM {X;C5}prop1{Y}",
    "SELECT X, Y FROM {X}prop1{Y}, {Y}prop2{Z}",
    "SELECT X, Z FROM {X}prop4{Y}, {Y}prop2{Z}",
    "SELECT X, W FROM {X}prop1{Y}, {Y}prop2{Z}, {Z}prop3{W}",
];

fn channel(id: u64, root: u32, dest: u32, state: ChannelState) -> PeerChannel {
    Channel {
        id: ChannelId(id),
        root: PeerId(root),
        dest: PeerId(dest),
        state,
    }
}

fn node(kind: u8, v: u32) -> Node {
    match kind % 4 {
        0 => Node::Resource(Resource::new(format!("http://r/{v}"))),
        1 => Node::Literal(Literal::Integer(v as i64 - 40)),
        2 => Node::Literal(Literal::Float(v as f64 / 7.0)),
        _ => Node::Literal(Literal::String(format!("s{v}").into())),
    }
}

fn arb_result_set() -> impl Strategy<Value = ResultSet> {
    prop::collection::vec((0..4u8, 0..80u32), 0..24).prop_map(|cells| {
        let columns = vec!["X".to_string(), "Y".to_string()];
        let rows = cells
            .chunks(2)
            .filter(|c| c.len() == 2)
            .map(|c| c.iter().map(|&(k, v)| node(k, v)).collect())
            .collect();
        ResultSet::from_rows(columns, rows)
    })
}

/// A result set of 0–2 columns over a dictionary of few values: one value
/// under several ids, a NaN among them, entries no row uses.
fn arb_dictionary_set() -> impl Strategy<Value = ResultSet> {
    let entries = prop::collection::vec((0..4u8, 0..4u32), 1..12);
    let picks = prop::collection::vec(any::<u32>(), 0..24);
    (0..3usize, entries, picks).prop_map(|(width, entries, picks)| {
        let columns: Vec<String> = ["X", "Y"][..width].iter().map(|c| c.to_string()).collect();
        let value = |(k, v)| match (k, v) {
            (2, 0) => Node::Literal(Literal::Float(f64::NAN)),
            _ => node(k, v),
        };
        let dict: Vec<Node> = entries.into_iter().map(value).collect();
        let rows = picks.len().checked_div(width).unwrap_or(picks.len().min(1));
        let n = dict.len() as u32;
        let ids = picks[..rows * width].iter().map(|p| p % n);
        ResultSet::from_dict(columns, dict, ids.collect(), rows).expect("ids in range")
    })
}

fn arb_plan() -> impl Strategy<Value = PlanNode> {
    // Shape: join-of-unions-of-fetches, sized by the generated indices;
    // exercises every PlanNode/Site constructor without unbounded depth.
    (
        prop::collection::vec((0..QUERY_TEXTS.len(), 0..5u32, any::<bool>()), 1..6),
        any::<bool>(),
    )
        .prop_map(|(leaves, sited)| {
            let schema = fig1_schema();
            let fetches: Vec<PlanNode> = leaves
                .iter()
                .map(|&(qi, peer, hole)| PlanNode::Fetch {
                    subquery: Subquery {
                        covers: 1 << (qi % 3),
                        query: compile(QUERY_TEXTS[qi], &schema).unwrap(),
                    },
                    site: if hole {
                        Site::Hole
                    } else {
                        Site::Peer(PeerId(peer))
                    },
                })
                .collect();
            let union = PlanNode::Union(fetches.clone());
            PlanNode::Join {
                inputs: vec![union, fetches[0].clone()],
                site: if sited { Some(PeerId(1)) } else { None },
            }
        })
}

fn advertisement(peer: u32, with_stats: bool) -> Advertisement {
    let schema = fig1_schema();
    let bases = fig2_bases(&schema);
    let base = &bases[peer as usize % bases.len()];
    let ad = Advertisement::new(PeerId(peer), ActiveSchema::of_base(base));
    if with_stats {
        ad.with_stats(base.statistics())
    } else {
        ad
    }
}

fn arb_msg() -> impl Strategy<Value = Msg> {
    (
        0..21u8,
        0..QUERY_TEXTS.len(),
        (0..64u64, 0..8u32, 0..8u32, any::<bool>()),
        arb_result_set(),
        arb_plan(),
    )
        .prop_map(|(variant, qi, (tag, a, b, flag), result, plan)| {
            let schema = fig1_schema();
            let query = compile(QUERY_TEXTS[qi], &schema).unwrap();
            let qid = QueryId(tag * 31 + a as u64);
            let ch = channel(
                tag,
                a,
                b,
                if flag {
                    ChannelState::Open
                } else {
                    ChannelState::Failed
                },
            );
            match variant {
                0 => Msg::Advertise(advertisement(a, flag)),
                1 => Msg::RequestAds { depth: a },
                2 => Msg::AdsResponse(vec![advertisement(a, flag), advertisement(b, !flag)]),
                3 => Msg::Withdraw,
                4 => Msg::WithdrawPeer(PeerId(a)),
                5 => Msg::Heartbeat,
                6 => Msg::HeartbeatPeer(PeerId(b)),
                7 => Msg::ExpirePeer(advertisement(a, flag)),
                8 => {
                    // A real routed annotation when `flag`, else a hole-y
                    // empty one.
                    let partial = if flag {
                        let ads: Vec<Advertisement> =
                            (0..3).map(|p| advertisement(p, false)).collect();
                        Some(route(&query, &ads, RoutingPolicy::default()))
                    } else {
                        None
                    };
                    Msg::RouteRequest {
                        qid,
                        query,
                        backbone_ttl: b,
                        partial,
                    }
                }
                9 => {
                    let ads: Vec<Advertisement> = (0..4).map(|p| advertisement(p, false)).collect();
                    Msg::RouteResponse {
                        qid,
                        annotated: route(&query, &ads, RoutingPolicy::default()),
                        missing: vec![PeerId(a), PeerId(b)],
                    }
                }
                10 => Msg::Subplan {
                    channel: ch,
                    qid,
                    tag,
                    plan,
                    visited: vec![PeerId(a), PeerId(b)],
                    attempt: a,
                    trace: flag.then_some(TraceCtx {
                        origin: PeerId(a),
                        parent_start_us: tag * 1000,
                    }),
                },
                11 => Msg::Data {
                    channel: ch,
                    qid,
                    tag,
                    result,
                    partial: flag,
                    stats: flag.then(|| {
                        let bases = fig2_bases(&fig1_schema());
                        bases[a as usize % bases.len()].statistics()
                    }),
                    seq: b,
                    last: !flag,
                },
                12 => Msg::SubplanFailed {
                    channel: ch,
                    qid,
                    tag,
                },
                13 => Msg::ExecutePlan { qid, query, plan },
                14 => Msg::ClientQuery { qid, query },
                15 => Msg::ClientAnswer { qid, result },
                16 => Msg::Credit {
                    channel: ch,
                    qid,
                    tag,
                    credits: a + 1,
                },
                17 => Msg::SummaryAdvertise {
                    owner: PeerId(b),
                    summary: advertisement(a, flag).active,
                    changed: flag.then(|| (0..b % 5).map(PropertyId).collect()),
                },
                18 => Msg::HierRouteRequest {
                    qid,
                    query,
                    scope: [HierScope::Global, HierScope::Cluster, HierScope::Local]
                        [tag as usize % 3],
                },
                19 => {
                    let ads: Vec<Advertisement> = (0..4).map(|p| advertisement(p, false)).collect();
                    Msg::HierRouteResponse {
                        qid,
                        annotated: route(&query, &ads, RoutingPolicy::default()),
                        missing: vec![PeerId(b)],
                    }
                }
                _ => {
                    let mut obs = sqpeer_exec::ObsState::default();
                    let (from, to) = (sqpeer_net::NodeId(b), sqpeer_net::NodeId(a));
                    obs.count_receipt(from, to, 64 + tag as usize);
                    if flag {
                        obs.count_receipt(to, to, 128);
                    }
                    obs.pattern_row(PeerId(a), QUERY_TEXTS[qi]).record(
                        tag * 100,
                        flag.then_some(tag * 10),
                        u64::from(a),
                        flag,
                        u64::from(b),
                    );
                    Msg::ObsPush {
                        owner: PeerId(a),
                        rows: obs.outbound_delta(),
                    }
                }
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode∘decode ≡ id (byte-exact) over generated exec/overlay
    /// messages spanning every `Msg` variant.
    #[test]
    fn msg_roundtrips_byte_exact(msg in arb_msg()) {
        let reg = registry();
        let bytes = encode_value(&msg);
        let decoded: Msg = decode_value(&bytes, &reg).expect("decode");
        prop_assert_eq!(bytes, encode_value(&decoded));
    }

    /// Frames (length prefix + version byte) roundtrip too.
    #[test]
    fn framed_msg_roundtrips(msg in arb_msg()) {
        let reg = registry();
        let frame = sqpeer_wire::encode_frame(&msg);
        let decoded: Msg = sqpeer_wire::decode_frame(&frame, &reg).expect("decode frame");
        prop_assert_eq!(frame, sqpeer_wire::encode_frame(&decoded));
    }

    /// `Msg::wire_size` is the bandwidth-accounting estimate every
    /// transport charges per send (the simulator prices link transfer
    /// time with it; credit windows meter streams framed by it). It must
    /// track the actual codec framing within a fixed envelope on every
    /// variant — Credit included — or simulated byte counts drift away
    /// from what a TCP deployment ships:
    ///
    /// * never undercount by more than 2× (+64 bytes framing slack), so
    ///   transfer-time simulation cannot be wildly optimistic, and
    /// * never overcount by more than 6× (+64 bytes for the fixed-cost
    ///   floor on tiny control packets like Heartbeat).
    #[test]
    fn wire_size_tracks_encoded_length(msg in arb_msg()) {
        let encoded = encode_value(&msg).len();
        let estimate = msg.wire_size();
        prop_assert!(
            encoded <= 2 * estimate + 64,
            "wire_size undercounts: encoded {} vs estimate {}",
            encoded,
            estimate
        );
        prop_assert!(
            estimate <= 6 * encoded + 64,
            "wire_size overcounts: estimate {} vs encoded {}",
            estimate,
            encoded
        );
    }

    /// Result sets with every node kind roundtrip bit-exactly (floats
    /// travel as IEEE bits, not text).
    #[test]
    fn result_set_roundtrips(rs in arb_result_set()) {
        let reg = registry();
        let bytes = encode_value(&rs);
        let decoded: ResultSet = decode_value(&bytes, &reg).expect("decode");
        prop_assert_eq!(&decoded, &rs);
        prop_assert_eq!(bytes, encode_value(&decoded));
    }

    /// Plans (recursive) roundtrip to structurally equal trees.
    /// The encoding is canonical whatever the dictionary held: the rows'
    /// values, only the entries they use, in the order they are first
    /// used — so decoding and re-encoding reproduces the bytes.
    #[test]
    fn result_set_encoding_is_canonical(rs in arb_dictionary_set()) {
        let reg = registry();
        let bytes = encode_value(&rs);
        let decoded: ResultSet = decode_value(&bytes, &reg).expect("decode");
        prop_assert_eq!(format!("{decoded:?}"), format!("{rs:?}"));
        prop_assert_eq!(encode_value(&decoded), bytes);
        let mut used = 0;
        for &id in decoded.rows.ids() {
            prop_assert!(id <= used, "id {} before id {}", id, used);
            used += u32::from(id == used);
        }
        prop_assert_eq!(used as usize, decoded.rows.dict().len());
    }

    /// A snapshot's `wire_size`, computed once when it is built or
    /// decoded, is exactly the bytes the codec writes, at every varint
    /// width.
    #[test]
    fn statistics_wire_size_is_exact_at_any_magnitude(
        counts in prop::collection::vec((0..64u32, any::<u64>()), 0..24)
    ) {
        let n: Vec<usize> = counts.iter().map(|&(shift, v)| (v >> shift) as usize).collect();
        let props: Vec<PropertyStats> = n
            .chunks_exact(3)
            .map(|c| PropertyStats {
                triples: c[0],
                distinct_subjects: c[1],
                distinct_objects: c[2],
            })
            .collect();
        let classes: Vec<ClassStats> = n.iter().map(|&instances| ClassStats { instances }).collect();
        let stats = BaseStatistics::from_raw_parts(
            props.clone(),
            classes.clone(),
            props.into_iter().rev().collect(),
            classes[..n.len() / 2].to_vec(),
        );
        let bytes = encode_value(&stats);
        prop_assert_eq!(stats.wire_size(), bytes.len());
        let decoded: BaseStatistics = decode_value(&bytes, &registry()).expect("decode");
        prop_assert_eq!(decoded.wire_size(), bytes.len());
        prop_assert_eq!(decoded, stats);
    }

    #[test]
    fn plan_roundtrips(plan in arb_plan()) {
        let reg = registry();
        let bytes = encode_value(&plan);
        let decoded: PlanNode = decode_value(&bytes, &reg).expect("decode");
        prop_assert_eq!(&decoded, &plan);
    }
}

#[test]
fn envelope_roundtrips() {
    let reg = registry();
    let schema = fig1_schema();
    let env = sqpeer_wire::Envelope {
        from: PeerId(3),
        to: PeerId(7),
        sent_at_us: 1_234_567,
        msg: Msg::ClientQuery {
            qid: sqpeer_wire::scoped_qid(PeerId(3), 9),
            query: compile(QUERY_TEXTS[0], &schema).unwrap(),
        },
    };
    let frame = sqpeer_wire::encode_frame(&env);
    let decoded: sqpeer_wire::Envelope = sqpeer_wire::decode_frame(&frame, &reg).unwrap();
    assert_eq!(decoded.from, PeerId(3));
    assert_eq!(decoded.to, PeerId(7));
    assert_eq!(decoded.sent_at_us, 1_234_567);
    assert_eq!(frame, sqpeer_wire::encode_frame(&decoded));
}

#[test]
fn gateway_messages_roundtrip() {
    let reg = SchemaRegistry::new(); // gateway messages are schema-free
    let req = sqpeer_wire::GatewayRequest {
        token: "tenant-a-secret".into(),
        query: QUERY_TEXTS[3].into(),
    };
    let bytes = encode_value(&req);
    let back: sqpeer_wire::GatewayRequest = decode_value(&bytes, &reg).unwrap();
    assert_eq!(back.token, req.token);
    assert_eq!(back.query, req.query);

    for resp in [
        sqpeer_wire::GatewayResponse::Answer {
            columns: vec!["X".into()],
            rows: vec![vec!["http://r/1".into()]],
            partial: false,
            ttfr_us: 1_250,
            latency_us: 9_800,
        },
        sqpeer_wire::GatewayResponse::Unauthorized,
        sqpeer_wire::GatewayResponse::OverQuota {
            quota: "concurrent-queries".into(),
        },
        sqpeer_wire::GatewayResponse::Error("no coverage".into()),
    ] {
        let bytes = encode_value(&resp);
        let back: sqpeer_wire::GatewayResponse = decode_value(&bytes, &reg).unwrap();
        assert_eq!(back, resp);
    }
}

#[test]
fn scoped_qids_are_disjoint_across_peers() {
    assert_ne!(
        sqpeer_wire::scoped_qid(PeerId(1), 5),
        sqpeer_wire::scoped_qid(PeerId(2), 5)
    );
    assert_eq!(sqpeer_wire::scoped_qid(PeerId(1), 5).0 >> 32, 1);
}

#[test]
fn statistics_roundtrip_preserves_closed_lookups() {
    let reg = registry();
    let schema = fig1_schema();
    let bases = fig2_bases(&schema);
    let stats = bases[0].statistics();
    assert_roundtrip(&stats, &reg);
    let decoded: sqpeer_store::BaseStatistics = decode_value(&encode_value(&stats), &reg).unwrap();
    for p in 0..schema.property_count() as u32 {
        let p = sqpeer_rdfs::PropertyId(p);
        assert_eq!(decoded.property(p), stats.property(p));
        assert_eq!(decoded.property_closed(p), stats.property_closed(p));
    }
    assert_eq!(decoded.total_triples(), stats.total_triples());
}

/// The same exactness over the fixture bases: a fresh snapshot, the one
/// the base shares, and each decoded.
#[test]
fn statistics_wire_size_is_exact() {
    let reg = registry();
    let schema = fig1_schema();
    for base in fig2_bases(&schema) {
        for stats in [base.statistics(), base.stats().clone()] {
            let bytes = encode_value(&stats);
            assert_eq!(stats.wire_size(), bytes.len());
            let decoded: BaseStatistics = decode_value(&bytes, &reg).unwrap();
            assert_eq!(decoded.wire_size(), bytes.len());
        }
    }
}

/// A decoded query reads as the text it was encoded from and compares
/// equal to the original on every rendered field.
#[test]
fn decoded_queries_read_as_encoded() {
    let reg = registry();
    let schema = fig1_schema();
    let top_n = "SELECT X, Y FROM {X}prop1{Y}, {X;C5} ORDER BY Y DESC LIMIT 4";
    for text in QUERY_TEXTS.into_iter().chain([top_n]) {
        let query = compile(text, &schema).unwrap();
        let decoded: QueryPattern = decode_value(&encode_value(&query), &reg).unwrap();
        assert_eq!(decoded.text(), query.text());
        assert_eq!(decoded, query);
    }
}
