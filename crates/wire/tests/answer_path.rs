//! The two codec steps an answer crosses on its way out: the `ResultSet`
//! decode (a dictionary of nodes built from strings borrowed out of the
//! frame, plus ids) and the gateway's `Answer` frame, rendered from the
//! host's `Data` packets without decoding them into nodes.

use proptest::prelude::*;
use sqpeer_exec::{Msg, QueryId};
use sqpeer_net::{Channel, ChannelId, ChannelState};
use sqpeer_rdfs::{Literal, Node, Resource};
use sqpeer_routing::PeerId;
use sqpeer_rql::{compile, evaluate, ResultSet};
use sqpeer_testkit::fixtures::{base_with, fig1_schema};
use sqpeer_wire::{
    decode_payload, decode_value, encode_frame, encode_value, AnswerFrame, Envelope,
    GatewayResponse, SchemaRegistry, WireError,
};

/// The frame payload of a host reply carrying `result`.
fn data_payload(result: ResultSet, partial: bool, seq: u32, last: bool) -> Vec<u8> {
    let frame = encode_frame(&Envelope {
        from: PeerId(0),
        to: PeerId(u32::MAX),
        sent_at_us: 0,
        msg: Msg::Data {
            channel: Channel {
                id: ChannelId(3),
                root: PeerId(u32::MAX),
                dest: PeerId(0),
                state: ChannelState::Closed,
            },
            qid: QueryId(3),
            tag: 0,
            result,
            partial,
            stats: None,
            seq,
            last,
        },
    });
    frame[4..].to_vec()
}

/// Cells from a small pool — most URIs and strings recur many times in
/// one result — over resources and all four literal kinds.
fn node(kind: u8, v: u32) -> Node {
    match kind % 6 {
        0..=2 => Node::Resource(Resource::new(format!("http://example.org/data/r{}", v % 5))),
        3 => Node::Literal(Literal::string(format!("name \"{}\" é", v % 3))),
        4 if v.is_multiple_of(2) => Node::Literal(Literal::Integer(i64::from(v) - 40)),
        4 => Node::Literal(Literal::Float(f64::from(v) / 7.0 - 3.0)),
        _ => Node::Literal(Literal::Boolean(v.is_multiple_of(2))),
    }
}

/// A result set over a dictionary drawn from the pool, so one value may
/// sit under several ids and some entries are used by no row.
fn arb_result_set() -> impl Strategy<Value = ResultSet> {
    let entries = prop::collection::vec((0..6u8, 0..80u32), 1..40);
    let picks = prop::collection::vec(any::<u32>(), 0..120);
    (0..4usize, entries, picks).prop_map(|(width, entries, picks)| {
        let columns = ["X", "Y", "Z"][..width].iter().map(|c| c.to_string());
        let dict: Vec<Node> = entries.iter().map(|&(k, v)| node(k, v)).collect();
        let rows = picks.len().checked_div(width).unwrap_or(picks.len().min(1));
        let n = dict.len() as u32;
        let ids = picks[..rows * width].iter().map(|p| p % n);
        ResultSet::from_dict(columns.collect::<Vec<_>>(), dict, ids.collect(), rows)
            .expect("ids in range")
    })
}

/// `set`'s rows over a compact dictionary: each value once, in the order
/// the cells first use it, as an answer over a larger snapshot holds them.
fn compact(set: &ResultSet) -> ResultSet {
    let (mut dict, mut ids) = (Vec::new(), Vec::new());
    for node in set.rows.iter().flat_map(|row| row.iter()) {
        let at = dict.iter().position(|d| d == node).unwrap_or_else(|| {
            dict.push(node.clone());
            dict.len() - 1
        });
        ids.push(at as u32);
    }
    ResultSet::from_dict(set.columns.clone(), dict, ids, set.len()).expect("ids in range")
}

/// An answer of at most 16 cells over a snapshot of at most 16 nodes has
/// the snapshot's table for its dictionary, unused entries and all: it
/// encodes to the bytes of the same rows over a compact dictionary, alone
/// and in a `Data` packet, and decodes equal to both.
#[test]
fn a_shared_table_answer_encodes_as_its_compact_rows() {
    let (reg, schema) = (SchemaRegistry::new(), fig1_schema());
    let base = base_with(
        &schema,
        &[
            ("http://p/a", "prop1", "http://p/b"),
            ("http://p/c", "prop1", "http://p/b"),
            ("http://p/b", "prop2", "http://p/d"),
            ("http://p/e", "prop2", "http://p/f"),
        ],
    );
    let table = base.snapshot().table();
    for text in [
        "SELECT X, Y FROM {X}prop1{Y}",
        "SELECT Y FROM {X}prop1{Y}",
        "SELECT Z, Y FROM {Y}prop2{Z}",
    ] {
        let lent = evaluate(&compile(text, &schema).unwrap(), &base);
        assert!(std::ptr::eq(lent.rows.dict(), &table[..]), "{text}");
        let compact = compact(&lent);
        let bytes = encode_value(&compact);
        assert_eq!(encode_value(&lent), bytes, "{text}");
        let packet = |rs: &ResultSet| data_payload(rs.clone(), false, 0, true);
        assert_eq!(packet(&lent), packet(&compact), "{text}");
        let decoded: ResultSet = decode_value(&bytes, &reg).expect("own encoding");
        assert_eq!((&decoded, &decoded), (&lent, &compact), "{text}");
    }
}

proptest! {
    #[test]
    fn result_set_roundtrips_by_value_and_by_bytes(rs in arb_result_set()) {
        let reg = SchemaRegistry::new();
        let bytes = encode_value(&rs);
        let decoded: ResultSet = decode_value(&bytes, &reg).expect("decode of own encoding");
        prop_assert_eq!(&decoded, &rs);
        prop_assert_eq!(encode_value(&decoded), bytes);
    }

    /// The frame built from three `Data` packets' bytes, each with its own
    /// dictionary, is the frame of the response value whose cells are each
    /// decoded node's `to_string()`.
    #[test]
    fn answer_frame_is_the_rendered_response_frame(
        rs in arb_result_set(),
        cut in 0..120usize,
        partial in any::<bool>(),
        clocks in (0..5_000_000u64, 0..5_000_000u64),
    ) {
        let reg = SchemaRegistry::new();
        let expected = encode_frame(&GatewayResponse::Answer {
            columns: rs.columns.to_vec(),
            rows: rs
                .rows
                .iter()
                .map(|row| row.iter().map(|node| node.to_string()).collect())
                .collect(),
            partial,
            ttfr_us: clocks.0,
            latency_us: clocks.1,
        });
        // Three packets, each with a dictionary of its own.
        let cut = cut.min(rs.len());
        let pieces = [0..cut / 2, cut / 2..cut, cut..rs.len()];
        let mut frame = AnswerFrame::new();
        for (seq, rows) in pieces.into_iter().enumerate() {
            let last = seq == 2;
            let piece = ResultSet { columns: rs.columns.clone(), rows: rs.rows.slice(rows) };
            let has_rows = !piece.is_empty();
            let payload = data_payload(piece, last && partial, seq as u32, last);
            let flags = frame.push_data(&payload, &reg).expect("own encoding");
            prop_assert_eq!((flags.has_rows, flags.partial, flags.last), (has_rows, last && partial, last));
        }
        prop_assert_eq!(frame.finish(partial, clocks.0, clocks.1), expected);
    }

    /// Rendering from the bytes rejects what decoding rejects: every
    /// truncation of a reply, and every single-byte corruption that the
    /// decoder refuses.
    #[test]
    fn push_data_rejects_what_the_decoder_rejects(rs in arb_result_set(), flip in any::<u64>()) {
        let reg = SchemaRegistry::new();
        let payload = data_payload(rs, false, 0, true);
        for cut in 0..payload.len() {
            prop_assert!(AnswerFrame::new().push_data(&payload[..cut], &reg).is_err());
        }
        let mut bent = payload.clone();
        let at = (flip as usize >> 8) % bent.len();
        bent[at] ^= 1 << (flip % 8);
        let decoded: Result<Envelope, WireError> = decode_payload(&bent, &reg);
        let rendered = AnswerFrame::new().push_data(&bent, &reg);
        match decoded {
            Ok(Envelope { msg: Msg::Data { .. }, .. }) => prop_assert!(rendered.is_ok()),
            _ => prop_assert!(rendered.is_err()),
        }
    }
}
