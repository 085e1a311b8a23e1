//! Total-decoding guarantee: malformed input errors, never panics.
//!
//! A corpus of hostile frames — truncations at every byte boundary,
//! overlong length prefixes, unknown tags, wrong versions, trailing
//! garbage, deep plan nesting, unknown schema fingerprints — each of
//! which must produce a `WireError` (or, fed through the io path, an
//! `InvalidData` error), and a fuzz-ish sweep of random byte strings
//! that must simply never panic or over-allocate.

use proptest::prelude::*;
use sqpeer_exec::{Msg, QueryId};
use sqpeer_net::{Channel, ChannelId, ChannelState};
use sqpeer_plan::Subquery;
use sqpeer_rdfs::{ClassId, Node, PropertyId, Resource};
use sqpeer_routing::{Advertisement, PeerId};
use sqpeer_rql::{compile, ResolveError, ResultSet, RqlError, MAX_PATTERNS};
use sqpeer_rvl::{ActiveProperty, ActiveSchema};
use sqpeer_testkit::fixtures::{fig1_query_text, fig1_schema};
use sqpeer_wire::{
    decode_frame, decode_payload, decode_value, encode_frame, encode_value, AnswerFrame, Envelope,
    SchemaRegistry, WireError, Writer, MAX_DEPTH, WIRE_VERSION,
};

fn registry() -> SchemaRegistry {
    let mut reg = SchemaRegistry::new();
    reg.register(fig1_schema());
    reg
}

fn sample_msg() -> Msg {
    let schema = fig1_schema();
    Msg::ClientQuery {
        qid: QueryId(42),
        query: compile(fig1_query_text(), &schema).unwrap(),
    }
}

/// Every proper prefix of a valid encoding must fail cleanly — never
/// panic, never succeed (a shorter valid value would be caught by the
/// frame length check, exercised separately).
#[test]
fn every_truncation_errors() {
    let reg = registry();
    let bytes = encode_value(&sample_msg());
    for cut in 0..bytes.len() {
        let r: Result<Msg, WireError> = decode_value(&bytes[..cut], &reg);
        assert!(r.is_err(), "truncation at {cut}/{} decoded", bytes.len());
    }
}

#[test]
fn truncated_frames_error() {
    let reg = registry();
    let frame = encode_frame(&sample_msg());
    for cut in [0, 1, 3, 4, 5, frame.len() - 1] {
        let r: Result<Msg, WireError> = decode_frame(&frame[..cut], &reg);
        assert!(r.is_err(), "frame truncated at {cut} decoded");
    }
}

#[test]
fn wrong_version_is_refused() {
    let reg = registry();
    let mut frame = encode_frame(&sample_msg());
    frame[4] = WIRE_VERSION + 1; // the version byte follows the u32 length
    assert_eq!(
        decode_frame::<Msg>(&frame, &reg).unwrap_err(),
        WireError::BadVersion {
            got: WIRE_VERSION + 1,
            want: WIRE_VERSION
        }
    );
}

#[test]
fn unknown_msg_tag_is_refused() {
    let reg = registry();
    let mut w = Writer::new();
    w.u64v(99); // no such Msg variant
    let bytes = w.into_bytes();
    assert_eq!(
        decode_value::<Msg>(&bytes, &reg).unwrap_err(),
        WireError::BadTag {
            what: "Msg",
            tag: 99
        }
    );
}

/// `ObsPush` (tag 20) is the last assigned `Msg` tag; the first tag
/// past it must be refused, so a peer speaking a future protocol
/// revision fails loudly instead of desynchronising the stream.
#[test]
fn first_tag_past_frontier_is_refused() {
    let reg = registry();
    let mut w = Writer::new();
    w.u64v(21);
    let bytes = w.into_bytes();
    assert_eq!(
        decode_value::<Msg>(&bytes, &reg).unwrap_err(),
        WireError::BadTag {
            what: "Msg",
            tag: 21
        }
    );
}

#[test]
fn trailing_garbage_is_refused() {
    let reg = registry();
    let mut bytes = encode_value(&sample_msg());
    bytes.push(0xAA);
    assert_eq!(
        decode_value::<Msg>(&bytes, &reg).unwrap_err(),
        WireError::TrailingBytes(1)
    );
}

#[test]
fn overlong_length_prefix_is_refused_without_allocating() {
    let reg = registry();
    // An AdsResponse claiming 2^40 advertisements in a 12-byte body.
    let mut w = Writer::new();
    w.u64v(2); // Msg::AdsResponse
    w.u64v(1 << 40);
    let bytes = w.into_bytes();
    assert!(matches!(
        decode_value::<Msg>(&bytes, &reg).unwrap_err(),
        WireError::Overlong { claimed, .. } if claimed == 1 << 40
    ));
}

#[test]
fn oversized_frame_length_is_refused() {
    let reg = registry();
    let mut frame = Vec::new();
    frame.extend_from_slice(&u32::MAX.to_le_bytes());
    frame.push(WIRE_VERSION);
    assert!(matches!(
        decode_frame::<Msg>(&frame, &reg).unwrap_err(),
        WireError::FrameTooLarge(_)
    ));
}

#[test]
fn unknown_schema_fingerprint_is_refused() {
    let empty = SchemaRegistry::new();
    let bytes = encode_value(&sample_msg());
    assert!(matches!(
        decode_value::<Msg>(&bytes, &empty).unwrap_err(),
        WireError::UnknownSchema(_)
    ));
}

#[test]
fn absurd_plan_nesting_is_refused() {
    let reg = registry();
    // A Subplan whose plan is Union(Union(Union(... to depth 2*MAX_DEPTH.
    let mut w = Writer::new();
    w.u64v(13); // Msg::ExecutePlan
    w.u64v(1); // qid
               // query: fingerprint + text
    let schema = fig1_schema();
    w.u64v(schema.fingerprint());
    w.string("SELECT X, Y FROM {X}prop1{Y}");
    for _ in 0..2 * MAX_DEPTH {
        w.byte(1); // PlanNode::Union
        w.u64v(1); // of one input
    }
    let bytes = w.into_bytes();
    assert_eq!(
        decode_value::<Msg>(&bytes, &reg).unwrap_err(),
        WireError::DepthExceeded
    );
}

#[test]
fn bad_option_tag_is_refused() {
    let reg = registry();
    let schema = fig1_schema();
    let mut w = Writer::new();
    w.u64v(8); // Msg::RouteRequest
    w.u64v(1); // qid
    w.u64v(schema.fingerprint());
    w.string("SELECT X, Y FROM {X}prop1{Y}");
    w.u64v(0); // backbone_ttl
    w.byte(7); // Option tag that is neither 0 nor 1
    let bytes = w.into_bytes();
    assert!(matches!(
        decode_value::<Msg>(&bytes, &reg).unwrap_err(),
        WireError::BadTag {
            what: "Option",
            tag: 7
        }
    ));
}

#[test]
fn embedded_query_that_fails_to_compile_is_an_error() {
    let reg = registry();
    let schema = fig1_schema();
    let mut w = Writer::new();
    w.u64v(14); // Msg::ClientQuery
    w.u64v(1); // qid
    w.u64v(schema.fingerprint());
    w.string("SELECT gibberish");
    let bytes = w.into_bytes();
    assert!(matches!(
        decode_value::<Msg>(&bytes, &reg).unwrap_err(),
        WireError::Query(_)
    ));
}

/// A query text over the registry memo's 4 KiB cap is compiled at every
/// decode and never kept: a valid one decodes to what `compile` gives, an
/// invalid one is refused with the compiler's error, every time.
#[test]
fn an_over_long_query_text_is_compiled_at_every_decode() {
    let (reg, schema) = (registry(), fig1_schema());
    let frame = |text: &str| {
        let mut w = Writer::new();
        w.u64v(14); // Msg::ClientQuery
        w.u64v(1); // qid
        w.u64v(schema.fingerprint());
        w.string(text);
        w.into_bytes()
    };
    let pad = " ".repeat(5_000);
    let (good, bad) = (
        format!("SELECT X, Y FROM{pad}{{X}}prop1{{Y}}"),
        format!("SELECT{pad}gibberish"),
    );
    let refusal = WireError::Query(compile(&bad, &schema).unwrap_err().to_string());
    for round in 1..=2 {
        let Msg::ClientQuery { query, .. } = decode_value(&frame(&good), &reg).unwrap() else {
            panic!("not a client query");
        };
        assert_eq!(query.text(), compile(&good, &schema).unwrap().text());
        assert_eq!(
            decode_value::<Msg>(&frame(&bad), &reg).unwrap_err(),
            refusal
        );
        assert_eq!(reg.compile_counts(), (2 * round, 0), "a long text was kept");
    }
}

/// A query of more path patterns than a plan's 64-bit covers can name is
/// refused as it compiles — so by every decode of a message carrying one —
/// and a shipped fragment naming a pattern past the 64th is refused at
/// decode: typed errors, no panic.
#[test]
fn a_query_past_64_path_patterns_is_refused() {
    let (reg, schema) = (registry(), fig1_schema());
    let star = |n: usize| {
        let from: Vec<String> = (0..n).map(|i| format!("{{X}}prop1{{Y{i}}}")).collect();
        format!("SELECT X FROM {}", from.join(", "))
    };
    assert!(compile(&star(MAX_PATTERNS), &schema).is_ok());
    assert_eq!(
        compile(&star(MAX_PATTERNS + 1), &schema).unwrap_err(),
        RqlError::Resolve(ResolveError::TooManyPatterns(65))
    );
    let mut w = Writer::new();
    w.u64v(14); // Msg::ClientQuery
    w.u64v(1); // qid
    w.u64v(schema.fingerprint());
    w.string(&star(MAX_PATTERNS + 1));
    assert!(matches!(
        decode_value::<Msg>(&w.into_bytes(), &reg).unwrap_err(),
        WireError::Query(e) if e == "65 path expressions, over 64"
    ));
    let mut w = Writer::new();
    w.usizev(1); // one covered pattern,
    w.usizev(MAX_PATTERNS); // the 65th
    w.u64v(schema.fingerprint());
    w.string("SELECT X, Y FROM {X}prop1{Y}");
    assert_eq!(
        decode_value::<Subquery>(&w.into_bytes(), &reg).unwrap_err(),
        WireError::Mismatch("covered pattern beyond 63")
    );
}

/// An advertised property arc names classes of the schema it is bound
/// to: a domain or a range past the schema's classes is refused at decode,
/// as a populated class past them is, instead of reaching routing, which
/// indexes the schema's class tables by both.
#[test]
fn property_ends_beyond_the_schema_are_refused() {
    let reg = registry();
    let schema = fig1_schema();
    let beyond = ClassId(schema.class_count() as u32);
    for (domain, range) in [(beyond, Some(ClassId(1))), (ClassId(0), Some(beyond))] {
        let arc = ActiveProperty {
            property: PropertyId(0),
            domain,
            range,
        };
        let active = ActiveSchema::new(schema.clone(), [ClassId(0)], vec![arc]);
        let ad = Msg::Advertise(Advertisement::new(PeerId(1), active));
        assert_eq!(
            decode_value::<Msg>(&encode_value(&ad), &reg).unwrap_err(),
            WireError::Mismatch("class id beyond schema"),
            "domain {domain:?}, range {range:?}"
        );
    }
}

/// The payload of a host's `Data` reply carrying `result`.
fn reply(result: ResultSet) -> Vec<u8> {
    let frame = encode_frame(&Envelope {
        from: PeerId(0),
        to: PeerId(1),
        sent_at_us: 0,
        msg: Msg::Data {
            channel: Channel {
                id: ChannelId(1),
                root: PeerId(1),
                dest: PeerId(0),
                state: ChannelState::Open,
            },
            qid: QueryId(1),
            tag: 0,
            result,
            partial: false,
            stats: None,
            seq: 0,
            last: true,
        },
    });
    frame[4..].to_vec()
}

/// A two-column result set of one row, as a reply's payload with its
/// encoding swapped for `bent` (hand-written result set bytes).
fn bent_reply(bent: &[u8]) -> Vec<u8> {
    let cell = || Node::Resource(Resource::new("http://example.org/r"));
    let result = ResultSet::from_rows(vec!["X".into(), "Y".into()], vec![vec![cell(), cell()]]);
    let (payload, own) = (reply(result.clone()), encode_value(&result));
    let at = payload
        .windows(own.len())
        .position(|w| w == own)
        .expect("embedded");
    [&payload[..at], bent, &payload[at + own.len()..]].concat()
}

/// Result set bytes: `columns`, one resource per dictionary entry, the
/// claimed row count, then `ids`.
fn result_bytes(columns: &[&str], entries: u64, rows: u64, ids: &[u64]) -> Vec<u8> {
    let mut w = Writer::new();
    w.usizev(columns.len());
    columns.iter().for_each(|c| w.string(c));
    w.u64v(entries);
    for i in 0..entries.min(4) {
        w.byte(0); // Node::Resource
        w.string(&format!("http://example.org/r{i}"));
    }
    w.u64v(rows);
    ids.iter().for_each(|&id| w.u64v(id));
    w.into_bytes()
}

/// Every way a result set's counts and ids can lie is refused — by the
/// decoder, bare and inside a reply, and by the gateway's renderer alike,
/// with the same error — before anything is sized by the lie.
#[test]
fn dictionary_claims_beyond_the_bytes_are_refused() {
    let reg = registry();
    let xy = ["X", "Y"];
    let overlong = |claimed| WireError::Overlong {
        claimed,
        available: 0,
    };
    let cases = [
        // An id past the dictionary's two entries.
        (
            result_bytes(&xy, 2, 1, &[0, 2]),
            WireError::Mismatch("id beyond the dictionary"),
        ),
        // A dictionary of 2^40 entries, or 2^40 rows, in a few bytes.
        (result_bytes(&xy, 1 << 40, 0, &[]), overlong(1 << 40)),
        (result_bytes(&xy, 2, 1 << 40, &[]), overlong(1 << 40)),
        // A set of empty tuples holds one row at most.
        (
            result_bytes(&[], 0, 2, &[]),
            WireError::Mismatch("zero columns, several rows"),
        ),
    ];
    // How many bytes were left over is beside the point.
    let shown = |e: WireError| match e {
        WireError::Overlong { claimed, .. } => overlong(claimed),
        e => e,
    };
    for (bytes, refused) in cases {
        let bare = decode_value::<ResultSet>(&bytes, &reg).unwrap_err();
        assert_eq!(shown(bare), refused);
        let payload = bent_reply(&bytes);
        let decoded = decode_payload::<Envelope>(&payload, &reg).unwrap_err();
        let rendered = AnswerFrame::new().push_data(&payload, &reg).unwrap_err();
        assert_eq!(rendered, decoded);
        assert_eq!(shown(decoded), refused);
    }
}

/// A result row with fewer cells than the result has columns — the last
/// row short of ids — is refused by the decoder and by the gateway's
/// renderer alike, before a join or a union indexes its cells by column.
#[test]
fn ragged_result_rows_are_refused() {
    let reg = registry();
    let ragged = result_bytes(&["X", "Y"], 2, 2, &[0, 1, 0]);
    assert!(matches!(
        decode_value::<ResultSet>(&ragged, &reg).unwrap_err(),
        WireError::Overlong {
            claimed: 2,
            available: 3
        }
    ));
    let payload = bent_reply(&ragged);
    assert!(decode_payload::<Envelope>(&payload, &reg).is_err());
    assert!(AnswerFrame::new().push_data(&payload, &reg).is_err());
}

/// One answer, one set of columns: the gateway takes the first packet's,
/// and a later packet whose rows sit under other columns is refused
/// instead of adding rows of another width to the answer.
#[test]
fn a_packet_changing_the_answer_columns_is_refused() {
    let reg = registry();
    let cell = || Node::Resource(Resource::new("http://example.org/r"));
    let columns = |names: &[&str]| names.iter().map(|c| c.to_string()).collect::<Vec<_>>();
    let xy = ResultSet::from_rows(columns(&["X", "Y"]), vec![vec![cell(); 2]]);
    let xyz = ResultSet::from_rows(columns(&["X", "Y", "Z"]), vec![vec![cell(); 3]]);
    let mut frame = AnswerFrame::new();
    frame
        .push_data(&reply(xy.clone()), &reg)
        .expect("first packet");
    frame
        .push_data(&reply(ResultSet::empty(columns(&["Z"]).into())), &reg)
        .expect("no rows");
    frame.push_data(&reply(xy), &reg).expect("same columns");
    assert_eq!(
        frame.push_data(&reply(xyz), &reg).unwrap_err(),
        WireError::Mismatch("packet columns differ from the answer's")
    );
}

#[test]
fn io_read_frame_reports_clean_eof_and_rejects_mid_frame_close() {
    let reg = registry();
    // Clean EOF between frames → Ok(None).
    let empty: &[u8] = &[];
    let mut cur = empty;
    assert!(sqpeer_wire::read_frame::<Msg>(&mut cur, &reg)
        .unwrap()
        .is_none());
    // Close mid-frame → UnexpectedEof error.
    let frame = encode_frame(&sample_msg());
    let mut cur = &frame[..frame.len() / 2];
    assert!(sqpeer_wire::read_frame::<Msg>(&mut cur, &reg).is_err());
    // A full frame round-trips through the io path.
    let mut cur = &frame[..];
    assert!(sqpeer_wire::read_frame::<Msg>(&mut cur, &reg)
        .unwrap()
        .is_some());
}

/// A reader that plays a script of reads: byte chunks and error kinds.
struct Scripted(std::collections::VecDeque<Result<Vec<u8>, std::io::ErrorKind>>);

impl std::io::Read for Scripted {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.0.pop_front() {
            None => Ok(0),
            Some(Err(kind)) => Err(kind.into()),
            Some(Ok(mut chunk)) => {
                let n = chunk.len().min(buf.len());
                buf[..n].copy_from_slice(&chunk[..n]);
                if n < chunk.len() {
                    self.0.push_front(Ok(chunk.split_off(n)));
                }
                Ok(n)
            }
        }
    }
}

/// A read timeout is the caller's idle signal only on a frame boundary.
/// Once bytes of a frame are consumed they cannot be given back, so a
/// timeout there must not look retryable: a retry would start reading
/// the next "frame" from the middle of this one.
#[test]
fn io_read_timeout_is_retryable_only_between_frames() {
    use std::io::ErrorKind::{InvalidData, TimedOut, WouldBlock};
    let frame = encode_frame(&sample_msg());

    // Before the first byte: the error passes through, nothing is lost,
    // and the next call reads the whole frame.
    let mut idle = Scripted([Err(WouldBlock), Ok(frame.clone())].into());
    let err = sqpeer_wire::read_payload(&mut idle).unwrap_err();
    assert_eq!(err.kind(), WouldBlock);
    let payload = sqpeer_wire::read_payload(&mut idle).unwrap().unwrap();
    assert_eq!(payload, frame[4..]);

    // Two length bytes, then a timeout, then the rest: not retryable.
    for kind in [WouldBlock, TimedOut] {
        let mut stalled =
            Scripted([Ok(frame[..2].to_vec()), Err(kind), Ok(frame[2..].to_vec())].into());
        let err = sqpeer_wire::read_payload(&mut stalled).unwrap_err();
        assert_eq!(err.kind(), InvalidData, "{err}");
        assert!(err.to_string().contains("stalled mid-frame"), "{err}");
    }

    // The same once the length is in and the payload is half read.
    let half = 4 + (frame.len() - 4) / 2;
    let mut stalled = Scripted(
        [
            Ok(frame[..half].to_vec()),
            Err(WouldBlock),
            Ok(frame[half..].to_vec()),
        ]
        .into(),
    );
    let err = sqpeer_wire::read_payload(&mut stalled).unwrap_err();
    assert_eq!(err.kind(), InvalidData, "{err}");
}

/// A reader that claims the largest frame, sends 1 KiB of it and closes,
/// recording the largest buffer a read call offers it.
struct Claimer {
    script: Scripted,
    largest: usize,
}

impl std::io::Read for Claimer {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.largest = self.largest.max(buf.len());
        self.script.read(buf)
    }
}

/// A bare length claim allocates nothing like what it claims: the
/// payload buffer grows with the bytes that actually arrive, and a close
/// short of the claim is still `UnexpectedEof`.
#[test]
fn io_length_claim_allocates_only_what_arrives() {
    let claim = sqpeer_wire::MAX_FRAME_BYTES.to_le_bytes().to_vec();
    let script = Scripted([Ok(claim), Ok(vec![WIRE_VERSION; 1024])].into());
    let mut source = Claimer { script, largest: 0 };
    let err = sqpeer_wire::read_payload(&mut source).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    assert!(
        source.largest <= 64 * 1024,
        "a read was offered {} bytes on a bare claim",
        source.largest
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random byte strings never panic the payload decoder (and never
    /// allocate beyond their own length).
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let reg = registry();
        let _ = decode_payload::<Msg>(&bytes, &reg);
        let _ = decode_value::<Envelope>(&bytes, &reg);
    }

    /// Single-byte corruption of a valid frame either still decodes to
    /// *something* (bytes happened to stay well-formed) or errors — it
    /// never panics.
    #[test]
    fn bitflips_never_panic(pos in 0usize..512, flip in 1u8..255) {
        let reg = registry();
        let mut frame = encode_frame(&sample_msg());
        if pos < frame.len() {
            frame[pos] ^= flip;
        }
        let _ = decode_frame::<Msg>(&frame, &reg);
    }
}
