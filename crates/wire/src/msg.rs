//! Message encoding, envelopes and frame I/O.
//!
//! A frame on a SQPeer connection is:
//!
//! ```text
//! u32-LE payload length | version byte | envelope bytes
//! ```
//!
//! The length covers the version byte and the envelope; a frame longer
//! than [`MAX_FRAME_BYTES`] is rejected before any read. The envelope is
//!
//! ```text
//! from: PeerId | to: PeerId | sent_at_us: varint | msg: Msg
//! ```
//!
//! and a [`Msg`] encodes as a varint tag followed by the variant's fields,
//! as the `wire_enum!` table below states them: one row per variant, with
//! its explicit tag (0–20). Versioning rule: a decoder
//! speaks exactly [`WIRE_VERSION`]; any other version byte is
//! [`WireError::BadVersion`] — peers of different versions do not
//! negotiate, they refuse (the gateway routes tenants to same-version
//! groups). Version 2 ships result sets as a dictionary plus ids, so a
//! version-1 peer gets `BadVersion` from a version-2 one, and back.

use crate::codec::{wire_enum, wire_struct, Reader, Wire, WireError, Writer};
use crate::SchemaRegistry;
use sqpeer_exec::{HierScope, Msg, QueryId};
use sqpeer_rdfs::Literal;
use sqpeer_routing::PeerId;
use std::io::{Read, Write};

/// The one wire version this build speaks.
pub const WIRE_VERSION: u8 = 2;

/// Sanity cap on a frame's claimed payload length (16 MiB): a crafted
/// length prefix must not make a reader allocate unboundedly.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// `Msg::Data`'s tag, which [`AnswerFrame::push_data`] also looks for.
const DATA_TAG: u64 = 11;

wire_enum! {
    HierScope, u32v { 0 => Global, 1 => Cluster, 2 => Local };
    Msg, u64v {
        0 => Advertise(ad),
        1 => RequestAds { depth },
        2 => AdsResponse(ads),
        3 => Withdraw,
        4 => WithdrawPeer(peer),
        5 => Heartbeat,
        6 => HeartbeatPeer(peer),
        7 => ExpirePeer(ad),
        8 => RouteRequest { qid, query, backbone_ttl, partial },
        9 => RouteResponse { qid, annotated, missing },
        10 => Subplan { channel, qid, tag, plan, visited, attempt, trace },
        DATA_TAG => Data { channel, qid, tag, result, partial, stats, seq, last },
        12 => SubplanFailed { channel, qid, tag },
        13 => ExecutePlan { qid, query, plan },
        14 => ClientQuery { qid, query },
        15 => ClientAnswer { qid, result },
        16 => Credit { channel, qid, tag, credits },
        17 => SummaryAdvertise { owner, summary },
        18 => HierRouteRequest { qid, query, scope },
        19 => HierRouteResponse { qid, annotated, missing },
        20 => ObsPush { owner, rows },
    };
    GatewayResponse, byte {
        0 => Answer { columns, rows, partial, ttfr_us, latency_us },
        1 => Unauthorized,
        2 => OverQuota { quota },
        3 => Error(message),
    };
}

wire_struct! {
    Envelope { from, to, sent_at_us, msg };
    GatewayRequest { token, query };
}

/// An addressed, timestamped message: what actually travels in a frame.
///
/// `sent_at_us` is the sender's transport-epoch-relative clock at send
/// time — receivers treat it as advisory (clocks are per-process), but the
/// equivalence harness uses it to line simulator and loopback runs up.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// The sending peer.
    pub from: PeerId,
    /// The destination peer.
    pub to: PeerId,
    /// Sender's clock at send time, µs since its transport epoch.
    pub sent_at_us: u64,
    /// The payload.
    pub msg: Msg,
}

/// Encodes a value into a complete frame: length prefix, version byte,
/// payload.
pub fn encode_frame<T: Wire>(value: &T) -> Vec<u8> {
    let mut w = frame_writer();
    value.encode(&mut w);
    finish_frame(w)
}

/// A writer holding a frame's first five bytes: room for the length
/// prefix, then the version byte.
fn frame_writer() -> Writer {
    let mut w = Writer::new();
    w.raw(&[0; 4]);
    w.byte(WIRE_VERSION);
    w
}

/// Fills in the length prefix [`frame_writer`] left room for.
fn finish_frame(w: Writer) -> Vec<u8> {
    let mut frame = w.into_bytes();
    let payload = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&payload.to_le_bytes());
    frame
}

/// Decodes one complete frame (length prefix included), requiring the
/// exact version byte and that the payload consumes every byte.
pub fn decode_frame<T: Wire>(bytes: &[u8], schemas: &SchemaRegistry) -> Result<T, WireError> {
    if bytes.len() < 4 {
        return Err(WireError::Eof);
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
    if len > MAX_FRAME_BYTES {
        return Err(WireError::FrameTooLarge(len as u64));
    }
    let body = &bytes[4..];
    if (body.len() as u64) < len as u64 {
        return Err(WireError::Eof);
    }
    if body.len() as u64 > len as u64 {
        return Err(WireError::TrailingBytes(body.len() - len as usize));
    }
    decode_payload(body, schemas)
}

/// Decodes a frame payload (version byte + value, no length prefix).
pub fn decode_payload<T: Wire>(payload: &[u8], schemas: &SchemaRegistry) -> Result<T, WireError> {
    let mut r = payload_reader(payload, schemas)?;
    let value = T::decode(&mut r)?;
    r.expect_end()?;
    Ok(value)
}

/// A reader over a frame payload, past its (checked) version byte.
fn payload_reader<'a>(
    payload: &'a [u8],
    schemas: &'a SchemaRegistry,
) -> Result<Reader<'a>, WireError> {
    let mut r = Reader::new(payload, schemas);
    let version = r.byte()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion {
            got: version,
            want: WIRE_VERSION,
        });
    }
    Ok(r)
}

/// Writes one frame to a byte sink (a TCP stream, in practice).
pub fn write_frame<T: Wire>(sink: &mut impl Write, value: &T) -> std::io::Result<()> {
    sink.write_all(&encode_frame(value))
}

/// Reads one frame from a byte source. Returns `Ok(None)` on clean EOF
/// (connection closed between frames); a close mid-frame, an oversized
/// length or a malformed payload is an error.
pub fn read_frame<T: Wire>(
    source: &mut impl Read,
    schemas: &SchemaRegistry,
) -> std::io::Result<Option<T>> {
    let Some(payload) = read_payload(source)? else {
        return Ok(None);
    };
    decode_payload(&payload, schemas)
        .map(Some)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

/// Reads one frame's payload (version byte + value) off a byte source,
/// undecoded. `Ok(None)` on clean EOF; a close mid-frame or an oversized
/// length is an error.
///
/// On a source with a read timeout, `WouldBlock`/`TimedOut` is returned
/// only while no byte of a frame has been consumed — the caller may call
/// again and is still on a frame boundary. Once any byte of a frame was
/// taken a timeout is `InvalidData` ("stalled mid-frame"): the consumed
/// bytes are gone, so the stream cannot be resumed, only closed.
pub fn read_payload(source: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match source.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if filled > 0 => return Err(mid_frame(e)),
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            WireError::FrameTooLarge(len as u64).to_string(),
        ));
    }
    // The buffer grows as bytes arrive: a length claim that no payload
    // byte backs yet costs at most 64 KiB.
    let mut payload = Vec::with_capacity((len as usize).min(64 * 1024));
    let got = source.take(u64::from(len)).read_to_end(&mut payload);
    if got.map_err(mid_frame)? < len as usize {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed mid-frame",
        ));
    }
    Ok(Some(payload))
}

/// A read timeout after part of a frame was consumed is not the idle
/// signal a caller may retry on; every other error passes through.
fn mid_frame(e: std::io::Error) -> std::io::Error {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "connection stalled mid-frame",
        ),
        _ => e,
    }
}

/// A gateway-front-door request: what a tenant client sends the gateway.
///
/// The token plays the role of an `Authorization` header; the gateway maps
/// it to a tenant peer group and refuses tokens it does not know.
#[derive(Debug, Clone)]
pub struct GatewayRequest {
    /// The tenant's bearer token.
    pub token: String,
    /// The RQL query text (compiled inside the tenant's group, against
    /// the tenant's community schema).
    pub query: String,
}

/// The gateway's verdict on a request.
#[derive(Debug, Clone, PartialEq)]
pub enum GatewayResponse {
    /// The query ran inside the tenant's group; projected answer rows,
    /// rendered as strings, plus the completeness flag.
    Answer {
        /// Result column names.
        columns: Vec<String>,
        /// Rows, each value display-rendered.
        rows: Vec<Vec<String>>,
        /// Whether the answer may be partial.
        partial: bool,
        /// Time-to-first-row the gateway observed: µs from forwarding
        /// the query until the first reply frame carrying rows arrived
        /// from the host. Zero when the host answered in one frame
        /// faster than the clock resolution; meaningful for streamed
        /// multi-batch answers.
        ttfr_us: u64,
        /// Total µs from forwarding the query until the final reply
        /// frame (`last: true`) arrived.
        latency_us: u64,
    },
    /// Unknown token: the request never reached any peer group.
    Unauthorized,
    /// A known tenant over one of its admission quotas.
    OverQuota {
        /// Which quota tripped (human-readable).
        quota: String,
    },
    /// The query failed inside the group (parse error, no coverage, …).
    Error(String),
}

/// Builds the frame of a [`GatewayResponse::Answer`] out of the host's
/// `Data` packets as they arrive, without a `Node`, a `String` or the
/// `Vec<Vec<String>>` in between: each dictionary entry is read once, and
/// every cell that holds it copies its display form into the rows' wire
/// bytes — straight from the packet's bytes, or, for a number or boolean,
/// from its one rendering. The finished frame is byte for byte
/// `encode_frame(&GatewayResponse::Answer { rows, .. })` with every cell
/// of `rows` the decoded node's `to_string()`.
#[derive(Debug, Default)]
pub struct AnswerFrame {
    columns: Vec<String>,
    rows: Writer,
    count: usize,
    /// Display forms of the packet's literals that need `fmt`.
    scratch: String,
}

/// How one dictionary entry of a `Data` packet shows in an `Answer`.
enum Shown<'a> {
    /// A resource: `&` and its URI.
    Uri(&'a str),
    /// A string literal, quoted.
    Text(&'a str),
    /// Any other literal: its `Display` form, at this range of `scratch`.
    Other(std::ops::Range<usize>),
}

/// What one `Data` packet said besides its rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataFlags {
    /// Did the packet carry any rows?
    pub has_rows: bool,
    /// The packet's completeness flag.
    pub partial: bool,
    /// Is this the stream's final packet?
    pub last: bool,
}

impl AnswerFrame {
    /// A frame with no rows yet.
    pub fn new() -> Self {
        AnswerFrame::default()
    }

    /// Appends the rows of one host reply: `payload` is a frame payload
    /// (version byte first) holding an [`Envelope`] whose message is
    /// `Data`. Accepts exactly the payloads [`decode_payload`] accepts as
    /// such an envelope; the first packet's columns name the answer's, and
    /// a later packet carrying rows under other columns is refused.
    pub fn push_data(
        &mut self,
        payload: &[u8],
        schemas: &SchemaRegistry,
    ) -> Result<DataFlags, WireError> {
        use std::fmt::Write as _;
        let mut r = payload_reader(payload, schemas)?;
        let (_from, _to, _sent_at_us) =
            (PeerId::decode(&mut r)?, PeerId::decode(&mut r)?, r.u64v()?);
        match r.u64v()? {
            DATA_TAG => {}
            tag => return Err(WireError::BadTag { what: "Data", tag }),
        }
        sqpeer_exec::PeerChannel::decode(&mut r)?;
        let (_qid, _tag) = (QueryId::decode(&mut r)?, r.u64v()?);
        let columns = Vec::<String>::decode(&mut r)?;
        // Each entry as it shows: a string of the packet behind a mark,
        // or, for a literal that needs `fmt`, its rendering in `scratch`.
        let count = r.count()?;
        let mut entries = Vec::with_capacity(count);
        self.scratch.clear();
        for _ in 0..count {
            // A `Node`: resource or literal, shown as `Display` does.
            entries.push(match (r.byte()?, r.peek()?) {
                (0, _) => Shown::Uri(r.str()?),
                (1, 0) => {
                    r.byte()?;
                    Shown::Text(r.str()?)
                }
                (1, _) => {
                    let (number_or_bool, at) = (Literal::decode(&mut r)?, self.scratch.len());
                    let _ = write!(self.scratch, "{number_or_bool}");
                    Shown::Other(at..self.scratch.len())
                }
                (tag, _) => {
                    return Err(WireError::BadTag {
                        what: "Node",
                        tag: tag as u64,
                    })
                }
            });
        }
        let width = columns.len();
        let rows = crate::types::row_count(&mut r, width)?;
        if self.columns.is_empty() && self.count == 0 {
            self.columns = columns;
        } else if rows > 0 && columns != self.columns {
            return Err(WireError::Mismatch(
                "packet columns differ from the answer's",
            ));
        }
        let out = &mut self.rows;
        for _ in 0..rows {
            out.usizev(width);
            for _ in 0..width {
                match entries.get(r.u32v()? as usize) {
                    Some(Shown::Uri(uri)) => {
                        out.usizev(1 + uri.len());
                        out.byte(b'&');
                        out.raw(uri.as_bytes());
                    }
                    Some(Shown::Text(s)) => {
                        out.usizev(2 + s.len());
                        out.byte(b'"');
                        out.raw(s.as_bytes());
                        out.byte(b'"');
                    }
                    Some(Shown::Other(at)) => out.string(&self.scratch[at.clone()]),
                    None => return Err(WireError::Mismatch("id beyond the dictionary")),
                }
            }
        }
        self.count += rows;
        let partial = r.boolean()?;
        Option::<sqpeer_store::BaseStatistics>::decode(&mut r)?;
        let _seq = r.u32v()?;
        let last = r.boolean()?;
        r.expect_end()?;
        Ok(DataFlags {
            has_rows: rows > 0,
            partial,
            last,
        })
    }

    /// The complete frame: length prefix, version byte, the `Answer`.
    pub fn finish(self, partial: bool, ttfr_us: u64, latency_us: u64) -> Vec<u8> {
        let mut w = frame_writer();
        w.byte(0);
        self.columns.encode(&mut w);
        w.usizev(self.count);
        w.raw(&self.rows.into_bytes());
        w.boolean(partial);
        w.u64v(ttfr_us);
        w.u64v(latency_us);
        finish_frame(w)
    }
}

/// Byte-exact canonical encoding of a value (no framing), for tests and
/// size accounting.
pub fn encode_value<T: Wire>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decodes a bare value (no framing, no version byte), requiring full
/// consumption.
pub fn decode_value<T: Wire>(bytes: &[u8], schemas: &SchemaRegistry) -> Result<T, WireError> {
    let mut r = Reader::new(bytes, schemas);
    let value = T::decode(&mut r)?;
    r.expect_end()?;
    Ok(value)
}

/// A `QueryId` that is globally unique across peers without coordination:
/// the upper 32 bits name the minting peer, the lower 32 count locally.
pub fn scoped_qid(peer: PeerId, local: u32) -> QueryId {
    QueryId(((peer.0 as u64) << 32) | local as u64)
}
