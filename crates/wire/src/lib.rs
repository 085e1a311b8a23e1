//! `sqpeer-wire`: the SQPeer binary wire protocol.
//!
//! A hand-rolled, dependency-free, length-prefixed binary codec for
//! everything peers exchange: the full exec message vocabulary
//! ([`sqpeer_exec::Msg`] — advertisements, lease heartbeats, withdrawal
//! tombstones, routing requests, subplans, data packets) plus the gateway
//! front-door protocol: the same messages the virtual-time simulator
//! passes by value become bytes a real socket can carry. Each layout and
//! each tag is stated once, as a `wire_struct!`/`wire_enum!` row that
//! generates both directions (see [`codec`]); the test suite pins three
//! guarantees:
//!
//! * **Exact roundtrip** — `encode ∘ decode ∘ encode ≡ encode` for every
//!   encodable message (byte-exact canonical form),
//! * **Total decoding** — malformed input (truncated, overlong length
//!   prefixes, unknown tags, wrong version, trailing bytes, absurd
//!   nesting) yields a [`WireError`], never a panic and never an
//!   attacker-sized allocation,
//! * **Fixed bytes** — one value of every message encodes to the hex
//!   committed beside `tests/golden.rs`.
//!
//! See `DESIGN.md` §Deployment for the wire grammar and versioning rules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod fingerprint;
pub mod msg;
pub mod telemetry;
mod types;

pub use codec::{Reader, Wire, WireError, Writer, MAX_DEPTH};
pub use fingerprint::SchemaRegistry;
pub use msg::{
    decode_frame, decode_payload, decode_value, encode_frame, encode_value, read_frame,
    read_payload, scoped_qid, write_frame, AnswerFrame, DataFlags, Envelope, GatewayRequest,
    GatewayResponse, MAX_FRAME_BYTES, WIRE_VERSION,
};
