//! The byte-level codec core: varints, length prefixes, tagged unions.
//!
//! Everything on the SQPeer wire reduces to four primitives:
//!
//! * **varint** — unsigned LEB128, ≤10 bytes for a `u64`; signed values
//!   ride as zigzag varints,
//! * **length-prefixed bytes/strings** — varint byte count, then raw
//!   bytes (strings are validated UTF-8),
//! * **sequences** — varint element count, then the elements,
//! * **tagged unions** — a discriminant (one byte, or a varint), then the
//!   variant payload.
//!
//! A type's layout is stated once, as a row of `wire_struct!` (fields in
//! wire order) or `wire_enum!` (explicit tags, then each variant's
//! fields), and the row generates both [`Wire::encode`] and
//! [`Wire::decode`]. Impls are written by hand only where a row cannot say
//! what the bytes mean; the `types` module lists them.
//!
//! Decoding is **total**: every malformed input — truncated frame,
//! overlong claimed length, unknown tag, wrong version, trailing bytes,
//! absurd recursion depth — returns a [`WireError`]; nothing panics and
//! nothing allocates proportionally to an attacker-claimed length (a
//! claimed sequence length is validated against the bytes actually
//! remaining before any allocation).

use std::fmt;
use std::sync::Arc;

/// Maximum nesting depth of recursive structures (plan trees). Deep
/// enough for any optimiser output, shallow enough that a crafted frame
/// cannot blow the decoder's stack.
pub const MAX_DEPTH: usize = 64;

/// Everything that can be wrong with bytes claiming to be SQPeer wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value did.
    Eof,
    /// A length prefix claims more bytes/elements than the input holds.
    Overlong {
        /// The claimed count.
        claimed: u64,
        /// Bytes actually remaining.
        available: usize,
    },
    /// An unknown discriminant for the named union.
    BadTag {
        /// Which union was being decoded.
        what: &'static str,
        /// The offending discriminant.
        tag: u64,
    },
    /// The frame's version byte is not one this decoder speaks.
    BadVersion {
        /// The version found on the wire.
        got: u8,
        /// The version this build speaks.
        want: u8,
    },
    /// A boolean byte that is neither 0 nor 1.
    BadBool(u8),
    /// A string field holding invalid UTF-8.
    BadUtf8,
    /// A varint longer than 10 bytes (not minimal / not a u64).
    VarintTooLong,
    /// A complete value was decoded but input bytes remain.
    TrailingBytes(usize),
    /// A schema fingerprint not present in the decoder's registry.
    UnknownSchema(u64),
    /// Recursion beyond [`MAX_DEPTH`].
    DepthExceeded,
    /// A frame longer than the transport's sanity cap.
    FrameTooLarge(u64),
    /// An embedded declarative query failed to recompile.
    Query(String),
    /// A structural cross-check failed (e.g. statistics vector length
    /// disagreeing with the resolved schema).
    Mismatch(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Eof => write!(f, "input truncated"),
            WireError::Overlong { claimed, available } => {
                write!(
                    f,
                    "length prefix claims {claimed} with {available} bytes left"
                )
            }
            WireError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::BadVersion { got, want } => {
                write!(f, "wire version {got} (this build speaks {want})")
            }
            WireError::BadBool(b) => write!(f, "boolean byte {b:#04x}"),
            WireError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            WireError::VarintTooLong => write!(f, "varint exceeds 10 bytes"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            WireError::UnknownSchema(fp) => write!(f, "unknown schema fingerprint {fp:#018x}"),
            WireError::DepthExceeded => write!(f, "nesting deeper than {MAX_DEPTH}"),
            WireError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds cap"),
            WireError::Query(e) => write!(f, "embedded query failed to recompile: {e}"),
            WireError::Mismatch(what) => write!(f, "structural mismatch: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// An append-only encoder over a growable byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Has anything been written?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// One raw byte.
    pub fn byte(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// Raw bytes, no length prefix.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Unsigned LEB128 varint.
    pub fn u64v(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// `u32` as varint.
    pub fn u32v(&mut self, v: u32) {
        self.u64v(v as u64);
    }

    /// `u16` as varint.
    pub fn u16v(&mut self, v: u16) {
        self.u64v(v as u64);
    }

    /// `usize` as varint.
    pub fn usizev(&mut self, v: usize) {
        self.u64v(v as u64);
    }

    /// Signed integer as zigzag varint.
    pub fn i64v(&mut self, v: i64) {
        self.u64v(((v << 1) ^ (v >> 63)) as u64);
    }

    /// IEEE-754 bits, little-endian (floats must roundtrip bit-exactly;
    /// text would not).
    pub fn f64bits(&mut self, v: f64) {
        self.raw(&v.to_bits().to_le_bytes());
    }

    /// One boolean byte.
    pub fn boolean(&mut self, v: bool) {
        self.byte(v as u8);
    }

    /// Length-prefixed bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.usizev(bytes.len());
        self.raw(bytes);
    }

    /// Length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

/// A bounds-checked decoder over a byte slice.
///
/// Carries the [`SchemaRegistry`](crate::SchemaRegistry) needed to
/// resolve schema fingerprints embedded in queries, advertisements and
/// statistics, plus a recursion-depth budget for plan trees.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    depth: usize,
    schemas: &'a crate::SchemaRegistry,
}

impl<'a> Reader<'a> {
    /// A reader over `buf` resolving schemas from `schemas`.
    pub fn new(buf: &'a [u8], schemas: &'a crate::SchemaRegistry) -> Self {
        Reader {
            buf,
            pos: 0,
            depth: 0,
            schemas,
        }
    }

    /// The schema registry decoding runs against.
    pub fn schemas(&self) -> &'a crate::SchemaRegistry {
        self.schemas
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless every input byte was consumed.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.remaining()))
        }
    }

    /// Enters one level of recursive structure.
    pub fn enter(&mut self) -> Result<(), WireError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            Err(WireError::DepthExceeded)
        } else {
            Ok(())
        }
    }

    /// Leaves one level of recursive structure.
    pub fn leave(&mut self) {
        self.depth -= 1;
    }

    /// One raw byte.
    pub fn byte(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Eof)?;
        self.pos += 1;
        Ok(b)
    }

    /// The next raw byte, not consumed.
    pub fn peek(&self) -> Result<u8, WireError> {
        self.buf.get(self.pos).copied().ok_or(WireError::Eof)
    }

    /// `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Eof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Unsigned LEB128 varint.
    pub fn u64v(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        for i in 0..10 {
            let b = self.byte()?;
            let payload = (b & 0x7f) as u64;
            // The 10th byte may only contribute the final bit of a u64.
            if i == 9 && payload > 1 {
                return Err(WireError::VarintTooLong);
            }
            v |= payload << (7 * i);
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireError::VarintTooLong)
    }

    /// `u32` varint, rejecting values past `u32::MAX`.
    pub fn u32v(&mut self) -> Result<u32, WireError> {
        let v = self.u64v()?;
        u32::try_from(v).map_err(|_| WireError::Overlong {
            claimed: v,
            available: 4,
        })
    }

    /// `u16` varint, rejecting values past `u16::MAX`.
    pub fn u16v(&mut self) -> Result<u16, WireError> {
        let v = self.u64v()?;
        u16::try_from(v).map_err(|_| WireError::Overlong {
            claimed: v,
            available: 2,
        })
    }

    /// A sequence/byte count: a varint additionally validated against the
    /// bytes actually remaining (each element costs ≥ 1 byte), so a
    /// crafted prefix cannot trigger a huge allocation.
    pub fn count(&mut self) -> Result<usize, WireError> {
        let v = self.u64v()?;
        if v > self.remaining() as u64 {
            return Err(WireError::Overlong {
                claimed: v,
                available: self.remaining(),
            });
        }
        Ok(v as usize)
    }

    /// Signed zigzag varint.
    pub fn i64v(&mut self) -> Result<i64, WireError> {
        let v = self.u64v()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// IEEE-754 bits, little-endian.
    pub fn f64bits(&mut self) -> Result<f64, WireError> {
        let bytes = self.take(8)?;
        Ok(f64::from_bits(u64::from_le_bytes(
            bytes.try_into().expect("8 bytes"),
        )))
    }

    /// One boolean byte; anything but 0/1 is an error.
    pub fn boolean(&mut self) -> Result<bool, WireError> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::BadBool(b)),
        }
    }

    /// Length-prefixed bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.count()?;
        self.take(n)
    }

    /// Length-prefixed UTF-8 string, borrowed from the input.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| WireError::BadUtf8)
    }

    /// Length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, WireError> {
        self.str().map(str::to_owned)
    }
}

/// A value with a canonical byte representation on the SQPeer wire.
pub trait Wire: Sized {
    /// Appends this value's canonical encoding to `w`.
    fn encode(&self, w: &mut Writer);

    /// Decodes one value, consuming exactly its bytes from `r`.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

impl Wire for u64 {
    fn encode(&self, w: &mut Writer) {
        w.u64v(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u64v()
    }
}

impl Wire for u32 {
    fn encode(&self, w: &mut Writer) {
        w.u32v(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u32v()
    }
}

impl Wire for u16 {
    fn encode(&self, w: &mut Writer) {
        w.u16v(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u16v()
    }
}

impl Wire for i64 {
    fn encode(&self, w: &mut Writer) {
        w.i64v(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.i64v()
    }
}

impl Wire for f64 {
    fn encode(&self, w: &mut Writer) {
        w.f64bits(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.f64bits()
    }
}

impl Wire for bool {
    fn encode(&self, w: &mut Writer) {
        w.boolean(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.boolean()
    }
}

impl Wire for String {
    fn encode(&self, w: &mut Writer) {
        w.string(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.string()
    }
}

impl Wire for Arc<str> {
    fn encode(&self, w: &mut Writer) {
        w.string(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.str().map(Arc::from)
    }
}

impl Wire for usize {
    fn encode(&self, w: &mut Writer) {
        w.usizev(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let v = r.u64v()?;
        usize::try_from(v).map_err(|_| WireError::Overlong {
            claimed: v,
            available: 8,
        })
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.byte(0),
            Some(v) => {
                w.byte(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::BadTag {
                what: "Option",
                tag: tag as u64,
            }),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        seq(w, self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.count()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

/// Writes a slice as a `Vec<T>` goes: the count, then each element.
pub(crate) fn seq<T: Wire>(w: &mut Writer, items: &[T]) {
    w.usizev(items.len());
    items.iter().for_each(|item| item.encode(w));
}

/// States structs' wire layouts once, one row each; every row generates
/// both [`Wire::encode`] and [`Wire::decode`]. `Name { a, b }` is a struct
/// (or an alias of one) whose fields go in that order, each through its
/// own `Wire` impl; `Name(Inner)` is a newtype that goes as its `Inner`.
macro_rules! wire_struct {
    (@row $ty:ident { $($field:ident),+ }) => {
        impl $crate::codec::Wire for $ty {
            fn encode(&self, w: &mut $crate::codec::Writer) {
                $( $crate::codec::Wire::encode(&self.$field, w); )+
            }
            fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::WireError> {
                $( let $field = $crate::codec::Wire::decode(r)?; )+
                Ok($ty { $($field),+ })
            }
        }
    };
    (@row $ty:ident ($inner:ty)) => {
        impl $crate::codec::Wire for $ty {
            fn encode(&self, w: &mut $crate::codec::Writer) {
                $crate::codec::Wire::encode(&self.0, w);
            }
            fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::WireError> {
                Ok($ty(<$inner as $crate::codec::Wire>::decode(r)?))
            }
        }
    };
    ($($ty:ident $layout:tt);+ $(;)?) => {
        $( wire_struct!(@row $ty $layout); )+
    };
}

/// States tagged unions once: `Name, tag { n => Variant … }` reads and
/// writes the tag with the named [`Writer`]/[`Reader`] method (`byte`,
/// `u32v` or `u64v`), then the variant's fields in order, each through its
/// own `Wire` impl. A row is `n => Unit`, `n => Tuple(a)` or
/// `n => Named { a, b }`, the bindings naming the fields. Encode's `match`
/// is exhaustive and decode refuses a repeated tag, so every variant has
/// exactly one tag and every tag that encodes decodes; an unknown tag is
/// [`WireError::BadTag`] naming the union.
macro_rules! wire_enum {
    (@one $ty:ident, $tag:ident {
        $( $n:tt => $variant:ident $( ($($pos:ident),+) )? $( { $($named:ident),+ } )? ),+ $(,)?
    }) => {
        impl $crate::codec::Wire for $ty {
            fn encode(&self, w: &mut $crate::codec::Writer) {
                match self {
                    $( $ty::$variant $( ($($pos),+) )? $( { $($named),+ } )? => {
                        w.$tag($n);
                        $( $( $crate::codec::Wire::encode($pos, w); )+ )?
                        $( $( $crate::codec::Wire::encode($named, w); )+ )?
                    } )+
                }
            }
            #[deny(unreachable_patterns)]
            fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::WireError> {
                match r.$tag()? {
                    $( $n => {
                        $( $( let $pos = $crate::codec::Wire::decode(r)?; )+ )?
                        $( $( let $named = $crate::codec::Wire::decode(r)?; )+ )?
                        Ok($ty::$variant $( ($($pos),+) )? $( { $($named),+ } )?)
                    } )+
                    tag => Err($crate::codec::WireError::BadTag {
                        what: stringify!($ty),
                        tag: tag.into(),
                    }),
                }
            }
        }
    };
    ($($ty:ident, $tag:ident $rows:tt);+ $(;)?) => {
        $( wire_enum!(@one $ty, $tag $rows); )+
    };
}

pub(crate) use {wire_enum, wire_struct};

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> crate::SchemaRegistry {
        crate::SchemaRegistry::new()
    }

    #[test]
    fn varint_roundtrips_across_magnitudes() {
        let reg = reg();
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut w = Writer::new();
            w.u64v(v);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes, &reg);
            assert_eq!(r.u64v().unwrap(), v);
            r.expect_end().unwrap();
        }
    }

    #[test]
    fn zigzag_roundtrips_negatives() {
        let reg = reg();
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123_456_789] {
            let mut w = Writer::new();
            w.i64v(v);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes, &reg);
            assert_eq!(r.i64v().unwrap(), v);
        }
    }

    #[test]
    fn truncated_varint_is_eof_not_panic() {
        let reg = reg();
        let mut r = Reader::new(&[0x80, 0x80], &reg);
        assert_eq!(r.u64v(), Err(WireError::Eof));
    }

    #[test]
    fn eleven_byte_varint_is_rejected() {
        let reg = reg();
        let bytes = [0xff; 11];
        let mut r = Reader::new(&bytes, &reg);
        assert_eq!(r.u64v(), Err(WireError::VarintTooLong));
    }

    #[test]
    fn overlong_count_rejected_before_allocation() {
        let reg = reg();
        let mut w = Writer::new();
        w.u64v(u64::MAX); // claims 2^64-1 elements
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, &reg);
        assert!(matches!(
            Vec::<u64>::decode(&mut r),
            Err(WireError::Overlong { .. })
        ));
    }

    #[test]
    fn strings_reject_bad_utf8() {
        let reg = reg();
        let mut w = Writer::new();
        w.bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, &reg);
        assert_eq!(r.string(), Err(WireError::BadUtf8));
    }

    #[test]
    fn trailing_bytes_detected() {
        let reg = reg();
        let mut w = Writer::new();
        w.u64v(7);
        w.byte(9);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, &reg);
        assert_eq!(r.u64v().unwrap(), 7);
        assert_eq!(r.expect_end(), Err(WireError::TrailingBytes(1)));
    }
}
