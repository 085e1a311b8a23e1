//! [`Wire`] encodings for the observability-plane payloads: histograms,
//! pattern entries and the rollup rows of `Msg::ObsPush`.
//!
//! Histograms ship **sparse** — a count of non-empty buckets followed by
//! `(bucket index, count)` pairs in strictly increasing index order, then
//! the sum (the total count is derived at decode). Most protocol
//! histograms populate a handful of adjacent log₂ buckets, so this is
//! far smaller than 40 varints and gives decode a cheap validity check.
//!
//! A [`Rollup`] encodes its rows in key order, so equal values produce
//! identical bytes — the determinism rule the whole codec follows. A
//! pattern row's fingerprint is not shipped but *recomputed from the
//! pattern text* at decode, so a decoded row can never hold a
//! mismatched key.

use crate::codec::{wire_struct, Reader, Wire, WireError, Writer};
use sqpeer_exec::Rollup;
use sqpeer_net::telemetry::BUCKETS;
use sqpeer_net::{Histogram, NodeId, PatternEntry, PatternStats};
use sqpeer_routing::PeerId;

wire_struct! {
    NodeId(u32);
    PatternEntry { pattern, count, partials, replans, peers, latency_us, ttfr_us };
}

impl Wire for Histogram {
    fn encode(&self, w: &mut Writer) {
        let buckets = self.buckets();
        let nonempty = buckets.iter().filter(|&&c| c > 0).count();
        w.u64v(nonempty as u64);
        for (i, &c) in buckets.iter().enumerate() {
            if c > 0 {
                w.byte(i as u8);
                w.u64v(c);
            }
        }
        w.u64v(self.sum());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.count()?;
        if n > BUCKETS {
            return Err(WireError::BadTag {
                what: "Histogram buckets",
                tag: n as u64,
            });
        }
        let mut counts = [0u64; BUCKETS];
        let mut prev: Option<u8> = None;
        for _ in 0..n {
            let idx = r.byte()?;
            // Strictly increasing indices < BUCKETS: anything else is a
            // malformed (or adversarial) frame, rejected whole.
            if usize::from(idx) >= BUCKETS || prev.is_some_and(|p| idx <= p) {
                return Err(WireError::BadTag {
                    what: "Histogram bucket index",
                    tag: u64::from(idx),
                });
            }
            counts[usize::from(idx)] = r.u64v()?;
            prev = Some(idx);
        }
        let sum = r.u64v()?;
        Ok(Histogram::from_parts(counts, sum))
    }
}

impl Wire for Rollup {
    fn encode(&self, w: &mut Writer) {
        w.u64v(self.links.len() as u64);
        for (&(from, to), &(messages, bytes)) in &self.links {
            from.encode(w);
            to.encode(w);
            w.u64v(messages);
            w.u64v(bytes);
        }
        w.u64v(self.patterns.len() as u64);
        for ((root, _), entry) in &self.patterns {
            root.encode(w);
            entry.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut rows = Rollup::default();
        for _ in 0..r.count()? {
            let key = (NodeId::decode(r)?, NodeId::decode(r)?);
            rows.links.insert(key, (r.u64v()?, r.u64v()?));
        }
        for _ in 0..r.count()? {
            let root = PeerId::decode(r)?;
            let entry = PatternEntry::decode(r)?;
            let fp = PatternStats::fingerprint(&entry.pattern);
            rows.patterns.insert((root, fp), entry);
        }
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: &T) -> T {
        let reg = crate::SchemaRegistry::new();
        let mut w = Writer::new();
        value.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, &reg);
        let decoded = T::decode(&mut r).expect("decodes");
        r.expect_end().expect("consumed fully");
        assert_eq!(*value, decoded);
        decoded
    }

    #[test]
    fn histogram_roundtrips_sparsely() {
        let mut h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(1_000_000);
        h.record_n(42, 7);
        roundtrip(&h);
        roundtrip(&Histogram::default());
    }

    #[test]
    fn histogram_rejects_bad_bucket_indices() {
        // Out-of-range index.
        let mut w = Writer::new();
        w.u64v(1);
        w.byte(BUCKETS as u8);
        w.u64v(3);
        w.u64v(0);
        let bytes = w.into_bytes();
        let reg = crate::SchemaRegistry::new();
        assert!(Histogram::decode(&mut Reader::new(&bytes, &reg)).is_err());
        // Non-increasing indices.
        let mut w = Writer::new();
        w.u64v(2);
        w.byte(5);
        w.u64v(1);
        w.byte(5);
        w.u64v(1);
        w.u64v(0);
        let bytes = w.into_bytes();
        assert!(Histogram::decode(&mut Reader::new(&bytes, &reg)).is_err());
    }

    #[test]
    fn link_rows_roundtrip() {
        let mut rows = Rollup::default();
        rows.links.insert((NodeId(2), NodeId(1)), (3, 900));
        rows.links.insert((NodeId(70_000), NodeId(1)), (1, 64));
        rows.links.insert((NodeId(1), NodeId(2)), (u64::MAX, 0));
        roundtrip(&rows);
        roundtrip(&Rollup::default());
    }

    #[test]
    fn pattern_stats_roundtrip_and_refingerprint() {
        let entry = |pattern: &str| PatternEntry {
            pattern: pattern.to_owned(),
            ..PatternEntry::default()
        };
        let mut hot = entry("SELECT X FROM {X}p{Y}");
        hot.record(1_500, Some(300), 4, false, 1);
        hot.record(2_500, None, 2, false, 0);
        let mut cold = entry("SELECT Z FROM {Z}q{W}");
        cold.record(90, None, 1, true, 0);
        let p = PatternStats::fingerprint(&hot.pattern);
        let mut rows = Rollup::default();
        rows.patterns.insert((PeerId(3), p), hot.clone());
        let q = PatternStats::fingerprint(&cold.pattern);
        rows.patterns.insert((PeerId(9), q), cold);
        let decoded = roundtrip(&rows);
        let held = decoded.patterns.iter().find(|((_, fp), _)| *fp == p);
        assert_eq!(held.unwrap().1.count, 2);

        // A key that disagrees with its text is not what arrives.
        let mut forged = Rollup::default();
        forged.patterns.insert((PeerId(3), 7), hot);
        let mut w = Writer::new();
        forged.encode(&mut w);
        let bytes = w.into_bytes();
        let reg = crate::SchemaRegistry::new();
        let decoded = Rollup::decode(&mut Reader::new(&bytes, &reg)).unwrap();
        assert_eq!(decoded.patterns.keys().next().unwrap().1, p);
    }
}
