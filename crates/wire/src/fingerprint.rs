//! Schema fingerprints and the decoder-side schema registry.
//!
//! Queries, plans, advertisements and active-schemas are all resolved
//! against a community RDF/S schema (`Arc<Schema>`); shipping the whole
//! schema in every message would dwarf the payloads. SQPeer's model (paper
//! §2.2) is that community schemas are shared out-of-band — every peer in a
//! community already holds them — so the wire carries only a structural
//! **fingerprint**: a 64-bit FNV-1a hash over the schema's namespaces,
//! classes and properties (names, parents, domains, ranges). The decoder
//! resolves fingerprints through a [`SchemaRegistry`] populated with the
//! schemas its community shares; an unknown fingerprint is a decode error
//! ([`WireError::UnknownSchema`]), not a guess. A schema hashes itself
//! once, when it is built; a registry remembers what each (fingerprint,
//! query text) pair compiled to, so a query that recurs is compiled once
//! per process, not at every hop that decodes it.

use crate::WireError;
use sqpeer_rdfs::Schema;
use sqpeer_rql::QueryPattern;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A memo keeps at most 256 texts, of at most 4 KiB each, then starts over.
const MEMO_ENTRIES: usize = 256;
const MEMO_TEXT_BYTES: usize = 4096;

/// What query texts compiled to, by fingerprint, plus misses and hits.
/// Texts come off sockets, so they keep the default (keyed) hasher.
#[derive(Debug, Default)]
struct Memo {
    patterns: HashMap<u64, HashMap<Box<str>, QueryPattern>>,
    compiles: u64,
    hits: u64,
}

/// The schemas a decoder can resolve fingerprints against.
///
/// Community schemas are shared out-of-band in SQPeer; a daemon registers
/// the schemas of the communities it serves at startup and every inbound
/// frame resolves against them. A registry and its clones share one memo
/// of compiled query texts.
#[derive(Debug, Clone, Default)]
pub struct SchemaRegistry {
    by_fp: HashMap<u64, Arc<Schema>>,
    memo: Arc<Mutex<Memo>>,
}

impl SchemaRegistry {
    /// An empty registry (only schema-free messages decode).
    pub fn new() -> Self {
        SchemaRegistry::default()
    }

    /// Registers `schema`, returning its fingerprint.
    pub fn register(&mut self, schema: Arc<Schema>) -> u64 {
        let fp = schema.fingerprint();
        self.by_fp.insert(fp, schema);
        fp
    }

    /// Resolves a fingerprint to its schema.
    pub fn resolve(&self, fp: u64) -> Result<&Arc<Schema>, WireError> {
        self.by_fp.get(&fp).ok_or(WireError::UnknownSchema(fp))
    }

    /// Compiles `text` against the schema `fp` resolves to here, or hands
    /// out what the same pair compiled to before in this registry's
    /// lineage. Failures and texts over 4 KiB are not kept.
    pub fn compile(&self, fp: u64, text: &str) -> Result<QueryPattern, WireError> {
        let schema = self.resolve(fp)?;
        let lock = || self.memo.lock().expect("memo lock poisoned");
        let mut memo = lock();
        if let Some(query) = memo.patterns.get(&fp).and_then(|m| m.get(text)).cloned() {
            memo.hits += 1;
            return Ok(query);
        }
        drop(memo);
        let compiled = sqpeer_rql::compile(text, schema);
        let mut memo = lock();
        memo.compiles += 1;
        let query = compiled.map_err(|e| WireError::Query(e.to_string()))?;
        if text.len() <= MEMO_TEXT_BYTES {
            if memo.patterns.values().map(|m| m.len()).sum::<usize>() >= MEMO_ENTRIES {
                memo.patterns.clear();
            }
            let texts = memo.patterns.entry(fp).or_default();
            texts.insert(text.into(), query.clone());
        }
        Ok(query)
    }

    /// How many texts [`compile`](Self::compile) compiled and how many it
    /// found compiled, across this registry's lineage.
    pub fn compile_counts(&self) -> (u64, u64) {
        let memo = self.memo.lock().expect("memo lock poisoned");
        (memo.compiles, memo.hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqpeer_rdfs::{Range, SchemaBuilder};

    fn small_schema() -> Arc<Schema> {
        let mut b = SchemaBuilder::new("n1", "http://example.org/n1#");
        let c1 = b.class("C1").unwrap();
        let c2 = b.class("C2").unwrap();
        b.property("p1", c1, Range::Class(c2)).unwrap();
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn fingerprint_is_structural_not_pointer_identity() {
        let a = small_schema();
        let b = small_schema();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_schemas() {
        let a = small_schema();
        let mut b = SchemaBuilder::new("n1", "http://example.org/n1#");
        let c1 = b.class("C1").unwrap();
        let c2 = b.class("C2x").unwrap();
        b.property("p1", c1, Range::Class(c2)).unwrap();
        let b = Arc::new(b.finish().unwrap());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn registry_resolves_registered_and_rejects_unknown() {
        let mut reg = SchemaRegistry::new();
        let s = small_schema();
        let fp = reg.register(Arc::clone(&s));
        assert!(Arc::ptr_eq(reg.resolve(fp).unwrap(), &s));
        assert_eq!(
            reg.resolve(fp ^ 1).unwrap_err(),
            crate::WireError::UnknownSchema(fp ^ 1)
        );
    }

    /// Entries the memo holds, over every fingerprint.
    fn memo_len(reg: &SchemaRegistry) -> usize {
        let memo = reg.memo.lock().unwrap();
        memo.patterns.values().map(|m| m.len()).sum()
    }

    #[test]
    fn ten_thousand_distinct_texts_leave_the_memo_within_its_bound() {
        let mut reg = SchemaRegistry::new();
        let fp = reg.register(small_schema());
        for i in 0..10_000 {
            let text = format!("SELECT V{i} FROM {{V{i}}}p1{{Y}}");
            reg.compile(fp, &text).unwrap();
            assert!(memo_len(&reg) <= MEMO_ENTRIES, "{} entries", memo_len(&reg));
        }
        assert_eq!(reg.compile_counts(), (10_000, 0));
    }

    #[test]
    fn a_text_over_the_cap_compiles_at_every_decode_and_is_not_kept() {
        let mut reg = SchemaRegistry::new();
        let fp = reg.register(small_schema());
        let padded = |len: usize| format!("SELECT X FROM{}{{X}}p1{{Y}}", " ".repeat(len - 21));
        let (at_cap, over) = (padded(MEMO_TEXT_BYTES), padded(MEMO_TEXT_BYTES + 1));
        let (a, b) = (
            reg.compile(fp, &over).unwrap(),
            reg.compile(fp, &over).unwrap(),
        );
        assert_eq!(a.text(), b.text());
        assert_eq!((reg.compile_counts(), memo_len(&reg)), ((2, 0), 0));
        (0..2).for_each(|_| drop(reg.compile(fp, &at_cap).unwrap()));
        assert_eq!((reg.compile_counts(), memo_len(&reg)), ((3, 1), 1));
    }

    #[test]
    fn one_text_under_two_schemas_gives_each_fingerprint_its_own_pattern() {
        let mut b = SchemaBuilder::new("n2", "http://example.org/n2#");
        let c1 = b.class("D1").unwrap();
        b.property("p1", c1, Range::Class(c1)).unwrap();
        let (one, two) = (small_schema(), Arc::new(b.finish().unwrap()));
        let mut reg = SchemaRegistry::new();
        let fps = [
            reg.register(Arc::clone(&one)),
            reg.register(Arc::clone(&two)),
        ];
        let text = "SELECT X FROM {X}p1{Y}";
        for _ in 0..2 {
            for (fp, schema) in fps.iter().zip([&one, &two]) {
                let query = reg.compile(*fp, text).unwrap();
                assert!(Arc::ptr_eq(query.schema(), schema));
            }
        }
        assert_eq!(reg.compile_counts(), (2, 2));
    }

    #[test]
    fn a_clone_lacking_a_schema_refuses_its_fingerprint_a_sibling_remembered() {
        let lacking = SchemaRegistry::new();
        let mut sibling = lacking.clone();
        let fp = sibling.register(small_schema());
        let text = "SELECT X FROM {X}p1{Y}";
        sibling.compile(fp, text).unwrap();
        assert_eq!(
            lacking.compile(fp, text).unwrap_err(),
            WireError::UnknownSchema(fp)
        );
        assert_eq!(lacking.compile_counts(), (1, 0), "one memo, shared");
    }

    #[test]
    fn a_bad_text_gives_the_same_error_on_its_first_and_second_decode() {
        let mut reg = SchemaRegistry::new();
        let fp = reg.register(small_schema());
        let first = reg.compile(fp, "SELECT gibberish").unwrap_err();
        assert!(matches!(first, WireError::Query(_)), "{first:?}");
        assert_eq!(reg.compile(fp, "SELECT gibberish").unwrap_err(), first);
        assert_eq!((reg.compile_counts(), memo_len(&reg)), ((2, 0), 0));
    }
}
