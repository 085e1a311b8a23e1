//! Set-semantics accumulation over dictionary ids.
//!
//! Rows are deduplicated by comparing ids, which is only sound once equal
//! nodes share one id. [`Values`] makes them: an index keyed by each
//! entry's content hash, so merging a foreign dictionary hashes every
//! distinct value once instead of every cell. [`UnionAcc`] is a
//! [`ResultSet`] whose dictionary is indexed so, plus a position index
//! over its rows: an incoming row is mapped to ids, hashed, compared id by
//! id, and appended only if new. Row order is arrival order — what the hash
//! set of cloned rows this replaced produced, which keeps streamed batches,
//! `wire_size()` and the byte counters downstream unchanged. A NaN equals
//! nothing: it never shares an id, and a row holding one is always new.
//! [`IdRowSet`] is the row index over bare rows of ids.

use crate::eval::ResultSet;
use crate::rows::Rows;
use sqpeer_rdfs::fxhash::FxHasher;
use sqpeer_rdfs::{Literal, Node};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// One hash for a row of ids.
pub(crate) fn hash_ids(ids: impl Iterator<Item = u32>) -> u64 {
    let mut hasher = FxHasher::default();
    ids.for_each(|id| hasher.write_u32(id));
    hasher.finish()
}

/// Is `node` a NaN, the one value not equal to itself?
pub(crate) fn is_nan(node: &Node) -> bool {
    matches!(node, Node::Literal(Literal::Float(f)) if f.is_nan())
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: u64,
    /// Position in the vector indexed; [`VACANT`] marks an empty slot.
    pos: usize,
}

const VACANT: usize = usize::MAX;
const VACANT_SLOT: Slot = Slot {
    hash: 0,
    pos: VACANT,
};

/// Hash → position in a vector held elsewhere. Linear probing over a
/// power-of-two table kept at most half full; the bucket is taken from the
/// hash's high bits, where a multiplicative hash mixes best.
#[derive(Debug)]
struct RowIndex {
    slots: Vec<Slot>,
    used: usize,
}

impl RowIndex {
    fn with_capacity(rows: usize) -> Self {
        RowIndex {
            slots: vec![VACANT_SLOT; (rows.max(8) * 2).next_power_of_two()],
            used: 0,
        }
    }

    fn bucket(&self, hash: u64) -> usize {
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// Records `pos` under `hash` without looking for an equal entry.
    fn place(&mut self, hash: u64, pos: usize) {
        let mask = self.slots.len() - 1;
        let mut at = self.bucket(hash);
        while self.slots[at].pos != VACANT {
            at = (at + 1) & mask;
        }
        self.slots[at] = Slot { hash, pos };
        self.used += 1;
    }

    /// The indexed position with this `hash` that satisfies `same`, if
    /// any; else records `pos` under it and returns `None`.
    fn insert(
        &mut self,
        hash: u64,
        pos: usize,
        mut same: impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        if (self.used + 1) * 2 > self.slots.len() {
            let old = std::mem::replace(self, RowIndex::with_capacity(self.slots.len()));
            for slot in old.slots.into_iter().filter(|s| s.pos != VACANT) {
                self.place(slot.hash, slot.pos);
            }
        }
        let mask = self.slots.len() - 1;
        let mut at = self.bucket(hash);
        loop {
            let slot = self.slots[at];
            if slot.pos == VACANT {
                self.slots[at] = Slot { hash, pos };
                self.used += 1;
                return None;
            }
            if slot.hash == hash && same(slot.pos) {
                return Some(slot.pos);
            }
            at = (at + 1) & mask;
        }
    }
}

/// Distinct equal-width rows of ids, flat in insertion order, over a
/// [`RowIndex`] — what [`ResultSet::join_onto`] dedups.
#[derive(Debug)]
pub(crate) struct IdRowSet(Vec<u32>, RowIndex);

impl IdRowSet {
    pub(crate) fn with_capacity(rows: usize) -> Self {
        IdRowSet(Vec::new(), RowIndex::with_capacity(rows))
    }

    /// Adds `row` unless an equal row is present; returns whether it was.
    pub(crate) fn insert(&mut self, row: &[u32]) -> bool {
        let (ids, w) = (&mut self.0, row.len());
        let same = |at: usize| ids[at * w..][..w] == *row;
        let hash = hash_ids(row.iter().copied());
        let new = self.1.insert(hash, ids.len() / w.max(1), same).is_none();
        if new {
            ids.extend_from_slice(row);
        }
        new
    }
}

/// Content hash → position in a dictionary held elsewhere. Interning a
/// node through it gives equal nodes one id; a NaN keeps its own.
#[derive(Debug)]
pub(crate) struct Values(RowIndex);

impl Values {
    /// Indexes `dict` as it is. When an entry repeats an earlier one, also
    /// returns the id each entry is to be known by: its own or, for a
    /// repeat, the first equal entry's.
    pub(crate) fn of(dict: &[Node]) -> (Values, Option<Vec<u32>>) {
        let mut index = RowIndex::with_capacity(dict.len());
        let mut remap: Option<Vec<u32>> = None;
        for (pos, node) in dict.iter().enumerate() {
            if let Some(at) = index.insert(hash_node(node), pos, |at| dict[at] == *node) {
                remap.get_or_insert_with(|| (0..dict.len() as u32).collect())[pos] = at as u32;
            }
        }
        (Values(index), remap)
    }

    /// The id of `node` in `dict`, which this indexes; a clone of `node`
    /// is appended if no entry equals it.
    pub(crate) fn intern(&mut self, dict: &mut Vec<Node>, node: &Node) -> u32 {
        let pos = dict.len();
        match self.0.insert(hash_node(node), pos, |at| dict[at] == *node) {
            Some(at) => at as u32,
            None => {
                dict.push(node.clone());
                pos as u32
            }
        }
    }

    /// Maps ids into `from` to ids into `dict`, interning each entry of
    /// `from` the first time it is asked for; `to` is the map's table.
    pub(crate) fn mapper<'a>(
        &'a mut self,
        dict: &'a mut Vec<Node>,
        from: &'a [Node],
        to: &'a mut Vec<u32>,
    ) -> impl FnMut(u32) -> u32 + 'a {
        to.clear();
        to.resize(from.len(), u32::MAX);
        move |id| {
            let mapped = &mut to[id as usize];
            if *mapped == u32::MAX {
                *mapped = self.intern(dict, &from[id as usize]);
            }
            *mapped
        }
    }
}

fn hash_node(node: &Node) -> u64 {
    let mut hasher = FxHasher::default();
    node.hash(&mut hasher);
    hasher.finish()
}

/// A union accumulator: a [`ResultSet`] that remembers which values and
/// which rows it holds, across calls. This is the ∪ of horizontal
/// distribution (§2.4) for a merge point that unions many inputs, or one
/// input many times (a forwarding stream deduplicating batch after batch).
#[derive(Debug)]
pub struct UnionAcc {
    set: ResultSet,
    values: Values,
    index: RowIndex,
    /// What every [`union`](Self::union) reuses: where each column sits in
    /// the part, the part's dictionary mapped here, its rows in our ids.
    scratch: (Vec<usize>, Vec<u32>, Vec<u32>),
}

impl UnionAcc {
    /// Starts from `set`: its dictionary and ids are adopted as they are
    /// (a repeated entry's ids are pointed at the first equal one), and its
    /// rows are taken as they are — duplicates among them stay, as they do
    /// in the accumulator of [`ResultSet::union`].
    pub fn new(mut set: ResultSet) -> Self {
        let (values, remap) = Values::of(&set.rows.dict);
        let Rows { ids, len, .. } = &mut set.rows;
        if let Some(remap) = remap {
            ids.iter_mut().for_each(|id| *id = remap[*id as usize]);
        }
        let w = set.columns.len();
        let mut index = RowIndex::with_capacity(*len);
        for r in 0..*len {
            index.place(hash_ids(ids[r * w..][..w].iter().copied()), r);
        }
        UnionAcc {
            set,
            values,
            index,
            scratch: Default::default(),
        }
    }

    /// The accumulated result.
    pub fn into_result(self) -> ResultSet {
        self.set
    }

    /// Set-semantics union with `part`, whose columns are matched by name
    /// and permuted into this accumulator's order. Each entry of `part`'s
    /// dictionary a row uses is interned once, and cloned only if no
    /// equal entry is here.
    pub fn union(&mut self, part: &ResultSet) {
        let (mut perm, mut to, mut mapped) = std::mem::take(&mut self.scratch);
        // Where each column sits in `part`; a part lacking one adds nothing.
        perm.clear();
        let mut found = self.set.columns.iter().map(|c| part.column_index(c));
        if found.all(|at| at.map(|at| perm.push(at)).is_some()) {
            let (w, k, ids) = (part.columns.len(), perm.len(), part.rows.ids());
            let rows = (0..part.len()).flat_map(|r| perm.iter().map(move |&c| ids[r * w + c]));
            let dict = Arc::make_mut(&mut self.set.rows.dict);
            mapped.clear();
            mapped.extend(rows.map(self.values.mapper(dict, part.rows.dict(), &mut to)));
            for r in 0..part.len() {
                self.push(&mapped[r * k..][..k]);
            }
        }
        self.scratch = (perm, to, mapped);
    }

    /// [`union`](Self::union) that also returns the rows that were new,
    /// in this accumulator's column order — what a pipelined merge point
    /// forwards downstream.
    pub fn union_delta(&mut self, part: &ResultSet) -> Rows {
        let before = self.set.len();
        self.union(part);
        self.set.rows.slice(before..self.set.len())
    }

    /// Appends `row`, ids of this dictionary, unless an equal row is here.
    fn push(&mut self, row: &[u32]) {
        let Rows { dict, ids, len } = &mut self.set.rows;
        let w = row.len();
        let nan = || row.iter().any(|&id| is_nan(&dict[id as usize]));
        let same = |at: usize| ids[at * w..][..w] == *row && !nan();
        if self
            .index
            .insert(hash_ids(row.iter().copied()), *len, same)
            .is_none()
        {
            ids.extend_from_slice(row);
            *len += 1;
        }
    }
}
