//! Set-semantics accumulation without a second copy of the rows.
//!
//! [`UnionAcc`] is a [`ResultSet`] plus a position index over its row
//! vector: an open-addressing table of `(row hash, position)` pairs. An
//! incoming row is hashed once, in the accumulator's column order, and
//! compared cell by cell against the rows already there; only a row that
//! turns out to be new is cloned (or, handed over by value, moved) into
//! the vector. Row order is arrival order — exactly what the hash set of
//! cloned rows this replaces produced, which is what keeps streamed
//! batches, `wire_size()` and the byte counters downstream unchanged.
//! [`IdRowSet`] is the same index over rows of `u32` ids.

use crate::eval::{ResultSet, Row};
use sqpeer_rdfs::fxhash::FxHasher;
use sqpeer_rdfs::Node;
use std::hash::{Hash, Hasher};

/// One hash for a row given as a cell sequence (so a permuted view of a
/// foreign row hashes like the row it would become).
fn hash_cells<'a>(cells: impl Iterator<Item = &'a Node>) -> u64 {
    let mut hasher = FxHasher::default();
    for cell in cells {
        cell.hash(&mut hasher);
    }
    hasher.finish()
}

/// One hash for a row of ids.
pub(crate) fn hash_ids(ids: impl Iterator<Item = u32>) -> u64 {
    let mut hasher = FxHasher::default();
    ids.for_each(|id| hasher.write_u32(id));
    hasher.finish()
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: u64,
    /// Position in the row vector; [`VACANT`] marks an empty slot.
    pos: usize,
}

const VACANT: usize = usize::MAX;
const VACANT_SLOT: Slot = Slot {
    hash: 0,
    pos: VACANT,
};

/// Row hash → position in a row vector held elsewhere. Linear probing
/// over a power-of-two table kept at most half full; the bucket is taken
/// from the hash's high bits, where a multiplicative hash mixes best.
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

    /// Records `pos` under `hash` without looking for an equal row.
    fn place(&mut self, hash: u64, pos: usize) {
        let mask = self.slots.len() - 1;
        let mut at = self.bucket(hash);
        while self.slots[at].pos != VACANT {
            at = (at + 1) & mask;
        }
        self.slots[at] = Slot { hash, pos };
        self.used += 1;
    }

    /// Unless some indexed position with this `hash` satisfies `same`,
    /// records `pos` under it and returns `true`.
    fn insert(&mut self, hash: u64, pos: usize, mut same: impl FnMut(usize) -> bool) -> bool {
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
                return true;
            }
            if slot.hash == hash && same(slot.pos) {
                return false;
            }
            at = (at + 1) & mask;
        }
    }
}

/// Distinct equal-width rows of ids, flat in insertion order, over a
/// [`RowIndex`] — what [`ResultSet::join_onto`] dedups once cells are ids.
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
        let new = self
            .1
            .insert(hash_ids(row.iter().copied()), ids.len() / w.max(1), same);
        if new {
            ids.extend_from_slice(row);
        }
        new
    }
}

/// A union accumulator: a [`ResultSet`] that remembers which rows it
/// holds, across calls. This is the ∪ of horizontal distribution (§2.4)
/// for a merge point that unions many inputs, or one input many times
/// (a forwarding stream deduplicating batch after batch).
#[derive(Debug)]
pub struct UnionAcc {
    set: ResultSet,
    index: RowIndex,
}

impl UnionAcc {
    /// Starts from `set`. Its rows are taken as they are — duplicates
    /// among them stay, as they do in the accumulator of
    /// [`ResultSet::union`].
    pub fn new(set: ResultSet) -> Self {
        let mut index = RowIndex::with_capacity(set.rows.len());
        for (pos, row) in set.rows.iter().enumerate() {
            index.place(hash_cells(row.iter()), pos);
        }
        UnionAcc { set, index }
    }

    /// The accumulated result.
    pub fn into_result(self) -> ResultSet {
        self.set
    }

    /// Appends `row` (already in this accumulator's column order) unless
    /// an equal row is present. Returns whether it was new.
    pub fn push_distinct(&mut self, row: Row) -> bool {
        let rows = &self.set.rows;
        let new = self
            .index
            .insert(hash_cells(row.iter()), rows.len(), |at| rows[at] == row);
        if new {
            self.set.rows.push(row);
        }
        new
    }

    /// Appends `row[i] for i in cells` unless an equal row is present;
    /// the cells are cloned only then.
    pub(crate) fn push_distinct_cells(&mut self, row: &[Node], cells: &[usize]) {
        let rows = &self.set.rows;
        let view = || cells.iter().map(|&i| &row[i]);
        if self
            .index
            .insert(hash_cells(view()), rows.len(), |at| view().eq(&rows[at]))
        {
            self.set.rows.push(view().cloned().collect());
        }
    }

    /// Where each of this accumulator's columns sits in `part`; `None`
    /// when `part` lacks one (such a part contributes nothing).
    fn columns_in(&self, part: &ResultSet) -> Option<Vec<usize>> {
        self.set
            .columns
            .iter()
            .map(|c| part.column_index(c))
            .collect()
    }

    /// Set-semantics union with `part`, whose columns are matched by name
    /// and permuted into this accumulator's order.
    pub fn union(&mut self, part: &ResultSet) {
        let Some(perm) = self.columns_in(part) else {
            return;
        };
        for row in &part.rows {
            self.push_distinct_cells(row, &perm);
        }
    }

    /// [`union`](Self::union) of a part handed over by value: where its
    /// columns already line up, new rows move in instead of being cloned.
    pub fn union_owned(&mut self, part: ResultSet) {
        let Some(perm) = self.columns_in(&part) else {
            return;
        };
        let aligned = part.columns.len() == perm.len() && perm.iter().copied().eq(0..perm.len());
        for row in part.rows {
            if aligned && row.len() == perm.len() {
                self.push_distinct(row);
            } else {
                self.push_distinct_cells(&row, &perm);
            }
        }
    }

    /// [`union`](Self::union) that also returns the rows that were new,
    /// in this accumulator's column order — what a pipelined merge point
    /// forwards downstream.
    pub fn union_delta(&mut self, part: &ResultSet) -> Vec<Row> {
        let before = self.set.rows.len();
        self.union(part);
        self.set.rows[before..].to_vec()
    }
}
