//! The rows of a result: a dictionary of nodes and, row-major, one `u32`
//! id into it per cell.
//!
//! An answer repeats its values, so a value is cloned, hashed, encoded and
//! rendered once per dictionary entry, not once per cell, and a row is a
//! slice of ids, not a vector of its own. The dictionary need not be
//! distinct — a concatenation of batches, or a foreign encoder, may give
//! one value several ids, and an entry may go unused — so `==`, `Debug`
//! and iteration read through it (they are those of rows of nodes), and
//! the set operations intern entries by content before comparing ids.

use sqpeer_rdfs::Node;
use std::cmp::Ordering;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// The rows of a [`ResultSet`](crate::ResultSet), in order. Cut into
/// pieces, they share one dictionary.
#[derive(Clone)]
pub struct Rows {
    pub(crate) dict: Arc<Vec<Node>>,
    /// `len` rows of equal width, flat.
    pub(crate) ids: Vec<u32>,
    /// Row count (a row of zero columns has no ids to count it by).
    pub(crate) len: usize,
}

/// One row: its cells' ids into the dictionary it borrows.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    dict: &'a [Node],
    ids: &'a [u32],
}

impl<'a> RowRef<'a> {
    /// The row's nodes, in column order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a Node> + 'a {
        let dict = self.dict;
        self.ids.iter().map(move |&id| &dict[id as usize])
    }
}

impl std::ops::Index<usize> for RowRef<'_> {
    type Output = Node;
    fn index(&self, column: usize) -> &Node {
        &self.dict[self.ids[column] as usize]
    }
}

impl PartialEq for RowRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Rows {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// No rows?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Cells per row.
    pub fn width(&self) -> usize {
        self.ids.len().checked_div(self.len).unwrap_or(0)
    }

    /// The dictionary the ids point into.
    pub fn dict(&self) -> &[Node] {
        &self.dict
    }

    /// Every cell's id, row after row.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> RowRef<'_> {
        let w = self.width();
        let ids = &self.ids[i * w..][..w];
        RowRef {
            dict: &self.dict,
            ids,
        }
    }

    /// The rows, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = RowRef<'_>> + '_ {
        (0..self.len).map(|i| self.row(i))
    }

    /// Keeps the first `n` rows.
    pub fn truncate(&mut self, n: usize) {
        self.ids.truncate(n * self.width());
        self.len = self.len.min(n);
    }

    /// Stable-sorts the rows by `cmp`.
    pub fn sort_by(&mut self, mut cmp: impl FnMut(RowRef<'_>, RowRef<'_>) -> Ordering) {
        let mut order: Vec<usize> = (0..self.len).collect();
        order.sort_by(|&a, &b| cmp(self.row(a), self.row(b)));
        let w = self.width();
        let ids = order.iter().flat_map(|&r| &self.ids[r * w..][..w]).copied();
        self.ids = ids.collect();
    }

    /// Appends `other`'s rows, as wide as these. A piece of the same cut
    /// shares this dictionary; any other's dictionary goes after this one,
    /// unhashed, so a value both hold gets two ids.
    pub fn append(&mut self, other: Rows) {
        if self.len == 0 {
            *self = other;
            return;
        }
        if Arc::ptr_eq(&self.dict, &other.dict) {
            self.ids.extend_from_slice(&other.ids);
        } else {
            let base = self.dict.len() as u32;
            self.ids.extend(other.ids.iter().map(|&id| id + base));
            Arc::make_mut(&mut self.dict).extend(Arc::unwrap_or_clone(other.dict));
        }
        self.len += other.len;
    }

    /// Rows `range`, with a dictionary of just the entries they use, in
    /// the order they are first used.
    pub fn slice(&self, range: Range<usize>) -> Rows {
        let (mut remap, mut dict) = (vec![u32::MAX; self.dict.len()], Vec::new());
        let cells = &self.ids[range.start * self.width()..range.end * self.width()];
        let ids = cells.iter().map(|&id| {
            let to = &mut remap[id as usize];
            if *to == u32::MAX {
                *to = dict.len() as u32;
                dict.push(self.dict[id as usize].clone());
            }
            *to
        });
        let ids = ids.collect();
        let len = range.len();
        Rows {
            dict: Arc::new(dict),
            ids,
            len,
        }
    }

    /// The rows cut into consecutive pieces of at most `n` rows, each
    /// sharing this dictionary (the encoder writes only the entries a
    /// piece uses); no rows are one empty piece.
    pub fn chunks(&self, n: usize) -> impl ExactSizeIterator<Item = Rows> + '_ {
        let (n, w) = (n.max(1), self.width());
        (0..self.len.max(1)).step_by(n).map(move |at| {
            let len = self.len.min(at + n) - at;
            Rows {
                dict: Arc::clone(&self.dict),
                ids: self.ids[at * w..][..len * w].to_vec(),
                len,
            }
        })
    }
}

/// No rows, over one empty dictionary every such set shares: making one
/// allocates nothing.
impl Default for Rows {
    fn default() -> Self {
        static EMPTY: OnceLock<Arc<Vec<Node>>> = OnceLock::new();
        let dict = Arc::clone(EMPTY.get_or_init(Arc::default));
        Rows {
            dict,
            ids: Vec::new(),
            len: 0,
        }
    }
}

impl PartialEq for Rows {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for Rows {}

/// Prints as the list of node lists the rows stand for.
impl fmt::Debug for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}
