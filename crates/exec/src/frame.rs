//! The plan interpreter's slot table (§2.4–§2.5): one frame per union,
//! join or race node. Executing a union or a join opens a frame with one
//! slot per input; each input fills its slot (a local evaluation, a
//! subplan's answer, an empty partial table for a lost one) and the last
//! fill combines them. A `Race` frame (competing hole-fillers, §3.2) ends
//! with its first complete filler. A shipped subplan opens no frame: it
//! completes straight into its parent's slot, its channel or its root.
//! [`Frames`] takes no `Ctx` and sends nothing: `fill` hands a finished
//! frame back, and the peer completes it.

use crate::msg::QueryId;
use crate::peer::by_key;
use crate::serve::Reply;
use sqpeer_rdfs::FxHashMap;
use sqpeer_rql::ResultSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// How a finished subtree result is consumed.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Completion {
    /// Fill `slot` of `frame`.
    Parent { frame: u64, slot: usize },
    /// Answer the subplan a channel's root shipped here.
    Channel(Reply),
    /// Finalise a rooted query.
    Root { qid: QueryId },
}

/// How a frame combines its slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameOp {
    /// Set union over all slots (horizontal distribution).
    Union,
    /// Natural join over all slots, in order (vertical distribution).
    Join,
    /// First successful slot wins (competing hole-fillers, §3.2).
    Race,
}

#[derive(Debug)]
struct Frame {
    qid: QueryId,
    op: FrameOp,
    completion: Completion,
    slots: Vec<Option<ResultSet>>,
    remaining: usize,
    partial: bool,
}

/// The frames a peer has open, by id (see the module documentation).
#[derive(Debug, Default)]
pub(crate) struct Frames {
    open: FxHashMap<u64, Frame>,
    next: u64,
}

impl Frames {
    /// Opens a frame of `slots` empty slots for query `qid`, combined by
    /// `op` and completed by `completion`; returns its id.
    pub(crate) fn open(
        &mut self,
        qid: QueryId,
        op: FrameOp,
        completion: Completion,
        slots: usize,
    ) -> u64 {
        let id = self.next;
        self.next += 1;
        let frame = Frame {
            qid,
            op,
            completion,
            slots: vec![None; slots],
            remaining: slots,
            partial: false,
        };
        self.open.insert(id, frame);
        id
    }

    /// Fills `slot` of `frame` with `result`. Once this fill finishes the
    /// frame, returns where it completes, its result (a rooted query's
    /// last join projects onto `names(qid)`), whether that is partial and
    /// — for a join, whose work the processing-load model charges — the
    /// rows joined before that projection.
    pub(crate) fn fill(
        &mut self,
        frame: u64,
        slot: usize,
        result: ResultSet,
        partial: bool,
        names: impl FnOnce(QueryId) -> Option<Arc<[String]>>,
    ) -> Option<(Completion, ResultSet, bool, Option<usize>)> {
        let id = frame;
        let frame = self.open.get_mut(&id)?;
        if frame.op == FrameOp::Race && !partial {
            // The first complete filler wins; later ones find no frame.
            let frame = self.open.remove(&id)?;
            return Some((frame.completion, result, false, None));
        }
        frame.partial |= partial;
        if frame.slots[slot].is_none() {
            frame.remaining -= 1;
        }
        frame.slots[slot] = Some(result);
        if frame.remaining > 0 {
            return None;
        }
        let frame = self.open.remove(&id)?;
        let joined = frame.op == FrameOp::Join;
        let names = match frame.completion {
            Completion::Root { qid } if joined => names(qid),
            _ => None,
        };
        let (completion, result, partial, rows) = combine(frame, names.as_deref());
        Some((completion, result, partial, joined.then_some(rows)))
    }

    /// Forgets every frame of `qid` (ubQL semantics: a full re-plan
    /// discards all intermediate results).
    pub(crate) fn discard(&mut self, qid: QueryId) {
        self.open.retain(|_, f| f.qid != qid);
    }

    /// An ungraceful restart: every open frame is lost.
    pub(crate) fn clear(&mut self) {
        self.open.clear();
    }

    /// Hashes what a later call reads, for [`crate::PeerNode::digest`]:
    /// the id counter and every open frame in id order.
    pub(crate) fn digest(&self, h: &mut impl Hasher) {
        self.next.hash(h);
        for (id, frame) in by_key(&self.open) {
            (id, format!("{frame:?}")).hash(h);
        }
    }
}

/// Folds a finished frame's slots into its result, consuming them: the
/// first filled slot becomes the accumulator as it is and the others are
/// unioned (one pass) or joined onto it in slot order, the last join
/// projecting onto `names` when given; a race's is its first filled slot.
/// Also returns the partial flag and the rows of the combined result
/// before that projection.
fn combine(frame: Frame, names: Option<&[String]>) -> (Completion, ResultSet, bool, usize) {
    let mut slots = frame.slots.into_iter().flatten().peekable();
    let mut acc = slots.next().unwrap_or_default();
    let mut rows = None;
    match frame.op {
        FrameOp::Union => acc.union_all(&slots.collect::<Vec<_>>()),
        FrameOp::Join => {
            while let Some(s) = slots.next() {
                let (joined, n) = acc.join_onto(&s, names.filter(|_| slots.peek().is_none()));
                (acc, rows) = (joined, Some(n));
            }
        }
        FrameOp::Race => {}
    }
    let rows = rows.unwrap_or(acc.len());
    (frame.completion, acc, frame.partial, rows)
}

#[cfg(test)]
impl Frames {
    /// The slots of every open frame.
    pub(crate) fn slots(&self) -> impl Iterator<Item = &[Option<ResultSet>]> {
        self.open.values().map(|f| &f.slots[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqpeer_rdfs::{Node, Resource};

    fn node(v: u32) -> Node {
        Node::Resource(Resource::new(format!("http://r/{v}")))
    }

    /// A two-column table `(a, b)` of the distinct `rows`.
    fn table(a: usize, b: usize, rows: &[[u32; 2]]) -> ResultSet {
        let columns = vec![format!("C{a}"), format!("C{b}")];
        let mut rows = rows.to_vec();
        rows.sort_unstable();
        rows.dedup();
        let rows = rows.iter().map(|r| vec![node(r[0]), node(r[1])]);
        ResultSet::from_rows(columns, rows.collect())
    }

    const ROOT: Completion = Completion::Root { qid: QueryId(1) };

    fn no_names(_: QueryId) -> Option<Arc<[String]>> {
        None
    }

    /// A race ends with its first complete filler; fillers after it find
    /// no frame, and partial fillers before it are forgotten.
    #[test]
    fn a_race_is_won_by_its_first_complete_filler() {
        let mut frames = Frames::default();
        let race = frames.open(QueryId(1), FrameOp::Race, ROOT, 3);
        let (first, second) = (table(0, 1, &[[1, 2]]), table(0, 1, &[[3, 4]]));
        assert!(frames.fill(race, 0, first, true, no_names).is_none());
        let won = frames.fill(race, 2, second.clone(), false, no_names);
        let (completion, result, partial, rows) = won.expect("a complete filler wins");
        assert!(matches!(completion, Completion::Root { qid: QueryId(1) }));
        assert_eq!((result, partial, rows), (second.clone(), false, None));
        assert!(frames.fill(race, 1, second, false, no_names).is_none());
        assert_eq!(frames.slots().count(), 0);
    }

    /// When every racer fails, the race ends partial with the filler of
    /// its first slot, whatever order they failed in.
    #[test]
    fn an_all_partial_race_gives_its_first_slot_partial() {
        let mut frames = Frames::default();
        let race = frames.open(QueryId(1), FrameOp::Race, ROOT, 2);
        let (first, second) = (table(0, 1, &[[1, 2]]), table(0, 1, &[[3, 4]]));
        assert!(frames.fill(race, 1, second, true, no_names).is_none());
        let lost = frames.fill(race, 0, first.clone(), true, no_names);
        let (_, result, partial, rows) = lost.expect("the last racer failed");
        assert_eq!((result, partial, rows), (first, true, None));
    }

    /// A re-plan discards the frames of its query and nobody else's.
    #[test]
    fn discard_forgets_one_query_only() {
        let mut frames = Frames::default();
        frames.open(QueryId(1), FrameOp::Union, ROOT, 2);
        let kept = frames.open(QueryId(2), FrameOp::Join, ROOT, 1);
        frames.open(QueryId(1), FrameOp::Race, ROOT, 1);
        frames.discard(QueryId(1));
        assert_eq!(frames.open.keys().collect::<Vec<_>>(), [&kept]);
        assert_eq!(frames.next, 3, "ids are never reused");
        let done = frames.fill(kept, 0, table(0, 1, &[]), false, no_names);
        assert!(done.is_some(), "query 2's frame still completes");
    }

    /// `combine` as it was before it consumed its frame: the first filled
    /// slot cloned, every other one folded onto it by reference.
    fn combine_slot_by_slot(op: FrameOp, slots: &[Option<ResultSet>]) -> ResultSet {
        let mut filled = slots.iter().flatten();
        let mut acc = filled.next().cloned().unwrap_or_default();
        for s in filled {
            match op {
                FrameOp::Union => acc.union(s),
                FrameOp::Join => acc = acc.join(s),
                FrameOp::Race => {}
            }
        }
        acc
    }

    proptest::proptest! {
        /// The one-pass fold over owned slots gives the rows the
        /// slot-by-slot fold gave, in the same order, for unions of 1–8
        /// overlapping slots (some column-permuted, some never filled)
        /// and for joins.
        #[test]
        fn combine_matches_slot_by_slot_fold(
            cells in proptest::collection::vec(0..5u32, 0..96),
            shape in proptest::collection::vec(0..4u8, 1..9),
            join in proptest::strategy::any::<bool>(),
        ) {
            let node = |v: u32| sqpeer_rdfs::Node::Resource(Resource::new(format!("http://r/{v}")));
            let mut cells = cells.chunks_exact(2);
            let slots: Vec<Option<ResultSet>> = shape
                .iter()
                .enumerate()
                .map(|(i, &kind)| {
                    // Slot 0 is always filled; the others are sometimes a
                    // hole, sometimes column-permuted. A join chains
                    // X–Y, Y–Z, Z–W… so consecutive slots share a column.
                    if i > 0 && kind == 0 {
                        return None;
                    }
                    let names = |a: usize, b: usize| vec![format!("C{a}"), format!("C{b}")];
                    let columns = match (join, kind) {
                        (true, _) => names(i, i + 1),
                        (false, 1) => names(1, 0),
                        (false, _) => names(0, 1),
                    };
                    let rows = cells
                        .by_ref()
                        .take(6)
                        .map(|c| vec![node(c[0]), node(c[1])])
                        .collect();
                    Some(ResultSet::from_rows(columns, rows))
                })
                .collect();
            let op = if join { FrameOp::Join } else { FrameOp::Union };
            let expected = combine_slot_by_slot(op, &slots);
            let frame = Frame {
                qid: QueryId(1),
                op,
                completion: Completion::Root { qid: QueryId(1) },
                remaining: 0,
                slots,
                partial: false,
            };
            // A join projects onto its chain's two ends as it joins.
            let ends = [expected.columns.first(), expected.columns.last()];
            let names: Vec<String> = ends.into_iter().flatten().cloned().collect();
            let (_, combined, partial, rows) = combine(frame, join.then_some(&names[..]));
            proptest::prop_assert_eq!(rows, expected.len());
            let expected = if join { expected.project(&names) } else { expected };
            proptest::prop_assert_eq!(combined, expected);
            proptest::prop_assert!(!partial);
        }
    }
}
