//! The answer-stream machine of a ubQL channel (§2.4: "data packets are
//! sent through each channel from the destination to the root"), as two
//! sans-IO halves generic over the batch payload `B`.
//!
//! * [`Sender`] — the destination's end: a credit ledger (at most
//!   `window` packets sent and not yet credited back) over a queue of
//!   batches, numbering packets `0, 1, 2, …` and marking the final one.
//! * [`Receiver`] — the root's end: an in-order drain over reordered and
//!   duplicated arrivals, owing one credit per packet while the stream is
//!   incomplete.
//!
//! Neither half knows a message type, a transport or a clock: the peer
//! state machine wraps what they hand out into `Data`/`Credit` packets,
//! and `sqpeer-model` explores these same two types (with `B = ()`)
//! under its adversarial network.

use std::collections::{BTreeMap, VecDeque};

/// What one [`Receiver::ingest`] did.
#[derive(Debug, PartialEq, Eq)]
pub struct Ingested<B> {
    /// Batches that became drainable, in sequence order (empty when the
    /// packet was a duplicate or arrived ahead of a gap).
    pub drained: Vec<B>,
    /// The packet's sequence number had already been drained, or was
    /// already buffered ahead of a gap: its payload was discarded.
    pub is_dup: bool,
    /// The stream is still incomplete, so the packet is acknowledged with
    /// one credit — duplicates too: a retrying sender starts its window
    /// over and would otherwise stall on already-drained sequence numbers.
    pub credit_owed: bool,
}

/// Receiver side of one stream. Batches drain strictly in sequence order
/// the moment they can; out-of-order arrivals wait in a buffer; repeated
/// sequence numbers are dropped, preserving concatenation semantics.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Receiver<B> {
    /// The sequence number the in-order drain is waiting for.
    next_seq: u32,
    /// Batches that arrived ahead of a gap, by sequence number.
    pending: BTreeMap<u32, B>,
    last_seq: Option<u32>,
}

impl<B> Default for Receiver<B> {
    fn default() -> Self {
        Receiver {
            next_seq: 0,
            pending: BTreeMap::new(),
            last_seq: None,
        }
    }
}

impl<B> Receiver<B> {
    /// Ingests the packet numbered `seq` (`last` marks the stream's final
    /// packet).
    pub fn ingest(&mut self, seq: u32, batch: B, last: bool) -> Ingested<B> {
        if last {
            self.last_seq = Some(seq);
        }
        let is_dup = seq < self.next_seq || self.pending.contains_key(&seq);
        let mut drained = Vec::new();
        if !is_dup && seq == self.next_seq {
            // In order: drains at once, never buffered.
            drained.push(batch);
            self.next_seq += 1;
        } else if !is_dup {
            self.pending.insert(seq, batch);
        }
        while let Some(batch) = self.pending.remove(&self.next_seq) {
            drained.push(batch);
            self.next_seq += 1;
        }
        Ingested {
            drained,
            is_dup,
            credit_owed: !self.complete(),
        }
    }

    /// All batches `0..=last` drained?
    pub fn complete(&self) -> bool {
        self.last_seq.is_some_and(|last| self.next_seq > last)
    }

    /// Batches drained so far (the drain cursor).
    pub fn next_seq(&self) -> u32 {
        self.next_seq
    }

    /// Batches buffered ahead of a gap.
    pub fn buffered(&self) -> usize {
        self.pending.len()
    }
}

/// Sender side of one credit-gated stream. At most `window` packets are
/// in flight (handed out by [`Sender::next_packet`] and not yet credited
/// back through [`Sender::grant`]); the rest wait in the send queue.
/// Under the processing-load model batches additionally sit in an
/// unproduced queue until [`Sender::produce`] releases them — the
/// incremental production that lets the first packet leave while the
/// remainder is still being charged.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Sender<B> {
    /// Max packets in flight (the credit window, at least 1).
    window: u32,
    /// Packets handed out that the receiver has not yet credited back.
    inflight: u32,
    /// Next sequence number to hand out.
    next_seq: u32,
    /// Batches the processing-load model has not yet "produced".
    unproduced: VecDeque<B>,
    /// Produced batches awaiting window room.
    queued: VecDeque<B>,
    /// No more batches will be queued: the packet that empties the queue
    /// is the stream's last.
    finished: bool,
}

impl<B> Sender<B> {
    /// An empty, unfinished stream under a credit window of `window`
    /// packets (a window of 0 could never send and is taken as 1).
    pub fn new(window: u32) -> Self {
        Sender::paced(window, VecDeque::new())
    }

    /// A stream whose batches all exist already but are released to the
    /// send queue one [`Sender::produce`] at a time.
    pub fn paced(window: u32, unproduced: VecDeque<B>) -> Self {
        Sender {
            window: window.max(1),
            inflight: 0,
            next_seq: 0,
            unproduced,
            queued: VecDeque::new(),
            finished: false,
        }
    }

    /// Appends a batch to the send queue.
    pub fn push(&mut self, batch: B) {
        self.queued.push_back(batch);
    }

    /// Declares the send queue final.
    pub fn finish(&mut self) {
        self.finished = true;
    }

    /// Was the send queue declared final?
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// One production tick: the oldest unproduced batch joins the send
    /// queue. Returns the batch now next in line for production; `None`
    /// means production is over, and the stream is finished.
    pub fn produce(&mut self) -> Option<&B> {
        if let Some(batch) = self.unproduced.pop_front() {
            self.queued.push_back(batch);
        }
        if self.unproduced.is_empty() {
            self.finished = true;
        }
        self.unproduced.front()
    }

    /// The receiver consumed packets: shrinks the in-flight count.
    /// `credits` is the receiver's claim — an over-grant clamps at an
    /// empty window.
    pub fn grant(&mut self, credits: u32) {
        self.inflight = self.inflight.saturating_sub(credits);
    }

    /// The next packet to put on the wire as `(seq, batch, last)`, or
    /// `None` when the window is full or nothing is queued. After the
    /// packet marked `last` the stream never yields again.
    pub fn next_packet(&mut self) -> Option<(u32, B, bool)> {
        if self.inflight >= self.window {
            return None;
        }
        let batch = self.queued.pop_front()?;
        let last = self.finished && self.queued.is_empty() && self.unproduced.is_empty();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.inflight += 1;
        Some((seq, batch, last))
    }

    /// The credit window.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Packets currently in flight.
    pub fn inflight(&self) -> u32 {
        self.inflight
    }

    /// Packets handed out so far.
    pub fn next_seq(&self) -> u32 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The in-order drain: reordered packets buffer until the gap fills,
    /// duplicates (pending *and* already-drained) are dropped, and the
    /// assembled rows come out in sequence order.
    #[test]
    fn stream_state_drains_in_order_despite_reorder_and_dup() {
        let row = |i: i64| vec![sqpeer_rdfs::Node::Literal(sqpeer_rdfs::Literal::Integer(i))];
        let mut st = Receiver::default();
        let mut acc = Vec::new();
        let mut ingest = |st: &mut Receiver<_>, seq, rows, last| {
            let drained: Vec<_> = st.ingest(seq, rows, last).drained.concat();
            acc.extend(drained.iter().cloned());
            drained
        };
        // seq 1 overtakes seq 0: buffered, nothing drains yet.
        assert!(ingest(&mut st, 1, vec![row(1)], false).is_empty());
        assert!(!st.complete());
        // A duplicate of the buffered packet changes nothing.
        assert!(ingest(&mut st, 1, vec![row(1)], false).is_empty());
        // seq 0 arrives: both drain, in order.
        assert_eq!(
            ingest(&mut st, 0, vec![row(0)], false),
            vec![row(0), row(1)]
        );
        // A duplicate of an already-drained packet is ignored.
        assert!(ingest(&mut st, 0, vec![row(0)], false).is_empty());
        assert!(!st.complete());
        // The final packet closes the stream.
        assert_eq!(ingest(&mut st, 2, vec![row(2)], true), vec![row(2)]);
        assert!(st.complete());
        assert_eq!(acc, vec![row(0), row(1), row(2)]);
    }

    /// Seq-dedup classification behind the dedup-drop counter: packets
    /// already drained or already buffered are dups; every ingest while
    /// the stream is incomplete owes exactly one credit.
    #[test]
    fn stream_state_dedup_classification() {
        let row = |i: i64| vec![sqpeer_rdfs::Node::Literal(sqpeer_rdfs::Literal::Integer(i))];
        let mut st = Receiver::default();
        let first = st.ingest(1, vec![row(1)], false);
        assert!(!first.is_dup);
        assert!(
            st.ingest(1, vec![row(1)], false).is_dup,
            "buffered ahead of the gap"
        );
        assert!(!st.ingest(0, vec![row(0)], false).is_dup);
        assert!(st.ingest(0, vec![row(0)], false).is_dup, "already drained");
        assert!(st.ingest(1, vec![row(1)], false).is_dup, "already drained");
        let fresh = st.ingest(2, vec![row(2)], false);
        assert!(!fresh.is_dup);
        assert!(first.credit_owed && fresh.credit_owed);
        assert_eq!((st.next_seq(), st.buffered()), (3, 0));
    }

    proptest! {
        /// Any permutation-with-duplicates of `n` packets drains exactly
        /// the in-order concatenation once, flags exactly the repeats as
        /// duplicates, and owes one credit per packet ingested while the
        /// stream is incomplete (none for the one that completes it, nor
        /// for stragglers after it).
        #[test]
        fn receiver_drains_any_arrival_order_once(
            n in 1..9u32,
            extra in proptest::collection::vec(0..64u32, 0..12),
            shuffle in proptest::collection::vec(0..1000u32, 20),
        ) {
            // Every seq once plus some repeats, in an arbitrary order.
            let mut arrivals: Vec<u32> = (0..n).chain(extra.iter().map(|e| e % n)).collect();
            let keys: Vec<u32> = (0..arrivals.len()).map(|i| shuffle[i % shuffle.len()]).collect();
            let mut order: Vec<usize> = (0..arrivals.len()).collect();
            order.sort_by_key(|&i| (keys[i], i));
            arrivals = order.iter().map(|&i| arrivals[i]).collect();

            let mut recv = Receiver::default();
            let mut seen = std::collections::HashSet::new();
            let mut out = Vec::new();
            for seq in arrivals {
                let was_complete = recv.complete();
                let got = recv.ingest(seq, vec![seq * 10, seq * 10 + 1], seq == n - 1);
                prop_assert_eq!(got.is_dup, !seen.insert(seq));
                prop_assert_eq!(got.credit_owed, !recv.complete());
                if was_complete {
                    prop_assert!(got.is_dup && got.drained.is_empty() && !got.credit_owed);
                }
                out.extend(got.drained.concat());
            }
            prop_assert!(recv.complete());
            prop_assert_eq!(recv.buffered(), 0);
            let expected: Vec<u32> = (0..n).flat_map(|s| [s * 10, s * 10 + 1]).collect();
            prop_assert_eq!(out, expected);
        }

        /// Any interleaving of `grant` and `next_packet` (with batches
        /// pushed, produced and the stream finished at arbitrary points)
        /// keeps `inflight ≤ window`, emits seqs `0..n` once each in
        /// order, and marks the final packet — and only it — `last`.
        #[test]
        fn sender_ledger_holds_under_any_interleaving(
            window in 0..4u32,
            n in 1..9u32,
            paced in 0..9u32,
            ops in proptest::collection::vec((0..3u8, 0..6u32), 1..64),
        ) {
            // The last `paced` batches start unproduced; the rest are
            // pushed one op at a time, the stream finished with batch
            // `n - 1` whichever way it enters the queue.
            let paced = paced.min(n);
            let mut to_push = 0..n - paced;
            let mut sender = Sender::paced(window, (n - paced..n).collect());
            let push = |sender: &mut Sender<u32>, b: u32| {
                sender.push(b);
                if b == n - 1 {
                    sender.finish();
                }
            };
            let mut emitted: Vec<(u32, u32, bool)> = Vec::new();
            let take = |sender: &mut Sender<u32>, emitted: &mut Vec<_>| {
                while let Some(p) = sender.next_packet() {
                    assert!(sender.inflight() <= sender.window());
                    emitted.push(p);
                }
            };
            for (op, arg) in ops {
                match op {
                    0 => sender.grant(arg),
                    1 => match to_push.next() {
                        Some(b) => push(&mut sender, b),
                        None => {
                            sender.produce();
                        }
                    },
                    _ => take(&mut sender, &mut emitted),
                }
                prop_assert!(sender.inflight() <= sender.window());
            }
            // Run the stream out: everything pushed and produced, credits
            // returned one by one.
            to_push.for_each(|b| push(&mut sender, b));
            while paced > 0 && sender.produce().is_some() {}
            loop {
                take(&mut sender, &mut emitted);
                if emitted.len() == n as usize {
                    break;
                }
                sender.grant(1);
            }
            prop_assert!(sender.finished());
            for (i, &(seq, batch, last)) in emitted.iter().enumerate() {
                prop_assert_eq!((seq, batch), (i as u32, i as u32));
                prop_assert_eq!(last, i as u32 == n - 1);
            }
            sender.grant(u32::MAX);
            prop_assert!(sender.next_packet().is_none(), "nothing follows the last packet");
        }
    }
}
